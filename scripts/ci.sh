#!/usr/bin/env bash
# Tier-1 gate for the stellar workspace. Every command runs --offline:
# the workspace has zero external dependencies by policy (see DESIGN.md,
# "Determinism & zero-dependency policy"), so a network fetch during CI
# is itself a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace
cargo clippy --offline --workspace -- -D warnings

# Queue gate, part 1 (DESIGN.md §13): the timing-wheel event queue must
# stay observably identical to the binary-heap reference. Three layers:
# the differential property suite (wheel vs heap in lockstep), the
# mutation drill (a wheel sabotaged with a wrong-tier cascade, a dropped
# overflow migration, or a LIFO slot drain must *diverge* — proving the
# differential suite still has teeth), and the golden corpus replayed
# with `EventQueue` aliased back to the reference heap, so both queue
# implementations pin the exact same rendered bytes. (The default-build
# golden runs below cover the wheel side.)
cargo test -q --offline -p stellar-sim --test queue_diff
cargo test -q --offline -p stellar-sim --features queue-drill --test queue_drill
cargo test -q --offline -p stellar-bench --features stellar-sim/reference-queue --test golden

# Chaos suite: multi-fault plans must keep their graceful-degradation
# verdicts (and the unhardened counterfactual must keep failing).
cargo run --release --offline -p stellar-bench --bin reproduce -- chaos --quick >/dev/null

# Determinism and strict-check matrix: the full experiment suite runs at
# one worker and at eight, each plain and under --check. All four
# outputs must be byte-identical — parallelism may change only
# wall-clock, never results (see DESIGN.md, "Determinism under
# parallelism"), and the stellar-check invariant engine may observe,
# never perturb. `--check` opens a capture scope, so every quiesce point
# in every layer evaluates its cross-layer invariants (among them
# transport.recovery_exactly_once, net.blacklist_readmit and the
# cluster.* ledger checks); any violation prints a sim-time-stamped
# report on stderr and exits nonzero, which fails this script.
matrix_ref=""
for threads in 1 8; do
    for check in "" --check; do
        out="$(STELLAR_THREADS=$threads cargo run --release --offline -p stellar-bench --bin reproduce -- all --quick --json $check)"
        if [ -z "$matrix_ref" ]; then
            matrix_ref="$out"
        elif [ "$out" != "$matrix_ref" ]; then
            echo "matrix gate: reproduce all --json differs at STELLAR_THREADS=$threads ${check:-(no --check)}" >&2
            diff <(printf '%s\n' "$matrix_ref") <(printf '%s\n' "$out") >&2 || true
            exit 1
        fi
    done
done

# Trace gate: --trace must produce a well-formed TRACE_<exp>.json whose
# bytes are identical between one worker and eight — the telemetry fold
# is job-ordered, so the flight-recorder window, span histograms and
# counters may not depend on scheduling (see DESIGN.md §6).
trace_dir="$(mktemp -d)"
(cd "$trace_dir" && STELLAR_THREADS=1 "$OLDPWD"/target/release/reproduce fig11 --quick --trace >/dev/null)
mv "$trace_dir/TRACE_fig11.json" "$trace_dir/TRACE_fig11.one.json"
(cd "$trace_dir" && STELLAR_THREADS=8 "$OLDPWD"/target/release/reproduce fig11 --quick --trace >/dev/null)
if ! cmp -s "$trace_dir/TRACE_fig11.one.json" "$trace_dir/TRACE_fig11.json"; then
    echo "trace gate: TRACE_fig11.json differs between 1 and 8 workers" >&2
    diff "$trace_dir/TRACE_fig11.one.json" "$trace_dir/TRACE_fig11.json" >&2 || true
    rm -rf "$trace_dir"
    exit 1
fi
rm -rf "$trace_dir"

# Golden-corpus gate: the recorded reproduce outputs under
# crates/bench/tests/golden/ must match fresh runs byte-for-byte at one
# worker and at eight (the golden tests run both internally).
STELLAR_THREADS=1 cargo test -q --offline -p stellar-bench --test golden
STELLAR_THREADS=8 cargo test -q --offline -p stellar-bench --test golden

# Perf harness: archive the wall-clock/event report for this build. The
# run doubles as a third determinism pass (--perf re-runs everything on
# one worker and fails if any output byte differs, trace documents
# included).
cargo run --release --offline -p stellar-bench --bin reproduce -- all --quick --perf >/dev/null

# Queue gate, part 2 — perf regression: scheduled-event throughput on
# the two packet-level poles (fig9 permutation, fig16 LLM training) must
# not collapse back toward the binary-heap era. The gate compares the
# wheel build with a reference-queue build run alternately in this job,
# so host load cancels out of the ratio (scripts/queue_perf_gate.sh).
cargo build --release --offline -p stellar-bench --bin reproduce \
    --features stellar-sim/reference-queue --target-dir target/reference-queue
scripts/queue_perf_gate.sh target/release/reproduce target/reference-queue/release/reproduce
echo "archived BENCH_reproduce.json:"
cat BENCH_reproduce.json
