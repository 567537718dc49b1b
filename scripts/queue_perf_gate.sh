#!/usr/bin/env bash
# Queue perf gate: the timing wheel must keep its throughput margin over
# the binary-heap reference queue (DESIGN.md §13).
#
#   scripts/queue_perf_gate.sh WHEEL_REPRODUCE HEAP_REPRODUCE
#
# WHEEL_REPRODUCE is a default `reproduce` build; HEAP_REPRODUCE is one
# built with `--features stellar-sim/reference-queue`. For each of the
# two packet-level poles (fig9 permutation, fig16 LLM training) the two
# builds run alternately, ROUNDS times each, on one worker
# with `--quick --perf`, and each round's wheel events/sec is divided by
# the heap's. The gate fails if the median ratio of either experiment is
# below FLOOR.
#
# Both sides of a ratio ran back to back on the same host, so host speed
# cancels out of it; an absolute events/sec floor against an archived
# report does not have that property (a shared host's load alone moved
# fig9 by more than 2x between runs of the same code). The wheel's margin
# measured 2.7-3.2x when it landed and about 2.0x after later changes
# made the handlers around the queue cheaper per event; a heap-vs-heap run
# reads about 1.0x. FLOOR sits between the two.
set -euo pipefail

FLOOR=1.4
ROUNDS=3

if [ $# -ne 2 ]; then
    echo "usage: $0 WHEEL_REPRODUCE HEAP_REPRODUCE" >&2
    exit 2
fi
wheel="$(realpath "$1")"
heap="$(realpath "$2")"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

for round in $(seq "$ROUNDS"); do
    for exp in fig9 fig16; do
        for side in wheel heap; do
            if [ "$side" = wheel ]; then bin="$wheel"; else bin="$heap"; fi
            if ! STELLAR_THREADS=1 "$bin" "$exp" --quick --perf >/dev/null; then
                echo "queue perf gate: $exp on the $side build failed in round $round" >&2
                exit 1
            fi
            mv BENCH_reproduce.json "$side.$exp.$round.json"
        done
    done
done

python3 - "$ROUNDS" "$FLOOR" <<'PY'
import json, statistics, sys
rounds, floor = int(sys.argv[1]), float(sys.argv[2])
failed = False
for exp in ("fig9", "fig16"):
    def rate(side, r):
        doc = json.load(open(f"{side}.{exp}.{r}.json"))
        (row,) = [s for s in doc["scenarios"] if s["name"] == exp]
        return row["events_per_sec"]
    ratios = [rate("wheel", r) / rate("heap", r) for r in range(1, rounds + 1)]
    median = statistics.median(ratios)
    status = "ok" if median >= floor else "REGRESSION"
    shown = ", ".join(f"{x:.2f}" for x in ratios)
    print(f"queue perf gate: {exp} wheel/heap events/sec {median:.2f}x "
          f"(rounds: {shown}; floor {floor:.2f}x) {status}")
    failed |= median < floor
sys.exit(1 if failed else 0)
PY
