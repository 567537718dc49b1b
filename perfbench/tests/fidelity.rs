//! The timing wrappers must observe without perturbing: a traced run
//! ends with the same simulated result as a bare one, and the counts
//! the wrappers see at the layer boundaries equal the program's own
//! ledgers. Miniature workloads, so the suite runs in seconds in debug.

use stellar_perfbench::probe::{Bare, SpanName, Traced, NO_PARENT};
use stellar_perfbench::workloads::{run, Outcome, Size, Workload};

/// The default seed and a held-out one.
const SEEDS: [u64; 2] = [1, 7_340_033];

fn assert_clean(w: Workload, seed: u64, out: &Outcome) {
    assert!(
        out.failures.is_empty(),
        "{} seed {seed}: checks failed: {:?}",
        w.name(),
        out.failures
    );
}

#[test]
fn traced_runs_match_bare_runs_and_the_ledgers() {
    for w in Workload::ALL {
        for seed in SEEDS {
            let bare = run(w, Size::Mini, seed, &mut Bare);
            let traced = run(w, Size::Mini, seed, &mut Traced::new());
            assert_clean(w, seed, &bare);
            assert_clean(w, seed, &traced);
            assert_eq!(
                bare.digest,
                traced.digest,
                "{} seed {seed}: digest",
                w.name()
            );
            assert_eq!(
                bare.events,
                traced.events,
                "{} seed {seed}: events",
                w.name()
            );
            assert_eq!(
                bare.queue_peak,
                traced.queue_peak,
                "{} seed {seed}",
                w.name()
            );

            let rec = traced
                .trace
                .as_ref()
                .expect("traced run keeps its recorder");
            assert!(bare.trace.is_none());
            assert_eq!(
                rec.send_calls,
                traced.injected.0,
                "{}: send calls",
                w.name()
            );
            assert_eq!(
                traced.split.0 + traced.split.1,
                rec.send_calls,
                "{}: packet + fluid sends",
                w.name()
            );
            assert_eq!(
                rec.message_callbacks,
                traced.stats.completed_messages,
                "{}: on_message_complete calls",
                w.name()
            );
            assert_eq!(rec.send_hist.count(), rec.send_calls);
            assert_eq!(rec.callback_hist.count(), rec.callbacks);
        }
    }
}

#[test]
fn each_workload_exercises_its_own_layer() {
    let perm = run(Workload::PacketPermutation, Size::Mini, 1, &mut Bare);
    assert_eq!(
        perm.split.1, 0,
        "packet_permutation never takes the fluid path"
    );
    assert_eq!(perm.stats.recoveries, 0);

    let llm = run(Workload::HybridLlm16k, Size::Mini, 1, &mut Bare);
    let sends = (llm.split.0 + llm.split.1) as f64;
    assert!(
        llm.split.1 as f64 >= 0.99 * sends,
        "fluid share {:?}",
        llm.split
    );
    assert_eq!(llm.stats.recoveries, 0);

    let fleet = run(Workload::RecoveryFleet, Size::Mini, 1, &mut Bare);
    assert!(fleet.stats.recoveries > 0);
    assert!(fleet.stats.retransmits > 0);
    assert!(
        fleet.split.2 > 0,
        "the outage escalates flows to the packet model"
    );
}

#[test]
fn a_seed_repeats_exactly_and_another_seed_differs() {
    for w in Workload::ALL {
        let a = run(w, Size::Mini, 3, &mut Bare);
        let b = run(w, Size::Mini, 3, &mut Bare);
        let c = run(w, Size::Mini, 4, &mut Bare);
        assert_eq!(a.digest, b.digest, "{}: same seed", w.name());
        assert_ne!(
            a.digest,
            c.digest,
            "{}: the seed shapes the input",
            w.name()
        );
    }
}

#[test]
fn spans_nest_inside_their_parents() {
    let out = run(Workload::RecoveryFleet, Size::Mini, 1, &mut Traced::new());
    let rec = out.trace.as_ref().expect("traced");
    let spans = rec.spans();
    assert!(!spans.is_empty());
    let by_id = |id: u32| spans.iter().find(|s| s.id == id);
    let mut sends_under_callbacks = 0;
    for s in spans {
        assert!(s.start_ns <= s.end_ns);
        if s.parent == NO_PARENT {
            continue;
        }
        let p = by_id(s.parent).expect("a stored span's parent is stored");
        assert!(
            p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
            "{s:?} escapes {p:?}"
        );
        if s.name == SpanName::Send && p.name != SpanName::Run {
            sends_under_callbacks += 1;
        }
    }
    assert!(
        sends_under_callbacks > 0,
        "callbacks post messages that send"
    );
    assert!(spans.iter().any(|s| s.name == SpanName::SetupFabric));
    let text = rec.render_spans();
    assert_eq!(text.lines().count(), spans.len() + 1);
}

/// The layer times split the run without overlap: callbacks, sends
/// outside them and the wrappers' own bookkeeping fit inside the run
/// span, and the sends and bookkeeping inside callbacks fit inside the
/// callback spans. So `transport.self_s` and `app.self_s` hold no
/// tracing cost that is also counted elsewhere.
#[test]
fn layer_times_partition_the_run() {
    for w in Workload::ALL {
        let out = run(w, Size::Mini, 1, &mut Traced::new());
        let rec = out.trace.as_ref().expect("traced");
        let sends_in_run = rec.send_ns - rec.send_in_callback_ns - rec.send_outside_run_ns;
        assert!(rec.probe_ns > 0, "{}: bookkeeping is clocked", w.name());
        assert!(
            rec.callback_ns + sends_in_run + rec.probe_ns <= rec.run_ns,
            "{}: callbacks {} + sends {sends_in_run} + probe {} > run {}",
            w.name(),
            rec.callback_ns,
            rec.probe_ns,
            rec.run_ns
        );
        assert!(
            rec.send_in_callback_ns + rec.probe_in_callback_ns <= rec.callback_ns,
            "{}: sends {} + probe {} inside callbacks > callbacks {}",
            w.name(),
            rec.send_in_callback_ns,
            rec.probe_in_callback_ns,
            rec.callback_ns
        );
    }
}
