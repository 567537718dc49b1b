//! Property tests for the transport's core invariants.

use stellar_net::{ClosConfig, ClosTopology, Fabric, FaultPlan, Network, NetworkConfig};
use stellar_sim::par::with_thread_override;
use stellar_sim::proptest_lite::check;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::conn::{ConnId, Connection, MessageState};
use stellar_transport::{
    App, MsgId, PathAlgo, PathSelector, RecoveryPolicy, ScoreboardPolicy, TransportConfig,
    TransportSim,
};

/// The receive bitmap completes exactly once under arbitrary arrival
/// order with arbitrary duplication.
#[test]
fn ooo_placement_exactly_once() {
    check("ooo_placement_exactly_once", 256, |g| {
        let total = g.u64(1, 300);
        let dup_seed = g.u64(0, 1000);
        let mut order: Vec<u64> = (0..total).collect();
        let mut rng = SimRng::from_seed(dup_seed);
        rng.shuffle(&mut order);
        // Duplicate ~30% of packets at random positions.
        let dups: Vec<u64> = order.iter().copied().filter(|_| rng.chance(0.3)).collect();
        let mut arrivals = order.clone();
        arrivals.extend(dups);
        rng.shuffle(&mut arrivals);

        let mut m = MessageState::new(total, total * 4096, SimTime::ZERO);
        let mut completions = 0;
        let mut new_placements = 0;
        for idx in arrivals {
            if m.place_packet(idx) {
                new_placements += 1;
            }
            if m.fully_received() {
                completions += 1;
                break; // transport stops delivering after completion
            }
        }
        assert_eq!(completions, 1);
        assert_eq!(new_placements, total);
    });
}

/// Every packet is assigned to exactly one message slot; segmentation
/// conserves bytes.
#[test]
fn segmentation_conserves_bytes() {
    check("segmentation_conserves_bytes", 256, |g| {
        let bytes = g.u64(1, 10_000_000);
        let mtu_pow = g.u32(9, 14);
        let mtu = 1u64 << mtu_pow;
        let mut c = Connection::new(ConnId(0), stellar_net::NicId(0), stellar_net::NicId(1));
        c.post_message(SimTime::ZERO, bytes, mtu);
        let total: u64 = c.pending(mtu).map(|p| p.bytes).sum();
        assert_eq!(total, bytes);
        assert!(c.pending(mtu).all(|p| p.bytes <= mtu && p.bytes > 0));
        // Indices are 0..n contiguous.
        for (i, p) in c.pending(mtu).enumerate() {
            assert_eq!(p.idx, i as u64);
        }
    });
}

/// Path selectors always return a path within range and respect the
/// allowed predicate, for every algorithm.
#[test]
fn selector_respects_constraints() {
    check("selector_respects_constraints", 256, |g| {
        let algo = *g.pick(&[
            PathAlgo::SinglePath,
            PathAlgo::RoundRobin,
            PathAlgo::Obs,
            PathAlgo::Dwrr,
            PathAlgo::BestRtt,
            PathAlgo::MpRdma,
        ]);
        let paths = g.u32(1, 161);
        let lo = g.u32(0, 8);
        let seed = g.u64(0, 100);
        let mut s = PathSelector::new(algo, paths, SimRng::from_seed(seed));
        let lo = lo.min(paths - 1);
        for _ in 0..50 {
            let p = s.select(None, &|p| p >= lo).expect("a path exists");
            assert!(p < paths && p >= lo, "{algo:?}: {p}");
        }
        // RTT feedback keeps inflight counters non-negative.
        for p in 0..paths.min(4) {
            s.on_ack(p, SimDuration::from_micros(10), false);
            s.on_loss(p);
        }
    });
}

/// The loss scoreboard blacklists a path after the configured number of
/// consecutive losses, routes around it while the penalty lasts, and
/// readmits it when the penalty expires or an ACK proves the path healthy
/// again (the flap-up case).
#[test]
fn scoreboard_blacklists_and_readmits() {
    check("scoreboard_blacklists_and_readmits", 128, |g| {
        let paths = g.u32(2, 64);
        let after = g.u32(1, 5);
        let penalty_us = g.u64(10, 1000);
        let seed = g.u64(0, 100);
        let victim = g.u32(0, paths);
        let now = SimTime::from_nanos(g.u64(0, 1_000_000));
        let mut s = PathSelector::new(PathAlgo::Obs, paths, SimRng::from_seed(seed));
        s.set_scoreboard(ScoreboardPolicy {
            blacklist_after: after,
            penalty: SimDuration::from_micros(penalty_us),
        });
        for _ in 0..after {
            s.on_loss_at(now, victim);
        }
        assert!(s.is_blacklisted(victim, now));
        assert_eq!(s.blacklisted_count(now), 1);
        // While blacklisted, the selector routes around the victim.
        for _ in 0..50 {
            let p = s.select_at(now, None, &|_| true).expect("a path exists");
            assert_ne!(p, victim, "blacklisted path selected");
        }
        // Penalty expiry readmits it — a restored (flapped-up) path is
        // usable again with no explicit reset.
        let later = now + SimDuration::from_micros(penalty_us);
        assert!(!s.is_blacklisted(victim, later));
        // And an ACK clears the sentence early.
        for _ in 0..after {
            s.on_loss_at(now, victim);
        }
        s.on_ack(victim, SimDuration::from_micros(10), false);
        assert!(!s.is_blacklisted(victim, now));
        assert_eq!(s.blacklisted_count(now), 0);
    });
}

/// An identical seed and fault plan drive the full transport (RTO
/// backoff, scoreboard, retry budget) to byte-identical statistics.
#[test]
fn transport_under_faults_is_deterministic() {
    struct Quiet;
    impl App for Quiet {
        fn on_message_complete(&mut self, _: &mut TransportSim, _: ConnId, _: MsgId) {}
    }
    check("transport_under_faults_is_deterministic", 16, |g| {
        let seed = g.u64(0, 500);
        let bytes = g.u64(64, 2048) * 1024;
        let flaps = g.u32(1, 5);
        let run = || {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 2,
                rails: 1,
                planes: 2,
                aggs_per_plane: 4,
            });
            let rng = SimRng::from_seed(seed);
            let network = Network::new(
                topo,
                NetworkConfig {
                    bgp_convergence: SimDuration::from_millis(1),
                    ..NetworkConfig::default()
                },
                rng.fork("net"),
            );
            let mut sim = TransportSim::new(network, TransportConfig::default(), rng.fork("transport"));
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(2, 0);
            let conn = sim.add_connection(src, dst);
            let links: Vec<_> = (0..8)
                .map(|p| sim.network().topology().route(src, dst, 0, p)[1])
                .collect();
            let plan = FaultPlan::new(seed).flap_storm(
                &links,
                SimTime::from_nanos(5_000),
                SimDuration::from_micros(200),
                flaps,
                SimDuration::from_micros(10),
                SimDuration::from_micros(60),
            );
            sim.network_mut().install_fault_plan(plan);
            sim.post_message(conn, bytes);
            sim.run(&mut Quiet, SimTime::from_nanos(u64::MAX / 2));
            (sim.total_stats(), sim.failed_connections())
        };
        assert_eq!(run(), run());
    });
}

/// An arbitrary fault plan severe enough to exhaust the retry budget
/// drives the recovery machinery (teardown → backoff → re-establish →
/// replay) to a byte-identical report at 1 worker and 8 workers: same
/// stats (including `recoveries` and `replayed_packets`), no connection
/// left dead or mid-recovery, and the message delivered exactly once.
#[test]
fn recovery_under_faults_is_identical_across_thread_counts() {
    struct Quiet;
    impl App for Quiet {
        fn on_message_complete(&mut self, _: &mut TransportSim, _: ConnId, _: MsgId) {}
    }
    check("recovery_under_faults_is_identical_across_thread_counts", 12, |g| {
        let seed = g.u64(0, 500);
        // ≥ 2 MB keeps the transfer alive well past `down_at` (a 2 MB
        // message takes ~80 µs on a healthy 200 Gbps path), so the
        // outage always lands mid-flight.
        let bytes = g.u64(2048, 8192) * 1024;
        let retry_budget = g.u32(2, 6);
        let down_at = SimTime::from_nanos(g.u64(1_000, 40_000));
        let flaps = g.u32(1, 4);
        let run = |threads: usize| {
            with_thread_override(threads, || {
                let topo = ClosTopology::build(ClosConfig {
                    segments: 2,
                    hosts_per_segment: 2,
                    rails: 1,
                    planes: 2,
                    aggs_per_plane: 4,
                });
                let rng = SimRng::from_seed(seed);
                let network = Network::new(
                    topo,
                    NetworkConfig {
                        bgp_convergence: SimDuration::from_millis(50),
                        ..NetworkConfig::default()
                    },
                    rng.fork("net"),
                );
                let config = TransportConfig {
                    algo: PathAlgo::SinglePath,
                    num_paths: 1,
                    rto_backoff: 1.0,
                    retry_budget,
                    recovery: Some(RecoveryPolicy::default()),
                    ..TransportConfig::default()
                };
                let rto = config.rto;
                let mut sim = TransportSim::new(network, config, rng.fork("transport"));
                let src = sim.network().topology().nic(0, 0);
                let dst = sim.network().topology().nic(2, 0);
                let conn = sim.add_connection(src, dst);
                // The single pinned link goes dark long enough to exhaust
                // the retry budget, guaranteeing at least one recovery;
                // a flap storm on the neighbouring links rides along for
                // fault-plan arbitrariness.
                let victim = sim.network().topology().route(src, dst, 0, 0)[1];
                let others: Vec<_> = (1..4)
                    .map(|p| sim.network().topology().route(src, dst, 0, p)[1])
                    .collect();
                let outage = rto.mul(u64::from(retry_budget) + 3);
                let plan = FaultPlan::new(seed)
                    .link_down(down_at, victim)
                    .link_up(down_at + outage, victim)
                    .flap_storm(
                        &others,
                        down_at,
                        SimDuration::from_micros(200),
                        flaps,
                        SimDuration::from_micros(10),
                        SimDuration::from_micros(60),
                    );
                sim.network_mut().install_fault_plan(plan);
                sim.post_message(conn, bytes);
                sim.run(&mut Quiet, SimTime::from_nanos(u64::MAX / 2));
                let stats = sim.total_stats();
                assert!(stats.recoveries >= 1, "outage must trigger recovery");
                assert_eq!(stats.completed_messages, 1);
                assert_eq!(sim.failed_connections(), 0);
                assert_eq!(sim.recovering_count(), 0);
                stats
            })
        };
        assert_eq!(run(1), run(8));
    });
}

/// With no faults installed, enabling recovery (and plane failover) is
/// invisible: the run is byte-identical to the same run with both
/// disabled — no extra RNG draws, no timing perturbation.
#[test]
fn fault_free_run_ignores_recovery_policy() {
    struct Quiet;
    impl App for Quiet {
        fn on_message_complete(&mut self, _: &mut TransportSim, _: ConnId, _: MsgId) {}
    }
    check("fault_free_run_ignores_recovery_policy", 24, |g| {
        let seed = g.u64(0, 500);
        let bytes = g.u64(64, 2048) * 1024;
        let algo = *g.pick(&[PathAlgo::SinglePath, PathAlgo::Obs, PathAlgo::MpRdma]);
        let hardened = g.bool();
        let run = || {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 2,
                rails: 1,
                planes: 2,
                aggs_per_plane: 4,
            });
            let rng = SimRng::from_seed(seed);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let config = TransportConfig {
                algo,
                num_paths: if algo == PathAlgo::SinglePath { 1 } else { 16 },
                recovery: hardened.then(RecoveryPolicy::default),
                plane_failover: hardened.then(stellar_transport::PlaneFailover::default),
                ..TransportConfig::default()
            };
            let mut sim = TransportSim::new(network, config, rng.fork("transport"));
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(2, 0);
            let conn = sim.add_connection(src, dst);
            sim.post_message(conn, bytes);
            sim.run(&mut Quiet, SimTime::from_nanos(u64::MAX / 2));
            (sim.total_stats(), sim.now())
        };
        // Both arms of `hardened` must agree with a fresh unhardened run.
        let (base_stats, base_now) = run();
        let baseline = {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 2,
                rails: 1,
                planes: 2,
                aggs_per_plane: 4,
            });
            let rng = SimRng::from_seed(seed);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    algo,
                    num_paths: if algo == PathAlgo::SinglePath { 1 } else { 16 },
                    ..TransportConfig::default()
                },
                rng.fork("transport"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(2, 0);
            let conn = sim.add_connection(src, dst);
            sim.post_message(conn, bytes);
            sim.run(&mut Quiet, SimTime::from_nanos(u64::MAX / 2));
            (sim.total_stats(), sim.now())
        };
        assert_eq!((base_stats, base_now), baseline);
        assert_eq!(base_stats.recoveries, 0);
    });
}

/// OBS spraying over N paths touches a large fraction of them after
/// enough packets (no silent path collapse).
#[test]
fn obs_covers_paths() {
    check("obs_covers_paths", 128, |g| {
        let paths = g.u32(2, 129);
        let seed = g.u64(0, 50);
        let mut s = PathSelector::new(PathAlgo::Obs, paths, SimRng::from_seed(seed));
        for _ in 0..(paths as usize * 20) {
            s.select(None, &|_| true);
        }
        assert!(s.active_paths() as u32 >= paths * 8 / 10);
    });
}
