//! Transport per-packet microbenchmark: one single-packet message on
//! every connection, sent, delivered and acknowledged.
//!
//! The traffic is the DP all-reduce shape of a 16,384-rank job on
//! `HybridFabric`: rail-aligned rings of 16 consecutive hosts on an
//! 8 × 1024-host, 2-rail, dual-plane Clos, one RC connection per NIC to
//! its ring successor, OBS over 128 paths, and 128 KiB messages that are
//! one packet each (the MTU is the message size). Each timed iteration
//! posts one message on every connection at the same simulated instant,
//! in a fixed shuffled order (in the real job, event order does not
//! follow connection ids, so consecutive events hit scattered records;
//! posting in id order would let the hardware stream prefetcher hide
//! every miss), and runs the transport until its queue drains: per
//! packet one send (window gate, path choice, in-flight insert, fabric
//! send), one delivery (bitmap placement, completion), one ACK (window
//! and path update) and one spent RTO timer.
//!
//! Two sizes, on the same fabric:
//!
//! * `128_conns` — the first 8 rings: the whole working set fits in
//!   cache, like the packet-model permutation workload.
//! * `16384_conns` — every ring: each event's connection record and
//!   in-flight slot is a likely cache miss, like the 16k-rank hybrid
//!   workload.
//!
//! Each bench prints one JSON line whose `*_ns_per_op` fields are the
//! iteration's time divided by its packet count (`ops`). Run with
//! `cargo bench -p stellar-transport --bench transport`; filter by
//! substring (e.g. `-- 16384`). `STELLAR_BENCH_ITERS` overrides the
//! iteration count. EXPERIMENTS.md records reference numbers.

use stellar_net::fixture::hybrid_fabric;
use stellar_net::HybridFabric;
use stellar_net::{ClosConfig, Fabric, HybridConfig, NetworkConfig};
use stellar_sim::bench_timer::Harness;
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{ConnId, NoopApp, PathAlgo, TransportConfig, TransportSim};

const RANKS: usize = 16;
const BYTES: u64 = 128 * 1024;

fn topology() -> ClosConfig {
    ClosConfig {
        segments: 8,
        hosts_per_segment: 1024,
        rails: 2,
        planes: 2,
        aggs_per_plane: 60,
    }
}

/// A transport over the 16k-rank fabric with the first `conns` ring
/// edges open as connections.
fn transport(conns: usize) -> (TransportSim<HybridFabric>, Vec<ConnId>) {
    let rng = SimRng::from_seed(1);
    let fabric = hybrid_fabric(
        topology(),
        NetworkConfig::default(),
        HybridConfig::default(),
        &rng,
    );
    let mut sim = TransportSim::new(
        fabric,
        TransportConfig {
            algo: PathAlgo::Obs,
            num_paths: 128,
            mtu: BYTES,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );
    let t = topology();
    let hosts = t.segments * t.hosts_per_segment;
    let mut ids = Vec::with_capacity(conns);
    'open: for rail in 0..t.rails {
        for base in (0..hosts).step_by(RANKS) {
            for k in 0..RANKS {
                if ids.len() == conns {
                    break 'open;
                }
                let src = sim.network().topology().nic(base + k, rail);
                let dst = sim.network().topology().nic(base + (k + 1) % RANKS, rail);
                ids.push(sim.add_connection(src, dst));
            }
        }
    }
    // Seeded: the same order on every run and commit.
    SimRng::from_seed(2).shuffle(&mut ids);
    (sim, ids)
}

fn main() {
    let h = Harness::from_args();
    for conns in [128, 16_384] {
        let label = format!("transport/send_deliver_ack/{conns}_conns");
        if !h.matches(&label) {
            continue;
        }
        let (mut sim, ids) = transport(conns);
        h.bench_per_op(&label, conns as u64, || {
            for &c in &ids {
                sim.post_message(c, BYTES);
            }
            sim.run(&mut NoopApp, SimTime::from_nanos(u64::MAX / 2));
        });
        let st = sim.total_stats();
        assert_eq!(
            st.completed_messages, st.sent_packets,
            "every packet completes its message"
        );
        assert_eq!(st.retransmits, 0);
    }
}
