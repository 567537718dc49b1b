//! Liveness with packets larger than the congestion window.
//!
//! A ring all-reduce with 4 MiB per rank over 16 ranks sends one
//! 256 KiB chunk per ring step. With one packet per chunk, every packet
//! is larger than the 192 KiB initial window. The window gate must still
//! release a packet onto an idle connection; otherwise no packet is ever
//! sent and the ring never completes.

use stellar_net::fixture::{hybrid_fabric, packet_fabric};
use stellar_net::{ClosConfig, Fabric, HybridConfig, NetworkConfig};
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{PathAlgo, TransportConfig, TransportSim};
use stellar_workloads::{AllReduceJob, AllReduceRunner};

const RANKS: usize = 16;
const DATA_BYTES: u64 = 4 << 20;

fn topology() -> ClosConfig {
    ClosConfig {
        segments: 2,
        hosts_per_segment: RANKS / 2,
        rails: 1,
        planes: 2,
        aggs_per_plane: 4,
    }
}

/// Run one ring iteration on `fabric` with chunk-sized packets; returns
/// whether the ring finished.
fn ring_finishes<F: Fabric>(fabric: F, rng: &SimRng) -> bool {
    let transport = TransportConfig {
        algo: PathAlgo::Obs,
        num_paths: 16,
        mtu: DATA_BYTES / RANKS as u64,
        ..TransportConfig::default()
    };
    assert!(transport.mtu > transport.cc.init_window);
    let mut sim = TransportSim::new(fabric, transport, rng.fork("transport"));
    let nics = (0..RANKS)
        .map(|h| sim.network().topology().nic(h, 0))
        .collect();
    let mut runner = AllReduceRunner::new(
        &mut sim,
        vec![AllReduceJob {
            nics,
            data_bytes: DATA_BYTES,
            iterations: 1,
            burst: None,
        }],
    );
    runner.start(&mut sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    runner.all_finished()
}

#[test]
fn ring_with_packets_above_the_window_completes_on_the_packet_fabric() {
    stellar_check::strict(|| {
        let rng = SimRng::from_seed(11);
        let fabric = packet_fabric(topology(), NetworkConfig::default(), &rng);
        assert!(ring_finishes(fabric, &rng), "ring stalled on Network");
    });
}

#[test]
fn ring_with_packets_above_the_window_completes_on_the_hybrid_fabric() {
    stellar_check::strict(|| {
        let rng = SimRng::from_seed(11);
        let fabric = hybrid_fabric(
            topology(),
            NetworkConfig::default(),
            HybridConfig::default(),
            &rng,
        );
        assert!(ring_finishes(fabric, &rng), "ring stalled on HybridFabric");
    });
}
