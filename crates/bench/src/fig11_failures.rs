//! Fig. 11 — AllReduce performance under link failures.
//!
//! A large AllReduce runs while one aggregation link randomly drops 1% or
//! 3% of packets. With 128 paths every multipath algorithm tolerates the
//! failure ("distributing traffic over 128 paths effectively reduces the
//! perceived packet loss rate ... by a factor of 128"), while single-path
//! flows pinned to the lossy link suffer repeated RTOs.

use std::fmt::Write as _;

use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig, NicId};
use stellar_sim::json::{Obj, ToJsonRow};
use stellar_sim::par::par_map;
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{PathAlgo, TransportConfig, TransportSim};
use stellar_workloads::allreduce::{AllReduceJob, AllReduceRunner};

/// One bar of Fig. 11.
#[derive(Debug, Clone)]
pub struct Row {
    /// Algorithm.
    pub algo: &'static str,
    /// Paths.
    pub paths: u32,
    /// Injected loss probability on one agg link.
    pub loss: f64,
    /// Bus bandwidth relative to the same setup with zero loss.
    pub relative_busbw: f64,
    /// RTO events observed.
    pub rto_events: u64,
}

impl ToJsonRow for Row {
    fn to_json_row(&self) -> String {
        Obj::new()
            .field_str("algo", self.algo)
            .field_u64("paths", self.paths as u64)
            .field_f64("loss", self.loss)
            .field_f64("relative_busbw", self.relative_busbw)
            .field_u64("rto_events", self.rto_events)
            .finish()
    }
}

fn run_one(algo: PathAlgo, paths: u32, loss: f64, quick: bool) -> (f64, u64) {
    let ranks = if quick { 4 } else { 8 };
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: ranks / 2,
        rails: 1,
        planes: 2,
        // The production aggregation width: sprayed traffic crosses the
        // poisoned link with probability ~1/120, the paper's "reduces the
        // perceived packet loss rate ... by a factor of 128".
        aggs_per_plane: 60,
    });
    let rng = SimRng::from_seed(77);
    let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo,
            num_paths: paths,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );
    // Ring alternating across segments so traffic crosses the agg layer.
    let nics: Vec<NicId> = (0..ranks)
        .map(|r| {
            let host = (r / 2) + (r % 2) * (ranks / 2);
            sim.network().topology().nic(host, 0)
        })
        .collect();
    if loss > 0.0 {
        // Poison one agg uplink used by the first ring edge.
        let src = nics[0];
        let dst = nics[1];
        let link = sim.network().topology().route(src, dst, 0, 0)[1];
        sim.network_mut().set_loss(link, loss);
    }
    let mut runner = AllReduceRunner::new(
        &mut sim,
        vec![AllReduceJob {
            nics,
            // Large payloads, as in the paper's AllReduce tasks: a chunk
            // must take longer than the 250 µs RTO to transmit, so loss
            // recovery hides under the transfer instead of stalling it
            // (chunk = data/N = 32 MB ≈ 800 µs on the wire).
            data_bytes: if quick { 128 * 1024 * 1024 } else { 256 * 1024 * 1024 },
            iterations: if quick { 1 } else { 2 },
            burst: None,
        }],
    );
    runner.start(&mut sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    let busbw = runner.report(0).mean_bus_bandwidth_gbs();
    (busbw, sim.total_stats().rto_events)
}

/// Algorithms compared.
pub fn combos() -> Vec<(&'static str, PathAlgo, u32)> {
    vec![
        ("SinglePath", PathAlgo::SinglePath, 1),
        ("RR-128", PathAlgo::RoundRobin, 128),
        ("OBS-128", PathAlgo::Obs, 128),
        ("DWRR-128", PathAlgo::Dwrr, 128),
        ("MPRDMA-128", PathAlgo::MpRdma, 128),
    ]
}

/// Run the figure. Each algorithm's (lossless base + 1% + 3%) triple is
/// an independent job on the work pool; results flatten in declaration
/// order so the table is byte-identical at any thread count.
pub fn run(quick: bool) -> Vec<Row> {
    let combos = combos();
    par_map(&combos, |&(name, algo, paths)| {
        let (base, _) = run_one(algo, paths, 0.0, quick);
        [0.01, 0.03].map(|loss| {
            let (bw, rto) = run_one(algo, paths, loss, quick);
            Row {
                algo: name,
                paths,
                loss,
                relative_busbw: bw / base,
                rto_events: rto,
            }
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Render the figure as the table `print` emits.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 11 — AllReduce under link failures (busbw relative to lossless)").unwrap();
    writeln!(
        out,
        "{:>12} {:>6} {:>6} {:>10} {:>8}",
        "algorithm", "paths", "loss", "rel busbw", "RTOs"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>12} {:>6} {:>5.0}% {:>10.3} {:>8}",
            r.algo,
            r.paths,
            r.loss * 100.0,
            r.relative_busbw,
            r.rto_events
        )
        .unwrap();
    }
    out
}

/// Print the figure.
pub fn print(rows: &[Row]) {
    print!("{}", render(rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shape() {
        let rows = run(true);
        let get = |algo: &str, loss: f64| {
            rows.iter()
                .find(|r| r.algo == algo && (r.loss - loss).abs() < 1e-9)
                .unwrap()
        };
        // 128-path algorithms tolerate 1% and 3% loss with almost no
        // degradation (paper: "almost no observable performance
        // degradation").
        for algo in ["OBS-128", "RR-128", "DWRR-128", "MPRDMA-128"] {
            for loss in [0.01, 0.03] {
                let r = get(algo, loss);
                assert!(
                    r.relative_busbw > 0.85,
                    "{algo} at {loss}: degraded to {}",
                    r.relative_busbw
                );
            }
        }
        // Single path on the lossy route collapses.
        let single = get("SinglePath", 0.03);
        let obs = get("OBS-128", 0.03);
        assert!(
            single.relative_busbw < 0.5 && single.relative_busbw < obs.relative_busbw,
            "single {} vs obs {}",
            single.relative_busbw,
            obs.relative_busbw
        );
    }
}
