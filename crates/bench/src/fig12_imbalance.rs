//! Fig. 12 — ToR-uplink load imbalance vs. number of paths.
//!
//! Paper setup: 16 connections between two RNICs; the imbalance metric is
//! `(max load − min load) / port bandwidth` across the ToR uplink ports.
//! Ideal balance appears only once the path count reaches ~128, enough to
//! uniformly cover the 60 aggregation switches.

use std::fmt::Write as _;

use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig};
use stellar_sim::json::{Obj, ToJsonRow};
use stellar_sim::par::par_map;
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{NoopApp, PathAlgo, TransportConfig, TransportSim};

/// One x-position of Fig. 12.
#[derive(Debug, Clone)]
pub struct Row {
    /// Paths per connection.
    pub paths: u32,
    /// Max-min load delta as a percentage of the busiest port.
    pub imbalance_pct: f64,
}

impl ToJsonRow for Row {
    fn to_json_row(&self) -> String {
        Obj::new()
            .field_u64("paths", self.paths as u64)
            .field_f64("imbalance_pct", self.imbalance_pct)
            .finish()
    }
}

fn run_one(paths: u32, quick: bool) -> f64 {
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 2,
        rails: 1,
        planes: 2,
        // The paper's 60 aggregation switches: the reason 128 paths are
        // needed for uniform coverage.
        aggs_per_plane: 60,
    });
    let rng = SimRng::from_seed(5);
    let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo: PathAlgo::Obs,
            num_paths: paths,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );
    let src = sim.network().topology().nic(0, 0);
    let dst = sim.network().topology().nic(2, 0); // other segment
    let msgs = if quick { 2 } else { 8 };
    for i in 0..16 {
        let c = sim.add_connection(src, dst);
        for _ in 0..msgs {
            let _ = i;
            sim.post_message(c, 4 * 1024 * 1024);
        }
    }
    sim.run(&mut NoopApp, SimTime::from_nanos(u64::MAX / 2));
    sim.network().tor_uplink_imbalance() * 100.0
}

/// Run the path-count sweep; one work-pool job per path count.
pub fn run(quick: bool) -> Vec<Row> {
    par_map(&[4u32, 8, 16, 32, 64, 128, 256], |&paths| Row {
        paths,
        imbalance_pct: run_one(paths, quick),
    })
}

/// Render the figure as the table `print` emits.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 12 — switch-port load imbalance vs number of paths").unwrap();
    writeln!(out, "{:>8} {:>16}", "paths", "max-min delta %").unwrap();
    for r in rows {
        writeln!(out, "{:>8} {:>16.1}", r.paths, r.imbalance_pct).unwrap();
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
    fn fig12_shape() {
        let rows = run(true);
        let get = |p: u32| rows.iter().find(|r| r.paths == p).unwrap().imbalance_pct;
        // Few paths leave most of the 60 aggs idle: near-total imbalance.
        assert!(get(4) > 80.0, "4 paths: {}", get(4));
        assert!(get(16) > 60.0, "16 paths: {}", get(16));
        // Balance improves monotonically-ish and is best at 128+.
        assert!(get(128) < get(16), "128: {} vs 16: {}", get(128), get(16));
        assert!(get(256) <= get(64), "256: {} vs 64: {}", get(256), get(64));
    }
}
