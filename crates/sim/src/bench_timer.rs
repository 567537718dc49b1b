//! A tiny wall-clock bench harness for `harness = false` bench targets.
//!
//! Each bench times a closure over a fixed number of iterations (after
//! one warm-up call) and prints a single JSON line with min / median /
//! mean nanoseconds, so `cargo bench` output is grep- and
//! machine-friendly without any statistics dependency. Results are *not*
//! deterministic — they are wall-clock — but the workloads under them
//! are, so run-to-run variance is scheduling noise only.
//!
//! ```no_run
//! use stellar_sim::bench_timer::Harness;
//!
//! let h = Harness::from_args();
//! h.bench("fig06_startup", || {
//!     // run the experiment in quick mode
//! });
//! ```

use crate::json::Obj;
use std::time::Instant;

/// Default iterations per bench; overridable per-run with
/// `STELLAR_BENCH_ITERS`.
const DEFAULT_ITERS: u32 = 10;

/// Bench runner: holds the name filter and iteration count parsed from
/// the command line / environment.
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    iters: u32,
}

impl Harness {
    /// Build from `std::env::args`: the first argument not starting with
    /// `-` is a substring filter on bench names (cargo's own flags, like
    /// `--bench`, are ignored). `STELLAR_BENCH_ITERS` overrides the
    /// iteration count.
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'));
        let iters = std::env::var("STELLAR_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_ITERS);
        Harness { filter, iters }
    }

    /// A harness with an explicit configuration (used by tests).
    pub fn new(filter: Option<String>, iters: u32) -> Self {
        Harness { filter, iters }
    }

    /// Whether `name` passes the filter.
    pub fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Time `f` over the configured iterations and print one JSON line:
    /// `{"bench":name,"iters":n,"min_ns":..,"median_ns":..,"mean_ns":..}`.
    pub fn bench(&self, name: &str, mut f: impl FnMut()) {
        if !self.matches(name) {
            return;
        }
        let stats = time_closure(self.iters, &mut f);
        println!("{}", stats.to_json(name, self.iters).finish());
    }

    /// [`bench`](Self::bench) for a closure that does `ops` operations
    /// per call: the JSON line also carries `ops` and the per-operation
    /// times `min_ns_per_op`, `median_ns_per_op` and `mean_ns_per_op`.
    pub fn bench_per_op(&self, name: &str, ops: u64, mut f: impl FnMut()) {
        if !self.matches(name) {
            return;
        }
        let stats = time_closure(self.iters, &mut f);
        let per = |ns: u64| ns as f64 / ops.max(1) as f64;
        let line = stats
            .to_json(name, self.iters)
            .field_u64("ops", ops)
            .field_f64("min_ns_per_op", per(stats.min_ns))
            .field_f64("median_ns_per_op", per(stats.median_ns))
            .field_f64("mean_ns_per_op", per(stats.mean_ns))
            .finish();
        println!("{line}");
    }
}

/// Timing summary over the measured iterations.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u64,
}

impl BenchStats {
    fn to_json(self, name: &str, iters: u32) -> Obj {
        Obj::new()
            .field_str("bench", name)
            .field_u64("iters", iters as u64)
            .field_u64("min_ns", self.min_ns)
            .field_u64("median_ns", self.median_ns)
            .field_u64("mean_ns", self.mean_ns)
    }
}

/// Time `f` over `iters` iterations (plus one untimed warm-up).
pub fn time_closure(iters: u32, f: &mut impl FnMut()) -> BenchStats {
    let iters = iters.max(1);
    f(); // warm-up: page in code and data before measuring
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let min_ns = samples[0];
    let median_ns = samples[samples.len() / 2];
    let mean_ns = samples.iter().sum::<u64>() / samples.len() as u64;
    BenchStats {
        min_ns,
        median_ns,
        mean_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered() {
        let mut n = 0u64;
        let stats = time_closure(5, &mut || {
            n = n.wrapping_add(1);
            std::hint::black_box(n);
        });
        assert!(stats.min_ns <= stats.median_ns);
    }

    #[test]
    fn filter_matches_substrings() {
        let h = Harness::new(Some("fig0".into()), 1);
        assert!(h.matches("fig06_startup"));
        assert!(!h.matches("table1"));
        let all = Harness::new(None, 1);
        assert!(all.matches("anything"));
    }

    #[test]
    fn json_line_shape() {
        let line = BenchStats {
            min_ns: 10,
            median_ns: 20,
            mean_ns: 21,
        }
        .to_json("x", 3)
        .finish();
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("x"));
        assert_eq!(v.get("min_ns").and_then(|b| b.as_f64()), Some(10.0));
    }
}
