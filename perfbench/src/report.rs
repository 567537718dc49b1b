//! Metric names, the values one run contributes, and their aggregation
//! over the runs of one benchmark invocation.

use std::collections::BTreeMap;

use stellar_sim::json::Obj;

use crate::host::HostSpeed;
use crate::workloads::Outcome;

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_gbit_per_s", "Gbit/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("transport.events", "count"),
    ("transport.ns_per_event", "ns"),
    ("transport.self_s", "s"),
    ("transport.queue_peak", "count"),
    ("transport.sent_packets", "count"),
    ("transport.retransmits", "count"),
    ("transport.recoveries", "count"),
    ("transport.replayed_packets", "count"),
    ("transport.completed_messages", "count"),
    ("transport.useful_ratio", "ratio"),
    ("fabric.send_calls", "count"),
    ("fabric.send_s", "s"),
    ("fabric.send_ns_p50", "ns"),
    ("fabric.send_ns_p99", "ns"),
    ("fabric.packet_sends", "count"),
    ("fabric.fluid_sends", "count"),
    ("fabric.escalations", "count"),
    ("fabric.fluid_share", "ratio"),
    ("fabric.packet_send_s", "s"),
    ("fabric.fluid_send_s", "s"),
    ("fabric.fluid_flows_opened", "count"),
    ("fabric.fluid_flows_retired", "count"),
    ("fabric.drops", "count"),
    ("fabric.route_ns", "ns"),
    ("fault.events_applied", "count"),
    ("fault.apply_sends", "count"),
    ("fault.apply_s", "s"),
    ("app.callbacks", "count"),
    ("app.callback_s", "s"),
    ("app.callback_ns_p50", "ns"),
    ("app.callback_ns_p99", "ns"),
    ("app.self_s", "s"),
    ("setup.fabric_s", "s"),
    ("setup.conns_s", "s"),
    ("setup.connections", "count"),
    ("setup.rss_mb", "MB"),
    ("trace.overhead_pct", "%"),
    ("trace.probe_s", "s"),
    ("host.reference_s", "s"),
    ("host.run_wall_s", "s"),
    ("host.setup_wall_s", "s"),
];

/// Per-layer metrics that combine traced and untraced runs, computed by
/// [`Aggregate::per_layer`] rather than reported by a single run.
const DERIVED: [&str; 2] = ["transport.ns_per_event", "trace.overhead_pct"];

/// The values one run reports, by metric name. An untraced run reports
/// the end-to-end metrics; a traced run also reports every per-layer
/// metric that one run can measure.
pub fn run_values(out: &Outcome, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let s = &out.stats;
    let mut v = vec![
        ("setup_s", out.setup_s),
        ("run_s", out.run_s),
        (
            "sim_gbit_per_s",
            s.delivered_bytes as f64 * 8.0 / 1e9 / out.run_s,
        ),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let Some(rec) = out.trace.as_ref() else {
        return v;
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (packet_sends, fluid_sends, escalations) = out.split;
    let send_outside_callbacks = rec.send_ns - rec.send_in_callback_ns - rec.send_outside_run_ns;
    v.extend([
        ("transport.events", out.events as f64),
        (
            "transport.self_s",
            secs(
                rec.run_ns
                    .saturating_sub(rec.callback_ns + send_outside_callbacks + rec.probe_ns),
            ),
        ),
        ("transport.queue_peak", out.queue_peak as f64),
        ("transport.sent_packets", s.sent_packets as f64),
        ("transport.retransmits", s.retransmits as f64),
        ("transport.recoveries", s.recoveries as f64),
        ("transport.replayed_packets", s.replayed_packets as f64),
        ("transport.completed_messages", s.completed_messages as f64),
        (
            "transport.useful_ratio",
            ratio(s.delivered_packets, s.sent_packets + s.retransmits),
        ),
        ("fabric.send_calls", rec.send_calls as f64),
        ("fabric.send_s", secs(rec.send_ns)),
        ("fabric.send_ns_p50", rec.send_hist.percentile(50.0) as f64),
        ("fabric.send_ns_p99", rec.send_hist.percentile(99.0) as f64),
        ("fabric.packet_sends", packet_sends as f64),
        ("fabric.fluid_sends", fluid_sends as f64),
        ("fabric.escalations", escalations as f64),
        (
            "fabric.fluid_share",
            ratio(fluid_sends, packet_sends + fluid_sends),
        ),
        ("fabric.packet_send_s", secs(rec.packet_send_ns)),
        ("fabric.fluid_send_s", secs(rec.fluid_send_ns)),
        ("fabric.fluid_flows_opened", out.fluid_flows.0 as f64),
        ("fabric.fluid_flows_retired", out.fluid_flows.1 as f64),
        ("fabric.drops", out.drops.iter().sum::<u64>() as f64),
        ("fabric.route_ns", out.route_ns),
        ("fault.events_applied", rec.fault_events_applied as f64),
        ("fault.apply_sends", rec.fault_apply_sends as f64),
        ("fault.apply_s", secs(rec.fault_apply_ns)),
        ("app.callbacks", rec.callbacks as f64),
        ("app.callback_s", secs(rec.callback_ns)),
        (
            "app.callback_ns_p50",
            rec.callback_hist.percentile(50.0) as f64,
        ),
        (
            "app.callback_ns_p99",
            rec.callback_hist.percentile(99.0) as f64,
        ),
        (
            "app.self_s",
            secs(
                rec.callback_ns
                    .saturating_sub(rec.send_in_callback_ns + rec.probe_in_callback_ns),
            ),
        ),
        ("setup.fabric_s", out.setup_fabric_s),
        ("setup.conns_s", out.setup_conns_s),
        ("setup.connections", out.connections as f64),
        ("setup.rss_mb", out.setup_rss_mb),
        (
            "trace.probe_s",
            secs(rec.probe_ns + rec.probe_in_callback_ns),
        ),
    ]);
    v
}

/// Scale one run's end-to-end times to the nominal host speed, and add
/// the host figures: the reference loop's time and the unscaled `run_s`
/// and `setup_s`. The traced per-layer seconds stay wall-clock seconds.
pub fn at_host_speed(values: &mut Vec<(&'static str, f64)>, host: HostSpeed) {
    let (mut run_wall_s, mut setup_wall_s) = (0.0, 0.0);
    for (name, value) in values.iter_mut() {
        match *name {
            "run_s" => {
                run_wall_s = *value;
                *value *= host.scale;
            }
            "setup_s" => {
                setup_wall_s = *value;
                *value *= host.setup_scale;
            }
            "sim_gbit_per_s" => *value /= host.scale,
            _ => {}
        }
    }
    values.push(("host.reference_s", host.reference_s));
    values.push(("host.run_wall_s", run_wall_s));
    values.push(("host.setup_wall_s", setup_wall_s));
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of `values`, the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method);
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let m = (n + 1) as f64 * q;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(0.25), at(0.75)))
}

/// The runs of one invocation: each run's values by metric name.
#[derive(Debug, Default)]
pub struct Aggregate {
    untraced: BTreeMap<&'static str, Vec<f64>>,
    traced: BTreeMap<&'static str, Vec<f64>>,
}

impl Aggregate {
    /// Add one run's values.
    pub fn add(&mut self, traced: bool, values: &[(&'static str, f64)]) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        for &(name, value) in values {
            side.entry(name).or_default().push(value);
        }
    }

    /// Every value of `name` from the untraced (or traced) runs.
    pub fn values(&self, traced: bool, name: &str) -> &[f64] {
        let side = if traced { &self.traced } else { &self.untraced };
        side.get(name).map_or(&[], Vec::as_slice)
    }

    /// The values a metric's median is taken over: the untraced runs'
    /// for the end-to-end and `host.*` metrics, the traced runs' for the
    /// other per-layer metrics.
    pub fn sample(&self, trace: bool, name: &str) -> &[f64] {
        self.values(trace && !name.starts_with("host."), name)
    }

    /// End-to-end metrics: medians over the untraced runs.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, median(self.values(false, name))))
            .collect()
    }

    /// Per-layer metrics: medians over the traced runs, plus the two
    /// that compare traced with untraced runs and the host figures of
    /// the untraced runs.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let run_s = median(self.values(false, "run_s"));
        let traced_run_s = median(self.values(true, "run_s"));
        let events = median(self.values(true, "transport.events"));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "transport.ns_per_event" if events > 0.0 => run_s / events * 1e9,
                    "trace.overhead_pct" if run_s > 0.0 => (traced_run_s / run_s - 1.0) * 100.0,
                    _ if DERIVED.contains(&name) => 0.0,
                    _ => median(self.sample(true, name)),
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, each
/// metric as `{"value": ..., "unit": ...}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body = metrics
        .iter()
        .fold(Obj::new(), |obj, &(name, unit, value)| {
            let metric = Obj::new().field_f64("value", value).field_str("unit", unit);
            obj.field_raw(name, &metric.finish())
        });
    Obj::new()
        .field_bool("correct", correct)
        .field_u64("attempted", attempted)
        .field_u64("failed", failed)
        .field_raw("metrics", &body.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn host_speed_scales_the_end_to_end_times_only() {
        let mut v = vec![
            ("setup_s", 0.2),
            ("run_s", 4.0),
            ("sim_gbit_per_s", 10.0),
            ("peak_rss_mb", 100.0),
            ("fabric.send_s", 1.0),
        ];
        let host = HostSpeed::from_reference(0.3, 0.3);
        at_host_speed(&mut v, host);
        assert_eq!(
            v,
            [
                ("setup_s", 0.2 * host.setup_scale),
                ("run_s", 4.0 * host.scale),
                ("sim_gbit_per_s", 10.0 / host.scale),
                ("peak_rss_mb", 100.0),
                ("fabric.send_s", 1.0),
                ("host.reference_s", 0.3),
                ("host.run_wall_s", 4.0),
                ("host.setup_wall_s", 0.2),
            ]
        );
        for (name, _) in &v[5..] {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name));
        }
    }

    #[test]
    fn derived_metrics_are_declared() {
        for name in DERIVED {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == name));
        }
    }
}
