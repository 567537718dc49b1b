//! # stellar-telemetry — deterministic flight recorder + latency attribution
//!
//! A unified observability layer for the Stellar reproduction (ISSUE 4).
//! Three pieces, all fed through one thread-local recording context:
//!
//! * a **flight recorder** ([`FlightRecorder`]) — a bounded ring of
//!   typed, *sim-time-stamped* [`TraceEvent`]s tagged with a
//!   [`Subsystem`] and an [`Entity`] (QP, connection, link, page …);
//! * **span-based latency attribution** ([`SpanTracker`]) — open/close
//!   spans keyed by `(stage, id)` plus direct duration samples, producing
//!   a per-[`Stage`] latency histogram (doorbell→DMA fetch, DMA→TLP
//!   completion, IOMMU/ATS walk vs ATC hit, fabric queueing, transport
//!   RTT …);
//! * a **metrics hub** ([`MetricsHub`]) — named per-subsystem counters
//!   (the `DropReason` taxonomy, scoreboard blacklists, cache hit/miss,
//!   retry budgets) exported via the in-tree json writer.
//!
//! ## Usage
//!
//! Instrumented crates call the free functions ([`count`], [`event`],
//! [`stage_sample`], [`span_open`], [`span_close`]) unconditionally;
//! each is a thread-local level check followed by an early return when
//! recording is off (the default), so the disabled cost is one TLS read
//! and a branch. Recording is scoped: [`capture`] installs a context,
//! runs a closure, and returns the closure's result together with the
//! collected [`Telemetry`].
//!
//! ## Determinism (non-negotiable, see DESIGN.md §6)
//!
//! Events carry **sim time only** — never wall clock. Under the
//! `stellar_sim::par` work pool every job records into a *fresh* private
//! context (installed via the pool's job-context hooks, which this crate
//! registers), and the pool folds job contexts back into the caller
//! **in job order** at every thread count — including the inline
//! single-thread path, which brackets each job identically so bounded
//! ring-drop behaviour cannot differ. The rendered JSON is therefore
//! byte-identical at every `STELLAR_THREADS` value.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod hub;
mod recorder;
mod spans;

pub use hub::MetricsHub;
pub use recorder::{FlightRecorder, TraceEvent};
pub use spans::SpanTracker;

use std::any::Any;
use std::cell::{Cell, RefCell};

use stellar_sim::par::{set_job_context_hooks, JobContextHooks};
use stellar_sim::{SimDuration, SimTime};

/// The subsystem that recorded an event or counter. Ordered (and
/// rendered) in rough dataflow order: host bus → NIC → fabric →
/// transport → virtualisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// PCIe: IOMMU/IOTLB walks, ATS/ATC, TLP routing.
    Pcie,
    /// RNIC: doorbells, DMA engine, vSwitch steering.
    Rnic,
    /// Fabric: links, drops, ECN, fault plans.
    Net,
    /// Transport: connections, RTO/retransmit, scoreboard.
    Transport,
    /// Virtualisation: RunD boot, PVDMA pinning.
    Virt,
}

impl Subsystem {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Pcie => "pcie",
            Subsystem::Rnic => "rnic",
            Subsystem::Net => "net",
            Subsystem::Transport => "transport",
            Subsystem::Virt => "virt",
        }
    }
}

/// The entity a [`TraceEvent`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// No specific entity (subsystem-wide event).
    None,
    /// A queue pair / doorbell slot.
    Qp(u32),
    /// A transport connection.
    Conn(u32),
    /// A fabric link.
    Link(u32),
    /// A transport path id within a connection.
    Path(u32),
    /// A (guest or IO) page address.
    Page(u64),
    /// A message id.
    Msg(u64),
    /// A device (GPU / NIC) id.
    Dev(u32),
}

impl Entity {
    /// Render as the compact `kind:id` form used in JSON output.
    pub fn render(self) -> String {
        match self {
            Entity::None => "-".to_string(),
            Entity::Qp(id) => format!("qp:{id}"),
            Entity::Conn(id) => format!("conn:{id}"),
            Entity::Link(id) => format!("link:{id}"),
            Entity::Path(id) => format!("path:{id}"),
            Entity::Page(addr) => format!("page:{addr:#x}"),
            Entity::Msg(id) => format!("msg:{id}"),
            Entity::Dev(id) => format!("dev:{id}"),
        }
    }
}

/// A latency-attribution stage: one bucket of the cross-layer breakdown.
///
/// Stages follow a message's life: doorbell ring → DMA fetch → per-page
/// TLP completion (with the translation path attributed separately as
/// ATC hit / ATS walk / IOTLB hit / IOMMU walk) → fabric queueing →
/// transport RTT and whole-message latency — plus the virtualisation
/// pinning cost that gates the datapath at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Doorbell ring to DMA descriptor fetch (per-message NIC overhead).
    DoorbellDmaFetch,
    /// DMA issue to TLP completion, per page (wire + translation + fabric).
    DmaTlpCompletion,
    /// Address translation served from the device ATC.
    AtcHit,
    /// Address translation requiring a full ATS round trip to the IOMMU.
    AtsWalk,
    /// IOMMU translation served from the IOTLB.
    IotlbHit,
    /// IOMMU translation requiring a page-table walk.
    IommuWalk,
    /// Time spent queued behind fabric link backlogs.
    FabricQueueing,
    /// Transport-measured packet round-trip time (send → ACK).
    TransportRtt,
    /// Whole-message transport latency (post → completion), span-based.
    TransportMsg,
    /// Memory-pinning cost (VFIO full pin or PVDMA on-demand blocks).
    VirtPin,
}

impl Stage {
    /// All stages, in rendering order.
    pub const ALL: [Stage; 10] = [
        Stage::DoorbellDmaFetch,
        Stage::DmaTlpCompletion,
        Stage::AtcHit,
        Stage::AtsWalk,
        Stage::IotlbHit,
        Stage::IommuWalk,
        Stage::FabricQueueing,
        Stage::TransportRtt,
        Stage::TransportMsg,
        Stage::VirtPin,
    ];

    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::DoorbellDmaFetch => "doorbell_dma_fetch",
            Stage::DmaTlpCompletion => "dma_tlp_completion",
            Stage::AtcHit => "atc_hit",
            Stage::AtsWalk => "ats_walk",
            Stage::IotlbHit => "iotlb_hit",
            Stage::IommuWalk => "iommu_walk",
            Stage::FabricQueueing => "fabric_queueing",
            Stage::TransportRtt => "transport_rtt",
            Stage::TransportMsg => "transport_msg",
            Stage::VirtPin => "virt_pin",
        }
    }

    /// Index into [`Stage::ALL`] (used as the span-key stage discriminant).
    pub fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("stage in ALL")
    }
}

/// How much the context records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the process-wide default; near-zero cost).
    Off,
    /// Counters, stage samples and spans — no event ring.
    Stats,
    /// Everything, including the bounded flight-recorder ring.
    Events,
}

impl TraceLevel {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Stats => "stats",
            TraceLevel::Events => "events",
        }
    }
}

/// Configuration for a [`capture`] scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Recording level.
    pub level: TraceLevel,
    /// Flight-recorder ring capacity (most recent events are kept).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            level: TraceLevel::Events,
            ring_capacity: 4096,
        }
    }
}

/// Everything one [`capture`] scope collected.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The configuration the scope ran with.
    pub config: TelemetryConfig,
    /// The bounded event ring (empty below [`TraceLevel::Events`]).
    pub recorder: FlightRecorder,
    /// Per-stage latency attribution.
    pub spans: SpanTracker,
    /// Named per-subsystem counters.
    pub hub: MetricsHub,
}

impl Telemetry {
    /// An empty telemetry context for `config` (nothing recorded yet).
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            recorder: FlightRecorder::new(config.ring_capacity),
            spans: SpanTracker::new(),
            hub: MetricsHub::new(),
        }
    }

    /// Fold `other` (a child job's context) into `self`, in job order:
    /// ring events append (re-bounded), histograms take the multiset
    /// union, counters add. Open spans never migrate across jobs — a
    /// span must close in the job that opened it; survivors count as
    /// leaked.
    pub fn merge(&mut self, other: Telemetry) {
        self.recorder.merge(other.recorder);
        self.spans.merge(other.spans);
        self.hub.merge(&other.hub);
    }
}

thread_local! {
    /// Stack of active capture scopes (innermost last). A stack — not a
    /// slot — so captures nest and par-pool job installs layer over an
    /// enclosing scope on the same thread.
    static STACK: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };

    /// Mirror of the innermost scope's level for the hot-path gate:
    /// 0 = off, 1 = stats, 2 = events. One TLS read + compare when
    /// tracing is disabled.
    static LEVEL: Cell<u8> = const { Cell::new(0) };
}

fn level_of(cfg: TelemetryConfig) -> u8 {
    match cfg.level {
        TraceLevel::Off => 0,
        TraceLevel::Stats => 1,
        TraceLevel::Events => 2,
    }
}

fn push_context(t: Telemetry) {
    LEVEL.with(|l| l.set(level_of(t.config)));
    STACK.with(|s| s.borrow_mut().push(t));
}

fn pop_context() -> Option<Telemetry> {
    let t = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let t = stack.pop();
        let level = stack.last().map_or(0, |t| level_of(t.config));
        LEVEL.with(|l| l.set(level));
        t
    });
    t
}

/// Whether any recording (counters/spans or events) is active on this
/// thread. Call sites use this to skip argument construction entirely.
#[inline]
pub fn enabled() -> bool {
    LEVEL.with(|l| l.get()) >= 1
}

/// Whether flight-recorder events are active on this thread.
#[inline]
pub fn events_enabled() -> bool {
    LEVEL.with(|l| l.get()) >= 2
}

/// Add `n` to the counter `name` under `sub`. No-op when disabled.
#[inline]
pub fn count(sub: Subsystem, name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some(t) = s.borrow_mut().last_mut() {
            t.hub.add(sub, name, n);
        }
    });
}

/// Record a flight-recorder event at sim time `at`. No-op below
/// [`TraceLevel::Events`].
///
/// Event-loop subsystems stamp absolute sim time; synchronous latency
/// models (the DMA engine, IOMMU, ATC) have no global clock and stamp
/// operation-relative offsets instead — the taxonomy documents which.
#[inline]
pub fn event(at: SimTime, sub: Subsystem, entity: Entity, kind: &'static str, value: u64) {
    if !events_enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some(t) = s.borrow_mut().last_mut() {
            t.recorder.record(TraceEvent {
                at,
                subsystem: sub,
                entity,
                kind,
                value,
            });
        }
    });
}

/// Attribute a measured duration to `stage` directly (for synchronous
/// code that already knows the latency). No-op when disabled.
#[inline]
pub fn stage_sample(stage: Stage, d: SimDuration) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some(t) = s.borrow_mut().last_mut() {
            t.spans.sample(stage, d);
        }
    });
}

/// Open a span for `stage` keyed by `key` at sim time `at`. No-op when
/// disabled. Re-opening a live key overwrites it (the earlier open
/// counts as leaked at render time if never closed).
#[inline]
pub fn span_open(at: SimTime, stage: Stage, key: u64) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some(t) = s.borrow_mut().last_mut() {
            t.spans.open(stage, key, at);
        }
    });
}

/// Close the span for `(stage, key)` at sim time `at`, attributing the
/// elapsed sim time to the stage's histogram. A close without a matching
/// open is counted (never a panic) — fault paths may tear down entities
/// that never finished opening. No-op when disabled.
#[inline]
pub fn span_close(at: SimTime, stage: Stage, key: u64) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some(t) = s.borrow_mut().last_mut() {
            t.spans.close(stage, key, at);
        }
    });
}

fn hooks() -> JobContextHooks {
    JobContextHooks {
        // Seed jobs with the caller's innermost config; None (no active
        // scope) keeps the pool on its no-hooks fast path.
        snapshot: || {
            STACK.with(|s| {
                s.borrow()
                    .last()
                    .map(|t| Box::new(t.config) as Box<dyn Any + Send + Sync>)
            })
        },
        install: |snap| {
            let cfg = snap
                .downcast_ref::<TelemetryConfig>()
                .expect("telemetry snapshot is a TelemetryConfig");
            push_context(Telemetry::new(*cfg));
        },
        extract: || pop_context().map(|t| Box::new(t) as Box<dyn Any + Send>),
        fold: |ctx| {
            let child = *ctx.downcast::<Telemetry>().expect("telemetry job context");
            STACK.with(|s| {
                if let Some(t) = s.borrow_mut().last_mut() {
                    t.merge(child);
                }
            });
        },
    }
}

/// Run `f` with recording active at `config`, returning its result and
/// the collected [`Telemetry`]. Nested `stellar_sim::par` pools inside
/// `f` fold their jobs' recordings back in job order (this function
/// registers the pool hooks), so the result is byte-identical at every
/// thread count. Captures may nest; the innermost wins.
pub fn capture<R>(config: TelemetryConfig, f: impl FnOnce() -> R) -> (R, Telemetry) {
    set_job_context_hooks(hooks());
    push_context(Telemetry::new(config));
    let out = f();
    let t = pop_context().expect("capture context still on the stack");
    // The end of a capture is a quiesce point for the span ledger: every
    // span ever opened must be closed, leaked, or still open.
    t.spans.check_invariants(SimTime::ZERO);
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_sim::par::{par_map, with_thread_override};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        assert!(!enabled());
        count(Subsystem::Net, "drop.random_loss", 3);
        event(t(5), Subsystem::Net, Entity::Link(1), "drop", 1);
        stage_sample(Stage::TransportRtt, SimDuration::from_nanos(10));
        // Nothing to observe — the point is it does not panic and a
        // subsequent capture starts clean.
        let ((), tel) = capture(TelemetryConfig::default(), || {});
        assert_eq!(tel.hub.total(), 0);
        assert_eq!(tel.recorder.len(), 0);
    }

    #[test]
    fn capture_collects_counters_events_and_spans() {
        let ((), tel) = capture(TelemetryConfig::default(), || {
            count(Subsystem::Transport, "rto", 2);
            count(Subsystem::Transport, "rto", 1);
            event(t(10), Subsystem::Transport, Entity::Conn(0), "rto", 1);
            span_open(t(0), Stage::TransportMsg, 7);
            span_close(t(100), Stage::TransportMsg, 7);
            stage_sample(Stage::AtcHit, SimDuration::from_nanos(10));
        });
        assert_eq!(tel.hub.get(Subsystem::Transport, "rto"), 3);
        assert_eq!(tel.recorder.len(), 1);
        let h = tel.spans.stage(Stage::TransportMsg);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentiles().max(), Some(100));
        assert_eq!(tel.spans.stage(Stage::AtcHit).count(), 1);
        assert_eq!(tel.spans.open_count(), 0);
    }

    #[test]
    fn stats_level_suppresses_events_only() {
        let cfg = TelemetryConfig {
            level: TraceLevel::Stats,
            ring_capacity: 16,
        };
        let ((), tel) = capture(cfg, || {
            assert!(enabled() && !events_enabled());
            count(Subsystem::Pcie, "atc.hit", 1);
            event(t(1), Subsystem::Pcie, Entity::Page(0x1000), "walk", 1);
        });
        assert_eq!(tel.hub.get(Subsystem::Pcie, "atc.hit"), 1);
        assert_eq!(tel.recorder.len(), 0, "events gated out at Stats");
    }

    #[test]
    fn captures_nest_innermost_wins() {
        let ((), outer) = capture(TelemetryConfig::default(), || {
            count(Subsystem::Net, "outer", 1);
            let ((), inner) = capture(TelemetryConfig::default(), || {
                count(Subsystem::Net, "inner", 1);
            });
            assert_eq!(inner.hub.get(Subsystem::Net, "inner"), 1);
            assert_eq!(inner.hub.get(Subsystem::Net, "outer"), 0);
            count(Subsystem::Net, "outer", 1);
        });
        assert_eq!(outer.hub.get(Subsystem::Net, "outer"), 2);
        assert_eq!(outer.hub.get(Subsystem::Net, "inner"), 0);
    }

    #[test]
    fn par_jobs_fold_in_job_order_at_any_thread_count() {
        let run = |threads: usize| {
            with_thread_override(threads, || {
                capture(TelemetryConfig { level: TraceLevel::Events, ring_capacity: 8 }, || {
                    let items: Vec<u64> = (0..6).collect();
                    par_map(&items, |&i| {
                        count(Subsystem::Rnic, "job", 1);
                        for k in 0..3 {
                            event(
                                t(i * 10 + k),
                                Subsystem::Rnic,
                                Entity::Qp(i as u32),
                                "op",
                                k,
                            );
                        }
                        stage_sample(Stage::DmaTlpCompletion, SimDuration::from_nanos(i));
                    });
                })
                .1
            })
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.hub.get(Subsystem::Rnic, "job"), 6);
        assert_eq!(b.hub.get(Subsystem::Rnic, "job"), 6);
        // 18 events recorded into an 8-slot ring: both thread counts must
        // keep the *same* most-recent window, in the same order.
        let ev_a: Vec<String> = a
            .recorder
            .events()
            .map(|e| format!("{}:{}:{}", e.at.as_nanos(), e.entity.render(), e.value))
            .collect();
        let ev_b: Vec<String> = b
            .recorder
            .events()
            .map(|e| format!("{}:{}:{}", e.at.as_nanos(), e.entity.render(), e.value))
            .collect();
        assert_eq!(ev_a, ev_b);
        assert_eq!(a.recorder.recorded(), 18);
        assert_eq!(a.recorder.dropped(), 10);
        assert_eq!(
            a.spans.stage(Stage::DmaTlpCompletion).percentiles().sum(),
            b.spans.stage(Stage::DmaTlpCompletion).percentiles().sum()
        );
    }

    #[test]
    fn entity_render_forms() {
        assert_eq!(Entity::None.render(), "-");
        assert_eq!(Entity::Conn(3).render(), "conn:3");
        assert_eq!(Entity::Page(0x2000).render(), "page:0x2000");
    }

    #[test]
    fn stage_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
