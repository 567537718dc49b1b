//! Outside-in tracing: a [`Fabric`] wrapper that times every `send` and
//! an [`App`] wrapper that times every callback.
//!
//! Nothing here touches simulation state. The wrappers delegate every
//! call unchanged, so a traced run schedules the same events and ends
//! with the same `sim_digest` as a bare one; they only read the wall
//! clock and the fabric's public counters around each call.
//!
//! Spans (name, start, end, parent) are kept in memory, capped at
//! [`SPAN_CAP`], and written out when the run ends. The aggregates that
//! become per-layer metrics cover every call, not just the stored spans.
//!
//! The wrappers' own bookkeeping (counter reads, accounting, span
//! pushes) runs outside the intervals they time. It is clocked too, as
//! [`Recorder::probe_ns`] and [`Recorder::probe_in_callback_ns`], so the
//! self times can leave it out.

use std::time::Instant;

use stellar_net::{
    ClosTopology, Delivery, DropReason, Fabric, FabricKind, FaultPlan, HybridFabric, LinkId,
    LinkStats, Network, NetworkConfig, NicId, TraceRecord,
};
use stellar_sim::{SimDuration, SimTime};
use stellar_transport::{App, ConnId, FatalError, MsgId, TransportSim};

/// Spans stored per traced run; later spans are counted, not stored.
pub const SPAN_CAP: usize = 1 << 16;

/// Every this many sends, the send's route tuple joins the sample that
/// times `ClosTopology::route` after the run.
const ROUTE_SAMPLE_STRIDE: u64 = 64;

/// Largest route-tuple sample kept.
const ROUTE_SAMPLE_CAP: usize = 4096;

/// Fabric counters beyond the [`Fabric`] trait that the benchmark reads.
pub trait Ledgers: Fabric {
    /// `(packet-model sends, fluid-model sends, escalations)`.
    fn send_split(&self) -> (u64, u64, u64);

    /// `(flows opened, flows retired, flows active)` on the fluid side;
    /// all zero on a fabric without one.
    fn fluid_flows(&self) -> (u64, u64, usize);
}

impl Ledgers for Network {
    fn send_split(&self) -> (u64, u64, u64) {
        (self.injected().0, 0, 0)
    }

    fn fluid_flows(&self) -> (u64, u64, usize) {
        (0, 0, 0)
    }
}

impl Ledgers for HybridFabric {
    fn send_split(&self) -> (u64, u64, u64) {
        HybridFabric::send_split(self)
    }

    fn fluid_flows(&self) -> (u64, u64, usize) {
        self.fluid().flow_ledger()
    }
}

/// How a workload is run: bare, or through the timing wrappers.
pub trait Probe {
    /// The fabric type the transport runs on.
    type Fab<F: Ledgers>: Ledgers;

    /// Wrap a freshly built fabric.
    fn wrap<F: Ledgers>(&mut self, fabric: F) -> Self::Fab<F>;

    /// Run the event loop to `until` with `app` as the workload driver.
    fn run<F: Ledgers, A: App<Self::Fab<F>>>(
        sim: &mut TransportSim<Self::Fab<F>>,
        app: &mut A,
        until: SimTime,
    );

    /// Take the recorder out of a finished traced run.
    fn take_trace<F: Ledgers>(sim: &mut TransportSim<Self::Fab<F>>) -> Option<Recorder>;
}

/// The untraced run: the library's own fabric and app, nothing between.
pub struct Bare;

impl Probe for Bare {
    type Fab<F: Ledgers> = F;

    fn wrap<F: Ledgers>(&mut self, fabric: F) -> F {
        fabric
    }

    fn run<F: Ledgers, A: App<F>>(sim: &mut TransportSim<F>, app: &mut A, until: SimTime) {
        sim.run(app, until);
    }

    fn take_trace<F: Ledgers>(_sim: &mut TransportSim<F>) -> Option<Recorder> {
        None
    }
}

/// The traced run. Holds the recorder from the workload's start until
/// [`Probe::wrap`] hands it to the fabric wrapper.
pub struct Traced {
    rec: Option<Recorder>,
}

impl Traced {
    /// A traced run whose span clock starts now.
    pub fn new() -> Self {
        Traced {
            rec: Some(Recorder::new()),
        }
    }
}

impl Default for Traced {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for Traced {
    type Fab<F: Ledgers> = TimedFabric<F>;

    fn wrap<F: Ledgers>(&mut self, fabric: F) -> TimedFabric<F> {
        TimedFabric {
            inner: fabric,
            rec: self.rec.take().expect("a traced run wraps one fabric"),
        }
    }

    fn run<F: Ledgers, A: App<TimedFabric<F>>>(
        sim: &mut TransportSim<TimedFabric<F>>,
        app: &mut A,
        until: SimTime,
    ) {
        let id = sim.network_mut().rec.open_run();
        let start = Instant::now();
        sim.run(&mut TimedApp { inner: app }, until);
        let end = Instant::now();
        sim.network_mut().rec.close_run(id, start, end);
    }

    fn take_trace<F: Ledgers>(sim: &mut TransportSim<TimedFabric<F>>) -> Option<Recorder> {
        Some(std::mem::replace(
            &mut sim.network_mut().rec,
            Recorder::new(),
        ))
    }
}

/// What a span covers; [`SpanName::as_str`] is its name in the span file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// Fixture constructor: topology build plus fabric state.
    SetupFabric,
    /// Connection setup.
    SetupConns,
    /// The whole `TransportSim::run`.
    Run,
    /// One `Fabric::send`.
    Send,
    /// `App::on_message_complete`.
    OnMessageComplete,
    /// `App::on_timer`.
    OnTimer,
    /// `App::on_connection_error`.
    OnConnectionError,
    /// `App::on_connection_recovered`.
    OnConnectionRecovered,
}

impl SpanName {
    /// The name written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::SetupFabric => "setup.fabric",
            SpanName::SetupConns => "setup.conns",
            SpanName::Run => "transport.run",
            SpanName::Send => "fabric.send",
            SpanName::OnMessageComplete => "app.on_message_complete",
            SpanName::OnTimer => "app.on_timer",
            SpanName::OnConnectionError => "app.on_connection_error",
            SpanName::OnConnectionRecovered => "app.on_connection_recovered",
        }
    }
}

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (its index in recording order).
    pub id: u32,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// What ran.
    pub name: SpanName,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Exact nanosecond histogram up to [`Hist::EXACT`] ns, with the rare
/// longer samples kept verbatim.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    long: Vec<u64>,
    count: u64,
}

impl Hist {
    /// Samples below this many ns are bucketed exactly.
    pub const EXACT: u64 = 1 << 16;

    fn new() -> Self {
        Hist {
            buckets: vec![0; Self::EXACT as usize],
            long: Vec::new(),
            count: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        match self.buckets.get_mut(ns as usize) {
            Some(b) => *b += 1,
            None => self.long.push(ns),
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` in `(0, 100]`, in ns; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (ns, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut long = self.long.clone();
        long.sort_unstable();
        long[(rank - seen - 1) as usize]
    }
}

/// Wall-clock ledger of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
    /// The run span's id, while `TransportSim::run` is running.
    run: Option<u32>,
    /// The open callback span, if a callback is running, and whether it
    /// will be stored (its sends are stored only if it is).
    callback: Option<(u32, bool)>,
    /// Time inside `TransportSim::run`.
    pub run_ns: u64,
    /// `Fabric::send` calls.
    pub send_calls: u64,
    /// Time in `Fabric::send`, all calls.
    pub send_ns: u64,
    /// Time in sends made from inside app callbacks.
    pub send_in_callback_ns: u64,
    /// Time in sends made outside `TransportSim::run` (initial posts).
    pub send_outside_run_ns: u64,
    /// Per-send durations.
    pub send_hist: Hist,
    /// Time in sends the fluid model carried.
    pub fluid_send_ns: u64,
    /// Time in sends the packet model carried.
    pub packet_send_ns: u64,
    /// Fault-plan events applied (drop in `pending_fault_events`).
    pub fault_events_applied: u64,
    /// Sends during which at least one fault event was applied.
    pub fault_apply_sends: u64,
    /// Time in those sends.
    pub fault_apply_ns: u64,
    /// App callbacks of every kind.
    pub callbacks: u64,
    /// `on_message_complete` callbacks.
    pub message_callbacks: u64,
    /// Time in callbacks, all kinds.
    pub callback_ns: u64,
    /// Per-callback durations.
    pub callback_hist: Hist,
    /// Wrapper bookkeeping inside the run span but outside every
    /// callback span: around sends made outside callbacks, and around
    /// the callbacks themselves.
    pub probe_ns: u64,
    /// Wrapper bookkeeping around sends made inside callbacks, which
    /// the callback spans therefore contain.
    pub probe_in_callback_ns: u64,
    /// Cost of one clock read, measured when the recorder is made. A
    /// wrapped call's bookkeeping misses about one read: the half before
    /// its first and the half after its last.
    clock_ns: u64,
    /// A deterministic sample of `(src, dst, flow, path)` send tuples.
    pub route_sample: Vec<(NicId, NicId, u64, u32)>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            run: None,
            callback: None,
            run_ns: 0,
            send_calls: 0,
            send_ns: 0,
            send_in_callback_ns: 0,
            send_outside_run_ns: 0,
            send_hist: Hist::new(),
            fluid_send_ns: 0,
            packet_send_ns: 0,
            fault_events_applied: 0,
            fault_apply_sends: 0,
            fault_apply_ns: 0,
            callbacks: 0,
            message_callbacks: 0,
            callback_ns: 0,
            callback_hist: Hist::new(),
            probe_ns: 0,
            probe_in_callback_ns: 0,
            clock_ns: clock_read_ns(),
            route_sample: Vec::new(),
        }
    }

    /// Account the bookkeeping of one wrapped call: from `entered` to the
    /// timed interval's `start`, and from its `end` to `left`.
    fn record_probe(&mut self, entered: Instant, start: Instant, end: Instant, left: Instant) {
        let ns = (start.duration_since(entered) + left.duration_since(end)).as_nanos() as u64
            + self.clock_ns;
        match (self.callback, self.run) {
            (Some(_), _) => self.probe_in_callback_ns += ns,
            (None, Some(_)) => self.probe_ns += ns,
            (None, None) => {}
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Store a span unless the cap is reached. Root spans (set-up and the
    /// run) are few and always stored, so stored spans never lose their
    /// root.
    fn push_span(&mut self, name: SpanName, parent: u32, start: Instant, end: Instant) {
        let id = self.alloc_id();
        if self.spans.len() < SPAN_CAP {
            self.store(id, name, parent, start, end);
        }
    }

    fn store(&mut self, id: u32, name: SpanName, parent: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Record a set-up span, a root.
    pub fn push_setup(&mut self, name: SpanName, start: Instant, end: Instant) {
        let id = self.alloc_id();
        self.store(id, name, NO_PARENT, start, end);
    }

    fn open_run(&mut self) -> u32 {
        let id = self.alloc_id();
        self.run = Some(id);
        id
    }

    fn close_run(&mut self, id: u32, start: Instant, end: Instant) {
        self.run = None;
        self.run_ns += end.duration_since(start).as_nanos() as u64;
        self.store(id, SpanName::Run, NO_PARENT, start, end);
    }

    fn open_callback(&mut self) -> u32 {
        let id = self.alloc_id();
        self.callback = Some((id, self.spans.len() < SPAN_CAP));
        id
    }

    fn close_callback(&mut self, id: u32, name: SpanName, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.callbacks += 1;
        if name == SpanName::OnMessageComplete {
            self.message_callbacks += 1;
        }
        self.callback_ns += ns;
        self.callback_hist.record(ns);
        if let Some((_, true)) = self.callback.take() {
            let parent = self.run.unwrap_or(NO_PARENT);
            self.store(id, name, parent, start, end);
        }
    }

    /// Account one `Fabric::send` that ran from `start` to `end`: whether
    /// the fluid model carried it, how many fault events it applied, and
    /// its `(src, dst, flow, path)` tuple for the route sample.
    fn record_send(
        &mut self,
        start: Instant,
        end: Instant,
        fluid: bool,
        faults_applied: u64,
        tuple: (NicId, NicId, u64, u32),
    ) {
        let ns = end.duration_since(start).as_nanos() as u64;
        if self.send_calls.is_multiple_of(ROUTE_SAMPLE_STRIDE)
            && self.route_sample.len() < ROUTE_SAMPLE_CAP
        {
            self.route_sample.push(tuple);
        }
        self.send_calls += 1;
        self.send_ns += ns;
        self.send_hist.record(ns);
        if fluid {
            self.fluid_send_ns += ns;
        } else {
            self.packet_send_ns += ns;
        }
        if faults_applied > 0 {
            self.fault_events_applied += faults_applied;
            self.fault_apply_sends += 1;
            self.fault_apply_ns += ns;
        }
        match (self.callback, self.run) {
            (Some((cb, stored)), _) => {
                self.send_in_callback_ns += ns;
                let id = self.alloc_id();
                if stored {
                    self.store(id, SpanName::Send, cb, start, end);
                }
            }
            (None, Some(run)) => self.push_span(SpanName::Send, run, start, end),
            (None, None) => {
                self.send_outside_run_ns += ns;
                self.push_span(SpanName::Send, NO_PARENT, start, end);
            }
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render the stored spans as tab-separated lines
    /// `id parent name start_ns end_ns` (parent `-` for a root span).
    pub fn render_spans(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.id,
                parent,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// A [`Fabric`] that times every `send` and classifies it by the change
/// in the inner fabric's public counters across the call.
pub struct TimedFabric<F> {
    inner: F,
    /// The run's wall-clock ledger.
    pub rec: Recorder,
}

impl<F: Ledgers> Ledgers for TimedFabric<F> {
    fn send_split(&self) -> (u64, u64, u64) {
        self.inner.send_split()
    }

    fn fluid_flows(&self) -> (u64, u64, usize) {
        self.inner.fluid_flows()
    }
}

impl<F: Ledgers> Fabric for TimedFabric<F> {
    fn kind(&self) -> FabricKind {
        self.inner.kind()
    }

    fn topology(&self) -> &ClosTopology {
        self.inner.topology()
    }

    fn config(&self) -> &NetworkConfig {
        self.inner.config()
    }

    fn config_mut(&mut self) -> &mut NetworkConfig {
        self.inner.config_mut()
    }

    fn send(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
    ) -> Delivery {
        let entered = Instant::now();
        let (_, fluid_before, _) = self.inner.send_split();
        let pending_before = self.inner.pending_fault_events();
        let start = Instant::now();
        let delivery = self.inner.send(now, src, dst, flow, path_id, bytes);
        let end = Instant::now();
        let (_, fluid_after, _) = self.inner.send_split();
        let applied = pending_before - self.inner.pending_fault_events();

        self.rec.record_send(
            start,
            end,
            fluid_after > fluid_before,
            applied as u64,
            (src, dst, flow, path_id),
        );
        self.rec.record_probe(entered, start, end, Instant::now());
        delivery
    }

    fn advance(&mut self, now: SimTime) {
        self.inner.advance(now)
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.inner.install_fault_plan(plan)
    }

    fn pending_fault_events(&self) -> usize {
        self.inner.pending_fault_events()
    }

    fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.inner.set_link_up(link, up)
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.inner.set_link_state_at(now, link, up)
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        self.inner.set_loss(link, p)
    }

    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        self.inner.control_rtt_component(src, dst)
    }

    fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.inner.drops_by_reason(reason)
    }

    fn injected(&self) -> (u64, u64) {
        self.inner.injected()
    }

    fn delivered(&self) -> (u64, u64) {
        self.inner.delivered()
    }

    fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        self.inner.link_stats(link, now)
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        self.inner.tor_uplink_imbalance()
    }

    fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64) {
        self.inner.tor_uplink_queue_stats(now)
    }

    fn enable_trace(&mut self, limit: usize) {
        self.inner.enable_trace(limit)
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.inner.take_trace()
    }

    fn check_invariants(&self, at: SimTime) {
        self.inner.check_invariants(at)
    }
}

/// Mean cost of one `Instant::now()`, ns, over a short burst of reads.
fn clock_read_ns() -> u64 {
    const READS: u32 = 4096;
    let start = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    (start.elapsed() / READS).as_nanos() as u64
}

/// An [`App`] that times every callback of the workload driver it
/// wraps and marks the sends made inside it.
struct TimedApp<'a, A> {
    inner: &'a mut A,
}

impl<A> TimedApp<'_, A> {
    fn timed<F: Ledgers>(
        sim: &mut TransportSim<TimedFabric<F>>,
        name: SpanName,
        call: impl FnOnce(&mut TransportSim<TimedFabric<F>>),
    ) {
        let entered = Instant::now();
        let id = sim.network_mut().rec.open_callback();
        let start = Instant::now();
        call(sim);
        let end = Instant::now();
        let rec = &mut sim.network_mut().rec;
        rec.close_callback(id, name, start, end);
        rec.record_probe(entered, start, end, Instant::now());
    }
}

impl<F: Ledgers, A: App<TimedFabric<F>>> App<TimedFabric<F>> for TimedApp<'_, A> {
    fn on_message_complete(
        &mut self,
        sim: &mut TransportSim<TimedFabric<F>>,
        conn: ConnId,
        msg: MsgId,
    ) {
        Self::timed(sim, SpanName::OnMessageComplete, |sim| {
            self.inner.on_message_complete(sim, conn, msg)
        });
    }

    fn on_timer(&mut self, sim: &mut TransportSim<TimedFabric<F>>, token: u64) {
        Self::timed(sim, SpanName::OnTimer, |sim| {
            self.inner.on_timer(sim, token)
        });
    }

    fn on_connection_error(
        &mut self,
        sim: &mut TransportSim<TimedFabric<F>>,
        conn: ConnId,
        error: FatalError,
    ) {
        Self::timed(sim, SpanName::OnConnectionError, |sim| {
            self.inner.on_connection_error(sim, conn, error)
        });
    }

    fn on_connection_recovered(
        &mut self,
        sim: &mut TransportSim<TimedFabric<F>>,
        conn: ConnId,
        downtime: SimDuration,
    ) {
        Self::timed(sim, SpanName::OnConnectionRecovered, |sim| {
            self.inner.on_connection_recovered(sim, conn, downtime)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_percentiles_are_nearest_rank() {
        let mut h = Hist::new();
        for ns in 1..=100 {
            h.record(ns);
        }
        h.record(Hist::EXACT + 5);
        assert_eq!(h.count(), 101);
        assert_eq!(h.percentile(50.0), 51);
        assert_eq!(h.percentile(100.0), Hist::EXACT + 5);
        assert_eq!(Hist::new().percentile(99.0), 0);
    }

    /// Past the cap, no stored span loses its parent, and the root run
    /// span is still stored.
    #[test]
    fn capped_spans_keep_their_parents() {
        let mut rec = Recorder::new();
        let tuple = (NicId(0), NicId(1), 0, 0);
        let run = rec.open_run();
        let start = Instant::now();
        for _ in 0..SPAN_CAP {
            let cb = rec.open_callback();
            let t = Instant::now();
            rec.record_send(t, Instant::now(), true, 0, tuple);
            rec.record_send(t, Instant::now(), false, 0, tuple);
            rec.close_callback(cb, SpanName::OnMessageComplete, t, Instant::now());
        }
        rec.close_run(run, start, Instant::now());
        assert_eq!(rec.send_calls, 2 * SPAN_CAP as u64);
        assert_eq!(rec.callbacks, SPAN_CAP as u64);
        assert!(rec.spans().len() <= SPAN_CAP + 3);
        let ids: std::collections::HashSet<u32> = rec.spans().iter().map(|s| s.id).collect();
        assert!(ids.contains(&run));
        for s in rec.spans() {
            assert!(s.parent == NO_PARENT || ids.contains(&s.parent), "{s:?}");
        }
    }
}
