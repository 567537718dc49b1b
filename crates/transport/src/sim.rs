//! The transport event loop: connections × fabric × congestion control.
//!
//! Everything end-to-end happens here: window-gated packet pumping, path
//! selection, delivery and ACK events, RTO retransmission *on a different
//! path* (the paper's instant-recovery mechanism for complete link
//! failures), and receiver-side message completion. Workloads plug in via
//! the [`App`] trait to chain dependent messages (ring AllReduce steps,
//! bursty background jobs) causally inside the simulation.

use std::collections::VecDeque;

use stellar_net::{Delivery, Fabric, Network, NicId};
use stellar_sim::hint::prefetch;
use stellar_sim::{EventQueue, SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, event, span_close, span_open, stage_sample, Entity, Stage, Subsystem};

use crate::cc::{CcConfig, CongestionControl};
use crate::conn::{
    ConnId, ConnState, ConnStats, Connection, FatalError, InflightPacket, MsgId, SendError,
};
use crate::path::{PathAlgo, PathSelector};

/// Span key for the whole-message latency stage: connection id in the
/// high bits, per-connection message id below. Message ids are
/// per-connection sequence numbers, far below 2^40 in any run.
fn msg_span_key(conn: ConnId, msg: MsgId) -> u64 {
    (u64::from(conn.0) << 40) | msg.0
}

/// Transport parameters (§7.2's three key knobs plus the CC profile).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Path-selection algorithm.
    pub algo: PathAlgo,
    /// Paths per connection (4–256 in the paper's sweeps; 128 deployed).
    pub num_paths: u32,
    /// MTU / packet payload size in bytes.
    pub mtu: u64,
    /// Retransmission timeout ("250 µs ... chosen for our low-latency
    /// data center topology").
    pub rto: SimDuration,
    /// Exponential RTO backoff factor: the timeout for retransmit epoch
    /// `k` is `rto × rto_backoff^k`, capped at [`rto_max`]. `1.0`
    /// disables backoff (the pre-hardening fixed-RTO behaviour).
    ///
    /// [`rto_max`]: TransportConfig::rto_max
    pub rto_backoff: f64,
    /// Upper bound on the backed-off RTO.
    pub rto_max: SimDuration,
    /// Consecutive retransmissions of a single packet before the
    /// connection gives up and enters the terminal error state (the IB
    /// `retry_cnt` semantics, except unbounded budgets are not offered —
    /// an unreachable peer must surface as an error, not an infinite
    /// retransmit loop).
    pub retry_budget: u32,
    /// Loss-scoreboard policy for path blacklisting.
    pub scoreboard: crate::path::ScoreboardPolicy,
    /// Plane-level failover for the path scoreboard. `None` (the
    /// default) keeps per-path blacklisting only; `Some` quarantines a
    /// whole plane once a majority of its paths are blacklisted at once,
    /// migrating flows to the surviving plane until a readmission probe
    /// after [`PlaneFailover::readmit_after`](crate::path::PlaneFailover).
    pub plane_failover: Option<crate::path::PlaneFailover>,
    /// Congestion-control parameters.
    pub cc: CcConfig,
    /// §9 ablation: one congestion-control context per path instead of a
    /// single shared CCC.
    pub per_path_cc: bool,
    /// Egress pacing rate in Gbps. `None` sends window-limited bursts;
    /// `Some(rate)` spaces packets at the given rate, modelling the
    /// RNIC's hardware rate limiter / DMA feed (application-limited flows
    /// pace at their offered rate).
    pub pace_gbps: Option<f64>,
    /// Failure recovery policy. `None` (the default) keeps the
    /// pre-recovery behaviour: a fatal error is terminal. `Some` turns
    /// fatal errors into a teardown → backoff → re-establish → replay
    /// cycle (DESIGN.md §11); fault-free runs are byte-identical either
    /// way because the recovery path draws no RNG and schedules no
    /// events until a failure actually occurs.
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            algo: PathAlgo::Obs,
            num_paths: 128,
            mtu: 4096,
            rto: SimDuration::from_micros(250),
            rto_backoff: 2.0,
            rto_max: SimDuration::from_millis(4),
            retry_budget: 16,
            scoreboard: crate::path::ScoreboardPolicy::default(),
            plane_failover: None,
            cc: CcConfig::default(),
            per_path_cc: false,
            pace_gbps: None,
            recovery: None,
        }
    }
}

/// Failure recovery policy: what the transport does when a connection
/// hits a fatal error (retry budget exhausted) instead of dying.
///
/// The cycle is: drain in-flight state and tear down the QP, wait an
/// exponentially backed-off reconnect delay plus the re-establishment
/// cost, then rebuild the send queue from the receiver bitmaps — exactly
/// the packets that never landed — and resume with a fresh congestion
/// context. Consecutive failures (no ACK between them) climb the backoff
/// ladder; [`max_attempts`] consecutive failures make the error terminal.
///
/// [`max_attempts`]: RecoveryPolicy::max_attempts
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Consecutive failed recovery attempts (no successful ACK in
    /// between) before the connection is declared terminally dead.
    pub max_attempts: u32,
    /// Base reconnect delay before the first re-establishment.
    pub backoff: SimDuration,
    /// Exponential multiplier applied per consecutive attempt; `1.0`
    /// disables the ladder.
    pub backoff_mult: f64,
    /// Upper bound on the backed-off reconnect delay.
    pub backoff_max: SimDuration,
    /// QP re-establishment cost paid after the backoff delay: four
    /// control verbs (~120 µs) for a bare QP, or the full ~1.5 s+
    /// vStellar device destroy→recreate lifecycle when the virtual
    /// device itself churns (see `stellar_core::vstellar`).
    pub reestablish: SimDuration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 16,
            backoff: SimDuration::from_millis(1),
            backoff_mult: 2.0,
            backoff_max: SimDuration::from_millis(100),
            reestablish: SimDuration::from_micros(120),
        }
    }
}

impl RecoveryPolicy {
    /// Total teardown→re-establish delay for consecutive attempt
    /// `attempt` (0-based): `min(backoff × backoff_mult^attempt,
    /// backoff_max) + reestablish`.
    pub fn reconnect_delay(&self, attempt: u32) -> SimDuration {
        let base = if self.backoff_mult <= 1.0 || attempt == 0 {
            self.backoff
        } else {
            let scaled =
                self.backoff.as_nanos() as f64 * self.backoff_mult.powi(attempt as i32);
            SimDuration::from_nanos(scaled.min(self.backoff_max.as_nanos() as f64) as u64)
        };
        base + self.reestablish
    }
}

/// Workload hook: called when a message is fully received.
///
/// Generic over the [`Fabric`] the transport runs on (defaulting to the
/// packet-level [`Network`], so `impl App for MyApp` keeps meaning what
/// it always did). Workload apps that should run on any fabric
/// implement `impl<F: Fabric> App<F> for MyApp`.
pub trait App<F: Fabric = Network> {
    /// `msg` on `conn` completed at `sim.now()`. The app may post new
    /// messages via [`TransportSim::post_message`].
    fn on_message_complete(&mut self, sim: &mut TransportSim<F>, conn: ConnId, msg: MsgId);

    /// A timer scheduled via [`TransportSim::schedule_timer`] fired.
    /// Default: ignore. Used by on/off (bursty) workloads.
    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        let _ = (sim, token);
    }

    /// `conn` hit a fatal transport error (retry budget exhausted) and
    /// entered the terminal [`ConnState`]`::Error` state: all queued and
    /// in-flight traffic was discarded and no further packets will flow.
    /// Default: ignore (the state is still queryable via
    /// [`TransportSim::conn_state`]).
    fn on_connection_error(&mut self, sim: &mut TransportSim<F>, conn: ConnId, error: FatalError) {
        let _ = (sim, conn, error);
    }

    /// `conn` finished a recovery cycle: its QP was re-established after
    /// being down for `downtime` and every unacked packet was re-queued
    /// (exactly-once replay from the receiver bitmap). Only fires when a
    /// [`RecoveryPolicy`] is configured. Default: ignore.
    fn on_connection_recovered(
        &mut self,
        sim: &mut TransportSim<F>,
        conn: ConnId,
        downtime: SimDuration,
    ) {
        let _ = (sim, conn, downtime);
    }
}

/// An [`App`] that does nothing (open-loop workloads).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopApp;

impl<F: Fabric> App<F> for NoopApp {
    fn on_message_complete(&mut self, _sim: &mut TransportSim<F>, _conn: ConnId, _msg: MsgId) {}
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Data packet landed at the receiver.
    Deliver { conn: ConnId, seq: u64, ecn: bool },
    /// ACK landed back at the sender.
    Ack { conn: ConnId, seq: u64, ecn: bool },
    /// Retransmission timer for (conn, seq) at a given retransmit epoch.
    Rto { conn: ConnId, seq: u64, epoch: u32 },
    /// Pacing gate opened: resume pumping the connection.
    Pace { conn: ConnId },
    /// Application-scheduled timer.
    AppTimer { token: u64 },
    /// Recovery reconnect timer: re-establish the connection's QP and
    /// replay unacked traffic.
    Reconnect { conn: ConnId },
}

impl Ev {
    /// The connection whose record handling this event reads, if any.
    #[inline]
    fn conn(&self) -> Option<ConnId> {
        match *self {
            Ev::Deliver { conn, .. }
            | Ev::Ack { conn, .. }
            | Ev::Rto { conn, .. }
            | Ev::Pace { conn }
            | Ev::Reconnect { conn } => Some(conn),
            Ev::AppTimer { .. } => None,
        }
    }
}

/// How far ahead of the event being handled [`TransportSim::run`]
/// prefetches a connection record. Far enough that the miss has landed
/// when the event's turn comes, near enough that the line is still in
/// L1 — and past [`SLOT_LOOKAHEAD`], because finding the slot reads the
/// record.
const CONN_LOOKAHEAD: usize = 8;
/// How far ahead [`TransportSim::run`] prefetches the in-flight slot an
/// event will look up.
const SLOT_LOOKAHEAD: usize = 4;

struct ConnRuntime {
    conn: Connection,
    selector: PathSelector,
    /// The shared CCC, inline so the window gate reads no extra heap
    /// block (unused when `per_path_cc` is on).
    cc: CongestionControl,
    /// One CCC per path (§9 ablation); empty unless `per_path_cc`.
    path_ccs: Vec<CongestionControl>,
    ack_delay: SimDuration,
    /// Egress pacing: earliest time the next packet may leave.
    pace_until: SimTime,
    /// Whether a Pace wake-up is already queued.
    pace_scheduled: bool,
    /// Scratch for the per-path inflight snapshot `pump` hands the
    /// selector (reused so the per-packet send path never allocates).
    inflight_scratch: Vec<u64>,
}

/// The transport simulation: fabric + connections + event queue.
///
/// Generic over the [`Fabric`] carrying its packets; the default is the
/// packet-level [`Network`], so plain `TransportSim` in signatures and
/// tests keeps meaning the packet model. The event loop itself is
/// fabric-agnostic: everything below `send`/`control_rtt_component`
/// goes through the trait.
pub struct TransportSim<F: Fabric = Network> {
    config: TransportConfig,
    network: F,
    queue: EventQueue<Ev>,
    conns: Vec<ConnRuntime>,
    completions: VecDeque<(ConnId, MsgId)>,
    errors: VecDeque<(ConnId, FatalError)>,
    recovered: VecDeque<(ConnId, SimDuration)>,
    rng: SimRng,
    /// Reusable buffer for the batched same-timestamp drain in
    /// [`TransportSim::run`] (kept across calls to avoid reallocation).
    batch_buf: Vec<Ev>,
}

impl ConnRuntime {
    /// The CCC governing `path`: its own under `per_path_cc`, else the
    /// shared one.
    fn cc_for(&mut self, path: u32) -> &mut CongestionControl {
        if self.path_ccs.is_empty() {
            &mut self.cc
        } else {
            &mut self.path_ccs[path as usize]
        }
    }
}

impl<F: Fabric> TransportSim<F> {
    /// Build a simulation over `network`.
    pub fn new(network: F, config: TransportConfig, rng: SimRng) -> Self {
        TransportSim {
            config,
            network,
            // Every packet in flight holds a Deliver and an Rto event;
            // presize for a healthy window's worth so the heap does not
            // regrow during the first ramp-up.
            queue: EventQueue::with_capacity(1024),
            conns: Vec::new(),
            completions: VecDeque::new(),
            errors: VecDeque::new(),
            recovered: VecDeque::new(),
            rng,
            batch_buf: Vec::new(),
        }
    }

    /// Rebuild this simulation for a fresh run over a new fabric,
    /// reusing the event-queue and connection-table allocations instead
    /// of rebuilding them (repeated seed runs — calibration + chaos
    /// passes, per-seed averaging — construct thousands of these).
    ///
    /// Equivalent to `TransportSim::new(network, self.config, rng)` with
    /// warm allocations: the clock restarts at zero and all connections
    /// are dropped, so a reset sim is observably identical to a fresh
    /// one.
    pub fn reset(&mut self, network: F, rng: SimRng) {
        self.network = network;
        self.queue.clear();
        self.conns.clear();
        self.completions.clear();
        self.errors.clear();
        self.recovered.clear();
        self.rng = rng;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events scheduled since construction or the last
    /// [`reset`](Self::reset) (which zeroes it via `EventQueue::clear`).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Deepest pending-event backlog since construction or the last
    /// [`reset`](Self::reset) (which zeroes it via `EventQueue::clear`).
    pub fn queue_peak_len(&self) -> usize {
        self.queue.peak_len()
    }

    /// The transport configuration.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// The underlying fabric (stats, failure injection).
    pub fn network(&self) -> &F {
        &self.network
    }

    /// The underlying fabric, mutable.
    pub fn network_mut(&mut self) -> &mut F {
        &mut self.network
    }

    /// Open an RC connection `src → dst`.
    pub fn add_connection(&mut self, src: NicId, dst: NicId) -> ConnId {
        let id = ConnId(self.conns.len() as u32);
        let path_ccs = if self.config.per_path_cc {
            self.config.num_paths as usize
        } else {
            0
        };
        let ack_delay = self.network.control_rtt_component(dst, src);
        let mut selector = PathSelector::new(
            self.config.algo,
            self.config.num_paths,
            self.rng.fork_idx("conn", id.0 as u64),
        );
        selector.set_scoreboard(self.config.scoreboard);
        if let Some(failover) = self.config.plane_failover {
            selector.set_plane_failover(failover);
        }
        self.conns.push(ConnRuntime {
            conn: Connection::new(id, src, dst),
            selector,
            cc: CongestionControl::new(self.config.cc.clone()),
            path_ccs: (0..path_ccs)
                .map(|_| CongestionControl::new(self.config.cc.clone()))
                .collect(),
            ack_delay,
            pace_until: SimTime::ZERO,
            pace_scheduled: false,
            inflight_scratch: Vec::new(),
        });
        id
    }

    /// Schedule an [`App::on_timer`] callback at absolute time `at`.
    pub fn schedule_timer(&mut self, at: SimTime, token: u64) {
        self.queue.schedule(at, Ev::AppTimer { token });
    }

    /// Post a message of `bytes` on `conn` at the current time; starts
    /// transmission immediately as the window allows.
    pub fn post_message(&mut self, conn: ConnId, bytes: u64) -> MsgId {
        let now = self.now();
        let mtu = self.config.mtu;
        let id = self.conns[conn.0 as usize]
            .conn
            .post_message(now, bytes, mtu);
        count(Subsystem::Transport, "msg.posted", 1);
        span_open(now, Stage::TransportMsg, msg_span_key(conn, id));
        self.pump(conn);
        id
    }

    /// Post a receive buffer on `conn` (two-sided verbs).
    pub fn post_recv(&mut self, conn: ConnId, bytes: u64) {
        self.conns[conn.0 as usize].conn.post_recv(bytes);
    }

    /// Two-sided send on `conn`: requires a posted receive at the peer
    /// (RNR NAK otherwise), then transmits like a write.
    pub fn post_send(&mut self, conn: ConnId, bytes: u64) -> Result<MsgId, SendError> {
        let now = self.now();
        let mtu = self.config.mtu;
        let id = self.conns[conn.0 as usize]
            .conn
            .post_send(now, bytes, mtu)?;
        self.pump(conn);
        Ok(id)
    }

    /// Statistics of one connection.
    pub fn conn_stats(&self, conn: ConnId) -> ConnStats {
        self.conns[conn.0 as usize].conn.stats
    }

    /// Aggregate statistics over every connection (field-wise sum).
    pub fn total_stats(&self) -> ConnStats {
        self.conns.iter().map(|c| c.conn.stats).sum()
    }

    /// Lifecycle state of one connection.
    pub fn conn_state(&self, conn: ConnId) -> ConnState {
        self.conns[conn.0 as usize].conn.state
    }

    /// Whether `conn` is fully quiesced: nothing unsent, nothing in
    /// flight, and not waiting on a recovery reconnect.
    pub fn conn_idle(&self, conn: ConnId) -> bool {
        let c = &self.conns[conn.0 as usize].conn;
        c.is_idle() && c.state != ConnState::Recovering
    }

    /// The fatal error that killed `conn`, if it is **terminally**
    /// failed. A connection mid-recovery has no fatal error — the
    /// teardown is transient and [`Connection::fatal`] stays `None`
    /// until the recovery budget is exhausted.
    pub fn conn_error(&self, conn: ConnId) -> Option<FatalError> {
        self.conns[conn.0 as usize].conn.fatal
    }

    /// Number of connections terminally failed ([`ConnState::Error`]).
    /// Connections mid-recovery ([`ConnState::Recovering`]) are **not**
    /// counted — see [`TransportSim::recovering_count`].
    pub fn failed_connections(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.conn.state == ConnState::Error)
            .count()
    }

    /// Number of connections currently torn down awaiting a reconnect.
    pub fn recovering_count(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.conn.state == ConnState::Recovering)
            .count()
    }

    /// The path selector of a connection (distribution inspection).
    pub fn selector(&self, conn: ConnId) -> &PathSelector {
        &self.conns[conn.0 as usize].selector
    }

    /// Histogram of message completion latencies (post → full receipt)
    /// on `conn`, in nanoseconds. Only completed messages contribute.
    pub fn message_latency_histogram(&self, conn: ConnId) -> stellar_sim::stats::Histogram {
        let mut h = stellar_sim::stats::Histogram::new();
        for m in &self.conns[conn.0 as usize].conn.messages {
            if let Some(done) = m.completed_at {
                h.record_duration(done.duration_since(m.posted_at));
            }
        }
        h
    }

    /// Completion time of a message, if it finished.
    pub fn message_completed_at(&self, conn: ConnId, msg: MsgId) -> Option<SimTime> {
        self.conns[conn.0 as usize]
            .conn
            .messages
            .get(msg.0 as usize)
            .and_then(|m| m.completed_at)
    }

    /// Number of open connections.
    pub fn connection_count(&self) -> u32 {
        self.conns.len() as u32
    }

    /// Whether all connections are idle (nothing queued or in flight).
    pub fn all_idle(&self) -> bool {
        self.conns.iter().all(|c| c.conn.is_idle())
    }

    /// Aggregate delivered payload bytes over all connections.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.conn.stats.delivered_bytes)
            .sum()
    }

    /// The RTO for retransmit epoch `epoch`:
    /// `min(rto × rto_backoff^epoch, rto_max)`.
    fn rto_after(&self, epoch: u32) -> SimDuration {
        if self.config.rto_backoff <= 1.0 || epoch == 0 {
            return self.config.rto;
        }
        let scaled =
            self.config.rto.as_nanos() as f64 * self.config.rto_backoff.powi(epoch as i32);
        let capped = scaled.min(self.config.rto_max.as_nanos() as f64);
        SimDuration::from_nanos(capped as u64)
    }

    /// Tear out `conn`'s virtual device from under it — vStellar device
    /// churn (host driver restart, device error, container reschedule).
    /// The connection rides the normal recovery ladder: teardown drain,
    /// backed-off reconnect (whose [`RecoveryPolicy::reestablish`]
    /// should carry the measured device destroy→recreate lifecycle, see
    /// `stellar_core::vstellar::VStellarStack::churn_device`), then
    /// exactly-once replay from the receiver bitmaps. A no-op unless the
    /// connection is Active — churning a connection already recovering
    /// or terminally dead changes nothing.
    ///
    /// # Panics
    /// Panics if no [`RecoveryPolicy`] is configured: device churn
    /// without recovery would silently kill the connection, which is
    /// never what a churn storm intends.
    pub fn device_churn(&mut self, conn: ConnId) {
        assert!(
            self.config.recovery.is_some(),
            "device churn requires a RecoveryPolicy (the churned device must come back)"
        );
        self.fail_connection(conn, FatalError::DeviceChurned);
    }

    /// Tear down `conn` after a fatal error. Without a
    /// [`RecoveryPolicy`] (or once its attempt budget is spent) the
    /// error is terminal: queued and in-flight traffic is discarded
    /// (stale Deliver/Ack/Rto events become no-ops) and the
    /// [`App::on_connection_error`] callback is queued. With a policy
    /// and attempts remaining, the connection enters
    /// [`ConnState::Recovering`] instead: the same teardown drain, but a
    /// reconnect is scheduled after the backed-off delay and nothing is
    /// reported as an error.
    fn fail_connection(&mut self, conn_id: ConnId, error: FatalError) {
        let now = self.now();
        let policy = self.config.recovery.clone();
        let rt = &mut self.conns[conn_id.0 as usize];
        if rt.conn.state != ConnState::Active {
            return;
        }
        rt.conn.drain();
        if let Some(policy) = policy {
            if rt.conn.recovery_attempts < policy.max_attempts {
                let attempt = rt.conn.recovery_attempts;
                rt.conn.recovery_attempts += 1;
                rt.conn.state = ConnState::Recovering;
                rt.conn.recovering_since = Some(now);
                count(Subsystem::Transport, "conn.recovering", 1);
                event(
                    now,
                    Subsystem::Transport,
                    Entity::Conn(conn_id.0),
                    "recovering",
                    u64::from(attempt),
                );
                let at = now + policy.reconnect_delay(attempt);
                self.queue.schedule(at, Ev::Reconnect { conn: conn_id });
                return;
            }
        }
        count(Subsystem::Transport, "conn.fatal", 1);
        event(now, Subsystem::Transport, Entity::Conn(conn_id.0), "fatal", 0);
        rt.conn.state = ConnState::Error;
        rt.conn.fatal = Some(error);
        self.errors.push_back((conn_id, error));
    }

    /// A scheduled reconnect fired: re-establish the QP, rebuild the
    /// send queue from the receiver bitmaps (exactly-once replay — only
    /// the indices that never landed), reset the congestion context (a
    /// fresh QP does not inherit the old window), and resume pumping.
    fn handle_reconnect(&mut self, conn_id: ConnId) {
        let now = self.now();
        let mtu = self.config.mtu;
        let rt = &mut self.conns[conn_id.0 as usize];
        if rt.conn.state != ConnState::Recovering {
            return;
        }
        let downtime = now.saturating_duration_since(
            rt.conn
                .recovering_since
                .expect("recovering connection records its teardown time"),
        );
        rt.conn.state = ConnState::Active;
        rt.conn.recovering_since = None;
        let replayed = rt.conn.replay_unacked(mtu);
        rt.conn.stats.recoveries += 1;
        rt.conn.stats.replayed_packets += replayed;
        rt.cc = CongestionControl::new(self.config.cc.clone());
        for cc in rt.path_ccs.iter_mut() {
            *cc = CongestionControl::new(self.config.cc.clone());
        }
        rt.pace_until = SimTime::ZERO;
        count(Subsystem::Transport, "conn.recovery", 1);
        count(Subsystem::Transport, "packet.replayed", replayed);
        event(
            now,
            Subsystem::Transport,
            Entity::Conn(conn_id.0),
            "recovered",
            replayed,
        );
        self.recovered.push_back((conn_id, downtime));
        self.pump(conn_id);
    }

    /// Pump as many packets as the window allows on `conn`.
    fn pump(&mut self, conn_id: ConnId) {
        let now = self.now();
        let mtu = self.config.mtu;
        let per_path = self.config.per_path_cc;
        let rto = self.config.rto;

        let pace = self.config.pace_gbps;
        loop {
            let rt = &mut self.conns[conn_id.0 as usize];
            if rt.conn.state != ConnState::Active {
                break;
            }
            let Some(pkt) = rt.conn.next_packet(mtu) else {
                break;
            };
            // Egress pacing gate: wait for the rate limiter.
            if pace.is_some() && rt.pace_until > now {
                if !rt.pace_scheduled {
                    rt.pace_scheduled = true;
                    let at = rt.pace_until;
                    self.queue.schedule(at, Ev::Pace { conn: conn_id });
                }
                break;
            }
            // Shared-CCC window gate.
            if !per_path && !rt.cc.can_send(rt.conn.inflight_bytes, pkt.bytes) {
                break;
            }
            // Path choice, gated per path when each path has its own CCC.
            let path = {
                let ConnRuntime {
                    selector,
                    path_ccs,
                    inflight_scratch,
                    ..
                } = rt;
                // Snapshot per-path inflight before the mutable select call
                // (reused scratch: the per-packet send path must not
                // allocate).
                inflight_scratch.clear();
                if per_path {
                    inflight_scratch
                        .extend((0..selector.num_paths()).map(|p| selector.path(p).inflight_packets));
                }
                let inflight_pkts: &[u64] = inflight_scratch;
                let allowed = |p: u32| -> bool {
                    if !per_path {
                        return true;
                    }
                    path_ccs[p as usize].can_send(inflight_pkts[p as usize] * mtu, mtu)
                };
                match selector.select_at(now, None, &allowed) {
                    Some(p) => p,
                    None => break,
                }
            };

            rt.conn.advance();
            let seq = rt.conn.next_seq();
            rt.conn.inflight.insert(
                seq,
                InflightPacket {
                    msg: pkt.msg,
                    idx: pkt.idx,
                    bytes: pkt.bytes,
                    path,
                    sent_at: now,
                    retx: 0,
                },
            );
            rt.conn.inflight_bytes += pkt.bytes;
            rt.conn.stats.sent_packets += 1;
            count(Subsystem::Transport, "packet.sent", 1);
            if let Some(rate) = pace {
                let start = if rt.pace_until > now { rt.pace_until } else { now };
                rt.pace_until = start + stellar_sim::transmit_time(pkt.bytes, rate);
            }
            let (src, dst) = (rt.conn.src, rt.conn.dst);

            let delivery =
                self.network
                    .send(now, src, dst, conn_id.0 as u64, path, pkt.bytes);
            if let Delivery::Delivered { at, ecn } = delivery {
                self.queue.schedule(
                    at,
                    Ev::Deliver {
                        conn: conn_id,
                        seq,
                        ecn,
                    },
                );
            }
            self.queue.schedule(
                now + rto,
                Ev::Rto {
                    conn: conn_id,
                    seq,
                    epoch: 0,
                },
            );
        }
    }

    fn handle_deliver(&mut self, conn_id: ConnId, seq: u64, ecn: bool) {
        let now = self.now();
        let rt = &mut self.conns[conn_id.0 as usize];
        let Some(&pkt) = rt.conn.inflight.get(seq) else {
            // Already ACKed via a retransmitted copy; stale delivery.
            return;
        };
        let msg = rt
            .conn
            .messages
            .get_mut(pkt.msg.0 as usize)
            .expect("inflight packet references a live message");
        if msg.place_packet(pkt.idx) {
            rt.conn.stats.delivered_packets += 1;
            rt.conn.stats.delivered_bytes += pkt.bytes;
            if msg.fully_received() && msg.completed_at.is_none() {
                msg.completed_at = Some(now);
                rt.conn.stats.completed_messages += 1;
                count(Subsystem::Transport, "msg.completed", 1);
                span_close(now, Stage::TransportMsg, msg_span_key(conn_id, pkt.msg));
                self.completions.push_back((conn_id, pkt.msg));
            }
        }
        // ACK travels back on the prioritized control path.
        let at = now + rt.ack_delay;
        self.queue.schedule(
            at,
            Ev::Ack {
                conn: conn_id,
                seq,
                ecn,
            },
        );
    }

    fn handle_ack(&mut self, conn_id: ConnId, seq: u64, ecn: bool) {
        let now = self.now();
        let (path, rtt, bytes);
        {
            let rt = &mut self.conns[conn_id.0 as usize];
            let Some(pkt) = rt.conn.inflight.remove(seq) else {
                return; // duplicate ACK (original + retransmission)
            };
            rt.conn.inflight_bytes -= pkt.bytes;
            path = pkt.path;
            bytes = pkt.bytes;
            rtt = now.saturating_duration_since(pkt.sent_at);
            // A delivered+acked packet proves the connection works:
            // reset the consecutive-recovery backoff ladder.
            rt.conn.recovery_attempts = 0;
            rt.conn.stats.acks += 1;
            count(Subsystem::Transport, "ack", 1);
            stage_sample(Stage::TransportRtt, rtt);
            if ecn {
                rt.conn.stats.ecn_acks += 1;
            }
            if let Some(m) = rt.conn.messages.get_mut(pkt.msg.0 as usize) {
                m.acked_packets += 1;
            }
            rt.selector.on_ack(path, rtt, ecn);
            rt.cc_for(path).on_ack(now, bytes, rtt, ecn);
        }
        self.pump(conn_id);
    }

    fn handle_rto(&mut self, conn_id: ConnId, seq: u64, epoch: u32) {
        let now = self.now();

        let (old_path, new_path, bytes, src, dst);
        {
            let rt = &mut self.conns[conn_id.0 as usize];
            let Some(pkt) = rt.conn.inflight.get(seq) else {
                return; // ACKed in the meantime (or the connection died)
            };
            if pkt.retx != epoch {
                return; // a newer transmission owns the timer
            }
            // Retry budget: a packet that times out this many times in a
            // row means the peer is unreachable on every path tried — a
            // terminal QP error, not another retransmission.
            if pkt.retx >= self.config.retry_budget {
                let retries = pkt.retx;
                self.fail_connection(
                    conn_id,
                    FatalError::RetryBudgetExhausted { seq, retries },
                );
                return;
            }
            old_path = pkt.path;
            bytes = pkt.bytes;
            src = rt.conn.src;
            dst = rt.conn.dst;
            rt.conn.stats.rto_events += 1;
            count(Subsystem::Transport, "rto", 1);
            event(now, Subsystem::Transport, Entity::Conn(conn_id.0), "rto", u64::from(epoch));
            // Feed the loss scoreboard: repeated losses blacklist the path.
            rt.selector.on_loss_at(now, old_path);
            // Retransmit on a different path for instant recovery.
            new_path = rt
                .selector
                .select_at(now, Some(old_path), &|_| true)
                .unwrap_or(old_path);
            let pkt = rt.conn.inflight.get_mut(seq).unwrap();
            pkt.retx += 1;
            pkt.sent_at = now;
            pkt.path = new_path;
            rt.conn.stats.retransmits += 1;
            count(Subsystem::Transport, "retransmit", 1);
            // The budget gate above must fire before a packet's retx count
            // can pass the budget; checking at the increment (not just at
            // end-of-run quiesce) catches a broken gate in the transient
            // window before the connection is torn down.
            if stellar_check::enabled() {
                let retx = pkt.retx;
                stellar_check::at_quiesce(now, stellar_check::Layer::Transport, |c| {
                    c.check(
                        "transport.retry_budget",
                        retx <= self.config.retry_budget,
                        || {
                            format!(
                                "conn {}: packet seq {seq} retransmitted {retx} times, budget {}",
                                conn_id.0, self.config.retry_budget
                            )
                        },
                    );
                });
            }
        }
        let share = if self.config.per_path_cc {
            1.0
        } else {
            1.0 / self.config.num_paths as f64
        };
        self.conns[conn_id.0 as usize]
            .cc_for(old_path)
            .on_rto(share);

        let delivery = self
            .network
            .send(now, src, dst, conn_id.0 as u64, new_path, bytes);
        if let Delivery::Delivered { at, ecn } = delivery {
            self.queue.schedule(
                at,
                Ev::Deliver {
                    conn: conn_id,
                    seq,
                    ecn,
                },
            );
        }
        // Exponential backoff: each retransmit epoch waits longer (up to
        // rto_max) before declaring the copy lost.
        self.queue.schedule(
            now + self.rto_after(epoch + 1),
            Ev::Rto {
                conn: conn_id,
                seq,
                epoch: epoch + 1,
            },
        );
    }

    /// Process events until the queue drains or the next event is past
    /// `until`. Completion callbacks run in causal order.
    pub fn run<A: App<F>>(&mut self, app: &mut A, until: SimTime) {
        // Batched same-timestamp drain: the wheel hands over every event at
        // the next timestamp in one call, so the hot loop runs one
        // peek/advance per *timestamp* instead of per event. Handlers that
        // schedule new events at the drained timestamp (zero-latency hops)
        // produce a fresh batch on the next iteration, with higher FIFO
        // seqs — exactly the order per-event pops would have delivered.
        //
        // Within a batch the events are handled strictly in order; while
        // event i runs, the records events i + SLOT_LOOKAHEAD and
        // i + CONN_LOOKAHEAD will read are prefetched (DESIGN.md §14).
        let mut batch = std::mem::take(&mut self.batch_buf);
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= until => {}
                _ => break,
            }
            batch.clear();
            self.queue
                .pop_batch(&mut batch)
                .expect("peeked event exists");
            for i in 0..batch.len() {
                self.prefetch_ahead(&batch, i);
                match batch[i] {
                    Ev::Deliver { conn, seq, ecn } => self.handle_deliver(conn, seq, ecn),
                    Ev::Ack { conn, seq, ecn } => self.handle_ack(conn, seq, ecn),
                    Ev::Rto { conn, seq, epoch } => self.handle_rto(conn, seq, epoch),
                    Ev::Pace { conn } => {
                        self.conns[conn.0 as usize].pace_scheduled = false;
                        self.pump(conn);
                    }
                    Ev::AppTimer { token } => app.on_timer(self, token),
                    Ev::Reconnect { conn } => self.handle_reconnect(conn),
                }
                // Callbacks run after every event, exactly as the
                // unbatched loop did — batching may never reorder an
                // event relative to the completions it caused.
                while let Some((c, m)) = self.completions.pop_front() {
                    app.on_message_complete(self, c, m);
                }
                while let Some((c, e)) = self.errors.pop_front() {
                    app.on_connection_error(self, c, e);
                }
                while let Some((c, d)) = self.recovered.pop_front() {
                    app.on_connection_recovered(self, c, d);
                }
            }
        }
        batch.clear();
        self.batch_buf = batch;
        // Returning from `run` is a quiesce point: nothing is mid-event,
        // so every cross-layer ledger must balance.
        if stellar_check::enabled() {
            self.check_invariants(self.now());
        }
    }

    /// Prefetch what the events ahead of `batch[i]` will read: the
    /// connection record of the event `CONN_LOOKAHEAD` ahead, and the
    /// in-flight slot of the one `SLOT_LOOKAHEAD` ahead (whose record was
    /// prefetched `CONN_LOOKAHEAD - SLOT_LOOKAHEAD` events ago). Reads
    /// nothing the handlers depend on.
    #[inline(always)]
    fn prefetch_ahead(&self, batch: &[Ev], i: usize) {
        if let Some(conn) = batch.get(i + CONN_LOOKAHEAD).and_then(Ev::conn) {
            if let Some(rt) = self.conns.get(conn.0 as usize) {
                prefetch(rt);
            }
        }
        if let Some(
            &Ev::Deliver { conn, seq, .. }
            | &Ev::Ack { conn, seq, .. }
            | &Ev::Rto { conn, seq, .. },
        ) = batch.get(i + SLOT_LOOKAHEAD)
        {
            if let Some(slot) = self
                .conns
                .get(conn.0 as usize)
                .and_then(|rt| rt.conn.inflight.slot_hint(seq))
            {
                prefetch(slot);
            }
        }
    }

    /// Run the transport conservation invariants at a quiesce point
    /// (no-op unless a `stellar_check` scope is active). Called
    /// automatically when [`TransportSim::run`] returns; also callable
    /// directly from tests. Cascades into the fabric's own checks.
    pub fn check_invariants(&self, at: SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Transport, |c| {
            let drained = self.queue.is_empty();
            for rt in &self.conns {
                let conn = &rt.conn;
                let id = conn.id.0;
                let actual: u64 = conn.inflight.values().map(|p| p.bytes).sum();
                c.check(
                    "transport.inflight_bytes",
                    conn.inflight_bytes == actual,
                    || {
                        format!(
                            "conn {id}: window gauge {} != sum of in-flight packets {}",
                            conn.inflight_bytes, actual
                        )
                    },
                );
                let worst = conn.inflight.values().map(|p| p.retx).max().unwrap_or(0);
                c.check(
                    "transport.retry_budget",
                    worst <= self.config.retry_budget,
                    || {
                        format!(
                            "conn {id}: packet retransmitted {worst} times, budget {}",
                            self.config.retry_budget
                        )
                    },
                );
                let st = &conn.stats;
                c.check(
                    "transport.stats_conservation",
                    st.delivered_packets <= st.sent_packets
                        && st.acks <= st.sent_packets + st.retransmits
                        && st.ecn_acks <= st.acks,
                    || format!("conn {id}: counters out of balance: {st:?}"),
                );
                // Exactly-once across any number of recoveries: the
                // receiver bitmaps count each packet exactly once, so
                // their population must equal the deduplicated delivered
                // counter (a replayed duplicate that slipped past the
                // bitmap would inflate it), completion flags must match
                // the completion counter, and — at a drained queue with
                // the connection alive — nothing may be lost: every
                // posted message has a full bitmap.
                let placed: u64 = conn.messages.iter().map(|m| m.received_count()).sum();
                let completed = conn
                    .messages
                    .iter()
                    .filter(|m| m.completed_at.is_some())
                    .count() as u64;
                let no_loss = !drained
                    || conn.state != ConnState::Active
                    || conn.messages.iter().all(|m| m.completed_at.is_some());
                c.check(
                    "transport.recovery_exactly_once",
                    placed == st.delivered_packets
                        && completed == st.completed_messages
                        && no_loss,
                    || {
                        format!(
                            "conn {id}: bitmap placements {placed} vs delivered {}, \
                             completed bitmaps {completed} vs counter {}, lost messages: {}",
                            st.delivered_packets,
                            st.completed_messages,
                            conn.messages
                                .iter()
                                .filter(|m| m.completed_at.is_none())
                                .count()
                        )
                    },
                );
                // With the event queue drained nothing can make further
                // progress, so every connection must be at rest: idle if
                // Active, fully torn down if Error — and never stuck in
                // Recovering (a pending reconnect is a queued event, so
                // a drained queue with a Recovering connection means the
                // reconnect was lost).
                if drained {
                    let at_rest = !conn.has_pending()
                        && conn.inflight.is_empty()
                        && conn.state != ConnState::Recovering
                        && (conn.state == ConnState::Active || conn.inflight_bytes == 0);
                    c.check("transport.idle_quiescence", at_rest, || {
                        format!(
                            "conn {id}: event queue drained but work remains \
                             ({} unsent, {} in flight, state {:?})",
                            conn.pending(self.config.mtu).count(),
                            conn.inflight.len(),
                            conn.state
                        )
                    });
                }
            }
        });
        // The path layer's readmission law is a Net-layer invariant (it
        // governs which fabric paths traffic may use), issued from here
        // because the selectors live with the connections.
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| {
            for rt in &self.conns {
                let id = rt.conn.id.0;
                let sel = &rt.selector;
                c.check(
                    "net.blacklist_readmit",
                    sel.readmission_bounded(at),
                    || {
                        format!(
                            "conn {id}: a blacklisted path or quarantined plane has an \
                             unbounded readmission deadline (exiled forever)"
                        )
                    },
                );
            }
        });
        self.network.check_invariants(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::{ClosConfig, ClosTopology, NetworkConfig};

    fn make_sim(algo: PathAlgo, num_paths: u32, seed: u64) -> TransportSim {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(seed);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        TransportSim::new(
            network,
            TransportConfig {
                algo,
                num_paths,
                ..TransportConfig::default()
            },
            rng.fork("transport"),
        )
    }

    const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

    #[test]
    fn single_message_completes() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 1);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 1024 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        let done = sim.message_completed_at(conn, msg).expect("completed");
        assert!(done > SimTime::ZERO);
        let st = sim.conn_stats(conn);
        assert_eq!(st.delivered_bytes, 1024 * 1024);
        assert_eq!(st.completed_messages, 1);
        assert!(sim.all_idle());
    }

    /// `reset` restores every queue observable — `now`, the
    /// `scheduled_total` counter behind [`TransportSim::events_scheduled`]
    /// and the `peak_len` high-water mark behind
    /// [`TransportSim::queue_peak_len`] — to its initial state
    /// (`EventQueue::clear` semantics), and a reset sim replays a
    /// workload to the exact same schedule as a freshly constructed one.
    #[test]
    fn reset_restores_queue_observables_and_replays_identically() {
        let run = |sim: &mut TransportSim| {
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 256 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            (
                sim.message_completed_at(conn, msg).expect("completed"),
                sim.events_scheduled(),
                sim.queue_peak_len(),
            )
        };
        let mut sim = make_sim(PathAlgo::Obs, 8, 5);
        let first = run(&mut sim);
        assert!(first.1 > 0 && first.2 > 0);
        assert!(sim.now() > SimTime::ZERO);

        // Rebuild the exact network + RNG streams the constructor used.
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(5);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        sim.reset(network, rng.fork("transport"));
        assert_eq!(sim.now(), SimTime::ZERO, "reset must rewind the clock");
        assert_eq!(sim.events_scheduled(), 0, "reset must zero scheduled_total");
        assert_eq!(sim.queue_peak_len(), 0, "reset must zero peak_len");

        let second = run(&mut sim);
        assert_eq!(
            first, second,
            "a reset sim must be observably identical to a fresh one"
        );
    }

    #[test]
    fn throughput_near_line_rate_for_big_transfer() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 2);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        let bytes = 64 * 1024 * 1024u64;
        let msg = sim.post_message(conn, bytes);
        sim.run(&mut NoopApp, FOREVER);
        let done = sim.message_completed_at(conn, msg).unwrap();
        let gbps = stellar_sim::stats::gbps(bytes, done.duration_since(SimTime::ZERO));
        // 200 Gbps links; expect well over half of line rate.
        assert!(gbps > 120.0, "gbps={gbps}");
    }

    #[test]
    fn spray_uses_many_paths_single_uses_one() {
        let mut spray = make_sim(PathAlgo::Obs, 128, 3);
        let src = spray.network().topology().nic(0, 0);
        let dst = spray.network().topology().nic(4, 0);
        let c = spray.add_connection(src, dst);
        spray.post_message(c, 8 * 1024 * 1024);
        spray.run(&mut NoopApp, FOREVER);
        assert!(spray.selector(c).active_paths() > 64);

        let mut single = make_sim(PathAlgo::SinglePath, 128, 3);
        let c2 = single.add_connection(src, dst);
        single.post_message(c2, 8 * 1024 * 1024);
        single.run(&mut NoopApp, FOREVER);
        assert_eq!(single.selector(c2).active_paths(), 1);
    }

    #[test]
    fn loss_is_recovered_by_rto_on_other_paths() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 4);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        // 1% loss on one agg uplink used by some paths.
        let link = sim.network().topology().route(src, dst, 0, 0)[1];
        sim.network_mut().set_loss(link, 0.01);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 16 * 1024 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_completed_at(conn, msg).is_some());
        let st = sim.conn_stats(conn);
        assert_eq!(st.delivered_bytes, 16 * 1024 * 1024);
    }

    #[test]
    fn total_link_failure_recovers_via_path_exclusion() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 5);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let link = sim.network().topology().route(src, dst, 0, 7)[1];
        sim.network_mut().set_link_up(link, false);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 4 * 1024 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_completed_at(conn, msg).is_some());
        assert!(sim.conn_stats(conn).retransmits > 0);
    }

    #[test]
    fn congestion_marks_shrink_window() {
        // Many connections into one destination NIC (incast): queues grow,
        // ECN fires, windows shrink, everything still completes.
        let mut sim = make_sim(PathAlgo::Obs, 128, 6);
        let dst = sim.network().topology().nic(0, 0);
        let mut conns = Vec::new();
        for h in 1..8 {
            let src = sim.network().topology().nic(h, 0);
            let c = sim.add_connection(src, dst);
            sim.post_message(c, 4 * 1024 * 1024);
            conns.push(c);
        }
        sim.run(&mut NoopApp, FOREVER);
        let total_ecn: u64 = conns.iter().map(|&c| sim.conn_stats(c).ecn_acks).sum();
        assert!(total_ecn > 0, "incast must trigger ECN");
        for &c in &conns {
            assert_eq!(sim.conn_stats(c).delivered_bytes, 4 * 1024 * 1024);
        }
    }

    #[test]
    fn app_callback_chains_messages() {
        struct Chain {
            remaining: u32,
            completions: u32,
        }
        impl App for Chain {
            fn on_message_complete(&mut self, sim: &mut TransportSim, conn: ConnId, _m: MsgId) {
                self.completions += 1;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    sim.post_message(conn, 256 * 1024);
                }
            }
        }
        let mut sim = make_sim(PathAlgo::RoundRobin, 16, 7);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        sim.post_message(conn, 256 * 1024);
        let mut app = Chain {
            remaining: 9,
            completions: 0,
        };
        sim.run(&mut app, FOREVER);
        assert_eq!(app.completions, 10);
        assert_eq!(sim.conn_stats(conn).completed_messages, 10);
    }

    #[test]
    fn per_path_cc_also_completes() {
        let topo_sim = |per_path: bool| -> u64 {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 2,
                rails: 1,
                planes: 2,
                aggs_per_plane: 2,
            });
            let rng = SimRng::from_seed(8);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    algo: PathAlgo::Obs,
                    num_paths: 4,
                    per_path_cc: per_path,
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(2, 0);
            let c = sim.add_connection(src, dst);
            sim.post_message(c, 8 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            sim.conn_stats(c).delivered_bytes
        };
        assert_eq!(topo_sim(false), 8 * 1024 * 1024);
        assert_eq!(topo_sim(true), 8 * 1024 * 1024);
    }

    #[test]
    fn two_sided_send_recv_end_to_end() {
        let mut sim = make_sim(PathAlgo::Obs, 32, 11);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        // RNR before any recv is posted.
        assert!(matches!(
            sim.post_send(conn, 4096),
            Err(crate::conn::SendError::ReceiverNotReady)
        ));
        assert_eq!(sim.conn_stats(conn).rnr_naks, 1);
        // Post receives, then sends flow like writes.
        sim.post_recv(conn, 1 << 20);
        sim.post_recv(conn, 1 << 20);
        let m1 = sim.post_send(conn, 256 * 1024).unwrap();
        let m2 = sim.post_send(conn, 512 * 1024).unwrap();
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_completed_at(conn, m1).is_some());
        assert!(sim.message_completed_at(conn, m2).is_some());
        assert_eq!(sim.conn_stats(conn).delivered_bytes, 768 * 1024);
    }

    #[test]
    fn pacing_stretches_transmission_to_the_configured_rate() {
        let run = |pace: Option<f64>| -> u64 {
            let topo = ClosTopology::build(ClosConfig {
                segments: 1,
                hosts_per_segment: 2,
                rails: 1,
                planes: 1,
                aggs_per_plane: 1,
            });
            let rng = SimRng::from_seed(3);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    pace_gbps: pace,
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(1, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 4 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            sim.message_completed_at(conn, msg).unwrap().as_nanos()
        };
        let unpaced = run(None);
        let paced_50g = run(Some(50.0));
        // 4 MB at 50 Gbps ≈ 671 µs; the unpaced transfer rides the
        // 200 Gbps link.
        assert!(paced_50g > unpaced * 2, "paced {paced_50g} unpaced {unpaced}");
        let expect_ns = 4.0 * 1024.0 * 1024.0 * 8.0 / 50.0;
        let ratio = paced_50g as f64 / expect_ns;
        assert!((0.9..1.3).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn flowlet_transport_completes_and_uses_multiple_paths() {
        let mut sim = make_sim(
            PathAlgo::Flowlet {
                gap: SimDuration::from_micros(20),
            },
            64,
            12,
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        // Several messages with idle gaps between them -> several flowlets.
        struct Gapped {
            remaining: u32,
        }
        impl App for Gapped {
            fn on_message_complete(&mut self, sim: &mut TransportSim, _c: ConnId, _m: MsgId) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    let at = sim.now() + SimDuration::from_micros(100);
                    sim.schedule_timer(at, 0);
                }
            }
            fn on_timer(&mut self, sim: &mut TransportSim, _t: u64) {
                sim.post_message(ConnId(0), 256 * 1024);
            }
        }
        sim.post_message(conn, 256 * 1024);
        let mut app = Gapped { remaining: 12 };
        sim.run(&mut app, FOREVER);
        assert_eq!(sim.conn_stats(conn).completed_messages, 13);
        let active = sim.selector(conn).active_paths();
        assert!(active > 3, "flowlets must spread: {active}");
    }

    #[test]
    fn latency_histogram_reflects_message_sizes() {
        let mut sim = make_sim(PathAlgo::Obs, 32, 13);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        for _ in 0..4 {
            sim.post_message(conn, 16 * 1024);
        }
        sim.run(&mut NoopApp, FOREVER);
        sim.post_message(conn, 8 * 1024 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        let p = sim.message_latency_histogram(conn).percentiles();
        assert_eq!(p.count(), 5);
        // The big message is the tail.
        let p50 = p.p50().unwrap();
        let max = p.max().unwrap();
        assert!(max > p50 * 10, "p50={p50} max={max}");
    }

    #[test]
    fn rto_backoff_grows_and_caps() {
        let sim = make_sim(PathAlgo::Obs, 4, 1);
        // Defaults: rto 250 µs, backoff 2.0, cap 4 ms.
        assert_eq!(sim.rto_after(0), SimDuration::from_micros(250));
        assert_eq!(sim.rto_after(1), SimDuration::from_micros(500));
        assert_eq!(sim.rto_after(2), SimDuration::from_micros(1000));
        assert_eq!(sim.rto_after(4), SimDuration::from_millis(4));
        assert_eq!(sim.rto_after(30), SimDuration::from_millis(4));
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_error() {
        // Cut the destination NIC off entirely (both planes) with slow
        // BGP so no reroute ever helps: the retry budget must trip and
        // the connection must die instead of retransmitting forever.
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(9);
        let net_cfg = NetworkConfig {
            bgp_convergence: SimDuration::from_millis(10_000),
            ..NetworkConfig::default()
        };
        let network = Network::new(topo, net_cfg, rng.fork("net"));
        let mut sim = TransportSim::new(
            network,
            TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 32,
                retry_budget: 6,
                ..TransportConfig::default()
            },
            rng.fork("t"),
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        for plane in 0..2 {
            let (up, down) = sim.network().topology().nic_port_links(dst, plane);
            sim.network_mut().set_link_up(up, false);
            sim.network_mut().set_link_up(down, false);
        }
        struct Watch {
            errors: Vec<(ConnId, FatalError)>,
        }
        impl App for Watch {
            fn on_message_complete(&mut self, _s: &mut TransportSim, _c: ConnId, _m: MsgId) {}
            fn on_connection_error(
                &mut self,
                _s: &mut TransportSim,
                c: ConnId,
                e: FatalError,
            ) {
                self.errors.push((c, e));
            }
        }
        sim.post_message(conn, 64 * 1024);
        let mut app = Watch { errors: Vec::new() };
        sim.run(&mut app, FOREVER);
        assert_eq!(sim.conn_state(conn), ConnState::Error);
        assert_eq!(sim.failed_connections(), 1);
        assert_eq!(app.errors.len(), 1);
        let (c, e) = app.errors[0];
        assert_eq!(c, conn);
        assert!(matches!(
            e,
            FatalError::RetryBudgetExhausted { retries: 6, .. }
        ));
        assert_eq!(sim.conn_error(conn), Some(e));
        // Teardown discarded the traffic: the sim is idle, not stuck.
        assert!(sim.all_idle());
        // The budget bounds every packet's retransmissions.
        assert!(sim.conn_stats(conn).retransmits <= 6 * 17);
    }

    #[test]
    fn scoreboard_blacklists_paths_crossing_a_dead_link() {
        let mut sim = make_sim(PathAlgo::Obs, 64, 14);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        // Kill one NIC uplink (plane 0) with slow BGP: roughly half the
        // paths cross it and keep losing until blacklisted.
        let (up, _) = sim.network().topology().nic_port_links(src, 0);
        sim.network_mut().config_mut().bgp_convergence = SimDuration::from_millis(10_000);
        sim.network_mut().set_link_up(up, false);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 8 * 1024 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_completed_at(conn, msg).is_some());
        // At some point during the run, paths were blacklisted (they may
        // have expired since; check the scoreboard high-water mark via
        // consecutive_losses on plane-0 paths).
        let sel = sim.selector(conn);
        let poisoned = (0..sel.num_paths())
            .filter(|&p| sel.path(p).consecutive_losses >= 2 || sel.path(p).blacklisted_until > SimTime::ZERO)
            .count();
        assert!(poisoned > 0, "dead-plane paths must hit the scoreboard");
    }

    #[test]
    fn total_stats_matches_per_conn_sum() {
        let mut sim = make_sim(PathAlgo::Obs, 32, 15);
        let dst = sim.network().topology().nic(0, 0);
        let mut conns = Vec::new();
        for h in 1..4 {
            let src = sim.network().topology().nic(h, 0);
            let c = sim.add_connection(src, dst);
            sim.post_message(c, 1024 * 1024);
            conns.push(c);
        }
        sim.run(&mut NoopApp, FOREVER);
        let total = sim.total_stats();
        let by_hand: u64 = conns.iter().map(|&c| sim.conn_stats(c).delivered_bytes).sum();
        assert_eq!(total.delivered_bytes, by_hand);
        assert_eq!(total.delivered_bytes, 3 * 1024 * 1024);
        let acks: u64 = conns.iter().map(|&c| sim.conn_stats(c).acks).sum();
        assert_eq!(total.acks, acks);
    }

    #[test]
    fn backoff_disabled_matches_fixed_rto() {
        let sim = {
            let topo = ClosTopology::build(ClosConfig {
                segments: 1,
                hosts_per_segment: 2,
                rails: 1,
                planes: 1,
                aggs_per_plane: 1,
            });
            let rng = SimRng::from_seed(2);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            TransportSim::new(
                network,
                TransportConfig {
                    rto_backoff: 1.0,
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            )
        };
        for epoch in 0..10 {
            assert_eq!(sim.rto_after(epoch), sim.config().rto);
        }
    }

    #[test]
    fn reset_sim_is_observably_identical_to_fresh() {
        let topo_cfg = ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        };
        let run = |sim: &mut TransportSim| -> (u64, u64, u64) {
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 4 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            let st = sim.conn_stats(conn);
            (
                sim.message_completed_at(conn, msg).unwrap().as_nanos(),
                st.sent_packets,
                st.ecn_acks,
            )
        };
        // Fresh sim, seed 21.
        let mut fresh = make_sim(PathAlgo::Obs, 128, 21);
        let fresh_result = run(&mut fresh);
        // A sim that already ran seed 42, reset onto seed 21's fabric.
        let mut recycled = make_sim(PathAlgo::Obs, 128, 42);
        run(&mut recycled);
        let rng = SimRng::from_seed(21);
        let network = Network::new(
            ClosTopology::build(topo_cfg),
            NetworkConfig::default(),
            rng.fork("net"),
        );
        recycled.reset(network, rng.fork("transport"));
        assert_eq!(recycled.connection_count(), 0);
        assert_eq!(recycled.now(), SimTime::ZERO);
        assert_eq!(run(&mut recycled), fresh_result);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || -> (u64, u64, u64) {
            let mut sim = make_sim(PathAlgo::Obs, 128, 42);
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 8 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            let st = sim.conn_stats(conn);
            (
                sim.message_completed_at(conn, msg).unwrap().as_nanos(),
                st.sent_packets,
                st.ecn_acks,
            )
        };
        assert_eq!(run(), run());
    }

    /// Every `run` return is a quiesce point under `stellar_check`: a
    /// lossy transfer (drops, RTOs, retransmissions) and a torn-down
    /// connection must both leave every transport and fabric ledger
    /// balanced.
    #[test]
    fn invariants_hold_across_loss_and_connection_teardown() {
        stellar_check::strict(|| {
            // Lossy but recoverable transfer.
            let mut sim = make_sim(PathAlgo::Obs, 128, 4);
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let link = sim.network().topology().route(src, dst, 0, 0)[1];
            sim.network_mut().set_loss(link, 0.02);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 8 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            assert!(sim.message_completed_at(conn, msg).is_some());

            // Unreachable peer: the connection dies, and the torn-down
            // state must still satisfy idle quiescence.
            let mut dead = make_sim(PathAlgo::Obs, 32, 9);
            let src = dead.network().topology().nic(0, 0);
            let dst = dead.network().topology().nic(4, 0);
            dead.network_mut().config_mut().bgp_convergence =
                SimDuration::from_millis(10_000);
            for plane in 0..2 {
                let (up, down) = dead.network().topology().nic_port_links(dst, plane);
                dead.network_mut().set_link_up(up, false);
                dead.network_mut().set_link_up(down, false);
            }
            let conn = dead.add_connection(src, dst);
            dead.post_message(conn, 64 * 1024);
            dead.run(&mut NoopApp, FOREVER);
            assert_eq!(dead.conn_state(conn), ConnState::Error);
        });
    }

    /// The full recovery cycle: an unreachable peer trips the retry
    /// budget, the connection tears down and recovers (repeatedly, up
    /// the backoff ladder) until a timer restores the links — then the
    /// replay delivers every remaining byte exactly once.
    #[test]
    fn recovery_reestablishes_and_replays_exactly_once() {
        stellar_check::strict(|| {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 1,
                planes: 2,
                aggs_per_plane: 8,
            });
            let rng = SimRng::from_seed(9);
            let net_cfg = NetworkConfig {
                bgp_convergence: SimDuration::from_millis(10_000),
                ..NetworkConfig::default()
            };
            let network = Network::new(topo, net_cfg, rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    algo: PathAlgo::Obs,
                    num_paths: 32,
                    retry_budget: 6,
                    recovery: Some(RecoveryPolicy::default()),
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let mut dead_links = Vec::new();
            for plane in 0..2 {
                let (up, down) = sim.network().topology().nic_port_links(dst, plane);
                sim.network_mut().set_link_up(up, false);
                sim.network_mut().set_link_up(down, false);
                dead_links.push(up);
                dead_links.push(down);
            }
            struct Restore {
                links: Vec<stellar_net::LinkId>,
                recoveries: u32,
                errors: u32,
                min_downtime: SimDuration,
            }
            impl App for Restore {
                fn on_message_complete(&mut self, _s: &mut TransportSim, _c: ConnId, _m: MsgId) {}
                fn on_timer(&mut self, sim: &mut TransportSim, _t: u64) {
                    let now = sim.now();
                    for &l in &self.links {
                        sim.network_mut().set_link_state_at(now, l, true);
                    }
                }
                fn on_connection_error(&mut self, _s: &mut TransportSim, _c: ConnId, _e: FatalError) {
                    self.errors += 1;
                }
                fn on_connection_recovered(
                    &mut self,
                    _s: &mut TransportSim,
                    _c: ConnId,
                    downtime: SimDuration,
                ) {
                    self.recoveries += 1;
                    if downtime < self.min_downtime {
                        self.min_downtime = downtime;
                    }
                }
            }
            let msg = sim.post_message(conn, 64 * 1024);
            sim.schedule_timer(SimTime::from_nanos(20_000_000), 0); // 20 ms
            let mut app = Restore {
                links: dead_links,
                recoveries: 0,
                errors: 0,
                min_downtime: SimDuration::from_nanos(u64::MAX),
            };
            sim.run(&mut app, FOREVER);

            assert!(sim.message_completed_at(conn, msg).is_some(), "message survives");
            assert_eq!(sim.conn_state(conn), ConnState::Active);
            assert_eq!(sim.failed_connections(), 0);
            assert_eq!(sim.recovering_count(), 0);
            assert_eq!(app.errors, 0, "recovery must absorb the fatal error");
            let st = sim.conn_stats(conn);
            assert!(app.recoveries >= 1, "at least one recovery cycle ran");
            assert_eq!(u64::from(app.recoveries), st.recoveries);
            assert!(st.replayed_packets >= 16, "the 16-packet message was replayed");
            // Exactly once: every byte delivered once, no duplicates
            // counted, exactly one completion.
            assert_eq!(st.delivered_bytes, 64 * 1024);
            assert_eq!(st.delivered_packets, 16);
            assert_eq!(st.completed_messages, 1);
            // Downtime includes at least the base reconnect delay.
            assert!(
                app.min_downtime >= RecoveryPolicy::default().reconnect_delay(0),
                "downtime {:?} below the reconnect delay",
                app.min_downtime
            );
            assert!(sim.all_idle());
        });
    }

    /// A message posted while its connection is down — between a device
    /// churn and the reconnect — is sent exactly once: the replay covers
    /// it and the send cursor moves past it, so nothing queues it twice.
    #[test]
    fn message_posted_while_recovering_is_sent_once() {
        stellar_check::strict(|| {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 1,
                planes: 2,
                aggs_per_plane: 8,
            });
            let rng = SimRng::from_seed(10);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    recovery: Some(RecoveryPolicy::default()),
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            sim.device_churn(conn);
            assert_eq!(sim.conn_state(conn), ConnState::Recovering);
            let msg = sim.post_message(conn, 8 * 4096);
            assert_eq!(
                sim.conn_stats(conn).sent_packets,
                0,
                "a down QP sends nothing"
            );
            sim.run(&mut NoopApp, FOREVER);

            assert!(sim.message_completed_at(conn, msg).is_some());
            assert_eq!(sim.conn_state(conn), ConnState::Active);
            let st = sim.conn_stats(conn);
            assert_eq!(st.recoveries, 1);
            assert_eq!(st.replayed_packets, 8);
            assert_eq!(st.sent_packets, 8, "each packet sent once");
            assert_eq!(st.delivered_packets, 8);
            assert_eq!(st.acks, 8);
            assert!(sim.all_idle());
        });
    }

    /// Exhausting `max_attempts` consecutive recoveries makes the error
    /// terminal: the app sees `on_connection_error`, not an infinite
    /// reconnect loop.
    #[test]
    fn recovery_budget_exhaustion_is_terminal() {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(9);
        let net_cfg = NetworkConfig {
            bgp_convergence: SimDuration::from_millis(10_000),
            ..NetworkConfig::default()
        };
        let network = Network::new(topo, net_cfg, rng.fork("net"));
        let mut sim = TransportSim::new(
            network,
            TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 32,
                retry_budget: 6,
                recovery: Some(RecoveryPolicy {
                    max_attempts: 2,
                    ..RecoveryPolicy::default()
                }),
                ..TransportConfig::default()
            },
            rng.fork("t"),
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        for plane in 0..2 {
            let (up, down) = sim.network().topology().nic_port_links(dst, plane);
            sim.network_mut().set_link_up(up, false);
            sim.network_mut().set_link_up(down, false);
        }
        struct Watch {
            errors: u32,
            recoveries: u32,
        }
        impl App for Watch {
            fn on_message_complete(&mut self, _s: &mut TransportSim, _c: ConnId, _m: MsgId) {}
            fn on_connection_error(&mut self, _s: &mut TransportSim, _c: ConnId, _e: FatalError) {
                self.errors += 1;
            }
            fn on_connection_recovered(
                &mut self,
                _s: &mut TransportSim,
                _c: ConnId,
                _d: SimDuration,
            ) {
                self.recoveries += 1;
            }
        }
        sim.post_message(conn, 64 * 1024);
        let mut app = Watch {
            errors: 0,
            recoveries: 0,
        };
        sim.run(&mut app, FOREVER);
        assert_eq!(sim.conn_state(conn), ConnState::Error);
        assert_eq!(sim.failed_connections(), 1);
        assert_eq!(app.errors, 1);
        assert_eq!(app.recoveries, 2, "both attempts ran before giving up");
        assert!(sim.conn_error(conn).is_some());
        assert!(sim.all_idle());
    }

    /// Recovery enabled on a fault-free run is a pure no-op: the policy
    /// draws no RNG and schedules nothing until a failure occurs, so the
    /// runs are observably identical (the golden-corpus guarantee).
    #[test]
    fn fault_free_run_is_identical_with_recovery_enabled() {
        let run = |recovery: Option<RecoveryPolicy>| {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 1,
                planes: 2,
                aggs_per_plane: 8,
            });
            let rng = SimRng::from_seed(17);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    recovery,
                    ..TransportConfig::default()
                },
                rng.fork("transport"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 4 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            (
                sim.message_completed_at(conn, msg).unwrap().as_nanos(),
                sim.total_stats(),
                sim.events_scheduled(),
            )
        };
        assert_eq!(run(None), run(Some(RecoveryPolicy::default())));
    }

    #[test]
    fn reconnect_delay_backs_off_and_caps() {
        let p = RecoveryPolicy::default();
        // base 1 ms, mult 2.0, cap 100 ms, reestablish 120 µs.
        let re = SimDuration::from_micros(120);
        assert_eq!(p.reconnect_delay(0), SimDuration::from_millis(1) + re);
        assert_eq!(p.reconnect_delay(1), SimDuration::from_millis(2) + re);
        assert_eq!(p.reconnect_delay(3), SimDuration::from_millis(8) + re);
        assert_eq!(p.reconnect_delay(30), SimDuration::from_millis(100) + re);
    }

    /// The telemetry hub is a mirror, not a second bookkeeper: every
    /// counter it holds must equal the native statistic recorded at the
    /// same site — no double counting, no missed site. Runs a lossy
    /// transfer so drops, RTOs and retransmissions all fire.
    #[test]
    fn telemetry_hub_matches_native_statistics() {
        use stellar_net::DropReason;
        use stellar_telemetry::{capture, Subsystem, TelemetryConfig};

        let ((stats, drops), tel) = capture(TelemetryConfig::default(), || {
            let mut sim = make_sim(PathAlgo::Obs, 128, 4);
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let link = sim.network().topology().route(src, dst, 0, 0)[1];
            sim.network_mut().set_loss(link, 0.02);
            let conn = sim.add_connection(src, dst);
            sim.post_message(conn, 16 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            let drops: Vec<(&'static str, u64)> = DropReason::ALL
                .iter()
                .map(|&r| (r.name(), sim.network().drops_by_reason(r)))
                .collect();
            (sim.total_stats(), drops)
        });

        let hub = &tel.hub;
        assert_eq!(hub.get(Subsystem::Transport, "packet.sent"), stats.sent_packets);
        assert_eq!(hub.get(Subsystem::Transport, "retransmit"), stats.retransmits);
        assert_eq!(hub.get(Subsystem::Transport, "rto"), stats.rto_events);
        assert_eq!(hub.get(Subsystem::Transport, "ack"), stats.acks);
        assert_eq!(
            hub.get(Subsystem::Transport, "msg.completed"),
            stats.completed_messages
        );
        assert_eq!(hub.get(Subsystem::Transport, "rnr_nak"), stats.rnr_naks);
        // The lossy link must actually have dropped something for the
        // per-reason check to be meaningful.
        let total_drops: u64 = drops.iter().map(|&(_, n)| n).sum();
        assert!(total_drops > 0, "loss injection produced no drops");
        for (name, n) in drops {
            assert_eq!(
                hub.get(Subsystem::Net, &format!("drop.{name}")),
                n,
                "fabric drop counter '{name}' disagrees with the hub"
            );
        }
        // Every posted message completed, so every TransportMsg span
        // closed: the stage histogram holds exactly the completions.
        assert_eq!(tel.spans.open_count(), 0);
        assert_eq!(tel.spans.leaked(), 0);
        assert_eq!(
            tel.spans.stage(stellar_telemetry::Stage::TransportMsg).count() as u64,
            stats.completed_messages
        );
    }
}
