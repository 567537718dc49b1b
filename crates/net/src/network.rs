//! Packet-level forwarding over per-port calendars.
//!
//! Each directed link (egress port) keeps a *calendar*: the time at which
//! it next falls idle. Forwarding a packet across its route is a single
//! pass over the hops:
//!
//! ```text
//! arrive(h+1) = max(arrive(h), port_free(h)) + tx_time + propagation
//! ```
//!
//! The backlog at a hop — `(port_free − arrive) × rate` — is the queue the
//! packet joins: it drives ECN marking (above the threshold) and tail drops
//! (above the buffer size), and is recorded in a per-port [`Gauge`] for
//! the Fig. 9 queue-depth plots. The model is exact for FIFO ports as long
//! as packets are injected in global time order, which the transport's
//! event loop guarantees. Link faults (dead links, BGP reroute, loss
//! draws) come from the shared link-fault state in `links`.

use stellar_sim::stats::Gauge;
use stellar_sim::{transmit_time, SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, stage_sample, Stage, Subsystem};

use crate::fabric::{uplink_imbalance_from, Fabric, FabricKind};
use crate::fault::FaultPlan;
use crate::links::{Ledger, Links, Trace};
use crate::topology::{ClosTopology, LinkId, NicId};

/// Fabric-wide link parameters.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Link rate in Gbps (every port; HPN links are uniform).
    pub link_gbps: f64,
    /// Per-link propagation + switch pipeline delay.
    pub hop_delay: SimDuration,
    /// ECN marking threshold per port, in bytes of backlog.
    pub ecn_threshold_bytes: u64,
    /// Port buffer size in bytes (tail drop beyond this backlog).
    pub buffer_bytes: u64,
    /// Control-plane (BGP) convergence delay: how long after a link goes
    /// down the fabric starts routing around it (§7.2: "Over the long
    /// term, the control plane (e.g., BGP) detects the failure and
    /// reroutes traffic"). Until then, packets hashed onto the dead link
    /// blackhole and the transport's RTO must recover them.
    pub bgp_convergence: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            link_gbps: 200.0,
            hop_delay: SimDuration::from_micros(1),
            // ~100 KB ECN threshold, 2 MB deep-buffer ports.
            ecn_threshold_bytes: 100 * 1024,
            buffer_bytes: 2 * 1024 * 1024,
            bgp_convergence: SimDuration::from_millis(200),
        }
    }
}

/// Why a packet was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Tail drop: the egress buffer was full.
    BufferOverflow,
    /// Injected random loss (Fig. 11 failure experiments).
    RandomLoss,
    /// The link is administratively or physically down (dead link).
    LinkDown,
    /// Loss from a degrading optical module (an active
    /// [`crate::FaultEvent::DegradeRamp`]), distinct from flat random
    /// loss: the probability is time-dependent and signals failing
    /// hardware rather than congestion-unrelated noise.
    DegradedLink,
}

impl DropReason {
    /// Stable snake_case name used by the telemetry counter taxonomy
    /// (`drop.<name>`) and trace events.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::BufferOverflow => "buffer_overflow",
            DropReason::RandomLoss => "random_loss",
            DropReason::LinkDown => "link_down",
            DropReason::DegradedLink => "degraded_link",
        }
    }

    /// The telemetry hub counter name for this reason.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            DropReason::BufferOverflow => "drop.buffer_overflow",
            DropReason::RandomLoss => "drop.random_loss",
            DropReason::LinkDown => "drop.link_down",
            DropReason::DegradedLink => "drop.degraded_link",
        }
    }

    /// Dense index for per-reason counters.
    pub(crate) fn index(self) -> usize {
        match self {
            DropReason::BufferOverflow => 0,
            DropReason::RandomLoss => 1,
            DropReason::LinkDown => 2,
            DropReason::DegradedLink => 3,
        }
    }

    /// Every reason, in counter order.
    pub const ALL: [DropReason; 4] = [
        DropReason::BufferOverflow,
        DropReason::RandomLoss,
        DropReason::LinkDown,
        DropReason::DegradedLink,
    ];
}

/// The fate of one forwarded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered to the destination NIC.
    Delivered {
        /// Arrival time at the destination.
        at: SimTime,
        /// Whether any hop marked ECN.
        ecn: bool,
    },
    /// Lost in transit.
    Dropped {
        /// The link where it died.
        link: LinkId,
        /// Why.
        reason: DropReason,
        /// When.
        at: SimTime,
    },
}

impl Delivery {
    /// The arrival time if delivered.
    pub fn arrival(&self) -> Option<SimTime> {
        match self {
            Delivery::Delivered { at, .. } => Some(*at),
            Delivery::Dropped { .. } => None,
        }
    }

    /// Whether the packet was ECN-marked.
    pub fn is_ecn(&self) -> bool {
        matches!(self, Delivery::Delivered { ecn: true, .. })
    }
}

/// Per-link statistics snapshot.
#[derive(Debug, Clone)]
pub struct LinkStats {
    /// Total bytes transmitted.
    pub tx_bytes: u64,
    /// Total packets transmitted.
    pub tx_packets: u64,
    /// Packets dropped at this port.
    pub drops: u64,
    /// Packets ECN-marked at this port.
    pub ecn_marks: u64,
    /// Maximum queue backlog seen, in bytes.
    pub max_queue_bytes: u64,
    /// Time-weighted average backlog, in bytes.
    pub avg_queue_bytes: f64,
}

/// One traced packet (the fabric's pcap analogue).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Injection time.
    pub sent: SimTime,
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Flow id.
    pub flow: u64,
    /// Path id the transport chose.
    pub path_id: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// What happened.
    pub delivery: Delivery,
}

/// One egress port: its calendar, queue gauge and transmit counters.
#[derive(Debug, Clone)]
struct Port {
    next_free: SimTime,
    queue: Gauge,
    tx_bytes: u64,
    tx_packets: u64,
    drops: u64,
    ecn_marks: u64,
}

/// Per-port calendars: the packet model's whole forwarding state. Link
/// faults live in the shared [`Links`].
#[derive(Debug)]
pub(crate) struct Ports {
    ports: Vec<Port>,
    /// The latest `next_free` of any port: at or after it, every port is
    /// idle and every backlog is zero.
    horizon: SimTime,
}

impl Ports {
    /// One idle port per directed link of `topo`.
    pub(crate) fn new(topo: &ClosTopology) -> Self {
        Ports {
            ports: vec![
                Port {
                    next_free: SimTime::ZERO,
                    queue: Gauge::new(SimTime::ZERO),
                    tx_bytes: 0,
                    tx_packets: 0,
                    drops: 0,
                    ecn_marks: 0,
                };
                topo.total_links()
            ],
            horizon: SimTime::ZERO,
        }
    }

    /// Whether every port is idle at `now` (every backlog is zero).
    pub(crate) fn idle_at(&self, now: SimTime) -> bool {
        self.horizon <= now
    }

    /// Forward one packet of `bytes` along `route` (already rerouted by
    /// [`Links::reroute`]) starting at `now`, hop by hop.
    pub(crate) fn forward(
        &mut self,
        links: &Links,
        rng: &mut SimRng,
        now: SimTime,
        route: &[LinkId],
        bytes: u64,
    ) -> Delivery {
        if route.is_empty() {
            return links.host_local(now);
        }
        let config = &links.config;
        let mut t = now;
        let mut ecn = false;
        let bytes_per_ns = config.link_gbps / 8.0;
        // Every hop serializes the same payload at the same line rate, so
        // the f64 division runs once per packet, not once per link.
        let serialize = transmit_time(bytes, config.link_gbps);
        for &link_id in route {
            let link = &mut self.ports[link_id.0 as usize];
            if let Some(reason) = links.hop_drop(link_id, t, rng) {
                link.drops += 1;
                return Delivery::Dropped {
                    link: link_id,
                    reason,
                    at: t,
                };
            }
            // Backlog ahead of us on this port, in bytes.
            let wait = link.next_free.saturating_duration_since(t);
            let backlog = (wait.as_nanos() as f64 * bytes_per_ns) as u64;
            if backlog + bytes > config.buffer_bytes {
                link.drops += 1;
                link.queue.set(t, backlog);
                return Delivery::Dropped {
                    link: link_id,
                    reason: DropReason::BufferOverflow,
                    at: t,
                };
            }
            if backlog > config.ecn_threshold_bytes {
                ecn = true;
                link.ecn_marks += 1;
                count(Subsystem::Net, "ecn_mark", 1);
            }
            if wait > SimDuration::ZERO {
                // Time this packet spends queued behind the port backlog.
                stage_sample(Stage::FabricQueueing, wait);
            }
            let start = if link.next_free > t { link.next_free } else { t };
            let depart = start + serialize;
            link.queue.set(t, backlog + bytes);
            link.next_free = depart;
            self.horizon = self.horizon.max(depart);
            link.tx_bytes += bytes;
            link.tx_packets += 1;
            t = depart + config.hop_delay;
        }
        Delivery::Delivered { at: t, ecn }
    }

    /// Statistics snapshot for a port at time `now`.
    pub(crate) fn stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        let l = &self.ports[link.0 as usize];
        LinkStats {
            tx_bytes: l.tx_bytes,
            tx_packets: l.tx_packets,
            drops: l.drops,
            ecn_marks: l.ecn_marks,
            max_queue_bytes: l.queue.max(),
            avg_queue_bytes: l.queue.time_avg(now),
        }
    }

    /// Current backlog of a port in bytes at time `now`.
    pub(crate) fn backlog_bytes(&self, link: LinkId, now: SimTime, link_gbps: f64) -> u64 {
        let wait = self.ports[link.0 as usize].next_free.saturating_duration_since(now);
        (wait.as_nanos() as f64 * link_gbps / 8.0) as u64
    }

    /// Aggregate queue statistics over all ToR uplinks at `now`:
    /// `(mean of time-averaged backlog, max backlog)` in bytes.
    pub(crate) fn uplink_queue_stats(&self, topo: &ClosTopology, now: SimTime) -> (f64, u64) {
        let uplinks = topo.tor_uplinks();
        let mut sum_avg = 0.0;
        let mut max = 0u64;
        for l in &uplinks {
            let s = &self.ports[l.0 as usize];
            sum_avg += s.queue.time_avg(now);
            max = max.max(s.queue.max());
        }
        (sum_avg / uplinks.len() as f64, max)
    }
}

/// The live packet-level fabric: per-port calendars over the shared
/// link-fault state.
#[derive(Debug)]
pub struct Network {
    links: Links,
    ports: Ports,
    rng: SimRng,
    ledger: Ledger,
    trace: Trace,
}

impl Network {
    /// A fabric over `topo` with uniform `config`, using `rng` for loss
    /// injection.
    pub fn new(topo: ClosTopology, config: NetworkConfig, rng: SimRng) -> Self {
        Network {
            ports: Ports::new(&topo),
            links: Links::new(topo, config),
            rng,
            ledger: Ledger::default(),
            trace: Trace::default(),
        }
    }
}

impl Fabric for Network {
    fn kind(&self) -> FabricKind {
        FabricKind::Packet
    }

    fn topology(&self) -> &ClosTopology {
        &self.links.topo
    }

    fn config(&self) -> &NetworkConfig {
        &self.links.config
    }

    fn config_mut(&mut self) -> &mut NetworkConfig {
        &mut self.links.config
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
        self.links.advance(now);
        let route = self.links.topo.route(src, dst, flow, path_id);
        let route = self.links.reroute(now, route, src, dst, flow, path_id);
        let delivery = self.ports.forward(&self.links, &mut self.rng, now, &route, bytes);
        self.ledger.record(bytes, delivery);
        self.trace.record(now, (src, dst, flow), path_id, bytes, delivery);
        delivery
    }

    fn advance(&mut self, now: SimTime) {
        self.links.advance(now);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.links.install(plan);
    }

    fn pending_fault_events(&self) -> usize {
        self.links.pending()
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.links.set_link_state_at(now, link, up);
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        self.links.set_loss(link, p);
    }

    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        self.links.control_rtt(src, dst)
    }

    fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.ledger.drops(reason)
    }

    fn injected(&self) -> (u64, u64) {
        self.ledger.injected
    }

    fn delivered(&self) -> (u64, u64) {
        self.ledger.delivered
    }

    fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        self.ports.stats(link, now)
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        uplink_imbalance_from(&self.links.topo, |l| self.ports.ports[l.0 as usize].tx_bytes)
    }

    fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64) {
        self.ports.uplink_queue_stats(&self.links.topo, now)
    }

    fn enable_trace(&mut self, limit: usize) {
        self.trace.enable(limit);
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take()
    }

    fn check_invariants(&self, at: SimTime) {
        self.ledger.check(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;

    fn net() -> Network {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        });
        Network::new(topo, NetworkConfig::default(), SimRng::from_seed(1))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn uncongested_delivery_time_is_hops_plus_wire() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0); // cross-segment: 4 hops
        let d = n.send(t(0), src, dst, 1, 0, 4096);
        let at = d.arrival().unwrap();
        // 4 hops × (1 µs + 163.84 ns) ≈ 4.66 µs.
        let expect_ns = 4 * (1000 + 164);
        let got = at.as_nanos();
        assert!(
            (got as i64 - expect_ns as i64).abs() < 10,
            "got {got} expect {expect_ns}"
        );
        assert!(!d.is_ecn());
    }

    #[test]
    fn backlog_accumulates_and_marks_ecn() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0); // same ToR
        // Blast 4 KB packets at t=0: they serialize on the NIC uplink.
        let mut ecn_seen = false;
        for _ in 0..100 {
            let d = n.send(t(0), src, dst, 7, 0, 4096);
            ecn_seen |= d.is_ecn();
            assert!(d.arrival().is_some());
        }
        assert!(ecn_seen, "deep backlog should ECN-mark");
        let up = n.topology().route(src, dst, 7, 0)[0];
        assert!(n.ports.backlog_bytes(up, t(0), n.config().link_gbps) > 100 * 1024);
        let stats = n.link_stats(up, t(0));
        assert!(stats.ecn_marks > 0);
        assert_eq!(stats.tx_packets, 100);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0);
        let mut dropped = 0;
        for _ in 0..1000 {
            if let Delivery::Dropped { reason, .. } = n.send(t(0), src, dst, 7, 0, 4096) {
                assert_eq!(reason, DropReason::BufferOverflow);
                dropped += 1;
            }
        }
        assert!(dropped > 0, "2 MB buffer cannot hold 4 MB burst");
    }

    #[test]
    fn queues_drain_over_time() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0);
        for _ in 0..50 {
            n.send(t(0), src, dst, 7, 0, 4096);
        }
        let up = n.topology().route(src, dst, 7, 0)[0];
        let b0 = n.ports.backlog_bytes(up, t(0), n.config().link_gbps);
        let b_later = n.ports.backlog_bytes(up, t(5), n.config().link_gbps);
        assert!(b_later < b0);
        // 50 × 4096 B at 200 Gbps ≈ 8.2 µs to drain fully.
        assert_eq!(n.ports.backlog_bytes(up, t(10), n.config().link_gbps), 0);
    }

    #[test]
    fn random_loss_injection() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let lossy = n.topology().route(src, dst, 1, 0)[1];
        n.set_loss(lossy, 0.5);
        let mut drops = 0;
        for i in 0..200 {
            // Spread in time to avoid buffer effects.
            if let Delivery::Dropped { reason, link, .. } =
                n.send(t(i * 10), src, dst, 1, 0, 1024)
            {
                assert_eq!(reason, DropReason::RandomLoss);
                assert_eq!(link, lossy);
                drops += 1;
            }
        }
        assert!((60..140).contains(&drops), "drops={drops}");
    }

    #[test]
    fn downed_link_drops_until_bgp_converges() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.set_link_state_at(t(100), link, false);
        // Before convergence: blackhole (RTO must recover).
        let d = n.send(t(200), src, dst, 1, 0, 1024);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        // Other paths still work meanwhile.
        let ok = (1..32).any(|p| n.send(t(201), src, dst, 1, p, 1024).arrival().is_some());
        assert!(ok);
        // After convergence the control plane routes around the failure:
        // the same path id now delivers.
        let after = t(100) + n.config().bgp_convergence + SimDuration::from_micros(1);
        let d2 = n.send(after, src, dst, 1, 0, 1024);
        assert!(d2.arrival().is_some(), "converged reroute must deliver");
        // Flapping back up restores the original route.
        n.set_link_state_at(after, link, true);
        assert!(n.send(after + SimDuration::from_micros(1), src, dst, 1, 0, 1024)
            .arrival()
            .is_some());
    }

    #[test]
    fn spraying_reduces_uplink_imbalance() {
        // Two runs: single-path vs 128-path spray, same flows.
        let run = |paths: u32| -> f64 {
            let mut n = net();
            let pairs = [(0usize, 4usize), (1, 5), (2, 6), (3, 7)];
            for step in 0..400u64 {
                for (i, &(a, b)) in pairs.iter().enumerate() {
                    let src = n.topology().nic(a, 0);
                    let dst = n.topology().nic(b, 0);
                    let path = (step % paths as u64) as u32;
                    n.send(t(step), src, dst, i as u64, path, 4096);
                }
            }
            n.tor_uplink_imbalance()
        };
        let single = run(1);
        let sprayed = run(128);
        assert!(
            sprayed < single,
            "spray {sprayed} should beat single {single}"
        );
    }

    #[test]
    fn packet_trace_records_and_bounds() {
        let mut n = net();
        n.enable_trace(5);
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        for i in 0..10 {
            n.send(t(i), src, dst, 3, i as u32, 4096);
        }
        let trace = n.take_trace();
        assert_eq!(trace.len(), 5, "trace must stop at its bound");
        assert_eq!(trace[0].flow, 3);
        assert_eq!(trace[0].bytes, 4096);
        assert!(trace[0].delivery.arrival().is_some());
        // Tracing is now off; further sends record nothing.
        n.send(t(100), src, dst, 3, 0, 4096);
        assert!(n.take_trace().is_empty());
    }

    #[test]
    fn fault_plan_executes_on_the_sim_clock() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(
            crate::FaultPlan::new(1)
                .link_down(t(100), link)
                .link_up(t(300), link),
        );
        assert_eq!(n.pending_fault_events(), 2);
        // Before the scheduled failure: delivers.
        assert!(n.send(t(50), src, dst, 1, 0, 1024).arrival().is_some());
        // Inside the down window: dead link.
        let d = n.send(t(150), src, dst, 1, 0, 1024);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        assert_eq!(n.drops_by_reason(DropReason::LinkDown), 1);
        // After the scheduled recovery: the same path delivers again.
        assert!(n.send(t(400), src, dst, 1, 0, 1024).arrival().is_some());
        assert_eq!(n.pending_fault_events(), 0);
    }

    #[test]
    fn fault_plan_down_since_uses_event_time_not_send_time() {
        // The first packet arrives long after the scheduled failure; BGP
        // convergence must be clocked from the fault, so the reroute is
        // already active.
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(crate::FaultPlan::new(1).link_down(t(10), link));
        let after = t(10) + n.config().bgp_convergence + SimDuration::from_micros(1);
        assert!(
            n.send(after, src, dst, 1, 0, 1024).arrival().is_some(),
            "convergence clock must start at the scheduled fault time"
        );
    }

    #[test]
    fn degrade_ramp_loss_grows_over_the_window() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(crate::FaultPlan::new(2).degrade(
            t(0),
            link,
            0.0,
            0.5,
            SimDuration::from_micros(1000),
        ));
        // Early in the ramp: low loss. Late: approaches 50%.
        let mut early = 0;
        let mut late = 0;
        for i in 0..200u64 {
            if n.send(t(i), src, dst, 1, 0, 64).arrival().is_none() {
                early += 1;
            }
        }
        for i in 0..200u64 {
            if n.send(t(2000 + i), src, dst, 1, 0, 64).arrival().is_none() {
                late += 1;
            }
        }
        assert!(late > early + 20, "early={early} late={late}");
        assert!(n.drops_by_reason(DropReason::DegradedLink) > 0);
        assert_eq!(n.drops_by_reason(DropReason::RandomLoss), 0);
        assert!(n.links.faulty(link, t(500)));
    }

    #[test]
    fn switch_death_kills_all_attached_links_atomically() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        // Find the agg switch that (flow 1, path 0) crosses and kill it.
        let uplink = n.topology().route(src, dst, 1, 0)[1];
        let (_, agg) = n.topology().link_endpoints(uplink);
        assert!(matches!(
            n.topology().node_kind(agg),
            crate::NodeKind::Agg { .. }
        ));
        n.install_fault_plan(crate::FaultPlan::new(3).switch_down(t(10), agg));
        let d = n.send(t(20), src, dst, 1, 0, 64);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        // Every link touching the switch is down, so the reverse path
        // through it is dead too — but other aggs still carry traffic.
        let ok = (1..32).any(|p| n.send(t(21), src, dst, 1, p, 64).arrival().is_some());
        assert!(ok, "other aggregation switches must survive");
    }

    #[test]
    fn nic_port_failure_blackholes_one_plane() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        // Find a path on plane 0 and one on plane 1 of the source NIC.
        let mut by_plane = [None, None];
        for p in 0..32 {
            let up0 = n.topology().route(src, dst, 1, p)[0];
            for (plane, slot) in by_plane.iter_mut().enumerate() {
                if up0 == n.topology().nic_port_links(src, plane).0 {
                    slot.get_or_insert(p);
                }
            }
        }
        let (p0, p1) = (by_plane[0].unwrap(), by_plane[1].unwrap());
        n.install_fault_plan(crate::FaultPlan::new(4).nic_port_down(t(5), src, 0));
        assert!(n.send(t(10), src, dst, 1, p0, 64).arrival().is_none());
        assert!(
            n.send(t(10), src, dst, 1, p1, 64).arrival().is_some(),
            "the other plane's port must stay up"
        );
    }

    #[test]
    fn control_rtt_component_scales_with_hops() {
        let n = net();
        let near = n.control_rtt_component(n.topology().nic(0, 0), n.topology().nic(1, 0));
        let far = n.control_rtt_component(n.topology().nic(0, 0), n.topology().nic(4, 0));
        assert!(far > near);
    }

    #[test]
    fn loopback_delivery() {
        let mut n = net();
        let nic = n.topology().nic(0, 0);
        let d = n.send(t(0), nic, nic, 1, 0, 4096);
        assert!(d.arrival().is_some());
    }

    #[test]
    fn conservation_invariants_hold_under_loss_and_faults() {
        // A run that exercises every outcome class — deliveries, random
        // loss, dead-link drops, buffer overflows — must balance the
        // injected/delivered/dropped ledgers exactly.
        stellar_check::strict(|| {
            let mut n = net();
            let src = n.topology().nic(0, 0);
            let dst = n.topology().nic(4, 0);
            let lossy = n.topology().route(src, dst, 1, 0)[1];
            n.set_loss(lossy, 0.3);
            n.install_fault_plan(crate::FaultPlan::new(9).link_down(t(500), lossy));
            for i in 0..400u64 {
                n.send(t(i * 2), src, dst, 1, (i % 4) as u32, 4096);
            }
            n.check_invariants(t(800));
            let (inj_p, inj_b) = n.injected();
            let (del_p, del_b) = n.delivered();
            assert_eq!(inj_p, 400);
            assert_eq!(inj_b, 400 * 4096);
            let drops: u64 = DropReason::ALL.iter().map(|&r| n.drops_by_reason(r)).sum();
            assert!(drops > 0, "loss must have bitten");
            assert_eq!(del_p + drops, inj_p);
            assert!(del_b < inj_b);
        });
    }
}
