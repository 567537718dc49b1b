//! Hybrid fabric: packet fidelity where it matters, fluid speed
//! everywhere else.
//!
//! ATLAHS-style observation: in a cloud AI job almost all traffic is
//! *uncontested* — well-sprayed flows on healthy links whose behaviour
//! a fluid fair-share model predicts accurately — while the phenomena
//! that actually need packet-granularity modelling (incast pileups,
//! blackholing and lossy links, queues deep enough to ECN-mark) cluster
//! around a few *contested endpoints*. The hybrid fabric owns both
//! models and classifies every send:
//!
//! **Escalate to the packet model when**
//! 1. the route touches a link that is down, lossy, or degrading
//!    (fault fidelity: blackhole windows, per-packet loss draws), or
//! 2. the route touches a link whose packet-side backlog exceeds the
//!    ECN threshold (a queue hot enough to mark is a queue worth
//!    modelling), or
//! 3. the destination NIC is an incast port — at least
//!    [`HybridConfig::incast_threshold`] distinct flows are actively
//!    sending to it, or
//! 4. the flow was escalated before and is still active (stickiness:
//!    a flow's packets do not ping-pong between models, which would
//!    scramble its FIFO delivery order).
//!
//! Everything else rides the fluid model. Fluid-side ECN (a flow
//! exceeding its fair share) deliberately does **not** escalate: that
//! is steady-state congestion-control backpressure the fluid model
//! handles itself — escalating on it would collapse every saturating
//! collective onto the packet path and forfeit the scale win.
//!
//! Both carriers — the packet model's port calendars and the fluid
//! model's flow table — share one topology, one [`NetworkConfig`] and
//! one link-fault state, so a fault plan or manual link mutation applies
//! once and either carrier sees it at the next send. Each carrier keeps
//! its own conservation ledger (and invariant checks); the fabric-wide
//! ledgers and link stats are the field-wise sum of the two. One trace
//! records every send in send order.
//!
//! Rules 1 and 2 walk the route only for what they can find: while no
//! link has ever been faulty every link is healthy, and while the packet
//! carrier is idle at the send time every packet-side backlog is zero.
//! With both, the walk is skipped.

use std::collections::hash_map::Entry;

use stellar_sim::hash::FastMap;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, Subsystem};

use crate::fabric::{uplink_imbalance_from, Fabric, FabricKind};
use crate::fault::FaultPlan;
use crate::fluid::{FlowTable, FluidConfig};
use crate::links::{Ledger, Links, Trace};
use crate::network::{Delivery, DropReason, LinkStats, NetworkConfig, Ports, TraceRecord};
use crate::topology::{ClosTopology, LinkId, NicId};

/// Escalation knobs for the hybrid classifier.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Distinct active flows into one destination NIC before it counts
    /// as an incast port (3 keeps 1:1 permutations and ring neighbours
    /// on the fluid path while catching real N:1 fan-in).
    pub incast_threshold: usize,
    /// A flow with no traffic for this long sheds its escalation mark
    /// and its incast accounting.
    pub flow_idle_timeout: SimDuration,
    /// Fluid-model knobs for the uncontested path.
    pub fluid: FluidConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            incast_threshold: 3,
            flow_idle_timeout: SimDuration::from_micros(200),
            fluid: FluidConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    last_active: SimTime,
    escalated: bool,
}

/// The hybrid packet/fluid fabric. See the module docs for the
/// escalation rules.
#[derive(Debug)]
pub struct HybridFabric {
    links: Links,
    ports: Ports,
    flows: FlowTable,
    packet_rng: SimRng,
    fluid_rng: SimRng,
    packet_ledger: Ledger,
    fluid_ledger: Ledger,
    trace: Trace,
    hybrid: HybridConfig,
    /// Active-flow metadata. Nothing iterates it in an order that can
    /// reach the output: expiry only decrements integer counters.
    meta: FastMap<(u32, u32, u64), FlowMeta>,
    /// Distinct active flows per destination NIC (incast detector),
    /// indexed by NIC.
    dst_flows: Vec<u32>,
    next_expiry_scan: SimTime,
    escalations: u64,
    packet_sends: u64,
    fluid_sends: u64,
}

impl HybridFabric {
    /// A hybrid fabric over `topo`. The packet and fluid carriers get
    /// independent RNG streams forked from `rng` (labels `"packet"` and
    /// `"fluid"`), so loss draws on one path never perturb the other.
    pub fn new(
        topo: ClosTopology,
        config: NetworkConfig,
        hybrid: HybridConfig,
        rng: SimRng,
    ) -> Self {
        HybridFabric {
            dst_flows: vec![0; topo.total_nics()],
            ports: Ports::new(&topo),
            flows: FlowTable::new(&topo, &config, hybrid.fluid.clone()),
            links: Links::new(topo, config),
            packet_rng: rng.fork("packet"),
            fluid_rng: rng.fork("fluid"),
            packet_ledger: Ledger::default(),
            fluid_ledger: Ledger::default(),
            trace: Trace::default(),
            hybrid,
            meta: FastMap::default(),
            next_expiry_scan: SimTime::ZERO,
            escalations: 0,
            packet_sends: 0,
            fluid_sends: 0,
        }
    }

    /// `(packet sends, fluid sends, escalation events)` so far — the
    /// split that tells you whether the hybrid is earning its keep.
    pub fn send_split(&self) -> (u64, u64, u64) {
        (self.packet_sends, self.fluid_sends, self.escalations)
    }

    /// The fluid carrier's flow table.
    pub fn fluid(&self) -> &FlowTable {
        &self.flows
    }

    /// Shed idle flows' escalation marks and incast accounting, scanning
    /// at most once per half timeout.
    fn expire_meta(&mut self, now: SimTime) {
        if now < self.next_expiry_scan || self.meta.is_empty() {
            return;
        }
        let timeout = self.hybrid.flow_idle_timeout;
        self.next_expiry_scan = now + SimDuration::from_nanos((timeout.as_nanos() / 2).max(1));
        let dst_flows = &mut self.dst_flows;
        self.meta.retain(|&(_, dst, _), m| {
            let live = now.saturating_duration_since(m.last_active) < timeout;
            if !live {
                dst_flows[dst as usize] -= 1;
            }
            live
        });
    }
}

impl Fabric for HybridFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Hybrid
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
        self.advance(now);
        let route = self.links.topo.route(src, dst, flow, path_id);
        // Escalate when the flow already is (stickiness), when its
        // destination is an incast port, or when the route crosses a link
        // that is down, lossy, degrading, or queued past the ECN
        // threshold on the packet side. Cheap per-flow checks first; the
        // link walk checks faults only once a link was ever faulty, and
        // backlogs only while a packet-side queue may still hold bytes.
        let m = match self.meta.entry((src.0, dst.0, flow)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.dst_flows[dst.0 as usize] += 1;
                e.insert(FlowMeta {
                    last_active: now,
                    escalated: false,
                })
            }
        };
        let config = &self.links.config;
        let (pristine, idle) = (self.links.pristine(), self.ports.idle_at(now));
        let contested = m.escalated
            || self.dst_flows[dst.0 as usize] as usize >= self.hybrid.incast_threshold
            || (!(pristine && idle)
                && route.iter().any(|&l| {
                    self.links.faulty(l, now)
                        || (!idle
                            && self.ports.backlog_bytes(l, now, config.link_gbps)
                                > config.ecn_threshold_bytes)
                }));
        m.last_active = now;
        if contested && !m.escalated {
            m.escalated = true;
            self.escalations += 1;
            count(Subsystem::Net, "fabric.hybrid.escalation", 1);
        }

        let route = self.links.reroute(now, route, src, dst, flow, path_id);
        let key = (src, dst, flow);
        let delivery = if contested {
            self.packet_sends += 1;
            count(Subsystem::Net, "fabric.hybrid.packet_send", 1);
            let d = self.ports.forward(&self.links, &mut self.packet_rng, now, &route, bytes);
            self.packet_ledger.record(bytes, d);
            d
        } else {
            self.fluid_sends += 1;
            count(Subsystem::Net, "fabric.hybrid.fluid_send", 1);
            let d = self.flows.send(&self.links, &mut self.fluid_rng, now, &route, key, bytes);
            self.fluid_ledger.record(bytes, d);
            d
        };
        self.trace.record(now, key, path_id, bytes, delivery);
        delivery
    }

    fn advance(&mut self, now: SimTime) {
        self.flows.advance(&mut self.links, now);
        self.expire_meta(now);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.links.install(plan);
    }

    fn pending_fault_events(&self) -> usize {
        self.links.pending()
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.links.set_link_state_at(now, link, up);
        self.flows.mark_dirty();
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        self.links.set_loss(link, p);
    }

    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        self.links.control_rtt(src, dst)
    }

    fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.packet_ledger.drops(reason) + self.fluid_ledger.drops(reason)
    }

    fn injected(&self) -> (u64, u64) {
        let (p, f) = (self.packet_ledger.injected, self.fluid_ledger.injected);
        (p.0 + f.0, p.1 + f.1)
    }

    fn delivered(&self) -> (u64, u64) {
        let (p, f) = (self.packet_ledger.delivered, self.fluid_ledger.delivered);
        (p.0 + f.0, p.1 + f.1)
    }

    fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        // The counters add; queues exist only on the packet carrier.
        let (p, f) = (self.ports.stats(link, now), self.flows.stats(link));
        LinkStats {
            tx_bytes: p.tx_bytes + f.tx_bytes,
            tx_packets: p.tx_packets + f.tx_packets,
            drops: p.drops + f.drops,
            ecn_marks: p.ecn_marks + f.ecn_marks,
            ..p
        }
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        uplink_imbalance_from(&self.links.topo, |l| {
            self.ports.stats(l, SimTime::ZERO).tx_bytes + self.flows.stats(l).tx_bytes
        })
    }

    fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64) {
        // Per-port queues only exist on the packet carrier.
        self.ports.uplink_queue_stats(&self.links.topo, now)
    }

    fn enable_trace(&mut self, limit: usize) {
        self.trace.enable(limit);
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take()
    }

    fn check_invariants(&self, at: SimTime) {
        self.packet_ledger.check(at);
        self.fluid_ledger.check(at);
        self.flows.check_invariants(at);
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| {
            let counted: u64 = self.dst_flows.iter().map(|&n| n as u64).sum();
            c.check(
                "net.hybrid_incast_count",
                counted == self.meta.len() as u64,
                || {
                    format!(
                        "per-NIC incast counters sum to {counted}, but {} flows are tracked",
                        self.meta.len()
                    )
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;

    fn topo() -> ClosTopology {
        ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        })
    }

    fn fabric() -> HybridFabric {
        HybridFabric::new(
            topo(),
            NetworkConfig::default(),
            HybridConfig::default(),
            SimRng::from_seed(5),
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn healthy_one_to_one_traffic_rides_the_fluid_path() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        for i in 0..32 {
            let d = f.send(t(i), src, dst, 1, i as u32, 4096);
            assert!(d.arrival().is_some());
        }
        let (pkt, fluid, esc) = f.send_split();
        assert_eq!(pkt, 0, "healthy 1:1 flow must not touch the packet model");
        assert_eq!(fluid, 32);
        assert_eq!(esc, 0);
    }

    #[test]
    fn incast_destination_escalates_to_packet_model() {
        let mut f = fabric();
        let dst = f.topology().nic(0, 0);
        for h in 1..6 {
            let src = f.topology().nic(h, 0);
            f.send(t(0), src, dst, h as u64, 0, 4096);
        }
        let (pkt, _fluid, esc) = f.send_split();
        // Flows 3..6 arrive after the threshold (3) is reached.
        assert!(pkt >= 2, "incast fan-in must escalate: split {:?}", f.send_split());
        assert!(esc >= 2);
    }

    #[test]
    fn dead_link_escalates_and_drops_like_packet_model() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        let link = f.topology().route(src, dst, 7, 0)[0];
        f.set_link_state_at(t(0), link, false);
        let d = f.send(t(1), src, dst, 7, 0, 4096);
        assert!(
            matches!(d, Delivery::Dropped { reason: DropReason::LinkDown, .. }),
            "route over a dead link must blackhole pre-convergence: {d:?}"
        );
        let (pkt, fluid, _) = f.send_split();
        assert_eq!(pkt, 1);
        assert_eq!(fluid, 0);
        // Escalation is sticky: the same flow keeps the packet path
        // even on a live route slot.
        f.send(t(2), src, dst, 7, 1, 4096);
        assert_eq!(f.send_split().0, 2);
    }

    #[test]
    fn ledgers_sum_both_halves_and_invariants_hold() {
        stellar_check::strict(|| {
            let mut f = fabric();
            let dst = f.topology().nic(0, 0);
            // Mixed traffic: an incast (packet path) and a disjoint 1:1
            // pair (fluid path).
            for h in 1..6 {
                let src = f.topology().nic(h, 0);
                f.send(t(0), src, dst, h as u64, 0, 4096);
            }
            let a = f.topology().nic(6, 0);
            let b = f.topology().nic(7, 0);
            f.send(t(0), a, b, 99, 0, 4096);
            let (pkt, fluid, _) = f.send_split();
            assert!(pkt > 0 && fluid > 0, "both halves must carry traffic");
            let (ip, _) = Fabric::injected(&f);
            let (dp, _) = Fabric::delivered(&f);
            let drops: u64 = DropReason::ALL
                .iter()
                .map(|&r| Fabric::drops_by_reason(&f, r))
                .sum();
            assert_eq!(ip, dp + drops);
            f.check_invariants(t(1));
        });
    }

    #[test]
    fn one_trace_records_both_carriers_in_send_order() {
        let mut f = fabric();
        f.enable_trace(6);
        let dst = f.topology().nic(0, 0);
        // An incast (flows 3.. escalate to the packet carrier) mixed with
        // fluid sends, at equal timestamps.
        for h in 1..6u64 {
            let src = f.topology().nic(h as usize, 0);
            f.send(t(0), src, dst, h, 0, 4096);
        }
        let (a, b) = (f.topology().nic(6, 0), f.topology().nic(7, 0));
        f.send(t(0), a, b, 99, 0, 4096);
        f.send(t(0), a, b, 99, 1, 4096);
        let (pkt, fluid, _) = f.send_split();
        assert!(pkt > 0 && fluid > 0, "both carriers must carry traffic");
        let flows: Vec<u64> = f.take_trace().iter().map(|r| r.flow).collect();
        assert_eq!(flows, vec![1, 2, 3, 4, 5, 99], "one bound, send order");
    }
}
