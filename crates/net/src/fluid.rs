//! Flow-level fluid fabric: max-min fair-share bandwidth allocation.
//!
//! Instead of walking every packet across per-port calendars, the fluid
//! model tracks *flows* — `(src, dst, flow-id)` triples — and assigns
//! each one a max-min fair share of the Clos topology's capacity via
//! progressive filling. A flow keeps a private virtual calendar:
//!
//! ```text
//! start      = max(now, flow.next_free)
//! next_free  = start + bytes / fair_rate
//! arrival    = next_free + hops × hop_delay
//! ```
//!
//! The backlog `(next_free − now) × fair_rate` plays the role the port
//! queue plays in the packet model: it ECN-marks above the configured
//! threshold and tail-drops above the buffer size, so window-based
//! congestion control reaches the same equilibrium (window ≈
//! fair_rate × RTT) it reaches against real queues.
//!
//! The constraint set is the Clos reduced to aggregate resources — each
//! NIC's egress and ingress capacity (`planes × link_gbps`, both ports,
//! assuming path spray) and each segment×rail uplink/downlink pool
//! (`planes × aggs_per_plane × link_gbps`). A flow that has only been
//! observed on a subset of planes (single-path transports) is
//! additionally capped at `planes_seen × link_gbps`. Fair shares are
//! recomputed on flow arrival, departure and fault events; recomputes
//! within [`FluidConfig::recompute_quantum`] of the last one coalesce
//! (arriving flows carry a conservative provisional rate until the next
//! recompute trues them up).
//!
//! What the model deliberately does *not* capture — transient per-port
//! queue oscillation, ECMP hash collisions on individual agg links,
//! packet-granularity loss bursts — is exactly what
//! [`crate::HybridFabric`] escalates to the packet model.
//!
//! [`FlowTable`] is the model's whole forwarding state. Link faults come
//! from the link-fault state the packet model uses too, with the same
//! per-hop checks and random draws, clocked at the send time.
//!
//! Flows live in dense slots behind a hash index, so a send costs one
//! probe. Progressive filling tests each flow against resource shares
//! that earlier flows of the same round have already drawn down, so the
//! iteration order can tip a rounding-level comparison. Every pass over
//! the flow set therefore walks a `(src, dst, flow)`-sorted slot order,
//! re-sorted only when the set changed since the last recompute:
//! allocations are a pure function of the flow set by construction,
//! never of insertion or hash order.

use std::collections::hash_map::Entry;

use stellar_sim::hash::FastMap;
use stellar_sim::{transmit_time, SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, Subsystem};

use crate::fabric::{uplink_imbalance_from, Fabric, FabricKind};
use crate::fault::FaultPlan;
use crate::links::{Ledger, Links, Trace};
use crate::network::{Delivery, DropReason, LinkStats, NetworkConfig, TraceRecord};
use crate::topology::{ClosTopology, LinkId, NicId, NodeKind};

/// Fluid-model knobs (the link parameters come from [`NetworkConfig`]).
#[derive(Debug, Clone)]
pub struct FluidConfig {
    /// A flow with no traffic for this long is retired (its share
    /// returns to the pool; the next packet re-registers it).
    pub flow_idle_timeout: SimDuration,
    /// Coalescing window for fair-share recomputes: arrival/departure/
    /// fault events within this window of the last recompute share one.
    /// `ZERO` recomputes at every event (the reference behaviour the
    /// property tests pin).
    pub recompute_quantum: SimDuration,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            flow_idle_timeout: SimDuration::from_micros(200),
            recompute_quantum: SimDuration::from_micros(2),
        }
    }
}

/// Per-link transmit statistics. No calendar — queueing lives in the
/// per-flow virtual calendars.
#[derive(Debug, Clone, Default)]
struct LinkCounters {
    tx_bytes: u64,
    tx_packets: u64,
    drops: u64,
    ecn_marks: u64,
}

/// A flow's `(src, dst, flow-id)` key.
type FlowKey = (u32, u32, u64);

/// One active flow.
#[derive(Debug, Clone)]
struct FlowState {
    /// Constraint-resource indices (src egress, dst ingress, and the
    /// uplink/downlink pools for cross-segment flows); the first
    /// `n_resources` are live.
    resources: [u32; 4],
    n_resources: u8,
    /// Per-flow rate cap from the planes actually observed, in Gbps.
    cap_gbps: f64,
    /// Bitmask of planes this flow's routes have touched.
    planes_mask: u32,
    /// Current allocated rate in Gbps (provisional until the next
    /// global recompute if the flow arrived inside a quantum).
    rate_gbps: f64,
    /// Virtual calendar: when the flow's pipe next falls idle.
    next_free: SimTime,
    /// Last time the flow carried a packet (idle-retirement clock).
    last_active: SimTime,
}

impl FlowState {
    fn resources(&self) -> &[u32] {
        &self.resources[..self.n_resources as usize]
    }
}

/// The fluid model's forwarding state: active flows, their max-min
/// shares and per-link counters. Link faults live in the shared link
/// state the caller passes in.
#[derive(Debug)]
pub struct FlowTable {
    fluid: FluidConfig,
    links: Vec<LinkCounters>,
    /// Active flows, densely packed; `keys[i]` is the key of `slots[i]`.
    slots: Vec<FlowState>,
    keys: Vec<FlowKey>,
    /// Key → slot, probed once per send.
    index: FastMap<FlowKey, u32>,
    /// Slot indices in key order — the order every pass over the flow
    /// set takes. Stale after a flow opens or retires.
    order: Vec<u32>,
    order_stale: bool,
    /// Capacity of each constraint resource, in Gbps.
    res_capacity: Vec<f64>,
    /// Active-flow count per resource (provisional-rate estimates).
    res_count: Vec<u32>,
    /// Fair shares need a recompute (flow set or link state changed).
    dirty: bool,
    last_recompute: SimTime,
    next_expiry_scan: SimTime,
    flows_opened: u64,
    flows_retired: u64,
}

impl FlowTable {
    /// An empty flow table over `topo` with link rate from `config`.
    pub(crate) fn new(topo: &ClosTopology, config: &NetworkConfig, fluid: FluidConfig) -> Self {
        let t = topo.config().clone();
        let nics = topo.total_nics();
        let pools = t.segments * t.rails;
        // Resources: [0, nics) NIC egress, [nics, 2·nics) NIC ingress,
        // [2·nics, 2·nics + pools) segment×rail uplink pools,
        // [2·nics + pools, 2·nics + 2·pools) downlink pools.
        let mut res_capacity = vec![t.planes as f64 * config.link_gbps; 2 * nics];
        let pool_cap = (t.planes * t.aggs_per_plane) as f64 * config.link_gbps;
        res_capacity.extend(std::iter::repeat_n(pool_cap, 2 * pools));
        let res_count = vec![0u32; res_capacity.len()];
        FlowTable {
            fluid,
            links: vec![LinkCounters::default(); topo.total_links()],
            slots: Vec::new(),
            keys: Vec::new(),
            index: FastMap::default(),
            order: Vec::new(),
            order_stale: false,
            res_capacity,
            res_count,
            dirty: false,
            last_recompute: SimTime::ZERO,
            next_expiry_scan: SimTime::ZERO,
            flows_opened: 0,
            flows_retired: 0,
        }
    }

    /// `(flows opened, flows retired, flows active)` since construction.
    pub fn flow_ledger(&self) -> (u64, u64, usize) {
        (self.flows_opened, self.flows_retired, self.slots.len())
    }

    /// Link state changed: fair shares need a recompute.
    pub(crate) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Slot indices in key order.
    fn sorted_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.slots.len() as u32).collect();
        order.sort_unstable_by_key(|&i| self.keys[i as usize]);
        order
    }

    /// Constraint-resource indices of a `src → dst` flow, and how many
    /// are live.
    fn flow_resources(topo: &ClosTopology, src: NicId, dst: NicId) -> ([u32; 4], u8) {
        let t = topo.config();
        let nics = topo.total_nics() as u32;
        let (src_host, rail) = topo.nic_location(src);
        let (dst_host, _) = topo.nic_location(dst);
        let src_seg = topo.segment_of_host(src_host);
        let dst_seg = topo.segment_of_host(dst_host);
        if src_seg == dst_seg {
            return ([src.0, nics + dst.0, 0, 0], 2);
        }
        let pool_base = 2 * nics;
        let pools = (t.segments * t.rails) as u32;
        let up = pool_base + (src_seg * t.rails + rail) as u32;
        let down = pool_base + pools + (dst_seg * t.rails + rail) as u32;
        ([src.0, nics + dst.0, up, down], 4)
    }

    /// Progressive-filling max-min fair shares for the current flow
    /// set, visiting slots in `order` (key order). Pure: returns the
    /// per-flow rates (indexed like `order`) without touching cached
    /// state, so the capacity invariant can re-derive allocations at any
    /// quiesce point.
    fn compute_shares(&self, order: &[u32]) -> Vec<f64> {
        let n = order.len();
        let mut rates = vec![0.0f64; n];
        if n == 0 {
            return rates;
        }
        let mut frozen = vec![false; n];
        let mut remaining = self.res_capacity.clone();
        let mut counts = vec![0u32; remaining.len()];
        let flows: Vec<&FlowState> = order.iter().map(|&i| &self.slots[i as usize]).collect();
        for f in &flows {
            for &r in f.resources() {
                counts[r as usize] += 1;
            }
        }
        let mut unfrozen = n;
        while unfrozen > 0 {
            // The binding level this round: the tightest resource fair
            // share, or the tightest per-flow plane cap, whichever is
            // lower.
            let mut fair = f64::INFINITY;
            for (r, &cnt) in counts.iter().enumerate() {
                if cnt > 0 {
                    fair = fair.min(remaining[r].max(0.0) / cnt as f64);
                }
            }
            let mut cap_bound = f64::INFINITY;
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    cap_bound = cap_bound.min(f.cap_gbps);
                }
            }
            let level = fair.min(cap_bound);
            let eps = level * 1e-9 + 1e-12;
            let mut froze_any = false;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let bottlenecked = f.cap_gbps <= level + eps
                    || f.resources().iter().any(|&r| {
                        let c = counts[r as usize];
                        c > 0 && remaining[r as usize].max(0.0) / c as f64 <= level + eps
                    });
                if bottlenecked {
                    let rate = level.min(f.cap_gbps);
                    rates[i] = rate;
                    frozen[i] = true;
                    froze_any = true;
                    unfrozen -= 1;
                    for &r in f.resources() {
                        remaining[r as usize] -= rate;
                        counts[r as usize] -= 1;
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling must make progress");
            if !froze_any {
                // Defensive: freeze everything at the current level so a
                // numeric corner can never loop forever.
                for (i, f) in flows.iter().enumerate() {
                    if !frozen[i] {
                        rates[i] = level.min(f.cap_gbps);
                        frozen[i] = true;
                        unfrozen -= 1;
                    }
                }
            }
        }
        rates
    }

    /// Install freshly computed fair shares into the flow table.
    fn recompute_rates(&mut self, now: SimTime) {
        if self.order_stale {
            self.order = self.sorted_order();
            self.order_stale = false;
        }
        let rates = self.compute_shares(&self.order);
        for (&i, rate) in self.order.iter().zip(rates) {
            self.slots[i as usize].rate_gbps = rate;
        }
        self.dirty = false;
        self.last_recompute = now;
    }

    /// Recompute if needed, honouring the coalescing quantum.
    fn maybe_recompute(&mut self, now: SimTime) {
        if !self.dirty {
            return;
        }
        let q = self.fluid.recompute_quantum;
        if q == SimDuration::ZERO || now.saturating_duration_since(self.last_recompute) >= q {
            self.recompute_rates(now);
        }
    }

    /// Conservative provisional rate for a flow arriving between
    /// recomputes: its plane cap bounded by an equal split of each of
    /// its resources (counting itself).
    fn provisional_rate(&self, f: &FlowState) -> f64 {
        let mut rate = f.cap_gbps;
        for &r in f.resources() {
            let cnt = self.res_count[r as usize].max(1);
            rate = rate.min(self.res_capacity[r as usize] / cnt as f64);
        }
        rate
    }

    /// Apply the link-fault plan up to `now` (a fault makes the fair
    /// shares stale), retire flows idle past the timeout, then true up
    /// fair shares. Idle scans are rate-limited to half a timeout so the
    /// check stays O(1) amortized per send.
    pub(crate) fn advance(&mut self, links: &mut Links, now: SimTime) {
        self.dirty |= links.advance(now);
        let timeout = self.fluid.flow_idle_timeout;
        if now >= self.next_expiry_scan && !self.slots.is_empty() {
            self.next_expiry_scan = now + SimDuration::from_nanos((timeout.as_nanos() / 2).max(1));
            let mut i = 0;
            while i < self.slots.len() {
                if now.saturating_duration_since(self.slots[i].last_active) < timeout {
                    i += 1;
                } else {
                    self.retire(i);
                }
            }
        }
        self.maybe_recompute(now);
    }

    /// Retire the flow in slot `i`: return its resources and move the
    /// last slot into its place. Fair shares become stale.
    fn retire(&mut self, i: usize) {
        let f = self.slots.swap_remove(i);
        for &r in f.resources() {
            self.res_count[r as usize] -= 1;
        }
        let key = self.keys.swap_remove(i);
        self.index.remove(&key);
        if let Some(moved) = self.keys.get(i) {
            self.index.insert(*moved, i as u32);
        }
        self.order_stale = true;
        self.dirty = true;
        self.flows_retired += 1;
        count(Subsystem::Net, "fabric.fluid.flow.retired", 1);
    }

    /// Carry one packet of `bytes` for `(src, dst, flow)` along `route`
    /// (already rerouted by [`Links::reroute`]) at `now`.
    pub(crate) fn send(
        &mut self,
        links: &Links,
        rng: &mut SimRng,
        now: SimTime,
        route: &[LinkId],
        (src, dst, flow): (NicId, NicId, u64),
        bytes: u64,
    ) -> Delivery {
        count(Subsystem::Net, "fabric.fluid.sent", 1);
        if route.is_empty() {
            return links.host_local(now);
        }
        // Fault surface: the same per-hop check, with the same draws, as
        // the packet model, clocked at the send time.
        for &link_id in route {
            if let Some(reason) = links.hop_drop(link_id, now, rng) {
                return self.drop(now, link_id, reason);
            }
        }

        // Flow bookkeeping: register or refresh, then allocate.
        let config = &links.config;
        let key = (src.0, dst.0, flow);
        // The route's first hop ends at the ToR of the plane it rides.
        let plane = match links.topo.node_kind(links.topo.link_endpoints(route[0]).1) {
            NodeKind::Tor { plane, .. } => plane,
            other => unreachable!("a route's first hop ends at a ToR, not {other:?}"),
        };
        let slot = match self.index.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get() as usize;
                let f = &mut self.slots[slot];
                if f.planes_mask & (1 << plane) == 0 {
                    // A new plane widens the flow's cap: re-derive shares.
                    f.planes_mask |= 1 << plane;
                    f.cap_gbps = config.link_gbps * f.planes_mask.count_ones() as f64;
                    self.dirty = true;
                }
                slot
            }
            Entry::Vacant(e) => {
                let slot = self.slots.len();
                e.insert(slot as u32);
                let (resources, n_resources) = Self::flow_resources(&links.topo, src, dst);
                let mut f = FlowState {
                    resources,
                    n_resources,
                    cap_gbps: config.link_gbps,
                    planes_mask: 1 << plane,
                    rate_gbps: 0.0,
                    next_free: now,
                    last_active: now,
                };
                for &r in f.resources() {
                    self.res_count[r as usize] += 1;
                }
                f.rate_gbps = self.provisional_rate(&f);
                self.slots.push(f);
                self.keys.push(key);
                self.order_stale = true;
                self.flows_opened += 1;
                self.dirty = true;
                count(Subsystem::Net, "fabric.fluid.flow.opened", 1);
                slot
            }
        };
        self.maybe_recompute(now);

        let f = &mut self.slots[slot];
        f.last_active = now;
        let rate = f.rate_gbps.max(1e-6);
        let wait = f.next_free.saturating_duration_since(now);
        let backlog = (wait.as_nanos() as f64 * rate / 8.0) as u64;
        if backlog + bytes > config.buffer_bytes {
            return self.drop(now, route[0], DropReason::BufferOverflow);
        }
        let ecn = backlog > config.ecn_threshold_bytes;
        let start = if f.next_free > now { f.next_free } else { now };
        f.next_free = start + transmit_time(bytes, rate);
        let at = f.next_free + config.hop_delay.mul(route.len() as u64);
        for &l in route {
            let link = &mut self.links[l.0 as usize];
            link.tx_bytes += bytes;
            link.tx_packets += 1;
            if ecn {
                link.ecn_marks += 1;
            }
        }
        if ecn {
            count(Subsystem::Net, "ecn_mark", 1);
        }
        Delivery::Delivered { at, ecn }
    }

    fn drop(&mut self, now: SimTime, link: LinkId, reason: DropReason) -> Delivery {
        self.links[link.0 as usize].drops += 1;
        Delivery::Dropped {
            link,
            reason,
            at: now,
        }
    }

    /// Statistics snapshot for a link.
    pub(crate) fn stats(&self, link: LinkId) -> LinkStats {
        let l = &self.links[link.0 as usize];
        LinkStats {
            tx_bytes: l.tx_bytes,
            tx_packets: l.tx_packets,
            drops: l.drops,
            ecn_marks: l.ecn_marks,
            // Queues live in per-flow calendars, not per-port gauges.
            max_queue_bytes: 0,
            avg_queue_bytes: 0.0,
        }
    }

    /// Evaluate the flow-table invariants (flow conservation, the slot
    /// index and the max-min allocation's capacity bound) at a quiesce
    /// point.
    pub(crate) fn check_invariants(&self, at: SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| {
            let active = self.slots.len();
            c.check(
                "net.fluid_flow_conservation",
                self.flows_opened == self.flows_retired + active as u64,
                || {
                    format!(
                        "flows opened {} != retired {} + active {active}",
                        self.flows_opened, self.flows_retired,
                    )
                },
            );
            let misindexed = self
                .keys
                .iter()
                .enumerate()
                .find(|&(i, k)| self.index.get(k) != Some(&(i as u32)));
            c.check(
                "net.fluid_index",
                misindexed.is_none() && self.keys.len() == active && self.index.len() == active,
                || match misindexed {
                    Some((i, k)) => format!(
                        "slot {i} holds flow {k:?} but the index maps it to {:?}",
                        self.index.get(k)
                    ),
                    None => format!(
                        "{active} slots, {} keys, {} index entries",
                        self.keys.len(),
                        self.index.len()
                    ),
                },
            );
            // Re-derive allocations from scratch (pure) so the check
            // validates the allocator itself, not a possibly-stale
            // cached rate between coalesced recomputes.
            let order = self.sorted_order();
            let rates = self.compute_shares(&order);
            let mut sums = vec![0.0f64; self.res_capacity.len()];
            let mut all_positive = true;
            for (&i, &rate) in order.iter().zip(&rates) {
                all_positive &= rate > 0.0;
                for &r in self.slots[i as usize].resources() {
                    sums[r as usize] += rate;
                }
            }
            let oversubscribed = sums
                .iter()
                .zip(&self.res_capacity)
                .enumerate()
                .find(|(_, (&s, &cap))| s > cap * (1.0 + 1e-6));
            c.check(
                "net.fluid_capacity",
                oversubscribed.is_none() && all_positive,
                || match oversubscribed {
                    Some((r, (s, cap))) => format!(
                        "resource {r}: allocated {s:.3} Gbps exceeds capacity {cap:.3} Gbps \
                         over {active} active flows"
                    ),
                    None => "an active flow was allocated a zero rate".to_string(),
                },
            );
        });
    }
}

/// The flow-level fluid fabric: the flow table over the shared
/// link-fault state. See the module docs for the model.
#[derive(Debug)]
pub struct FluidFabric {
    links: Links,
    flows: FlowTable,
    rng: SimRng,
    ledger: Ledger,
    trace: Trace,
}

impl FluidFabric {
    /// A fluid fabric over `topo` with link parameters from `config`,
    /// using `rng` for loss injection (same draw structure as the
    /// packet model: one draw per lossy link per packet).
    pub fn new(topo: ClosTopology, config: NetworkConfig, fluid: FluidConfig, rng: SimRng) -> Self {
        FluidFabric {
            flows: FlowTable::new(&topo, &config, fluid),
            links: Links::new(topo, config),
            rng,
            ledger: Ledger::default(),
            trace: Trace::default(),
        }
    }

    /// `(flows opened, flows retired, flows active)` since construction.
    pub fn flow_ledger(&self) -> (u64, u64, usize) {
        self.flows.flow_ledger()
    }
}

impl Fabric for FluidFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Fluid
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
        let route = self.links.reroute(now, route, src, dst, flow, path_id);
        let key = (src, dst, flow);
        let delivery = self.flows.send(&self.links, &mut self.rng, now, &route, key, bytes);
        self.ledger.record(bytes, delivery);
        self.trace.record(now, key, path_id, bytes, delivery);
        delivery
    }

    fn advance(&mut self, now: SimTime) {
        self.flows.advance(&mut self.links, now);
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
        self.ledger.drops(reason)
    }

    fn injected(&self) -> (u64, u64) {
        self.ledger.injected
    }

    fn delivered(&self) -> (u64, u64) {
        self.ledger.delivered
    }

    fn link_stats(&self, link: LinkId, _now: SimTime) -> LinkStats {
        self.flows.stats(link)
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        uplink_imbalance_from(&self.links.topo, |l| self.flows.stats(l).tx_bytes)
    }

    fn tor_uplink_queue_stats(&self, _now: SimTime) -> (f64, u64) {
        (0.0, 0)
    }

    fn enable_trace(&mut self, limit: usize) {
        self.trace.enable(limit);
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take()
    }

    fn check_invariants(&self, at: SimTime) {
        self.ledger.check(at);
        self.flows.check_invariants(at);
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

    fn fabric() -> FluidFabric {
        FluidFabric::new(
            topo(),
            NetworkConfig::default(),
            FluidConfig {
                recompute_quantum: SimDuration::ZERO,
                ..FluidConfig::default()
            },
            SimRng::from_seed(1),
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn single_flow_gets_dual_plane_capacity() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        let d = f.send(t(0), src, dst, 1, 0, 1 << 20);
        assert!(d.arrival().is_some());
        // First packet rides one plane: capped at link rate until the
        // second plane is observed.
        assert!((f.flows.slots[0].rate_gbps - 200.0).abs() < 1e-6);
        // A packet on the other plane (path_id picks the plane) widens
        // the cap to both ports.
        for p in 1..8 {
            f.send(t(0), src, dst, 1, p, 1 << 20);
        }
        assert!((f.flows.slots[0].rate_gbps - 400.0).abs() < 1e-6);
    }

    #[test]
    fn incast_splits_ingress_capacity_fairly() {
        let mut f = fabric();
        let dst = f.topology().nic(0, 0);
        for h in 1..5 {
            let src = f.topology().nic(h, 0);
            // Two sends on different planes so every flow reaches its
            // full dual-plane cap and the ingress is the bottleneck.
            f.send(t(0), src, dst, h as u64, 0, 4096);
            f.send(t(0), src, dst, h as u64, 1, 4096);
        }
        let rates: Vec<f64> = f.flows.slots.iter().map(|fl| fl.rate_gbps).collect();
        assert_eq!(rates.len(), 4);
        for r in &rates {
            // 4 flows share 400 Gbps of dst ingress: 100 Gbps each.
            assert!((r - 100.0).abs() < 1e-6, "rates {rates:?}");
        }
    }

    #[test]
    fn backlog_marks_ecn_and_overflows_buffer() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(1, 0);
        let mut ecn = false;
        let mut dropped = false;
        for _ in 0..1200 {
            match f.send(t(0), src, dst, 9, 0, 4096) {
                Delivery::Delivered { ecn: e, .. } => ecn |= e,
                Delivery::Dropped { reason, .. } => {
                    assert_eq!(reason, DropReason::BufferOverflow);
                    dropped = true;
                }
            }
        }
        assert!(ecn, "deep virtual backlog must ECN-mark");
        assert!(dropped, "virtual backlog past the buffer must tail-drop");
        let (ip, ib) = f.injected();
        let (dp, db) = f.delivered();
        let drops: u64 = DropReason::ALL.iter().map(|&r| f.drops_by_reason(r)).sum();
        assert_eq!(ip, dp + drops);
        assert!(ib > db);
        stellar_check::strict(|| f.check_invariants(t(0)));
    }

    #[test]
    fn dead_link_blackholes_then_reroutes_after_convergence() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        let link = f.topology().route(src, dst, 3, 0)[0];
        f.set_link_state_at(t(0), link, false);
        let d = f.send(t(1), src, dst, 3, 0, 4096);
        assert!(
            matches!(d, Delivery::Dropped { reason: DropReason::LinkDown, .. }),
            "pre-convergence sends on the dead plane must blackhole: {d:?}"
        );
        // After BGP convergence the slot reroutes onto a live plane.
        let after = t(0) + NetworkConfig::default().bgp_convergence + SimDuration::from_micros(1);
        let d = f.send(after, src, dst, 3, 0, 4096);
        assert!(d.arrival().is_some(), "post-convergence send must reroute: {d:?}");
    }

    #[test]
    fn idle_flows_retire_and_ledger_balances() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        f.send(t(0), src, dst, 1, 0, 4096);
        assert_eq!(f.flow_ledger(), (1, 0, 1));
        // Far past the idle timeout the flow is gone.
        f.advance(t(10_000));
        assert_eq!(f.flow_ledger(), (1, 1, 0));
        // And invariants hold at this quiesce point.
        stellar_check::strict(|| f.check_invariants(t(10_000)));
    }

    /// `(key, rate bits)` of every active flow, in key order.
    fn rates_by_key(f: &FluidFabric) -> Vec<(FlowKey, u64)> {
        let t = &f.flows;
        let mut rates: Vec<_> =
            t.keys.iter().zip(&t.slots).map(|(&k, s)| (k, s.rate_gbps.to_bits())).collect();
        rates.sort_unstable();
        rates
    }

    #[test]
    fn shuffled_insertion_order_gives_bit_identical_rates() {
        let nics = topo().total_nics() as u64;
        let mut rng = SimRng::from_seed(17);
        let mut sends: Vec<(NicId, NicId, u64, u32)> = (0..60)
            .map(|_| {
                let src = rng.below(nics);
                let dst = (src + 1 + rng.below(nics - 1)) % nics;
                (NicId(src as u32), NicId(dst as u32), rng.below(3), rng.below(8) as u32)
            })
            .collect();
        let run = |sends: &[(NicId, NicId, u64, u32)]| {
            let mut f = fabric();
            for &(src, dst, flow, path) in sends {
                f.send(t(0), src, dst, flow, path, 4096);
            }
            // The recompute walked the slots in key order.
            let t = &f.flows;
            assert!(!t.order_stale);
            let walked: Vec<FlowKey> = t.order.iter().map(|&i| t.keys[i as usize]).collect();
            assert!(walked.windows(2).all(|w| w[0] < w[1]), "recompute order is not key order");
            rates_by_key(&f)
        };
        let forward = run(&sends);
        assert!(forward.len() > 40, "the flows must mostly be distinct");
        for round in 0..4 {
            // Fisher-Yates with the seeded stream.
            for i in (1..sends.len()).rev() {
                sends.swap(i, rng.below(i as u64 + 1) as usize);
            }
            assert_eq!(run(&sends), forward, "shuffle {round} changed a rate");
        }
    }

    #[test]
    fn allocations_never_oversubscribe_under_random_traffic() {
        stellar_check::strict(|| {
            let mut f = fabric();
            let mut rng = SimRng::from_seed(99);
            let nics = f.topology().total_nics() as u64;
            for i in 0..400u64 {
                let src = NicId(rng.below(nics) as u32);
                let mut dst = NicId(rng.below(nics) as u32);
                if dst == src {
                    dst = NicId(((dst.0 as u64 + 1) % nics) as u32);
                }
                let now = t(i / 4);
                f.send(now, src, dst, rng.below(64), rng.below(256) as u32, 4096);
                f.check_invariants(now);
            }
        });
    }
}
