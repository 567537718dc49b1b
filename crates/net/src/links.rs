//! The pieces every fabric shares: the link-fault model, the
//! conservation ledger and the bounded packet trace.
//!
//! [`Links`] is the paper's §7.2 failure model, coded once. It owns the
//! topology, the link configuration, each link's up/down, random-loss
//! and degrade-ramp state, and the installed [`FaultPlan`]. A dead link
//! blackholes traffic until the control plane (BGP) converges around it;
//! traffic then reroutes onto a live path-table slot; lossy or degrading
//! optics drop packets hop by hop. The packet calendars
//! ([`crate::Network`]) and the fluid flow table ([`crate::FluidFabric`])
//! both read it, and [`crate::HybridFabric`] keeps a single copy that its
//! two carriers share, so a fault applies once whichever model carries
//! the next packet.
//!
//! [`Ledger`] holds the injected/delivered/dropped counters behind the
//! `net.packet_conservation` and `net.byte_conservation` invariants.
//! [`Trace`] is the bounded per-send record (the fabric's pcap analogue).

use stellar_sim::{transmit_time, SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, event, Entity, Subsystem};

use crate::fault::{FaultEvent, FaultPlan};
use crate::network::{Delivery, DropReason, NetworkConfig, TraceRecord};
use crate::topology::{ClosTopology, LinkId, NicId, Route};

/// An active optical-degradation ramp on one link.
#[derive(Debug, Clone, Copy)]
struct DegradeRamp {
    t0: SimTime,
    from: f64,
    to: f64,
    over: SimDuration,
}

impl DegradeRamp {
    /// Loss probability at time `t`: linear interpolation inside the
    /// window, clamped to the endpoints outside it.
    fn loss_at(&self, t: SimTime) -> f64 {
        if t <= self.t0 {
            return self.from;
        }
        let elapsed = t.duration_since(self.t0).as_nanos();
        let window = self.over.as_nanos();
        if window == 0 || elapsed >= window {
            return self.to;
        }
        self.from + (self.to - self.from) * (elapsed as f64 / window as f64)
    }
}

/// Fault state of one directed link.
#[derive(Debug, Clone)]
struct LinkFault {
    up: bool,
    down_since: SimTime,
    loss_prob: f64,
    degrade: Option<DegradeRamp>,
}

/// The fabric's links: topology, link parameters and fault state.
#[derive(Debug)]
pub(crate) struct Links {
    pub(crate) topo: ClosTopology,
    pub(crate) config: NetworkConfig,
    faults: Vec<LinkFault>,
    /// Installed fault schedule, sorted by time; `cursor` is the first
    /// not-yet-applied event.
    plan: Vec<(SimTime, FaultEvent)>,
    cursor: usize,
    /// No link has ever gone down, turned lossy or started degrading.
    /// Sticky: it never comes back once cleared.
    pristine: bool,
}

impl Links {
    /// Every link of `topo` up and loss-free, no plan installed.
    pub(crate) fn new(topo: ClosTopology, config: NetworkConfig) -> Self {
        let faults = vec![
            LinkFault {
                up: true,
                down_since: SimTime::ZERO,
                loss_prob: 0.0,
                degrade: None,
            };
            topo.total_links()
        ];
        Links {
            topo,
            config,
            faults,
            plan: Vec::new(),
            cursor: 0,
            pristine: true,
        }
    }

    /// Replace the fault schedule; already-applied state is left as is.
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.plan = plan.into_events();
        self.cursor = 0;
    }

    /// Events of the installed plan not yet applied.
    pub(crate) fn pending(&self) -> usize {
        self.plan.len() - self.cursor
    }

    /// Apply every scheduled event with timestamp `<= now`. Returns
    /// whether any applied (link state changed).
    pub(crate) fn advance(&mut self, now: SimTime) -> bool {
        let start = self.cursor;
        while let Some(&(at, ev)) = self.plan.get(self.cursor).filter(|&&(at, _)| at <= now) {
            self.cursor += 1;
            self.apply(at, ev);
        }
        self.cursor > start
    }

    /// Apply one event at its scheduled time `at` (which may precede the
    /// packet that triggered the catch-up — the control plane's
    /// convergence clock starts at the true fault time).
    fn apply(&mut self, at: SimTime, ev: FaultEvent) {
        count(Subsystem::Net, "fault.applied", 1);
        event(at, Subsystem::Net, Entity::None, ev.kind(), 0);
        match ev {
            FaultEvent::LinkDown(l) => self.set_link_state_at(at, l, false),
            FaultEvent::LinkUp(l) => self.set_link_state_at(at, l, true),
            FaultEvent::SwitchDown(node) | FaultEvent::SwitchUp(node) => {
                let up = matches!(ev, FaultEvent::SwitchUp(_));
                for l in self.topo.links_of_node(node) {
                    self.set_link_state_at(at, l, up);
                }
            }
            FaultEvent::NicPortDown { nic, plane } | FaultEvent::NicPortUp { nic, plane } => {
                let up = matches!(ev, FaultEvent::NicPortUp { .. });
                let (to_tor, from_tor) = self.topo.nic_port_links(nic, plane as usize);
                self.set_link_state_at(at, to_tor, up);
                self.set_link_state_at(at, from_tor, up);
            }
            FaultEvent::SetLoss { link, p } => {
                self.pristine = false;
                let l = &mut self.faults[link.0 as usize];
                l.loss_prob = p;
                l.degrade = None;
            }
            FaultEvent::DegradeRamp { link, from, to, over } => {
                self.pristine = false;
                self.faults[link.0 as usize].degrade = Some(DegradeRamp {
                    t0: at,
                    from,
                    to,
                    over,
                });
            }
        }
    }

    /// Take a link down / bring it up at time `now` (a down transition
    /// starts the BGP convergence clock).
    pub(crate) fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.pristine &= up;
        let l = &mut self.faults[link.0 as usize];
        if l.up && !up {
            l.down_since = now;
        }
        l.up = up;
    }

    /// Inject flat random loss with probability `p` on `link`.
    pub(crate) fn set_loss(&mut self, link: LinkId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.pristine &= p == 0.0;
        self.faults[link.0 as usize].loss_prob = p;
    }

    /// Whether no link has ever been down, lossy or degrading. While it
    /// holds, every link is up and loss-free, so [`Links::hop_drop`],
    /// [`Links::reroute`] and [`Links::faulty`] answer without reading
    /// per-link state.
    pub(crate) fn pristine(&self) -> bool {
        self.pristine
    }

    /// Whether `link` is down, lossy, or degrading at `now`.
    pub(crate) fn faulty(&self, link: LinkId, now: SimTime) -> bool {
        if self.pristine {
            return false;
        }
        let l = &self.faults[link.0 as usize];
        !l.up || l.loss_prob > 0.0 || l.degrade.is_some_and(|r| r.loss_at(now) > 0.0)
    }

    fn route_is_up(&self, route: &[LinkId]) -> bool {
        route.iter().all(|l| self.faults[l.0 as usize].up)
    }

    /// Whether the control plane has converged around every down link on
    /// `route` by `now`.
    fn converged_around(&self, now: SimTime, route: &[LinkId]) -> bool {
        route.iter().all(|l| {
            let link = &self.faults[l.0 as usize];
            link.up
                || now.saturating_duration_since(link.down_since) >= self.config.bgp_convergence
        })
    }

    /// The route a packet on `(src, dst, flow, path_id)` actually takes
    /// at `now`, given `route`, the slot's table entry. Once BGP has
    /// converged around a failed link, the routing tables steer the slot
    /// to a live alternative (successive path-table slots are probed, as
    /// route withdrawal re-hashes onto the surviving next hops); until
    /// then the slot keeps its dead route and blackholes.
    pub(crate) fn reroute(
        &self,
        now: SimTime,
        route: Route,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
    ) -> Route {
        if self.pristine || self.route_is_up(&route) || !self.converged_around(now, &route) {
            return route;
        }
        let slots = (self.topo.config().planes * self.topo.config().aggs_per_plane) as u32;
        (1..slots)
            .map(|bump| self.topo.route(src, dst, flow, path_id.wrapping_add(bump)))
            .find(|alt| self.route_is_up(alt))
            .unwrap_or(route)
    }

    /// The fault check a packet meets on `link` at hop time `t`: a dead
    /// link drops it, then degrading optics draw (time-dependent), then
    /// flat random loss draws. Separate draws keep the two loss kinds
    /// distinguishable in the [`DropReason`] taxonomy and leave the RNG
    /// stream of loss-free links untouched.
    pub(crate) fn hop_drop(&self, link: LinkId, t: SimTime, rng: &mut SimRng) -> Option<DropReason> {
        if self.pristine {
            return None;
        }
        let l = &self.faults[link.0 as usize];
        if !l.up {
            return Some(DropReason::LinkDown);
        }
        if let Some(ramp) = l.degrade {
            let p = ramp.loss_at(t);
            if p > 0.0 && rng.chance(p) {
                return Some(DropReason::DegradedLink);
            }
        }
        if l.loss_prob > 0.0 && rng.chance(l.loss_prob) {
            return Some(DropReason::RandomLoss);
        }
        None
    }

    /// Delivery of a host-local transfer (empty route): PCIe/NVLink
    /// latency only.
    pub(crate) fn host_local(&self, now: SimTime) -> Delivery {
        Delivery::Delivered {
            at: now + self.config.hop_delay,
            ecn: false,
        }
    }

    /// An unqueued reverse-path delivery estimate for tiny control
    /// packets (ACK/NACK): hop delays plus serialization, no queueing.
    ///
    /// Real RNICs prioritize ACKs (CNP-class traffic); modelling them
    /// outside the data-queue calendar keeps ACK-clocking stable and
    /// halves event volume.
    pub(crate) fn control_rtt(&self, src: NicId, dst: NicId) -> SimDuration {
        let hops = if src == dst {
            1
        } else {
            self.topo.route(src, dst, 0, 0).len() as u64
        };
        self.config.hop_delay.mul(hops) + transmit_time(64, self.config.link_gbps).mul(hops)
    }
}

/// Conservation ledger of one carrier: every packet offered, delivered
/// and dropped (by reason), in packets and bytes.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// `(packets, bytes)` ever offered.
    pub(crate) injected: (u64, u64),
    /// `(packets, bytes)` that reached their destination NIC.
    pub(crate) delivered: (u64, u64),
    /// Drop counters, indexed by [`DropReason::index`].
    drops: [u64; 4],
    dropped_bytes: u64,
}

impl Ledger {
    /// Account one send of `bytes` with outcome `delivery`. The hub
    /// mirrors the per-reason drop counters at this single site, so hub
    /// totals equal [`Ledger::drops`] exactly (no double-counting).
    pub(crate) fn record(&mut self, bytes: u64, delivery: Delivery) {
        self.injected.0 += 1;
        self.injected.1 += bytes;
        match delivery {
            Delivery::Delivered { .. } => {
                self.delivered.0 += 1;
                self.delivered.1 += bytes;
            }
            Delivery::Dropped { link, reason, at } => {
                self.drops[reason.index()] += 1;
                self.dropped_bytes += bytes;
                count(Subsystem::Net, reason.counter(), 1);
                event(at, Subsystem::Net, Entity::Link(link.0), reason.name(), bytes);
            }
        }
    }

    /// Drops attributed to `reason`.
    pub(crate) fn drops(&self, reason: DropReason) -> u64 {
        self.drops[reason.index()]
    }

    /// Evaluate the conservation invariants at a quiesce point (`at` is
    /// the sim time stamped on any violation). One atomic load and a
    /// branch when no `stellar_check` scope is open.
    pub(crate) fn check(&self, at: SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| {
            let dropped: u64 = self.drops.iter().sum();
            c.check(
                "net.packet_conservation",
                self.injected.0 == self.delivered.0 + dropped,
                || {
                    format!(
                        "injected {} != delivered {} + drops {} ({:?} by reason)",
                        self.injected.0, self.delivered.0, dropped, self.drops
                    )
                },
            );
            c.check(
                "net.byte_conservation",
                self.injected.1 == self.delivered.1 + self.dropped_bytes,
                || {
                    format!(
                        "injected {} B != delivered {} B + dropped {} B",
                        self.injected.1, self.delivered.1, self.dropped_bytes
                    )
                },
            );
        });
    }
}

/// Bounded packet trace, off (limit 0) by default. The bound keeps long
/// runs from ballooning: the trace silently stops recording when full.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    records: Vec<TraceRecord>,
    limit: usize,
}

impl Trace {
    /// Start recording up to `limit` records.
    pub(crate) fn enable(&mut self, limit: usize) {
        *self = Trace {
            records: Vec::new(),
            limit,
        };
    }

    /// Take the recorded trace, disabling tracing.
    pub(crate) fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(self).records
    }

    /// Record one send of `bytes` on `(src, dst, flow)` at `sent` if
    /// tracing is on and the bound is not reached.
    pub(crate) fn record(
        &mut self,
        sent: SimTime,
        (src, dst, flow): (NicId, NicId, u64),
        path_id: u32,
        bytes: u64,
        delivery: Delivery,
    ) {
        if self.records.len() < self.limit {
            self.records.push(TraceRecord {
                sent,
                src,
                dst,
                flow,
                path_id,
                bytes,
                delivery,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_ramp_interpolates_then_holds() {
        let ramp = DegradeRamp {
            t0: SimTime::from_nanos(1000),
            from: 0.1,
            to: 0.5,
            over: SimDuration::from_nanos(1000),
        };
        assert_eq!(ramp.loss_at(SimTime::ZERO), 0.1);
        assert!((ramp.loss_at(SimTime::from_nanos(1500)) - 0.3).abs() < 1e-12);
        assert_eq!(ramp.loss_at(SimTime::from_nanos(5000)), 0.5);
    }

    #[test]
    fn degrade_event_installs_its_ramp_on_the_link() {
        let topo = ClosTopology::build(crate::topology::ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        });
        let link = topo.route(topo.nic(0, 0), topo.nic(4, 0), 1, 0)[1];
        let mut links = Links::new(topo, NetworkConfig::default());
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        let over = SimDuration::from_micros(1000);
        links.install(FaultPlan::new(2).degrade(t(0), link, 0.0, 0.5, over));
        assert!(links.advance(t(0)));
        let ramp = links.faults[link.0 as usize].degrade.expect("ramp installed");
        assert!((ramp.loss_at(t(2000)) - 0.5).abs() < 1e-9);
        assert!(ramp.loss_at(t(500)) < 0.3);
    }
}
