//! Seed-pinned fingerprints of the fluid and hybrid fabrics.
//!
//! Seeded random traffic — 1:1 flows, an incast, idle gaps past the
//! flow-retirement timeout, a fault plan (link down, flat loss, a degrade
//! ramp) and manual `set_loss`/`set_link_state_at` calls mid-run — drives
//! a `FluidFabric` and a `HybridFabric`. Every `Delivery`, the ledgers,
//! the per-link counters, the hybrid's send split and the flow ledger fold
//! into one FNV-1a digest, asserted against a recorded value.
//!
//! The digest pins the fabrics' exact outputs: arrival times carry the
//! fluid fair-share rates bit for bit, so a change to the flow table's
//! recompute order, its retirement, the escalation rules or the RNG draw
//! structure shows up here even when every invariant still holds.
//! Re-record a value only for an intentional behaviour change.

use stellar_net::fixture::{fluid_fabric, hybrid_fabric};
use stellar_net::{
    ClosConfig, Delivery, DropReason, Fabric, FaultEvent, FaultPlan, FluidConfig, HybridConfig,
    LinkId, NetworkConfig,
};
use stellar_sim::{SimDuration, SimRng, SimTime};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn delivery(&mut self, d: Delivery) {
        match d {
            Delivery::Delivered { at, ecn } => {
                self.word(1);
                self.word(at.as_nanos());
                self.word(ecn as u64);
            }
            Delivery::Dropped { link, reason, at } => {
                self.word(2);
                self.word(link.0 as u64);
                let r = DropReason::ALL.iter().position(|&x| x == reason).unwrap();
                self.word(r as u64);
                self.word(at.as_nanos());
            }
        }
    }
}

fn topology() -> ClosConfig {
    ClosConfig {
        segments: 2,
        hosts_per_segment: 8,
        rails: 2,
        planes: 2,
        aggs_per_plane: 4,
    }
}

/// Default links, but BGP converges within the run, so the converged
/// reroute is exercised too.
fn net_config() -> NetworkConfig {
    NetworkConfig {
        bgp_convergence: SimDuration::from_micros(50),
        ..NetworkConfig::default()
    }
}

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1000)
}

/// The faults a run injects. Each kind also runs alone, so every way a
/// fabric can first leave its fault-free state is pinned separately.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// Plan: a link down at 900 µs, back up at 1400 µs.
    PlanDown,
    /// Plan: 5% flat loss on a link from 1000 µs.
    PlanLoss,
    /// Plan: a 0 → 20% degrade ramp from 1100 µs.
    PlanDegrade,
    /// `set_loss` 3% on a link, cleared 200 sends later.
    ManualLoss,
    /// `set_link_state_at` down, up again 600 sends later.
    ManualDown,
}

const ALL_FAULTS: [Fault; 5] = [
    Fault::PlanDown,
    Fault::PlanLoss,
    Fault::PlanDegrade,
    Fault::ManualLoss,
    Fault::ManualDown,
];

/// Drive `fabric` with the seeded workload under `faults` and fold
/// everything it reports into `h`.
fn drive<F: Fabric>(fabric: &mut F, seed: u64, faults: &[Fault], h: &mut Fnv) {
    let topo = fabric.topology().clone();
    let t = topology();
    let (hosts, rails) = ((t.segments * t.hosts_per_segment) as u64, t.rails as u64);
    let hot = topo.nic(0, 0);
    // Fault targets: links on cross-segment routes out of the hot rail.
    let r1 = topo.route(topo.nic(1, 0), topo.nic(9, 0), 1, 0);
    let r2 = topo.route(topo.nic(2, 0), topo.nic(10, 0), 2, 3);
    let r3 = topo.route(topo.nic(3, 1), topo.nic(11, 1), 3, 5);
    let mut plan = FaultPlan::new(seed);
    if faults.contains(&Fault::PlanDown) {
        plan = plan.link_down(us(900), r1[1]).link_up(us(1400), r1[1]);
    }
    if faults.contains(&Fault::PlanLoss) {
        plan = plan.at(us(1000), FaultEvent::SetLoss { link: r2[2], p: 0.05 });
    }
    if faults.contains(&Fault::PlanDegrade) {
        plan = plan.degrade(us(1100), r3[1], 0.0, 0.2, SimDuration::from_micros(100));
    }
    fabric.install_fault_plan(plan);
    let manual_loss = faults.contains(&Fault::ManualLoss);
    let manual_down = faults.contains(&Fault::ManualDown);

    let mut rng = SimRng::from_seed(seed);
    let mut now = SimTime::ZERO;
    for i in 0..2000u32 {
        // Idle gaps past the 200 µs retirement timeout.
        if i == 500 || i == 1500 {
            now = now + SimDuration::from_micros(450);
        }
        now = now + SimDuration::from_nanos(rng.below(1500));
        // Manual mutations on top of the plan.
        match i {
            700 if manual_loss => fabric.set_loss(r3[2], 0.03),
            900 if manual_loss => fabric.set_loss(r3[2], 0.0),
            1200 if manual_down => fabric.set_link_state_at(now, r2[1], false),
            1800 if manual_down => fabric.set_link_state_at(now, r2[1], true),
            _ => {}
        }
        // Traffic stays on one rail (cross-rail hops are host-internal).
        let (src, dst, flow) = if rng.below(10) < 3 {
            // Incast into the hot NIC from a handful of sources.
            let src = topo.nic(1 + rng.below(hosts - 1) as usize, 0);
            (src, hot, rng.below(6))
        } else {
            // 1:1 cross-segment pairs, two flows each: below the incast
            // threshold, so the hybrid keeps them fluid.
            let rail = rng.below(rails) as usize;
            let a = rng.below(hosts);
            let b = (a + hosts / 2) % hosts;
            (topo.nic(a as usize, rail), topo.nic(b as usize, rail), 100 + rng.below(2))
        };
        // Mostly single packets; now and then a burst deep enough to
        // ECN-mark, and rarely one past the 2 MB buffer.
        let burst = match rng.below(50) {
            0 => 80,
            1..=5 => 8,
            _ => 1,
        };
        let bytes = 1024 + 1024 * rng.below(32);
        for k in 0..burst {
            let path = rng.below(64) as u32 + k;
            let d = fabric.send(now, src, dst, flow, path, bytes);
            h.delivery(d);
        }
    }
    fabric.advance(now + SimDuration::from_micros(1000));

    let (ip, ib) = fabric.injected();
    let (dp, db) = fabric.delivered();
    for w in [ip, ib, dp, db] {
        h.word(w);
    }
    for r in DropReason::ALL {
        h.word(fabric.drops_by_reason(r));
    }
    for l in 0..topo.total_links() as u32 {
        let s = fabric.link_stats(LinkId(l), now);
        for w in [s.tx_bytes, s.tx_packets, s.drops, s.ecn_marks, s.max_queue_bytes] {
            h.word(w);
        }
        h.word(s.avg_queue_bytes.to_bits());
    }
    h.word(fabric.tor_uplink_imbalance().to_bits());
    let (avg, max) = fabric.tor_uplink_queue_stats(now);
    h.word(avg.to_bits());
    h.word(max);
    stellar_check::strict(|| fabric.check_invariants(now));
}

fn fluid_digest(seed: u64, fluid: FluidConfig, faults: &[Fault]) -> u64 {
    let rng = SimRng::from_seed(seed);
    let mut f = fluid_fabric(topology(), net_config(), fluid, &rng);
    let mut h = Fnv::new();
    drive(&mut f, seed, faults, &mut h);
    let (opened, retired, active) = f.flow_ledger();
    assert!(retired > 0, "the idle gaps must retire flows");
    for w in [opened, retired, active as u64] {
        h.word(w);
    }
    h.0
}

fn hybrid_digest(seed: u64, faults: &[Fault]) -> u64 {
    let rng = SimRng::from_seed(seed);
    let mut f = hybrid_fabric(topology(), net_config(), HybridConfig::default(), &rng);
    let mut h = Fnv::new();
    drive(&mut f, seed, faults, &mut h);
    let (pkt, fluid, esc) = f.send_split();
    assert!(pkt > 0 && fluid > 0 && esc > 0, "both carriers must work: {pkt}/{fluid}/{esc}");
    let (opened, retired, active) = f.fluid().flow_ledger();
    for w in [pkt, fluid, esc, opened, retired, active as u64] {
        h.word(w);
    }
    h.0
}

#[test]
fn fluid_fabric_fingerprint_is_pinned() {
    assert_eq!(fluid_digest(11, FluidConfig::default(), &ALL_FAULTS), 13_734_456_993_600_948_399);
}

#[test]
fn fluid_fabric_fingerprint_with_eager_recompute_is_pinned() {
    let eager = FluidConfig {
        recompute_quantum: SimDuration::ZERO,
        ..FluidConfig::default()
    };
    assert_eq!(fluid_digest(12, eager, &ALL_FAULTS), 11_863_159_827_491_134_739);
}

#[test]
fn hybrid_fabric_fingerprint_is_pinned() {
    assert_eq!(hybrid_digest(13, &ALL_FAULTS), 9_276_540_832_309_202_041);
}

#[test]
fn hybrid_fabric_fingerprint_is_pinned_at_a_second_seed() {
    assert_eq!(hybrid_digest(7_340_033, &ALL_FAULTS), 9_098_639_443_521_596_411);
}

#[test]
fn each_fault_kind_alone_is_pinned() {
    let got: Vec<(u64, u64)> = ALL_FAULTS
        .iter()
        .map(|&f| (fluid_digest(21, FluidConfig::default(), &[f]), hybrid_digest(21, &[f])))
        .collect();
    // (fluid, hybrid) per kind, in `ALL_FAULTS` order.
    let pinned = [
        (5_645_645_916_920_668_007, 14_231_268_688_317_886_668), // PlanDown
        (9_352_550_908_587_135_573, 5_592_155_076_005_618_287), // PlanLoss
        (3_703_346_178_481_040_077, 9_293_547_722_704_482_623), // PlanDegrade
        (7_600_965_895_706_220_575, 8_569_029_253_550_936_461), // ManualLoss
        (10_605_082_478_744_571_450, 4_495_098_638_453_409_314), // ManualDown
    ];
    assert_eq!(got, pinned);
}
