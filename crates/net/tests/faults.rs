//! Fault application is the same on every fabric: one plan covering
//! every [`FaultEvent`] kind applies fully, once, with one telemetry
//! count per event, on the packet, fluid and hybrid fabrics alike; and a
//! manual link mutation on the hybrid is seen by its escalation check.

use stellar_net::fixture::{fluid_fabric, hybrid_fabric, packet_fabric};
use stellar_net::{
    ClosConfig, Fabric, FaultEvent, FaultPlan, FluidConfig, HybridConfig, HybridFabric, NetworkConfig,
    NodeKind,
};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_telemetry::{capture, Subsystem, TelemetryConfig};

fn topology() -> ClosConfig {
    ClosConfig {
        segments: 2,
        hosts_per_segment: 4,
        rails: 1,
        planes: 2,
        aggs_per_plane: 4,
    }
}

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1000)
}

/// A plan with one event of every kind, on links of `fabric`'s topology.
fn every_kind<F: Fabric>(fabric: &F) -> FaultPlan {
    let topo = fabric.topology();
    let (src, dst) = (topo.nic(0, 0), topo.nic(4, 0));
    let route = topo.route(src, dst, 1, 0);
    let (_, agg) = topo.link_endpoints(route[1]);
    assert!(matches!(topo.node_kind(agg), NodeKind::Agg { .. }));
    let plan = FaultPlan::new(3)
        .link_down(us(10), route[1])
        .link_up(us(20), route[1])
        .switch_down(us(30), agg)
        .at(us(40), FaultEvent::SwitchUp(agg))
        .nic_port_down(us(50), src, 1)
        .at(us(60), FaultEvent::NicPortUp { nic: src, plane: 1 })
        .at(us(70), FaultEvent::SetLoss { link: route[2], p: 0.1 })
        .degrade(us(80), route[3], 0.0, 0.2, SimDuration::from_micros(50));
    let kinds: std::collections::BTreeSet<&str> =
        plan.clone().into_events().iter().map(|(_, ev)| ev.kind()).collect();
    assert_eq!(kinds.len(), 8, "the plan must cover every event kind");
    plan
}

/// Install the plan, drive traffic through it, and return how many
/// `fault.applied` counts the telemetry hub saw.
fn applied_count<F: Fabric>(mut fabric: F) -> u64 {
    let plan = every_kind(&fabric);
    let events = plan.len();
    let topo = fabric.topology().clone();
    let ((), tel) = capture(TelemetryConfig::default(), || {
        fabric.install_fault_plan(plan);
        assert_eq!(fabric.pending_fault_events(), events);
        for i in 0..20 {
            fabric.send(us(i * 10), topo.nic(1, 0), topo.nic(5, 0), 2, i as u32, 4096);
        }
        fabric.advance(us(1000));
        assert_eq!(fabric.pending_fault_events(), 0);
    });
    let applied = tel.hub.get(Subsystem::Net, "fault.applied");
    assert_eq!(applied, events as u64);
    applied
}

#[test]
fn every_fabric_applies_each_plan_event_exactly_once() {
    let rng = SimRng::from_seed(9);
    let net = NetworkConfig::default();
    let packet = applied_count(packet_fabric(topology(), net.clone(), &rng));
    let fluid = applied_count(fluid_fabric(
        topology(),
        net.clone(),
        FluidConfig::default(),
        &rng,
    ));
    let hybrid = applied_count(hybrid_fabric(topology(), net, HybridConfig::default(), &rng));
    assert_eq!((packet, fluid, hybrid), (8, 8, 8));
}

fn hybrid() -> HybridFabric {
    hybrid_fabric(
        topology(),
        NetworkConfig::default(),
        HybridConfig::default(),
        &SimRng::from_seed(4),
    )
}

/// Send one packet of a fresh flow over `route[1]` of flow 1 / path 0
/// and report whether the hybrid escalated it to the packet model.
fn new_flow_escalates(f: &mut HybridFabric, now: SimTime) -> bool {
    let topo = f.topology();
    let (src, dst) = (topo.nic(0, 0), topo.nic(4, 0));
    let (_, _, before) = f.send_split();
    f.send(now, src, dst, 1, 0, 4096);
    f.send_split().2 == before + 1
}

#[test]
fn hybrid_escalates_new_flows_over_a_manually_mutated_link() {
    let mut healthy = hybrid();
    assert!(!new_flow_escalates(&mut healthy, us(1)));

    let mut lossy = hybrid();
    let topo = lossy.topology();
    let link = topo.route(topo.nic(0, 0), topo.nic(4, 0), 1, 0)[1];
    lossy.set_loss(link, 0.5);
    assert!(new_flow_escalates(&mut lossy, us(1)), "a lossy link must escalate");

    let mut dead = hybrid();
    dead.set_link_state_at(us(0), link, false);
    assert!(new_flow_escalates(&mut dead, us(1)), "a dead link must escalate");
}
