//! Fabric send microbenchmarks: `HybridFabric::send` and
//! `FluidFabric::send` against a 16,384-flow working set.
//!
//! The traffic is the DP all-reduce shape of a 16,384-rank job: 1,024
//! rail-aligned rings of 16 consecutive hosts on an 8 × 1024-host,
//! 2-rail, dual-plane Clos, one flow per NIC to its ring successor, one
//! 128 KiB packet per send, sprayed over 128 paths. Set-up opens every
//! flow; each timed iteration then sends once on every flow (16,384
//! sends), advancing the clock 1 ns per send so no flow goes idle. Divide
//! a bench's nanoseconds by 16,384 for ns/send.
//!
//! Three setups:
//!
//! * `fault_free` — no link has ever failed and the hybrid's packet
//!   carrier is idle: every send takes the fluid path with no per-link
//!   checks.
//! * `down_link` — the same, with one ToR uplink down before the run. No
//!   ring route crosses it (rings stay inside a segment), so the traffic
//!   is unchanged, but the fabric is no longer fault-free and every send
//!   runs the per-hop fault checks.
//! * `busy_carrier` (hybrid only) — fault-free, but an incast keeps the
//!   packet carrier's queues busy for the whole pass, so the hybrid walks
//!   every route's packet-side backlogs. The fluid fabric has no packet
//!   carrier.
//!
//! Run with `cargo bench -p stellar-net --bench fabric_send`; filter by
//! substring (e.g. `-- hybrid`). `STELLAR_BENCH_ITERS` overrides the
//! iteration count. EXPERIMENTS.md records reference numbers.

use stellar_net::fixture::{fluid_fabric, hybrid_fabric};
use stellar_net::{ClosConfig, Fabric, FluidConfig, HybridConfig, NetworkConfig, NicId};
use stellar_sim::bench_timer::Harness;
use stellar_sim::{SimDuration, SimRng, SimTime};

const RANKS: usize = 16;
const PATHS: u32 = 128;
const BYTES: u64 = 128 * 1024;

#[derive(Clone, Copy, PartialEq)]
enum Setup {
    FaultFree,
    DownLink,
    BusyCarrier,
}

fn topology() -> ClosConfig {
    ClosConfig {
        segments: 8,
        hosts_per_segment: 1024,
        rails: 2,
        planes: 2,
        aggs_per_plane: 60,
    }
}

/// Every ring edge `(src, dst)`: rings of `RANKS` consecutive hosts on
/// one rail, each rank sending to its successor.
fn ring_flows<F: Fabric>(fabric: &F) -> Vec<(NicId, NicId)> {
    let t = topology();
    let topo = fabric.topology();
    let hosts = t.segments * t.hosts_per_segment;
    let mut flows = Vec::with_capacity(hosts * t.rails);
    for rail in 0..t.rails {
        for base in (0..hosts).step_by(RANKS) {
            for k in 0..RANKS {
                let next = base + (k + 1) % RANKS;
                flows.push((topo.nic(base + k, rail), topo.nic(next, rail)));
            }
        }
    }
    flows
}

/// A timed pass over a fabric built and warmed for `setup`: one send on
/// every ring flow per call.
fn pass<F: Fabric>(mut fabric: F, setup: Setup) -> impl FnMut() {
    let flows = ring_flows(&fabric);
    let topo = fabric.topology().clone();
    if setup == Setup::DownLink {
        fabric.set_link_state_at(SimTime::ZERO, topo.tor_uplinks()[0], false);
    }
    // Incast into NIC 0 from three NICs of other rings (extra flow ids):
    // past the hybrid's threshold, so one of them rides the packet
    // carrier; a 1 MiB packet keeps its ports busy well past a pass.
    let incast: Vec<NicId> = [100, 200, 300].iter().map(|&h| topo.nic(h, 0)).collect();
    let dst = topo.nic(0, 0);
    let mut now = SimTime::ZERO;
    let mut round = 0u32;
    let mut one_pass = move || {
        if setup == Setup::BusyCarrier {
            for &src in &incast {
                fabric.send(now, src, dst, 1, round, 1 << 20);
            }
        }
        for (i, &(src, dst)) in flows.iter().enumerate() {
            now = now + SimDuration::from_nanos(1);
            let path = (round + i as u32) % PATHS;
            std::hint::black_box(fabric.send(now, src, dst, 0, path, BYTES));
        }
        round += 1;
    };
    // Open every flow and see both planes before timing.
    one_pass();
    one_pass();
    one_pass
}

fn main() {
    let h = Harness::from_args();
    let rng = SimRng::from_seed(1);
    let setups = [
        ("fault_free", Setup::FaultFree),
        ("down_link", Setup::DownLink),
        ("busy_carrier", Setup::BusyCarrier),
    ];
    for (name, setup) in setups {
        let label = format!("fabric_send/hybrid/{name}/16384_flows");
        if h.matches(&label) {
            let fabric = hybrid_fabric(topology(), NetworkConfig::default(), HybridConfig::default(), &rng);
            h.bench(&label, pass(fabric, setup));
        }
        let label = format!("fabric_send/fluid/{name}/16384_flows");
        if setup != Setup::BusyCarrier && h.matches(&label) {
            let fabric = fluid_fabric(topology(), NetworkConfig::default(), FluidConfig::default(), &rng);
            h.bench(&label, pass(fabric, setup));
        }
    }
}
