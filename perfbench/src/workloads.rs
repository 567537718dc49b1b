//! The three benchmark workloads, built from the public API of
//! `stellar-net`, `stellar-transport` and `stellar-workloads`.
//!
//! Each runner builds its workload from the seed, times set-up and the
//! event loop, then checks the simulated result and condenses it into
//! an [`Outcome`]. The same code runs bare and traced: the [`Probe`]
//! decides whether the fabric and the app are wrapped.

use std::time::Instant;

use stellar_net::fixture::{hybrid_fabric, packet_fabric};
use stellar_net::{ClosConfig, DropReason, Fabric, FaultPlan, HybridConfig, NetworkConfig, NicId};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{
    App, ConnId, ConnStats, FatalError, MsgId, PathAlgo, RecoveryPolicy, ScoreboardPolicy,
    TransportConfig, TransportSim,
};
use stellar_workloads::{AllReduceJob, AllReduceRunner};

use crate::probe::{Ledgers, Probe, Recorder, SpanName};

/// Run the event loop until the queue drains.
const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 permutation on the packet-level `Network`, open loop.
    PacketPermutation,
    /// DP all-reduce of a 16,384-rank job on `HybridFabric`, closed loop.
    HybridLlm16k,
    /// Ring fleet through an 8 ms outage with recovery, closed loop.
    RecoveryFleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PacketPermutation,
        Workload::HybridLlm16k,
        Workload::RecoveryFleet,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PacketPermutation => "packet_permutation",
            Workload::HybridLlm16k => "hybrid_llm_16k",
            Workload::RecoveryFleet => "recovery_fleet",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a miniature that runs in seconds
/// in a debug build (tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Same shapes, a few hundred ranks at most.
    Mini,
}

/// What one run of a workload measured and produced.
#[derive(Debug)]
pub struct Outcome {
    /// Host seconds from the workload's start to the first `run`.
    pub setup_s: f64,
    /// Host seconds inside `TransportSim::run`.
    pub run_s: f64,
    /// Fixture constructor time (topology build plus fabric state).
    pub setup_fabric_s: f64,
    /// Connection set-up time.
    pub setup_conns_s: f64,
    /// VmRSS when set-up ended, MB (0 where `/proc` is unavailable).
    pub setup_rss_mb: f64,
    /// Connections opened.
    pub connections: u64,
    /// Events the transport scheduled.
    pub events: u64,
    /// Deepest event-queue backlog.
    pub queue_peak: u64,
    /// Field-wise sum of every connection's statistics.
    pub stats: ConnStats,
    /// `(packets, bytes)` offered to the fabric.
    pub injected: (u64, u64),
    /// `(packets, bytes)` the fabric delivered.
    pub delivered: (u64, u64),
    /// Fabric drops, in [`DropReason::ALL`] order.
    pub drops: [u64; 4],
    /// `(packet sends, fluid sends, escalations)`.
    pub split: (u64, u64, u64),
    /// `(opened, retired, active)` fluid flows.
    pub fluid_flows: (u64, u64, usize),
    /// Simulated time when the run ended, ns.
    pub final_ns: u64,
    /// Fig. 9's ToR-uplink figures at the end: mean time-averaged
    /// backlog (f64 bits), max backlog in bytes, and imbalance (f64 bits).
    pub uplinks: [u64; 3],
    /// Per ring, per iteration `(start, finish)` in simulated ns.
    pub iterations: Vec<Vec<(u64, u64)>>,
    /// Terminal connection errors the app saw.
    pub terminal_errors: u64,
    /// Checks that failed, by description; empty when correct.
    pub failures: Vec<String>,
    /// `sim_digest`: FNV-1a over the simulated result (see
    /// `compute_digest`). Equal across repeated, traced and untraced runs.
    pub digest: u64,
    /// Wall-clock ledger of a traced run.
    pub trace: Option<Recorder>,
    /// Mean `ClosTopology::route` cost over the sampled send tuples, ns
    /// (traced runs only).
    pub route_ns: f64,
}

impl Outcome {
    /// FNV-1a over final sim time, the ToR-uplink queue figures,
    /// `total_stats()`, the fabric ledgers, the send split, the fluid flow
    /// ledger and every ring iteration's start and finish.
    fn compute_digest(&self) -> u64 {
        let s = &self.stats;
        let mut words = vec![
            self.final_ns,
            self.uplinks[0],
            self.uplinks[1],
            self.uplinks[2],
            s.sent_packets,
            s.retransmits,
            s.rto_events,
            s.delivered_packets,
            s.delivered_bytes,
            s.completed_messages,
            s.ecn_acks,
            s.acks,
            s.rnr_naks,
            s.recoveries,
            s.replayed_packets,
            self.injected.0,
            self.injected.1,
            self.delivered.0,
            self.delivered.1,
            self.split.0,
            self.split.1,
            self.split.2,
            self.fluid_flows.0,
            self.fluid_flows.1,
            self.fluid_flows.2 as u64,
            self.terminal_errors,
        ];
        words.extend(self.drops);
        for ring in &self.iterations {
            words.push(ring.len() as u64);
            words.extend(ring.iter().flat_map(|&(a, b)| [a, b]));
        }
        fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a workload's configuration at `size` (seed excluded).
pub fn config_digest(workload: Workload, size: Size) -> u64 {
    let text = match workload {
        Workload::PacketPermutation => format!("{:?}", PermutationShape::new(size)),
        Workload::HybridLlm16k => format!("{:?}", LlmShape::new(size)),
        Workload::RecoveryFleet => format!("{:?}", FleetShape::new(size)),
    };
    fnv1a(format!("{}/{text}", workload.name()).into_bytes())
}

/// Run `workload` once at `size` from `seed`, bare or traced per `probe`.
pub fn run<P: Probe>(workload: Workload, size: Size, seed: u64, probe: &mut P) -> Outcome {
    match workload {
        Workload::PacketPermutation => packet_permutation(size, seed, probe),
        Workload::HybridLlm16k => hybrid_llm_16k(size, seed, probe),
        Workload::RecoveryFleet => recovery_fleet(size, seed, probe),
    }
}

/// Set-up wall-clock marks of one run.
struct SetupClock {
    start: Instant,
    fabric_built: Instant,
    conns_open: Instant,
}

impl SetupClock {
    fn start() -> Self {
        let now = Instant::now();
        SetupClock {
            start: now,
            fabric_built: now,
            conns_open: now,
        }
    }
}

/// Time the event loop, then gather ledgers, run the checks shared by
/// every workload and compute the digest. `finish` adds the workload's
/// own results and checks before the digest is taken.
fn run_and_collect<P: Probe, F: Ledgers, A: App<P::Fab<F>>>(
    mut sim: TransportSim<P::Fab<F>>,
    app: &mut A,
    clock: SetupClock,
    finish: impl FnOnce(&A, &mut Outcome),
) -> Outcome {
    let setup_s = clock.start.elapsed().as_secs_f64();
    let setup_rss_mb = proc_status_mb("VmRSS:");
    let run_start = Instant::now();
    P::run(&mut sim, app, FOREVER);
    let run_s = run_start.elapsed().as_secs_f64();

    let net = sim.network();
    let mut drops = [0u64; 4];
    for (slot, reason) in drops.iter_mut().zip(DropReason::ALL) {
        *slot = net.drops_by_reason(reason);
    }
    let mut out = Outcome {
        setup_s,
        run_s,
        setup_fabric_s: clock.fabric_built.duration_since(clock.start).as_secs_f64(),
        setup_conns_s: clock
            .conns_open
            .duration_since(clock.fabric_built)
            .as_secs_f64(),
        setup_rss_mb,
        connections: u64::from(sim.connection_count()),
        events: sim.events_scheduled(),
        queue_peak: sim.queue_peak_len() as u64,
        stats: sim.total_stats(),
        injected: net.injected(),
        delivered: net.delivered(),
        drops,
        split: net.send_split(),
        fluid_flows: net.fluid_flows(),
        final_ns: sim.now().as_nanos(),
        uplinks: {
            let (mean, max) = net.tor_uplink_queue_stats(sim.now());
            [mean.to_bits(), max, net.tor_uplink_imbalance().to_bits()]
        },
        iterations: Vec::new(),
        terminal_errors: 0,
        failures: Vec::new(),
        digest: 0,
        trace: None,
        route_ns: 0.0,
    };
    finish(app, &mut out);

    let open = sim.failed_connections() + sim.recovering_count();
    if open != 0 {
        out.failures
            .push(format!("{open} connections failed or still recovering"));
    }
    let dropped: u64 = out.drops.iter().sum();
    if out.injected.0 != out.delivered.0 + dropped {
        out.failures.push(format!(
            "packet ledger: injected {} != delivered {} + dropped {dropped}",
            out.injected.0, out.delivered.0
        ));
    }
    // The byte ledger (and the transport's own conservation laws) are
    // checked by the library's invariant engine at this quiesce point.
    let ((), report) = stellar_check::capture(|| sim.check_invariants(sim.now()));
    if !report.is_clean() {
        out.failures
            .push(format!("invariants: {}", report.render().trim()));
    }
    out.digest = out.compute_digest();

    if let Some(rec) = P::take_trace(&mut sim) {
        out.route_ns = time_routes(sim.network().topology(), &rec.route_sample);
        out.trace = Some(rec);
        let trace = out.trace.as_mut().expect("just stored");
        trace.push_setup(SpanName::SetupFabric, clock.start, clock.fabric_built);
        trace.push_setup(SpanName::SetupConns, clock.fabric_built, clock.conns_open);
        boundary_checks(&mut out);
    }
    out
}

/// The traced run's boundary counts must equal the program's ledgers.
fn boundary_checks(out: &mut Outcome) {
    let rec = out.trace.as_ref().expect("traced run");
    let fail = &mut out.failures;
    if rec.send_calls != out.injected.0 {
        fail.push(format!(
            "fabric.send_calls {} != injected packets {}",
            rec.send_calls, out.injected.0
        ));
    }
    if out.split.0 + out.split.1 != rec.send_calls {
        fail.push(format!(
            "packet_sends {} + fluid_sends {} != send_calls {}",
            out.split.0, out.split.1, rec.send_calls
        ));
    }
    if rec.message_callbacks != out.stats.completed_messages {
        fail.push(format!(
            "on_message_complete calls {} != completed_messages {}",
            rec.message_callbacks, out.stats.completed_messages
        ));
    }
}

/// Mean ns per `ClosTopology::route` call over `sample`, repeated until
/// at least 200,000 calls and 20 ms have been timed.
fn time_routes(topo: &stellar_net::ClosTopology, sample: &[(NicId, NicId, u64, u32)]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 200_000 || start.elapsed().as_millis() < 20 {
        for &(src, dst, flow, path) in sample {
            std::hint::black_box(topo.route(
                std::hint::black_box(src),
                std::hint::black_box(dst),
                flow,
                path,
            ));
        }
        calls += sample.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// A `/proc/self/status` field in MB (its kB value / 1024); 0 when absent.
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// packet_permutation

/// Fig. 9 permutation parameters.
#[derive(Debug, Clone)]
pub struct PermutationShape {
    topology: ClosConfig,
    transport: TransportConfig,
    message_bytes: u64,
    injection: SimDuration,
}

impl PermutationShape {
    fn new(size: Size) -> Self {
        let topology = match size {
            // The paper's 30 servers × 4 RNICs, 2 × 60 aggs: 120 flows.
            Size::Full => ClosConfig::default(),
            Size::Mini => ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 2,
                planes: 2,
                aggs_per_plane: 8,
            },
        };
        PermutationShape {
            topology,
            transport: TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 128,
                pace_gbps: Some(150.0),
                ..TransportConfig::default()
            },
            message_bytes: 512 * 1024,
            injection: match size {
                Size::Full => SimDuration::from_millis(5),
                Size::Mini => SimDuration::from_micros(500),
            },
        }
    }
}

/// Open-loop generator: a timer per flow posts the next message on
/// schedule, whether or not the last one has completed.
struct Injector {
    conns: Vec<ConnId>,
    message_bytes: u64,
    interval: SimDuration,
    stop_at: SimTime,
    posted: u64,
}

impl<F: Fabric> App<F> for Injector {
    fn on_message_complete(&mut self, _sim: &mut TransportSim<F>, _conn: ConnId, _msg: MsgId) {}

    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        sim.post_message(self.conns[token as usize], self.message_bytes);
        self.posted += 1;
        let next = sim.now() + self.interval;
        if next < self.stop_at {
            sim.schedule_timer(next, token);
        }
    }
}

fn packet_permutation<P: Probe>(size: Size, seed: u64, probe: &mut P) -> Outcome {
    let shape = PermutationShape::new(size);
    let mut clock = SetupClock::start();
    let rng = SimRng::from_seed(seed);
    let fabric = packet_fabric(shape.topology.clone(), NetworkConfig::default(), &rng);
    clock.fabric_built = Instant::now();
    let hosts = fabric.topology().total_hosts();
    let mut sim = TransportSim::new(
        probe.wrap(fabric),
        shape.transport.clone(),
        rng.fork("transport"),
    );

    // One flow per RNIC to a random host on the same rail in the other
    // segment (a random bijection per direction and rail).
    let mut perm_rng = rng.fork("perm");
    let half = hosts / 2;
    let mut conns = Vec::new();
    for rail in 0..shape.topology.rails {
        for (from, to) in [(0, half), (half, 0)] {
            let mut peers: Vec<usize> = (0..half).collect();
            perm_rng.shuffle(&mut peers);
            for (h, &p) in peers.iter().enumerate() {
                let src = sim.network().topology().nic(from + h, rail);
                let dst = sim.network().topology().nic(to + p, rail);
                conns.push(sim.add_connection(src, dst));
            }
        }
    }
    clock.conns_open = Instant::now();

    let interval = SimDuration::from_nanos(
        (shape.message_bytes as f64 * 8.0 / shape.transport.pace_gbps.expect("paced")) as u64,
    );
    // Stagger flow starts across one interval so paced injections do
    // not arrive in synchronized bursts.
    for (i, &c) in conns.iter().enumerate() {
        sim.post_message(c, shape.message_bytes);
        let offset = interval.mul(i as u64).div(conns.len() as u64);
        sim.schedule_timer(SimTime::ZERO + interval + offset, i as u64);
    }
    let mut app = Injector {
        posted: conns.len() as u64,
        conns,
        message_bytes: shape.message_bytes,
        interval,
        stop_at: SimTime::ZERO + shape.injection,
    };
    run_and_collect::<P, _, _>(sim, &mut app, clock, |app, out| {
        if out.stats.completed_messages != app.posted {
            out.failures.push(format!(
                "{} of {} messages completed",
                out.stats.completed_messages, app.posted
            ));
        }
        if out.split.1 != 0 {
            out.failures.push("fluid sends on the packet model".into());
        }
    })
}

// ---------------------------------------------------------------------
// Ring all-reduce workloads

/// Results every ring workload reports: per-ring iteration times and
/// completion.
fn ring_results(runner: &AllReduceRunner, iterations: u32, out: &mut Outcome) {
    let rings = runner.job_count();
    out.iterations = (0..rings)
        .map(|j| {
            runner
                .report(j)
                .iterations
                .iter()
                .map(|r| {
                    let start = r.started.as_nanos();
                    (start, start + r.duration().as_nanos())
                })
                .collect()
        })
        .collect();
    let done = out
        .iterations
        .iter()
        .filter(|r| r.len() == iterations as usize)
        .count();
    if !runner.all_finished() || done != rings {
        out.failures.push(format!(
            "{done} of {rings} rings finished {iterations} iterations"
        ));
    }
}

/// HPN7.0-scale DP all-reduce parameters (the `scale` experiment's
/// topology and placement).
#[derive(Debug, Clone)]
pub struct LlmShape {
    topology: ClosConfig,
    rings: usize,
    ranks: usize,
    data_bytes: u64,
}

impl LlmShape {
    fn new(size: Size) -> Self {
        match size {
            // 1024 rings × 16 ranks = 16,384 ranks over 8 × 1024 × 2 rails.
            Size::Full => LlmShape {
                topology: ClosConfig {
                    segments: 8,
                    hosts_per_segment: 1024,
                    rails: 2,
                    planes: 2,
                    aggs_per_plane: 60,
                },
                rings: 1024,
                ranks: 16,
                data_bytes: 2 << 20,
            },
            Size::Mini => LlmShape {
                topology: ClosConfig {
                    segments: 2,
                    hosts_per_segment: 64,
                    rails: 2,
                    planes: 2,
                    aggs_per_plane: 8,
                },
                rings: 16,
                ranks: 8,
                data_bytes: 512 << 10,
            },
        }
    }
}

fn hybrid_llm_16k<P: Probe>(size: Size, seed: u64, probe: &mut P) -> Outcome {
    let shape = LlmShape::new(size);
    let mut clock = SetupClock::start();
    let rng = SimRng::from_seed(seed);
    let fabric = hybrid_fabric(
        shape.topology.clone(),
        NetworkConfig::default(),
        HybridConfig::default(),
        &rng,
    );
    clock.fabric_built = Instant::now();
    // Chunk-sized packets: one packet per ring step.
    let transport = TransportConfig {
        algo: PathAlgo::Obs,
        num_paths: 128,
        mtu: shape.data_bytes / shape.ranks as u64,
        ..TransportConfig::default()
    };
    let mut sim = TransportSim::new(probe.wrap(fabric), transport, rng.fork("transport"));
    let rails = shape.topology.rails;
    let jobs: Vec<AllReduceJob> = (0..shape.rings)
        .map(|j| {
            let base = (j / rails) * shape.ranks;
            AllReduceJob {
                nics: (0..shape.ranks)
                    .map(|k| sim.network().topology().nic(base + k, j % rails))
                    .collect(),
                data_bytes: shape.data_bytes,
                iterations: 1,
                burst: None,
            }
        })
        .collect();
    let mut runner = AllReduceRunner::new(&mut sim, jobs);
    clock.conns_open = Instant::now();
    runner.start(&mut sim);
    run_and_collect::<P, _, _>(sim, &mut runner, clock, |runner, out| {
        ring_results(runner, 1, out);
        let sends = out.split.0 + out.split.1;
        if (out.split.1 as f64) < 0.99 * sends as f64 {
            out.failures.push(format!(
                "fluid share {} of {sends} sends is below 0.99",
                out.split.1
            ));
        }
    })
}

/// Recovery ring-fleet parameters (the `recovery` experiment's chaos
/// pass, without its calibration pass).
#[derive(Debug, Clone)]
pub struct FleetShape {
    rings: usize,
    ranks: usize,
    data_bytes: u64,
    iterations: u32,
    victims: usize,
    fault_at: SimTime,
    /// The outage starts a seed-drawn time in `[0, fault_jitter)` after
    /// `fault_at`.
    fault_jitter: SimDuration,
    outage: SimDuration,
    network: NetworkConfig,
    transport: TransportConfig,
}

impl FleetShape {
    fn new(size: Size) -> Self {
        let (rings, ranks, data_bytes, victims, fault_at_us) = match size {
            Size::Full => (8, 128, 1 << 20, 8, 1000),
            Size::Mini => (2, 16, 256 << 10, 2, 100),
        };
        FleetShape {
            rings,
            ranks,
            data_bytes,
            iterations: 3,
            victims,
            fault_at: SimTime::ZERO + SimDuration::from_micros(fault_at_us),
            fault_jitter: SimDuration::from_micros(fault_at_us / 5),
            outage: SimDuration::from_millis(8),
            network: NetworkConfig {
                // Longer than the outage: the recovery ladder, not a BGP
                // reroute, must bridge the dark window.
                bgp_convergence: SimDuration::from_millis(50),
                ..NetworkConfig::default()
            },
            transport: TransportConfig {
                algo: PathAlgo::SinglePath,
                num_paths: 1,
                rto_backoff: 1.0,
                retry_budget: 4,
                scoreboard: ScoreboardPolicy {
                    blacklist_after: 0,
                    penalty: SimDuration::ZERO,
                },
                recovery: Some(RecoveryPolicy::default()),
                ..TransportConfig::default()
            },
        }
    }
}

/// The ring runner plus a tally of connection errors and recoveries.
struct Fleet {
    runner: AllReduceRunner,
    errors: u64,
    recovered: u64,
}

impl<F: Fabric> App<F> for Fleet {
    fn on_message_complete(&mut self, sim: &mut TransportSim<F>, conn: ConnId, msg: MsgId) {
        self.runner.on_message_complete(sim, conn, msg);
    }

    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        self.runner.on_timer(sim, token);
    }

    fn on_connection_error(&mut self, _sim: &mut TransportSim<F>, _conn: ConnId, _e: FatalError) {
        self.errors += 1;
    }

    fn on_connection_recovered(&mut self, _sim: &mut TransportSim<F>, _c: ConnId, _d: SimDuration) {
        self.recovered += 1;
    }
}

fn recovery_fleet<P: Probe>(size: Size, seed: u64, probe: &mut P) -> Outcome {
    let shape = FleetShape::new(size);
    let total = shape.rings * shape.ranks;
    let half = total / 2;
    let mut clock = SetupClock::start();
    let rng = SimRng::from_seed(seed);
    let fabric = hybrid_fabric(
        ClosConfig {
            segments: 2,
            hosts_per_segment: half,
            rails: 1,
            planes: 2,
            aggs_per_plane: 60,
        },
        shape.network.clone(),
        HybridConfig::default(),
        &rng,
    );
    clock.fabric_built = Instant::now();
    let mut sim = TransportSim::new(
        probe.wrap(fabric),
        shape.transport.clone(),
        rng.fork("transport"),
    );

    // Consecutive ranks alternate segments, so every ring edge crosses
    // the aggregation layer.
    let rings: Vec<Vec<NicId>> = (0..shape.rings)
        .map(|j| {
            (0..shape.ranks)
                .map(|r| {
                    let g = j * shape.ranks + r;
                    sim.network().topology().nic(g / 2 + (g % 2) * half, 0)
                })
                .collect()
        })
        .collect();
    let jobs = rings
        .iter()
        .map(|nics| AllReduceJob {
            nics: nics.clone(),
            data_bytes: shape.data_bytes,
            iterations: shape.iterations,
            burst: None,
        })
        .collect();
    let runner = AllReduceRunner::new(&mut sim, jobs);
    clock.conns_open = Instant::now();

    // The ToR uplink each victim ring's first edge actually uses goes
    // dark for the outage. The fleet is symmetric under host relabelling,
    // so the seed shapes it through the outage's start instead.
    let mut victims: Vec<_> = (0..shape.victims)
        .map(|j| {
            let conn = runner.job_conns(j)[0];
            sim.network()
                .topology()
                .route(rings[j][0], rings[j][1], u64::from(conn.0), 0)[1]
        })
        .collect();
    victims.sort_by_key(|l| l.0);
    victims.dedup();
    let fault_at = shape.fault_at
        + SimDuration::from_nanos(rng.fork("fault").below(shape.fault_jitter.as_nanos()));
    let mut plan = FaultPlan::new(seed);
    for &link in &victims {
        plan = plan.flap(link, fault_at, shape.outage, SimDuration::from_millis(1), 1);
    }
    sim.network_mut().install_fault_plan(plan);

    let mut app = Fleet {
        runner,
        errors: 0,
        recovered: 0,
    };
    app.runner.start(&mut sim);
    run_and_collect::<P, _, _>(sim, &mut app, clock, |app, out| {
        ring_results(&app.runner, shape.iterations, out);
        out.terminal_errors = app.errors;
        if app.errors != 0 {
            out.failures
                .push(format!("{} terminal connection errors", app.errors));
        }
        if out.stats.recoveries == 0 || app.recovered != out.stats.recoveries {
            out.failures.push(format!(
                "recoveries: transport {} / app {}, expected equal and > 0",
                out.stats.recoveries, app.recovered
            ));
        }
    })
}
