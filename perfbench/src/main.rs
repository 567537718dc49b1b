//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--mini]
//! ```
//!
//! Runs the workload repeatedly, each run in a fresh single-threaded
//! child process, for `--seconds` seconds. `--trace 0` reports the
//! end-to-end metrics (medians over untraced runs); `--trace 1`
//! alternates untraced and traced runs and reports the per-layer
//! metrics. Around each child the parent times a fixed reference loop
//! (`host`) and scales the run's end-to-end times to a nominal host
//! speed. Every run's simulated result is checked, and its
//! `sim_digest` must match across all runs of the invocation. The last
//! line of stdout is the JSON result; the exit code is 0 when every
//! check passed, 1 when one failed, 2 on a usage error.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stellar_perfbench::host::{self, HostSpeed};
use stellar_perfbench::probe::{Bare, Traced};
use stellar_perfbench::report::{
    at_host_speed, quartiles, result_line, run_values, Aggregate, END_TO_END, PER_LAYER,
};
use stellar_perfbench::workloads::{self, config_digest, proc_status_mb, Size, Workload};
use stellar_sim::json::Obj;

/// An invocation stops starting runs once this much time has passed
/// plus the longest run so far, so it ends well inside three minutes.
const WALL_LIMIT: Duration = Duration::from_secs(165);

/// Fewest untraced runs (and, with `--trace 1`, traced runs) made even
/// when `--seconds` runs out first.
const MIN_RUNS: usize = 2;

const USAGE: &str =
    "usage: perfbench --workload <packet_permutation|hybrid_llm_16k|recovery_fleet> \
--seed <n> --seconds <s> --trace <0|1> [--mini]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut mini = false;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mini" => mini = true,
            "--child" => child = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let get = |name: &str| flags.get(name).ok_or(format!("missing {name}"));
    let workload = get("--workload")?;
    let workload = Workload::from_name(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = if child {
        0
    } else {
        let s: u64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if s == 0 {
            return Err("--seconds must be at least 1".into());
        }
        s
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size: if mini { Size::Mini } else { Size::Full },
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

/// One run in this process: print the digest, any failed checks and
/// every value, one per line, for the parent to read. A traced run also
/// writes its spans to `perfbench-spans/` next to the executable.
fn child(args: &Args) -> ExitCode {
    let outcome = if args.trace {
        workloads::run(args.workload, args.size, args.seed, &mut Traced::new())
    } else {
        workloads::run(args.workload, args.size, args.seed, &mut Bare)
    };
    let peak_rss_mb = proc_status_mb("VmHWM:");
    println!("digest\t{:016x}", outcome.digest);
    for f in &outcome.failures {
        println!("failure\t{}", f.replace(['\n', '\t'], " "));
    }
    for (name, value) in run_values(&outcome, peak_rss_mb) {
        println!("value\t{name}\t{value}");
    }
    if let Some(rec) = &outcome.trace {
        let exe = std::env::current_exe().expect("the running executable has a path");
        let dir = exe.with_file_name("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.render_spans()))
        {
            println!("failure\twriting spans to {}: {e}", path.display());
        }
    }
    ExitCode::SUCCESS
}

/// What the parent read back from one child.
struct ChildRun {
    digest: Option<String>,
    failures: Vec<String>,
    values: Vec<(&'static str, f64)>,
    wall: Duration,
    /// The reference loop's time right after the child ended.
    reference_after: f64,
}

fn metric_name(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, _)| n)
        .find(|&n| n == name)
}

/// Run one child. `reference_before` is the reference loop's time just
/// before it; the loop runs again when the child ends, and that time
/// comes back in the result for the next run.
fn spawn_child(
    exe: &Path,
    args: &Args,
    traced: bool,
    deadline: Instant,
    reference_before: f64,
) -> ChildRun {
    let started = Instant::now();
    let mut run = ChildRun {
        digest: None,
        failures: Vec::new(),
        values: Vec::new(),
        wall: Duration::ZERO,
        reference_after: 0.0,
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("STELLAR_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.size == Size::Mini {
        cmd.arg("--mini");
    }
    let mut proc = match cmd.spawn() {
        Ok(p) => p,
        Err(e) => {
            run.failures.push(format!("spawning the run: {e}"));
            return run;
        }
    };
    // Read stdout on its own thread while polling for the exit, so a
    // child with a long failure report never blocks on a full pipe.
    let mut out = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = out.read_to_string(&mut text);
        text
    });
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = proc.kill();
                let _ = proc.wait();
                run.failures
                    .push("run killed at the wall-clock limit".into());
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                run.failures.push(format!("waiting for the run: {e}"));
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    run.reference_after = host::reference_s();
    run.wall = started.elapsed();
    match status {
        Some(s) if !s.success() => run.failures.push(format!("run exited with {s}")),
        _ => {}
    }
    for line in text.lines() {
        let mut cols = line.split('\t');
        match (cols.next(), cols.next(), cols.next()) {
            (Some("digest"), Some(d), None) => run.digest = Some(d.to_string()),
            (Some("failure"), Some(f), _) => run.failures.push(f.to_string()),
            (Some("value"), Some(name), Some(v)) => match (metric_name(name), v.parse()) {
                (Some(name), Ok(v)) => run.values.push((name, v)),
                _ => run.failures.push(format!("unreadable value line {line:?}")),
            },
            _ => run.failures.push(format!("unreadable line {line:?}")),
        }
    }
    let speed = HostSpeed::from_reference(reference_before, run.reference_after);
    at_host_speed(&mut run.values, speed);
    if run.digest.is_none() && run.failures.is_empty() {
        run.failures.push("run printed no digest".into());
    }
    run
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; `none` elsewhere.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn parent(args: &Args) -> ExitCode {
    let start = Instant::now();
    let hard_stop = start + WALL_LIMIT;
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut agg = Aggregate::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    let mut first_digest: Option<String> = None;
    let (mut untraced_runs, mut traced_runs) = (0usize, 0usize);
    let mut longest = Duration::ZERO;
    // The reference loop runs in this process, not in the child, so it
    // leaves the child's allocator and peak RSS alone. It runs once
    // between two children; each run's speed is the mean of the loop
    // times on either side of it.
    let mut reference = host::reference_s();
    loop {
        let elapsed = start.elapsed();
        let enough = untraced_runs >= MIN_RUNS && (!args.trace || traced_runs >= MIN_RUNS);
        if (enough && elapsed >= Duration::from_secs(args.seconds))
            || (attempted > 0 && elapsed + longest >= WALL_LIMIT)
        {
            break;
        }
        // With tracing, alternate untraced and traced runs so both see
        // the same machine conditions.
        let traced = args.trace && untraced_runs > traced_runs;
        let run = spawn_child(&exe, args, traced, hard_stop, reference);
        reference = run.reference_after;
        attempted += 1;
        longest = longest.max(run.wall);
        if traced {
            traced_runs += 1;
        } else {
            untraced_runs += 1;
        }
        let mut failures = run.failures;
        if let Some(digest) = run.digest {
            let first = first_digest.get_or_insert_with(|| digest.clone());
            if digest != *first {
                failures.push(format!(
                    "sim_digest {digest} differs from the first run's {first}"
                ));
            }
            *digests.entry(digest).or_default() += 1;
        }
        let kind = if traced { "traced" } else { "untraced" };
        if failures.is_empty() {
            agg.add(traced, &run.values);
            let value = |name: &str| {
                run.values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |v| v.1)
            };
            eprintln!(
                "perfbench: {} run {attempted} ({kind}): run_s {:.4} (wall {:.4}, reference {:.4}) \
setup_s {:.6} (wall {:.6})",
                args.workload.name(),
                value("run_s"),
                value("host.run_wall_s"),
                value("host.reference_s"),
                value("setup_s"),
                value("host.setup_wall_s"),
            );
        } else {
            failed += 1;
            for f in &failures {
                eprintln!(
                    "perfbench: {} run {attempted} ({kind}) FAILED: {f}",
                    args.workload.name()
                );
            }
        }
    }

    let metrics = if args.trace {
        agg.per_layer()
    } else {
        agg.end_to_end()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let manifest = Obj::new()
        .field_str("workload", args.workload.name())
        .field_u64("seed", args.seed)
        .field_str(
            "size",
            if args.size == Size::Mini {
                "mini"
            } else {
                "full"
            },
        )
        .field_bool("trace", args.trace)
        .field_str(
            "config_digest",
            &format!("{:016x}", config_digest(args.workload, args.size)),
        )
        .field_str("profile", env!("PERFBENCH_PROFILE"))
        .field_str("git_commit", &git_commit())
        .field_u64("nproc", nproc as u64)
        .field_str("rustc", env!("PERFBENCH_RUSTC"))
        .field_u64("seconds", args.seconds)
        .field_u64("untraced_runs", untraced_runs as u64)
        .field_u64("traced_runs", traced_runs as u64);
    println!("manifest {}", manifest.finish());
    let digest_list: Vec<String> = digests
        .iter()
        .map(|(d, n)| format!("{d} ({n} runs)"))
        .collect();
    println!("sim_digest {}", digest_list.join(" "));
    for &(name, unit, value) in &metrics {
        let values = agg.sample(args.trace, name);
        let basis = match quartiles(values) {
            _ if values.is_empty() => "from the traced and untraced medians".to_string(),
            Some((q1, q3)) => format!("median of {} runs, q1 {q1:.6} q3 {q3:.6}", values.len()),
            None => format!("median of {} runs", values.len()),
        };
        println!("{name:>30} {value:>16.6} {unit:<7} {basis}");
    }
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
