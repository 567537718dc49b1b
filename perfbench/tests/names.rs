//! Every metric the command prints is declared in `BENCHMARK.json` with
//! the same unit, and every declared metric is printed, for each
//! workload with tracing off and on. Runs the built command on the
//! miniature workloads.

use std::process::Command;

use stellar_sim::json::{parse, Value};

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn declared(bench: &Value, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(workload: &str, trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace, "--mini"])
        .output()
        .expect("the command runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success(), "{workload} --trace {trace}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is JSON");
    let Some(Value::Obj(fields)) = result.get("metrics") else {
        panic!("no metrics object in {last}");
    };
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let keys: Vec<&str> = match &result {
        Value::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
        _ => unreachable!(),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    fields
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let bench = parse(&std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json")).expect("JSON");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["packet_permutation", "hybrid_llm_16k", "recovery_fleet"]
    );
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&bench, section);
        for w in &workloads {
            assert_eq!(printed(w, trace), want, "{w} --trace {trace} vs {section}");
        }
    }
}
