//! Runs every workload once, untraced and traced, at `--smoke` scale
//! (tiny tables, sub-second phases) and checks the shape of what comes
//! out against `BENCHMARK.json`: every listed metric present with its
//! unit and a finite value, nothing unlisted, `correct: true`, and a
//! trace file whose child spans lie inside their parents.

use std::path::{Path, PathBuf};
use std::process::Command;

use minijson::{parse_json, Json};

const EXE: &str = env!("CARGO_BIN_EXE_mtl-benchmark");

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(manifest: &Json, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .expect("manifest list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field").to_owned();
            (field("name"), m.get("unit").map_or_else(String::new, |_| field("unit")))
        })
        .collect()
}

/// Runs one workload and returns its last line, parsed.
fn run(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(EXE)
        .args(["--workload", workload, "--seed", "5", "--seconds", "2", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace {trace}: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    parse_json(stdout.lines().last().expect("a result line")).expect("result line parses")
}

/// The result line has exactly the contract's keys, is correct, and its
/// metrics are exactly `listed`, each with its unit and a finite value.
fn check_result(result: &Json, listed: &[(String, String)], what: &str) {
    let mut keys = result.keys();
    keys.sort_unstable();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{what}");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{what}");
    assert!(result.num("attempted").unwrap() >= 1.0, "{what}");
    assert_eq!(result.num("failed").unwrap(), 0.0, "{what}");
    let metrics = result.get("metrics").expect("metrics");
    let reported = metrics.keys();
    for (name, unit) in listed {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{what}: metric name {name:?}"
        );
        let cell = metrics.get(name).unwrap_or_else(|| panic!("{what}: {name} is missing"));
        assert_eq!(cell.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{what}: {name}");
        assert!(cell.num("value").unwrap().is_finite(), "{what}: {name}");
    }
    for name in reported {
        assert!(listed.iter().any(|(n, _)| n == name), "{what}: {name} is not in BENCHMARK.json");
    }
}

fn check_trace(path: &Path) {
    let trace =
        parse_json(&std::fs::read_to_string(path).expect("trace file")).expect("trace parses");
    assert!(trace.get("fingerprint").is_some());
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(spans.len() > 20, "{}: only {} spans", path.display(), spans.len());
    let at = |s: &Json, k| s.num(k).unwrap();
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(at(span, "id") as usize, i + 1);
        assert!(at(span, "start_ns") <= at(span, "end_ns"));
        let parent = at(span, "parent") as usize;
        if parent != 0 {
            assert!(parent <= i, "a parent precedes its children");
            let p = &spans[parent - 1];
            assert!(
                at(p, "start_ns") <= at(span, "start_ns") && at(span, "end_ns") <= at(p, "end_ns"),
                "{}: span {} ({}) lies outside its parent {} ({})",
                path.display(),
                i + 1,
                span.get("name").and_then(Json::as_str).unwrap(),
                parent,
                p.get("name").and_then(Json::as_str).unwrap(),
            );
        }
    }
}

#[test]
fn manifest_is_rendered_from_the_spec() {
    let output = Command::new(EXE).arg("manifest").output().expect("benchmark runs");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    assert_eq!(
        String::from_utf8(output.stdout).unwrap(),
        std::fs::read_to_string(path).unwrap(),
        "BENCHMARK.json is stale: regenerate it with `cargo run --release -- manifest`"
    );
}

#[test]
fn every_workload_reports_every_listed_metric() {
    let manifest = manifest();
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for (workload, _) in names(&manifest, "workloads") {
        check_result(&run(&workload, false, &out), &end_to_end, &workload);
        check_result(&run(&workload, true, &out), &per_layer, &format!("{workload} traced"));
        check_trace(&out.join(format!("{workload}.trace.json")));
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [&["--workload", "nope"][..], &["--seed"], &["--workload", "churn", "--trace", "2"]]
    {
        let output = Command::new(EXE).args(args).output().expect("benchmark runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
