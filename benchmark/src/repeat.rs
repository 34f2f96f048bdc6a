//! `repeat`: does the benchmark agree with itself?
//!
//! Runs every workload `runs` times in each of `sets` sets of the same
//! code — one process per run, a fresh seed each, the workload order
//! reversed in every other set — and prints, per end-to-end cell, the
//! median, the quartiles, their distance as a share of the median (the
//! driver's "spread"), and how far the sets' medians disagree, against
//! the cell's bound. Exits non-zero if any cell's sets disagree by more
//! than its bound, or any cell but `setup_s` spreads by more — the two
//! things the driver refuses a benchmark for: a bound the benchmark
//! cannot keep between two sets of identical code would reject changes
//! for nothing.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use minijson::{parse_json, Json};

use crate::spec::{self, Better};
use crate::stats::{median, quartiles};

/// One child run: its fingerprint, whether its generator kept schedule,
/// and its end-to-end metrics.
struct Run {
    fingerprint: String,
    valid: bool,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn child(workload: &str, seed: u64, seconds: f64, smoke: bool, out: &Path) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(out);
    if smoke {
        command.arg("--smoke");
    }
    let path = out.join(format!("{workload}.json"));
    let _ = std::fs::remove_file(&path);
    let output = command.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
    let failed = || {
        format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    };
    // The child's result file carries what its last line does not: the
    // fingerprint, and the generator's verdict when there is no last line
    // because the run was invalid.
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", failed()))?;
    let file = parse_json(&text)?;
    let fingerprint = text
        .lines()
        .find_map(|line| line.strip_prefix("\"fingerprint\": "))
        .ok_or("result file has no fingerprint")?
        .trim_end_matches(',')
        .to_owned();
    if file.get("valid").and_then(Json::as_bool) == Some(false) {
        return Ok(Run { fingerprint, valid: false, correct: true, metrics: Vec::new() });
    }
    if !output.status.success() {
        return Err(failed());
    }
    let result = file.get("result").ok_or("result file has no result")?;
    let metrics = result.get("metrics").ok_or("result has no metrics")?;
    Ok(Run {
        fingerprint,
        valid: true,
        correct: result.get("correct").and_then(Json::as_bool).unwrap_or(false),
        metrics: metrics
            .keys()
            .into_iter()
            .map(|name| Ok((name.to_owned(), metrics.get(name).ok_or("metric")?.num("value")?)))
            .collect::<Result<_, String>>()?,
    })
}

pub fn repeat(
    sets: usize,
    runs: usize,
    seconds: f64,
    smoke: bool,
    out: &Path,
) -> Result<ExitCode, String> {
    if sets < 2 || runs < 2 {
        return Err("repeat needs at least 2 sets of at least 2 runs".into());
    }
    // (workload, metric) -> per set, the values of its valid runs.
    let mut cells: BTreeMap<(usize, usize), Vec<Vec<f64>>> = BTreeMap::new();
    let mut fingerprint: Option<String> = None;
    let mut invalid = Vec::new();
    let mut incorrect = Vec::new();
    for set in 0..sets {
        let mut order: Vec<usize> = (0..spec::WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for run in 0..runs {
            let seed = (set * runs + run + 1) as u64;
            for &w in &order {
                let name = spec::WORKLOADS[w].name;
                eprintln!("set {} run {} {name} (seed {seed})", set + 1, run + 1);
                let result = child(name, seed, seconds, smoke, out)?;
                match &fingerprint {
                    None => fingerprint = Some(result.fingerprint.clone()),
                    Some(first) if *first != result.fingerprint => {
                        return Err(format!(
                            "refusing to mix fingerprints:\n  {first}\n  {}",
                            result.fingerprint
                        ));
                    }
                    Some(_) => {}
                }
                if !result.correct {
                    incorrect.push(format!("{name} seed {seed}"));
                }
                if !result.valid {
                    invalid.push(format!("{name} seed {seed}"));
                    continue;
                }
                for (metric, value) in result.metrics {
                    let m = spec::END_TO_END
                        .iter()
                        .position(|e| e.name == metric)
                        .ok_or_else(|| format!("{name} reported an unlisted metric {metric}"))?;
                    cells.entry((w, m)).or_insert_with(|| vec![Vec::new(); sets])[set].push(value);
                }
            }
        }
    }

    println!("# repeat: {sets} sets x {runs} runs of every workload, {seconds} s each");
    println!();
    println!("host: `{}`", fingerprint.unwrap_or_default());
    println!();
    println!(
        "`spread` is (q3 - q1) / median over all runs, the quartiles as Python's \
         `statistics.quantiles(v, n=4)` gives them. `sets differ` is how much worse the worst \
         set's median is than the best set's, as a share of the best. Both must stay within \
         `bound` (the spread of `setup_s` excepted), as the driver demands."
    );
    println!();
    println!("| workload | metric | unit | median | q1 | q3 | spread | set medians | sets differ | bound | |");
    println!("|---|---|---|---:|---:|---:|---:|---|---:|---:|---|");
    let mut beyond = 0;
    for ((w, m), per_set) in &cells {
        let metric = &spec::END_TO_END[*m];
        let all: Vec<f64> = per_set.iter().flatten().copied().collect();
        if per_set.iter().any(|s| s.len() < 2) {
            return Err(format!(
                "{}/{}: too few valid runs in a set",
                spec::WORKLOADS[*w].name,
                metric.name
            ));
        }
        let (q1, q3) = quartiles(&all);
        let mid = median(&all);
        let medians: Vec<f64> = per_set.iter().map(|s| median(s)).collect();
        let low = medians.iter().copied().fold(f64::INFINITY, f64::min);
        let high = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let differ = match metric.better {
            Better::Lower => (high - low) / low,
            Better::Higher => (high - low) / high,
        };
        let verdict = if differ > metric.bound {
            beyond += 1;
            "SETS DIFFER BEYOND BOUND"
        } else if (q3 - q1) / mid > metric.bound && metric.name != "setup_s" {
            beyond += 1;
            "SPREAD BEYOND BOUND"
        } else {
            ""
        };
        let medians: Vec<String> = medians.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "| {} | {} | {} | {mid:.4} | {q1:.4} | {q3:.4} | {:.4} | {} | {differ:.4} | {} | {verdict} |",
            spec::WORKLOADS[*w].name,
            metric.name,
            metric.unit,
            (q3 - q1) / mid,
            medians.join(" / "),
            metric.bound,
        );
    }
    println!();
    println!(
        "runs left out because the load generator fell behind its schedule: {}",
        if invalid.is_empty() { "none".to_owned() } else { invalid.join(", ") }
    );
    println!(
        "runs with a wrong, unserved or refused operation: {}",
        if incorrect.is_empty() { "none".to_owned() } else { incorrect.join(", ") }
    );
    println!("cells whose sets differ or whose runs spread by more than their bound: {beyond}");
    Ok(if beyond == 0 && incorrect.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
