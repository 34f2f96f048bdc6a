//! Output: the result line the driver reads, the result and trace files
//! under the output directory, and `BENCHMARK.json` itself.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::host::{self, Fingerprint};
use crate::lab;
use crate::loadgen::Tally;
use crate::run::{self, Args};
use crate::spec::{self, Metric};

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` — every value as measured,
/// with all its digits.
fn metrics_json(values: &[(&Metric, f64)]) -> String {
    let cells: Vec<String> = values
        .iter()
        .map(|(m, value)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(m.name), quote(m.unit))
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// The line the driver reads, or `None` for a run that is not to be
/// reported: one whose generator fell behind its schedule (what it
/// measured then describes the generator, not the runtime), or one with
/// a metric that has no value.
fn result_line(valid: bool, tally: Tally, values: &[(&Metric, f64)]) -> Option<String> {
    (valid && values.iter().all(|(_, v)| v.is_finite())).then(|| {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            metrics_json(values)
        )
    })
}

/// Runs the workload, writes its files, prints the table and — last —
/// the result line. A run that is not to be reported prints neither and
/// exits with 1.
pub fn run_and_print(args: &Args) -> ExitCode {
    let w = args.workload;
    let fingerprint = Fingerprint::capture();
    let pinned = host::pin_generator();
    let mut measured = run::measure(args);
    let (specs, values): (&[Metric], Vec<(&'static str, f64)>) = if args.trace {
        (&spec::PER_LAYER, lab::per_layer(args, &mut measured))
    } else {
        (&spec::END_TO_END, measured.end_to_end())
    };
    // Every metric of the spec, in the spec's order, and no other.
    assert_eq!(specs.len(), values.len(), "a reported metric is not in the spec");
    let values: Vec<(&Metric, f64)> = specs
        .iter()
        .map(|m| {
            let reported = values.iter().find(|(name, _)| *name == m.name);
            (m, reported.expect("a spec metric is not reported").1)
        })
        .collect();
    let valid = measured.generator_valid();
    let result = result_line(valid, measured.samples.tally, &values);

    let stem = if args.trace { format!("{}.layers", w.name) } else { w.name.to_owned() };
    let file = format!(
        "{{\n\"fingerprint\": {},\n\"workload\": {},\n\"seed\": {},\n\"seconds\": {},\n\"trace\": {},\n\"smoke\": {},\n\"generator_pinned\": {pinned},\n\"valid\": {valid},\n\"result\": {}\n}}\n",
        fingerprint.to_json(),
        quote(w.name),
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        result.as_deref().unwrap_or("null"),
    );
    std::fs::write(args.out.join(format!("{stem}.json")), file).expect("result file");
    if args.trace {
        let trace = format!(
            "{{\n\"fingerprint\": {},\n\"workload\": {},\n\"seed\": {},\n\"spans\": {}\n}}\n",
            fingerprint.to_json(),
            quote(w.name),
            args.seed,
            measured.spans.to_json(),
        );
        std::fs::write(args.out.join(format!("{}.trace.json", w.name)), trace).expect("trace file");
    }

    println!("host {}", fingerprint.to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace
    );
    let Some(result) = result else {
        if let Some((m, _)) = values.iter().find(|(_, v)| !v.is_finite()) {
            eprintln!("{} has no value: a phase produced no samples", m.name);
        }
        if !valid {
            eprintln!(
                "INVALID: the load generator fell behind its schedule in {} of {} rounds; nothing is reported",
                measured.samples.late_rounds,
                run::ROUNDS
            );
        }
        return ExitCode::FAILURE;
    };
    for (m, value) in &values {
        println!("{:<40} {value:>18.4} {}", m.name, m.unit);
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// `BENCHMARK.json`, rendered from the tables in [`spec`].
pub fn manifest() -> String {
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end: Vec<String> = spec::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = spec::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        spec::RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_whose_generator_fell_behind_has_no_result_line() {
        let tally = Tally { attempted: 10, failed: 0 };
        let values = [(&spec::END_TO_END[0], 0.5)];
        assert!(result_line(true, tally, &values).is_some_and(|l| l.contains("\"correct\": true")));
        assert_eq!(result_line(false, tally, &values), None);
        assert_eq!(result_line(true, tally, &[(&spec::END_TO_END[0], f64::NAN)]), None);
    }
}
