//! The repository's benchmark (`BENCHMARK.json` at the repo root).
//!
//! ```text
//! mtl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mtl-benchmark repeat [--sets 2] [--runs 5] [--seconds <s>]
//! mtl-benchmark manifest            # prints BENCHMARK.json
//! ```
//!
//! One process runs one workload once: it makes the inputs from the
//! seed, sets the system up, drives it through the phases of
//! [`run::measure`], checks every answer, and prints one JSON line —
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). README.md explains the tables in [`spec`].

mod alloc;
mod host;
mod inputs;
mod lab;
mod loadgen;
mod repeat;
mod report;
mod run;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mtl-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <dir>] [--smoke]
  mtl-benchmark repeat [--sets <n>] [--runs <n>] [--seconds <s>] [--out <dir>] [--smoke]
  mtl-benchmark manifest";

/// `--flag value` pairs and bare `--smoke`, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.take(flag)? {
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(()),
        }
    }
}

fn main_inner() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("repeat" | "manifest") => args.remove(0),
        _ => "run".to_owned(),
    };
    let mut flags = Flags(args);
    if command == "manifest" {
        flags.done()?;
        print!("{}", report::manifest());
        return Ok(ExitCode::SUCCESS);
    }
    let seconds: f64 = flags.parsed("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let out = PathBuf::from(flags.take("--out")?.unwrap_or_else(|| "benchmark/out".to_owned()));
    let smoke = flags.switch("--smoke");
    if command == "repeat" {
        let sets = flags.parsed("--sets", 2usize)?;
        let runs = flags.parsed("--runs", 5usize)?;
        flags.done()?;
        return repeat::repeat(sets, runs, seconds, smoke, &out);
    }
    let name = flags.take("--workload")?.ok_or("--workload is required")?;
    let workload = spec::workload(&name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed: u64 = flags.parsed("--seed", 1)?;
    let trace = match flags.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    flags.done()?;
    let args = run::Args { workload, seed, seconds, trace, smoke, out };
    Ok(report::run_and_print(&args))
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        ExitCode::from(2)
    })
}
