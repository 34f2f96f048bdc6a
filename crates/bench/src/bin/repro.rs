//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT...] [--seed N] [--full] [--trace FILE]
//! repro trace convert --pcap FILE [--out FILE] [--port N]
//!
//! EXPERIMENT: all (default) | table1 | table2 | table3 | table4
//!           | fig2 | fig3 | fig4 | fig5 | headline | throughput | cache
//!           | runtime | coldstart | storm | crashkill | obs | obs-smoke
//!           | trace-dump
//! --seed N      workload RNG seed (default 2015)
//! --full        generate the four 180k-rule routing sets at full size
//!               (several extra seconds; default scales them down 20x)
//! --trace FILE  replay a recorded header trace (ofpacket::trace format)
//!               through the cache experiment's runtime instead of the
//!               synthetic Zipf sweep
//!
//! trace convert ingests a classic libpcap capture (linktype Ethernet)
//! into the ofpacket::trace replay format consumed by --trace:
//! --pcap FILE   the capture to convert (required)
//! --out FILE    output path (default: the capture with a .trace suffix)
//! --port N      ingress port stamped on every packet (default 0)
//! ```
//!
//! Results print as aligned tables and are also written as JSON under
//! `target/repro/`.

use mtl_bench::data::Workloads;
use mtl_bench::{
    cache, coldstart, crashkill, fig2, fig3, fig4, fig5, headline, obs, runtime, storm, table1,
    table2, table3, table4, throughput, tracedump, DEFAULT_SEED,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return trace_tool(&args[1..]);
    }
    let mut seed = DEFAULT_SEED;
    let mut full = false;
    let mut trace: Option<std::path::PathBuf> = None;
    let mut experiments: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                seed = v.parse().unwrap_or_else(|_| usage("--seed must be an integer"));
            }
            "--full" => full = true,
            "--trace" => {
                let v = it.next().unwrap_or_else(|| usage("--trace needs a file path"));
                trace = Some(v.into());
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => experiments.push(other.to_owned()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_owned());
    }

    let known = [
        "table1",
        "table2",
        "table3",
        "table4",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "headline",
        "throughput",
        "cache",
        "runtime",
        "coldstart",
        "storm",
        "crashkill",
        "obs",
        "obs-smoke",
        "trace-dump",
    ];
    let selected: Vec<&str> = if experiments.iter().any(|e| e == "all") {
        // crashkill spawns the separately-built `crashkill_child` binary
        // and SIGKILLs it in a loop — opt in by name, not via `all`.
        // obs-smoke is the quick CI variant of obs; `all` runs the
        // real sweep, not both.
        known.iter().copied().filter(|k| !matches!(*k, "crashkill" | "obs-smoke")).collect()
    } else {
        experiments
            .iter()
            .map(|e| {
                known
                    .iter()
                    .copied()
                    .find(|k| *k == e)
                    .unwrap_or_else(|| usage(&format!("unknown experiment {e}")))
            })
            .collect()
    };

    // table2, coldstart, storm and crashkill are self-contained;
    // everything else needs workloads.
    let needs_data =
        selected.iter().any(|e| !matches!(*e, "table2" | "coldstart" | "storm" | "crashkill"));
    let workloads = if needs_data {
        eprintln!(
            "generating workloads (seed {seed}, {}) ...",
            if full { "full-size giant routers" } else { "giant routers scaled 20x; use --full" }
        );
        Some(if full { Workloads::generate(seed) } else { Workloads::generate_quick(seed) })
    } else {
        None
    };

    for e in selected {
        match e {
            "table1" => table1::report(workloads.as_ref().expect("data")),
            "table2" => table2::report(),
            "table3" => table3::report(workloads.as_ref().expect("data")),
            "table4" => table4::report(workloads.as_ref().expect("data")),
            "fig2" => fig2::report(workloads.as_ref().expect("data")),
            "fig3" => fig3::report(workloads.as_ref().expect("data")),
            "fig4" => fig4::report(workloads.as_ref().expect("data")),
            "fig5" => fig5::report(workloads.as_ref().expect("data")),
            "headline" => headline::report(workloads.as_ref().expect("data")),
            "throughput" => throughput::report(workloads.as_ref().expect("data")),
            "cache" => match &trace {
                Some(path) => cache::report_recorded(workloads.as_ref().expect("data"), path),
                None => cache::report(workloads.as_ref().expect("data")),
            },
            "runtime" => runtime::report(workloads.as_ref().expect("data")),
            "coldstart" => coldstart::report(),
            "storm" => storm::report(),
            "crashkill" => crashkill::report(),
            "obs" => obs::report(workloads.as_ref().expect("data")),
            "obs-smoke" => obs::smoke(workloads.as_ref().expect("data")),
            "trace-dump" => tracedump::report(workloads.as_ref().expect("data")),
            _ => unreachable!(),
        }
    }
    eprintln!("JSON written under {}", mtl_bench::output::repro_dir().display());
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [EXPERIMENT...] [--seed N] [--full] [--trace FILE]\n\
         \x20      repro trace convert --pcap FILE [--out FILE] [--port N]\n\
         experiments: all table1 table2 table3 table4 fig2 fig3 fig4 fig5 headline throughput \
         cache runtime coldstart storm crashkill obs obs-smoke trace-dump (crashkill and \
         obs-smoke are not part of `all`)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The `trace` tool: capture-format conversions feeding `--trace`.
fn trace_tool(args: &[String]) {
    if args.first().map(String::as_str) != Some("convert") {
        usage("trace supports one subcommand: convert");
    }
    let mut pcap: Option<std::path::PathBuf> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut port = 0u32;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pcap" => {
                pcap = Some(it.next().unwrap_or_else(|| usage("--pcap needs a file path")).into());
            }
            "--out" => {
                out = Some(it.next().unwrap_or_else(|| usage("--out needs a file path")).into());
            }
            "--port" => {
                let v = it.next().unwrap_or_else(|| usage("--port needs a value"));
                port = v.parse().unwrap_or_else(|_| usage("--port must be an integer"));
            }
            other => usage(&format!("unknown trace-convert argument {other}")),
        }
    }
    let pcap = pcap.unwrap_or_else(|| usage("trace convert requires --pcap FILE"));
    let out = out.unwrap_or_else(|| pcap.with_extension("trace"));
    match ofpacket::pcap::pcap_to_trace_file(&pcap, &out, port) {
        Ok(packets) => {
            eprintln!(
                "converted {packets} packets: {} -> {} (replay with: repro cache --trace {})",
                pcap.display(),
                out.display(),
                out.display()
            );
        }
        Err(e) => {
            eprintln!("error: cannot convert {}: {e}", pcap.display());
            std::process::exit(1);
        }
    }
}
