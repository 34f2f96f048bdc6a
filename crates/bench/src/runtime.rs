//! Sharded-runtime scaling and consistency under concurrent rule churn.
//!
//! Drives `mtl-runtime`'s sharded dataplane over the decomposition
//! architecture and answers the three questions the subsystem exists
//! for, per shard count (1/2/4/8 by default):
//!
//! * **Consistency, quiesced**: with no updates in flight, the runtime's
//!   output is **byte-identical** to the sequential oracle
//!   (`Classifier::classify_batch` on an identically built switch) —
//!   asserted, not sampled.
//! * **Consistency, under churn**: while a control-plane thread
//!   continuously adds and removes rules, every classified packet is
//!   checked against `reference_classify` over the **exact rule set of
//!   the version that served it** (the runtime reports per-packet
//!   versions; the churn thread logs every version's rule set *before*
//!   publishing it, so the log can never trail a served version).
//! * **Scaling**: aggregate packets/sec under churn, with the speedup
//!   over the 1-shard run. On hardware with ≥ 4 cores the 4-shard point
//!   is asserted to reach ≥ 2.5x (on fewer cores the number is recorded
//!   but cannot physically hold, so the assertion is skipped and marked
//!   in the JSON).
//!
//! The per-packet path is also held to the fast-path contract: workers
//! sample the bench harness's thread-local allocation probe around
//! their serve loops, and the steady-state delta must be **zero** —
//! the runtime adds no allocations (and, by construction, no locks: the
//! loop touches only the worker-owned cache and the immutable
//! snapshot).

use crate::alloc_probe;
use crate::data::Workloads;
use crate::output::{obj, render_table, write_json, Json, ToJson};
use classifier_api::{reference_classify, Classifier, ClassifierBuilder};
use mtl_core::MtlSwitch;
use mtl_runtime::{shard_of, Runtime, RuntimeConfig};
use offilter::synth::{generate_scan_trace, generate_trace, generate_trace_where, TraceConfig};
use offilter::{Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Instant;

/// One shard-count point of the sweep.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Worker shards.
    pub shards: usize,
    /// Quiesced output was byte-identical to the sequential oracle
    /// (asserted; the flag records that the check ran).
    pub quiesced_identical: bool,
    /// Packets individually verified against the versioned oracle while
    /// churn was running.
    pub churn_verified_packets: usize,
    /// Control-plane publishes (adds + removes) during the timed run.
    pub publishes: u64,
    /// Aggregate throughput under churn.
    pub packets_per_sec: f64,
    /// Nanoseconds per packet under churn.
    pub ns_per_packet: f64,
    /// Throughput relative to the 1-shard point.
    pub speedup: f64,
    /// Aggregate flow-cache hit rate over the timed run.
    pub hit_rate: f64,
    /// Snapshot refreshes across shards (how often workers re-acquired
    /// after a publish).
    pub snapshot_refreshes: u64,
    /// Steady-state heap allocations inside the per-packet serve loops
    /// (required to be zero).
    pub hot_path_allocs: u64,
    /// Workers whose CPU pin the kernel accepted.
    pub pinned_shards: usize,
    /// Median batch latency (submit → served), ns.
    pub latency_p50_ns: u64,
    /// 99th-percentile batch latency, ns.
    pub latency_p99_ns: u64,
}

impl ToJson for ShardPoint {
    fn to_json(&self) -> Json {
        obj([
            ("shards", self.shards.into()),
            ("quiesced_identical", self.quiesced_identical.into()),
            ("churn_verified_packets", self.churn_verified_packets.into()),
            ("publishes", self.publishes.into()),
            ("packets_per_sec", self.packets_per_sec.into()),
            ("ns_per_packet", self.ns_per_packet.into()),
            ("speedup", self.speedup.into()),
            ("hit_rate", self.hit_rate.into()),
            ("snapshot_refreshes", self.snapshot_refreshes.into()),
            ("hot_path_allocs", self.hot_path_allocs.into()),
            ("pinned_shards", self.pinned_shards.into()),
            ("latency_p50_ns", self.latency_p50_ns.into()),
            ("latency_p99_ns", self.latency_p99_ns.into()),
        ])
    }
}

/// One adversarial-traffic profile measured at the widest shard count
/// (quiesced — the sweep isolates traffic shape, not churn).
#[derive(Debug, Clone)]
pub struct DegradationPoint {
    /// Profile name: `zipf` (the friendly baseline), `rss-pinned`
    /// (every packet hashes onto shard 0), or `scan` (never-repeating
    /// cache-busting headers).
    pub profile: String,
    /// Aggregate throughput on this profile.
    pub packets_per_sec: f64,
    /// Aggregate flow-cache hit rate on this profile.
    pub hit_rate: f64,
    /// Slowdown vs the `zipf` baseline (baseline pps / this pps;
    /// 1.0 for the baseline itself, > 1 means degraded).
    pub slowdown_vs_zipf: f64,
}

impl ToJson for DegradationPoint {
    fn to_json(&self) -> Json {
        obj([
            ("profile", self.profile.as_str().into()),
            ("packets_per_sec", self.packets_per_sec.into()),
            ("hit_rate", self.hit_rate.into()),
            ("slowdown_vs_zipf", self.slowdown_vs_zipf.into()),
        ])
    }
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct RuntimeExperiment {
    /// Router measured.
    pub router: String,
    /// Packets per submitted batch.
    pub batch_size: usize,
    /// Batches submitted (pipelined) per timed run — a floor; the run
    /// extends until at least one churn cycle published mid-flight.
    pub batches: usize,
    /// Hardware threads available.
    pub available_parallelism: usize,
    /// Whether the ≥ 2.5x 4-shard scaling bar was asserted (skipped on
    /// hardware with < 4 cores, where it cannot physically hold).
    pub scaling_asserted: bool,
    /// One point per shard count, sweep order.
    pub points: Vec<ShardPoint>,
    /// Adversarial-traffic degradation at the widest shard count:
    /// `zipf` baseline, then `rss-pinned` and `scan`.
    pub degradation: Vec<DegradationPoint>,
    /// The 4-shard (or widest) point's telemetry JSON block, verbatim
    /// from the runtime.
    pub telemetry_json: String,
}

impl ToJson for RuntimeExperiment {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("batch_size", self.batch_size.into()),
            ("batches", self.batches.into()),
            ("available_parallelism", self.available_parallelism.into()),
            ("scaling_asserted", self.scaling_asserted.into()),
            ("points", self.points.to_json()),
            ("degradation", self.degradation.to_json()),
            ("telemetry", Json::Str(self.telemetry_json.clone())),
        ])
    }
}

/// A churn rule: high id (far above generated sets), high priority,
/// port and prefix chosen per round so successive publishes actually
/// change answers.
fn churn_rule(round: u32) -> Rule {
    Rule::new(
        900_000 + round,
        u16::MAX - 1,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(1 + round % 4))
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A00_0000, 8)
            .unwrap(),
        RuleAction::Forward(700 + round),
    )
}

/// Runs one shard-count point: quiesced oracle check, warmup, then a
/// timed pipelined run under continuous add/remove churn with full
/// versioned-oracle verification.
#[allow(clippy::too_many_lines)]
fn shard_point(
    set: &offilter::FilterSet,
    trace: &[HeaderValues],
    shards: usize,
    batches: usize,
    baseline_pps: Option<f64>,
) -> ShardPoint {
    let switch = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("switch builds");
    let oracle = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("oracle builds");
    let config = RuntimeConfig {
        shards,
        ring_capacity: 64,
        cache_capacity: 512,
        alloc_counter: Some(alloc_probe::current),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::with_control(switch, &config);

    // Quiesced: byte-identical to the sequential oracle (the unified
    // trait surface — rule ids, like the runtime reports).
    let want = Classifier::classify_batch(&oracle, trace);
    let quiesced = rt.classify_batch(trace);
    assert_eq!(quiesced.rows, want, "{shards} shards: quiesced output diverges from the oracle");
    assert!(quiesced.versions.iter().all(|&v| v == 1));

    // Warm every worker's cache, scratch buffers and snapshot replica.
    for _ in 0..2 {
        let _ = rt.classify_rows(trace);
    }
    let warm_allocs = rt.telemetry().hot_path_allocs();

    // Timed run under churn. The churn thread is the single publisher:
    // it logs each version's rule set *before* publishing, so the
    // verifier below always finds the serving version.
    let stop = AtomicBool::new(false);
    let version_log: Mutex<Vec<(u64, Vec<Rule>)>> = Mutex::new(vec![(1, set.rules.clone())]);
    let handle = rt.handle();
    let mut outputs: Vec<mtl_runtime::ClassifiedBatch> = Vec::with_capacity(batches);
    let mut elapsed = std::time::Duration::ZERO;
    let mut publishes = 0u64;
    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            let mut rules = set.rules.clone();
            let mut next_version = 2u64;
            let mut round = 0u32;
            while !stop.load(SeqCst) {
                let rule = churn_rule(round);
                rules.push(rule.clone());
                version_log.lock().unwrap().push((next_version, rules.clone()));
                let (_, v) = handle.add_rule(rule).expect("churn rule inserts");
                assert_eq!(v, next_version);
                next_version += 1;
                if stop.load(SeqCst) {
                    break;
                }
                rules.retain(|r| r.id != 900_000 + round);
                version_log.lock().unwrap().push((next_version, rules.clone()));
                let (_, v) = handle.remove_rule(900_000 + round).expect("churn rule exists");
                assert_eq!(v, next_version);
                next_version += 1;
                round += 1;
                // Continuous but not CPU-saturating: leave the cores to
                // the dataplane (each remove is a full rebuild already).
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            next_version - 2
        });

        let started = Instant::now();
        let headers: std::sync::Arc<[HeaderValues]> = trace.to_vec().into();
        let mut tickets = std::collections::VecDeque::with_capacity(8);
        let mut submitted = 0usize;
        // At least `batches` batches, and at least one full add/remove
        // churn cycle observed mid-run (so "under churn" is never
        // vacuous on a fast machine); capped in case churn wedges.
        while submitted < batches || (rt.version() < 3 && submitted < batches * 64) {
            tickets.push_back(rt.submit(std::sync::Arc::clone(&headers)));
            submitted += 1;
            // Keep a bounded pipeline so latency percentiles stay honest.
            if tickets.len() >= 8 {
                outputs.push(tickets.pop_front().expect("nonempty").wait());
            }
        }
        while let Some(t) = tickets.pop_front() {
            outputs.push(t.wait());
        }
        elapsed = started.elapsed();
        stop.store(true, SeqCst);
        publishes = churn.join().expect("churn thread");
    });

    // Verify every packet against the rule set of the version that
    // served it. Packets are grouped by served version, and each
    // version gets one freshly built sequential oracle switch (linear
    // `reference_classify` over every packet would dominate the whole
    // experiment); the first packets of every version are additionally
    // checked against `reference_classify` itself, so the oracle switch
    // is anchored to the trait-free definition too.
    let log = version_log.into_inner().unwrap();
    let mut by_version: std::collections::BTreeMap<u64, Vec<(usize, Option<u32>)>> =
        std::collections::BTreeMap::new();
    for out in &outputs {
        for (i, (&row, &version)) in out.rows.iter().zip(&out.versions).enumerate() {
            by_version.entry(version).or_default().push((i, row));
        }
    }
    let mut verified = 0usize;
    for (version, checks) in by_version {
        let rules_at =
            &log.iter().rev().find(|(v, _)| *v <= version).expect("served version is logged").1;
        let oracle_set =
            offilter::FilterSet::preserving_ids("churn-oracle", set.kind, rules_at.clone());
        let oracle_at =
            <MtlSwitch as ClassifierBuilder>::try_build(&oracle_set).expect("oracle builds");
        for (k, &(i, row)) in checks.iter().enumerate() {
            assert_eq!(
                row,
                Classifier::classify(&oracle_at, &trace[i]),
                "{shards} shards: packet {i} diverges from the oracle at version {version}"
            );
            if k < 32 {
                assert_eq!(
                    row,
                    reference_classify(rules_at, &trace[i]),
                    "{shards} shards: packet {i} diverges from reference at version {version}"
                );
            }
            verified += 1;
        }
    }

    let telemetry = rt.telemetry();
    let hot_path_allocs = telemetry.hot_path_allocs() - warm_allocs;
    assert_eq!(
        hot_path_allocs, 0,
        "{shards} shards: the warmed per-packet serve loop must not allocate"
    );
    let packets = (outputs.len() * trace.len()) as f64;
    let secs = elapsed.as_secs_f64();
    let pps = if secs > 0.0 { packets / secs } else { 0.0 };
    let point = ShardPoint {
        shards,
        quiesced_identical: true,
        churn_verified_packets: verified,
        publishes,
        packets_per_sec: pps,
        ns_per_packet: if packets > 0.0 { elapsed.as_nanos() as f64 / packets } else { 0.0 },
        speedup: baseline_pps.map_or(1.0, |base| if base > 0.0 { pps / base } else { 1.0 }),
        hit_rate: telemetry.hit_rate(),
        snapshot_refreshes: telemetry.per_shard.iter().map(|s| s.snapshot_refreshes).sum(),
        hot_path_allocs,
        pinned_shards: telemetry.per_shard.iter().filter(|s| s.pinned).count(),
        latency_p50_ns: telemetry.per_shard.iter().map(|s| s.latency_p50_ns).max().unwrap_or(0),
        latency_p99_ns: telemetry.per_shard.iter().map(|s| s.latency_p99_ns).max().unwrap_or(0),
    };
    rt.shutdown();
    point
}

/// Measures one traffic profile on a fresh quiesced runtime: warm
/// pass, then `batches` pipelined submissions, returning (pps, hit
/// rate). Correctness is spot-checked against the sequential oracle on
/// the first batch (the shard sweep's churn verifier covers the deep
/// end; here the traffic *shape* is the variable).
fn profile_run(
    set: &offilter::FilterSet,
    batches: &[std::sync::Arc<[HeaderValues]>],
    shards: usize,
) -> (f64, f64) {
    let switch = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("switch builds");
    let oracle = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("oracle builds");
    let rt = Runtime::new(switch, &RuntimeConfig::with_shards(shards));
    // batches[0] is the warm-up / oracle-check batch; only batches[1..]
    // are timed (and, for the scan profile, never seen again — the warm
    // pass must not pre-populate the cache with timed headers).
    let first = batches.first().expect("at least one batch");
    assert_eq!(
        rt.classify_rows(first),
        Classifier::classify_batch(&oracle, first),
        "{shards} shards: profile output diverges from the oracle"
    );
    let _ = rt.classify_rows(first);
    let warm = rt.telemetry().cache();
    let started = Instant::now();
    let mut tickets = std::collections::VecDeque::with_capacity(8);
    for batch in &batches[1..] {
        tickets.push_back(rt.submit(std::sync::Arc::clone(batch)));
        if tickets.len() >= 8 {
            let _ = tickets.pop_front().expect("nonempty").wait();
        }
    }
    while let Some(t) = tickets.pop_front() {
        let _ = t.wait();
    }
    let secs = started.elapsed().as_secs_f64();
    // Hit rate over the timed portion only (the warm passes would
    // otherwise pollute the scan profile's zero-reuse property).
    let total = rt.telemetry().cache();
    let timed = classifier_api::CacheStats {
        hits: total.hits - warm.hits,
        misses: total.misses - warm.misses,
        ..classifier_api::CacheStats::default()
    };
    rt.shutdown();
    let packets = batches[1..].iter().map(|b| b.len()).sum::<usize>() as f64;
    (if secs > 0.0 { packets / secs } else { 0.0 }, timed.hit_rate())
}

/// The adversarial-traffic degradation sweep at one shard count:
/// the friendly Zipf baseline, an RSS-collision trace that pins every
/// packet onto shard 0 (via the runtime's own [`shard_of`] hash — the
/// software analogue of an RSS hash-collision attack), and a
/// never-repeating cache-busting scan. Each profile runs on a fresh
/// quiesced runtime so the shapes are compared like for like.
fn degradation_sweep(
    set: &offilter::FilterSet,
    shards: usize,
    batch_size: usize,
    batches: usize,
) -> Vec<DegradationPoint> {
    let cfg = TraceConfig {
        packets: batch_size,
        flows: (batch_size / 4).max(64),
        skew: 0.9,
        random_fraction: 0.125,
        oneshot_fraction: 0.1,
    };
    // Zipf and rss-pinned are *flow* traces: one batch, resubmitted —
    // flow recurrence (and so cache affinity) is their point. The scan
    // is the opposite: every batch holds fresh never-seen headers, so
    // the full run never reuses a cache entry.
    let repeat = |trace: Vec<HeaderValues>| -> Vec<std::sync::Arc<[HeaderValues]>> {
        let arc: std::sync::Arc<[HeaderValues]> = trace.into();
        vec![arc; batches + 1] // +1: the warm-up batch
    };
    let zipf = repeat(generate_trace(set, &cfg, crate::DEFAULT_SEED));
    let pinned_trace =
        generate_trace_where(set, &cfg, crate::DEFAULT_SEED, &|h| shard_of(h, shards) == 0);
    assert!(
        pinned_trace.iter().all(|h| shard_of(h, shards) == 0),
        "rss-pinned trace must land entirely on shard 0"
    );
    let pinned = repeat(pinned_trace);
    let scan: Vec<std::sync::Arc<[HeaderValues]>> =
        generate_scan_trace(set, batch_size * (batches + 1), crate::DEFAULT_SEED)
            .chunks(batch_size)
            .map(std::sync::Arc::from)
            .collect();

    let mut points = Vec::with_capacity(3);
    let (base_pps, base_hit) = profile_run(set, &zipf, shards);
    points.push(DegradationPoint {
        profile: "zipf".to_owned(),
        packets_per_sec: base_pps,
        hit_rate: base_hit,
        slowdown_vs_zipf: 1.0,
    });
    for (profile, trace) in [("rss-pinned", &pinned), ("scan", &scan)] {
        let (pps, hit_rate) = profile_run(set, trace, shards);
        points.push(DegradationPoint {
            profile: profile.to_owned(),
            packets_per_sec: pps,
            hit_rate,
            slowdown_vs_zipf: if pps > 0.0 { base_pps / pps } else { 0.0 },
        });
    }
    points
}

/// Runs the sweep on one routing set.
///
/// # Panics
/// Panics if any consistency check fails (quiesced oracle equality,
/// versioned oracle under churn, zero hot-path allocations), or — when
/// `assert_scaling` is set and the sweep has a 4-shard point — if that
/// point scales below 2.5x the 1-shard run.
#[must_use]
pub fn run(
    w: &Workloads,
    router: &str,
    batch_size: usize,
    batches: usize,
    shard_counts: &[usize],
    assert_scaling: bool,
) -> RuntimeExperiment {
    let set = w.routing_of(router).expect("routing set exists");
    let cfg = TraceConfig {
        packets: batch_size,
        flows: (batch_size / 4).max(64),
        skew: 0.9,
        random_fraction: 0.125,
        oneshot_fraction: 0.1,
    };
    let trace = generate_trace(set, &cfg, crate::DEFAULT_SEED);

    let widest = shard_counts.iter().copied().max().unwrap_or(1);
    let mut points: Vec<ShardPoint> = Vec::with_capacity(shard_counts.len());
    let mut telemetry_json = String::new();
    for &shards in shard_counts {
        let baseline = points.first().map(|p| p.packets_per_sec);
        let point = shard_point(set, &trace, shards, batches, baseline);
        if shards == widest {
            // Re-derive a telemetry block for the widest point via a
            // fresh quiesced runtime (the sweep's runtime is gone).
            let switch = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("builds");
            let rt = Runtime::new(switch, &RuntimeConfig::with_shards(shards));
            let _ = rt.classify_rows(&trace);
            telemetry_json = rt.telemetry().to_json();
        }
        points.push(point);
    }
    let degradation = degradation_sweep(set, widest, batch_size, batches);

    let available_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let four = points.iter().find(|p| p.shards == 4);
    let scaling_asserted = assert_scaling && available_parallelism >= 4 && four.is_some();
    if scaling_asserted {
        let four = four.expect("checked above");
        assert!(
            four.speedup >= 2.5,
            "4-shard throughput must reach 2.5x the 1-shard run, got {:.2}x",
            four.speedup
        );
    }

    RuntimeExperiment {
        router: router.to_owned(),
        batch_size,
        batches,
        available_parallelism,
        scaling_asserted,
        points,
        degradation,
        telemetry_json,
    }
}

fn print_experiment(e: &RuntimeExperiment) {
    println!(
        "== Sharded runtime on {} ({}-packet batches x {}, {} hw threads, churn: continuous \
         add/remove; scaling bar {}) ==",
        e.router,
        e.batch_size,
        e.batches,
        e.available_parallelism,
        if e.scaling_asserted { "asserted" } else { "recorded only (needs >= 4 cores)" },
    );
    let rows: Vec<Vec<String>> = e
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.shards),
                format!("{}", p.quiesced_identical),
                format!("{}", p.churn_verified_packets),
                format!("{}", p.publishes),
                format!("{:.2}", p.packets_per_sec / 1e6),
                format!("{:.2}x", p.speedup),
                format!("{:.1}%", p.hit_rate * 100.0),
                format!("{}", p.hot_path_allocs),
                format!("{}", p.latency_p99_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "shards",
                "identical",
                "verified pkts",
                "publishes",
                "Mpps",
                "speedup",
                "hit rate",
                "hot allocs",
                "p99 ns",
            ],
            &rows
        )
    );
    let widest = e.points.iter().map(|p| p.shards).max().unwrap_or(1);
    println!("-- adversarial traffic degradation at {widest} shards (quiesced) --");
    let rows: Vec<Vec<String>> = e
        .degradation
        .iter()
        .map(|d| {
            vec![
                d.profile.clone(),
                format!("{:.2}", d.packets_per_sec / 1e6),
                format!("{:.1}%", d.hit_rate * 100.0),
                format!("{:.2}x", d.slowdown_vs_zipf),
            ]
        })
        .collect();
    println!("{}", render_table(&["profile", "Mpps", "hit rate", "slowdown"], &rows));
}

/// Prints the sweep and writes JSON — both the `runtime` artifact and
/// the canonical `BENCH_7` artifact (shard scaling + adversarial
/// degradation), which CI archives.
pub fn report(w: &Workloads) {
    let e = run(w, "boza", 4096, 48, &[1, 2, 4, 8], true);
    print_experiment(&e);
    write_json("runtime", &e);
    write_json("BENCH_7", &e);
}

/// A quick 2-shard churn run for local smoke checks (consistency
/// assertions are the point; throughput is recorded, never asserted).
/// CI runs the full [`report`] sweep, which subsumes this.
pub fn smoke(w: &Workloads) {
    let e = run(w, "bbra", 1024, 12, &[2], false);
    print_experiment(&e);
    write_json("runtime-smoke", &e);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_consistency_and_counts() {
        let w = Workloads::shared_quick();
        // Small batches: the assertions inside run() — quiesced oracle
        // equality, the versioned oracle under churn, zero hot-path
        // allocations — are the point; timing is recorded only.
        let e = run(w, "bbra", 256, 6, &[1, 2], false);
        assert_eq!(e.points.len(), 2);
        assert!(!e.scaling_asserted);
        for p in &e.points {
            assert!(p.quiesced_identical);
            assert!(p.churn_verified_packets >= 6 * 256, "{} shards", p.shards);
            assert_eq!(p.hot_path_allocs, 0, "{} shards", p.shards);
            assert!(p.packets_per_sec > 0.0, "{} shards", p.shards);
            assert!(p.publishes > 0, "churn must actually publish ({} shards)", p.shards);
        }
        assert!(e.telemetry_json.contains("\"per_shard\""));
        let profiles: Vec<&str> = e.degradation.iter().map(|d| d.profile.as_str()).collect();
        assert_eq!(profiles, ["zipf", "rss-pinned", "scan"]);
        for d in &e.degradation {
            assert!(d.packets_per_sec > 0.0, "{}", d.profile);
            assert!(d.slowdown_vs_zipf > 0.0, "{}", d.profile);
        }
        let zipf = &e.degradation[0];
        let scan = &e.degradation[2];
        assert!((zipf.slowdown_vs_zipf - 1.0).abs() < f64::EPSILON);
        // A never-repeating scan cannot hit a flow cache; the Zipf
        // baseline overwhelmingly does. (Throughput ordering is *not*
        // asserted — too machine-dependent for a unit test.)
        assert!(zipf.hit_rate > 0.5, "zipf hit rate {}", zipf.hit_rate);
        assert!(scan.hit_rate < 0.05, "scan hit rate {}", scan.hit_rate);
    }
}
