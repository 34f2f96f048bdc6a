//! Flow-cache and SIMD-walk effectiveness under skewed traffic, served
//! by the runtime.
//!
//! Replays Zipf-distributed traces (uniform, `s = 0.8`, `s = 1.1`) —
//! with a realistic stream of one-shot scan garbage mixed in — through
//! a one-shard [`Runtime`] over the decomposition architecture, the only
//! path that caches in production, and reports **per stage**, not just
//! end to end:
//!
//! * **trie-walk stage**: ns/key of the interleaved multi-key walk,
//!   scalar vs SIMD (`ofalgo::simd_level`), result-equality asserted;
//! * **cache stage**: hit rate and ns/packet with the shard's cache
//!   under blind admission vs W-TinyLFU admission, same traces, same
//!   capacity — the frequency filter's whole point is the gap between
//!   those columns at low skew — plus the window-less TinyLFU hit rate,
//!   replayed on a bare [`FlowCache`] (the runtime does not offer that
//!   policy), isolating what the recency window buys;
//! * the cached runtime's speedup over the same runtime with its cache
//!   off, at this skew and against uniform traffic;
//! * **allocations per packet** in the warmed serve loop (required to
//!   be zero — cache entries and the admission sketch are flat `Copy`
//!   data);
//! * the full [`CacheStats`] counter block of the timed passes.
//!
//! Two Table I baselines (TSS, HiCuts) run behind the same runtime, and
//! their served results are asserted byte-identical to the bare engines
//! on every trace.
//!
//! Correctness is asserted, not sampled: for every skew and policy the
//! served rows must equal the bare engine's, including after an
//! incremental rule add + remove through the runtime's control plane.
//!
//! A recorded trace file (see `ofpacket::trace`) can replace the
//! synthetic sweep: `repro -- cache --trace FILE`.

use crate::alloc_probe;
use crate::data::Workloads;
use crate::output::{obj, render_table, write_json, Json, ToJson};
use classifier_api::{
    Admission, CacheStats, Classifier, ClassifierBuilder, DynamicClassifier, FlowCache,
};
use mtl_core::MtlSwitch;
use mtl_runtime::{Runtime, RuntimeConfig};
use ofbaseline::hicuts::HiCutsTree;
use ofbaseline::tss::TupleSpaceSearch;
use offilter::synth::{generate_trace, TraceConfig};
use offilter::{Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use std::sync::Arc;
use std::time::Instant;

/// One skew point of the sweep.
#[derive(Debug, Clone)]
pub struct SkewRow {
    /// Display label ("uniform", "zipf-0.8", ..., or "recorded").
    pub label: String,
    /// Zipf exponent of the trace (0 for recorded traces).
    pub skew: f64,
    /// Warmed hit rate of the runtime's cache under blind
    /// (always-admit) replacement.
    pub blind_hit_rate: f64,
    /// Warmed hit rate of the runtime's cache under W-TinyLFU admission
    /// (frequency filter + recency window — the default policy).
    pub tinylfu_hit_rate: f64,
    /// Warmed hit rate of a bare window-less TinyLFU [`FlowCache`] on
    /// the same trace — the A/B partner isolating what the recency
    /// window buys.
    pub tinylfu_nowindow_hit_rate: f64,
    /// ns/packet through the runtime with its cache off, scalar trie
    /// walks.
    pub uncached_scalar_ns_per_packet: f64,
    /// ns/packet through the runtime with its cache off, SIMD trie
    /// walks (equals the scalar column when no vector backend is
    /// active).
    pub uncached_simd_ns_per_packet: f64,
    /// ns/packet through the runtime with a blind-admission cache.
    pub cached_blind_ns_per_packet: f64,
    /// ns/packet through the runtime with a W-TinyLFU cache.
    pub cached_tinylfu_ns_per_packet: f64,
    /// `uncached (simd) / cached (tinylfu)` at this skew.
    pub speedup: f64,
    /// `uniform uncached / cached at this skew` — the cache's win over
    /// the uncached runtime on uniform traffic.
    pub speedup_vs_uniform_uncached: f64,
    /// Heap allocations per packet in the warmed cached serve loop.
    pub allocs_per_packet: f64,
    /// Counter block of the W-TinyLFU cache over the timed passes.
    pub stats: CacheStats,
}

fn stats_json(s: &CacheStats) -> Json {
    obj([
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("insertions", s.insertions.into()),
        ("evictions", s.evictions.into()),
        ("rejections", s.rejections.into()),
        ("capacity", s.capacity.into()),
        ("window_capacity", s.window_capacity.into()),
        ("window_hits", s.window_hits.into()),
        ("hit_rate", s.hit_rate().into()),
    ])
}

impl ToJson for SkewRow {
    fn to_json(&self) -> Json {
        obj([
            ("label", self.label.as_str().into()),
            ("skew", self.skew.into()),
            ("blind_hit_rate", self.blind_hit_rate.into()),
            ("tinylfu_hit_rate", self.tinylfu_hit_rate.into()),
            ("tinylfu_nowindow_hit_rate", self.tinylfu_nowindow_hit_rate.into()),
            ("uncached_scalar_ns_per_packet", self.uncached_scalar_ns_per_packet.into()),
            ("uncached_simd_ns_per_packet", self.uncached_simd_ns_per_packet.into()),
            ("cached_blind_ns_per_packet", self.cached_blind_ns_per_packet.into()),
            ("cached_tinylfu_ns_per_packet", self.cached_tinylfu_ns_per_packet.into()),
            ("speedup", self.speedup.into()),
            ("speedup_vs_uniform_uncached", self.speedup_vs_uniform_uncached.into()),
            ("allocs_per_packet", self.allocs_per_packet.into()),
            ("stats", stats_json(&self.stats)),
        ])
    }
}

/// The trie-walk stage in isolation: the interleaved multi-key walk
/// over the switch's own partition tries, fed the traffic's partition
/// keys, scalar vs vector lanes.
#[derive(Debug, Clone)]
pub struct TrieWalkStage {
    /// Keys looked up per repetition (all partitions).
    pub keys: usize,
    /// ns/key with the vector walks disabled.
    pub scalar_ns_per_key: f64,
    /// ns/key with the vector walks enabled (equals scalar when no
    /// backend is active).
    pub simd_ns_per_key: f64,
    /// `scalar / simd`.
    pub speedup: f64,
}

impl ToJson for TrieWalkStage {
    fn to_json(&self) -> Json {
        obj([
            ("keys", self.keys.into()),
            ("scalar_ns_per_key", self.scalar_ns_per_key.into()),
            ("simd_ns_per_key", self.simd_ns_per_key.into()),
            ("speedup", self.speedup.into()),
        ])
    }
}

/// One Table I baseline served by the runtime.
#[derive(Debug, Clone)]
pub struct CachedBaselineRow {
    /// Bare engine name ("tss", "hicuts").
    pub name: String,
    /// Served name ("tss+cache", ...).
    pub cached_name: String,
    /// Byte-identical to the bare engine on every trace (asserted; the
    /// flag records that the check ran).
    pub identical: bool,
    /// Warmed hit rate on the heaviest-skew trace.
    pub hit_rate: f64,
    /// ns/packet, bare engine batch, heaviest-skew trace.
    pub uncached_ns_per_packet: f64,
    /// ns/packet through the cached runtime, warmed, heaviest-skew
    /// trace.
    pub cached_ns_per_packet: f64,
    /// `uncached / cached`.
    pub speedup: f64,
}

impl ToJson for CachedBaselineRow {
    fn to_json(&self) -> Json {
        obj([
            ("name", self.name.as_str().into()),
            ("cached_name", self.cached_name.as_str().into()),
            ("identical", self.identical.into()),
            ("hit_rate", self.hit_rate.into()),
            ("uncached_ns_per_packet", self.uncached_ns_per_packet.into()),
            ("cached_ns_per_packet", self.cached_ns_per_packet.into()),
            ("speedup", self.speedup.into()),
        ])
    }
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct CacheExperiment {
    /// Router measured.
    pub router: String,
    /// Packets per trace.
    pub packets: usize,
    /// Distinct flows per trace.
    pub flows: usize,
    /// Fraction of packets that are one-shot scan garbage.
    pub oneshot_fraction: f64,
    /// Flow-cache slots of the serving shard.
    pub cache_capacity: usize,
    /// Timed repetitions per point.
    pub reps: usize,
    /// Where the traces came from ("synthetic" or a file path).
    pub trace_source: String,
    /// Active vector backend (`ofalgo::simd_level`).
    pub simd_level: String,
    /// The isolated trie-walk stage measurement.
    pub trie_walk: TrieWalkStage,
    /// One row per skew, sweep order.
    pub rows: Vec<SkewRow>,
    /// Baselines behind the runtime's cache.
    pub baselines: Vec<CachedBaselineRow>,
}

impl ToJson for CacheExperiment {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("packets", self.packets.into()),
            ("flows", self.flows.into()),
            ("oneshot_fraction", self.oneshot_fraction.into()),
            ("cache_capacity", self.cache_capacity.into()),
            ("reps", self.reps.into()),
            ("trace_source", self.trace_source.as_str().into()),
            ("simd_level", self.simd_level.as_str().into()),
            ("trie_walk", self.trie_walk.to_json()),
            ("rows", self.rows.to_json()),
            ("baselines", self.baselines.to_json()),
        ])
    }
}

/// The swept Zipf exponents: uniform, moderate skew, heavy skew.
pub const SKEWS: [(f64, &str); 3] = [(0.0, "uniform"), (0.8, "zipf-0.8"), (1.1, "zipf-1.1")];

/// Fraction of one-shot scan packets mixed into every synthetic trace.
/// Real traffic carries never-repeating garbage; it is exactly what
/// blind admission lets pollute the cache, so the sweep includes it.
pub const ONESHOT_FRACTION: f64 = 0.25;

/// `ofalgo::set_simd_enabled` is a process-global toggle: two
/// experiments A/B-ing scalar vs vector walks concurrently (parallel
/// test threads) would corrupt each other's timings. One experiment
/// runs at a time.
static SIMD_AB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Times `reps` runs of `f`, returning ns per item (of `items` per run).
fn time_per(reps: usize, items: usize, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        sink = sink.wrapping_add(f());
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / (reps * items.max(1)) as f64
}

/// A routing rule for the update-consistency probe (an id far above the
/// generated sets' ids).
fn probe_rule() -> Rule {
    Rule::new(
        900_000,
        u16::MAX,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, 1)
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A00_0000, 8)
            .unwrap(),
        RuleAction::Forward(77),
    )
}

/// A one-shard runtime configuration with the given cache in front of
/// the engine (`capacity` 0 turns it off) and the allocation probe wired
/// into the serve loop.
fn one_shard(capacity: usize, admission: Admission) -> RuntimeConfig {
    RuntimeConfig {
        shards: 1,
        cache_capacity: capacity,
        cache_admission: admission,
        pin_workers: false,
        alloc_counter: Some(alloc_probe::current),
        ..RuntimeConfig::default()
    }
}

/// What the timed passes of [`serve`] observed.
struct Served {
    ns_per_packet: f64,
    /// Cache counters accumulated over the timed passes only.
    stats: CacheStats,
    allocs_per_packet: f64,
}

/// Serves `trace` twice through `rt` to warm it, asserting every pass
/// answers `expect`, then times `reps` passes.
///
/// # Panics
/// Panics if a served pass differs from `expect`.
fn serve<C: Classifier + 'static>(
    rt: &Runtime<C>,
    trace: &Arc<[HeaderValues]>,
    expect: &[Option<u32>],
    reps: usize,
    ctx: &str,
) -> Served {
    for pass in 0..2 {
        assert_eq!(rt.classify_rows(trace), expect, "{ctx}: served pass {pass} diverges");
    }
    let before = rt.telemetry().cache();
    let allocs_before = rt.telemetry().hot_path_allocs();
    let ns_per_packet =
        time_per(reps, trace.len(), || rt.submit(Arc::clone(trace)).wait().rows.len());
    let after = rt.telemetry().cache();
    let allocs = rt.telemetry().hot_path_allocs() - allocs_before;
    Served {
        ns_per_packet,
        stats: CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            insertions: after.insertions - before.insertions,
            evictions: after.evictions - before.evictions,
            rejections: after.rejections - before.rejections,
            window_hits: after.window_hits - before.window_hits,
            ..after
        },
        allocs_per_packet: allocs as f64 / (reps * trace.len()).max(1) as f64,
    }
}

/// Warmed hit rate of a bare `cache` replaying `trace` (two warm passes,
/// one measured), installing the engine's `rows` on misses.
fn replay_hit_rate(mut cache: FlowCache, trace: &[HeaderValues], rows: &[Option<u32>]) -> f64 {
    for pass in 0..3 {
        if pass == 2 {
            cache.reset_stats();
        }
        for (h, &row) in trace.iter().zip(rows) {
            if cache.lookup(0, h).is_none() {
                cache.insert(0, h, row);
            }
        }
    }
    cache.hit_rate()
}

/// Measures the interleaved multi-key trie walk in isolation: the
/// switch's first trie engine's partition tries, fed the partition keys
/// of the given traffic, scalar vs vector.
///
/// # Panics
/// Panics if the switch has no trie engine or the scalar and vector
/// walks ever disagree.
fn trie_walk_stage(sw: &MtlSwitch, trace: &[HeaderValues], reps: usize) -> TrieWalkStage {
    let (field, pt) = sw
        .apps
        .iter()
        .flat_map(|a| a.tables.iter())
        .flat_map(|t| t.engines.iter())
        .find_map(|(f, e)| match e {
            mtl_core::FieldEngine::Trie(pt) => Some((*f, pt)),
            _ => None,
        })
        .expect("the architecture has at least one trie engine");
    let width = field.bit_width();
    let partitions = pt.partitions() as u32;
    let pb = width / partitions;
    let mask = (1u128 << pb) - 1;
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); partitions as usize];
    for h in trace {
        if let Some(v) = h.get(field) {
            for (p, part_keys) in keys.iter_mut().enumerate() {
                let shift = width - pb * (p as u32 + 1);
                part_keys.push(((v >> shift) & mask) as u64);
            }
        }
    }
    let total: usize = keys.iter().map(Vec::len).sum();
    let max_len = keys.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![None; max_len];
    let reps = reps.max(4) * 4;

    let walk_all = |out: &mut Vec<_>| {
        let mut sink = 0usize;
        for (p, part_keys) in keys.iter().enumerate() {
            pt.tries()[p].lookup_multi(part_keys, out);
            sink = sink.wrapping_add(out.iter().filter(|h| h.is_some()).count());
        }
        sink
    };

    ofalgo::set_simd_enabled(false);
    let scalar_ns = time_per(reps, total, || walk_all(&mut out));
    let mut scalar_out: Vec<Vec<_>> = Vec::new();
    for (p, part_keys) in keys.iter().enumerate() {
        let mut o = vec![None; part_keys.len()];
        pt.tries()[p].lookup_multi(part_keys, &mut o);
        scalar_out.push(o);
    }

    ofalgo::set_simd_enabled(true);
    let simd_ns = time_per(reps, total, || walk_all(&mut out));
    for (p, part_keys) in keys.iter().enumerate() {
        let mut o = vec![None; part_keys.len()];
        pt.tries()[p].lookup_multi(part_keys, &mut o);
        assert_eq!(o, scalar_out[p], "partition {p}: SIMD walk diverges from scalar");
    }

    TrieWalkStage {
        keys: total,
        scalar_ns_per_key: scalar_ns,
        simd_ns_per_key: simd_ns,
        speedup: if simd_ns > 0.0 { scalar_ns / simd_ns } else { 1.0 },
    }
}

/// One skew point: uncached scalar/SIMD timings, blind and W-TinyLFU
/// cached timings and hit rates, the update-consistency probe, the
/// allocation probe.
fn sweep_point(
    sw: &MtlSwitch,
    label: &str,
    skew: f64,
    trace: &[HeaderValues],
    cache_capacity: usize,
    reps: usize,
    uniform_uncached_ns: &mut f64,
) -> SkewRow {
    let trace: Arc<[HeaderValues]> = trace.into();
    let expect = Classifier::classify_batch(sw, &trace);

    // Uncached baseline: the same runtime with its cache off, scalar
    // then SIMD walks.
    let rt = Runtime::new(sw.clone(), &one_shard(0, Admission::TinyLfu));
    ofalgo::set_simd_enabled(false);
    let uncached_scalar = serve(&rt, &trace, &expect, reps, label);
    ofalgo::set_simd_enabled(true);
    let uncached_simd = serve(&rt, &trace, &expect, reps, label);
    drop(rt);
    if label == "uniform" || uniform_uncached_ns.is_nan() {
        *uniform_uncached_ns = uncached_simd.ns_per_packet;
    }

    let rt = Runtime::new(sw.clone(), &one_shard(cache_capacity, Admission::Blind));
    let blind = serve(&rt, &trace, &expect, reps, &format!("{label} (blind)"));
    drop(rt);

    let tinylfu_nowindow_hit_rate =
        replay_hit_rate(FlowCache::with_window(cache_capacity, 0), &trace, &expect);

    // W-TinyLFU, with an incremental add + remove through the control
    // plane first: the served rows must follow both publishes.
    let rt = Runtime::with_control(sw.clone(), &one_shard(cache_capacity, Admission::TinyLfu));
    let _ = serve(&rt, &trace, &expect, 1, label);
    let mut with_probe = sw.clone();
    with_probe.insert_rule(probe_rule()).expect("probe rule inserts");
    rt.add_rule(probe_rule()).expect("probe rule inserts");
    assert_eq!(
        rt.classify_rows(&trace),
        Classifier::classify_batch(&with_probe, &trace),
        "{label}: stale cache after add_rule"
    );
    rt.remove_rule(probe_rule().id).expect("probe rule exists");
    assert_eq!(rt.classify_rows(&trace), expect, "{label}: stale cache after remove_rule");
    let tinylfu = serve(&rt, &trace, &expect, reps, label);
    drop(rt);

    let cached_ns = tinylfu.ns_per_packet;
    let ratio = |uncached: f64| if cached_ns > 0.0 { uncached / cached_ns } else { 1.0 };
    SkewRow {
        label: label.to_owned(),
        skew,
        blind_hit_rate: blind.stats.hit_rate(),
        tinylfu_hit_rate: tinylfu.stats.hit_rate(),
        tinylfu_nowindow_hit_rate,
        uncached_scalar_ns_per_packet: uncached_scalar.ns_per_packet,
        uncached_simd_ns_per_packet: uncached_simd.ns_per_packet,
        cached_blind_ns_per_packet: blind.ns_per_packet,
        cached_tinylfu_ns_per_packet: cached_ns,
        speedup: ratio(uncached_simd.ns_per_packet),
        speedup_vs_uniform_uncached: ratio(*uniform_uncached_ns),
        allocs_per_packet: tinylfu.allocs_per_packet,
        stats: tinylfu.stats,
    }
}

/// Serves one baseline through a W-TinyLFU runtime, asserts results
/// byte-identical to the bare engine on every trace, and times bare vs
/// served on the last (heaviest-skew) trace.
fn cached_baseline<C: Classifier + 'static>(
    bare: C,
    traces: &[Arc<[HeaderValues]>],
    cache_capacity: usize,
    reps: usize,
) -> CachedBaselineRow {
    let bare = Arc::new(bare);
    let rt = Runtime::new(Arc::clone(&bare), &one_shard(cache_capacity, Admission::TinyLfu));
    let name = bare.name().to_owned();
    let cached_name = format!("{name}+cache");
    let mut last = None;
    for trace in traces {
        let want = bare.classify_batch(trace);
        last = Some(serve(&rt, trace, &want, reps, &cached_name));
    }
    let served = last.expect("at least one trace");
    let trace = traces.last().expect("at least one trace");
    let uncached_ns = time_per(reps, trace.len(), || bare.classify_batch(trace).len());
    CachedBaselineRow {
        name,
        cached_name,
        identical: true,
        hit_rate: served.stats.hit_rate(),
        uncached_ns_per_packet: uncached_ns,
        cached_ns_per_packet: served.ns_per_packet,
        speedup: if served.ns_per_packet > 0.0 { uncached_ns / served.ns_per_packet } else { 1.0 },
    }
}

/// Runs the sweep on one routing set over the given labelled traces.
///
/// # Panics
/// Panics if served and bare results ever disagree — for the
/// architecture under either admission policy, before or after
/// incremental updates, or for the baselines — or if the scalar and
/// SIMD trie walks diverge.
#[must_use]
pub fn run_on_traces(
    w: &Workloads,
    router: &str,
    traces: &[(String, f64, Vec<HeaderValues>)],
    flows: usize,
    reps: usize,
    trace_source: &str,
) -> CacheExperiment {
    // Serialise whole experiments: the scalar-vs-SIMD A/B toggling below
    // is process-global (a poisoned lock just means an earlier run's
    // assertion already failed — the toggle state is still consistent).
    let _ab = SIMD_AB_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let set = w.routing_of(router).expect("routing set exists");
    let sw = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("switch builds");
    // Half the flow pool: uniform traffic keeps the cache under
    // capacity pressure (the distribution sensitivity this experiment
    // exists to measure), and the one-shot scan stream stresses
    // admission on top.
    let cache_capacity = (flows / 2).next_power_of_two().max(16);
    let packets = traces.first().map_or(0, |(_, _, t)| t.len());

    let last_trace = &traces.last().expect("at least one trace").2;
    let trie_walk = trie_walk_stage(&sw, last_trace, reps);

    let mut uniform_uncached_ns = f64::NAN;
    let rows = traces
        .iter()
        .map(|(label, skew, trace)| {
            let ns = &mut uniform_uncached_ns;
            sweep_point(&sw, label, *skew, trace, cache_capacity, reps, ns)
        })
        .collect();

    let shared: Vec<Arc<[HeaderValues]>> =
        traces.iter().map(|(_, _, t)| t.as_slice().into()).collect();
    let baselines = vec![
        cached_baseline(
            TupleSpaceSearch::try_build(set).expect("tss builds"),
            &shared,
            cache_capacity,
            reps,
        ),
        cached_baseline(
            HiCutsTree::try_build(set).expect("hicuts builds"),
            &shared,
            cache_capacity,
            reps,
        ),
    ];

    CacheExperiment {
        router: router.to_owned(),
        packets,
        flows,
        oneshot_fraction: ONESHOT_FRACTION,
        cache_capacity,
        reps,
        trace_source: trace_source.to_owned(),
        simd_level: ofalgo::simd_level().to_owned(),
        trie_walk,
        rows,
        baselines,
    }
}

/// Runs the synthetic Zipf sweep on one routing set.
///
/// # Panics
/// See [`run_on_traces`].
#[must_use]
pub fn run(
    w: &Workloads,
    router: &str,
    packets: usize,
    flows: usize,
    reps: usize,
) -> CacheExperiment {
    let set = w.routing_of(router).expect("routing set exists");
    let traces: Vec<(String, f64, Vec<HeaderValues>)> = SKEWS
        .iter()
        .map(|&(skew, label)| {
            let cfg = TraceConfig {
                packets,
                flows,
                skew,
                random_fraction: 0.125,
                oneshot_fraction: ONESHOT_FRACTION,
            };
            (label.to_owned(), skew, generate_trace(set, &cfg, crate::DEFAULT_SEED))
        })
        .collect();
    run_on_traces(w, router, &traces, flows, reps, "synthetic")
}

/// Runs the experiment over one recorded trace (see
/// `ofpacket::trace::read_trace_file`) instead of the synthetic sweep.
/// The distinct headers of the trace stand in for the flow pool when
/// sizing the cache.
///
/// # Panics
/// See [`run_on_traces`]; also panics if the trace is empty.
#[must_use]
pub fn run_recorded(
    w: &Workloads,
    router: &str,
    trace: Vec<HeaderValues>,
    source: &str,
    reps: usize,
) -> CacheExperiment {
    assert!(!trace.is_empty(), "recorded trace is empty");
    let flows = trace.iter().collect::<std::collections::HashSet<_>>().len();
    let traces = vec![("recorded".to_owned(), 0.0, trace)];
    run_on_traces(w, router, &traces, flows, reps, source)
}

fn print_experiment(e: &CacheExperiment) {
    println!(
        "== Flow cache on {} via the runtime ({} packets/trace, {} flows + {:.0}% one-shot \
         scan, {}-slot cache, simd={}, traces: {}) ==",
        e.router,
        e.packets,
        e.flows,
        e.oneshot_fraction * 100.0,
        e.cache_capacity,
        e.simd_level,
        e.trace_source,
    );
    println!(
        "trie-walk stage: {} keys, scalar {:.2} ns/key, {} {:.2} ns/key ({:.2}x)",
        e.trie_walk.keys,
        e.trie_walk.scalar_ns_per_key,
        e.simd_level,
        e.trie_walk.simd_ns_per_key,
        e.trie_walk.speedup
    );
    let rows: Vec<Vec<String>> = e
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.2}", r.skew),
                format!("{:.1}%", r.blind_hit_rate * 100.0),
                format!("{:.1}%", r.tinylfu_nowindow_hit_rate * 100.0),
                format!("{:.1}%", r.tinylfu_hit_rate * 100.0),
                format!("{:.0}", r.uncached_scalar_ns_per_packet),
                format!("{:.0}", r.uncached_simd_ns_per_packet),
                format!("{:.0}", r.cached_blind_ns_per_packet),
                format!("{:.0}", r.cached_tinylfu_ns_per_packet),
                format!("{:.2}x", r.speedup),
                format!("{:.2}", r.allocs_per_packet),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "trace",
                "skew",
                "blind hit",
                "tlfu hit",
                "w-tlfu hit",
                "scalar ns",
                "simd ns",
                "blind ns",
                "w-tlfu ns",
                "speedup",
                "allocs/pkt",
            ],
            &rows
        )
    );
    let rows: Vec<Vec<String>> = e
        .baselines
        .iter()
        .map(|b| {
            vec![
                b.cached_name.clone(),
                format!("{}", b.identical),
                format!("{:.1}%", b.hit_rate * 100.0),
                format!("{:.0}", b.uncached_ns_per_packet),
                format!("{:.0}", b.cached_ns_per_packet),
                format!("{:.2}x", b.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["baseline", "identical", "hit rate", "bare ns", "served ns", "speedup"],
            &rows
        )
    );
}

/// Prints the synthetic sweep and writes JSON.
pub fn report(w: &Workloads) {
    let e = run(w, "boza", 4096, 1024, 32);
    print_experiment(&e);
    write_json("cache", &e);
}

/// Prints the recorded-trace run and writes JSON.
///
/// # Panics
/// Panics if the trace file cannot be read or parsed.
pub fn report_recorded(w: &Workloads, path: &std::path::Path) {
    let trace = ofpacket::trace::read_trace_file(path)
        .unwrap_or_else(|e| panic!("cannot read trace {}: {e}", path.display()));
    let e = run_recorded(w, "boza", trace, &path.display().to_string(), 32);
    print_experiment(&e);
    write_json("cache", &e);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_measures() {
        let w = Workloads::shared_quick();
        // Small trace: the correctness assertions inside run() (served ==
        // bare for the architecture under both policies, before and after
        // incremental updates, and for the baselines; SIMD == scalar) are
        // the point.
        let e = run(w, "bbra", 1024, 256, 2);
        assert_eq!(e.rows.len(), 3);
        for r in &e.rows {
            assert!(r.uncached_scalar_ns_per_packet > 0.0, "{}", r.label);
            assert!(r.cached_tinylfu_ns_per_packet > 0.0, "{}", r.label);
            assert!((0.0..=1.0).contains(&r.blind_hit_rate), "{}", r.label);
            assert!((0.0..=1.0).contains(&r.tinylfu_hit_rate), "{}", r.label);
            assert!((0.0..=1.0).contains(&r.tinylfu_nowindow_hit_rate), "{}", r.label);
            assert_eq!(
                r.stats.window_capacity,
                (e.cache_capacity / 100).max(2),
                "{}: the default cache reports its ~1% recency window",
                r.label
            );
            // The counter block is real: hits + misses cover the timed
            // lookups.
            assert!(r.stats.hits + r.stats.misses > 0, "{}", r.label);
            assert!(
                (r.stats.hit_rate() - r.tinylfu_hit_rate).abs() < 1e-9,
                "{}: stats hit rate mismatch",
                r.label
            );
        }
        // Hit rate grows with skew: the cache holds half the flow pool,
        // so uniform traffic stays under pressure while heavy-tail
        // traffic concentrates on the cached elephant flows.
        assert!(
            e.rows[2].tinylfu_hit_rate > e.rows[0].tinylfu_hit_rate,
            "s=1.1 hit rate {} <= uniform {}",
            e.rows[2].tinylfu_hit_rate,
            e.rows[0].tinylfu_hit_rate
        );
        assert!(
            e.rows[2].tinylfu_hit_rate > 0.5,
            "elephant flows must hit: {}",
            e.rows[2].tinylfu_hit_rate
        );
        // Both baselines ran behind the runtime, byte-identically.
        assert_eq!(e.baselines.len(), 2);
        assert!(e.baselines.iter().all(|b| b.identical));
        assert!(e.trie_walk.keys > 0);
    }

    /// Under uniform traffic with scan garbage, W-TinyLFU admission must
    /// beat the blind policy's hit rate by >= 1.2x — frequency-aware
    /// admission keeps one-hit wonders from evicting the resident flows.
    #[test]
    fn tinylfu_beats_blind_at_uniform() {
        let w = Workloads::shared_quick();
        let e = run(w, "bbra", 2048, 512, 2);
        let uniform = &e.rows[0];
        assert!(
            uniform.tinylfu_hit_rate >= 1.2 * uniform.blind_hit_rate,
            "uniform: TinyLFU {:.3} < 1.2 x blind {:.3}",
            uniform.tinylfu_hit_rate,
            uniform.blind_hit_rate
        );
        assert!(uniform.stats.rejections > 0, "admission filter never rejected");
    }

    /// The warmed serve loop performs zero heap allocations — the cache
    /// (including the admission sketch) cannot regress the
    /// architecture's allocation behaviour.
    #[test]
    fn warmed_cached_path_is_allocation_free() {
        let w = Workloads::shared_quick();
        let e = run(w, "bbra", 512, 128, 1);
        for r in &e.rows {
            assert_eq!(
                r.allocs_per_packet, 0.0,
                "{}: the cached serve loop must not allocate after warmup",
                r.label
            );
        }
    }

    #[test]
    fn recorded_trace_drives_the_experiment() {
        let w = Workloads::shared_quick();
        let set = w.routing_of("bbra").unwrap();
        let cfg = TraceConfig {
            packets: 512,
            flows: 64,
            skew: 0.9,
            random_fraction: 0.125,
            oneshot_fraction: 0.1,
        };
        let trace = generate_trace(set, &cfg, 77);
        // Round-trip through the on-disk format, then replay.
        let mut buf = Vec::new();
        ofpacket::trace::write_trace(&mut buf, &trace).unwrap();
        let replayed = ofpacket::trace::read_trace(buf.as_slice()).unwrap();
        assert_eq!(replayed, trace);
        let e = run_recorded(w, "bbra", replayed, "roundtrip-buffer", 1);
        assert_eq!(e.rows.len(), 1);
        assert_eq!(e.rows[0].label, "recorded");
        assert_eq!(e.trace_source, "roundtrip-buffer");
        assert!(e.flows <= 512 && e.flows > 64, "distinct headers: {}", e.flows);
    }
}
