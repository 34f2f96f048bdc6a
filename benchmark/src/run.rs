//! One workload run: rounds of set-up and sequential phases, the checks,
//! and the metrics they yield.
//!
//! A run is [`ROUNDS`] rounds. Each round sets a fresh system up and
//! drives it through the four phases — closed loop, open loop, churn,
//! storm — for its share of `--seconds`; the samples of all rounds are
//! pooled and each end-to-end timing is the plain median of its pool
//! (`pps`: of the pooled 250 ms slices). The host this was written on
//! runs a fifth slower or faster for seconds to minutes at a time —
//! another tenant on the same core, by the look of it. A phase measured
//! in one stretch inherits the mood of its few seconds; the median of
//! five stretches spread over the run follows an episode only when it
//! covers half of them. `setup_s` is the median of the rounds' set-ups.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use classifier_api::{reference_classify, Classifier, ClassifierBuilder};
use mtl_core::MtlSwitch;
use mtl_runtime::{
    DurabilityConfig, Runtime, RuntimeConfig, RuntimeHandle, RuntimeTelemetry, ShardTelemetry,
};
use offilter::{FilterKind, FilterSet};
use oflow::HeaderValues;

use crate::host;
use crate::inputs::{self, Scale};
use crate::loadgen::{closed_loop, open_loop, ClosedLoop, OpenLoop, Tally, Traffic, Until};
use crate::spans::{Spans, OFF, ROOT};
use crate::spec::Workload;
use crate::stats::median;

/// Rounds in a run (see the module documentation).
pub const ROUNDS: usize = 5;

/// WAL records between checkpoints of the durable workload.
const CHECKPOINT_EVERY: u64 = 64;

/// Cold restores after each round of a durable workload, each checked
/// byte for byte; and how many the traced run's lab times for a median.
const RESTORES_PER_ROUND: usize = 2;
pub const RESTORES_TRACED: usize = 40;

/// Probes an update may take to become visible before it counts as
/// failed (each is a whole round trip; one is the rule, not the
/// exception, because a publish completes before `add_rule` returns).
const PROBE_LIMIT: usize = 10_000;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny tables and pools, for the smoke test.
    pub smoke: bool,
    /// Where result files, trace files and the durable store go.
    pub out: PathBuf,
}

impl Args {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }

    /// One round's share of a phase that gets `share` of the run.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share / ROUNDS as f64)
    }
}

/// Milliseconds each step of one set-up took.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub gen_rules_ms: f64,
    pub gen_trace_ms: f64,
    pub build_ms: f64,
    pub boot_ms: f64,
    pub total_s: f64,
}

/// What a round's system is built from and driven with. The same every
/// round: all of it is a function of the workload and the seed.
pub struct Inputs {
    pub set: FilterSet,
    pub batches: Vec<Arc<[HeaderValues]>>,
}

/// Milliseconds since `since`.
pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::with_shards(host::shards())
}

pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig { checkpoint_every: CHECKPOINT_EVERY, ..DurabilityConfig::new(dir) }
}

fn store_dir(args: &Args) -> PathBuf {
    args.out.join(format!("store-{}-{}", args.workload.name, std::process::id()))
}

impl Inputs {
    /// Generates the rules and the trace; returns the milliseconds each
    /// took.
    fn generate(args: &Args) -> (Self, f64, f64) {
        let t = Instant::now();
        let set = inputs::rules(args.workload.table, args.scale());
        let gen_rules_ms = ms(t);
        let t = Instant::now();
        let batches = inputs::batches(args.workload, &set, args.scale(), args.seed);
        (Self { set, batches }, gen_rules_ms, ms(t))
    }
}

/// `setup_s`: generate the rules and the trace, build the switch, boot
/// the runtime (for the durable workload: on an empty store directory,
/// so the boot writes and syncs checkpoint 1).
///
/// The inputs generated here are dropped again: every round is *driven*
/// with the run's first copy (see [`measure`]), whose headers sit in
/// memory in the order they are sent. A copy made later lands wherever
/// the allocator has holes, and walking it costs the worker more than
/// twice as much per cached packet — which would make `pps` a measure of
/// the heap's history.
fn set_up(args: &Args) -> (Runtime<MtlSwitch>, SetupTimes) {
    let start = Instant::now();
    let (Inputs { set, batches }, gen_rules_ms, gen_trace_ms) = Inputs::generate(args);
    drop(batches);
    let t = Instant::now();
    let switch = <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("switch builds");
    let build_ms = ms(t);
    let t = Instant::now();
    let runtime = if args.workload.durable {
        let dir = store_dir(args);
        let _ = std::fs::remove_dir_all(&dir);
        Runtime::with_durability(switch, &runtime_config(), &durability(&dir))
            .expect("durable boot on an empty directory")
            .0
    } else {
        Runtime::with_control(switch, &runtime_config())
    };
    let boot_ms = ms(t);
    let times = SetupTimes {
        gen_rules_ms,
        gen_trace_ms,
        build_ms,
        boot_ms,
        total_s: start.elapsed().as_secs_f64(),
    };
    (runtime, times)
}

/// The checker's side: the answers an independently built switch gives
/// to every batch, and the two metrics of the paper, read off that
/// switch on the workload's own trace.
pub struct Oracle {
    /// The checker's switch, for the layer lab: kept by a traced run
    /// only — an untraced run reports `peak_rss_mib`, and a second table
    /// in the process would be most of it.
    pub switch: Option<MtlSwitch>,
    pub expected: Vec<Vec<Option<u32>>>,
    pub mem_bits_per_rule: f64,
    pub mem_accesses_per_lookup: f64,
    /// Spot checks of the oracle itself against `reference_classify`.
    anchors: Tally,
}

fn oracle(inputs: &Inputs, keep_switch: bool) -> Oracle {
    let switch = <MtlSwitch as ClassifierBuilder>::try_build(&inputs.set).expect("oracle builds");
    let expected: Vec<Vec<Option<u32>>> =
        inputs.batches.iter().map(|b| Classifier::classify_batch(&switch, b)).collect();
    // Anchor the oracle to the trait-free definition: 256 packets spread
    // over the trace, plus the probe (which no base rule may match).
    let mut anchors = Tally::default();
    let stride = (inputs.batches.len() / 256).max(1);
    for (batch, want) in inputs.batches.iter().zip(&expected).step_by(stride) {
        let i = (anchors.attempted as usize * 37) % batch.len();
        anchors.count(reference_classify(&inputs.set.rules, &batch[i]) != want[i]);
    }
    anchors.count(Classifier::classify(&switch, &inputs::probe_header()).is_some());
    let packets = inputs.batches.iter().flat_map(|b| b.iter());
    let (lookups, accesses) =
        packets.fold((0usize, 0usize), |(n, sum), h| (n + 1, sum + switch.lookup_accesses(h)));
    Oracle {
        mem_bits_per_rule: switch.memory_bits() as f64 / inputs.set.len() as f64,
        mem_accesses_per_lookup: accesses as f64 / lookups as f64,
        switch: keep_switch.then_some(switch),
        expected,
        anchors,
    }
}

/// Lets the flow cache fill and lazy set-up finish before anything is
/// timed, and checks the answers (after the updates of a round: that
/// every one of them has been undone).
pub fn warm(handle: &RuntimeHandle<MtlSwitch>, traffic: Traffic<'_>) -> Tally {
    let mut tally = Tally::default();
    for (batch, want) in traffic.batches.iter().zip(traffic.expected).take(64) {
        tally.check(&handle.submit(Arc::clone(batch)).wait(), want);
    }
    tally
}

/// Churn-phase results; [`Churn::merge`] pools the updater's side of
/// several rounds.
#[derive(Debug, Default)]
pub struct Churn {
    /// The traffic beside the updater, of one round.
    pub traffic: OpenLoop,
    /// `add_rule()` call -> first probe answered by the new rule, ms.
    pub add_visible_ms: Vec<f64>,
    /// `remove_rule()` call -> first probe no longer answered by it, ms.
    pub remove_visible_ms: Vec<f64>,
    /// Call-return time of the same calls, ms.
    pub add_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    pub tally: Tally,
}

impl Churn {
    fn merge(&mut self, other: Churn) {
        self.add_visible_ms.extend(other.add_visible_ms);
        self.remove_visible_ms.extend(other.remove_visible_ms);
        self.add_ms.extend(other.add_ms);
        self.remove_ms.extend(other.remove_ms);
    }
}

/// Sends the probe until `seen` accepts its answer at `version` or
/// later. Returns whether that happened within [`PROBE_LIMIT`] probes.
fn probe_until(
    handle: &RuntimeHandle<MtlSwitch>,
    probe: &Arc<[HeaderValues]>,
    version: u64,
    seen: impl Fn(Option<u32>) -> bool,
) -> bool {
    (0..PROBE_LIMIT).any(|_| {
        let got = handle.submit(Arc::clone(probe)).wait();
        got.versions[0] >= version && seen(got.rows[0])
    })
}

/// The churn phase — the only place two of the benchmark's threads run
/// at once. The generator sends `traffic` open loop; one updater thread
/// adds a rule, probes until it answers, removes it, probes until it no
/// longer does, for `length`. The generator stops when the updater's
/// last pair is complete, so every update is timed under traffic.
fn churn_phase(
    handle: &RuntimeHandle<MtlSwitch>,
    traffic: Traffic<'_>,
    rate_pps: f64,
    length: Duration,
    spans: &mut Spans,
    phase: u32,
) -> Churn {
    let done = AtomicBool::new(false);
    let probe: Arc<[HeaderValues]> = Arc::from(vec![inputs::probe_header()]);
    let mut out = Churn::default();
    let mut updater_spans = spans.sharing_clock();
    out.traffic = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            host::place_updater();
            let start = Instant::now();
            let mut i = 0u32;
            while start.elapsed() < length {
                let rule = inputs::churn_rule(i);
                let id = rule.id;
                i += 1;
                let pair = updater_spans.open("update_pair", ROOT, i);
                let t = Instant::now();
                let added = updater_spans.time("add_rule", pair, || handle.add_rule(rule));
                let visible = added.is_ok_and(|(_, version)| {
                    out.add_ms.push(ms(t));
                    probe_until(handle, &probe, version, |row| row == Some(id))
                });
                if visible {
                    out.add_visible_ms.push(ms(t));
                }
                out.tally.count(!visible);
                let t = Instant::now();
                let removed = updater_spans.time("remove_rule", pair, || handle.remove_rule(id));
                let visible = removed.is_some_and(|(_, version)| {
                    out.remove_ms.push(ms(t));
                    probe_until(handle, &probe, version, |row| row != Some(id))
                });
                if visible {
                    out.remove_visible_ms.push(ms(t));
                }
                out.tally.count(!visible);
                updater_spans.close(pair);
            }
            done.store(true, SeqCst);
        });
        let traffic = open_loop(handle, traffic, rate_pps, Until::Set(&done), spans, phase);
        updater.join().expect("updater thread");
        traffic
    });
    spans.absorb(updater_spans, phase);
    out
}

/// Storm-phase results; [`Storm::merge`] pools those of several rounds.
#[derive(Debug, Default)]
pub struct Storm {
    /// Milliseconds each add/remove pair took.
    pub pair_ms: Vec<f64>,
    pub add_ack_ms: Vec<f64>,
    pub remove_ack_ms: Vec<f64>,
    pub tally: Tally,
}

impl Storm {
    fn merge(&mut self, other: Storm) {
        self.pair_ms.extend(other.pair_ms);
        self.add_ack_ms.extend(other.add_ack_ms);
        self.remove_ack_ms.extend(other.remove_ack_ms);
    }
}

/// The storm phase: add/remove pairs back to back from this thread,
/// nothing else running. On the durable workload every call is a WAL
/// append + fsync, and every 64th also a checkpoint. `first` numbers
/// the round's first rule, so that no two rounds install the same one.
fn storm_phase(
    handle: &RuntimeHandle<MtlSwitch>,
    seed: u64,
    first: u32,
    length: Duration,
    spans: &mut Spans,
    phase: u32,
) -> Storm {
    let mut out = Storm::default();
    let start = Instant::now();
    while start.elapsed() < length {
        let i = first + out.pair_ms.len() as u32;
        let rule = inputs::storm_rule(seed, i);
        let id = rule.id;
        let pair = spans.open("update_pair", phase, i + 1);
        let t = Instant::now();
        let added = spans.time("add_rule", pair, || handle.add_rule(rule));
        let add_ms = ms(t);
        let removed = spans.time("remove_rule", pair, || handle.remove_rule(id));
        spans.close(pair);
        out.pair_ms.push(ms(t));
        out.add_ack_ms.push(add_ms);
        out.remove_ack_ms.push(ms(t) - add_ms);
        out.tally.count(added.is_err());
        out.tally.count(removed.is_none());
    }
    out
}

/// A one-rule table: the fallback a restore must *not* end up serving.
fn fallback_switch(set: &FilterSet) -> MtlSwitch {
    let one = FilterSet::new("fallback", FilterKind::Routing, vec![set.rules[0].clone()]);
    <MtlSwitch as ClassifierBuilder>::try_build(&one).expect("fallback builds")
}

/// Cold restores: boots a fresh durable runtime from `dir` `count`
/// times; each must come back from disk, byte-identical to `image`.
/// Returns the boot times (ms) and the tally.
pub fn restores(
    dir: &Path,
    set: &FilterSet,
    image: &[u8],
    count: usize,
    spans: &mut Spans,
    phase: u32,
) -> (Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        let fallback = fallback_switch(set);
        let span = spans.open("restore", phase, 0);
        let t = Instant::now();
        let booted = Runtime::with_durability(fallback, &runtime_config(), &durability(dir));
        times.push(ms(t));
        spans.close(span);
        tally.count(!booted.is_ok_and(|(runtime, report)| {
            report.restored && runtime.master_image().as_deref() == Some(image)
        }));
    }
    (times, tally)
}

/// What the runtime's own counters say the closed-loop phase cost (the
/// per-layer metrics read the same telemetry production does).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub busy_ns: f64,
    pub batches: f64,
    pub packets: f64,
    pub idle_parks: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub trace_events: f64,
    pub snapshot_refreshes: f64,
    pub wall_s: f64,
}

impl Counters {
    /// Adds what the counters moved by between two snapshots.
    fn add_between(&mut self, before: &RuntimeTelemetry, after: &RuntimeTelemetry, wall_s: f64) {
        let sum = |t: &RuntimeTelemetry, f: fn(&ShardTelemetry) -> u64| -> f64 {
            t.per_shard.iter().map(f).sum::<u64>() as f64
        };
        let delta = |f: fn(&ShardTelemetry) -> u64| sum(after, f) - sum(before, f);
        let events =
            |t: &RuntimeTelemetry| t.trace.as_ref().map_or(0, |t| t.events_recorded) as f64;
        self.busy_ns += delta(|s| s.busy_ns);
        self.batches += delta(|s| s.batches);
        self.packets += delta(|s| s.packets);
        self.idle_parks += delta(|s| s.idle_parks);
        self.cache_hits += delta(|s| s.cache.hits);
        self.cache_misses += delta(|s| s.cache.misses);
        self.snapshot_refreshes += delta(|s| s.snapshot_refreshes);
        self.trace_events += events(after) - events(before);
        self.wall_s += wall_s;
    }
}

/// Heap allocations per batch over whole `submit()` -> `wait()` spans,
/// on every thread, one batch in flight at a time.
fn allocs_per_batch(handle: &RuntimeHandle<MtlSwitch>, traffic: Traffic<'_>) -> f64 {
    const BATCHES: usize = 256;
    crate::alloc::set_counting(true);
    let before = crate::alloc::allocations();
    for batch in traffic.batches.iter().cycle().take(BATCHES) {
        std::hint::black_box(handle.submit(Arc::clone(batch)).wait());
    }
    let counted = crate::alloc::allocations() - before;
    crate::alloc::set_counting(false);
    counted as f64 / BATCHES as f64
}

/// The samples of every round, pooled in the order they were taken.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// The closed-loop phase with spans off — all of it in an untraced
    /// run, the first half of each round's in a traced one.
    pub closed: ClosedLoop,
    /// The other half, spans on; the runtime's counters over the plain
    /// half; allocations per batch. Traced runs only.
    pub closed_traced: ClosedLoop,
    pub counters: Counters,
    pub allocs_per_batch: f64,
    /// The open loop `lat_p50_us` is read from — the quiet phase, or on
    /// a workload without one the traffic beside the updater — pooled
    /// over the rounds in which the generator kept its schedule.
    pub latency: OpenLoop,
    /// Rounds left out of `latency` because it did not.
    pub late_rounds: usize,
    pub churn: Churn,
    pub storm: Storm,
    pub tally: Tally,
}

/// One run: the pooled samples, the checker's oracle, the spans, the
/// inputs, the last round's set-up steps, and the memory the harness
/// itself held before the first set-up.
pub struct Measured {
    pub samples: Samples,
    pub oracle: Oracle,
    pub inputs: Inputs,
    pub times: SetupTimes,
    pub spans: Spans,
    harness_rss_mib: f64,
}

impl Measured {
    pub fn traffic(&self) -> Traffic<'_> {
        Traffic { batches: &self.inputs.batches, expected: &self.oracle.expected }
    }
}

/// One round's phases on a freshly set-up `runtime`.
fn round(
    args: &Args,
    inputs: &Inputs,
    oracle: &Oracle,
    runtime: Runtime<MtlSwitch>,
    m: &mut Samples,
    spans: &mut Spans,
    round_span: u32,
) {
    let w = args.workload;
    let traffic = Traffic { batches: &inputs.batches, expected: &oracle.expected };
    let handle = runtime.handle();
    m.tally.add(warm(&handle, traffic));

    // Phase 1, closed loop. A traced run spends half of it with the
    // spans off: the difference between the halves is the tracing
    // overhead, and the plain half is the one the counters describe.
    let length = args.phase(w.plan.closed);
    let closed = if args.trace {
        spans.set_on(false);
        let before = handle.telemetry();
        let start = Instant::now();
        let plain = closed_loop(&handle, traffic, w.window, length / 2, spans, OFF);
        let wall_s = start.elapsed().as_secs_f64();
        m.counters.add_between(&before, &handle.telemetry(), wall_s);
        m.allocs_per_batch = allocs_per_batch(&handle, traffic);
        spans.set_on(true);
        let phase = spans.open("closed_loop", round_span, 0);
        let traced = closed_loop(&handle, traffic, w.window, length / 2, spans, phase);
        spans.close(phase);
        m.tally.add(traced.tally);
        m.closed_traced.merge(traced);
        plain
    } else {
        closed_loop(&handle, traffic, w.window, length, spans, OFF)
    };

    // Phase 2, open loop with nothing beside it.
    let mut latency = OpenLoop::default();
    if w.plan.open > 0.0 {
        let phase = spans.open("open_loop", round_span, 0);
        let until = Until::Elapsed(args.phase(w.plan.open));
        latency = open_loop(&handle, traffic, w.open_rate_pps, until, spans, phase);
        spans.close(phase);
    }

    // Phase 3, open loop beside the updater.
    let phase = spans.open("churn", round_span, 0);
    let length = args.phase(w.plan.churn);
    let mut churn = churn_phase(&handle, traffic, w.open_rate_pps, length, spans, phase);
    spans.close(phase);
    if w.plan.open == 0.0 {
        latency = std::mem::take(&mut churn.traffic);
    }

    // Phase 4, the update storm, alone.
    let phase = spans.open("storm", round_span, 0);
    let first = m.storm.pair_ms.len() as u32;
    let length = args.phase(w.plan.storm);
    let storm = storm_phase(&handle, args.seed, first, length, spans, phase);
    spans.close(phase);
    let refreshes: u64 = handle.telemetry().per_shard.iter().map(|s| s.snapshot_refreshes).sum();
    m.counters.snapshot_refreshes += refreshes as f64;

    for tally in [closed.tally, latency.tally, churn.traffic.tally, churn.tally, storm.tally] {
        m.tally.add(tally);
    }
    m.closed.merge(closed);
    // Latencies taken while the generator itself ran late describe the
    // generator, not the runtime: they are left out, and counted.
    if latency.kept_schedule() {
        m.latency.merge(latency);
    } else {
        m.late_rounds += 1;
    }
    m.churn.merge(churn);
    m.storm.merge(storm);

    // Every update has been undone: the table must answer as it did
    // before the first one, and the probe must match nothing again.
    m.tally.add(warm(&handle, traffic));
    let probe: Arc<[HeaderValues]> = Arc::from(vec![inputs::probe_header()]);
    m.tally.count(handle.submit(probe).wait().rows[0].is_some());

    // Cold restores of the durable workload's store — which has one
    // owner at a time, so the measured runtime shuts down first.
    if w.durable {
        handle.checkpoint_now().expect("durable runtime checkpoints");
        let image = handle.master_image().expect("durable runtime has an image");
        drop(handle);
        drop(runtime);
        let phase = spans.open("restores", round_span, 0);
        let dir = store_dir(args);
        let (_, restored) = restores(&dir, &inputs.set, &image, RESTORES_PER_ROUND, spans, phase);
        spans.close(phase);
        m.tally.add(restored);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Runs every round of `args.workload`.
pub fn measure(args: &Args) -> Measured {
    std::fs::create_dir_all(&args.out).expect("output directory");
    let mut spans = Spans::new(args.trace);
    let mut samples = Samples { allocs_per_batch: f64::NAN, ..Samples::default() };
    // The copy of the inputs every round is driven with, made while the
    // heap is still untouched, and the checker's view of them. In an
    // untraced run the checker's switch is gone again before the first
    // set-up: what the process holds now is the harness's own.
    let (inputs, ..) = Inputs::generate(args);
    let oracle = oracle(&inputs, args.trace);
    samples.tally.add(oracle.anchors);
    let harness_rss_mib = host::rss_mib("VmRSS:");
    let mut times = SetupTimes::default();
    for number in 1..=ROUNDS as u32 {
        let runtime;
        (runtime, times) = set_up(args);
        samples.setup_s.push(times.total_s);
        let span = spans.open("round", ROOT, number);
        round(args, &inputs, &oracle, runtime, &mut samples, &mut spans, span);
        spans.close(span);
    }
    Measured { samples, oracle, inputs, times, spans, harness_rss_mib }
}

impl Measured {
    /// Whether the generator kept its schedule in most rounds. A run in
    /// which it did not is invalid: it is not reported.
    pub fn generator_valid(&self) -> bool {
        self.samples.late_rounds * 2 < ROUNDS
    }

    /// The end-to-end metrics: every timing the median of its pooled
    /// samples.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let s = &self.samples;
        vec![
            ("setup_s", median(&s.setup_s)),
            ("pps", s.closed.pps()),
            ("lat_p50_us", median(&s.latency.latency_ns) / 1e3),
            ("add_visible_p50_ms", median(&s.churn.add_visible_ms)),
            ("remove_visible_p50_ms", median(&s.churn.remove_visible_ms)),
            ("updates_per_s", 2e3 / median(&s.storm.pair_ms)),
            ("add_ack_p50_ms", median(&s.storm.add_ack_ms)),
            ("remove_ack_p50_ms", median(&s.storm.remove_ack_ms)),
            // What the system added to the process at its peak: the
            // harness's own share (trace, expected answers) would hide it.
            ("peak_rss_mib", host::rss_mib("VmHWM:") - self.harness_rss_mib),
            ("mem_bits_per_rule", self.oracle.mem_bits_per_rule),
            ("mem_accesses_per_lookup", self.oracle.mem_accesses_per_lookup),
        ]
    }
}
