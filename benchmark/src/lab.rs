//! The traced run's layer lab: every layer timed on its own, through
//! its public functions, on the workload's own rules and packets — plus
//! the per-layer numbers the phases and the runtime's telemetry yield.
//!
//! Nothing here is gated. The point is attribution: README.md lists, for
//! each of these, the end-to-end cell it should move and on which
//! workload, so that a change can be checked against its own prediction.

use std::hint::black_box;
use std::time::{Duration, Instant};

use classifier_api::{Admission, Classifier, DynamicClassifier, FlowCache};
use mtl_core::{FieldEngine, MtlSwitch, SwitchMemoryReport};
use mtl_persist::{CheckpointMode, Persistent, Store, WalOp};
use mtl_runtime::ring::spsc;
use mtl_runtime::{shard_of, Runtime, RuntimeConfig, SnapshotCell};
use mtl_trace::{EventKind, FlightRecorder};
use ofalgo::{Label, MatchChain, MULTI_WAY};
use offilter::FilterKind;
use oflow::HeaderValues;

use crate::host;
use crate::inputs;
use crate::loadgen::{closed_loop, Tally};
use crate::run::{self, Args, Measured};
use crate::spans::{Spans, OFF, ROOT};
use crate::spec::Flows;
use crate::stats::{median, quantile};

/// Packets a per-packet microbenchmark walks over (the head of the
/// workload's trace), and how many times.
const SAMPLE: usize = 16_384;
const PASSES: usize = 8;

/// Repetitions of a per-table operation (clone, encode, checkpoint...).
const REPS: usize = 5;

/// Nanoseconds per item of `f` run over `items`, [`PASSES`] times; the
/// median pass, so that one interrupted pass does not count.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&passes)
}

/// Median milliseconds of `f` over [`REPS`] runs.
fn ms_of<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            run::ms(t)
        })
        .collect();
    median(&times)
}

struct Ofalgo {
    lookup_ns: f64,
    lookup_multi_ns: f64,
    chain_into_ns: f64,
}

/// `ofalgo`: the first partition trie of the first trie-matched field,
/// walked with the sample's own keys.
fn ofalgo(switch: &MtlSwitch, sample: &[&HeaderValues]) -> Ofalgo {
    let (field, trie) = switch.apps[0]
        .tables
        .iter()
        .flat_map(|t| &t.engines)
        .find_map(|(field, engine)| match engine {
            FieldEngine::Trie(trie) => Some((*field, trie)),
            _ => None,
        })
        .expect("a routing table has a trie-matched field");
    let shift = trie.field_bits() - trie.partition_bits();
    let mask = (1u64 << trie.partition_bits()) - 1;
    let keys: Vec<u64> =
        sample.iter().map(|h| (h.get(field).unwrap_or(0) >> shift) as u64 & mask).collect();
    let mbt = &trie.tries()[0];
    let lookup_ns = ns_per_item(&keys, |&k| {
        black_box(mbt.lookup(black_box(k)));
    });
    let groups: Vec<&[u64]> = keys.chunks(MULTI_WAY).collect();
    let mut out = [None; MULTI_WAY];
    let lookup_multi_ns = ns_per_item(&groups, |group| {
        mbt.lookup_multi(black_box(group), &mut out);
        black_box(&out);
    }) / MULTI_WAY as f64;
    let mut chain = MatchChain::new();
    let chain_into_ns = ns_per_item(&keys, |&k| {
        mbt.chain_into(black_box(k), &mut chain);
        black_box(&chain);
    });
    Ofalgo { lookup_ns, lookup_multi_ns, chain_into_ns }
}

/// One probe key per sample packet for the largest index table: the
/// best label of each field's match chain, behind — where the table
/// keys on the previous table's metadata — the first metadata value
/// that makes the key hit (none does for a packet no rule matches; its
/// key then misses, as such a packet's probes do).
fn index_keys(switch: &MtlSwitch, sample: &[&HeaderValues]) -> (usize, Vec<Vec<Label>>) {
    let app = &switch.apps[0];
    let (at, table) = app
        .tables
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.index.len())
        .expect("an application has tables");
    let metadata_values = if table.config.uses_metadata && at > 0 {
        app.tables[at - 1].actions.len() as u32
    } else {
        0
    };
    let keys = sample
        .iter()
        .map(|h| {
            let mut key: Vec<Label> = Vec::new();
            if table.config.uses_metadata {
                key.push(Label(0));
            }
            for (field, engine) in &table.engines {
                let chains = match h.get(*field) {
                    Some(v) => engine.search(v),
                    None => engine.search_missing(),
                };
                key.extend(chains.iter().map(|c| c.best().map_or(Label(u32::MAX), |(l, _)| l)));
            }
            if let Some(m) = (0..metadata_values).find(|&m| {
                key[0] = Label(m);
                table.index.probe(&key).is_some()
            }) {
                key[0] = Label(m);
            }
            key
        })
        .collect();
    (at, keys)
}

struct Cache {
    hit_ns: f64,
    miss_ns: f64,
    insert_ns: f64,
    rejections: f64,
}

/// `classifier-api`: a flow cache configured as the runtime's, probed
/// with packets whose flow is resident (hit) and with flows it never saw
/// (miss), and filled with more flows than it holds (insert, with
/// TinyLFU's rejections).
fn cache(sample: &[&HeaderValues], pool: &[HeaderValues]) -> Cache {
    let capacity = RuntimeConfig::default().cache_capacity;
    let mut cache = FlowCache::with_admission(capacity, Admission::TinyLfu);
    for &h in sample {
        if cache.lookup(1, h).is_none() {
            cache.insert(1, h, Some(0));
        }
    }
    // The sample's packets that found their flow resident, in the order
    // and with the repetition the trace has them (all but a handful of a
    // Zipf trace's; the few of a scan's whose flow kept its slot).
    let hits: Vec<&HeaderValues> =
        sample.iter().copied().filter(|h| cache.lookup(1, h).is_some()).collect();
    let hit_ns = ns_per_item(&hits, |h| {
        black_box(cache.lookup(1, black_box(h)));
    });
    // The pool's tail: distinct from the sample's head on every workload
    // (a Zipf trace's hot set may by chance hold one of them; a hit in
    // 16 384 would not move a median).
    let strangers = &pool[pool.len() - SAMPLE.min(pool.len())..];
    let miss_ns = ns_per_item(strangers, |h| {
        black_box(cache.lookup(1, black_box(h)));
    });
    let mut cache = FlowCache::with_admission(capacity, Admission::TinyLfu);
    let t = Instant::now();
    for (i, h) in strangers.iter().enumerate() {
        cache.insert(1, black_box(h), Some(i as u32));
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / strangers.len() as f64;
    Cache { hit_ns, miss_ns, insert_ns, rejections: cache.stats().rejections as f64 }
}

struct Persist {
    encode_ms: f64,
    decode_ms: f64,
    image_bytes: f64,
    wal_append_us: f64,
    wal_bytes_per_op: f64,
    checkpoint_ms: f64,
    recover_ms: f64,
    store_bytes: f64,
    restore_ms: Vec<f64>,
    tally: Tally,
}

/// `mtl-persist` and the codec in `mtl-core`, on a store of the lab's
/// own under the output directory: image encode/decode, WAL appends,
/// checkpoints, recovery scans, and whole-runtime cold restores.
fn persist(args: &Args, m: &Measured, switch: &MtlSwitch, spans: &mut Spans, lab: u32) -> Persist {
    const APPENDS: u32 = 64;
    let mut tally = Tally::default();
    let image = switch.encode_image();
    let encode_ms = ms_of(|| switch.encode_image());
    let decode_ms = ms_of(|| MtlSwitch::decode_image(&image).expect("own image decodes"));

    let dir = args.out.join(format!("lab-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir).expect("lab store opens");
    let mut version = 0;
    let checkpoint_ms = ms_of(|| {
        version += 1;
        store.checkpoint(version, &image, CheckpointMode::Durable).expect("checkpoint is written")
    });
    let appends: Vec<f64> = (0..APPENDS)
        .map(|i| {
            let rule = inputs::storm_rule(args.seed, i);
            let payload = WalOp::Add { kind: FilterKind::Routing, rule }.encode();
            let t = Instant::now();
            store.append(&payload).expect("WAL append");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let disk = store.disk_stats().expect("store directory is readable");
    drop(store);
    let recover_ms = ms_of(|| {
        let mut store = Store::open(&dir).expect("lab store reopens");
        let point = store.restore().expect("restore scan").expect("a checkpoint exists");
        tally.count(point.image != image || point.wal_tail.len() != APPENDS as usize);
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Whole-runtime cold restores, from a store a durable runtime wrote.
    let (runtime, _) =
        Runtime::with_durability(switch.clone(), &run::runtime_config(), &run::durability(&dir))
            .expect("durable boot on an empty directory");
    let live = runtime.master_image().expect("durable runtime has an image");
    drop(runtime);
    let phase = spans.open("lab.restores", lab, 0);
    let count = if args.smoke { 2 } else { run::RESTORES_TRACED };
    let (restore_ms, restored) = run::restores(&dir, &m.inputs.set, &live, count, spans, phase);
    spans.close(phase);
    tally.add(restored);
    let _ = std::fs::remove_dir_all(&dir);

    Persist {
        encode_ms,
        decode_ms,
        image_bytes: image.len() as f64,
        wal_append_us: median(&appends),
        wal_bytes_per_op: disk.wal_bytes as f64 / f64::from(APPENDS),
        checkpoint_ms,
        recover_ms,
        store_bytes: (disk.wal_bytes + disk.snapshot_bytes) as f64,
        restore_ms,
        tally,
    }
}

/// Closed-loop `pps` of a second runtime that differs from the measured
/// one in one thing: the flight recorder is off.
fn pps_without_recorder(
    args: &Args,
    m: &Measured,
    switch: &MtlSwitch,
    length: Duration,
) -> (f64, Tally) {
    let config = RuntimeConfig { flight_recorder: false, ..run::runtime_config() };
    let runtime = Runtime::with_control(switch.clone(), &config);
    let handle = runtime.handle();
    let mut tally = run::warm(&handle, m.traffic());
    let mut off = Spans::new(false);
    let closed = closed_loop(&handle, m.traffic(), args.workload.window, length, &mut off, OFF);
    tally.add(closed.tally);
    (closed.pps(), tally)
}

/// Every per-layer metric of `spec::PER_LAYER`.
pub fn per_layer(args: &Args, m: &mut Measured) -> Vec<(&'static str, f64)> {
    let w = args.workload;
    let mut spans = std::mem::replace(&mut m.spans, Spans::new(false));
    let lab = spans.open("lab", ROOT, 0);
    let switch = m.oracle.switch.as_ref().expect("a traced run keeps the checker's switch");
    // References into the batches themselves: a copy would sit elsewhere
    // in memory, and where the headers sit is half of what a lookup costs.
    let sample: Vec<&HeaderValues> =
        m.inputs.batches.iter().flat_map(|b| b.iter()).take(SAMPLE).collect();

    let algo = spans.time("lab.ofalgo", lab, || ofalgo(switch, &sample));

    let span = spans.open("lab.mtl-core", lab, 0);
    let classify_ns = ns_per_item(&sample, |h| {
        black_box(Classifier::classify(switch, black_box(h)));
    });
    let batches = &m.inputs.batches[..(SAMPLE / w.batch).clamp(1, m.inputs.batches.len())];
    let classify_batch_ns = ns_per_item(batches, |batch| {
        black_box(Classifier::classify_batch(switch, black_box(batch)));
    }) / w.batch as f64;
    let (table, keys) = index_keys(switch, &sample);
    let index = &switch.apps[0].tables[table].index;
    let index_probe_ns = ns_per_item(&keys, |key| {
        black_box(index.probe(black_box(key)));
    });
    let clone_ms = ms_of(|| switch.clone());
    let mut scratch = switch.clone();
    let (mut insert_ms, mut remove_ms) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for i in 0..REPS as u32 {
        let rule = inputs::storm_rule(args.seed, i);
        let id = rule.id;
        let t = Instant::now();
        scratch.insert_rule(rule).expect("storm rule inserts");
        insert_ms.push(run::ms(t));
        let t = Instant::now();
        DynamicClassifier::remove_rule(&mut scratch, id).expect("storm rule is stored");
        remove_ms.push(run::ms(t));
    }
    let memory = SwitchMemoryReport::of(switch);
    spans.close(span);

    let span = spans.open("lab.classifier-api", lab, 0);
    // The table's whole flow pool (the trace holds only what it sends).
    let pool = inputs::flow_pool(&m.inputs.set, args.scale().pool);
    let cache = cache(&sample, &pool);
    drop(pool);
    spans.close(span);

    let span = spans.open("lab.mtl-runtime", lab, 0);
    let (mut tx, mut rx) = spsc::<u64>(RuntimeConfig::default().ring_capacity);
    let ring_push_pop_ns = ns_per_item(&sample, |_| {
        tx.push(black_box(7)).expect("ring has room");
        black_box(rx.pop());
    });
    let shard_of_ns = ns_per_item(&sample, |h| {
        black_box(shard_of(black_box(h), 4));
    });
    let cell = SnapshotCell::new(switch.clone());
    let publishes: Vec<f64> = (0..REPS)
        .map(|_| {
            let next = switch.clone();
            let t = Instant::now();
            cell.publish(next);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(cell);
    spans.close(span);

    let span = spans.open("lab.mtl-persist", lab, 0);
    let persist = persist(args, m, switch, &mut spans, span);
    spans.close(span);
    let mut tally = persist.tally;

    let span = spans.open("lab.mtl-trace", lab, 0);
    let recorder = FlightRecorder::new(1, mtl_trace::DEFAULT_EVENTS_PER_LANE);
    let lane = recorder.shard_lane(0);
    let emit_ns = ns_per_item(&sample, |_| recorder.emit(lane, EventKind::BatchServe, 1, 1));
    let (pps_off, checked) = pps_without_recorder(args, m, switch, args.phase(w.plan.closed) * 2);
    tally.add(checked);
    spans.close(span);
    spans.close(lab);

    // From the phases: spans, samples and the runtime's own counters.
    let p = &m.samples;
    let c = &p.counters;
    let cycle_ns = 1e9 / p.closed.batches_per_s();
    let overhead_ns = cycle_ns - c.busy_ns / c.batches;
    let hit_rate = c.cache_hits / (c.cache_hits + c.cache_misses);
    // The twins must stress what they claim: a trace meant to fit the
    // flow cache that misses it, or a scan that hits it, measures
    // something else than its name says.
    if !args.smoke {
        tally.count(match w.flows {
            Flows::ZipfHot => hit_rate < 0.99,
            Flows::Scan => hit_rate > 0.01,
        });
    }
    let lat = &p.latency;
    let stage_sum_ns = hit_rate * cache.hit_ns
        + (1.0 - hit_rate) * (cache.miss_ns + classify_ns + cache.insert_ns)
        + overhead_ns / w.batch as f64;
    let packet_ns = 1e9 / p.closed.pps();
    let window = w.window as f64;
    let in_flight = p.closed.batches_per_s() * p.closed.round_trip_ns() / 1e9;
    let visible_samples = p.churn.add_visible_ms.len() + p.churn.remove_visible_ms.len();

    let values = vec![
        ("ofalgo.mbt_lookup_ns", algo.lookup_ns),
        ("ofalgo.mbt_lookup_multi_ns", algo.lookup_multi_ns),
        ("ofalgo.chain_into_ns", algo.chain_into_ns),
        ("mtl-core.classify_ns", classify_ns),
        ("mtl-core.index_probe_ns", index_probe_ns),
        ("mtl-core.classify_batch_ns", classify_batch_ns),
        ("mtl-core.clone_ms", clone_ms),
        ("mtl-core.insert_rule_ms", median(&insert_ms)),
        ("mtl-core.remove_rule_ms", median(&remove_ms)),
        ("mtl-core.build_ms", m.times.build_ms),
        (
            "mtl-core.memory_bits.tries",
            (memory.mbt_bits + memory.lut_bits + memory.range_bits) as f64,
        ),
        ("mtl-core.memory_bits.index", memory.index_bits as f64),
        ("mtl-core.memory_bits.actions", memory.action_bits as f64),
        ("mtl-core.encode_ms", persist.encode_ms),
        ("mtl-core.decode_ms", persist.decode_ms),
        ("mtl-core.image_bytes", persist.image_bytes),
        ("classifier-api.cache_hit_ns", cache.hit_ns),
        ("classifier-api.cache_miss_ns", cache.miss_ns),
        ("classifier-api.cache_insert_ns", cache.insert_ns),
        ("classifier-api.cache_rejections", cache.rejections),
        ("classifier-api.cache_hit_rate", hit_rate),
        ("mtl-runtime.submit_ns", median(&spans.durations_under("submit", "closed_loop"))),
        ("mtl-runtime.wait_ns", median(&spans.durations_under("wait", "closed_loop"))),
        ("mtl-runtime.round_trip_ns", p.closed.round_trip_ns()),
        ("mtl-runtime.overhead_ns_per_batch", overhead_ns),
        ("mtl-runtime.overhead_share", overhead_ns / cycle_ns),
        ("mtl-runtime.allocs_per_batch", p.allocs_per_batch),
        ("mtl-runtime.ring_push_pop_ns", ring_push_pop_ns),
        ("mtl-runtime.shard_of_ns", shard_of_ns),
        ("mtl-runtime.idle_parks", c.idle_parks),
        ("mtl-runtime.service_ns_per_packet", c.busy_ns / c.packets),
        ("mtl-runtime.busy_share", c.busy_ns / (c.wall_s * 1e9 * host::shards() as f64)),
        ("mtl-runtime.snapshot_publish_us", median(&publishes)),
        ("mtl-runtime.snapshot_refreshes", c.snapshot_refreshes),
        ("mtl-runtime.add_rule_ms", median(&p.churn.add_ms)),
        ("mtl-runtime.remove_rule_ms", median(&p.churn.remove_ms)),
        ("mtl-runtime.add_visible_p90_ms", quantile(&p.churn.add_visible_ms, 0.9)),
        ("mtl-runtime.remove_visible_p90_ms", quantile(&p.churn.remove_visible_ms, 0.9)),
        ("mtl-runtime.visible_samples", visible_samples as f64),
        ("mtl-runtime.restore_p50_ms", median(&persist.restore_ms)),
        ("mtl-runtime.restore_samples", persist.restore_ms.len() as f64),
        ("mtl-runtime.boot_ms", m.times.boot_ms),
        ("mtl-persist.wal_append_us", persist.wal_append_us),
        ("mtl-persist.wal_bytes_per_op", persist.wal_bytes_per_op),
        ("mtl-persist.checkpoint_ms", persist.checkpoint_ms),
        ("mtl-persist.recover_ms", persist.recover_ms),
        ("mtl-persist.store_bytes", persist.store_bytes),
        ("mtl-trace.emit_ns", emit_ns),
        ("mtl-trace.events_per_batch", c.trace_events / c.batches),
        ("mtl-trace.tax_share", (pps_off - p.closed.pps()) / pps_off),
        ("offilter.gen_rules_ms", m.times.gen_rules_ms),
        ("offilter.gen_trace_ms", m.times.gen_trace_ms),
        ("loadgen.lat_p90_us", quantile(&lat.latency_ns, 0.9) / 1e3),
        ("loadgen.lat_p99_us", quantile(&lat.latency_ns, 0.99) / 1e3),
        ("loadgen.lat_p999_us", quantile(&lat.latency_ns, 0.999) / 1e3),
        ("loadgen.samples", lat.latency_ns.len() as f64),
        ("loadgen.late_p99_us", quantile(&lat.late_ns, 0.99) / 1e3),
        ("loadgen.backlog_end", lat.backlog_end as f64),
        ("loadgen.late_rounds", p.late_rounds as f64),
        ("loadgen.pps_slice_iqr", p.closed.slice_iqr()),
        ("budget.stage_sum_ns", stage_sum_ns),
        ("budget.gap_share", (packet_ns - stage_sum_ns) / packet_ns),
        ("budget.little_gap", (in_flight - window).abs() / window),
        ("trace.overhead_share", (p.closed.pps() - p.closed_traced.pps()) / p.closed.pps()),
        ("trace.spans", spans.list.len() as f64),
    ];
    m.samples.tally.add(tally);
    m.spans = spans;
    values
}
