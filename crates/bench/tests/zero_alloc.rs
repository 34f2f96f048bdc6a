//! Zero-allocation properties of the lookup and serve paths.
//!
//! This test binary links `mtl-bench`, whose [`alloc_probe`] installs a
//! counting global allocator with a thread-local counter. Each test
//! warms its path first (scratch buffers grow to their high-water mark
//! on first use), then asserts the steady state allocates nothing:
//!
//! * the decomposition architecture's single-packet
//!   `MtlSwitch::classify`, counted on the calling thread;
//! * the runtime's cached serve loop, counted by the workers through
//!   [`RuntimeConfig::alloc_counter`] and surfaced as `hot_path_allocs`;
//! * the same serve loop at 1 and 2 shards while a control-plane thread
//!   adds and removes rules, so every batch may run behind a fresh
//!   publish;
//! * the serve loop at 1 and 2 shards under a scan that holds the flow
//!   caches in bypass (every packet straight from the table, about one
//!   in 64 through the cache).

use classifier_api::{Admission, Classifier, ClassifierBuilder};
use mtl_bench::alloc_probe;
use mtl_bench::data::Workloads;
use mtl_bench::table1::probe_trace;
use mtl_core::MtlSwitch;
use mtl_runtime::{Runtime, RuntimeConfig};
use offilter::synth::{generate_scan_trace, generate_trace, TraceConfig};
use offilter::{FilterSet, Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

/// The quick `bbra` routing set every test runs on.
fn bbra() -> &'static FilterSet {
    Workloads::shared_quick().routing_of("bbra").expect("bbra routing set")
}

fn switch(set: &FilterSet) -> MtlSwitch {
    <MtlSwitch as ClassifierBuilder>::try_build(set).expect("switch builds")
}

/// A Zipf flow trace over `set` with one-shot scan packets mixed in.
fn flow_trace(set: &FilterSet, packets: usize, flows: usize, skew: f64) -> Arc<[HeaderValues]> {
    let cfg = TraceConfig { packets, flows, skew, random_fraction: 0.125, oneshot_fraction: 0.25 };
    generate_trace(set, &cfg, mtl_bench::DEFAULT_SEED).into()
}

/// A high-priority rule (an id far above the generated sets') whose
/// port varies with `round`, so successive publishes change answers.
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

fn probed(shards: usize, cache_capacity: usize, admission: Admission) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        ring_capacity: 64,
        cache_capacity,
        cache_admission: admission,
        pin_workers: false,
        alloc_counter: Some(alloc_probe::current),
        ..RuntimeConfig::default()
    }
}

#[test]
fn warmed_single_packet_classify_is_allocation_free() {
    let sw = switch(bbra());
    let headers = probe_trace(Workloads::shared_quick(), "bbra", 256);
    let mut sink = 0usize;
    for h in &headers {
        sink = sink.wrapping_add(Classifier::classify(&sw, h).unwrap_or(0) as usize);
    }
    let (sunk, allocs) = alloc_probe::allocations_in(|| {
        headers
            .iter()
            .fold(0usize, |s, h| s.wrapping_add(Classifier::classify(&sw, h).unwrap_or(0) as usize))
    });
    assert_eq!(sunk, sink, "the warm and probed passes answer alike");
    assert_eq!(allocs, 0, "MtlSwitch::classify must not allocate after warmup");
}

#[test]
fn warmed_cached_serve_loop_is_allocation_free() {
    let set = bbra();
    let sw = switch(set);
    for skew in [0.0, 0.8, 1.1] {
        let trace = flow_trace(set, 512, 128, skew);
        let want = Classifier::classify_batch(&sw, &trace);
        for admission in [Admission::Blind, Admission::TinyLfu] {
            let rt = Runtime::with_control(sw.clone(), &probed(1, 64, admission));
            // Warm, then publish an add and a remove so the probed passes
            // run on a cache that has caught up with both.
            for _ in 0..2 {
                assert_eq!(rt.classify_rows(&trace), want, "skew {skew}, {admission:?}");
            }
            rt.add_rule(churn_rule(0)).expect("probe rule inserts");
            rt.remove_rule(churn_rule(0).id).expect("probe rule exists");
            assert_eq!(rt.classify_rows(&trace), want, "skew {skew}, {admission:?}: after update");
            let warm = rt.telemetry().hot_path_allocs();
            for _ in 0..4 {
                let _ = rt.submit(Arc::clone(&trace)).wait();
            }
            assert_eq!(
                rt.telemetry().hot_path_allocs() - warm,
                0,
                "skew {skew}, {admission:?}: the cached serve loop must not allocate after warmup"
            );
            rt.shutdown();
        }
    }
}

#[test]
fn serve_loop_stays_allocation_free_under_churn() {
    let set = bbra();
    let trace = flow_trace(set, 256, 64, 0.9);
    for shards in [1, 2] {
        let rt = Runtime::with_control(switch(set), &probed(shards, 512, Admission::TinyLfu));
        for _ in 0..2 {
            let _ = rt.classify_rows(&trace);
        }
        let warm = rt.telemetry().hot_path_allocs();
        let stop = AtomicBool::new(false);
        let handle = rt.handle();
        let cycles = std::thread::scope(|scope| {
            let churn = scope.spawn(|| {
                let mut cycles = 0u32;
                while !stop.load(SeqCst) {
                    let rule = churn_rule(cycles);
                    let id = rule.id;
                    handle.add_rule(rule).expect("churn rule inserts");
                    handle.remove_rule(id).expect("churn rule exists");
                    cycles += 1;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                cycles
            });
            // At least six batches, and at least one add/remove cycle
            // published mid-run; capped in case the churn thread wedges.
            let mut batches = 0;
            while batches < 6 || (rt.version() < 3 && batches < 6 * 64) {
                let _ = rt.submit(Arc::clone(&trace)).wait();
                batches += 1;
            }
            stop.store(true, SeqCst);
            churn.join().expect("churn thread")
        });
        assert!(cycles > 0, "{shards} shards: churn must actually publish");
        assert_eq!(
            rt.telemetry().hot_path_allocs() - warm,
            0,
            "{shards} shards: the warmed serve loop must not allocate under churn"
        );
        rt.shutdown();
    }
}

#[test]
fn bypassed_serve_loop_is_allocation_free() {
    let set = bbra();
    let sw = switch(set);
    // Twelve batches of never-repeating flows, each 16x a shard's cache.
    let scan = generate_scan_trace(set, 12 * 1024, mtl_bench::DEFAULT_SEED);
    let batches: Vec<Arc<[HeaderValues]>> = scan.chunks(1024).map(Arc::from).collect();
    for shards in [1, 2] {
        let rt = Runtime::with_control(sw.clone(), &probed(shards, 64, Admission::TinyLfu));
        // The first batches fill each cache's first two decision
        // windows with misses; from then on the shards bypass.
        for batch in &batches[..4] {
            let _ = rt.submit(Arc::clone(batch)).wait();
        }
        let warm = rt.telemetry();
        for batch in &batches[4..] {
            let out = rt.submit(Arc::clone(batch)).wait();
            assert_eq!(out.rows, Classifier::classify_batch(&sw, batch), "{shards} shards");
        }
        let t = rt.telemetry();
        assert_eq!(t.cache().mode_switches, shards as u64, "{shards} shards: one switch a shard");
        assert!(
            t.cache().bypassed - warm.cache().bypassed >= 8 * 1024 * 63 / 64 - 64,
            "{shards} shards: the scan must be served in bypass ({:?})",
            t.cache()
        );
        assert_eq!(
            t.hot_path_allocs() - warm.hot_path_allocs(),
            0,
            "{shards} shards: the bypassed serve loop must not allocate"
        );
        rt.shutdown();
    }
}
