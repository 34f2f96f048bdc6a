//! Flow-cache consistency under incremental updates, through the runtime.
//!
//! The runtime is the one place that caches: each shard fronts the
//! published table with its own `FlowCache`, stamps entries with the
//! publish version, and on a publish either keeps the entries the change
//! cannot affect or drops the cache as a whole. These tests drive random
//! interleavings of control-plane updates and served classification and
//! assert, after **every** update, that the served answers (cold and
//! cache-warm) equal the reference oracle — exactly the bug class
//! (serving stale rows) a carry-over or epoch mistake would produce.
//! Both admission policies are driven: W-TinyLFU (the default — its
//! rejections and sketch-guided evictions must never change *what* is
//! served, only *whether* it is memoised) and blind replacement. Scan
//! phases between the hot ones put the shards' caches into bypass, so
//! updates also land while the caches are bypassed and must not leave a
//! stale row for the cache to serve once it is back. The cache's own
//! invariants are unit-tested on `FlowCache` in `classifier-api`.

use classifier_api::{reference_classify, Admission, ClassifierBuilder};
use mtl_core::{MtlSwitch, SwitchConfig};
use mtl_runtime::{shard_of, Runtime, RuntimeConfig, RuntimeHandle};
use offilter::{FilterKind, FilterSet, Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use proptest::prelude::*;

fn route(id: u32, port: u32, value: u32, len: u32, out: u32) -> Rule {
    Rule::new(
        id,
        len as u16,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(port))
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, u128::from(value), len)
            .unwrap(),
        RuleAction::Forward(out),
    )
}

fn header(port: u32, dst: u32) -> HeaderValues {
    HeaderValues::new()
        .with(MatchFieldKind::InPort, u128::from(port))
        .with(MatchFieldKind::Ipv4Dst, u128::from(dst))
}

/// A pool of nested/overlapping routing rules for update sequences.
fn rule_pool() -> Vec<Rule> {
    let mut pool = Vec::new();
    let mut id = 0;
    for port in 1..=2u32 {
        for (value, len) in [
            (0x0000_0000, 0),
            (0x0A00_0000, 8),
            (0x0A01_0000, 16),
            (0x0A01_8000, 17),
            (0x0A01_0200, 24),
            (0x0A01_0280, 25),
            (0x0B00_0000, 8),
            (0x0B0B_0000, 16),
        ] {
            pool.push(route(id, port, value, len, id + 100));
            id += 1;
        }
    }
    pool
}

/// Probe headers hitting the pool's nesting structure plus misses.
fn probes() -> Vec<HeaderValues> {
    let mut out = Vec::new();
    for port in 1..=3u32 {
        for dst in [
            0x0A01_0203u32,
            0x0A01_0281,
            0x0A01_8001,
            0x0A01_FFFF,
            0x0A02_0000,
            0x0B0B_0001,
            0x0BFF_0000,
            0xDEAD_BEEF,
        ] {
            out.push(header(port, dst));
        }
    }
    out
}

/// A small runtime configuration: `shards` unpinned workers, each with
/// a `capacity`-slot cache under `admission`.
fn config(shards: usize, capacity: usize, admission: Admission) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        ring_capacity: 8,
        cache_capacity: capacity,
        cache_admission: admission,
        pin_workers: false,
        ..RuntimeConfig::default()
    }
}

/// Asserts that two served passes over `headers` (the second largely
/// from the now-warm caches) both equal the oracle over `rules`, and
/// that every packet was served by the latest published version — the
/// one `rules` describes.
fn assert_served<C: classifier_api::Classifier + 'static>(
    rt: &RuntimeHandle<C>,
    rules: &[Rule],
    headers: &[HeaderValues],
    ctx: &str,
) {
    let want: Vec<Option<u32>> = headers.iter().map(|h| reference_classify(rules, h)).collect();
    for pass in 0..2 {
        let out = rt.classify_batch(headers);
        assert_eq!(out.rows, want, "{ctx} pass {pass}");
        assert!(out.versions.iter().all(|&v| v == rt.version()), "{ctx} pass {pass}: versions");
    }
}

/// The largest per-shard cache the update test runs; a scan phase sends
/// 16 times as many distinct flows.
const SCAN_FLOWS: u32 = 16 * 64;

/// Serves `SCAN_FLOWS` never-repeating flows, numbered from `*next`
/// (which advances), in 64-packet batches across the pool's rules and
/// misses: enough lookups for every shard's cache to see a scan. Every
/// answer must equal the oracle over `rules`.
fn scan_phase<C: classifier_api::Classifier + 'static>(
    rt: &RuntimeHandle<C>,
    rules: &[Rule],
    next: &mut u32,
    ctx: &str,
) {
    let flows: Vec<HeaderValues> =
        (*next..*next + SCAN_FLOWS).map(|i| header(1 + i % 3, 0x0A00_0000 + i * 0x0101)).collect();
    *next += SCAN_FLOWS;
    for batch in flows.chunks(64) {
        let want: Vec<Option<u32>> = batch.iter().map(|h| reference_classify(rules, h)).collect();
        let out = rt.classify_batch(batch);
        assert_eq!(out.rows, want, "{ctx}: scan");
        assert!(out.versions.iter().all(|&v| v == rt.version()), "{ctx}: scan versions");
    }
}

/// Serves the probe set over and over until every shard it reaches has
/// its cache back (an even count of mode switches: into bypass and out
/// again), checking every answer against the oracle.
fn hot_until_cached<C: classifier_api::Classifier + 'static>(
    rt: &RuntimeHandle<C>,
    rules: &[Rule],
    shards: usize,
    ctx: &str,
) {
    let probes = probes();
    let reached: Vec<usize> = probes.iter().map(|h| shard_of(h, shards)).collect();
    let batch: Vec<HeaderValues> = probes.iter().cycle().take(64 * probes.len()).cloned().collect();
    let want: Vec<Option<u32>> = batch.iter().map(|h| reference_classify(rules, h)).collect();
    let cached = |rt: &RuntimeHandle<C>| {
        let t = rt.telemetry();
        reached.iter().all(|&s| t.per_shard[s].cache.mode_switches.is_multiple_of(2))
    };
    let mut batches = 0;
    while !cached(rt) {
        assert!(batches < 400, "{ctx}: hot traffic never got its cache back");
        assert_eq!(rt.classify_batch(&batch).rows, want, "{ctx}: hot batch {batches}");
        batches += 1;
    }
    assert_served(rt, rules, &probes, &format!("{ctx}: cache back"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of add_rule / remove_rule with served
    /// classification: after every update, runtimes caching under
    /// **both** admission policies, at 1, 2 and 3 shards, must answer as
    /// the oracle (no stale rows survive a publish, and TinyLFU's
    /// admission decisions never alter served results). A scan phase
    /// comes before the first update and after every hot phase, so
    /// every update is published while the caches are bypassed, and at
    /// the end hot traffic brings them back.
    #[test]
    fn cached_classification_survives_random_updates(
        seed_mask in 1u32..0xFFFF,
        ops in proptest::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 1..12)
    ) {
        let pool = rule_pool();
        // Seed table: the pool rules whose bit is set in seed_mask (at
        // least one — rule 0 is always included).
        let seeded: Vec<Rule> = pool
            .iter()
            .enumerate()
            .filter(|&(i, _)| i == 0 || seed_mask & (1 << (i % 16)) != 0)
            .map(|(_, r)| r.clone())
            .collect();
        let set = FilterSet::preserving_ids("fc", FilterKind::Routing, seeded.clone());
        let sw = MtlSwitch::build(&SwitchConfig::single_app(FilterKind::Routing, 0), &[&set]);
        let mut live: Vec<Rule> = seeded;
        // A deliberately tiny TinyLFU cache (constant admission
        // pressure) and a blind cache, over 1, 2 and 3 shards each.
        let runtimes: Vec<(String, usize, Runtime<MtlSwitch>)> = [1, 2, 3]
            .into_iter()
            .flat_map(|shards| {
                [
                    ("tinylfu", config(shards, 16, Admission::TinyLfu)),
                    ("blind", config(shards, 64, Admission::Blind)),
                ]
                .map(|(policy, cfg)| {
                    (format!("{policy}, {shards} shards"), shards, Runtime::with_control(sw.clone(), &cfg))
                })
            })
            .collect();
        let headers = probes();
        let mut next = 0;

        // Warm the caches on the seed state (entries that MUST not be
        // served stale after the updates below), then scan them into
        // bypass.
        for (name, _, rt) in &runtimes {
            assert_served(rt, &live, &headers, &format!("seed ({name})"));
            scan_phase(rt, &live, &mut next, &format!("seed ({name})"));
            let bypassed = rt.telemetry().cache().bypassed;
            prop_assert!(bypassed > 0, "{}: the scan must bypass the cache", name);
        }

        for (i, (add, which)) in ops.iter().enumerate() {
            if *add {
                // Add a pool rule not currently live (if any).
                let missing: Vec<&Rule> =
                    pool.iter().filter(|r| !live.iter().any(|l| l.id == r.id)).collect();
                if missing.is_empty() {
                    continue;
                }
                let rule = missing[which.index(missing.len())].clone();
                for (_, _, rt) in &runtimes {
                    rt.add_rule(rule.clone()).expect("pool rule inserts");
                }
                live.push(rule);
            } else {
                if live.len() <= 1 {
                    continue;
                }
                let victim = live[which.index(live.len())].id;
                for (_, _, rt) in &runtimes {
                    rt.remove_rule(victim).expect("victim is live");
                }
                live.retain(|r| r.id != victim);
            }
            for (name, _, rt) in &runtimes {
                assert_served(rt, &live, &headers, &format!("op {i} ({name})"));
                scan_phase(rt, &live, &mut next, &format!("op {i} ({name})"));
            }
        }
        for (name, shards, rt) in &runtimes {
            hot_until_cached(rt, &live, *shards, &format!("end ({name})"));
        }
    }
}

#[test]
fn epoch_advances_on_every_mutation() {
    let pool = rule_pool();
    let set = FilterSet::preserving_ids("fc", FilterKind::Routing, vec![pool[0].clone()]);
    let config = SwitchConfig::single_app(FilterKind::Routing, 0);
    let mut sw = MtlSwitch::build(&config, &[&set]);
    let e0 = sw.epoch();
    sw.add_rule(FilterKind::Routing, pool[1].clone());
    let e1 = sw.epoch();
    assert!(e1 > e0, "add_rule must bump the epoch");
    sw.remove_rule(FilterKind::Routing, pool[1].id).expect("rule exists");
    let e2 = sw.epoch();
    assert!(e2 > e1, "remove_rule must bump the epoch");
}

/// A baseline engine served by a caching runtime stays oracle-consistent
/// across dynamic updates through the control plane: TSS inserts in
/// place and rebuilds on remove, and the runtime's caches follow both.
#[test]
fn cached_tss_stays_consistent_under_updates() {
    use ofbaseline::tss::TupleSpaceSearch;
    let pool = rule_pool();
    let seed: Vec<Rule> = pool[..8].to_vec();
    let set = FilterSet::preserving_ids("fc", FilterKind::Routing, seed.clone());
    let tss = TupleSpaceSearch::try_build(&set).unwrap();
    let rt = Runtime::with_control(tss, &config(2, 64, Admission::TinyLfu));
    let mut live = seed;
    let headers = probes();
    assert_served(&rt, &live, &headers, "seed");
    rt.add_rule(pool[10].clone()).expect("tss insert works");
    live.push(pool[10].clone());
    assert_served(&rt, &live, &headers, "after insert");
    let victim = live[2].id;
    rt.remove_rule(victim).expect("rule exists");
    live.retain(|r| r.id != victim);
    assert_served(&rt, &live, &headers, "after remove");
    assert!(rt.telemetry().cache().hits > 0, "warm passes must be served from the cache");
}

/// Shards each serve their slice of a batch through their own cache;
/// whatever the shard count, the merged answers equal the bare batch
/// path, cold and warm.
#[test]
fn cache_aware_parallel_batch_agrees() {
    let pool = rule_pool();
    let set = FilterSet::preserving_ids("fc", FilterKind::Routing, pool);
    let sw = <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("switch builds");
    // A trace with repeats (cache hits) across shard boundaries.
    let headers: Vec<HeaderValues> =
        (0..500).map(|i| probes()[i % probes().len()].clone()).collect();
    let want = classifier_api::Classifier::classify_batch(&sw, &headers);
    for shards in [1usize, 2, 3, 7] {
        let rt = Runtime::new(sw.clone(), &config(shards, 64, Admission::TinyLfu));
        assert_eq!(rt.classify_rows(&headers), want, "shards = {shards}");
        // Re-running with warm caches stays identical.
        assert_eq!(rt.classify_rows(&headers), want, "warm shards = {shards}");
        assert!(rt.telemetry().cache().hits > 0, "warm rerun must serve hits (shards = {shards})");
        assert!(rt.classify_rows(&[]).is_empty());
    }
}
