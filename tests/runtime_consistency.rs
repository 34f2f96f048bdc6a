//! Sharded-runtime consistency under concurrent classification + churn.
//!
//! The `mtl-runtime` contract: while the control plane inserts and
//! removes rules, every classified packet must be **byte-identical** to
//! what the sequential oracle (`reference_classify`) answers over the
//! exact rule set of the snapshot **version that served it** — the
//! runtime reports that version per packet. These stress tests drive
//! random churn schedules from a real control-plane thread against
//! concurrent batch submissions across multiple shards (workers racing
//! RCU publishes, per-shard caches invalidating on version bumps) and
//! verify every single result against the versioned oracle. A stale
//! cache entry, a torn snapshot, a worker serving mid-publish state, or
//! a misattributed version would all surface here.

use classifier_api::{reference_classify, ClassifierBuilder};
use mtl_core::MtlSwitch;
use mtl_runtime::{ClassifiedBatch, Runtime, RuntimeConfig};
use offilter::{FilterKind, FilterSet, Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Mutex;

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

/// Overlapping/nested routing rules the churn schedule draws from.
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

/// Probe headers hitting the pool's nesting structure plus misses —
/// spread over enough ports that the RSS dispatcher uses every shard.
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
            for salt in 0..4u32 {
                out.push(header(port, dst ^ salt));
            }
        }
    }
    out
}

/// Verifies one served batch against the versioned oracle.
fn verify(out: &ClassifiedBatch, headers: &[HeaderValues], log: &[(u64, Vec<Rule>)], ctx: &str) {
    for (i, (&row, &version)) in out.rows.iter().zip(&out.versions).enumerate() {
        let rules_at = &log
            .iter()
            .rev()
            .find(|(v, _)| *v <= version)
            .unwrap_or_else(|| panic!("{ctx}: version {version} not logged"))
            .1;
        assert_eq!(
            row,
            reference_classify(rules_at, &headers[i]),
            "{ctx}: packet {i} ({}) diverges at version {version}",
            headers[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random churn schedules (which pool rules to add/remove, in which
    /// order) against concurrent classification over 3 shards: every
    /// result must match `reference_classify` at the generation it was
    /// served under — while updates land mid-flight.
    #[test]
    fn concurrent_churn_matches_versioned_oracle(
        seed_mask in 1u32..0xFFFF,
        ops in proptest::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 1..16)
    ) {
        let pool = rule_pool();
        // Seed switch: the pool rules whose bit is set in seed_mask.
        let seed_rules: Vec<Rule> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| seed_mask & (1 << (i % 16)) != 0)
            .map(|(_, r)| r.clone())
            .collect();
        prop_assume!(!seed_rules.is_empty());
        let set = FilterSet::preserving_ids("stress", FilterKind::Routing, seed_rules.clone());
        let switch = <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("switch builds");
        let config = RuntimeConfig {
            shards: 3,
            ring_capacity: 8,
            cache_capacity: 32, // tiny: force plenty of admission traffic
            pin_workers: false,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::with_control(switch, &config);
        let handle = rt.handle();

        let headers = probes();
        // Version -> rule set, appended *before* each publish by the
        // single churn writer, so no served version can outrun the log.
        let log: Mutex<Vec<(u64, Vec<Rule>)>> = Mutex::new(vec![(1, seed_rules.clone())]);
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let churn = scope.spawn(|| {
                let mut rules = seed_rules.clone();
                let mut next_version = 2u64;
                for (add, which) in &ops {
                    let rule = &pool[which.index(pool.len())];
                    if *add && !rules.iter().any(|r| r.id == rule.id) {
                        rules.push(rule.clone());
                        log.lock().unwrap().push((next_version, rules.clone()));
                        let (_, v) = handle.add_rule(rule.clone()).expect("pool rule inserts");
                        assert_eq!(v, next_version);
                        next_version += 1;
                    } else if !*add && rules.iter().any(|r| r.id == rule.id) {
                        rules.retain(|r| r.id != rule.id);
                        log.lock().unwrap().push((next_version, rules.clone()));
                        let (_, v) =
                            handle.remove_rule(rule.id).expect("rule is present in the master");
                        assert_eq!(v, next_version);
                        next_version += 1;
                    }
                    std::thread::yield_now();
                }
                done.store(true, SeqCst);
            });

            // Classify concurrently with the churn until it finishes,
            // then once more so post-churn state is covered too.
            let mut batches = Vec::new();
            while !done.load(SeqCst) {
                batches.push(rt.classify_batch(&headers));
            }
            batches.push(rt.classify_batch(&headers));
            churn.join().expect("churn thread");

            let log = log.lock().unwrap();
            assert!(!batches.is_empty());
            for (k, out) in batches.iter().enumerate() {
                assert_eq!(out.len(), headers.len());
                verify(out, &headers, &log, &format!("batch {k}"));
            }
            // Quiesced tail: once churn is done, another batch must be
            // served at (or after) the last batch's version and match
            // the final rule set's sequential oracle exactly.
            let final_version =
                *batches.last().expect("nonempty").versions.iter().max().expect("nonempty batch");
            let final_rules = &log.last().expect("log nonempty").1;
            let tail = rt.classify_batch(&headers);
            let oracle_rows: Vec<Option<u32>> =
                headers.iter().map(|h| reference_classify(final_rules, h)).collect();
            assert_eq!(tail.rows, oracle_rows);
            assert!(tail.versions.iter().all(|&v| v >= final_version));
        });
    }
}

/// A deterministic (non-proptest) smoke of the same contract, heavy on
/// removals (every remove is an in-place edit + publish; the table is
/// small enough that several of them end in a compaction).
#[test]
fn removal_heavy_churn_stays_consistent() {
    let pool = rule_pool();
    let set = FilterSet::preserving_ids("stress", FilterKind::Routing, pool.clone());
    let switch = <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("switch builds");
    let rt = Runtime::with_control(
        switch,
        &RuntimeConfig {
            shards: 2,
            cache_capacity: 16,
            pin_workers: false,
            ..RuntimeConfig::default()
        },
    );
    let handle = rt.handle();
    let headers = probes();
    let log: Mutex<Vec<(u64, Vec<Rule>)>> = Mutex::new(vec![(1, pool.clone())]);
    // The shards serve version 1 first: the whole churn takes less time
    // than a worker thread takes to start, and a worker that first looks
    // after it has nothing to re-acquire.
    let out = rt.classify_batch(&headers);
    verify(&out, &headers, &log.lock().unwrap(), "before the churn");

    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            let mut rules = pool.clone();
            let mut next_version = 2u64;
            // Remove every second rule, then add them all back.
            for rule in pool.iter().step_by(2) {
                rules.retain(|r| r.id != rule.id);
                log.lock().unwrap().push((next_version, rules.clone()));
                let (_, v) = handle.remove_rule(rule.id).expect("rule exists");
                assert_eq!(v, next_version);
                next_version += 1;
            }
            for rule in pool.iter().step_by(2) {
                rules.push(rule.clone());
                log.lock().unwrap().push((next_version, rules.clone()));
                let (_, v) = handle.add_rule(rule.clone()).expect("rule inserts");
                assert_eq!(v, next_version);
                next_version += 1;
            }
        });
        for k in 0..24 {
            let out = rt.classify_batch(&headers);
            let snapshot = log.lock().unwrap().clone();
            verify(&out, &headers, &snapshot, &format!("round {k}"));
        }
        churn.join().expect("churn thread");
    });

    // Fully quiesced: identical to the sequential oracle over the final
    // rule set (everything was added back).
    let log = log.into_inner().unwrap();
    let final_rules = &log.last().expect("nonempty").1;
    let out = rt.classify_batch(&headers);
    for (h, &row) in headers.iter().zip(&out.rows) {
        assert_eq!(row, reference_classify(final_rules, h), "quiesced tail on {h}");
    }
    let telemetry = rt.telemetry();
    assert!(telemetry.total_packets() > 0);
    assert!(
        telemetry.per_shard.iter().map(|s| s.snapshot_refreshes).sum::<u64>() > 0,
        "workers must have re-acquired snapshots across the churn"
    );
}
