//! Chaos suite: drives the supervised runtime through deterministic,
//! seeded fault schedules ([`FaultPlan`]) while the control plane
//! churns, and asserts the robustness invariants:
//!
//! 1. **liveness** — no ticket ever waits forever (every wait here is a
//!    bounded `wait_timeout` that must not report `Timeout`);
//! 2. **consistency** — every *delivered* packet matches the sequential
//!    oracle at the exact table version that served it, faults or not;
//! 3. **recovery** — the fault counters (panics, restarts, requeues,
//!    stalls, sheds, restores) land in telemetry, and once the schedule
//!    is exhausted the runtime returns to the fault-free ballpark;
//! 4. **durability** — on a durable runtime, the state rebuilt from the
//!    store (newest valid snapshot + WAL tail) is byte-identical to the
//!    live master, through publish storms, torn WAL appends, corrupted
//!    checkpoints and whole-runtime restores.
//!
//! Every seeded test routes its seed through
//! [`mtl_runtime::resolve_seed`], so `CHAOS_SEED=<n>` (decimal or
//! `0x`-hex) replays any soak or CI failure exactly. Compiled only with
//! `--features fault-injection` (the CI `chaos` leg runs it with debug
//! assertions on; the nightly soak runs the `#[ignore]`d
//! [`chaos_soak`] on fresh seeds for minutes).
#![cfg(feature = "fault-injection")]

use classifier_api::{reference_classify, Classifier, DynamicClassifier, UpdateReport};
use mtl_persist::{FaultFs, PersistError, Persistent, Storage, Store, WalOp};
use mtl_runtime::{
    resolve_seed, shard_of, AdmissionPolicy, DurabilityConfig, FaultPlan, Runtime, RuntimeConfig,
    RuntimeHandle, Ticket, WaitOutcome, UNSERVED_VERSION,
};
use offilter::{FilterKind, Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A linear-scan dynamic classifier: slow but incontestably correct,
/// which is what an oracle-checked chaos run wants.
#[derive(Clone)]
struct Scan(Vec<Rule>);

impl Classifier for Scan {
    fn name(&self) -> &str {
        "scan"
    }
    fn classify(&self, header: &HeaderValues) -> Option<u32> {
        reference_classify(&self.0, header)
    }
    fn memory_bits(&self) -> u64 {
        1
    }
    fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
        self.0.len()
    }
    fn build_records(&self) -> usize {
        self.0.len()
    }
}

impl DynamicClassifier for Scan {
    fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, classifier_api::BuildError> {
        self.0.push(rule);
        Ok(UpdateReport { records: 1, rebuilt: false, compacted: false })
    }
    fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport> {
        let before = self.0.len();
        self.0.retain(|r| r.id != rule_id);
        (self.0.len() < before).then_some(UpdateReport {
            records: 1,
            rebuilt: false,
            compacted: false,
        })
    }
}

impl Persistent for Scan {
    fn encode_image(&self) -> Vec<u8> {
        let mut w = mtl_persist::Writer::new();
        w.put_usize(self.0.len());
        for rule in &self.0 {
            mtl_persist::codec::encode_rule(&mut w, rule);
        }
        w.into_bytes()
    }
    fn decode_image(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = mtl_persist::Reader::new(bytes, "scan image");
        let n = r.seq_len(7)?;
        let mut rules = Vec::with_capacity(n);
        for _ in 0..n {
            rules.push(mtl_persist::codec::decode_rule(&mut r)?);
        }
        r.finish()?;
        Ok(Self(rules))
    }
}

fn route(id: u32, port: u128, value: u128, len: u32, out: u32) -> Rule {
    Rule::new(
        id,
        len as u16,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, port)
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, value, len)
            .unwrap(),
        RuleAction::Forward(out),
    )
}

fn rules() -> Vec<Rule> {
    vec![
        route(0, 1, 0x0A00_0000, 8, 1),
        route(1, 1, 0x0A01_0200, 24, 2),
        route(2, 2, 0x0A00_0000, 8, 3),
        route(3, 3, 0, 0, 4),
    ]
}

fn headers(n: usize) -> Vec<HeaderValues> {
    (0..n as u128)
        .map(|i| {
            HeaderValues::new()
                .with(MatchFieldKind::InPort, 1 + (i % 4))
                .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000 + (i % 61) * 0x101)
        })
        .collect()
}

/// A wait that is generous but finite: the liveness assertion.
fn must_complete(ticket: Ticket, what: &str) -> mtl_runtime::ClassifiedBatch {
    match ticket.wait_timeout(Duration::from_secs(30)) {
        WaitOutcome::Complete(batch) => batch,
        other => panic!("{what}: ticket must resolve, got {other:?}"),
    }
}

/// Batches/sec over `batches` synchronous submissions of `hs`.
fn throughput(handle: &RuntimeHandle<Scan>, hs: &Arc<[HeaderValues]>, batches: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..batches {
        let _ = must_complete(handle.submit(Arc::clone(hs)), "throughput probe");
    }
    batches as f64 / t0.elapsed().as_secs_f64()
}

/// A fresh, collision-free store directory under the system temp dir.
fn temp_store(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Relaxed);
    let dir = std::env::temp_dir().join(format!("mtl-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls until the runtime's epoch reaches `want` (a completed restore).
fn wait_epoch(rt: &RuntimeHandle<Scan>, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.run_epoch() < want {
        assert!(Instant::now() < deadline, "restore to epoch {want} never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The recovery computation, reimplemented from first principles on a
/// *fresh* store handle: decode the newest valid snapshot and replay
/// the WAL tail past its watermark. This is the independent oracle the
/// byte-identity assertions compare [`RuntimeHandle::master_image`]
/// against — it shares no code with the runtime's own restore path
/// beyond the store itself.
fn replayed_image(dir: &Path) -> Option<Vec<u8>> {
    replayed_image_on(Store::open(dir).expect("store reopens"))
}

/// [`replayed_image`] over an injected [`Storage`] backend — the oracle
/// for stores that live inside a [`FaultFs`] rather than on the real
/// filesystem.
fn replayed_image_with(dir: &Path, storage: Arc<dyn Storage>) -> Option<Vec<u8>> {
    replayed_image_on(Store::open_with(dir, storage).expect("store reopens"))
}

fn replayed_image_on(mut store: Store) -> Option<Vec<u8>> {
    let point = store.restore().expect("restore scan succeeds")?;
    let mut table = Scan::decode_image(&point.image).expect("checkpoint image decodes");
    for record in &point.wal_tail {
        match WalOp::decode(&record.payload).expect("WAL record decodes") {
            WalOp::Add { rule, .. } => {
                let _ = table.insert_rule(rule);
            }
            WalOp::Remove { rule_id } => {
                let _ = table.remove_rule(rule_id);
            }
        }
    }
    Some(table.encode_image())
}

fn fault_config(shards: usize, plan: Arc<FaultPlan>) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        ring_capacity: 8,
        cache_capacity: 64,
        pin_workers: false,
        fault_plan: Some(plan),
        ..RuntimeConfig::default()
    }
}

/// The acceptance-criteria run: a seeded plan with at least one worker
/// panic and one shard stall, under add/remove churn, with a
/// per-version oracle over every delivered packet.
#[test]
fn seeded_faults_under_churn_deliver_oracle_correct_results() {
    let shards = 3;
    let seed = resolve_seed(0xC0FF_EE42);
    let plan = Arc::new(FaultPlan::seeded(seed, shards, 40));
    assert!(plan.planned_panics() >= 1 && plan.planned_stalls() >= 1);
    let rt = Runtime::with_control(Scan(rules()), &fault_config(shards, Arc::clone(&plan)));
    let handle = rt.handle();
    // Version → rule set at that version (appended before each publish,
    // so a racing worker can never serve a version the log lacks).
    let log = Mutex::new(vec![(1u64, rules())]);
    let hs = headers(128);
    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            let mut rs = rules();
            let mut next_version = 2u64;
            for round in 0..30u32 {
                let rule = route(100 + round, 1 + u128::from(round % 4), 0, 0, 90 + round);
                rs.push(rule.clone());
                log.lock().unwrap().push((next_version, rs.clone()));
                let (_, v) = handle.add_rule(rule).unwrap();
                assert_eq!(v, next_version);
                next_version += 1;
                if round % 2 == 0 {
                    rs.retain(|r| r.id != 100 + round);
                    log.lock().unwrap().push((next_version, rs.clone()));
                    let (_, v) = handle.remove_rule(100 + round).expect("just added");
                    assert_eq!(v, next_version);
                    next_version += 1;
                }
                std::thread::yield_now();
            }
        });
        // 150 batches ≫ the 40-step fault horizon: every scheduled
        // worker fault fires during this loop.
        for round in 0..150 {
            let out = must_complete(rt.submit(hs.clone().into()), "chaos batch");
            // Injected panics fire exactly once, so every re-routed job
            // succeeds on its second attempt: nothing may be lost.
            assert!(out.fully_delivered(), "round {round}: all packets delivered");
            let snapshot_log = log.lock().unwrap().clone();
            for (i, (&row, &version)) in out.rows.iter().zip(&out.versions).enumerate() {
                let rules_at = &snapshot_log
                    .iter()
                    .rev()
                    .find(|(v, _)| *v <= version)
                    .expect("every served version has a log entry")
                    .1;
                assert_eq!(
                    row,
                    reference_classify(rules_at, &hs[i]),
                    "round {round}, packet {i} at version {version} (seed {seed:#x})"
                );
            }
        }
        churn.join().unwrap();
    });

    // Recovery accounting: every planned panic crashed a shard, every
    // crash was a counted respawn, and the JSON report carries it all.
    let t = rt.telemetry();
    let planned = plan.planned_panics() as u64;
    assert_eq!(t.total_panics(), planned, "every planned panic fired, nothing else crashed");
    assert_eq!(t.total_restarts(), planned, "every crash was a respawn");
    assert!(
        t.per_shard.iter().map(|s| s.requeued_jobs).sum::<u64>() >= planned,
        "each crash re-routed at least its orphaned job"
    );
    assert!(
        t.per_shard.iter().map(|s| s.stalls_detected).sum::<u64>() >= 1,
        "the planned stall (≥40ms) was detected"
    );
    let json = t.to_json();
    for key in [
        "\"total_panics\"",
        "\"total_restarts\"",
        "\"restarts\"",
        "\"requeued_jobs\"",
        "\"stalls_detected\"",
        "\"poison_recoveries\"",
        "\"ticket_timeouts\"",
        "\"durability\"",
    ] {
        assert!(json.contains(key), "telemetry JSON carries {key}");
    }

    // Post-recovery throughput: the schedule is exhausted, so the
    // runtime must be back in the fault-free ballpark. The two sides
    // are measured one at a time (never two live runtimes competing
    // for cores), the baseline gets the *same* exhausted plan so both
    // run identical code paths, and we take the best recovered sample
    // against the median baseline to damp scheduler noise. The floor
    // is 0.7: a shard that died and never respawned would cap the
    // ratio at ~1 - 1/shards (≤ 0.67 here), which is the regression
    // this guards against — anything tighter flakes on shared hosts
    // whose wall-clock throughput wobbles by double-digit percents
    // between the two measurement windows.
    let probe: Arc<[HeaderValues]> = headers(256).into();
    let recovered_handle = rt.handle();
    let _ = throughput(&recovered_handle, &probe, 50); // warm
    let recovered: Vec<f64> = (0..5).map(|_| throughput(&recovered_handle, &probe, 200)).collect();
    drop(recovered_handle);
    rt.shutdown();
    // The baseline must serve the same post-churn table (the scan
    // classifier's cost is linear in rules), not the 4-rule seed.
    let final_rules = log.into_inner().unwrap().pop().expect("churn logged").1;
    let baseline_rt = Runtime::with_control(Scan(final_rules), &fault_config(shards, plan));
    let baseline_handle = baseline_rt.handle();
    let _ = throughput(&baseline_handle, &probe, 50); // warm
    let mut baseline: Vec<f64> =
        (0..5).map(|_| throughput(&baseline_handle, &probe, 200)).collect();
    baseline.sort_by(f64::total_cmp);
    let best_recovered = recovered.iter().fold(0.0f64, |a, &b| a.max(b));
    let median_baseline = baseline[baseline.len() / 2];
    let ratio = best_recovered / median_baseline;
    assert!(
        ratio >= 0.7,
        "post-recovery throughput back in the fault-free ballpark (ratio {ratio:.3}, \
         recovered {recovered:?}, baseline {baseline:?})"
    );
}

/// Reruns of the same seed produce the same fault accounting — the
/// "deterministic" in deterministic fault injection.
#[test]
fn same_seed_same_fault_accounting() {
    let seed = resolve_seed(7);
    let observe = |seed: u64| {
        let shards = 2;
        let plan = Arc::new(FaultPlan::seeded(seed, shards, 10));
        let rt = Runtime::new(
            Scan(rules()),
            &RuntimeConfig { cache_capacity: 0, ..fault_config(shards, Arc::clone(&plan)) },
        );
        let hs = headers(64);
        for _ in 0..40 {
            let out = must_complete(rt.submit(hs.clone().into()), "deterministic batch");
            assert!(out.fully_delivered());
        }
        let t = rt.telemetry();
        (t.total_panics(), t.total_restarts())
    };
    let a = observe(seed);
    let b = observe(seed);
    assert_eq!(a, b, "same seed, same panics/restarts");
    assert_eq!(a.0, FaultPlan::seeded(seed, 2, 10).planned_panics() as u64);
}

/// Dropped doorbell notifies must cost at most a park timeout, never a
/// hang: the worker's bounded park is the liveness backstop.
#[test]
fn dropped_doorbell_notifies_do_not_hang_submissions() {
    let mut plan = FaultPlan::new(1);
    for n in 0..16 {
        plan = plan.drop_notify(0, n);
    }
    let rt = Runtime::new(
        Scan(rules()),
        &RuntimeConfig { cache_capacity: 0, ..fault_config(1, Arc::new(plan)) },
    );
    let hs = headers(16);
    let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
    for _ in 0..8 {
        let out = must_complete(rt.submit(hs.clone().into()), "notify-dropped batch");
        assert_eq!(out.rows, want);
    }
}

/// A wedged shard under `Shed` admission: queue growth is bounded, shed
/// packets are marked unserved (never fabricated), the stall is
/// detected, and every ticket still resolves.
#[test]
fn stalled_shard_sheds_and_recovers() {
    let plan = FaultPlan::new(1).stall(0, 1, Duration::from_millis(80));
    let rt = Runtime::new(
        Scan(rules()),
        &RuntimeConfig {
            cache_capacity: 0,
            admission: AdmissionPolicy::Shed { max_queued: 2 },
            ..fault_config(1, Arc::new(plan))
        },
    );
    let hs = headers(8);
    let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
    // Batch 0 serves clean; batch 1 triggers the 80ms stall; the rest
    // pile up behind it and overflow the occupancy bound.
    let tickets: Vec<Ticket> = (0..20).map(|_| rt.submit(hs.clone().into())).collect();
    let mut delivered = 0usize;
    let mut shed = 0usize;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let out = must_complete(ticket, "stall/shed batch");
        if out.fully_delivered() {
            assert_eq!(out.rows, want, "batch {i}");
            delivered += 1;
        } else {
            assert_eq!(
                out.delivered_count(),
                0,
                "batch {i}: single-shard sheds are all-or-nothing"
            );
            assert!(out.rows.iter().all(Option::is_none), "shed packets carry no fabricated rows");
            shed += 1;
        }
    }
    assert!(delivered >= 2, "the shard kept serving around the stall ({delivered} delivered)");
    assert!(shed >= 1, "the occupancy bound shed something during the stall ({shed} shed)");
    let t = rt.telemetry();
    assert_eq!(t.per_shard[0].shed_jobs, shed as u64);
    assert_eq!(t.per_shard[0].shed_packets, (shed * hs.len()) as u64);
    assert!(t.per_shard[0].stalls_detected >= 1, "the 80ms stall was detected");
    assert!(t.total_shed_packets() >= 1 && t.to_json().contains("\"shed_packets\""));
}

/// A delayed snapshot publish slows the control plane only: the
/// dataplane keeps serving the old version meanwhile, and the update
/// becomes visible (at the bumped version) once the publish lands.
#[test]
fn delayed_publish_slows_control_plane_not_dataplane() {
    let plan = FaultPlan::new(2).publish_delay(0, Duration::from_millis(60));
    let rt = Runtime::with_control(Scan(rules()), &fault_config(2, Arc::new(plan)));
    let handle = rt.handle();
    let h = HeaderValues::new()
        .with(MatchFieldKind::InPort, 1)
        .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203u128);
    assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(1)]);
    let t0 = Instant::now();
    let publisher = std::thread::spawn(move || handle.add_rule(route(9, 1, 0x0A01_0200, 24, 9)));
    // While the publish sleeps, the dataplane serves version 1 answers.
    // (The publish can land mid-batch, so gate the row assertion on the
    // version each packet actually reports.)
    while rt.version() == 1 {
        let out = rt.classify_batch(std::slice::from_ref(&h));
        if out.versions == [1] {
            assert_eq!(out.rows, vec![Some(1)], "old table serves during the delayed publish");
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "publish never landed");
    }
    let (_, v) = publisher.join().unwrap().unwrap();
    assert_eq!(v, 2);
    assert!(t0.elapsed() >= Duration::from_millis(50), "the publish really was delayed");
    assert_eq!(
        rt.classify_batch(std::slice::from_ref(&h)).rows,
        vec![Some(9)],
        "the delayed update is visible after it lands"
    );
}

// ---- durable control plane ------------------------------------------

/// One full durable chaos round: add/remove churn and traffic under a
/// [`FaultPlan::seeded_control`] schedule (publish storms racing shard
/// respawns, torn WAL appends, corrupted checkpoints, maybe a
/// publish-triggered escalation), plus one *forced* runtime-level
/// escalation between the churn phases. Asserts the per-version oracle
/// over every delivered packet, bounded waits throughout, and —
/// after shutdown — that `decode(newest valid snapshot) + replay(WAL
/// tail)` reproduces the live master byte-for-byte. Factored out so the
/// nightly soak can spin it on fresh seeds.
fn durable_chaos_round(seed: u64, dir: &Path) {
    let shards = 3;
    let plan = Arc::new(FaultPlan::seeded_control(seed, shards, 40));
    let durability = DurabilityConfig {
        checkpoint_every: 4,
        quiesce_timeout: Duration::from_millis(100),
        ..DurabilityConfig::new(dir)
    };
    let (rt, boot) = Runtime::with_durability(
        Scan(rules()),
        &fault_config(shards, Arc::clone(&plan)),
        &durability,
    )
    .expect("durable boot");
    assert!(!boot.restored, "a fresh store boots from the fallback (seed {seed:#x})");
    let handle = rt.handle();
    // Version → rule set at that version. Entries are pushed *before*
    // the mutation publishes and popped again if the write-ahead append
    // rejected it (both under the log lock), so a racing worker can
    // never serve a version the log lacks. Storm republishes carry the
    // new table, and a restore republishes nothing when the recovered
    // bytes equal the live master's, so "last entry at or below the
    // served version" is exact.
    let log = Mutex::new(vec![(1u64, rules())]);
    let hs = headers(128);
    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            let mut rs = rules();
            let mut prev = 1u64;
            for phase in 0..2u32 {
                for round in 0..14u32 {
                    let n = phase * 14 + round;
                    let rule = route(100 + n, 1 + u128::from(n % 4), 0, 0, 90 + n);
                    {
                        let mut lg = log.lock().unwrap();
                        rs.push(rule.clone());
                        lg.push((prev + 1, rs.clone()));
                        match handle.add_rule(rule) {
                            Ok((_, v)) => prev = v,
                            Err(_) => {
                                // A torn WAL append rejected the update
                                // before the master moved: live table
                                // and log agree it never happened.
                                lg.pop();
                                rs.pop();
                            }
                        }
                    }
                    if n % 3 == 0 {
                        let mut lg = log.lock().unwrap();
                        let dropped = rs.clone();
                        rs.retain(|r| r.id != 100 + n);
                        if rs.len() < dropped.len() {
                            lg.push((prev + 1, rs.clone()));
                            match handle.remove_rule(100 + n) {
                                Some((_, v)) => prev = v,
                                None => {
                                    lg.pop();
                                    rs = dropped;
                                }
                            }
                        }
                    }
                    std::thread::yield_now();
                }
                if phase == 0 {
                    // The forced runtime-level escalation, mid-churn:
                    // tear the dataplane down, cold-start from the
                    // store, keep serving. (The plan may have triggered
                    // more restores already; wait for one *further*
                    // epoch.)
                    let epoch = handle.run_epoch();
                    assert!(handle.force_restore(), "durable runtimes accept force_restore");
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while handle.run_epoch() <= epoch {
                        assert!(Instant::now() < deadline, "forced restore never completed");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        });
        for round in 0..120 {
            let out = must_complete(rt.submit(hs.clone().into()), "durable chaos batch");
            let snapshot_log = log.lock().unwrap().clone();
            for (i, (&row, &version)) in out.rows.iter().zip(&out.versions).enumerate() {
                if version == UNSERVED_VERSION {
                    // Explicitly unserved (a job re-routed past its
                    // requeue budget during a crash/restore race) —
                    // never a fabricated answer.
                    assert!(row.is_none(), "round {round}: unserved packets carry no rows");
                    continue;
                }
                let rules_at = &snapshot_log
                    .iter()
                    .rev()
                    .find(|(v, _)| *v <= version)
                    .expect("every served version has a log entry")
                    .1;
                assert_eq!(
                    row,
                    reference_classify(rules_at, &hs[i]),
                    "round {round}, packet {i} at version {version} (seed {seed:#x})"
                );
            }
        }
        churn.join().unwrap();
    });

    let live = rt.master_image().expect("durable runtime exposes its master image");
    let t = rt.telemetry();
    let d = t.durability.expect("durable telemetry present");
    assert!(d.runtime_restores >= 1, "the forced escalation restored the runtime (seed {seed:#x})");
    assert_eq!(d.restore_fallbacks, 0, "every restore found a usable checkpoint (seed {seed:#x})");
    assert!(d.wal_appends >= 1 && d.checkpoints >= 1, "the store saw traffic (seed {seed:#x})");
    rt.shutdown();
    let replayed = replayed_image(dir).expect("the store restores (seed issue otherwise)");
    assert_eq!(
        replayed, live,
        "snapshot + WAL replay reproduces the live master byte-for-byte (seed {seed:#x})"
    );
}

/// The durable acceptance run: publish storms race shard respawns, WAL
/// appends tear, checkpoints corrupt, and a forced whole-runtime
/// escalation lands mid-churn — the oracle and the bytes must hold.
#[test]
fn durable_chaos_storms_and_escalation_hold_the_oracle_and_the_bytes() {
    let seed = resolve_seed(0x5EED_CAFE);
    let plan = FaultPlan::seeded_control(seed, 3, 40);
    assert!(plan.planned_storms() >= 1, "the plan storms a publish into the respawn races");
    assert!(plan.planned_panics() >= 1 && plan.planned_stalls() >= 1);
    assert!(plan.planned_wal_cuts() >= 1 && plan.planned_checkpoint_faults() >= 1);
    let dir = temp_store("acceptance");
    durable_chaos_round(seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn write-ahead append must reject the update — version
/// unchanged, master unchanged — and the healed log must accept a
/// retry; afterwards the store still replays to exactly the live table.
#[test]
fn torn_wal_append_rejects_update_and_keeps_log_and_table_agreeing() {
    let dir = temp_store("wal-cut");
    let plan = FaultPlan::new(1).wal_cut(1, 9); // tear the 2nd append mid-header
    let (rt, _) = Runtime::with_durability(
        Scan(rules()),
        &fault_config(1, Arc::new(plan)),
        &DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) },
    )
    .unwrap();
    let (_, v) = rt.add_rule(route(50, 1, 0x1400_0000, 8, 50)).unwrap();
    assert_eq!(v, 2);
    let err = rt.add_rule(route(51, 1, 0x1500_0000, 8, 51)).unwrap_err();
    assert!(
        format!("{err:?}").contains("write-ahead append failed"),
        "the rejection names its cause: {err:?}"
    );
    assert_eq!(rt.version(), 2, "a rejected update publishes nothing");
    let h = HeaderValues::new()
        .with(MatchFieldKind::InPort, 1)
        .with(MatchFieldKind::Ipv4Dst, 0x1501_0000u128);
    assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![None], "rule 51 never landed");
    let d = rt.telemetry().durability.unwrap();
    assert_eq!((d.wal_appends, d.wal_append_failures), (1, 1));
    // The log self-healed to a record boundary: the same rule retries
    // cleanly.
    let (_, v) = rt.add_rule(route(51, 1, 0x1500_0000, 8, 51)).unwrap();
    assert_eq!(v, 3);
    assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![Some(51)]);
    let live = rt.master_image().unwrap();
    rt.shutdown();
    assert_eq!(replayed_image(&dir).unwrap(), live, "replay agrees with the live table");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn checkpoint is skipped at restore: recovery falls back to the
/// previous durable snapshot and replays the longer WAL tail — ending
/// at the same state.
#[test]
fn torn_checkpoint_falls_back_to_previous_snapshot_plus_longer_replay() {
    let dir = temp_store("torn-ckpt");
    let live;
    {
        // Checkpoint cadence 2: adds 1-2 → checkpoint #0 (durable),
        // adds 3-4 → checkpoint #1 (torn after 40 bytes).
        let plan = FaultPlan::new(1).torn_checkpoint(1, 40);
        let (rt, boot) = Runtime::with_durability(
            Scan(rules()),
            &fault_config(1, Arc::new(plan)),
            &DurabilityConfig { checkpoint_every: 2, ..DurabilityConfig::new(&dir) },
        )
        .unwrap();
        assert!(!boot.restored);
        for n in 0..4u32 {
            rt.add_rule(route(60 + n, 1, 0x3C00_0000 + (u128::from(n) << 8), 32, 60 + n)).unwrap();
        }
        let d = rt.telemetry().durability.unwrap();
        assert_eq!(d.checkpoints, 2, "both cadence checkpoints were attempted");
        live = rt.master_image().unwrap();
        rt.shutdown();
    }
    let (rt, report) = Runtime::with_durability(
        Scan(Vec::new()),
        &RuntimeConfig {
            shards: 1,
            ring_capacity: 8,
            cache_capacity: 0,
            pin_workers: false,
            ..RuntimeConfig::default()
        },
        &DurabilityConfig { checkpoint_every: 2, ..DurabilityConfig::new(&dir) },
    )
    .unwrap();
    assert!(report.restored);
    assert_eq!(report.version, 2, "the torn v3 was skipped; v2 is the newest valid snapshot");
    assert_eq!(report.skipped_checkpoints, 1);
    assert_eq!(report.wal_replayed, 2, "the two post-v2 adds replay from the WAL");
    assert_eq!(rt.master_image().unwrap(), live, "fallback + longer replay = the same bytes");
    let h = HeaderValues::new()
        .with(MatchFieldKind::InPort, 1)
        .with(MatchFieldKind::Ipv4Dst, 0x3C00_0300u128);
    assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![Some(63)], "last add survived");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Ticket::wait_timeout` across a runtime restore: a batch half-served
/// when a shard wedges reports `Partial` with `missing` equal to
/// exactly the wedged shard's packets, and the restored runtime serves
/// the re-submitted batch in full.
#[test]
fn partial_wait_counts_missing_exactly_across_a_runtime_restore() {
    let dir = temp_store("partial");
    let shards = 2;
    let plan = FaultPlan::new(shards).stall(0, 0, Duration::from_millis(400));
    let (rt, _) = Runtime::with_durability(
        Scan(rules()),
        &fault_config(shards, Arc::new(plan)),
        &DurabilityConfig {
            quiesce_timeout: Duration::from_millis(25),
            ..DurabilityConfig::new(&dir)
        },
    )
    .unwrap();
    let hs = headers(64);
    let on_wedged: usize = hs.iter().filter(|h| shard_of(h, shards) == 0).count();
    assert!(on_wedged > 0 && on_wedged < hs.len(), "the batch spans both shards");
    let ticket = rt.submit(hs.clone().into());
    match ticket.wait_timeout(Duration::from_millis(100)) {
        WaitOutcome::Partial { batch, missing } => {
            assert_eq!(missing, on_wedged, "missing = exactly the wedged shard's packets");
            for (i, h) in hs.iter().enumerate() {
                if shard_of(h, shards) == 0 {
                    assert_eq!(batch.versions[i], UNSERVED_VERSION, "packet {i} still pending");
                    assert!(batch.rows[i].is_none(), "pending packets carry no rows");
                } else {
                    assert_eq!(batch.rows[i], reference_classify(&rules(), h), "packet {i}");
                }
            }
        }
        other => panic!("a wedged shard must yield Partial, got {other:?}"),
    }
    // Restore while the shard is still wedged: the bounded quiesce wait
    // expires, the worker is abandoned as a zombie, and the runtime
    // comes back whole on a fresh epoch.
    assert!(rt.force_restore());
    wait_epoch(&rt, 1);
    let out = must_complete(rt.submit(hs.clone().into()), "post-restore batch");
    assert!(out.fully_delivered(), "the restored runtime serves the batch in full");
    let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
    assert_eq!(out.rows, want);
    let t = rt.telemetry();
    assert_eq!(t.ticket_timeouts, 1, "the partial wait was counted");
    assert_eq!(t.durability.unwrap().runtime_restores, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `DeadlineShed` expiry during restore downtime: jobs stranded behind
/// a wedge while the runtime restores are shed as unserved by the
/// zombie's drain — explicitly, with their tickets resolving — and the
/// fresh epoch serves new traffic inside the deadline again.
#[test]
fn deadline_sheds_expire_during_restore_downtime_and_tickets_resolve() {
    let dir = temp_store("deadline");
    let plan = FaultPlan::new(1).stall(0, 0, Duration::from_millis(300));
    let (rt, _) = Runtime::with_durability(
        Scan(rules()),
        &RuntimeConfig {
            cache_capacity: 0,
            admission: AdmissionPolicy::DeadlineShed { deadline: Duration::from_millis(40) },
            ..fault_config(1, Arc::new(plan))
        },
        &DurabilityConfig {
            quiesce_timeout: Duration::from_millis(20),
            ..DurabilityConfig::new(&dir)
        },
    )
    .unwrap();
    let hs = headers(8);
    // A: picked up inside its deadline, then wedged 300ms — expired by
    // the time the worker would serve it.
    let a = rt.submit(hs.clone().into());
    std::thread::sleep(Duration::from_millis(30));
    // B: queued behind the wedge; its 40ms deadline expires during the
    // restore downtime, in a ring only the zombie still drains.
    let b = rt.submit(hs.clone().into());
    assert!(rt.force_restore());
    wait_epoch(&rt, 1);
    let out_a = must_complete(a, "wedged batch");
    assert_eq!(out_a.delivered_count(), 0, "A expired during the wedge: shed, not served late");
    let out_b = must_complete(b, "stranded batch");
    assert_eq!(out_b.delivered_count(), 0, "B expired during the downtime: shed, not served late");
    assert!(out_b.versions.iter().all(|&v| v == UNSERVED_VERSION));
    assert!(out_b.rows.iter().all(Option::is_none), "shed packets carry no fabricated rows");
    // The fresh epoch meets the deadline again.
    let out = must_complete(rt.submit(hs.clone().into()), "post-restore batch");
    assert!(out.fully_delivered(), "the restored shard serves inside the deadline");
    let t = rt.telemetry();
    assert!(
        t.per_shard[0].deadline_shed_packets >= (2 * hs.len()) as u64,
        "both expired batches were counted as deadline sheds"
    );
    assert_eq!(t.durability.unwrap().runtime_restores, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Worker crashes racing a forced restore: orphans are re-admitted
/// (counting their requeue budget), nothing is lost, and every ticket
/// resolves.
#[test]
fn crashes_racing_a_forced_restore_strand_no_ticket() {
    let dir = temp_store("crash-restore");
    let plan = FaultPlan::new(2).worker_panic(0, 1).worker_panic(1, 3);
    let (rt, _) = Runtime::with_durability(
        Scan(rules()),
        &fault_config(2, Arc::new(plan)),
        &DurabilityConfig {
            quiesce_timeout: Duration::from_millis(50),
            ..DurabilityConfig::new(&dir)
        },
    )
    .unwrap();
    let hs = headers(64);
    for round in 0..40 {
        if round == 10 {
            assert!(rt.force_restore());
        }
        let out = must_complete(rt.submit(hs.clone().into()), "crash/restore batch");
        assert!(out.fully_delivered(), "round {round}: a single crash re-routes, never loses");
    }
    wait_epoch(&rt, 1);
    let t = rt.telemetry();
    assert_eq!(t.total_panics(), 2, "both planned panics fired");
    assert!(t.durability.unwrap().runtime_restores >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache telemetry must be cumulative across worker generations: a
/// respawn hands the shard a *fresh* cache whose internal stats restart
/// at zero, and the supervisor folds the dead generation's totals into
/// a baseline first. Regression test for the counter-amnesia bug where
/// hits/misses/insertions visibly went backwards after every panic.
#[test]
fn cache_counters_stay_monotone_across_worker_respawns() {
    let plan = FaultPlan::new(1).worker_panic(0, 3).worker_panic(0, 9);
    let rt = Runtime::with_control(Scan(rules()), &fault_config(1, Arc::new(plan)));
    let hs = headers(64);
    let mut last = (0u64, 0u64, 0u64);
    for round in 0..30 {
        let out = must_complete(rt.submit(hs.clone().into()), "monotonicity batch");
        assert!(out.fully_delivered(), "round {round}: a crash re-routes, never loses");
        let cache = rt.telemetry().per_shard[0].cache;
        let now = (cache.hits, cache.misses, cache.insertions);
        assert!(
            now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2,
            "round {round}: cumulative cache counters went backwards: {last:?} -> {now:?}"
        );
        last = now;
    }
    let t = rt.telemetry();
    assert_eq!(t.total_panics(), 2, "both planned panics fired");
    assert!(t.per_shard[0].restarts >= 2, "both crashes were respawned");
    let lookups = last.0 + last.1;
    assert!(
        lookups >= (30 * hs.len()) as u64,
        "cumulative lookups span all generations: {lookups} < {}",
        30 * hs.len()
    );
}

/// The flight recorder is crash forensics: after injected panics the
/// drained timeline must contain the whole story — submits, serves,
/// the panics themselves, and the supervisor's respawns — and the
/// trace telemetry block must account for it.
#[test]
fn flight_recorder_captures_panic_and_respawn_forensics() {
    use mtl_runtime::trace::EventKind;
    let plan = FaultPlan::new(2).worker_panic(0, 2).worker_panic(1, 5);
    let rt = Runtime::with_control(Scan(rules()), &fault_config(2, Arc::new(plan)));
    let hs = headers(64);
    for _ in 0..12 {
        let _ = must_complete(rt.submit(hs.clone().into()), "forensics batch");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.telemetry().total_restarts() < 2 {
        assert!(Instant::now() < deadline, "respawns never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let events = rt.trace_events();
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();
    assert!(count(EventKind::Boot) >= 1, "boot is on the timeline");
    assert!(count(EventKind::BatchSubmit) > 0, "admissions are on the timeline");
    assert!(count(EventKind::BatchServe) > 0, "serves are on the timeline");
    assert_eq!(count(EventKind::WorkerPanic), 2, "both injected panics were recorded");
    assert!(count(EventKind::WorkerRespawn) >= 2, "both respawns were recorded");
    assert!(
        events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "the drained timeline is time-sorted"
    );
    let trace = rt.telemetry().trace.expect("recorder is on by default");
    assert!(trace.events_recorded >= events.len() as u64);
    assert_eq!(trace.lanes, 2 + 3, "shards + control/durability/supervisor lanes");
}

/// The automatic rung of the escalation ladder: a restart storm (> K
/// respawns inside the window) must escalate to a whole-runtime restore
/// without any explicit `force_restore`.
#[test]
fn restart_storm_escalates_to_runtime_restore_automatically() {
    let dir = temp_store("storm");
    let mut plan = FaultPlan::new(1);
    for step in 0..6 {
        plan = plan.worker_panic(0, step);
    }
    let (rt, _) = Runtime::with_durability(
        Scan(rules()),
        &RuntimeConfig { cache_capacity: 0, ..fault_config(1, Arc::new(plan)) },
        &DurabilityConfig {
            escalate_after: 2,
            escalate_window: Duration::from_secs(30),
            quiesce_timeout: Duration::from_millis(50),
            ..DurabilityConfig::new(&dir)
        },
    )
    .unwrap();
    let hs = headers(16);
    let deadline = Instant::now() + Duration::from_secs(10);
    // Each batch feeds the panic schedule; every ticket still resolves
    // (possibly unserved once a job exhausts its requeue budget). The
    // third respawn inside the window trips the escalation.
    while rt.run_epoch() == 0 {
        assert!(Instant::now() < deadline, "the restart storm never escalated");
        let _ = rt.submit(hs.clone().into()).wait_timeout(Duration::from_secs(30));
    }
    let out = must_complete(rt.submit(hs.clone().into()), "post-escalation batch");
    assert!(out.fully_delivered(), "the restored runtime serves again");
    let t = rt.telemetry();
    assert!(t.total_restarts() >= 3, "the storm was real");
    assert!(t.durability.unwrap().runtime_restores >= 1, "and it escalated");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- hostile disk (injected storage faults) -------------------------

/// A fault-free runtime config for the hostile-disk tests, where the
/// adversary is the storage layer rather than the fault plan.
fn plain_config(shards: usize) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        ring_capacity: 8,
        cache_capacity: 0,
        pin_workers: false,
        ..RuntimeConfig::default()
    }
}

/// The largest WAL frame any of this suite's `route` rules can produce
/// (payload + record header) — the "small writes still fit" side of the
/// ENOSPC geometry.
fn frame_ceiling(rules: &[Rule]) -> usize {
    rules
        .iter()
        .map(|r| WalOp::Add { kind: FilterKind::Routing, rule: r.clone() }.encode().len())
        .max()
        .expect("at least one rule")
        + mtl_persist::wal::RECORD_HEADER
}

/// ENOSPC on every checkpoint-sized write: the runtime must *degrade*,
/// not error — WAL-only serving, counted in telemetry — and return to
/// full durability once the disk heals, with the store still replaying
/// to the live master byte-for-byte.
#[test]
fn enospc_checkpoints_degrade_to_wal_only_and_heal() {
    let fs = Arc::new(FaultFs::seeded(resolve_seed(0xD15C_Fa11)));
    let dir = PathBuf::from("/faultfs/enospc");
    let durability = DurabilityConfig {
        checkpoint_every: 2,
        storage: Some(Arc::<FaultFs>::clone(&fs) as Arc<dyn Storage>),
        ..DurabilityConfig::new(&dir)
    };
    let (rt, boot) =
        Runtime::with_durability(Scan(rules()), &plain_config(1), &durability).unwrap();
    assert!(!boot.restored, "fresh in-memory store boots from the fallback");

    // Arm the cap *between* the boot image size and the largest WAL
    // frame: every checkpoint from here on hits ENOSPC mid-write, every
    // append still fits. (The table only grows below, and the on-disk
    // checkpoint carries container overhead on top of the raw image, so
    // the boot image length is a safe floor.)
    let adds: Vec<Rule> =
        (0..6u32).map(|n| route(200 + n, 1, 0x3000_0000 + (u128::from(n) << 8), 32, n)).collect();
    let cap = Scan(rules()).encode_image().len();
    assert!(
        frame_ceiling(&adds) < cap,
        "test geometry: WAL frames must fit under the checkpoint-sized cap"
    );
    fs.set_write_cap(Some(cap));

    // Four adds = two failed cadence checkpoints; the control plane
    // keeps accepting updates and the dataplane keeps classifying.
    for rule in &adds[..4] {
        rt.add_rule(rule.clone()).expect("WAL-only degraded mode still accepts updates");
    }
    let h = HeaderValues::new()
        .with(MatchFieldKind::InPort, 1)
        .with(MatchFieldKind::Ipv4Dst, 0x3000_0100u128);
    assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![Some(201)], "still classifying");
    let d = rt.telemetry().durability.unwrap();
    assert!(d.checkpoint_failures >= 2, "both cadence checkpoints hit ENOSPC");
    assert!(d.degraded, "the runtime reports WAL-only degraded mode");
    assert_eq!(d.degraded_episodes, 1, "one continuous episode, not one per failure");
    assert_eq!(d.wal_appends, 4, "every update was still write-ahead logged");
    assert!(fs.counters().enospc_hits >= 2, "the faults came from the IO layer itself");

    // Disk heals: the next cadence checkpoint succeeds and ends the
    // episode.
    fs.heal();
    for rule in &adds[4..] {
        rt.add_rule(rule.clone()).unwrap();
    }
    let d = rt.telemetry().durability.unwrap();
    assert!(!d.degraded, "a durable checkpoint ended the degraded episode");
    assert_eq!(d.degraded_episodes, 1);
    assert!(d.checkpoints >= 1, "the post-heal cadence checkpoint landed");

    let live = rt.master_image().unwrap();
    rt.shutdown();
    let replayed = replayed_image_with(&dir, fs).expect("the healed store restores");
    assert_eq!(replayed, live, "no durably-acked rule was lost across the ENOSPC episode");
}

/// Per-mille fsync failures from the storage layer: a failed WAL fsync
/// must reject its update (the bytes never became durable), the live
/// table and the log must stay in agreement, and the store must still
/// replay to the live master.
#[test]
fn injected_fsync_failures_reject_updates_and_keep_log_and_table_agreeing() {
    let seed = resolve_seed(0xF5C_FA11);
    let fs = Arc::new(FaultFs::seeded(seed));
    let dir = PathBuf::from("/faultfs/fsync");
    let durability = DurabilityConfig {
        checkpoint_every: 1000, // WAL-only: isolate the append path
        storage: Some(Arc::<FaultFs>::clone(&fs) as Arc<dyn Storage>),
        ..DurabilityConfig::new(&dir)
    };
    let (rt, _) = Runtime::with_durability(Scan(rules()), &plain_config(1), &durability).unwrap();
    fs.set_fault_rates(0, 300); // ~30% of fsyncs fail
    let mut acked = Vec::new();
    let mut rejected = 0u32;
    for n in 0..40u32 {
        let rule = route(300 + n, 1, 0x4000_0000 + (u128::from(n) << 8), 32, n);
        match rt.add_rule(rule) {
            Ok(_) => acked.push(300 + n),
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected >= 1, "the fault rate fired at least once (seed {seed:#x})");
    assert!(!acked.is_empty(), "and at least one add got through (seed {seed:#x})");
    let d = rt.telemetry().durability.unwrap();
    assert_eq!(d.wal_appends, acked.len() as u64);
    assert_eq!(d.wal_append_failures, u64::from(rejected));
    let live = rt.master_image().unwrap();
    rt.shutdown();
    fs.heal();
    let replayed = replayed_image_with(&dir, fs).expect("store restores");
    assert_eq!(
        replayed, live,
        "acked updates are durable, rejected ones left no trace (seed {seed:#x})"
    );
}

/// A compaction + GC soak on the real filesystem: continuous churn with
/// small segments and a tight checkpoint cadence must keep the store
/// directory bounded (segments rotated *and* collected, ≤ K snapshots)
/// while never losing a durably-acked rule.
#[test]
fn gc_soak_bounds_the_store_directory_and_loses_no_acked_rule() {
    let dir = temp_store("gc-soak");
    let durability = DurabilityConfig {
        checkpoint_every: 4,
        wal_segment_bytes: 512,
        retain_snapshots: 2,
        ..DurabilityConfig::new(&dir)
    };
    let (rt, _) = Runtime::with_durability(Scan(rules()), &plain_config(1), &durability).unwrap();
    for n in 0..200u32 {
        rt.add_rule(route(1000 + n, 1 + u128::from(n % 4), 0x5000_0000 + u128::from(n), 32, n))
            .unwrap();
        if n % 3 == 0 {
            rt.remove_rule(1000 + n).expect("just added");
        }
    }
    let d = rt.telemetry().durability.unwrap();
    assert!(d.segments_rotated >= 4, "512-byte segments rotate under 200 ops");
    assert!(d.gc_runs >= 1 && d.gc_segments_removed >= 1, "GC collected rotated-out segments");
    assert!(
        d.wal_segments <= 6,
        "live segments stay near the retained watermark ({} on disk)",
        d.wal_segments
    );
    assert_eq!(d.snapshots, 2, "exactly K snapshot generations retained");
    assert!(
        d.wal_bytes <= 8 * 512,
        "WAL bytes bounded by the rotation/retention policy ({} bytes)",
        d.wal_bytes
    );
    let live = rt.master_image().unwrap();
    rt.shutdown();
    let replayed = replayed_image(&dir).expect("the GC'd store restores");
    assert_eq!(replayed, live, "compaction + GC never loses a durably-acked rule");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every snapshot lost (all images corrupt or deleted) with the WAL
/// intact: boot must fall back to replaying the *entire* log onto the
/// fallback table instead of silently dropping acked rules.
#[test]
fn boot_with_no_valid_snapshot_replays_the_whole_wal_onto_the_fallback() {
    let dir = temp_store("wal-only-boot");
    let live;
    {
        let durability = DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) };
        let (rt, _) =
            Runtime::with_durability(Scan(rules()), &plain_config(1), &durability).unwrap();
        for n in 0..5u32 {
            rt.add_rule(route(400 + n, 1, 0x6000_0000 + (u128::from(n) << 8), 32, n)).unwrap();
        }
        live = rt.master_image().unwrap();
        rt.shutdown();
    }
    // A hostile disk ate every snapshot; the log survived.
    let mut removed = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().is_some_and(|n| n.to_string_lossy().starts_with("snapshot-")) {
            std::fs::remove_file(&path).unwrap();
            removed += 1;
        }
    }
    assert!(removed >= 1, "the store had checkpoints to lose");
    let durability = DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) };
    let (rt, report) =
        Runtime::with_durability(Scan(rules()), &plain_config(1), &durability).unwrap();
    assert!(!report.restored, "no snapshot to restore from");
    assert_eq!(report.wal_replayed, 5, "every logged add replayed onto the fallback");
    assert_eq!(
        rt.master_image().unwrap(),
        live,
        "fallback + full WAL replay reproduces the pre-crash master"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The nightly soak: fresh-seed durable chaos rounds for
/// `CHAOS_SOAK_SECS` seconds (default 20; the nightly leg runs minutes).
/// Every round's seed is printed before it runs, so a failure is
/// replayable exactly with `CHAOS_SEED=<seed>` (which pins the base
/// seed, making iteration 0 the failing round). `#[ignore]`d to keep
/// `cargo test` fast; CI runs it with `--ignored --nocapture`.
#[test]
#[ignore = "minutes-long randomized soak; run with --ignored (nightly CI leg)"]
fn chaos_soak() {
    let secs: u64 =
        std::env::var("CHAOS_SOAK_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(20);
    let wallclock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let base = resolve_seed(wallclock ^ wallclock.rotate_left(31));
    eprintln!("chaos soak: {secs}s budget, base seed {base:#018x} (pin with CHAOS_SEED)");
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut iterations = 0u64;
    loop {
        let seed = base.wrapping_add(iterations.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        eprintln!("chaos soak iteration {iterations}: CHAOS_SEED={seed:#x}");
        let dir = temp_store(&format!("soak-{iterations}"));
        durable_chaos_round(seed, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        iterations += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    eprintln!("chaos soak: {iterations} iterations clean");
}
