//! Update storm: control-plane publishes/s vs table size, with
//! durability off / WAL-only / WAL + checkpoints.
//!
//! The pathological shape for a durable control plane is not lookup
//! traffic but a *publish storm*: back-to-back rule adds and removes,
//! each one write-ahead logged and fsynced before the master moves, and
//! every `checkpoint_every`-th op paying a full table-image write on
//! top. This experiment measures that tax per table size. The headline
//! metric is `speedup = full_per_sec / walonly_per_sec` — the fraction
//! of WAL-only publish throughput that survives turning checkpoints on.
//! It is a host-speed-independent ratio ≤ ~1, and a checkpoint path
//! that gets relatively more expensive (or a GC that stalls the publish
//! loop) drags it down. It is recorded, not gated: the served update
//! path's cost is gated by the `benchmark/` package's `update_storm`
//! workload.
//!
//! Hygiene rides along: the durable modes run with small WAL segments
//! and a 2-snapshot retention policy, and each point records whether
//! the store directory stayed *bounded* under the storm (segments
//! rotated and collected, ≤ K snapshot generations) plus the final
//! on-disk byte count. After the full-durability storm the store is
//! reopened and `decode(newest valid snapshot) + replay(WAL tail)` must
//! reproduce the live master byte-for-byte.

use crate::output::{arr, obj, render_table, write_json, Json, ToJson};
use classifier_api::{ClassifierBuilder, DynamicClassifier};
use mtl_core::MtlSwitch;
use mtl_persist::{Persistent, Store, WalOp};
use mtl_runtime::{DurabilityConfig, Runtime, RuntimeConfig};
use offilter::synth::{generate_routing, RoutingTargets};
use offilter::{FilterSet, Rule, RuleAction};
use oflow::{FlowMatch, MatchFieldKind};
use std::path::PathBuf;
use std::time::Instant;

/// Publish operations per mode per point (each is one WAL append in
/// the durable modes).
const OPS: usize = 192;

/// WAL segment rotation threshold for the durable modes: small enough
/// that a 192-op storm rotates several times, so the bounded-directory
/// claim is actually exercised.
const SEGMENT_BYTES: u64 = 4096;

/// Snapshot generations retained by GC in the durable modes.
const RETAIN: usize = 2;

/// Checkpoint cadence of the full-durability mode.
const CHECKPOINT_EVERY: u64 = 64;

/// One table-size point.
#[derive(Debug, Clone)]
pub struct StormPoint {
    /// Rules in the table the storm publishes against.
    pub rules: usize,
    /// Publish operations per mode.
    pub ops: usize,
    /// Publishes/s with no durability (in-memory control plane).
    pub off_per_sec: f64,
    /// Publishes/s with write-ahead logging only (no checkpoints).
    pub walonly_per_sec: f64,
    /// Publishes/s with WAL + a checkpoint every [`CHECKPOINT_EVERY`]
    /// ops.
    pub full_per_sec: f64,
    /// `full_per_sec / walonly_per_sec` — the headline ratio.
    pub speedup: f64,
    /// WAL segments on disk when the full-durability storm ended.
    pub wal_segments: u64,
    /// Snapshot files on disk when the full-durability storm ended.
    pub snapshots: u64,
    /// Total store-directory bytes (WAL + snapshots) at the end.
    pub store_bytes: u64,
    /// Retention-GC passes the store ran during the storm.
    pub gc_runs: u64,
    /// Whether the directory stayed bounded (segments collected, ≤ K
    /// snapshots) — asserted when the experiment runs gated.
    pub bounded: bool,
    /// The reopened store replayed byte-identical to the live master
    /// (asserted; recorded so the JSON carries the proof).
    pub identical: bool,
}

/// The experiment: one point per table size.
#[derive(Debug, Clone)]
pub struct StormExperiment {
    /// Points, ascending by rule count.
    pub points: Vec<StormPoint>,
    /// Whether the bounded-directory floors were asserted.
    pub bounds_asserted: bool,
}

impl ToJson for StormExperiment {
    fn to_json(&self) -> Json {
        obj([
            ("experiment", "storm".into()),
            ("ops", OPS.into()),
            ("segment_bytes", SEGMENT_BYTES.into()),
            ("retain_snapshots", RETAIN.into()),
            ("checkpoint_every", CHECKPOINT_EVERY.into()),
            ("bounds_asserted", self.bounds_asserted.into()),
            (
                "points",
                arr(self.points.iter().map(|p| {
                    obj([
                        ("rules", p.rules.into()),
                        ("ops", p.ops.into()),
                        ("off_per_sec", p.off_per_sec.into()),
                        ("walonly_per_sec", p.walonly_per_sec.into()),
                        ("full_per_sec", p.full_per_sec.into()),
                        ("speedup", p.speedup.into()),
                        ("wal_segments", p.wal_segments.into()),
                        ("snapshots", p.snapshots.into()),
                        ("store_bytes", p.store_bytes.into()),
                        ("gc_runs", p.gc_runs.into()),
                        ("bounded", p.bounded.into()),
                        ("identical", p.identical.into()),
                    ])
                })),
            ),
        ])
    }
}

/// A routing set of exactly `rules` rules with paper-shaped statistics.
fn sized_set(rules: usize, seed: u64) -> FilterSet {
    let partition = (rules / 8).max(64).min(rules);
    let targets = RoutingTargets {
        name: format!("storm-{rules}"),
        rules,
        port_unique: 16.min(rules),
        ip_partitions: [partition, partition],
        short_prefixes: (rules / 300).clamp(1, 12),
        out_ports: 32,
    };
    generate_routing(&targets, seed ^ 0x5708_4D17)
}

/// The storm's op stream: high-id rule adds with a remove of the
/// previous add every 4th op, so the table size oscillates around its
/// base instead of drifting. Deterministic in `(seed, i)`.
fn storm_rule(seed: u64, i: usize) -> Rule {
    let id = 3_000_000 + i as u32;
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
    Rule::new(
        id,
        u16::MAX - 1,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(1 + (mix % 4) as u32))
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, 0x0B00_0000 + (u128::from(mix % 0xFFFF) << 8), 24)
            .unwrap(),
        RuleAction::Forward(900),
    )
}

/// Runs the op stream against a handle, returning publishes/s.
fn drive(handle: &mtl_runtime::RuntimeHandle<MtlSwitch>, seed: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..OPS {
        if i % 4 == 3 {
            handle.remove_rule(3_000_000 + i as u32 - 1).expect("just added");
        } else {
            handle.add_rule(storm_rule(seed, i)).expect("storm add publishes");
        }
    }
    OPS as f64 / t0.elapsed().as_secs_f64()
}

fn plain_config() -> RuntimeConfig {
    RuntimeConfig { shards: 1, ring_capacity: 8, cache_capacity: 0, ..RuntimeConfig::default() }
}

fn temp_dir(rules: usize, mode: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mtl-storm-{}-{rules}-{mode}", std::process::id()))
}

/// Replays the store from scratch — `decode(newest valid snapshot) +
/// replay(WAL tail)` — and returns the re-encoded image.
fn replayed_image(dir: &PathBuf) -> Vec<u8> {
    let mut store = Store::open(dir).expect("store reopens");
    let point = store.restore().expect("restore scan").expect("checkpoint present");
    let mut switch = MtlSwitch::decode_image(&point.image).expect("image decodes");
    for record in &point.wal_tail {
        match WalOp::decode(&record.payload).expect("WAL record decodes") {
            WalOp::Add { rule, .. } => {
                switch.insert_rule(rule).expect("replay inserts");
            }
            WalOp::Remove { rule_id } => {
                DynamicClassifier::remove_rule(&mut switch, rule_id);
            }
        }
    }
    switch.encode_image()
}

/// Measures one table size across the three durability modes.
fn measure(rules: usize, seed: u64, assert_bounds: bool) -> StormPoint {
    let set = sized_set(rules, seed);
    let switch = <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("switch builds");

    // Mode 1: durability off — the in-memory publish ceiling.
    let rt = Runtime::with_control(switch.clone(), &plain_config());
    let off_per_sec = drive(&rt.handle(), seed);
    rt.shutdown();

    // Mode 2: WAL-only — every op fsyncs a log frame, no checkpoints
    // (cadence effectively infinite; the boot checkpoint lands before
    // the timed region).
    let dir = temp_dir(rules, "walonly");
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig {
        checkpoint_every: u64::MAX,
        wal_segment_bytes: SEGMENT_BYTES,
        retain_snapshots: RETAIN,
        ..DurabilityConfig::new(&dir)
    };
    let (rt, _) = Runtime::with_durability(switch.clone(), &plain_config(), &durability)
        .expect("durable boot");
    let walonly_per_sec = drive(&rt.handle(), seed);
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Mode 3: WAL + checkpoints — the full crash-only contract, with
    // segment rotation and retention GC doing hygiene mid-storm.
    let dir = temp_dir(rules, "full");
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        wal_segment_bytes: SEGMENT_BYTES,
        retain_snapshots: RETAIN,
        ..DurabilityConfig::new(&dir)
    };
    let (rt, _) = Runtime::with_durability(switch.clone(), &plain_config(), &durability)
        .expect("durable boot");
    let full_per_sec = drive(&rt.handle(), seed);
    let d = rt.telemetry().durability.expect("durable telemetry");
    let live = rt.master_image().expect("durable master image");
    rt.shutdown();

    // Correctness + hygiene floors on the full-durability store.
    let identical = replayed_image(&dir) == live;
    assert!(identical, "{rules} rules: storm store replays differently from the live master");
    let bounded = d.wal_segments <= 8 && d.snapshots <= RETAIN as u64 + 1;
    if assert_bounds {
        assert!(
            bounded,
            "{rules} rules: store directory unbounded under the storm \
             ({} segments, {} snapshots)",
            d.wal_segments, d.snapshots
        );
        assert!(d.gc_runs >= 1, "{rules} rules: retention GC never ran during the storm");
    }
    let _ = std::fs::remove_dir_all(&dir);

    StormPoint {
        rules: set.len(),
        ops: OPS,
        off_per_sec,
        walonly_per_sec,
        full_per_sec,
        speedup: full_per_sec / walonly_per_sec,
        wal_segments: d.wal_segments,
        snapshots: d.snapshots,
        store_bytes: d.wal_bytes + d.snapshot_bytes,
        gc_runs: d.gc_runs,
        bounded,
        identical,
    }
}

/// Runs the sweep. `assert_bounds` enforces the bounded-directory and
/// GC-ran floors per point ([`report`], which CI runs, sets it).
#[must_use]
pub fn run(sizes: &[usize], seed: u64, assert_bounds: bool) -> StormExperiment {
    let points: Vec<StormPoint> = sizes
        .iter()
        .map(|&n| {
            std::thread::spawn(move || measure(n, seed, assert_bounds))
                .join()
                .expect("measure point")
        })
        .collect();
    StormExperiment { points, bounds_asserted: assert_bounds }
}

fn print_experiment(e: &StormExperiment) {
    println!("== update storm: publishes/s vs table size, durability off / WAL-only / full ==");
    let rows: Vec<Vec<String>> = e
        .points
        .iter()
        .map(|p| {
            vec![
                p.rules.to_string(),
                format!("{:.0}", p.off_per_sec),
                format!("{:.0}", p.walonly_per_sec),
                format!("{:.0}", p.full_per_sec),
                format!("{:.3}", p.speedup),
                p.wal_segments.to_string(),
                p.snapshots.to_string(),
                format!("{:.1} KiB", p.store_bytes as f64 / 1024.0),
                p.bounded.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "rules",
                "off/s",
                "wal-only/s",
                "full/s",
                "full/wal ratio",
                "segments",
                "snapshots",
                "store",
                "bounded",
            ],
            &rows
        )
    );
}

/// Runs the gated sweep, prints it and writes JSON.
pub fn report() {
    let e = run(&[1_000, 4_000, 16_000], crate::DEFAULT_SEED, true);
    print_experiment(&e);
    write_json("storm", &e);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_point_is_bounded_and_identical_at_small_size() {
        // Small and single-point: the in-measure assertions — bounded
        // directory, GC ran, byte-identical replay — are the point;
        // throughput is recorded only.
        let e = run(&[600], 11, true);
        assert_eq!(e.points.len(), 1);
        let p = &e.points[0];
        assert_eq!(p.rules, 600);
        assert!(p.bounded && p.identical);
        assert!(p.gc_runs >= 1);
        assert!(p.off_per_sec > 0.0 && p.walonly_per_sec > 0.0 && p.full_per_sec > 0.0);
        assert!(p.speedup > 0.0);
        assert!(e.bounds_asserted);
    }
}
