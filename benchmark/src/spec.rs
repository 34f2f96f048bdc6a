//! The benchmark's declarative tables: workloads, end-to-end metrics
//! with their bounds, and per-layer metrics. Everything else in the
//! crate reads these; `BENCHMARK.json` at the repo root is rendered
//! from them by the `manifest` subcommand (and the smoke test asserts
//! the committed file still matches).

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default for `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

/// What a user of the system sees. Every workload reports every one of
/// these — the driver's contract: "With `--trace 0` the metrics are every
/// `end_to_end` metric" — each from the one phase that measures it, see
/// [`Workload::plan`].
pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("pps", "1/s", Better::Higher, 0.25),
    e2e("lat_p50_us", "us", Better::Lower, 0.25),
    e2e("add_visible_p50_ms", "ms", Better::Lower, 0.25),
    e2e("remove_visible_p50_ms", "ms", Better::Lower, 0.25),
    e2e("updates_per_s", "1/s", Better::Higher, 0.25),
    e2e("add_ack_p50_ms", "ms", Better::Lower, 0.25),
    e2e("remove_ack_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
    e2e("mem_bits_per_rule", "bits/rule", Better::Lower, 0.001),
    e2e("mem_accesses_per_lookup", "count", Better::Lower, 0.001),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Single-layer numbers, printed by the traced run (`--trace 1`) only.
/// Ungated; README.md lists which end-to-end cell each should move.
pub const PER_LAYER: [Metric; 65] = [
    layer("ofalgo.mbt_lookup_ns", "ns", Lower),
    layer("ofalgo.mbt_lookup_multi_ns", "ns", Lower),
    layer("ofalgo.chain_into_ns", "ns", Lower),
    layer("mtl-core.classify_ns", "ns", Lower),
    layer("mtl-core.index_probe_ns", "ns", Lower),
    layer("mtl-core.classify_batch_ns", "ns", Lower),
    layer("mtl-core.clone_ms", "ms", Lower),
    layer("mtl-core.insert_rule_ms", "ms", Lower),
    layer("mtl-core.remove_rule_ms", "ms", Lower),
    layer("mtl-core.build_ms", "ms", Lower),
    layer("mtl-core.memory_bits.tries", "bits", Lower),
    layer("mtl-core.memory_bits.index", "bits", Lower),
    layer("mtl-core.memory_bits.actions", "bits", Lower),
    layer("mtl-core.encode_ms", "ms", Lower),
    layer("mtl-core.decode_ms", "ms", Lower),
    layer("mtl-core.image_bytes", "B", Lower),
    layer("classifier-api.cache_hit_ns", "ns", Lower),
    layer("classifier-api.cache_miss_ns", "ns", Lower),
    layer("classifier-api.cache_insert_ns", "ns", Lower),
    layer("classifier-api.cache_rejections", "count", Lower),
    layer("classifier-api.cache_hit_rate", "ratio", Higher),
    layer("mtl-runtime.submit_ns", "ns", Lower),
    layer("mtl-runtime.wait_ns", "ns", Lower),
    layer("mtl-runtime.round_trip_ns", "ns", Lower),
    layer("mtl-runtime.overhead_ns_per_batch", "ns", Lower),
    layer("mtl-runtime.overhead_share", "ratio", Lower),
    layer("mtl-runtime.allocs_per_batch", "count", Lower),
    layer("mtl-runtime.ring_push_pop_ns", "ns", Lower),
    layer("mtl-runtime.shard_of_ns", "ns", Lower),
    layer("mtl-runtime.idle_parks", "count", Lower),
    layer("mtl-runtime.service_ns_per_packet", "ns", Lower),
    layer("mtl-runtime.busy_share", "ratio", Lower),
    layer("mtl-runtime.snapshot_publish_us", "us", Lower),
    layer("mtl-runtime.snapshot_refreshes", "count", Lower),
    layer("mtl-runtime.add_rule_ms", "ms", Lower),
    layer("mtl-runtime.remove_rule_ms", "ms", Lower),
    layer("mtl-runtime.add_visible_p90_ms", "ms", Lower),
    layer("mtl-runtime.remove_visible_p90_ms", "ms", Lower),
    layer("mtl-runtime.visible_samples", "count", Higher),
    layer("mtl-runtime.restore_p50_ms", "ms", Lower),
    layer("mtl-runtime.restore_samples", "count", Higher),
    layer("mtl-runtime.boot_ms", "ms", Lower),
    layer("mtl-persist.wal_append_us", "us", Lower),
    layer("mtl-persist.wal_bytes_per_op", "B", Lower),
    layer("mtl-persist.checkpoint_ms", "ms", Lower),
    layer("mtl-persist.recover_ms", "ms", Lower),
    layer("mtl-persist.store_bytes", "B", Lower),
    layer("mtl-trace.emit_ns", "ns", Lower),
    layer("mtl-trace.events_per_batch", "count", Lower),
    layer("mtl-trace.tax_share", "ratio", Lower),
    layer("offilter.gen_rules_ms", "ms", Lower),
    layer("offilter.gen_trace_ms", "ms", Lower),
    layer("loadgen.lat_p90_us", "us", Lower),
    layer("loadgen.lat_p99_us", "us", Lower),
    layer("loadgen.lat_p999_us", "us", Lower),
    layer("loadgen.samples", "count", Higher),
    layer("loadgen.late_p99_us", "us", Lower),
    layer("loadgen.backlog_end", "count", Lower),
    layer("loadgen.late_rounds", "count", Lower),
    layer("loadgen.pps_slice_iqr", "ratio", Lower),
    layer("budget.stage_sum_ns", "ns", Lower),
    layer("budget.gap_share", "ratio", Lower),
    layer("budget.little_gap", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Higher),
];

/// Which rule table a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// The paper's `yoza` routing set (Table IV statistics, 4 746 rules).
    Small,
    /// 16 000 routing rules with paper-shaped statistics.
    Large,
}

/// Which packets a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flows {
    /// 512 flows drawn from the table's pool, Zipf(1.0) ranked: they fit
    /// the 1 024-slot per-shard flow cache.
    ZipfHot,
    /// Every flow of the 262 144-flow pool once per cycle (256x the
    /// cache): nothing is ever seen again while it could still be cached.
    Scan,
}

/// How a run's `--seconds` are divided among the sequential phases
/// (shares sum to 1); the cells a workload was built for (README.md)
/// get the most. `open == 0.0` means the workload has no quiet
/// open-loop phase and `lat_p50_us` is measured in the churn phase,
/// beside the updater.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub closed: f64,
    pub open: f64,
    pub churn: f64,
    pub storm: f64,
}

/// One workload: a set of inputs plus the share of the run each phase
/// gets. The open-loop rate is a constant, never calibrated per run
/// (README.md says why each is well under half of closed-loop `pps`).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub table: Table,
    pub flows: Flows,
    pub batch: usize,
    /// Outstanding batches in the closed-loop phase.
    pub window: usize,
    /// Packets per second offered in the open-loop and churn phases.
    pub open_rate_pps: f64,
    /// Whether the runtime is durable (WAL + checkpoint every 64).
    pub durable: bool,
    pub plan: Plan,
}

const TRAFFIC: Plan = Plan { closed: 0.30, open: 0.30, churn: 0.25, storm: 0.15 };

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "zipf_hot",
        why: "512 Zipf flows fit the flow cache (hit rate >= 0.99): cache probe and per-batch runtime work dominate, the classifier idles",
        table: Table::Small,
        flows: Flows::ZipfHot,
        batch: 4096,
        window: 4,
        open_rate_pps: 8.0e6,
        durable: false,
        plan: TRAFFIC,
    },
    Workload {
        name: "scan_miss",
        why: "262144 never-repeating flows, 256x the cache (hit rate <= 0.01): trie walk, index probe and cache insert do the work; bypass twin of zipf_hot",
        table: Table::Small,
        flows: Flows::Scan,
        batch: 4096,
        window: 4,
        open_rate_pps: 0.5e6,
        durable: false,
        plan: TRAFFIC,
    },
    Workload {
        name: "small_batch",
        why: "zipf_hot's packets in 64-packet batches, window 8: at least half of a round trip is per-batch cost (scatter, reply, ring, doorbell, recorder)",
        table: Table::Small,
        flows: Flows::ZipfHot,
        batch: 64,
        window: 8,
        open_rate_pps: 0.125e6,
        durable: false,
        plan: TRAFFIC,
    },
    Workload {
        name: "churn",
        why: "zipf_hot traffic open loop beside one updater (add, probe until visible, remove, probe): reads beside writes, every publish clones the table and bumps the cache epoch",
        table: Table::Small,
        flows: Flows::ZipfHot,
        batch: 4096,
        window: 4,
        open_rate_pps: 8.0e6,
        durable: false,
        plan: Plan { closed: 0.20, open: 0.0, churn: 0.65, storm: 0.15 },
    },
    Workload {
        name: "update_storm",
        why: "16000 rules, durable (WAL + checkpoint every 64): back-to-back add/remove pairs with no traffic beside them, then cold restores; table clone, rebuild-on-remove, fsync and image encode do the work",
        table: Table::Large,
        flows: Flows::ZipfHot,
        batch: 4096,
        window: 4,
        open_rate_pps: 8.0e6,
        durable: true,
        plan: Plan { closed: 0.15, open: 0.15, churn: 0.25, storm: 0.45 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
