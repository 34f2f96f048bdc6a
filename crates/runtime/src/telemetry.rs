//! Per-shard runtime telemetry: throughput, cache effectiveness, batch
//! latency percentiles, hot-path allocation accounting.
//!
//! Workers publish into plain atomic counters ([`ShardCounters`],
//! relaxed stores, touched once per *batch*, never per packet);
//! [`crate::RuntimeHandle::telemetry`] snapshots them into the
//! immutable [`RuntimeTelemetry`] block, which renders itself as JSON
//! ([`RuntimeTelemetry::to_json`]) so operational tooling consumes one
//! self-contained document instead of scraping counters.

use classifier_api::CacheStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Latency histogram: power-of-two nanosecond buckets (bucket `i` holds
/// samples in `[2^i, 2^(i+1))` ns; bucket 0 holds sub-2ns samples).
const LATENCY_BUCKETS: usize = 40;

/// Lock-free counters one worker shard writes and anyone may read.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Packets classified.
    pub packets: AtomicU64,
    /// Batch jobs served.
    pub batches: AtomicU64,
    /// Nanoseconds spent classifying (excludes idle waiting).
    pub busy_ns: AtomicU64,
    /// Snapshot refreshes (RCU re-acquisitions after a publish).
    pub snapshot_refreshes: AtomicU64,
    /// Times the worker parked on its doorbell with an empty ring.
    pub idle_parks: AtomicU64,
    /// Heap allocations observed *inside* the per-packet serve loop by
    /// the installed allocation hook (see
    /// [`crate::RuntimeConfig::alloc_counter`]); stays 0 without a hook.
    pub hot_path_allocs: AtomicU64,
    /// Whether the kernel accepted this worker's CPU pin.
    pub pinned: AtomicBool,
    /// Liveness beat: bumped once per worker-loop iteration. The
    /// supervisor reads it to tell a wedged shard from an idle one; it
    /// is not part of the telemetry snapshot.
    pub heartbeat: AtomicU64,
    /// Worker panics caught by the shard's unwind boundary (injected or
    /// organic). Each one costs the in-flight batch a re-route.
    pub panics: AtomicU64,
    /// Times the supervisor respawned this shard after its worker died.
    pub restarts: AtomicU64,
    /// Jobs the supervisor re-routed into this shard's fresh ring after
    /// a death (ring backlog + the orphaned in-flight job).
    pub requeued_jobs: AtomicU64,
    /// Stall episodes the supervisor detected (heartbeat frozen with
    /// work pending).
    pub stalls_detected: AtomicU64,
    /// Batch jobs the dispatcher shed at admission (ring occupancy over
    /// the policy's bound, or deadline unreachable).
    pub shed_jobs: AtomicU64,
    /// Packets inside those shed jobs.
    pub shed_packets: AtomicU64,
    /// Packets whose job expired (deadline passed) before the worker
    /// picked it up — shed at service rather than at admission.
    pub deadline_shed_packets: AtomicU64,
    /// Mirrors of the worker-owned flow cache's counters.
    pub cache_hits: AtomicU64,
    /// See [`ShardCounters::cache_hits`].
    pub cache_misses: AtomicU64,
    /// See [`ShardCounters::cache_hits`].
    pub cache_insertions: AtomicU64,
    /// See [`ShardCounters::cache_hits`].
    pub cache_evictions: AtomicU64,
    /// See [`ShardCounters::cache_hits`].
    pub cache_rejections: AtomicU64,
    /// See [`ShardCounters::cache_hits`].
    pub cache_window_hits: AtomicU64,
    /// Effective main-region slot count of the worker's cache (set from
    /// the cache itself, so power-of-two rounding is reflected).
    pub cache_capacity: AtomicU64,
    /// Recency-window slot count of the worker's cache.
    pub cache_window_capacity: AtomicU64,
    /// Batch service latency histogram (submit → served), log2-ns.
    pub latency: LatencyHistogram,
    /// Totals from caches destroyed by respawns (see
    /// [`ShardCounters::absorb_cache_baseline`]).
    cache_base: CacheBaseline,
}

/// Base offsets for the cumulative cache counters: the totals of every
/// cache this shard has already worn out (a supervisor respawn builds
/// the worker a fresh cache whose stats restart at zero — without the
/// base, the mirrors would silently rewind).
#[derive(Debug, Default)]
struct CacheBaseline {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    rejections: AtomicU64,
    window_hits: AtomicU64,
}

impl ShardCounters {
    /// Copies the worker's cache stats into the atomic mirrors, on top
    /// of the base carried over from caches destroyed by respawns —
    /// the cumulative counters are monotone across worker generations.
    /// The capacity fields stay absolute (they describe the current
    /// cache, not a history).
    pub fn record_cache(&self, stats: &CacheStats) {
        let base = &self.cache_base;
        self.cache_hits.store(base.hits.load(Relaxed) + stats.hits, Relaxed);
        self.cache_misses.store(base.misses.load(Relaxed) + stats.misses, Relaxed);
        self.cache_insertions.store(base.insertions.load(Relaxed) + stats.insertions, Relaxed);
        self.cache_evictions.store(base.evictions.load(Relaxed) + stats.evictions, Relaxed);
        self.cache_rejections.store(base.rejections.load(Relaxed) + stats.rejections, Relaxed);
        self.cache_window_hits.store(base.window_hits.load(Relaxed) + stats.window_hits, Relaxed);
        self.cache_capacity.store(stats.capacity as u64, Relaxed);
        self.cache_window_capacity.store(stats.window_capacity as u64, Relaxed);
    }

    /// Folds the current mirrors into the base offsets. The supervisor
    /// calls this when it replaces a dead or abandoned worker (whose
    /// fresh cache restarts at zero), so [`ShardCounters::record_cache`]
    /// keeps the cumulative view monotone.
    pub fn absorb_cache_baseline(&self) {
        let base = &self.cache_base;
        base.hits.store(self.cache_hits.load(Relaxed), Relaxed);
        base.misses.store(self.cache_misses.load(Relaxed), Relaxed);
        base.insertions.store(self.cache_insertions.load(Relaxed), Relaxed);
        base.evictions.store(self.cache_evictions.load(Relaxed), Relaxed);
        base.rejections.store(self.cache_rejections.load(Relaxed), Relaxed);
        base.window_hits.store(self.cache_window_hits.load(Relaxed), Relaxed);
    }
}

/// Lock-free counters of how the control plane carried out its updates.
#[derive(Debug, Default)]
pub(crate) struct ControlCounters {
    pub(crate) publishes_in_place: AtomicU64,
    pub(crate) publishes_cloned: AtomicU64,
    pub(crate) removes_incremental: AtomicU64,
    pub(crate) removes_rebuilt: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) updates_paced: AtomicU64,
}

impl ControlCounters {
    pub(crate) fn capture(&self) -> ControlTelemetry {
        ControlTelemetry {
            publishes_in_place: self.publishes_in_place.load(Relaxed),
            publishes_cloned: self.publishes_cloned.load(Relaxed),
            removes_incremental: self.removes_incremental.load(Relaxed),
            removes_rebuilt: self.removes_rebuilt.load(Relaxed),
            compactions: self.compactions.load(Relaxed),
            updates_paced: self.updates_paced.load(Relaxed),
        }
    }
}

/// How the control plane carried out its updates: whether a publish
/// could edit the spare table image in place or had to deep-copy it
/// first, and whether a removal was an in-place edit or a regeneration.
/// Answers "why did this update take milliseconds" from the running
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControlTelemetry {
    /// Updates published by editing the spare table image in place.
    pub publishes_in_place: u64,
    /// Updates that deep-copied a table image first: the first update
    /// after boot or after a failed one (no spare yet), and every update
    /// that found a reader still holding the spare.
    pub publishes_cloned: u64,
    /// Removals the table applied as an in-place edit.
    pub removes_incremental: u64,
    /// Removals for which the table regenerated its structures (tables
    /// that cannot edit in place, and compactions).
    pub removes_rebuilt: u64,
    /// Removals that ended in a compaction: the in-place edit pushed the
    /// table's garbage over its bound (a subset of `removes_rebuilt`).
    pub compactions: u64,
    /// Updates that waited for their slot: they came sooner after the
    /// update before them than the runtime lets two updates start.
    pub updates_paced: u64,
}

impl ControlTelemetry {
    /// The *publish stall* property: the share of rule updates that had
    /// to deep-copy the table before publishing (0 with no updates).
    #[must_use]
    pub fn publish_stall(&self) -> f64 {
        let publishes = self.publishes_in_place + self.publishes_cloned;
        if publishes == 0 {
            0.0
        } else {
            self.publishes_cloned as f64 / publishes as f64
        }
    }
}

/// A lock-free log2 histogram of nanosecond durations.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, ns: u64) {
        let bits = 64 - ns.leading_zeros() as usize; // 0 for ns = 0
        let bucket = bits.saturating_sub(1).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Relaxed);
    }

    /// Snapshot of the bucket counts.
    fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }
}

/// Upper bound (exclusive) of histogram bucket `i` in nanoseconds.
fn bucket_upper(i: usize) -> u64 {
    1u64 << (i + 1)
}

/// Lower bound (inclusive) of histogram bucket `i` in nanoseconds.
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// The `q`-quantile (0..=1) of a bucketed sample set, linearly
/// interpolated within the matched log2 bucket by the rank's position
/// among that bucket's samples (the old upper-bound answer overstated
/// quantiles by up to 2x); 0 when empty.
fn quantile(buckets: &[u64; LATENCY_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &count) in buckets.iter().enumerate() {
        let before = seen;
        seen += count;
        if seen >= rank {
            let (lower, upper) = (bucket_lower(i), bucket_upper(i));
            let into = rank - before; // 1..=count
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let interpolated =
                lower + (((upper - lower) as f64) * (into as f64 / count as f64)) as u64;
            return interpolated;
        }
    }
    bucket_upper(LATENCY_BUCKETS - 1)
}

/// One shard's telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTelemetry {
    /// Shard index.
    pub shard: usize,
    /// Packets classified.
    pub packets: u64,
    /// Batch jobs served.
    pub batches: u64,
    /// Nanoseconds spent classifying.
    pub busy_ns: u64,
    /// Packets per second of busy time (0 when idle so far).
    pub busy_packets_per_sec: f64,
    /// Snapshot refreshes after RCU publishes.
    pub snapshot_refreshes: u64,
    /// Doorbell parks with an empty ring.
    pub idle_parks: u64,
    /// Heap allocations inside the per-packet serve loop (0 without an
    /// installed hook; required to stay 0 once warmed).
    pub hot_path_allocs: u64,
    /// Whether this worker is CPU-pinned.
    pub pinned: bool,
    /// Worker panics caught by the shard's unwind boundary.
    pub panics: u64,
    /// Supervisor respawns of this shard.
    pub restarts: u64,
    /// Jobs re-routed into this shard after a respawn.
    pub requeued_jobs: u64,
    /// Stall episodes the supervisor detected on this shard.
    pub stalls_detected: u64,
    /// Batch jobs shed at admission for this shard.
    pub shed_jobs: u64,
    /// Packets shed at admission.
    pub shed_packets: u64,
    /// Packets shed at service because their deadline expired.
    pub deadline_shed_packets: u64,
    /// Flow-cache counters, cumulative across worker generations (a
    /// respawn's fresh cache is folded onto the prior totals, see
    /// [`ShardCounters::absorb_cache_baseline`]).
    pub cache: CacheStats,
    /// Median batch latency (submit → served), ns, interpolated within
    /// its log2 bucket.
    pub latency_p50_ns: u64,
    /// 90th-percentile batch latency, ns.
    pub latency_p90_ns: u64,
    /// 99th-percentile batch latency, ns.
    pub latency_p99_ns: u64,
}

impl ShardTelemetry {
    /// Snapshots one shard's counters. `configured_capacity` is the
    /// fallback for the cache-capacity fields until the worker's first
    /// cache-stats mirror lands (the mirrors carry the cache's own
    /// effective, rounding-aware numbers).
    #[must_use]
    pub fn capture(shard: usize, c: &ShardCounters, configured_capacity: usize) -> Self {
        let packets = c.packets.load(Relaxed);
        let busy_ns = c.busy_ns.load(Relaxed);
        let hist = c.latency.snapshot();
        #[allow(clippy::cast_precision_loss)]
        let busy_packets_per_sec =
            if busy_ns == 0 { 0.0 } else { packets as f64 / (busy_ns as f64 / 1e9) };
        Self {
            shard,
            packets,
            batches: c.batches.load(Relaxed),
            busy_ns,
            busy_packets_per_sec,
            snapshot_refreshes: c.snapshot_refreshes.load(Relaxed),
            idle_parks: c.idle_parks.load(Relaxed),
            hot_path_allocs: c.hot_path_allocs.load(Relaxed),
            pinned: c.pinned.load(Relaxed),
            panics: c.panics.load(Relaxed),
            restarts: c.restarts.load(Relaxed),
            requeued_jobs: c.requeued_jobs.load(Relaxed),
            stalls_detected: c.stalls_detected.load(Relaxed),
            shed_jobs: c.shed_jobs.load(Relaxed),
            shed_packets: c.shed_packets.load(Relaxed),
            deadline_shed_packets: c.deadline_shed_packets.load(Relaxed),
            cache: CacheStats {
                hits: c.cache_hits.load(Relaxed),
                misses: c.cache_misses.load(Relaxed),
                insertions: c.cache_insertions.load(Relaxed),
                evictions: c.cache_evictions.load(Relaxed),
                rejections: c.cache_rejections.load(Relaxed),
                window_hits: c.cache_window_hits.load(Relaxed),
                capacity: match c.cache_capacity.load(Relaxed) {
                    0 => configured_capacity,
                    mirrored => mirrored as usize,
                },
                window_capacity: c.cache_window_capacity.load(Relaxed) as usize,
            },
            latency_p50_ns: quantile(&hist, 0.50),
            latency_p90_ns: quantile(&hist, 0.90),
            latency_p99_ns: quantile(&hist, 0.99),
        }
    }
}

/// Whole-runtime telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeTelemetry {
    /// Current published table version.
    pub version: u64,
    /// Worker shard count.
    pub shards: usize,
    /// Poisoned-lock recoveries across the runtime: a thread panicked
    /// while holding a runtime lock and a later accessor recovered the
    /// guard instead of cascading the panic.
    pub poison_recoveries: u64,
    /// Tickets whose `wait_timeout` elapsed before every shard
    /// delivered (the batch was returned `Partial` or `Timeout`).
    pub ticket_timeouts: u64,
    /// How the control plane carried out its updates.
    pub control: ControlTelemetry,
    /// Durable-control-plane counters; `None` on in-memory runtimes.
    pub durability: Option<DurabilityTelemetry>,
    /// Flight-recorder / metrics-sampler counters; `None` when the
    /// recorder is disabled ([`crate::RuntimeConfig::flight_recorder`]).
    pub trace: Option<TraceTelemetry>,
    /// Per-shard snapshots, shard order.
    pub per_shard: Vec<ShardTelemetry>,
}

/// Counters of the always-on flight recorder and the optional metrics
/// sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceTelemetry {
    /// Event lanes (worker shards + control, durability, supervisor).
    pub lanes: usize,
    /// Ring capacity per lane, in events.
    pub events_per_lane: usize,
    /// Events emitted across all lanes since boot.
    pub events_recorded: u64,
    /// Events the rings overwrote before any drain saw them.
    pub events_overwritten: u64,
    /// Flight-log images flushed to durable storage (checkpoint
    /// cadence, panic hook, escalation).
    pub flight_flushes: u64,
    /// Telemetry samples the cadence sampler has pushed (0 with the
    /// sampler off).
    pub sampler_samples: u64,
    /// Sample-ring retention bound (0 with the sampler off).
    pub sampler_capacity: usize,
}

/// Counters of a durable runtime's crash-only control plane
/// ([`crate::Runtime::with_durability`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityTelemetry {
    /// Rule operations durably appended to the write-ahead log.
    pub wal_appends: u64,
    /// Appends that failed (torn mid-record); each one rejected its
    /// update, so the live table and the log never diverged.
    pub wal_append_failures: u64,
    /// Checkpoints written (including injected torn/unsynced ones —
    /// whether a checkpoint *restores* is judged at recovery time).
    pub checkpoints: u64,
    /// Checkpoints that failed outright at write time.
    pub checkpoint_failures: u64,
    /// Whole-runtime restores the supervisor performed (escalations).
    pub runtime_restores: u64,
    /// Restores that found no usable checkpoint and fell back to
    /// republishing the live master.
    pub restore_fallbacks: u64,
    /// Invalid (torn / truncated / bit-flipped / unsynced) checkpoints
    /// skipped over across all restores.
    pub restore_skipped_checkpoints: u64,
    /// WAL records replayed on top of snapshots across all restores.
    pub wal_records_replayed: u64,
    /// Current run epoch (+1 per completed restore).
    pub run_epoch: u64,
    /// Total bytes across WAL segment files currently on disk.
    pub wal_bytes: u64,
    /// WAL segment files currently on disk.
    pub wal_segments: u64,
    /// Snapshot files currently on disk (valid or not).
    pub snapshots: u64,
    /// Total bytes across snapshot files currently on disk.
    pub snapshot_bytes: u64,
    /// Retention-GC passes the store ran this session.
    pub gc_runs: u64,
    /// Snapshot files GC unlinked (invalid, or older than the retained
    /// K generations).
    pub gc_snapshots_removed: u64,
    /// WAL segments GC unlinked (entirely below the retained
    /// watermark).
    pub gc_segments_removed: u64,
    /// Orphaned checkpoint `.tmp` files swept (at open and by GC).
    pub tmp_cleaned: u64,
    /// Active-WAL-segment rotations this session.
    pub segments_rotated: u64,
    /// Times the control plane entered WAL-only degraded mode (a
    /// durable checkpoint failed; serving continued on the log alone).
    pub degraded_episodes: u64,
    /// Whether the control plane is in WAL-only degraded mode right
    /// now (the last durable checkpoint attempt failed).
    pub degraded: bool,
}

impl RuntimeTelemetry {
    /// Packets classified across all shards.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.per_shard.iter().map(|s| s.packets).sum()
    }

    /// Cache counters summed over all shards.
    #[must_use]
    pub fn cache(&self) -> CacheStats {
        self.per_shard.iter().map(|s| s.cache).fold(CacheStats::default(), CacheStats::merged)
    }

    /// Aggregate cache hit rate across shards (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.cache().hit_rate()
    }

    /// Heap allocations observed on any shard's per-packet serve loop.
    #[must_use]
    pub fn hot_path_allocs(&self) -> u64 {
        self.per_shard.iter().map(|s| s.hot_path_allocs).sum()
    }

    /// Supervisor respawns across all shards.
    #[must_use]
    pub fn total_restarts(&self) -> u64 {
        self.per_shard.iter().map(|s| s.restarts).sum()
    }

    /// Worker panics caught across all shards.
    #[must_use]
    pub fn total_panics(&self) -> u64 {
        self.per_shard.iter().map(|s| s.panics).sum()
    }

    /// Packets shed across all shards, at admission or at service
    /// (deadline expiry).
    #[must_use]
    pub fn total_shed_packets(&self) -> u64 {
        self.per_shard.iter().map(|s| s.shed_packets + s.deadline_shed_packets).sum()
    }

    /// Renders the telemetry as a self-contained JSON document (compact,
    /// stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + 256 * self.per_shard.len());
        let _ = write!(
            out,
            "{{\"version\":{},\"shards\":{},\"total_packets\":{},\"hit_rate\":{:.6},\
             \"total_restarts\":{},\"total_panics\":{},\"total_shed_packets\":{},\
             \"poison_recoveries\":{},\"ticket_timeouts\":{},",
            self.version,
            self.shards,
            self.total_packets(),
            self.hit_rate(),
            self.total_restarts(),
            self.total_panics(),
            self.total_shed_packets(),
            self.poison_recoveries,
            self.ticket_timeouts,
        );
        let c = &self.control;
        let _ = write!(
            out,
            "\"control\":{{\"publishes_in_place\":{},\"publishes_cloned\":{},\
             \"publish_stall\":{:.6},\"removes_incremental\":{},\"removes_rebuilt\":{},\
             \"compactions\":{},\"updates_paced\":{}}},",
            c.publishes_in_place,
            c.publishes_cloned,
            c.publish_stall(),
            c.removes_incremental,
            c.removes_rebuilt,
            c.compactions,
            c.updates_paced,
        );
        match &self.durability {
            Some(d) => {
                let _ = write!(
                    out,
                    "\"durability\":{{\"wal_appends\":{},\"wal_append_failures\":{},\
                     \"checkpoints\":{},\"checkpoint_failures\":{},\"runtime_restores\":{},\
                     \"restore_fallbacks\":{},\"restore_skipped_checkpoints\":{},\
                     \"wal_records_replayed\":{},\"run_epoch\":{},\
                     \"wal_bytes\":{},\"wal_segments\":{},\"snapshots\":{},\
                     \"snapshot_bytes\":{},\"gc_runs\":{},\"gc_snapshots_removed\":{},\
                     \"gc_segments_removed\":{},\"tmp_cleaned\":{},\"segments_rotated\":{},\
                     \"degraded_episodes\":{},\"degraded\":{}}},",
                    d.wal_appends,
                    d.wal_append_failures,
                    d.checkpoints,
                    d.checkpoint_failures,
                    d.runtime_restores,
                    d.restore_fallbacks,
                    d.restore_skipped_checkpoints,
                    d.wal_records_replayed,
                    d.run_epoch,
                    d.wal_bytes,
                    d.wal_segments,
                    d.snapshots,
                    d.snapshot_bytes,
                    d.gc_runs,
                    d.gc_snapshots_removed,
                    d.gc_segments_removed,
                    d.tmp_cleaned,
                    d.segments_rotated,
                    d.degraded_episodes,
                    d.degraded,
                );
            }
            None => out.push_str("\"durability\":null,"),
        }
        match &self.trace {
            Some(tr) => {
                let _ = write!(
                    out,
                    "\"trace\":{{\"lanes\":{},\"events_per_lane\":{},\"events_recorded\":{},\
                     \"events_overwritten\":{},\"flight_flushes\":{},\"sampler_samples\":{},\
                     \"sampler_capacity\":{}}},",
                    tr.lanes,
                    tr.events_per_lane,
                    tr.events_recorded,
                    tr.events_overwritten,
                    tr.flight_flushes,
                    tr.sampler_samples,
                    tr.sampler_capacity,
                );
            }
            None => out.push_str("\"trace\":null,"),
        }
        out.push_str("\"per_shard\":[");
        for (i, s) in self.per_shard.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"packets\":{},\"batches\":{},\"busy_ns\":{},\
                 \"busy_packets_per_sec\":{:.1},\"snapshot_refreshes\":{},\"idle_parks\":{},\
                 \"hot_path_allocs\":{},\"pinned\":{},\
                 \"faults\":{{\"panics\":{},\"restarts\":{},\"requeued_jobs\":{},\
                 \"stalls_detected\":{},\"shed_jobs\":{},\"shed_packets\":{},\
                 \"deadline_shed_packets\":{}}},\
                 \"cache\":{{\"hits\":{},\"misses\":{},\
                 \"hit_rate\":{:.6},\"insertions\":{},\"evictions\":{},\"rejections\":{},\
                 \"window_hits\":{},\"capacity\":{},\"window_capacity\":{}}},\
                 \"latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{}}}}}",
                s.shard,
                s.packets,
                s.batches,
                s.busy_ns,
                s.busy_packets_per_sec,
                s.snapshot_refreshes,
                s.idle_parks,
                s.hot_path_allocs,
                s.pinned,
                s.panics,
                s.restarts,
                s.requeued_jobs,
                s.stalls_detected,
                s.shed_jobs,
                s.shed_packets,
                s.deadline_shed_packets,
                s.cache.hits,
                s.cache.misses,
                s.cache.hit_rate(),
                s.cache.insertions,
                s.cache.evictions,
                s.cache.rejections,
                s.cache.window_hits,
                s.cache.capacity,
                s.cache.window_capacity,
                s.latency_p50_ns,
                s.latency_p90_ns,
                s.latency_p99_ns,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::{parse_json, Json};

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for ns in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 100_000] {
            h.record(ns);
        }
        let snap = h.snapshot();
        let p50 = quantile(&snap, 0.50);
        let p99 = quantile(&snap, 0.99);
        assert!((64..=256).contains(&p50), "p50 {p50}");
        assert!(p99 >= 65_536, "p99 {p99}");
        assert_eq!(quantile(&LatencyHistogram::default().snapshot(), 0.5), 0);
        // Extremes do not overflow the bucket range.
        h.record(0);
        h.record(u64::MAX);
    }

    #[test]
    fn quantiles_interpolate_within_their_bucket() {
        // Six samples all in bucket [64, 128). rank(p50) = 3 of 6, so
        // the interpolated p50 sits halfway through the bucket — not at
        // its 128 upper bound (the old behaviour, up to 2x overstated).
        let h = LatencyHistogram::default();
        for ns in [70u64, 80, 90, 100, 110, 120] {
            h.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(quantile(&snap, 0.50), 96, "64 + 64 * (3/6)");
        assert_eq!(quantile(&snap, 1.0), 128, "the max rank reaches the upper bound");

        // The known set from the bracketing test: nine 100s, one 100_000.
        // rank(p50) = 5 of the 9 samples in [64, 128): 64 + 64*5/9 = 99.
        let h = LatencyHistogram::default();
        for ns in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 100_000] {
            h.record(ns);
        }
        assert_eq!(quantile(&h.snapshot(), 0.50), 99);

        // A lone sample in a bucket lands on the bucket's upper bound
        // (rank position 1 of 1), never beyond it.
        let h = LatencyHistogram::default();
        h.record(1000); // bucket [512, 1024)
        assert_eq!(quantile(&h.snapshot(), 0.50), 1024);
        // Bucket 0 interpolates from 0, not from a phantom 2^0 = 1.
        let h = LatencyHistogram::default();
        h.record(0);
        assert!(quantile(&h.snapshot(), 0.50) <= 2);
    }

    #[test]
    fn cache_counters_stay_monotone_across_respawns() {
        let counters = ShardCounters::default();
        counters.record_cache(&CacheStats {
            hits: 100,
            misses: 40,
            insertions: 30,
            evictions: 5,
            rejections: 2,
            window_hits: 9,
            capacity: 64,
            window_capacity: 4,
        });
        assert_eq!(counters.cache_hits.load(Relaxed), 100);

        // The worker dies; the supervisor folds the dead cache's totals
        // into the base before the fresh worker (whose stats restart at
        // zero) reports.
        counters.absorb_cache_baseline();
        counters.record_cache(&CacheStats {
            hits: 3,
            misses: 1,
            capacity: 64,
            window_capacity: 4,
            ..CacheStats::default()
        });
        assert_eq!(counters.cache_hits.load(Relaxed), 103, "hits accumulate across generations");
        assert_eq!(counters.cache_misses.load(Relaxed), 41);
        assert_eq!(counters.cache_insertions.load(Relaxed), 30);
        assert_eq!(counters.cache_window_hits.load(Relaxed), 9);
        assert_eq!(counters.cache_capacity.load(Relaxed), 64, "capacity stays absolute");

        // A second generation keeps compounding.
        counters.absorb_cache_baseline();
        counters.record_cache(&CacheStats { hits: 10, ..CacheStats::default() });
        assert_eq!(counters.cache_hits.load(Relaxed), 113);
    }

    /// Asserts `value` is an object whose keys are exactly `want`, in
    /// document order.
    fn assert_keys(value: &Json, want: &[&str], context: &str) {
        assert!(matches!(value, Json::Obj(_)), "{context} is not an object");
        assert_eq!(value.keys(), want, "{context} key set drifted");
    }

    fn assert_telemetry_schema(doc: &Json) {
        assert_keys(
            doc,
            &[
                "version",
                "shards",
                "total_packets",
                "hit_rate",
                "total_restarts",
                "total_panics",
                "total_shed_packets",
                "poison_recoveries",
                "ticket_timeouts",
                "control",
                "durability",
                "trace",
                "per_shard",
            ],
            "document",
        );
        assert_keys(
            doc.get("control").expect("control present"),
            &[
                "publishes_in_place",
                "publishes_cloned",
                "publish_stall",
                "removes_incremental",
                "removes_rebuilt",
                "compactions",
                "updates_paced",
            ],
            "control",
        );
        match doc.get("durability").expect("durability present") {
            Json::Null => {}
            d => assert_keys(
                d,
                &[
                    "wal_appends",
                    "wal_append_failures",
                    "checkpoints",
                    "checkpoint_failures",
                    "runtime_restores",
                    "restore_fallbacks",
                    "restore_skipped_checkpoints",
                    "wal_records_replayed",
                    "run_epoch",
                    "wal_bytes",
                    "wal_segments",
                    "snapshots",
                    "snapshot_bytes",
                    "gc_runs",
                    "gc_snapshots_removed",
                    "gc_segments_removed",
                    "tmp_cleaned",
                    "segments_rotated",
                    "degraded_episodes",
                    "degraded",
                ],
                "durability",
            ),
        }
        match doc.get("trace").expect("trace present") {
            Json::Null => {}
            tr => assert_keys(
                tr,
                &[
                    "lanes",
                    "events_per_lane",
                    "events_recorded",
                    "events_overwritten",
                    "flight_flushes",
                    "sampler_samples",
                    "sampler_capacity",
                ],
                "trace",
            ),
        }
        let shards = doc.get("per_shard").and_then(Json::as_arr).expect("per_shard array");
        for s in shards {
            assert_keys(
                s,
                &[
                    "shard",
                    "packets",
                    "batches",
                    "busy_ns",
                    "busy_packets_per_sec",
                    "snapshot_refreshes",
                    "idle_parks",
                    "hot_path_allocs",
                    "pinned",
                    "faults",
                    "cache",
                    "latency_ns",
                ],
                "per_shard entry",
            );
            assert_keys(
                s.get("faults").expect("faults"),
                &[
                    "panics",
                    "restarts",
                    "requeued_jobs",
                    "stalls_detected",
                    "shed_jobs",
                    "shed_packets",
                    "deadline_shed_packets",
                ],
                "faults",
            );
            assert_keys(
                s.get("cache").expect("cache"),
                &[
                    "hits",
                    "misses",
                    "hit_rate",
                    "insertions",
                    "evictions",
                    "rejections",
                    "window_hits",
                    "capacity",
                    "window_capacity",
                ],
                "cache",
            );
            assert_keys(
                s.get("latency_ns").expect("latency_ns"),
                &["p50", "p90", "p99"],
                "latency",
            );
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let counters = ShardCounters::default();
        counters.packets.store(10, Relaxed);
        counters.busy_ns.store(1000, Relaxed);
        counters.record_cache(&CacheStats { hits: 7, misses: 3, ..CacheStats::default() });
        counters.latency.record(500);
        counters.panics.store(1, Relaxed);
        counters.restarts.store(1, Relaxed);
        counters.shed_packets.store(5, Relaxed);
        counters.deadline_shed_packets.store(2, Relaxed);
        let mut t = RuntimeTelemetry {
            version: 3,
            shards: 1,
            poison_recoveries: 4,
            ticket_timeouts: 1,
            control: ControlTelemetry {
                publishes_in_place: 3,
                publishes_cloned: 1,
                ..Default::default()
            },
            durability: None,
            trace: None,
            per_shard: vec![ShardTelemetry::capture(0, &counters, 64)],
        };
        assert_eq!(t.total_packets(), 10);
        assert!((t.hit_rate() - 0.7).abs() < 1e-9);
        assert_eq!(t.total_restarts(), 1);
        assert_eq!(t.total_panics(), 1);
        assert_eq!(t.total_shed_packets(), 7);

        // In-memory runtime: durability and trace render as null.
        let doc = parse_json(&t.to_json()).expect("telemetry JSON parses");
        assert_telemetry_schema(&doc);
        assert_eq!(doc.get("version").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("total_packets").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("total_shed_packets").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("poison_recoveries").and_then(Json::as_f64), Some(4.0));
        assert!(matches!(doc.get("durability"), Some(Json::Null)));
        assert!(matches!(doc.get("trace"), Some(Json::Null)));
        let shard0 = &doc.get("per_shard").and_then(Json::as_arr).expect("per_shard")[0];
        assert_eq!(shard0.get("pinned").and_then(Json::as_bool), Some(false));
        assert_eq!(
            shard0.get("cache").and_then(|c| c.get("hits")).and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(
            shard0.get("faults").and_then(|f| f.get("shed_packets")).and_then(Json::as_f64),
            Some(5.0)
        );
        assert!(shard0
            .get("latency_ns")
            .and_then(|l| l.get("p50"))
            .and_then(Json::as_f64)
            .is_some());

        // A durable, traced runtime renders the nested blocks instead.
        t.durability = Some(DurabilityTelemetry {
            wal_appends: 12,
            wal_append_failures: 1,
            checkpoints: 2,
            runtime_restores: 1,
            wal_records_replayed: 4,
            run_epoch: 1,
            wal_bytes: 4096,
            wal_segments: 2,
            snapshots: 2,
            gc_runs: 3,
            gc_segments_removed: 5,
            segments_rotated: 6,
            degraded_episodes: 1,
            degraded: true,
            ..DurabilityTelemetry::default()
        });
        t.trace = Some(TraceTelemetry {
            lanes: 4,
            events_per_lane: 1024,
            events_recorded: 99,
            events_overwritten: 7,
            flight_flushes: 2,
            sampler_samples: 31,
            sampler_capacity: 512,
        });
        let doc = parse_json(&t.to_json()).expect("durable telemetry JSON parses");
        assert_telemetry_schema(&doc);
        let d = doc.get("durability").expect("durability block");
        assert_eq!(d.get("wal_appends").and_then(Json::as_f64), Some(12.0));
        assert_eq!(d.get("gc_segments_removed").and_then(Json::as_f64), Some(5.0));
        assert_eq!(d.get("degraded").and_then(Json::as_bool), Some(true));
        let tr = doc.get("trace").expect("trace block");
        assert_eq!(tr.get("lanes").and_then(Json::as_f64), Some(4.0));
        assert_eq!(tr.get("events_recorded").and_then(Json::as_f64), Some(99.0));
        assert_eq!(tr.get("sampler_samples").and_then(Json::as_f64), Some(31.0));
    }
}
