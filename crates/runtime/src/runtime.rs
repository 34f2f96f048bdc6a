//! The sharded run-to-completion runtime.
//!
//! ```text
//!                    RSS-style header hash
//!  submit(batch) ──► dispatcher ──► SPSC ring ──► shard worker 0 ──┐
//!                        │ admission                (FlowCache +   │ scatter
//!                        │ policy ──► SPSC ring ──► shard worker 1 ├──────► rows +
//!                        │ (shed?)                     replicated  │        versions
//!                        └────────► SPSC ring ──► shard worker N ──┘
//!                                       ▲              ▲    │ heartbeat
//!                       SnapshotCell ◄──┼─ publish ─ control│plane
//!                      (RCU swaps)      │                   ▼
//!                                       └──────────── supervisor
//!                                        (respawn dead shards, re-route
//!                                         their in-flight batches)
//! ```
//!
//! * **Dispatcher** ([`RuntimeHandle::submit`]): hashes each header's
//!   field tuple (the software analogue of NIC RSS) so every packet of a
//!   flow lands on the same shard — which is what makes per-shard flow
//!   caches effective — and enqueues one job per shard, subject to the
//!   configured [`AdmissionPolicy`] (block, shed over occupancy, or
//!   deadline-aware shedding).
//! * **Workers**: run-to-completion loops, one per shard, optionally
//!   CPU-pinned. Each owns its ring's consumer end, its own
//!   [`FlowCache`] and its own replicated `Arc` snapshot of the lookup
//!   table — refreshed *between* jobs when the cell's version moved, so
//!   one job is always served under exactly one table generation. The
//!   per-packet path touches no locks: cache probe (worker-owned) and
//!   table walk (immutable snapshot) only. Not every packet goes
//!   through the cache: the cache decides once per job whether it pays
//!   its way, and while its recent hit rate is below break-even (a
//!   scan) the worker walks the table for every packet and sends only
//!   about one in 64 through the cache, so the cache can tell when the
//!   traffic turns hot again (see `FlowCache::begin_batch`). Every
//!   worker runs under an unwind boundary: a panic is caught, counted,
//!   and handed to the supervisor instead of aborting the process.
//! * **Supervisor** ([`crate::supervisor`]): detects worker death
//!   (thread liveness + the ring's `consumer_alive` signal) and stalls
//!   (frozen heartbeat with work pending), respawns dead shards with a
//!   fresh ring / snapshot reader / cache, and re-routes the dead ring's
//!   backlog plus the orphaned in-flight job — a [`Ticket`] never hangs
//!   on a crashed shard.
//! * **Control plane** ([`RuntimeHandle::add_rule`],
//!   [`RuntimeHandle::remove_rule`], [`RuntimeHandle::swap_table`]):
//!   keeps **two table images** behind `Arc` and alternates between
//!   them — the one the [`SnapshotCell`] serves, and the one it served
//!   before, which lags by one logical operation. An update takes the
//!   lagging image, replays the operation it missed, applies the new
//!   one and publishes it; the image it replaces becomes the next
//!   update's spare. The spare is edited in place when nobody else
//!   holds it ([`Arc::make_mut`]); a reader stalled mid-batch on it
//!   costs the writer a deep copy, never a wait. Readers never block.
//!   Each update also puts the rule it added or removed on record (a
//!   change log, by version), so a shard catching up brings its flow
//!   cache along: it evicts the entries the changes in between could
//!   have affected — what an added rule matches, what a removed rule
//!   was answering — and keeps the rest warm. Without this an updater
//!   that publishes faster than the shards serve batches (it does, now
//!   that an update costs microseconds) would have every batch start on
//!   an empty cache. Back-to-back updates are spaced `UPDATE_INTERVAL`
//!   apart, which bounds how many versions a shard can fall behind in a
//!   given time, and so how long a batch the record is sure to cover;
//!   an update after a pause starts at once. When the record does not
//!   say (a whole table was swapped in, the shard is far behind, many
//!   rules were added) the cache goes as a whole, by moving its epoch to
//!   the publish version (unique and strictly monotone per table image).
//!
//! Results come back as a [`ClassifiedBatch`]: the rows in input order
//! plus, per packet, the **version** of the table that served it — the
//! hook consistency harnesses use to check every answer against a
//! sequential oracle *at the generation it was served under*. Packets
//! that were shed (admission or deadline) or lost to a repeatedly
//! crashing shard report [`UNSERVED_VERSION`] instead of a real
//! generation: delivery is explicit, never implied.
//!
//! ## Failure model
//!
//! Every lock in the runtime recovers from poisoning (a panic on one
//! thread never cascades into `PoisonError` panics on others; each
//! recovery is counted in [`RuntimeTelemetry::poison_recoveries`]).
//! A worker panic costs at most its in-flight job a re-route; a job
//! that kills its shard [`MAX_REQUEUES`] times is completed unserved
//! rather than respawning forever. Shutdown drains every ring and
//! orphan slot and completes outstanding tickets unserved, so no waiter
//! is stranded.

use classifier_api::{
    Admission, BuildError, Classifier, DynamicClassifier, FlowCache, FxHasher, UpdateReport,
};
use offilter::Rule;
use oflow::{HeaderValues, MatchFieldKind};
use std::collections::VecDeque;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::durability::{
    recover, replay_onto, DurabilityConfig, DurabilityCounters, DurableState, EscalationPolicy,
    RestoreReport,
};
use crate::pin::pin_to_cpu;
use crate::ring::{spsc, Consumer, Producer};
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::telemetry::{
    ControlCounters, DurabilityTelemetry, RuntimeTelemetry, ShardCounters, ShardTelemetry,
    TraceTelemetry,
};
use mtl_persist::{CheckpointMode, PersistError, Persistent, Store, WalOp, FLIGHT_LOG_MAX_BYTES};
use mtl_trace::{
    encode_flight_log, Event, EventKind, FlightRecorder, MetricPoint, SeriesRing, SpanOp,
};

#[cfg(feature = "fault-injection")]
use crate::fault::{CheckpointFault, Fault, FaultPlan};

/// The version reported for packets that were never classified: shed at
/// admission, expired past their deadline, stranded by shutdown, or
/// abandoned after [`MAX_REQUEUES`] shard crashes. Real snapshot
/// versions start at 1, so 0 is unambiguous.
pub const UNSERVED_VERSION: u64 = 0;

/// How many times the supervisor re-routes one job whose shard died
/// serving it before declaring the job poisonous and completing it
/// unserved (otherwise a deterministically crashing batch would respawn
/// the shard forever).
pub const MAX_REQUEUES: u8 = 3;

/// Locks `m`, recovering from a poisoned guard — the thread that
/// panicked while holding the lock already paid for the failure; later
/// accessors count the recovery and move on instead of cascading it.
fn lock_count<'a, T>(m: &'a Mutex<T>, recoveries: &AtomicU64) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| {
        recoveries.fetch_add(1, Relaxed);
        poisoned.into_inner()
    })
}

/// What the dispatcher does when a shard's ring cannot take a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Back-pressure: spin (yielding) until the ring has space. No job
    /// is ever dropped; submitters absorb the overload.
    #[default]
    Block,
    /// Load shedding: a shard-job is rejected outright when its ring
    /// already holds `max_queued` jobs (clamped to ≥ 1) or is full. Shed
    /// packets resolve immediately as unserved
    /// ([`UNSERVED_VERSION`]) and are counted per shard.
    Shed {
        /// Jobs a shard's ring may hold before new ones are shed.
        max_queued: usize,
    },
    /// Deadline-aware shedding: submitters block while the deadline is
    /// reachable, then shed; workers additionally drop (as unserved) any
    /// job whose deadline already passed when they pick it up, so a
    /// stalled shard shed its queue instead of serving uselessly late.
    DeadlineShed {
        /// Per-batch service deadline, measured from `submit`.
        deadline: Duration,
    },
}

/// Shape of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker shards (≥ 1; clamped up from 0).
    pub shards: usize,
    /// In-flight batch jobs each shard's ring holds before the
    /// dispatcher applies the admission policy.
    pub ring_capacity: usize,
    /// Per-shard flow-cache slots (0 disables caching).
    pub cache_capacity: usize,
    /// Admission policy of the per-shard caches.
    pub cache_admission: Admission,
    /// What `submit` does when a shard's ring is saturated.
    pub admission: AdmissionPolicy,
    /// Pin worker `i` to CPU `i` (best-effort; see [`crate::pin`]).
    pub pin_workers: bool,
    /// Thread-local allocation counter the workers sample around their
    /// per-packet serve loop (e.g. the bench harness's probe); the
    /// deltas surface as `hot_path_allocs` in telemetry and are
    /// required to be zero once warmed.
    pub alloc_counter: Option<fn() -> u64>,
    /// Whether the flight recorder runs (always-on by default; the
    /// only reason to turn it off is measuring the observability tax's
    /// baseline). Off, the runtime carries zero tracing work.
    pub flight_recorder: bool,
    /// Ring capacity per recorder lane, in events (rounded up to a
    /// power of two, clamped to
    /// [`mtl_trace::EVENTS_PER_LANE_MAX`]).
    pub trace_events_per_lane: usize,
    /// Cadence of the metrics sampler thread, which snapshots the
    /// runtime telemetry into an in-memory time series; `None` (the
    /// default) spawns no sampler. Requires the flight recorder.
    pub metrics_sampler: Option<Duration>,
    /// Samples the metrics time-series ring retains.
    pub metrics_series_capacity: usize,
    /// Deterministic fault schedule the runtime threads consult
    /// (chaos/fault-injection builds only).
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism().map_or(1, usize::from).min(8),
            ring_capacity: 64,
            cache_capacity: 1024,
            cache_admission: Admission::TinyLfu,
            admission: AdmissionPolicy::Block,
            pin_workers: true,
            alloc_counter: None,
            flight_recorder: true,
            trace_events_per_lane: mtl_trace::DEFAULT_EVENTS_PER_LANE,
            metrics_sampler: None,
            metrics_series_capacity: mtl_trace::DEFAULT_SERIES_CAPACITY,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl RuntimeConfig {
    /// The default configuration with an explicit shard count.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }
}

/// One shard's portion of a submitted batch.
#[derive(Clone)]
pub(crate) struct Job {
    pub(crate) headers: Arc<[HeaderValues]>,
    /// Packet indices (into `headers`) this shard serves.
    pub(crate) idx: Vec<u32>,
    /// The shard this job was dispatched to (the reply dedup key: a
    /// batch has at most one job per shard).
    pub(crate) shard: u32,
    pub(crate) submitted: Instant,
    /// Service deadline under [`AdmissionPolicy::DeadlineShed`].
    pub(crate) deadline: Option<Instant>,
    /// Times the supervisor already re-routed this job after a crash.
    pub(crate) requeues: u8,
    pub(crate) reply: Arc<Reply>,
}

/// One shard's results for one batch.
pub(crate) struct Part {
    shard: u32,
    idx: Vec<u32>,
    rows: Vec<Option<u32>>,
    version: u64,
}

struct ReplyState {
    remaining: usize,
    /// Shards whose part already landed — the dedup set that makes a
    /// crash-window double completion (worker completed, died before
    /// clearing its in-flight slot, supervisor re-routed) harmless.
    done: Vec<u32>,
    parts: Vec<Part>,
}

/// Completion rendezvous between the shards serving one batch and the
/// ticket holder. Locked per *batch* (never per packet).
pub(crate) struct Reply {
    state: Mutex<ReplyState>,
    cv: Condvar,
    recoveries: Arc<AtomicU64>,
}

impl Reply {
    pub(crate) fn complete(&self, part: Part) {
        let mut st = lock_count(&self.state, &self.recoveries);
        if st.done.contains(&part.shard) {
            // A re-routed job whose original worker already completed
            // the part before dying: drop the duplicate.
            return;
        }
        st.done.push(part.shard);
        st.parts.push(part);
        st.remaining -= 1;
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }
}

/// Completes `job`'s reply part as unserved (every packet reports
/// [`UNSERVED_VERSION`]); optionally counted as shed on `counters`.
pub(crate) fn complete_unserved(counters: &ShardCounters, job: Job, count_shed: bool) {
    if count_shed {
        counters.shed_jobs.fetch_add(1, Relaxed);
        counters.shed_packets.fetch_add(job.idx.len() as u64, Relaxed);
    }
    let Job { idx, shard, reply, .. } = job;
    let rows = vec![None; idx.len()];
    reply.complete(Part { shard, idx, rows, version: UNSERVED_VERSION });
}

/// How a [`Ticket::wait_timeout`] resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Every shard delivered (some packets may still be unserved if
    /// they were shed — check [`ClassifiedBatch::delivered_count`]).
    Complete(ClassifiedBatch),
    /// The deadline passed with at least one shard still outstanding;
    /// the partial batch carries what arrived, missing packets report
    /// [`UNSERVED_VERSION`].
    Partial {
        /// Rows/versions for the packets that did arrive.
        batch: ClassifiedBatch,
        /// Packets whose shard had not delivered by the deadline.
        missing: usize,
    },
    /// The deadline passed before any shard delivered.
    Timeout,
}

/// An in-flight batch. [`Ticket::wait`] blocks until every shard
/// finished and reassembles the results in input order;
/// [`Ticket::wait_timeout`] bounds the wait.
#[must_use = "a ticket resolves to the batch's classifications"]
pub struct Ticket {
    reply: Arc<Reply>,
    len: usize,
    timeouts: Arc<AtomicU64>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Ticket {
    /// Waits for the batch and scatters the per-shard parts back into
    /// input order. The supervisor guarantees progress (dead shards are
    /// respawned and their jobs re-routed or completed unserved), so
    /// this resolves even across worker crashes.
    pub fn wait(self) -> ClassifiedBatch {
        let mut st = lock_count(&self.reply.state, &self.reply.recoveries);
        while st.remaining > 0 {
            st = self.reply.cv.wait(st).unwrap_or_else(|poisoned| {
                self.reply.recoveries.fetch_add(1, Relaxed);
                poisoned.into_inner()
            });
        }
        Self::assemble(&st.parts, self.len)
    }

    /// As [`Ticket::wait`], but gives up after `timeout`: the batch
    /// never blocks its consumer forever, whatever the shards are
    /// doing. A timed-out wait is counted in
    /// [`RuntimeTelemetry::ticket_timeouts`]; parts arriving after the
    /// timeout are dropped with the ticket.
    pub fn wait_timeout(self, timeout: Duration) -> WaitOutcome {
        let deadline = Instant::now() + timeout;
        let mut st = lock_count(&self.reply.state, &self.reply.recoveries);
        while st.remaining > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.timeouts.fetch_add(1, Relaxed);
                let missing: usize = self.len - st.parts.iter().map(|p| p.idx.len()).sum::<usize>();
                if let Some(r) = &self.recorder {
                    r.emit(r.control_lane(), EventKind::TicketTimeout, missing as u64, 0);
                }
                if st.parts.is_empty() {
                    return WaitOutcome::Timeout;
                }
                return WaitOutcome::Partial {
                    batch: Self::assemble(&st.parts, self.len),
                    missing,
                };
            }
            let (guard, _) = self.reply.cv.wait_timeout(st, left).unwrap_or_else(|poisoned| {
                self.reply.recoveries.fetch_add(1, Relaxed);
                poisoned.into_inner()
            });
            st = guard;
        }
        WaitOutcome::Complete(Self::assemble(&st.parts, self.len))
    }

    fn assemble(parts: &[Part], len: usize) -> ClassifiedBatch {
        let mut rows = vec![None; len];
        let mut versions = vec![UNSERVED_VERSION; len];
        for part in parts {
            for (k, &i) in part.idx.iter().enumerate() {
                rows[i as usize] = part.rows[k];
                versions[i as usize] = part.version;
            }
        }
        ClassifiedBatch { rows, versions }
    }
}

/// A served batch: per-packet rows (input order) and the table version
/// each packet was classified under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedBatch {
    /// `rows[i]` is the classification of input header `i` (the same
    /// contract as [`Classifier::classify_batch`]); `None` for both
    /// genuine no-match and unserved packets — disambiguate with
    /// [`ClassifiedBatch::delivered`].
    pub rows: Vec<Option<u32>>,
    /// `versions[i]` is the snapshot version that served header `i`, or
    /// [`UNSERVED_VERSION`] if the packet was shed / expired / lost.
    pub versions: Vec<u64>,
}

impl ClassifiedBatch {
    /// Packets in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether packet `i` was actually classified (as opposed to shed,
    /// expired, or lost to a crashing shard).
    #[must_use]
    pub fn delivered(&self, i: usize) -> bool {
        self.versions[i] != UNSERVED_VERSION
    }

    /// Packets that were actually classified.
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.versions.iter().filter(|&&v| v != UNSERVED_VERSION).count()
    }

    /// Whether every packet was classified (nothing shed or lost).
    #[must_use]
    pub fn fully_delivered(&self) -> bool {
        self.delivered_count() == self.len()
    }
}

/// Producer-side doorbell: wakes a parked worker after a push. A
/// pending counter (not a bare notify) closes the check-then-park race;
/// the worker's bounded park ([`Doorbell::park`]'s timeout) additionally
/// bounds the damage of a *lost* notify (e.g. an injected drop) to one
/// timeout period instead of a hang.
pub(crate) struct Doorbell {
    pending: Mutex<u64>,
    cv: Condvar,
    recoveries: Arc<AtomicU64>,
}

impl Doorbell {
    pub(crate) fn new(recoveries: Arc<AtomicU64>) -> Self {
        Self { pending: Mutex::new(0), cv: Condvar::new(), recoveries }
    }

    pub(crate) fn ring(&self) {
        *lock_count(&self.pending, &self.recoveries) += 1;
        self.cv.notify_one();
    }

    /// Parks until rung or `timeout`; consumes any pending rings.
    pub(crate) fn park(&self, timeout: Duration) {
        let mut p = lock_count(&self.pending, &self.recoveries);
        if *p == 0 {
            let (guard, _) = self.cv.wait_timeout(p, timeout).unwrap_or_else(|poisoned| {
                self.recoveries.fetch_add(1, Relaxed);
                poisoned.into_inner()
            });
            p = guard;
        }
        *p = 0;
    }
}

/// Per-worker knobs the supervisor needs to rebuild a shard.
#[derive(Clone)]
pub(crate) struct WorkerSettings {
    pub(crate) pin: bool,
    pub(crate) cache_capacity: usize,
    pub(crate) cache_admission: Admission,
    pub(crate) alloc_counter: Option<fn() -> u64>,
    pub(crate) ring_capacity: usize,
}

/// State shared by the handle(s), the workers, the supervisor and the
/// runtime owner.
pub(crate) struct Shared<C> {
    pub(crate) cell: Arc<SnapshotCell<Arc<C>>>,
    /// The control plane's table images (`None` for data-plane-only
    /// runtimes built with [`Runtime::new`]). The lock serialises
    /// every update and publish.
    master: Mutex<Option<Master<C>>>,
    /// One lock per shard ring's producer end: the SPSC invariant needs
    /// submitters serialised *per shard*, and per-shard locks mean a
    /// full ring (back-pressure spin) on one shard never convoys
    /// submitters whose packets target other shards. The supervisor
    /// swaps a fresh ring in here when it respawns a shard.
    pub(crate) producers: Vec<Mutex<Producer<Job>>>,
    pub(crate) doorbells: Vec<Arc<Doorbell>>,
    pub(crate) counters: Vec<Arc<ShardCounters>>,
    /// The job each worker is currently serving (set before any
    /// fallible work, cleared after the reply completes): the
    /// supervisor's re-route source when the worker dies mid-batch.
    pub(crate) inflight: Vec<Mutex<Option<Job>>>,
    pub(crate) stop: AtomicBool,
    pub(crate) shards: usize,
    cache_capacity: usize,
    pub(crate) settings: WorkerSettings,
    admission: AdmissionPolicy,
    pub(crate) poison_recoveries: Arc<AtomicU64>,
    ticket_timeouts: Arc<AtomicU64>,
    /// How publishes and removals were carried out.
    control: ControlCounters,
    /// What recent updates changed, for the shards' flow caches.
    changes: Mutex<ChangeLog>,
    /// Store-side state of a durable runtime (`None` for in-memory
    /// runtimes). Lock order: `master` is always taken before this.
    durable: Option<Mutex<DurableState<C>>>,
    /// Durability counters (always present; all-zero when not durable).
    pub(crate) durability: Arc<DurabilityCounters>,
    /// Rebuilds + republishes the master from the store. Boxed and
    /// type-erased here because it is constructed where the
    /// `Persistent + DynamicClassifier + Clone` bounds hold
    /// ([`Runtime::with_durability`]) but called from the generic
    /// supervisor.
    pub(crate) rebuild_master: Option<RebuildMaster<C>>,
    /// Set by [`RuntimeHandle::force_restore`], a fault plan's publish
    /// escalation, or the supervisor's restart-window trigger; consumed
    /// by the supervisor, which performs the runtime restore.
    pub(crate) restore_requested: AtomicBool,
    /// Raised while a restore tears the runtime down: workers of the
    /// current epoch park out at the loop top.
    pub(crate) quiesce: AtomicBool,
    /// Bumped once per completed runtime restore. A worker whose spawn
    /// epoch is older than the current one is a *zombie*: it drains
    /// whatever remains of its (already replaced) ring, then exits.
    pub(crate) run_epoch: AtomicU64,
    /// Escalation knobs (inert defaults when not durable).
    pub(crate) escalation: EscalationPolicy,
    /// The always-on flight recorder (`None` only when the config
    /// explicitly disabled it for tax measurement).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// The metrics time series the sampler thread fills (empty and
    /// unused when no sampler is configured).
    pub(crate) series: Arc<SeriesRing>,
    /// Sampler cadence, kept for telemetry (None = sampler off).
    sampler_cadence: Option<Duration>,
    /// Events already drained from the rings for flight-log flushing,
    /// accumulated across flushes (a drain is destructive, so without
    /// this journal each flushed image would hold only the events since
    /// the previous flush). Bounded to what the flight-log region fits.
    flight_journal: Mutex<Vec<Event>>,
    #[cfg(feature = "fault-injection")]
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
}

impl<C> Shared<C> {
    pub(crate) fn lock_producer(&self, shard: usize) -> MutexGuard<'_, Producer<Job>> {
        lock_count(&self.producers[shard], &self.poison_recoveries)
    }

    pub(crate) fn lock_inflight(&self, shard: usize) -> MutexGuard<'_, Option<Job>> {
        lock_count(&self.inflight[shard], &self.poison_recoveries)
    }

    fn lock_master(&self) -> MutexGuard<'_, Option<Master<C>>> {
        lock_count(&self.master, &self.poison_recoveries)
    }

    /// Emits one flight-recorder event on a worker shard's lane
    /// (no-op with the recorder off — one branch).
    #[inline]
    pub(crate) fn trace_shard(&self, shard: usize, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.shard_lane(shard), kind, a, b);
        }
    }

    /// Emits on the control-plane lane.
    #[inline]
    pub(crate) fn trace_control(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.control_lane(), kind, a, b);
        }
    }

    /// Emits on the durability lane.
    #[inline]
    fn trace_durability(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.durability_lane(), kind, a, b);
        }
    }

    /// Emits on the supervisor lane.
    #[inline]
    pub(crate) fn trace_supervisor(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.recorder {
            r.emit(r.supervisor_lane(), kind, a, b);
        }
    }

    /// Opens a control-plane span (0 with the recorder off).
    fn span_begin(&self, op: SpanOp) -> u64 {
        self.recorder.as_ref().map_or(0, |r| r.span_begin(op))
    }

    /// Closes span `id` with the version the operation produced (0 for
    /// a failed operation); no-op for the recorder-off sentinel id 0.
    fn span_end(&self, id: u64, version: u64) {
        if id != 0 {
            if let Some(r) = &self.recorder {
                r.span_end(id, version);
            }
        }
    }

    /// Current durable checkpoint version (0 on in-memory runtimes).
    pub(crate) fn durable_snapshot_version(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| lock_count(d, &self.poison_recoveries).snapshot_version)
    }

    /// Flushes the recorder's timeline into the store's bounded
    /// `flight.log` region (checkpoint cadence, panic catch, restore).
    /// Best-effort: `false` when not durable, recorder off, or the
    /// write failed — forensics never block the dataplane.
    pub(crate) fn flush_flight_log(&self) -> bool {
        let Some(durable) = &self.durable else { return false };
        if self.recorder.is_none() {
            return false;
        }
        let mut d = lock_count(durable, &self.poison_recoveries);
        self.flush_flight_locked(&mut d)
    }

    /// As [`Shared::flush_flight_log`] with the durable lock already
    /// held (the checkpoint path flushes without re-taking it).
    fn flush_flight_locked(&self, d: &mut DurableState<C>) -> bool {
        let Some(recorder) = &self.recorder else { return false };
        // Draining the rings is destructive, so fold each drain into
        // the journal: every flushed image holds the full retained
        // timeline, not just the slice since the previous flush.
        let mut journal = lock_count(&self.flight_journal, &self.poison_recoveries);
        journal.extend(recorder.snapshot());
        // Concurrent emits around a drain can straddle two chunks:
        // re-sort so the persisted timeline stays time-ordered.
        journal.sort_by_key(|e| (e.ts_ns, e.lane, e.kind as u16));
        // Keep the newest events that fit the bounded region (32 B per
        // event + header/trailer); the oldest are the ones the ring
        // would overwrite next anyway.
        let max_events = (FLIGHT_LOG_MAX_BYTES - 24) / 32;
        if journal.len() > max_events {
            let excess = journal.len() - max_events;
            journal.drain(..excess);
        }
        let image = encode_flight_log(&journal);
        let bytes = image.len() as u64;
        match d.store.put_flight_log(&image) {
            Ok(()) => {
                recorder.count_flush();
                self.trace_durability(EventKind::FlightFlush, bytes, 0);
                true
            }
            Err(_) => false,
        }
    }

    /// Rings `shard`'s doorbell — unless a fault plan swallows it.
    pub(crate) fn ring_doorbell(&self, shard: usize) {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault_plan {
            if plan.on_notify(shard) {
                return;
            }
        }
        self.doorbells[shard].ring();
    }

    /// Publishes through the snapshot cell, honouring any scheduled
    /// publish fault: a pre-publish delay, a publish *storm* (the same
    /// new table republished a burst of extra times, so replica versions
    /// race ahead while contents stay fixed), or a raised restore flag.
    /// `how` rides in the `Publish` event's second argument, so a slow
    /// publish can be told from the timeline to have been a cloned one.
    fn publish_table(&self, table: Arc<C>, how: PublishKind) -> u64
    where
        C: Send + Sync,
    {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault_plan {
            let outcome = plan.on_publish();
            if let Some(delay) = outcome.delay {
                std::thread::sleep(delay);
            }
            for _ in 0..outcome.storm {
                self.cell.publish(Arc::clone(&table));
            }
            if outcome.escalate {
                self.restore_requested.store(true, SeqCst);
            }
        }
        let version = self.cell.publish(table);
        match how {
            PublishKind::WholeTable => {}
            PublishKind::InPlace => {
                self.control.publishes_in_place.fetch_add(1, Relaxed);
            }
            PublishKind::Cloned => {
                self.control.publishes_cloned.fetch_add(1, Relaxed);
            }
        }
        self.trace_control(EventKind::Publish, version, how as u64);
        version
    }

    /// Hands out the spare image, caught up with the live one and
    /// exclusively owned, ready to take the next operation — and says
    /// whether getting there took a deep copy. The spare leaves
    /// `master` for the duration: if the operation fails or panics it is
    /// simply dropped, and the next update starts from a copy of the
    /// live image instead of from a half-edited one.
    fn writable_spare(&self, master: &mut Master<C>) -> (Arc<C>, PublishKind)
    where
        C: DynamicClassifier + Clone,
    {
        // The snapshot that carried the spare may still sit on the
        // cell's retire list: let go of every reference that no reader
        // holds, so that what is left says whether one does.
        self.cell.reclaim();
        if let Some(Spare { mut image, behind }) = master.spare.take() {
            let how = match Arc::get_mut(&mut image) {
                Some(_) => PublishKind::InPlace,
                None => PublishKind::Cloned,
            };
            // A reader stalled on the spare is never waited for: this
            // copies the image out from under it.
            let table = Arc::make_mut(&mut image);
            if behind.is_none_or(|op| matches!(op.apply(table), Ok(Some(_)))) {
                return (image, how);
            }
            // The spare refused what the live image accepted: the two
            // have diverged, and the live one is the truth.
        }
        (Arc::new(C::clone(&master.live)), PublishKind::Cloned)
    }

    /// Brings a shard's flow cache, whose entries are stamped `epoch` and
    /// agree with table version `from`, forward to version `to`: evicts
    /// the entries the rule changes in between could have affected and
    /// keeps the rest. `false` when the change log cannot say what those
    /// are — the cache then has to go as a whole.
    fn carry_over(&self, cache: &mut FlowCache, epoch: u64, from: u64, to: u64) -> bool {
        let net = lock_count(&self.changes, &self.poison_recoveries).net(from, to);
        let Some(net) = net else { return false };
        if !(net.added.is_empty() && net.removed.is_empty()) {
            cache.evict_where(epoch, |fields, row| net.affects(fields, row));
        }
        true
    }

    /// Write-ahead: durably appends `op` to the rule log *before* the
    /// master is mutated. `Err` means nothing reached the log — the
    /// caller must reject the update so the live table and the log never
    /// disagree. No-op (always `Ok`) on non-durable runtimes.
    fn wal_append(&self, op: &Op) -> Result<(), BuildError> {
        let Some(durable) = &self.durable else { return Ok(()) };
        let mut d = lock_count(durable, &self.poison_recoveries);
        let payload = match op {
            Op::Add(rule) => WalOp::Add { kind: d.kind, rule: Rule::clone(rule) }.encode(),
            Op::Remove(rule_id) => WalOp::Remove { rule_id: *rule_id }.encode(),
        };
        #[cfg(feature = "fault-injection")]
        let cut = self.fault_plan.as_ref().and_then(|plan| plan.on_wal_append());
        #[cfg(not(feature = "fault-injection"))]
        let cut: Option<usize> = None;
        let rotated_before = d.store.stats().segments_rotated;
        let appended = match cut {
            Some(keep) => d.store.append_torn(&payload, keep),
            None => d.store.append(&payload),
        };
        match appended {
            Ok(seq) => {
                d.records_since += 1;
                self.durability.wal_appends.fetch_add(1, Relaxed);
                self.trace_durability(EventKind::WalAppend, seq, payload.len() as u64);
                let rotated = d.store.stats().segments_rotated;
                if rotated != rotated_before {
                    self.trace_durability(EventKind::WalRotate, rotated, 0);
                }
                Ok(())
            }
            Err(e) => {
                self.durability.wal_append_failures.fetch_add(1, Relaxed);
                Err(BuildError::InvalidConfig {
                    detail: format!("write-ahead append failed; update rejected: {e}"),
                })
            }
        }
    }

    /// Checkpoints `table` if the cadence is due (`force` overrides).
    /// Called with the master lock held; takes the durable lock inside
    /// (the runtime-wide lock order). Checkpoint failures are counted,
    /// never propagated: the WAL already holds every record, so a failed
    /// checkpoint only means a longer replay.
    fn maybe_checkpoint(&self, table: &C, force: bool) {
        let Some(durable) = &self.durable else { return };
        let mut d = lock_count(durable, &self.poison_recoveries);
        if !force && d.records_since < d.checkpoint_every {
            return;
        }
        let image = (d.encode)(table);
        #[cfg(feature = "fault-injection")]
        let mode = match self.fault_plan.as_ref().and_then(|plan| plan.on_checkpoint()) {
            Some(CheckpointFault::Torn { keep }) => CheckpointMode::Torn { keep },
            Some(CheckpointFault::SkipFsync) => CheckpointMode::SkipFsync,
            None => CheckpointMode::Durable,
        };
        #[cfg(not(feature = "fault-injection"))]
        let mode = CheckpointMode::Durable;
        d.snapshot_version += 1;
        let version = d.snapshot_version;
        // The watermark this checkpoint covers: every WAL record below
        // the next sequence number is folded into the image.
        let watermark = d.store.next_seq().saturating_sub(1);
        let gc_before = d.store.stats();
        self.trace_durability(EventKind::CheckpointStart, version, 0);
        match d.store.checkpoint(version, &image, mode) {
            Ok(_) => {
                // A torn or unsynced checkpoint still counts here — the
                // write-side cadence advanced; whether it *restores* is
                // the store's judgement at recovery time (it falls back
                // to the previous durable one, replaying more WAL).
                d.records_since = 0;
                self.durability.checkpoints.fetch_add(1, Relaxed);
                self.trace_durability(EventKind::CheckpointSuccess, version, watermark);
                // Only a genuinely durable checkpoint ends a WAL-only
                // degraded episode: an injected torn/unsynced image
                // would not survive a power cut.
                if matches!(mode, CheckpointMode::Durable)
                    && self.durability.degraded.swap(false, Relaxed)
                {
                    self.trace_durability(EventKind::DegradedExit, version, 0);
                }
                let gc_after = d.store.stats();
                if gc_after.gc_runs != gc_before.gc_runs {
                    self.trace_durability(
                        EventKind::GcPass,
                        gc_after.gc_segments_removed - gc_before.gc_segments_removed,
                        gc_after.gc_snapshots_removed - gc_before.gc_snapshots_removed,
                    );
                }
                // Checkpoint cadence is also the flight-log flush
                // cadence: the freshest pre-crash timeline a SIGKILL
                // post-mortem can rely on.
                self.flush_flight_locked(&mut *d);
            }
            Err(_) => {
                // Graceful degradation, not an error path: the WAL
                // already holds every acked record, so the control
                // plane keeps serving log-only and retries the
                // checkpoint at the next cadence interval. Roll the
                // version back so the retry does not burn numbers while
                // the disk is hostile.
                d.snapshot_version -= 1;
                self.durability.checkpoint_failures.fetch_add(1, Relaxed);
                self.trace_durability(EventKind::CheckpointFailure, version, 0);
                if !self.durability.degraded.swap(true, Relaxed) {
                    self.durability.degraded_episodes.fetch_add(1, Relaxed);
                    self.trace_durability(EventKind::DegradedEnter, 1, 0);
                }
            }
        }
    }
}

/// One logical control-plane operation: what the write-ahead log
/// records, what the spare image is behind by, and what the change log
/// tells the shards' flow caches.
#[derive(Clone)]
enum Op {
    Add(Arc<Rule>),
    Remove(u32),
}

impl Op {
    /// Applies the operation to `table`. `Ok(None)` is a removal of an
    /// id the table does not hold, which changes nothing.
    fn apply<C: DynamicClassifier>(
        &self,
        table: &mut C,
    ) -> Result<Option<UpdateReport>, BuildError> {
        match self {
            Op::Add(rule) => table.insert_rule(Rule::clone(rule)).map(Some),
            Op::Remove(rule_id) => Ok(table.remove_rule(*rule_id)),
        }
    }
}

/// The control plane's two table images.
struct Master<C> {
    /// The image being served: the cell's current snapshot holds the
    /// same `Arc`.
    live: Arc<C>,
    /// The image served before it. `None` until the first update makes
    /// one (booting does not pay for a second image), and again after
    /// an update that failed.
    spare: Option<Spare<C>>,
    /// When the next update may start: [`UPDATE_INTERVAL`] after the one
    /// before it was let through.
    next_update: Instant,
}

impl<C> Master<C> {
    fn new(live: Arc<C>) -> Self {
        Self { live, spare: None, next_update: Instant::now() }
    }

    /// Holds the caller — and with it the master lock — until the next
    /// update may start, and books the slot after it. Slots sit on a grid
    /// of [`UPDATE_INTERVAL`] for as long as updates keep coming, so one
    /// that starts late does not push every later slot back; an update
    /// that arrives after its slot starts at once. Returns whether the
    /// caller had to wait.
    ///
    /// The wait yields in a loop: it is shorter than the interval, and a
    /// timer is no good at that scale (a sleeping thread wakes 50 us and
    /// more past its deadline on Linux, half a slot).
    fn await_slot(&mut self) -> bool {
        let now = Instant::now();
        let slot = self.next_update;
        self.next_update = slot.max(now) + UPDATE_INTERVAL;
        if slot <= now {
            return false;
        }
        while Instant::now() < slot {
            std::thread::yield_now();
        }
        true
    }
}

/// The least time between the starts of two rule updates: back-to-back
/// updates are spaced this far apart, an update after a pause is not held
/// up at all. An in-place update is some 15 us of work on the benchmark's
/// 4.7 k-rule table; a loop around `add_rule`/`remove_rule` would put
/// 60 k versions a second in front of the shards, at a rate that follows
/// the host's mood (7-10 % from one run of the benchmark to the next).
/// Spaced, the rate such a loop sees is the runtime's own, 10 000 updates
/// a second, and the [`CHANGE_LOG_VERSIONS`] on record reach back 25 ms or
/// more *whatever the updater does*, so a shard is sure to keep its flow
/// cache across any batch shorter than that. A durable update spends
/// about this long in its WAL fsync on the benchmark's host (70-140 us)
/// and rarely finds its slot still closed.
const UPDATE_INTERVAL: Duration = Duration::from_micros(100);

struct Spare<C> {
    image: Arc<C>,
    /// The operation the live image has seen and this one has not.
    behind: Option<Op>,
}

/// How a published image came to be; the `Publish` event's second
/// argument.
#[derive(Clone, Copy)]
enum PublishKind {
    /// A whole new table (`swap_table`, a restore that found the disk
    /// ahead of memory).
    WholeTable = 0,
    /// The spare was exclusively ours and was edited in place.
    InPlace = 1,
    /// The spare had to be deep-copied first: it did not exist yet, a
    /// reader still held it, or it had diverged.
    Cloned = 2,
}

/// Versions the change log remembers; a shard further behind drops its
/// flow cache instead of bringing it forward. Updates start at least
/// [`UPDATE_INTERVAL`] apart, so 256 versions are the last 25 ms or more;
/// the benchmark's shards take a 4 096-packet batch every 0.5 ms
/// (`churn`: 2 k batches/s) and fall some five versions behind an
/// updater in a loop. It also caps the removed ids one
/// walk checks every entry against, at 128 (an updater that removes what
/// it added): 6 us a walk (`cache_walk_costs`), where dropping the cache
/// costs the 512 flows of that traffic 220 us per batch
/// (`churn/lat_p50_us` 385 vs 168 us, CHANGES.md PR 16).
const CHANGE_LOG_VERSIONS: usize = 256;

/// Added rules one walk checks every entry against; with more (not
/// counting those removed again) the shard drops its flow cache instead.
/// `cache_walk_costs` on this host: matching one resident entry against
/// one rule costs 4-9 ns, getting a lost entry back (a miss, a
/// classification, an insert) from 208 ns on a 48-rule table to 425 ns on
/// the benchmark's 4.7 k rules — so a walk stops paying somewhere past 20
/// rules.
const NET_ADDS_MAX: usize = 16;

/// What each recent update changed, by the version that made it visible.
/// A rule update changes the answer only for packets the rule matches
/// (an addition) or was answering for (a removal) — the [`Classifier`]
/// contract: answers are `reference_classify`'s — so a shard that knows
/// the changes between the version its flow cache agrees with and the
/// one it is about to serve evicts exactly those entries and keeps the
/// rest warm.
struct ChangeLog {
    /// Version whose change is `ops[0]`.
    first: u64,
    ops: VecDeque<Op>,
}

impl ChangeLog {
    /// `version` is about to be published, and differs from the version
    /// before it by `op`. A version published without passing through
    /// here (a whole new table) leaves a gap, and the record starts over
    /// behind it: nothing is known across a gap.
    fn record(&mut self, version: u64, op: Op) {
        if version != self.first + self.ops.len() as u64 {
            self.ops.clear();
            self.first = version;
        }
        self.ops.push_back(op);
        if self.ops.len() > CHANGE_LOG_VERSIONS {
            self.ops.pop_front();
            self.first += 1;
        }
    }

    /// The net effect of versions `from + 1 ..= to`; `None` when the log
    /// does not cover them all, or more rules were added than a walk is
    /// worth.
    fn net(&self, from: u64, to: u64) -> Option<NetChange> {
        let mut net = NetChange::default();
        if from >= to {
            return Some(net);
        }
        let lo = usize::try_from((from + 1).checked_sub(self.first)?).ok()?;
        let hi = usize::try_from(to - self.first).ok()?;
        if hi >= self.ops.len() {
            return None;
        }
        for op in self.ops.range(lo..=hi) {
            match op {
                Op::Add(rule) => net.added.push(Arc::clone(rule)),
                // A removal takes every rule of that id along
                // ([`DynamicClassifier::remove_rule`]): one added inside
                // the window never answered for an entry from before it,
                // one stored before the window may have.
                Op::Remove(id) => {
                    net.added.retain(|rule| rule.id != *id);
                    net.removed.push(*id);
                }
            }
        }
        (net.added.len() <= NET_ADDS_MAX).then_some(net)
    }
}

/// Rules added and rule ids removed between two versions.
#[derive(Default)]
struct NetChange {
    added: Vec<Arc<Rule>>,
    removed: Vec<u32>,
}

impl NetChange {
    /// Whether a memoised answer for a packet with these header fields
    /// may no longer hold: a removed rule was giving it, or an added one
    /// matches the packet and may now give it.
    fn affects(&self, fields: &[(MatchFieldKind, u128)], row: Option<u32>) -> bool {
        // (`FlowMatch::matches`, over a header's fields without the header.)
        let matches = |rule: &Rule| {
            rule.flow_match.parts().iter().all(|(field, m)| {
                m.is_wildcard()
                    || fields
                        .binary_search_by_key(field, |(f, _)| *f)
                        .is_ok_and(|i| m.matches(fields[i].1, field.bit_width()))
            })
        };
        row.is_some_and(|id| self.removed.contains(&id))
            || self.added.iter().any(|rule| matches(rule))
    }
}

/// RSS-style shard selection: hash of the header's full field tuple, so
/// one flow always lands on the same shard (cache affinity), uniform
/// across shards for distinct flows. Public so harnesses (and the
/// adversarial trace generators) can craft RSS-colliding traffic that
/// pins every packet onto one shard.
#[must_use]
pub fn shard_of(header: &HeaderValues, shards: usize) -> usize {
    let mut hasher = FxHasher::default();
    for &(field, value) in header.fields() {
        hasher.write_u32(field as u32);
        hasher.write_u64(value as u64);
        hasher.write_u64((value >> 64) as u64);
    }
    let x = hasher.finish();
    #[allow(clippy::cast_possible_truncation)]
    let mixed = (x ^ (x >> 32)) as usize;
    mixed % shards
}

/// Cloneable control + data handle onto a running [`Runtime`].
pub struct RuntimeHandle<C> {
    shared: Arc<Shared<C>>,
}

impl<C> Clone for RuntimeHandle<C> {
    fn clone(&self) -> Self {
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<C: Classifier + 'static> RuntimeHandle<C> {
    /// The current published table version.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.shared.cell.version()
    }

    /// The current published snapshot (control-plane path).
    #[must_use]
    pub fn latest(&self) -> Arc<Snapshot<Arc<C>>> {
        self.shared.cell.latest()
    }

    /// Submits a batch for classification across the shards and returns
    /// immediately; [`Ticket::wait`] / [`Ticket::wait_timeout`] collect
    /// the results. Ring saturation is handled per the configured
    /// [`AdmissionPolicy`]: blocked, shed (those packets resolve
    /// immediately as unserved), or deadline-bounded.
    ///
    /// # Panics
    /// Panics if the runtime has been shut down.
    pub fn submit(&self, headers: Arc<[HeaderValues]>) -> Ticket {
        assert!(!self.shared.stop.load(SeqCst), "runtime is shut down");
        let n = headers.len();
        let shards = self.shared.shards;
        let mut idx: Vec<Vec<u32>> = vec![Vec::new(); shards];
        if shards == 1 {
            idx[0] = (0..u32::try_from(n).expect("batch fits u32 indices")).collect();
        } else {
            for (i, h) in headers.iter().enumerate() {
                idx[shard_of(h, shards)].push(u32::try_from(i).expect("batch fits u32 indices"));
            }
        }
        let live = idx.iter().filter(|l| !l.is_empty()).count();
        let reply = Arc::new(Reply {
            state: Mutex::new(ReplyState {
                remaining: live,
                done: Vec::with_capacity(live),
                parts: Vec::with_capacity(live),
            }),
            cv: Condvar::new(),
            recoveries: Arc::clone(&self.shared.poison_recoveries),
        });
        let submitted = Instant::now();
        let deadline = match self.shared.admission {
            AdmissionPolicy::DeadlineShed { deadline } => Some(submitted + deadline),
            AdmissionPolicy::Block | AdmissionPolicy::Shed { .. } => None,
        };
        for (shard, list) in idx.into_iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let job = Job {
                headers: Arc::clone(&headers),
                idx: list,
                shard: u32::try_from(shard).expect("shard fits u32"),
                submitted,
                deadline,
                requeues: 0,
                reply: Arc::clone(&reply),
            };
            self.dispatch(shard, job);
        }
        Ticket {
            reply,
            len: n,
            timeouts: Arc::clone(&self.shared.ticket_timeouts),
            recorder: self.shared.recorder.clone(),
        }
    }

    /// Enqueues one shard-job per the admission policy.
    fn dispatch(&self, shard: usize, mut job: Job) {
        let shared = &*self.shared;
        let packets = job.idx.len() as u64;
        if let AdmissionPolicy::Shed { max_queued } = shared.admission {
            let mut producer = shared.lock_producer(shard);
            let queued = producer.len();
            if queued >= max_queued.max(1) {
                drop(producer);
                shared.trace_shard(shard, EventKind::ShedJob, packets, queued as u64);
                complete_unserved(&shared.counters[shard], job, true);
                return;
            }
            match producer.push(job) {
                Ok(()) => {
                    let depth = producer.len();
                    drop(producer);
                    shared.trace_shard(shard, EventKind::BatchSubmit, packets, depth as u64);
                    shared.ring_doorbell(shard);
                }
                Err(back) => {
                    drop(producer);
                    shared.trace_shard(shard, EventKind::ShedJob, packets, queued as u64);
                    complete_unserved(&shared.counters[shard], back, true);
                }
            }
            return;
        }
        // Block / DeadlineShed: spin for space, releasing the producer
        // lock between attempts so the supervisor can swap the ring of a
        // dead shard out from under a spinning submitter (holding it
        // across the spin would deadlock respawn against back-pressure).
        loop {
            let mut producer = shared.lock_producer(shard);
            match producer.push(job) {
                Ok(()) => {
                    let depth = producer.len();
                    drop(producer);
                    shared.trace_shard(shard, EventKind::BatchSubmit, packets, depth as u64);
                    shared.ring_doorbell(shard);
                    return;
                }
                Err(back) => {
                    drop(producer);
                    job = back;
                    if let Some(deadline) = job.deadline {
                        if Instant::now() >= deadline {
                            shared.trace_shard(shard, EventKind::DeadlineShed, packets, 0);
                            complete_unserved(&shared.counters[shard], job, true);
                            return;
                        }
                    }
                    // Ring full: nudge the worker and retry.
                    shared.ring_doorbell(shard);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Classifies one batch synchronously: submit + wait.
    ///
    /// # Panics
    /// See [`RuntimeHandle::submit`].
    #[must_use]
    pub fn classify_batch(&self, headers: &[HeaderValues]) -> ClassifiedBatch {
        self.submit(headers.to_vec().into()).wait()
    }

    /// Classifies one batch and returns only the rows — the exact
    /// [`Classifier::classify_batch`] contract, for oracle comparisons.
    ///
    /// # Panics
    /// See [`RuntimeHandle::submit`].
    #[must_use]
    pub fn classify_rows(&self, headers: &[HeaderValues]) -> Vec<Option<u32>> {
        self.classify_batch(headers).rows
    }

    /// Publishes a brand-new table, replacing whatever is being served
    /// **and** the control-plane master (single O(1) swap for readers).
    /// Returns the new version.
    pub fn swap_table(&self, table: C) -> u64 {
        let span = self.shared.span_begin(SpanOp::SwapTable);
        let mut master = self.shared.lock_master();
        let live = Arc::new(table);
        *master = Some(Master::new(Arc::clone(&live)));
        let version = self.shared.publish_table(Arc::clone(&live), PublishKind::WholeTable);
        // A whole-table swap is not expressible as WAL records, so on a
        // durable runtime it checkpoints immediately: the snapshot's
        // watermark fences off the pre-swap WAL tail.
        self.shared.maybe_checkpoint(&live, true);
        drop(master);
        self.shared.span_end(span, version);
        version
    }

    /// Adds one rule through the control plane: edits the spare table
    /// image off the hot path, then publishes it. Returns the update
    /// report and the version at which the rule is visible. A master
    /// lock poisoned by an earlier panic is recovered (and counted),
    /// never propagated — and since a panicking update only ever touched
    /// the unpublished spare, which is dropped, the table being served is
    /// the one from before it.
    ///
    /// # Errors
    /// [`BuildError::InvalidConfig`] when the runtime was built without
    /// a control-plane master ([`Runtime::new`] instead of
    /// [`Runtime::with_control`]), or when a durable runtime's
    /// write-ahead append fails (the update is rejected *before* the
    /// master is touched, so the live table and the log always agree);
    /// otherwise whatever the classifier's
    /// [`DynamicClassifier::insert_rule`] reports.
    pub fn add_rule(&self, rule: Rule) -> Result<(UpdateReport, u64), BuildError>
    where
        C: DynamicClassifier + Clone,
    {
        let span = self.shared.span_begin(SpanOp::AddRule);
        let result =
            self.update(Op::Add(Arc::new(rule))).map(|done| done.expect("an add is never a no-op"));
        self.shared.span_end(span, result.as_ref().map_or(0, |&(_, v)| v));
        result
    }

    /// The one update path: log `op`, apply it to the spare image (after
    /// the operation the spare is behind by), publish the spare, and keep
    /// the image it replaces as the next spare. `Ok(None)` is a removal
    /// of an id the table does not hold: logged, nothing published.
    fn update(&self, op: Op) -> Result<Option<(UpdateReport, u64)>, BuildError>
    where
        C: DynamicClassifier + Clone,
    {
        let shared = &*self.shared;
        let mut guard = shared.lock_master();
        let Some(master) = guard.as_mut() else {
            return Err(BuildError::InvalidConfig {
                detail: "runtime has no control-plane master (built with Runtime::new; \
                         use Runtime::with_control)"
                    .into(),
            });
        };
        if master.await_slot() {
            shared.control.updates_paced.fetch_add(1, Relaxed);
        }
        // Write-ahead: the operation reaches the durable log before any
        // image changes. A torn append rejects the whole update.
        shared.wal_append(&op)?;
        let (mut image, how) = shared.writable_spare(master);
        let table = Arc::get_mut(&mut image).expect("the writable spare is exclusively owned");
        let Some(report) = op.apply(table)? else {
            master.spare = Some(Spare { image, behind: None });
            return Ok(None);
        };
        if matches!(op, Op::Remove(_)) {
            let control = &shared.control;
            let counter = match report.rebuilt {
                true => &control.removes_rebuilt,
                false => &control.removes_incremental,
            };
            counter.fetch_add(1, Relaxed);
            control.compactions.fetch_add(u64::from(report.compacted), Relaxed);
        }
        let previous = std::mem::replace(&mut master.live, image);
        // On record before a shard can see the version (the master lock
        // is what makes the next version predictable).
        lock_count(&shared.changes, &shared.poison_recoveries)
            .record(shared.cell.version() + 1, op.clone());
        let version = shared.publish_table(Arc::clone(&master.live), how);
        master.spare = Some(Spare { image: previous, behind: Some(op) });
        shared.maybe_checkpoint(&master.live, false);
        Ok(Some((report, version)))
    }

    /// Removes a rule by id through the control plane; `None` when no
    /// such rule is stored. Returns the update report and the version at
    /// which the removal is visible.
    ///
    /// On a durable runtime the removal is write-ahead logged before any
    /// image changes; a torn append rejects the removal (returns
    /// `None`, counted in the durability telemetry as an append
    /// failure). A logged removal of an id the table does not hold is a
    /// harmless no-op on replay. A runtime built without a control-plane
    /// master ([`Runtime::new`]) stores no rules to remove: `None`.
    pub fn remove_rule(&self, rule_id: u32) -> Option<(UpdateReport, u64)>
    where
        C: DynamicClassifier + Clone,
    {
        let span = self.shared.span_begin(SpanOp::RemoveRule);
        let result = self.update(Op::Remove(rule_id)).ok().flatten();
        self.shared.span_end(span, result.as_ref().map_or(0, |&(_, v)| v));
        result
    }

    /// Snapshots every shard's counters.
    #[must_use]
    pub fn telemetry(&self) -> RuntimeTelemetry {
        let d = &self.shared.durability;
        // Brief durable-lock hold to snapshot the store's housekeeping
        // and on-disk sizes (same lock order as everywhere: no master
        // lock is held here).
        let store_view = self.shared.durable.as_ref().map(|durable| {
            let s = lock_count(durable, &self.shared.poison_recoveries);
            (s.store.stats(), s.store.disk_stats().unwrap_or_default())
        });
        RuntimeTelemetry {
            version: self.shared.cell.version(),
            shards: self.shared.shards,
            poison_recoveries: self.shared.poison_recoveries.load(Relaxed),
            ticket_timeouts: self.shared.ticket_timeouts.load(Relaxed),
            control: self.shared.control.capture(),
            durability: store_view.map(|(stats, disk)| DurabilityTelemetry {
                wal_appends: d.wal_appends.load(Relaxed),
                wal_append_failures: d.wal_append_failures.load(Relaxed),
                checkpoints: d.checkpoints.load(Relaxed),
                checkpoint_failures: d.checkpoint_failures.load(Relaxed),
                runtime_restores: d.restores.load(Relaxed),
                restore_fallbacks: d.restore_fallbacks.load(Relaxed),
                restore_skipped_checkpoints: d.restore_skipped_checkpoints.load(Relaxed),
                wal_records_replayed: d.wal_replayed.load(Relaxed),
                run_epoch: self.shared.run_epoch.load(SeqCst),
                wal_bytes: disk.wal_bytes,
                wal_segments: disk.wal_segments,
                snapshots: disk.snapshots,
                snapshot_bytes: disk.snapshot_bytes,
                gc_runs: stats.gc_runs,
                gc_snapshots_removed: stats.gc_snapshots_removed,
                gc_segments_removed: stats.gc_segments_removed,
                tmp_cleaned: stats.tmp_cleaned,
                segments_rotated: stats.segments_rotated,
                degraded_episodes: d.degraded_episodes.load(Relaxed),
                degraded: d.degraded.load(Relaxed),
            }),
            trace: self.shared.recorder.as_ref().map(|r| TraceTelemetry {
                lanes: r.lane_count(),
                events_per_lane: r.events_per_lane(),
                events_recorded: r.events_recorded(),
                events_overwritten: r.events_overwritten(),
                flight_flushes: r.flushes(),
                sampler_samples: self.shared.series.total_samples(),
                sampler_capacity: if self.shared.sampler_cadence.is_some() {
                    self.shared.series.capacity()
                } else {
                    0
                },
            }),
            per_shard: self
                .shared
                .counters
                .iter()
                .enumerate()
                .map(|(s, c)| ShardTelemetry::capture(s, c, self.shared.cache_capacity))
                .collect(),
        }
    }

    /// Whether this runtime persists its control plane (built with
    /// [`Runtime::with_durability`]).
    #[must_use]
    pub fn durable(&self) -> bool {
        self.shared.durable.is_some()
    }

    /// The flight recorder, when enabled (the default). Shared so
    /// harnesses can drain or inspect the live timeline.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.recorder.clone()
    }

    /// A drained, time-sorted snapshot of the flight-recorder timeline
    /// (empty with the recorder off).
    #[must_use]
    pub fn trace_events(&self) -> Vec<Event> {
        self.shared.recorder.as_ref().map_or_else(Vec::new, |r| r.snapshot())
    }

    /// The metrics time series the sampler has captured so far, oldest
    /// first (empty with the sampler off).
    #[must_use]
    pub fn metrics_series(&self) -> Vec<MetricPoint> {
        self.shared.series.snapshot()
    }

    /// Flushes the flight recorder into the store's `flight.log` region
    /// now (tests and orderly shutdowns; the runtime also flushes on
    /// checkpoint cadence, worker panics, and restores). `false` when
    /// not durable, the recorder is off, or the write failed.
    pub fn flush_flight_log(&self) -> bool {
        self.shared.flush_flight_log()
    }

    /// The current run epoch: 0 at start, +1 per completed runtime
    /// restore. Tests use the transition to await a restore.
    #[must_use]
    pub fn run_epoch(&self) -> u64 {
        self.shared.run_epoch.load(SeqCst)
    }

    /// Asks the supervisor to tear the runtime down and cold-start it
    /// from the latest good checkpoint + WAL tail (the escalation the
    /// restart-window trigger takes on its own). Returns `false` on a
    /// non-durable runtime, where there is nothing to restore from.
    /// Asynchronous: poll [`RuntimeHandle::run_epoch`] to observe
    /// completion.
    pub fn force_restore(&self) -> bool {
        if self.shared.rebuild_master.is_none() {
            return false;
        }
        self.shared.restore_requested.store(true, SeqCst);
        true
    }

    /// The master table serialized through its [`Persistent`] codec —
    /// the byte-level oracle the restore tests compare a recovered store
    /// against. `None` when the runtime is not durable or has no master.
    #[must_use]
    pub fn master_image(&self) -> Option<Vec<u8>> {
        let master = self.shared.lock_master();
        let table = &master.as_ref()?.live;
        let durable = self.shared.durable.as_ref()?;
        let d = lock_count(durable, &self.shared.poison_recoveries);
        Some((d.encode)(table))
    }

    /// Forces a durable checkpoint of the current master now, regardless
    /// of cadence. Returns the checkpoint's version, or `None` on a
    /// non-durable runtime. Fault-plan checkpoint faults apply (that is
    /// what makes torn-checkpoint chaos scriptable).
    pub fn checkpoint_now(&self) -> Option<u64> {
        let master = self.shared.lock_master();
        let table = &master.as_ref()?.live;
        self.shared.durable.as_ref()?;
        self.shared.maybe_checkpoint(table, true);
        let durable = self.shared.durable.as_ref()?;
        let d = lock_count(durable, &self.shared.poison_recoveries);
        Some(d.snapshot_version)
    }
}

/// The running dataplane: owns the supervisor thread, which in turn
/// owns the workers. Cheap handles ([`Runtime::handle`]) do the
/// talking; dropping the runtime stops and joins everything, and
/// completes any still-outstanding ticket as unserved so no waiter is
/// stranded.
pub struct Runtime<C: Classifier + 'static> {
    handle: RuntimeHandle<C>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl<C: Classifier + 'static> Runtime<C> {
    /// Starts a data-plane-only runtime serving `classifier` (no
    /// control-plane master: [`RuntimeHandle::add_rule`] is unavailable,
    /// table replacement goes through [`SnapshotCell`]-level swaps of a
    /// runtime built [`Runtime::with_control`]).
    #[must_use]
    pub fn new(classifier: C, config: &RuntimeConfig) -> Self {
        Self::build(classifier, false, config, None)
    }

    /// Starts a runtime with a control plane: `classifier` is published
    /// as it is, and [`RuntimeHandle::add_rule`] /
    /// [`RuntimeHandle::remove_rule`] / [`RuntimeHandle::swap_table`]
    /// update it. The second table image the control plane alternates
    /// with is made by the first update, not here.
    #[must_use]
    pub fn with_control(classifier: C, config: &RuntimeConfig) -> Self {
        Self::build(classifier, true, config, None)
    }

    /// Starts a **durable** control-plane runtime backed by a
    /// [`Store`] in `durability.dir`: state is recovered as
    /// `decode(newest valid snapshot) + replay(WAL tail)` — `fallback`
    /// is used (and checkpointed as version 1) only when the store holds
    /// no usable checkpoint. Every subsequent
    /// [`RuntimeHandle::add_rule`] / [`RuntimeHandle::remove_rule`] is
    /// write-ahead logged before it touches the master, with a full
    /// checkpoint every [`DurabilityConfig::checkpoint_every`] records,
    /// and the supervisor escalates a broken runtime (restart storm, or
    /// an explicit [`RuntimeHandle::force_restore`]) to a whole-runtime
    /// cold start from that same recovery computation.
    ///
    /// Returns the runtime plus a [`RestoreReport`] describing what the
    /// boot recovery actually did.
    ///
    /// # Errors
    /// [`PersistError`] when the store cannot be opened, a recovered
    /// image does not decode, or the initial checkpoint of `fallback`
    /// cannot be written.
    pub fn with_durability(
        fallback: C,
        config: &RuntimeConfig,
        durability: &DurabilityConfig,
    ) -> Result<(Self, RestoreReport), PersistError>
    where
        C: DynamicClassifier + Persistent + Clone,
    {
        let mut store = match &durability.storage {
            Some(storage) => Store::open_with(&durability.dir, Arc::clone(storage))?,
            None => Store::open(&durability.dir)?,
        };
        store.set_segment_bytes(durability.wal_segment_bytes);
        store.set_retain_snapshots(durability.retain_snapshots);
        let (master, mut report) = match recover::<C>(&mut store)? {
            Some((table, report)) => (table, report),
            None => {
                // No decodable snapshot at all — but on a hostile disk
                // the WAL may still hold every acked record (every
                // checkpoint attempt failed while appends kept
                // succeeding). Replay the log onto the fallback so a
                // durably-acked rule is never lost to a missing image.
                let mut table = fallback;
                let records = store.wal_records()?;
                let (replayed, skipped) = replay_onto(&mut table, &records)?;
                let report = RestoreReport {
                    wal_replayed: replayed,
                    wal_skipped: skipped,
                    ..RestoreReport::default()
                };
                (table, report)
            }
        };
        report.wal_torn |= store.wal_was_torn_at_open();
        let mut state = DurableState {
            store,
            encode: encode_image_of::<C>,
            kind: durability.kind,
            snapshot_version: report.version,
            records_since: 0,
            checkpoint_every: durability.checkpoint_every.max(1),
        };
        // Make the boot state durable up front: a fresh store gets the
        // fallback as checkpoint 1; a store whose recovery replayed WAL
        // records gets a compacting checkpoint so the next cold start is
        // one decode with an empty tail. A *failed* boot checkpoint is
        // not fatal — the WAL (plus any older snapshot) already covers
        // the state, so the runtime comes up in WAL-only degraded mode
        // and retries at the next cadence interval.
        let mut boot_checkpoint_failed = false;
        if !report.restored || report.wal_replayed > 0 || report.wal_skipped > 0 {
            state.snapshot_version += 1;
            if state
                .store
                .checkpoint(state.snapshot_version, &master.encode_image(), CheckpointMode::Durable)
                .is_err()
            {
                state.snapshot_version -= 1;
                boot_checkpoint_failed = true;
            }
        }
        let escalation = EscalationPolicy {
            after: durability.escalate_after.max(1),
            window: durability.escalate_window,
            quiesce_timeout: durability.quiesce_timeout,
        };
        // Type-erased restore-time rebuild: constructed here, where the
        // `Persistent + DynamicClassifier + Clone` bounds hold, called
        // by the (bound-free) supervisor during a runtime restore. The
        // caller holds no runtime locks at that point.
        let rebuild: RebuildMaster<C> = Box::new(|shared| {
            let mut master = shared.lock_master();
            let Some(durable) = &shared.durable else { return };
            let mut d = lock_count(durable, &shared.poison_recoveries);
            match recover::<C>(&mut d.store) {
                Ok(Some((table, report))) => {
                    shared.durability.absorb_report(&report);
                    d.snapshot_version = d.snapshot_version.max(report.version);
                    let encode = d.encode;
                    // Write-ahead-before-mutate keeps the live master
                    // and the store in agreement, so an in-process
                    // restore normally recovers a byte-identical table:
                    // publishing it again would only burn a version on
                    // duplicate content. Publish only on divergence
                    // (i.e. the disk state moved under us) — directly
                    // through the cell (no fault-plan publish hooks)
                    // and under the master lock, which serializes every
                    // control-plane publish.
                    let identical =
                        master.as_ref().is_some_and(|m| encode(&m.live) == encode(&table));
                    drop(d);
                    if !identical {
                        let live = Arc::new(table);
                        *master = Some(Master::new(Arc::clone(&live)));
                        shared.cell.publish(live);
                    }
                    drop(master);
                }
                Ok(None) | Err(_) => {
                    // No usable checkpoint (or an undecodable image):
                    // crash-only still has to come back up, so keep the
                    // live master serving — the published snapshot is
                    // already in sync with it.
                    shared.durability.restore_fallbacks.fetch_add(1, Relaxed);
                }
            }
        });
        let runtime =
            Self::build(master, true, config, Some(DurableParts { state, rebuild, escalation }));
        runtime.handle.shared.durability.absorb_report(&report);
        runtime.handle.shared.trace_control(
            EventKind::Boot,
            report.version,
            report.wal_replayed as u64,
        );
        if boot_checkpoint_failed {
            let d = &runtime.handle.shared.durability;
            d.checkpoint_failures.fetch_add(1, Relaxed);
            d.degraded.store(true, Relaxed);
            d.degraded_episodes.fetch_add(1, Relaxed);
        }
        Ok((runtime, report))
    }

    fn build(
        classifier: C,
        control: bool,
        config: &RuntimeConfig,
        durable: Option<DurableParts<C>>,
    ) -> Self {
        let shards = config.shards.max(1);
        let live = Arc::new(classifier);
        let master = control.then(|| Master::new(Arc::clone(&live)));
        let cell = Arc::new(SnapshotCell::new(live));
        let poison_recoveries = Arc::new(AtomicU64::new(0));
        let mut producers = Vec::with_capacity(shards);
        let mut consumers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = spsc::<Job>(config.ring_capacity.max(1));
            producers.push(tx);
            consumers.push(rx);
        }
        let doorbells: Vec<Arc<Doorbell>> =
            (0..shards).map(|_| Arc::new(Doorbell::new(Arc::clone(&poison_recoveries)))).collect();
        let counters: Vec<Arc<ShardCounters>> =
            (0..shards).map(|_| Arc::new(ShardCounters::default())).collect();
        let is_durable = durable.is_some();
        let (durable_state, rebuild_master, escalation) = match durable {
            Some(parts) => (Some(Mutex::new(parts.state)), Some(parts.rebuild), parts.escalation),
            None => (None, None, EscalationPolicy::default()),
        };
        let recorder = config
            .flight_recorder
            .then(|| Arc::new(FlightRecorder::new(shards, config.trace_events_per_lane)));
        let shared = Arc::new(Shared {
            cell,
            master: Mutex::new(master),
            producers: producers.into_iter().map(Mutex::new).collect(),
            doorbells,
            counters,
            inflight: (0..shards).map(|_| Mutex::new(None)).collect(),
            stop: AtomicBool::new(false),
            shards,
            cache_capacity: config.cache_capacity,
            settings: WorkerSettings {
                pin: config.pin_workers,
                cache_capacity: config.cache_capacity,
                cache_admission: config.cache_admission,
                alloc_counter: config.alloc_counter,
                ring_capacity: config.ring_capacity.max(1),
            },
            admission: config.admission,
            poison_recoveries,
            ticket_timeouts: Arc::new(AtomicU64::new(0)),
            control: ControlCounters::default(),
            changes: Mutex::new(ChangeLog { first: 0, ops: VecDeque::new() }),
            durable: durable_state,
            durability: Arc::new(DurabilityCounters::default()),
            rebuild_master,
            restore_requested: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            run_epoch: AtomicU64::new(0),
            escalation,
            recorder,
            series: Arc::new(SeriesRing::new(config.metrics_series_capacity)),
            sampler_cadence: config.metrics_sampler,
            flight_journal: Mutex::new(Vec::new()),
            #[cfg(feature = "fault-injection")]
            fault_plan: config.fault_plan.clone(),
        });
        // Durable boots emit their Boot event from `with_durability`,
        // where the restore report (version + replay length) is known.
        if !is_durable {
            shared.trace_control(EventKind::Boot, 0, 0);
        }
        let workers = consumers
            .into_iter()
            .enumerate()
            .map(|(shard, consumer)| spawn_worker(&shared, shard, consumer))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mtl-supervisor".into())
                .spawn(move || crate::supervisor::supervise(&shared, workers))
                .expect("spawning the supervisor")
        };
        let sampler = match (&shared.recorder, shared.sampler_cadence) {
            (Some(recorder), Some(cadence)) => {
                let recorder = Arc::clone(recorder);
                let handle = RuntimeHandle { shared: Arc::clone(&shared) };
                Some(
                    std::thread::Builder::new()
                        .name("mtl-sampler".into())
                        .spawn(move || sampler_loop(&handle, &recorder, cadence))
                        .expect("spawning the metrics sampler"),
                )
            }
            _ => None,
        };
        Self { handle: RuntimeHandle { shared }, supervisor: Some(supervisor), sampler }
    }

    /// A cloneable handle (control + data plane).
    #[must_use]
    pub fn handle(&self) -> RuntimeHandle<C> {
        self.handle.clone()
    }

    /// Stops the workers and joins them. Equivalent to dropping the
    /// runtime, as an explicit verb.
    pub fn shutdown(self) {}
}

impl<C: Classifier + 'static> std::ops::Deref for Runtime<C> {
    type Target = RuntimeHandle<C>;
    fn deref(&self) -> &Self::Target {
        &self.handle
    }
}

impl<C: Classifier + 'static> Drop for Runtime<C> {
    fn drop(&mut self) {
        let shared = &self.handle.shared;
        shared.stop.store(true, SeqCst);
        for bell in &shared.doorbells {
            bell.ring();
        }
        // The supervisor joins every worker before returning.
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        // Strand no waiter: complete whatever the shutdown cut off —
        // orphaned in-flight jobs and ring backlogs — as unserved.
        for shard in 0..shared.shards {
            if let Some(job) = shared.lock_inflight(shard).take() {
                complete_unserved(&shared.counters[shard], job, false);
            }
            let (dummy, _) = spsc::<Job>(1);
            let old = std::mem::replace(&mut *shared.lock_producer(shard), dummy);
            if let Ok(backlog) = old.recover() {
                for job in backlog {
                    complete_unserved(&shared.counters[shard], job, false);
                }
            }
        }
        // Orderly shutdowns leave a final flight-log image behind;
        // crashes rely on the panic/escalation/checkpoint flushes.
        shared.flush_flight_log();
    }
}

/// Restore-time master rebuild, type-erased so the bound-free
/// supervisor can call it (see [`Runtime::with_durability`]).
pub(crate) type RebuildMaster<C> = Box<dyn Fn(&Shared<C>) + Send + Sync>;

/// The durable pieces [`Runtime::with_durability`] threads into
/// [`Runtime::build`].
struct DurableParts<C> {
    state: DurableState<C>,
    rebuild: RebuildMaster<C>,
    escalation: EscalationPolicy,
}

/// [`Persistent::encode_image`] as a plain `fn` pointer — stored in
/// [`DurableState`] so the generic update paths can encode without a
/// `Persistent` bound.
fn encode_image_of<C: Persistent>(table: &C) -> Vec<u8> {
    table.encode_image()
}

/// Per-worker spawn parameters.
pub(crate) struct WorkerConfig {
    pub(crate) shard: usize,
    pub(crate) settings: WorkerSettings,
}

/// Spawns one shard worker thread (initial build and supervisor
/// respawns share this path).
pub(crate) fn spawn_worker<C: Classifier + 'static>(
    shared: &Arc<Shared<C>>,
    shard: usize,
    consumer: Consumer<Job>,
) -> std::thread::JoinHandle<()> {
    let cfg = WorkerConfig { shard, settings: shared.settings.clone() };
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("mtl-shard-{shard}"))
        .spawn(move || worker_entry(&cfg, &shared, consumer))
        .expect("spawning a shard worker")
}

/// The worker thread body: the run-to-completion loop under an unwind
/// boundary. A panic anywhere in the loop is caught and counted; the
/// thread then exits (dropping its ring consumer), which is the
/// supervisor's signal to respawn the shard and re-route whatever the
/// dead worker left behind (its recorded in-flight job + ring backlog).
fn worker_entry<C: Classifier + 'static>(
    cfg: &WorkerConfig,
    shared: &Arc<Shared<C>>,
    mut consumer: Consumer<Job>,
) {
    let result = catch_unwind(AssertUnwindSafe(|| worker_loop(cfg, shared, &mut consumer)));
    if result.is_err() {
        shared.counters[cfg.shard].panics.fetch_add(1, Relaxed);
        shared.trace_supervisor(EventKind::WorkerPanic, cfg.shard as u64, 0);
        // Crash forensics: persist the timeline that led up to the
        // panic now, while the evidence is still in the rings.
        shared.flush_flight_log();
    }
    // `consumer` drops here: `Producer::consumer_alive` turns false,
    // and `Producer::recover` becomes possible.
}

/// The metrics-sampler thread body: every `cadence` it folds a full
/// telemetry snapshot into one [`MetricPoint`] and pushes it into the
/// shared [`SeriesRing`]. Sleeps in short slices so shutdown never
/// waits out a long cadence.
fn sampler_loop<C: Classifier + 'static>(
    handle: &RuntimeHandle<C>,
    recorder: &FlightRecorder,
    cadence: Duration,
) {
    const SLICE: Duration = Duration::from_millis(20);
    let shared = &handle.shared;
    let mut ordinal = 0u64;
    let mut last = Instant::now();
    while !shared.stop.load(Relaxed) {
        std::thread::sleep(cadence.min(SLICE));
        if shared.stop.load(Relaxed) {
            break;
        }
        if last.elapsed() < cadence {
            continue;
        }
        last = Instant::now();
        let t = handle.telemetry();
        let packets: u64 = t.per_shard.iter().map(|s| s.packets).sum();
        let shed: u64 = t.per_shard.iter().map(|s| s.shed_packets).sum();
        let restarts: u64 = t.per_shard.iter().map(|s| s.restarts).sum();
        let hits: u64 = t.per_shard.iter().map(|s| s.cache.hits).sum();
        let lookups: u64 = t.per_shard.iter().map(|s| s.cache.hits + s.cache.misses).sum();
        let hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        let bypassed: u64 = t.per_shard.iter().map(|s| s.cache.bypassed).sum();
        let (wal_appends, checkpoints) =
            t.durability.map_or((0, 0), |d| (d.wal_appends, d.checkpoints));
        shared.series.push(MetricPoint {
            ts_ns: recorder.now_ns(),
            values: vec![
                ("packets", packets as f64),
                ("hit_rate", hit_rate),
                ("bypassed", bypassed as f64),
                ("shed_packets", shed as f64),
                ("restarts", restarts as f64),
                ("version", t.version as f64),
                ("wal_appends", wal_appends as f64),
                ("checkpoints", checkpoints as f64),
                ("ticket_timeouts", t.ticket_timeouts as f64),
            ],
        });
        recorder.emit(recorder.control_lane(), EventKind::SamplerTick, ordinal, 0);
        ordinal += 1;
    }
}

/// The run-to-completion shard loop. Per job: record it as in-flight
/// (crash insurance), refresh the replicated snapshot if the cell
/// moved (bringing the flow cache along in either mode), ask the
/// worker-owned cache whether it pays its way, then serve every packet
/// through the cache and the immutable table — or, while the cache is
/// bypassed, straight from the table, a sample of about one packet in
/// 64 still going through the cache. No locks, and (once warmed) no
/// heap allocations inside the per-packet loop.
fn worker_loop<C: Classifier + 'static>(
    cfg: &WorkerConfig,
    shared: &Shared<C>,
    jobs: &mut Consumer<Job>,
) {
    let counters = Arc::clone(&shared.counters[cfg.shard]);
    let doorbell = Arc::clone(&shared.doorbells[cfg.shard]);
    if cfg.settings.pin {
        counters.pinned.store(pin_to_cpu(cfg.shard), SeqCst);
    }
    let reader = shared.cell.register("shard");
    let mut cache = (cfg.settings.cache_capacity > 0).then(|| {
        FlowCache::with_admission(cfg.settings.cache_capacity, cfg.settings.cache_admission)
    });
    if let Some(cache) = cache.as_ref() {
        // Seed the telemetry mirrors with the cache's effective
        // (rounding-aware) capacities before any traffic arrives.
        counters.record_cache(&cache.stats());
    }
    // The replicated snapshot, and the version it was at: the worker
    // lets go of the snapshot whenever it parks, so that an idle shard
    // never pins a table image the control plane wants back.
    let first = reader.load();
    let mut version = first.version;
    // The flow cache's entries are stamped `epoch`: the publish version
    // at which the cache last went as a whole. Versions are unique and
    // strictly monotone per table image, so a dropped row is never
    // revived. (Folding a per-table counter in would *break* this: a
    // `swap_table` to a table with a lower counter could reproduce an
    // old epoch and revive that epoch's stale entries.)
    let mut epoch = version;
    let mut held = Some(first);
    let mut spins = 0u32;
    // The runtime epoch this worker belongs to. A restore bumps the
    // epoch *after* swapping in fresh rings; a worker that observes a
    // newer epoch is a zombie — its ring has already been replaced, so
    // it drains what remains (completing those replies; the per-shard
    // dedup and the deadline check keep that harmless) and exits.
    let my_epoch = shared.run_epoch.load(SeqCst);
    loop {
        // Liveness beat for the supervisor's stall detector.
        counters.heartbeat.fetch_add(1, Relaxed);
        // A restore in progress quiesces current-epoch workers at a job
        // boundary: park out here, before touching the next job.
        if shared.quiesce.load(SeqCst) && shared.run_epoch.load(SeqCst) == my_epoch {
            break;
        }
        let Some(job) = jobs.pop() else {
            if shared.stop.load(SeqCst) || shared.run_epoch.load(SeqCst) != my_epoch {
                break;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                held = None;
                counters.idle_parks.fetch_add(1, Relaxed);
                doorbell.park(Duration::from_millis(1));
            }
            continue;
        };
        spins = 0;
        // Crash insurance: record the job before any fallible work so
        // the supervisor can re-route it if this thread dies. (Cleared
        // only *after* the reply completes; the reply's per-shard dedup
        // makes the complete-then-die window harmless.) Zombies skip
        // this: the slot belongs to the shard's *current* worker, and
        // the epoch check runs inside the slot's critical section so a
        // zombie can never clobber its replacement's record.
        {
            let mut slot = shared.lock_inflight(cfg.shard);
            if shared.run_epoch.load(SeqCst) == my_epoch {
                *slot = Some(job.clone());
            }
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &shared.fault_plan {
            match plan.on_batch(cfg.shard) {
                Some(Fault::WorkerPanic) => panic!("injected worker panic (fault plan)"),
                Some(Fault::Stall(wedge)) => std::thread::sleep(wedge),
                None => {}
            }
        }
        // Deadline-aware service: a job that already missed its
        // deadline is shed here, not served uselessly late.
        if let Some(deadline) = job.deadline {
            if Instant::now() >= deadline {
                let packets = job.idx.len() as u64;
                counters.deadline_shed_packets.fetch_add(packets, Relaxed);
                shared.trace_shard(cfg.shard, EventKind::DeadlineShed, packets, 0);
                complete_unserved(&counters, job, false);
                clear_inflight(shared, cfg.shard, my_epoch);
                continue;
            }
        }
        // Refresh the replicated snapshot between jobs only: one job =
        // one table generation. (Re-acquiring the unchanged snapshot
        // after a park is not a refresh.)
        if held.as_ref().is_some_and(|s| reader.cell().version() != s.version) {
            held = None;
        }
        let snap = held.get_or_insert_with(|| reader.load());
        if snap.version != version {
            let prev = std::mem::replace(&mut version, snap.version);
            counters.snapshot_refreshes.fetch_add(1, Relaxed);
            shared.trace_shard(cfg.shard, EventKind::SnapshotRefresh, snap.version, prev);
            // The flow cache comes along, less what the rule changes in
            // between could have affected — or not at all, when those
            // are not on record (a whole new table, a shard far behind).
            let kept =
                cache.as_mut().is_some_and(|c| shared.carry_over(c, epoch, prev, snap.version));
            if !kept {
                epoch = snap.version;
                shared.trace_shard(cfg.shard, EventKind::CacheEpochBump, epoch, 0);
            }
        }
        let started = Instant::now();
        let Job { headers, idx, shard: shard_id, submitted, reply, .. } = job;
        let mut rows: Vec<Option<u32>> = Vec::with_capacity(idx.len());
        // Sample the thread-local allocation counter strictly around the
        // per-packet loop (the rows buffer above is per-batch).
        let allocs_before = cfg.settings.alloc_counter.map(|probe| probe());
        // The cache decides once per batch whether it pays its way; a
        // bypassed one still sees a sample of the packets.
        let bypass = cache.as_mut().is_some_and(FlowCache::begin_batch);
        match cache.as_mut() {
            Some(cache) if !bypass => {
                for &i in &idx {
                    rows.push(through_cache(cache, epoch, &snap.value, &headers[i as usize]));
                }
            }
            Some(cache) => {
                for &i in &idx {
                    let header = &headers[i as usize];
                    rows.push(if cache.sampled() {
                        through_cache(cache, epoch, &snap.value, header)
                    } else {
                        snap.value.classify(header)
                    });
                }
            }
            None => {
                for &i in &idx {
                    rows.push(snap.value.classify(&headers[i as usize]));
                }
            }
        }
        if let (Some(probe), Some(before)) = (cfg.settings.alloc_counter, allocs_before) {
            counters.hot_path_allocs.fetch_add(probe() - before, Relaxed);
        }
        let served = idx.len() as u64;
        counters.packets.fetch_add(served, Relaxed);
        counters.batches.fetch_add(1, Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        counters.busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        counters.latency.record(submitted.elapsed().as_nanos() as u64);
        if let Some(cache) = cache.as_ref() {
            counters.record_cache(&cache.stats());
        }
        shared.trace_shard(cfg.shard, EventKind::BatchServe, served, snap.version);
        reply.complete(Part { shard: shard_id, idx, rows, version: snap.version });
        clear_inflight(shared, cfg.shard, my_epoch);
        drop(headers);
    }
}

/// One packet through the flow cache: its memoised row, or else the
/// table's answer, offered to the cache. Always inlined, so the cached
/// per-packet loop compiles to no call.
#[inline(always)]
fn through_cache<C: Classifier>(
    cache: &mut FlowCache,
    epoch: u64,
    table: &C,
    header: &HeaderValues,
) -> Option<u32> {
    cache.lookup(epoch, header).unwrap_or_else(|| {
        let row = table.classify(header);
        cache.insert(epoch, header, row);
        row
    })
}

/// Clears `shard`'s in-flight slot — only if the clearing worker still
/// owns the shard (its epoch is current). The check runs inside the
/// slot's critical section, so a worker zombied by a runtime restore
/// can never erase the record of the fresh worker that replaced it.
fn clear_inflight<C>(shared: &Shared<C>, shard: usize, my_epoch: u64) {
    let mut slot = shared.lock_inflight(shard);
    if shared.run_epoch.load(SeqCst) == my_epoch {
        *slot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classifier_api::{reference_classify, ClassifierBuilder};
    use offilter::{FilterSet, RuleAction};
    use oflow::{FlowMatch, MatchFieldKind};

    /// A tiny linear-scan dynamic classifier (the real engines live
    /// downstream; the runtime only needs the trait surface).
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

    impl ClassifierBuilder for Scan {
        fn try_build(set: &FilterSet) -> Result<Self, BuildError> {
            Ok(Self(set.rules.clone()))
        }
    }

    impl DynamicClassifier for Scan {
        fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError> {
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

    fn quick_config(shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            ring_capacity: 8,
            cache_capacity: 64,
            pin_workers: false,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn matches_the_sequential_oracle_across_shard_counts() {
        let hs = headers(257);
        for shards in [1, 2, 3, 8] {
            let rt = Runtime::new(Scan(rules()), &quick_config(shards));
            let want: Vec<Option<u32>> =
                hs.iter().map(|h| reference_classify(&rules(), h)).collect();
            // Cold and warm (cache-served) passes are byte-identical.
            let cold = rt.classify_batch(&hs);
            assert_eq!(cold.rows, want, "{shards} shards (cold)");
            assert!(cold.versions.iter().all(|&v| v == 1), "{shards} shards: quiesced version");
            assert!(cold.fully_delivered(), "{shards} shards: nothing shed at rest");
            let warm = rt.classify_batch(&hs);
            assert_eq!(warm.rows, want, "{shards} shards (warm)");
            let t = rt.telemetry();
            assert_eq!(t.total_packets(), 2 * 257, "{shards} shards");
            assert_eq!(t.per_shard.len(), shards);
            // The cache mirrors carry the cache's own effective sizes
            // (64 main slots + the default W-TinyLFU window).
            assert!(
                t.per_shard.iter().all(|s| s.cache.capacity == 64 && s.cache.window_capacity == 2),
                "{shards} shards: telemetry must report real cache geometry"
            );
            if shards > 1 {
                let busy: Vec<u64> = t.per_shard.iter().map(|s| s.packets).collect();
                assert!(
                    busy.iter().filter(|&&p| p > 0).count() > 1,
                    "RSS dispatch uses multiple shards: {busy:?}"
                );
            }
            rt.shutdown();
        }
    }

    #[test]
    fn empty_and_tiny_batches() {
        let rt = Runtime::new(Scan(rules()), &quick_config(4));
        let out = rt.classify_batch(&[]);
        assert!(out.is_empty());
        let one = headers(1);
        let out = rt.classify_batch(&one);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0], reference_classify(&rules(), &one[0]));
    }

    #[test]
    fn pipelined_submissions_all_resolve() {
        let rt = Runtime::new(Scan(rules()), &quick_config(2));
        let hs: Arc<[HeaderValues]> = headers(64).into();
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
        let tickets: Vec<Ticket> = (0..32).map(|_| rt.submit(Arc::clone(&hs))).collect();
        for t in tickets {
            assert_eq!(t.wait().rows, want);
        }
        assert_eq!(rt.telemetry().total_packets(), 32 * 64);
    }

    #[test]
    fn control_plane_updates_become_visible_with_version() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(2));
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203u128);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(1)]);

        // A /30 under rule 1's /24: priority 30 beats 24.
        let (report, v2) = rt.add_rule(route(9, 1, 0x0A01_0200, 30, 9)).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(v2, 2);
        let out = rt.classify_batch(std::slice::from_ref(&h));
        assert_eq!(out.rows, vec![Some(9)], "higher-priority rule serves after publish");
        assert_eq!(out.versions, vec![2]);

        let (_, v3) = rt.remove_rule(9).expect("rule exists");
        assert_eq!(v3, 3);
        let out = rt.classify_batch(std::slice::from_ref(&h));
        assert_eq!(out.rows, vec![Some(1)], "removal rolls the answer back");
        assert!(rt.remove_rule(123).is_none());
        assert_eq!(rt.version(), 3, "a no-op removal publishes nothing");
    }

    #[test]
    fn swap_table_replaces_everything() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(2));
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 3)
            .with(MatchFieldKind::Ipv4Dst, 0x0102_0304u128);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(3)]);
        let v = rt.swap_table(Scan(vec![route(77, 3, 0, 0, 7)]));
        assert_eq!(v, 2);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(77)]);
        // The master moved with the swap: updates apply to the new table.
        rt.remove_rule(77).expect("new table's rule exists");
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![None]);
    }

    /// Regression: the cache epoch must be the publish version alone,
    /// so a swapped-in table never inherits the old table's cached rows.
    #[test]
    fn swap_table_to_lower_generation_does_not_revive_stale_cache() {
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 3)
            .with(MatchFieldKind::Ipv4Dst, 0x0102_0304u128);
        let rt = Runtime::with_control(Scan(vec![route(0, 3, 0, 0, 1)]), &quick_config(1));
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(0)]);
        assert_eq!(rt.classify_batch(std::slice::from_ref(&h)).rows, vec![Some(0)], "warm hit");
        // The new table answers None for this flow; the warm Some(0) row
        // must not survive the swap.
        let v = rt.swap_table(Scan(Vec::new()));
        assert_eq!(v, 2);
        assert_eq!(
            rt.classify_batch(std::slice::from_ref(&h)).rows,
            vec![None],
            "swap_table must invalidate every cached row"
        );
    }

    #[test]
    fn data_plane_only_runtime_rejects_updates() {
        let rt = Runtime::new(Scan(rules()), &quick_config(1));
        let err = rt.add_rule(route(9, 1, 0, 0, 9)).unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig { .. }), "{err:?}");
        // No master stores no rules: a removal finds nothing, even for
        // an id the served table holds (this used to panic).
        assert!(rt.remove_rule(0).is_none());
        assert_eq!(rt.version(), 1, "nothing was published");
        assert_eq!(rt.telemetry().control, crate::ControlTelemetry::default());
    }

    #[test]
    fn concurrent_classification_and_churn_matches_versioned_oracle() {
        let hold = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicU64::new(0));
        let gate = Gate { rules: rules(), hold: Arc::clone(&hold), entered: Arc::clone(&entered) };
        let rt = Runtime::with_control(gate, &quick_config(3));
        let handle = rt.handle();
        // Version → rule set at that version.
        let log = Mutex::new(vec![(1u64, rules())]);
        let hs = headers(128);
        let verify = |out: &ClassifiedBatch, hs: &[HeaderValues]| {
            let snapshot_log = log.lock().unwrap().clone();
            for (i, (&row, &version)) in out.rows.iter().zip(&out.versions).enumerate() {
                let rules_at = &snapshot_log
                    .iter()
                    .rev()
                    .find(|(v, _)| *v <= version)
                    .expect("every served version has a log entry")
                    .1;
                let want = reference_classify(rules_at, &hs[i]);
                assert_eq!(row, want, "packet {i} at version {version}");
            }
        };
        // Round 20 of the churn runs against wedged readers: 0 = free
        // running, 1 = the churn asks for them, 2 = they are wedged.
        let stall = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let churn = scope.spawn(|| {
                // Single publisher: versions are predictable, and each
                // log entry is appended *before* its publish so a racing
                // worker can never serve a version the log lacks.
                let mut rs = rules();
                let mut next_version = 2u64;
                for round in 0..40u32 {
                    if round == 20 {
                        stall.store(1, SeqCst);
                        while stall.load(SeqCst) != 2 {
                            std::thread::yield_now();
                        }
                    }
                    let cloned_before = handle.telemetry().control.publishes_cloned;
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
                    if round == 20 {
                        // The wedged readers hold the image that was
                        // live when they loaded it. The add above took
                        // the other one; the remove then found its spare
                        // pinned and copied it out from under them — it
                        // returned, so it did not wait for them.
                        let cloned = handle.telemetry().control.publishes_cloned;
                        assert_eq!(cloned, cloned_before + 1, "a pinned spare is cloned");
                        hold.store(false, SeqCst);
                        stall.store(0, SeqCst);
                    }
                    std::thread::yield_now();
                }
                done.store(true, SeqCst);
            });
            // Headers no flow cache has seen: they must be classified.
            let fresh: Vec<HeaderValues> = headers(256).split_off(128);
            let mut batches = 0;
            while batches < 60 || !done.load(SeqCst) {
                if stall.load(SeqCst) == 1 {
                    // Nothing else is in flight, so every `classify`
                    // entered from here on belongs to this batch, and
                    // finds the gate shut.
                    let before = entered.load(SeqCst);
                    hold.store(true, SeqCst);
                    let ticket = rt.submit(fresh.clone().into());
                    wait_until(&entered, before + 1);
                    stall.store(2, SeqCst);
                    verify(&ticket.wait(), &fresh);
                }
                batches += 1;
                verify(&rt.classify_batch(&hs), &hs);
            }
            churn.join().unwrap();
        });
        let control = rt.telemetry().control;
        assert_eq!(control.publishes_in_place + control.publishes_cloned, 60);
        assert!(control.publishes_in_place > control.publishes_cloned, "{control:?}");
    }

    // ---- fault-tolerance surface -------------------------------------

    /// A classifier that busy-holds every `classify` call while `hold`
    /// is set — the deterministic way to wedge a worker mid-batch.
    #[derive(Clone)]
    struct Gate {
        rules: Vec<Rule>,
        hold: Arc<AtomicBool>,
        entered: Arc<AtomicU64>,
    }

    impl Classifier for Gate {
        fn name(&self) -> &str {
            "gate"
        }
        fn classify(&self, header: &HeaderValues) -> Option<u32> {
            self.entered.fetch_add(1, SeqCst);
            while self.hold.load(SeqCst) {
                std::thread::yield_now();
            }
            reference_classify(&self.rules, header)
        }
        fn memory_bits(&self) -> u64 {
            1
        }
        fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
            1
        }
        fn build_records(&self) -> usize {
            self.rules.len()
        }
    }

    impl DynamicClassifier for Gate {
        fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError> {
            self.rules.push(rule);
            Ok(UpdateReport { records: 1, rebuilt: false, compacted: false })
        }
        fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport> {
            let before = self.rules.len();
            self.rules.retain(|r| r.id != rule_id);
            (self.rules.len() < before).then_some(UpdateReport {
                records: 1,
                rebuilt: false,
                compacted: false,
            })
        }
    }

    fn wait_until(entered: &AtomicU64, at_least: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while entered.load(SeqCst) < at_least {
            assert!(Instant::now() < deadline, "worker never reached the gate");
            std::thread::yield_now();
        }
    }

    #[test]
    fn doorbell_ring_before_park_returns_immediately() {
        let bell = Doorbell::new(Arc::new(AtomicU64::new(0)));
        bell.ring();
        let t = Instant::now();
        bell.park(Duration::from_secs(5));
        assert!(t.elapsed() < Duration::from_secs(1), "pending ring consumed without sleeping");
    }

    #[test]
    fn doorbell_park_times_out_without_a_ring() {
        let bell = Doorbell::new(Arc::new(AtomicU64::new(0)));
        let t = Instant::now();
        bell.park(Duration::from_millis(10));
        assert!(t.elapsed() >= Duration::from_millis(5), "park honours its timeout");
    }

    #[test]
    fn doorbell_wakes_a_parked_thread() {
        let bell = Arc::new(Doorbell::new(Arc::new(AtomicU64::new(0))));
        std::thread::scope(|scope| {
            let parked = {
                let bell = Arc::clone(&bell);
                scope.spawn(move || {
                    let t = Instant::now();
                    bell.park(Duration::from_secs(10));
                    t.elapsed()
                })
            };
            std::thread::sleep(Duration::from_millis(10));
            bell.ring();
            assert!(parked.join().unwrap() < Duration::from_secs(5), "ring wakes the parker");
        });
    }

    #[test]
    fn poisoned_master_lock_recovers_and_is_counted() {
        /// `insert_rule` panics while armed — poisoning the master lock
        /// the way a buggy table update would.
        #[derive(Clone)]
        struct FlakyInsert {
            rules: Vec<Rule>,
            armed: Arc<AtomicBool>,
        }
        impl Classifier for FlakyInsert {
            fn name(&self) -> &str {
                "flaky"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }
        impl DynamicClassifier for FlakyInsert {
            fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError> {
                // Torn on purpose: the rule is stored, then the update dies.
                self.rules.push(rule);
                if self.armed.swap(false, SeqCst) {
                    panic!("injected control-plane panic");
                }
                Ok(UpdateReport { records: 1, rebuilt: false, compacted: false })
            }
            fn remove_rule(&mut self, _rule_id: u32) -> Option<UpdateReport> {
                None
            }
        }

        let armed = Arc::new(AtomicBool::new(true));
        let rt = Runtime::with_control(
            FlakyInsert { rules: rules(), armed: Arc::clone(&armed) },
            &quick_config(2),
        );
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203u128);
        let boom = catch_unwind(AssertUnwindSafe(|| rt.add_rule(route(9, 1, 0, 0, 9))));
        assert!(boom.is_err(), "the injected panic propagates to the updater");
        // The torn image was the unpublished spare, and it is gone: the
        // table being served never saw rule 9.
        assert_eq!(rt.version(), 1);
        assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![Some(1)]);
        // The master lock is now poisoned; the next update recovers it
        // instead of cascading the failure — and starts from a copy of
        // the served table, so the torn rule does not come back with it.
        let (_, v) = rt.add_rule(route(8, 3, 0x0A01_0200, 24, 8)).expect("recovered master");
        assert_eq!(v, 2);
        assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![Some(1)]);
        assert_eq!(rt.latest().value.rules.len(), rules().len() + 1);
        assert_eq!(rt.telemetry().control.publishes_cloned, 1);
        let t = rt.telemetry();
        assert!(t.poison_recoveries >= 1, "recovery is counted: {}", t.poison_recoveries);
        assert!(t.to_json().contains("\"poison_recoveries\""));
    }

    #[test]
    fn shed_policy_drops_over_occupancy_and_resolves_unserved() {
        let hold = Arc::new(AtomicBool::new(true));
        let entered = Arc::new(AtomicU64::new(0));
        let rt = Runtime::new(
            Gate { rules: rules(), hold: Arc::clone(&hold), entered: Arc::clone(&entered) },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                admission: AdmissionPolicy::Shed { max_queued: 1 },
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let one: Arc<[HeaderValues]> = headers(1).into();
        // A: picked up, wedged inside classify.
        let a = rt.submit(Arc::clone(&one));
        wait_until(&entered, 1);
        // B: sits in the ring (occupancy 1).
        let b = rt.submit(Arc::clone(&one));
        // C: over the occupancy bound — shed immediately.
        let c = rt.submit(Arc::clone(&one));
        let shed = c.wait();
        assert_eq!(shed.versions, vec![UNSERVED_VERSION], "shed packets are marked unserved");
        assert_eq!(shed.rows, vec![None]);
        assert_eq!(shed.delivered_count(), 0);
        hold.store(false, SeqCst);
        assert!(a.wait().fully_delivered(), "the wedged batch still serves");
        assert!(b.wait().fully_delivered(), "the queued batch still serves");
        let t = rt.telemetry();
        assert!(t.per_shard[0].shed_jobs >= 1, "shed jobs counted");
        assert!(t.per_shard[0].shed_packets >= 1, "shed packets counted");
        assert!(t.total_shed_packets() >= 1);
    }

    #[test]
    fn wait_timeout_times_out_instead_of_hanging() {
        let hold = Arc::new(AtomicBool::new(true));
        let entered = Arc::new(AtomicU64::new(0));
        let rt = Runtime::new(
            Gate { rules: rules(), hold: Arc::clone(&hold), entered: Arc::clone(&entered) },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let one: Arc<[HeaderValues]> = headers(1).into();
        let stuck = rt.submit(Arc::clone(&one));
        wait_until(&entered, 1);
        match stuck.wait_timeout(Duration::from_millis(20)) {
            WaitOutcome::Timeout => {}
            other => panic!("wedged shard must time out, got {other:?}"),
        }
        assert_eq!(rt.telemetry().ticket_timeouts, 1);
        hold.store(false, SeqCst);
        // A healthy runtime resolves Complete within the timeout.
        match rt.submit(one).wait_timeout(Duration::from_secs(10)) {
            WaitOutcome::Complete(batch) => assert!(batch.fully_delivered()),
            other => panic!("healthy shard completes, got {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_reports_partial_delivery() {
        /// Wedges only packets whose `InPort` is 2 — so one shard
        /// delivers while another hangs.
        #[derive(Clone)]
        struct HalfGate {
            rules: Vec<Rule>,
            hold: Arc<AtomicBool>,
        }
        impl Classifier for HalfGate {
            fn name(&self) -> &str {
                "half-gate"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                let wedged =
                    header.fields().iter().any(|&(f, v)| f == MatchFieldKind::InPort && v == 2);
                while wedged && self.hold.load(SeqCst) {
                    std::thread::yield_now();
                }
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }

        let shards = 2;
        let free = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000u128);
        // A header that (a) wedges and (b) lands on the *other* shard.
        let wedged = (0..4096u128)
            .map(|i| {
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, 2)
                    .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000 + i)
            })
            .find(|h| shard_of(h, shards) != shard_of(&free, shards))
            .expect("some dst hashes onto the other shard");

        let hold = Arc::new(AtomicBool::new(true));
        let rt = Runtime::new(
            HalfGate { rules: rules(), hold: Arc::clone(&hold) },
            &RuntimeConfig {
                shards,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let batch: Arc<[HeaderValues]> = vec![free.clone(), wedged].into();
        match rt.submit(batch).wait_timeout(Duration::from_millis(200)) {
            WaitOutcome::Partial { batch, missing } => {
                assert_eq!(missing, 1, "one packet's shard never delivered");
                assert_eq!(batch.delivered_count(), 1);
                assert!(batch.delivered(0), "the free shard delivered");
                assert!(!batch.delivered(1), "the wedged packet is marked unserved");
                assert_eq!(batch.rows[0], reference_classify(&rules(), &free));
            }
            other => panic!("expected partial delivery, got {other:?}"),
        }
        hold.store(false, SeqCst);
    }

    #[test]
    fn deadline_shed_drops_expired_jobs_at_the_worker() {
        let hold = Arc::new(AtomicBool::new(true));
        let entered = Arc::new(AtomicU64::new(0));
        let rt = Runtime::new(
            Gate { rules: rules(), hold: Arc::clone(&hold), entered: Arc::clone(&entered) },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                admission: AdmissionPolicy::DeadlineShed { deadline: Duration::from_millis(30) },
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let one: Arc<[HeaderValues]> = headers(1).into();
        // A: picked up before its deadline, then wedged.
        let a = rt.submit(Arc::clone(&one));
        wait_until(&entered, 1);
        // B: queued behind the wedge; its deadline expires in the ring.
        let b = rt.submit(Arc::clone(&one));
        std::thread::sleep(Duration::from_millis(50));
        hold.store(false, SeqCst);
        assert!(a.wait().fully_delivered(), "a job picked up in time still serves");
        let late = b.wait();
        assert_eq!(late.versions, vec![UNSERVED_VERSION], "expired jobs are shed, not served late");
        let t = rt.telemetry();
        assert!(t.per_shard[0].deadline_shed_packets >= 1, "deadline sheds counted");
        assert!(t.total_shed_packets() >= 1);
    }

    #[test]
    fn worker_panic_is_survived_and_the_batch_still_serves() {
        /// Panics on exactly one `classify` call, then behaves.
        #[derive(Clone)]
        struct PanicOnce {
            rules: Vec<Rule>,
            armed: Arc<AtomicBool>,
        }
        impl Classifier for PanicOnce {
            fn name(&self) -> &str {
                "panic-once"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                if self.armed.swap(false, SeqCst) {
                    panic!("injected data-plane panic");
                }
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }

        let rt = Runtime::new(
            PanicOnce { rules: rules(), armed: Arc::new(AtomicBool::new(true)) },
            &RuntimeConfig {
                shards: 2,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let hs = headers(64);
        let out = rt.classify_batch(&hs);
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
        assert_eq!(out.rows, want, "the re-routed batch serves correctly");
        assert!(out.fully_delivered(), "one panic costs nothing: the shard respawns");
        let t = rt.telemetry();
        assert!(t.total_panics() >= 1, "the panic is counted");
        assert!(t.total_restarts() >= 1, "the respawn is counted");
        assert!(t.per_shard.iter().map(|s| s.requeued_jobs).sum::<u64>() >= 1);
        assert!(t.to_json().contains("\"total_restarts\""));
        // The respawned shard keeps serving.
        assert!(rt.classify_batch(&hs).fully_delivered());
    }

    #[test]
    fn a_poisonous_job_is_abandoned_instead_of_crash_looping() {
        /// Deterministically panics on `InPort == 7` headers, forever.
        #[derive(Clone)]
        struct PoisonPill {
            rules: Vec<Rule>,
        }
        impl Classifier for PoisonPill {
            fn name(&self) -> &str {
                "poison-pill"
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                if header.fields().iter().any(|&(f, v)| f == MatchFieldKind::InPort && v == 7) {
                    panic!("poisonous header");
                }
                reference_classify(&self.rules, header)
            }
            fn memory_bits(&self) -> u64 {
                1
            }
            fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
                1
            }
            fn build_records(&self) -> usize {
                self.rules.len()
            }
        }

        let rt = Runtime::new(
            PoisonPill { rules: rules() },
            &RuntimeConfig {
                shards: 1,
                ring_capacity: 8,
                cache_capacity: 0,
                pin_workers: false,
                ..RuntimeConfig::default()
            },
        );
        let mut hs = headers(8);
        hs.push(
            HeaderValues::new()
                .with(MatchFieldKind::InPort, 7)
                .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000u128),
        );
        // The key liveness property: the ticket resolves at all, even
        // though the job kills its shard on every attempt.
        let out = rt.classify_batch(&hs);
        assert!(!out.delivered(8), "the poisonous packet is abandoned, not served");
        let t = rt.telemetry();
        assert!(t.total_panics() > u64::from(MAX_REQUEUES), "each attempt panicked");
        assert!(t.total_restarts() > u64::from(MAX_REQUEUES));
        assert!(t.per_shard[0].shed_packets >= 1, "the abandoned job counts as shed");
        // The shard is healthy again for clean traffic.
        let clean = headers(16);
        let out = rt.classify_batch(&clean);
        assert!(out.fully_delivered());
        let want: Vec<Option<u32>> =
            clean.iter().map(|h| reference_classify(&rules(), h)).collect();
        assert_eq!(out.rows, want);
    }

    // ---- the two table images ----------------------------------------

    use mtl_core::MtlSwitch;

    /// 48 nested routes over three ports: few enough live labels that a
    /// handful of flaps crosses the switch's garbage bound.
    fn switch() -> MtlSwitch {
        let mut rules = Vec::new();
        for port in 1..=3u128 {
            for net in 0..4u128 {
                let base = 0x0A00_0000 + (net << 16);
                for (len, low) in [(16, 0u128), (20, 0x3000), (24, 0x3300), (28, 0x3340)] {
                    let id = rules.len() as u32;
                    rules.push(route(id, port, base + low, len, 100 + id));
                }
            }
        }
        let set = FilterSet::preserving_ids("two-images", offilter::FilterKind::Routing, rules);
        <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("switch builds")
    }

    /// Flap `i`: a fresh /24 that comes and goes, leaving labels behind.
    fn flap(i: u32) -> Rule {
        route(5000 + i, 1 + u128::from(i % 3), 0x0B00_0000 + (u128::from(i) << 8), 24, 1)
    }

    /// Returns once every shard has parked again (nothing is in flight).
    fn wait_parked<C: Classifier + 'static>(rt: &RuntimeHandle<C>) {
        let parks = |rt: &RuntimeHandle<C>| -> Vec<u64> {
            rt.telemetry().per_shard.iter().map(|s| s.idle_parks).collect()
        };
        let before = parks(rt);
        let deadline = Instant::now() + Duration::from_secs(5);
        while parks(rt).iter().zip(&before).any(|(now, then)| now <= then) {
            assert!(Instant::now() < deadline, "idle workers never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn live_and_spare_images_stay_byte_identical() {
        let rt = Runtime::with_control(switch(), &quick_config(2));
        // The spare lags by one operation; caught up, it is the live
        // image to the byte — through in-place removes, compactions and
        // a removal that finds nothing.
        let check = |step: u32| {
            let guard = rt.shared.lock_master();
            let master = guard.as_ref().expect("control-plane runtime");
            let spare = master.spare.as_ref().expect("an update leaves a spare behind");
            let mut caught_up = MtlSwitch::clone(&spare.image);
            if let Some(op) = &spare.behind {
                op.apply(&mut caught_up).expect("the live image accepted it");
            }
            assert_eq!(caught_up.encode_image(), master.live.encode_image(), "step {step}");
        };
        for i in 0..40u32 {
            rt.add_rule(flap(i)).expect("flap inserts");
            check(i);
            // Mostly the flap goes again; now and then a seed rule does.
            let victim = if i % 7 == 6 { i / 7 } else { 5000 + i };
            rt.remove_rule(victim).expect("stored");
            check(i);
            assert!(rt.remove_rule(victim).is_none());
            check(i);
        }
        let control = rt.telemetry().control;
        assert!(control.compactions >= 2, "the sequence crosses compactions: {control:?}");
        assert_eq!(control.removes_incremental + control.removes_rebuilt, 40);
        assert_eq!(control.removes_rebuilt, control.compactions, "no range engine here");
        // Nothing but the control plane ever held the spare: one copy to
        // create it, every later update in place.
        assert_eq!((control.publishes_cloned, control.publishes_in_place), (1, 79));
        assert_eq!(control.publish_stall(), 1.0 / 80.0);
    }

    #[test]
    fn idle_shards_pin_no_table_image() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(3));
        let hs = headers(64);
        assert!(rt.classify_batch(&hs).fully_delivered());
        wait_parked(&rt);
        // Replaced with no traffic to make the shards look: the old
        // image has to go on the spot, not when a packet next arrives.
        let old = Arc::downgrade(&rt.latest().value);
        rt.swap_table(Scan(vec![route(77, 1, 0, 0, 7)]));
        assert!(old.upgrade().is_none(), "a parked shard still holds the replaced image");
        assert_eq!(rt.shared.cell.retired_len(), 0);
        // Likewise the spare: with the shards idle every update after
        // the first finds it exclusively owned.
        for i in 0..6u32 {
            rt.add_rule(route(200 + i, 2, 0, 0, 9)).unwrap();
        }
        let control = rt.telemetry().control;
        assert_eq!((control.publishes_cloned, control.publishes_in_place), (1, 5));
        let guard = rt.shared.lock_master();
        let spare = &guard.as_ref().unwrap().spare.as_ref().unwrap().image;
        assert_eq!(Arc::strong_count(spare), 1);
    }

    #[test]
    fn back_to_back_updates_are_spaced_and_one_after_a_pause_is_not() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(1));
        std::thread::sleep(2 * UPDATE_INTERVAL);
        let start = Instant::now();
        for i in 0..10u32 {
            rt.add_rule(route(300 + i, 2, 0, 0, 9)).unwrap();
            rt.remove_rule(300 + i).expect("stored");
        }
        // The first of the twenty found its slot long open; any other
        // may have, on a host that kept this thread off the CPU.
        assert!(start.elapsed() >= 19 * UPDATE_INTERVAL, "{:?}", start.elapsed());
        let paced = rt.telemetry().control.updates_paced;
        assert!((1..=19).contains(&paced), "{paced}");
        std::thread::sleep(2 * UPDATE_INTERVAL);
        rt.add_rule(route(400, 2, 0, 0, 9)).unwrap();
        assert_eq!(rt.telemetry().control.updates_paced, paced);
    }

    // ---- flow caches across rule changes ------------------------------

    #[test]
    fn change_log_nets_out_what_came_and_went() {
        let add = |id: u32| Op::Add(Arc::new(route(id, 1, 0, 0, 1)));
        let mut log = ChangeLog { first: 0, ops: VecDeque::new() };
        log.record(2, add(10));
        log.record(3, Op::Remove(10));
        log.record(4, Op::Remove(3));
        log.record(5, add(11));
        let ids = |net: &NetChange| {
            (net.added.iter().map(|r| r.id).collect::<Vec<_>>(), net.removed.clone())
        };
        // Rule 10 came and went — along with any rule 10 from before.
        assert_eq!(ids(&log.net(1, 3).expect("covered")), (vec![], vec![10]));
        assert_eq!(ids(&log.net(1, 5).expect("covered")), (vec![11], vec![10, 3]));
        assert_eq!(ids(&log.net(2, 3).expect("covered")), (vec![], vec![10]), "added before");
        assert_eq!(ids(&log.net(5, 5).expect("nothing to cover")), (vec![], vec![]));
        assert!(log.net(1, 6).is_none(), "version 6 is not on record");
        assert!(log.net(0, 3).is_none(), "nor is version 1");
        // More additions than a walk is worth; removals do not count.
        for v in 0..NET_ADDS_MAX as u64 {
            log.record(6 + v, add(20 + v as u32));
        }
        let last = 5 + NET_ADDS_MAX as u64;
        assert!(log.net(4, last).is_none());
        assert!(log.net(5, last).is_some());
        for v in 1..=4 * NET_ADDS_MAX as u64 {
            log.record(last + v, Op::Remove(v as u32));
        }
        assert!(log.net(5, last + 4 * NET_ADDS_MAX as u64).is_some());
        // A version published past the log (a whole new table) leaves a
        // gap, and nothing is known across it.
        let next = last + 4 * NET_ADDS_MAX as u64 + 2;
        log.record(next, add(90));
        assert_eq!(log.ops.len(), 1);
        assert!(log.net(next - 2, next).is_none() && log.net(next - 1, next).is_some());
        // Old versions fall off the far end.
        for v in 1..=2 * CHANGE_LOG_VERSIONS as u64 {
            log.record(next + v, Op::Remove(0));
        }
        assert_eq!(log.ops.len(), CHANGE_LOG_VERSIONS);
        assert!(log.net(next, next + 1).is_none());
    }

    #[test]
    fn an_added_rule_affects_the_entries_it_matches() {
        let rule = Rule::new(
            7,
            1,
            FlowMatch::any()
                .with_exact(MatchFieldKind::InPort, 3)
                .unwrap()
                .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_0000, 16)
                .unwrap()
                .with_range(MatchFieldKind::TcpDst, 80, 90)
                .unwrap(),
            RuleAction::Forward(1),
        );
        let base = HeaderValues::new()
            .with(MatchFieldKind::InPort, 3)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203)
            .with(MatchFieldKind::TcpDst, 85);
        // A constrained field the packet does not carry never matches.
        let mut no_tcp = base.clone();
        no_tcp.unset(MatchFieldKind::TcpDst);
        let headers = [
            base.clone(),
            base.clone().with(MatchFieldKind::InPort, 4),
            base.clone().with(MatchFieldKind::Ipv4Dst, 0x0A02_0203),
            base.clone().with(MatchFieldKind::TcpDst, 91),
            base.clone().with(MatchFieldKind::VlanVid, 9),
            no_tcp,
            HeaderValues::new(),
        ];
        let net = NetChange { added: vec![Arc::new(rule.clone())], removed: vec![41] };
        let matched: Vec<bool> = headers.iter().map(|h| rule.flow_match.matches(h)).collect();
        assert_eq!(matched, [true, false, false, false, true, false, false]);
        for (h, matched) in headers.iter().zip(matched) {
            assert_eq!(net.affects(h.fields(), Some(40)), matched, "{h}");
            assert!(net.affects(h.fields(), Some(41)), "a removed rule's answer");
        }
    }

    #[test]
    fn a_rule_change_costs_the_flow_cache_only_what_it_can_affect() {
        let config = RuntimeConfig { cache_capacity: 1024, ..quick_config(1) };
        let rt = Runtime::with_control(Scan(rules()), &config);
        let hs = headers(128);
        let mut oracle = rules();
        let misses = |rt: &RuntimeHandle<Scan>| rt.telemetry().per_shard[0].cache.misses;
        // Serves the flows once, checked against the oracle, and says how
        // many of them missed — then again until all are resident (the
        // admission filter may turn a flow away the first time).
        let serve = |oracle: &[Rule]| {
            let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(oracle, h)).collect();
            let pass = || {
                let before = misses(&rt);
                assert_eq!(rt.classify_rows(&hs), want);
                misses(&rt) - before
            };
            let first = pass();
            assert!((0..16).any(|_| pass() == 0), "the flows never all became resident");
            first
        };
        let distinct = serve(&oracle);
        assert_eq!(distinct, 128);
        assert_eq!(serve(&oracle), 0, "warm");
        // A rule for one flow: its entry is the only one to go ...
        let target = &hs[5];
        let dst = target.get(MatchFieldKind::Ipv4Dst).unwrap();
        let rule = route(500, target.get(MatchFieldKind::InPort).unwrap(), dst, 32, 77);
        oracle.push(rule.clone());
        rt.add_rule(rule).unwrap();
        assert_eq!(serve(&oracle), 1, "the added rule matches one resident flow");
        // ... and again when the rule goes (its answer was memoised).
        oracle.pop();
        rt.remove_rule(500).expect("stored");
        assert_eq!(serve(&oracle), 1);
        // Removing a seed rule evicts the flows it was answering.
        let answered_by_3 = {
            let mut flows: Vec<&HeaderValues> =
                hs.iter().filter(|h| reference_classify(&oracle, h) == Some(3)).collect();
            flows.dedup();
            flows.len() as u64
        };
        assert!(answered_by_3 > 0 && answered_by_3 < distinct);
        oracle.retain(|r| r.id != 3);
        rt.remove_rule(3).expect("stored");
        assert_eq!(serve(&oracle), answered_by_3);
        // A one-packet job brings the cache forward like any other: the
        // flow the change affects misses, and nothing else is lost.
        let one = std::slice::from_ref(target);
        let rule = route(600, target.get(MatchFieldKind::InPort).unwrap(), dst, 32, 88);
        oracle.push(rule.clone());
        rt.add_rule(rule).unwrap();
        let before = misses(&rt);
        assert_eq!(rt.classify_rows(one), vec![Some(600)]);
        assert_eq!(misses(&rt), before + 1);
        assert_eq!(serve(&oracle), 0, "the cache was brought forward by the small job");
        // A whole new table leaves nothing to carry over.
        rt.swap_table(Scan(oracle.clone()));
        assert_eq!(serve(&oracle), distinct);
        let events = rt.trace_events();
        let bumps = events.iter().filter(|e| e.kind == EventKind::CacheEpochBump).count();
        assert_eq!(bumps, 1, "only the swap dropped the cache");
    }

    #[test]
    fn an_id_added_twice_and_removed_leaves_no_stale_cache_rows() {
        // The table holds a rule 3; another rule 3 (a retried add, another
        // match) comes and goes between two looks of the shard. Both went
        // with the removal, so what the first was answering must not be
        // served from the cache.
        let config = RuntimeConfig { cache_capacity: 1024, ..quick_config(1) };
        let rt = Runtime::with_control(switch(), &config);
        let mut hs = vec![HeaderValues::new()
            .with(MatchFieldKind::InPort, 2)
            .with(MatchFieldKind::Ipv4Dst, 0x0C00_0001u128)];
        for port in 1..=3u128 {
            for net in 0..4u128 {
                for low in [0u128, 0x3000, 0x3300, 0x3340] {
                    hs.push(
                        HeaderValues::new()
                            .with(MatchFieldKind::InPort, port)
                            .with(MatchFieldKind::Ipv4Dst, 0x0A00_0001 + (net << 16) + low),
                    );
                }
            }
        }
        let check = |step: &str| {
            for _ in 0..3 {
                let served = rt.classify_rows(&hs);
                let table = rt.latest();
                let want: Vec<Option<u32>> = hs.iter().map(|h| table.value.classify(h)).collect();
                assert_eq!(served, want, "{step}");
            }
        };
        check("warm");
        assert_eq!(rt.classify_rows(&hs[4..5]), vec![Some(3)], "rule 3 answers its /28");
        rt.add_rule(route(3, 2, 0x0C00_0000, 8, 9)).unwrap();
        rt.remove_rule(3).expect("stored, twice");
        assert_eq!(rt.classify_rows(&hs[4..5]), vec![Some(2)], "the /24 behind it answers now");
        check("both rules 3 are gone");
        rt.add_rule(route(3, 2, 0x0C00_0000, 8, 9)).unwrap();
        check("one is back");
        assert_eq!(rt.classify_rows(&hs[..1]), vec![Some(3)]);
    }

    /// Prints what [`NET_ADDS_MAX`] is derived from (`cargo test --release
    /// -p mtl-runtime cache_walk_costs -- --ignored --nocapture`).
    #[test]
    #[ignore = "a measurement, not a check"]
    fn cache_walk_costs() {
        let table = switch();
        let flows: Vec<HeaderValues> = (0..512u128)
            .map(|i| {
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, 1 + i % 3)
                    .with(MatchFieldKind::Ipv4Dst, 0x0A00_0000 + i * 0x41)
            })
            .collect();
        let mut cache = FlowCache::new(1024);
        let warm = |cache: &mut FlowCache, epoch: u64| {
            let started = Instant::now();
            for h in &flows {
                if cache.lookup(epoch, h).is_none() {
                    cache.insert(epoch, h, Classifier::classify(&table, h));
                }
            }
            started.elapsed().as_nanos() as f64 / flows.len() as f64
        };
        // Losing an entry: a miss, a classification, an insert.
        let lost = (1..=64).map(|epoch| warm(&mut cache, epoch)).sum::<f64>() / 64.0;
        for _ in 0..4 {
            warm(&mut cache, 64);
        }
        let resident = flows.iter().filter(|h| cache.lookup(64, h).is_some()).count();
        // Keeping it: one match per added rule (none of which match).
        for k in [1usize, 4, 16] {
            let net = NetChange {
                added: (0..k as u32).map(|i| Arc::new(route(i, 9, 0x0B00_0000, 8, 1))).collect(),
                removed: Vec::new(),
            };
            let started = Instant::now();
            for _ in 0..256 {
                assert_eq!(cache.evict_where(64, |fields, row| net.affects(fields, row)), 0);
            }
            let per = started.elapsed().as_nanos() as f64 / (256 * resident * k) as f64;
            println!("{k} added rule(s): {per:.1} ns per resident entry and rule");
        }
        let net = NetChange { added: Vec::new(), removed: (0..128).map(|i| 9000 + i).collect() };
        let started = Instant::now();
        for _ in 0..256 {
            assert_eq!(cache.evict_where(64, |fields, row| net.affects(fields, row)), 0);
        }
        let walk_us = started.elapsed().as_nanos() as f64 / 256e3;
        println!("128 removed ids: {walk_us:.1} us per walk; {resident} resident entries");
        println!("an entry lost: {lost:.0} ns to get it back");
    }

    // ---- durable control plane --------------------------------------

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

    fn temp_store(tag: &str) -> std::path::PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mtl-runtime-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wait_epoch(rt: &RuntimeHandle<Scan>, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.run_epoch() < want {
            assert!(Instant::now() < deadline, "restore never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn durable_runtime_recovers_state_across_restarts() {
        let dir = temp_store("recover");
        let durability = DurabilityConfig { checkpoint_every: 4, ..DurabilityConfig::new(&dir) };
        let hs = headers(64);
        let image_before;
        {
            let (rt, report) =
                Runtime::with_durability(Scan(rules()), &quick_config(2), &durability).unwrap();
            assert!(!report.restored, "fresh store boots from the fallback");
            // 6 adds: checkpoint at 4, records 5-6 live only in the WAL.
            for i in 0..6u32 {
                rt.add_rule(route(100 + i, 1, 0x1400_0000 + (u128::from(i) << 8), 24, 50 + i))
                    .unwrap();
            }
            rt.remove_rule(3).expect("seed rule 3 exists");
            let d = rt.telemetry().durability.expect("durable runtime reports durability");
            assert_eq!(d.wal_appends, 7);
            assert!(d.checkpoints >= 1, "cadence checkpoint happened");
            image_before = rt.master_image().expect("durable master image");
            rt.shutdown();
        }
        // Cold start with a *different* fallback: disk must win.
        let (rt, report) =
            Runtime::with_durability(Scan(Vec::new()), &quick_config(2), &durability).unwrap();
        assert!(report.restored, "second boot restores from disk");
        assert!(report.wal_replayed > 0, "the WAL tail past the watermark replays");
        assert_eq!(
            rt.master_image().expect("image"),
            image_before,
            "restored master is byte-identical to the pre-shutdown image"
        );
        let mut oracle = rules();
        oracle.retain(|r| r.id != 3);
        for i in 0..6u32 {
            oracle.push(route(100 + i, 1, 0x1400_0000 + (u128::from(i) << 8), 24, 50 + i));
        }
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&oracle, h)).collect();
        assert_eq!(rt.classify_rows(&hs), want, "recovered table serves the full rule set");
    }

    #[test]
    fn forced_restore_bumps_epoch_and_keeps_serving() {
        let dir = temp_store("force");
        let (rt, _) =
            Runtime::with_durability(Scan(rules()), &quick_config(2), &DurabilityConfig::new(&dir))
                .unwrap();
        let hs = headers(128);
        let want: Vec<Option<u32>> = hs.iter().map(|h| reference_classify(&rules(), h)).collect();
        assert_eq!(rt.classify_rows(&hs), want);
        assert!(rt.force_restore(), "durable runtimes accept the escalation");
        wait_epoch(&rt, 1);
        let d = rt.telemetry().durability.expect("durability block");
        assert_eq!(d.runtime_restores, 1);
        assert_eq!(d.restore_fallbacks, 0, "the boot checkpoint restores cleanly");
        assert_eq!(rt.classify_rows(&hs), want, "service is identical after the restore");
        // The control plane keeps working on the new epoch.
        rt.add_rule(route(200, 1, 0x3300_0000, 24, 9)).unwrap();
        assert!(rt.telemetry().durability.expect("block").wal_appends >= 1);
    }

    #[test]
    fn non_durable_runtimes_refuse_restore_and_report_nothing() {
        let rt = Runtime::with_control(Scan(rules()), &quick_config(1));
        assert!(!rt.durable());
        assert!(!rt.force_restore(), "nothing to restore from");
        assert!(rt.telemetry().durability.is_none());
        assert!(rt.master_image().is_none());
        assert!(rt.checkpoint_now().is_none());
    }

    #[test]
    fn checkpoint_now_compacts_the_replay() {
        let dir = temp_store("compact");
        let durability = DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) };
        {
            let (rt, _) =
                Runtime::with_durability(Scan(rules()), &quick_config(1), &durability).unwrap();
            for i in 0..5u32 {
                rt.add_rule(route(300 + i, 2, 0x2800_0000 + (u128::from(i) << 8), 24, 70)).unwrap();
            }
            let v = rt.checkpoint_now().expect("durable checkpoint");
            assert!(v >= 2, "explicit checkpoint version advances past the boot checkpoint");
            rt.shutdown();
        }
        let (_rt, report) =
            Runtime::with_durability(Scan(Vec::new()), &quick_config(1), &durability).unwrap();
        assert!(report.restored);
        assert_eq!(report.wal_replayed, 0, "checkpoint_now left an empty tail");
    }

    #[test]
    fn swap_table_checkpoints_immediately() {
        let dir = temp_store("swap");
        let durability = DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) };
        {
            let (rt, _) =
                Runtime::with_durability(Scan(rules()), &quick_config(1), &durability).unwrap();
            rt.add_rule(route(400, 1, 0x5000_0000, 8, 11)).unwrap();
            // The swap is not WAL-expressible: it must checkpoint, and
            // the watermark must fence off the pre-swap WAL tail.
            rt.swap_table(Scan(vec![route(77, 1, 0x0A00_0000, 8, 77)]));
            rt.shutdown();
        }
        let (rt, report) =
            Runtime::with_durability(Scan(Vec::new()), &quick_config(1), &durability).unwrap();
        assert!(report.restored);
        assert_eq!(report.wal_replayed, 0, "pre-swap WAL records sit below the watermark");
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203u128);
        assert_eq!(rt.classify_rows(std::slice::from_ref(&h)), vec![Some(77)]);
    }

    #[test]
    fn checkpoint_plus_tail_spanning_a_compaction_restores_byte_identically() {
        let dir = temp_store("compaction");
        let durability = DurabilityConfig { checkpoint_every: 1000, ..DurabilityConfig::new(&dir) };
        let image_before;
        {
            let (rt, _) =
                Runtime::with_durability(switch(), &quick_config(1), &durability).unwrap();
            // The checkpoint lands mid-way to a compaction: the image it
            // stores holds garbage, and the counts that decide when to
            // compact are not in it.
            for i in 0..2u32 {
                rt.add_rule(flap(i)).unwrap();
                rt.remove_rule(5000 + i).expect("stored");
            }
            assert_eq!(rt.telemetry().control.compactions, 0);
            rt.checkpoint_now().expect("durable checkpoint");
            for i in 2..12u32 {
                rt.add_rule(flap(i)).unwrap();
                rt.remove_rule(5000 + i).expect("stored");
            }
            rt.add_rule(flap(99)).unwrap();
            assert!(rt.telemetry().control.compactions >= 1, "the tail crosses a compaction");
            image_before = rt.master_image().expect("durable master image");
            rt.shutdown();
        }
        // The restored table derives those counts from the image and has
        // to reach the same decision at the same record of the tail.
        let (rt, report) =
            Runtime::with_durability(switch(), &quick_config(1), &durability).unwrap();
        assert!(report.restored);
        assert_eq!((report.wal_replayed, report.wal_skipped), (21, 0));
        assert_eq!(rt.master_image().expect("image"), image_before);
    }
}
