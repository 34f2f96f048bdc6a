//! The lock-free per-lane event ring.
//!
//! Single ordering contract: a writer fully populates a slot's payload
//! words with relaxed stores, then publishes the slot by storing its
//! claim ticket (+1) into `seq` with release ordering. A reader
//! acquires `seq`, copies the payload, and re-acquires `seq`: if the
//! two loads differ, a wrapping writer raced the copy and the slot is
//! discarded rather than guessed at. Tickets strictly increase per
//! slot (each wrap adds the ring capacity), so a torn read can never
//! be mistaken for a clean one.

use std::sync::atomic::{
    AtomicU64,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::time::Instant;

/// Default events retained per lane (a power of two; ~64 KiB/lane).
pub const DEFAULT_EVENTS_PER_LANE: usize = 1024;

/// Upper bound on per-lane capacity (keeps `flight.log` regions and
/// trace dumps bounded even with a hostile config).
pub const EVENTS_PER_LANE_MAX: usize = 1 << 16;

/// What happened. The numeric values are part of the on-disk
/// `flight.log` format — append only, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// Runtime boot finished: a = restored snapshot version (0 when
    /// booting from the fallback table), b = WAL records replayed.
    Boot = 1,
    /// A batch part was submitted to a shard: a = packets, b = queue
    /// depth after enqueue.
    BatchSubmit = 2,
    /// A shard finished serving a batch part: a = packets, b = table
    /// version that served them.
    BatchServe = 3,
    /// A worker re-acquired the published snapshot: a = new version,
    /// b = previous version.
    SnapshotRefresh = 4,
    /// The control plane published a new table: a = version, b = how
    /// the published image came to be (0 = a whole new table, 1 = the
    /// spare image edited in place, 2 = a table image deep-copied first).
    Publish = 5,
    /// A worker's flow cache rolled to a new epoch: a = epoch.
    CacheEpochBump = 6,
    /// Admission shed a job: a = packets, b = queued jobs at the time.
    ShedJob = 7,
    /// A job expired its deadline: a = packets.
    DeadlineShed = 8,
    /// A ticket wait timed out: a = packets still missing.
    TicketTimeout = 9,
    /// A worker panicked: a = shard.
    WorkerPanic = 10,
    /// The supervisor respawned a worker: a = shard, b = that shard's
    /// restart count.
    WorkerRespawn = 11,
    /// The supervisor detected a stalled shard: a = shard, b = stall
    /// duration so far (ns).
    WorkerStall = 12,
    /// A WAL record became durable: a = sequence number, b = bytes.
    WalAppend = 13,
    /// The WAL rotated to a fresh segment: a = segments rotated so far.
    WalRotate = 14,
    /// A checkpoint attempt began: a = table version.
    CheckpointStart = 15,
    /// The checkpoint became durable: a = table version, b = WAL
    /// sequence watermark it covers.
    CheckpointSuccess = 16,
    /// The checkpoint failed (and the runtime degraded or stayed
    /// degraded): a = table version.
    CheckpointFailure = 17,
    /// Degraded WAL-only mode entered: a = consecutive failures.
    DegradedEnter = 18,
    /// A durable checkpoint ended the degraded episode.
    DegradedExit = 19,
    /// Retention GC ran: a = segments removed, b = snapshots removed.
    GcPass = 20,
    /// A whole-runtime restore began: a = run epoch being replaced.
    RestoreBegin = 21,
    /// The restore finished: a = new run epoch, b = restored version.
    RestoreEnd = 22,
    /// A control-plane span opened: a = span id, b = [`SpanOp`] code.
    SpanBegin = 23,
    /// The span closed: a = span id, b = resulting table version
    /// (0 when the operation failed).
    SpanEnd = 24,
    /// The recorder was flushed to the store: a = bytes written.
    FlightFlush = 25,
    /// The metrics sampler captured a snapshot: a = sample ordinal.
    SamplerTick = 26,
}

impl EventKind {
    /// Decodes the on-disk code; unknown codes are an error (the
    /// flight log is versioned, never guessed at).
    #[must_use]
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => Self::Boot,
            2 => Self::BatchSubmit,
            3 => Self::BatchServe,
            4 => Self::SnapshotRefresh,
            5 => Self::Publish,
            6 => Self::CacheEpochBump,
            7 => Self::ShedJob,
            8 => Self::DeadlineShed,
            9 => Self::TicketTimeout,
            10 => Self::WorkerPanic,
            11 => Self::WorkerRespawn,
            12 => Self::WorkerStall,
            13 => Self::WalAppend,
            14 => Self::WalRotate,
            15 => Self::CheckpointStart,
            16 => Self::CheckpointSuccess,
            17 => Self::CheckpointFailure,
            18 => Self::DegradedEnter,
            19 => Self::DegradedExit,
            20 => Self::GcPass,
            21 => Self::RestoreBegin,
            22 => Self::RestoreEnd,
            23 => Self::SpanBegin,
            24 => Self::SpanEnd,
            25 => Self::FlightFlush,
            26 => Self::SamplerTick,
            _ => return None,
        })
    }

    /// Stable lower-snake name (rendered into trace dumps).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Boot => "boot",
            Self::BatchSubmit => "batch_submit",
            Self::BatchServe => "batch_serve",
            Self::SnapshotRefresh => "snapshot_refresh",
            Self::Publish => "publish",
            Self::CacheEpochBump => "cache_epoch_bump",
            Self::ShedJob => "shed_job",
            Self::DeadlineShed => "deadline_shed",
            Self::TicketTimeout => "ticket_timeout",
            Self::WorkerPanic => "worker_panic",
            Self::WorkerRespawn => "worker_respawn",
            Self::WorkerStall => "worker_stall",
            Self::WalAppend => "wal_append",
            Self::WalRotate => "wal_rotate",
            Self::CheckpointStart => "checkpoint_start",
            Self::CheckpointSuccess => "checkpoint_success",
            Self::CheckpointFailure => "checkpoint_failure",
            Self::DegradedEnter => "degraded_enter",
            Self::DegradedExit => "degraded_exit",
            Self::GcPass => "gc_pass",
            Self::RestoreBegin => "restore_begin",
            Self::RestoreEnd => "restore_end",
            Self::SpanBegin => "span_begin",
            Self::SpanEnd => "span_end",
            Self::FlightFlush => "flight_flush",
            Self::SamplerTick => "sampler_tick",
        }
    }
}

/// The control-plane operation a span covers (the `b` payload of
/// [`EventKind::SpanBegin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum SpanOp {
    AddRule = 1,
    RemoveRule = 2,
    SwapTable = 3,
}

impl SpanOp {
    /// Stable name for trace rendering; unknown codes render as `op`.
    #[must_use]
    pub fn name_of(code: u64) -> &'static str {
        match code {
            1 => "add_rule",
            2 => "remove_rule",
            3 => "swap_table",
            _ => "op",
        }
    }
}

/// One drained event, decoded out of its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Lane that emitted it (shard id, or a service lane).
    pub lane: u16,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

/// One ring slot, padded to a cache line so lanes and neighbouring
/// slots never false-share. `seq` is the claim-ticket publication
/// word; the rest are payload.
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    code: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// One lane's fixed-capacity overwrite-oldest ring.
struct Lane {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().clamp(8, EVENTS_PER_LANE_MAX);
        let slots = (0..capacity).map(|_| Slot::default()).collect();
        Self { slots, head: AtomicU64::new(0) }
    }

    #[inline]
    fn emit(&self, ts_ns: u64, lane: u16, kind: EventKind, a: u64, b: u64) {
        let ticket = self.head.fetch_add(1, Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        slot.ts.store(ts_ns, Relaxed);
        slot.code.store((u64::from(kind as u16) << 16) | u64::from(lane), Relaxed);
        slot.a.store(a, Relaxed);
        slot.b.store(b, Relaxed);
        slot.seq.store(ticket + 1, Release);
    }

    /// Seq-validated drain of whatever is currently resident; torn
    /// slots (a writer wrapped mid-copy) are skipped, never guessed.
    fn drain_into(&self, out: &mut Vec<Event>) {
        for slot in self.slots.iter() {
            let before = slot.seq.load(Acquire);
            if before == 0 {
                continue; // never written
            }
            let ts_ns = slot.ts.load(Relaxed);
            let code = slot.code.load(Relaxed);
            let a = slot.a.load(Relaxed);
            let b = slot.b.load(Relaxed);
            if slot.seq.load(Acquire) != before {
                continue; // torn by a wrapping writer
            }
            #[allow(clippy::cast_possible_truncation)]
            let (kind_code, lane) = ((code >> 16) as u16, (code & 0xFFFF) as u16);
            if let Some(kind) = EventKind::from_code(kind_code) {
                out.push(Event { ts_ns, lane, kind, a, b });
            }
        }
    }
}

/// The per-shard flight recorder: `shards` worker lanes plus three
/// service lanes (control plane, durability, supervisor).
pub struct FlightRecorder {
    base: Instant,
    lanes: Vec<Lane>,
    shards: usize,
    next_span: AtomicU64,
    flushes: AtomicU64,
}

impl FlightRecorder {
    /// A recorder for `shards` worker lanes with `events_per_lane`
    /// slots each (rounded up to a power of two, clamped to
    /// [`EVENTS_PER_LANE_MAX`]).
    #[must_use]
    pub fn new(shards: usize, events_per_lane: usize) -> Self {
        let lane_count = shards + 3;
        Self {
            base: Instant::now(),
            lanes: (0..lane_count).map(|_| Lane::new(events_per_lane)).collect(),
            shards,
            next_span: AtomicU64::new(1),
            flushes: AtomicU64::new(0),
        }
    }

    /// Worker-shard lane index (identity; named for call-site clarity).
    #[must_use]
    pub fn shard_lane(&self, shard: usize) -> u16 {
        debug_assert!(shard < self.shards);
        lane_u16(shard)
    }

    /// The control-plane lane (publishes, spans).
    #[must_use]
    pub fn control_lane(&self) -> u16 {
        lane_u16(self.shards)
    }

    /// The durability lane (WAL, checkpoints, GC, degraded mode).
    #[must_use]
    pub fn durability_lane(&self) -> u16 {
        lane_u16(self.shards + 1)
    }

    /// The supervisor lane (panics, respawns, stalls, restores).
    #[must_use]
    pub fn supervisor_lane(&self) -> u16 {
        lane_u16(self.shards + 2)
    }

    /// Total lanes (shards + 3 service lanes).
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Worker lanes.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Slots per lane.
    #[must_use]
    pub fn events_per_lane(&self) -> usize {
        self.lanes.first().map_or(0, |l| l.slots.len())
    }

    /// Monotonic nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event on `lane`. This is the hot-path entry: one
    /// monotonic clock read, one relaxed `fetch_add`, five stores.
    #[inline]
    pub fn emit(&self, lane: u16, kind: EventKind, a: u64, b: u64) {
        let ts = self.now_ns();
        self.lanes[usize::from(lane)].emit(ts, lane, kind, a, b);
    }

    /// Opens a control-plane span; returns its process-unique id. The
    /// caller pairs it with [`FlightRecorder::span_end`].
    pub fn span_begin(&self, op: SpanOp) -> u64 {
        let id = self.next_span.fetch_add(1, Relaxed);
        self.emit(self.control_lane(), EventKind::SpanBegin, id, op as u64);
        id
    }

    /// Closes span `id`, recording the table version the operation
    /// produced (0 for a failed/no-op operation).
    pub fn span_end(&self, id: u64, version: u64) {
        self.emit(self.control_lane(), EventKind::SpanEnd, id, version);
    }

    /// Events ever recorded (including overwritten ones).
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.lanes.iter().map(|l| l.head.load(Relaxed)).sum()
    }

    /// Events lost to overwrite-oldest.
    #[must_use]
    pub fn events_overwritten(&self) -> u64 {
        self.lanes.iter().map(|l| l.head.load(Relaxed).saturating_sub(l.slots.len() as u64)).sum()
    }

    /// Counts a flush of this recorder to durable storage.
    pub fn count_flush(&self) -> u64 {
        self.flushes.fetch_add(1, AcqRel) + 1
    }

    /// Flushes performed so far.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Relaxed)
    }

    /// Drains every lane into one timeline, sorted by timestamp (ties
    /// broken by lane then kind, so the order is deterministic).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.lanes.len() * 64);
        for lane in &self.lanes {
            lane.drain_into(&mut out);
        }
        out.sort_by_key(|e| (e.ts_ns, e.lane, e.kind as u16));
        out
    }
}

fn lane_u16(index: usize) -> u16 {
    u16::try_from(index).expect("lane count fits u16")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_cache_line_sized() {
        assert_eq!(std::mem::size_of::<Slot>(), 64);
        assert_eq!(std::mem::align_of::<Slot>(), 64);
    }

    #[test]
    fn emit_then_snapshot_round_trips_payloads_in_time_order() {
        let r = FlightRecorder::new(2, 64);
        r.emit(r.shard_lane(0), EventKind::BatchServe, 128, 7);
        r.emit(r.shard_lane(1), EventKind::SnapshotRefresh, 8, 7);
        r.emit(r.control_lane(), EventKind::Publish, 8, 42);
        let events = r.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let serve = events.iter().find(|e| e.kind == EventKind::BatchServe).unwrap();
        assert_eq!((serve.lane, serve.a, serve.b), (0, 128, 7));
        assert_eq!(r.events_recorded(), 3);
        assert_eq!(r.events_overwritten(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_the_loss() {
        let r = FlightRecorder::new(1, 8);
        for i in 0..20 {
            r.emit(0, EventKind::BatchServe, i, 0);
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 8, "capacity bounds residency");
        let mut payloads: Vec<u64> = events.iter().map(|e| e.a).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (12..20).collect::<Vec<_>>(), "oldest were overwritten");
        assert_eq!(r.events_recorded(), 20);
        assert_eq!(r.events_overwritten(), 12);
    }

    #[test]
    fn spans_get_unique_ids_and_paired_events() {
        let r = FlightRecorder::new(1, 64);
        let a = r.span_begin(SpanOp::AddRule);
        let b = r.span_begin(SpanOp::RemoveRule);
        assert_ne!(a, b);
        r.span_end(a, 5);
        r.span_end(b, 0);
        let events = r.snapshot();
        let begins: Vec<_> = events.iter().filter(|e| e.kind == EventKind::SpanBegin).collect();
        let ends: Vec<_> = events.iter().filter(|e| e.kind == EventKind::SpanEnd).collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends.len(), 2);
        assert_eq!(begins[0].b, SpanOp::AddRule as u64);
        assert!(ends.iter().any(|e| e.a == a && e.b == 5));
    }

    #[test]
    fn concurrent_writers_never_produce_garbage_kinds() {
        let r = std::sync::Arc::new(FlightRecorder::new(4, 64));
        std::thread::scope(|scope| {
            for shard in 0..4u16 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        r.emit(shard, EventKind::BatchServe, i, u64::from(shard));
                    }
                });
            }
            // A racing reader: every drained event must decode to a
            // real kind with a self-consistent payload.
            for _ in 0..50 {
                for e in r.snapshot() {
                    assert_eq!(e.kind, EventKind::BatchServe);
                    assert_eq!(e.b, u64::from(e.lane));
                }
            }
        });
        assert_eq!(r.events_recorded(), 20_000);
    }

    #[test]
    fn kind_codes_round_trip_and_reject_unknowns() {
        for code in 1..=26u16 {
            let kind = EventKind::from_code(code).expect("known code");
            assert_eq!(kind as u16, code);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(27), None);
    }
}
