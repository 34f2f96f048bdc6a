//! RCU-style snapshot cell: lock-free readers, single-writer swaps.
//!
//! The dataplane problem: N worker shards classify packets against a
//! lookup table that the control plane occasionally replaces. Readers
//! must **never block** — a rule insert on the control plane cannot
//! stall packet service — and the writer must publish a whole new table
//! image in O(1) (one pointer swap), never mutating the image readers
//! are walking. That is read-copy-update, and [`SnapshotCell`] is the
//! workspace's dependency-free implementation: an `ArcSwap` equivalent
//! built on one [`AtomicPtr`] plus **epoch-based reclamation**.
//!
//! ## Protocol
//!
//! * The cell owns one strong reference to the current
//!   [`Snapshot`] (an `Arc` leaked into the `AtomicPtr`), and a
//!   monotonically increasing **version** bumped on every publish.
//! * A registered reader ([`SnapshotReader::load`]) *announces* the
//!   version it observed in its own atomic slot, loads the pointer,
//!   takes its own strong reference ([`Arc::increment_strong_count`]),
//!   and returns to quiescent. No locks, no waiting, no unbounded
//!   loops: three atomic operations per load.
//! * The writer ([`SnapshotCell::publish`]) swaps the pointer, bumps
//!   the version, and moves the old pointer to a retire list. A retired
//!   pointer's reference is dropped only once every reader slot is
//!   quiescent or has announced a version at least as new as the
//!   retirement — the window in which a stalled reader could still be
//!   between "loaded the pointer" and "took its reference" is provably
//!   closed (see the safety argument on [`SnapshotCell::collect`]).
//!
//! Reclamation is *deferred, never blocking*: a stalled reader delays
//! the drop of an old table image (bounded by the number of unreclaimed
//! publishes), it never delays the writer's swap or other readers.
//!
//! ## Reclamation safety argument
//!
//! This is the argument every `unsafe` block in this module rides on.
//! It is machine-checked in the standalone `proofs/` workspace: the
//! **`snapshot_reclamation`** harness and the bounded model checker's
//! `publish_load_collect` / `reader_stall` scenarios exhaustively
//! replay every interleaving of the protocol below over modeled
//! atomics and assert no use-after-free, no double-free and no leak.
//!
//! All the protocol's atomics are `SeqCst`, so there is one total order
//! over: a reader's announce store (**A**), its pointer load (**L**),
//! the writer's swap (**W**), the version bump, and a collect scan's
//! slot reads (**S**). A pointer `p` retired at version `R` was swapped
//! out by some W before this scan. Suppose a reader's L returned `p`
//! and the reader has not yet taken its reference:
//!
//! * L must precede W (after W, `current` no longer holds `p` —
//!   retired pointers are never re-published);
//! * the reader's A precedes its L, so A precedes W precedes S: the
//!   scan **sees the announcement**, and the announced version was read
//!   before the bump to `R`, hence `< R`.
//!
//! The scan therefore keeps `p` whenever any slot announces a version
//! `< R`. Conversely, a slot that is quiescent either never held `p` or
//! has already taken its own strong reference (readers return to
//! quiescent only after `increment_strong_count`), so dropping the
//! cell's reference is a plain refcount decrement. A stale announcement
//! (reader observed an old version, then stalled before loading) only
//! *under*-estimates, which delays reclamation — never unsoundness.
//! Double-frees cannot occur because entries leave the retire list
//! exactly once, and each entry owns exactly one deferred reference.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering a poisoned guard: a panic on some other thread
/// (e.g. a worker dying mid-batch) must not cascade into the
/// publish/reclamation machinery. Every registry the cell guards is
/// kept consistent by the code holding the guard, not by intermediate
/// states a panic could expose, so recovery is always sound here.
fn recovered<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Announced-slot value meaning "not currently loading".
const QUIESCENT: u64 = u64::MAX;

/// One published table image: the value plus the version it was
/// published at (version 1 is the image the cell was created with).
///
/// Carrying the version *inside* the snapshot is load-bearing: a reader
/// learns "which generation am I serving" from the same atomic load
/// that hands it the table, so results can be attributed to an exact
/// rule-set generation with no torn (pointer, version) pair.
#[derive(Debug)]
pub struct Snapshot<T> {
    /// Publish sequence number of this image.
    pub version: u64,
    /// The published value.
    pub value: T,
}

/// A retired pointer awaiting reclamation: it stopped being current
/// when `version` was published.
struct Retired<T> {
    ptr: *const Snapshot<T>,
    version: u64,
}

// SAFETY: a `Retired` is just a deferred `Arc` reference owned by the
// cell; it is only dereferenced (dropped) under the cell's writer lock,
// and `T: Send + Sync` makes the underlying `Arc<Snapshot<T>>`
// transferable.
unsafe impl<T: Send + Sync> Send for Retired<T> {}

/// The RCU cell. See the [module docs](self) for the protocol.
pub struct SnapshotCell<T> {
    /// `Arc::into_raw` of the current snapshot. Never null.
    current: AtomicPtr<Snapshot<T>>,
    /// Mirror of `current`'s version for cheap "did anything change"
    /// polls (the worker's per-batch staleness check).
    version: AtomicU64,
    /// Registered reader slots: the version a reader announced before
    /// touching `current`, or [`QUIESCENT`].
    readers: Mutex<Vec<Arc<AtomicU64>>>,
    /// Swapped-out pointers whose references have not been dropped yet.
    retired: Mutex<Vec<Retired<T>>>,
    /// Single-writer guard: publishes are serialised, and `latest` rides
    /// on it to read without a reader slot.
    writer: Mutex<()>,
}

// SAFETY: the raw pointer in `current` is an owned `Arc` reference;
// all shared mutation goes through atomics and mutexes.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
// SAFETY: as above — concurrent access is mediated entirely by the
// `SeqCst` atomics and the mutex-guarded registries.
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T: Send + Sync> SnapshotCell<T> {
    /// Creates a cell holding `value` as version 1.
    #[must_use]
    pub fn new(value: T) -> Self {
        let first = Arc::new(Snapshot { version: 1, value });
        Self {
            current: AtomicPtr::new(Arc::into_raw(first).cast_mut()),
            version: AtomicU64::new(1),
            readers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            writer: Mutex::new(()),
        }
    }

    /// The current publish version (monotone; starts at 1).
    #[inline]
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version.load(SeqCst)
    }

    /// Publishes `value` as the new current snapshot and returns its
    /// version. O(1) for readers: one pointer swap; the old image is
    /// retired and reclaimed once no reader can still be acquiring it.
    /// Callers may race — publishes serialise on the writer lock — but
    /// the intended topology is a single control-plane writer. A writer
    /// lock poisoned by a dead publisher is recovered, not propagated.
    pub fn publish(&self, value: T) -> u64 {
        let guard = recovered(&self.writer);
        let version = self.version.load(SeqCst) + 1;
        let next = Arc::new(Snapshot { version, value });
        let old = self.current.swap(Arc::into_raw(next).cast_mut(), SeqCst);
        self.version.store(version, SeqCst);
        recovered(&self.retired).push(Retired { ptr: old, version });
        self.collect();
        drop(guard);
        version
    }

    /// The current snapshot, via the writer lock (control-plane /
    /// telemetry path — a registered [`SnapshotReader`] is the lock-free
    /// way). Holding the writer lock excludes any concurrent retire or
    /// collect, so the loaded pointer cannot be reclaimed mid-acquire.
    #[must_use]
    pub fn latest(&self) -> Arc<Snapshot<T>> {
        let _guard = recovered(&self.writer);
        let ptr = self.current.load(SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` and the cell still owns
        // a strong reference to it; reclamation only happens in
        // `collect`, which runs under the writer lock we hold.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Registers a lock-free reader. Each worker shard registers once
    /// and calls [`SnapshotReader::load`] whenever
    /// [`SnapshotCell::version`] says its replica is stale.
    #[must_use]
    pub fn register(self: &Arc<Self>, name: &str) -> SnapshotReader<T> {
        let _ = name;
        let slot = Arc::new(AtomicU64::new(QUIESCENT));
        recovered(&self.readers).push(Arc::clone(&slot));
        SnapshotReader { cell: Arc::clone(self), slot }
    }

    /// Drops every retired reference that no reader can still be
    /// acquiring. Runs under the writer lock (from `publish` and
    /// `reclaim`).
    ///
    /// Why this is sound is the module-level
    /// [Reclamation safety argument](self#reclamation-safety-argument):
    /// the scan keeps a pointer retired at version `R` whenever any
    /// reader slot announces a version `< R`, and that announcement is
    /// guaranteed visible to the scan for any reader still inside its
    /// load window. The `proofs/` workspace checks the argument
    /// mechanically (`snapshot_reclamation` harness, the
    /// `publish_load_collect` and `reader_stall` model-checker
    /// scenarios).
    fn collect(&self) {
        let mut readers = recovered(&self.readers);
        // Prune slots whose reader handle is gone (worker exited): only
        // the registry holds them, and an exited reader is quiescent.
        readers.retain(|slot| Arc::strong_count(slot) > 1);
        let min_active = readers.iter().map(|s| s.load(SeqCst)).filter(|&v| v != QUIESCENT).min();
        drop(readers);
        let mut retired = recovered(&self.retired);
        retired.retain(|r| {
            let reclaimable = match min_active {
                None => true,
                Some(min) => r.version <= min,
            };
            if reclaimable {
                // SAFETY: the pointer came from `Arc::into_raw` when it
                // was published, the cell's reference has not been
                // dropped before (entries leave the retire list exactly
                // once), and per the module-level reclamation safety
                // argument no reader is still acquiring it.
                drop(unsafe { Arc::from_raw(r.ptr) });
            }
            !reclaimable
        });
    }

    /// Runs a reclamation pass now, without publishing: drops every
    /// retired reference no reader can still be acquiring. A control
    /// plane that wants to *reuse* what a retired snapshot holds (the
    /// runtime's spare table image) calls this first, so that the only
    /// references left are the ones readers really hold.
    pub fn reclaim(&self) {
        let _guard = recovered(&self.writer);
        self.collect();
    }

    /// Retired-but-unreclaimed snapshots (observability / tests).
    #[must_use]
    pub fn retired_len(&self) -> usize {
        recovered(&self.retired).len()
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // No readers can exist: every `SnapshotReader` holds an
        // `Arc<SnapshotCell>`, so the cell dropping implies they are
        // gone. Reclaim the current pointer and everything retired.
        let ptr = *self.current.get_mut();
        // SAFETY: `current` always holds an owned `Arc::into_raw`
        // reference, dropped exactly once here.
        drop(unsafe { Arc::from_raw(ptr) });
        for r in self.retired.get_mut().unwrap_or_else(PoisonError::into_inner).drain(..) {
            // SAFETY: as in `collect` — each retired entry owns one
            // reference, dropped exactly once.
            drop(unsafe { Arc::from_raw(r.ptr) });
        }
    }
}

/// A registered lock-free reader of one [`SnapshotCell`].
pub struct SnapshotReader<T> {
    cell: Arc<SnapshotCell<T>>,
    slot: Arc<AtomicU64>,
}

impl<T: Send + Sync> SnapshotReader<T> {
    /// Acquires the current snapshot: announce, load, take a reference,
    /// return to quiescent. Wait-free — three atomic operations and one
    /// refcount increment, regardless of what the writer is doing.
    #[must_use]
    pub fn load(&self) -> Arc<Snapshot<T>> {
        // Announce the freshest version we can observe. A concurrent
        // publish between this load and the announce makes the
        // announcement conservatively old, which only delays
        // reclamation (see `SnapshotCell::collect`).
        let seen = self.cell.version.load(SeqCst);
        self.slot.store(seen, SeqCst);
        let ptr = self.cell.current.load(SeqCst);
        // SAFETY: the announce above happened-before this load in the
        // SeqCst total order, so per the reclamation argument the writer
        // cannot drop the cell's reference to `ptr` until this reader
        // returns to quiescent — the pointee is alive while we take our
        // own strong reference.
        let snapshot = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        self.slot.store(QUIESCENT, SeqCst);
        snapshot
    }

    /// The cell this reader is registered with.
    #[must_use]
    pub fn cell(&self) -> &SnapshotCell<T> {
        &self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn load_sees_publishes_in_order() {
        let cell = Arc::new(SnapshotCell::new(10u64));
        let reader = cell.register("t");
        let s = reader.load();
        assert_eq!((s.version, s.value), (1, 10));
        assert_eq!(cell.publish(20), 2);
        assert_eq!(cell.version(), 2);
        let s = reader.load();
        assert_eq!((s.version, s.value), (2, 20));
        let s = cell.latest();
        assert_eq!((s.version, s.value), (2, 20));
    }

    #[test]
    fn old_snapshots_survive_while_held() {
        let cell = Arc::new(SnapshotCell::new(vec![1, 2, 3]));
        let reader = cell.register("t");
        let old = reader.load();
        for i in 0..10 {
            cell.publish(vec![i; 3]);
        }
        // The held snapshot is still fully readable.
        assert_eq!(old.value, vec![1, 2, 3]);
        assert_eq!(old.version, 1);
        assert_eq!(reader.load().version, 11);
    }

    #[test]
    fn reclamation_happens_once_readers_are_quiescent() {
        struct CountDrops(Arc<AtomicUsize>);
        impl Drop for CountDrops {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(SnapshotCell::new(CountDrops(Arc::clone(&drops))));
        let reader = cell.register("t");
        let _held = reader.load();
        for _ in 0..5 {
            cell.publish(CountDrops(Arc::clone(&drops)));
        }
        // All five swapped-out images are reclaimable (the reader is
        // quiescent; `_held` owns its own reference so version 1's
        // *value* lives on, but the cell's references are droppable).
        // The last publish's collect ran before the 5th retire was
        // pushed... so at most one entry may linger:
        assert!(cell.retired_len() <= 1, "retire backlog: {}", cell.retired_len());
        cell.publish(CountDrops(Arc::clone(&drops)));
        assert!(cell.retired_len() <= 1);
        // Versions 2..=5 are gone (only version 1 is pinned by _held and
        // the current version 7 plus at most one just-retired image).
        assert!(drops.load(SeqCst) >= 4, "dropped {}", drops.load(SeqCst));
    }

    #[test]
    fn concurrent_readers_and_writer_stay_consistent() {
        let cell = Arc::new(SnapshotCell::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let reader = cell.register("t");
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last = 0;
                    while !stop.load(SeqCst) {
                        let s = reader.load();
                        // Invariant of every published value: both halves
                        // equal (a torn image would break it), versions
                        // monotone per reader.
                        assert_eq!(s.value.0, s.value.1);
                        assert!(s.version >= last, "version went backwards");
                        last = s.version;
                    }
                });
            }
            for i in 1..=2000u64 {
                cell.publish((i, i));
            }
            stop.store(true, SeqCst);
        });
        assert_eq!(cell.version(), 2001);
        assert_eq!(cell.latest().value, (2000, 2000));
        // With every reader gone, one more publish clears the backlog.
        cell.publish((9, 9));
        assert!(cell.retired_len() <= 1);
    }

    #[test]
    fn dropped_readers_are_pruned() {
        let cell = Arc::new(SnapshotCell::new(1u8));
        let r1 = cell.register("a");
        let r2 = cell.register("b");
        drop(r1);
        cell.publish(2);
        drop(r2);
        cell.publish(3);
        assert!(cell.readers.lock().unwrap().is_empty(), "exited readers pruned");
    }
}
