//! Single-producer/single-consumer batch ring.
//!
//! Each worker shard owns the consumer end of one bounded ring; the
//! dispatcher owns the producer end. One producer, one consumer —
//! enforced by ownership (the handles are `Send` but not `Clone`) — is
//! exactly the classic Lamport queue: the producer writes only `tail`,
//! the consumer writes only `head`, each side *reads* the other's index
//! with `Acquire` and publishes its own with `Release`, and the slots
//! in between need no synchronisation at all. No locks, no CAS loops,
//! no allocation after construction.
//!
//! ## Index protocol
//!
//! `head` and `tail` are **free-running** counters: they only ever
//! increase (wrapping at `usize::MAX`) and are reduced to a slot by
//! `index & mask`. The invariants the unsafe slot accesses ride on —
//! machine-checked in `proofs/` (the `ring_indices` harness walks every
//! 12-step push/pop sequence over small capacities and
//! `usize::MAX`-adjacent starting offsets; the model checker replays
//! producer/consumer interleavings across wraparound):
//!
//! * `tail.wrapping_sub(head)` is the exact number of occupied slots and
//!   never exceeds `capacity` (`mask + 1`, a power of two);
//! * the producer writes slot `tail & mask` only when that count is
//!   `< capacity`, so the physical slot is unoccupied — it can never
//!   alias a slot the consumer is still reading, even across index
//!   wraparound, because `capacity` divides `usize::MAX + 1`;
//! * the consumer reads slot `head & mask` only when the count is
//!   `> 0`, i.e. the slot was written and published by the producer's
//!   `Release` store.
//!
//! All index arithmetic is `wrapping_*`: with plain `+`/`-` the
//! free-running counters would panic (debug) or silently corrupt the
//! occupancy count (release overflow UB-adjacent semantics are fine for
//! `usize`, but the *debug* builds the reclamation-race CI leg runs
//! would abort) once a long-lived ring crosses `usize::MAX`.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads an index to its own cache line so the producer's and consumer's
/// counters do not false-share.
#[repr(align(64))]
struct PaddedIndex(AtomicUsize);

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Written only by the consumer.
    head: PaddedIndex,
    /// Next slot the producer will write. Written only by the producer.
    tail: PaddedIndex,
}

// SAFETY: the ring transfers `T` values between exactly two threads;
// slot access is serialised by the head/tail Acquire/Release protocol.
unsafe impl<T: Send> Sync for Shared<T> {}
// SAFETY: as above — ownership of the buffered `T`s moves with the
// handles, which requires `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Shared<T> {
    /// Occupied-slot count from a producer/consumer index pair.
    /// Wrapping subtraction keeps the count exact across index
    /// wraparound (free-running counters, see the module docs).
    #[inline]
    fn occupied(&self, head: usize, tail: usize) -> usize {
        let used = tail.wrapping_sub(head);
        debug_assert!(used <= self.mask + 1, "ring occupancy {used} exceeds capacity");
        used
    }
}

impl<T> Shared<T> {
    /// Drains the occupied slots of an exclusively owned ring in FIFO
    /// order and marks them consumed (so `Drop` has nothing left).
    /// Callable only with `&mut self`, i.e. after `Arc::try_unwrap`
    /// proved both handles collapsed into one owner.
    fn drain_owned(&mut self) -> Vec<T> {
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut out = Vec::with_capacity(self.occupied(head, tail));
        let mut i = head;
        while i != tail {
            // SAFETY: we own the ring exclusively (`&mut self` via
            // `Arc::try_unwrap`), and slots in [head, tail) hold values
            // the producer initialised and the consumer never read.
            out.push(unsafe { (*self.buf[i & self.mask].get()).assume_init_read() });
            i = i.wrapping_add(1);
        }
        // Every slot read above is now logically unoccupied.
        *self.head.0.get_mut() = tail;
        out
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both handles are gone; whatever sits between head and tail
        // was initialised by the producer and never consumed.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        debug_assert!((self.mask + 1).is_power_of_two(), "ring capacity must be a power of two");
        let mut drained = 0usize;
        let mut i = head;
        while i != tail {
            // SAFETY: slots in [head, tail) hold initialised values.
            unsafe { (*self.buf[i & self.mask].get()).assume_init_drop() };
            i = i.wrapping_add(1);
            drained += 1;
            debug_assert!(drained <= self.mask + 1, "drop drained more slots than the capacity");
        }
        debug_assert_eq!(
            drained,
            self.occupied(head, tail),
            "drop must drain exactly the occupied slots"
        );
    }
}

/// The producing end: [`Producer::push`] from one thread.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming end: [`Consumer::pop`] from one thread.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded SPSC ring of at least `capacity` slots (rounded up
/// to a power of two, minimum 2).
///
/// # Panics
/// Panics if `capacity` exceeds `usize::MAX / 4` (a unit error).
#[must_use]
pub fn spsc<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    spsc_at(capacity, 0)
}

/// As [`spsc`], but with both free-running indices starting at `start`
/// instead of 0 — the wraparound regression tests start rings just
/// below `usize::MAX` so the index arithmetic crosses the wrap within a
/// few operations. The physical slot is always `index & mask`, so a
/// nonzero start only shifts which slot is "first".
fn spsc_at<T: Send>(capacity: usize, start: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity <= usize::MAX / 4, "ring capacity {capacity} is implausible");
    let cap = capacity.next_power_of_two().max(2);
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        head: PaddedIndex(AtomicUsize::new(start)),
        tail: PaddedIndex(AtomicUsize::new(start)),
    });
    (Producer { shared: Arc::clone(&shared) }, Consumer { shared })
}

impl<T: Send> Producer<T> {
    /// Enqueues `item`, or returns it if the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        let s = &*self.shared;
        let tail = s.tail.0.load(Ordering::Relaxed); // we are the only writer
        let head = s.head.0.load(Ordering::Acquire);
        if s.occupied(head, tail) > s.mask {
            return Err(item);
        }
        // SAFETY: occupancy < capacity, so slot `tail & mask` is not one
        // of the occupied slots in [head, tail) — unoccupied — and only
        // this producer writes slots; the Release store below publishes
        // the initialised value to the consumer.
        unsafe { (*s.buf[tail & s.mask].get()).write(item) };
        s.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Slots currently enqueued (racy, advisory).
    #[must_use]
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.occupied(s.head.0.load(Ordering::Acquire), s.tail.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (racy, advisory).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the consumer end still exists.
    #[must_use]
    pub fn consumer_alive(&self) -> bool {
        Arc::strong_count(&self.shared) > 1
    }

    /// Reclaims every unconsumed item from a ring whose consumer is
    /// gone (the worker thread died and dropped its [`Consumer`]),
    /// in FIFO order. This is the supervisor's re-routing primitive: a
    /// respawned shard gets the dead shard's backlog re-submitted so no
    /// in-flight batch is lost with the thread.
    ///
    /// Returns `Err(self)` when the consumer is still alive — exclusive
    /// ownership of the shared state is the whole safety argument, so
    /// recovery is refused while the other end could still pop.
    pub fn recover(self) -> Result<Vec<T>, Self> {
        match Arc::try_unwrap(self.shared) {
            Ok(mut shared) => Ok(shared.drain_owned()),
            Err(shared) => Err(Self { shared }),
        }
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &*self.shared;
        let occupied =
            s.occupied(s.head.0.load(Ordering::Acquire), s.tail.0.load(Ordering::Relaxed));
        f.debug_struct("Producer")
            .field("len", &occupied)
            .field("capacity", &(s.mask + 1))
            .field("consumer_alive", &(Arc::strong_count(&self.shared) > 1))
            .finish()
    }
}

impl<T: Send> Consumer<T> {
    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed); // we are the only writer
        let tail = s.tail.0.load(Ordering::Acquire);
        if s.occupied(head, tail) == 0 {
            return None;
        }
        // SAFETY: occupancy > 0, so slot `head & mask` is inside
        // [head, tail): initialised by the producer and published by its
        // Release store; after this read the Release store below marks
        // it unoccupied.
        let item = unsafe { (*s.buf[head & s.mask].get()).assume_init_read() };
        s.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Whether the ring is empty (racy, advisory).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let s = &*self.shared;
        s.occupied(s.head.0.load(Ordering::Relaxed), s.tail.0.load(Ordering::Acquire)) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert!(rx.is_empty());
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "ring of 4 holds 4");
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        // Wrap-around keeps working.
        for round in 0..10u32 {
            tx.push(round).unwrap();
            assert_eq!(rx.pop(), Some(round));
        }
    }

    #[test]
    fn capacity_rounds_up() {
        let (mut tx, _rx) = spsc::<u8>(3);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert!(tx.push(9).is_err());
        let (tx0, _rx0) = spsc::<u8>(0);
        assert!(tx0.is_empty());
    }

    #[test]
    fn unconsumed_items_are_dropped() {
        let counter = Arc::new(AtomicUsize::new(0));
        #[derive(Debug)]
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = spsc::<D>(8);
        for _ in 0..5 {
            tx.push(D(Arc::clone(&counter))).unwrap();
        }
        drop(rx.pop()); // one consumed
        drop(tx);
        drop(rx);
        assert_eq!(counter.load(Ordering::SeqCst), 5, "4 in-flight + 1 consumed");
    }

    /// Regression for the free-running index protocol: a ring whose
    /// indices start just below `usize::MAX` crosses the numeric wrap
    /// within a handful of operations. With the pre-hardening plain
    /// `tail - head` arithmetic this test aborts in debug builds
    /// (subtraction overflow once `tail` wraps to 0 while `head` is
    /// still near `usize::MAX`).
    #[test]
    fn index_wraparound_near_usize_max() {
        for start in [usize::MAX - 7, usize::MAX - 4, usize::MAX - 2, usize::MAX - 1, usize::MAX, 0]
        {
            let (mut tx, mut rx) = spsc_at::<u64>(4, start);
            // Fill, drain, and interleave across the wrap boundary.
            for i in 0..4u64 {
                tx.push(i).unwrap();
            }
            assert_eq!(tx.len(), 4, "start {start:#x}");
            assert!(tx.push(99).is_err(), "start {start:#x}: full ring rejects");
            for i in 0..4u64 {
                assert_eq!(rx.pop(), Some(i), "start {start:#x}");
            }
            assert_eq!(rx.pop(), None, "start {start:#x}");
            for round in 0..16u64 {
                tx.push(round).unwrap();
                tx.push(round + 100).unwrap();
                assert_eq!(rx.pop(), Some(round), "start {start:#x}");
                assert_eq!(rx.pop(), Some(round + 100), "start {start:#x}");
            }
        }
    }

    /// Unconsumed items straddling the numeric wrap are still dropped
    /// exactly once (the Drop accounting walks `head..tail` with
    /// wrapping increments).
    #[test]
    fn drop_accounting_across_wraparound() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = spsc_at::<D>(4, usize::MAX - 1);
        for _ in 0..3 {
            assert!(tx.push(D(Arc::clone(&counter))).is_ok());
        }
        drop(rx.pop()); // head crosses to usize::MAX; 2 left spanning the wrap
        drop(tx);
        drop(rx);
        assert_eq!(counter.load(Ordering::SeqCst), 3, "2 in-flight across the wrap + 1 consumed");
    }

    #[test]
    fn cross_thread_stream_is_lossless() {
        let (mut tx, mut rx) = spsc::<u64>(64);
        const N: u64 = 200_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..N {
                    let mut item = i;
                    loop {
                        match tx.push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            });
            let mut expected = 0;
            while expected < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expected);
                    expected += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(rx.pop(), None);
        });
    }

    /// As the lossless-stream test, but with the indices starting at the
    /// numeric wrap so the cross-thread protocol (not just the
    /// single-thread arithmetic) is exercised across it.
    #[test]
    fn cross_thread_stream_across_wraparound() {
        let (mut tx, mut rx) = spsc_at::<u64>(8, usize::MAX - 3);
        const N: u64 = 10_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..N {
                    let mut item = i;
                    loop {
                        match tx.push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            });
            let mut expected = 0;
            while expected < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expected);
                    expected += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(rx.pop(), None);
        });
    }

    #[test]
    fn consumer_liveness_is_observable() {
        let (tx, rx) = spsc::<u8>(2);
        assert!(tx.consumer_alive());
        drop(rx);
        assert!(!tx.consumer_alive());
    }

    /// A consumer dropped *mid-stream* (items pushed, some popped, some
    /// still queued) is observable from the producer, and the producer
    /// can keep pushing into the orphaned ring without error until it
    /// fills — exactly the window the supervisor operates in.
    #[test]
    fn consumer_dropped_mid_stream() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        drop(rx);
        assert!(!tx.consumer_alive());
        // The orphaned ring still accepts pushes up to capacity.
        tx.push(3).unwrap();
        tx.push(4).unwrap();
        tx.push(5).unwrap();
        assert_eq!(tx.push(6), Err(6), "orphaned ring still bounds occupancy");
        assert_eq!(tx.recover().expect("consumer is gone"), vec![2, 3, 4, 5]);
    }

    #[test]
    fn recover_refuses_while_consumer_alive() {
        let (mut tx, mut rx) = spsc::<u8>(2);
        tx.push(7).unwrap();
        tx = match tx.recover() {
            Err(tx) => tx,
            Ok(_) => panic!("recover must refuse while the consumer lives"),
        };
        assert_eq!(rx.pop(), Some(7), "refused recovery leaves the ring intact");
        drop(rx);
        assert_eq!(tx.recover().expect("now exclusive"), Vec::<u8>::new());
    }

    /// Recovery drains in FIFO order with correct drop accounting even
    /// when the occupied span straddles the numeric index wrap.
    #[test]
    fn recover_across_wraparound() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct D(u32, Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = spsc_at::<D>(4, usize::MAX - 1);
        for i in 0..3 {
            assert!(tx.push(D(i, Arc::clone(&counter))).is_ok());
        }
        drop(rx.pop()); // head crosses the wrap; 2 items straddle it
        drop(rx);
        let Ok(recovered) = tx.recover() else { panic!("consumer is gone") };
        assert_eq!(recovered.iter().map(|d| d.0).collect::<Vec<_>>(), vec![1, 2]);
        drop(recovered);
        assert_eq!(counter.load(Ordering::SeqCst), 3, "each item dropped exactly once");
    }
}
