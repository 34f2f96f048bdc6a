//! Model of the SPSC ring's free-running index protocol
//! (`mtl-runtime/src/ring.rs`).
//!
//! The production ring reduces free-running `head`/`tail` counters to
//! physical slots with `index & mask` and claims (module docs, "Index
//! protocol"): `tail.wrapping_sub(head)` is the exact occupancy and
//! never exceeds the power-of-two capacity, the producer only ever
//! writes an unoccupied slot, and the consumer only ever reads an
//! occupied one — **across numeric wraparound at `usize::MAX`**.
//!
//! Two models check that claim:
//!
//! * [`RingModel`] — the index *arithmetic* alone, sequentially, for
//!   any capacity and starting offset ([`harnesses::ring_indices`]
//!   enumerates push/pop sequences over small capacities and
//!   wrap-adjacent offsets exhaustively). Each slot carries an occupancy bit
//!   and a FIFO stamp, so aliasing and reordering are direct checks.
//! * [`SpscScenario`] — the concurrent two-thread protocol at
//!   atomic-step granularity for the [`mck`](crate::mck) checker: load
//!   the opposite index, touch the slot, publish your own index, with
//!   every interleaving explored across a wraparound starting offset.
//!
//! The seeded bug (`plain_arithmetic`) computes occupancy with
//! non-wrapping subtraction — exactly the pre-hardening arithmetic the
//! production ring replaced — and manifests the moment `tail` wraps
//! while `head` has not.
//!
//! [`harnesses::ring_indices`]: crate::harnesses

use crate::mck::Scenario;

/// Largest capacity the sequential model supports (any power of two up
/// to this).
pub const MAX_CAP: usize = 8;

/// Sequential model of the index arithmetic: free-running counters,
/// masked slots, occupancy bits, FIFO stamps.
#[derive(Clone)]
pub struct RingModel {
    mask: usize,
    head: usize,
    tail: usize,
    occupied: [bool; MAX_CAP],
    stamp: [u64; MAX_CAP],
    next_push: u64,
    next_pop: u64,
    /// Seeded bug: compute occupancy with plain (non-wrapping)
    /// subtraction, as the pre-hardening production code did.
    plain_arithmetic: bool,
}

impl RingModel {
    /// A ring of `capacity` slots (a power of two `<=` [`MAX_CAP`])
    /// whose free-running indices start at `start`.
    #[must_use]
    pub fn new(capacity: usize, start: usize, plain_arithmetic: bool) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity <= MAX_CAP,
            "capacity {capacity} must be a power of two <= {MAX_CAP}"
        );
        Self {
            mask: capacity - 1,
            head: start,
            tail: start,
            occupied: [false; MAX_CAP],
            stamp: [0; MAX_CAP],
            next_push: 0,
            next_pop: 0,
            plain_arithmetic,
        }
    }

    fn occupancy(&self, head: usize, tail: usize) -> Result<usize, String> {
        let occ = if self.plain_arithmetic {
            tail.checked_sub(head).ok_or_else(|| {
                format!("index arithmetic underflow: tail {tail:#x} - head {head:#x}")
            })?
        } else {
            tail.wrapping_sub(head)
        };
        if occ > self.mask + 1 {
            return Err(format!("occupancy {occ} exceeds capacity {}", self.mask + 1));
        }
        Ok(occ)
    }

    /// One push attempt. `Ok(false)` means the ring was full; `Err` is
    /// a violated index invariant (aliased slot, occupancy overflow,
    /// underflowing arithmetic).
    pub fn push(&mut self) -> Result<bool, String> {
        if self.occupancy(self.head, self.tail)? > self.mask {
            return Ok(false);
        }
        let slot = self.tail & self.mask;
        if self.occupied[slot] {
            return Err(format!(
                "push aliases occupied slot {slot} (head {:#x}, tail {:#x})",
                self.head, self.tail
            ));
        }
        self.occupied[slot] = true;
        self.stamp[slot] = self.next_push;
        self.next_push += 1;
        self.tail = self.tail.wrapping_add(1);
        Ok(true)
    }

    /// One pop attempt. `Ok(false)` means the ring was empty; `Err` is
    /// a violated invariant (unoccupied slot, out-of-order stamp).
    pub fn pop(&mut self) -> Result<bool, String> {
        if self.occupancy(self.head, self.tail)? == 0 {
            return Ok(false);
        }
        let slot = self.head & self.mask;
        if !self.occupied[slot] {
            return Err(format!(
                "pop reads unoccupied slot {slot} (head {:#x}, tail {:#x})",
                self.head, self.tail
            ));
        }
        if self.stamp[slot] != self.next_pop {
            return Err(format!(
                "FIFO order broken: slot {slot} holds stamp {} but {} was expected",
                self.stamp[slot], self.next_pop
            ));
        }
        self.next_pop += 1;
        self.occupied[slot] = false;
        self.head = self.head.wrapping_add(1);
        Ok(true)
    }

    /// Items currently buffered.
    ///
    /// # Errors
    /// Propagates the seeded arithmetic bug's underflow.
    pub fn len(&self) -> Result<usize, String> {
        self.occupancy(self.head, self.tail)
    }

    /// Whether the ring holds nothing.
    ///
    /// # Errors
    /// Propagates the seeded arithmetic bug's underflow.
    pub fn is_empty(&self) -> Result<bool, String> {
        Ok(self.len()? == 0)
    }

    /// Producer-side drain after the consumer is gone — the model of
    /// `Producer::recover` in the production ring (the supervisor's
    /// backlog-rescue path): every buffered item comes out, in FIFO
    /// order, and the ring is empty afterwards. Exercises the same
    /// occupancy/stamp invariants as `pop`, from whatever
    /// (possibly wrapped) index state the run left behind.
    ///
    /// # Errors
    /// A violated index invariant, a drain count that disagrees with
    /// the occupancy arithmetic, or a non-empty ring after the drain.
    pub fn recover(&mut self) -> Result<usize, String> {
        let expect = self.len()?;
        let mut drained = 0usize;
        while self.pop()? {
            drained += 1;
        }
        if drained != expect {
            return Err(format!("recover drained {drained} items but occupancy said {expect}"));
        }
        if !self.is_empty()? {
            return Err("ring not empty after recover".into());
        }
        Ok(drained)
    }
}

/// Slots in the concurrent scenario's ring (the smallest power of two,
/// so full/empty boundaries and slot reuse are exercised hardest).
const SCEN_CAP: usize = 2;

/// Producer/consumer over a capacity-2 ring at atomic-step granularity.
pub struct SpscScenario {
    /// Starting value of both free-running indices (wraparound runs
    /// start near `usize::MAX`).
    pub start: usize,
    /// Items the producer pushes and the consumer pops.
    pub items: u64,
    /// Seeded bug: occupancy via plain subtraction (see [`RingModel`]).
    pub plain_arithmetic: bool,
}

/// Shared state plus both threads' program counters and loaded-index
/// locals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpscState {
    head: usize,
    tail: usize,
    slot_occupied: [bool; SCEN_CAP],
    slot_stamp: [u64; SCEN_CAP],
    /// Producer local: `head` as loaded by the current push.
    loaded_head: usize,
    /// Consumer local: `tail` as loaded by the current pop.
    loaded_tail: usize,
    pushed: u64,
    popped: u64,
    /// Producer pc: 0 = load head, 1 = write slot, 2 = publish tail.
    ppc: u8,
    /// Consumer pc: 0 = load tail, 1 = read slot, 2 = publish head.
    cpc: u8,
}

impl SpscScenario {
    fn occupancy(&self, head: usize, tail: usize) -> Result<usize, String> {
        if self.plain_arithmetic {
            tail.checked_sub(head).ok_or_else(|| {
                format!("index arithmetic underflow: tail {tail:#x} - head {head:#x}")
            })
        } else {
            Ok(tail.wrapping_sub(head))
        }
    }
}

impl Scenario for SpscScenario {
    type State = SpscState;

    fn init(&self) -> SpscState {
        SpscState {
            head: self.start,
            tail: self.start,
            slot_occupied: [false; SCEN_CAP],
            slot_stamp: [0; SCEN_CAP],
            loaded_head: 0,
            loaded_tail: 0,
            pushed: 0,
            popped: 0,
            ppc: 0,
            cpc: 0,
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn done(&self, s: &SpscState, tid: usize) -> bool {
        if tid == 0 {
            s.pushed == self.items && s.ppc == 0
        } else {
            s.popped == self.items && s.cpc == 0
        }
    }

    fn enabled(&self, s: &SpscState, tid: usize) -> bool {
        if self.done(s, tid) {
            return false;
        }
        // Mid-operation steps always proceed. The initial load is
        // gated on the operation being able to succeed *now*: a
        // full-ring push retry / empty-ring pop retry would re-load
        // and learn nothing (the producer's stale head can only
        // over-estimate occupancy, the consumer's stale tail can only
        // under-estimate it — both conservative), so the checker skips
        // the spin and re-enables the thread when the other side moves
        // its index.
        let occ = s.tail.wrapping_sub(s.head);
        if tid == 0 {
            s.ppc != 0 || occ < SCEN_CAP
        } else {
            s.cpc != 0 || occ > 0
        }
    }

    fn step(&self, s: &mut SpscState, tid: usize) -> Result<(), String> {
        if tid == 0 {
            match s.ppc {
                // head.load(Acquire)
                0 => {
                    s.loaded_head = s.head;
                    s.ppc = 1;
                }
                // The unsafe slot write: must not alias an occupied
                // slot. The full-check uses the *loaded* head, exactly
                // as production `push` does; `tail` is producer-owned
                // so it cannot have moved since the load.
                1 => {
                    if self.occupancy(s.loaded_head, s.tail)? > SCEN_CAP - 1 {
                        return Err(format!(
                            "push proceeded on a full ring (loaded head {:#x}, tail {:#x})",
                            s.loaded_head, s.tail
                        ));
                    }
                    let slot = s.tail & (SCEN_CAP - 1);
                    if s.slot_occupied[slot] {
                        return Err(format!(
                            "push aliases occupied slot {slot} (head {:#x}, tail {:#x})",
                            s.head, s.tail
                        ));
                    }
                    s.slot_occupied[slot] = true;
                    s.slot_stamp[slot] = s.pushed;
                    s.ppc = 2;
                }
                // tail.store(tail + 1, Release)
                2 => {
                    s.tail = s.tail.wrapping_add(1);
                    s.pushed += 1;
                    s.ppc = 0;
                }
                pc => unreachable!("producer pc {pc}"),
            }
        } else {
            match s.cpc {
                // tail.load(Acquire)
                0 => {
                    s.loaded_tail = s.tail;
                    s.cpc = 1;
                }
                // The unsafe slot read: must be an occupied slot, in
                // FIFO order. The empty-check uses the *loaded* tail;
                // `head` is consumer-owned.
                1 => {
                    if self.occupancy(s.head, s.loaded_tail)? == 0 {
                        return Err(format!(
                            "pop proceeded on an empty ring (head {:#x}, loaded tail {:#x})",
                            s.head, s.loaded_tail
                        ));
                    }
                    let slot = s.head & (SCEN_CAP - 1);
                    if !s.slot_occupied[slot] {
                        return Err(format!(
                            "pop reads unoccupied slot {slot} (head {:#x}, tail {:#x})",
                            s.head, s.tail
                        ));
                    }
                    if s.slot_stamp[slot] != s.popped {
                        return Err(format!(
                            "FIFO order broken: slot {slot} holds stamp {} but {} was expected",
                            s.slot_stamp[slot], s.popped
                        ));
                    }
                    s.slot_occupied[slot] = false;
                    s.cpc = 2;
                }
                // head.store(head + 1, Release)
                2 => {
                    s.head = s.head.wrapping_add(1);
                    s.popped += 1;
                    s.cpc = 0;
                }
                pc => unreachable!("consumer pc {pc}"),
            }
        }
        Ok(())
    }

    fn check_final(&self, s: &SpscState) -> Result<(), String> {
        let end = self.start.wrapping_add(self.items as usize);
        if s.head != end || s.tail != end {
            return Err(format!(
                "indices did not converge: head {:#x}, tail {:#x}, expected {end:#x}",
                s.head, s.tail
            ));
        }
        if s.slot_occupied.iter().any(|&o| o) {
            return Err("slot left occupied after a drained run".into());
        }
        if s.pushed != self.items || s.popped != self.items {
            return Err(format!("item accounting: pushed {} popped {}", s.pushed, s.popped));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mck::{Checker, Outcome};

    #[test]
    fn sequential_model_matches_real_ring_semantics() {
        let mut m = RingModel::new(4, usize::MAX - 2, false);
        for _ in 0..4 {
            assert_eq!(m.push(), Ok(true));
        }
        assert_eq!(m.push(), Ok(false), "full ring rejects");
        assert_eq!(m.len(), Ok(4));
        for _ in 0..4 {
            assert_eq!(m.pop(), Ok(true));
        }
        assert_eq!(m.pop(), Ok(false), "empty ring rejects");
        assert_eq!(m.is_empty(), Ok(true));
    }

    #[test]
    fn recover_drains_exactly_whats_buffered_across_the_wrap() {
        for start in [0usize, usize::MAX - 1, usize::MAX] {
            let mut m = RingModel::new(4, start, false);
            for _ in 0..3 {
                assert_eq!(m.push(), Ok(true));
            }
            assert_eq!(m.pop(), Ok(true));
            assert_eq!(m.recover(), Ok(2), "start {start:#x}");
            assert_eq!(m.is_empty(), Ok(true));
            assert_eq!(m.recover(), Ok(0), "empty recover is a no-op");
        }
    }

    #[test]
    fn plain_subtraction_breaks_at_the_wrap() {
        let mut m = RingModel::new(2, usize::MAX, true);
        assert_eq!(m.push(), Ok(true)); // tail wraps to 0, head still MAX
        let err = m.push().unwrap_err();
        assert!(err.contains("underflow"), "{err}");
    }

    #[test]
    fn concurrent_protocol_holds_across_wraparound() {
        for start in [usize::MAX - 2, usize::MAX - 1, usize::MAX, 0] {
            let sc = SpscScenario { start, items: 4, plain_arithmetic: false };
            let out = Checker::default().explore(&sc);
            assert!(out.passed(), "start {start:#x}: {out:?}");
        }
    }

    #[test]
    fn concurrent_plain_subtraction_is_found() {
        let sc = SpscScenario { start: usize::MAX, items: 2, plain_arithmetic: true };
        let out = Checker::default().explore(&sc);
        let Outcome::Violation { message, .. } = &out else {
            panic!("seeded arithmetic bug not found: {out:?}");
        };
        assert!(message.contains("underflow"), "{message}");
    }
}
