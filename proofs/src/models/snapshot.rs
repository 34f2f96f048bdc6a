//! Model of the `SnapshotCell` RCU retire/collect protocol
//! (`mtl-runtime/src/snapshot.rs`).
//!
//! The production code's module-level *reclamation safety argument*
//! claims: for any interleaving of a reader's announce (**A**) / load
//! (**L**) / take-reference, the writer's swap (**W**) / version bump /
//! retire, and a collect scan (**S**), the cell never drops a snapshot
//! a reader is still acquiring (no use-after-free), and every retired
//! entry is dropped exactly once (no double-free) with nothing leaked.
//! This model re-states the protocol at exactly that step granularity
//! over a modeled heap of refcounted allocations, so the checker can
//! walk **every** A/L/W/S interleaving.
//!
//! The modeled heap turns the unsafe operations into checkable ones:
//! `Arc::increment_strong_count` on a freed allocation is the
//! use-after-free, a second drop of the same reference is the
//! double-free, and a never-freed allocation at the end of a run is the
//! leak. [`Bug`] seeds the two protocol mistakes the argument rules
//! out — a collect that ignores announcements, and a reclaim that
//! leaves the entry on the retire list — and `tests/scenarios.rs`
//! requires the checker to catch both.

use crate::mck::Scenario;

/// Announced-slot value meaning "not currently loading" — same
/// sentinel as the production `QUIESCENT`.
pub const QUIESCENT: u64 = u64::MAX;

/// Most readers any scenario models.
pub const MAX_READERS: usize = 2;
/// Most publishes any scenario models.
pub const MAX_PUBLISHES: usize = 3;
/// Allocation slots: the initial snapshot plus one per publish.
const MAX_ALLOCS: usize = 1 + MAX_PUBLISHES;

/// A protocol bug to seed (negative scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// The protocol as written.
    None,
    /// Collect ignores reader announcements and reclaims every retired
    /// entry immediately — the use-after-free the announce step exists
    /// to prevent.
    IgnoreAnnouncements,
    /// Reclaim drops the reference but leaves the entry on the retire
    /// list — the double-free that "entries leave the retire list
    /// exactly once" rules out.
    ReclaimKeepsEntry,
}

/// Writer + `readers` reader threads over one modeled cell.
pub struct SnapshotScenario {
    /// Concurrent readers (1..=[`MAX_READERS`]). Reader 0 runs the
    /// fully granular six-step program; additional readers run a
    /// five-step program with the announce's version read and slot
    /// store merged (that window only makes an announcement staler,
    /// which is conservative — reader 0 still covers it).
    pub readers: usize,
    /// Publishes the writer performs (1..=[`MAX_PUBLISHES`]).
    pub publishes: usize,
    /// Seeded protocol bug, if any.
    pub bug: Bug,
}

/// Shared state: the modeled heap, the cell, and every thread's
/// program counter and locals. Flat fixed-size arrays so cloning and
/// hashing stay cheap for the checker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SnapState {
    /// Modeled `Arc` strong counts, by allocation id.
    refs: [u8; MAX_ALLOCS],
    /// Whether the allocation's count hit zero (memory released).
    freed: [bool; MAX_ALLOCS],
    /// Next allocation id.
    allocs: u8,

    /// Allocation id behind the cell's `current` pointer.
    current: u8,
    /// The cell's published version counter.
    version: u64,
    /// Reader announcement slots.
    slots: [u64; MAX_READERS],
    /// Retired (allocation, retire-version) entries.
    retired: [(u8, u64); MAX_PUBLISHES],
    retired_len: u8,

    /// Writer program counter within the current publish (0..=5).
    wpc: u8,
    /// Publishes completed.
    wdone: u8,
    /// Writer local: version read at publish start.
    w_seen: u64,
    /// Writer local: pointer swapped out.
    w_old: u8,
    /// Writer local: next slot index of the collect scan.
    w_scan: u8,
    /// Writer local: min announced version seen so far in the scan.
    w_min: u64,

    /// Reader program counters (0..=6; 6 = done).
    rpc: [u8; MAX_READERS],
    /// Reader locals: version observed before announcing.
    r_seen: [u64; MAX_READERS],
    /// Reader locals: pointer loaded from `current`.
    r_ptr: [u8; MAX_READERS],
}

impl SnapState {
    /// Retired-but-unreclaimed entries (the production
    /// `retired_len`) — scenario tests assert deferral through this.
    #[must_use]
    pub fn unreclaimed(&self) -> usize {
        self.retired_len as usize
    }

    /// Allocations whose refcount has hit zero.
    #[must_use]
    pub fn freed_count(&self) -> usize {
        self.freed.iter().filter(|&&f| f).count()
    }

    /// Whether reader `r` sits in the stall window: pointer loaded,
    /// strong count not yet taken.
    #[must_use]
    pub fn reader_mid_acquire(&self, r: usize) -> bool {
        self.rpc[r] == 3
    }
}

fn alloc(s: &mut SnapState) -> u8 {
    let id = s.allocs;
    assert!((id as usize) < MAX_ALLOCS, "scenario exceeds modeled heap");
    s.allocs += 1;
    s.refs[id as usize] = 1;
    id
}

/// Models `Arc::increment_strong_count`: touching freed memory is the
/// use-after-free the production SAFETY comments rule out.
fn inc(s: &mut SnapState, id: u8) -> Result<(), String> {
    if s.freed[id as usize] {
        return Err(format!("use-after-free: increment_strong_count on freed snapshot {id}"));
    }
    s.refs[id as usize] += 1;
    Ok(())
}

/// Models dropping one strong reference; the count hitting zero frees
/// the allocation, and a drop on freed memory is the double-free.
fn dec(s: &mut SnapState, id: u8) -> Result<(), String> {
    let i = id as usize;
    if s.freed[i] {
        return Err(format!("double free: snapshot {id} dropped after its count hit zero"));
    }
    if s.refs[i] == 0 {
        return Err(format!("refcount underflow on snapshot {id}"));
    }
    s.refs[i] -= 1;
    if s.refs[i] == 0 {
        s.freed[i] = true;
    }
    Ok(())
}

impl SnapshotScenario {
    fn step_writer(&self, s: &mut SnapState) -> Result<(), String> {
        match s.wpc {
            // version.load
            0 => {
                s.w_seen = s.version;
                s.wpc = 1;
            }
            // Arc::into_raw(new) + current.swap — one atomic swap.
            1 => {
                let new = alloc(s);
                s.w_old = s.current;
                s.current = new;
                s.wpc = 2;
            }
            // version.store
            2 => {
                s.version = s.w_seen + 1;
                s.wpc = 3;
            }
            // retired.push under the retire-list mutex.
            3 => {
                s.retired[s.retired_len as usize] = (s.w_old, s.w_seen + 1);
                s.retired_len += 1;
                s.w_scan = 0;
                s.w_min = QUIESCENT;
                s.wpc = 4;
            }
            // Collect scan: one slot load per step (each is one SeqCst
            // atomic in production, so a reader can move between them).
            4 => {
                if self.bug != Bug::IgnoreAnnouncements {
                    let announced = s.slots[s.w_scan as usize];
                    if announced != QUIESCENT {
                        s.w_min = s.w_min.min(announced);
                    }
                }
                s.w_scan += 1;
                if s.w_scan as usize >= self.readers {
                    s.wpc = 5;
                }
            }
            // Reclaim under the retire-list mutex: drop entries no
            // announced reader could still be acquiring.
            5 => {
                let mut kept = 0usize;
                for i in 0..s.retired_len as usize {
                    let (id, version) = s.retired[i];
                    let reclaimable = s.w_min == QUIESCENT || version <= s.w_min;
                    if reclaimable {
                        dec(s, id)?;
                        if self.bug == Bug::ReclaimKeepsEntry {
                            s.retired[kept] = (id, version);
                            kept += 1;
                        }
                    } else {
                        s.retired[kept] = (id, version);
                        kept += 1;
                    }
                }
                s.retired_len = kept as u8;
                s.wdone += 1;
                s.wpc = 0;
            }
            pc => unreachable!("writer pc {pc}"),
        }
        Ok(())
    }

    fn step_reader(&self, s: &mut SnapState, r: usize) -> Result<(), String> {
        match s.rpc[r] {
            // version.load (readers past index 0 merge this with the
            // announce store — see the field docs on `readers`).
            0 => {
                s.r_seen[r] = s.version;
                if r == 0 {
                    s.rpc[r] = 1;
                } else {
                    s.slots[r] = s.r_seen[r];
                    s.rpc[r] = 2;
                }
            }
            // slot.store(seen) — the announce (A).
            1 => {
                s.slots[r] = s.r_seen[r];
                s.rpc[r] = 2;
            }
            // current.load — (L).
            2 => {
                s.r_ptr[r] = s.current;
                s.rpc[r] = 3;
            }
            // Arc::increment_strong_count — the use-after-free site.
            3 => {
                inc(s, s.r_ptr[r])?;
                s.rpc[r] = 4;
            }
            // slot.store(QUIESCENT).
            4 => {
                s.slots[r] = QUIESCENT;
                s.rpc[r] = 5;
            }
            // The reader's own reference is eventually dropped.
            5 => {
                dec(s, s.r_ptr[r])?;
                s.rpc[r] = 6;
            }
            pc => unreachable!("reader pc {pc}"),
        }
        Ok(())
    }
}

impl Scenario for SnapshotScenario {
    type State = SnapState;

    fn init(&self) -> SnapState {
        assert!((1..=MAX_READERS).contains(&self.readers), "readers out of range");
        assert!((1..=MAX_PUBLISHES).contains(&self.publishes), "publishes out of range");
        let mut s = SnapState {
            refs: [0; MAX_ALLOCS],
            freed: [false; MAX_ALLOCS],
            allocs: 0,
            current: 0,
            version: 1,
            slots: [QUIESCENT; MAX_READERS],
            retired: [(0, 0); MAX_PUBLISHES],
            retired_len: 0,
            wpc: 0,
            wdone: 0,
            w_seen: 0,
            w_old: 0,
            w_scan: 0,
            w_min: QUIESCENT,
            rpc: [6; MAX_READERS],
            r_seen: [0; MAX_READERS],
            r_ptr: [0; MAX_READERS],
        };
        s.current = alloc(&mut s); // the version-1 snapshot
        for r in 0..self.readers {
            s.rpc[r] = 0;
        }
        s
    }

    fn threads(&self) -> usize {
        1 + self.readers
    }

    fn done(&self, s: &SnapState, tid: usize) -> bool {
        if tid == 0 {
            s.wdone as usize == self.publishes
        } else {
            s.rpc[tid - 1] == 6
        }
    }

    fn enabled(&self, s: &SnapState, tid: usize) -> bool {
        // The protocol is wait-free on both sides: no step ever blocks.
        !self.done(s, tid)
    }

    fn step(&self, s: &mut SnapState, tid: usize) -> Result<(), String> {
        if tid == 0 {
            self.step_writer(s)
        } else {
            self.step_reader(s, tid - 1)
        }
    }

    /// Models `SnapshotCell::drop` (drop `current`, drain the retire
    /// list), then checks the heap: everything allocated must be freed
    /// exactly once — a survivor is a leak, and `dec` has already
    /// flagged any double-free.
    fn check_final(&self, s: &SnapState) -> Result<(), String> {
        let mut end = s.clone();
        let current = end.current;
        dec(&mut end, current)?;
        for i in 0..end.retired_len as usize {
            let (id, _) = end.retired[i];
            dec(&mut end, id)?;
        }
        for id in 0..end.allocs as usize {
            if !end.freed[id] {
                return Err(format!(
                    "leak: snapshot {id} still has {} reference(s) after drop",
                    end.refs[id]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mck::{Checker, Outcome};

    #[test]
    fn correct_protocol_single_reader() {
        let sc = SnapshotScenario { readers: 1, publishes: 2, bug: Bug::None };
        let out = Checker::default().explore(&sc);
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn ignoring_announcements_is_a_use_after_free() {
        let sc = SnapshotScenario { readers: 1, publishes: 1, bug: Bug::IgnoreAnnouncements };
        let out = Checker::default().explore(&sc);
        let Outcome::Violation { message, .. } = &out else {
            panic!("seeded use-after-free not found: {out:?}");
        };
        assert!(message.contains("use-after-free"), "{message}");
    }

    #[test]
    fn keeping_reclaimed_entries_is_a_double_free() {
        let sc = SnapshotScenario { readers: 1, publishes: 1, bug: Bug::ReclaimKeepsEntry };
        let out = Checker::default().explore(&sc);
        let Outcome::Violation { message, .. } = &out else {
            panic!("seeded double-free not found: {out:?}");
        };
        assert!(message.contains("double free"), "{message}");
    }
}
