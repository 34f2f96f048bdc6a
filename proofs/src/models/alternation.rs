//! Model of the control plane's two-image alternation
//! (`mtl-runtime/src/runtime.rs`, `RuntimeHandle::update` and
//! `Shared::writable_spare`) on top of the `SnapshotCell` protocol.
//!
//! The control plane keeps two table images behind `Arc` — the one the
//! cell serves and the one it served before — and publishes an update by
//! editing the spare **in place** when `Arc::get_mut` says it is
//! exclusively owned, and by deep-copying it otherwise. The claims:
//!
//! * the writer mutates an image only when no reader can reach it — not
//!   one that already holds it, and not one still inside its acquire
//!   window (pointer loaded, reference not yet taken), which is covered
//!   because the cell's retire list keeps its own reference until a
//!   collect proves the window closed, so the count the writer reads
//!   cannot be 1;
//! * a stalled reader costs the writer a copy, never a wait: no writer
//!   step is ever disabled;
//! * the two images stay one logical operation apart: what is published
//!   as version `v + 1` has had exactly `v` operations applied.
//!
//! Table images and the snapshots that carry them are separate
//! refcounted allocations on a modeled heap, as in production
//! (`Arc<Snapshot<Arc<C>>>`): a snapshot owns one reference to its
//! image and releases it when its own count reaches zero. The cell
//! steps (announce, load, take a reference, swap, retire, collect) are
//! the ones [`super::snapshot`] checks on their own; here they run
//! interleaved with the uniqueness check and the mutation.

use crate::mck::Scenario;

use super::snapshot::QUIESCENT;

/// Most readers any scenario models.
pub const MAX_READERS: usize = 2;
/// Most publishes any scenario models.
pub const MAX_PUBLISHES: usize = 3;
/// Snapshot slots: the initial one plus one per publish.
const MAX_SNAPS: usize = 1 + MAX_PUBLISHES;
/// Image slots: the initial one plus at most one copy per publish.
const MAX_IMAGES: usize = 1 + MAX_PUBLISHES;
/// "No image" / "no snapshot".
const NONE: u8 = u8::MAX;

/// A protocol bug to seed (negative scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// The protocol as written.
    None,
    /// The writer edits the spare in place without asking whether it is
    /// exclusively owned — the torn read `Arc::get_mut` rules out.
    SkipUniquenessCheck,
    /// The pre-update collect ignores reader announcements, dropping the
    /// retire list's reference while a reader is still acquiring it.
    IgnoreAnnouncements,
}

/// One control-plane writer + `readers` shard readers.
pub struct AlternationScenario {
    /// Concurrent readers (1..=[`MAX_READERS`]); each acquires the
    /// current snapshot once, reads its image twice, and releases it.
    pub readers: usize,
    /// Updates the writer publishes (1..=[`MAX_PUBLISHES`]).
    pub publishes: usize,
    /// Seeded protocol bug, if any.
    pub bug: Bug,
}

/// Shared state; flat fixed-size arrays so cloning and hashing stay
/// cheap for the checker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AltState {
    /// Modeled `Arc<C>` strong counts, by image id.
    irefs: [u8; MAX_IMAGES],
    ifreed: [bool; MAX_IMAGES],
    /// Logical operations applied to the image.
    content: [u8; MAX_IMAGES],
    /// Whether the writer is in the middle of editing the image.
    writing: [bool; MAX_IMAGES],
    images: u8,

    /// Modeled `Arc<Snapshot>` strong counts, by snapshot id.
    srefs: [u8; MAX_SNAPS],
    sfreed: [bool; MAX_SNAPS],
    /// The image a snapshot carries.
    simage: [u8; MAX_SNAPS],
    snaps: u8,

    /// The cell: current snapshot, version, announcement slots, retire
    /// list of (snapshot, retire version).
    current: u8,
    version: u64,
    slots: [u64; MAX_READERS],
    retired: [(u8, u64); MAX_PUBLISHES],
    retired_len: u8,

    /// The control plane's own references.
    live: u8,
    spare: u8,

    /// Writer program counter within the current update, updates done,
    /// and how each was carried out.
    wpc: u8,
    wdone: u8,
    in_place: u8,
    cloned: u8,
    /// Writer locals: collect scan cursor and minimum, the image being
    /// prepared, the snapshot swapped out.
    w_scan: u8,
    w_min: u64,
    w_image: u8,
    w_old: u8,

    /// Reader program counters (0..=8; 8 = done) and locals.
    rpc: [u8; MAX_READERS],
    r_seen: [u64; MAX_READERS],
    r_snap: [u8; MAX_READERS],
}

impl AltState {
    /// Updates published by editing the spare in place.
    #[must_use]
    pub fn in_place(&self) -> usize {
        self.in_place as usize
    }

    /// Updates that deep-copied an image first.
    #[must_use]
    pub fn cloned(&self) -> usize {
        self.cloned as usize
    }

    /// Whether reader `r` holds a snapshot it has not released.
    #[must_use]
    pub fn reader_holds(&self, r: usize) -> bool {
        (4..8).contains(&self.rpc[r])
    }

    /// Images whose count has hit zero.
    #[must_use]
    pub fn freed_images(&self) -> usize {
        self.ifreed.iter().filter(|&&f| f).count()
    }
}

fn alloc_image(s: &mut AltState, content: u8) -> u8 {
    let id = s.images;
    assert!((id as usize) < MAX_IMAGES, "scenario exceeds modeled image heap");
    s.images += 1;
    s.irefs[id as usize] = 1;
    s.content[id as usize] = content;
    id
}

fn dec_image(s: &mut AltState, id: u8) -> Result<(), String> {
    let i = id as usize;
    if s.ifreed[i] || s.irefs[i] == 0 {
        return Err(format!("double free: image {id} dropped after its count hit zero"));
    }
    s.irefs[i] -= 1;
    if s.irefs[i] == 0 {
        if s.writing[i] {
            return Err(format!("image {id} freed while the writer edits it"));
        }
        s.ifreed[i] = true;
    }
    Ok(())
}

/// Allocates the snapshot a publish wraps `image` in (taking one more
/// reference on the image, as `Arc::clone(&master.live)` does).
fn alloc_snap(s: &mut AltState, image: u8) -> u8 {
    let id = s.snaps;
    assert!((id as usize) < MAX_SNAPS, "scenario exceeds modeled snapshot heap");
    s.snaps += 1;
    s.srefs[id as usize] = 1;
    s.simage[id as usize] = image;
    s.irefs[image as usize] += 1;
    id
}

fn inc_snap(s: &mut AltState, id: u8) -> Result<(), String> {
    if s.sfreed[id as usize] {
        return Err(format!("use-after-free: increment_strong_count on freed snapshot {id}"));
    }
    s.srefs[id as usize] += 1;
    Ok(())
}

fn dec_snap(s: &mut AltState, id: u8) -> Result<(), String> {
    let i = id as usize;
    if s.sfreed[i] || s.srefs[i] == 0 {
        return Err(format!("double free: snapshot {id} dropped after its count hit zero"));
    }
    s.srefs[i] -= 1;
    if s.srefs[i] == 0 {
        s.sfreed[i] = true;
        dec_image(s, s.simage[i])?;
    }
    Ok(())
}

impl AlternationScenario {
    /// One slot of a collect scan; `true` once every slot was read.
    fn scan_slot(&self, s: &mut AltState, honour: bool) -> bool {
        if honour {
            let announced = s.slots[s.w_scan as usize];
            if announced != QUIESCENT {
                s.w_min = s.w_min.min(announced);
            }
        }
        s.w_scan += 1;
        s.w_scan as usize >= self.readers
    }

    /// The reclaim half of a collect, under the retire-list mutex.
    fn reclaim(s: &mut AltState) -> Result<(), String> {
        let mut kept = 0usize;
        for i in 0..s.retired_len as usize {
            let (id, version) = s.retired[i];
            if s.w_min == QUIESCENT || version <= s.w_min {
                dec_snap(s, id)?;
            } else {
                s.retired[kept] = (id, version);
                kept += 1;
            }
        }
        s.retired_len = kept as u8;
        s.w_scan = 0;
        s.w_min = QUIESCENT;
        Ok(())
    }

    fn step_writer(&self, s: &mut AltState) -> Result<(), String> {
        match s.wpc {
            // `cell.reclaim()`: scan, then drop what no reader is acquiring.
            0 => {
                if self.scan_slot(s, self.bug != Bug::IgnoreAnnouncements) {
                    s.wpc = 1;
                }
            }
            1 => {
                Self::reclaim(s)?;
                s.wpc = 2;
            }
            // `writable_spare`: no spare yet -> copy the live image;
            // `Arc::get_mut` succeeds -> edit in place; else `make_mut`
            // copies the spare and lets go of the shared one.
            2 => {
                if s.spare == NONE {
                    s.w_image = alloc_image(s, s.content[s.live as usize]);
                    s.cloned += 1;
                    s.wpc = 4;
                } else if s.irefs[s.spare as usize] == 1 || self.bug == Bug::SkipUniquenessCheck {
                    s.w_image = s.spare;
                    s.spare = NONE;
                    s.in_place += 1;
                    s.wpc = 3;
                } else {
                    let shared = s.spare;
                    s.w_image = alloc_image(s, s.content[shared as usize]);
                    s.spare = NONE;
                    dec_image(s, shared)?;
                    s.cloned += 1;
                    s.wpc = 3;
                }
            }
            // Replaying the operation the spare is behind by is the first
            // write to the image. (A fresh copy is as exclusively owned
            // as a spare that passed the check.)
            3 => {
                self.begin_write(s)?;
                s.content[s.w_image as usize] += 1;
                s.wpc = 4;
            }
            // Applying the new operation: the write ends with it.
            4 => {
                self.begin_write(s)?;
                s.content[s.w_image as usize] += 1;
                s.writing[s.w_image as usize] = false;
                s.wpc = 5;
            }
            // `cell.publish`: wrap and swap ...
            5 => {
                let applied = u64::from(s.content[s.w_image as usize]);
                if applied != s.version {
                    return Err(format!(
                        "version {} is about to carry {applied} operations",
                        s.version + 1
                    ));
                }
                let new = alloc_snap(s, s.w_image);
                s.w_old = s.current;
                s.current = new;
                s.wpc = 6;
            }
            // ... bump the version, retire the old snapshot ...
            6 => {
                s.version += 1;
                s.retired[s.retired_len as usize] = (s.w_old, s.version);
                s.retired_len += 1;
                s.wpc = 7;
            }
            // ... and collect.
            7 => {
                if self.scan_slot(s, true) {
                    s.wpc = 8;
                }
            }
            // The image that was live becomes the spare (the control
            // plane's reference to it simply changes its name).
            8 => {
                Self::reclaim(s)?;
                s.spare = s.live;
                s.live = s.w_image;
                s.w_image = NONE;
                s.wdone += 1;
                s.wpc = 0;
            }
            pc => unreachable!("writer pc {pc}"),
        }
        Ok(())
    }

    /// Marks the image under preparation as being written; a reader that
    /// holds it (or could still get hold of it) is the violation.
    fn begin_write(&self, s: &mut AltState) -> Result<(), String> {
        let image = s.w_image;
        for r in 0..self.readers {
            if s.reader_holds(r) && s.simage[s.r_snap[r] as usize] == image {
                return Err(format!("writer edits image {image} while reader {r} holds it"));
            }
        }
        s.writing[image as usize] = true;
        Ok(())
    }

    fn step_reader(&self, s: &mut AltState, r: usize) -> Result<(), String> {
        match s.rpc[r] {
            // version.load (readers past index 0 merge the announce
            // store into it, as in the snapshot model).
            0 => {
                s.r_seen[r] = s.version;
                if r == 0 {
                    s.rpc[r] = 1;
                } else {
                    s.slots[r] = s.r_seen[r];
                    s.rpc[r] = 2;
                }
            }
            // slot.store(seen) — the announce.
            1 => {
                s.slots[r] = s.r_seen[r];
                s.rpc[r] = 2;
            }
            // current.load.
            2 => {
                s.r_snap[r] = s.current;
                s.rpc[r] = 3;
            }
            // Arc::increment_strong_count.
            3 => {
                inc_snap(s, s.r_snap[r])?;
                s.rpc[r] = 4;
            }
            // slot.store(QUIESCENT).
            4 => {
                s.slots[r] = QUIESCENT;
                s.rpc[r] = 5;
            }
            // Serving a job: two reads of the table, so that a write can
            // fall between them.
            5 | 6 => {
                let image = s.simage[s.r_snap[r] as usize];
                if s.ifreed[image as usize] {
                    return Err(format!("reader {r} reads freed image {image}"));
                }
                if s.writing[image as usize] {
                    return Err(format!("reader {r} reads image {image} mid-edit"));
                }
                s.rpc[r] += 1;
            }
            // Picking up the next job (or parking) releases the snapshot.
            7 => {
                dec_snap(s, s.r_snap[r])?;
                s.rpc[r] = 8;
            }
            pc => unreachable!("reader pc {pc}"),
        }
        Ok(())
    }
}

impl Scenario for AlternationScenario {
    type State = AltState;

    fn init(&self) -> AltState {
        assert!((1..=MAX_READERS).contains(&self.readers), "readers out of range");
        assert!((1..=MAX_PUBLISHES).contains(&self.publishes), "publishes out of range");
        let mut s = AltState {
            irefs: [0; MAX_IMAGES],
            ifreed: [false; MAX_IMAGES],
            content: [0; MAX_IMAGES],
            writing: [false; MAX_IMAGES],
            images: 0,
            srefs: [0; MAX_SNAPS],
            sfreed: [false; MAX_SNAPS],
            simage: [NONE; MAX_SNAPS],
            snaps: 0,
            current: 0,
            version: 1,
            slots: [QUIESCENT; MAX_READERS],
            retired: [(0, 0); MAX_PUBLISHES],
            retired_len: 0,
            live: 0,
            spare: NONE,
            wpc: 0,
            wdone: 0,
            in_place: 0,
            cloned: 0,
            w_scan: 0,
            w_min: QUIESCENT,
            w_image: NONE,
            w_old: 0,
            rpc: [8; MAX_READERS],
            r_seen: [0; MAX_READERS],
            r_snap: [0; MAX_READERS],
        };
        // Boot: one image, held by the control plane and by the version-1
        // snapshot. No second image yet.
        let boot = alloc_image(&mut s, 0);
        s.live = boot;
        s.current = alloc_snap(&mut s, boot);
        for r in 0..self.readers {
            s.rpc[r] = 0;
        }
        s
    }

    fn threads(&self) -> usize {
        1 + self.readers
    }

    fn done(&self, s: &AltState, tid: usize) -> bool {
        if tid == 0 {
            s.wdone as usize == self.publishes
        } else {
            s.rpc[tid - 1] == 8
        }
    }

    fn enabled(&self, s: &AltState, tid: usize) -> bool {
        // Nobody ever waits for anybody: a reader that stalls delays
        // reclamation and costs the writer a copy, nothing else.
        !self.done(s, tid)
    }

    fn step(&self, s: &mut AltState, tid: usize) -> Result<(), String> {
        if tid == 0 {
            self.step_writer(s)
        } else {
            self.step_reader(s, tid - 1)
        }
    }

    /// Drops the cell and the control plane, then checks the heap:
    /// every snapshot and every image freed exactly once, and the two
    /// images one operation apart.
    fn check_final(&self, s: &AltState) -> Result<(), String> {
        let published = s.content[s.live as usize];
        if published as usize != self.publishes {
            return Err(format!("the live image carries {published} operations"));
        }
        if s.spare != NONE && s.content[s.spare as usize] + 1 != published {
            return Err("the spare is not exactly one operation behind".into());
        }
        let mut end = s.clone();
        let current = end.current;
        dec_snap(&mut end, current)?;
        for i in 0..end.retired_len as usize {
            let (id, _) = end.retired[i];
            dec_snap(&mut end, id)?;
        }
        let (live, spare) = (end.live, end.spare);
        dec_image(&mut end, live)?;
        if spare != NONE {
            dec_image(&mut end, spare)?;
        }
        if let Some(id) = (0..end.snaps as usize).find(|&id| !end.sfreed[id]) {
            return Err(format!("leak: snapshot {id} still referenced after drop"));
        }
        if let Some(id) = (0..end.images as usize).find(|&id| !end.ifreed[id]) {
            return Err(format!("leak: image {id} still referenced after drop"));
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
        let sc = AlternationScenario { readers: 1, publishes: 2, bug: Bug::None };
        let out = Checker::default().explore(&sc);
        assert!(out.passed(), "{out:?}");
    }

    #[test]
    fn editing_a_shared_spare_is_caught() {
        let sc = AlternationScenario { readers: 1, publishes: 2, bug: Bug::SkipUniquenessCheck };
        let out = Checker::default().explore(&sc);
        let Outcome::Violation { message, .. } = &out else {
            panic!("seeded torn read not found: {out:?}");
        };
        assert!(message.contains("while reader") || message.contains("mid-edit"), "{message}");
    }
}
