//! The bounded-model-checker scenario suite — the runs the production
//! SAFETY comments cite by name.
//!
//! Positive scenarios must come back [`Outcome::Pass`] (every
//! reachable interleaving explored, every property held). Negative
//! scenarios seed one protocol bug each and must come back caught —
//! a checker that stops finding the seeded bugs fails this suite, so
//! "the checker passed" can never mean "the checker checked nothing".

use mtl_proofs::mck::{run_schedule, Checker, Outcome};
use mtl_proofs::models::alternation::{AlternationScenario, Bug as AltBug};
use mtl_proofs::models::doorbell::DoorbellScenario;
use mtl_proofs::models::ring::SpscScenario;
use mtl_proofs::models::snapshot::{Bug, SnapshotScenario};

/// `publish_load_collect` — cited by the reclamation safety argument
/// in `mtl-runtime/src/snapshot.rs`: every interleaving of reader
/// announce/load/acquire with writer swap/retire/collect is free of
/// use-after-free, double-free, and leaks.
#[test]
fn publish_load_collect() {
    for (readers, publishes) in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)] {
        let sc = SnapshotScenario { readers, publishes, bug: Bug::None };
        let out = Checker::default().explore(&sc);
        let Outcome::Pass { states, .. } = out else {
            panic!("readers {readers}, publishes {publishes}: {out:?}");
        };
        assert!(states > 100, "suspiciously small exploration: {states} states");
    }
}

/// `reader_stall` — cited by `SnapshotCell::collect`: a reader stalled
/// between its pointer load and its refcount increment *defers*
/// reclamation of everything retired after its announcement; nothing
/// is freed under it, and the backlog drains once it quiesces.
#[test]
fn reader_stall() {
    let sc = SnapshotScenario { readers: 1, publishes: 2, bug: Bug::None };
    // Reader (tid 1) announces and loads, then stalls; the writer
    // (tid 0) runs both publishes and both collects to completion.
    let reader_enters = [1usize, 1, 1];
    let writer_runs_all = [0usize; 12];
    let mut stall = Vec::new();
    stall.extend(reader_enters);
    stall.extend(writer_runs_all);
    let (state, taken) = run_schedule(&sc, &stall).expect("stalled reader must be safe");
    assert_eq!(taken, stall.len(), "schedule had disabled steps");
    assert!(state.reader_mid_acquire(0), "reader should be mid-acquire");
    assert_eq!(state.freed_count(), 0, "nothing may be freed under the announced reader");
    assert_eq!(state.unreclaimed(), 2, "both retired images deferred, not dropped");
    // The same schedule plus the reader's resume must drain cleanly
    // (run_schedule runs the final leak checks once all threads quiesce).
    let mut resume = stall.clone();
    resume.extend([1usize, 1, 1]);
    run_schedule(&sc, &resume).expect("resumed reader must drain the backlog safely");
}

/// The use-after-free seeded by ignoring reader announcements must be
/// found, and the reported schedule must replay to the same failure.
#[test]
fn reader_stall_uaf_is_caught() {
    let sc = SnapshotScenario { readers: 1, publishes: 1, bug: Bug::IgnoreAnnouncements };
    let out = Checker::default().explore(&sc);
    let Outcome::Violation { trace, message } = out else {
        panic!("seeded use-after-free not found: {out:?}");
    };
    assert!(message.contains("use-after-free"), "{message}");
    let replay = run_schedule(&sc, &trace).unwrap_err();
    assert_eq!(replay, message, "trace must reproduce the violation");
}

/// The double-free seeded by leaving reclaimed entries on the retire
/// list must be found.
#[test]
fn double_free_is_caught() {
    let sc = SnapshotScenario { readers: 1, publishes: 2, bug: Bug::ReclaimKeepsEntry };
    let out = Checker::default().explore(&sc);
    let Outcome::Violation { message, .. } = out else {
        panic!("seeded double-free not found: {out:?}");
    };
    assert!(message.contains("double free"), "{message}");
}

/// `two_image_alternation` — cited by `Shared::writable_spare` in
/// `mtl-runtime/src/runtime.rs`: in every interleaving of shard readers
/// (announce / load / take a reference / read / release) with the
/// control plane's update (collect, uniqueness check, edit, publish,
/// collect), the writer edits an image only when no reader holds or can
/// still acquire it, nothing is freed early or twice or leaked, and the
/// published image always carries exactly one operation per version.
#[test]
fn two_image_alternation() {
    for (readers, publishes) in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)] {
        let sc = AlternationScenario { readers, publishes, bug: AltBug::None };
        let out = Checker::default().explore(&sc);
        let Outcome::Pass { states, .. } = out else {
            panic!("readers {readers}, publishes {publishes}: {out:?}");
        };
        assert!(states > 100, "suspiciously small exploration: {states} states");
    }
}

/// `stalled_reader_costs_a_copy_not_a_wait` — a reader wedged mid-job
/// holds the image that was live when it loaded it. The writer is never
/// disabled by that: it runs all its updates to completion, taking the
/// copy arm exactly when the spare it wants back is the pinned one.
#[test]
fn stalled_reader_costs_a_copy_not_a_wait() {
    let sc = AlternationScenario { readers: 1, publishes: 3, bug: AltBug::None };
    // Reader (tid 1) acquires the version-1 snapshot and reads once ...
    let mut schedule = vec![1usize; 6];
    // ... then stalls while the writer (tid 0) publishes three times.
    schedule.extend([0usize; 26]);
    let (state, taken) = run_schedule(&sc, &schedule).expect("a stalled reader must be safe");
    assert_eq!(taken, schedule.len(), "no writer step waits for the reader");
    assert!(state.reader_holds(0), "the reader should still hold its snapshot");
    // Update 1 makes the second image (a copy). Update 2 wants the boot
    // image back, finds the reader on it, and copies. Update 3 takes the
    // image update 1 made: nobody holds it.
    assert_eq!((state.cloned(), state.in_place()), (2, 1));
    assert_eq!(state.freed_images(), 0, "nothing is freed under the reader");
    // The reader resumes, releases, and everything drains.
    schedule.extend([1usize; 2]);
    run_schedule(&sc, &schedule).expect("the resumed reader must drain cleanly");
    // With no reader in the way only the first update copies.
    let mut quiet = vec![1usize; 8];
    quiet.extend([0usize; 26]);
    let (state, _) = run_schedule(&sc, &quiet).expect("a quiet run is safe");
    assert_eq!((state.cloned(), state.in_place()), (1, 2));
}

/// Editing the spare without asking whether it is exclusively owned
/// must be found, and the reported schedule must replay to the same
/// failure.
#[test]
fn editing_a_shared_spare_is_caught() {
    let sc = AlternationScenario { readers: 1, publishes: 2, bug: AltBug::SkipUniquenessCheck };
    let out = Checker::default().explore(&sc);
    let Outcome::Violation { trace, message } = out else {
        panic!("seeded torn read not found: {out:?}");
    };
    assert!(message.contains("while reader") || message.contains("mid-edit"), "{message}");
    let replay = run_schedule(&sc, &trace).unwrap_err();
    assert_eq!(replay, message, "trace must reproduce the violation");
}

/// A pre-update collect that ignores announcements drops the retire
/// list's reference under a reader still acquiring it — the very
/// reference that keeps the uniqueness check honest. Must be found.
#[test]
fn alternation_over_a_blind_collect_is_caught() {
    let sc = AlternationScenario { readers: 1, publishes: 2, bug: AltBug::IgnoreAnnouncements };
    let out = Checker::default().explore(&sc);
    let Outcome::Violation { message, .. } = out else {
        panic!("seeded blind collect not found: {out:?}");
    };
    assert!(message.contains("use-after-free") || message.contains("reader"), "{message}");
}

/// `ring_wraparound` — cited by the index protocol docs in
/// `mtl-runtime/src/ring.rs`: every producer/consumer interleaving
/// over a capacity-2 ring, with the free-running indices crossing
/// `usize::MAX`, keeps slot access aliasing-free and FIFO.
#[test]
fn ring_wraparound() {
    for start in [usize::MAX - 3, usize::MAX - 1, usize::MAX, 0, 1] {
        let sc = SpscScenario { start, items: 4, plain_arithmetic: false };
        let out = Checker::default().explore(&sc);
        assert!(out.passed(), "start {start:#x}: {out:?}");
    }
}

/// The pre-hardening plain-subtraction arithmetic must be caught at
/// the wrap.
#[test]
fn ring_plain_arithmetic_is_caught() {
    let sc = SpscScenario { start: usize::MAX, items: 2, plain_arithmetic: true };
    let out = Checker::default().explore(&sc);
    let Outcome::Violation { message, .. } = out else {
        panic!("seeded arithmetic bug not found: {out:?}");
    };
    assert!(message.contains("underflow"), "{message}");
}

/// `doorbell_park_unpark` — cited by `Doorbell` in
/// `mtl-runtime/src/runtime.rs`: with the mutex-guarded pending
/// counter, no interleaving of submit/ring with check/park loses a
/// wakeup (modeled without the production timeout, so a loss would be
/// a deadlock), and every job is processed through shutdown.
#[test]
fn doorbell_park_unpark() {
    for jobs in 0..=3 {
        let sc = DoorbellScenario { jobs, bare_notify: false };
        let out = Checker::default().explore(&sc);
        assert!(out.passed(), "jobs {jobs}: {out:?}");
    }
}

/// The classic lost wakeup — a bare notify with no pending counter —
/// must be found as a deadlock, with a non-trivial schedule attached.
#[test]
fn doorbell_bare_notify_is_caught() {
    let sc = DoorbellScenario { jobs: 1, bare_notify: true };
    let out = Checker::default().explore(&sc);
    let Outcome::Deadlock { trace } = out else {
        panic!("lost wakeup not found: {out:?}");
    };
    assert!(!trace.is_empty(), "deadlock requires at least one step");
}
