//! A minimal bounded model checker: exhaustive interleaving search over
//! explicitly-modeled concurrent protocols.
//!
//! The real concurrency test suite samples schedules the OS happens to
//! produce; TSan widens that to schedules it can observe. Neither can
//! say "no interleaving breaks this". This checker can, for *models*:
//! a [`Scenario`] describes each thread as a resumable step function
//! over a cloneable shared state, where **one step = one atomic action**
//! (a `SeqCst` load/store/RMW, or a whole mutex-protected critical
//! section — a region no other thread can interleave with in the real
//! code). [`Checker::explore`] then enumerates every schedule by
//! depth-first search and reports the first property violation,
//! deadlock, or bound overrun, with the exact thread schedule that
//! produced it.
//!
//! This is the loom/shuttle idea reduced to its core (neither can be
//! vendored here): because the workspace's lock-free protocols are
//! all-`SeqCst` by design, exploring sequentially-consistent
//! interleavings is *sound* for them — there are no weak-memory
//! reorderings to miss. The price is modeling: scenarios re-state the
//! protocol instead of running production code. The models are kept
//! faithful by cross-checks against the real implementations (see
//! `tests/scenarios.rs`) and by negative scenarios — deliberately
//! seeded protocol bugs the checker must find.
//!
//! Two design choices keep exhaustive search tractable:
//!
//! * **State memoization.** `State` is `Eq + Hash`, and a state reached
//!   by two different schedules is explored once — the interleaving
//!   *tree* (multinomially large) collapses to the state *graph*.
//!   Sound for safety properties: every continuation of a state is
//!   independent of how it was reached.
//! * **Enabledness instead of spinning.** [`Scenario::enabled`] says
//!   whether a thread's next step can run *and make progress*. A spin
//!   retry (ring full, queue empty) is modeled as not-enabled rather
//!   than as a state-preserving step: the checker never explores "spun
//!   again, nothing changed" branches, and a genuine missed-wakeup bug
//!   — every live thread blocked with nothing to unblock it — surfaces
//!   as [`Outcome::Deadlock`] instead of an infinite spin.

use std::collections::HashSet;
use std::hash::Hash;

/// One modeled concurrent protocol: `threads()` resumable step
/// functions over a shared, cloneable `State` (which encodes every
/// thread's program counter as well as the shared memory).
pub trait Scenario {
    /// Shared state, including per-thread program counters. Cloned and
    /// hashed at every branch point, so keep it small and flat (fixed
    /// arrays over `Vec`s).
    type State: Clone + Eq + Hash;

    /// The initial state.
    fn init(&self) -> Self::State;

    /// Number of modeled threads, fixed for the scenario.
    fn threads(&self) -> usize;

    /// Whether thread `tid` has finished (no more steps).
    fn done(&self, s: &Self::State, tid: usize) -> bool;

    /// Whether thread `tid`'s next step can run **and make progress**.
    /// Must be `false` for finished threads. A thread that would only
    /// spin (retry with no state change) reports not-enabled; it
    /// becomes enabled again once another thread changes the state it
    /// is waiting on.
    fn enabled(&self, s: &Self::State, tid: usize) -> bool;

    /// Executes thread `tid`'s next atomic step. Only called when
    /// [`enabled`](Self::enabled). Returns `Err` with a description on
    /// a safety-property violation (use-after-free, slot aliasing, …).
    fn step(&self, s: &mut Self::State, tid: usize) -> Result<(), String>;

    /// Invariants of a fully-quiescent run (all threads done): leak
    /// checks, delivered-exactly-once counts, final-value asserts.
    fn check_final(&self, s: &Self::State) -> Result<(), String>;
}

/// Result of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every reachable state was explored and passed every check.
    Pass {
        /// Distinct states visited.
        states: u64,
        /// Distinct terminal (all-threads-done) states checked.
        terminals: u64,
        /// Longest schedule explored, in steps.
        deepest: usize,
    },
    /// A safety property failed mid-schedule or at quiescence.
    Violation {
        /// The thread schedule (one entry per step) that failed.
        trace: Vec<usize>,
        /// The property's description of what broke.
        message: String,
    },
    /// Some thread was still live but no thread was enabled: a missed
    /// wakeup or a circular wait.
    Deadlock {
        /// The schedule that reached the stuck state.
        trace: Vec<usize>,
    },
    /// A bound was hit ([`Checker::max_depth`] steps in one schedule,
    /// or [`Checker::max_states`] distinct states): livelock in the
    /// model, or bounds too small for the scenario. Never silent.
    BoundExceeded {
        /// The schedule prefix that hit the bound.
        trace: Vec<usize>,
    },
}

impl Outcome {
    /// Whether the exploration proved the scenario's properties.
    #[must_use]
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }
}

/// Exploration bounds. The defaults fit every scenario in this crate;
/// hitting them is reported, never silently truncated.
pub struct Checker {
    /// Maximum steps in one schedule.
    pub max_depth: usize,
    /// Maximum distinct states before giving up (guards against a
    /// scenario whose state space explodes unexpectedly).
    pub max_states: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Self { max_depth: 512, max_states: 20_000_000 }
    }
}

impl Checker {
    /// Exhaustively explores every reachable state of `scenario` by
    /// DFS. Returns the first failure found (with its schedule), or
    /// [`Outcome::Pass`] with exploration statistics.
    pub fn explore<S: Scenario>(&self, scenario: &S) -> Outcome {
        let mut search = Search {
            checker: self,
            visited: HashSet::new(),
            trace: Vec::with_capacity(self.max_depth),
            terminals: 0,
            deepest: 0,
        };
        match search.dfs(scenario, scenario.init()) {
            Err(failure) => failure,
            Ok(()) => Outcome::Pass {
                states: search.visited.len() as u64,
                terminals: search.terminals,
                deepest: search.deepest,
            },
        }
    }
}

struct Search<'c, St> {
    checker: &'c Checker,
    visited: HashSet<St>,
    trace: Vec<usize>,
    terminals: u64,
    deepest: usize,
}

impl<St: Clone + Eq + Hash> Search<'_, St> {
    fn dfs<S: Scenario<State = St>>(&mut self, scenario: &S, state: St) -> Result<(), Outcome> {
        if self.visited.contains(&state) {
            return Ok(());
        }
        if self.visited.len() as u64 >= self.checker.max_states {
            return Err(Outcome::BoundExceeded { trace: self.trace.clone() });
        }
        // Mark visited *before* descending, so the state bound holds on
        // the way down (a post-order insert would let an ever-growing
        // path blow the stack before anything was recorded).
        self.visited.insert(state.clone());
        self.deepest = self.deepest.max(self.trace.len());
        let live =
            (0..scenario.threads()).filter(|&t| !scenario.done(&state, t)).collect::<Vec<_>>();
        if live.is_empty() {
            self.terminals += 1;
            return match scenario.check_final(&state) {
                Ok(()) => Ok(()),
                Err(message) => Err(Outcome::Violation { trace: self.trace.clone(), message }),
            };
        }
        if self.trace.len() >= self.checker.max_depth {
            return Err(Outcome::BoundExceeded { trace: self.trace.clone() });
        }
        let mut any_enabled = false;
        for &tid in &live {
            if !scenario.enabled(&state, tid) {
                continue;
            }
            any_enabled = true;
            let mut next = state.clone();
            self.trace.push(tid);
            if let Err(message) = scenario.step(&mut next, tid) {
                return Err(Outcome::Violation { trace: self.trace.clone(), message });
            }
            self.dfs(scenario, next)?;
            self.trace.pop();
        }
        if !any_enabled {
            return Err(Outcome::Deadlock { trace: self.trace.clone() });
        }
        Ok(())
    }
}

/// Runs one explicit schedule (for replaying a failing trace from an
/// [`Outcome`]). Entries whose thread is done or not enabled are
/// skipped, so any schedule covers exactly a feasible interleaving.
/// Returns the final state and the number of steps actually taken;
/// runs the final checks only if the schedule ran every thread to
/// completion.
pub fn run_schedule<S: Scenario>(
    scenario: &S,
    schedule: &[usize],
) -> Result<(S::State, usize), String> {
    let mut state = scenario.init();
    let mut taken = 0;
    for &tid in schedule {
        if tid >= scenario.threads() || scenario.done(&state, tid) || !scenario.enabled(&state, tid)
        {
            continue;
        }
        scenario.step(&mut state, tid)?;
        taken += 1;
    }
    if (0..scenario.threads()).all(|t| scenario.done(&state, t)) {
        scenario.check_final(&state)?;
    }
    Ok((state, taken))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads do `counter += 1` — either as one atomic RMW step,
    /// or (the seeded bug) as separate read and write steps. The
    /// checker must prove the former and find the lost update in the
    /// latter.
    struct Incr {
        atomic: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct IncrState {
        counter: u32,
        /// Per-thread: 0 = not started, 1 = read done (holds `loaded`),
        /// 2 = done.
        pc: [u8; 2],
        loaded: [u32; 2],
    }

    impl Scenario for Incr {
        type State = IncrState;

        fn init(&self) -> IncrState {
            IncrState { counter: 0, pc: [0; 2], loaded: [0; 2] }
        }

        fn threads(&self) -> usize {
            2
        }

        fn done(&self, s: &IncrState, tid: usize) -> bool {
            s.pc[tid] == 2
        }

        fn enabled(&self, s: &IncrState, tid: usize) -> bool {
            !self.done(s, tid)
        }

        fn step(&self, s: &mut IncrState, tid: usize) -> Result<(), String> {
            if self.atomic {
                s.counter += 1;
                s.pc[tid] = 2;
            } else if s.pc[tid] == 0 {
                s.loaded[tid] = s.counter;
                s.pc[tid] = 1;
            } else {
                s.counter = s.loaded[tid] + 1;
                s.pc[tid] = 2;
            }
            Ok(())
        }

        fn check_final(&self, s: &IncrState) -> Result<(), String> {
            if s.counter == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter is {} after two increments", s.counter))
            }
        }
    }

    #[test]
    fn atomic_increment_passes() {
        let out = Checker::default().explore(&Incr { atomic: true });
        // Both schedules converge on one terminal state (memoization).
        assert!(matches!(out, Outcome::Pass { terminals: 1, .. }), "{out:?}");
    }

    #[test]
    fn torn_increment_is_found_with_a_trace() {
        let out = Checker::default().explore(&Incr { atomic: false });
        let Outcome::Violation { trace, message } = &out else {
            panic!("expected a lost-update violation, got {out:?}");
        };
        assert!(message.contains("lost update"), "{message}");
        // The reported schedule must actually reproduce the failure.
        let err = run_schedule(&Incr { atomic: false }, trace).unwrap_err();
        assert!(err.contains("lost update"), "{err}");
    }

    #[test]
    fn stuck_thread_is_reported_as_deadlock() {
        /// Thread 0 waits for a flag nobody sets.
        struct Stuck;
        impl Scenario for Stuck {
            type State = bool; // flag
            fn init(&self) -> bool {
                false
            }
            fn threads(&self) -> usize {
                1
            }
            fn done(&self, _: &bool, _: usize) -> bool {
                false
            }
            fn enabled(&self, s: &bool, _: usize) -> bool {
                *s
            }
            fn step(&self, _: &mut bool, _: usize) -> Result<(), String> {
                unreachable!("never enabled")
            }
            fn check_final(&self, _: &bool) -> Result<(), String> {
                Ok(())
            }
        }
        assert_eq!(Checker::default().explore(&Stuck), Outcome::Deadlock { trace: vec![] });
    }

    #[test]
    fn bounds_are_reported_not_silently_truncated() {
        /// A thread counting forever: every state is new, no terminal.
        struct Spin;
        impl Scenario for Spin {
            type State = u64;
            fn init(&self) -> u64 {
                0
            }
            fn threads(&self) -> usize {
                1
            }
            fn done(&self, _: &u64, _: usize) -> bool {
                false
            }
            fn enabled(&self, _: &u64, _: usize) -> bool {
                true
            }
            fn step(&self, s: &mut u64, _: usize) -> Result<(), String> {
                *s += 1;
                Ok(())
            }
            fn check_final(&self, _: &u64) -> Result<(), String> {
                Ok(())
            }
        }
        let out = Checker { max_depth: 8, max_states: 1_000 }.explore(&Spin);
        assert!(matches!(out, Outcome::BoundExceeded { ref trace } if trace.len() == 8), "{out:?}");
        let out = Checker { max_depth: 10_000, max_states: 5 }.explore(&Spin);
        assert!(matches!(out, Outcome::BoundExceeded { .. }), "{out:?}");
    }
}
