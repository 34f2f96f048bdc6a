//! Machine-checked proofs for the workspace's unsafe core.
//!
//! The production crates confine `unsafe` to five audited islands
//! (enforced by `cargo run -p xtask -- lint-unsafe`); this crate is
//! where the *arguments* those islands ride on are checked mechanically
//! instead of by prose alone. It contains no unsafety itself
//! (`#![forbid(unsafe_code)]`) — it checks **models**: small, faithful
//! ports of each protocol whose every shared-memory step is explicit,
//! so an exhaustive checker (or a symbolic one) can walk the
//! interleaving space the test suite can only sample.
//!
//! Two engines check the same models:
//!
//! * **[`mck`]** — a bounded model checker: scenarios expose their
//!   threads as resumable step functions over cloneable state, and the
//!   checker enumerates *every* schedule by depth-first search, with
//!   deadlock detection and weak fairness for spin loops. Runs on
//!   stable `cargo test`, no dependencies, deterministic.
//! * **[`harnesses`]** — [Kani](https://model-checking.github.io/kani/)
//!   proof harnesses driving the same models with *symbolic* schedules
//!   and inputs (`cargo kani` when installed). Each harness compiles as
//!   a plain `cargo test` shim when Kani is absent — the crate is
//!   always buildable offline, and the shim runs the exhaustive-DFS
//!   equivalent of the symbolic proof.
//!
//! What is proven, and where the production code cites it:
//!
//! | Harness / scenario | Property | Production site |
//! |---|---|---|
//! | `snapshot_reclamation`, `publish_load_collect`, `reader_stall` | no use-after-free, no double-free, no leak on the retire/collect path | `mtl-runtime/src/snapshot.rs` (module-level reclamation safety argument) |
//! | `two_image_alternation`, `stalled_reader_costs_a_copy_not_a_wait` | the control plane edits a table image in place only when no reader holds or can still acquire it; a stalled reader forces the copy arm and never blocks the writer; the two images stay one operation apart | `mtl-runtime/src/runtime.rs` (`RuntimeHandle::update`, `Shared::writable_spare`) |
//! | `ring_indices`, `ring_wraparound` | free-running head/tail arithmetic never aliases an occupied slot, across `usize::MAX` wraparound, for any power-of-two capacity | `mtl-runtime/src/ring.rs` (index protocol) |
//! | `doorbell_wakeup` (+ a deliberately buggy variant the checker must catch) | no missed wakeup between the pending check and the park | `mtl-runtime/src/runtime.rs` (`Doorbell`) |
//! | `simd_walk_equivalence` | the branchless lane kernel computes exactly the scalar longest-prefix walk | `ofalgo/src/trie/simd.rs` (`lookup_impl`/`chain_impl`) |
//!
//! The models are kept honest two ways: shim tests cross-check them
//! against the real `ofalgo`/`mtl-runtime` implementations on common
//! inputs, and each *negative* scenario (a seeded protocol bug) must be
//! caught by the checker — a checker that stops finding the seeded
//! bugs fails the suite.

pub mod harnesses;
pub mod mck;
pub mod models;
