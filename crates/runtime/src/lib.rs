//! # mtl-runtime — the sharded lock-free dataplane runtime
//!
//! The paper evaluates its switch as a static lookup structure; the
//! ROADMAP's north star is a production system classifying at full rate
//! *while* rules are inserted and removed across many cores. This crate
//! is the subsystem that closes that gap, fronting **any**
//! [`classifier_api::Classifier`]:
//!
//! * [`snapshot`] — the RCU primitive: [`snapshot::SnapshotCell`], an
//!   `ArcSwap` equivalent on one `AtomicPtr` with epoch-based
//!   reclamation. Readers are wait-free; the single writer publishes a
//!   whole table image with one pointer swap.
//! * [`ring`] — bounded SPSC batch rings (Lamport queues) carrying jobs
//!   from the dispatcher to the shards, lock- and allocation-free.
//! * [`runtime`] — [`runtime::Runtime`]: N run-to-completion worker
//!   shards (best-effort CPU-pinned, see [`pin`]), each with its own
//!   replicated snapshot and its own
//!   [`classifier_api::FlowCache`]; an RSS-style header-hash dispatcher;
//!   and the [`runtime::RuntimeHandle`] control plane
//!   (`add_rule` / `remove_rule` / `swap_table`) applying each update
//!   to the spare of two alternating table images and publishing that —
//!   classification never blocks on updates, and an update never copies
//!   the table unless a reader still holds the spare.
//! * [`telemetry`] — per-shard throughput / hit-rate / latency-percentile
//!   counters plus fault accounting (panics, restarts, sheds, poison
//!   recoveries), exported as one JSON block.
//! * [`supervisor`](self) — an internal monitor thread: every worker
//!   runs under an unwind boundary; the supervisor detects dead or
//!   stalled shards, respawns them with a fresh ring/snapshot/cache and
//!   re-routes their recovered jobs, so a panicking classifier costs a
//!   restart — never a hung [`runtime::Ticket`] or a dead process.
//! * [`durability`] — the crash-only control plane: a
//!   [`mtl_persist::Store`] (versioned binary snapshots + write-ahead
//!   rule log) wired under the runtime so `add_rule`/`remove_rule` are
//!   durable between checkpoints, and the supervisor can tear the whole
//!   runtime down and cold-start it from the latest good checkpoint plus
//!   the WAL tail (escalation: shard respawn → runtime restore).
//! * [`fault`] *(cargo feature `fault-injection`)* — deterministic,
//!   seeded fault schedules (worker panics, stalls, dropped doorbell
//!   notifies, delayed/stormed publishes, torn WAL appends, corrupted
//!   checkpoints) threaded through the runtime's hook points; the
//!   `chaos` test suite drives them.
//!
//! Consistency contract: every served batch reports, per packet, the
//! snapshot **version** it was classified under
//! ([`runtime::ClassifiedBatch::versions`]), and the result is
//! byte-identical to what that version's table answers sequentially —
//! the `runtime` bench experiment and the `runtime_consistency` stress
//! suite assert exactly that under concurrent add/remove churn. Packets
//! the runtime chose not to serve (load shedding, expired deadlines,
//! abandoned poison jobs, shutdown) are explicit: they report
//! [`runtime::UNSERVED_VERSION`], never a fabricated answer.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod pin;
pub mod ring;
pub mod runtime;
pub mod snapshot;
mod supervisor;
pub mod telemetry;

pub use durability::{DurabilityConfig, RestoreReport};
#[cfg(feature = "fault-injection")]
pub use fault::{resolve_seed, CheckpointFault, Fault, FaultPlan};
pub use runtime::{
    shard_of, AdmissionPolicy, ClassifiedBatch, Runtime, RuntimeConfig, RuntimeHandle, Ticket,
    WaitOutcome, MAX_REQUEUES, UNSERVED_VERSION,
};
pub use snapshot::{Snapshot, SnapshotCell, SnapshotReader};
pub use telemetry::{
    ControlTelemetry, DurabilityTelemetry, RuntimeTelemetry, ShardCounters, ShardTelemetry,
    TraceTelemetry,
};

// Re-exported so harnesses can decode flight recordings and consume
// metric series against the exact trace types this runtime emits.
pub use mtl_trace as trace;
