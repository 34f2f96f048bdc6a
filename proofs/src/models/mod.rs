//! Faithful models of the workspace's unsafe protocols.
//!
//! Each submodule re-states one production protocol at atomic-step
//! granularity so the [`mck`](crate::mck) checker can walk its whole
//! interleaving space.
//! The models carry the *same* constants, the same step order, and the
//! same invariant checks the production code's `// SAFETY:` comments
//! claim; negative variants seed one protocol bug each, and the test
//! suite requires the checker to find them.

pub mod alternation;
pub mod doorbell;
pub mod ring;
pub mod simd;
pub mod snapshot;
