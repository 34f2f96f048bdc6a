//! # mtl-bench — experiment harness
//!
//! One module per table/figure of the paper's evaluation, each exposing a
//! typed experiment function that returns printable rows plus JSON output
//! (written under `target/repro/`). The `repro` binary drives them; the
//! Criterion benches under `benches/` measure lookup/update/build speed.
//!
//! Experiments that compare lookup engines iterate the
//! [`registry`] module's `Box<dyn Classifier>` collection — one generic
//! measurement loop for the decomposition architecture and all four
//! baselines — instead of hand-rolled per-type code.
//!
//! | Experiment | Paper artefact | Module |
//! |---|---|---|
//! | `table1` | Table I (algorithm categories, quantified) | [`table1`] |
//! | `table2` | Table II (match fields) | [`table2`] |
//! | `table3` | Table III (MAC filter survey) | [`table3`] |
//! | `table4` | Table IV (routing filter survey) | [`table4`] |
//! | `fig2`   | Fig. 2(a)/(b) (stored trie nodes) | [`fig2`] |
//! | `fig3`   | Fig. 3 (Ethernet lower-trie Kbits per level) | [`fig3`] |
//! | `fig4`   | Fig. 4(a)/(b) (IP trie Kbits per level) | [`fig4`] |
//! | `fig5`   | Fig. 5 (update cycles, label vs original) | [`fig5`] |
//! | `headline` | §V.A totals (5 Mbit, 4 tables, MBT share) | [`headline`] |
//! | `throughput` | (extension) single vs batch lookup per engine + alloc probe | [`throughput`] |
//! | `cache`  | (extension) runtime-served flow-cache hit rate + ns/pkt under Zipf skew | [`cache`] |
//! | `runtime` | (extension) sharded-runtime scaling + consistency under rule churn | [`runtime`] |
//! | `coldstart` | (extension) snapshot-restore vs rebuild-from-rules cold start | [`coldstart`] |
//! | `storm` | (extension) publish-storm throughput: durability off / WAL-only / WAL+checkpoint | [`storm`] |
//! | `crashkill` | (extension) real `kill -9` process-crash recovery harness + flight-log post-mortem | [`crashkill`] |
//! | `obs` | (extension) observability tax: recorder off / rings / rings+sampler per shard count | [`obs`] |
//! | `trace-dump` | (extension) live flight-recorder capture rendered as a Chrome/Perfetto trace | [`tracedump`] |

// Unsafe is denied everywhere except the counting global allocator in
// [`alloc_probe`], which needs a `GlobalAlloc` impl.
#![deny(unsafe_code)]

pub mod alloc_probe;
pub mod cache;
pub mod coldstart;
pub mod crashkill;
pub mod data;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod headline;
pub mod obs;
pub mod output;
pub mod registry;
pub mod runtime;
pub mod storm;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod throughput;
pub mod tracedump;

/// Default RNG seed for every experiment (reproducibility).
pub const DEFAULT_SEED: u64 = 2015;
