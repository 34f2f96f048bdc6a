//! # mtl-core — the multiple-table lookup architecture
//!
//! The paper's contribution (§IV): an OpenFlow multi-table lookup engine
//! built on *decomposition* — parallel one-dimensional field searches whose
//! label results are combined into an action-table index — with the *label
//! method* eliminating rule replication, per-field algorithm selection
//! (hash LUT for exact fields, pipelined multi-bit tries for prefix fields,
//! range matcher for ports), and OpenFlow instructions (`Goto-Table`,
//! `Write-Actions`, `Write-Metadata`, table-miss to controller) gluing the
//! tables into a pipeline.
//!
//! Crate layout:
//!
//! * [`classifier`] — the unified [`classifier_api::Classifier`] /
//!   [`classifier_api::ClassifierBuilder`] /
//!   [`classifier_api::DynamicClassifier`] implementations, putting the
//!   architecture behind the same trait as every baseline.
//! * [`config`] — architecture description: which fields in which table,
//!   searched by which algorithm; presets for the paper's MAC + Routing
//!   use case (4 OpenFlow tables, 2 MBTs, 2 exact-match LUTs).
//! * [`engine`] — per-field search engines returning label match chains.
//! * [`index`] — label-combination index tables, including the nested-
//!   prefix completion entries decomposition needs for correctness.
//! * [`actions`] — action tables holding instruction rows.
//! * [`switch`] — [`switch::MtlSwitch`]: build from filter sets, classify
//!   headers, report memory.
//! * [`update`] — the controller-side update model: characterization
//!   files, update records, the 2-cycles-per-record timing model, and the
//!   label-method vs original comparison of Fig. 5.
//! * [`report`] — whole-switch memory aggregation (the 5 Mbit headline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod classifier;
pub mod config;
pub mod engine;
pub mod incremental;
pub mod index;
pub mod persist;
pub mod report;
pub mod switch;
pub mod update;

pub use classifier_api::{
    BuildError, Classifier, ClassifierBuilder, DynamicClassifier, UpdateReport,
};
pub use config::{AlgorithmKind, FieldConfig, SwitchConfig, TableConfig};
pub use engine::FieldEngine;
pub use incremental::{UpdateMode, UpdateOutcome};
pub use index::IndexTable;
pub use report::SwitchMemoryReport;
pub use switch::{ClassifyResult, MtlSwitch};
pub use update::{UpdatePlan, UpdateRecord, UpdateStats};
