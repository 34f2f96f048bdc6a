//! # openflow-mtl — OpenFlow multiple-table lookup, reproduced
//!
//! A from-scratch Rust reproduction of *"Memory Cost Analysis for OpenFlow
//! Multiple Table Lookup"* (Guerra Perez, Scott-Hayward, Yang, Sezer —
//! IEEE SOCC 2015): a decomposition-based multi-table packet classifier
//! with per-field algorithm selection (hash LUTs, pipelined multi-bit
//! tries, range matchers), the DCFL-style label method, bit-accurate
//! embedded-memory cost models, and the paper's complete evaluation
//! harness.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`oflow`] | OpenFlow v1.3 match fields, flow tables, multi-table pipeline (reference oracle) |
//! | [`ofpacket`] | Byte-level packet headers, parsing, OXM extraction, traces |
//! | [`offilter`] | Rule sets, the paper's published statistics, constrained synthesis, surveys |
//! | [`ofalgo`] | Multi-bit tries, exact-match LUTs, range matchers, labels |
//! | [`ofmem`] | Memory layouts, blocks, Kbit accounting, M20K mapping |
//! | [`classifier_api`] | The unified fallible `Classifier` contract every engine implements |
//! | [`mtl_core`] | The paper's architecture: engines, index tables, action tables, update model |
//! | [`mtl_runtime`] | Sharded lock-free dataplane runtime: RCU snapshot swaps, SPSC rings, per-shard caches |
//! | [`ofbaseline`] | Linear scan, TCAM model, tuple space search, HiCuts |
//!
//! ## Quickstart
//!
//! ```
//! use openflow_mtl::prelude::*;
//!
//! // A tiny routing table: two prefixes behind ingress port 1.
//! let rules = vec![
//!     Rule::new(0, 24,
//!         FlowMatch::any()
//!             .with_exact(MatchFieldKind::InPort, 1).unwrap()
//!             .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_0200, 24).unwrap(),
//!         RuleAction::Forward(7)),
//!     Rule::new(1, 0,
//!         FlowMatch::any()
//!             .with_exact(MatchFieldKind::InPort, 1).unwrap()
//!             .with_prefix(MatchFieldKind::Ipv4Dst, 0, 0).unwrap(),
//!         RuleAction::Forward(1)),
//! ];
//! let set = FilterSet::new("quick", FilterKind::Routing, rules);
//!
//! // Build the paper's two-table architecture (fallibly) and classify.
//! let config = SwitchConfig::single_app(FilterKind::Routing, 0);
//! let switch = MtlSwitch::try_build(&config, &[&set]).expect("valid set");
//! let header = HeaderValues::new()
//!     .with(MatchFieldKind::InPort, 1)
//!     .with(MatchFieldKind::Ipv4Dst, 0x0A01_02FF);
//! assert_eq!(switch.classify_app(FilterKind::Routing, &header).verdict, Verdict::Output(7));
//!
//! // Every engine — this architecture and all baselines — also speaks
//! // the unified `Classifier` trait (rule-id results, batch lookup):
//! let unified: &dyn Classifier = &switch;
//! assert_eq!(unified.classify(&header), Some(0));
//! assert_eq!(unified.classify_batch(&[header.clone()]), vec![Some(0)]);
//!
//! // And ask what it costs in embedded memory.
//! let memory = SwitchMemoryReport::of(&switch);
//! assert!(memory.total().bits() > 0);
//! assert_eq!(unified.memory_bits(), memory.total().bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use classifier_api;
pub use mtl_core;
pub use mtl_runtime;
pub use ofalgo;
pub use ofbaseline;
pub use offilter;
pub use oflow;
pub use ofmem;
pub use ofpacket;

/// The most common imports in one place.
pub mod prelude {
    pub use classifier_api::{
        reference_classify, BuildError, Classifier, ClassifierBuilder, ClassifierRegistry,
        DynamicClassifier, UpdateReport,
    };
    pub use mtl_core::{ClassifyResult, MtlSwitch, SwitchConfig, SwitchMemoryReport, UpdatePlan};
    pub use mtl_runtime::{ClassifiedBatch, Runtime, RuntimeConfig, RuntimeHandle};
    pub use ofalgo::{HashLut, Label, Mbt, PartitionedTrie, RangeMatcher, StrideSchedule};
    pub use offilter::{FilterKind, FilterSet, Rule, RuleAction};
    pub use oflow::{
        FieldMatch, FlowEntry, FlowMatch, HeaderValues, Instruction, MatchFieldKind, Pipeline,
        Verdict,
    };
    pub use ofmem::{BitSize, MemoryReport};
    pub use ofpacket::{parse_packet, MacAddr, PacketBuilder};
}
