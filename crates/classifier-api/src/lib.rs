//! # classifier-api — the unified classifier contract
//!
//! The paper's whole evaluation (Table I, Figs. 2–5) is a head-to-head
//! comparison of the decomposition-based multiple-table-lookup
//! architecture against linear scan, TCAM, tuple space search and
//! HiCuts. This crate extracts the contract all of those engines share so
//! the comparison is written once, against one trait, instead of being
//! hand-rolled per engine:
//!
//! * [`Classifier`] — the lookup surface: `name`, per-packet
//!   [`Classifier::classify`], vectorised [`Classifier::classify_batch`]
//!   (overridable so engines can amortise per-packet dispatch), modeled
//!   [`Classifier::memory_bits`] and the structural
//!   [`Classifier::lookup_accesses`] cost proxy.
//! * [`ClassifierBuilder`] — fallible construction from a
//!   [`FilterSet`], returning [`BuildError`] instead of panicking.
//! * [`DynamicClassifier`] — incremental insert/remove for engines with
//!   an update path (the architecture's label-method updates, TSS's
//!   in-tuple inserts).
//! * [`ClassifierRegistry`] — a named collection of boxed classifiers the
//!   bench harness iterates.
//! * [`reference_classify`] — the highest-priority-match oracle every
//!   implementation is validated against.
//! * [`cache`] — the epoch-stamped [`FlowCache`] (W-TinyLFU admission)
//!   that `mtl-runtime`'s shards put in front of whatever engine they
//!   serve; parallelism and caching live there, not in this contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;

pub use cache::{Admission, CacheStats, FlowCache, FxHasher, MAX_CACHED_FIELDS};

use offilter::{FilterKind, FilterSet, Rule};
use oflow::{HeaderValues, MatchFieldKind};
use std::fmt;

/// Why a classifier could not be built.
///
/// These replace the `panic!` paths that used to live in the
/// architecture's engine intern/shadow logic: every condition a rule set
/// or configuration can trigger is reported as a typed error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The configuration names an application kind no provided filter set
    /// matches.
    MissingFilterSet {
        /// The application kind without data.
        kind: FilterKind,
    },
    /// An application was configured with zero tables.
    EmptyApplication {
        /// The application kind.
        kind: FilterKind,
    },
    /// An intermediate table has no `Goto-Table` target.
    MissingGoto {
        /// The offending table.
        table_id: u8,
    },
    /// A table keys on metadata but no previous table produces it (for
    /// example the application's first table sets `uses_metadata`).
    DanglingMetadata {
        /// The offending table.
        table_id: u8,
    },
    /// A rule constrains a field in a way its assigned single-field
    /// algorithm cannot store (e.g. a port range handed to an exact-match
    /// LUT).
    UnsupportedConstraint {
        /// The field whose constraint was rejected.
        field: MatchFieldKind,
        /// The algorithm that rejected it.
        algorithm: &'static str,
        /// Display form of the rejected constraint.
        constraint: String,
    },
    /// A multi-bit-trie stride schedule does not tile the configured
    /// partition width, or the partition width does not tile the field.
    InvalidSchedule {
        /// The field the schedule was configured for.
        field: MatchFieldKind,
        /// What exactly does not add up.
        detail: String,
    },
    /// Anything else structural.
    InvalidConfig {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingFilterSet { kind } => {
                write!(f, "no filter set of kind {kind} was provided")
            }
            BuildError::EmptyApplication { kind } => {
                write!(f, "application {kind} is configured with zero tables")
            }
            BuildError::MissingGoto { table_id } => {
                write!(f, "intermediate table {table_id} has no Goto-Table target")
            }
            BuildError::DanglingMetadata { table_id } => {
                write!(f, "table {table_id} keys on metadata no previous table produces")
            }
            BuildError::UnsupportedConstraint { field, algorithm, constraint } => {
                write!(f, "{algorithm} engine on field {field} cannot store {constraint}")
            }
            BuildError::InvalidSchedule { field, detail } => {
                write!(f, "invalid trie schedule for field {field}: {detail}")
            }
            BuildError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A rule-set classifier that can be measured and compared across
/// categories.
///
/// Classification is a `&self` operation on every engine, so the trait
/// requires `Send + Sync`: any classifier can be shared across worker
/// threads — `mtl-runtime`'s shards serve one published table together.
pub trait Classifier: Send + Sync {
    /// Short display name ("linear", "tcam", "mtl", ...).
    fn name(&self) -> &str;

    /// The id of the highest-priority matching rule, if any.
    fn classify(&self, header: &HeaderValues) -> Option<u32>;

    /// Classifies a batch of headers; element `i` of the result is
    /// `classify(&headers[i])`.
    ///
    /// The default forwards to [`Classifier::classify`] per packet.
    /// Engines with per-lookup dispatch overhead (the decomposition
    /// architecture walks every field engine of every table) override
    /// this to amortise that work across the vector.
    fn classify_batch(&self, headers: &[HeaderValues]) -> Vec<Option<u32>> {
        headers.iter().map(|h| self.classify(h)).collect()
    }

    /// Modeled memory footprint in bits.
    fn memory_bits(&self) -> u64;

    /// Work performed by one `classify` expressed as memory accesses (the
    /// lookup-speed proxy the paper's Table I ranks by). Implementations
    /// return the *expected/structural* cost, not a timed measurement.
    fn lookup_accesses(&self, header: &HeaderValues) -> usize;

    /// Stored datums written to install the current rule set — the
    /// update-cost proxy the paper's Table I ranks by (lower = simpler
    /// update). Rule replication (HiCuts), range expansion (TCAM) and
    /// completion entries (decomposition) all surface here.
    fn build_records(&self) -> usize;
}

/// Forwarding impls: shared and owning smart pointers classify exactly
/// like the classifier they point at, so a runtime can hold `Arc<C>`
/// snapshots (one per worker shard, swapped RCU-style) and still hand
/// them to any code written against `impl Classifier` — no unwrapping,
/// no trait-object detour.
macro_rules! forward_classifier {
    ($ptr:ident) => {
        impl<C: Classifier + ?Sized> Classifier for $ptr<C> {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn classify(&self, header: &HeaderValues) -> Option<u32> {
                (**self).classify(header)
            }
            fn classify_batch(&self, headers: &[HeaderValues]) -> Vec<Option<u32>> {
                (**self).classify_batch(headers)
            }
            fn memory_bits(&self) -> u64 {
                (**self).memory_bits()
            }
            fn lookup_accesses(&self, header: &HeaderValues) -> usize {
                (**self).lookup_accesses(header)
            }
            fn build_records(&self) -> usize {
                (**self).build_records()
            }
        }
    };
}

use std::sync::Arc;
forward_classifier!(Arc);
forward_classifier!(Box);

/// Fallible construction of a classifier from one filter set.
///
/// Every engine in the workspace builds through this entry point so the
/// bench harness and the conformance tests can instantiate them
/// uniformly. Construction failures surface as [`BuildError`]; nothing
/// panics on malformed rule data.
pub trait ClassifierBuilder: Classifier + Sized {
    /// Builds the classifier over `set`'s rules.
    fn try_build(set: &FilterSet) -> Result<Self, BuildError>;
}

/// Cost accounting for one incremental update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Stored datums written to apply the update.
    pub records: usize,
    /// Whether the engine regenerated its structures instead of (or on
    /// top of) an in-place edit.
    pub rebuilt: bool,
    /// Whether that regeneration was a *compaction*: the edit itself was
    /// applied in place, and the engine then reclaimed the garbage its
    /// in-place removals had accumulated.
    pub compacted: bool,
}

/// Classifiers supporting incremental rule insertion and removal.
pub trait DynamicClassifier: Classifier {
    /// Adds one rule. Returns what the update cost, or a [`BuildError`]
    /// when the rule cannot be represented by this engine.
    fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError>;

    /// Removes a rule by id. Returns `None` when no such rule is stored.
    /// Ids are the caller's to keep unique; should several stored rules
    /// carry this one (an add that was retried), all of them are removed.
    fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport>;
}

/// One registered comparison entry.
pub struct RegistryEntry {
    /// The Table I category the implementation represents
    /// ("Hardware", "Trie-Geometric", "Hashing", "Decomposition", ...).
    pub category: String,
    /// The classifier itself.
    pub classifier: Box<dyn Classifier>,
}

/// A named collection of classifiers measured side by side.
///
/// The bench harness builds one registry per workload and then runs every
/// experiment generically over `Box<dyn Classifier>` instead of
/// duplicating per-type code.
#[derive(Default)]
pub struct ClassifierRegistry {
    entries: Vec<RegistryEntry>,
}

impl ClassifierRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a classifier under a category label.
    pub fn register(&mut self, category: impl Into<String>, classifier: Box<dyn Classifier>) {
        self.entries.push(RegistryEntry { category: category.into(), classifier });
    }

    /// Registered entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// Iterates `(category, classifier)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &dyn Classifier)> {
        self.entries.iter().map(|e| (e.category.as_str(), e.classifier.as_ref()))
    }

    /// The entry of a category, if registered.
    #[must_use]
    pub fn get(&self, category: &str) -> Option<&dyn Classifier> {
        self.entries.iter().find(|e| e.category == category).map(|e| e.classifier.as_ref())
    }

    /// Number of registered classifiers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<'a> IntoIterator for &'a ClassifierRegistry {
    type Item = &'a RegistryEntry;
    type IntoIter = std::slice::Iter<'a, RegistryEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Reference decision for a rule set: highest priority, then specificity.
///
/// Every [`Classifier`] implementation must agree with this oracle on
/// every header (the conformance suite checks exactly that).
#[must_use]
pub fn reference_classify(rules: &[Rule], header: &HeaderValues) -> Option<u32> {
    rules
        .iter()
        .filter(|r| r.flow_match.matches(header))
        .max_by_key(|r| (r.priority, r.flow_match.specificity()))
        .map(|r| r.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use offilter::RuleAction;
    use oflow::FlowMatch;

    struct Fixed(Option<u32>);

    impl Classifier for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn classify(&self, _header: &HeaderValues) -> Option<u32> {
            self.0
        }
        fn memory_bits(&self) -> u64 {
            1
        }
        fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
            1
        }
        fn build_records(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_batch_matches_per_packet() {
        let c = Fixed(Some(7));
        let headers = vec![HeaderValues::new(), HeaderValues::new()];
        assert_eq!(c.classify_batch(&headers), vec![Some(7), Some(7)]);
        assert_eq!(c.classify_batch(&[]), Vec::<Option<u32>>::new());
    }

    #[test]
    fn smart_pointers_forward_the_whole_surface() {
        let shared: Arc<Fixed> = Arc::new(Fixed(Some(5)));
        let boxed: Box<dyn Classifier> = Box::new(Fixed(Some(6)));
        let h = HeaderValues::new();
        assert_eq!(shared.name(), "fixed");
        assert_eq!(Classifier::classify(&shared, &h), Some(5));
        assert_eq!(boxed.classify(&h), Some(6));
        assert_eq!(Classifier::classify_batch(&shared, &[h.clone(), h.clone()]), vec![Some(5); 2]);
        assert_eq!(shared.memory_bits(), 1);
        assert_eq!(boxed.lookup_accesses(&h), 1);
        // An Arc'd trait object forwards too (the runtime's snapshots
        // over dynamic classifiers).
        let dynamic: Arc<dyn Classifier> = Arc::new(Fixed(None));
        assert_eq!(Classifier::classify(&dynamic, &h), None);
        // And still satisfies `impl Classifier` bounds generically.
        fn takes_classifier(c: &impl Classifier, h: &HeaderValues) -> Option<u32> {
            c.classify(h)
        }
        assert_eq!(takes_classifier(&shared, &h), Some(5));
        assert_eq!(takes_classifier(&dynamic, &h), None);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = ClassifierRegistry::new();
        assert!(r.is_empty());
        r.register("A", Box::new(Fixed(Some(1))));
        r.register("B", Box::new(Fixed(None)));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("A").unwrap().classify(&HeaderValues::new()), Some(1));
        assert!(r.get("C").is_none());
        let names: Vec<&str> = r.iter().map(|(c, _)| c).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn reference_prefers_priority_then_specificity() {
        let rules = vec![
            Rule::new(
                0,
                1,
                FlowMatch::any().with_exact(MatchFieldKind::InPort, 1).unwrap(),
                RuleAction::Forward(1),
            ),
            Rule::new(
                1,
                2,
                FlowMatch::any().with_exact(MatchFieldKind::InPort, 1).unwrap(),
                RuleAction::Forward(2),
            ),
        ];
        let h = HeaderValues::new().with(MatchFieldKind::InPort, 1);
        assert_eq!(reference_classify(&rules, &h), Some(1));
        let h = HeaderValues::new().with(MatchFieldKind::InPort, 2);
        assert_eq!(reference_classify(&rules, &h), None);
    }

    #[test]
    fn build_error_displays() {
        let e = BuildError::UnsupportedConstraint {
            field: MatchFieldKind::VlanVid,
            algorithm: "EM-LUT",
            constraint: "Range(1, 2)".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("EM-LUT"), "{msg}");
        assert!(msg.contains("Range"), "{msg}");
        let e = BuildError::MissingGoto { table_id: 3 };
        assert!(e.to_string().contains("table 3"));
    }
}
