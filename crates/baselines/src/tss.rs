//! Tuple Space Search (the paper's Table I "Hashing-based" row).
//!
//! TSS [12] groups rules by their *mask tuple* (per-field prefix length /
//! constraint shape); within a tuple every rule is an exact match on the
//! masked key, so a hash table serves it. A lookup probes every tuple and
//! keeps the best hit — fast when tuples are few, degrading as mask
//! diversity grows (the "collision issue / memory explosion" of Table I).
//!
//! Range fields are handled as in Open vSwitch: each distinct range is a
//! tuple dimension value of its own (staged lookup keeps exactness).

use crate::{BuildError, Classifier, ClassifierBuilder, DynamicClassifier, UpdateReport};
use offilter::{FilterSet, Rule};
use oflow::{FieldMatch, HeaderValues, MatchFieldKind};
use std::collections::HashMap;

/// The mask signature of a rule: per field, how it constrains.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Dim {
    /// Prefix of a given length (exact = full width).
    Prefix(u32),
    /// A specific range (ranges hash by identity).
    Range(u64, u64),
    /// Unconstrained.
    Any,
}

type Signature = Vec<(MatchFieldKind, Dim)>;

/// One tuple: rules sharing a signature, hashed by masked key.
#[derive(Debug, Clone)]
struct Tuple {
    signature: Signature,
    /// masked key -> (priority, specificity, rule id)
    table: HashMap<Vec<u128>, (u16, u32, u32)>,
}

impl Tuple {
    fn key_of(&self, header: &HeaderValues) -> Option<Vec<u128>> {
        self.signature
            .iter()
            .map(|(field, dim)| {
                let v = header.get(*field);
                match dim {
                    Dim::Any => Some(0),
                    Dim::Prefix(len) => {
                        v.map(|v| v & oflow::flow_match::prefix_mask(field.bit_width(), *len))
                    }
                    Dim::Range(lo, hi) => match v {
                        Some(v) if u64::try_from(v).is_ok_and(|v| *lo <= v && v <= *hi) => Some(0),
                        _ => None,
                    },
                }
            })
            .collect()
    }
}

/// A tuple-space-search classifier.
#[derive(Debug, Clone)]
pub struct TupleSpaceSearch {
    tuples: Vec<Tuple>,
    fields: Vec<MatchFieldKind>,
    /// The stored rules (needed for incremental removal, which rebuilds
    /// the tuple space from the survivors, and for field-set extensions).
    rules: Vec<Rule>,
}

/// The signature and masked key of a rule over a fixed field list.
fn signature_of(rule: &Rule, fields: &[MatchFieldKind]) -> (Signature, Vec<u128>) {
    let mut signature: Signature = Vec::with_capacity(fields.len());
    let mut key: Vec<u128> = Vec::with_capacity(fields.len());
    for &field in fields {
        let width = field.bit_width();
        match rule.flow_match.field(field) {
            FieldMatch::Any => {
                signature.push((field, Dim::Any));
                key.push(0);
            }
            FieldMatch::Exact(v) => {
                signature.push((field, Dim::Prefix(width)));
                key.push(v);
            }
            FieldMatch::Prefix { value, len } => {
                signature.push((field, Dim::Prefix(len)));
                key.push(value);
            }
            FieldMatch::Range { lo, hi } => {
                signature.push((field, Dim::Range(lo as u64, hi as u64)));
                key.push(0);
            }
        }
    }
    (signature, key)
}

/// Merges one rule into a tuple's hash table (best priority wins a key).
fn merge_entry(tuple: &mut Tuple, key: Vec<u128>, rule: &Rule) {
    let candidate = (rule.priority, rule.flow_match.specificity(), rule.id);
    tuple
        .table
        .entry(key)
        .and_modify(|slot| {
            if (slot.0, slot.1) < (candidate.0, candidate.1) {
                *slot = candidate;
            }
        })
        .or_insert(candidate);
}

impl TupleSpaceSearch {
    /// Builds the tuple space from rules.
    #[must_use]
    pub fn new(rules: &[Rule]) -> Self {
        Self::from_rules(rules.to_vec())
    }

    /// Builds the tuple space, taking ownership of the rules (the rebuild
    /// paths use this to avoid re-cloning a rule set they already own).
    fn from_rules(rules: Vec<Rule>) -> Self {
        let mut fields: Vec<MatchFieldKind> = Vec::new();
        for r in &rules {
            for (f, m) in r.flow_match.parts() {
                if !m.is_wildcard() && !fields.contains(f) {
                    fields.push(*f);
                }
            }
        }
        fields.sort();

        let mut by_sig: HashMap<Signature, Tuple> = HashMap::new();
        for r in &rules {
            let (signature, key) = signature_of(r, &fields);
            let tuple = by_sig
                .entry(signature.clone())
                .or_insert_with(|| Tuple { signature, table: HashMap::new() });
            merge_entry(tuple, key, r);
        }
        Self { tuples: by_sig.into_values().collect(), fields, rules }
    }

    /// Number of tuples (hash tables probed per lookup).
    #[must_use]
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// The fields the tuple space covers.
    #[must_use]
    pub fn fields(&self) -> &[MatchFieldKind] {
        &self.fields
    }
}

impl ClassifierBuilder for TupleSpaceSearch {
    fn try_build(set: &FilterSet) -> Result<Self, BuildError> {
        Ok(Self::new(&set.rules))
    }
}

impl DynamicClassifier for TupleSpaceSearch {
    /// Inserts in place when the rule only constrains fields the tuple
    /// space already covers — one hash-table write into the (possibly
    /// fresh) tuple of its mask signature, the TSS fast path. A rule
    /// constraining a *new* field changes every signature, so the space
    /// is rebuilt.
    fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError> {
        let extends_fields = rule
            .flow_match
            .parts()
            .iter()
            .any(|(f, m)| !m.is_wildcard() && !self.fields.contains(f));
        if extends_fields {
            let mut rules = std::mem::take(&mut self.rules);
            rules.push(rule);
            let records = rules.len();
            *self = Self::from_rules(rules);
            return Ok(UpdateReport { records, rebuilt: true, compacted: false });
        }
        let (signature, key) = signature_of(&rule, &self.fields);
        let tuple = match self.tuples.iter_mut().find(|t| t.signature == signature) {
            Some(t) => t,
            None => {
                self.tuples.push(Tuple { signature, table: HashMap::new() });
                self.tuples.last_mut().expect("just pushed")
            }
        };
        merge_entry(tuple, key, &rule);
        self.rules.push(rule);
        Ok(UpdateReport { records: 1, rebuilt: false, compacted: false })
    }

    /// Removes by rebuilding from the surviving rules (several rules can
    /// collapse onto one masked key, so in-place deletion would need
    /// per-key shadow lists).
    fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport> {
        if !self.rules.iter().any(|r| r.id == rule_id) {
            return None;
        }
        let mut survivors = std::mem::take(&mut self.rules);
        survivors.retain(|r| r.id != rule_id);
        let records = survivors.len();
        *self = Self::from_rules(survivors);
        Some(UpdateReport { records, rebuilt: true, compacted: false })
    }
}

impl Classifier for TupleSpaceSearch {
    fn name(&self) -> &str {
        "tss"
    }

    fn classify(&self, header: &HeaderValues) -> Option<u32> {
        let mut best: Option<(u16, u32, u32)> = None;
        for t in &self.tuples {
            let Some(key) = t.key_of(header) else { continue };
            if let Some(&hit) = t.table.get(&key) {
                if best.is_none_or(|b| (b.0, b.1) < (hit.0, hit.1)) {
                    best = Some(hit);
                }
            }
        }
        best.map(|(_, _, id)| id)
    }

    fn memory_bits(&self) -> u64 {
        // Per tuple: a hash table at 50% load of masked keys + payload.
        self.tuples
            .iter()
            .map(|t| {
                let key_bits: u64 = t.signature.iter().map(|(f, _)| u64::from(f.bit_width())).sum();
                let capacity = (2 * t.table.len().max(1)).next_power_of_two() as u64;
                capacity * (1 + key_bits + 16 + 32)
            })
            .sum()
    }

    fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
        // One hash probe per tuple.
        self.tuples.len()
    }

    fn build_records(&self) -> usize {
        // One hash-table write per rule.
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_classify;
    use offilter::synth::{generate_acl, generate_routing, AclConfig, RoutingTargets};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn agrees_with_reference_on_acl() {
        let rules = generate_acl(&AclConfig { rules: 300, ..AclConfig::default() }, 31).rules;
        let tss = TupleSpaceSearch::new(&rules);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::IpProto, 6)
                .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()))
                .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()));
            assert_eq!(tss.classify(&h), reference_classify(&rules, &h), "header {h}");
        }
    }

    #[test]
    fn agrees_with_reference_on_routing() {
        let rules = generate_routing(
            &RoutingTargets {
                name: "t".into(),
                rules: 400,
                port_unique: 8,
                ip_partitions: [30, 250],
                short_prefixes: 3,
                out_ports: 8,
            },
            32,
        )
        .rules;
        let tss = TupleSpaceSearch::new(&rules);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::InPort, u128::from(rng.gen_range(0..40u32)))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()));
            assert_eq!(tss.classify(&h), reference_classify(&rules, &h), "header {h}");
        }
    }

    #[test]
    fn tuple_count_tracks_mask_diversity() {
        // Routing: one tuple per distinct prefix length (plus port dim).
        let rules = generate_routing(
            &RoutingTargets {
                name: "t".into(),
                rules: 300,
                port_unique: 5,
                ip_partitions: [20, 180],
                short_prefixes: 2,
                out_ports: 4,
            },
            33,
        )
        .rules;
        let tss = TupleSpaceSearch::new(&rules);
        assert!(tss.num_tuples() >= 2);
        assert!(tss.num_tuples() <= 33, "one per prefix length at most: {}", tss.num_tuples());
        // Probes per lookup = tuples.
        assert_eq!(tss.lookup_accesses(&HeaderValues::new()), tss.num_tuples());
    }

    #[test]
    fn empty_rules() {
        let tss = TupleSpaceSearch::new(&[]);
        assert_eq!(tss.classify(&HeaderValues::new()), None);
        assert_eq!(tss.num_tuples(), 0);
    }

    #[test]
    fn dynamic_updates_track_fresh_build() {
        let rules = generate_acl(&AclConfig { rules: 120, ..AclConfig::default() }, 35).rules;
        let (seed_rules, added_rules) = rules.split_at(80);
        let mut tss = TupleSpaceSearch::new(seed_rules);
        // Same field universe: every insert takes the in-place fast path.
        for r in added_rules {
            let report = tss.insert_rule(r.clone()).expect("insert works");
            assert!(!report.rebuilt, "rule {} forced a rebuild", r.id);
            assert_eq!(report.records, 1);
        }
        let fresh = TupleSpaceSearch::new(&rules);
        let mut rng = StdRng::seed_from_u64(36);
        for _ in 0..300 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::IpProto, 6)
                .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()))
                .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()));
            assert_eq!(tss.classify(&h), fresh.classify(&h), "header {h}");
        }
        // A rule over a brand-new field rebuilds the space.
        let widener = Rule::new(
            9_000,
            u16::MAX,
            oflow::FlowMatch::any().with_exact(MatchFieldKind::VlanVid, 7).unwrap(),
            offilter::RuleAction::Deny,
        );
        let report = tss.insert_rule(widener).expect("insert works");
        assert!(report.rebuilt);
        let h = HeaderValues::new().with(MatchFieldKind::VlanVid, 7);
        assert_eq!(tss.classify(&h), Some(9_000));
        // Removal rebuilds from survivors: the widener no longer matches,
        // only whatever catch-all the ACL set itself contains.
        let report = tss.remove_rule(9_000).expect("rule exists");
        assert!(report.rebuilt);
        assert_eq!(tss.classify(&h), reference_classify(&rules, &h));
        assert_ne!(tss.classify(&h), Some(9_000));
        assert!(tss.remove_rule(9_000).is_none());
    }
}
