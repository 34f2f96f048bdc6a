//! Priority-ordered linear search — the semantic reference.
//!
//! Every other classifier is validated against this one. Its memory model
//! stores each rule's full match data (value + mask per constrained
//! field), i.e. the storage a naive software table would need.

use crate::{BuildError, Classifier, ClassifierBuilder};
use offilter::{FilterSet, Rule};
use oflow::{FieldMatch, HeaderValues};

/// A linear-scan classifier over rules sorted by priority.
#[derive(Debug, Clone)]
pub struct LinearClassifier {
    rules: Vec<Rule>,
}

impl LinearClassifier {
    /// Builds from rules (sorted internally by descending
    /// [`classifier_api::precedence`]).
    #[must_use]
    pub fn new(mut rules: Vec<Rule>) -> Self {
        rules.sort_by_key(|r| std::cmp::Reverse(classifier_api::precedence(r)));
        Self { rules }
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl ClassifierBuilder for LinearClassifier {
    fn try_build(set: &FilterSet) -> Result<Self, BuildError> {
        Ok(Self::new(set.rules.clone()))
    }
}

impl Classifier for LinearClassifier {
    fn name(&self) -> &str {
        "linear"
    }

    fn classify(&self, header: &HeaderValues) -> Option<u32> {
        self.rules.iter().find(|r| r.flow_match.matches(header)).map(|r| r.id)
    }

    fn memory_bits(&self) -> u64 {
        self.rules
            .iter()
            .map(|r| {
                r.flow_match
                    .parts()
                    .iter()
                    .map(|(f, m)| match m {
                        // Value + mask (prefix/exact) or two bounds (range).
                        FieldMatch::Any => 0,
                        _ => 2 * u64::from(f.bit_width()),
                    })
                    .sum::<u64>()
                    + 16 // priority
                    + 32 // action
            })
            .sum()
    }

    fn lookup_accesses(&self, header: &HeaderValues) -> usize {
        // Rules inspected until the first match (all on miss).
        match self.rules.iter().position(|r| r.flow_match.matches(header)) {
            Some(i) => i + 1,
            None => self.rules.len(),
        }
    }

    fn build_records(&self) -> usize {
        // One stored row per rule.
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_classify;
    use offilter::synth::{generate_acl, AclConfig};
    use oflow::MatchFieldKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn acl() -> Vec<Rule> {
        generate_acl(&AclConfig { rules: 300, ..AclConfig::default() }, 9).rules
    }

    fn random_headers(n: usize, seed: u64) -> Vec<HeaderValues> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                HeaderValues::new()
                    .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                    .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                    .with(MatchFieldKind::IpProto, if rng.gen_bool(0.7) { 6 } else { 17 })
                    .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()))
                    .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()))
            })
            .collect()
    }

    #[test]
    fn agrees_with_reference() {
        let rules = acl();
        let c = LinearClassifier::new(rules.clone());
        for h in random_headers(500, 1) {
            assert_eq!(c.classify(&h), reference_classify(&rules, &h), "header {h}");
        }
    }

    #[test]
    fn memory_counts_constrained_fields_only() {
        let rules = acl();
        let c = LinearClassifier::new(rules);
        assert!(c.memory_bits() > 0);
        let empty = LinearClassifier::new(vec![]);
        assert_eq!(empty.memory_bits(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn accesses_bounded_by_rule_count() {
        let rules = acl();
        let n = rules.len();
        let c = LinearClassifier::new(rules);
        for h in random_headers(100, 2) {
            let a = c.lookup_accesses(&h);
            assert!(a >= 1 && a <= n);
        }
    }
}
