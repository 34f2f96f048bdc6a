//! TCAM cost model (the paper's Table I "Hardware-based" row).
//!
//! A TCAM stores one *ternary* word per entry (each bit 0/1/don't-care)
//! and searches all rows in parallel. The model captures the two costs the
//! paper holds against TCAMs:
//!
//! * **storage expansion** — ranges have no ternary form, so each range is
//!   split into covering prefixes (worst case `2w - 2` per range), and the
//!   ternary word doubles the stored bits (value + care mask);
//! * **power** — every lookup activates all rows; we report
//!   searched-bits-per-lookup as the power proxy.
//!
//! Functionally the model matches lowest-index-wins TCAM semantics, with
//! entries ordered by rule priority.

use crate::{BuildError, Classifier, ClassifierBuilder};
use offilter::{FilterSet, Rule};
use oflow::{FieldMatch, HeaderValues, MatchFieldKind};

/// One ternary entry: per-field value and care mask.
#[derive(Debug, Clone)]
struct TernaryEntry {
    fields: Vec<(MatchFieldKind, u128, u128)>, // (field, value, care mask)
    rule_id: u32,
}

impl TernaryEntry {
    fn matches(&self, header: &HeaderValues) -> bool {
        self.fields.iter().all(|&(field, value, care)| {
            if care == 0 {
                return true;
            }
            match header.get(field) {
                Some(v) => v & care == value & care,
                None => false,
            }
        })
    }
}

/// Splits an inclusive range into covering (value, prefix-care) pairs —
/// the classic range-to-prefix expansion.
#[must_use]
pub fn range_to_prefixes(lo: u64, hi: u64, width: u32) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let full = if width == 64 { u64::MAX } else { (1 << width) - 1 };
    let mut lo = lo;
    loop {
        // Largest aligned block starting at lo that stays within hi.
        let max_align = if lo == 0 { width } else { lo.trailing_zeros().min(width) };
        let mut size = 1u64 << max_align;
        while size > 1 && (lo + size - 1) > hi {
            size >>= 1;
        }
        let care = full & !(size - 1);
        out.push((lo, care));
        let end = lo + size - 1;
        if end >= hi {
            break;
        }
        lo = end + 1;
    }
    out
}

/// A modeled TCAM.
#[derive(Debug, Clone)]
pub struct TcamModel {
    entries: Vec<TernaryEntry>,
    word_bits: u32,
    original_rules: usize,
}

impl TcamModel {
    /// Builds the TCAM from rules. The word covers every field any rule
    /// constrains; ranges expand into prefixes (entry replication).
    #[must_use]
    pub fn new(rules: &[Rule]) -> Self {
        // Word layout: union of constrained fields.
        let mut word_fields: Vec<MatchFieldKind> = Vec::new();
        for r in rules {
            for (f, m) in r.flow_match.parts() {
                if !m.is_wildcard() && !word_fields.contains(f) {
                    word_fields.push(*f);
                }
            }
        }
        word_fields.sort();
        let word_bits: u32 = word_fields.iter().map(|f| f.bit_width()).sum();

        let mut ordered: Vec<&Rule> = rules.iter().collect();
        ordered.sort_by_key(|r| std::cmp::Reverse(classifier_api::precedence(r)));

        let mut entries = Vec::new();
        for r in &ordered {
            // Cartesian expansion over range fields.
            let mut partial: Vec<Vec<(MatchFieldKind, u128, u128)>> = vec![Vec::new()];
            for &field in &word_fields {
                let width = field.bit_width();
                let full = field.value_mask();
                match r.flow_match.field(field) {
                    FieldMatch::Any => {
                        for p in &mut partial {
                            p.push((field, 0, 0));
                        }
                    }
                    FieldMatch::Exact(v) => {
                        for p in &mut partial {
                            p.push((field, v, full));
                        }
                    }
                    FieldMatch::Prefix { value, len } => {
                        let care = oflow::flow_match::prefix_mask(width, len);
                        for p in &mut partial {
                            p.push((field, value, care));
                        }
                    }
                    FieldMatch::Range { lo, hi } => {
                        let expansions = range_to_prefixes(lo as u64, hi as u64, width);
                        let mut next = Vec::with_capacity(partial.len() * expansions.len());
                        for p in &partial {
                            for &(v, care) in &expansions {
                                let mut q = p.clone();
                                q.push((field, u128::from(v), u128::from(care)));
                                next.push(q);
                            }
                        }
                        partial = next;
                    }
                }
            }
            for fields in partial {
                entries.push(TernaryEntry { fields, rule_id: r.id });
            }
        }
        Self { entries, word_bits, original_rules: rules.len() }
    }

    /// Physical TCAM entries after range expansion.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Expansion factor over the original rule count.
    #[must_use]
    pub fn expansion_factor(&self) -> f64 {
        if self.original_rules == 0 {
            1.0
        } else {
            self.entries.len() as f64 / self.original_rules as f64
        }
    }

    /// Ternary word width in bits (values only; masks double it in
    /// storage).
    #[must_use]
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Bits activated per lookup — the power proxy (all rows searched).
    #[must_use]
    pub fn searched_bits_per_lookup(&self) -> u64 {
        self.entries.len() as u64 * u64::from(self.word_bits)
    }
}

impl ClassifierBuilder for TcamModel {
    fn try_build(set: &FilterSet) -> Result<Self, BuildError> {
        Ok(Self::new(&set.rules))
    }
}

impl Classifier for TcamModel {
    fn name(&self) -> &str {
        "tcam"
    }

    fn classify(&self, header: &HeaderValues) -> Option<u32> {
        // Lowest index wins (entries are in priority order).
        self.entries.iter().find(|e| e.matches(header)).map(|e| e.rule_id)
    }

    fn memory_bits(&self) -> u64 {
        // Value + care mask per entry.
        2 * self.entries.len() as u64 * u64::from(self.word_bits)
    }

    fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
        // Parallel search: a single access cycle regardless of size...
        1
    }

    fn build_records(&self) -> usize {
        // One ternary row per entry, range expansion included.
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_classify;
    use offilter::synth::{generate_acl, AclConfig};
    use offilter::RuleAction;
    use oflow::FlowMatch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn range_to_prefix_examples() {
        // [0, 65535] over 16 bits is a single don't-care word.
        assert_eq!(range_to_prefixes(0, 65_535, 16), vec![(0, 0xFFFF & !0xFFFF)]);
        // [1024, 2047] is one aligned block.
        assert_eq!(range_to_prefixes(1024, 2047, 16).len(), 1);
        // The classic worst case [1, 65534] needs 2w - 2 = 30 prefixes.
        assert_eq!(range_to_prefixes(1, 65_534, 16).len(), 30);
        // A singleton is exact.
        assert_eq!(range_to_prefixes(80, 80, 16), vec![(80, 0xFFFF)]);
    }

    #[test]
    fn covering_is_exact() {
        // Every expansion covers exactly the range.
        for (lo, hi) in [(1u64, 10u64), (100, 227), (0, 1), (5, 5), (1, 65_534)] {
            let prefixes = range_to_prefixes(lo, hi, 16);
            for v in 0..=65_535u64 {
                let covered = prefixes.iter().any(|&(p, care)| v & care == p & care);
                assert_eq!(covered, (lo..=hi).contains(&v), "v={v} range=[{lo},{hi}]");
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_acl() {
        let rules = generate_acl(&AclConfig { rules: 200, ..AclConfig::default() }, 21).rules;
        let tcam = TcamModel::new(&rules);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::IpProto, 6)
                .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()))
                .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()));
            assert_eq!(tcam.classify(&h), reference_classify(&rules, &h), "header {h}");
        }
    }

    #[test]
    fn range_rules_expand_entries() {
        let rule = Rule::new(
            0,
            1,
            FlowMatch::any().with_range(MatchFieldKind::TcpDst, 1, 65_534).unwrap(),
            RuleAction::Deny,
        );
        let tcam = TcamModel::new(&[rule]);
        assert_eq!(tcam.entries(), 30);
        assert!((tcam.expansion_factor() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn power_proxy_scales_with_entries() {
        let rules = generate_acl(&AclConfig { rules: 100, ..AclConfig::default() }, 5).rules;
        let tcam = TcamModel::new(&rules);
        assert_eq!(
            tcam.searched_bits_per_lookup(),
            tcam.entries() as u64 * u64::from(tcam.word_bits())
        );
        assert_eq!(tcam.memory_bits(), 2 * tcam.searched_bits_per_lookup());
    }

    #[test]
    fn empty_rules() {
        let tcam = TcamModel::new(&[]);
        assert_eq!(tcam.entries(), 0);
        assert_eq!(tcam.classify(&HeaderValues::new()), None);
    }
}
