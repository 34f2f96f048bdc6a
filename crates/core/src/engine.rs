//! Per-field search engines.
//!
//! A [`FieldEngine`] wraps one single-field algorithm with its label
//! dictionary. Engines answer two questions:
//!
//! * *build time* — intern a rule's field constraint, returning its label
//!   and the alternatives needed for index completion (nested values that
//!   could shadow it in a search);
//! * *lookup time* — produce the [`MatchChain`] of labels matching a
//!   header value, longest/most-specific first, including the wildcard
//!   label when rules with an unconstrained field exist.
//!
//! All build-time operations are fallible: a constraint an algorithm
//! cannot store (a range handed to an exact-match LUT, a prefix handed to
//! a range matcher) surfaces as a [`BuildError`] instead of a panic, so
//! the whole switch build path returns `Result`.

use classifier_api::BuildError;
use ofalgo::trie::UpdateCount;
use ofalgo::{Dictionary, HashLut, Label, MatchChain, PartitionedTrie, RangeMatcher};
use oflow::{FieldMatch, MatchFieldKind};
use ofmem::MemoryReport;

use crate::config::AlgorithmKind;

/// A built single-field engine.
#[derive(Debug, Clone)]
pub enum FieldEngine {
    /// Exact-match LUT with an optional wildcard label.
    Em {
        /// The hash LUT.
        lut: HashLut,
        /// Dictionary of exact values.
        dict: Dictionary<u64>,
        /// Label shared by all rules leaving the field unconstrained.
        any_label: Option<Label>,
    },
    /// Partitioned multi-bit tries (one label vector per rule value).
    Trie(PartitionedTrie),
    /// Range matcher with an optional wildcard label.
    Range {
        /// Stored ranges in dictionary order.
        ranges: Dictionary<(u64, u64)>,
        /// The built matcher (rebuilt after interning).
        matcher: RangeMatcher,
        /// Label shared by rules leaving the field unconstrained.
        any_label: Option<Label>,
    },
}

/// The engine-facing view of one rule's constraint on one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKey {
    /// Exact value.
    Exact(u64),
    /// Prefix (value aligned to field width).
    Prefix(u128, u32),
    /// Inclusive range.
    Range(u64, u64),
    /// Unconstrained.
    Any,
}

impl FieldKey {
    /// Converts a [`FieldMatch`] (validated against `field`).
    #[must_use]
    pub fn from_match(m: FieldMatch, field: MatchFieldKind) -> Self {
        match m {
            FieldMatch::Exact(v) => {
                if field.match_method() == oflow::MatchMethod::Lpm {
                    FieldKey::Prefix(v, field.bit_width())
                } else {
                    FieldKey::Exact(v as u64)
                }
            }
            FieldMatch::Prefix { value, len } => FieldKey::Prefix(value, len),
            FieldMatch::Range { lo, hi } => FieldKey::Range(lo as u64, hi as u64),
            FieldMatch::Any => FieldKey::Any,
        }
    }
}

/// Result of interning one rule field at build time.
#[derive(Debug, Clone)]
pub struct InternOutcome {
    /// The labels identifying this constraint (one per partition for
    /// tries, a single label otherwise).
    pub labels: Vec<Label>,
    /// Per position: alternative labels that can shadow this constraint at
    /// search time (same-level nested prefixes, nested ranges). Used for
    /// index completion.
    pub shadows: Vec<Vec<Label>>,
    /// Memory update records this intern wrote (zero when the value was
    /// already stored — the label method's saving).
    pub update: UpdateCount,
    /// Specificity of the constraint (bits pinned), for probe ordering.
    pub specificity: u32,
}

/// The [`BuildError::UnsupportedConstraint`] for `key` under `algorithm`.
fn unsupported(field: MatchFieldKind, algorithm: &'static str, key: FieldKey) -> BuildError {
    BuildError::UnsupportedConstraint { field, algorithm, constraint: format!("{key:?}") }
}

impl FieldEngine {
    /// Creates an empty engine for a field under the given algorithm.
    ///
    /// # Errors
    /// [`BuildError::InvalidSchedule`] if the algorithm cannot serve the
    /// field (MBT partitions not tiling the field width, or a stride
    /// schedule not covering a partition).
    pub fn try_new(
        field: MatchFieldKind,
        algorithm: &AlgorithmKind,
        expected: usize,
    ) -> Result<Self, BuildError> {
        match algorithm {
            AlgorithmKind::EmLut => Ok(FieldEngine::Em {
                lut: HashLut::with_capacity(field.bit_width().min(64), expected),
                dict: Dictionary::new(),
                any_label: None,
            }),
            AlgorithmKind::Mbt { partition_bits, strides } => {
                let width = field.bit_width();
                if *partition_bits == 0 || !width.is_multiple_of(*partition_bits) {
                    return Err(BuildError::InvalidSchedule {
                        field,
                        detail: format!(
                            "{partition_bits}-bit partitions do not tile the \
                             {width}-bit field"
                        ),
                    });
                }
                let schedule = ofalgo::StrideSchedule::new(strides.clone());
                if schedule.total_bits() != *partition_bits {
                    return Err(BuildError::InvalidSchedule {
                        field,
                        detail: format!(
                            "stride schedule {strides:?} covers {} bits, \
                             partition is {partition_bits}",
                            schedule.total_bits()
                        ),
                    });
                }
                Ok(FieldEngine::Trie(PartitionedTrie::with_schedule(
                    width,
                    *partition_bits,
                    schedule,
                )))
            }
            AlgorithmKind::Range => Ok(FieldEngine::Range {
                ranges: Dictionary::new(),
                matcher: RangeMatcher::new(field.bit_width().min(64), []),
                any_label: None,
            }),
        }
    }

    /// Number of label positions this engine contributes to the index key.
    #[must_use]
    pub fn label_positions(&self) -> usize {
        match self {
            FieldEngine::Trie(pt) => pt.partitions(),
            _ => 1,
        }
    }

    /// Label width per position (for index-key sizing).
    #[must_use]
    pub fn label_bits(&self) -> Vec<u32> {
        match self {
            FieldEngine::Em { dict, .. } => vec![ofmem::bits_for_index(dict.len().max(1))],
            FieldEngine::Trie(pt) => pt.dictionaries().iter().map(Dictionary::label_bits).collect(),
            FieldEngine::Range { ranges, .. } => {
                vec![ofmem::bits_for_index(ranges.len().max(1))]
            }
        }
    }

    /// Checks — without mutating anything — that this engine's algorithm
    /// can store a constraint of `key`'s shape. [`FieldEngine::intern`]
    /// fails exactly when this does, so callers that must stay atomic
    /// (incremental updates) validate every key up front.
    ///
    /// # Errors
    /// [`BuildError::UnsupportedConstraint`] when the shape cannot be
    /// stored.
    pub fn validate_key(&self, field: MatchFieldKind, key: FieldKey) -> Result<(), BuildError> {
        let supported = match self {
            FieldEngine::Em { .. } => matches!(key, FieldKey::Exact(_) | FieldKey::Any),
            FieldEngine::Trie(_) => !matches!(key, FieldKey::Range(..)),
            FieldEngine::Range { .. } => !matches!(key, FieldKey::Prefix(..)),
        };
        if supported {
            Ok(())
        } else {
            let algorithm = match self {
                FieldEngine::Em { .. } => "EM-LUT",
                FieldEngine::Trie(_) => "MBT",
                FieldEngine::Range { .. } => "RM",
            };
            Err(unsupported(field, algorithm, key))
        }
    }

    /// Interns a rule's constraint; see [`InternOutcome`].
    ///
    /// # Errors
    /// [`BuildError::UnsupportedConstraint`] when the constraint shape
    /// cannot be stored by this engine's algorithm.
    pub fn intern(
        &mut self,
        field: MatchFieldKind,
        key: FieldKey,
        field_bits: u32,
    ) -> Result<InternOutcome, BuildError> {
        match self {
            FieldEngine::Em { lut, dict, any_label } => match key {
                FieldKey::Exact(v) => {
                    let (label, is_new) = dict.intern(v);
                    let mut update = UpdateCount::default();
                    if is_new {
                        lut.insert(v, label);
                        update.entries_written = 1;
                    }
                    Ok(InternOutcome {
                        labels: vec![label],
                        shadows: vec![vec![]],
                        update,
                        specificity: field_bits,
                    })
                }
                FieldKey::Any => {
                    let label = *any_label.get_or_insert_with(|| {
                        let (l, _) = dict.intern(u64::MAX); // sentinel slot
                        l
                    });
                    Ok(InternOutcome {
                        labels: vec![label],
                        shadows: vec![vec![]],
                        update: UpdateCount::default(),
                        specificity: 0,
                    })
                }
                other => Err(unsupported(field, "EM-LUT", other)),
            },
            FieldEngine::Trie(pt) => {
                let (value, len) = match key {
                    FieldKey::Prefix(v, l) => (v, l),
                    FieldKey::Exact(v) => (u128::from(v), field_bits),
                    FieldKey::Any => (0, 0),
                    other => return Err(unsupported(field, "MBT", other)),
                };
                let (labels, update) = pt.insert(value, len);
                let shadows = pt.shadow_labels(value, len);
                Ok(InternOutcome { labels, shadows, update, specificity: len })
            }
            FieldEngine::Range { ranges, matcher, any_label } => {
                let full = if field_bits >= 64 { u64::MAX } else { (1 << field_bits) - 1 };
                match key {
                    FieldKey::Range(lo, hi) => {
                        let (label, is_new) = ranges.intern((lo, hi));
                        let mut update = UpdateCount::default();
                        if is_new {
                            *matcher = RangeMatcher::new(
                                field_bits.min(64),
                                ranges
                                    .values()
                                    .iter()
                                    .enumerate()
                                    .map(|(i, &(l, h))| (l, h, Label(i as u32))),
                            );
                            // Segment-table rewrite: one record per segment.
                            update.entries_written = matcher.segments();
                        }
                        // Shadows: stored ranges that intersect this one
                        // and are no wider (they can win the narrowest-
                        // range tie somewhere in the intersection).
                        let shadows = ranges
                            .values()
                            .iter()
                            .enumerate()
                            .filter(|&(_, &(l, h))| {
                                (l, h) != (lo, hi) && l <= hi && lo <= h && h - l <= hi - lo
                            })
                            .map(|(i, _)| Label(i as u32))
                            .collect();
                        let narrowness = field_bits.saturating_sub(64 - (hi - lo).leading_zeros());
                        Ok(InternOutcome {
                            labels: vec![label],
                            shadows: vec![shadows],
                            update,
                            specificity: narrowness,
                        })
                    }
                    FieldKey::Exact(v) => self.intern(field, FieldKey::Range(v, v), field_bits),
                    FieldKey::Any => {
                        // Wildcard = the full range; shadowed by everything.
                        let (label, is_new) = ranges.intern((0, full));
                        if is_new {
                            *matcher = RangeMatcher::new(
                                field_bits.min(64),
                                ranges
                                    .values()
                                    .iter()
                                    .enumerate()
                                    .map(|(i, &(l, h))| (l, h, Label(i as u32))),
                            );
                        }
                        *any_label = Some(label);
                        let shadows = ranges
                            .values()
                            .iter()
                            .enumerate()
                            .filter(|&(_, &(l, h))| (l, h) != (0, full))
                            .map(|(i, _)| Label(i as u32))
                            .collect();
                        Ok(InternOutcome {
                            labels: vec![label],
                            shadows: vec![shadows],
                            update: UpdateCount::default(),
                            specificity: 0,
                        })
                    }
                    other => Err(unsupported(field, "RM", other)),
                }
            }
        }
    }

    /// The labels an already-interned constraint maps to, one per label
    /// position — the read-only twin of [`FieldEngine::intern`], which
    /// incremental removal uses to find the index entries a stored rule
    /// owns. `None` when the constraint was never interned, when its
    /// shape does not belong to this engine, and for range engines —
    /// a rule's entries in a range table include shadow completions its
    /// own label does not name, so those tables are never edited in place.
    #[must_use]
    pub fn labels_of(&self, key: FieldKey, field_bits: u32) -> Option<Vec<Label>> {
        match (self, key) {
            (FieldEngine::Em { dict, .. }, FieldKey::Exact(v)) => dict.get(&v).map(|l| vec![l]),
            (FieldEngine::Em { any_label, .. }, FieldKey::Any) => any_label.map(|l| vec![l]),
            (FieldEngine::Trie(pt), FieldKey::Prefix(v, l)) => pt.labels_of(v, l),
            (FieldEngine::Trie(pt), FieldKey::Exact(v)) => pt.labels_of(u128::from(v), field_bits),
            (FieldEngine::Trie(pt), FieldKey::Any) => pt.labels_of(0, 0),
            _ => None,
        }
    }

    /// Distinct labels handed out so far, per label position (the sizes
    /// of the engine's dictionaries).
    #[must_use]
    pub fn labels_issued(&self) -> Vec<usize> {
        match self {
            FieldEngine::Em { dict, .. } => vec![dict.len()],
            FieldEngine::Trie(pt) => pt.dictionaries().iter().map(Dictionary::len).collect(),
            FieldEngine::Range { ranges, .. } => vec![ranges.len()],
        }
    }

    /// Shadow sets for a constraint, computed against the *complete*
    /// dictionaries. The switch builder calls this in a second pass after
    /// all rules are interned — shadows returned by [`FieldEngine::intern`]
    /// only know the values stored so far.
    ///
    /// # Errors
    /// [`BuildError::UnsupportedConstraint`] when the constraint shape
    /// does not belong to this engine's algorithm.
    pub fn shadows_for(
        &self,
        field: MatchFieldKind,
        key: FieldKey,
        field_bits: u32,
    ) -> Result<Vec<Vec<Label>>, BuildError> {
        match self {
            FieldEngine::Em { .. } => Ok(vec![vec![]]),
            // Tries need no completion: effective_chains() already returns
            // the full ancestor closure, which is exactly the set of
            // stored prefixes matching a key.
            FieldEngine::Trie(pt) => {
                let _ = key;
                Ok(vec![Vec::new(); pt.partitions()])
            }
            FieldEngine::Range { ranges, .. } => {
                let full = if field_bits >= 64 { u64::MAX } else { (1 << field_bits) - 1 };
                let (lo, hi) = match key {
                    FieldKey::Range(l, h) => (l, h),
                    FieldKey::Exact(v) => (v, v),
                    FieldKey::Any => (0, full),
                    other => return Err(unsupported(field, "RM", other)),
                };
                let shadows = ranges
                    .values()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(l, h))| {
                        (l, h) != (lo, hi) && l <= hi && lo <= h && h - l <= hi - lo
                    })
                    .map(|(i, _)| Label(i as u32))
                    .collect();
                Ok(vec![shadows])
            }
        }
    }

    /// Searches a header value, returning one chain per label position.
    #[must_use]
    pub fn search(&self, value: u128) -> Vec<MatchChain> {
        let mut out = vec![MatchChain::default(); self.label_positions()];
        self.search_into(value, &mut out);
        out
    }

    /// As [`FieldEngine::search`], writing into caller-provided chains
    /// (one per label position) so batch classification reuses the match
    /// buffers across packets instead of allocating per lookup.
    ///
    /// # Panics
    /// Panics if `out` has fewer slots than [`FieldEngine::label_positions`].
    pub fn search_into(&self, value: u128, out: &mut [MatchChain]) {
        match self {
            FieldEngine::Em { lut, any_label, .. } => {
                let chain = &mut out[0];
                chain.clear();
                if let Some(l) = lut.lookup(value as u64) {
                    chain.push(l, 64);
                }
                if let Some(l) = any_label {
                    chain.push(*l, 0);
                }
            }
            FieldEngine::Trie(pt) => pt.effective_chains_into(value, out),
            FieldEngine::Range { matcher, any_label, .. } => {
                let chain = &mut out[0];
                chain.clear();
                if let Some(l) = matcher.lookup(value as u64) {
                    chain.push(l, 32);
                }
                if let Some(l) = any_label {
                    if chain.best().map(|(m, _)| m) != Some(*l) {
                        chain.push(*l, 0);
                    }
                }
            }
        }
    }

    /// Batched, strided search: packet `j`'s chains for this engine are
    /// written to `out[j * stride + offset ..][..label_positions]`, with
    /// `values[j]` the packet's header value (`None` when the packet
    /// lacks the field — only wildcard entries can match it).
    ///
    /// Trie engines walk their partition tries **interleaved**: groups of
    /// up to [`ofalgo::MULTI_WAY`] packets advance level-synchronously
    /// through the flattened arenas
    /// ([`PartitionedTrie::effective_chains_multi_scatter`]), overlapping
    /// the independent per-level loads. Single-probe engines (LUT, range
    /// segments) loop per packet — they have no levels to interleave.
    /// Allocation-free once the chains' buffers have grown.
    ///
    /// # Panics
    /// Panics if any strided output index falls outside `out`.
    pub fn search_many_into(
        &self,
        values: &[Option<u128>],
        out: &mut [MatchChain],
        stride: usize,
        offset: usize,
    ) {
        match self {
            FieldEngine::Trie(pt) => {
                const WAY: usize = ofalgo::MULTI_WAY;
                let width = pt.partitions();
                let mut keys = [0u128; WAY];
                let mut lanes = [0u32; WAY];
                let mut group = 0usize;
                for (j, v) in values.iter().enumerate() {
                    match v {
                        Some(v) => {
                            keys[group] = *v;
                            lanes[group] = j as u32;
                            group += 1;
                            if group == WAY {
                                pt.effective_chains_multi_scatter(
                                    &keys, &lanes, out, stride, offset,
                                );
                                group = 0;
                            }
                        }
                        None => {
                            let base = j * stride + offset;
                            self.search_missing_into(&mut out[base..base + width]);
                        }
                    }
                }
                if group > 0 {
                    pt.effective_chains_multi_scatter(
                        &keys[..group],
                        &lanes[..group],
                        out,
                        stride,
                        offset,
                    );
                }
            }
            _ => {
                let width = self.label_positions();
                for (j, v) in values.iter().enumerate() {
                    let base = j * stride + offset;
                    match v {
                        Some(v) => self.search_into(*v, &mut out[base..base + width]),
                        None => self.search_missing_into(&mut out[base..base + width]),
                    }
                }
            }
        }
    }

    /// Finalizes the engine after all rules are interned (computes the
    /// trie ancestor tables). Must run before [`FieldEngine::search`] on
    /// trie engines.
    pub fn finalize(&mut self) {
        if let FieldEngine::Trie(pt) = self {
            // A finalized trie keeps its ancestor tables current across
            // inserts, so only a never-finalized one (fresh build or
            // decode) pays the full recompute.
            if !pt.is_finalized() {
                pt.finalize();
            }
        }
    }

    /// Chains for a header that lacks the field entirely (OpenFlow
    /// prerequisites): only wildcard entries can match.
    #[must_use]
    pub fn search_missing(&self) -> Vec<MatchChain> {
        let mut out = vec![MatchChain::default(); self.label_positions()];
        self.search_missing_into(&mut out);
        out
    }

    /// As [`FieldEngine::search_missing`], writing into caller-provided
    /// chains.
    ///
    /// # Panics
    /// Panics if `out` has fewer slots than [`FieldEngine::label_positions`].
    pub fn search_missing_into(&self, out: &mut [MatchChain]) {
        match self {
            FieldEngine::Em { any_label, .. } | FieldEngine::Range { any_label, .. } => {
                out[0].clear();
                if let Some(l) = any_label {
                    out[0].push(*l, 0);
                }
            }
            FieldEngine::Trie(pt) => {
                for (i, chain) in out.iter_mut().enumerate().take(pt.partitions()) {
                    chain.clear();
                    if let Some(l) = pt.dictionaries()[i].get(&(0, 0)) {
                        chain.push(l, 0);
                    }
                }
            }
        }
    }

    /// Structural memory accesses one lookup through this engine costs
    /// (one LUT probe, one walk per partition trie, one segment search).
    #[must_use]
    pub fn search_accesses(&self) -> usize {
        self.label_positions()
    }

    /// Memory report for this engine.
    #[must_use]
    pub fn memory_report(&self, name: &str) -> MemoryReport {
        let mut out = MemoryReport::new();
        match self {
            FieldEngine::Em { lut, dict, .. } => {
                out.merge(lut.memory_report(name, Some(ofmem::bits_for_index(dict.len().max(1)))));
            }
            FieldEngine::Trie(pt) => out.merge_under(name, pt.memory_report()),
            FieldEngine::Range { matcher, ranges, .. } => {
                out.merge(matcher.memory_report(name, Some(ranges.label_bits())));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oflow::MatchFieldKind::*;

    fn engine(field: MatchFieldKind, algorithm: &AlgorithmKind) -> FieldEngine {
        FieldEngine::try_new(field, algorithm, 16).expect("valid algorithm/field pair")
    }

    #[test]
    fn em_engine_intern_and_search() {
        let mut e = engine(VlanVid, &AlgorithmKind::EmLut);
        let o1 = e.intern(VlanVid, FieldKey::Exact(100), 13).unwrap();
        let o2 = e.intern(VlanVid, FieldKey::Exact(100), 13).unwrap();
        assert_eq!(o1.labels, o2.labels);
        assert_eq!(o1.update.records(), 1);
        assert_eq!(o2.update.records(), 0);
        let chains = e.search(100);
        assert_eq!(chains[0].best().unwrap().0, o1.labels[0]);
        assert!(e.search(101)[0].is_empty());
    }

    #[test]
    fn em_engine_wildcard_label() {
        let mut e = engine(VlanVid, &AlgorithmKind::EmLut);
        let o_any = e.intern(VlanVid, FieldKey::Any, 13).unwrap();
        let o_val = e.intern(VlanVid, FieldKey::Exact(5), 13).unwrap();
        // A header matching the exact value also reports the any label.
        let chain = &e.search(5)[0];
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.as_slice()[0].0, o_val.labels[0]);
        assert_eq!(chain.as_slice()[1].0, o_any.labels[0]);
        // A header matching nothing still reports the any label.
        let chain = &e.search(77)[0];
        assert_eq!(chain.as_slice(), &[(o_any.labels[0], 0)]);
    }

    #[test]
    fn trie_engine_partition_labels() {
        let mut e = engine(Ipv4Dst, &AlgorithmKind::classic_mbt());
        let o = e.intern(Ipv4Dst, FieldKey::Prefix(0x0A01_0200, 24), 32).unwrap();
        assert_eq!(o.labels.len(), 2);
        assert_eq!(o.specificity, 24);
        e.finalize();
        let chains = e.search(0x0A01_02FF);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].best().unwrap().0, o.labels[0]);
        assert_eq!(chains[1].best().unwrap().0, o.labels[1]);
    }

    #[test]
    fn trie_engine_ancestor_closure_in_chains() {
        let mut e = engine(Ipv4Dst, &AlgorithmKind::classic_mbt());
        // Same-level nested lower prefixes: /4 (rule len 20) and /2 (18).
        let o_long = e.intern(Ipv4Dst, FieldKey::Prefix(0x0A01_1000, 20), 32).unwrap();
        let o_short = e.intern(Ipv4Dst, FieldKey::Prefix(0x0A01_0000, 18), 32).unwrap();
        // No completion shadows are needed for tries...
        assert!(
            e.shadows_for(Ipv4Dst, FieldKey::Prefix(0x0A01_0000, 18), 32).unwrap()[1].is_empty()
        );
        e.finalize();
        // ...because a key under the /4 reports BOTH labels via ancestors.
        let chains = e.search(0x0A01_1234);
        let lower: Vec<_> = chains[1].iter().map(|(l, _)| l).collect();
        assert!(lower.contains(&o_long.labels[1]));
        assert!(lower.contains(&o_short.labels[1]));
        // A key under the /2 but outside the /4 reports only the /2.
        let chains = e.search(0x0A01_0234);
        let lower: Vec<_> = chains[1].iter().map(|(l, _)| l).collect();
        assert!(lower.contains(&o_short.labels[1]));
        assert!(!lower.contains(&o_long.labels[1]));
    }

    #[test]
    fn range_engine_nested_shadows() {
        let mut e = engine(TcpDst, &AlgorithmKind::Range);
        let o_narrow = e.intern(TcpDst, FieldKey::Range(100, 200), 16).unwrap();
        let o_wide = e.intern(TcpDst, FieldKey::Range(0, 1000), 16).unwrap();
        assert_eq!(o_wide.shadows[0], vec![o_narrow.labels[0]]);
        assert!(o_narrow.shadows[0].is_empty());
        // Search in the nested region reports the narrow label first.
        let chain = &e.search(150)[0];
        assert_eq!(chain.best().unwrap().0, o_narrow.labels[0]);
    }

    #[test]
    fn range_engine_any_is_full_range() {
        let mut e = engine(TcpDst, &AlgorithmKind::Range);
        let o_any = e.intern(TcpDst, FieldKey::Any, 16).unwrap();
        let o_exact = e.intern(TcpDst, FieldKey::Exact(80), 16).unwrap();
        let chain = &e.search(80)[0];
        assert_eq!(chain.as_slice()[0].0, o_exact.labels[0]);
        assert!(chain.iter().any(|(l, _)| l == o_any.labels[0]));
        let chain = &e.search(81)[0];
        assert_eq!(chain.as_slice()[0].0, o_any.labels[0]);
    }

    #[test]
    fn labels_of_agrees_with_intern_and_never_mutates() {
        for (field, alg, keys) in [
            (VlanVid, AlgorithmKind::EmLut, vec![FieldKey::Exact(7), FieldKey::Any]),
            (
                Ipv4Dst,
                AlgorithmKind::classic_mbt(),
                vec![
                    FieldKey::Prefix(0x0A01_0200, 24),
                    FieldKey::Prefix(0x0A00_0000, 8),
                    FieldKey::Any,
                ],
            ),
        ] {
            let mut e = engine(field, &alg);
            let bits = field.bit_width();
            for &k in &keys {
                assert_eq!(e.labels_of(k, bits), None, "{k:?} before interning");
            }
            let issued_empty = e.labels_issued();
            for &k in &keys {
                let interned = e.intern(field, k, bits).unwrap().labels;
                assert_eq!(e.labels_of(k, bits), Some(interned), "{k:?}");
            }
            assert!(e.labels_issued().iter().zip(&issued_empty).all(|(now, then)| now > then));
        }
        let mut ranges = engine(TcpDst, &AlgorithmKind::Range);
        ranges.intern(TcpDst, FieldKey::Range(10, 20), 16).unwrap();
        assert_eq!(ranges.labels_of(FieldKey::Range(10, 20), 16), None, "never edited in place");
    }

    #[test]
    fn label_positions_and_bits() {
        let e = engine(EthDst, &AlgorithmKind::classic_mbt());
        assert_eq!(e.label_positions(), 3);
        assert_eq!(e.label_bits().len(), 3);
        assert_eq!(e.search_accesses(), 3);
        let e = engine(VlanVid, &AlgorithmKind::EmLut);
        assert_eq!(e.label_positions(), 1);
        assert_eq!(e.search_accesses(), 1);
    }

    #[test]
    fn memory_reports_nonempty() {
        let mut e = engine(EthDst, &AlgorithmKind::classic_mbt());
        e.intern(EthDst, FieldKey::Prefix(0xAABB_CCDD_EEFF, 48), 48).unwrap();
        let r = e.memory_report("eth");
        assert!(r.total_bits() > 0);
        assert!(r.bits_under("eth/lower") > 0);
    }

    #[test]
    fn em_engine_rejects_prefix_as_error() {
        let mut e = engine(VlanVid, &AlgorithmKind::EmLut);
        let err = e.intern(VlanVid, FieldKey::Prefix(0, 4), 13).unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedConstraint { .. }), "{err:?}");
        assert!(err.to_string().contains("EM-LUT"), "{err}");
    }

    #[test]
    fn range_engine_rejects_prefix_as_error() {
        let mut e = engine(TcpDst, &AlgorithmKind::Range);
        let err = e.intern(TcpDst, FieldKey::Prefix(0, 4), 16).unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedConstraint { .. }), "{err:?}");
        let err = e.shadows_for(TcpDst, FieldKey::Prefix(0, 4), 16).unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedConstraint { .. }), "{err:?}");
    }

    #[test]
    fn bad_schedules_are_errors_not_panics() {
        // Partition width not tiling the field.
        let err = FieldEngine::try_new(
            Ipv4Dst,
            &AlgorithmKind::Mbt { partition_bits: 5, strides: vec![5] },
            4,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidSchedule { .. }), "{err:?}");
        // Strides not covering the partition.
        let err = FieldEngine::try_new(
            Ipv4Dst,
            &AlgorithmKind::Mbt { partition_bits: 16, strides: vec![5, 5] },
            4,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidSchedule { .. }), "{err:?}");
    }
}
