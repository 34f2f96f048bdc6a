//! HiCuts-style decision tree (the paper's Table I "Trie-Geometric" row).
//!
//! HiCuts/HyperCuts partition the multi-dimensional match space with
//! equal-width cuts along one dimension per node, descending until at most
//! `binth` rules remain, then scanning them linearly. Its defining cost is
//! **rule replication**: "HyperCuts requires that the same rule be stored
//! in several trie nodes, which leads to inefficient memory use" (paper
//! §III.B) — the effect the label method is designed to avoid. The tree
//! tracks replication explicitly so experiments can compare it against the
//! decomposition architecture's completion-entry overhead.

use crate::{BuildError, Classifier, ClassifierBuilder};
use offilter::{FilterSet, Rule};
use oflow::{FieldMatch, HeaderValues, MatchFieldKind};

/// Build parameters.
#[derive(Debug, Clone, Copy)]
pub struct HiCutsParams {
    /// Maximum rules in a leaf before cutting.
    pub binth: usize,
    /// Cuts per node (power of two).
    pub cuts: usize,
    /// Maximum tree depth (safety bound against unsplittable overlaps).
    pub max_depth: usize,
}

impl Default for HiCutsParams {
    fn default() -> Self {
        Self { binth: 8, cuts: 4, max_depth: 24 }
    }
}

/// A node's cut region in one dimension.
#[derive(Debug, Clone, Copy)]
struct Region {
    lo: u128,
    hi: u128,
}

#[derive(Debug)]
enum Node {
    Internal {
        field: MatchFieldKind,
        /// Region covered in the cut dimension.
        region: Region,
        children: Vec<Node>,
    },
    /// Rule *positions* (indices into `HiCutsTree::rules`, not rule ids).
    Leaf(Vec<u32>),
}

/// Rule projection onto a field as a range.
fn rule_range(rule: &Rule, field: MatchFieldKind) -> Region {
    let width = field.bit_width();
    let full = field.value_mask();
    match rule.flow_match.field(field) {
        FieldMatch::Any => Region { lo: 0, hi: full },
        FieldMatch::Exact(v) => Region { lo: v, hi: v },
        FieldMatch::Prefix { value, len } => {
            let mask = oflow::flow_match::prefix_mask(width, len);
            Region { lo: value & mask, hi: (value & mask) | (full & !mask) }
        }
        FieldMatch::Range { lo, hi } => Region { lo, hi },
    }
}

fn overlaps(a: Region, b: Region) -> bool {
    a.lo <= b.hi && b.lo <= a.hi
}

/// A HiCuts-style classifier.
#[derive(Debug)]
pub struct HiCutsTree {
    rules: Vec<Rule>,
    root: Node,
    fields: Vec<MatchFieldKind>,
    stored_rule_refs: usize,
    nodes: usize,
    max_depth_seen: usize,
}

impl HiCutsTree {
    /// Builds the tree.
    #[must_use]
    pub fn new(rules: Vec<Rule>, params: HiCutsParams) -> Self {
        let mut fields: Vec<MatchFieldKind> = Vec::new();
        for r in &rules {
            for (f, m) in r.flow_match.parts() {
                if !m.is_wildcard() && !fields.contains(f) {
                    fields.push(*f);
                }
            }
        }
        fields.sort();
        // The tree stores rule positions, so arbitrary (non-dense) rule
        // ids are fine; ids only reappear at classify time.
        let ids: Vec<u32> = (0..rules.len() as u32).collect();
        let mut stored_rule_refs = 0;
        let mut nodes = 0;
        let mut max_depth_seen = 0;
        let regions: Vec<Region> =
            fields.iter().map(|&f| Region { lo: 0, hi: f.value_mask() }).collect();
        let root = build(
            &rules,
            &ids,
            &fields,
            &regions,
            &params,
            0,
            &mut stored_rule_refs,
            &mut nodes,
            &mut max_depth_seen,
        );
        Self { rules, root, fields, stored_rule_refs, nodes, max_depth_seen }
    }

    /// Total rule references stored in leaves (≥ rule count; the excess is
    /// replication).
    #[must_use]
    pub fn stored_rule_refs(&self) -> usize {
        self.stored_rule_refs
    }

    /// Replication factor (stored refs / rules).
    #[must_use]
    pub fn replication_factor(&self) -> f64 {
        if self.rules.is_empty() {
            1.0
        } else {
            self.stored_rule_refs as f64 / self.rules.len() as f64
        }
    }

    /// Tree nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Deepest leaf.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.max_depth_seen
    }

    /// The dimensions the tree cuts on.
    #[must_use]
    pub fn fields(&self) -> &[MatchFieldKind] {
        &self.fields
    }
}

#[allow(clippy::too_many_arguments)]
fn build(
    rules: &[Rule],
    ids: &[u32],
    fields: &[MatchFieldKind],
    regions: &[Region],
    params: &HiCutsParams,
    depth: usize,
    stored: &mut usize,
    nodes: &mut usize,
    max_depth: &mut usize,
) -> Node {
    *nodes += 1;
    *max_depth = (*max_depth).max(depth);
    if ids.len() <= params.binth || depth >= params.max_depth || fields.is_empty() {
        *stored += ids.len();
        return Node::Leaf(ids.to_vec());
    }

    // Pick the dimension whose cut spreads rules best (fewest max-child
    // rules), the classic HiCuts heuristic.
    let mut best: Option<(usize, Vec<Vec<u32>>, usize)> = None;
    for (fi, &field) in fields.iter().enumerate() {
        let region = regions[fi];
        let span = region.hi - region.lo + 1;
        if span < params.cuts as u128 {
            continue;
        }
        let slice = span / params.cuts as u128;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); params.cuts];
        for &id in ids {
            let rr = rule_range(&rules[id as usize], field);
            for (ci, bucket) in buckets.iter_mut().enumerate() {
                let c_lo = region.lo + slice * ci as u128;
                let c_hi = if ci + 1 == params.cuts { region.hi } else { c_lo + slice - 1 };
                if overlaps(rr, Region { lo: c_lo, hi: c_hi }) {
                    bucket.push(id);
                }
            }
        }
        let worst = buckets.iter().map(Vec::len).max().unwrap_or(0);
        if best.as_ref().is_none_or(|(_, _, w)| worst < *w) {
            best = Some((fi, buckets, worst));
        }
    }

    let Some((fi, buckets, worst)) = best else {
        *stored += ids.len();
        return Node::Leaf(ids.to_vec());
    };
    // Cutting must make progress; otherwise leaf out.
    if worst == ids.len() {
        *stored += ids.len();
        return Node::Leaf(ids.to_vec());
    }

    let field = fields[fi];
    let region = regions[fi];
    let span = region.hi - region.lo + 1;
    let slice = span / params.cuts as u128;
    let children = buckets
        .into_iter()
        .enumerate()
        .map(|(ci, bucket)| {
            let c_lo = region.lo + slice * ci as u128;
            let c_hi = if ci + 1 == params.cuts { region.hi } else { c_lo + slice - 1 };
            let mut child_regions = regions.to_vec();
            child_regions[fi] = Region { lo: c_lo, hi: c_hi };
            build(
                rules,
                &bucket,
                fields,
                &child_regions,
                params,
                depth + 1,
                stored,
                nodes,
                max_depth,
            )
        })
        .collect();
    Node::Internal { field, region, children }
}

impl ClassifierBuilder for HiCutsTree {
    fn try_build(set: &FilterSet) -> Result<Self, BuildError> {
        Ok(Self::new(set.rules.clone(), HiCutsParams::default()))
    }
}

impl Classifier for HiCutsTree {
    fn name(&self) -> &str {
        "hicuts"
    }

    fn classify(&self, header: &HeaderValues) -> Option<u32> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(positions) => {
                    return positions
                        .iter()
                        .map(|&pos| &self.rules[pos as usize])
                        .filter(|r| r.flow_match.matches(header))
                        .max_by_key(|r| classifier_api::precedence(r))
                        .map(|r| r.id);
                }
                Node::Internal { field, region, children } => {
                    let v = header.get(*field).unwrap_or(0);
                    let span = region.hi - region.lo + 1;
                    let slice = span / children.len() as u128;
                    let ci = if v < region.lo {
                        0
                    } else {
                        (((v - region.lo) / slice) as usize).min(children.len() - 1)
                    };
                    node = &children[ci];
                }
            }
        }
    }

    fn memory_bits(&self) -> u64 {
        // Node header (field selector + child pointer + cut geometry) per
        // node plus one rule pointer per stored ref.
        let node_bits = 48u64;
        let ref_bits = 20u64;
        self.nodes as u64 * node_bits + self.stored_rule_refs as u64 * ref_bits
    }

    fn build_records(&self) -> usize {
        // Every tree node plus every (replicated) leaf rule reference.
        self.nodes + self.stored_rule_refs
    }

    fn lookup_accesses(&self, header: &HeaderValues) -> usize {
        // Nodes visited + leaf rules scanned.
        let mut node = &self.root;
        let mut accesses = 0;
        loop {
            accesses += 1;
            match node {
                Node::Leaf(positions) => return accesses + positions.len(),
                Node::Internal { field, region, children } => {
                    let v = header.get(*field).unwrap_or(0);
                    let span = region.hi - region.lo + 1;
                    let slice = span / children.len() as u128;
                    let ci = if v < region.lo {
                        0
                    } else {
                        (((v - region.lo) / slice) as usize).min(children.len() - 1)
                    };
                    node = &children[ci];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_classify;
    use offilter::synth::{generate_acl, generate_routing, AclConfig, RoutingTargets};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn acl_rules(n: usize, seed: u64) -> Vec<Rule> {
        generate_acl(&AclConfig { rules: n, ..AclConfig::default() }, seed).rules
    }

    #[test]
    fn agrees_with_reference_on_acl() {
        let rules = acl_rules(300, 41);
        let tree = HiCutsTree::new(rules.clone(), HiCutsParams::default());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::IpProto, 6)
                .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()))
                .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()));
            assert_eq!(tree.classify(&h), reference_classify(&rules, &h), "header {h}");
        }
    }

    #[test]
    fn agrees_with_reference_on_routing() {
        let rules = generate_routing(
            &RoutingTargets {
                name: "t".into(),
                rules: 300,
                port_unique: 8,
                ip_partitions: [25, 180],
                short_prefixes: 3,
                out_ports: 8,
            },
            42,
        )
        .rules;
        let tree = HiCutsTree::new(rules.clone(), HiCutsParams::default());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::InPort, u128::from(rng.gen_range(0..40u32)))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()));
            assert_eq!(tree.classify(&h), reference_classify(&rules, &h), "header {h}");
        }
    }

    #[test]
    fn replication_factor_at_least_one() {
        let rules = acl_rules(200, 43);
        let tree = HiCutsTree::new(rules, HiCutsParams::default());
        assert!(tree.replication_factor() >= 1.0);
        assert!(tree.stored_rule_refs() >= 200);
        assert!(tree.nodes() >= 1);
    }

    #[test]
    fn wildcard_heavy_rules_replicate() {
        // Rules with wildcards in the cut dimension land in many children.
        let rules = acl_rules(400, 44);
        let tree = HiCutsTree::new(rules, HiCutsParams { binth: 4, cuts: 8, max_depth: 20 });
        assert!(
            tree.replication_factor() > 1.1,
            "expected visible replication, got {}",
            tree.replication_factor()
        );
    }

    #[test]
    fn deeper_cuts_shrink_leaves() {
        let rules = acl_rules(300, 45);
        let shallow =
            HiCutsTree::new(rules.clone(), HiCutsParams { binth: 64, cuts: 4, max_depth: 20 });
        let deep = HiCutsTree::new(rules, HiCutsParams { binth: 4, cuts: 4, max_depth: 24 });
        assert!(deep.depth() >= shallow.depth());
        assert!(deep.nodes() >= shallow.nodes());
    }

    #[test]
    fn empty_rules() {
        let tree = HiCutsTree::new(vec![], HiCutsParams::default());
        assert_eq!(tree.classify(&HeaderValues::new()), None);
        assert_eq!(tree.nodes(), 1);
    }
}
