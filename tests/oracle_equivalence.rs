//! The reproduction's central correctness property: for arbitrary rule
//! populations, the decomposition architecture classifies every header
//! exactly like the highest-priority-match reference — including the
//! nasty cases (nested prefixes at the same trie level, wildcards,
//! default routes, overlapping ranges).

use openflow_mtl::prelude::*;
use proptest::prelude::*;

/// Reference: highest priority, then specificity.
fn reference(set: &FilterSet, header: &HeaderValues) -> Verdict {
    set.rules
        .iter()
        .filter(|r| r.flow_match.matches(header))
        .max_by_key(|r| (r.priority, r.flow_match.specificity()))
        .map(|r| match r.action {
            RuleAction::Forward(p) => Verdict::Output(p),
            RuleAction::Deny => Verdict::Drop,
            RuleAction::Controller => Verdict::ToController,
        })
        .unwrap_or(Verdict::ToController)
}

/// Routing-style rule: (port, prefix value bits, len) -> forward.
fn routing_rule_strategy() -> impl Strategy<Value = (u32, u32, u32)> {
    // Small port domain and clustered prefixes maximise collisions and
    // nesting.
    (0u32..4, any::<u32>(), 0u32..=32)
}

fn build_routing_set(raw: Vec<(u32, u32, u32)>) -> FilterSet {
    let mut seen = std::collections::HashSet::new();
    let rules: Vec<Rule> = raw
        .into_iter()
        .filter_map(|(port, value, len)| {
            // Cluster values into a narrow space so prefixes nest often.
            let value = value & 0x0003_0F0F;
            let masked = if len == 0 {
                0
            } else {
                u128::from(value) & oflow::flow_match::prefix_mask(32, len)
            };
            if !seen.insert((port, masked, len)) {
                return None;
            }
            Some(Rule::new(
                0,
                len as u16,
                FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, u128::from(port))
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, masked, len)
                    .unwrap(),
                RuleAction::Forward(port * 100 + len),
            ))
        })
        .collect();
    FilterSet::new("prop", FilterKind::Routing, rules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decomposition == reference for arbitrary nested routing rules.
    #[test]
    fn routing_equivalence(
        raw in proptest::collection::vec(routing_rule_strategy(), 1..60),
        headers in proptest::collection::vec((0u32..5, any::<u32>()), 50)
    ) {
        let set = build_routing_set(raw);
        prop_assume!(!set.is_empty());
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        for (port, dst) in headers {
            // Bias headers into the clustered space half the time.
            let dst = dst & 0x0003_0FFF;
            let h = HeaderValues::new()
                .with(MatchFieldKind::InPort, u128::from(port))
                .with(MatchFieldKind::Ipv4Dst, u128::from(dst));
            prop_assert_eq!(
                sw.classify_app(FilterKind::Routing, &h).verdict,
                reference(&set, &h),
                "header {}", h
            );
        }
    }

    /// Same property on the flat (single-table, multi-field) preset.
    #[test]
    fn flat_equivalence(
        raw in proptest::collection::vec(routing_rule_strategy(), 1..40),
        headers in proptest::collection::vec((0u32..5, any::<u32>()), 30)
    ) {
        let set = build_routing_set(raw);
        prop_assume!(!set.is_empty());
        let config = SwitchConfig::flat_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        for (port, dst) in headers {
            let dst = dst & 0x0003_0FFF;
            let h = HeaderValues::new()
                .with(MatchFieldKind::InPort, u128::from(port))
                .with(MatchFieldKind::Ipv4Dst, u128::from(dst));
            prop_assert_eq!(
                sw.classify_app(FilterKind::Routing, &h).verdict,
                reference(&set, &h),
                "header {}", h
            );
        }
    }

    /// MAC sets (exact/exact) are the easy case; verify anyway.
    #[test]
    fn mac_equivalence(
        raw in proptest::collection::vec((0u32..8, 0u64..64), 1..50),
        headers in proptest::collection::vec((0u32..10, 0u64..80), 40)
    ) {
        let mut seen = std::collections::HashSet::new();
        let rules: Vec<Rule> = raw
            .into_iter()
            .filter(|k| seen.insert(*k))
            .map(|(vlan, mac)| {
                Rule::new(
                    0,
                    1,
                    FlowMatch::any()
                        .with_exact(MatchFieldKind::VlanVid, u128::from(vlan))
                        .unwrap()
                        .with_exact(MatchFieldKind::EthDst, u128::from(mac))
                        .unwrap(),
                    RuleAction::Forward(vlan + 1),
                )
            })
            .collect();
        let set = FilterSet::new("prop", FilterKind::MacLearning, rules);
        let config = SwitchConfig::single_app(FilterKind::MacLearning, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        for (vlan, mac) in headers {
            let h = HeaderValues::new()
                .with(MatchFieldKind::VlanVid, u128::from(vlan))
                .with(MatchFieldKind::EthDst, u128::from(mac));
            prop_assert_eq!(sw.classify_app(FilterKind::MacLearning, &h).verdict, reference(&set, &h));
        }
    }
}

/// Deterministic regression cases distilled from the proptest shrinker
/// during development.
#[test]
fn regression_same_level_nesting_with_default() {
    let rules = vec![
        (1u32, 0u128, 0u32),  // default via port 1
        (2, 0x0003_0000, 18), // /18
        (1, 0x0003_0C00, 22), // /22 nested inside the /18 (same L1 level of lower trie? lens 18,22)
        (3, 0x0003_0F00, 24), // /24 deeper
    ];
    let rules: Vec<Rule> = rules
        .into_iter()
        .enumerate()
        .map(|(i, (port, v, len))| {
            Rule::new(
                i as u32,
                len as u16,
                FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, u128::from(port))
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, v, len)
                    .unwrap(),
                RuleAction::Forward(port * 10),
            )
        })
        .collect();
    let set = FilterSet::new("reg", FilterKind::Routing, rules);
    let sw = MtlSwitch::build(&SwitchConfig::single_app(FilterKind::Routing, 0), &[&set]);
    for port in 0u32..4 {
        for dst in [0u128, 0x0003_0000, 0x0003_0C01, 0x0003_0F55, 0x0003_0FFF, 0xFFFF_FFFF] {
            let h = HeaderValues::new()
                .with(MatchFieldKind::InPort, u128::from(port))
                .with(MatchFieldKind::Ipv4Dst, dst);
            assert_eq!(
                sw.classify_app(FilterKind::Routing, &h).verdict,
                reference(&set, &h),
                "port {port} dst {dst:#x}"
            );
        }
    }
}
