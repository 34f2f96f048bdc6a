//! Generalization beyond the paper's evaluation: the same architecture
//! over 128-bit IPv6 destinations — eight parallel 16-bit partition tries
//! instead of two. The paper's Table II lists the IPv6 fields as LPM;
//! nothing in the design is IPv4-specific, and this test proves it.

use openflow_mtl::prelude::*;

fn v6_rule(id: u32, port: u32, value: u128, len: u32, out: u32) -> Rule {
    Rule::new(
        id,
        len as u16,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(port))
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv6Dst, value, len)
            .unwrap(),
        RuleAction::Forward(out),
    )
}

fn v6(s: &str) -> u128 {
    u128::from_be_bytes(s.parse::<std::net::Ipv6Addr>().unwrap().octets())
}

fn config() -> SwitchConfig {
    // Two tables: port LUT chained into the IPv6 partitioned tries.
    use mtl_core::{FieldConfig, TableConfig};
    SwitchConfig {
        name: "ipv6".into(),
        apps: vec![(
            FilterKind::Routing,
            vec![
                TableConfig {
                    table_id: 0,
                    fields: vec![FieldConfig::auto(MatchFieldKind::InPort)],
                    uses_metadata: false,
                    goto: Some(1),
                },
                TableConfig {
                    table_id: 1,
                    fields: vec![FieldConfig::auto(MatchFieldKind::Ipv6Dst)],
                    uses_metadata: true,
                    goto: None,
                },
            ],
        )],
    }
}

#[test]
fn ipv6_lpm_through_eight_partitions() {
    let rules = vec![
        v6_rule(0, 1, v6("2001:db8::"), 32, 10),
        v6_rule(1, 1, v6("2001:db8:aaaa::"), 48, 20),
        v6_rule(2, 1, v6("2001:db8:aaaa:bbbb::"), 64, 30),
        v6_rule(3, 1, v6("2001:db8:aaaa:bbbb::1"), 128, 40), // host route
        v6_rule(4, 2, v6("fd00::"), 8, 50),
        v6_rule(5, 1, 0, 0, 1), // default
    ];
    let set = FilterSet::new("v6", FilterKind::Routing, rules);
    let sw = MtlSwitch::build(&config(), &[&set]);

    let classify = |port: u32, dst: &str| {
        sw.classify_app(
            FilterKind::Routing,
            &HeaderValues::new()
                .with(MatchFieldKind::InPort, u128::from(port))
                .with(MatchFieldKind::Ipv6Dst, v6(dst)),
        )
        .verdict
    };

    // Longest prefix wins across all eight partitions.
    assert_eq!(classify(1, "2001:db8:aaaa:bbbb::1"), Verdict::Output(40));
    assert_eq!(classify(1, "2001:db8:aaaa:bbbb::2"), Verdict::Output(30));
    assert_eq!(classify(1, "2001:db8:aaaa:cccc::1"), Verdict::Output(20));
    assert_eq!(classify(1, "2001:db8:ffff::1"), Verdict::Output(10));
    assert_eq!(classify(1, "2002::1"), Verdict::Output(1)); // default
    assert_eq!(classify(2, "fd12:3456::1"), Verdict::Output(50));
    // Port 2 has no default route.
    assert_eq!(classify(2, "2001:db8::1"), Verdict::ToController);
}

#[test]
fn ipv6_engine_has_eight_tries_with_l1_anchor() {
    let set =
        FilterSet::new("v6", FilterKind::Routing, vec![v6_rule(0, 1, v6("2001:db8::"), 32, 1)]);
    let sw = MtlSwitch::build(&config(), &[&set]);
    let m = SwitchMemoryReport::of(&sw);
    // Eight partition tries exist (higher, six middles, lower); each L1
    // is the 32-entry root block.
    assert!(m.report.bits_under("t1/ipv6_dst/higher/L1") > 0);
    assert!(m.report.bits_under("t1/ipv6_dst/middle/L1") > 0);
    assert!(m.report.bits_under("t1/ipv6_dst/lower/L1") > 0);
    assert_eq!(m.report.entries_under("t1/ipv6_dst/higher/L1"), 32);
    // A /32 rule populates the first two partitions and wildcards the
    // remaining six; total stored nodes stay tiny.
    let nodes = m.report.entries_under("t1/ipv6_dst");
    assert!(nodes < 2_000, "IPv6 tries should stay small here: {nodes}");
}

#[test]
fn ipv6_incremental_add() {
    let set = FilterSet::new("v6", FilterKind::Routing, vec![v6_rule(0, 1, 0, 0, 1)]);
    let mut sw = MtlSwitch::build(&config(), &[&set]);
    let out = sw.add_rule(FilterKind::Routing, v6_rule(1, 1, v6("2001:db8::"), 32, 9));
    assert_eq!(out.mode, mtl_core::UpdateMode::Incremental);
    let h = HeaderValues::new()
        .with(MatchFieldKind::InPort, 1)
        .with(MatchFieldKind::Ipv6Dst, v6("2001:db8::42"));
    assert_eq!(sw.classify_app(FilterKind::Routing, &h).verdict, Verdict::Output(9));
}
