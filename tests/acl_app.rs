//! The ACL (5-tuple) application through the flat single-table preset:
//! range fields, deny rules and ordered priorities — the configuration
//! exercising the range engine and its completion entries inside the
//! full architecture.

use offilter::synth::{generate_acl, AclConfig};
use openflow_mtl::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn acl_headers(set: &FilterSet, n: usize, seed: u64) -> Vec<HeaderValues> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Mix rule-derived and random headers.
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let r = &set.rules[rng.gen_range(0..set.len())];
                let mut h = HeaderValues::new()
                    .with(MatchFieldKind::IpProto, 6)
                    .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                    .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                    .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()))
                    .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()));
                for &field in FilterKind::Acl.fields() {
                    match r.field(field) {
                        FieldMatch::Exact(v) => {
                            h.set(field, v);
                        }
                        FieldMatch::Prefix { value, len } => {
                            let free = field.bit_width() - len;
                            let fill = if free == 0 {
                                0
                            } else {
                                u128::from(rng.gen::<u32>()) & ((1 << free) - 1)
                            };
                            h.set(field, value | fill);
                        }
                        FieldMatch::Range { lo, hi } => {
                            let span = hi - lo;
                            h.set(field, lo + u128::from(rng.gen::<u16>()) % (span + 1));
                        }
                        FieldMatch::Any => {}
                    }
                }
                h
            } else {
                HeaderValues::new()
                    .with(MatchFieldKind::IpProto, if rng.gen_bool(0.7) { 6 } else { 17 })
                    .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                    .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                    .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()))
                    .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()))
            }
        })
        .collect()
}

#[test]
fn flat_acl_agrees_with_reference() {
    let set = generate_acl(&AclConfig { rules: 400, ..AclConfig::default() }, 77);
    let sw = MtlSwitch::build(&SwitchConfig::flat_app(FilterKind::Acl, 0), &[&set]);
    for h in acl_headers(&set, 3_000, 1) {
        assert_eq!(sw.classify_app(FilterKind::Acl, &h).verdict, reference(&set, &h), "header {h}");
    }
}

#[test]
fn acl_memory_report_includes_range_matchers() {
    let set = generate_acl(&AclConfig { rules: 300, ..AclConfig::default() }, 78);
    let sw = MtlSwitch::build(&SwitchConfig::flat_app(FilterKind::Acl, 0), &[&set]);
    let m = SwitchMemoryReport::of(&sw);
    assert!(m.range_bits > 0, "range matchers must be accounted");
    assert!(m.mbt_bits > 0, "prefix fields use tries");
    assert!(m.lut_bits > 0, "ip_proto uses an EM LUT");
}

#[test]
fn acl_range_completion_entries_counted() {
    // Nested ranges force completion entries; they must appear in the
    // index statistics (the honest memory cost of decomposition).
    let set =
        generate_acl(&AclConfig { rules: 500, range_fraction: 0.8, ..AclConfig::default() }, 79);
    let sw = MtlSwitch::build(&SwitchConfig::flat_app(FilterKind::Acl, 0), &[&set]);
    let table = &sw.apps[0].tables[0];
    assert!(
        table.index.completion_entries() > 0,
        "nested ACL ranges should produce completion entries"
    );
    // And classification still matches the reference under heavy nesting.
    for h in acl_headers(&set, 1_500, 2) {
        assert_eq!(sw.classify_app(FilterKind::Acl, &h).verdict, reference(&set, &h), "header {h}");
    }
}

#[test]
fn incremental_acl_add_existing_range_is_fast() {
    use mtl_core::UpdateMode;
    let set = generate_acl(&AclConfig { rules: 200, ..AclConfig::default() }, 80);
    let mut sw = MtlSwitch::build(&SwitchConfig::flat_app(FilterKind::Acl, 0), &[&set]);
    // Reuse an existing rule's exact shape with a new source host: all
    // field values already interned except possibly the host -> fast path
    // unless it has a fresh range.
    let template = set
        .rules
        .iter()
        .find(|r| matches!(r.field(MatchFieldKind::TcpDst), FieldMatch::Range { .. }))
        .expect("some rule has a range");
    let mut rule = template.clone();
    rule.id = 9_999;
    rule.priority = u16::MAX;
    rule.action = RuleAction::Deny;
    let out = sw.add_rule(FilterKind::Acl, rule);
    assert_eq!(out.mode, UpdateMode::Incremental, "existing range reuses its label");
}
