//! Trait-conformance suite for the unified `Classifier` API.
//!
//! One parameterized harness checks every implementation — the
//! decomposition architecture and all four baselines — against
//! `reference_classify` on synthesized ACL, routing and MAC filter sets,
//! checks that `classify_batch` agrees with per-packet `classify`
//! element by element, and serves every engine through a cached,
//! multi-shard `mtl-runtime` (the one place that parallelises and
//! caches) to check that serving changes no answer. Adding a new engine
//! to the conformance list is the whole cost of validating it.

use classifier_api::{
    reference_classify, BuildError, Classifier, ClassifierBuilder, DynamicClassifier,
};
use mtl_core::MtlSwitch;
use mtl_runtime::{Runtime, RuntimeConfig};
use ofbaseline::hicuts::HiCutsTree;
use ofbaseline::linear::LinearClassifier;
use ofbaseline::tcam::TcamModel;
use ofbaseline::tss::TupleSpaceSearch;
use offilter::synth::{
    generate_acl, generate_mac, generate_routing, AclConfig, MacTargets, RoutingTargets,
};
use offilter::{FilterKind, FilterSet};
use oflow::{FieldMatch, HeaderValues, MatchFieldKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Builds every `Classifier` implementation over one set.
fn all_classifiers(set: &FilterSet) -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(LinearClassifier::try_build(set).expect("linear builds")),
        Box::new(TcamModel::try_build(set).expect("tcam builds")),
        Box::new(TupleSpaceSearch::try_build(set).expect("tss builds")),
        Box::new(HiCutsTree::try_build(set).expect("hicuts builds")),
        Box::new(<MtlSwitch as ClassifierBuilder>::try_build(set).expect("mtl builds")),
    ]
}

/// Headers stressing a set: rule-derived (free bits randomized) + random.
fn probe_headers(set: &FilterSet, n: usize, seed: u64) -> Vec<HeaderValues> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fields = set.kind.fields();
    (0..n)
        .map(|i| {
            let mut h = HeaderValues::new();
            // Random floor for every field the application matches.
            for &field in fields {
                let width = field.bit_width().min(64);
                let v = u128::from(rng.gen::<u64>()) & ((1u128 << width) - 1);
                h.set(field, v);
            }
            if i % 2 == 0 {
                // Overlay a rule's own constraints half the time.
                let r = &set.rules[rng.gen_range(0..set.len())];
                for &field in fields {
                    match r.field(field) {
                        FieldMatch::Exact(v) => {
                            h.set(field, v);
                        }
                        FieldMatch::Prefix { value, len } => {
                            let free = field.bit_width() - len;
                            let fill = if free == 0 {
                                0
                            } else {
                                u128::from(rng.gen::<u64>()) & ((1 << free) - 1)
                            };
                            h.set(field, value | fill);
                        }
                        FieldMatch::Range { lo, hi } => {
                            let span = (hi - lo) as u64;
                            h.set(field, lo + u128::from(rng.gen::<u64>() % (span + 1)));
                        }
                        FieldMatch::Any => {}
                    }
                }
            }
            h
        })
        .collect()
}

/// The conformance property: classify == oracle, batch == per-packet,
/// served by a cached three-shard runtime == batch (cold and warm), and
/// the cost surfaces report sane values.
fn assert_conformance(set: &FilterSet, probes: usize, seed: u64) {
    let headers = probe_headers(set, probes, seed);
    let served = RuntimeConfig {
        shards: 3,
        ring_capacity: 8,
        cache_capacity: 64,
        pin_workers: false,
        ..RuntimeConfig::default()
    };
    for classifier in all_classifiers(set) {
        let classifier: Arc<dyn Classifier> = Arc::from(classifier);
        let name = classifier.name().to_owned();
        let batch = classifier.classify_batch(&headers);
        assert_eq!(batch.len(), headers.len(), "{name}: batch length");
        for (h, batched) in headers.iter().zip(&batch) {
            let want = reference_classify(&set.rules, h);
            assert_eq!(classifier.classify(h), want, "{name} vs oracle on {h}");
            assert_eq!(*batched, want, "{name} batch vs oracle on {h}");
            assert!(classifier.lookup_accesses(h) >= 1, "{name}: zero-cost lookup");
        }
        // Served by the runtime — the batch split over shards, each
        // shard behind its own flow cache — the answers are element-wise
        // identical to the batch, cold and from warm caches.
        let runtime = Runtime::new(Arc::clone(&classifier), &served);
        for pass in ["cold", "warm"] {
            assert_eq!(runtime.classify_rows(&headers), batch, "{name}: served ({pass})");
        }
        assert!(classifier.classify_batch(&[]).is_empty(), "{name}: empty batch");
        assert!(classifier.memory_bits() > 0, "{name}: zero memory");
        assert!(classifier.build_records() > 0, "{name}: zero build records");
    }
}

#[test]
fn conformance_on_routing_sets() {
    for (rules, seed) in [(120, 51u64), (400, 52)] {
        let set = generate_routing(
            &RoutingTargets {
                name: "conf".into(),
                rules,
                port_unique: 8,
                ip_partitions: [rules / 12, rules / 2],
                short_prefixes: 3,
                out_ports: 8,
            },
            seed,
        );
        assert_conformance(&set, 400, seed ^ 0xABCD);
    }
}

#[test]
fn conformance_on_mac_sets() {
    let set = generate_mac(
        &MacTargets {
            name: "conf".into(),
            rules: 300,
            vlan_unique: 12,
            eth_partitions: [8, 60, 200],
            ports: 8,
        },
        61,
    );
    assert_conformance(&set, 400, 62);
}

#[test]
fn conformance_on_acl_sets() {
    let set = generate_acl(&AclConfig { rules: 250, ..AclConfig::default() }, 71);
    assert_conformance(&set, 400, 72);
}

#[test]
fn conformance_on_range_heavy_acl() {
    // Nested ranges stress TCAM expansion and the decomposition's
    // completion entries at once.
    let set =
        generate_acl(&AclConfig { rules: 300, range_fraction: 0.8, ..AclConfig::default() }, 73);
    assert_conformance(&set, 300, 74);
}

#[test]
fn conformance_on_tiny_and_degenerate_sets() {
    use offilter::{Rule, RuleAction};
    use oflow::FlowMatch;
    // Single rule.
    let one = FilterSet::new(
        "one",
        FilterKind::Routing,
        vec![Rule::new(
            0,
            8,
            FlowMatch::any()
                .with_exact(MatchFieldKind::InPort, 1)
                .unwrap()
                .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A00_0000, 8)
                .unwrap(),
            RuleAction::Forward(1),
        )],
    );
    assert_conformance(&one, 100, 81);
}

#[test]
fn builders_report_errors_not_panics() {
    use offilter::{Rule, RuleAction};
    use oflow::FlowMatch;
    // A routing rule with a range on the in-port, which the architecture's
    // EM-LUT assignment cannot store. Baselines accept it; MtlSwitch must
    // report the typed error.
    let set = FilterSet::new(
        "bad",
        FilterKind::Routing,
        vec![Rule::new(
            0,
            1,
            FlowMatch::any()
                .with_range(MatchFieldKind::InPort, 1, 4)
                .unwrap()
                .with_prefix(MatchFieldKind::Ipv4Dst, 0, 0)
                .unwrap(),
            RuleAction::Forward(1),
        )],
    );
    assert!(LinearClassifier::try_build(&set).is_ok());
    assert!(TcamModel::try_build(&set).is_ok());
    assert!(TupleSpaceSearch::try_build(&set).is_ok());
    assert!(HiCutsTree::try_build(&set).is_ok());
    let err = <MtlSwitch as ClassifierBuilder>::try_build(&set).unwrap_err();
    assert!(
        matches!(err, BuildError::UnsupportedConstraint { .. }),
        "expected UnsupportedConstraint, got {err:?}"
    );
    // The error formats usefully.
    assert!(err.to_string().contains("in_port"), "{err}");
}

#[test]
fn dynamic_classifiers_stay_conformant_under_updates() {
    let set = generate_routing(
        &RoutingTargets {
            name: "dyn".into(),
            rules: 200,
            port_unique: 8,
            ip_partitions: [16, 100],
            short_prefixes: 2,
            out_ports: 8,
        },
        91,
    );
    let (seed_rules, tail) = set.rules.split_at(150);
    let seed_set = FilterSet::new("dyn", FilterKind::Routing, seed_rules.to_vec());

    let mut dynamics: Vec<Box<dyn DynamicClassifier>> = vec![
        Box::new(TupleSpaceSearch::try_build(&seed_set).expect("tss builds")),
        Box::new(<MtlSwitch as ClassifierBuilder>::try_build(&seed_set).expect("mtl builds")),
    ];
    for d in &mut dynamics {
        for rule in tail {
            d.insert_rule(rule.clone()).expect("insert works");
        }
    }
    // After the inserts both engines classify the full set correctly.
    let headers = probe_headers(&set, 300, 92);
    for d in &dynamics {
        for h in &headers {
            assert_eq!(
                d.classify(h),
                reference_classify(&set.rules, h),
                "{} after inserts on {h}",
                d.name()
            );
        }
    }
    // Removing the inserted tail restores the seed behaviour.
    for d in &mut dynamics {
        for rule in tail {
            assert!(d.remove_rule(rule.id).is_some(), "{}: rule {}", d.name(), rule.id);
        }
        for h in &headers {
            assert_eq!(
                d.classify(h),
                reference_classify(&seed_set.rules, h),
                "{} after removals on {h}",
                d.name()
            );
        }
    }
}
