//! Differential tests of the O(rule) update path.
//!
//! `MtlSwitch::remove_rule` edits a built switch in place — it deletes
//! the index entries and the action row a rule owns, leaves the field
//! engines alone, and regenerates the application only to bound the
//! garbage that leaves behind (or when a range engine rules the edit
//! out). These tests hold that edit against two oracles after **every**
//! operation of random add/remove interleavings on the routing, MAC and
//! ACL presets: `reference_classify` over the surviving rules, and a
//! switch built from scratch over them. Along the way the image codec
//! must stay the identity (`encode → decode → encode`), memory must stay
//! within reach of the rebuilt size, and a regeneration must return it to
//! exactly that size.

use classifier_api::{reference_classify, Classifier, ClassifierBuilder, DynamicClassifier};
use mtl_core::MtlSwitch;
use mtl_persist::Persistent;
use offilter::synth::{
    generate_acl, generate_mac, generate_routing, AclConfig, MacTargets, RoutingTargets,
};
use offilter::{FilterSet, Rule};
use oflow::{FieldMatch, HeaderValues};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The rules an interleaving draws from, per preset.
fn pool(preset: usize, seed: u64) -> FilterSet {
    match preset {
        0 => generate_routing(
            &RoutingTargets {
                name: "pool".into(),
                rules: 120,
                port_unique: 6,
                ip_partitions: [12, 60],
                short_prefixes: 3,
                out_ports: 8,
            },
            seed,
        ),
        1 => generate_mac(
            &MacTargets {
                name: "pool".into(),
                rules: 120,
                vlan_unique: 6,
                eth_partitions: [4, 20, 70],
                ports: 8,
            },
            seed,
        ),
        _ => generate_acl(
            &AclConfig { name: "pool".into(), rules: 60, ..AclConfig::default() },
            seed,
        ),
    }
}

/// Headers stressing a pool: random ones, and ones laid over a rule's own
/// constraints with the free bits randomised.
fn probe_headers(pool: &FilterSet, n: usize, seed: u64) -> Vec<HeaderValues> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fields = pool.kind.fields();
    (0..n)
        .map(|i| {
            let mut h = HeaderValues::new();
            for &field in fields {
                let width = field.bit_width().min(64);
                h.set(field, u128::from(rng.gen::<u64>()) & ((1u128 << width) - 1));
            }
            if i % 4 != 0 {
                let rule = &pool.rules[rng.gen_range(0..pool.len())];
                for &field in fields {
                    match rule.field(field) {
                        FieldMatch::Exact(v) => {
                            h.set(field, v);
                        }
                        FieldMatch::Prefix { value, len } => {
                            let free = field.bit_width() - len;
                            let fill = match free {
                                0 => 0,
                                _ => u128::from(rng.gen::<u64>()) & ((1 << free) - 1),
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

fn build(kind_of: &FilterSet, rules: &[Rule]) -> MtlSwitch {
    let set = FilterSet::preserving_ids("stored", kind_of.kind, rules.to_vec());
    <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("stored rules build")
}

/// What must hold after every operation. `regenerated` says the
/// operation ended in a regeneration of the application.
fn check(
    sw: &MtlSwitch,
    pool: &FilterSet,
    stored: &[Rule],
    headers: &[HeaderValues],
    regenerated: bool,
) -> Result<(), TestCaseError> {
    let fresh = build(pool, stored);
    for h in headers {
        let want = reference_classify(stored, h);
        prop_assert_eq!(Classifier::classify(sw, h), want, "the edited switch on {}", h);
        prop_assert_eq!(Classifier::classify(&fresh, h), want, "the rebuilt switch on {}", h);
    }
    prop_assert_eq!(sw.total_rules(), stored.len());
    let image = sw.encode_image();
    let decoded = MtlSwitch::decode_image(&image).expect("the image decodes");
    prop_assert_eq!(decoded.encode_image(), image, "encode -> decode -> encode");
    let (bits, rebuilt_bits) = (sw.memory_bits(), fresh.memory_bits());
    // (An ACL table's shadow-completion entries make its index capacity
    // depend on the order rules were registered in, and so does a key
    // registered twice — the table makes room before it looks — so only
    // the presets without range engines pin the exact size, and only
    // while no rule is stored twice.)
    let twice = stored.iter().enumerate().any(|(i, r)| stored[..i].iter().any(|s| s.id == r.id));
    if regenerated && pool.kind != offilter::FilterKind::Acl && !twice {
        prop_assert_eq!(bits, rebuilt_bits, "a regeneration leaves no garbage");
    }
    // Orphaned labels are bounded by a quarter of the live ones; what
    // else an edited switch holds over a rebuilt one is table capacity
    // it grew into and has not given back.
    prop_assert!(bits <= 2 * rebuilt_bits, "{} bits against {} rebuilt", bits, rebuilt_bits);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_updates_match_the_oracle_and_a_rebuild(
        preset in 0usize..3,
        seed in 0u64..1000,
        initial in 6usize..50,
        ops in proptest::collection::vec((0u8..9, any::<prop::sample::Index>()), 1..48),
    ) {
        let pool = pool(preset, seed);
        let headers = probe_headers(&pool, 64, seed ^ 0x5EED);
        let mut stored: Vec<Rule> = pool.rules[..initial].to_vec();
        let mut absent: Vec<Rule> = pool.rules[initial..].to_vec();
        let mut sw = build(&pool, &stored);
        check(&sw, &pool, &stored, &headers, true)?;
        for (what, which) in ops {
            let regenerated = match what {
                // Removals slightly outnumber additions, so that tables
                // shrink through their garbage bound as well as grow.
                // (Never the last id stored: every copy of an id goes —
                // see the retried add below.)
                0..=3 if stored.iter().any(|r| r.id != stored[which.index(stored.len())].id) => {
                    let rule = stored[which.index(stored.len())].clone();
                    stored.retain(|r| r.id != rule.id);
                    let report = DynamicClassifier::remove_rule(&mut sw, rule.id);
                    absent.push(rule);
                    report.expect("the rule is stored").rebuilt
                }
                4..=6 if !absent.is_empty() => {
                    let rule = absent.swap_remove(which.index(absent.len()));
                    stored.push(rule.clone());
                    sw.insert_rule(rule).expect("pool rules insert").rebuilt
                }
                8 => {
                    // A retried add: an id is now stored twice.
                    let rule = stored[which.index(stored.len())].clone();
                    stored.push(rule.clone());
                    sw.insert_rule(rule).expect("stored rules insert").rebuilt
                }
                _ => {
                    // An id nobody stores: nothing may change.
                    let image = sw.encode_image();
                    let unknown = absent.first().map_or(u32::MAX, |r| r.id);
                    prop_assert!(DynamicClassifier::remove_rule(&mut sw, unknown).is_none());
                    prop_assert_eq!(sw.encode_image(), image);
                    false
                }
            };
            check(&sw, &pool, &stored, &headers, regenerated)?;
        }
    }
}

/// A sequence long enough to cross several compactions: the table holds
/// a quarter of the pool at any time, so the labels of the other three
/// quarters pile up as garbage.
#[test]
fn a_long_churn_crosses_compactions_and_leaks_nothing() {
    let pool = pool(0, 7);
    let headers = probe_headers(&pool, 64, 11);
    let mut stored: Vec<Rule> = pool.rules[..30].to_vec();
    let mut absent: Vec<Rule> = pool.rules[30..].to_vec();
    let mut sw = build(&pool, &stored);
    let (mut in_place, mut compactions) = (0, 0);
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..400 {
        let rule = stored.swap_remove(rng.gen_range(0..stored.len()));
        let report = DynamicClassifier::remove_rule(&mut sw, rule.id).expect("the rule is stored");
        assert_eq!(report.rebuilt, report.compacted, "routing tables never plain-rebuild");
        if report.compacted {
            compactions += 1;
        } else {
            in_place += 1;
        }
        absent.push(rule);
        check(&sw, &pool, &stored, &headers, report.rebuilt).expect("after the remove");
        let rule = absent.swap_remove(rng.gen_range(0..absent.len()));
        stored.push(rule.clone());
        assert!(!sw.insert_rule(rule).expect("pool rules insert").rebuilt);
    }
    assert!(compactions >= 2, "{compactions} compactions");
    assert!(in_place > 4 * compactions, "{in_place} in-place removals, {compactions} compactions");
    check(&sw, &pool, &stored, &headers, false).expect("at the end");
}
