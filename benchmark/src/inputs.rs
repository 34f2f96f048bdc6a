//! Seeded inputs: rule tables, flow pools, packet traces, update rules.
//!
//! The *tables* are part of a workload's definition and never change:
//! `small` is the paper's `yoza` routing set, `large` a 16 000-rule set
//! with paper-shaped statistics, both from `offilter::synth` at a fixed
//! seed. So is each table's *flow pool* — 262 144 distinct headers, 7/8
//! derived from the table's own rules and 1/8 random garbage — and which
//! packets one cycle of a workload's trace holds: a scan holds every
//! pool flow once, a Zipf trace holds hot flow `r` exactly as often as
//! Zipf(1.0) says. That makes the paper's two metrics
//! (`mem_bits_per_rule`, and `mem_accesses_per_lookup`, a mean over the
//! trace) exact: they repeat to the last digit on any seed and any host.
//!
//! `--seed` decides the *order*: where in the cycle every packet sits,
//! and with it which packets share a batch; and the prefixes the storm
//! phase installs.

use std::collections::HashSet;
use std::sync::Arc;

use offilter::paper_data::routing_stats;
use offilter::synth::{generate_routing, RoutingTargets};
use offilter::{FilterSet, Rule, RuleAction};
use oflow::{FieldMatch, FlowMatch, HeaderValues, MatchFieldKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Flows, Table, Workload};

/// Seed of the rule tables and flow pools (the repository's
/// `DEFAULT_SEED`, the paper's year).
const TABLE_SEED: u64 = 2015;

/// Flows in the hot set of a Zipf trace, the head of the pool they are
/// taken from (every 16th flow of it), and the packets in one cycle of
/// the trace. A cycle is 8 batches of 4 096 (3 MB of headers): every hot
/// flow is in it nine times or more, and it stays in the last-level
/// cache as a NIC's receive ring would — a 26 MB cycle made `pps` follow
/// the memory traffic of the host's other tenants.
const HOT_FLOWS: usize = 512;
const HOT_POOL: usize = 8_192;
const ZIPF_CYCLE: usize = 32_768;

/// Sizes that `--smoke` shrinks so a whole run takes well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Distinct flows in a table's pool: the packets in one cycle of a
    /// scan.
    pub pool: usize,
    /// Rules in the `large` table.
    pub large_rules: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { pool: 262_144, large_rules: 16_000 };
    pub const SMOKE: Scale = Scale { pool: 8_192, large_rules: 2_000 };
}

/// The workload's rule table.
pub fn rules(table: Table, scale: Scale) -> FilterSet {
    let targets = match table {
        Table::Small => {
            RoutingTargets::from_paper(routing_stats("yoza").expect("yoza is a Table IV router"))
        }
        Table::Large => {
            let rules = scale.large_rules;
            RoutingTargets {
                name: format!("large-{rules}"),
                rules,
                port_unique: 16,
                ip_partitions: [rules / 8, rules / 8],
                short_prefixes: (rules / 300).clamp(1, 12),
                out_ports: 32,
            }
        }
    };
    generate_routing(&targets, TABLE_SEED)
}

fn random_bits(rng: &mut StdRng) -> u128 {
    u128::from(rng.gen::<u64>()) | (u128::from(rng.gen::<u64>()) << 64)
}

/// A header of random bits: garbage that usually matches no rule.
fn random_header(set: &FilterSet, rng: &mut StdRng) -> HeaderValues {
    let mut h = HeaderValues::new();
    for &field in set.kind.fields() {
        h.set(field, random_bits(rng));
    }
    h
}

/// A header `rule` matches, its free bits (prefix tails, range points,
/// wildcarded fields) drawn from `rng`.
fn header_matching(set: &FilterSet, rule: &Rule, rng: &mut StdRng) -> HeaderValues {
    let mut h = HeaderValues::new();
    for &field in set.kind.fields() {
        let random = random_bits(rng);
        h.set(
            field,
            match rule.field(field) {
                FieldMatch::Exact(v) => v,
                // `set` masks to the field's width, so only the prefix's
                // own bits need protecting.
                FieldMatch::Prefix { value, len } => {
                    value | (random & !(u128::MAX << (field.bit_width() - len)))
                }
                FieldMatch::Range { lo, hi } => lo + random % (hi - lo + 1),
                FieldMatch::Any => random,
            },
        );
    }
    h
}

/// The first `flows` flows of the table's pool: distinct headers, 7/8 of them
/// matching one of the table's rules (taken round-robin, as
/// `offilter::synth::generate_flows` does) and 1/8 random garbage.
/// Distinct, so that a scan over the pool really never repeats — which
/// is why this is not `generate_flows` itself: a /32 rule admits one
/// header and a /24 only 256, and an equal draw per rule runs dry at
/// about 100 000 distinct flows on `small`. Here a rule that has run out
/// of headers simply stops contributing. The pool is one fixed sequence:
/// a shorter request returns a prefix of a longer one.
pub fn flow_pool(set: &FilterSet, flows: usize) -> Vec<HeaderValues> {
    let mut rng = StdRng::seed_from_u64(TABLE_SEED ^ 0x706F_6F6C);
    let mut seen = HashSet::with_capacity(flows);
    let mut pool = Vec::with_capacity(flows);
    for draw in 0.. {
        if pool.len() == flows {
            break;
        }
        assert!(draw < 16 * flows, "rules admit too few distinct headers for the pool");
        let rule = &set.rules[draw % set.rules.len()];
        let header = if rng.gen_bool(0.125) {
            random_header(set, &mut rng)
        } else {
            header_matching(set, rule, &mut rng)
        };
        if header.get(MatchFieldKind::InPort) != Some(PROBE_PORT) && seen.insert(header.clone()) {
            pool.push(header);
        }
    }
    pool
}

/// How often each of `flows` Zipf(1.0)-ranked flows occurs among
/// `packets` packets: `packets / (rank * H)` each, rounded so that the
/// counts sum to `packets` (largest remainders first).
fn zipf_counts(flows: usize, packets: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=flows).map(|rank| 1.0 / rank as f64).sum();
    let exact: Vec<f64> =
        (1..=flows).map(|rank| packets as f64 / (rank as f64 * harmonic)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..flows).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = packets - counts.iter().sum::<usize>();
    for &flow in &by_remainder[..short] {
        counts[flow] += 1;
    }
    counts
}

/// One trace cycle as submit-ready batches; the generator cycles
/// through them for as long as a phase lasts. A scan is the whole pool;
/// a Zipf trace is every 16th flow of the pool's head, the `r`-th of them
/// [`zipf_counts`] times. The seed puts the cycle's packets in order.
pub fn batches(w: &Workload, set: &FilterSet, scale: Scale, seed: u64) -> Vec<Arc<[HeaderValues]>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_636B_6574_7321);
    let mut cycle: Vec<u32> = match w.flows {
        Flows::Scan => (0..scale.pool as u32).collect(),
        Flows::ZipfHot => {
            let stride = HOT_POOL / HOT_FLOWS;
            zipf_counts(HOT_FLOWS, ZIPF_CYCLE.min(scale.pool))
                .iter()
                .enumerate()
                .flat_map(|(rank, &count)| std::iter::repeat_n((rank * stride) as u32, count))
                .collect()
        }
    };
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, rng.gen_range(0..=i));
    }
    let pool = flow_pool(set, 1 + *cycle.iter().max().expect("a cycle has packets") as usize);
    let packets: Vec<HeaderValues> = cycle.iter().map(|&i| pool[i as usize].clone()).collect();
    packets.chunks(w.batch).map(Arc::from).collect()
}

/// Ingress port of the probe header. Rule ports are 10-bit and the
/// pool drops any garbage header that happens to carry this value, so
/// no rule and no traffic packet ever shares it.
const PROBE_PORT: u128 = 0xFFFF_FFF1;
const PROBE_DST: u128 = 0xC0A8_0101;

/// The one header the churn rules match.
pub fn probe_header() -> HeaderValues {
    HeaderValues::new()
        .with(MatchFieldKind::InPort, PROBE_PORT)
        .with(MatchFieldKind::Ipv4Dst, PROBE_DST)
}

/// Churn rule `i`: matches the probe header and nothing else, so the
/// answers to traffic packets do not depend on the table version while
/// the probe's answer proves which version served it.
pub fn churn_rule(i: u32) -> Rule {
    Rule::new(
        900_000 + i,
        u16::MAX - 1,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, PROBE_PORT)
            .expect("port fits")
            .with_prefix(MatchFieldKind::Ipv4Dst, PROBE_DST, 32)
            .expect("prefix fits"),
        RuleAction::Forward(700 + i % 32),
    )
}

/// Storm rule `i`: a fresh /24 under 11.0.0.0/8 on one of four ports,
/// as a route flap would install. No traffic runs beside the storm and
/// every rule is removed again before the next phase.
pub fn storm_rule(seed: u64, i: u32) -> Rule {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(u64::from(i));
    Rule::new(
        3_000_000 + i,
        u16::MAX - 1,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(1 + mix % 4))
            .expect("port fits")
            .with_prefix(MatchFieldKind::Ipv4Dst, 0x0B00_0000 + (u128::from(mix % 0xFFFF) << 8), 24)
            .expect("prefix fits"),
        RuleAction::Forward(900),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_are_zipf_and_add_up() {
        let counts = zipf_counts(HOT_FLOWS, ZIPF_CYCLE);
        assert_eq!(counts.iter().sum::<usize>(), ZIPF_CYCLE);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "a lower rank is never rarer");
        // Rank 1 is twice as frequent as rank 2, to the rounding.
        assert!(counts[0].abs_diff(2 * counts[1]) <= 2);
        assert!(counts[HOT_FLOWS - 1] >= 9, "every hot flow recurs within a cycle");
    }
}
