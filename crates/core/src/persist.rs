//! The switch snapshot image codec.
//!
//! [`MtlSwitch`] implements [`Persistent`] by serializing into a sectioned
//! [`Container`] with four sections, in pipeline order of reconstruction:
//!
//! | id | section  | contents |
//! |----|----------|----------|
//! | 1  | apps     | name, epoch, build ledger, per-app rule store (rules + field keys + final rule ids) |
//! | 2  | tables   | per-table configuration, index table raw parts, action rows |
//! | 3  | fields   | per-field engine state (LUT slots, range dictionaries, trie arena indices) |
//! | 4  | tries    | flat arena of partitioned-trie images referenced by section 3 |
//!
//! The encoding is *physical*: hash slot arrays, index buckets and trie
//! level arenas are written verbatim, so encode → decode → encode is the
//! identity on bytes. That is the property the chaos suite leans on to
//! prove a restored runtime equals its pre-crash oracle, and it is why
//! decoding is a linear arena copy instead of a rebuild (the cold-start
//! speedup `repro -- coldstart` measures).
//!
//! Derived state is recomputed on decode: a trie's ancestor tables by
//! [`PartitionedTrie::finalize`], a range matcher from its stored range
//! dictionary (the same expression `intern` uses, so search behaviour is
//! identical). Every decoder path validates structure and returns a named
//! [`PersistError`] on hostile bytes — never a panic.

use mtl_persist::codec as rule_codec;
use mtl_persist::{Container, ContainerWriter, PersistError, Persistent, Reader, Writer};
use ofalgo::codec as algo_codec;
use ofalgo::{Label, PartitionedTrie, RangeMatcher};
use offilter::FilterKind;
use oflow::MatchFieldKind;

use crate::actions::{ActionRow, ActionTable};
use crate::config::{AlgorithmKind, FieldConfig, TableConfig};
use crate::engine::{FieldEngine, FieldKey};
use crate::index::IndexTable;
use crate::switch::{AppEngine, MtlSwitch, StoredRule, TableEngine};
use crate::update::BuildLedger;

/// Section ids of the switch image container.
pub const S_APPS: u32 = 1;
/// Table configurations, index tables and action tables.
pub const S_TABLES: u32 = 2;
/// Per-field engine state.
pub const S_FIELDS: u32 = 3;
/// Flat partitioned-trie arena.
pub const S_TRIES: u32 = 4;

const ENGINE_EM: u8 = 0;
const ENGINE_TRIE: u8 = 1;
const ENGINE_RANGE: u8 = 2;

const KEY_EXACT: u8 = 0;
const KEY_PREFIX: u8 = 1;
const KEY_RANGE: u8 = 2;
const KEY_ANY: u8 = 3;

const ALG_EM: u8 = 0;
const ALG_MBT: u8 = 1;
const ALG_RANGE: u8 = 2;

const ROW_CONTINUE: u8 = 0;
const ROW_FINAL: u8 = 1;

/// Widest plausible index key (label positions): tables match a handful of
/// fields plus at most one metadata position. Bounds the key-arena
/// allocation a hostile `positions` field could otherwise demand.
const MAX_POSITIONS: usize = 256;

fn malformed(context: &'static str, detail: String) -> PersistError {
    PersistError::Malformed { context, detail }
}

// ---------------------------------------------------------------- encode

fn encode_field_key(w: &mut Writer, key: FieldKey) {
    match key {
        FieldKey::Exact(v) => {
            w.put_u8(KEY_EXACT);
            w.put_u64(v);
        }
        FieldKey::Prefix(value, len) => {
            w.put_u8(KEY_PREFIX);
            w.put_u128(value);
            w.put_u32(len);
        }
        FieldKey::Range(lo, hi) => {
            w.put_u8(KEY_RANGE);
            w.put_u64(lo);
            w.put_u64(hi);
        }
        FieldKey::Any => w.put_u8(KEY_ANY),
    }
}

fn decode_field_key(r: &mut Reader<'_>) -> Result<FieldKey, PersistError> {
    match r.u8()? {
        KEY_EXACT => Ok(FieldKey::Exact(r.u64()?)),
        KEY_PREFIX => Ok(FieldKey::Prefix(r.u128()?, r.u32()?)),
        KEY_RANGE => Ok(FieldKey::Range(r.u64()?, r.u64()?)),
        KEY_ANY => Ok(FieldKey::Any),
        other => Err(malformed("field key", format!("unknown tag {other}"))),
    }
}

fn encode_algorithm(w: &mut Writer, alg: &AlgorithmKind) {
    match alg {
        AlgorithmKind::EmLut => w.put_u8(ALG_EM),
        AlgorithmKind::Mbt { partition_bits, strides } => {
            w.put_u8(ALG_MBT);
            w.put_u32(*partition_bits);
            w.put_usize(strides.len());
            for &s in strides {
                w.put_u32(s);
            }
        }
        AlgorithmKind::Range => w.put_u8(ALG_RANGE),
    }
}

fn decode_algorithm(r: &mut Reader<'_>) -> Result<AlgorithmKind, PersistError> {
    match r.u8()? {
        ALG_EM => Ok(AlgorithmKind::EmLut),
        ALG_MBT => {
            let partition_bits = r.u32()?;
            let count = r.seq_len(4)?;
            let mut strides = Vec::with_capacity(count);
            for _ in 0..count {
                strides.push(r.u32()?);
            }
            Ok(AlgorithmKind::Mbt { partition_bits, strides })
        }
        ALG_RANGE => Ok(AlgorithmKind::Range),
        other => Err(malformed("algorithm kind", format!("unknown tag {other}"))),
    }
}

fn encode_table_config(w: &mut Writer, config: &TableConfig) {
    w.put_u8(config.table_id);
    w.put_usize(config.fields.len());
    for field in &config.fields {
        rule_codec::encode_field_kind(w, field.field);
        encode_algorithm(w, &field.algorithm);
    }
    w.put_bool(config.uses_metadata);
    match config.goto {
        Some(goto) => {
            w.put_bool(true);
            w.put_u8(goto);
        }
        None => w.put_bool(false),
    }
}

fn decode_table_config(r: &mut Reader<'_>) -> Result<TableConfig, PersistError> {
    let table_id = r.u8()?;
    let field_count = r.seq_len(3)?;
    let mut fields = Vec::with_capacity(field_count);
    for _ in 0..field_count {
        let field = rule_codec::decode_field_kind(r)?;
        let algorithm = decode_algorithm(r)?;
        fields.push(FieldConfig { field, algorithm });
    }
    let uses_metadata = r.bool()?;
    let goto = if r.bool()? { Some(r.u8()?) } else { None };
    Ok(TableConfig { table_id, fields, uses_metadata, goto })
}

fn encode_index(w: &mut Writer, index: &IndexTable) {
    w.put_usize(index.positions());
    w.put_usize(index.capacity());
    for (hash, priority, row) in index.raw_buckets() {
        w.put_u64(hash);
        w.put_u32(priority);
        w.put_u32(row);
    }
    for &label in index.raw_keys() {
        algo_codec::encode_label(w, label);
    }
    w.put_usize(index.len());
    w.put_usize(index.primary_entries());
    w.put_usize(index.completion_entries());
}

fn decode_index(r: &mut Reader<'_>) -> Result<IndexTable, PersistError> {
    let positions = r.usize()?;
    if positions > MAX_POSITIONS {
        return Err(malformed("index table", format!("{positions} label positions")));
    }
    let capacity = r.seq_len(16)?;
    if capacity != 0 && !capacity.is_power_of_two() {
        return Err(malformed(
            "index table",
            format!("capacity {capacity} is neither zero nor a power of two"),
        ));
    }
    // Buckets and the key arena are fixed-stride records; decode them
    // as bulk slabs (one bounds check each) — this is restore's hot
    // path, and per-field checked reads dominate it otherwise.
    let buckets: Vec<(u64, u32, u32)> = r
        .raw(capacity * 16)?
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().expect("8-byte chunk")),
                u32::from_le_bytes(c[8..12].try_into().expect("4-byte chunk")),
                u32::from_le_bytes(c[12..].try_into().expect("4-byte chunk")),
            )
        })
        .collect();
    let key_count = capacity
        .checked_mul(positions)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| malformed("index table", "key arena size overflows".into()))?;
    let keys: Vec<Label> = r
        .raw(key_count)?
        .chunks_exact(4)
        .map(|c| Label(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
        .collect();
    let len = r.usize()?;
    let primary = r.usize()?;
    let completion = r.usize()?;
    if len > capacity || primary.checked_add(completion) != Some(len) {
        return Err(malformed(
            "index table",
            format!(
                "{len} entries ({primary} primary + {completion} completion) in {capacity} slots"
            ),
        ));
    }
    Ok(IndexTable::from_raw_parts(buckets, keys, positions, len, primary, completion))
}

fn encode_actions(w: &mut Writer, actions: &ActionTable) {
    w.put_usize(actions.len());
    for row in actions.rows() {
        match row {
            ActionRow::Continue { meta, goto } => {
                w.put_u8(ROW_CONTINUE);
                w.put_u64(*meta);
                w.put_u8(*goto);
            }
            ActionRow::Final(action) => {
                w.put_u8(ROW_FINAL);
                rule_codec::encode_rule_action(w, *action);
            }
        }
    }
}

fn decode_actions(r: &mut Reader<'_>) -> Result<ActionTable, PersistError> {
    let count = r.seq_len(2)?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        rows.push(match r.u8()? {
            ROW_CONTINUE => ActionRow::Continue { meta: r.u64()?, goto: r.u8()? },
            ROW_FINAL => ActionRow::Final(rule_codec::decode_rule_action(r)?),
            other => return Err(malformed("action row", format!("unknown tag {other}"))),
        });
    }
    Ok(ActionTable::from_rows(rows))
}

fn encode_opt_label(w: &mut Writer, label: Option<Label>) {
    match label {
        Some(l) => {
            w.put_bool(true);
            algo_codec::encode_label(w, l);
        }
        None => w.put_bool(false),
    }
}

fn decode_opt_label(r: &mut Reader<'_>) -> Result<Option<Label>, PersistError> {
    Ok(if r.bool()? { Some(algo_codec::decode_label(r)?) } else { None })
}

/// Rebuilds a range matcher from its stored range dictionary — the exact
/// expression `FieldEngine::intern` uses, so a decoded engine searches
/// identically to the live one it was snapshotted from.
fn rebuild_range_matcher(
    field: MatchFieldKind,
    ranges: &ofalgo::Dictionary<(u64, u64)>,
) -> RangeMatcher {
    RangeMatcher::new(
        field.bit_width().min(64),
        ranges.values().iter().enumerate().map(|(i, &(lo, hi))| (lo, hi, Label(i as u32))),
    )
}

// ----------------------------------------------------------------- image

struct AppSkeleton {
    kind: FilterKind,
    rule_keys: Vec<StoredRule>,
    final_rule_ids: Vec<u32>,
}

fn encode_apps_section(switch: &MtlSwitch) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(&switch.name);
    w.put_u64(switch.epoch);
    w.put_usize(switch.ledger.algorithm_label_records);
    w.put_usize(switch.ledger.algorithm_original_records);
    w.put_usize(switch.ledger.index_records);
    w.put_usize(switch.ledger.action_records);
    w.put_usize(switch.apps.len());
    for app in &switch.apps {
        rule_codec::encode_filter_kind(&mut w, app.kind);
        w.put_usize(app.rule_keys.len());
        for stored in &app.rule_keys {
            rule_codec::encode_rule(&mut w, &stored.rule);
            w.put_usize(stored.keys.len());
            for &key in &stored.keys {
                encode_field_key(&mut w, key);
            }
        }
        w.put_usize(app.final_rule_ids.len());
        for &id in &app.final_rule_ids {
            w.put_u32(id);
        }
    }
    w.into_bytes()
}

fn decode_apps_section(
    r: &mut Reader<'_>,
) -> Result<(String, u64, BuildLedger, Vec<AppSkeleton>), PersistError> {
    let name = r.str()?;
    let epoch = r.u64()?;
    let ledger = BuildLedger {
        algorithm_label_records: r.usize()?,
        algorithm_original_records: r.usize()?,
        index_records: r.usize()?,
        action_records: r.usize()?,
    };
    let app_count = r.seq_len(1)?;
    let mut apps = Vec::with_capacity(app_count);
    for _ in 0..app_count {
        let kind = rule_codec::decode_filter_kind(r)?;
        let rule_count = r.seq_len(8)?;
        let mut rule_keys = Vec::with_capacity(rule_count);
        for _ in 0..rule_count {
            let rule = rule_codec::decode_rule(r)?;
            let key_count = r.seq_len(1)?;
            let mut keys = Vec::with_capacity(key_count);
            for _ in 0..key_count {
                keys.push(decode_field_key(r)?);
            }
            rule_keys.push(StoredRule { rule, keys });
        }
        let final_count = r.seq_len(4)?;
        if final_count != rule_count {
            // Final row `i` belongs to rule `i`; removal indexes both by it.
            return Err(malformed(
                "switch image",
                format!("{final_count} final rows for {rule_count} rules"),
            ));
        }
        let mut final_rule_ids = Vec::with_capacity(final_count);
        for _ in 0..final_count {
            final_rule_ids.push(r.u32()?);
        }
        apps.push(AppSkeleton { kind, rule_keys, final_rule_ids });
    }
    Ok((name, epoch, ledger, apps))
}

impl Persistent for MtlSwitch {
    fn encode_image(&self) -> Vec<u8> {
        let mut tables = Writer::new();
        let mut fields = Writer::new();
        let mut trie_arena: Vec<&PartitionedTrie> = Vec::new();
        tables.put_usize(self.apps.len());
        fields.put_usize(self.apps.len());
        for app in &self.apps {
            tables.put_usize(app.tables.len());
            fields.put_usize(app.tables.len());
            for engine in &app.tables {
                encode_table_config(&mut tables, &engine.config);
                encode_index(&mut tables, &engine.index);
                encode_actions(&mut tables, &engine.actions);
                fields.put_usize(engine.engines.len());
                for (field, fe) in &engine.engines {
                    rule_codec::encode_field_kind(&mut fields, *field);
                    match fe {
                        FieldEngine::Em { lut, dict, any_label } => {
                            fields.put_u8(ENGINE_EM);
                            algo_codec::encode_hash_lut(&mut fields, lut);
                            algo_codec::encode_dictionary(&mut fields, dict, |w, &v| {
                                w.put_u64(v);
                            });
                            encode_opt_label(&mut fields, *any_label);
                        }
                        FieldEngine::Trie(trie) => {
                            fields.put_u8(ENGINE_TRIE);
                            fields.put_u32(trie_arena.len() as u32);
                            trie_arena.push(trie);
                        }
                        FieldEngine::Range { ranges, any_label, .. } => {
                            fields.put_u8(ENGINE_RANGE);
                            algo_codec::encode_dictionary(&mut fields, ranges, |w, &(lo, hi)| {
                                w.put_u64(lo);
                                w.put_u64(hi);
                            });
                            encode_opt_label(&mut fields, *any_label);
                        }
                    }
                }
            }
        }
        let mut tries = Writer::new();
        tries.put_usize(trie_arena.len());
        for trie in trie_arena {
            algo_codec::encode_partitioned(&mut tries, trie);
        }

        let mut container = ContainerWriter::new();
        container.section(S_APPS, encode_apps_section(self));
        container.section(S_TABLES, tables.into_bytes());
        container.section(S_FIELDS, fields.into_bytes());
        container.section(S_TRIES, tries.into_bytes());
        container.finish()
    }

    fn decode_image(bytes: &[u8]) -> Result<Self, PersistError> {
        let container = Container::parse(bytes)?;

        // The apps section (per-rule store) is by far the largest and
        // shares no state with the engine sections, so on a multi-core
        // host it decodes on a helper thread while this one rebuilds
        // tries, tables, and field engines — cold-start wall time
        // becomes max(apps, engines) instead of their sum. On a
        // single-core host the spawn is pure overhead, so it stays
        // inline.
        let decode_apps = |container: &Container<'_>| {
            let mut ar = container.section(S_APPS)?;
            let decoded = decode_apps_section(&mut ar)?;
            ar.finish()?;
            Ok::<_, PersistError>(decoded)
        };
        let multicore = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        std::thread::scope(|scope| {
            let apps_task =
                if multicore { Some(scope.spawn(|| decode_apps(&container))) } else { None };

            // Tries first: the field section references them by arena index.
            let mut tr = container.section(S_TRIES)?;
            let trie_count = tr.seq_len(16)?;
            let mut trie_arena: Vec<Option<PartitionedTrie>> = Vec::with_capacity(trie_count);
            for _ in 0..trie_count {
                trie_arena.push(Some(algo_codec::decode_partitioned(&mut tr)?));
            }
            tr.finish()?;

            let mut tbr = container.section(S_TABLES)?;
            let mut fr = container.section(S_FIELDS)?;
            let app_count = tbr.seq_len(1)?;
            let field_apps = fr.seq_len(1)?;
            if field_apps != app_count {
                return Err(malformed(
                    "switch image",
                    format!("fields section lists {field_apps} apps, tables section {app_count}"),
                ));
            }

            let mut app_tables = Vec::with_capacity(app_count);
            for _ in 0..app_count {
                let table_count = tbr.seq_len(1)?;
                let field_tables = fr.seq_len(1)?;
                if field_tables != table_count {
                    return Err(malformed(
                    "switch image",
                    format!("fields section lists {field_tables} tables, tables section {table_count}"),
                ));
                }
                let mut tables = Vec::with_capacity(table_count);
                for _ in 0..table_count {
                    let config = decode_table_config(&mut tbr)?;
                    let index = decode_index(&mut tbr)?;
                    let actions = decode_actions(&mut tbr)?;
                    let engine_count = fr.seq_len(3)?;
                    let mut engines = Vec::with_capacity(engine_count);
                    for _ in 0..engine_count {
                        let field = rule_codec::decode_field_kind(&mut fr)?;
                        let fe =
                            match fr.u8()? {
                                ENGINE_EM => {
                                    let lut = algo_codec::decode_hash_lut(&mut fr)?;
                                    let dict = algo_codec::decode_dictionary(&mut fr, |r| r.u64())?;
                                    let any_label = decode_opt_label(&mut fr)?;
                                    FieldEngine::Em { lut, dict, any_label }
                                }
                                ENGINE_TRIE => {
                                    let idx = fr.u32()? as usize;
                                    let trie =
                                        trie_arena.get_mut(idx).and_then(Option::take).ok_or_else(
                                            || {
                                                malformed(
                                        "switch image",
                                        format!("trie arena index {idx} out of range or reused"),
                                    )
                                            },
                                        )?;
                                    FieldEngine::Trie(trie)
                                }
                                ENGINE_RANGE => {
                                    let ranges = algo_codec::decode_dictionary(&mut fr, |r| {
                                        Ok((r.u64()?, r.u64()?))
                                    })?;
                                    let any_label = decode_opt_label(&mut fr)?;
                                    let matcher = rebuild_range_matcher(field, &ranges);
                                    FieldEngine::Range { ranges, matcher, any_label }
                                }
                                other => {
                                    return Err(malformed(
                                        "field engine",
                                        format!("unknown tag {other}"),
                                    ))
                                }
                            };
                        engines.push((field, fe));
                    }
                    tables.push(TableEngine { config, engines, index, actions });
                }
                app_tables.push(tables);
            }
            tbr.finish()?;
            fr.finish()?;
            if trie_arena.iter().any(Option::is_some) {
                return Err(malformed("switch image", "unreferenced trie in arena".into()));
            }

            let (name, epoch, ledger, skeletons) = match apps_task {
                Some(task) => task.join().expect("apps decode thread panicked")?,
                None => decode_apps(&container)?,
            };
            if skeletons.len() != app_tables.len() {
                return Err(malformed(
                    "switch image",
                    format!(
                        "tables section lists {} apps, apps section {}",
                        app_tables.len(),
                        skeletons.len()
                    ),
                ));
            }
            let apps = skeletons
                .into_iter()
                .zip(app_tables)
                .map(|(skeleton, tables)| AppEngine {
                    kind: skeleton.kind,
                    tables,
                    rule_keys: skeleton.rule_keys,
                    final_rule_ids: skeleton.final_rule_ids,
                    owners: None,
                })
                .collect();
            Ok(MtlSwitch { name, apps, ledger, epoch })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchConfig;
    use offilter::synth::{
        generate_acl, generate_mac, generate_routing, AclConfig, MacTargets, RoutingTargets,
    };
    use offilter::FilterSet;
    use oflow::HeaderValues;

    fn mac_set() -> FilterSet {
        generate_mac(
            &MacTargets {
                name: "snap-mac".into(),
                rules: 200,
                vlan_unique: 10,
                eth_partitions: [8, 40, 150],
                ports: 8,
            },
            41,
        )
    }

    fn routing_set() -> FilterSet {
        generate_routing(
            &RoutingTargets {
                name: "snap-routing".into(),
                rules: 250,
                port_unique: 9,
                ip_partitions: [25, 150],
                short_prefixes: 3,
                out_ports: 8,
            },
            43,
        )
    }

    fn paper_switch() -> MtlSwitch {
        let config = SwitchConfig::mac_routing_preset();
        MtlSwitch::try_build(&config, &[&mac_set(), &routing_set()]).expect("builds")
    }

    #[test]
    fn image_round_trips_byte_identically() {
        let switch = paper_switch();
        let image = switch.encode_image();
        let back = MtlSwitch::decode_image(&image).expect("decodes");
        assert_eq!(back.name, switch.name);
        assert_eq!(back.epoch(), switch.epoch());
        assert_eq!(back.ledger, switch.ledger);
        assert_eq!(back.encode_image(), image, "re-encode is byte-identical");
    }

    #[test]
    fn decoded_switch_classifies_identically() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let switch = paper_switch();
        let back = MtlSwitch::decode_image(&switch.encode_image()).expect("decodes");
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..500 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::VlanVid, u128::from(rng.gen::<u16>() % 16))
                .with(MatchFieldKind::EthDst, u128::from(rng.gen::<u64>() & 0xFFFF_FFFF_FFFF))
                .with(MatchFieldKind::InPort, u128::from(rng.gen::<u16>() % 12))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()));
            for app in &switch.apps {
                let (got, want) =
                    (back.classify_app(app.kind, &h), switch.classify_app(app.kind, &h));
                assert_eq!(got, want, "{} header {h}", app.kind);
            }
        }
    }

    #[test]
    fn range_engines_survive_the_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let set = generate_acl(
            &AclConfig {
                name: "snap-acl".into(),
                rules: 120,
                networks: 16,
                range_fraction: 0.5,
                deny_fraction: 0.3,
            },
            51,
        );
        let config = SwitchConfig::flat_app(offilter::FilterKind::Acl, 0);
        let switch = MtlSwitch::try_build(&config, &[&set]).expect("builds");
        let image = switch.encode_image();
        let back = MtlSwitch::decode_image(&image).expect("decodes");
        assert_eq!(back.encode_image(), image);
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..300 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::Ipv4Src, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
                .with(MatchFieldKind::TcpSrc, u128::from(rng.gen::<u16>()))
                .with(MatchFieldKind::TcpDst, u128::from(rng.gen::<u16>()))
                .with(MatchFieldKind::IpProto, u128::from(rng.gen::<u8>() % 4));
            let kind = offilter::FilterKind::Acl;
            assert_eq!(back.classify_app(kind, &h), switch.classify_app(kind, &h), "header {h}");
        }
    }

    #[test]
    fn truncation_and_corruption_fail_with_named_errors() {
        let switch = paper_switch();
        let image = switch.encode_image();
        // Truncate at a spread of cut points: always an error, never a
        // panic (every byte would be too slow for a multi-100-KiB image).
        for cut in (0..image.len()).step_by(37) {
            assert!(MtlSwitch::decode_image(&image[..cut]).is_err(), "cut at {cut}");
        }
        // Flip one bit in every section region: checksum must catch it.
        let mut corrupt = image.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x10;
        assert!(MtlSwitch::decode_image(&corrupt).is_err());
        // Bad magic.
        let mut corrupt = image.clone();
        corrupt[0] ^= 0xFF;
        assert!(matches!(MtlSwitch::decode_image(&corrupt), Err(PersistError::BadMagic { .. })));
    }

    #[test]
    fn decode_is_stable_across_rebuilds_of_equal_state() {
        // Two independent builds from the same sets must produce the same
        // image bytes — determinism is what makes the oracle comparison in
        // the chaos suite meaningful.
        let config = SwitchConfig::mac_routing_preset();
        let (mac, routing) = (mac_set(), routing_set());
        let a = MtlSwitch::try_build(&config, &[&mac, &routing]).expect("builds");
        let b = MtlSwitch::try_build(&config, &[&mac, &routing]).expect("builds");
        assert_eq!(a.encode_image(), b.encode_image());
    }
}
