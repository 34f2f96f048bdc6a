//! The multiple-table lookup switch.
//!
//! [`MtlSwitch::try_build`] compiles filter sets into the architecture of
//! Fig. 1: per table, a partition/selector feeding parallel single-field
//! engines, an index table combining their labels, and an action table
//! holding the OpenFlow instructions. Applications spanning several tables
//! are chained with `Write-Metadata` + `Goto-Table` (§IV.C): an
//! intermediate table's action row passes its own row number forward as
//! the metadata label, and the next table's index keys on it.
//!
//! The build runs in two passes: pass 1 interns every rule field (the
//! label method — duplicates write nothing), pass 2 computes shadow sets
//! against the complete dictionaries and registers index entries with
//! completion (see [`crate::index`]). Every structural problem — a
//! missing filter set, an unchained intermediate table, a constraint the
//! assigned algorithm cannot store — surfaces as a
//! [`classifier_api::BuildError`]; nothing on the build path panics.

use classifier_api::BuildError;
use ofalgo::{Label, MatchChain};
use offilter::{FilterKind, FilterSet};
use oflow::{HeaderValues, MatchFieldKind, Verdict};
use std::cell::RefCell;
use std::collections::HashMap;

use crate::actions::{ActionRow, ActionTable};
use crate::config::{SwitchConfig, TableConfig};
use crate::engine::{FieldEngine, FieldKey};
use crate::incremental::Owners;
use crate::index::IndexTable;
use crate::update::BuildLedger;

/// One lookup table: engines + index + actions.
#[derive(Debug, Clone)]
pub struct TableEngine {
    /// Static configuration.
    pub config: TableConfig,
    /// Field engines in configuration order.
    pub engines: Vec<(MatchFieldKind, FieldEngine)>,
    /// Label-combination index.
    pub index: IndexTable,
    /// Action rows.
    pub actions: ActionTable,
}

impl TableEngine {
    /// Structural memory accesses one packet's search through this
    /// table's engines costs (excluding index probes).
    #[must_use]
    pub fn engine_accesses(&self) -> usize {
        self.engines.iter().map(|(_, e)| e.search_accesses()).sum()
    }

    /// Chain slots one packet needs through this table: the metadata slot
    /// plus one per engine label position.
    fn chain_slots(&self) -> usize {
        usize::from(self.config.uses_metadata)
            + self.engines.iter().map(|(_, e)| e.label_positions()).sum::<usize>()
    }

    /// Fills `chains` (one slot per [`TableEngine::chain_slots`]) with the
    /// header's match chains through this table's engines, prefixed by the
    /// metadata chain when the table keys on it. Allocation-free once the
    /// chains' buffers have grown.
    fn fill_chains(&self, header: &HeaderValues, meta: Option<u32>, chains: &mut [MatchChain]) {
        let mut off = 0;
        if self.config.uses_metadata {
            let m = meta.expect("metadata-using table reached without metadata");
            chains[0].clear();
            chains[0].push(Label(m), u32::MAX);
            off = 1;
        }
        for (field, engine) in &self.engines {
            let width = engine.label_positions();
            let dst = &mut chains[off..off + width];
            match header.get(*field) {
                Some(v) => engine.search_into(v, dst),
                None => engine.search_missing_into(dst),
            }
            off += width;
        }
    }
}

/// Per-thread reusable buffers for the lookup paths: the match chains of
/// the widest table visited so far, the index-probe key under assembly,
/// and the tile-sized buffers of the engine-major batch-rows pipeline.
/// All grow to a high-water mark and are then reused, so a steady-state
/// [`MtlSwitch::classify_row`] (and the warmed batch path) performs zero
/// heap allocations.
#[derive(Default)]
struct Scratch {
    chains: Vec<MatchChain>,
    key: Vec<Label>,
    /// Flat chain storage of one batch tile (`slot * stride + position`).
    tile_chains: Vec<MatchChain>,
    /// Gathered per-packet header values for one engine of one tile.
    values: Vec<Option<u128>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// One application's table chain.
#[derive(Debug, Clone)]
pub struct AppEngine {
    /// The application kind.
    pub kind: FilterKind,
    /// Tables in pipeline order.
    pub tables: Vec<TableEngine>,
    /// Per rule: its field keys per table (for incremental updates and
    /// the update-plan generator).
    pub(crate) rule_keys: Vec<StoredRule>,
    /// Final-table action row -> originating rule id. Row `i` belongs to
    /// `rule_keys[i]`: rows are allocated one per rule, in rule order,
    /// and an incremental remove deletes both by the same swap.
    pub(crate) final_rule_ids: Vec<u32>,
    /// Who uses which label and which intermediate combination — what an
    /// incremental remove needs to know. Derived from the fields above
    /// on the first remove and kept current by later updates; never
    /// encoded, and `None` after a build, a decode or a regeneration.
    pub(crate) owners: Option<Owners>,
}

impl AppEngine {
    /// The rule id a final-table action row belongs to.
    #[must_use]
    pub fn rule_id_of_row(&self, row: u32) -> Option<u32> {
        self.final_rule_ids.get(row as usize).copied()
    }
}

/// Per-rule build record: the rule itself plus its engine-facing keys,
/// flattened table-major (table 0's fields first, then table 1's, …) —
/// used by incremental updates and the update-plan generator. Flat
/// storage matters: with 10⁴–10⁵ of these decoded per cold start, one
/// allocation per rule instead of one per table is a measurable slice
/// of the restore budget.
#[derive(Debug, Clone)]
pub(crate) struct StoredRule {
    pub rule: offilter::Rule,
    pub keys: Vec<FieldKey>,
}

/// Outcome of classifying one header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyResult {
    /// Final disposition.
    pub verdict: Verdict,
    /// Action row matched in the final table, if any.
    pub matched_row: Option<u32>,
    /// Index probes issued across tables (pipeline-cost statistic).
    pub probes: usize,
    /// `(table id, matched?)` per table visited.
    pub path: Vec<(u8, bool)>,
}

/// The built switch.
///
/// The switch is `Clone`: a clone is an independent deep copy of every
/// engine, index and action table (plus the current epoch). The
/// `mtl-runtime` control plane keeps two such images and alternates
/// between them — [`MtlSwitch::add_rule`]/[`MtlSwitch::remove_rule`]
/// edit the one no reader can reach while workers keep classifying
/// against the published one — so it deep-copies only to create the
/// second image and when a stalled reader still pins it. Both updates
/// are deterministic functions of the encoded image
/// ([`mtl_persist::Persistent`]), which is what keeps the two images,
/// and a runtime restored from a checkpoint plus its log tail,
/// byte-identical.
#[derive(Debug, Clone)]
pub struct MtlSwitch {
    /// Configuration name.
    pub name: String,
    /// Application engines in configuration order.
    pub apps: Vec<AppEngine>,
    /// Build-time update accounting (feeds the Fig. 5 experiment).
    pub ledger: BuildLedger,
    /// Rule-set generation counter: bumped by every `add_rule` /
    /// `remove_rule` / rebuild, and carried in the encoded image.
    pub(crate) epoch: u64,
}

impl MtlSwitch {
    /// Builds a switch: each application in `config` consumes the first
    /// filter set of its kind from `sets`.
    ///
    /// # Errors
    /// * [`BuildError::MissingFilterSet`] — a configured application has
    ///   no matching filter set;
    /// * [`BuildError::EmptyApplication`] /
    ///   [`BuildError::MissingGoto`] /
    ///   [`BuildError::DanglingMetadata`] — malformed table chains;
    /// * [`BuildError::UnsupportedConstraint`] /
    ///   [`BuildError::InvalidSchedule`] — a rule constrains a field in a
    ///   way its table's algorithm cannot store.
    pub fn try_build(config: &SwitchConfig, sets: &[&FilterSet]) -> Result<Self, BuildError> {
        let mut apps = Vec::new();
        let mut ledger = BuildLedger::default();
        for (kind, table_cfgs) in &config.apps {
            let set = sets
                .iter()
                .find(|s| s.kind == *kind)
                .ok_or(BuildError::MissingFilterSet { kind: *kind })?;
            apps.push(try_build_app(*kind, table_cfgs, set, &mut ledger)?);
        }
        Ok(Self { name: config.name.clone(), apps, ledger, epoch: 0 })
    }

    /// The rule-set generation: incremented by every mutation
    /// ([`MtlSwitch::add_rule`], [`MtlSwitch::remove_rule`], rebuilds).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Builds a switch, panicking on error — a convenience wrapper over
    /// [`MtlSwitch::try_build`] for presets known to be valid.
    ///
    /// # Panics
    /// Panics with the [`BuildError`] display if the build fails.
    #[must_use]
    pub fn build(config: &SwitchConfig, sets: &[&FilterSet]) -> Self {
        Self::try_build(config, sets).unwrap_or_else(|e| panic!("switch build failed: {e}"))
    }

    /// The application engine of a kind.
    #[must_use]
    pub fn app(&self, kind: FilterKind) -> Option<&AppEngine> {
        self.apps.iter().find(|a| a.kind == kind)
    }

    /// Classifies a header through one application's table chain.
    ///
    /// # Panics
    /// Panics if the switch has no application of that kind.
    #[must_use]
    pub fn classify_app(&self, kind: FilterKind, header: &HeaderValues) -> ClassifyResult {
        let app = self.app(kind).expect("application not configured");
        let mut path = Vec::with_capacity(app.tables.len());
        let mut probes = 0;
        let (verdict, matched_row) = self.walk_tables(app, header, &mut probes, Some(&mut path));
        ClassifyResult { verdict, matched_row, probes, path }
    }

    /// The fast single-packet path: classifies a header through one
    /// application and returns only the matched final-table action row.
    /// Skips the per-table path log of [`MtlSwitch::classify_app`] and
    /// runs entirely on per-thread reusable buffers, so the steady state
    /// performs **zero heap allocations** per packet.
    ///
    /// # Panics
    /// Panics if the switch has no application of that kind.
    #[must_use]
    pub fn classify_row(&self, kind: FilterKind, header: &HeaderValues) -> Option<u32> {
        let app = self.app(kind).expect("application not configured");
        let mut probes = 0;
        self.walk_tables(app, header, &mut probes, None).1
    }

    /// Walks a header through an application's tables on the thread-local
    /// scratch buffers. Returns the verdict and the final action row (if
    /// a final table hit); appends `(table, matched?)` pairs to `path`
    /// when provided.
    fn walk_tables(
        &self,
        app: &AppEngine,
        header: &HeaderValues,
        probes: &mut usize,
        mut path: Option<&mut Vec<(u8, bool)>>,
    ) -> (Verdict, Option<u32>) {
        SCRATCH.with(|cell| {
            let Scratch { chains, key, .. } = &mut *cell.borrow_mut();
            let mut meta: Option<u32> = None;
            for te in &app.tables {
                let slots = te.chain_slots();
                if chains.len() < slots {
                    chains.resize_with(slots, MatchChain::default);
                }
                te.fill_chains(header, meta, &mut chains[..slots]);
                let (hit, used) = te.index.probe_chains_with(&chains[..slots], key);
                *probes += used;
                if let Some(p) = path.as_deref_mut() {
                    p.push((te.config.table_id, hit.is_some()));
                }
                let Some((_, row)) = hit else {
                    // Table miss: "Send to controller".
                    return (Verdict::ToController, None);
                };
                match te.actions.get(row).expect("index row exists") {
                    ActionRow::Continue { meta: m, .. } => meta = Some(*m as u32),
                    ActionRow::Final(action) => {
                        let verdict = match action {
                            offilter::RuleAction::Forward(p) => Verdict::Output(*p),
                            offilter::RuleAction::Deny => Verdict::Drop,
                            offilter::RuleAction::Controller => Verdict::ToController,
                        };
                        return (verdict, Some(row));
                    }
                }
            }
            unreachable!("application chains end in a final table");
        })
    }

    /// Batched classification returning only the matched final-table rows
    /// — the path behind the [`classifier_api::Classifier`] batch
    /// surface. Processes the pipeline *table-major and engine-major*: per
    /// tile, every live packet is pushed through one field engine before
    /// the next is touched, with trie engines walking up to
    /// [`ofalgo::MULTI_WAY`] keys level-synchronously so independent loads
    /// overlap. Runs entirely on the per-thread scratch: the only
    /// per-batch heap write in the steady state is the result vector
    /// itself. Row-for-row identical to [`MtlSwitch::classify_row`] per
    /// header, over any split of the batch.
    ///
    /// # Panics
    /// Panics if the switch has no application of that kind.
    #[must_use]
    pub fn classify_batch_rows(
        &self,
        kind: FilterKind,
        headers: &[HeaderValues],
    ) -> Vec<Option<u32>> {
        let app = self.app(kind).expect("application not configured");
        let layouts = table_layouts(app);
        let mut out = Vec::with_capacity(headers.len());
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for tile in headers.chunks(TILE) {
                classify_tile_rows(app, &layouts, tile, scratch, &mut out);
            }
        });
        out
    }

    /// Total rules across applications.
    #[must_use]
    pub fn total_rules(&self) -> usize {
        self.apps.iter().map(|a| a.rule_keys.len()).sum()
    }
}

/// Packets per batch tile: large enough to amortise per-engine dispatch,
/// small enough that a tile's chains stay cache-hot.
const TILE: usize = 64;

/// Per table: chain-slot count per packet (metadata + one slot per engine
/// label position) and each engine's offset within it — the layout of the
/// flat chain buffers the batch pipeline writes.
fn table_layouts(app: &AppEngine) -> Vec<(usize, Vec<usize>)> {
    app.tables
        .iter()
        .map(|te| {
            let mut next = usize::from(te.config.uses_metadata);
            let offsets = te
                .engines
                .iter()
                .map(|(_, e)| {
                    let o = next;
                    next += e.label_positions();
                    o
                })
                .collect();
            (next, offsets)
        })
        .collect()
}

/// Engine-major classification of one tile of headers (metadata fill,
/// gathered values, interleaved multi-key trie walks, index probes),
/// appending each packet's final action row to `out` — no verdicts, no
/// path logs, no probe counters. Every buffer lives in the per-thread
/// [`Scratch`]; per-packet state is in fixed [`TILE`]-sized stack
/// arrays.
fn classify_tile_rows(
    app: &AppEngine,
    layouts: &[(usize, Vec<usize>)],
    headers: &[HeaderValues],
    scratch: &mut Scratch,
    out: &mut Vec<Option<u32>>,
) {
    let n = headers.len();
    debug_assert!(n <= TILE);
    let Scratch { key, tile_chains, values, .. } = scratch;
    let mut result = [None::<u32>; TILE];
    let mut meta = [0u32; TILE];
    // Packets still flowing through the pipeline, by header index,
    // compacted in place as packets resolve.
    let mut alive = [0u32; TILE];
    for (slot, a) in alive.iter_mut().enumerate().take(n) {
        *a = slot as u32;
    }
    let mut alive_len = n;

    for (te, (stride, offsets)) in app.tables.iter().zip(layouts) {
        if alive_len == 0 {
            break;
        }
        let stride = *stride;
        if tile_chains.len() < alive_len * stride {
            tile_chains.resize_with(alive_len * stride, MatchChain::default);
        }
        if values.len() < alive_len {
            values.resize(alive_len, None);
        }

        if te.config.uses_metadata {
            for (slot, &pi) in alive.iter().enumerate().take(alive_len) {
                let chain = &mut tile_chains[slot * stride];
                chain.clear();
                chain.push(Label(meta[pi as usize]), u32::MAX);
            }
        }
        for (ei, (field, engine)) in te.engines.iter().enumerate() {
            for (slot, &pi) in alive.iter().enumerate().take(alive_len) {
                values[slot] = headers[pi as usize].get(*field);
            }
            engine.search_many_into(&values[..alive_len], tile_chains, stride, offsets[ei]);
        }

        let mut next_len = 0;
        for slot in 0..alive_len {
            let pi = alive[slot];
            let chains = &tile_chains[slot * stride..(slot + 1) * stride];
            let (hit, _) = te.index.probe_chains_with(chains, key);
            // A table miss resolves the packet to "no row" (to-controller).
            let Some((_, row)) = hit else { continue };
            match te.actions.get(row).expect("index row exists") {
                ActionRow::Continue { meta: m, .. } => {
                    meta[pi as usize] = *m as u32;
                    alive[next_len] = pi;
                    next_len += 1;
                }
                ActionRow::Final(_) => result[pi as usize] = Some(row),
            }
        }
        alive_len = next_len;
    }
    debug_assert_eq!(alive_len, 0, "application chains end in a final table");
    out.extend_from_slice(&result[..n]);
}

/// Builds one application's table chain.
pub(crate) fn try_build_app(
    kind: FilterKind,
    table_cfgs: &[TableConfig],
    set: &FilterSet,
    ledger: &mut BuildLedger,
) -> Result<AppEngine, BuildError> {
    if table_cfgs.is_empty() {
        return Err(BuildError::EmptyApplication { kind });
    }
    if table_cfgs[0].uses_metadata {
        return Err(BuildError::DanglingMetadata { table_id: table_cfgs[0].table_id });
    }
    for tc in &table_cfgs[..table_cfgs.len() - 1] {
        if tc.goto.is_none() {
            return Err(BuildError::MissingGoto { table_id: tc.table_id });
        }
    }

    let mut tables: Vec<TableEngine> = Vec::with_capacity(table_cfgs.len());
    for tc in table_cfgs {
        let mut engines = Vec::with_capacity(tc.fields.len());
        for fc in &tc.fields {
            engines.push((fc.field, FieldEngine::try_new(fc.field, &fc.algorithm, set.len())?));
        }
        tables.push(TableEngine {
            config: tc.clone(),
            engines,
            index: IndexTable::new(),
            actions: ActionTable::new(),
        });
    }

    // Pass 1: intern all rule fields; remember keys, labels, specificity.
    // first_cost memoises the records the first insert of a value wrote, to
    // price the "original method" replay (Fig. 5).
    let mut rule_keys: Vec<StoredRule> = Vec::with_capacity(set.len());
    let mut labels: Vec<Vec<Vec<Label>>> = Vec::with_capacity(set.len());
    let mut specs: Vec<Vec<u32>> = Vec::with_capacity(set.len());
    let mut first_cost: HashMap<(usize, usize, FieldKey), usize> = HashMap::new();

    let total_fields: usize = tables.iter().map(|te| te.engines.len()).sum();
    for rule in &set.rules {
        let mut per_table_keys = Vec::with_capacity(total_fields);
        let mut per_table_labels = Vec::with_capacity(tables.len());
        let mut per_table_spec = Vec::with_capacity(tables.len());
        for (ti, te) in tables.iter_mut().enumerate() {
            let mut table_labels = Vec::new();
            let mut spec = 0;
            for (fi, (field, engine)) in te.engines.iter_mut().enumerate() {
                let key = FieldKey::from_match(rule.field(*field), *field);
                let outcome = engine.intern(*field, key, field.bit_width())?;
                let records = outcome.update.records();
                ledger.algorithm_label_records += records;
                let replay = if records > 0 {
                    first_cost.insert((ti, fi, key), records);
                    records
                } else {
                    *first_cost.get(&(ti, fi, key)).unwrap_or(&0)
                };
                ledger.algorithm_original_records += replay.max(1);
                spec += outcome.specificity;
                table_labels.extend(outcome.labels);
                per_table_keys.push(key);
            }
            per_table_labels.push(table_labels);
            per_table_spec.push(spec);
        }
        rule_keys.push(StoredRule { rule: rule.clone(), keys: per_table_keys });
        labels.push(per_table_labels);
        specs.push(per_table_spec);
    }

    // Finalize engines (trie ancestor tables) now that dictionaries are
    // complete.
    for te in &mut tables {
        for (_, engine) in &mut te.engines {
            engine.finalize();
        }
    }

    // Pass 2: register index entries with completed shadows.
    let mut combo_rows: Vec<HashMap<Vec<Label>, u32>> =
        (0..tables.len()).map(|_| HashMap::new()).collect();
    let mut final_rule_ids: Vec<u32> = Vec::with_capacity(set.len());
    for (ri, rule) in set.rules.iter().enumerate() {
        let mut meta: Option<u32> = None;
        let mut field_base = 0usize;
        for ti in 0..tables.len() {
            let mut key: Vec<Label> = Vec::new();
            let mut shadows: Vec<Vec<Label>> = Vec::new();
            if tables[ti].config.uses_metadata {
                key.push(Label(meta.expect("chained table follows an intermediate table")));
                shadows.push(Vec::new());
            }
            key.extend(labels[ri][ti].iter().copied());
            for (fi, (field, engine)) in tables[ti].engines.iter().enumerate() {
                let k = rule_keys[ri].keys[field_base + fi];
                shadows.extend(engine.shadows_for(*field, k, field.bit_width())?);
            }
            field_base += tables[ti].engines.len();
            let last = ti + 1 == tables.len();
            if last {
                let row = tables[ti].actions.push(ActionRow::Final(rule.action));
                debug_assert_eq!(row as usize, final_rule_ids.len());
                final_rule_ids.push(rule.id);
                ledger.action_records += 1;
                let before = tables[ti].index.len();
                let priority = u32::from(rule.priority);
                let index = &mut tables[ti].index;
                if let Some(holder) = index.register(&key, &shadows, priority, row) {
                    // Same match, same priority: the lower id answers, a
                    // choice that outlives rows moving (in-place removes)
                    // and the application being regenerated.
                    if rule.id < final_rule_ids[holder as usize] {
                        index.replace(&key, priority, row);
                    }
                }
                ledger.index_records += tables[ti].index.len() - before;
            } else {
                let goto = tables[ti]
                    .config
                    .goto
                    .ok_or(BuildError::MissingGoto { table_id: tables[ti].config.table_id })?;
                let (row, combo_is_new) = match combo_rows[ti].get(&key) {
                    Some(&row) => (row, false),
                    None => {
                        let row = tables[ti].actions.push_continue(goto);
                        ledger.action_records += 1;
                        (row, true)
                    }
                };
                let before = tables[ti].index.len();
                tables[ti].index.register(&key, &shadows, specs[ri][ti], row);
                ledger.index_records += tables[ti].index.len() - before;
                if combo_is_new {
                    combo_rows[ti].insert(key, row);
                }
                meta = Some(row);
            }
        }
    }

    Ok(AppEngine { kind, tables, rule_keys, final_rule_ids, owners: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use offilter::synth::{generate_mac, generate_routing, MacTargets, RoutingTargets};
    use offilter::{Rule, RuleAction};
    use oflow::FieldMatch;

    /// Flat reference classifier: highest-priority rule matching all
    /// fields.
    fn flat_classify<'a>(set: &'a FilterSet, header: &HeaderValues) -> Option<&'a Rule> {
        set.rules
            .iter()
            .filter(|r| r.flow_match.matches(header))
            .max_by_key(|r| (r.priority, r.flow_match.specificity()))
    }

    fn mac_set() -> FilterSet {
        generate_mac(
            &MacTargets {
                name: "t".into(),
                rules: 300,
                vlan_unique: 12,
                eth_partitions: [8, 60, 200],
                ports: 8,
            },
            11,
        )
    }

    fn routing_set() -> FilterSet {
        generate_routing(
            &RoutingTargets {
                name: "t".into(),
                rules: 400,
                port_unique: 10,
                ip_partitions: [30, 250],
                short_prefixes: 4,
                out_ports: 8,
            },
            13,
        )
    }

    fn header_for(rule: &Rule, kind: FilterKind) -> HeaderValues {
        let mut h = HeaderValues::new();
        for &field in kind.fields() {
            match rule.field(field) {
                FieldMatch::Exact(v) => {
                    h.set(field, v);
                }
                FieldMatch::Prefix { value, len } => {
                    // Fill the free low bits with ones to stress LPM.
                    let free = field.bit_width() - len;
                    let fill = if free == 0 { 0 } else { (1u128 << free) - 1 };
                    h.set(field, value | fill);
                }
                FieldMatch::Range { lo, .. } => {
                    h.set(field, lo);
                }
                FieldMatch::Any => {}
            }
        }
        h
    }

    #[test]
    fn mac_app_agrees_with_flat_reference() {
        let set = mac_set();
        let config = SwitchConfig::single_app(FilterKind::MacLearning, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        for rule in &set.rules {
            let h = header_for(rule, FilterKind::MacLearning);
            let want = flat_classify(&set, &h).unwrap();
            let got = sw.classify_app(FilterKind::MacLearning, &h);
            assert_eq!(got.verdict, Verdict::Output(want.action.port().unwrap()), "rule {rule}");
        }
    }

    #[test]
    fn mac_app_misses_go_to_controller() {
        let set = mac_set();
        let config = SwitchConfig::single_app(FilterKind::MacLearning, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        // A VLAN that exists with a MAC that does not.
        let some_vlan = set.rules[0].field_as_prefix(MatchFieldKind::VlanVid).unwrap().0;
        let h = HeaderValues::new()
            .with(MatchFieldKind::VlanVid, some_vlan)
            .with(MatchFieldKind::EthDst, 0x0191_0000_0001);
        let got = sw.classify_app(FilterKind::MacLearning, &h);
        assert_eq!(got.verdict, Verdict::ToController);
        // An unknown VLAN misses in table 0 already.
        let h = HeaderValues::new()
            .with(MatchFieldKind::VlanVid, 0x0FFE)
            .with(MatchFieldKind::EthDst, 1);
        let got = sw.classify_app(FilterKind::MacLearning, &h);
        assert_eq!(got.verdict, Verdict::ToController);
        assert_eq!(got.path.len(), 1);
    }

    #[test]
    fn routing_app_agrees_with_flat_reference() {
        let set = routing_set();
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        // Probe with headers derived from every rule (prefix low bits
        // stressed) plus shifted variants.
        for rule in &set.rules {
            let h = header_for(rule, FilterKind::Routing);
            let want = flat_classify(&set, &h).expect("rule matches its own header");
            let got = sw.classify_app(FilterKind::Routing, &h);
            assert_eq!(got.verdict, Verdict::Output(want.action.port().unwrap()), "rule {rule}");
        }
    }

    #[test]
    fn routing_random_headers_agree_with_flat_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let set = routing_set();
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        let mut rng = StdRng::seed_from_u64(7);
        let ports: Vec<u128> = set
            .rules
            .iter()
            .map(|r| r.field_as_prefix(MatchFieldKind::InPort).unwrap().0)
            .collect();
        for _ in 0..2000 {
            let h = HeaderValues::new()
                .with(MatchFieldKind::InPort, ports[rng.gen_range(0..ports.len())])
                .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()));
            let want = flat_classify(&set, &h);
            let got = sw.classify_app(FilterKind::Routing, &h);
            match want {
                Some(rule) => assert_eq!(
                    got.verdict,
                    Verdict::Output(rule.action.port().unwrap()),
                    "header {h}"
                ),
                None => assert_eq!(got.verdict, Verdict::ToController, "header {h}"),
            }
        }
    }

    #[test]
    fn batch_classification_matches_per_packet() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let set = routing_set();
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        let mut rng = StdRng::seed_from_u64(9);
        let ports: Vec<u128> = set
            .rules
            .iter()
            .map(|r| r.field_as_prefix(MatchFieldKind::InPort).unwrap().0)
            .collect();
        let headers: Vec<HeaderValues> = (0..512)
            .map(|i| {
                // Mix hits, misses and unknown ports.
                let port = if i % 7 == 0 { 0xFFFF } else { ports[rng.gen_range(0..ports.len())] };
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, port)
                    .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
            })
            .collect();
        let batch = sw.classify_batch_rows(FilterKind::Routing, &headers);
        assert_eq!(batch.len(), headers.len());
        for (h, got) in headers.iter().zip(&batch) {
            assert_eq!(got, &sw.classify_row(FilterKind::Routing, h), "header {h}");
        }
        // Empty batches are fine.
        assert!(sw.classify_batch_rows(FilterKind::Routing, &[]).is_empty());
    }

    #[test]
    fn fast_row_path_and_parallel_batch_agree_with_classify() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let set = routing_set();
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        let mut rng = StdRng::seed_from_u64(23);
        let ports: Vec<u128> = set
            .rules
            .iter()
            .map(|r| r.field_as_prefix(MatchFieldKind::InPort).unwrap().0)
            .collect();
        let headers: Vec<HeaderValues> = (0..300)
            .map(|i| {
                let port = if i % 9 == 0 { 0xFFFF } else { ports[rng.gen_range(0..ports.len())] };
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, port)
                    .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
            })
            .collect();
        let batch = sw.classify_batch_rows(FilterKind::Routing, &headers);
        for (h, row) in headers.iter().zip(&batch) {
            // The pathless fast row equals the full result's matched row.
            let want = sw.classify_app(FilterKind::Routing, h).matched_row;
            assert_eq!(sw.classify_row(FilterKind::Routing, h), want, "header {h}");
            assert_eq!(*row, want, "batched header {h}");
        }
        // The runtime's shards each classify their own slice of a batch in
        // parallel: any split answers element-wise identically, including
        // shard sizes that do not divide the batch or a tile.
        for shard in [1, 2, 3, 7, 63, 65, 300] {
            let split: Vec<Option<u32>> = headers
                .chunks(shard)
                .flat_map(|chunk| sw.classify_batch_rows(FilterKind::Routing, chunk))
                .collect();
            assert_eq!(split, batch, "shard size = {shard}");
        }
    }

    #[test]
    fn paper_preset_serves_both_apps() {
        let mac = mac_set();
        let routing = routing_set();
        let config = SwitchConfig::mac_routing_preset();
        let sw = MtlSwitch::build(&config, &[&mac, &routing]);
        assert_eq!(sw.apps.len(), 2);
        assert_eq!(sw.total_rules(), mac.len() + routing.len());

        let h = header_for(&mac.rules[0], FilterKind::MacLearning);
        let got = sw.classify_app(FilterKind::MacLearning, &h);
        assert!(matches!(got.verdict, Verdict::Output(_)));

        let h = header_for(&routing.rules[10], FilterKind::Routing);
        let got = sw.classify_app(FilterKind::Routing, &h);
        assert!(matches!(got.verdict, Verdict::Output(_)));
    }

    #[test]
    fn cloned_snapshot_is_independent() {
        let set = routing_set();
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let mut sw = MtlSwitch::build(&config, &[&set]);
        let snapshot = sw.clone();
        assert_eq!(snapshot.epoch(), sw.epoch());
        let headers: Vec<HeaderValues> =
            set.rules.iter().map(|r| header_for(r, FilterKind::Routing)).collect();
        for h in &headers {
            assert_eq!(
                snapshot.classify_app(FilterKind::Routing, h),
                sw.classify_app(FilterKind::Routing, h),
                "header {h}"
            );
        }
        // Mutating the original must not leak into the snapshot: the
        // removed rule keeps matching through the old table image.
        let victim = set.rules[0].id;
        let victim_header = header_for(&set.rules[0], FilterKind::Routing);
        let before = snapshot.classify_app(FilterKind::Routing, &victim_header);
        sw.remove_rule(FilterKind::Routing, victim).expect("rule exists");
        assert_eq!(snapshot.classify_app(FilterKind::Routing, &victim_header), before);
        assert!(sw.epoch() > snapshot.epoch(), "mutation bumps only the master epoch");
    }

    #[test]
    fn ledger_shows_label_savings() {
        let set = mac_set();
        let config = SwitchConfig::single_app(FilterKind::MacLearning, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        assert!(
            sw.ledger.algorithm_label_records < sw.ledger.algorithm_original_records,
            "label method must write fewer records: {} vs {}",
            sw.ledger.algorithm_label_records,
            sw.ledger.algorithm_original_records
        );
    }

    #[test]
    fn missing_filter_set_is_an_error() {
        let set = mac_set();
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let err = MtlSwitch::try_build(&config, &[&set]).unwrap_err();
        assert_eq!(err, BuildError::MissingFilterSet { kind: FilterKind::Routing });
    }

    #[test]
    fn malformed_chains_are_errors() {
        let set = routing_set();
        // First table keyed on metadata nobody wrote.
        let mut config = SwitchConfig::single_app(FilterKind::Routing, 0);
        config.apps[0].1[0].uses_metadata = true;
        let err = MtlSwitch::try_build(&config, &[&set]).unwrap_err();
        assert!(matches!(err, BuildError::DanglingMetadata { table_id: 0 }), "{err:?}");
        // Intermediate table without a goto target.
        let mut config = SwitchConfig::single_app(FilterKind::Routing, 0);
        config.apps[0].1[0].goto = None;
        let err = MtlSwitch::try_build(&config, &[&set]).unwrap_err();
        assert!(matches!(err, BuildError::MissingGoto { table_id: 0 }), "{err:?}");
        // Application with zero tables.
        let mut config = SwitchConfig::single_app(FilterKind::Routing, 0);
        config.apps[0].1.clear();
        let err = MtlSwitch::try_build(&config, &[&set]).unwrap_err();
        assert!(matches!(err, BuildError::EmptyApplication { .. }), "{err:?}");
    }

    #[test]
    fn unsupported_rule_constraint_is_an_error() {
        // A range constraint on a field configured as an EM LUT.
        let rules = vec![Rule::new(
            0,
            1,
            oflow::FlowMatch::any()
                .with_range(MatchFieldKind::InPort, 1, 5)
                .unwrap()
                .with_prefix(MatchFieldKind::Ipv4Dst, 0, 0)
                .unwrap(),
            RuleAction::Forward(1),
        )];
        let set = FilterSet::new("bad", FilterKind::Routing, rules);
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let err = MtlSwitch::try_build(&config, &[&set]).unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedConstraint { .. }), "{err:?}");
    }

    #[test]
    fn final_rows_map_back_to_rule_ids() {
        let set = routing_set();
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);
        let app = &sw.apps[0];
        assert_eq!(app.final_rule_ids.len(), set.len());
        for rule in &set.rules {
            let h = header_for(rule, FilterKind::Routing);
            let got = sw.classify_app(FilterKind::Routing, &h);
            let row = got.matched_row.expect("rule matches its own header");
            let id = app.rule_id_of_row(row).expect("row maps to a rule");
            let want = flat_classify(&set, &h).unwrap();
            assert_eq!(id, want.id, "rule {rule}");
        }
        assert_eq!(app.rule_id_of_row(u32::MAX), None);
    }

    #[test]
    fn nested_prefix_adversarial_case() {
        // Rules crafted to trigger same-level shadowing: two lower-trie
        // prefixes of lengths 18 and 20 (both L1 of the lower trie) with
        // different ports, nested values.
        let rules = vec![
            Rule::new(
                0,
                18,
                oflow::FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 1)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_0000, 18)
                    .unwrap(),
                RuleAction::Forward(100),
            ),
            Rule::new(
                1,
                20,
                oflow::FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 2)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_1000, 20)
                    .unwrap(),
                RuleAction::Forward(200),
            ),
        ];
        let set = FilterSet::new("adv", FilterKind::Routing, rules);
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);
        let sw = MtlSwitch::build(&config, &[&set]);

        // Packet inside the /20 region but arriving on port 1: must match
        // rule 0 even though the lower-trie LPM reports the /20's label.
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_1234);
        assert_eq!(sw.classify_app(FilterKind::Routing, &h).verdict, Verdict::Output(100));

        // Port 2 in the same region matches rule 1.
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 2)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_1234);
        assert_eq!(sw.classify_app(FilterKind::Routing, &h).verdict, Verdict::Output(200));

        // Port 2 outside the /20 but inside the /18 matches nothing.
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 2)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0234);
        assert_eq!(sw.classify_app(FilterKind::Routing, &h).verdict, Verdict::ToController);
    }

    #[test]
    fn default_route_backstop() {
        let rules = vec![
            Rule::new(
                0,
                0,
                oflow::FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 1)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0, 0)
                    .unwrap(),
                RuleAction::Forward(1),
            ),
            Rule::new(
                1,
                24,
                oflow::FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 1)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_0200, 24)
                    .unwrap(),
                RuleAction::Forward(2),
            ),
        ];
        let set = FilterSet::new("def", FilterKind::Routing, rules);
        let sw = MtlSwitch::build(&SwitchConfig::single_app(FilterKind::Routing, 0), &[&set]);
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0299);
        assert_eq!(sw.classify_app(FilterKind::Routing, &h).verdict, Verdict::Output(2));
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0xDEAD_BEEF);
        assert_eq!(sw.classify_app(FilterKind::Routing, &h).verdict, Verdict::Output(1));
    }
}
