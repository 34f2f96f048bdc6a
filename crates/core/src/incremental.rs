//! Incremental rule updates on a built switch.
//!
//! The paper lists "incremental update ability" among the lookup-efficiency
//! criteria (§I) and §V.B prices an update by the stored datums it writes.
//! This module provides the two controller operations, both O(rule):
//!
//! * [`MtlSwitch::add_rule`] — interns the rule's field values (writing
//!   only new ones, per the label method), refreshes the trie ancestor
//!   tables, and registers one index entry per table. The
//!   ancestor-closure search makes this sound without touching existing
//!   entries: a new, more specific trie value changes other packets'
//!   LPM results, but their chains still contain the old labels, so the
//!   old combinations still hit. The one exception is a *new unique
//!   range* on a range-matched field — range matches are not totally
//!   ordered, so the affected application falls back to a rebuild (and
//!   the returned stats say so).
//! * [`MtlSwitch::remove_rule`] — the inverse edit: deletes exactly the
//!   index entries and the action row the rule owns. A final-table entry
//!   several rules share (same match) is handed to the runner-up — the
//!   highest priority, then the lowest id, which is also how the build
//!   and `add_rule` settle such a tie: an answer must not depend on where
//!   a rule's row sits, because a remove moves the last row into the gap.
//!   An intermediate `Continue` entry goes when its last user does. An entry left behind would *not* be harmless — an orphan
//!   exact-port table-0 entry outranks every wildcard-port rule — but a
//!   label left behind in a field engine is, by the same
//!   ancestor-closure argument that makes `add_rule` sound: it widens a
//!   packet's match chains with a label no index entry mentions. So the
//!   engines are not edited at all, and a re-added value finds its label
//!   (LUT slot, trie prefix) still in the dictionary.
//!
//! ## Garbage and compaction
//!
//! What a remove leaves behind — labels no stored rule uses, `Continue`
//! rows no index entry reaches — is counted ([`Owners`]), and once it
//! exceeds one live label in [`COMPACT_ORPHANS_PER_LIVE`] the remove
//! finishes by regenerating the application from its surviving rules:
//! the §V.B controller flow ("two files are generated ... the processed
//! information is stored in an update file"), kept as the compactor.
//! The same regeneration serves applications with a range engine, whose
//! shadow-completion entries an in-place remove cannot attribute, and it
//! is the oracle the differential tests hold the in-place edit against.
//!
//! Every input to these decisions — including *when* to compact — is a
//! function of the encoded image: the owner counts are derived from the
//! stored rules and dictionaries on the first remove after a build or a
//! decode, not carried beside them. A runtime restored from a checkpoint
//! plus its log tail therefore compacts at the same operation as the
//! live one and stays byte-identical to it.

use classifier_api::BuildError;
use ofalgo::Label;
use offilter::{FilterKind, FilterSet, Rule};
use std::cmp::Reverse;

use crate::actions::ActionRow;
use crate::engine::{FieldEngine, FieldKey};
use crate::switch::{try_build_app, AppEngine, MtlSwitch, StoredRule, TableEngine};
use crate::update::UpdateStats;

/// The garbage bound: a remove compacts its application once the orphans
/// it has left behind (labels no stored rule uses, `Continue` rows no
/// index entry reaches) outnumber one in this many live ones.
pub const COMPACT_ORPHANS_PER_LIVE: usize = 4;

/// How an update was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Applied in place; only the datums the rule owns were written.
    Incremental,
    /// The application was regenerated from its rule list (range-engine
    /// tables, whose completion entries cannot be edited in place).
    Rebuild,
    /// Removed in place, after which the garbage bound
    /// ([`COMPACT_ORPHANS_PER_LIVE`]) was exceeded and the application
    /// was regenerated from its surviving rules.
    Compacted,
}

/// Outcome of an incremental operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Records written (2 clock cycles each, §V.B).
    pub stats: UpdateStats,
    /// Whether the fast path applied.
    pub mode: UpdateMode,
}

/// Use counts over one application's labels and intermediate
/// combinations: what tells a remove whether the rule was the last user
/// of a `Continue` entry, and how much garbage the removes so far have
/// left. A pure function of the application's stored rules, dictionaries
/// and tables ([`Owners::derive`]), kept current by every in-place
/// update once derived.
#[derive(Debug, Clone)]
pub(crate) struct Owners {
    /// `labels[table][position][label]`: stored rules whose field
    /// constraint maps to that label (positions exclude the metadata).
    labels: Vec<Vec<Vec<u32>>>,
    /// `combos[table][row]`: stored rules routed through that `Continue`
    /// row (empty for the final table, whose rows belong to one rule).
    combos: Vec<Vec<u32>>,
    /// Counters above that are zero: the garbage.
    orphans: usize,
    /// Counters above that are not.
    live: usize,
}

/// One table's share of a stored rule: the index key the rule is
/// registered under (metadata label first where the table chains) and,
/// for an intermediate table, the `Continue` row that key leads to.
type Hop = (Vec<Label>, Option<u32>);

/// Where a stored rule sits in each table of its application, from its
/// field keys alone. `None` when that cannot be told — a table with a
/// range engine ([`FieldEngine::labels_of`]), or tables that do not hold
/// the rule (an image this code did not write) — and callers regenerate
/// instead.
fn resolve(tables: &[TableEngine], keys: &[FieldKey]) -> Option<Vec<Hop>> {
    let mut hops = Vec::with_capacity(tables.len());
    let mut meta = None;
    let mut keys = keys.iter();
    for (ti, te) in tables.iter().enumerate() {
        let mut key = Vec::new();
        if te.config.uses_metadata {
            key.push(Label(meta?));
        }
        for (field, engine) in &te.engines {
            key.extend(engine.labels_of(*keys.next()?, field.bit_width())?);
        }
        let row = if ti + 1 < tables.len() { Some(te.index.probe(&key)?.1) } else { None };
        meta = row;
        hops.push((key, row));
    }
    Some(hops)
}

impl Owners {
    /// Counts every stored rule's labels and combinations.
    fn derive(app: &AppEngine) -> Option<Self> {
        let last = app.tables.len().checked_sub(1)?;
        let labels: Vec<Vec<Vec<u32>>> = app
            .tables
            .iter()
            .map(|te| {
                te.engines
                    .iter()
                    .flat_map(|(_, e)| e.labels_issued())
                    .map(|issued| vec![0; issued])
                    .collect()
            })
            .collect();
        let combos: Vec<Vec<u32>> = app
            .tables
            .iter()
            .enumerate()
            .map(|(ti, te)| vec![0; if ti < last { te.actions.len() } else { 0 }])
            .collect();
        let orphans = labels.iter().flatten().chain(&combos).map(Vec::len).sum();
        let mut owners = Self { labels, combos, orphans, live: 0 };
        for stored in &app.rule_keys {
            for (ti, (key, row)) in resolve(&app.tables, &stored.keys)?.iter().enumerate() {
                owners.gain(ti, &key[usize::from(app.tables[ti].config.uses_metadata)..], *row);
            }
        }
        Some(owners)
    }

    /// Counts one more user of `counts[i]` (a label or row handed out
    /// since the counters were sized starts at zero users).
    fn bump(counts: &mut Vec<u32>, i: usize, orphans: &mut usize, live: &mut usize) {
        if i >= counts.len() {
            *orphans += i + 1 - counts.len();
            counts.resize(i + 1, 0);
        }
        if counts[i] == 0 {
            *orphans -= 1;
            *live += 1;
        }
        counts[i] += 1;
    }

    /// Counts one user of `counts[i]` less; `true` when it was the last.
    fn unbump(counts: &mut [u32], i: usize, orphans: &mut usize, live: &mut usize) -> bool {
        counts[i] -= 1;
        let orphaned = counts[i] == 0;
        if orphaned {
            *orphans += 1;
            *live -= 1;
        }
        orphaned
    }

    /// A rule now uses `fields` (table `ti`'s index key without its
    /// metadata label) and, in an intermediate table, `Continue` row `combo`.
    fn gain(&mut self, ti: usize, fields: &[Label], combo: Option<u32>) {
        let Self { labels, combos, orphans, live } = self;
        for (counts, label) in labels[ti].iter_mut().zip(fields) {
            Self::bump(counts, label.index(), orphans, live);
        }
        if let Some(row) = combo {
            Self::bump(&mut combos[ti], row as usize, orphans, live);
        }
    }

    /// The inverse of [`Owners::gain`]; `true` when `combo` lost its
    /// last user.
    fn lose(&mut self, ti: usize, fields: &[Label], combo: Option<u32>) -> bool {
        let Self { labels, combos, orphans, live } = self;
        for (counts, label) in labels[ti].iter_mut().zip(fields) {
            Self::unbump(counts, label.index(), orphans, live);
        }
        combo.is_some_and(|row| Self::unbump(&mut combos[ti], row as usize, orphans, live))
    }

    /// Whether the garbage bound is exceeded.
    fn over_bound(&self) -> bool {
        self.orphans * COMPACT_ORPHANS_PER_LIVE > self.live
    }
}

/// Deletes rule `pos` of `app` in place: exactly the index entries and
/// the action row it owns. Returns the records written, or `None` —
/// with nothing changed — when the application has to be regenerated
/// instead (a range engine, or tables the rule does not resolve in).
fn remove_in_place(app: &mut AppEngine, pos: usize) -> Option<usize> {
    if app.owners.is_none() {
        app.owners = Some(Owners::derive(app)?);
    }
    let path = resolve(&app.tables, &app.rule_keys[pos].keys)?;
    // The last rule's action row will move into the deleted one's place.
    let last = app.rule_keys.len() - 1;
    let moved_key = if pos == last {
        None
    } else {
        Some(resolve(&app.tables, &app.rule_keys[last].keys)?.pop()?.0)
    };

    // Everything is resolved: from here on the edit cannot fail.
    let AppEngine { tables, rule_keys, final_rule_ids, owners, .. } = app;
    let owners = owners.as_mut().expect("derived above");
    let mut records = 0;
    for (ti, (key, combo)) in path.iter().enumerate() {
        let te = &mut tables[ti];
        let fields = &key[usize::from(te.config.uses_metadata)..];
        if owners.lose(ti, fields, *combo) {
            // Last user of the combination: its entry must go (an
            // orphan entry would keep outranking less specific rules),
            // and so do trailing rows nothing is routed through.
            te.index.remove(key);
            records += 1;
            while owners.combos[ti].last() == Some(&0) {
                owners.combos[ti].pop();
                owners.orphans -= 1;
                te.actions.pop();
                records += 1;
            }
        }
    }

    let (key, _) = path.last().expect("applications have a final table");
    let te = tables.last_mut().expect("applications have a final table");
    let (row, last_row) = (pos as u32, last as u32);
    if te.index.probe(key).is_some_and(|(_, r)| r == row) {
        // The rule answers for its key. More rules than final entries
        // means some key is shared: look for this one's runner-up
        // (highest priority, then lowest id, as in the build — not the
        // position, which this very function changes).
        let runner_up = (rule_keys.len() > te.index.len())
            .then(|| {
                let keys = &rule_keys[pos].keys;
                rule_keys
                    .iter()
                    .enumerate()
                    .filter(|&(i, s)| i != pos && s.keys == *keys)
                    .max_by_key(|&(_, s)| (s.rule.priority, Reverse(s.rule.id)))
            })
            .flatten();
        match runner_up {
            Some((i, s)) => {
                te.index.replace(key, u32::from(s.rule.priority), i as u32);
            }
            None => {
                te.index.remove(key);
            }
        }
        records += 1;
    }
    te.actions.swap_remove(row);
    rule_keys.swap_remove(pos);
    final_rule_ids.swap_remove(pos);
    records += 1;
    if let Some(key) = moved_key {
        if let Some((priority, _)) = te.index.probe(&key).filter(|&(_, r)| r == last_row) {
            te.index.replace(&key, priority, row);
            records += 1;
        }
    }
    Some(records)
}

impl MtlSwitch {
    /// Adds a rule to an application. Returns the records written and
    /// whether the incremental fast path applied.
    ///
    /// # Panics
    /// Panics if the switch has no application of `kind` or the rule's
    /// constraints cannot be stored; see [`MtlSwitch::try_add_rule`] for
    /// the fallible form.
    pub fn add_rule(&mut self, kind: FilterKind, rule: Rule) -> UpdateOutcome {
        self.try_add_rule(kind, rule).unwrap_or_else(|e| panic!("incremental add failed: {e}"))
    }

    /// Adds a rule to an application. Returns the records written and
    /// whether the incremental fast path applied.
    ///
    /// On error the switch is unchanged: every field constraint is
    /// validated against its engine *before* anything is interned or
    /// registered, so a rejected rule cannot leave orphan index entries
    /// or action rows behind.
    ///
    /// # Errors
    /// [`BuildError::MissingFilterSet`] when the switch has no application
    /// of `kind`; [`BuildError::UnsupportedConstraint`] when the rule
    /// constrains a field in a way its table's algorithm cannot store.
    pub fn try_add_rule(
        &mut self,
        kind: FilterKind,
        rule: Rule,
    ) -> Result<UpdateOutcome, BuildError> {
        let app_idx = self
            .apps
            .iter()
            .position(|a| a.kind == kind)
            .ok_or(BuildError::MissingFilterSet { kind })?;

        // Validate every constraint shape up front, so a rejection in a
        // later table cannot leave earlier tables partially updated.
        for te in &self.apps[app_idx].tables {
            for (field, engine) in &te.engines {
                let key = FieldKey::from_match(rule.field(*field), *field);
                engine.validate_key(*field, key)?;
            }
        }

        // Detect the range-engine slow path before mutating anything.
        let needs_rebuild = {
            let app = &self.apps[app_idx];
            app.tables.iter().any(|te| {
                te.engines.iter().any(|(field, engine)| {
                    if let FieldEngine::Range { ranges, .. } = engine {
                        let key = FieldKey::from_match(rule.field(*field), *field);
                        match key {
                            FieldKey::Range(lo, hi) => ranges.get(&(lo, hi)).is_none(),
                            FieldKey::Exact(v) => ranges.get(&(v, v)).is_none(),
                            _ => false,
                        }
                    } else {
                        false
                    }
                })
            })
        };
        if needs_rebuild {
            let mut rules: Vec<Rule> =
                self.apps[app_idx].rule_keys.iter().map(|s| s.rule.clone()).collect();
            rules.push(rule);
            return self.rebuild_application(app_idx, rules);
        }

        // The rule set is definitely changing: a new generation.
        self.epoch += 1;

        let MtlSwitch { apps, ledger, .. } = self;
        let app = &mut apps[app_idx];
        // Taken out for the duration: an early return below leaves the
        // counts to be derived afresh instead of half-updated.
        let mut owners = app.owners.take();
        let mut records = 0usize;
        let mut meta: Option<u32> = None;
        let mut per_table_keys: Vec<FieldKey> = Vec::new();

        let num_tables = app.tables.len();
        for ti in 0..num_tables {
            let te = &mut app.tables[ti];
            let mut key: Vec<Label> = Vec::new();
            let mut shadows: Vec<Vec<Label>> = Vec::new();
            if te.config.uses_metadata {
                key.push(Label(meta.expect("chained table without predecessor")));
                shadows.push(Vec::new());
            }
            let mut keys = Vec::with_capacity(te.engines.len());
            let mut spec = 0u32;
            for (field, engine) in &mut te.engines {
                let k = FieldKey::from_match(rule.field(*field), *field);
                let outcome = engine.intern(*field, k, field.bit_width())?;
                records += outcome.update.records();
                ledger.algorithm_label_records += outcome.update.records();
                if outcome.update.records() > 0 {
                    engine.finalize();
                }
                spec += outcome.specificity;
                key.extend(outcome.labels);
                keys.push(k);
            }
            for (fi, (field, engine)) in te.engines.iter().enumerate() {
                shadows.extend(engine.shadows_for(*field, keys[fi], field.bit_width())?);
            }
            per_table_keys.extend(keys);

            let last = ti + 1 == num_tables;
            if last {
                let row = te.actions.push(ActionRow::Final(rule.action));
                debug_assert_eq!(row as usize, app.final_rule_ids.len());
                app.final_rule_ids.push(rule.id);
                records += 1;
                ledger.action_records += 1;
                let before = te.index.len();
                let priority = u32::from(rule.priority);
                if let Some(holder) = te.index.register(&key, &shadows, priority, row) {
                    // The tie goes to the lower id, as in the build.
                    if rule.id < app.final_rule_ids[holder as usize] {
                        te.index.replace(&key, priority, row);
                    }
                }
                let added = te.index.len() - before;
                records += added;
                ledger.index_records += added;
            } else {
                let goto = te
                    .config
                    .goto
                    .ok_or(BuildError::MissingGoto { table_id: te.config.table_id })?;
                // Find the existing combo row via a probe; create if new.
                let row = match te.index.probe(&key) {
                    Some((_, row)) => row,
                    None => {
                        let row = te.actions.push_continue(goto);
                        records += 1;
                        ledger.action_records += 1;
                        row
                    }
                };
                let before = te.index.len();
                te.index.register(&key, &shadows, spec, row);
                let added = te.index.len() - before;
                records += added;
                ledger.index_records += added;
                meta = Some(row);
            }
            if let Some(owners) = owners.as_mut() {
                let fields = &key[usize::from(te.config.uses_metadata)..];
                owners.gain(ti, fields, meta.filter(|_| !last));
            }
        }
        app.owners = owners;
        app.rule_keys.push(StoredRule { rule, keys: per_table_keys });
        Ok(UpdateOutcome { stats: UpdateStats { records }, mode: UpdateMode::Incremental })
    }

    /// Removes a rule by id, in place: exactly the index entries and the
    /// action row the rule owns are deleted (see the
    /// [module docs](self)). Returns the records written, or `None` if
    /// the id does not exist. Ids are the caller's: should several stored
    /// rules carry this one (an add that was retried), all of them go.
    /// The application is regenerated from its surviving rules instead
    /// when it has a range engine ([`UpdateMode::Rebuild`]) or when this
    /// removal pushed its garbage over the bound
    /// ([`UpdateMode::Compacted`]).
    pub fn remove_rule(&mut self, kind: FilterKind, rule_id: u32) -> Option<UpdateOutcome> {
        let app_idx = self.apps.iter().position(|a| a.kind == kind)?;
        let app = &mut self.apps[app_idx];
        let mut pos = app.final_rule_ids.iter().position(|&id| id == rule_id)?;
        let mut records = 0;
        let mode = loop {
            debug_assert_eq!(app.rule_keys[pos].rule.id, rule_id, "row i belongs to rule i");
            let Some(written) = remove_in_place(app, pos) else {
                app.rule_keys.retain(|s| s.rule.id != rule_id);
                break UpdateMode::Rebuild;
            };
            records += written;
            // The last rule moved into the vacated row: look on from there.
            match app.final_rule_ids[pos..].iter().position(|&id| id == rule_id) {
                Some(next) => pos += next,
                None if app.owners.as_ref().is_some_and(Owners::over_bound) => {
                    break UpdateMode::Compacted;
                }
                None => {
                    self.epoch += 1;
                    let stats = UpdateStats { records };
                    return Some(UpdateOutcome { stats, mode: UpdateMode::Incremental });
                }
            }
        };
        let survivors = std::mem::take(&mut app.rule_keys).into_iter().map(|s| s.rule).collect();
        let outcome = self
            .rebuild_application(app_idx, survivors)
            .expect("remaining rules built successfully before");
        Some(UpdateOutcome { mode, ..outcome })
    }

    /// Regenerates one application from a rule list.
    fn rebuild_application(
        &mut self,
        app_idx: usize,
        rules: Vec<Rule>,
    ) -> Result<UpdateOutcome, BuildError> {
        let kind = self.apps[app_idx].kind;
        let table_cfgs: Vec<crate::config::TableConfig> =
            self.apps[app_idx].tables.iter().map(|t| t.config.clone()).collect();
        // Keep the surviving rules' ids: callers hold on to them (the
        // unified DynamicClassifier surface removes by id), so the
        // regeneration must not renumber.
        let set = FilterSet::preserving_ids("rebuild", kind, rules);
        let mut ledger = crate::update::BuildLedger::default();
        let rebuilt = try_build_app(kind, &table_cfgs, &set, &mut ledger)?;
        self.apps[app_idx] = rebuilt;
        // Regeneration changed the rule set (and renumbered rows): a new
        // generation.
        self.epoch += 1;
        let records = ledger.algorithm_label_records + ledger.index_records + ledger.action_records;
        // Fold the regeneration into the switch-wide ledger.
        self.ledger.algorithm_label_records += ledger.algorithm_label_records;
        self.ledger.algorithm_original_records += ledger.algorithm_original_records;
        self.ledger.index_records += ledger.index_records;
        self.ledger.action_records += ledger.action_records;
        Ok(UpdateOutcome { stats: UpdateStats { records }, mode: UpdateMode::Rebuild })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchConfig;
    use offilter::RuleAction;
    use oflow::{FlowMatch, HeaderValues, MatchFieldKind, Verdict};

    fn route(id: u32, port: u32, value: u128, len: u32, out: u32) -> Rule {
        Rule::new(
            id,
            len as u16,
            FlowMatch::any()
                .with_exact(MatchFieldKind::InPort, u128::from(port))
                .unwrap()
                .with_prefix(MatchFieldKind::Ipv4Dst, value, len)
                .unwrap(),
            RuleAction::Forward(out),
        )
    }

    fn header(port: u32, dst: u128) -> HeaderValues {
        HeaderValues::new()
            .with(MatchFieldKind::InPort, u128::from(port))
            .with(MatchFieldKind::Ipv4Dst, dst)
    }

    #[test]
    fn add_rule_becomes_visible() {
        let set = FilterSet::new("inc", FilterKind::Routing, vec![route(0, 1, 0x0A00_0000, 8, 1)]);
        let mut sw = MtlSwitch::build(&SwitchConfig::single_app(FilterKind::Routing, 0), &[&set]);
        assert_eq!(
            sw.classify_app(FilterKind::Routing, &header(1, 0x0A01_0203)).verdict,
            Verdict::Output(1)
        );

        let out = sw.add_rule(FilterKind::Routing, route(1, 1, 0x0A01_0200, 24, 9));
        assert_eq!(out.mode, UpdateMode::Incremental);
        assert!(out.stats.records > 0);
        // New, more specific rule wins in its region...
        assert_eq!(
            sw.classify_app(FilterKind::Routing, &header(1, 0x0A01_0203)).verdict,
            Verdict::Output(9)
        );
        // ...and the old rule still covers the rest.
        assert_eq!(
            sw.classify_app(FilterKind::Routing, &header(1, 0x0A02_0000)).verdict,
            Verdict::Output(1)
        );
    }

    #[test]
    fn add_rule_with_shared_values_writes_little() {
        let set = FilterSet::new("inc", FilterKind::Routing, vec![route(0, 1, 0x0A01_0200, 24, 1)]);
        let mut sw = MtlSwitch::build(&SwitchConfig::single_app(FilterKind::Routing, 0), &[&set]);
        // Same prefix, different port: only the port LUT entry, the index
        // entries and the action row are new.
        let out = sw.add_rule(FilterKind::Routing, route(1, 2, 0x0A01_0200, 24, 5));
        assert_eq!(out.mode, UpdateMode::Incremental);
        assert!(
            out.stats.records <= 6,
            "shared values should write few records, wrote {}",
            out.stats.records
        );
        assert_eq!(
            sw.classify_app(FilterKind::Routing, &header(2, 0x0A01_02FF)).verdict,
            Verdict::Output(5)
        );
        assert_eq!(
            sw.classify_app(FilterKind::Routing, &header(1, 0x0A01_02FF)).verdict,
            Verdict::Output(1)
        );
    }

    #[test]
    fn incremental_adds_match_fresh_build() {
        // Adding rules one by one classifies like building from scratch.
        let rules: Vec<Rule> = vec![
            route(0, 1, 0, 0, 1),
            route(1, 1, 0x0A00_0000, 8, 2),
            route(2, 1, 0x0A01_0000, 16, 3),
            route(3, 2, 0x0A01_8000, 17, 4),
            route(4, 1, 0x0A01_0200, 24, 5),
        ];
        let config = SwitchConfig::single_app(FilterKind::Routing, 0);

        let seed_set = FilterSet::new("inc", FilterKind::Routing, vec![rules[0].clone()]);
        let mut incremental = MtlSwitch::build(&config, &[&seed_set]);
        for r in &rules[1..] {
            incremental.add_rule(FilterKind::Routing, r.clone());
        }

        let full_set = FilterSet::new("inc", FilterKind::Routing, rules.clone());
        let fresh = MtlSwitch::build(&config, &[&full_set]);

        for port in 1u32..3 {
            for dst in [0u128, 0x0A00_0001, 0x0A01_0001, 0x0A01_8001, 0x0A01_0201, 0xFF00_0000] {
                let h = header(port, dst);
                assert_eq!(
                    incremental.classify_app(FilterKind::Routing, &h).verdict,
                    fresh.classify_app(FilterKind::Routing, &h).verdict,
                    "port {port} dst {dst:#x}"
                );
            }
        }
    }

    /// A rule leaving the port wildcarded.
    fn any_port(id: u32, value: u128, len: u32, out: u32) -> Rule {
        Rule::new(
            id,
            len as u16,
            FlowMatch::any().with_prefix(MatchFieldKind::Ipv4Dst, value, len).unwrap(),
            RuleAction::Forward(out),
        )
    }

    /// 48 nested routes over three ports: enough live labels that a
    /// handful of removes stays under the garbage bound.
    fn nested_routes() -> Vec<Rule> {
        let mut rules = Vec::new();
        for port in 1..=3u32 {
            for net in 0..4u128 {
                let base = 0x0A00_0000 + (net << 16);
                for (len, low) in [(16, 0u128), (20, 0x3000), (24, 0x3300), (28, 0x3340)] {
                    let id = rules.len() as u32;
                    rules.push(route(id, port, base + low, len, 100 + id));
                }
            }
        }
        rules
    }

    fn routing_switch(rules: &[Rule]) -> MtlSwitch {
        let set = FilterSet::preserving_ids("inc", FilterKind::Routing, rules.to_vec());
        MtlSwitch::build(&SwitchConfig::single_app(FilterKind::Routing, 0), &[&set])
    }

    /// Headers inside and just outside every rule's prefix, on every
    /// port in use plus one nobody matches exactly.
    fn probes(rules: &[Rule]) -> Vec<HeaderValues> {
        let mut out = Vec::new();
        for rule in rules {
            let (value, len) = rule.field_as_prefix(MatchFieldKind::Ipv4Dst).unwrap();
            let span = if len == 32 { 0 } else { (1u128 << (32 - len)) - 1 };
            for port in [1, 2, 3, 7, 9] {
                out.push(header(port, value | span));
                out.push(header(port, (value | span).wrapping_add(1) & 0xFFFF_FFFF));
            }
        }
        out
    }

    /// `sw` must answer like the oracle over `rules`, like a switch built
    /// from scratch over them, and survive the codec unchanged.
    fn assert_consistent(sw: &MtlSwitch, rules: &[Rule], headers: &[HeaderValues]) {
        use classifier_api::{reference_classify, Classifier};
        use mtl_persist::Persistent;
        let fresh = routing_switch(rules);
        for h in headers {
            let want = reference_classify(rules, h);
            assert_eq!(Classifier::classify(sw, h), want, "header {h} vs the oracle");
            assert_eq!(Classifier::classify(&fresh, h), want, "header {h}: the rebuild");
        }
        assert_eq!(sw.total_rules(), rules.len());
        let image = sw.encode_image();
        let back = MtlSwitch::decode_image(&image).expect("decodes");
        assert_eq!(back.encode_image(), image, "encode -> decode -> encode");
    }

    #[test]
    fn remove_rule_edits_in_place() {
        let mut rules = nested_routes();
        let headers = probes(&rules);
        let mut sw = routing_switch(&rules);
        let sizes = |sw: &MtlSwitch| -> Vec<(usize, usize)> {
            sw.apps[0].tables.iter().map(|t| (t.index.len(), t.actions.len())).collect()
        };
        let before = sizes(&sw);
        let ledger = sw.ledger;

        // A /28 in the middle of the rule list: its row is refilled by
        // the last rule's, its port and its covering prefixes stay.
        let out = sw.remove_rule(FilterKind::Routing, 3).expect("rule exists");
        assert_eq!(out.mode, UpdateMode::Incremental);
        assert!((2..=3).contains(&out.stats.records), "{}", out.stats);
        rules.retain(|r| r.id != 3);
        assert_consistent(&sw, &rules, &headers);
        assert_eq!(sizes(&sw), vec![before[0], (before[1].0 - 1, before[1].1 - 1)]);
        assert_eq!(sw.ledger, ledger, "a remove writes no build records");
        let orphans = |sw: &MtlSwitch| sw.apps[0].owners.as_ref().map(|o| o.orphans);
        assert_eq!(orphans(&sw), Some(0), "the other ports still use its labels");

        // Unknown ids (and the id just removed) report None and change nothing.
        let image = mtl_persist::Persistent::encode_image(&sw);
        assert!(sw.remove_rule(FilterKind::Routing, 3).is_none());
        assert!(sw.remove_rule(FilterKind::Routing, 99_999).is_none());
        assert!(sw.remove_rule(FilterKind::Acl, 0).is_none());
        assert_eq!(mtl_persist::Persistent::encode_image(&sw), image);

        // A value nobody else uses leaves its labels behind, and a re-add
        // finds them still in the dictionaries.
        let flap = route(3, 1, 0x0B00_0100, 24, 103);
        assert!(sw.add_rule(FilterKind::Routing, flap.clone()).stats.records > 2);
        sw.remove_rule(FilterKind::Routing, 3).expect("just added");
        assert_eq!(orphans(&sw), Some(2), "one label per partition");
        let out = sw.add_rule(FilterKind::Routing, flap.clone());
        assert_eq!(out.mode, UpdateMode::Incremental);
        assert_eq!(out.stats.records, 2, "an action row and an index entry, no engine writes");
        assert_eq!(orphans(&sw), Some(0));
        rules.push(flap);
        assert_consistent(&sw, &rules, &probes(&rules));
    }

    #[test]
    fn removing_the_winner_hands_its_key_to_the_runner_up() {
        let mut rules = nested_routes();
        // Three more rules with rule 5's exact match, at other priorities.
        let (value, len) = rules[5].field_as_prefix(MatchFieldKind::Ipv4Dst).unwrap();
        for (id, priority) in [(900, 40_000), (901, 50_000), (902, 45_000)] {
            let mut dup = route(id, 1, value, len, id);
            dup.priority = priority;
            rules.push(dup);
        }
        let headers = probes(&rules);
        let mut sw = routing_switch(&rules);
        let entries = sw.apps[0].tables[1].index.len();
        assert_eq!(entries + 3, rules.len(), "the four share one entry");
        // Winner first, then a loser, then the rest: 901 > 902 > 900 > 5.
        for id in [901, 900, 902, 5] {
            let out = sw.remove_rule(FilterKind::Routing, id).expect("rule exists");
            assert_eq!(out.mode, UpdateMode::Incremental, "rule {id}");
            rules.retain(|r| r.id != id);
            assert_consistent(&sw, &rules, &headers);
            let left = sw.apps[0].tables[1].index.len();
            assert_eq!(left, if id == 5 { entries - 1 } else { entries }, "after rule {id}");
        }
    }

    #[test]
    fn equal_priority_ties_go_to_the_lowest_id_wherever_the_rules_sit() {
        // Three rules with one match and one priority — ids 900, 5 and 47
        // in that stored order, spread over the rule list so that removing
        // others moves them around. The lowest id answers: after the
        // build, after in-place removes have swapped rows about, after an
        // add, and after a compaction has regenerated the tables from
        // whatever order the swaps left.
        let mut rules = nested_routes();
        let (value, len) = rules[5].field_as_prefix(MatchFieldKind::Ipv4Dst).unwrap();
        rules[47] = route(47, 1, value, len, 147);
        rules.insert(2, route(900, 1, value, len, 900));
        let headers = probes(&rules);
        let mut sw = routing_switch(&rules);
        let tied = header(1, value);
        assert_eq!(Classifier::classify(&sw, &tied), Some(5), "not the first stored (900)");
        for id in [3, 46, 9, 30, 7, 21, 40, 2, 11] {
            let out = sw.remove_rule(FilterKind::Routing, id).expect("rule exists");
            assert_eq!(out.mode, UpdateMode::Incremental);
            rules.retain(|r| r.id != id);
            assert_eq!(Classifier::classify(&sw, &tied), Some(5), "after unrelated rule {id}");
        }
        let stored: Vec<u32> = sw.apps[0].rule_keys.iter().map(|s| s.rule.id).collect();
        let at = |id| stored.iter().position(|&s| s == id).expect("stored");
        assert!(at(47) < at(5), "the swaps put rule 47 ahead of rule 5: {stored:?}");
        // The winner goes: the runner-up is the next id, not the next row.
        sw.remove_rule(FilterKind::Routing, 5).expect("rule exists");
        assert_eq!(Classifier::classify(&sw, &tied), Some(47), "900 is stored ahead of it");
        // An added rule takes the key only with a lower id.
        sw.add_rule(FilterKind::Routing, route(901, 1, value, len, 901));
        assert_eq!(Classifier::classify(&sw, &tied), Some(47));
        sw.add_rule(FilterKind::Routing, route(5, 1, value, len, 105));
        assert_eq!(Classifier::classify(&sw, &tied), Some(5));
        // Flaps until a compaction: it regenerates, and nothing changes.
        let mut compacted = false;
        for i in 0..200u32 {
            let flap = route(5000 + i, 1 + i % 3, 0x0B00_0000 + (u128::from(i) << 8), 24, 1);
            sw.add_rule(FilterKind::Routing, flap);
            let before: Vec<_> = headers.iter().map(|h| Classifier::classify(&sw, h)).collect();
            let out = sw.remove_rule(FilterKind::Routing, 5000 + i).expect("just added");
            let after: Vec<_> = headers.iter().map(|h| Classifier::classify(&sw, h)).collect();
            assert_eq!(after, before, "flap {i} ({:?})", out.mode);
            compacted |= out.mode == UpdateMode::Compacted;
        }
        assert!(compacted);
        assert_eq!(Classifier::classify(&sw, &tied), Some(5));
    }

    #[test]
    fn an_id_stored_twice_is_removed_twice() {
        // Ids are the caller's; nothing stops an add from being retried.
        // A remove takes every copy along, as a regeneration from the
        // rules without that id would.
        let mut rules = nested_routes();
        let headers = probes(&rules);
        let mut sw = routing_switch(&rules);
        // Another rule 3 (same id, another match), and rule 40 once more.
        for dup in [route(3, 2, 0x0C00_0000, 8, 77), rules[40].clone()] {
            sw.add_rule(FilterKind::Routing, dup.clone());
            rules.push(dup);
        }
        assert_eq!(Classifier::classify(&sw, &header(2, 0x0C01_0000)), Some(3));
        for id in [3, 40] {
            let out = sw.remove_rule(FilterKind::Routing, id).expect("stored");
            assert_eq!(out.mode, UpdateMode::Incremental);
            rules.retain(|r| r.id != id);
            assert_consistent(&sw, &rules, &headers);
            assert!(sw.remove_rule(FilterKind::Routing, id).is_none(), "both copies went");
        }
        assert_eq!(Classifier::classify(&sw, &header(2, 0x0C01_0000)), None);
        assert_eq!(sw.total_rules(), 46);
    }

    #[test]
    fn last_user_of_a_combination_takes_its_entry_along() {
        // Port 7 is named by one rule only, beside wildcard-port rules. A
        // table-0 entry left behind for it would outrank the wildcard
        // entry and keep sending port-7 packets down a branch that holds
        // nothing — the removal has to take the entry along.
        let mut rules = vec![
            any_port(800, 0x0A00_0000, 8, 8),
            any_port(801, 0, 0, 9),
            any_port(803, 0x0A00_3300, 24, 10),
            route(802, 7, 0x0A00_3300, 24, 7),
        ];
        let mut sw = routing_switch(&rules);
        let t0 = |sw: &MtlSwitch| {
            let t0 = &sw.apps[0].tables[0];
            (t0.index.len(), t0.actions.len())
        };
        assert_eq!(t0(&sw), (2, 2));
        assert_eq!(Classifier::classify(&sw, &header(7, 0x0A00_3301)), Some(802));
        sw.remove_rule(FilterKind::Routing, 802).expect("rule exists");
        rules.retain(|r| r.id != 802);
        assert_consistent(&sw, &rules, &probes(&rules));
        assert_eq!(Classifier::classify(&sw, &header(7, 0x0A00_3301)), Some(803));
        assert_eq!(t0(&sw), (1, 1), "the trailing row went with the entry");

        // A combination in the middle of the action table keeps its row
        // (as garbage, until a compaction) but loses its entry just the same.
        let mut rules = nested_routes();
        let headers = probes(&rules);
        let mut sw = routing_switch(&rules);
        assert_eq!(t0(&sw), (3, 3));
        for id in 0..16 {
            let out = sw.remove_rule(FilterKind::Routing, id).expect("port 1's rules exist");
            assert_eq!(out.mode, UpdateMode::Incremental, "rule {id}");
            rules.retain(|r| r.id != id);
        }
        assert_consistent(&sw, &rules, &headers);
        assert_eq!(t0(&sw), (2, 3));
        assert_eq!(sw.apps[0].owners.as_ref().map(|o| o.orphans), Some(2), "port 1 and its row");
    }

    use classifier_api::Classifier;

    #[test]
    fn garbage_is_bounded_and_compaction_restores_the_rebuilt_size() {
        let rules = nested_routes();
        let headers = probes(&rules);
        let mut sw = routing_switch(&rules);
        let rebuilt_bits = Classifier::memory_bits(&routing_switch(&rules));
        let mut compactions = 0;
        // A route flap: a fresh /24 comes and goes, each leaving labels
        // behind, until the bound trips.
        for i in 0..200u32 {
            let flap = route(5000 + i, 1 + i % 3, 0x0B00_0000 + (u128::from(i) << 8), 24, 1);
            sw.add_rule(FilterKind::Routing, flap);
            let out = sw.remove_rule(FilterKind::Routing, 5000 + i).expect("just added");
            let bits = Classifier::memory_bits(&sw);
            match out.mode {
                UpdateMode::Incremental => {
                    let o = sw.apps[0].owners.as_ref().expect("derived by the remove");
                    assert!(o.orphans > 0 && o.orphans * COMPACT_ORPHANS_PER_LIVE <= o.live);
                    assert!(bits > rebuilt_bits, "step {i}: orphans occupy memory");
                }
                UpdateMode::Compacted => {
                    compactions += 1;
                    assert!(sw.apps[0].owners.is_none(), "regeneration starts clean");
                    assert_eq!(bits, rebuilt_bits, "step {i}: nothing leaks past a compaction");
                }
                UpdateMode::Rebuild => panic!("step {i}: no range engine here"),
            }
        }
        assert!(compactions >= 2, "200 flaps cross the bound repeatedly: {compactions}");
        assert_consistent(&sw, &rules, &headers);
    }

    #[test]
    fn every_decision_is_a_function_of_the_image() {
        use mtl_persist::Persistent;
        // The live switch keeps its owner counts across updates; the
        // restored one decodes the image after every update and has to
        // derive them again. Both must compact at the same operation and
        // stay byte-identical throughout.
        let rules = nested_routes();
        let mut live = routing_switch(&rules);
        let mut compacted = false;
        for i in 0..120u32 {
            let mut restored = MtlSwitch::decode_image(&live.encode_image()).expect("decodes");
            let flap = route(5000 + i, 1 + i % 4, 0x0B00_0000 + (u128::from(i) << 8), 24, 1);
            let victim = if i % 5 == 4 { i / 5 } else { 5000 + i };
            for sw in [&mut live, &mut restored] {
                sw.add_rule(FilterKind::Routing, flap.clone());
            }
            let mode = live.remove_rule(FilterKind::Routing, victim).expect("stored").mode;
            assert_eq!(
                restored.remove_rule(FilterKind::Routing, victim).expect("stored").mode,
                mode
            );
            compacted |= mode == UpdateMode::Compacted;
            assert_eq!(restored.encode_image(), live.encode_image(), "step {i} ({mode:?})");
        }
        assert!(compacted, "the sequence is long enough to cross a compaction");
    }

    #[test]
    fn range_tables_still_regenerate_on_remove() {
        use offilter::synth::{generate_acl, AclConfig};
        let set = generate_acl(&AclConfig { rules: 60, ..AclConfig::default() }, 3);
        let mut sw = MtlSwitch::build(&SwitchConfig::flat_app(FilterKind::Acl, 0), &[&set]);
        let out = sw.remove_rule(FilterKind::Acl, set.rules[7].id).expect("rule exists");
        assert_eq!(out.mode, UpdateMode::Rebuild);
        assert_eq!(sw.total_rules(), 59);
        assert!(sw.remove_rule(FilterKind::Acl, set.rules[7].id).is_none());
    }

    #[test]
    fn rejected_rule_leaves_switch_unchanged() {
        use oflow::FieldMatch;
        // Chained routing preset: table 0 = InPort EM-LUT, table 1 =
        // Ipv4Dst MBT. Rule A leaves the port wildcarded.
        let set = FilterSet::new(
            "atomic",
            FilterKind::Routing,
            vec![Rule::new(
                0,
                8,
                FlowMatch::any().with_prefix(MatchFieldKind::Ipv4Dst, 0x0A00_0000, 8).unwrap(),
                RuleAction::Forward(1),
            )],
        );
        let mut sw = MtlSwitch::build(&SwitchConfig::single_app(FilterKind::Routing, 0), &[&set]);
        let before_h = header(1, 0x0A01_0203);
        assert_eq!(sw.classify_app(FilterKind::Routing, &before_h).verdict, Verdict::Output(1));
        let index_sizes: Vec<usize> = sw.apps[0].tables.iter().map(|t| t.index.len()).collect();
        let action_sizes: Vec<usize> = sw.apps[0].tables.iter().map(|t| t.actions.len()).collect();
        let ledger_before = sw.ledger;

        // Rule B: valid exact port for table 0, but a Range on the MBT
        // field — rejected by table 1. Without up-front validation this
        // left an orphan table-0 index entry that outranked rule A.
        let bad = Rule::new(
            1,
            u16::MAX,
            FlowMatch::any()
                .with_exact(MatchFieldKind::InPort, 1)
                .unwrap()
                .with_range(MatchFieldKind::Ipv4Dst, 10, 20)
                .unwrap(),
            RuleAction::Deny,
        );
        // (Range on an LPM field survives FieldKey conversion as a Range
        // key, which the trie engine cannot store.)
        assert!(matches!(bad.field(MatchFieldKind::Ipv4Dst), FieldMatch::Range { .. }));
        let err = sw.try_add_rule(FilterKind::Routing, bad).unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedConstraint { .. }), "{err:?}");

        // Nothing changed: same classification, same structure sizes,
        // same ledger, same rule count.
        assert_eq!(sw.classify_app(FilterKind::Routing, &before_h).verdict, Verdict::Output(1));
        let index_after: Vec<usize> = sw.apps[0].tables.iter().map(|t| t.index.len()).collect();
        let action_after: Vec<usize> = sw.apps[0].tables.iter().map(|t| t.actions.len()).collect();
        assert_eq!(index_after, index_sizes);
        assert_eq!(action_after, action_sizes);
        assert_eq!(sw.ledger, ledger_before);
        assert_eq!(sw.total_rules(), 1);
    }

    #[test]
    fn new_range_triggers_rebuild() {
        use offilter::synth::{generate_acl, AclConfig};
        let set = generate_acl(&AclConfig { rules: 60, ..AclConfig::default() }, 3);
        let config = SwitchConfig::flat_app(FilterKind::Acl, 0);
        let mut sw = MtlSwitch::build(&config, &[&set]);
        // A rule with a brand-new port range must rebuild.
        let rule = Rule::new(
            999,
            u16::MAX,
            FlowMatch::any()
                .with_exact(MatchFieldKind::IpProto, 6)
                .unwrap()
                .with_range(MatchFieldKind::TcpDst, 40_000, 40_100)
                .unwrap(),
            RuleAction::Deny,
        );
        let out = sw.add_rule(FilterKind::Acl, rule);
        assert_eq!(out.mode, UpdateMode::Rebuild);
        let h = HeaderValues::new()
            .with(MatchFieldKind::Ipv4Src, 1)
            .with(MatchFieldKind::Ipv4Dst, 2)
            .with(MatchFieldKind::IpProto, 6)
            .with(MatchFieldKind::TcpSrc, 1)
            .with(MatchFieldKind::TcpDst, 40_050);
        assert_eq!(sw.classify_app(FilterKind::Acl, &h).verdict, Verdict::Drop);
    }
}
