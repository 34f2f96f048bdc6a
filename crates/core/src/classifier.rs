//! [`Classifier`] contract implementations for the architecture.
//!
//! [`MtlSwitch`] speaks the same [`classifier_api`] trait as every
//! baseline, so the bench harness and the conformance suite measure the
//! decomposition architecture through exactly the code path they use for
//! linear scan, TCAM, TSS and HiCuts:
//!
//! * `classify` maps the matched final-table action row back to the
//!   originating rule id;
//! * `classify_batch` overrides the default per-packet loop with the
//!   engine-major batched pipeline of
//!   [`MtlSwitch::classify_batch_rows`], amortising per-field engine
//!   dispatch across the packet vector;
//! * `memory_bits` is the whole-switch embedded-memory total (the §V.A
//!   headline number);
//! * `lookup_accesses` counts engine searches plus index probes along the
//!   visited table path — the structural pipeline cost.
//!
//! [`ClassifierBuilder::try_build`] builds the paper's preset for the
//! set's application kind (flat single-table for ACLs, the chained
//! one-field-per-table preset otherwise), and [`DynamicClassifier`] wires
//! the incremental label-method updates of [`crate::incremental`].

use classifier_api::{BuildError, Classifier, ClassifierBuilder, DynamicClassifier, UpdateReport};
use offilter::{FilterKind, FilterSet, Rule};
use oflow::HeaderValues;

use crate::config::SwitchConfig;
use crate::incremental::{UpdateMode, UpdateOutcome};
use crate::report::SwitchMemoryReport;
use crate::switch::MtlSwitch;

impl MtlSwitch {
    /// The application the unified [`Classifier`] surface serves (the
    /// first configured one; single-application switches have only it).
    fn primary_kind(&self) -> FilterKind {
        self.apps[0].kind
    }

    /// Maps a classify outcome's action row back to its rule id.
    fn row_to_rule(&self, matched_row: Option<u32>) -> Option<u32> {
        matched_row.and_then(|row| self.apps[0].rule_id_of_row(row))
    }
}

impl Classifier for MtlSwitch {
    fn name(&self) -> &str {
        "mtl"
    }

    fn classify(&self, header: &HeaderValues) -> Option<u32> {
        // The zero-allocation fast path: no per-table path log, chains and
        // probe keys live in per-thread reusable buffers.
        self.row_to_rule(self.classify_row(self.primary_kind(), header))
    }

    fn classify_batch(&self, headers: &[HeaderValues]) -> Vec<Option<u32>> {
        let mut rows = self.classify_batch_rows(self.primary_kind(), headers);
        for row in &mut rows {
            *row = self.row_to_rule(*row);
        }
        rows
    }

    fn memory_bits(&self) -> u64 {
        SwitchMemoryReport::of(self).total().bits()
    }

    fn lookup_accesses(&self, header: &HeaderValues) -> usize {
        let app = &self.apps[0];
        let result = self.classify_app(app.kind, header);
        // One access per engine search position in each visited table
        // (LUT probe, per-partition trie walk, segment search), plus the
        // index probes the label combination needed.
        let engine_accesses: usize = result
            .path
            .iter()
            .map(|&(table_id, _)| {
                app.tables
                    .iter()
                    .find(|te| te.config.table_id == table_id)
                    .map_or(0, super::switch::TableEngine::engine_accesses)
            })
            .sum();
        engine_accesses + result.probes
    }

    fn build_records(&self) -> usize {
        // Algorithm structures + index entries (completion included) +
        // action rows, as the build ledger accounted them.
        self.ledger.full_stats().records
    }
}

impl ClassifierBuilder for MtlSwitch {
    /// Builds the paper's preset for the set's kind: the flat single-table
    /// decomposition for 5-tuple ACLs, the chained one-field-per-table
    /// pipeline for everything else.
    fn try_build(set: &FilterSet) -> Result<Self, BuildError> {
        let config = match set.kind {
            FilterKind::Acl => SwitchConfig::flat_app(set.kind, 0),
            _ => SwitchConfig::single_app(set.kind, 0),
        };
        MtlSwitch::try_build(&config, &[set])
    }
}

impl From<UpdateOutcome> for UpdateReport {
    fn from(outcome: UpdateOutcome) -> Self {
        Self {
            records: outcome.stats.records,
            rebuilt: outcome.mode != UpdateMode::Incremental,
            compacted: outcome.mode == UpdateMode::Compacted,
        }
    }
}

impl DynamicClassifier for MtlSwitch {
    fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, BuildError> {
        let kind = self.primary_kind();
        let outcome = self.try_add_rule(kind, rule)?;
        Ok(outcome.into())
    }

    fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport> {
        let kind = self.primary_kind();
        let outcome = MtlSwitch::remove_rule(self, kind, rule_id)?;
        Some(outcome.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offilter::synth::{generate_routing, RoutingTargets};
    use offilter::RuleAction;
    use oflow::{FlowMatch, MatchFieldKind};

    fn routing_set() -> FilterSet {
        generate_routing(
            &RoutingTargets {
                name: "t".into(),
                rules: 250,
                port_unique: 8,
                ip_partitions: [20, 160],
                short_prefixes: 3,
                out_ports: 8,
            },
            21,
        )
    }

    fn header(port: u128, dst: u128) -> HeaderValues {
        HeaderValues::new().with(MatchFieldKind::InPort, port).with(MatchFieldKind::Ipv4Dst, dst)
    }

    #[test]
    fn classifier_surface_agrees_with_reference() {
        let set = routing_set();
        let sw = <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("builds");
        assert_eq!(Classifier::name(&sw), "mtl");
        assert!(Classifier::memory_bits(&sw) > 0);
        let headers: Vec<HeaderValues> = set
            .rules
            .iter()
            .map(|r| {
                let (v, len) = r.field_as_prefix(MatchFieldKind::Ipv4Dst).unwrap();
                let port = r.field_as_prefix(MatchFieldKind::InPort).unwrap().0;
                let free = 32 - len;
                let fill = if free == 0 { 0 } else { (1u128 << free) - 1 };
                header(port, v | fill)
            })
            .collect();
        let batch = Classifier::classify_batch(&sw, &headers);
        for (h, batched) in headers.iter().zip(&batch) {
            let want = classifier_api::reference_classify(&set.rules, h);
            assert_eq!(Classifier::classify(&sw, h), want, "header {h}");
            assert_eq!(*batched, want, "batched header {h}");
            assert!(Classifier::lookup_accesses(&sw, h) >= 1);
        }
    }

    #[test]
    fn dynamic_insert_and_remove() {
        let set = FilterSet::new(
            "dyn",
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
        let mut sw = <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("builds");
        let h = header(1, 0x0A01_0203);
        assert_eq!(Classifier::classify(&sw, &h), Some(0));

        let added = DynamicClassifier::insert_rule(
            &mut sw,
            Rule::new(
                7,
                24,
                FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 1)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_0200, 24)
                    .unwrap(),
                RuleAction::Forward(9),
            ),
        )
        .expect("insert works");
        assert!(!added.rebuilt);
        assert!(added.records > 0);
        assert_eq!(Classifier::classify(&sw, &h), Some(7));

        let removed = DynamicClassifier::remove_rule(&mut sw, 7).expect("rule exists");
        assert!(removed.rebuilt);
        assert_eq!(Classifier::classify(&sw, &h), Some(0));
        assert!(DynamicClassifier::remove_rule(&mut sw, 99).is_none());
    }
}
