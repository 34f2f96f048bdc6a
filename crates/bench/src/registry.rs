//! The standard comparison registry.
//!
//! Every engine the paper's Table I compares, built fallibly over one
//! filter set and boxed behind the shared [`Classifier`] trait. The
//! experiment generators iterate this registry instead of duplicating
//! per-type measurement code.

use classifier_api::{BuildError, Classifier, ClassifierBuilder, ClassifierRegistry};
use mtl_core::MtlSwitch;
use ofbaseline::hicuts::HiCutsTree;
use ofbaseline::linear::LinearClassifier;
use ofbaseline::tcam::TcamModel;
use ofbaseline::tss::TupleSpaceSearch;
use offilter::FilterSet;

/// Table I category label of the reference row.
pub const REFERENCE: &str = "(reference)";
/// Table I category labels, paper order.
pub const CATEGORIES: [&str; 4] = ["Trie-Geometric", "Decomposition", "Hashing", "Hardware"];

/// Builds the full comparison registry — linear-scan reference plus one
/// representative per Table I category — over one filter set.
///
/// # Errors
/// Propagates the first [`BuildError`] any engine reports (the
/// decomposition architecture is the only fallible builder in practice;
/// the baselines accept any rule set).
pub fn standard_registry(set: &FilterSet) -> Result<ClassifierRegistry, BuildError> {
    let mut registry = ClassifierRegistry::new();
    registry.register(REFERENCE, Box::new(LinearClassifier::try_build(set)?));
    registry.register("Trie-Geometric", Box::new(HiCutsTree::try_build(set)?));
    registry.register("Decomposition", Box::new(<MtlSwitch as ClassifierBuilder>::try_build(set)?));
    registry.register("Hashing", Box::new(TupleSpaceSearch::try_build(set)?));
    registry.register("Hardware", Box::new(TcamModel::try_build(set)?));
    Ok(registry)
}

/// Human-readable implementation name per category (for table rows).
#[must_use]
pub fn implementation_of(classifier: &dyn Classifier) -> String {
    match classifier.name() {
        "linear" => "linear scan".into(),
        "hicuts" => "HiCuts".into(),
        "mtl" => "this work (MTL)".into(),
        "tss" => "tuple space search".into(),
        "tcam" => "TCAM model".into(),
        other => other.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Workloads;
    use classifier_api::reference_classify;
    use oflow::{HeaderValues, MatchFieldKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn registry_holds_reference_plus_all_categories() {
        let w = Workloads::shared_quick();
        let set = w.routing_of("boza").unwrap();
        let registry = standard_registry(set).expect("registry builds");
        assert_eq!(registry.len(), 1 + CATEGORIES.len());
        assert!(registry.get(REFERENCE).is_some());
        for category in CATEGORIES {
            assert!(registry.get(category).is_some(), "{category} missing");
        }
    }

    #[test]
    fn every_registered_classifier_agrees_with_the_oracle() {
        let w = Workloads::shared_quick();
        let set = w.routing_of("bbra").unwrap();
        let registry = standard_registry(set).expect("registry builds");
        let mut rng = StdRng::seed_from_u64(17);
        let ports: Vec<u128> = set
            .rules
            .iter()
            .map(|r| r.field_as_prefix(MatchFieldKind::InPort).unwrap().0)
            .collect();
        let headers: Vec<HeaderValues> = (0..300)
            .map(|_| {
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, ports[rng.gen_range(0..ports.len())])
                    .with(MatchFieldKind::Ipv4Dst, u128::from(rng.gen::<u32>()))
            })
            .collect();
        for (category, classifier) in registry.iter() {
            let batch = classifier.classify_batch(&headers);
            for (h, batched) in headers.iter().zip(&batch) {
                let want = reference_classify(&set.rules, h);
                assert_eq!(classifier.classify(h), want, "{category} header {h}");
                assert_eq!(*batched, want, "{category} (batch) header {h}");
            }
        }
    }
}
