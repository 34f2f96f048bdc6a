//! [`CachedClassifier`]: any classifier behind the shared flow cache.
//!
//! The decomposition architecture wires [`FlowCache`] straight into its
//! batch pipelines, but the registry comparisons need the *other*
//! engines — TSS, HiCuts, TCAM, linear scan — behind the **identical**
//! cache so "what does caching buy" is measured on one implementation,
//! not five. [`CachedClassifier`] wraps any [`Classifier`] and fronts
//! every lookup surface with per-worker [`FlowCache`]s:
//!
//! * `classify` / `classify_batch` serve from worker cache 0;
//! * `par_classify_batch` shards the batch with one owned cache per
//!   worker (no lock contention — each worker locks a different cache);
//! * cache entries are epoch-stamped with [`Classifier::generation`]
//!   plus a local bump counter maintained by the forwarded
//!   [`DynamicClassifier`] surface, so incremental updates through the
//!   wrapper invalidate every cached result in O(1) even for engines
//!   that do not track generations themselves.
//!
//! Results are **byte-identical** to the uncached engine: a cache hit
//! replays a memoised result computed at the same generation, and the
//! conformance/bench suites assert exactly that.

use crate::cache::{Admission, CacheStats, FlowCache};
use crate::{Classifier, DynamicClassifier, UpdateReport};
use offilter::Rule;
use oflow::HeaderValues;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Worker caches a wrapper allocates by default — the shard ceiling of
/// [`Classifier::par_classify_batch`] through the wrapper.
const DEFAULT_WORKERS: usize = 8;

/// A classifier fronted by the shared flow cache. See the [module
/// docs](self).
pub struct CachedClassifier<C: Classifier> {
    inner: C,
    name: String,
    /// One cache per potential worker; `classify`/`classify_batch` use
    /// cache 0, `par_classify_batch` worker `i` uses cache `i`.
    caches: Vec<Mutex<FlowCache>>,
    /// Local generation bumps from updates forwarded through
    /// [`DynamicClassifier`] — covers wrapped engines whose own
    /// [`Classifier::generation`] is the static default.
    bumps: AtomicU64,
}

impl<C: Classifier> CachedClassifier<C> {
    /// Wraps `inner` behind TinyLFU-admission caches of (at least)
    /// `capacity` slots each (see [`FlowCache::new`] for the rounding
    /// rules), with the default worker-cache count.
    #[must_use]
    pub fn new(inner: C, capacity: usize) -> Self {
        Self::with_admission(inner, capacity, DEFAULT_WORKERS, Admission::TinyLfu)
    }

    /// Wraps `inner` with explicit worker count and admission policy.
    ///
    /// # Panics
    /// Panics if `workers` is zero or the capacity exceeds the
    /// [`FlowCache`] ceiling.
    #[must_use]
    pub fn with_admission(inner: C, capacity: usize, workers: usize, admission: Admission) -> Self {
        assert!(workers > 0, "need at least one worker cache");
        let name = format!("{}+cache", inner.name());
        Self {
            inner,
            name,
            caches: (0..workers)
                .map(|_| Mutex::new(FlowCache::with_admission(capacity, admission)))
                .collect(),
            bumps: AtomicU64::new(0),
        }
    }

    /// The wrapped classifier.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the classifier, dropping the caches.
    #[must_use]
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// The epoch entries are stamped with: the inner engine's generation
    /// plus the wrapper's local update bumps.
    fn epoch(&self) -> u64 {
        self.inner.generation().wrapping_add(self.bumps.load(Ordering::Relaxed))
    }

    /// Aggregated counters across all worker caches.
    ///
    /// # Panics
    /// Panics if a worker cache's lock was poisoned.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.caches
            .iter()
            .map(|c| c.lock().expect("cache lock poisoned").stats())
            .fold(CacheStats::default(), CacheStats::merged)
    }

    /// Zeroes every worker cache's counters.
    ///
    /// # Panics
    /// Panics if a worker cache's lock was poisoned.
    pub fn reset_stats(&self) {
        for c in &self.caches {
            c.lock().expect("cache lock poisoned").reset_stats();
        }
    }

    /// Serves one batch through one worker cache.
    fn batch_via(&self, cache: &Mutex<FlowCache>, headers: &[HeaderValues]) -> Vec<Option<u32>> {
        let epoch = self.epoch();
        let mut cache = cache.lock().expect("cache lock poisoned");
        headers
            .iter()
            .map(|h| {
                if let Some(row) = cache.lookup(epoch, h) {
                    return row;
                }
                let row = self.inner.classify(h);
                cache.insert(epoch, h, row);
                row
            })
            .collect()
    }
}

impl<C: Classifier> Classifier for CachedClassifier<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn classify(&self, header: &HeaderValues) -> Option<u32> {
        let epoch = self.epoch();
        let mut cache = self.caches[0].lock().expect("cache lock poisoned");
        if let Some(row) = cache.lookup(epoch, header) {
            return row;
        }
        let row = self.inner.classify(header);
        cache.insert(epoch, header, row);
        row
    }

    fn classify_batch(&self, headers: &[HeaderValues]) -> Vec<Option<u32>> {
        self.batch_via(&self.caches[0], headers)
    }

    fn par_classify_batch(&self, headers: &[HeaderValues], threads: usize) -> Vec<Option<u32>> {
        let threads = threads.clamp(1, self.caches.len()).min(headers.len().max(1));
        if threads == 1 {
            return self.classify_batch(headers);
        }
        let shard = headers.len().div_ceil(threads);
        let mut out = Vec::with_capacity(headers.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = headers
                .chunks(shard)
                .zip(self.caches.iter())
                .map(|(chunk, cache)| scope.spawn(move || self.batch_via(cache, chunk)))
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("classification worker panicked"));
            }
        });
        out
    }

    fn generation(&self) -> u64 {
        self.epoch()
    }

    fn memory_bits(&self) -> u64 {
        let cache_bits: u64 =
            self.caches.iter().map(|c| c.lock().expect("cache lock poisoned").memory_bits()).sum();
        self.inner.memory_bits() + cache_bits
    }

    fn lookup_accesses(&self, header: &HeaderValues) -> usize {
        // One cache probe, plus the inner engine's structural cost on
        // the miss path (hits stop after the probe).
        1 + self.inner.lookup_accesses(header)
    }

    fn build_records(&self) -> usize {
        self.inner.build_records()
    }
}

impl<C: DynamicClassifier> DynamicClassifier for CachedClassifier<C> {
    fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, crate::BuildError> {
        let report = self.inner.insert_rule(rule)?;
        self.bumps.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport> {
        let report = self.inner.remove_rule(rule_id)?;
        self.bumps.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference_classify, ClassifierBuilder};
    use offilter::{FilterSet, RuleAction};
    use oflow::{FlowMatch, MatchFieldKind};

    /// A tiny linear-scan engine for wrapper tests (the real baselines
    /// live downstream of this crate).
    struct Scan(Vec<Rule>);

    impl Classifier for Scan {
        fn name(&self) -> &str {
            "scan"
        }
        fn classify(&self, header: &HeaderValues) -> Option<u32> {
            reference_classify(&self.0, header)
        }
        fn memory_bits(&self) -> u64 {
            1
        }
        fn lookup_accesses(&self, _header: &HeaderValues) -> usize {
            self.0.len()
        }
        fn build_records(&self) -> usize {
            self.0.len()
        }
    }

    impl ClassifierBuilder for Scan {
        fn try_build(set: &FilterSet) -> Result<Self, crate::BuildError> {
            Ok(Self(set.rules.clone()))
        }
    }

    impl DynamicClassifier for Scan {
        fn insert_rule(&mut self, rule: Rule) -> Result<UpdateReport, crate::BuildError> {
            self.0.push(rule);
            Ok(UpdateReport { records: 1, rebuilt: false, compacted: false })
        }
        fn remove_rule(&mut self, rule_id: u32) -> Option<UpdateReport> {
            let before = self.0.len();
            self.0.retain(|r| r.id != rule_id);
            (self.0.len() < before).then_some(UpdateReport {
                records: 1,
                rebuilt: false,
                compacted: false,
            })
        }
    }

    fn rules() -> Vec<Rule> {
        vec![
            Rule::new(
                0,
                8,
                FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 1)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A00_0000, 8)
                    .unwrap(),
                RuleAction::Forward(1),
            ),
            Rule::new(
                1,
                24,
                FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 1)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_0200, 24)
                    .unwrap(),
                RuleAction::Forward(2),
            ),
        ]
    }

    fn headers() -> Vec<HeaderValues> {
        (0..64u128)
            .map(|i| {
                HeaderValues::new()
                    .with(MatchFieldKind::InPort, 1 + (i % 3))
                    .with(MatchFieldKind::Ipv4Dst, 0x0A01_0200 + (i % 7))
            })
            .collect()
    }

    #[test]
    fn cached_results_are_byte_identical() {
        let bare = Scan(rules());
        let cached = CachedClassifier::new(Scan(rules()), 64);
        assert_eq!(cached.name(), "scan+cache");
        let hs = headers();
        let want = bare.classify_batch(&hs);
        // Cold pass, warm pass, parallel pass: all identical.
        assert_eq!(cached.classify_batch(&hs), want);
        assert_eq!(cached.classify_batch(&hs), want);
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(cached.par_classify_batch(&hs, threads), want, "threads={threads}");
        }
        for h in &hs {
            assert_eq!(cached.classify(h), bare.classify(h));
        }
        // The warm passes actually hit.
        assert!(cached.stats().hits > 0);
        assert!(cached.memory_bits() > bare.memory_bits());
        assert!(cached.lookup_accesses(&hs[0]) > bare.lookup_accesses(&hs[0]) - 1);
    }

    #[test]
    fn forwarded_updates_invalidate() {
        let mut cached = CachedClassifier::new(Scan(rules()), 64);
        let h = HeaderValues::new()
            .with(MatchFieldKind::InPort, 1)
            .with(MatchFieldKind::Ipv4Dst, 0x0A01_0203u128);
        assert_eq!(cached.classify(&h), Some(1));
        assert_eq!(cached.classify(&h), Some(1), "served from cache");
        let g0 = cached.generation();
        // A higher-priority rule through the wrapper must take effect
        // immediately — no stale cached row.
        cached
            .insert_rule(Rule::new(
                9,
                99,
                FlowMatch::any()
                    .with_exact(MatchFieldKind::InPort, 1)
                    .unwrap()
                    .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A01_0200, 24)
                    .unwrap(),
                RuleAction::Forward(9),
            ))
            .unwrap();
        assert!(cached.generation() != g0, "update must advance the generation");
        assert_eq!(cached.classify(&h), Some(9));
        cached.remove_rule(9).expect("rule exists");
        assert_eq!(cached.classify(&h), Some(1));
        assert!(cached.remove_rule(123).is_none());
        assert_eq!(cached.inner().0.len(), rules().len());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = CachedClassifier::with_admission(Scan(rules()), 16, 0, Admission::Blind);
    }
}
