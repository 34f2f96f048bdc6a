//! Label-combination index tables.
//!
//! "The result from each algorithm search is a label, which is used to
//! obtain the final index to address the action tables" (paper §IV.C). The
//! index table maps a vector of labels — one per label position of the
//! table's fields, optionally prefixed by the incoming metadata label — to
//! an action-table row.
//!
//! ## Completion entries
//!
//! Decomposition has a well-known correctness gap: a search reports the
//! *most specific* label per position, so a rule whose field value is
//! nested inside another stored value at the same trie level (or inside a
//! narrower range) can be shadowed. The builder closes the gap by also
//! registering the rule under every shadowing combination (bounded
//! cross-product of the per-position shadow sets), keeping the
//! highest-priority rule per combination. Lookup then probes the product
//! of the per-position match chains and picks the highest-priority hit.
//! Completion entries are counted in the memory report — they are the
//! memory cost decomposition pays instead of TCAM replication.
//!
//! ## Storage layout
//!
//! The table is **open-addressed**: one flat power-of-two array of
//! buckets (hash tag + priority + row) with linear probing and no
//! tombstones: [`IndexTable::remove`] deletes by *backward shift* — the
//! entries probing past the vacated slot move up to close the gap — so a
//! vacant bucket still ends every probe sequence and the lookup path
//! carries no tombstone check. Every key of a table has the same width
//! (the table's label-position count is fixed by its engine
//! configuration), so keys live **inline** in one contiguous `Vec<Label>`
//! arena at `positions` labels per bucket — no per-entry heap `Vec`, no
//! pointer chase on the probe path. This is the software model of the
//! hardware index RAM: one wide word per slot holding
//! `valid | labels | priority | action_row`.

use ofalgo::{Label, MatchChain};
use ofmem::{bits_for_index, EntryLayout, MemoryBlock, MemoryReport};
use std::hash::Hasher;

/// One open-addressed bucket: hash tag (with [`EMPTY`] as the vacancy
/// sentinel), rule priority and action-table row. The bucket's key lives
/// in the table's inline key arena at the same slot index.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Full key hash; [`EMPTY`] marks a vacant slot (real hashes are
    /// remapped away from the sentinel).
    hash: u64,
    /// Rule priority (for best-hit selection across probes).
    priority: u32,
    /// Action-table row.
    row: u32,
}

/// Vacancy sentinel for [`Bucket::hash`].
const EMPTY: u64 = u64::MAX;

/// Initial bucket count of a non-empty table.
const INITIAL_CAPACITY: usize = 16;

impl Bucket {
    const VACANT: Self = Self { hash: EMPTY, priority: 0, row: 0 };
}

// The FxHash-style multiply-rotate hasher the probe path uses moved to
// `classifier_api::cache` (the flow cache keys with the same
// construction); index keys remain short vectors of dense,
// attacker-free label ids, so the rationale is unchanged.
use classifier_api::FxHasher;

/// A label-combination index.
#[derive(Debug, Clone)]
pub struct IndexTable {
    /// Open-addressed buckets; length is a power of two (or zero before
    /// the first registration).
    buckets: Vec<Bucket>,
    /// Inline key arena: slot `i`'s key occupies
    /// `keys[i * positions .. (i + 1) * positions]`.
    keys: Vec<Label>,
    /// Fixed key width (label positions), set by the first registration.
    positions: usize,
    /// Occupied buckets.
    len: usize,
    /// Entries added for rules directly.
    primary_entries: usize,
    /// Entries added by shadow completion.
    completion_entries: usize,
}

impl Default for IndexTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexTable {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            keys: Vec::new(),
            positions: 0,
            len: 0,
            primary_entries: 0,
            completion_entries: 0,
        }
    }

    /// Hashes a key, remapping away from the vacancy sentinel.
    #[inline]
    fn hash_key(key: &[Label]) -> u64 {
        let mut h = FxHasher::default();
        for &label in key {
            h.write_u32(label.0);
        }
        let v = h.finish();
        if v == EMPTY {
            0
        } else {
            v
        }
    }

    /// The key stored at bucket `slot`.
    #[inline]
    fn key_at(&self, slot: usize) -> &[Label] {
        &self.keys[slot * self.positions..(slot + 1) * self.positions]
    }

    /// Registers a rule under its primary label combination and all
    /// shadowing combinations. `shadows[i]` lists alternative labels for
    /// position `i`.
    ///
    /// A combination already taken goes to the higher priority; at equal
    /// priority the entry stays as it is. For the primary combination
    /// that tie is reported — the row holding `key` at this very
    /// priority — so that a caller who can tell the two rules apart may
    /// settle it ([`IndexTable::replace`]).
    ///
    /// # Panics
    /// Panics if `key` and `shadows` disagree on the position count, or if
    /// `key`'s width differs from previously registered keys (a table's
    /// key width is fixed by its engine configuration).
    pub fn register(
        &mut self,
        key: &[Label],
        shadows: &[Vec<Label>],
        priority: u32,
        row: u32,
    ) -> Option<u32> {
        assert_eq!(key.len(), shadows.len(), "one shadow set per position");
        if self.len == 0 {
            self.positions = key.len();
        } else {
            assert_eq!(key.len(), self.positions, "index keys have a fixed width per table");
        }
        // Enumerate the cross product of {primary, shadows...} per
        // position with an odometer; combo 0 (all primaries) is the
        // primary entry.
        let mut combo: Vec<Label> = key.to_vec();
        let mut odometer = vec![0usize; key.len()];
        let mut first = true;
        let mut tied = None;
        loop {
            let holder = self.upsert(&combo, priority, row, first);
            if first {
                tied = holder;
            }
            first = false;
            // Advance the odometer; full wrap means every combination of
            // {primary, shadows} has been registered.
            let mut pos = 0;
            loop {
                if pos == odometer.len() {
                    return tied;
                }
                odometer[pos] += 1;
                if odometer[pos] <= shadows[pos].len() {
                    combo[pos] = shadows[pos][odometer[pos] - 1];
                    break;
                }
                odometer[pos] = 0;
                combo[pos] = key[pos];
                pos += 1;
            }
        }
    }

    /// Inserts one combination, keeping the higher-priority rule when the
    /// slot is already taken; returns the row that keeps it at equal
    /// priority.
    fn upsert(&mut self, key: &[Label], priority: u32, row: u32, is_primary: bool) -> Option<u32> {
        self.grow_for(self.len + 1);
        let hash = Self::hash_key(key);
        let mask = self.buckets.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let b = self.buckets[slot];
            if b.hash == EMPTY {
                self.buckets[slot] = Bucket { hash, priority, row };
                self.keys[slot * self.positions..(slot + 1) * self.positions].copy_from_slice(key);
                self.len += 1;
                if is_primary {
                    self.primary_entries += 1;
                } else {
                    self.completion_entries += 1;
                }
                return None;
            }
            if b.hash == hash && self.key_at(slot) == key {
                if priority > b.priority {
                    self.buckets[slot].priority = priority;
                    self.buckets[slot].row = row;
                }
                return (priority == b.priority).then_some(b.row);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The bucket holding exactly `key`, if any (the update path's
    /// [`IndexTable::probe`]).
    fn slot_of(&self, key: &[Label]) -> Option<usize> {
        if self.len == 0 || key.len() != self.positions {
            return None;
        }
        let hash = Self::hash_key(key);
        let mask = self.buckets.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let b = self.buckets[slot];
            if b.hash == EMPTY {
                return None;
            }
            if b.hash == hash && self.key_at(slot) == key {
                return Some(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Rewrites the `(priority, row)` stored under exactly `key` — the
    /// incremental-remove path re-installing a runner-up rule, or
    /// re-addressing a rule whose action row moved. Returns `false` (and
    /// changes nothing) when the key is not stored.
    pub fn replace(&mut self, key: &[Label], priority: u32, row: u32) -> bool {
        let Some(slot) = self.slot_of(key) else { return false };
        self.buckets[slot].priority = priority;
        self.buckets[slot].row = row;
        true
    }

    /// Deletes the entry stored under exactly `key`, returning its
    /// `(priority, row)`. The gap is closed by backward shift: every
    /// entry of the run that follows moves into the hole unless that
    /// would put it before its home slot, so no probe sequence is ever
    /// cut short and lookups need no tombstones. Capacity is kept (only
    /// a regeneration shrinks a table).
    ///
    /// Only tables without completion entries delete single entries
    /// (shadow completion belongs to range engines, whose applications
    /// regenerate on removal), so the entry counts as a primary one.
    pub fn remove(&mut self, key: &[Label]) -> Option<(u32, u32)> {
        debug_assert_eq!(self.completion_entries, 0, "completion entries are never deleted singly");
        let mut hole = self.slot_of(key)?;
        let removed = self.buckets[hole];
        let mask = self.buckets.len() - 1;
        let width = self.positions;
        let mut next = (hole + 1) & mask;
        while self.buckets[next].hash != EMPTY {
            let home = (self.buckets[next].hash as usize) & mask;
            // `next` may fill the hole iff the hole lies on its probe
            // path, i.e. it sits at least as far from home as from the hole.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.buckets[hole] = self.buckets[next];
                self.keys.copy_within(next * width..(next + 1) * width, hole * width);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.buckets[hole] = Bucket::VACANT;
        self.keys[hole * width..(hole + 1) * width].fill(Label(0));
        self.len -= 1;
        self.primary_entries -= 1;
        Some((removed.priority, removed.row))
    }

    /// Grows the bucket array so `needed` entries stay at or below 50 %
    /// load, rehashing the existing entries into the wider array.
    fn grow_for(&mut self, needed: usize) {
        let target = if self.buckets.is_empty() {
            INITIAL_CAPACITY
        } else if needed * 2 > self.buckets.len() {
            self.buckets.len() * 2
        } else {
            return;
        };
        let old_buckets = std::mem::replace(&mut self.buckets, vec![Bucket::VACANT; target]);
        let old_keys = std::mem::replace(&mut self.keys, vec![Label(0); target * self.positions]);
        let mask = target - 1;
        for (i, b) in old_buckets.iter().enumerate() {
            if b.hash == EMPTY {
                continue;
            }
            let key = &old_keys[i * self.positions..(i + 1) * self.positions];
            let mut slot = (b.hash as usize) & mask;
            while self.buckets[slot].hash != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.buckets[slot] = *b;
            self.keys[slot * self.positions..(slot + 1) * self.positions].copy_from_slice(key);
        }
    }

    /// Looks up one exact combination — the single probe routine every
    /// entry point (direct probes, chain products) funnels through, so
    /// the legacy surfaces cannot drift from the optimized path.
    #[inline]
    #[must_use]
    pub fn probe(&self, key: &[Label]) -> Option<(u32, u32)> {
        // The lookup path's own loop, not `slot_of` plus a second bucket
        // read: that cost `mtl-core.classify_ns` 10 %.
        if self.len == 0 || key.len() != self.positions {
            return None;
        }
        let hash = Self::hash_key(key);
        let mask = self.buckets.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let b = self.buckets[slot];
            if b.hash == EMPTY {
                return None;
            }
            if b.hash == hash && self.key_at(slot) == key {
                return Some((b.priority, b.row));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Probes every combination of the per-position chains and returns the
    /// highest-priority hit `(priority, row)`, plus the number of probes
    /// issued (a pipeline-cost statistic).
    #[must_use]
    pub fn probe_chains(&self, chains: &[MatchChain]) -> (Option<(u32, u32)>, usize) {
        let mut key: Vec<Label> = Vec::with_capacity(chains.len());
        self.probe_chains_with(chains, &mut key)
    }

    /// As [`IndexTable::probe_chains`], assembling candidate keys in a
    /// caller-provided buffer so the single-packet hot path performs no
    /// heap allocation (the buffer grows once to the table's position
    /// count and is reused across probes).
    #[must_use]
    pub fn probe_chains_with(
        &self,
        chains: &[MatchChain],
        key: &mut Vec<Label>,
    ) -> (Option<(u32, u32)>, usize) {
        if chains.iter().any(MatchChain::is_empty) {
            return (None, 0);
        }
        let mut best: Option<(u32, u32)> = None;
        let mut probes = 0;
        key.clear();
        key.reserve(chains.len());
        self.probe_rec(chains, 0, key, &mut best, &mut probes);
        (best, probes)
    }

    fn probe_rec(
        &self,
        chains: &[MatchChain],
        pos: usize,
        key: &mut Vec<Label>,
        best: &mut Option<(u32, u32)>,
        probes: &mut usize,
    ) {
        if pos == chains.len() {
            *probes += 1;
            if let Some(hit) = self.probe(key) {
                if best.is_none() || hit.0 > best.unwrap().0 {
                    *best = Some(hit);
                }
            }
            return;
        }
        for (label, _) in chains[pos].iter() {
            key.push(label);
            self.probe_rec(chains, pos + 1, key, best, probes);
            key.pop();
        }
    }

    /// Total entries (primary + completion).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated bucket slots (power of two; zero before the first
    /// registration).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// Entries registered directly by rules.
    #[must_use]
    pub fn primary_entries(&self) -> usize {
        self.primary_entries
    }

    /// Entries added by shadow completion.
    #[must_use]
    pub fn completion_entries(&self) -> usize {
        self.completion_entries
    }

    /// Raw codec view of the bucket array: one `(hash, priority, row)`
    /// triple per slot, vacant slots carrying the [`EMPTY`] hash sentinel.
    /// Serialized verbatim so a decoded table is byte-identical on
    /// re-encode (probe order depends on physical slot placement).
    pub(crate) fn raw_buckets(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.buckets.iter().map(|b| (b.hash, b.priority, b.row))
    }

    /// Raw codec view of the inline key arena.
    pub(crate) fn raw_keys(&self) -> &[Label] {
        &self.keys
    }

    /// Fixed key width in label positions (codec access).
    pub(crate) fn positions(&self) -> usize {
        self.positions
    }

    /// Rebuilds a table from decoded raw parts.
    ///
    /// # Panics
    /// Panics if the bucket count is not zero or a power of two, or if the
    /// key arena length disagrees with `buckets.len() * positions`.
    pub(crate) fn from_raw_parts(
        buckets: Vec<(u64, u32, u32)>,
        keys: Vec<Label>,
        positions: usize,
        len: usize,
        primary_entries: usize,
        completion_entries: usize,
    ) -> Self {
        assert!(
            buckets.is_empty() || buckets.len().is_power_of_two(),
            "bucket capacity must be zero or a power of two"
        );
        assert_eq!(keys.len(), buckets.len() * positions, "key arena width mismatch");
        let buckets = buckets
            .into_iter()
            .map(|(hash, priority, row)| Bucket { hash, priority, row })
            .collect();
        Self { buckets, keys, positions, len, primary_entries, completion_entries }
    }

    /// Memory report: the open-addressed array at its actual allocated
    /// capacity (≤ 50 % load), each slot one wide word of
    /// `valid + key(label bits) + priority + row`.
    #[must_use]
    pub fn memory_report(&self, name: &str, label_bits: &[u32]) -> MemoryReport {
        let key_bits: u32 = label_bits.iter().sum();
        let layout = EntryLayout::new()
            .with_field("valid", 1)
            .with_field("labels", key_bits)
            .with_field("priority", 6)
            .with_field("action_row", bits_for_index(self.len.max(1)));
        let capacity = self.buckets.len().max(2);
        let mut r = MemoryReport::new();
        r.push(MemoryBlock::with_layout(name, capacity, layout));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(labels: &[(u32, u32)]) -> MatchChain {
        MatchChain::from_pairs(labels.iter().map(|&(l, len)| (Label(l), len)))
    }

    #[test]
    fn register_and_probe() {
        let mut idx = IndexTable::new();
        idx.register(&[Label(1), Label(2)], &[vec![], vec![]], 10, 0);
        assert_eq!(idx.probe(&[Label(1), Label(2)]), Some((10, 0)));
        assert_eq!(idx.probe(&[Label(1), Label(3)]), None);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.primary_entries(), 1);
    }

    #[test]
    fn completion_entries_from_shadows() {
        let mut idx = IndexTable::new();
        // Rule at (1, 2); position 1 can be shadowed by labels 5 and 6.
        idx.register(&[Label(1), Label(2)], &[vec![], vec![Label(5), Label(6)]], 4, 0);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.completion_entries(), 2);
        assert_eq!(idx.probe(&[Label(1), Label(5)]), Some((4, 0)));
        assert_eq!(idx.probe(&[Label(1), Label(6)]), Some((4, 0)));
    }

    #[test]
    fn multi_position_shadow_cross_product() {
        let mut idx = IndexTable::new();
        // Shadows on both positions: the full {primary, alts} x
        // {primary, alts} product must be registered.
        idx.register(&[Label(1), Label(2)], &[vec![Label(7)], vec![Label(5), Label(6)]], 4, 0);
        assert_eq!(idx.len(), 6);
        assert_eq!(idx.primary_entries(), 1);
        assert_eq!(idx.completion_entries(), 5);
        for a in [1, 7] {
            for b in [2, 5, 6] {
                assert_eq!(idx.probe(&[Label(a), Label(b)]), Some((4, 0)), "({a}, {b})");
            }
        }
    }

    #[test]
    fn higher_priority_keeps_slot() {
        let mut idx = IndexTable::new();
        assert_eq!(idx.register(&[Label(1)], &[vec![]], 10, 0), None);
        assert_eq!(idx.register(&[Label(1)], &[vec![]], 5, 1), None);
        assert_eq!(idx.probe(&[Label(1)]), Some((10, 0)));
        assert_eq!(idx.register(&[Label(1)], &[vec![]], 20, 2), None);
        assert_eq!(idx.probe(&[Label(1)]), Some((20, 2)));
        // A tie leaves the entry alone and names its holder; only the
        // primary combination's tie is the caller's to settle.
        assert_eq!(idx.register(&[Label(1)], &[vec![]], 20, 3), Some(2));
        assert_eq!(idx.register(&[Label(4)], &[vec![Label(1)]], 20, 4), None);
        assert_eq!(idx.probe(&[Label(1)]), Some((20, 2)));
        // Re-registration never double counts.
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn completion_does_not_clobber_primary() {
        let mut idx = IndexTable::new();
        // Primary rule at (1, 5) with high priority.
        idx.register(&[Label(1), Label(5)], &[vec![], vec![]], 32, 0);
        // Another rule at (1, 2) whose position-1 shadow is label 5 but
        // with lower priority: the (1,5) slot must keep rule 0.
        idx.register(&[Label(1), Label(2)], &[vec![], vec![Label(5)]], 16, 1);
        assert_eq!(idx.probe(&[Label(1), Label(5)]), Some((32, 0)));
        assert_eq!(idx.probe(&[Label(1), Label(2)]), Some((16, 1)));
    }

    #[test]
    fn probe_chains_picks_best_priority() {
        let mut idx = IndexTable::new();
        idx.register(&[Label(1), Label(9)], &[vec![], vec![]], 24, 0);
        idx.register(&[Label(1), Label(8)], &[vec![], vec![]], 16, 1);
        // Chain: position 0 = [1]; position 1 = [9 (len 24), 8 (len 16)].
        let chains = vec![chain(&[(1, 16)]), chain(&[(9, 8), (8, 0)])];
        let (hit, probes) = idx.probe_chains(&chains);
        assert_eq!(hit, Some((24, 0)));
        assert_eq!(probes, 2);
    }

    #[test]
    fn probe_chains_empty_position_misses() {
        let mut idx = IndexTable::new();
        idx.register(&[Label(1), Label(2)], &[vec![], vec![]], 1, 0);
        let chains = vec![chain(&[(1, 16)]), chain(&[])];
        let (hit, probes) = idx.probe_chains(&chains);
        assert_eq!(hit, None);
        assert_eq!(probes, 0);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut idx = IndexTable::new();
        // Enough entries to force several rehashes from the initial
        // capacity; every registered combination must stay probeable.
        for i in 0..500u32 {
            idx.register(&[Label(i), Label(i * 7 + 1)], &[vec![], vec![]], i, i);
        }
        assert_eq!(idx.len(), 500);
        assert!(idx.capacity() >= 1000, "load factor stays at or under 50%");
        assert!(idx.capacity().is_power_of_two());
        for i in 0..500u32 {
            assert_eq!(idx.probe(&[Label(i), Label(i * 7 + 1)]), Some((i, i)), "entry {i}");
        }
        assert_eq!(idx.probe(&[Label(1000), Label(0)]), None);
    }

    #[test]
    fn remove_closes_the_gap_without_tombstones() {
        // A model check against a map: interleaved registers and removes
        // at a load that forces long shared probe runs (and wrap-around).
        let mut idx = IndexTable::new();
        let mut model = std::collections::BTreeMap::new();
        let key = |i: u32| [Label(i % 97), Label(i.wrapping_mul(2_654_435_761) % 53)];
        for i in 0..4000u32 {
            let k = key(i);
            if i % 3 == 2 {
                let want = model.remove(&k);
                assert_eq!(idx.remove(&k), want, "step {i}");
            } else {
                idx.register(&k, &[vec![], vec![]], i, i);
                let slot = model.entry(k).or_insert((i, i));
                if i > slot.0 {
                    *slot = (i, i);
                }
            }
            assert_eq!(idx.len(), model.len());
            assert_eq!(idx.primary_entries(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(idx.probe(k), Some(*v), "{k:?}");
        }
        for (k, _) in std::mem::take(&mut model) {
            assert!(idx.remove(&k).is_some());
            assert_eq!(idx.probe(&k), None);
        }
        assert!(idx.is_empty());
        // Vacated slots are indistinguishable from never-used ones.
        assert!(idx
            .raw_buckets()
            .all(|(hash, priority, row)| (hash, priority, row) == (EMPTY, 0, 0)));
        assert!(idx.raw_keys().iter().all(|&l| l == Label(0)));
        assert_eq!(idx.remove(&[Label(1), Label(2)]), None);
    }

    #[test]
    fn replace_rewrites_in_place() {
        let mut idx = IndexTable::new();
        idx.register(&[Label(1)], &[vec![]], 10, 0);
        assert!(idx.replace(&[Label(1)], 4, 7));
        assert_eq!(idx.probe(&[Label(1)]), Some((4, 7)));
        assert!(!idx.replace(&[Label(2)], 1, 1));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn probe_wrong_width_misses() {
        let mut idx = IndexTable::new();
        idx.register(&[Label(1), Label(2)], &[vec![], vec![]], 1, 0);
        assert_eq!(idx.probe(&[Label(1)]), None);
        assert_eq!(idx.probe(&[Label(1), Label(2), Label(3)]), None);
        // The empty (default) table misses on everything.
        let empty = IndexTable::default();
        assert_eq!(empty.probe(&[Label(1)]), None);
        assert_eq!(empty.probe(&[]), None);
    }

    #[test]
    fn memory_report_sizing() {
        let mut idx = IndexTable::new();
        for i in 0..100 {
            idx.register(&[Label(i), Label(i + 1)], &[vec![], vec![]], 1, i);
        }
        let r = idx.memory_report("index", &[8, 8]);
        // capacity 256, entry = 1 + 16 + 6 + 7 = 30 bits.
        assert_eq!(r.total_bits(), 256 * 30);
    }

    #[test]
    #[should_panic(expected = "one shadow set per position")]
    fn shadow_arity_checked() {
        let mut idx = IndexTable::new();
        idx.register(&[Label(1)], &[], 1, 0);
    }

    #[test]
    #[should_panic(expected = "fixed width")]
    fn key_width_is_fixed() {
        let mut idx = IndexTable::new();
        idx.register(&[Label(1), Label(2)], &[vec![], vec![]], 1, 0);
        idx.register(&[Label(1)], &[vec![]], 1, 1);
    }
}
