//! Model of the branchless SIMD trie-walk kernels
//! (`ofalgo/src/trie/simd.rs`, `lookup_impl`/`chain_impl`).
//!
//! The production kernels run the multibit-trie level step on eight
//! 64-bit lanes at once — shift/mask index extraction, one gather from
//! the level's packed-entry arena, then mask algebra (no branches) to
//! fold the deepest label per lane and kill lanes with no child. The
//! claim under proof: that mask algebra computes **exactly** the
//! scalar walk, for every key and every valid trie.
//!
//! This module restates both sides in safe portable code with the
//! production bit layouts verbatim:
//!
//! * [`ModelTrie`] — packed `(label << 40) | (len << 32) | child`
//!   words, per-level flat arenas, the same MSB-first stride indexing,
//!   and the same leaf-pushing insert as `trie/build.rs` (so the
//!   harnesses can cross-check the model against the real `Mbt` result for
//!   result equality on identical prefix sets);
//! * [`LaneVec`] — the `Lanes` vocabulary (`srl`/`and`/`cmpeq`/
//!   `select`/`gather`/…) as element-wise array operations;
//! * [`ModelTrie::lookup_lanes`] / [`ModelTrie::chain_lanes`] —
//!   line-by-line ports of `lookup_impl` / `chain_impl` over
//!   [`LaneVec`], checked against [`ModelTrie::lookup_scalar`] /
//!   [`ModelTrie::chain_scalar`] (ports of the scalar walk).
//!
//! This module's tests and the `simd_model_matches_real_mbt` harness
//! enumerate keys exhaustively over sample and generated tries. The
//! remaining gap — that
//! the real intrinsics implement the `Lanes` contract — is covered by
//! the in-tree property tests comparing the production SIMD walk
//! bit-for-bit against the production scalar walk.

/// Lane count, mirroring `MULTI_WAY` (re-exported so the harnesses can
/// assert the two never drift).
pub const LANES: usize = 8;

/// Packed-word sentinels — identical to `PackedEntry`'s.
pub const NO_LABEL: u64 = 0xFF_FFFF;
/// Child sentinel (low 32 bits all ones).
pub const NO_CHILD: u64 = 0xFFFF_FFFF;
/// A word with no label and no child; dead lanes read as this.
pub const EMPTY: u64 = (NO_LABEL << 40) | NO_CHILD;
/// The fold identity for the deepest-label reduction.
pub const UNLABELED: u64 = NO_LABEL << 40;

/// Decodes a packed word into `(label, prefix_len)`, as production
/// `decode` does.
#[must_use]
pub fn decode(word: u64) -> Option<(u32, u32)> {
    if word >> 40 == NO_LABEL {
        None
    } else {
        Some(((word >> 40) as u32, ((word >> 32) & 0xFF) as u32))
    }
}

/// Eight 64-bit lanes as a plain array: the portable twin of the
/// production `Lanes` trait, one method per intrinsic-backed operation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LaneVec(pub [u64; LANES]);

impl LaneVec {
    /// Broadcasts one value to all lanes.
    #[must_use]
    pub fn splat(v: u64) -> Self {
        Self([v; LANES])
    }

    /// Lane-wise logical shift right by a scalar count.
    #[must_use]
    pub fn srl(self, n: u32) -> Self {
        Self(self.0.map(|l| l >> n))
    }

    /// Lane-wise shift left by a scalar count.
    #[must_use]
    pub fn sll(self, n: u32) -> Self {
        Self(self.0.map(|l| l << n))
    }

    /// Lane-wise AND.
    #[must_use]
    pub fn and(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(o.0) {
            *a &= b;
        }
        Self(r)
    }

    /// Lane-wise wrapping 64-bit add. Named after the production
    /// `Lanes::add` so the ported kernel reads line-for-line, not after
    /// `std::ops::Add`.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(o.0) {
            *a = a.wrapping_add(b);
        }
        Self(r)
    }

    /// Lane-wise equality: all-ones where equal, zero where not.
    #[must_use]
    pub fn cmpeq(self, o: Self) -> Self {
        let mut r = [0u64; LANES];
        for (d, (a, b)) in r.iter_mut().zip(self.0.iter().zip(o.0)) {
            *d = if *a == b { u64::MAX } else { 0 };
        }
        Self(r)
    }

    /// `self & !m`.
    #[must_use]
    pub fn andnot(self, m: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(m.0) {
            *a &= !b;
        }
        Self(r)
    }

    /// Bitwise select: `(a & m) | (b & !m)`.
    #[must_use]
    pub fn select(m: Self, a: Self, b: Self) -> Self {
        let mut r = [0u64; LANES];
        for (i, d) in r.iter_mut().enumerate() {
            *d = (a.0[i] & m.0[i]) | (b.0[i] & !m.0[i]);
        }
        Self(r)
    }

    /// Whether any lane has any bit set.
    #[must_use]
    pub fn any(self) -> bool {
        self.0.iter().any(|&l| l != 0)
    }

    /// Per-lane `base[idx]` loads. Panics (= a failed proof) if a lane
    /// index is out of bounds — the structural in-bounds argument the
    /// production gather's SAFETY comment makes.
    #[must_use]
    pub fn gather(base: &[u64], idx: Self) -> Self {
        Self(idx.0.map(|i| {
            let i = usize::try_from(i).expect("gather index exceeds usize");
            assert!(i < base.len(), "gather out of bounds: index {i} of {}", base.len());
            base[i]
        }))
    }
}

/// A multibit trie with the production bit layout, in safe code.
pub struct ModelTrie {
    strides: Vec<u32>,
    shifts: Vec<u32>,
    total_bits: u32,
    /// Flat packed-word arena per level; block `b` of level `l` is
    /// `levels[l][b << strides[l] .. (b + 1) << strides[l]]`.
    levels: Vec<Vec<u64>>,
}

impl ModelTrie {
    /// An empty trie over the given stride schedule (root block
    /// pre-allocated, as production `Mbt::new` does).
    #[must_use]
    pub fn new(strides: &[u32]) -> Self {
        assert!(!strides.is_empty() && strides.iter().all(|&s| (1..=16).contains(&s)));
        let total_bits: u32 = strides.iter().sum();
        assert!(total_bits <= 24, "model tries stay small");
        let mut depth = 0;
        let shifts = strides
            .iter()
            .map(|&s| {
                depth += s;
                total_bits - depth
            })
            .collect();
        let mut levels: Vec<Vec<u64>> = strides.iter().map(|_| Vec::new()).collect();
        levels[0] = vec![EMPTY; 1 << strides[0]];
        Self { strides: strides.to_vec(), shifts, total_bits, levels }
    }

    /// Key width, for enumerating the full key space in tests.
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Inserts a prefix (MSB-aligned `value`, low bits zero), porting
    /// `trie/build.rs::install`: leaf-push over the covered entries of
    /// the terminal level, longest prefix winning per entry; allocate
    /// child blocks on the way down.
    pub fn insert(&mut self, value: u64, len: u32, label: u32) {
        assert!(len <= self.total_bits && u64::from(label) < NO_LABEL);
        assert!(value >> self.total_bits == 0, "value exceeds key width");
        if len < self.total_bits {
            assert!(value & ((1 << (self.total_bits - len)) - 1) == 0, "bits below /{len}");
        }
        let mut block = 0usize;
        let mut depth = 0u32;
        for l in 0..self.levels.len() {
            let stride = self.strides[l];
            let base = block << stride;
            let idx = ((value >> self.shifts[l]) as usize) & ((1 << stride) - 1);
            if len <= depth + stride {
                let free_bits = depth + stride - len;
                let start = base + (idx & !((1usize << free_bits) - 1));
                for word in &mut self.levels[l][start..start + (1 << free_bits)] {
                    let install = match decode(*word) {
                        Some((_, existing_len)) => existing_len <= len,
                        None => true,
                    };
                    if install {
                        *word =
                            (*word & NO_CHILD) | (u64::from(len) << 32) | (u64::from(label) << 40);
                    }
                }
                return;
            }
            let child = self.levels[l][base + idx] & NO_CHILD;
            block = if child == NO_CHILD {
                let next_stride = self.strides[l + 1];
                let new_block = self.levels[l + 1].len() >> next_stride;
                self.levels[l + 1].extend(std::iter::repeat_n(EMPTY, 1 << next_stride));
                self.levels[l][base + idx] =
                    (self.levels[l][base + idx] & !NO_CHILD) | new_block as u64;
                new_block
            } else {
                child as usize
            };
            depth += stride;
        }
        unreachable!("schedule covers the key width");
    }

    /// Checks the structural invariant the vector gather's in-bounds
    /// argument rides on: every child pointer names an allocated block
    /// of the next level, and the last level has no children. The
    /// harnesses assert it on every built trie.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.levels.iter().enumerate().all(|(l, words)| {
            words.iter().all(|w| {
                let child = w & NO_CHILD;
                child == NO_CHILD
                    || (l + 1 < self.levels.len()
                        && ((child as usize) << self.strides[l + 1]) < self.levels[l + 1].len())
            })
        })
    }

    /// The scalar reference walk — a port of `Mbt::lookup`.
    #[must_use]
    pub fn lookup_scalar(&self, key: u64) -> Option<(u32, u32)> {
        let mut best = None;
        let mut block = 0usize;
        for (l, words) in self.levels.iter().enumerate() {
            let stride = self.strides[l];
            let idx = ((key >> self.shifts[l]) as usize) & ((1 << stride) - 1);
            let word = words[(block << stride) + idx];
            if let Some(m) = decode(word) {
                best = Some(m);
            }
            let child = word & NO_CHILD;
            if child == NO_CHILD {
                break;
            }
            block = child as usize;
        }
        best
    }

    /// The scalar reference chain walk — a port of `Mbt::chain_into`
    /// (labels collected down the path, returned longest-first).
    #[must_use]
    pub fn chain_scalar(&self, key: u64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut block = 0usize;
        for (l, words) in self.levels.iter().enumerate() {
            let stride = self.strides[l];
            let idx = ((key >> self.shifts[l]) as usize) & ((1 << stride) - 1);
            let word = words[(block << stride) + idx];
            if let Some(m) = decode(word) {
                out.push(m);
            }
            let child = word & NO_CHILD;
            if child == NO_CHILD {
                break;
            }
            block = child as usize;
        }
        out.reverse();
        out
    }

    /// Line-by-line port of the production `lookup_impl` vector kernel
    /// over [`LaneVec`]: same loop, same masks, same fold.
    #[must_use]
    pub fn lookup_lanes(&self, keys: &[u64]) -> Vec<Option<(u32, u32)>> {
        let n = keys.len();
        assert!(n <= LANES && n > 0);
        let mut buf = [0u64; LANES];
        buf[..n].copy_from_slice(keys);
        let keyv = LaneVec(buf);
        let mut live = LaneVec(live_init(n));
        let mut block = LaneVec::splat(0);
        let mut best = LaneVec::splat(UNLABELED);
        let no_label_hi = LaneVec::splat(NO_LABEL);
        let child_mask = LaneVec::splat(NO_CHILD);
        for (l, words) in self.levels.iter().enumerate() {
            if !live.any() {
                break;
            }
            let stride = self.strides[l];
            let idx = keyv.srl(self.shifts[l]).and(LaneVec::splat((1u64 << stride) - 1));
            let addr = block.sll(stride).add(idx).and(live);
            let gathered = LaneVec::gather(words, addr);
            let unlabeled = gathered.srl(40).cmpeq(no_label_hi);
            best = LaneVec::select(live.andnot(unlabeled), gathered, best);
            let child = gathered.and(child_mask);
            live = live.andnot(child.cmpeq(child_mask));
            block = child.and(live);
        }
        best.0[..n].iter().map(|&w| decode(w)).collect()
    }

    /// Line-by-line port of the production `chain_impl` vector kernel:
    /// identical level step, labelled live lanes pushed per level,
    /// chains reversed to longest-first.
    #[must_use]
    pub fn chain_lanes(&self, keys: &[u64]) -> Vec<Vec<(u32, u32)>> {
        let n = keys.len();
        assert!(n <= LANES && n > 0);
        let mut outs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut buf = [0u64; LANES];
        buf[..n].copy_from_slice(keys);
        let keyv = LaneVec(buf);
        let mut live = LaneVec(live_init(n));
        let mut block = LaneVec::splat(0);
        let no_label_hi = LaneVec::splat(NO_LABEL);
        let child_mask = LaneVec::splat(NO_CHILD);
        for (l, words) in self.levels.iter().enumerate() {
            if !live.any() {
                break;
            }
            let stride = self.strides[l];
            let idx = keyv.srl(self.shifts[l]).and(LaneVec::splat((1u64 << stride) - 1));
            let addr = block.sll(stride).add(idx).and(live);
            let gathered = LaneVec::gather(words, addr);
            let unlabeled = gathered.srl(40).cmpeq(no_label_hi);
            let labelled = live.andnot(unlabeled);
            if labelled.any() {
                for (lane, out) in outs.iter_mut().enumerate() {
                    if labelled.0[lane] != 0 {
                        let word = gathered.0[lane];
                        out.push(((word >> 40) as u32, ((word >> 32) & 0xFF) as u32));
                    }
                }
            }
            let child = gathered.and(child_mask);
            live = live.andnot(child.cmpeq(child_mask));
            block = child.and(live);
        }
        for out in &mut outs {
            out.reverse();
        }
        outs
    }
}

/// All-ones masks for the first `n` lanes — the production `live_init`.
#[must_use]
pub fn live_init(n: usize) -> [u64; LANES] {
    let mut live = [0u64; LANES];
    for lane in live.iter_mut().take(n) {
        *lane = u64::MAX;
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trie() -> ModelTrie {
        let mut t = ModelTrie::new(&[2, 2, 2]);
        t.insert(0b000000, 0, 1); // wildcard
        t.insert(0b100000, 1, 2);
        t.insert(0b101000, 3, 3);
        t.insert(0b101100, 4, 4);
        t.insert(0b101101, 6, 5);
        t.insert(0b010000, 2, 6);
        assert!(t.is_valid());
        t
    }

    #[test]
    fn scalar_walk_is_longest_prefix_match() {
        let t = sample_trie();
        assert_eq!(t.lookup_scalar(0b101101), Some((5, 6)));
        assert_eq!(t.lookup_scalar(0b101100), Some((4, 4)));
        assert_eq!(t.lookup_scalar(0b101010), Some((3, 3)));
        assert_eq!(t.lookup_scalar(0b100000), Some((2, 1)));
        assert_eq!(t.lookup_scalar(0b010101), Some((6, 2)));
        assert_eq!(t.lookup_scalar(0b001000), Some((1, 0)), "wildcard backstop");
    }

    #[test]
    fn lane_walk_equals_scalar_walk_on_every_key() {
        let t = sample_trie();
        let keys: Vec<u64> = (0..1u64 << t.total_bits()).collect();
        for group in keys.chunks(LANES) {
            let got = t.lookup_lanes(group);
            for (i, &k) in group.iter().enumerate() {
                assert_eq!(got[i], t.lookup_scalar(k), "key {k:#08b}");
            }
            let chains = t.chain_lanes(group);
            for (i, &k) in group.iter().enumerate() {
                assert_eq!(chains[i], t.chain_scalar(k), "key {k:#08b}");
            }
        }
    }

    #[test]
    fn chains_are_longest_first_one_label_per_level() {
        let t = sample_trie();
        // One label per visited level, longest first. The len-3 and
        // len-0 prefixes also cover this key but share a level with a
        // longer prefix whose leaf-push overwrote their slots — real
        // `chain_into` has the same shadowing, which the
        // `simd_model_matches_real_mbt` harness cross-checks.
        assert_eq!(t.chain_scalar(0b101101), vec![(5, 6), (4, 4), (2, 1)]);
    }

    #[test]
    fn partial_groups_leave_no_lane_artifacts() {
        let t = sample_trie();
        for n in 1..=LANES {
            let keys: Vec<u64> = (0..n as u64).map(|i| i * 7 % (1 << t.total_bits())).collect();
            let got = t.lookup_lanes(&keys);
            assert_eq!(got.len(), n);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(got[i], t.lookup_scalar(k), "n {n} key {k}");
            }
        }
    }
}
