//! SIMD lane-parallel group walks.
//!
//! The scalar multi-key walk ([`lookup_multi`](super::Mbt::lookup_multi)
//! / [`chain_into_multi`](super::Mbt::chain_into_multi)) advances up to
//! [`MULTI_WAY`](super::MULTI_WAY) keys one level
//! at a time so their independent loads overlap — but every per-lane step
//! (index extraction, sentinel tests, child follow) is still scalar
//! instruction-level parallelism with one branch per lane per level. This
//! module replaces the per-lane loop with explicit vector code: the whole
//! 8-key group's level step becomes a handful of lane-parallel
//! shift/mask/compare/select operations on 64-bit lanes plus one gather
//! (AVX2) or eight scalar feeds (SSE2/NEON) from the level's flattened
//! [`PackedEntry`](super::PackedEntry) arena, with **no branches** on
//! label presence or lane liveness — dead lanes are masked, not skipped.
//!
//! ## Dispatch
//!
//! Everything here is compiled only under the `simd` cargo feature; the
//! scalar walk is always compiled and remains the fallback. At runtime
//! the first group walk detects the CPU once ([`simd_level`]):
//!
//! * `x86_64` — AVX2 when the CPU reports it (2×4 lanes, hardware
//!   `vpgatherqq` arena loads), else SSE2 (4×2 lanes, baseline on
//!   x86_64);
//! * `aarch64` — NEON (4×2 lanes, baseline on aarch64);
//! * anything else — scalar fallback.
//!
//! [`set_simd_enabled`] flips the vector paths off globally so benches
//! can A/B the scalar and vector walks in one process; results are
//! bit-identical either way (property-tested in `tests/trie_properties`).
//!
//! ## Safety
//!
//! The only unsafety is the per-arch intrinsics and the unchecked arena
//! gathers. In-bounds is guaranteed structurally: a lane is *live* at
//! level `L` only if it followed a child pointer into `L` (child pointers
//! always name allocated blocks), and dead lanes have their address
//! masked to 0 — valid whenever any lane is live, because blocks are
//! allocated densely from 0. The walk breaks before touching a level with
//! no live lanes.
//!
//! The lane algorithm itself (shift/mask/select level step) is checked
//! equivalent to the scalar walk in the standalone `proofs/` workspace:
//! a faithful portable model of the generic `lookup_impl`/`chain_impl`
//! kernels is compared against the scalar reference on every key of
//! sample and generated tries, and the `simd_model_matches_real_mbt`
//! harness pins that model to the real `Mbt`; the in-tree proptests then
//! pin the real intrinsics to the same results.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(feature = "simd"))]
use super::{MatchChain, Mbt};
#[cfg(not(feature = "simd"))]
use crate::label::Label;

/// The vector backend the multi-key trie walks dispatch to at runtime:
/// `"avx2"`, `"sse2"`, `"neon"`, or `"scalar"` (no `simd` feature, an
/// unsupported architecture, or [`set_simd_enabled`]`(false)`).
#[must_use]
pub fn simd_level() -> &'static str {
    #[cfg(feature = "simd")]
    {
        if enabled() {
            match kind() {
                Kind::Avx2 => return "avx2",
                Kind::Sse2 => return "sse2",
                Kind::Neon => return "neon",
                Kind::None => {}
            }
        }
    }
    "scalar"
}

/// Globally enables or disables the vector walks (enabled by default
/// when the `simd` feature is compiled in). The scalar walk serves every
/// lookup while disabled — benches use this to measure scalar vs SIMD in
/// one process. No-op without the `simd` feature.
pub fn set_simd_enabled(enabled: bool) {
    #[cfg(feature = "simd")]
    vector::ENABLED.store(enabled, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "simd"))]
    let _ = enabled;
}

/// Vector [`Mbt::lookup_multi`] group step. Returns `false` when the
/// caller must run the scalar walk instead (feature off, unsupported
/// CPU, or disabled).
#[cfg(not(feature = "simd"))]
#[inline]
pub(crate) fn lookup_group(_t: &Mbt, _keys: &[u64], _out: &mut [Option<(Label, u32)>]) -> bool {
    false
}

/// Vector [`Mbt::chain_into_multi`] group step; `false` means "use the
/// scalar walk".
#[cfg(not(feature = "simd"))]
#[inline]
pub(crate) fn chain_group(_t: &Mbt, _keys: &[u64], _outs: &mut [MatchChain]) -> bool {
    false
}

#[cfg(feature = "simd")]
pub(crate) use vector::{chain_group, lookup_group};
#[cfg(feature = "simd")]
use vector::{enabled, kind, Kind};

#[cfg(feature = "simd")]
#[allow(unsafe_code)]
mod vector {
    use crate::label::Label;
    use crate::trie::{MatchChain, Mbt, PackedEntry, MULTI_WAY};
    use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(true);

    #[inline]
    pub(super) fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Detected backend, cached after the first query.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(u8)]
    pub(super) enum Kind {
        None = 1,
        Avx2 = 2,
        Sse2 = 3,
        Neon = 4,
    }

    fn detect() -> Kind {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                Kind::Avx2
            } else {
                // SSE2 is part of the x86_64 baseline.
                Kind::Sse2
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON is part of the aarch64 baseline.
            Kind::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Kind::None
        }
    }

    #[inline]
    pub(super) fn kind() -> Kind {
        static CACHED: AtomicU8 = AtomicU8::new(0);
        match CACHED.load(Ordering::Relaxed) {
            0 => {
                let k = detect();
                CACHED.store(k as u8, Ordering::Relaxed);
                k
            }
            2 => Kind::Avx2,
            3 => Kind::Sse2,
            4 => Kind::Neon,
            _ => Kind::None,
        }
    }

    #[inline]
    pub(crate) fn lookup_group(t: &Mbt, keys: &[u64], out: &mut [Option<(Label, u32)>]) -> bool {
        if !enabled() {
            return false;
        }
        match kind() {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => {
                // SAFETY: AVX2 support was verified at runtime by detect().
                unsafe { x86::lookup_avx2(t, keys, out) };
                true
            }
            #[cfg(target_arch = "x86_64")]
            Kind::Sse2 => {
                // SAFETY: SSE2 is unconditionally available on x86_64.
                unsafe { x86::lookup_sse2(t, keys, out) };
                true
            }
            #[cfg(target_arch = "aarch64")]
            Kind::Neon => {
                // SAFETY: NEON is unconditionally available on aarch64.
                unsafe { arm::lookup_neon(t, keys, out) };
                true
            }
            _ => false,
        }
    }

    #[inline]
    pub(crate) fn chain_group(t: &Mbt, keys: &[u64], outs: &mut [MatchChain]) -> bool {
        if !enabled() {
            return false;
        }
        match kind() {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => {
                // SAFETY: AVX2 support was verified at runtime by detect().
                unsafe { x86::chain_avx2(t, keys, outs) };
                true
            }
            #[cfg(target_arch = "x86_64")]
            Kind::Sse2 => {
                // SAFETY: SSE2 is unconditionally available on x86_64.
                unsafe { x86::chain_sse2(t, keys, outs) };
                true
            }
            #[cfg(target_arch = "aarch64")]
            Kind::Neon => {
                // SAFETY: NEON is unconditionally available on aarch64.
                unsafe { arm::chain_neon(t, keys, outs) };
                true
            }
            _ => false,
        }
    }

    /// Eight 64-bit lanes held in arch-specific registers. Every method
    /// is `#[inline(always)]` so the generic walks below compile to one
    /// straight-line vector kernel inside the per-arch entry points.
    ///
    /// Every method is `unsafe` for one shared reason: the caller must
    /// guarantee the implementing type's instruction set is available on
    /// the running CPU (checked once by [`kind`]). [`Lanes::gather`]
    /// additionally requires every lane index to be in bounds of `base`.
    trait Lanes: Copy {
        /// Broadcasts one value to all lanes.
        unsafe fn splat(v: u64) -> Self;
        /// Loads eight lanes from an array.
        unsafe fn load(a: &[u64; MULTI_WAY]) -> Self;
        /// Stores eight lanes to an array.
        unsafe fn store(self, a: &mut [u64; MULTI_WAY]);
        /// Lane-wise logical shift right by a scalar count.
        unsafe fn srl(self, n: u32) -> Self;
        /// Lane-wise shift left by a scalar count.
        unsafe fn sll(self, n: u32) -> Self;
        /// Lane-wise AND.
        unsafe fn and(self, o: Self) -> Self;
        /// Lane-wise 64-bit add.
        unsafe fn add(self, o: Self) -> Self;
        /// Lane-wise 64-bit equality: all-ones where equal, zero where
        /// not.
        unsafe fn cmpeq(self, o: Self) -> Self;
        /// `self & !m`.
        unsafe fn andnot(self, m: Self) -> Self;
        /// Bitwise select: `(a & m) | (b & !m)` — `m` lanes are all-ones
        /// or all-zero masks.
        unsafe fn select(m: Self, a: Self, b: Self) -> Self;
        /// Whether any lane has any bit set.
        unsafe fn any(self) -> bool;
        /// Per-lane `base[idx]` loads. Every lane index must be in
        /// bounds.
        unsafe fn gather(base: *const u64, idx: Self) -> Self;
    }

    /// Packed word with no label and no child — dead lanes read as this.
    const UNLABELED: u64 = PackedEntry::NO_LABEL << 40;

    #[inline]
    fn decode(word: u64) -> Option<(Label, u32)> {
        if word >> 40 == PackedEntry::NO_LABEL {
            None
        } else {
            Some((Label((word >> 40) as u32), ((word >> 32) & 0xFF) as u32))
        }
    }

    /// Lane masks for the first `n` of [`MULTI_WAY`] lanes.
    #[inline]
    fn live_init(n: usize) -> [u64; MULTI_WAY] {
        let mut live = [0u64; MULTI_WAY];
        for lane in live.iter_mut().take(n) {
            *lane = u64::MAX;
        }
        live
    }

    /// The vector twin of `Mbt::lookup_group`: per level one broadcast
    /// shift+mask extracts all lane indices, one gather reads the packed
    /// words, and branchless masks fold the deepest labelled word per
    /// lane — `out[i] = lookup(keys[i])`.
    #[inline(always)]
    unsafe fn lookup_impl<L: Lanes>(t: &Mbt, keys: &[u64], out: &mut [Option<(Label, u32)>]) {
        let n = keys.len();
        debug_assert!(n <= MULTI_WAY && out.len() >= n);
        let mut buf = [0u64; MULTI_WAY];
        buf[..n].copy_from_slice(keys);
        // SAFETY: the caller guarantees `L`'s instruction set (this fn is
        // only reached through the arch entry points below). The gather
        // is in bounds structurally: a live lane's `block` came from a
        // child pointer (which always names an allocated block of the
        // next level), a dead lane's address is masked to 0, and entry 0
        // exists whenever the walk reaches a level with any live lane.
        unsafe {
            let keyv = L::load(&buf);
            let mut live = L::load(&live_init(n));
            let mut block = L::splat(0);
            let mut best = L::splat(UNLABELED);
            let no_label_hi = L::splat(PackedEntry::NO_LABEL);
            let child_mask = L::splat(PackedEntry::NO_CHILD);
            for (li, level) in t.levels.iter().enumerate() {
                if !live.any() {
                    break;
                }
                let idx =
                    keyv.srl(t.schedule.shift_of(li)).and(L::splat((1u64 << level.stride) - 1));
                // Dead lanes read block 0 / index 0 (in bounds while any
                // lane is live); their loads are discarded by the masks
                // below.
                let addr = block.sll(level.stride).add(idx).and(live);
                let words = L::gather(level.entries.as_ptr().cast::<u64>(), addr);
                let unlabeled = words.srl(40).cmpeq(no_label_hi);
                best = L::select(live.andnot(unlabeled), words, best);
                let child = words.and(child_mask);
                live = live.andnot(child.cmpeq(child_mask));
                block = child.and(live);
            }
            best.store(&mut buf);
        }
        for (slot, &word) in out.iter_mut().zip(buf.iter()).take(n) {
            *slot = decode(word);
        }
    }

    /// The vector twin of the scalar chain group walk: the level step is
    /// identical to [`lookup_impl`], but every labelled live lane's word
    /// is pushed onto its chain (scalar — pushes are inherently per
    /// lane), then chains are reversed to longest-first order.
    #[inline(always)]
    unsafe fn chain_impl<L: Lanes>(t: &Mbt, keys: &[u64], outs: &mut [MatchChain]) {
        let n = keys.len();
        debug_assert!(n <= MULTI_WAY && outs.len() >= n);
        for chain in outs.iter_mut().take(n) {
            chain.clear();
        }
        let mut buf = [0u64; MULTI_WAY];
        buf[..n].copy_from_slice(keys);
        // SAFETY: as in `lookup_impl` — the caller guarantees `L`'s
        // instruction set, and the gather addresses are in bounds
        // structurally (child pointers name allocated blocks; dead lanes
        // are masked to entry 0, valid while any lane is live).
        unsafe {
            let keyv = L::load(&buf);
            let mut live = L::load(&live_init(n));
            let mut block = L::splat(0);
            let no_label_hi = L::splat(PackedEntry::NO_LABEL);
            let child_mask = L::splat(PackedEntry::NO_CHILD);
            for (li, level) in t.levels.iter().enumerate() {
                if !live.any() {
                    break;
                }
                let idx =
                    keyv.srl(t.schedule.shift_of(li)).and(L::splat((1u64 << level.stride) - 1));
                let addr = block.sll(level.stride).add(idx).and(live);
                let words = L::gather(level.entries.as_ptr().cast::<u64>(), addr);
                let unlabeled = words.srl(40).cmpeq(no_label_hi);
                let labelled = live.andnot(unlabeled);
                if labelled.any() {
                    let mut wa = [0u64; MULTI_WAY];
                    words.store(&mut wa);
                    let mut take = [0u64; MULTI_WAY];
                    labelled.store(&mut take);
                    for lane in 0..n {
                        if take[lane] != 0 {
                            let word = wa[lane];
                            outs[lane]
                                .push(Label((word >> 40) as u32), ((word >> 32) & 0xFF) as u32);
                        }
                    }
                }
                let child = words.and(child_mask);
                live = live.andnot(child.cmpeq(child_mask));
                block = child.and(live);
            }
        }
        for chain in outs.iter_mut().take(n) {
            chain.reverse();
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use super::{chain_impl, lookup_impl, Label, Lanes, MatchChain, Mbt, MULTI_WAY};
        use std::arch::x86_64::*;

        /// Eight lanes as two 256-bit registers (4 × u64 each).
        #[derive(Clone, Copy)]
        struct Avx2(__m256i, __m256i);

        // SAFETY comments below share one justification: the caller of
        // every `Lanes` method guarantees AVX2 is available (runtime
        // detection in `kind()`, re-checked by the `#[target_feature]`
        // entry points), register-only ops have no other requirement,
        // and the `loadu`/`storeu` pointers come from `[u64; 8]`
        // references (valid, unaligned-tolerant instructions).
        impl Lanes for Avx2 {
            #[inline(always)]
            unsafe fn splat(v: u64) -> Self {
                // SAFETY: AVX2 register op (see impl-level comment).
                unsafe {
                    let x = _mm256_set1_epi64x(v as i64);
                    Self(x, x)
                }
            }
            #[inline(always)]
            unsafe fn load(a: &[u64; MULTI_WAY]) -> Self {
                // SAFETY: unaligned loads of 8 u64 from a valid array.
                unsafe {
                    Self(
                        _mm256_loadu_si256(a.as_ptr().cast()),
                        _mm256_loadu_si256(a.as_ptr().add(4).cast()),
                    )
                }
            }
            #[inline(always)]
            unsafe fn store(self, a: &mut [u64; MULTI_WAY]) {
                // SAFETY: unaligned stores of 8 u64 into a valid array.
                unsafe {
                    _mm256_storeu_si256(a.as_mut_ptr().cast(), self.0);
                    _mm256_storeu_si256(a.as_mut_ptr().add(4).cast(), self.1);
                }
            }
            #[inline(always)]
            unsafe fn srl(self, n: u32) -> Self {
                // SAFETY: AVX2 register op.
                unsafe {
                    let c = _mm_cvtsi32_si128(n as i32);
                    Self(_mm256_srl_epi64(self.0, c), _mm256_srl_epi64(self.1, c))
                }
            }
            #[inline(always)]
            unsafe fn sll(self, n: u32) -> Self {
                // SAFETY: AVX2 register op.
                unsafe {
                    let c = _mm_cvtsi32_si128(n as i32);
                    Self(_mm256_sll_epi64(self.0, c), _mm256_sll_epi64(self.1, c))
                }
            }
            #[inline(always)]
            unsafe fn and(self, o: Self) -> Self {
                // SAFETY: AVX2 register op.
                unsafe { Self(_mm256_and_si256(self.0, o.0), _mm256_and_si256(self.1, o.1)) }
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                // SAFETY: AVX2 register op.
                unsafe { Self(_mm256_add_epi64(self.0, o.0), _mm256_add_epi64(self.1, o.1)) }
            }
            #[inline(always)]
            unsafe fn cmpeq(self, o: Self) -> Self {
                // SAFETY: AVX2 register op.
                unsafe { Self(_mm256_cmpeq_epi64(self.0, o.0), _mm256_cmpeq_epi64(self.1, o.1)) }
            }
            #[inline(always)]
            unsafe fn andnot(self, m: Self) -> Self {
                // SAFETY: AVX2 register op.
                unsafe { Self(_mm256_andnot_si256(m.0, self.0), _mm256_andnot_si256(m.1, self.1)) }
            }
            #[inline(always)]
            unsafe fn select(m: Self, a: Self, b: Self) -> Self {
                // SAFETY: AVX2 register op.
                unsafe {
                    Self(_mm256_blendv_epi8(b.0, a.0, m.0), _mm256_blendv_epi8(b.1, a.1, m.1))
                }
            }
            #[inline(always)]
            unsafe fn any(self) -> bool {
                // SAFETY: AVX2 register op.
                unsafe {
                    let both = _mm256_or_si256(self.0, self.1);
                    _mm256_testz_si256(both, both) == 0
                }
            }
            #[inline(always)]
            unsafe fn gather(base: *const u64, idx: Self) -> Self {
                // SAFETY: `vpgatherqq` dereferences `base + 8*idx[lane]`
                // per lane; the caller guarantees every lane index is in
                // bounds of the arena behind `base` (see the trait docs).
                unsafe {
                    Self(
                        _mm256_i64gather_epi64::<8>(base.cast::<i64>(), idx.0),
                        _mm256_i64gather_epi64::<8>(base.cast::<i64>(), idx.1),
                    )
                }
            }
        }

        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn lookup_avx2(t: &Mbt, keys: &[u64], out: &mut [Option<(Label, u32)>]) {
            // SAFETY: this entry point carries `target_feature(avx2)` and
            // is only called after runtime detection, satisfying the
            // `Avx2: Lanes` contract end to end.
            unsafe { lookup_impl::<Avx2>(t, keys, out) };
        }

        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn chain_avx2(t: &Mbt, keys: &[u64], outs: &mut [MatchChain]) {
            // SAFETY: as `lookup_avx2` — AVX2 verified by the caller.
            unsafe { chain_impl::<Avx2>(t, keys, outs) };
        }

        /// Eight lanes as four 128-bit registers (2 × u64 each). SSE2 is
        /// the x86_64 baseline: no 64-bit compare or gather, so equality
        /// is emulated from 32-bit compares and arena loads are scalar
        /// feeds into the vectors.
        #[derive(Clone, Copy)]
        struct Sse2([__m128i; 4]);

        #[inline(always)]
        unsafe fn cmpeq64(a: __m128i, b: __m128i) -> __m128i {
            // SAFETY: SSE2 register ops — part of the x86_64 baseline.
            unsafe {
                // 64-bit equality from 32-bit equality: both halves must
                // match.
                let eq32 = _mm_cmpeq_epi32(a, b);
                _mm_and_si128(eq32, _mm_shuffle_epi32::<0b1011_0001>(eq32))
            }
        }

        // SAFETY comments below share one justification: SSE2 is part of
        // the x86_64 baseline (always available on this target), the
        // `loadu`/`storeu` pointers come from `[u64; 8]` references, and
        // `gather` is scalar loads whose in-bounds requirement the caller
        // guarantees (trait docs).
        impl Lanes for Sse2 {
            #[inline(always)]
            unsafe fn splat(v: u64) -> Self {
                // SAFETY: SSE2 register op (x86_64 baseline).
                unsafe {
                    let x = _mm_set1_epi64x(v as i64);
                    Self([x; 4])
                }
            }
            #[inline(always)]
            unsafe fn load(a: &[u64; MULTI_WAY]) -> Self {
                // SAFETY: unaligned loads of 8 u64 from a valid array.
                unsafe {
                    let p = a.as_ptr();
                    Self([
                        _mm_loadu_si128(p.cast()),
                        _mm_loadu_si128(p.add(2).cast()),
                        _mm_loadu_si128(p.add(4).cast()),
                        _mm_loadu_si128(p.add(6).cast()),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn store(self, a: &mut [u64; MULTI_WAY]) {
                // SAFETY: unaligned stores of 8 u64 into a valid array.
                unsafe {
                    let p = a.as_mut_ptr();
                    _mm_storeu_si128(p.cast(), self.0[0]);
                    _mm_storeu_si128(p.add(2).cast(), self.0[1]);
                    _mm_storeu_si128(p.add(4).cast(), self.0[2]);
                    _mm_storeu_si128(p.add(6).cast(), self.0[3]);
                }
            }
            #[inline(always)]
            unsafe fn srl(self, n: u32) -> Self {
                // SAFETY: SSE2 register op.
                unsafe {
                    let c = _mm_cvtsi32_si128(n as i32);
                    Self(self.0.map(|v| _mm_srl_epi64(v, c)))
                }
            }
            #[inline(always)]
            unsafe fn sll(self, n: u32) -> Self {
                // SAFETY: SSE2 register op.
                unsafe {
                    let c = _mm_cvtsi32_si128(n as i32);
                    Self(self.0.map(|v| _mm_sll_epi64(v, c)))
                }
            }
            #[inline(always)]
            unsafe fn and(self, o: Self) -> Self {
                // SAFETY: SSE2 register op.
                unsafe {
                    Self([
                        _mm_and_si128(self.0[0], o.0[0]),
                        _mm_and_si128(self.0[1], o.0[1]),
                        _mm_and_si128(self.0[2], o.0[2]),
                        _mm_and_si128(self.0[3], o.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                // SAFETY: SSE2 register op.
                unsafe {
                    Self([
                        _mm_add_epi64(self.0[0], o.0[0]),
                        _mm_add_epi64(self.0[1], o.0[1]),
                        _mm_add_epi64(self.0[2], o.0[2]),
                        _mm_add_epi64(self.0[3], o.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn cmpeq(self, o: Self) -> Self {
                // SAFETY: SSE2 register ops (via `cmpeq64`).
                unsafe {
                    Self([
                        cmpeq64(self.0[0], o.0[0]),
                        cmpeq64(self.0[1], o.0[1]),
                        cmpeq64(self.0[2], o.0[2]),
                        cmpeq64(self.0[3], o.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn andnot(self, m: Self) -> Self {
                // SAFETY: SSE2 register op.
                unsafe {
                    Self([
                        _mm_andnot_si128(m.0[0], self.0[0]),
                        _mm_andnot_si128(m.0[1], self.0[1]),
                        _mm_andnot_si128(m.0[2], self.0[2]),
                        _mm_andnot_si128(m.0[3], self.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn select(m: Self, a: Self, b: Self) -> Self {
                // SAFETY: SSE2 register ops.
                unsafe {
                    Self([
                        _mm_or_si128(
                            _mm_and_si128(m.0[0], a.0[0]),
                            _mm_andnot_si128(m.0[0], b.0[0]),
                        ),
                        _mm_or_si128(
                            _mm_and_si128(m.0[1], a.0[1]),
                            _mm_andnot_si128(m.0[1], b.0[1]),
                        ),
                        _mm_or_si128(
                            _mm_and_si128(m.0[2], a.0[2]),
                            _mm_andnot_si128(m.0[2], b.0[2]),
                        ),
                        _mm_or_si128(
                            _mm_and_si128(m.0[3], a.0[3]),
                            _mm_andnot_si128(m.0[3], b.0[3]),
                        ),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn any(self) -> bool {
                // SAFETY: SSE2 register ops.
                unsafe {
                    let acc = _mm_or_si128(
                        _mm_or_si128(self.0[0], self.0[1]),
                        _mm_or_si128(self.0[2], self.0[3]),
                    );
                    _mm_movemask_epi8(_mm_cmpeq_epi32(acc, _mm_setzero_si128())) != 0xFFFF
                }
            }
            #[inline(always)]
            unsafe fn gather(base: *const u64, idx: Self) -> Self {
                // SAFETY: scalar feeds — each `base.add(i)` dereference
                // is in bounds per the caller's gather contract; the
                // surrounding loads/stores use valid local arrays.
                unsafe {
                    let mut ia = [0u64; MULTI_WAY];
                    idx.store(&mut ia);
                    let mut out = [0u64; MULTI_WAY];
                    for (slot, &i) in out.iter_mut().zip(ia.iter()) {
                        *slot = *base.add(i as usize);
                    }
                    Self::load(&out)
                }
            }
        }

        pub(super) unsafe fn lookup_sse2(t: &Mbt, keys: &[u64], out: &mut [Option<(Label, u32)>]) {
            // SAFETY: SSE2 is part of the x86_64 baseline, satisfying the
            // `Sse2: Lanes` contract unconditionally on this target.
            unsafe { lookup_impl::<Sse2>(t, keys, out) };
        }

        pub(super) unsafe fn chain_sse2(t: &Mbt, keys: &[u64], outs: &mut [MatchChain]) {
            // SAFETY: as `lookup_sse2` — SSE2 is the x86_64 baseline.
            unsafe { chain_impl::<Sse2>(t, keys, outs) };
        }
    }

    #[cfg(target_arch = "aarch64")]
    mod arm {
        use super::{chain_impl, lookup_impl, Label, Lanes, MatchChain, Mbt, MULTI_WAY};
        use std::arch::aarch64::*;

        /// Eight lanes as four 128-bit NEON registers (2 × u64 each).
        #[derive(Clone, Copy)]
        struct Neon([uint64x2_t; 4]);

        // SAFETY comments below share one justification: NEON is part of
        // the aarch64 baseline (always available on this target), the
        // `vld1q`/`vst1q` pointers come from `[u64; 8]` references, and
        // `gather` is scalar loads whose in-bounds requirement the caller
        // guarantees (trait docs).
        impl Lanes for Neon {
            #[inline(always)]
            unsafe fn splat(v: u64) -> Self {
                // SAFETY: NEON register op (aarch64 baseline).
                unsafe { Self([vdupq_n_u64(v); 4]) }
            }
            #[inline(always)]
            unsafe fn load(a: &[u64; MULTI_WAY]) -> Self {
                // SAFETY: loads of 8 u64 from a valid array.
                unsafe {
                    let p = a.as_ptr();
                    Self([
                        vld1q_u64(p),
                        vld1q_u64(p.add(2)),
                        vld1q_u64(p.add(4)),
                        vld1q_u64(p.add(6)),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn store(self, a: &mut [u64; MULTI_WAY]) {
                // SAFETY: stores of 8 u64 into a valid array.
                unsafe {
                    let p = a.as_mut_ptr();
                    vst1q_u64(p, self.0[0]);
                    vst1q_u64(p.add(2), self.0[1]);
                    vst1q_u64(p.add(4), self.0[2]);
                    vst1q_u64(p.add(6), self.0[3]);
                }
            }
            #[inline(always)]
            unsafe fn srl(self, n: u32) -> Self {
                // SAFETY: NEON register op.
                unsafe {
                    let c = vdupq_n_s64(-i64::from(n));
                    Self(self.0.map(|v| vshlq_u64(v, c)))
                }
            }
            #[inline(always)]
            unsafe fn sll(self, n: u32) -> Self {
                // SAFETY: NEON register op.
                unsafe {
                    let c = vdupq_n_s64(i64::from(n));
                    Self(self.0.map(|v| vshlq_u64(v, c)))
                }
            }
            #[inline(always)]
            unsafe fn and(self, o: Self) -> Self {
                // SAFETY: NEON register op.
                unsafe {
                    Self([
                        vandq_u64(self.0[0], o.0[0]),
                        vandq_u64(self.0[1], o.0[1]),
                        vandq_u64(self.0[2], o.0[2]),
                        vandq_u64(self.0[3], o.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                // SAFETY: NEON register op.
                unsafe {
                    Self([
                        vaddq_u64(self.0[0], o.0[0]),
                        vaddq_u64(self.0[1], o.0[1]),
                        vaddq_u64(self.0[2], o.0[2]),
                        vaddq_u64(self.0[3], o.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn cmpeq(self, o: Self) -> Self {
                // SAFETY: NEON register op.
                unsafe {
                    Self([
                        vceqq_u64(self.0[0], o.0[0]),
                        vceqq_u64(self.0[1], o.0[1]),
                        vceqq_u64(self.0[2], o.0[2]),
                        vceqq_u64(self.0[3], o.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn andnot(self, m: Self) -> Self {
                // SAFETY: NEON register op.
                unsafe {
                    Self([
                        vbicq_u64(self.0[0], m.0[0]),
                        vbicq_u64(self.0[1], m.0[1]),
                        vbicq_u64(self.0[2], m.0[2]),
                        vbicq_u64(self.0[3], m.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn select(m: Self, a: Self, b: Self) -> Self {
                // SAFETY: NEON register op.
                unsafe {
                    Self([
                        vbslq_u64(m.0[0], a.0[0], b.0[0]),
                        vbslq_u64(m.0[1], a.0[1], b.0[1]),
                        vbslq_u64(m.0[2], a.0[2], b.0[2]),
                        vbslq_u64(m.0[3], a.0[3], b.0[3]),
                    ])
                }
            }
            #[inline(always)]
            unsafe fn any(self) -> bool {
                // SAFETY: NEON register op.
                unsafe {
                    let acc =
                        vorrq_u64(vorrq_u64(self.0[0], self.0[1]), vorrq_u64(self.0[2], self.0[3]));
                    (vgetq_lane_u64::<0>(acc) | vgetq_lane_u64::<1>(acc)) != 0
                }
            }
            #[inline(always)]
            unsafe fn gather(base: *const u64, idx: Self) -> Self {
                // SAFETY: scalar feeds — each `base.add(i)` dereference
                // is in bounds per the caller's gather contract; the
                // surrounding loads/stores use valid local arrays.
                unsafe {
                    let mut ia = [0u64; MULTI_WAY];
                    idx.store(&mut ia);
                    let mut out = [0u64; MULTI_WAY];
                    for (slot, &i) in out.iter_mut().zip(ia.iter()) {
                        *slot = *base.add(i as usize);
                    }
                    Self::load(&out)
                }
            }
        }

        pub(super) unsafe fn lookup_neon(t: &Mbt, keys: &[u64], out: &mut [Option<(Label, u32)>]) {
            // SAFETY: NEON is part of the aarch64 baseline, satisfying
            // the `Neon: Lanes` contract unconditionally on this target.
            unsafe { lookup_impl::<Neon>(t, keys, out) };
        }

        pub(super) unsafe fn chain_neon(t: &Mbt, keys: &[u64], outs: &mut [MatchChain]) {
            // SAFETY: as `lookup_neon` — NEON is the aarch64 baseline.
            unsafe { chain_impl::<Neon>(t, keys, outs) };
        }
    }
}
