//! Flow/result cache: memoised classification for elephant flows.
//!
//! Real switch traffic is heavily skewed — a small set of elephant flows
//! carries most packets — so the fast path front-loads a **flow cache**
//! ahead of any engine's lookup: a fixed-capacity, open-addressed,
//! set-associative table memoising `header → result`. A hit skips the
//! engine entirely; a miss falls through and installs the result.
//!
//! The cache lives in `classifier-api` so *every* engine can sit behind
//! it: `mtl-runtime` gives each worker shard one, in front of whatever
//! [`Classifier`](crate::Classifier) the runtime serves. The runtime is
//! the only place that caches.
//!
//! ## Consistency with incremental updates
//!
//! Entries are **epoch-stamped**: the owner stamps every entry with the
//! version of the rule set that computed it (the runtime uses its publish
//! version), and a cached entry is only served when its stamp equals the
//! current epoch. Invalidation is therefore O(1) — one integer increment
//! — with no cache walking; stale entries die lazily as they are
//! re-probed or overwritten. [`FlowCache::evict_where`] is the selective
//! alternative for an owner that knows which entries a change can affect.
//!
//! ## Frequency-aware admission (TinyLFU)
//!
//! Blind replacement lets every miss evict a live entry, so cold flows
//! and one-shot scan garbage continuously flush the elephants — the
//! uniform-skew thrash measured by the `cache` bench experiment. The
//! default admission policy is therefore **TinyLFU-style**
//! ([`Admission::TinyLfu`]): a compact 4-bit counting sketch
//! ([`FrequencySketch`], four hashed counters per key, periodically
//! halved so history ages out) tracks access frequency, and when an
//! insert finds its whole probe window live, the candidate only replaces
//! the window's *least-frequent* entry if the sketch says the candidate
//! is accessed strictly more often. One-hit wonders are rejected instead
//! of admitted, so the resident set converges on the flows that actually
//! carry traffic. [`Admission::Blind`] keeps the always-replace policy
//! for comparison.
//!
//! ## Recency window (W-TinyLFU)
//!
//! Pure TinyLFU has a blind spot: a *brand-new* flow has no sketch
//! history, so its first packets are rejected until enough frequency
//! accrues — a recency burst (a new elephant ramping up) pays the full
//! miss cost while the filter warms to it. The fix is Caffeine's
//! **W-TinyLFU** shape: a small LRU **window segment** (~1 % of
//! capacity, see [`FlowCache::window_capacity`]) sits in front of the
//! frequency-guarded main region. New flows land in the window
//! unconditionally, so a burst is served from cache immediately; when
//! the window is full its least-recently-used entry is evicted and
//! *that* entry — now carrying whatever frequency it earned — competes
//! for main-region admission under the TinyLFU rule. Scan garbage
//! therefore churns only the tiny window and still cannot flush the
//! elephants. The window is a fully-associative linear scan, so the
//! default sizing caps it at 64 slots however large the main region
//! grows; [`FlowCache::with_window`] pins an explicit window size
//! (0 restores pure TinyLFU, the A/B baseline in the `cache` bench
//! experiment).
//!
//! ## Bypass
//!
//! A cache only pays when it hits: on a scan (every flow new) each
//! packet pays a probe *and* an insert that admission then mostly
//! rejects, on top of the classification it cannot avoid. So the cache
//! also judges itself. The owner calls [`FlowCache::begin_batch`] at
//! every batch boundary; once a window of [`FlowCache::capacity`]
//! lookups has passed, the window's hit rate decides the mode for the
//! next window — after two windows in a row below the break-even
//! [`BYPASS_BELOW_PERCENT`] the cache is **bypassed**, after one at or
//! above it the cache is used. (One window below is not enough: a cold
//! cache misses every flow of its first window, even on traffic that
//! fits it.) A bypassing owner classifies straight from its table and
//! sends only about one packet in [`BYPASS_SAMPLE`]
//! ([`FlowCache::sampled`]) through the full [`FlowCache::lookup`] +
//! [`FlowCache::insert`], so the cache keeps learning and the same test,
//! over the sampled lookups, turns it back on when the traffic turns
//! hot. A switch either way needs a full window, so the mode cannot flap
//! within one. The decision reads the counters [`CacheStats`] keeps
//! anyway; the hit path gains no per-packet work, and `lookup` and
//! `insert` mean what they always meant. [`CacheStats::bypassed`] and
//! [`CacheStats::mode_switches`] count what the policy did.
//!
//! The gaps between sampled packets are random, so the sample holds the
//! stream's flows in the stream's proportions and a sampled window reads
//! about the hit rate the full stream would get. A fixed period would
//! alias with periodic traffic: the benchmark's scan repeats every
//! 262 144 packets, a multiple of 64, so every cycle would sample the
//! same 4 096 flows, and a cache fed only those hit 16 % of its lookups
//! where the full stream hits none. Random gaps over-read a cycle of `P`
//! packets only a little: a sampled flow comes back into the sample
//! after about 64 cycles, and only the few that come back within a
//! cache's worth of sampled lookups can hit, about `capacity / P` of
//! them (0.3 % measured on the benchmark's scan at one shard).
//!
//! ## Allocation behaviour
//!
//! Entries are plain `Copy` data: a header's fields are stored in a
//! fixed inline array (headers with more than [`MAX_CACHED_FIELDS`]
//! fields bypass the cache), and the sketch is a flat word array, so
//! lookups *and* inserts perform **zero heap allocations**. The cache is
//! not shared: each worker thread owns one, so there are no locks on the
//! hot path.

use oflow::{HeaderValues, MatchFieldKind};
use std::hash::Hasher;

/// Multiply-rotate hasher (the FxHash construction) for short,
/// attacker-free keys.
///
/// Used by the flow cache (header field tuples) and by `mtl-core`'s
/// label-combination index (dense label ids): neither input is
/// traffic-controlled in an exploitable way, so SipHash's flooding
/// resistance buys nothing while dominating the per-probe cost. A
/// two-multiply hash keeps each probe a handful of cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Most header fields a cacheable flow key may carry. Headers with more
/// fields (none of the paper's applications produce them) bypass the
/// cache rather than forcing heap-allocated keys.
pub const MAX_CACHED_FIELDS: usize = 8;

/// Associativity: slots probed per lookup/insert from the hash's home
/// slot (linear window, wrap-around).
const WAYS: usize = 4;

/// Hard ceiling on requested capacity (2^28 slots ≈ tens of GiB of
/// entries): anything larger is a unit error, not a cache.
const MAX_CAPACITY: usize = 1 << 28;

/// Vacancy sentinel for [`Entry::hash`].
const EMPTY: u64 = u64::MAX;

/// Break-even hit rate, in percent: a decision window that hits less
/// often than this bypasses the cache for the next window (see the
/// [module docs](self)). A cached packet costs `h·hit + (1 − h)·(miss +
/// insert + classify)`, a bypassed one `classify`, so the cache pays
/// from `h = (miss + insert) / (miss + insert + classify − hit)`. The
/// benchmark's per-layer readings (`scan_miss --trace 1`, one shard,
/// 2-vCPU Xeon 2.1 GHz): `cache_hit_ns` 44, `cache_miss_ns` +
/// `cache_insert_ns` 52 + 109 = 161 and `classify_ns` 242 give 0.45.
/// Served in place the miss path costs more than the lab's isolated
/// loop, about 230 ns a scan packet (`pps` with the cache and without),
/// which gives 0.54. The constant sits between the two: a working set
/// that fits hits far above it (`zipf_hot` ≥ 0.99, and ≥ 0.7 even in the
/// first window of a cold cache), a scan far below it (≤ 0.01).
pub const BYPASS_BELOW_PERCENT: u64 = 50;

/// While bypassing, one packet in this many, on average, still goes
/// through [`FlowCache::lookup`] + [`FlowCache::insert`]; the gap to the
/// next sampled packet is drawn uniformly from `1..2·BYPASS_SAMPLE`. It
/// costs a bypassing stream `(miss + insert) / 64`, under 3 ns a packet
/// (under 1 % of a scan packet's miss + insert + `classify`), and still
/// fills a decision window of a 1 024-slot cache in 64 Ki packets (16 of
/// the benchmark's 4 096-packet batches), so hot traffic gets its cache
/// back within a couple of windows.
pub const BYPASS_SAMPLE: u32 = 64;

/// How the cache decides, on a conflict miss, whether the new flow may
/// evict a resident entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Always admit: the probe window's first slot is replaced. Simple,
    /// but cold flows and scan garbage continuously evict elephants.
    Blind,
    /// TinyLFU-style: admit only if the candidate's sketched access
    /// frequency strictly exceeds the least-frequent window entry's.
    TinyLfu,
}

/// Counters the cache accumulates between [`FlowCache::reset_stats`]
/// calls — exposed as one `Copy` struct so bench harnesses read (and
/// serialise) them directly instead of recomputing hit rates externally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through (including uncacheable headers).
    pub misses: u64,
    /// Results installed (vacant/stale slots filled, same-key
    /// overwrites, and admitted evictions).
    pub insertions: u64,
    /// Live entries overwritten by a different flow.
    pub evictions: u64,
    /// Candidates the admission filter turned away (TinyLFU only).
    pub rejections: u64,
    /// Effective slot count of the main region.
    pub capacity: usize,
    /// Slots of the LRU recency window in front of the main region
    /// (0 = pure TinyLFU / blind cache).
    pub window_capacity: usize,
    /// Lookups served from the recency window (a subset of `hits`).
    pub window_hits: u64,
    /// Packets the owner classified without a lookup while the cache was
    /// bypassed (not counted in `hits` or `misses`).
    pub bypassed: u64,
    /// Times the cache went into or out of bypass.
    pub mode_switches: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    /// Packets served in bypass made no lookup and do not count.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another stats block (for aggregating per-worker
    /// caches); capacities add.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            rejections: self.rejections + other.rejections,
            capacity: self.capacity + other.capacity,
            window_capacity: self.window_capacity + other.window_capacity,
            window_hits: self.window_hits + other.window_hits,
            bypassed: self.bypassed + other.bypassed,
            mode_switches: self.mode_switches + other.mode_switches,
        }
    }
}

/// A compact 4-bit counting sketch (count-min with conservative update)
/// over flow-key hashes — the frequency memory behind
/// [`Admission::TinyLfu`].
///
/// Sixteen 4-bit counters per 64-bit word; each key maps to four
/// counters through independently seeded hashes and its estimate is
/// their minimum. After `sample` increments every counter is halved, so
/// frequency is a sliding estimate, not an all-time count — flows that
/// go cold age out of the filter.
#[derive(Debug, Clone)]
struct FrequencySketch {
    table: Vec<u64>,
    mask: usize,
    additions: u32,
    sample: u32,
}

impl FrequencySketch {
    /// Counter saturation value (4 bits).
    const MAX_COUNT: u64 = 15;
    const SEEDS: [u64; 4] = [
        0xc3a5_c85c_97cb_3127,
        0xb492_b66f_be98_f273,
        0x9ae1_6a3b_2f90_404f,
        0xcbf2_9ce4_8422_2325,
    ];

    /// A sketch sized for a cache of `capacity` slots: 16 counters per
    /// slot, sample period 10x capacity (the classical TinyLFU window).
    fn new(capacity: usize) -> Self {
        let words = capacity.next_power_of_two().max(8);
        Self {
            table: vec![0; words],
            mask: words - 1,
            additions: 0,
            sample: (capacity.max(1) as u32).saturating_mul(10),
        }
    }

    /// The i-th counter position of a key hash.
    #[inline]
    fn slot(&self, hash: u64, i: usize) -> (usize, u32) {
        let h = hash.wrapping_add(Self::SEEDS[i]).wrapping_mul(Self::SEEDS[i]);
        let h = h ^ (h >> 32);
        ((h as usize) & self.mask, ((h >> 32) as u32 & 15) * 4)
    }

    /// Estimated access frequency of a key (min over its counters).
    #[inline]
    fn estimate(&self, hash: u64) -> u64 {
        (0..4)
            .map(|i| {
                let (word, shift) = self.slot(hash, i);
                (self.table[word] >> shift) & 0xF
            })
            .min()
            .unwrap_or(0)
    }

    /// Records one access: conservative update (only counters at the
    /// current minimum grow), halving all counters each sample period.
    #[inline]
    fn increment(&mut self, hash: u64) {
        let min = self.estimate(hash);
        if min >= Self::MAX_COUNT {
            return;
        }
        for i in 0..4 {
            let (word, shift) = self.slot(hash, i);
            if (self.table[word] >> shift) & 0xF == min {
                self.table[word] += 1 << shift;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample {
            self.halve();
        }
    }

    /// Ages the history: every counter loses half its weight.
    fn halve(&mut self) {
        for word in &mut self.table {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions /= 2;
    }

    /// Modeled size in bits (the counter array).
    fn memory_bits(&self) -> u64 {
        self.table.len() as u64 * 64
    }
}

/// One cached flow: the full header key inline, the epoch it was
/// installed at, and the memoised result (a final-table action row, or
/// `None` for a to-controller miss — misses are results too).
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Full key hash; [`EMPTY`] marks a vacant slot.
    hash: u64,
    /// Owner epoch the result was computed at.
    epoch: u64,
    /// Number of valid `fields` slots.
    len: u8,
    /// The header's `(field, value)` pairs, in header (sorted) order.
    fields: [(MatchFieldKind, u128); MAX_CACHED_FIELDS],
    /// Memoised classification result.
    row: Option<u32>,
}

impl Entry {
    const VACANT: Self = Self {
        hash: EMPTY,
        epoch: 0,
        len: 0,
        fields: [(MatchFieldKind::InPort, 0); MAX_CACHED_FIELDS],
        row: None,
    };
}

/// A fixed-capacity, open-addressed flow/result cache with
/// frequency-aware admission.
///
/// See the [module docs](self) for the design. Create one per worker
/// thread (the runtime's shards each own one); counters accumulate until
/// [`FlowCache::reset_stats`] and are read via [`FlowCache::stats`].
#[derive(Debug, Clone)]
pub struct FlowCache {
    entries: Vec<Entry>,
    mask: usize,
    sketch: Option<FrequencySketch>,
    /// W-TinyLFU recency window: a small fully-associative LRU segment
    /// probed before the main region. Empty for blind caches and for
    /// [`FlowCache::with_window`]`(_, 0)`.
    window: Vec<Entry>,
    /// Last-touch stamp per window slot ([`FlowCache::tick`] time).
    window_stamp: Vec<u64>,
    /// Monotone access clock driving the window's LRU order.
    tick: u64,
    stats: CacheStats,
    bypass: Bypass,
}

/// The bypass policy's state (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
struct Bypass {
    /// The mode the current decision window runs in.
    on: bool,
    /// Whether the last decision window hit below break-even.
    below: bool,
    /// `hits + misses` when the current decision window opened.
    window_lookups: u64,
    /// `hits` when the current decision window opened.
    window_hits: u64,
    /// Packets until the next sampled one, while bypassing.
    countdown: u32,
    /// Xorshift state the sampling gaps are drawn from.
    rng: u64,
}

impl Bypass {
    fn new() -> Self {
        Self {
            on: false,
            below: false,
            window_lookups: 0,
            window_hits: 0,
            countdown: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Draws the next countdown: uniform over `0..2·BYPASS_SAMPLE − 1`,
    /// so the gap to the next sampled packet averages `BYPASS_SAMPLE`.
    fn draw(&mut self) -> u32 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        #[allow(clippy::cast_possible_truncation)]
        let countdown = (self.rng % u64::from(2 * BYPASS_SAMPLE - 1)) as u32;
        countdown
    }
}

impl FlowCache {
    /// Creates a cache with W-TinyLFU admission (the default policy):
    /// TinyLFU frequency admission for the main region, fronted by the
    /// default recency window (~1 % of capacity, minimum 2 slots; see
    /// the [module docs](self)).
    ///
    /// The requested `capacity` is **rounded up to the next power of
    /// two** (minimum 4 — the probe-window width) so the slot index is a
    /// mask instead of a modulo; [`FlowCache::capacity`] returns the
    /// effective main-region slot count actually allocated (the recency
    /// window's slots, [`FlowCache::window_capacity`], come on top).
    ///
    /// # Panics
    /// Panics if `capacity` exceeds 2^28 slots (a unit error, not a
    /// plausible cache size).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_admission(capacity, Admission::TinyLfu)
    }

    /// Creates a cache with blind always-admit replacement (the policy
    /// to beat — kept for A/B measurement; no recency window, blind
    /// caches admit everything anyway). Same capacity rounding as
    /// [`FlowCache::new`].
    ///
    /// # Panics
    /// Panics if `capacity` exceeds 2^28 slots.
    #[must_use]
    pub fn blind(capacity: usize) -> Self {
        Self::with_admission(capacity, Admission::Blind)
    }

    /// Creates a cache with an explicit admission policy
    /// ([`Admission::TinyLfu`] gets the default recency window). Same
    /// capacity rounding as [`FlowCache::new`].
    ///
    /// # Panics
    /// Panics if `capacity` exceeds 2^28 slots.
    #[must_use]
    pub fn with_admission(capacity: usize, admission: Admission) -> Self {
        let window = match admission {
            Admission::Blind => 0,
            // ~1 % of the main region, floor 2: large enough to absorb a
            // short recency burst, small enough that scan garbage churn
            // stays negligible. Ceiling 64: the window is probed by
            // linear scan on every lookup, so its size must stay O(1)
            // however large the main region grows.
            Admission::TinyLfu => (capacity / 100).clamp(2, 64),
        };
        Self::build(capacity, admission, window)
    }

    /// Creates a TinyLFU cache with an **explicit** recency-window size
    /// (`window_slots == 0` restores pure window-less TinyLFU — the A/B
    /// baseline of the `cache` bench experiment). Same capacity rounding
    /// as [`FlowCache::new`]; the window slots are allocated on top.
    /// The window is probed by linear scan on every lookup and insert,
    /// so a large explicit window trades hit latency for burst
    /// absorption (the default policy caps itself at 64 slots).
    ///
    /// # Panics
    /// Panics if `capacity` exceeds 2^28 slots or `window_slots` exceeds
    /// the rounded main capacity.
    #[must_use]
    pub fn with_window(capacity: usize, window_slots: usize) -> Self {
        Self::build(capacity, Admission::TinyLfu, window_slots)
    }

    fn build(capacity: usize, admission: Admission, window: usize) -> Self {
        assert!(
            capacity <= MAX_CAPACITY,
            "cache capacity {capacity} exceeds the 2^28-slot ceiling"
        );
        let cap = capacity.next_power_of_two().max(WAYS);
        assert!(window <= cap, "window of {window} slots exceeds the {cap}-slot main region");
        Self {
            entries: vec![Entry::VACANT; cap],
            mask: cap - 1,
            sketch: match admission {
                Admission::Blind => None,
                Admission::TinyLfu => Some(FrequencySketch::new(cap)),
            },
            window: vec![Entry::VACANT; window],
            window_stamp: vec![0; window],
            tick: 0,
            stats: CacheStats { capacity: cap, window_capacity: window, ..CacheStats::default() },
            bypass: Bypass::new(),
        }
    }

    /// The active admission policy.
    #[must_use]
    pub fn admission(&self) -> Admission {
        if self.sketch.is_some() {
            Admission::TinyLfu
        } else {
            Admission::Blind
        }
    }

    /// Hashes a header's field set; `None` when the header carries too
    /// many fields to cache.
    #[inline]
    fn hash_header(header: &HeaderValues) -> Option<u64> {
        let fields = header.fields();
        if fields.len() > MAX_CACHED_FIELDS {
            return None;
        }
        let mut h = FxHasher::default();
        for &(field, value) in fields {
            h.write_u32(field as u32);
            h.write_u64(value as u64);
            h.write_u64((value >> 64) as u64);
        }
        let v = h.finish();
        Some(if v == EMPTY { 0 } else { v })
    }

    /// Whether `e` memoises exactly this flow key.
    #[inline]
    fn same_key(e: &Entry, hash: u64, fields: &[(MatchFieldKind, u128)]) -> bool {
        e.hash == hash && usize::from(e.len) == fields.len() && &e.fields[..fields.len()] == fields
    }

    /// Looks up a header's memoised result under the given owner epoch.
    /// `Some(row)` is a cache hit (the memoised classification, which may
    /// itself be `None` = to-controller); `None` means the caller must
    /// classify and [`FlowCache::insert`] the result. The recency window
    /// is probed before the main region; a window hit refreshes the
    /// entry's LRU stamp.
    ///
    /// Every cacheable lookup — hit or miss — also feeds the TinyLFU
    /// frequency sketch, so admission decisions reflect true access
    /// frequency, not just miss frequency.
    #[inline]
    pub fn lookup(&mut self, epoch: u64, header: &HeaderValues) -> Option<Option<u32>> {
        let Some(hash) = Self::hash_header(header) else {
            self.stats.misses += 1;
            return None;
        };
        if let Some(sketch) = &mut self.sketch {
            sketch.increment(hash);
        }
        let fields = header.fields();
        for i in 0..self.window.len() {
            let e = &self.window[i];
            if e.epoch == epoch && Self::same_key(e, hash, fields) {
                let row = e.row;
                self.tick += 1;
                self.window_stamp[i] = self.tick;
                self.stats.hits += 1;
                self.stats.window_hits += 1;
                return Some(row);
            }
        }
        let base = (hash as usize) & self.mask;
        for way in 0..WAYS {
            let e = &self.entries[(base + way) & self.mask];
            if e.epoch == epoch && Self::same_key(e, hash, fields) {
                self.stats.hits += 1;
                return Some(e.row);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Installs a classification result under the given epoch.
    ///
    /// With a recency window (the W-TinyLFU default) the candidate lands
    /// in the window first: same-key refreshes update in place (window
    /// or live main slot), vacant/stale window slots are reused, and a
    /// full window evicts its LRU entry — which then competes for
    /// main-region admission carrying its earned sketch frequency.
    /// Window-less caches install straight into the main region: a
    /// vacant or stale (old-epoch) slot in the probe window is always
    /// used, as is the flow's own slot on a re-install; when the whole
    /// probe window is live, the admission policy decides — blind caches
    /// replace the home slot unconditionally, TinyLFU replaces the
    /// window's least-frequent entry only if the candidate's sketched
    /// frequency is strictly higher, and otherwise rejects the candidate
    /// (see [`CacheStats::rejections`]). Headers too wide to cache are
    /// skipped. Allocation-free.
    pub fn insert(&mut self, epoch: u64, header: &HeaderValues, row: Option<u32>) {
        let Some(hash) = Self::hash_header(header) else {
            return;
        };
        let fields = header.fields();
        let mut entry = Entry::VACANT;
        entry.hash = hash;
        entry.epoch = epoch;
        entry.len = fields.len() as u8;
        entry.fields[..fields.len()].copy_from_slice(fields);
        entry.row = row;
        if self.window.is_empty() {
            self.install_main(entry);
        } else {
            self.insert_windowed(entry);
        }
    }

    /// The windowed (W-TinyLFU) insert path; see [`FlowCache::insert`].
    fn insert_windowed(&mut self, entry: Entry) {
        let fields = &entry.fields[..usize::from(entry.len)];
        // Same key already in the window (any epoch): refresh in place.
        if let Some(i) = self.window.iter().position(|e| Self::same_key(e, entry.hash, fields)) {
            self.window[i] = entry;
            self.tick += 1;
            self.window_stamp[i] = self.tick;
            self.stats.insertions += 1;
            return;
        }
        // Same key live in the main region: overwrite in place — the
        // flow is already a resident, routing it through the window
        // would duplicate it.
        let base = (entry.hash as usize) & self.mask;
        for way in 0..WAYS {
            let i = (base + way) & self.mask;
            let e = &self.entries[i];
            if e.epoch == entry.epoch && Self::same_key(e, entry.hash, fields) {
                self.entries[i] = entry;
                self.stats.insertions += 1;
                return;
            }
        }
        // New flow: take a vacant/stale window slot, else displace the
        // LRU window entry and let it compete for the main region.
        let slot = self
            .window
            .iter()
            .position(|e| e.hash == EMPTY || e.epoch != entry.epoch)
            .unwrap_or_else(|| {
                let lru = (0..self.window.len())
                    .min_by_key(|&i| self.window_stamp[i])
                    .expect("window is non-empty");
                let victim = self.window[lru];
                // The victim is live (stale slots were preferred above);
                // promote-or-reject under the TinyLFU rule.
                self.install_main(victim);
                lru
            });
        self.window[slot] = entry;
        self.tick += 1;
        self.window_stamp[slot] = self.tick;
        self.stats.insertions += 1;
    }

    /// Installs `entry` into the main region, applying the admission
    /// policy on a genuine conflict; see [`FlowCache::insert`].
    fn install_main(&mut self, entry: Entry) {
        let fields = &entry.fields[..usize::from(entry.len)];
        let base = (entry.hash as usize) & self.mask;
        let mut victim = None;
        for way in 0..WAYS {
            let i = (base + way) & self.mask;
            let e = &self.entries[i];
            if e.hash == EMPTY || e.epoch != entry.epoch || Self::same_key(e, entry.hash, fields) {
                victim = Some(i);
                break;
            }
        }
        let victim = match victim {
            Some(i) => i,
            // The probe window is full of live current-epoch entries: a
            // genuine conflict, admission decides.
            None => match &self.sketch {
                None => {
                    self.stats.evictions += 1;
                    base
                }
                Some(sketch) => {
                    let candidate = sketch.estimate(entry.hash);
                    let (coldest, coldest_freq) = (0..WAYS)
                        .map(|way| {
                            let i = (base + way) & self.mask;
                            (i, sketch.estimate(self.entries[i].hash))
                        })
                        .min_by_key(|&(_, freq)| freq)
                        .expect("probe window is non-empty");
                    if candidate > coldest_freq {
                        self.stats.evictions += 1;
                        coldest
                    } else {
                        self.stats.rejections += 1;
                        return;
                    }
                }
            },
        };
        self.entries[victim] = entry;
        self.stats.insertions += 1;
    }

    /// Starts a batch: closes the decision window if a full one
    /// ([`FlowCache::capacity`] lookups) has passed since it opened,
    /// setting the mode from its hit rate against
    /// [`BYPASS_BELOW_PERCENT`], and returns whether the batch should
    /// bypass the cache. A bypassing owner classifies each packet itself
    /// and sends only those [`FlowCache::sampled`] picks through
    /// [`FlowCache::lookup`] + [`FlowCache::insert`]. A new cache starts
    /// in cached mode. Going into bypass takes two windows below
    /// break-even in a row, because a cold (new or just invalidated)
    /// cache misses every flow of its first window, whatever the
    /// traffic; coming out takes one window at or above it.
    pub fn begin_batch(&mut self) -> bool {
        let b = &mut self.bypass;
        let lookups = self.stats.hits + self.stats.misses - b.window_lookups;
        if lookups >= self.entries.len() as u64 {
            let hits = self.stats.hits - b.window_hits;
            let below = hits * 100 < lookups * BYPASS_BELOW_PERCENT;
            let on = below && (b.on || b.below);
            b.below = below;
            if on != b.on {
                b.on = on;
                b.countdown = 0;
                self.stats.mode_switches += 1;
            }
            b.window_lookups = self.stats.hits + self.stats.misses;
            b.window_hits = self.stats.hits;
        }
        b.on
    }

    /// While bypassing: whether this packet is a sampled one (about one
    /// in [`BYPASS_SAMPLE`], at random gaps) that still goes through the
    /// cache. Every other packet is counted in [`CacheStats::bypassed`].
    #[inline]
    pub fn sampled(&mut self) -> bool {
        if self.bypass.countdown == 0 {
            self.bypass.countdown = self.bypass.draw();
            true
        } else {
            self.bypass.countdown -= 1;
            self.stats.bypassed += 1;
            false
        }
    }

    /// Allocated main-region slots — the *effective* capacity after the
    /// constructor's power-of-two rounding (the recency window's slots,
    /// [`FlowCache::window_capacity`], come on top).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Slots of the LRU recency window fronting the main region (0 for
    /// blind caches and pure window-less TinyLFU).
    #[must_use]
    pub fn window_capacity(&self) -> usize {
        self.window.len()
    }

    /// Lookups served from the cache since the last
    /// [`FlowCache::reset_stats`].
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.stats.hits
    }

    /// Lookups that fell through (including uncacheable headers).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Hit fraction over all lookups since the last stats reset (0 when
    /// nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Vacates every entry installed under `epoch` that `stale` flags,
    /// given the entry's header fields (in header order) and memoised
    /// result; returns how many went. This is targeted invalidation for
    /// an owner that knows *what* changed in its rule set and keeps its
    /// epoch: entries the change cannot affect stay warm, where an epoch
    /// bump would drop them all. One pass over every slot.
    pub fn evict_where(
        &mut self,
        epoch: u64,
        mut stale: impl FnMut(&[(MatchFieldKind, u128)], Option<u32>) -> bool,
    ) -> usize {
        let mut evicted = 0;
        for e in self.window.iter_mut().chain(&mut self.entries) {
            let live = e.hash != EMPTY && e.epoch == epoch;
            if live && stale(&e.fields[..usize::from(e.len)], e.row) {
                *e = Entry::VACANT;
                evicted += 1;
            }
        }
        evicted
    }

    /// All counters since the last [`FlowCache::reset_stats`], as one
    /// copyable block.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes every counter (entries, window order, frequency history
    /// and the bypass mode are kept; the decision window restarts).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats {
            capacity: self.entries.len(),
            window_capacity: self.window.len(),
            ..CacheStats::default()
        };
        self.bypass.window_lookups = 0;
        self.bypass.window_hits = 0;
    }

    /// Modeled memory footprint in bits: the main entry array, the
    /// recency window (entries plus a 64-bit LRU stamp each) and the
    /// admission sketch. An entry holds the key hash (64), epoch stamp
    /// (64), field count (8), the inline field array and the memoised
    /// row (1 + 32).
    #[must_use]
    pub fn memory_bits(&self) -> u64 {
        let entry_bits = 64 + 64 + 8 + (MAX_CACHED_FIELDS as u64) * (8 + 128) + 33;
        (self.entries.len() as u64 + self.window.len() as u64) * entry_bits
            + self.window.len() as u64 * 64
            + self.sketch.as_ref().map_or(0, FrequencySketch::memory_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(port: u128, dst: u128) -> HeaderValues {
        HeaderValues::new().with(MatchFieldKind::InPort, port).with(MatchFieldKind::Ipv4Dst, dst)
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let mut c = FlowCache::new(64);
        let h = header(1, 0x0A01_0203);
        assert_eq!(c.lookup(0, &h), None);
        c.insert(0, &h, Some(7));
        assert_eq!(c.lookup(0, &h), Some(Some(7)));
        // A memoised "no match" is a hit too.
        let miss = header(2, 0xDEAD_BEEF);
        assert_eq!(c.lookup(0, &miss), None);
        c.insert(0, &miss, None);
        assert_eq!(c.lookup(0, &miss), Some(None));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
        let stats = c.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.capacity, 64);
    }

    #[test]
    fn epoch_bump_invalidates_in_o1() {
        let mut c = FlowCache::new(64);
        let h = header(1, 0x0A01_0203);
        c.insert(0, &h, Some(7));
        assert_eq!(c.lookup(0, &h), Some(Some(7)));
        // New epoch: the entry is stale without any cache walk.
        assert_eq!(c.lookup(1, &h), None);
        c.insert(1, &h, Some(9));
        assert_eq!(c.lookup(1, &h), Some(Some(9)));
    }

    #[test]
    fn evict_where_drops_only_what_it_is_told_to() {
        // Enough flows to spill from the recency window into the main
        // region, half of them on port 2.
        let mut c = FlowCache::new(64);
        let flows: Vec<HeaderValues> =
            (0..24).map(|i| header(1 + i % 2, 0x0A00_0000 + i)).collect();
        for _ in 0..4 {
            for (i, h) in flows.iter().enumerate() {
                if c.lookup(5, h).is_none() {
                    c.insert(5, h, Some(i as u32));
                }
            }
        }
        let resident: Vec<bool> = flows.iter().map(|h| c.lookup(5, h).is_some()).collect();
        assert!(resident.iter().filter(|&&r| r).count() >= 16, "{resident:?}");
        // Another epoch's walk touches nothing.
        assert_eq!(c.evict_where(4, |_, _| true), 0);
        // Port 2's flows go (by key), and flow 0 (by result); the rest stay.
        let port2 = |fields: &[(MatchFieldKind, u128)]| fields[0] == (MatchFieldKind::InPort, 2);
        let gone = c.evict_where(5, |fields, row| port2(fields) || row == Some(0));
        assert!(gone >= 8, "{gone}");
        for (i, h) in flows.iter().enumerate() {
            let want = resident[i] && i % 2 == 0 && i != 0;
            assert_eq!(c.lookup(5, h).is_some(), want, "flow {i}");
        }
        // A vacated slot takes a new entry like any other.
        c.insert(5, &flows[1], Some(99));
        assert_eq!(c.lookup(5, &flows[1]), Some(Some(99)));
    }

    #[test]
    fn distinct_headers_do_not_alias() {
        for mut c in [FlowCache::blind(16), FlowCache::new(16)] {
            for i in 0..200u128 {
                c.insert(0, &header(i, i * 3), Some(i as u32));
            }
            // Whatever survived the capacity pressure must be correct.
            for i in 0..200u128 {
                if let Some(row) = c.lookup(0, &header(i, i * 3)) {
                    assert_eq!(row, Some(i as u32), "flow {i}");
                }
            }
        }
    }

    #[test]
    fn too_wide_headers_bypass() {
        let mut c = FlowCache::new(16);
        let mut h = HeaderValues::new();
        for (i, &f) in MatchFieldKind::ALL.iter().take(MAX_CACHED_FIELDS + 1).enumerate() {
            h.set(f, i as u128);
        }
        assert!(h.len() > MAX_CACHED_FIELDS);
        c.insert(0, &h, Some(1));
        assert_eq!(c.lookup(0, &h), None, "uncacheable header must not be served");
    }

    #[test]
    fn stats_reset() {
        let mut c = FlowCache::new(16);
        let h = header(1, 2);
        let _ = c.lookup(0, &h);
        c.insert(0, &h, None);
        let _ = c.lookup(0, &h);
        assert!(c.hits() + c.misses() > 0);
        c.reset_stats();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.hit_rate(), 0.0);
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().capacity, 16, "capacity survives a reset");
        // Entries survive a stats reset.
        assert_eq!(c.lookup(0, &h), Some(None));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        // The effective capacity is the rounded size, observable both
        // through capacity() and stats().
        for (requested, effective) in [(0, 4), (3, 4), (100, 128), (128, 128), (129, 256)] {
            let c = FlowCache::new(requested);
            assert_eq!(c.capacity(), effective, "requested {requested}");
            assert_eq!(c.stats().capacity, effective, "requested {requested}");
        }
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn absurd_capacity_panics() {
        let _ = FlowCache::new(MAX_CAPACITY + 1);
    }

    /// The TinyLFU property this PR exists for: a hot working set is not
    /// evicted by a stream of one-hit wonders, while blind admission
    /// flushes it.
    #[test]
    fn tinylfu_protects_hot_flows_from_scan_garbage() {
        let run = |mut c: FlowCache| -> f64 {
            let hot: Vec<HeaderValues> = (0..24u128).map(|i| header(i, 0xAA00 + i)).collect();
            // Warm the hot set with several rounds so its frequency
            // dominates.
            for _ in 0..8 {
                for h in &hot {
                    if c.lookup(0, h).is_none() {
                        c.insert(0, h, Some(1));
                    }
                }
            }
            c.reset_stats();
            // Interleave hot traffic with a one-shot scan.
            let mut scan = 10_000u128;
            for _ in 0..64 {
                for h in &hot {
                    if c.lookup(0, h).is_none() {
                        c.insert(0, h, Some(1));
                    }
                    scan += 1;
                    let s = header(7, scan);
                    if c.lookup(0, &s).is_none() {
                        c.insert(0, &s, None);
                    }
                }
            }
            // Hit rate over the mixed stream (hot flows are half of it).
            c.hit_rate()
        };
        let blind = run(FlowCache::blind(32));
        let tiny = run(FlowCache::new(32));
        assert!(tiny > blind + 0.1, "TinyLFU ({tiny:.2}) must beat blind admission ({blind:.2})");
        assert!(tiny > 0.45, "hot flows must stay resident under TinyLFU ({tiny:.2})");
    }

    /// The W-TinyLFU property the window exists for: a brand-new flow
    /// bursting right after the cache filled with frequent residents is
    /// served from the window immediately, while pure TinyLFU rejects it
    /// until the sketch warms to it.
    #[test]
    fn window_admits_recency_bursts() {
        let run = |mut c: FlowCache| -> (u64, u64) {
            // Saturate the main region with residents carrying sketch
            // history (3x capacity, so every probe window is full of
            // live, frequent entries) — sized to stay under the sketch's
            // halving period so the history is not aged away mid-test.
            let hot: Vec<HeaderValues> = (0..48u128).map(|i| header(i, 0xBB00 + i)).collect();
            for _ in 0..3 {
                for h in &hot {
                    if c.lookup(0, h).is_none() {
                        c.insert(0, h, Some(1));
                    }
                }
            }
            // A brand-new flow bursts: insert once, then re-access.
            c.reset_stats();
            let fresh = header(99, 0xF00D);
            for _ in 0..5 {
                if c.lookup(0, &fresh).is_none() {
                    c.insert(0, &fresh, Some(7));
                }
            }
            (c.stats().hits, c.stats().window_hits)
        };
        let (windowed_hits, from_window) = run(FlowCache::new(16));
        let (pure_hits, _) = run(FlowCache::with_window(16, 0));
        assert_eq!(windowed_hits, 4, "burst served from the window after the first miss");
        assert_eq!(from_window, 4, "every burst hit comes from the window segment");
        assert!(
            pure_hits <= 1,
            "pure TinyLFU must reject the historyless flow until the sketch warms \
             ({pure_hits} hits)"
        );
        assert!(windowed_hits > pure_hits, "the window must beat pure TinyLFU on the burst");
    }

    #[test]
    fn window_capacity_is_reported_and_bounded() {
        let c = FlowCache::new(512);
        assert_eq!(c.window_capacity(), 5, "~1% of 512");
        assert_eq!(c.stats().window_capacity, 5);
        let c = FlowCache::new(16);
        assert_eq!(c.window_capacity(), 2, "floor of 2 slots");
        // The default window is a linear scan, so it is capped however
        // large the main region grows.
        assert_eq!(FlowCache::new(1 << 20).window_capacity(), 64, "ceiling of 64 slots");
        assert_eq!(FlowCache::blind(512).window_capacity(), 0);
        assert_eq!(FlowCache::with_window(64, 0).window_capacity(), 0);
        assert_eq!(FlowCache::with_window(64, 8).window_capacity(), 8);
        // Stats survive a reset; memory accounting includes the window.
        let mut c = FlowCache::with_window(64, 8);
        c.reset_stats();
        assert_eq!(c.stats().window_capacity, 8);
        assert!(c.memory_bits() > FlowCache::with_window(64, 0).memory_bits());
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversized_window_panics() {
        let _ = FlowCache::with_window(16, 17);
    }

    #[test]
    fn window_respects_epochs_and_updates_in_place() {
        let mut c = FlowCache::new(16);
        let h = header(1, 2);
        c.insert(0, &h, Some(3));
        assert_eq!(c.lookup(0, &h), Some(Some(3)), "window serves the fresh flow");
        // Epoch bump: the window entry is stale too.
        assert_eq!(c.lookup(1, &h), None);
        c.insert(1, &h, Some(9));
        assert_eq!(c.lookup(1, &h), Some(Some(9)));
        // Same-key re-insert refreshes in place: no duplicate copies, so
        // a subsequent lookup sees the newest row.
        c.insert(1, &h, Some(11));
        assert_eq!(c.lookup(1, &h), Some(Some(11)));
    }

    #[test]
    fn sketch_estimates_and_ages() {
        let mut s = FrequencySketch::new(64);
        assert_eq!(s.estimate(42), 0);
        for _ in 0..5 {
            s.increment(42);
        }
        assert_eq!(s.estimate(42), 5);
        // Saturates at 15.
        for _ in 0..40 {
            s.increment(42);
        }
        assert_eq!(s.estimate(42), 15);
        // Halving ages every counter.
        s.halve();
        assert_eq!(s.estimate(42), 7);
        // Unrelated keys are (almost surely) unaffected by one hot key.
        assert!(s.estimate(43) <= 7);
    }

    /// Serves one batch the way a runtime shard does: one mode decision,
    /// then every packet (cached mode) or the sampled ones (bypass)
    /// through lookup + insert. Returns whether the batch bypassed.
    fn serve(c: &mut FlowCache, batch: &[HeaderValues]) -> bool {
        let bypass = c.begin_batch();
        for h in batch {
            if (!bypass || c.sampled()) && c.lookup(0, h).is_none() {
                c.insert(0, h, Some(1));
            }
        }
        bypass
    }

    /// `n` never-repeating flows, numbered from `first`.
    fn scan(first: u128, n: usize) -> Vec<HeaderValues> {
        (first..first + n as u128).map(|i| header(9, i)).collect()
    }

    /// `n` packets over `flows` flows, Zipf(1.0)-ranked: the benchmark's
    /// `zipf_hot` shape. A fixed xorshift stream keeps it reproducible.
    fn zipf(flows: u128, n: usize, seed: u64) -> Vec<HeaderValues> {
        let cdf: Vec<f64> = (1..=flows)
            .scan(0.0, |sum, k| {
                *sum += 1.0 / k as f64;
                Some(*sum)
            })
            .collect();
        let total = cdf[cdf.len() - 1];
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
                header(1, cdf.partition_point(|&c| c < u) as u128)
            })
            .collect()
    }

    #[test]
    fn a_scan_enters_bypass_and_stays_there() {
        let mut c = FlowCache::new(1024);
        let mut next = 0;
        let mut modes = Vec::new();
        for _ in 0..32 {
            modes.push(serve(&mut c, &scan(next, 4096)));
            next += 4096;
        }
        // The first two batches fill two windows with misses; every
        // later one bypasses.
        assert!(!modes[0] && !modes[1], "a new cache starts cached: {modes:?}");
        assert!(modes[2..].iter().all(|&b| b), "{modes:?}");
        let s = c.stats();
        assert_eq!(s.mode_switches, 1, "{s:?}");
        // 30 bypassed batches, about one packet in 64 sampled: only
        // those look up.
        let sampled = s.hits + s.misses - 2 * 4096;
        assert_eq!(s.bypassed + sampled, 30 * 4096, "{s:?}");
        assert!(sampled.abs_diff(30 * 4096 / 64) < 30 * 4096 / 640, "{s:?}");
        assert_eq!(s.hits, 0, "a scan never hits");
    }

    #[test]
    fn sampling_does_not_alias_with_a_periodic_scan() {
        // The benchmark's `scan_miss` shape, scaled down: 256x the cache's
        // flows, replayed. The period is a multiple of 64, so a fixed
        // one-in-64 sample would pick the same 256 flows every cycle and
        // hit the ones admission keeps; at random gaps a flow comes back
        // into the sample ~256 sampled lookups later, past the cache.
        let cycle = scan(0, 256 * 64);
        let mut full = FlowCache::new(64);
        let mut c = FlowCache::new(64);
        for _ in 0..32 {
            for h in &cycle {
                if full.lookup(0, h).is_none() {
                    full.insert(0, h, Some(1));
                }
            }
            for chunk in cycle.chunks(1024) {
                serve(&mut c, chunk);
            }
        }
        let s = c.stats();
        assert_eq!(s.mode_switches, 1, "the scan stays bypassed: {s:?}");
        let stream = full.stats().hit_rate();
        assert!(stream < 0.01 && s.hit_rate() < 0.01, "sample {s:?}, stream {stream}");
    }

    #[test]
    fn zipf_traffic_from_a_cold_cache_never_bypasses() {
        // The benchmark's hot shape at both of its batch sizes: 4 096
        // (one decision per batch) and 64 (a window spans 16 batches, so
        // the first decision reads the coldest 1 024 lookups alone).
        for batch in [4096, 64] {
            for seed in [1, 7, 2015] {
                let mut c = FlowCache::new(1024);
                let trace = zipf(512, 64 * 4096, seed);
                for chunk in trace.chunks(batch) {
                    assert!(!serve(&mut c, chunk), "batch {batch}, seed {seed}");
                }
                let s = c.stats();
                assert_eq!((s.bypassed, s.mode_switches), (0, 0), "batch {batch}, seed {seed}");
                assert!(s.hit_rate() > 0.99, "batch {batch}, seed {seed}: {s:?}");
            }
        }
    }

    #[test]
    fn a_cold_start_is_not_a_scan() {
        // Traffic that fits the cache exactly, every flow once a window:
        // the first window of each cold start misses everything, the
        // next hits, so the cache never bypasses. The same after the
        // owner drops every entry (a new epoch).
        let mut c = FlowCache::new(64);
        let flows = scan(0, 64);
        for epoch in 0..4 {
            for _ in 0..16 {
                assert!(!c.begin_batch(), "epoch {epoch}: {:?}", c.stats());
                for h in &flows {
                    if c.lookup(epoch, h).is_none() {
                        c.insert(epoch, h, Some(1));
                    }
                }
            }
        }
        let s = c.stats();
        assert_eq!((s.bypassed, s.mode_switches), (0, 0), "{s:?}");
    }

    #[test]
    fn hot_traffic_after_a_scan_gets_the_cache_back() {
        let mut c = FlowCache::new(1024);
        for i in 0..8 {
            serve(&mut c, &scan(i * 4096, 4096));
        }
        assert!(c.begin_batch(), "the scan put the cache in bypass");
        // A decision window of sampled lookups is 64 x 1 024 packets, 16
        // batches of 4 096. The first window the hot traffic fills
        // samples a cold cache; the next one hits.
        let hot = zipf(512, 48 * 4096, 3);
        let back = hot.chunks(4096).position(|chunk| !serve(&mut c, chunk));
        let back = back.expect("the cache came back");
        assert!(back <= 32, "hot traffic waited {back} batches for its cache");
        let switches = c.stats().mode_switches;
        assert_eq!(switches, 2, "into bypass and out again");
        // Back in cached mode it stays there.
        for chunk in zipf(512, 16 * 4096, 4).chunks(4096) {
            assert!(!serve(&mut c, chunk));
        }
        assert_eq!(c.stats().mode_switches, switches);
    }

    #[test]
    fn a_mode_switch_needs_a_full_window() {
        let mut c = FlowCache::new(1024);
        // 1 023 misses: the window is one lookup short, no decision yet.
        assert!(!serve(&mut c, &scan(0, 1023)));
        assert!(!serve(&mut c, &scan(1023, 1)));
        // The first window (1 024 lookups, no hits) closes at this
        // batch's start; one window below break-even is not enough.
        assert!(!serve(&mut c, &scan(1024, 1024)));
        // The second closes here: this batch bypasses, and a new window
        // opens at 2 048 lookups.
        assert!(serve(&mut c, &scan(2048, 64)));
        // Hot traffic (16 flows the first batch cached) that hits nearly
        // always: the cache stays bypassed until the sampled lookups
        // fill a window, about 64 batches of 1 024 packets, and comes
        // back at the first batch after that.
        let hot: Vec<HeaderValues> = (0..64).flat_map(|_| scan(0, 16)).collect();
        let mut bypassed_batches = 0;
        loop {
            let s = c.stats();
            let window = s.hits + s.misses - 2048;
            let bypass = serve(&mut c, &hot);
            assert_eq!(bypass, window < 1024, "{window} sampled lookups: {s:?}");
            if !bypass {
                break;
            }
            bypassed_batches += 1;
        }
        assert!((48..=80).contains(&bypassed_batches), "{bypassed_batches}");
        assert_eq!(c.stats().mode_switches, 2);
        // A stats reset restarts the window but keeps the mode.
        c.reset_stats();
        assert!(!c.begin_batch());
    }

    #[test]
    fn rejections_are_counted() {
        let mut c = FlowCache::new(4); // one window
                                       // Fill the window with flows that have history.
        for i in 0..16u128 {
            for _ in 0..4 {
                let h = header(i, i);
                if c.lookup(0, &h).is_none() {
                    c.insert(0, &h, Some(i as u32));
                }
            }
        }
        // A cold one-shot candidate must be rejected somewhere along the
        // way once the window filled with higher-frequency residents.
        assert!(c.stats().rejections > 0, "stats: {:?}", c.stats());
    }
}
