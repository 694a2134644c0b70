//! Cache-compact, memory-bounded bin stores: packed few-bit load
//! counters behind the [`BinStore`] seam.
//!
//! The exact [`LoadVector`] spends 4 bytes per bin on loads alone; at
//! n = 2^20 the decision path already spills to DRAM, and n = 10^8 is
//! out of reach for a cache-resident front-end. Two papers justify
//! spending *less* than exact state on the placement decision:
//!
//! * the choice-memory tradeoff (Alon, Gurel-Gurevich, Lubetzky) shows
//!   which gap is achievable when the placer keeps only o(n) memory;
//! * the 1-2-3-Toolkit line shows that coarse, quantized load
//!   information is enough for near-optimal multiple-choice decisions.
//!
//! This module provides the packed store and the [`StoreKind`] axis
//! that selects it everywhere a [`LoadVector`] used to be hard-wired:
//!
//! * [`PackedStore`] — b-bit (b ∈ {4, 8}) saturating per-bin load
//!   *offsets* packed 64/b to a `u64` word against a shared base level.
//!   Quantized loads track true loads **exactly** until a bin climbs
//!   more than `2^b − 1` above the base (the lossless window); the
//!   paper's O(log log n) gap is what makes a 4-bit window realistic.
//! * [`BinSlab`] — the enum the service layer's shards hold, dispatching
//!   to exact / packed state with zero overhead for the exact variant
//!   (all existing bit-identity contracts survive).
//!
//! Static fills over a slab (`run_once_compact`) run [`KdChoice`]'s
//! round engine on the exact or packed store itself, so a lossless
//! packed fill is the exact engine fill, result for result.
//!
//! [`KdChoice`]: crate::KdChoice
//!
//! ## Quantization contract
//!
//! A [`PackedStore`] bin's quantized load lives in `[base, base + 2^b −
//! 1]`. `add_ball` on a counter already pinned at the top first
//! **renormalizes** (subtracts the minimum offset over all bins from
//! every lane and adds it to the base — a pure re-encoding that changes
//! no quantized load); if the minimum offset was 0 the increment is
//! absorbed by the pin and the quantized load under-reports the true
//! load from then on. `remove_ball` at offset 0 similarly clamps.
//! While no clamp has ever fired ([`PackedStore::is_lossless`]), every
//! observable — loads, `count_by_load`, `max_load`, `ν_y`, gap — is
//! **bit-identical** to [`LoadVector`], which the equivalence proptests
//! lock.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::driver::FillTable;
use crate::snapshot::{LoadView, SharedLoadSnapshot};
use crate::state::LoadVector;
use crate::store::BinStore;

/// Which bin-store representation backs a run: the exact
/// [`LoadVector`] or a [`PackedStore`] at 4 or 8 bits per bin. The axis
/// value every scenario grid and service config carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Exact 32-bit loads ([`LoadVector`]) — the pre-compact default;
    /// every existing seeded golden and bit-identity test runs here.
    #[default]
    Exact,
    /// Packed 4-bit saturating offsets: 16 bins per `u64` word,
    /// 0.5 bytes/bin on the decision path.
    Packed4,
    /// Packed 8-bit saturating offsets: 8 bins per word, 1 byte/bin.
    Packed8,
}

impl StoreKind {
    /// The report/axis label (`exact | packed4 | packed8`).
    pub fn name(&self) -> &'static str {
        match self {
            StoreKind::Exact => "exact",
            StoreKind::Packed4 => "packed4",
            StoreKind::Packed8 => "packed8",
        }
    }

    /// Parses an axis value; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(StoreKind::Exact),
            "packed4" => Some(StoreKind::Packed4),
            "packed8" => Some(StoreKind::Packed8),
            _ => None,
        }
    }

    /// Counter width in bits for the packed kinds, `None` otherwise.
    pub fn bits(&self) -> Option<u32> {
        match self {
            StoreKind::Packed4 => Some(4),
            StoreKind::Packed8 => Some(8),
            _ => None,
        }
    }

    /// Whether this is the exact (pre-compact) representation.
    pub fn is_exact(&self) -> bool {
        *self == StoreKind::Exact
    }

    /// Builds an empty homogeneous slab of this kind over `n` bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new_slab(&self, n: usize) -> BinSlab {
        match self {
            StoreKind::Exact => BinSlab::Exact(LoadVector::new(n)),
            StoreKind::Packed4 => BinSlab::Packed(PackedStore::new(n, 4)),
            StoreKind::Packed8 => BinSlab::Packed(PackedStore::new(n, 8)),
        }
    }

    /// Builds an empty slab with per-bin capacities. The packed kinds
    /// attach an exact side-table (capacity observables need true
    /// loads).
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or any capacity is 0.
    pub fn slab_with_capacities(&self, capacities: &[u32]) -> BinSlab {
        match self {
            StoreKind::Exact => BinSlab::Exact(LoadVector::with_capacities(capacities)),
            StoreKind::Packed4 => BinSlab::Packed(PackedStore::with_capacities(capacities, 4)),
            StoreKind::Packed8 => BinSlab::Packed(PackedStore::with_capacities(capacities, 8)),
        }
    }

    /// Non-panicking [`StoreKind::slab_with_capacities`]: validates the
    /// capacity map (non-empty, every capacity ≥ 1) up front,
    /// returning a diagnostic instead of panicking — the construction
    /// entry point for user-facing config paths (grid parsing, CLI
    /// flags).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on any invalid combination.
    pub fn try_slab_with_capacities(&self, capacities: &[u32]) -> Result<BinSlab, String> {
        if capacities.is_empty() {
            return Err("capacity map must not be empty".to_string());
        }
        if capacities.contains(&0) {
            return Err("every bin needs capacity >= 1".to_string());
        }
        Ok(self.slab_with_capacities(capacities))
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// b-bit packed saturating load offsets against a shared base level.
///
/// Each bin's *offset* (`load − base`, clamped to `[0, 2^b − 1]`) lives
/// in a b-bit lane of a `u64` word — 16 bins per word at b = 4 versus 2
/// bins per cache line of exact `u32` loads. The count-by-load
/// histogram, `max_load`, `ν_1`/`ν_2`, and `total_balls` are maintained
/// incrementally **on the quantized values** with exactly
/// [`LoadVector`]'s update discipline (including top-level truncation
/// on remove), so below saturation the two stores are bit-identical.
///
/// See the module docs for the full quantization contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStore {
    n: usize,
    /// Lane width in bits (4 or 8).
    bits: u32,
    /// `2^bits − 1`: the saturation value and lane mask.
    mask: u32,
    /// log2(lanes per word): 4 at b=4, 3 at b=8.
    lane_shift: u32,
    /// `u64` with a 1 in the lowest bit of every lane (renormalization
    /// subtracts `min_offset * lane_ones` word-parallel).
    lane_ones: u64,
    /// The packed offset lanes; unused padding lanes in the last word
    /// are pinned at `mask` so word-parallel subtraction never borrows.
    words: Vec<u64>,
    /// The shared base level: quantized load = base + offset.
    base: u32,
    /// `count_by_load[l]` = bins at quantized load exactly `l`
    /// (absolute, not base-relative — renormalization is invisible).
    count_by_load: Vec<u64>,
    max_load: u32,
    total_balls: u64,
    nu1: u64,
    nu2: u64,
    /// Adds absorbed by a pinned counter (quantized < true from there).
    clamped_adds: u64,
    /// Removes absorbed at offset 0 (quantized > true from there).
    clamped_removes: u64,
    /// Renormalizations performed (base-level bumps).
    renormalizations: u64,
    /// Exact side-table, present **only** when capacities demand it:
    /// heterogeneous utilization observables need true per-class loads.
    exact: Option<Box<LoadVector>>,
}

impl PackedStore {
    /// Creates `n` empty bins with `bits`-wide lanes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `bits` is not 4 or 8.
    pub fn new(n: usize, bits: u32) -> Self {
        assert!(n > 0, "need at least one bin");
        assert!(
            bits == 4 || bits == 8,
            "packed store supports 4 or 8 bit lanes"
        );
        let mask = (1u32 << bits) - 1;
        let lane_shift = if bits == 4 { 4 } else { 3 };
        let per_word = 64 / bits as usize;
        // MAX / mask = 0x1111… at b=4 and 0x0101… at b=8: one 1 in the
        // lowest bit of every lane.
        let lane_ones = u64::MAX / u64::from(mask);
        let n_words = n.div_ceil(per_word);
        let mut words = vec![0u64; n_words];
        // Pin padding lanes at `mask` (see `words` field docs).
        for lane in n..n_words * per_word {
            let w = lane >> lane_shift;
            let shift = ((lane & (per_word - 1)) as u32) * bits;
            words[w] |= u64::from(mask) << shift;
        }
        Self {
            n,
            bits,
            mask,
            lane_shift,
            lane_ones,
            words,
            base: 0,
            count_by_load: vec![n as u64],
            max_load: 0,
            total_balls: 0,
            nu1: 0,
            nu2: 0,
            clamped_adds: 0,
            clamped_removes: 0,
            renormalizations: 0,
            exact: None,
        }
    }

    /// Creates empty bins with per-bin capacities. A non-uniform vector
    /// attaches an exact [`LoadVector`] side-table for the utilization
    /// observables (the quantized lanes still drive placement); all-1
    /// capacities construct the plain homogeneous store.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty, any capacity is 0, or `bits` is
    /// not 4 or 8.
    pub fn with_capacities(capacities: &[u32], bits: u32) -> Self {
        let mut store = Self::new(capacities.len(), bits);
        if capacities.iter().any(|&c| c != 1) {
            store.exact = Some(Box::new(LoadVector::with_capacities(capacities)));
        }
        store
    }

    /// The number of bins.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Lane width in bits (4 or 8).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The shared base level quantized offsets are measured against.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// How many renormalizations (base-level bumps) have run.
    #[inline]
    pub fn renormalizations(&self) -> u64 {
        self.renormalizations
    }

    /// Whether no counter has ever clamped: while true, every
    /// observable is bit-identical to an exact [`LoadVector`] fed the
    /// same operations.
    #[inline]
    pub fn is_lossless(&self) -> bool {
        self.clamped_adds == 0 && self.clamped_removes == 0
    }

    /// Adds absorbed by a saturated counter so far.
    #[inline]
    pub fn clamped_adds(&self) -> u64 {
        self.clamped_adds
    }

    /// Removes absorbed at offset 0 so far.
    #[inline]
    pub fn clamped_removes(&self) -> u64 {
        self.clamped_removes
    }

    /// Resident bytes per bin: the packed words **plus** the exact
    /// side-table when capacities force one ([`LoadVector::store_bytes`]
    /// — loads, capacities, and class indices). The histogram is
    /// O(max load), not O(n), and excluded. A capacity-free store pays
    /// for its words alone; a store with capacities honestly reports
    /// that the side-table dominates its footprint.
    pub fn bytes_per_bin(&self) -> f64 {
        self.resident_bytes() as f64 / self.n as f64
    }

    /// Resident bytes in all: the words plus any exact side-table.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let words = (self.words.len() * 8) as u64;
        words + self.exact.as_ref().map_or(0, |e| e.store_bytes())
    }

    /// Whether a heterogeneous side-table is attached.
    #[inline]
    pub fn has_exact_side(&self) -> bool {
        self.exact.is_some()
    }

    #[inline]
    fn lane_pos(&self, bin: usize) -> (usize, u32) {
        let per_word_mask = (1usize << self.lane_shift) - 1;
        (
            bin >> self.lane_shift,
            ((bin & per_word_mask) as u32) * self.bits,
        )
    }

    /// The raw offset lane of `bin`.
    #[inline]
    fn offset(&self, bin: usize) -> u32 {
        let (w, shift) = self.lane_pos(bin);
        ((self.words[w] >> shift) as u32) & self.mask
    }

    #[inline]
    fn set_offset(&mut self, bin: usize, value: u32) {
        let (w, shift) = self.lane_pos(bin);
        let cleared = self.words[w] & !(u64::from(self.mask) << shift);
        self.words[w] = cleared | (u64::from(value) << shift);
    }

    /// The quantized load of `bin` (`base + offset`).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn load(&self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range");
        self.base + self.offset(bin)
    }

    /// Subtracts the minimum offset from every lane and adds it to the
    /// base — a pure re-encoding (no quantized load changes) that opens
    /// headroom above saturated counters. Returns the amount gained.
    fn renormalize(&mut self) -> u32 {
        // The minimum offset is read off the histogram in O(2^b): the
        // first occupied quantized level at or above the base.
        let mut level = self.base as usize;
        while self.count_by_load.get(level) == Some(&0) {
            level += 1;
        }
        let min_off = (level as u32).saturating_sub(self.base).min(self.mask);
        if min_off == 0 {
            return 0;
        }
        // Every real lane is >= min_off and padding lanes are >= the
        // real minimum too (they sit at mask), so the word-parallel
        // subtraction never borrows across lanes.
        let sub = self.lane_ones * u64::from(min_off);
        for w in &mut self.words {
            *w -= sub;
        }
        self.base += min_off;
        self.renormalizations += 1;
        // Re-pin the padding lanes at mask.
        let per_word = 1usize << self.lane_shift;
        for lane in self.n..self.words.len() * per_word {
            let w = lane >> self.lane_shift;
            let shift = ((lane & (per_word - 1)) as u32) * self.bits;
            self.words[w] |= u64::from(self.mask) << shift;
        }
        min_off
    }

    /// Places one ball into `bin`; returns the ball's quantized height.
    /// On a counter pinned at `2^b − 1` this first renormalizes; if the
    /// window is genuinely exhausted the increment is absorbed
    /// (`clamped_adds`) and the quantized load stays pinned.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`.
    #[inline]
    pub fn add_ball(&mut self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range");
        if let Some(exact) = &mut self.exact {
            exact.add_ball(bin);
        }
        let mut off = self.offset(bin);
        if off == self.mask {
            self.renormalize();
            off = self.offset(bin);
        }
        self.total_balls += 1;
        if off == self.mask {
            self.clamped_adds += 1;
            return self.base + self.mask;
        }
        let old = self.base + off;
        let new = old + 1;
        self.set_offset(bin, off + 1);
        self.count_by_load[old as usize] -= 1;
        if new as usize >= self.count_by_load.len() {
            self.count_by_load.push(0);
        }
        self.count_by_load[new as usize] += 1;
        if new > self.max_load {
            self.max_load = new;
        }
        self.nu1 += u64::from(new == 1);
        self.nu2 += u64::from(new == 2);
        new
    }

    /// Removes one ball from `bin`; returns the removed ball's
    /// quantized height. At offset 0 the decrement is absorbed
    /// (`clamped_removes`) — the quantized load cannot drop below the
    /// base.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= n`, the store holds no balls, or — in the
    /// lossless regime — the bin is quantized-empty (mirroring
    /// [`LoadVector::remove_ball`]).
    #[inline]
    pub fn remove_ball(&mut self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range");
        assert!(self.total_balls > 0, "cannot remove from an empty store");
        if let Some(exact) = &mut self.exact {
            exact.remove_ball(bin);
        }
        let off = self.offset(bin);
        if off == 0 {
            assert!(
                self.base > 0 || self.clamped_adds > 0,
                "cannot remove a ball from empty bin {bin}"
            );
            self.total_balls -= 1;
            self.clamped_removes += 1;
            return self.base;
        }
        self.total_balls -= 1;
        let old = self.base + off;
        let new = old - 1;
        self.set_offset(bin, off - 1);
        self.count_by_load[old as usize] -= 1;
        self.count_by_load[new as usize] += 1;
        if old == self.max_load && self.count_by_load[old as usize] == 0 {
            self.max_load = new;
            self.count_by_load.truncate(old as usize);
        }
        self.nu1 -= u64::from(old == 1);
        self.nu2 -= u64::from(old == 2);
        old
    }

    /// The current maximum quantized load.
    #[inline]
    pub fn max_load(&self) -> u32 {
        self.max_load
    }

    /// The exact number of balls currently stored (never quantized).
    #[inline]
    pub fn total_balls(&self) -> u64 {
        self.total_balls
    }

    /// `ν_y` over quantized loads (O(1) for `y ≤ 2`).
    #[inline]
    pub fn nu(&self, y: u32) -> u64 {
        match y {
            0 => self.n as u64,
            1 => self.nu1,
            2 => self.nu2,
            _ => {
                let from = (y as usize).min(self.count_by_load.len());
                self.count_by_load[from..].iter().sum()
            }
        }
    }

    /// The count-by-quantized-load histogram.
    pub fn load_histogram(&self) -> &[u64] {
        &self.count_by_load
    }

    /// Verifies internal consistency (histogram vs lanes, max load, ν
    /// caches, padding pins, side-table invariants); O(n).
    pub fn check_invariants(&self) -> bool {
        let mut hist = vec![0u64; self.count_by_load.len()];
        let mut max = 0u32;
        for bin in 0..self.n {
            let l = self.load(bin);
            if l as usize >= hist.len() {
                return false;
            }
            hist[l as usize] += 1;
            max = max.max(l);
        }
        let ge1: u64 = hist[1..].iter().sum();
        let ge2: u64 = hist.get(2..).map(|t| t.iter().sum()).unwrap_or(0);
        let per_word = 1usize << self.lane_shift;
        let padding_ok = (self.n..self.words.len() * per_word).all(|lane| {
            let w = lane >> self.lane_shift;
            let shift = ((lane & (per_word - 1)) as u32) * self.bits;
            ((self.words[w] >> shift) as u32) & self.mask == self.mask
        });
        let lossless_ok = !self.is_lossless()
            || hist
                .iter()
                .enumerate()
                .map(|(l, &c)| l as u64 * c)
                .sum::<u64>()
                == self.total_balls;
        let exact_ok = self.exact.as_ref().is_none_or(|e| {
            e.check_invariants() && e.total_balls() == self.total_balls && e.n() == self.n
        });
        hist == self.count_by_load
            && max == self.max_load
            && ge1 == self.nu1
            && ge2 == self.nu2
            && hist.iter().sum::<u64>() == self.n as u64
            && padding_ok
            && lossless_ok
            && exact_ok
    }

    fn exact_side(&self) -> Option<&LoadVector> {
        self.exact.as_deref()
    }
}

impl BinStore for PackedStore {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn load(&self, bin: usize) -> u32 {
        PackedStore::load(self, bin)
    }

    #[inline]
    fn add_ball(&mut self, bin: usize) -> u32 {
        PackedStore::add_ball(self, bin)
    }

    #[inline]
    fn remove_ball(&mut self, bin: usize) -> u32 {
        PackedStore::remove_ball(self, bin)
    }

    #[inline]
    fn max_load(&self) -> u32 {
        PackedStore::max_load(self)
    }

    #[inline]
    fn total_balls(&self) -> u64 {
        PackedStore::total_balls(self)
    }

    #[inline]
    fn nu(&self, y: u32) -> u64 {
        PackedStore::nu(self, y)
    }

    #[inline]
    fn capacity(&self, bin: usize) -> u32 {
        match self.exact_side() {
            Some(e) => e.capacity(bin),
            None => {
                assert!(bin < self.n, "bin {bin} out of range");
                1
            }
        }
    }

    #[inline]
    fn total_capacity(&self) -> u64 {
        self.exact_side()
            .map_or(self.n as u64, LoadVector::total_capacity)
    }

    #[inline]
    fn max_utilization(&self) -> f64 {
        self.exact_side()
            .map_or(f64::from(self.max_load), LoadVector::max_utilization)
    }

    #[inline]
    fn utilization_gap(&self) -> f64 {
        self.exact_side().map_or_else(
            || f64::from(self.max_load) - self.total_balls as f64 / self.n as f64,
            LoadVector::utilization_gap,
        )
    }

    fn copy_loads_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.n).map(|bin| self.load(bin)));
    }

    fn histogram(&self) -> Vec<u64> {
        self.count_by_load.clone()
    }
}

impl LoadView for PackedStore {
    #[inline]
    fn view_n(&self) -> usize {
        self.n
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.load(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        crate::snapshot::prefetch_read(&self.words[bin >> self.lane_shift]);
    }
}

impl FillTable for PackedStore {
    fn table_bytes(&self) -> u64 {
        self.resident_bytes()
    }

    fn advise_huge_pages(&self) {
        crate::snapshot::advise_huge_pages(&self.words);
    }
}

/// One shard's bin state, dispatched by [`StoreKind`]: the enum the
/// service layer's striped shards and shared-nothing owners hold where
/// a bare [`LoadVector`] used to be hard-wired. The `Exact` variant
/// delegates 1:1, so every pre-compact bit-identity contract (striped
/// vs shared-nothing, batched vs per-request, hetero-uniform vs
/// static) survives unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum BinSlab {
    /// Exact 32-bit loads.
    Exact(LoadVector),
    /// Packed b-bit quantized loads.
    Packed(PackedStore),
}

/// Delegates a method call to whichever variant the slab holds.
macro_rules! slab_dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            BinSlab::Exact($inner) => $body,
            BinSlab::Packed($inner) => $body,
        }
    };
}

impl BinSlab {
    /// Which representation this slab runs.
    pub fn kind(&self) -> StoreKind {
        match self {
            BinSlab::Exact(_) => StoreKind::Exact,
            BinSlab::Packed(p) if p.bits() == 4 => StoreKind::Packed4,
            BinSlab::Packed(_) => StoreKind::Packed8,
        }
    }

    /// The number of bins.
    #[inline]
    pub fn n(&self) -> usize {
        slab_dispatch!(self, s => s.n())
    }

    /// The (exact / quantized) load of `bin`.
    #[inline]
    pub fn load(&self, bin: usize) -> u32 {
        slab_dispatch!(self, s => s.load(bin))
    }

    /// Places one ball; returns its height under the slab's semantics.
    #[inline]
    pub fn add_ball(&mut self, bin: usize) -> u32 {
        slab_dispatch!(self, s => s.add_ball(bin))
    }

    /// Removes one ball; returns its height under the slab's semantics.
    #[inline]
    pub fn remove_ball(&mut self, bin: usize) -> u32 {
        slab_dispatch!(self, s => s.remove_ball(bin))
    }

    /// The maximum (exact / quantized) load.
    #[inline]
    pub fn max_load(&self) -> u32 {
        slab_dispatch!(self, s => BinStore::max_load(s))
    }

    /// The exact ball count (exact for every variant).
    #[inline]
    pub fn total_balls(&self) -> u64 {
        slab_dispatch!(self, s => BinStore::total_balls(s))
    }

    /// `ν_y` under the slab's load semantics.
    #[inline]
    pub fn nu(&self, y: u32) -> u64 {
        slab_dispatch!(self, s => BinStore::nu(s, y))
    }

    /// The capacity of `bin`.
    #[inline]
    pub fn capacity(&self, bin: usize) -> u32 {
        slab_dispatch!(self, s => BinStore::capacity(s, bin))
    }

    /// The total capacity `Σ c_bin`.
    #[inline]
    pub fn total_capacity(&self) -> u64 {
        slab_dispatch!(self, s => BinStore::total_capacity(s))
    }

    /// The maximum utilization.
    #[inline]
    pub fn max_utilization(&self) -> f64 {
        slab_dispatch!(self, s => BinStore::max_utilization(s))
    }

    /// The capacity-normalized gap.
    #[inline]
    pub fn utilization_gap(&self) -> f64 {
        slab_dispatch!(self, s => BinStore::utilization_gap(s))
    }

    /// Overwrites `out` with per-bin loads in index order.
    pub fn copy_loads_into(&self, out: &mut Vec<u32>) {
        slab_dispatch!(self, s => BinStore::copy_loads_into(s, out))
    }

    /// The count-by-load histogram.
    pub fn histogram(&self) -> Vec<u64> {
        slab_dispatch!(self, s => BinStore::histogram(s))
    }

    /// Adds this slab's histogram into `merged` (which the caller has
    /// already reserved to the merged max load — the allocation-churn
    /// fix for huge-n merges). Exact and packed slabs accumulate
    /// straight from their incrementally-maintained `count_by_load`
    /// slices, no per-shard allocation.
    pub fn accumulate_histogram(&self, merged: &mut Vec<u64>) {
        fn add(merged: &mut Vec<u64>, hist: &[u64]) {
            if merged.len() < hist.len() {
                merged.resize(hist.len(), 0);
            }
            for (m, &h) in merged.iter_mut().zip(hist) {
                *m += h;
            }
        }
        slab_dispatch!(self, s => add(merged, s.load_histogram()))
    }

    /// Verifies the variant's internal invariants; O(n).
    pub fn check_invariants(&self) -> bool {
        slab_dispatch!(self, s => s.check_invariants())
    }

    /// Resident bytes per bin (loads or words, including every per-bin
    /// side table): 4.0 for a homogeneous exact store, 12.0 for a
    /// heterogeneous one (capacity + class-index tables), and the
    /// packed kinds delegate to [`PackedStore::bytes_per_bin`], which
    /// already charges its exact side-table in full.
    pub fn bytes_per_bin(&self) -> f64 {
        match self {
            BinSlab::Exact(s) => s.store_bytes() as f64 / s.n() as f64,
            BinSlab::Packed(p) => p.bytes_per_bin(),
        }
    }

    /// The exact store inside an `Exact` slab (None otherwise) — lets
    /// pre-compact call sites keep borrowing a `LoadVector`.
    pub fn as_exact(&self) -> Option<&LoadVector> {
        match self {
            BinSlab::Exact(s) => Some(s),
            _ => None,
        }
    }
}

impl BinStore for BinSlab {
    #[inline]
    fn n(&self) -> usize {
        BinSlab::n(self)
    }

    #[inline]
    fn load(&self, bin: usize) -> u32 {
        BinSlab::load(self, bin)
    }

    #[inline]
    fn add_ball(&mut self, bin: usize) -> u32 {
        BinSlab::add_ball(self, bin)
    }

    #[inline]
    fn remove_ball(&mut self, bin: usize) -> u32 {
        BinSlab::remove_ball(self, bin)
    }

    #[inline]
    fn max_load(&self) -> u32 {
        BinSlab::max_load(self)
    }

    #[inline]
    fn total_balls(&self) -> u64 {
        BinSlab::total_balls(self)
    }

    #[inline]
    fn nu(&self, y: u32) -> u64 {
        BinSlab::nu(self, y)
    }

    #[inline]
    fn capacity(&self, bin: usize) -> u32 {
        BinSlab::capacity(self, bin)
    }

    #[inline]
    fn total_capacity(&self) -> u64 {
        BinSlab::total_capacity(self)
    }

    #[inline]
    fn max_utilization(&self) -> f64 {
        BinSlab::max_utilization(self)
    }

    #[inline]
    fn utilization_gap(&self) -> f64 {
        BinSlab::utilization_gap(self)
    }

    fn copy_loads_into(&self, out: &mut Vec<u32>) {
        BinSlab::copy_loads_into(self, out)
    }

    fn histogram(&self) -> Vec<u64> {
        BinSlab::histogram(self)
    }
}

impl LoadView for BinSlab {
    #[inline]
    fn view_n(&self) -> usize {
        self.n()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.load(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        slab_dispatch!(self, s => LoadView::prefetch(s, bin))
    }
}

/// A lock-free **packed** snapshot of published per-bin loads: b-bit
/// saturating lanes in `AtomicU64` words — 16 bins per word at b = 4
/// against 2 bins per 64-byte line of exact `AtomicU32`s, so an owner's
/// periodic republish touches ~8× fewer cache lines.
///
/// Published values are **absolute** `min(load, 2^b − 1)`. There is no
/// shared base here: owners publish concurrently, and a coordinated
/// renormalization would need exactly the cross-shard synchronization
/// the shared-nothing engine exists to avoid. The decision kernel
/// therefore cannot distinguish bins at or above the ceiling; at stable
/// open-loop load factors (λ < 1) loads sit far below it and decisions
/// are unaffected (the compact-envelope regression locks that).
///
/// Lanes are written with a CAS loop ([`AtomicU64::fetch_update`]): each
/// *bin* has exactly one writer, but one *word*'s lanes can span two
/// owners at a partition boundary, so a plain read-modify-write of the
/// word would race.
#[derive(Debug)]
pub struct PackedLoadSnapshot {
    words: Vec<AtomicU64>,
    n: usize,
    bits: u32,
    /// `2^bits − 1`: the per-lane value mask and publish ceiling.
    mask: u32,
    /// `log2(64 / bits)`: word of `bin` is `bin >> lane_shift`.
    lane_shift: u32,
}

impl PackedLoadSnapshot {
    /// Creates an all-zero packed snapshot over `n` bins with b-bit
    /// lanes (`bits ∈ {4, 8}`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `bits` is not 4 or 8.
    pub fn new(n: usize, bits: u32) -> Self {
        assert!(n > 0, "snapshot needs at least one bin");
        assert!(bits == 4 || bits == 8, "lane width must be 4 or 8 bits");
        let lane_shift = if bits == 4 { 4 } else { 3 };
        let words = n.div_ceil(1 << lane_shift);
        Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            n,
            bits,
            mask: (1u32 << bits) - 1,
            lane_shift,
        }
    }

    /// The number of bins.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the snapshot has zero bins (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The lane width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The publish ceiling `2^b − 1`: loads at or above it all read back
    /// as the ceiling.
    pub fn ceiling(&self) -> u32 {
        self.mask
    }

    /// What a publish of `load` reads back as: `min(load, ceiling)`.
    #[inline]
    pub fn published(&self, load: u32) -> u32 {
        load.min(self.mask)
    }

    #[inline]
    fn lane_pos(&self, bin: usize) -> (usize, u32) {
        let per_word_mask = (1usize << self.lane_shift) - 1;
        (
            bin >> self.lane_shift,
            ((bin & per_word_mask) as u32) * self.bits,
        )
    }

    /// Reads the published (saturated) load of `bin` (`Relaxed`).
    #[inline]
    pub fn get(&self, bin: usize) -> u32 {
        assert!(bin < self.n, "bin {bin} out of range (n = {})", self.n);
        let (word, shift) = self.lane_pos(bin);
        ((self.words[word].load(Ordering::Relaxed) >> shift) as u32) & self.mask
    }

    /// Publishes `min(load, ceiling)` as the load of `bin`. Only the
    /// bin's owner may call this in the shared-nothing engine.
    #[inline]
    pub fn set(&self, bin: usize, load: u32) {
        assert!(bin < self.n, "bin {bin} out of range (n = {})", self.n);
        let (word, shift) = self.lane_pos(bin);
        let lane = u64::from(self.published(load)) << shift;
        let lane_mask = u64::from(self.mask) << shift;
        // CAS loop: neighbouring lanes may belong to another owner.
        self.words[word]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                Some((w & !lane_mask) | lane)
            })
            .expect("fetch_update closure never fails");
    }
}

impl LoadView for PackedLoadSnapshot {
    #[inline]
    fn view_n(&self) -> usize {
        self.n
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.get(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        crate::snapshot::prefetch_read(&self.words[bin >> self.lane_shift]);
    }
}

/// The published-load surface a shared-nothing engine decides against:
/// exact `u32` lanes or packed b-bit lanes, selected by the run's
/// [`StoreKind`].
#[derive(Debug)]
pub enum LoadSnapshot {
    /// One `AtomicU32` per bin (the pre-compact representation).
    Exact(SharedLoadSnapshot),
    /// b-bit saturating lanes packed into `AtomicU64` words.
    Packed(PackedLoadSnapshot),
}

impl LoadSnapshot {
    /// Builds the snapshot representation matching `kind` over `n` bins.
    pub fn for_kind(kind: StoreKind, n: usize) -> Self {
        match kind.bits() {
            Some(bits) => LoadSnapshot::Packed(PackedLoadSnapshot::new(n, bits)),
            None => LoadSnapshot::Exact(SharedLoadSnapshot::new(n)),
        }
    }

    /// The number of bins.
    pub fn len(&self) -> usize {
        match self {
            LoadSnapshot::Exact(s) => s.len(),
            LoadSnapshot::Packed(s) => s.len(),
        }
    }

    /// Whether the snapshot has zero bins (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the published load of `bin`.
    #[inline]
    pub fn get(&self, bin: usize) -> u32 {
        match self {
            LoadSnapshot::Exact(s) => s.get(bin),
            LoadSnapshot::Packed(s) => s.get(bin),
        }
    }

    /// Publishes `load` as the load of `bin` (saturated at the packed
    /// ceiling when packed).
    #[inline]
    pub fn set(&self, bin: usize, load: u32) {
        match self {
            LoadSnapshot::Exact(s) => s.set(bin, load),
            LoadSnapshot::Packed(s) => s.set(bin, load),
        }
    }

    /// What a publish of `load` reads back as — `load` itself for the
    /// exact variant, `min(load, ceiling)` for the packed one. The
    /// snapshot-equals-truth invariant checks compare against this.
    #[inline]
    pub fn published(&self, load: u32) -> u32 {
        match self {
            LoadSnapshot::Exact(_) => load,
            LoadSnapshot::Packed(s) => s.published(load),
        }
    }
}

impl LoadView for LoadSnapshot {
    #[inline]
    fn view_n(&self) -> usize {
        self.len()
    }

    #[inline]
    fn view_load(&self, bin: usize) -> u32 {
        self.get(bin)
    }

    #[inline]
    fn prefetch(&self, bin: usize) {
        match self {
            LoadSnapshot::Exact(s) => LoadView::prefetch(s, bin),
            LoadSnapshot::Packed(s) => LoadView::prefetch(s, bin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;
    use rand::Rng;

    #[test]
    fn packed_snapshot_publishes_and_saturates() {
        for bits in [4u32, 8] {
            let snap = PackedLoadSnapshot::new(19, bits);
            assert_eq!(snap.len(), 19);
            assert!(!snap.is_empty());
            assert_eq!(snap.bits(), bits);
            let top = (1u32 << bits) - 1;
            assert_eq!(snap.ceiling(), top);
            for bin in 0..19 {
                assert_eq!(snap.get(bin), 0);
            }
            snap.set(3, 7);
            snap.set(4, 2);
            snap.set(18, top + 100);
            assert_eq!(snap.get(3), 7, "neighbour lanes stay intact");
            assert_eq!(snap.get(4), 2);
            assert_eq!(snap.get(18), top, "publishes saturate at the ceiling");
            assert_eq!(snap.published(top + 100), top);
            assert_eq!(snap.published(1), 1);
            assert_eq!(snap.view_load(3), 7);
            assert_eq!(snap.view_n(), 19);
            snap.set(3, 0);
            assert_eq!(snap.get(3), 0, "lanes can be cleared");
            assert_eq!(snap.get(4), 2);
        }
    }

    #[test]
    fn packed_snapshot_boundary_word_survives_two_writers() {
        // Lanes 14..18 of a packed4 snapshot straddle the word boundary
        // at bin 16; concurrent writers on both sides must not clobber
        // each other's lanes (the reason `set` is a CAS loop).
        let snap = PackedLoadSnapshot::new(32, 4);
        std::thread::scope(|scope| {
            let left = scope.spawn(|| {
                for v in 0..1000u32 {
                    snap.set(14, v % 16);
                    snap.set(15, 9);
                }
            });
            let right = scope.spawn(|| {
                for v in 0..1000u32 {
                    snap.set(16, v % 16);
                    snap.set(17, 5);
                }
            });
            left.join().unwrap();
            right.join().unwrap();
        });
        assert_eq!(snap.get(15), 9);
        assert_eq!(snap.get(17), 5);
    }

    #[test]
    fn load_snapshot_matches_kind() {
        let snap = LoadSnapshot::for_kind(StoreKind::Exact, 9);
        assert!(matches!(snap, LoadSnapshot::Exact(_)));
        assert_eq!(snap.published(1_000_000), 1_000_000);
        for (kind, top) in [(StoreKind::Packed4, 15), (StoreKind::Packed8, 255)] {
            let snap = LoadSnapshot::for_kind(kind, 9);
            assert!(matches!(snap, LoadSnapshot::Packed(_)), "{kind}");
            assert_eq!(snap.published(1_000_000), top);
            snap.set(8, 3);
            assert_eq!(snap.get(8), 3);
            assert_eq!(snap.view_load(8), 3);
            assert_eq!(snap.view_n(), 9);
            assert_eq!(snap.len(), 9);
            assert!(!snap.is_empty());
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [StoreKind::Exact, StoreKind::Packed4, StoreKind::Packed8] {
            assert_eq!(StoreKind::parse(kind.name()), Some(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(StoreKind::parse("psychic"), None);
        assert_eq!(StoreKind::parse("sketch"), None);
        assert_eq!(StoreKind::Packed4.bits(), Some(4));
        assert_eq!(StoreKind::Packed8.bits(), Some(8));
        assert_eq!(StoreKind::Exact.bits(), None);
        assert!(StoreKind::Exact.is_exact() && !StoreKind::Packed4.is_exact());
    }

    #[test]
    fn packed_matches_load_vector_below_saturation() {
        for bits in [4, 8] {
            let mut packed = PackedStore::new(37, bits);
            let mut exact = LoadVector::new(37);
            let mut rng = Xoshiro256PlusPlus::from_u64(7);
            let mut live: Vec<usize> = Vec::new();
            for _ in 0..4000 {
                if live.is_empty() || rng.gen_bool(0.55) {
                    let bin = rng.gen_range(0..37);
                    // Keep every load inside the b-bit window so the
                    // stream stays lossless.
                    if exact.load(bin) < (1 << bits) - 1 {
                        assert_eq!(packed.add_ball(bin), exact.add_ball(bin));
                        live.push(bin);
                    }
                } else {
                    let i = rng.gen_range(0..live.len());
                    let bin = live.swap_remove(i);
                    assert_eq!(packed.remove_ball(bin), exact.remove_ball(bin));
                }
            }
            assert!(packed.is_lossless());
            assert_eq!(packed.load_histogram(), exact.load_histogram());
            assert_eq!(BinStore::max_load(&packed), exact.max_load());
            assert_eq!(packed.nu(1), exact.nu(1));
            assert_eq!(packed.nu(2), exact.nu(2));
            assert_eq!(packed.nu(5), exact.nu(5));
            assert_eq!(packed.total_balls(), exact.total_balls());
            for bin in 0..37 {
                assert_eq!(packed.load(bin), exact.load(bin));
            }
            assert!(packed.check_invariants());
        }
    }

    #[test]
    fn packed_renormalizes_on_saturation() {
        // Two bins, 4-bit window. Fill both to 15, then push on: the
        // shared minimum rises, so renormalization opens headroom and
        // counting stays exact far beyond 15.
        let mut packed = PackedStore::new(2, 4);
        for _ in 0..15 {
            packed.add_ball(0);
            packed.add_ball(1);
        }
        assert_eq!(packed.base(), 0);
        for level in 16..40 {
            assert_eq!(packed.add_ball(0), level);
            assert_eq!(packed.add_ball(1), level);
        }
        assert!(packed.renormalizations() > 0);
        assert!(packed.base() > 0);
        assert!(packed.is_lossless());
        assert_eq!(packed.load(0), 39);
        assert_eq!(BinStore::max_load(&packed), 39);
        assert!(packed.check_invariants());
    }

    #[test]
    fn packed_pins_a_runaway_bin_and_reports_the_loss() {
        // Bin 0 races ahead while bin 1 stays empty: the minimum offset
        // is stuck at 0, so the window genuinely exhausts and the
        // counter pins at base + 15.
        let mut packed = PackedStore::new(2, 4);
        for _ in 0..40 {
            packed.add_ball(0);
        }
        assert_eq!(packed.load(0), 15, "pinned at the window top");
        assert!(!packed.is_lossless());
        assert_eq!(packed.clamped_adds(), 25);
        assert_eq!(packed.total_balls(), 40, "ball count stays exact");
        assert!(packed.check_invariants());
        // Removes walk the counter back down; once the quantized load
        // reaches the true load the stream is exact again (though the
        // lossless flag stays down).
        for _ in 0..15 {
            packed.remove_ball(0);
        }
        assert_eq!(packed.load(0), 0);
        assert_eq!(packed.total_balls(), 25);
        // 25 more true balls remain; further removes clamp at 0.
        assert_eq!(packed.remove_ball(0), 0);
        assert_eq!(packed.clamped_removes(), 1);
        assert!(packed.check_invariants());
    }

    #[test]
    fn packed_remove_across_renormalization_boundary() {
        // Push the base up, then remove back down across it. Quantized
        // loads are absolute, so removes that stay at or above the base
        // track the exact store bit for bit; only below the base do
        // they clamp.
        let mut packed = PackedStore::new(3, 4);
        let mut exact = LoadVector::new(3);
        for _ in 0..20 {
            for bin in 0..3 {
                assert_eq!(packed.add_ball(bin), exact.add_ball(bin));
            }
        }
        let base = packed.base();
        assert!(base > 0, "renormalization must have run");
        assert!(packed.is_lossless());
        // Loads are 20 each; removes down to the base stay exact even
        // though each crosses the renormalization boundary's history.
        for level in 0..(20 - base) {
            for bin in 0..3 {
                assert_eq!(packed.remove_ball(bin), exact.remove_ball(bin));
                assert_eq!(packed.load(bin), exact.load(bin), "level {level}");
            }
        }
        assert!(packed.is_lossless());
        assert_eq!(packed.load_histogram(), exact.load_histogram());
        // One more remove per bin goes below the base: the quantized
        // load floors there while the exact store keeps dropping.
        for bin in 0..3 {
            assert_eq!(packed.remove_ball(bin), base);
            assert_eq!(packed.load(bin), base);
        }
        assert_eq!(packed.clamped_removes(), 3);
        assert_eq!(packed.total_balls(), exact.total_balls() - 3);
        assert!(packed.check_invariants());
    }

    #[test]
    #[should_panic(expected = "empty bin")]
    fn packed_lossless_remove_from_empty_bin_panics() {
        let mut packed = PackedStore::new(2, 4);
        packed.add_ball(0);
        let _ = packed.remove_ball(1);
    }

    #[test]
    fn packed_padding_lanes_survive_renormalization() {
        // n = 17 leaves 15 padding lanes in the second word at b=4.
        let mut packed = PackedStore::new(17, 4);
        for _ in 0..25 {
            for bin in 0..17 {
                packed.add_ball(bin);
            }
        }
        assert!(packed.renormalizations() > 0);
        assert!(packed.is_lossless());
        assert!(packed.check_invariants());
        assert_eq!(packed.load(16), 25);
    }

    #[test]
    fn packed_capacities_attach_exact_side_table() {
        let caps = [4u32, 1, 1, 1];
        let mut packed = PackedStore::with_capacities(&caps, 4);
        assert!(packed.has_exact_side());
        for _ in 0..4 {
            packed.add_ball(0);
        }
        packed.add_ball(1);
        packed.add_ball(1);
        assert_eq!(BinStore::capacity(&packed, 0), 4);
        assert_eq!(BinStore::total_capacity(&packed), 7);
        assert_eq!(BinStore::max_utilization(&packed), 2.0);
        assert!(packed.check_invariants());
        // Uniform capacities stay homogeneous (no side table).
        assert!(!PackedStore::with_capacities(&[1; 5], 4).has_exact_side());
    }

    #[test]
    fn packed_bytes_per_bin_is_sub_byte_at_4_bits() {
        let packed = PackedStore::new(1 << 10, 4);
        assert!((packed.bytes_per_bin() - 0.5).abs() < 1e-9);
        let packed8 = PackedStore::new(1 << 10, 8);
        assert!((packed8.bytes_per_bin() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slab_dispatches_every_kind() {
        for kind in [StoreKind::Exact, StoreKind::Packed4, StoreKind::Packed8] {
            let mut slab = kind.new_slab(8);
            assert_eq!(slab.kind(), kind);
            assert_eq!(slab.n(), 8);
            assert_eq!(slab.add_ball(2), 1);
            assert_eq!(slab.add_ball(2), 2);
            assert_eq!(slab.load(2), 2);
            assert_eq!(slab.max_load(), 2);
            assert_eq!(slab.total_balls(), 2);
            assert_eq!(slab.nu(1), 1);
            assert_eq!(slab.remove_ball(2), 2);
            assert_eq!(slab.total_balls(), 1);
            assert!(slab.check_invariants());
            assert!(slab.bytes_per_bin() > 0.0);
            let mut merged = Vec::new();
            slab.accumulate_histogram(&mut merged);
            assert_eq!(merged[1], 1);
            let mut loads = Vec::new();
            slab.copy_loads_into(&mut loads);
            assert_eq!(loads[2], 1);
            assert_eq!(slab.view_load(2), 1);
            assert_eq!(slab.view_n(), 8);
            slab.prefetch(2);
        }
    }

    #[test]
    fn exact_slab_is_the_load_vector_bit_for_bit() {
        let mut slab = StoreKind::Exact.new_slab(6);
        let mut reference = LoadVector::new(6);
        let mut rng = Xoshiro256PlusPlus::from_u64(11);
        for _ in 0..500 {
            let bin = rng.gen_range(0..6);
            assert_eq!(slab.add_ball(bin), reference.add_ball(bin));
        }
        assert_eq!(slab.as_exact(), Some(&reference));
        assert_eq!(slab.histogram(), BinStore::histogram(&reference));
    }

    #[test]
    fn slab_with_capacities_routes_hetero() {
        let caps = [2u32, 1, 1];
        for kind in [StoreKind::Exact, StoreKind::Packed4, StoreKind::Packed8] {
            let slab = kind.slab_with_capacities(&caps);
            assert_eq!(slab.total_capacity(), 4);
            assert_eq!(slab.capacity(0), 2);
        }
    }

    #[test]
    fn try_slab_with_capacities_validates_without_panicking() {
        // Invalid maps are caught for every kind.
        for kind in [StoreKind::Exact, StoreKind::Packed4, StoreKind::Packed8] {
            assert!(kind.try_slab_with_capacities(&[]).is_err());
            assert!(kind.try_slab_with_capacities(&[1, 0]).is_err());
            assert!(kind.try_slab_with_capacities(&[1, 1]).is_ok());
        }
        // Valid hetero maps construct the same slab as the panicking path.
        let slab = StoreKind::Packed4
            .try_slab_with_capacities(&[2, 1])
            .unwrap();
        assert_eq!(slab.total_capacity(), 3);
    }

    #[test]
    fn bytes_per_bin_includes_capacity_side_tables() {
        // The memory-accounting pin (the `gap_vs_bytes` honesty fix):
        // a packed store that spills capacities into an exact side-table
        // must charge that side-table — loads + capacities + class
        // indices at 4 B each — instead of reporting its words alone.
        let n = 1 << 10;
        let mut caps = vec![1u32; n];
        caps[0] = 8;
        let hetero4 = PackedStore::with_capacities(&caps, 4);
        assert!((hetero4.bytes_per_bin() - (0.5 + 12.0)).abs() < 1e-9);
        let hetero8 = PackedStore::with_capacities(&caps, 8);
        assert!((hetero8.bytes_per_bin() - (1.0 + 12.0)).abs() < 1e-9);
        // Capacity-free stores still pay for their words alone (the
        // committed gap_vs_bytes rows all run without capacities, so
        // this fix does not move them).
        assert!((PackedStore::new(n, 4).bytes_per_bin() - 0.5).abs() < 1e-9);
        // Slab view: homogeneous exact = 4 B/bin, heterogeneous = 12.
        assert!((StoreKind::Exact.new_slab(n).bytes_per_bin() - 4.0).abs() < 1e-9);
        let exact_hetero = StoreKind::Exact.slab_with_capacities(&caps);
        assert!((exact_hetero.bytes_per_bin() - 12.0).abs() < 1e-9);
        let packed_hetero = StoreKind::Packed4.slab_with_capacities(&caps);
        assert!((packed_hetero.bytes_per_bin() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_free_fallback_observables_are_exact() {
        // Satellite audit: a PackedStore *without* a side-table is
        // provably uniform-capacity (the constructor attaches the side
        // the moment any capacity ≠ 1), so the fallback
        // `max_utilization`/`utilization_gap` — computed from the
        // quantized max load — must equal the exact store's values on
        // an identical lossless fill.
        let mut packed = PackedStore::new(64, 8);
        let mut exact = LoadVector::new(64);
        let mut rng = Xoshiro256PlusPlus::from_u64(31);
        for _ in 0..600 {
            let bin = rng.gen_range(0..64);
            packed.add_ball(bin);
            exact.add_ball(bin);
        }
        assert!(!packed.has_exact_side());
        assert!(packed.is_lossless());
        assert_eq!(BinStore::max_utilization(&packed), exact.max_utilization());
        assert!((BinStore::utilization_gap(&packed) - exact.utilization_gap()).abs() < 1e-12);
        assert_eq!(BinStore::capacity(&packed, 7), 1);
        assert_eq!(BinStore::total_capacity(&packed), 64);
    }
}
