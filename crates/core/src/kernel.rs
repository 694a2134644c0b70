//! The paper's multiplicity rule as one kernel: a bin of load `L` probed
//! `m` times offers tentative slots at heights `L+1..=L+m`, and the `k`
//! least slots win. [`expand_slots`] builds the slots and
//! [`select_k_least`] picks the winners; a caller that ranks every slot
//! or picks `k` from the slots runs its own step between the two. Both
//! are generic over the slot key ([`SlotKey`]).
//!
//! `decide_small` is the const-D instance of the two for `u32` heights
//! and at most [`SMALL_D`] slots, the path `crate::decide_k_least` takes
//! whenever `d ≤ SMALL_D`. It packs each slot into one `u128` key and
//! orders the keys with a branchless network instead of building slot
//! tuples in a `Vec`, and it draws the same tie keys and returns the same
//! winners in the same order as the generic pair.

use std::cmp::Ordering;

use rand::RngCore;

/// The primary key of a tentative slot: a `u32` height compared by `Ord`,
/// or an `f64` objective compared by `total_cmp`.
pub trait SlotKey: Copy {
    /// The key order.
    fn slot_cmp(&self, other: &Self) -> Ordering;
}

impl SlotKey for u32 {
    #[inline]
    fn slot_cmp(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

impl SlotKey for f64 {
    #[inline]
    fn slot_cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

/// A tentative slot tuple that leads with its key and its tie key:
/// `(key, tie, bin)`, or [`crate::VectorSlot`]'s `(key, tie, height, bin)`.
pub trait TentativeSlot: Copy {
    /// The primary key type.
    type Key: SlotKey;
    /// The slot's `(key, tie key)`.
    fn rank(&self) -> (Self::Key, u64);
}

impl<K: SlotKey> TentativeSlot for (K, u64, usize) {
    type Key = K;
    #[inline]
    fn rank(&self) -> (K, u64) {
        (self.0, self.1)
    }
}

impl TentativeSlot for (f64, u64, u32, usize) {
    type Key = f64;
    #[inline]
    fn rank(&self) -> (f64, u64) {
        (self.0, self.1)
    }
}

/// The kernel's slot order: key, then tie key.
#[inline]
pub fn cmp_slots<S: TentativeSlot>(a: &S, b: &S) -> Ordering {
    let ((ka, ta), (kb, tb)) = (a.rank(), b.rank());
    ka.slot_cmp(&kb).then(ta.cmp(&tb))
}

/// Expands `sorted_probes` (ascending; a repeated bin is its
/// multiplicity) into `slots`, cleared on entry. `base(bin)` is read once
/// per distinct bin; the `occ`-th probe of a bin (`occ = 1..=m`) draws one
/// tie key and becomes `slot(&base, bin, occ, tie)`, in sorted-probe order.
/// Sort the probes with [`sort_probes`]; debug builds panic on unsorted
/// probes, whose repeats would not be adjacent.
#[inline]
pub fn expand_slots<B, S, R>(
    sorted_probes: &[usize],
    rng: &mut R,
    slots: &mut Vec<S>,
    mut base: impl FnMut(usize) -> B,
    mut slot: impl FnMut(&B, usize, u32, u64) -> S,
) where
    R: RngCore + ?Sized,
{
    debug_assert!(
        sorted_probes.is_sorted(),
        "probes must be sorted ascending (sort_probes)"
    );
    slots.clear();
    let mut i = 0;
    while i < sorted_probes.len() {
        let bin = sorted_probes[i];
        let b = base(bin);
        let mut occ = 0u32;
        while i < sorted_probes.len() && sorted_probes[i] == bin {
            occ += 1;
            slots.push(slot(&b, bin, occ, rng.next_u64()));
            i += 1;
        }
    }
}

/// The scalar slot builder for [`expand_slots`]: height `base + occ`.
#[inline]
pub fn height_slot(&base: &u32, bin: usize, occ: u32, tie: u64) -> (u32, u64, usize) {
    (base + occ, tie, bin)
}

/// Panics unless `1 <= k <= slots`: one slot per probe makes this the
/// paper's `1 <= k <= d`.
#[inline]
fn assert_k_fits(k: usize, slots: usize) {
    assert!(
        k >= 1 && k <= slots,
        "cannot place {k} balls on {slots} tentative slots: need 1 <= k <= d, one slot per probe"
    );
}

/// Moves the `k` least slots in [`cmp_slots`] order to the front with one
/// `select_nth_unstable_by(k - 1)`, skipped when `k == slots.len()`, and
/// returns them, `slots[..k]`, in the order the selection leaves them:
/// the winner order. With `len = slots.len()`, that order is
///
/// * `k == 1`: the least slot (the first of equal least slots), swapped
///   to the front;
/// * `1 < k < len` and `len <= 16`: ascending [`cmp_slots`] order, equal
///   slots in expansion order (the selection insertion-sorts slices this
///   short);
/// * `k == len`: expansion order, untouched.
///
/// With `1 < k < len` and `len > 16` the winners are the `k` least, in
/// whatever order the selection leaves them. The const-D path of
/// `decide_k_least` reproduces the first three cases, so digests pinned
/// on either path depend on them.
///
/// # Panics
///
/// Panics unless `1 <= k <= slots.len()`; with one slot per probe, this
/// is the paper's `1 <= k <= d`.
#[inline]
pub fn select_k_least<S: TentativeSlot>(slots: &mut [S], k: usize) -> &mut [S] {
    assert_k_fits(k, slots.len());
    if k < slots.len() {
        slots.select_nth_unstable_by(k - 1, cmp_slots);
    }
    &mut slots[..k]
}

/// Largest slot count served by the const-D paths: `decide_small` here and
/// the round engine's `round_small` in `kd.rs`.
pub(crate) const SMALL_D: usize = 16;

/// Sorts a probe set ascending, the order [`crate::decide_k_least`] and
/// [`expand_slots`] take. Sets of 2 to 16 probes (the const-D paths'
/// limit) run a branchless odd-even transposition network unrolled at
/// their length; longer sets fall back to `sort_unstable`. A multiset of
/// `usize` has one ascending order, so the result is always what
/// `sort_unstable` gives.
#[inline]
pub fn sort_probes(probes: &mut [usize]) {
    #[inline(always)]
    fn network<const D: usize>(probes: &mut [usize]) {
        let probes: &mut [usize; D] = probes.try_into().expect("matched on the length");
        transposition_sort(probes);
    }
    match probes.len() {
        0 | 1 => {}
        2 => network::<2>(probes),
        3 => network::<3>(probes),
        4 => network::<4>(probes),
        5 => network::<5>(probes),
        6 => network::<6>(probes),
        7 => network::<7>(probes),
        8 => network::<8>(probes),
        9 => network::<9>(probes),
        10 => network::<10>(probes),
        11 => network::<11>(probes),
        12 => network::<12>(probes),
        13 => network::<13>(probes),
        14 => network::<14>(probes),
        15 => network::<15>(probes),
        16 => network::<16>(probes),
        _ => probes.sort_unstable(),
    }
}

/// Sorts `key` ascending with an odd-even transposition network: `D`
/// unrolled passes of branchless compare-exchanges (`min`/`max` compile
/// to conditional moves, so nothing mispredicts).
#[inline(always)]
pub(crate) fn transposition_sort<T: Ord + Copy, const D: usize>(key: &mut [T; D]) {
    for pass in 0..D {
        let mut j = pass & 1;
        while j + 1 < D {
            let (a, b) = (key[j], key[j + 1]);
            key[j] = a.min(b);
            key[j + 1] = a.max(b);
            j += 2;
        }
    }
}

/// [`expand_slots`] with [`height_slot`], then [`select_k_least`], for
/// exactly `D <= SMALL_D` sorted probes: the same base reads (one per
/// distinct bin), the same tie draws (one `next_u64` per slot, in
/// sorted-probe order) and the same winners in the same order. Each
/// slot is one `u128` key, `height << 68 | tie << 4 | slot index`, so a
/// key compare is the `(height, tie)` compare with expansion order
/// breaking exact ties, as the generic selection does on `D <= 16`
/// slots. The least key is found by a min scan when `k == 1`, the keys
/// are sorted by [`transposition_sort`] when `1 < k < D`, and nothing
/// moves when `k == D`.
///
/// Appends the winner bins to `bins_out` in winner order, leaves the
/// winners in `slots[..k]` as `(height, tie, bin)` (`slots` then holds
/// exactly `k` slots), and returns the winners' maximum height.
///
/// # Panics
///
/// Panics unless `sorted_probes.len() == D` and `1 <= k <= D`.
#[inline]
pub(crate) fn decide_small<const D: usize, R>(
    sorted_probes: &[usize],
    k: usize,
    rng: &mut R,
    slots: &mut Vec<(u32, u64, usize)>,
    bins_out: &mut Vec<usize>,
    mut base: impl FnMut(usize) -> u32,
) -> u32
where
    R: RngCore + ?Sized,
{
    const { assert!(D <= SMALL_D, "slot index must fit in 4 bits") };
    assert_k_fits(k, sorted_probes.len());
    let probes: &[usize; D] = sorted_probes
        .try_into()
        .expect("decide_small takes exactly D probes");
    // Heights first, so the base reads issue back to back: a repeated bin
    // is a run of adjacent probes, read once, its occ-th slot at base + occ.
    let mut height = [0u32; D];
    for i in 0..D {
        height[i] = if i > 0 && probes[i] == probes[i - 1] {
            height[i - 1] + 1
        } else {
            base(probes[i]) + 1
        };
    }
    let mut key = [0u128; D];
    for (i, key) in key.iter_mut().enumerate() {
        *key = (u128::from(height[i]) << 68) | (u128::from(rng.next_u64()) << 4) | i as u128;
    }
    if k == 1 {
        key[0] = key.iter().copied().min().expect("D >= k >= 1");
    } else if k < D {
        transposition_sort(&mut key);
    }
    slots.clear();
    let mut max_height = 0;
    for &key in &key[..k] {
        let (h, tie, bin) = (
            (key >> 68) as u32,
            (key >> 4) as u64,
            probes[(key & 0xF) as usize],
        );
        max_height = max_height.max(h);
        slots.push((h, tie, bin));
        bins_out.push(bin);
    }
    max_height
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decide_k_least, LoadView};
    use kdchoice_prng::Xoshiro256PlusPlus;
    use std::cell::RefCell;

    /// Loads from a slice, logging every read.
    struct LoggedLoads<'a> {
        loads: &'a [u32],
        reads: RefCell<Vec<usize>>,
    }

    impl LoadView for LoggedLoads<'_> {
        fn view_n(&self) -> usize {
            self.loads.len()
        }

        fn view_load(&self, bin: usize) -> u32 {
            self.reads.borrow_mut().push(bin);
            self.loads[bin]
        }
    }

    /// The selection's winner order, pinned on hand-built slots: a
    /// toolchain whose `select_nth_unstable_by` leaves another order
    /// fails here, by name, before any digest moves.
    #[test]
    fn select_k_least_winner_order_is_pinned() {
        let slots: [(u32, u64, usize); 5] = [(3, 9, 0), (1, 5, 1), (2, 1, 2), (1, 2, 3), (2, 0, 4)];
        let select = |k: usize| {
            let mut s = slots;
            select_k_least(&mut s, k).to_vec()
        };
        // k = 1: the least slot.
        assert_eq!(select(1), [(1, 2, 3)]);
        // 1 < k < len: ascending (key, tie).
        assert_eq!(select(2), [(1, 2, 3), (1, 5, 1)]);
        assert_eq!(select(4), [(1, 2, 3), (1, 5, 1), (2, 0, 4), (2, 1, 2)]);
        // k = len: expansion order, untouched.
        assert_eq!(select(5), slots);

        // Equal (key, tie) slots keep expansion order, for k = 1 too.
        let mut equal = [(1u32, 7u64, 10usize), (0, 0, 12), (1, 7, 11)];
        assert_eq!(select_k_least(&mut equal.clone(), 1), [(0, 0, 12)]);
        assert_eq!(select_k_least(&mut equal, 2), [(0, 0, 12), (1, 7, 10)]);
        let mut equal_least = [(1u32, 7u64, 10usize), (1, 7, 11), (2, 0, 12)];
        assert_eq!(select_k_least(&mut equal_least, 1), [(1, 7, 10)]);

        // The longest slice the const-D path serves: 16 slots, keys
        // descending, heights tied in pairs.
        let mut long: Vec<(u32, u64, usize)> = (0..16)
            .map(|i| (8 - i as u32 / 2, 100 - i as u64, i))
            .collect();
        let mut ascending = long.clone();
        ascending.sort_by(cmp_slots);
        assert_eq!(select_k_least(&mut long, 7), &ascending[..7]);

        // f64 keys follow total_cmp, then the tie key.
        let mut f = [
            (0.5f64, 3u64, 0usize),
            (-0.0, 9, 1),
            (0.0, 1, 2),
            (0.5, 2, 3),
        ];
        assert_eq!(
            select_k_least(&mut f, 3),
            [(-0.0, 9, 1), (0.0, 1, 2), (0.5, 2, 3)]
        );
    }

    /// A generator whose tie keys take three values, so equal
    /// `(height, tie)` slots are common and expansion order decides.
    #[derive(Clone)]
    struct FewTies(Xoshiro256PlusPlus);

    impl RngCore for FewTies {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0.next_u64() % 3
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest);
        }

        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
            self.0.try_fill_bytes(dest)
        }
    }

    /// `decide_k_least` on `d = probes.len() <= SMALL_D` (the const-D
    /// path) against `expand_slots` + `select_k_least`: the same base
    /// reads, winners in the same order, the same max height, the same
    /// `slots[..k]` and the same generator afterwards.
    fn assert_const_d_matches_generic<R: RngCore + Clone>(
        loads: &[u32],
        probes: &[usize],
        k: usize,
        mut rng: R,
    ) {
        let mut rng_ref = rng.clone();
        let view = LoggedLoads {
            loads,
            reads: RefCell::new(Vec::new()),
        };
        let (mut slots, mut winners) = (Vec::new(), Vec::new());
        let max = decide_k_least(&view, probes, k, &mut rng, &mut slots, &mut winners);

        let (mut ref_reads, mut ref_slots) = (Vec::new(), Vec::new());
        expand_slots(
            probes,
            &mut rng_ref,
            &mut ref_slots,
            |bin| {
                ref_reads.push(bin);
                loads[bin]
            },
            height_slot,
        );
        let ref_won = select_k_least(&mut ref_slots, k);
        let ref_winners: Vec<usize> = ref_won.iter().map(|s| s.2).collect();
        let d = probes.len();
        assert_eq!(view.reads.into_inner(), ref_reads, "d {d} k {k}");
        assert_eq!(winners, ref_winners, "d {d} k {k}");
        assert_eq!(max, ref_won.iter().map(|s| s.0).max().unwrap());
        assert_eq!(&slots[..k], &*ref_won, "d {d} k {k}");
        assert_eq!(rng.next_u64(), rng_ref.next_u64());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The const-D path against the generic kernel for every `d` in
        /// `2..=16` and every `k` in `1..=d`. Loads from a narrow range
        /// tie heights often, few bins make probes repeat, and a second
        /// run with [`FewTies`] makes whole `(height, tie)` keys tie.
        #[test]
        fn const_d_path_matches_the_generic_kernel(
            seed in 0..u64::MAX,
            loads in proptest::collection::vec(0..4u32, 1..12),
            picks in proptest::collection::vec(0..1024usize, 16..17),
        ) {
            for d in 2..=SMALL_D {
                let mut probes: Vec<usize> = picks[..d].iter().map(|&p| p % loads.len()).collect();
                probes.sort_unstable();
                for k in 1..=d {
                    let rng = Xoshiro256PlusPlus::from_u64(seed ^ (d * 17 + k) as u64);
                    assert_const_d_matches_generic(&loads, &probes, k, rng.clone());
                    assert_const_d_matches_generic(&loads, &probes, k, FewTies(rng));
                }
            }
        }
    }

    /// The longest probe set the tests sort, one past twice the networks'
    /// limit, so the `sort_unstable` fallback runs on 17 to 33 probes.
    const SORT_LENGTHS: usize = 2 * SMALL_D + 1;

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// `sort_probes` against `sort_unstable` at every length from 0 to
        /// `2 * SMALL_D + 1`: on values from `0..4`, where most probes
        /// repeat, and on the whole `usize` range, with about one value
        /// in four forced to `usize::MAX`.
        #[test]
        fn sort_probes_matches_sort_unstable(
            few in proptest::collection::vec(0..4usize, SORT_LENGTHS..SORT_LENGTHS + 1),
            wide in proptest::collection::vec(0..=usize::MAX, SORT_LENGTHS..SORT_LENGTHS + 1),
            top in proptest::collection::vec(0..4u32, SORT_LENGTHS..SORT_LENGTHS + 1),
        ) {
            let wide: Vec<usize> = wide
                .iter()
                .zip(&top)
                .map(|(&v, &t)| if t == 0 { usize::MAX } else { v })
                .collect();
            for len in 0..=SORT_LENGTHS {
                for values in [&few[..len], &wide[..len]] {
                    let mut got = values.to_vec();
                    sort_probes(&mut got);
                    let mut want = values.to_vec();
                    want.sort_unstable();
                    proptest::prop_assert_eq!(got, want, "len {}", len);
                }
            }
        }

        /// `decide_k_least` on probes sorted by `sort_probes` and by
        /// `sort_unstable`, for every `d` up to `2 * SMALL_D + 1` and
        /// every `k <= d`: the same winners, the same heights in `slots`,
        /// the same max height and the same generator position after.
        #[test]
        fn decide_k_least_agrees_on_either_sort(
            seed in 0..u64::MAX,
            loads in proptest::collection::vec(0..4u32, 1..12),
            picks in proptest::collection::vec(0..1024usize, SORT_LENGTHS..SORT_LENGTHS + 1),
        ) {
            for d in 1..=SORT_LENGTHS {
                let unsorted: Vec<usize> = picks[..d].iter().map(|&p| p % loads.len()).collect();
                let mut network = unsorted.clone();
                sort_probes(&mut network);
                let mut reference = unsorted;
                reference.sort_unstable();
                for k in 1..=d {
                    let decide = |probes: &[usize]| {
                        let mut rng = Xoshiro256PlusPlus::from_u64(seed ^ (d * 41 + k) as u64);
                        let view = LoggedLoads { loads: &loads, reads: RefCell::new(Vec::new()) };
                        let (mut slots, mut winners) = (Vec::new(), Vec::new());
                        let max = decide_k_least(&view, probes, k, &mut rng, &mut slots, &mut winners);
                        (winners, slots, max, rng.next_u64(), view.reads.into_inner())
                    };
                    proptest::prop_assert_eq!(decide(&network), decide(&reference), "d {} k {}", d, k);
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "probes must be sorted ascending")]
    fn decide_k_least_rejects_unsorted_probes_in_debug_builds() {
        let mut rng = Xoshiro256PlusPlus::from_u64(0);
        let view = LoggedLoads {
            loads: &[0; 4],
            reads: RefCell::new(Vec::new()),
        };
        decide_k_least(
            &view,
            &[2, 0, 2],
            1,
            &mut rng,
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "probes must be sorted ascending")]
    fn expand_slots_rejects_unsorted_probes_in_debug_builds() {
        let mut rng = Xoshiro256PlusPlus::from_u64(0);
        let mut slots: Vec<(u32, u64, usize)> = Vec::new();
        expand_slots(&[2, 0, 2], &mut rng, &mut slots, |_| 0u32, height_slot);
    }

    #[test]
    fn expansion_reads_each_base_once_and_draws_one_tie_per_slot() {
        let mut reads = Vec::new();
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let mut slots: Vec<(u32, u64, usize)> = Vec::new();
        expand_slots(
            &[1, 1, 1, 4, 6, 6],
            &mut rng,
            &mut slots,
            |b| {
                reads.push(b);
                10 * b as u32
            },
            height_slot,
        );
        assert_eq!(reads, vec![1, 4, 6]);
        let heights: Vec<u32> = slots.iter().map(|s| s.0).collect();
        assert_eq!(heights, vec![11, 12, 13, 41, 61, 62]);
        let mut rng_ref = Xoshiro256PlusPlus::from_u64(3);
        for s in &slots {
            assert_eq!(s.1, rng_ref.next_u64());
        }
    }
}
