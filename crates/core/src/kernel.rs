//! The paper's multiplicity rule as one kernel: a bin of load `L` probed
//! `m` times offers tentative slots at heights `L+1..=L+m`, and the `k`
//! least slots win. [`expand_slots`] builds the slots and
//! [`select_k_least`] picks the winners; a caller that ranks every slot
//! or picks `k` from the slots runs its own step between the two. Both
//! are generic over the slot key ([`SlotKey`]).

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

/// Moves the `k` least slots in [`cmp_slots`] order to the front with one
/// `select_nth_unstable_by(k - 1)`, skipped when `k == slots.len()`, and
/// returns them in the order the selection leaves them: the winner order.
///
/// # Panics
///
/// Panics unless `1 <= k <= slots.len()`; with one slot per probe, this
/// is the paper's `1 <= k <= d`.
#[inline]
pub fn select_k_least<S: TentativeSlot>(slots: &mut [S], k: usize) -> &mut [S] {
    assert!(
        k >= 1 && k <= slots.len(),
        "cannot place {k} balls on {} tentative slots: need 1 <= k <= d, one slot per probe",
        slots.len()
    );
    if k < slots.len() {
        slots.select_nth_unstable_by(k - 1, cmp_slots);
    }
    &mut slots[..k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_prng::Xoshiro256PlusPlus;

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
