//! [`SpinBarrier`]: the tick barrier of the multi-thread open-loop
//! drivers.
//!
//! A tick of the churn workloads lasts well under a millisecond, and each
//! tick crosses the barrier two or three times. The standard library's
//! barrier parks every early arriver on a condition variable, so each
//! crossing costs a futex sleep and wake-up, scheduler latency included.
//! This barrier spins instead, and yields the core only after a bounded
//! number of spins, so a run with more workers than cores still makes
//! progress.
//!
//! ## Memory ordering
//!
//! An arrival is one `AcqRel` `fetch_add` on the arrival count. The last
//! arriver's increment reads the value every earlier arrival wrote, so it
//! synchronizes with all of them; it then resets the count and publishes
//! the next generation with a `Release` store. A waiter leaves once its
//! `Acquire` load sees that generation, so everything any party wrote
//! before it arrived happens-before everything every party does after it
//! leaves. That is the guarantee the drivers rely on (see the
//! `PlacementTable` docs in `pipeline`). The reset of the count is
//! sequenced before the generation store, so a party that enters the
//! next crossing already sees the count at zero.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pad::CachePadded;

/// Spins a waiter makes before it starts yielding its core: some tens of
/// microseconds on x86, where one spin-loop hint takes tens to about 140
/// cycles. That covers the skew between workers that run on their own
/// cores; past it, the peer it waits for is most likely not running,
/// and only a yield lets it run.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// A reusable spin-then-yield barrier for a fixed number of parties.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    parties: usize,
    /// Parties that have arrived at the current crossing.
    arrived: CachePadded<AtomicUsize>,
    /// Completed crossings; a waiter leaves when it moves.
    generation: CachePadded<AtomicUsize>,
}

impl SpinBarrier {
    /// A barrier that opens once `parties` threads wait on it.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        Self {
            parties,
            arrived: CachePadded(AtomicUsize::new(0)),
            generation: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Blocks until all parties have called `wait` for this crossing.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Over `phases` phases of two crossings each, each party writes its
    /// phase into its own slot, crosses, and then reads every peer's
    /// slot: all must show that phase. A party that
    /// left early would see a peer's slot one phase behind; one that
    /// waited too long would block a peer that has moved on to write the
    /// next phase, which the second crossing per phase rules out.
    fn crossings_agree(parties: usize, phases: usize) {
        let barrier = SpinBarrier::new(parties);
        let slots: Vec<AtomicUsize> = (0..parties).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for me in 0..parties {
                let (barrier, slots) = (&barrier, &slots);
                scope.spawn(move || {
                    for phase in 1..=phases {
                        slots[me].store(phase, Ordering::Relaxed);
                        barrier.wait();
                        for (peer, slot) in slots.iter().enumerate() {
                            let seen = slot.load(Ordering::Relaxed);
                            assert_eq!(seen, phase, "party {me} saw {peer} at {seen}");
                        }
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn spin_barrier_two_parties_agree_on_every_phase() {
        crossings_agree(2, 10_000);
    }

    #[test]
    fn spin_barrier_three_parties_agree_on_every_phase() {
        crossings_agree(3, 10_000);
    }

    /// On two cores, four parties are oversubscribed: this finishes only
    /// because a waiter yields to the peer it waits for.
    #[test]
    fn spin_barrier_four_parties_agree_on_every_phase() {
        crossings_agree(4, 10_000);
    }

    #[test]
    fn one_party_never_waits() {
        let barrier = SpinBarrier::new(1);
        for _ in 0..3 {
            barrier.wait();
        }
        assert_eq!(barrier.generation.load(Ordering::Relaxed), 3);
    }
}
