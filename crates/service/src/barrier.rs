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
//!
//! ## A party that panics
//!
//! A party that unwinds never arrives again, so its peers would wait for
//! it forever. So the barrier carries a [`Poison`] flag, as does the
//! shared-nothing engine for its rendezvous and full-ring submit. Every
//! party holds a [`Poison::on_unwind`] guard on each flag its peers wait
//! on, which sets the flag while the party's thread unwinds, and every
//! wait loop checks its flag on each turn and panics once it is set. The
//! scoped threads then all finish, and the scope propagates the panic
//! instead of hanging. An arrival stays one `fetch_add`; only a waiting
//! party reads the flag.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::pad::CachePadded;

/// Spins a waiter makes before it starts yielding its core: some tens of
/// microseconds on x86, where one spin-loop hint takes tens to about 140
/// cycles. That covers the skew between workers that run on their own
/// cores; past it, the peer it waits for is most likely not running,
/// and only a yield lets it run.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// Set once any worker of a run unwinds; read by every wait loop of the
/// run, which then panics instead of waiting for a peer that will never
/// come. `Relaxed` is enough: the flag carries no data, and a waiter
/// that reads it late only spins a little longer.
#[derive(Debug, Default)]
pub(crate) struct Poison(AtomicBool);

impl Poison {
    /// A guard that sets the flag if it is dropped while its thread
    /// panics. Each worker holds one for its whole run.
    pub(crate) fn on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    /// Panics if a peer has set the flag. Wait loops call it every turn.
    #[inline]
    pub(crate) fn check(&self) {
        if self.0.load(Ordering::Relaxed) {
            peer_panicked();
        }
    }
}

#[cold]
#[inline(never)]
fn peer_panicked() -> ! {
    panic!("a peer worker panicked (its message is printed above); abandoning the run")
}

/// See [`Poison::on_unwind`].
#[derive(Debug)]
pub(crate) struct PoisonOnUnwind<'a>(&'a Poison);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0 .0.store(true, Ordering::Relaxed);
        }
    }
}

/// A reusable spin-then-yield barrier for a fixed number of parties,
/// abandoned with a panic once its [`Poison`] is set.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    parties: usize,
    /// Set by a party that unwinds ([`SpinBarrier::poison`]).
    poison: Poison,
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
            poison: Poison::default(),
            arrived: CachePadded(AtomicUsize::new(0)),
            generation: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// The flag whose [`Poison::on_unwind`] guard every party holds.
    pub(crate) fn poison(&self) -> &Poison {
        &self.poison
    }

    /// Blocks until all parties have called `wait` for this crossing.
    ///
    /// # Panics
    ///
    /// Panics if the barrier is poisoned while it waits.
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
            self.poison.check();
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
pub(crate) mod tests {
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

    /// Runs `run` on a helper thread and waits at most `TIMEOUT` for it.
    /// Returns whether `run` panicked; fails, instead of hanging, if it
    /// has not finished by then.
    pub(crate) fn panics_within_timeout(run: impl FnOnce() + Send + 'static) -> bool {
        const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err();
            let _ = done.send(panicked);
        });
        outcome
            .recv_timeout(TIMEOUT)
            .expect("the run hung: a peer of the panicking party never stopped waiting")
    }

    /// `parties` parties cross the barrier under their poison guards, the
    /// way the drivers' workers do; party `panicking` panics at its fifth
    /// crossing. Every other party must stop waiting and panic too, so
    /// the scope, and with it the run, ends in a panic.
    fn a_panicking_party_releases_its_peers(parties: usize, panicking: usize) {
        let panicked = panics_within_timeout(move || {
            let barrier = SpinBarrier::new(parties);
            let party = |me: usize| {
                let _unwinding = barrier.poison().on_unwind();
                for crossing in 0..1_000 {
                    assert!(me != panicking || crossing < 5, "party {me} fails");
                    barrier.wait();
                }
            };
            std::thread::scope(|scope| {
                for me in 1..parties {
                    scope.spawn(move || party(me));
                }
                party(0);
            });
        });
        assert!(panicked, "{parties} parties, party {panicking} panicking");
    }

    #[test]
    fn a_panicking_party_releases_its_peers_at_two_parties() {
        a_panicking_party_releases_its_peers(2, 0);
        a_panicking_party_releases_its_peers(2, 1);
    }

    #[test]
    fn a_panicking_party_releases_its_peers_at_three_parties() {
        a_panicking_party_releases_its_peers(3, 0);
        a_panicking_party_releases_its_peers(3, 2);
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
