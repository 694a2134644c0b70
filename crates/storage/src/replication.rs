//! Bounded-rate re-replication: the recovery queue that turns an
//! instantaneous healing storm into a budgeted, retrying background
//! process.
//!
//! When the master detects a dead server, every replica it held becomes a
//! [`Repair`] entry. Each tick the cluster drains at most
//! [`RecoveryConfig::budget_per_tick`] entries (attempts, not successes —
//! failed attempts consume budget too, so per-tick work is bounded). An
//! attempt can fail because the chosen destination is actually down
//! (stale heartbeat view), already saturated this tick
//! ([`RecoveryConfig::max_ingest_per_tick`]), or because the distinctness
//! constraints leave no eligible server; failures re-queue with
//! exponential backoff so the queue does not thrash against a degraded
//! cluster.

use std::collections::VecDeque;

/// Rate limits and retry policy of the re-replication pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Repair attempts per tick; `0` means unbounded (every queued repair
    /// is attempted in the tick it becomes due).
    pub budget_per_tick: u32,
    /// Base of the exponential retry backoff in ticks: retry `a` waits
    /// `backoff_base << min(a - 1, 6)` ticks. `0` retries next tick.
    pub backoff_base: u32,
    /// Repairs one destination server accepts per tick; `0` = unbounded.
    /// A full destination rejects the copy, which re-queues with backoff
    /// — "backoff when placement repeatedly lands on overloaded servers".
    pub max_ingest_per_tick: u32,
}

impl RecoveryConfig {
    /// Unbounded instantaneous recovery, as in the synchronous §1.3
    /// model.
    pub const fn unbounded() -> Self {
        Self {
            budget_per_tick: 0,
            backoff_base: 1,
            max_ingest_per_tick: 0,
        }
    }

    /// A budget of `budget_per_tick` repairs per tick with default
    /// backoff and no ingest cap.
    pub const fn budgeted(budget_per_tick: u32) -> Self {
        Self {
            budget_per_tick,
            backoff_base: 1,
            max_ingest_per_tick: 0,
        }
    }

    /// Whether the budget is unbounded.
    pub fn is_unbounded(&self) -> bool {
        self.budget_per_tick == 0
    }

    /// The backoff delay in ticks after `attempts` failed attempts.
    pub fn backoff(&self, attempts: u32) -> u64 {
        u64::from(self.backoff_base) << attempts.saturating_sub(1).min(6)
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// One lost replica awaiting re-replication: chunk id, replica slot, and
/// retry state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repair {
    /// The chunk missing a replica.
    pub chunk: u32,
    /// Which of the chunk's `k` replica slots is being rebuilt.
    pub slot: u16,
    /// Failed attempts so far.
    pub attempts: u32,
    /// Earliest tick the next attempt may run (backoff).
    pub not_before: u64,
}

/// FIFO queue of pending repairs. Entries deferred by backoff or budget
/// keep their relative order.
#[derive(Debug, Clone, Default)]
pub struct RecoveryQueue {
    queue: VecDeque<Repair>,
    peak_len: usize,
}

impl RecoveryQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a fresh repair for `(chunk, slot)`, runnable immediately.
    pub fn push(&mut self, chunk: u32, slot: u16) {
        self.queue.push_back(Repair {
            chunk,
            slot,
            attempts: 0,
            not_before: 0,
        });
        self.peak_len = self.peak_len.max(self.queue.len());
    }

    /// Pending repairs.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no repairs are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The largest backlog ever observed.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Drains up to `config.budget_per_tick` runnable entries at `now`,
    /// invoking `attempt` on each; entries whose backoff has not expired
    /// (and entries beyond the budget) are kept in order. `attempt`
    /// returns `Ok(())` on success or `Err(delay_attempts)` — on error
    /// the entry re-queues with incremented attempts and its backoff
    /// deadline. Returns the number of attempts made.
    ///
    /// The walk stops once the budget is spent, and kept entries are
    /// compacted in place, so a drain touches only the attempted entries
    /// and those still in backoff ahead of them — not the whole backlog.
    pub fn drain<F>(&mut self, now: u64, config: RecoveryConfig, mut attempt: F) -> u32
    where
        F: FnMut(Repair) -> Result<(), ()>,
    {
        let mut attempts_made = 0u32;
        let (mut kept, mut read) = (0usize, 0usize);
        while read < self.queue.len()
            && (config.is_unbounded() || attempts_made < config.budget_per_tick)
        {
            let entry = self.queue[read];
            read += 1;
            let retained = if entry.not_before > now {
                entry
            } else {
                attempts_made += 1;
                match attempt(entry) {
                    Ok(()) => continue,
                    Err(()) => {
                        let attempts = entry.attempts + 1;
                        Repair {
                            attempts,
                            not_before: now + config.backoff(attempts),
                            ..entry
                        }
                    }
                }
            };
            self.queue[kept] = retained;
            kept += 1;
        }
        self.queue.drain(kept..read);
        attempts_made
    }

    /// Removes every pending repair for chunk `chunk` at slot `slot`
    /// (used when a recovering server brings the replica back itself).
    /// Returns how many entries were removed.
    pub fn cancel(&mut self, chunk: u32, slot: u16) -> usize {
        let before = self.queue.len();
        self.queue.retain(|r| !(r.chunk == chunk && r.slot == slot));
        before - self.queue.len()
    }

    /// Iterates the pending repairs (for invariant checking).
    pub fn iter(&self) -> impl Iterator<Item = &Repair> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_bounds_attempts_per_tick() {
        let mut q = RecoveryQueue::new();
        for c in 0..10 {
            q.push(c, 0);
        }
        let cfg = RecoveryConfig::budgeted(3);
        let mut seen = Vec::new();
        let n = q.drain(1, cfg, |r| {
            seen.push(r.chunk);
            Ok(())
        });
        assert_eq!(n, 3);
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(q.len(), 7, "unprocessed entries stay queued");
    }

    #[test]
    fn unbounded_budget_drains_everything_fifo() {
        let mut q = RecoveryQueue::new();
        for c in 0..5 {
            q.push(c, 1);
        }
        let mut seen = Vec::new();
        q.drain(1, RecoveryConfig::unbounded(), |r| {
            seen.push(r.chunk);
            Ok(())
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 5);
    }

    #[test]
    fn failures_requeue_with_exponential_backoff() {
        let mut q = RecoveryQueue::new();
        q.push(7, 0);
        let cfg = RecoveryConfig {
            budget_per_tick: 8,
            backoff_base: 2,
            max_ingest_per_tick: 0,
        };
        // Fails at tick 1: requeued with attempts=1, not_before = 1 + 2.
        assert_eq!(q.drain(1, cfg, |_| Err(())), 1);
        assert_eq!(q.len(), 1);
        let e = *q.iter().next().unwrap();
        assert_eq!(e.attempts, 1);
        assert_eq!(e.not_before, 3);
        // Too early at tick 2: no attempt.
        assert_eq!(q.drain(2, cfg, |_| Err(())), 0);
        // Fails again at 3: backoff doubles (2 << 1 = 4).
        assert_eq!(q.drain(3, cfg, |_| Err(())), 1);
        assert_eq!(q.iter().next().unwrap().not_before, 7);
        // Succeeds at 7.
        assert_eq!(q.drain(7, cfg, |_| Ok(())), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn backoff_is_capped() {
        let cfg = RecoveryConfig {
            budget_per_tick: 1,
            backoff_base: 1,
            max_ingest_per_tick: 0,
        };
        assert_eq!(cfg.backoff(1), 1);
        assert_eq!(cfg.backoff(4), 8);
        assert_eq!(cfg.backoff(100), 64, "backoff saturates at base << 6");
    }

    #[test]
    fn cancel_removes_matching_entries_only() {
        let mut q = RecoveryQueue::new();
        q.push(1, 0);
        q.push(1, 1);
        q.push(2, 0);
        assert_eq!(q.cancel(1, 1), 1);
        assert_eq!(q.len(), 2);
        let chunks: Vec<(u32, u16)> = q.iter().map(|r| (r.chunk, r.slot)).collect();
        assert_eq!(chunks, vec![(1, 0), (2, 0)]);
    }
}
