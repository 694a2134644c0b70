//! Heartbeats: periodic load reports and missed-heartbeat failure
//! detection.
//!
//! Chunkservers report their load to the master every
//! [`HeartbeatConfig::period`] ticks; placement probes read these
//! possibly-stale snapshots instead of true loads, so probe decisions act
//! on stale information exactly like the distributed rounds of the
//! 1-2-3-Toolkit model (PAPERS.md). A server that stops heartbeating is
//! only marked dead after [`HeartbeatConfig::timeout_beats`] reporting
//! periods pass with no report — the *detection latency* observable.
//!
//! `period == 0` is the synchronous degenerate mode: snapshots always
//! equal true loads and crashes are detected in the same tick, as the
//! synchronous §1.3 model of `ClusterConfig::legacy_compat` requires.

/// Heartbeat timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Ticks between load reports. `0` = synchronous: placement reads
    /// true loads and failures are detected instantly.
    pub period: u32,
    /// Full missed periods tolerated before a silent server is declared
    /// dead; the detection deadline is `last_heard + period * (timeout_beats + 1)`.
    pub timeout_beats: u32,
}

impl HeartbeatConfig {
    /// The synchronous configuration: no staleness, instant detection.
    pub const fn synchronous() -> Self {
        Self {
            period: 0,
            timeout_beats: 0,
        }
    }

    /// A heartbeat every `period` ticks with `timeout_beats` tolerated
    /// misses.
    pub const fn new(period: u32, timeout_beats: u32) -> Self {
        Self {
            period,
            timeout_beats,
        }
    }
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        Self::synchronous()
    }
}

/// The master's per-server heartbeat state: last reported load and the
/// tick it was last heard from.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatTable {
    reported: Vec<u32>,
    last_heard: Vec<u64>,
}

impl HeartbeatTable {
    /// A table for `servers` servers, all considered heard at tick 0 with
    /// zero load.
    pub fn new(servers: usize) -> Self {
        Self {
            reported: vec![0; servers],
            last_heard: vec![0; servers],
        }
    }

    /// Registers one more server (a node join), heard `now` with zero load.
    pub fn push(&mut self, now: u64) {
        self.reported.push(0);
        self.last_heard.push(now);
    }

    /// Records a heartbeat from `server` carrying its current `load`.
    pub fn report(&mut self, server: usize, load: u32, now: u64) {
        self.reported[server] = load;
        self.last_heard[server] = now;
    }

    /// Raises the tick `server` was last heard from to at least `tick`,
    /// keeping its reported load. A server whose load has not changed
    /// since its last report need not send its periodic reports one by
    /// one; this records the latest of them in one step.
    pub(crate) fn heard_at_least(&mut self, server: usize, tick: u64) {
        let heard = &mut self.last_heard[server];
        *heard = (*heard).max(tick);
    }

    /// The last load `server` reported (possibly stale).
    pub fn snapshot(&self, server: usize) -> u32 {
        self.reported[server]
    }

    /// The tick `server` was last heard from.
    pub fn last_heard(&self, server: usize) -> u64 {
        self.last_heard[server]
    }

    /// Whether the master should declare `server` dead at `now`: it has
    /// been silent past the timeout deadline. With `period == 0` any
    /// silence (a crashed server) is overdue immediately.
    pub fn overdue(&self, server: usize, now: u64, config: HeartbeatConfig) -> bool {
        if config.period == 0 {
            return true;
        }
        let deadline = u64::from(config.period) * (u64::from(config.timeout_beats) + 1);
        now.saturating_sub(self.last_heard[server]) > deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_mode_is_always_overdue() {
        let table = HeartbeatTable::new(2);
        assert!(table.overdue(0, 0, HeartbeatConfig::synchronous()));
        assert!(table.overdue(1, 100, HeartbeatConfig::synchronous()));
    }

    #[test]
    fn detection_waits_for_the_timeout_deadline() {
        let config = HeartbeatConfig::new(5, 1);
        let mut table = HeartbeatTable::new(1);
        table.report(0, 7, 10);
        // Deadline = last_heard + period * (timeout_beats + 1) = 10 + 10.
        assert!(!table.overdue(0, 15, config));
        assert!(!table.overdue(0, 20, config));
        assert!(table.overdue(0, 21, config));
        assert_eq!(table.snapshot(0), 7);
    }

    #[test]
    fn fresh_reports_reset_the_clock_and_the_snapshot() {
        let config = HeartbeatConfig::new(2, 0);
        let mut table = HeartbeatTable::new(1);
        table.report(0, 3, 4);
        assert!(!table.overdue(0, 6, config));
        assert!(table.overdue(0, 7, config));
        table.report(0, 9, 6);
        assert!(!table.overdue(0, 8, config));
        assert_eq!(table.snapshot(0), 9);
        assert_eq!(table.last_heard(0), 6);
    }

    #[test]
    fn heard_at_least_only_moves_the_clock_forward() {
        let mut table = HeartbeatTable::new(1);
        table.report(0, 5, 8);
        table.heard_at_least(0, 6);
        assert_eq!(table.last_heard(0), 8);
        table.heard_at_least(0, 10);
        assert_eq!(table.last_heard(0), 10);
        assert_eq!(table.snapshot(0), 5);
    }

    #[test]
    fn joins_extend_the_table() {
        let mut table = HeartbeatTable::new(1);
        table.push(42);
        assert_eq!(table.last_heard(1), 42);
        assert_eq!(table.snapshot(1), 0);
    }
}
