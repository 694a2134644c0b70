//! Open-loop traffic generation on a virtual clock.
//!
//! The closed-loop workloads of PR 3 are self-pacing: clients block on
//! each placement, so the service can never fall behind. This module is
//! the opposite regime — "heavy traffic from millions of users": requests
//! arrive on their own schedule (Poisson, deterministic bursts, or an
//! on/off process), wait in a FIFO queue, are committed at a bounded
//! service rate, and the balls they place depart after a sampled
//! lifetime (the §7 infinite/dynamic process).
//!
//! Everything here runs on a **virtual clock**: time advances in integer
//! ticks, and the entire arrival/commit/departure schedule is a pure
//! function of `(TrafficConfig, seed)` — generated single-threaded,
//! before any placement happens. The placement pipeline that executes
//! the schedule (`crate::run_open_loop`) may batch requests and fan out
//! across threads, but it cannot change the event stream: that guarantee
//! is locked by the determinism proptests in
//! `tests/traffic_determinism.rs` (mirroring the `derive_seed` contract
//! of the experiment layer).
//!
//! Queueing semantics per tick `t`:
//!
//! 1. new requests arrive (the arrival process is sampled once per tick)
//!    and join the FIFO queue;
//! 2. up to [`TrafficConfig::service_rate`] queued requests are committed
//!    (oldest first), each recording `commit_tick = t`;
//! 3. every ball of a request committed at tick `c` departs at tick
//!    `c + lifetime` (lifetimes are at least one tick).
//!
//! Per-request **latency** is `commit_tick − arrival_tick`, in ticks —
//! zero while the system keeps up, growing without bound once the
//! arrival rate exceeds the service rate.

use kdchoice_core::ConfigError;
use kdchoice_prng::dist::{Exponential, Poisson};
use kdchoice_prng::Xoshiro256PlusPlus;

/// How requests arrive, per tick of the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: the number of requests arriving in a tick is
    /// `Poisson(rate)`, independently per tick (`rate > 0`, requests per
    /// tick).
    Poisson {
        /// Mean arrivals per tick.
        rate: f64,
    },
    /// Deterministic bursts: `size` requests arrive together every
    /// `period` ticks (at ticks `0, period, 2·period, …`), nothing in
    /// between. Same mean rate as `Poisson { rate: size / period }` but
    /// maximally bursty at the tick scale.
    Burst {
        /// Ticks between bursts (`≥ 1`).
        period: u32,
        /// Requests per burst.
        size: u64,
    },
    /// An on/off (interrupted Poisson) process: `Poisson(rate)` arrivals
    /// during the first `on` ticks of every `on + off` tick cycle,
    /// silence during the remaining `off` ticks. Mean rate is
    /// `rate · on / (on + off)`.
    OnOff {
        /// Mean arrivals per tick while the source is on.
        rate: f64,
        /// Length of the on phase in ticks (`≥ 1`).
        on: u32,
        /// Length of the off phase in ticks.
        off: u32,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate in requests per tick.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Burst { period, size } => size as f64 / f64::from(period),
            // Summed in f64: `on + off` may exceed u32 on configs that
            // have not passed `validate()` yet.
            ArrivalProcess::OnOff { rate, on, off } => {
                rate * f64::from(on) / (f64::from(on) + f64::from(off))
            }
        }
    }

    /// Validates the parameters; the error names the offending field.
    pub fn validate(&self) -> Result<(), TrafficError> {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(TrafficError::new("poisson arrival rate", "finite and > 0"));
                }
            }
            ArrivalProcess::Burst { period, size } => {
                if period == 0 {
                    return Err(TrafficError::new("burst period", "at least 1 tick"));
                }
                if size == 0 {
                    return Err(TrafficError::new("burst size", "at least 1"));
                }
            }
            ArrivalProcess::OnOff { rate, on, off } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(TrafficError::new("on/off rate", "finite and > 0"));
                }
                if on == 0 {
                    return Err(TrafficError::new("on phase", "at least 1 tick"));
                }
                if on.checked_add(off).is_none() {
                    return Err(TrafficError::new(
                        "on + off cycle",
                        "at most u32::MAX ticks",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// How long each request's balls stay in their bins, counted from the
/// commit tick. Lifetimes are always at least one tick, so a departure
/// is strictly later than its commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifetime {
    /// Exponential lifetimes with the given mean (in ticks), rounded up
    /// to whole ticks.
    Exponential {
        /// Mean lifetime in ticks (`> 0`).
        mean: f64,
    },
    /// Every ball lives exactly this many ticks (`≥ 1`).
    Deterministic {
        /// Lifetime in ticks.
        ticks: u32,
    },
}

impl Lifetime {
    /// The mean lifetime in ticks.
    pub fn mean_ticks(&self) -> f64 {
        match *self {
            Lifetime::Exponential { mean } => mean,
            Lifetime::Deterministic { ticks } => f64::from(ticks),
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), TrafficError> {
        match *self {
            Lifetime::Exponential { mean } => {
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(TrafficError::new(
                        "exponential lifetime mean",
                        "finite and > 0",
                    ));
                }
            }
            Lifetime::Deterministic { ticks } => {
                if ticks == 0 {
                    return Err(TrafficError::new(
                        "deterministic lifetime",
                        "at least 1 tick",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// An invalid traffic configuration: the offending field and what it
/// must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficError {
    name: &'static str,
    need: &'static str,
}

impl TrafficError {
    fn new(name: &'static str, need: &'static str) -> Self {
        Self { name, need }
    }
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid traffic config: {} must be {}",
            self.name, self.need
        )
    }
}

impl std::error::Error for TrafficError {}

/// A traffic field out of range, as the open-loop config reports it
/// ([`crate::OpenLoopConfig::validate`]).
impl From<TrafficError> for ConfigError {
    fn from(e: TrafficError) -> Self {
        ConfigError::OutOfRange {
            name: e.name,
            need: e.need,
        }
    }
}

/// Configuration of one open-loop traffic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// The ball-lifetime distribution.
    pub lifetime: Lifetime,
    /// Virtual ticks to simulate.
    pub ticks: u32,
    /// Maximum requests committed per tick — the service **capacity**
    /// the λ sweep is expressed against (`λ = mean arrival rate /
    /// service_rate`).
    pub service_rate: u32,
}

impl TrafficConfig {
    /// The offered load `λ` as a fraction of capacity: mean arrivals per
    /// tick over [`TrafficConfig::service_rate`]. Above 1 the queue —
    /// and therefore latency — grows without bound.
    pub fn lambda_factor(&self) -> f64 {
        self.arrivals.mean_rate() / f64::from(self.service_rate)
    }

    /// Validates every field, and that the trace's expected arrivals
    /// over `ticks` fit the `u32` request-id space: Poisson
    /// `rate · ticks`, burst `size · ⌈ticks / period⌉`, on/off
    /// `rate · (ticks spent on)`. The error names the field that sets
    /// the count.
    pub fn validate(&self) -> Result<(), TrafficError> {
        self.arrivals.validate()?;
        self.lifetime.validate()?;
        if self.ticks == 0 {
            return Err(TrafficError::new("ticks", "at least 1"));
        }
        if self.service_rate == 0 {
            return Err(TrafficError::new("service rate", "at least 1 per tick"));
        }
        let (field, expected) = self.expected_arrivals();
        if expected > MAX_REQUESTS as f64 {
            return Err(TrafficError::new(field, TOO_MANY_REQUESTS));
        }
        Ok(())
    }

    /// The arrival field that sets the trace's request count, and the
    /// expected count over `ticks`. Exact in `f64` for any count within
    /// [`MAX_REQUESTS`], and at least `2^32` for any count beyond it.
    /// Call after [`ArrivalProcess::validate`] (periods and cycles are
    /// then non-zero and fit `u32`).
    fn expected_arrivals(&self) -> (&'static str, f64) {
        let ticks = self.ticks;
        match self.arrivals {
            ArrivalProcess::Poisson { rate } => ("poisson arrival rate", rate * f64::from(ticks)),
            ArrivalProcess::Burst { period, size } => (
                "burst size",
                size as f64 * f64::from(ticks.div_ceil(period)),
            ),
            ArrivalProcess::OnOff { rate, on, off } => {
                let cycle = on + off;
                let on_ticks =
                    u64::from(ticks / cycle) * u64::from(on) + u64::from((ticks % cycle).min(on));
                ("on/off rate", rate * on_ticks as f64)
            }
        }
    }
}

/// The most requests one trace may hold: ids are `u32`, assigned in
/// arrival order from 0.
const MAX_REQUESTS: u64 = u32::MAX as u64;

/// What [`TrafficConfig::validate`] and [`TrafficSchedule::generate`]
/// require of a trace's request count.
const TOO_MANY_REQUESTS: &str = "small enough for the trace's arrivals to fit u32 request ids";

/// Sentinel commit tick for requests still queued when the clock stops.
const NEVER: u32 = u32::MAX;

/// The virtual-clock timeline of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// The tick the request arrived (joined the queue).
    pub arrival_tick: u32,
    /// The tick the request was committed, or `u32::MAX` if the clock
    /// stopped while it was still queued (see
    /// [`RequestTiming::committed`]).
    pub commit_tick: u32,
    /// The sampled lifetime in ticks (`≥ 1`); balls depart at
    /// `commit_tick + lifetime`.
    pub lifetime: u32,
}

impl RequestTiming {
    /// Whether the request was committed before the clock stopped.
    pub fn committed(&self) -> bool {
        self.commit_tick != NEVER
    }

    /// Queueing latency in ticks (`commit − arrival`); `None` while
    /// uncommitted.
    pub fn latency(&self) -> Option<u32> {
        self.committed()
            .then(|| self.commit_tick - self.arrival_tick)
    }

    /// The departure tick, or `None` while uncommitted. Saturates at
    /// `u32::MAX − 1` (such balls simply never depart within any run).
    pub fn depart_tick(&self) -> Option<u32> {
        self.committed().then(|| {
            self.commit_tick
                .saturating_add(self.lifetime)
                .min(NEVER - 1)
        })
    }
}

/// A fully materialized open-loop schedule: every request's arrival,
/// commit, and departure tick, plus per-tick indices the placement
/// pipeline drains. Pure function of `(TrafficConfig, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSchedule {
    /// Per-request timings, indexed by request id (ids are assigned in
    /// arrival order — FIFO order is id order).
    pub timings: Vec<RequestTiming>,
    /// `commit_ranges[t]` is the contiguous id range committed at tick
    /// `t` (FIFO ⇒ commits are always a contiguous id window).
    pub commit_ranges: Vec<(u32, u32)>,
    /// `departures[t]` lists the ids whose balls depart at tick `t`
    /// (ascending id order within a tick).
    pub departures: Vec<Vec<u32>>,
}

impl TrafficSchedule {
    /// Generates the schedule for `config` from `seed`.
    ///
    /// Single-threaded and batch-free by construction: one RNG stream
    /// samples, per tick, the arrival count and then one lifetime per
    /// arrival. The FIFO/`service_rate` queue discipline then fixes
    /// every commit tick, so the whole event stream is independent of
    /// how the placement pipeline later executes it.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError`] if the config is invalid, or if the
    /// realised arrivals outgrow the `u32` request ids that validation
    /// admitted on their expected count (a Poisson draw above its mean);
    /// the arrivals that would overflow are never materialized.
    pub fn generate(config: &TrafficConfig, seed: u64) -> Result<Self, TrafficError> {
        config.validate()?;
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        // Distributions are constructed once so the stream layout is a
        // stable part of the determinism contract.
        let poisson = match config.arrivals {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::OnOff { rate, .. } => {
                Some(Poisson::new(rate).expect("validated rate"))
            }
            ArrivalProcess::Burst { .. } => None,
        };
        let exponential = match config.lifetime {
            Lifetime::Exponential { mean } => {
                Some(Exponential::new(1.0 / mean).expect("validated mean"))
            }
            Lifetime::Deterministic { .. } => None,
        };

        let ticks = config.ticks as usize;
        let mut timings: Vec<RequestTiming> = Vec::new();
        let mut commit_ranges: Vec<(u32, u32)> = Vec::with_capacity(ticks);
        let mut departures: Vec<Vec<u32>> = vec![Vec::new(); ticks];
        let mut queue_head = 0usize; // id of the oldest uncommitted request

        for t in 0..config.ticks {
            // 1. Arrivals join the queue (and sample their lifetimes now,
            //    in id order — the stream layout batching must not change).
            let arriving = match config.arrivals {
                ArrivalProcess::Poisson { .. } => {
                    poisson.expect("poisson arrivals").sample(&mut rng)
                }
                ArrivalProcess::Burst { period, size } => {
                    if t % period == 0 {
                        size
                    } else {
                        0
                    }
                }
                ArrivalProcess::OnOff { on, off, .. } => {
                    if t % (on + off) < on {
                        poisson.expect("on/off arrivals").sample(&mut rng)
                    } else {
                        0
                    }
                }
            };
            if timings.len() as u64 + arriving > MAX_REQUESTS {
                return Err(TrafficError::new(
                    config.expected_arrivals().0,
                    TOO_MANY_REQUESTS,
                ));
            }
            for _ in 0..arriving {
                let lifetime = match config.lifetime {
                    Lifetime::Exponential { .. } => {
                        let x = exponential.expect("exponential lifetimes").sample(&mut rng);
                        (x.ceil() as u32).max(1)
                    }
                    Lifetime::Deterministic { ticks } => ticks,
                };
                timings.push(RequestTiming {
                    arrival_tick: t,
                    commit_tick: NEVER,
                    lifetime,
                });
            }

            // 2. Commit up to service_rate queued requests, oldest first.
            let serve = (timings.len() - queue_head).min(config.service_rate as usize);
            let start = queue_head as u32;
            for _ in 0..serve {
                let timing = &mut timings[queue_head];
                timing.commit_tick = t;
                if let Some(depart) = timing.depart_tick() {
                    if (depart as usize) < ticks {
                        departures[depart as usize].push(queue_head as u32);
                    }
                }
                queue_head += 1;
            }
            commit_ranges.push((start, queue_head as u32));
        }

        Ok(Self {
            timings,
            commit_ranges,
            departures,
        })
    }

    /// Total requests that arrived.
    pub fn arrived(&self) -> u64 {
        self.timings.len() as u64
    }

    /// Requests committed before the clock stopped.
    pub fn committed(&self) -> u64 {
        self.commit_ranges
            .last()
            .map_or(0, |&(_, end)| u64::from(end))
    }

    /// Requests still queued when the clock stopped (`arrived −
    /// committed`) — the overload backlog.
    pub fn backlog(&self) -> u64 {
        self.arrived() - self.committed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_config(rate: f64, ticks: u32, service_rate: u32) -> TrafficConfig {
        TrafficConfig {
            arrivals: ArrivalProcess::Poisson { rate },
            lifetime: Lifetime::Exponential { mean: 8.0 },
            ticks,
            service_rate,
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        for bad in [
            ArrivalProcess::Poisson { rate: 0.0 },
            ArrivalProcess::Poisson { rate: f64::NAN },
            ArrivalProcess::Burst { period: 0, size: 1 },
            ArrivalProcess::Burst { period: 4, size: 0 },
            ArrivalProcess::OnOff {
                rate: -1.0,
                on: 1,
                off: 1,
            },
            ArrivalProcess::OnOff {
                rate: 1.0,
                on: 0,
                off: 1,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        assert!(Lifetime::Exponential { mean: 0.0 }.validate().is_err());
        assert!(Lifetime::Deterministic { ticks: 0 }.validate().is_err());
        let mut cfg = poisson_config(2.0, 0, 1);
        assert!(cfg.validate().is_err());
        cfg.ticks = 1;
        cfg.service_rate = 0;
        assert!(cfg.validate().is_err());
        cfg.service_rate = 1;
        assert!(cfg.validate().is_ok());
        let err = TrafficSchedule::generate(&poisson_config(0.0, 1, 1), 0).unwrap_err();
        assert!(err.to_string().contains("arrival rate"));
    }

    /// A trace whose expected arrivals outgrow the `u32` ids is rejected
    /// on the field that sets the count, before any schedule exists.
    #[test]
    fn validation_rejects_traces_past_the_request_id_space() {
        let limit = MAX_REQUESTS as f64;
        let with = |arrivals, ticks| TrafficConfig {
            arrivals,
            ticks,
            ..poisson_config(1.0, 1, 1)
        };
        for (arrivals, ticks, field) in [
            (
                ArrivalProcess::Poisson { rate: 1e300 },
                1,
                "poisson arrival rate",
            ),
            (
                ArrivalProcess::Poisson {
                    rate: limit / 4.0 + 1.0,
                },
                4,
                "poisson arrival rate",
            ),
            (
                ArrivalProcess::Burst {
                    period: 1,
                    size: u64::MAX,
                },
                1,
                "burst size",
            ),
            // Bursts at ticks 0 and 16: two of them.
            (
                ArrivalProcess::Burst {
                    period: 16,
                    size: MAX_REQUESTS / 2 + 1,
                },
                17,
                "burst size",
            ),
            // On at ticks 0..4 and 16..18: six on-ticks.
            (
                ArrivalProcess::OnOff {
                    rate: limit / 6.0 + 1.0,
                    on: 4,
                    off: 12,
                },
                18,
                "on/off rate",
            ),
        ] {
            let err = with(arrivals, ticks).validate().unwrap_err();
            assert_eq!(
                err,
                TrafficError::new(field, TOO_MANY_REQUESTS),
                "{arrivals:?}"
            );
        }
        // The same shapes at the limit pass.
        for (arrivals, ticks) in [
            (ArrivalProcess::Poisson { rate: limit / 4.0 }, 4),
            (
                ArrivalProcess::Burst {
                    period: 16,
                    size: MAX_REQUESTS / 2,
                },
                17,
            ),
            (
                ArrivalProcess::OnOff {
                    rate: limit / 6.0,
                    on: 4,
                    off: 12,
                },
                18,
            ),
        ] {
            assert_eq!(with(arrivals, ticks).validate(), Ok(()), "{arrivals:?}");
        }
    }

    /// A Poisson trace whose expected count sits at the limit passes
    /// validation, and a seed whose first draw lands above it makes
    /// `generate` fail before it materializes a request.
    #[test]
    fn generate_rejects_a_realised_count_past_the_request_id_space() {
        let rate = MAX_REQUESTS as f64;
        let cfg = poisson_config(rate, 1, 1);
        assert_eq!(cfg.validate(), Ok(()));
        let poisson = Poisson::new(rate).unwrap();
        let seed = (0..64)
            .find(|&seed| poisson.sample(&mut Xoshiro256PlusPlus::from_u64(seed)) > MAX_REQUESTS)
            .expect("about half of all draws exceed the mean");
        let err = TrafficSchedule::generate(&cfg, seed).unwrap_err();
        assert_eq!(
            err,
            TrafficError::new("poisson arrival rate", TOO_MANY_REQUESTS)
        );
    }

    #[test]
    fn mean_rates() {
        assert_eq!(ArrivalProcess::Poisson { rate: 3.5 }.mean_rate(), 3.5);
        assert_eq!(
            ArrivalProcess::Burst {
                period: 4,
                size: 10
            }
            .mean_rate(),
            2.5
        );
        assert_eq!(
            ArrivalProcess::OnOff {
                rate: 4.0,
                on: 1,
                off: 3
            }
            .mean_rate(),
            1.0
        );
        assert_eq!(poisson_config(2.0, 10, 4).lambda_factor(), 0.5);
        // mean_rate is callable before validate(): the u32 cycle sum may
        // overflow, but the f64 arithmetic must not.
        let huge = ArrivalProcess::OnOff {
            rate: 1.0,
            on: u32::MAX,
            off: 1,
        };
        assert!(huge.mean_rate().is_finite());
        assert!((huge.mean_rate() - 1.0).abs() < 1e-9);
        assert!(huge.validate().is_err(), "cycle overflow still rejected");
    }

    #[test]
    fn fifo_commit_ranges_are_contiguous_and_capacity_bounded() {
        let cfg = poisson_config(3.0, 200, 2);
        let s = TrafficSchedule::generate(&cfg, 7).unwrap();
        assert_eq!(s.commit_ranges.len(), 200);
        let mut prev_end = 0u32;
        for (t, &(start, end)) in s.commit_ranges.iter().enumerate() {
            assert_eq!(start, prev_end, "tick {t}: commits must be FIFO-contiguous");
            assert!(end - start <= 2, "tick {t}: served more than service_rate");
            for id in start..end {
                let timing = s.timings[id as usize];
                assert_eq!(timing.commit_tick, t as u32);
                assert!(timing.arrival_tick <= t as u32, "committed before arrival");
            }
            prev_end = end;
        }
        assert_eq!(s.committed() + s.backlog(), s.arrived());
        // λ = 1.5: the queue must actually fall behind.
        assert!(s.backlog() > 0, "overloaded run should leave a backlog");
    }

    #[test]
    fn latencies_zero_when_underloaded_positive_when_overloaded() {
        let calm = TrafficSchedule::generate(&poisson_config(0.5, 300, 4), 3).unwrap();
        assert!(calm
            .timings
            .iter()
            .filter(|t| t.committed())
            .all(|t| t.latency() == Some(0)));

        let slammed = TrafficSchedule::generate(&poisson_config(8.0, 300, 4), 3).unwrap();
        let max_latency = slammed
            .timings
            .iter()
            .filter_map(|t| t.latency())
            .max()
            .unwrap();
        assert!(max_latency > 10, "overload must build queueing delay");
    }

    #[test]
    fn departures_listed_at_commit_plus_lifetime() {
        let cfg = TrafficConfig {
            arrivals: ArrivalProcess::Poisson { rate: 2.0 },
            lifetime: Lifetime::Deterministic { ticks: 5 },
            ticks: 60,
            service_rate: 3,
        };
        let s = TrafficSchedule::generate(&cfg, 11).unwrap();
        let mut seen = 0u64;
        for (t, ids) in s.departures.iter().enumerate() {
            for &id in ids {
                let timing = s.timings[id as usize];
                assert_eq!(timing.depart_tick(), Some(t as u32));
                assert_eq!(t as u32, timing.commit_tick + 5);
                seen += 1;
            }
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted per tick");
        }
        let expected: u64 = s
            .timings
            .iter()
            .filter(|t| t.depart_tick().is_some_and(|d| (d as usize) < 60))
            .count() as u64;
        assert_eq!(seen, expected);
    }

    #[test]
    fn burst_process_is_deterministic_and_consumes_no_rng() {
        let cfg = TrafficConfig {
            arrivals: ArrivalProcess::Burst { period: 8, size: 5 },
            lifetime: Lifetime::Deterministic { ticks: 3 },
            ticks: 33,
            service_rate: 2,
        };
        // Fully deterministic traffic: any two seeds agree.
        let a = TrafficSchedule::generate(&cfg, 1).unwrap();
        let b = TrafficSchedule::generate(&cfg, 999).unwrap();
        assert_eq!(a, b);
        // 5 bursts (ticks 0, 8, 16, 24, 32) of 5 requests.
        assert_eq!(a.arrived(), 25);
        assert!(a.timings.iter().all(|t| t.arrival_tick % 8 == 0));
    }

    #[test]
    fn on_off_is_silent_in_the_off_phase() {
        let cfg = TrafficConfig {
            arrivals: ArrivalProcess::OnOff {
                rate: 6.0,
                on: 4,
                off: 12,
            },
            lifetime: Lifetime::Exponential { mean: 4.0 },
            ticks: 160,
            service_rate: 100,
        };
        let s = TrafficSchedule::generate(&cfg, 5).unwrap();
        assert!(s.arrived() > 0);
        for timing in &s.timings {
            assert!(
                timing.arrival_tick % 16 < 4,
                "arrival at tick {} falls in the off phase",
                timing.arrival_tick
            );
        }
    }

    #[test]
    fn same_seed_same_schedule_different_seed_differs() {
        let cfg = poisson_config(4.0, 100, 3);
        let a = TrafficSchedule::generate(&cfg, 42).unwrap();
        let b = TrafficSchedule::generate(&cfg, 42).unwrap();
        assert_eq!(a, b);
        let c = TrafficSchedule::generate(&cfg, 43).unwrap();
        assert_ne!(a, c, "400-odd Poisson draws colliding is ~impossible");
    }
}
