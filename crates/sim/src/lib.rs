//! A small deterministic discrete-event simulation engine.
//!
//! The paper's two applications (§1.3) — cluster job scheduling and
//! distributed storage — are queueing systems; this crate provides the
//! simulation substrate they share:
//!
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking: events pop in `(time, insertion)` order, time compared
//!   by [`f64::total_cmp`], so runs are bit-reproducible. The heap
//!   compares one integer key per event — the time mapped to a `u64` in
//!   `total_cmp` order, then the insertion sequence number. A loop that
//!   schedules at most one successor per handled event can peek the
//!   earliest event, handle it in place, then either
//!   [`EventQueue::replace_top`] it with the successor (one sift down)
//!   or [`EventQueue::pop`] it; `replace_top` is by definition a pop
//!   followed by a push, so the pop order is the same either way.
//! * [`Clock`] — monotone simulation time.
//! * [`TimeWeighted`] — time-weighted averages for state variables such as
//!   queue lengths.
//!
//! ```
//! use kdchoice_sim::{Clock, EventQueue};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrive(u32), Depart(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(2.0, Ev::Depart(1));
//! q.push(1.0, Ev::Arrive(1));
//! let mut clock = Clock::new();
//! let (t, ev) = q.pop().unwrap();
//! clock.advance_to(t);
//! assert_eq!(ev, Ev::Arrive(1));
//! assert_eq!(clock.now(), 1.0);
//! ```
//!
//! The peek / handle / replace-or-pop loop: each arrival is handled
//! while it is still on top, then replaced by its departure; a departure
//! schedules nothing and is popped.
//!
//! ```
//! use kdchoice_sim::EventQueue;
//!
//! #[derive(Clone, Copy, Debug, PartialEq)]
//! enum Ev { Arrive(u32), Depart(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(1.0, Ev::Arrive(1));
//! q.push(1.5, Ev::Arrive(2));
//! let mut handled = Vec::new();
//! while let Some((t, &ev)) = q.peek() {
//!     handled.push(ev);
//!     match ev {
//!         Ev::Arrive(id) => q.replace_top(t + 1.0, Ev::Depart(id)),
//!         Ev::Depart(_) => q.pop(),
//!     };
//! }
//! use Ev::*;
//! assert_eq!(handled, [Arrive(1), Arrive(2), Depart(1), Depart(2)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Monotone simulation time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Clock {
    now: f64,
}

impl Clock {
    /// A clock at time 0.
    pub fn new() -> Self {
        Self { now: 0.0 }
    }

    /// The current time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time or not finite —
    /// time travel in a discrete-event simulation is always a bug.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t.is_finite(), "non-finite simulation time");
        assert!(t >= self.now, "time went backwards: {} -> {t}", self.now);
        self.now = t;
    }
}

/// Maps `time` to a `u64` whose unsigned order is [`f64::total_cmp`]'s:
/// a negative time has every bit flipped, a non-negative one gains the
/// sign bit. [`time_of_key`] inverts it bit for bit.
#[inline]
fn key_of_time(time: f64) -> u64 {
    let bits = time.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`key_of_time`].
#[inline]
fn time_of_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// An event scheduled at a time, ordered for the min-heap by its integer
/// key `(key_of_time(time), seq)`.
struct Scheduled<E> {
    time_key: u64,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The heap key: the time key in the high half, the insertion
    /// sequence number in the low half.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.time_key) << 64 | u128::from(self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the least key first.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Scheduled<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue.
///
/// Events pop in `(time, insertion)` order, time compared by
/// [`f64::total_cmp`]: the earliest time first, and events with equal
/// timestamps in insertion (FIFO) order, which keeps simulations
/// reproducible across platforms. Under `total_cmp`, `-0.0` sorts before
/// `+0.0`.
///
/// Each pending event carries one integer key, and the heap compares
/// keys only. The key's high 64 bits are the time mapped to a `u64`
/// whose unsigned order is `total_cmp`'s (every bit of a negative time
/// flipped, the sign bit of a non-negative one set); its low 64 bits are
/// the insertion sequence number. [`EventQueue::pop`],
/// [`EventQueue::peek`] and [`EventQueue::peek_time`] recover the pushed
/// time bit for bit from the key.
///
/// A simulation loop that schedules at most one successor per handled
/// event need not pop and push: it [`peek`](EventQueue::peek)s the
/// earliest event, handles it while it stays on top (any event the
/// handler pushes has a later `(time, seq)` key as long as its time is
/// not earlier, so it cannot displace the top), and ends with exactly
/// one of [`replace_top`](EventQueue::replace_top), when the event has a
/// successor, or [`pop`](EventQueue::pop). `replace_top` takes the next
/// sequence number exactly as [`push`](EventQueue::push) does, so it is
/// by definition `let old = q.pop(); q.push(time, event); old`, at the
/// cost of one sift down instead of a sift down and two sift ups.
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    #[inline]
    pub fn push(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "non-finite event time");
        self.heap.push(Scheduled {
            time_key: key_of_time(time),
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event as `(time, event)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| (time_of_key(s.time_key), s.event))
    }

    /// Replaces the earliest event with `event` at `time` and returns the
    /// replaced one as `(time, event)`; on an empty queue it is a plain
    /// [`push`](EventQueue::push) and returns `None`.
    ///
    /// The new event takes the next insertion sequence number exactly as
    /// `push` does, so this is by definition a [`pop`](EventQueue::pop)
    /// followed by a `push`: every later pop returns what it would have
    /// returned then. It costs one sift down of the new event from the
    /// top.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    #[inline]
    pub fn replace_top(&mut self, time: f64, event: E) -> Option<(f64, E)> {
        assert!(time.is_finite(), "non-finite event time");
        let new = Scheduled {
            time_key: key_of_time(time),
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let Some(mut top) = self.heap.peek_mut() else {
            self.heap.push(new);
            return None;
        };
        let old = std::mem::replace(&mut *top, new);
        Some((time_of_key(old.time_key), old.event))
    }

    /// The earliest pending event as `(time, &event)`, left in the queue.
    #[inline]
    pub fn peek(&self) -> Option<(f64, &E)> {
        self.heap
            .peek()
            .map(|s| (time_of_key(s.time_key), &s.event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| time_of_key(s.time_key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

/// A time-weighted running average of a piecewise-constant state variable
/// (e.g. a queue length): each value contributes proportionally to how long
/// it was held.
///
/// ```
/// use kdchoice_sim::TimeWeighted;
///
/// let mut tw = TimeWeighted::new(0.0, 0.0);
/// tw.update(2.0, 10.0); // value 0 held on [0,2)
/// tw.update(4.0, 0.0);  // value 10 held on [2,4)
/// assert_eq!(tw.average(4.0), 5.0);
/// assert_eq!(tw.max(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: f64,
    last_time: f64,
    last_value: f64,
    integral: f64,
    max_value: f64,
}

impl TimeWeighted {
    /// Starts tracking at `start_time` with initial `value`.
    pub fn new(start_time: f64, value: f64) -> Self {
        Self {
            start: start_time,
            last_time: start_time,
            last_value: value,
            integral: 0.0,
            max_value: value,
        }
    }

    /// Records that the variable changed to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previous update.
    pub fn update(&mut self, t: f64, value: f64) {
        assert!(t >= self.last_time, "time went backwards");
        self.integral += self.last_value * (t - self.last_time);
        self.last_time = t;
        self.last_value = value;
        if value > self.max_value {
            self.max_value = value;
        }
    }

    /// The time-weighted average over `[start, end]`. If `end` does not
    /// exceed the start time, returns the current value.
    pub fn average(&self, end: f64) -> f64 {
        let span = end - self.start;
        if span <= 0.0 {
            return self.last_value;
        }
        let total = self.integral + self.last_value * (end - self.last_time);
        total / span
    }

    /// The maximum value seen.
    pub fn max(&self) -> f64 {
        self.max_value
    }

    /// The current (most recently set) value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        c.advance_to(1.5);
        c.advance_to(1.5);
        c.advance_to(2.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn clock_rejects_regression() {
        let mut c = Clock::new();
        c.advance_to(2.0);
        c.advance_to(1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn clock_rejects_nan() {
        let mut c = Clock::new();
        c.advance_to(f64::NAN);
    }

    #[test]
    fn queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 'c');
        q.push(1.0, 'a');
        q.push(2.0, 'b');
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, 'a')));
        assert_eq!(q.pop(), Some((2.0, 'b')));
        assert_eq!(q.pop(), Some((3.0, 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(1.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(10.0, 1);
        q.push(5.0, 0);
        assert_eq!(q.pop(), Some((5.0, 0)));
        q.push(7.0, 2);
        q.push(20.0, 3);
        assert_eq!(q.pop(), Some((7.0, 2)));
        assert_eq!(q.pop(), Some((10.0, 1)));
        assert_eq!(q.pop(), Some((20.0, 3)));
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        q.push(4.0, ());
        assert_eq!(q.peek_time(), Some(4.0));
        q.pop();
        assert_eq!(q.peek_time(), Some(5.0));
    }

    #[test]
    fn replace_top_on_an_empty_queue_is_a_push() {
        let mut q = EventQueue::new();
        assert_eq!(q.replace_top(2.0, 'a'), None);
        assert_eq!(q.len(), 1);
        // It took a sequence number as `push` does, so a later push at
        // the same time pops behind it.
        assert_eq!(q.seq, 1);
        q.push(2.0, 'b');
        assert_eq!(q.pop(), Some((2.0, 'a')));
        assert_eq!(q.pop(), Some((2.0, 'b')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_agrees_with_peek_time_and_the_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        for (t, label) in [(3.0, 'c'), (-0.0, 'z'), (1.0, 'a'), (1.0, 'b'), (0.0, 'p')] {
            q.push(t, label);
        }
        while let Some((t, &label)) = q.peek() {
            assert_eq!(q.peek_time().map(f64::to_bits), Some(t.to_bits()));
            let (popped_t, popped) = q.pop().expect("peeked");
            assert_eq!((popped_t.to_bits(), popped), (t.to_bits(), label));
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn replace_top_returns_the_old_top() {
        let mut q = EventQueue::new();
        q.push(1.0, 'a');
        q.push(5.0, 'e');
        q.push(1.0, 'b');
        // The successor sinks below the tied event pushed before it.
        assert_eq!(q.replace_top(1.0, 'c'), Some((1.0, 'a')));
        assert_eq!(q.replace_top(7.0, 'g'), Some((1.0, 'b')));
        assert_eq!(q.replace_top(0.5, 'x'), Some((1.0, 'c')));
        assert_eq!(q.seq, 6, "one sequence number per push or replace_top");
        for expected in [(0.5, 'x'), (5.0, 'e'), (7.0, 'g')] {
            assert_eq!(q.pop(), Some(expected));
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn replace_top_rejects_infinite_times() {
        let mut q = EventQueue::new();
        q.push(1.0, ());
        q.replace_top(f64::INFINITY, ());
    }

    #[test]
    fn negative_zero_pops_before_positive_zero_pushed_earlier() {
        let mut q = EventQueue::new();
        q.push(0.0, "pos");
        q.push(-0.0, "neg");
        q.push(-1.0, "minus_one");
        for expected in [-1.0f64, -0.0, 0.0] {
            let peeked = q.peek_time().expect("pending");
            let (time, _) = q.pop().expect("pending");
            assert_eq!(peeked.to_bits(), time.to_bits());
            assert_eq!(time.to_bits(), expected.to_bits());
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn time_keys_round_trip_and_follow_total_cmp() {
        let times = [
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
        ];
        for pair in times.windows(2) {
            assert!(key_of_time(pair[0]) < key_of_time(pair[1]), "{pair:?}");
        }
        for t in times {
            assert_eq!(time_of_key(key_of_time(t)).to_bits(), t.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn queue_rejects_nan_times() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn debug_impl_is_nonempty() {
        let mut q = EventQueue::new();
        q.push(1.0, 7u8);
        let s = format!("{q:?}");
        assert!(s.contains("pending"));
    }

    #[test]
    fn time_weighted_piecewise_average() {
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.update(1.0, 3.0); // 1 held on [0,1)
        tw.update(3.0, 0.0); // 3 held on [1,3)
                             // avg over [0,4] = (1*1 + 3*2 + 0*1)/4 = 7/4.
        assert!((tw.average(4.0) - 1.75).abs() < 1e-12);
        assert_eq!(tw.max(), 3.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_no_updates_is_constant() {
        let tw = TimeWeighted::new(2.0, 5.0);
        assert_eq!(tw.average(10.0), 5.0);
        assert_eq!(tw.average(2.0), 5.0); // degenerate span
        assert_eq!(tw.average(1.0), 5.0); // before start
    }

    #[test]
    fn time_weighted_nonzero_start() {
        let mut tw = TimeWeighted::new(10.0, 2.0);
        tw.update(12.0, 4.0);
        // avg over [10,14] = (2*2 + 4*2)/4 = 3.
        assert!((tw.average(14.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_regression() {
        let mut tw = TimeWeighted::new(5.0, 0.0);
        tw.update(4.0, 1.0);
    }
}
