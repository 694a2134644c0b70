//! Property-based tests of the discrete-event engine against a reference
//! model.

use kdchoice_sim::{EventQueue, TimeWeighted};
use proptest::prelude::*;

/// The edge cases of the time-key mapping.
const EDGE_TIMES: [f64; 10] = [
    0.0,
    -0.0,
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    1.0,
    -1.0,
];

/// Finite `f64`s: the edge cases (both zeros, the extremes, the smallest
/// subnormals and normals) and small integers, which repeat and so make
/// ties, mixed with arbitrary bit patterns of every sign, exponent and
/// mantissa. A non-finite pattern has its lowest exponent bit cleared,
/// which makes it finite.
fn finite_time() -> impl Strategy<Value = f64> {
    (0usize..16, any::<u64>()).prop_map(|(pick, bits)| match pick {
        0..=9 => EDGE_TIMES[pick],
        10 | 11 => (bits % 9) as f64 - 4.0,
        _ => {
            let t = f64::from_bits(bits);
            if t.is_finite() {
                t
            } else {
                f64::from_bits(bits ^ 1 << 52)
            }
        }
    })
}

proptest! {
    /// The queue pops events in nondecreasing time order, FIFO within ties,
    /// and returns exactly the pushed multiset.
    #[test]
    fn queue_matches_stable_sort_reference(times in prop::collection::vec(0u32..50, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(f64::from(t), i);
        }
        // Reference: stable sort by time preserves insertion order in ties.
        let mut reference: Vec<(f64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (f64::from(t), i)).collect();
        reference.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev);
        }
        prop_assert_eq!(popped, reference);
        prop_assert!(q.is_empty());
    }

    /// Over arbitrary finite times — negatives, `±0.0`, subnormals and
    /// `±f64::MAX` — events pop in `(total_cmp(time), insertion)` order
    /// and every popped time is bit-equal to the pushed one, with
    /// `peek_time` agreeing with each `pop`.
    #[test]
    fn arbitrary_finite_times_pop_in_total_order_bit_exact(
        times in prop::collection::vec(finite_time(), 0..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t.to_bits(), i)).collect();
        reference.sort_by(|a, b| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)));
        let mut popped = Vec::new();
        while let Some(peeked) = q.peek_time() {
            let (t, i) = q.pop().unwrap();
            prop_assert_eq!(peeked.to_bits(), t.to_bits());
            popped.push((t.to_bits(), i));
        }
        prop_assert_eq!(popped, reference);
    }

    /// Interleaved push/pop never yields out-of-order events when pushes
    /// are at or after the last popped time (the DES contract).
    #[test]
    fn interleaved_operations_stay_ordered(ops in prop::collection::vec((0u32..100, any::<bool>()), 0..200)) {
        let mut q = EventQueue::new();
        let mut last_popped = 0.0f64;
        let mut pending = 0usize;
        for (t, is_push) in ops {
            if is_push || pending == 0 {
                // Schedule in the future of the last pop.
                let time = last_popped + f64::from(t);
                q.push(time, ());
                pending += 1;
            } else {
                let (time, ()) = q.pop().unwrap();
                prop_assert!(time >= last_popped);
                last_popped = time;
                pending -= 1;
            }
            prop_assert_eq!(q.len(), pending);
        }
    }

    /// FIFO tie-breaking at equal timestamps survives interleaved pops:
    /// the seq-number disambiguation is global across the queue's
    /// lifetime, not per-batch, so events pushed at the same time *after*
    /// earlier ties were drained still pop behind nothing they followed.
    /// The scheduler migration rewired its event wiring around this exact
    /// guarantee; this test locks it.
    #[test]
    fn fifo_ties_survive_interleaved_pops(
        batch_sizes in prop::collection::vec(1usize..8, 1..30),
        pops_between in prop::collection::vec(0usize..6, 1..30),
    ) {
        let mut q = EventQueue::new();
        let t = 42.0f64; // every event at the same timestamp
        let mut next_label = 0u32;
        let mut expected = 0u32;
        for (batch, pops) in batch_sizes.iter().zip(&pops_between) {
            for _ in 0..*batch {
                q.push(t, next_label);
                next_label += 1;
            }
            for _ in 0..*pops {
                match q.pop() {
                    Some((time, label)) => {
                        prop_assert_eq!(time, t);
                        prop_assert_eq!(label, expected, "tie order must be global FIFO");
                        expected += 1;
                    }
                    None => break,
                }
            }
        }
        while let Some((_, label)) = q.pop() {
            prop_assert_eq!(label, expected);
            expected += 1;
        }
        prop_assert_eq!(expected, next_label, "every event popped exactly once");
    }

    /// The peek / handle / replace-or-pop loop against the stable-sort
    /// reference. Interleaved `peek`, `push`, `replace_top` and `pop`
    /// under the DES contract (every new time at or after the last
    /// handled one, with offsets that are mostly 0, so many times tie)
    /// see the same events as a model that keeps the pending events in
    /// insertion order and takes the first least time: `replace_top`
    /// removes that event and appends the new one, as a pop then a push
    /// would. Every time comes back bit-equal to the pushed one.
    #[test]
    fn replace_top_matches_pop_then_push_reference(
        ops in prop::collection::vec((0u8..4, 0usize..6), 0..300),
    ) {
        const OFFSETS: [f64; 6] = [0.0, 0.0, 0.0, 0.1, 1.0, 2.5];
        let mut q = EventQueue::new();
        let mut model: Vec<(f64, u32)> = Vec::new();
        let earliest = |model: &[(f64, u32)]| {
            (0..model.len()).min_by(|&a, &b| model[a].0.total_cmp(&model[b].0))
        };
        let mut now = 0.0f64;
        let mut next_label = 0u32;
        for (op, pick) in ops {
            let time = now + OFFSETS[pick];
            match op {
                0 => {
                    q.push(time, next_label);
                    model.push((time, next_label));
                    next_label += 1;
                }
                1 => {
                    let replaced = q.replace_top(time, next_label);
                    let expected = earliest(&model).map(|i| model.remove(i));
                    model.push((time, next_label));
                    next_label += 1;
                    prop_assert_eq!(
                        replaced.map(|(t, l)| (t.to_bits(), l)),
                        expected.map(|(t, l)| (t.to_bits(), l))
                    );
                    if let Some((t, _)) = replaced {
                        now = t;
                    }
                }
                2 => {
                    let popped = q.pop();
                    let expected = earliest(&model).map(|i| model.remove(i));
                    prop_assert_eq!(
                        popped.map(|(t, l)| (t.to_bits(), l)),
                        expected.map(|(t, l)| (t.to_bits(), l))
                    );
                    if let Some((t, _)) = popped {
                        now = t;
                    }
                }
                _ => {
                    let peeked = q.peek().map(|(t, &l)| (t.to_bits(), l));
                    let expected = earliest(&model).map(|i| (model[i].0.to_bits(), model[i].1));
                    prop_assert_eq!(peeked, expected);
                    if let Some((t, _)) = q.peek() {
                        now = t;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some((t, l)) = q.pop() {
            let (mt, ml) = model.remove(earliest(&model).expect("model pending"));
            prop_assert_eq!((t.to_bits(), l), (mt.to_bits(), ml));
        }
        prop_assert!(model.is_empty());
    }

    /// Time-weighted average is bracketed by the min and max values.
    #[test]
    fn time_weighted_average_bracketed(steps in prop::collection::vec((0.01f64..10.0, 0.0f64..100.0), 1..50)) {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        let mut t = 0.0;
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for (dt, v) in steps {
            t += dt;
            tw.update(t, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let end = t + 1.0;
        let avg = tw.average(end);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        prop_assert!(tw.max() >= hi);
    }
}
