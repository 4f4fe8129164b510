//! Property tests of the simulation engine against reference models.

use proptest::prelude::*;
use sa_sim::stats::{Histogram, TimeWeighted};
use sa_sim::{EventQueue, PopNext, SimDuration, SimTime};

/// One step of the model-based interleaving test. Near delays are drawn
/// from a tiny range so same-instant ties (the determinism-critical case)
/// are common; sub-tick delays land distinct timestamps inside one 512 ns
/// wheel slot; far delays span the wheel's coarse levels up to past the
/// ~37-minute L3 horizon (exercising the overflow list and the cascade on
/// the way back down). `Cancel` indices are reduced modulo the current
/// state at execution time. `Arm`/`Disarm` drive the per-CPU completion
/// slots of a queue built with [`SLOTS`] of them.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule at `now + n µs` (ties common).
    Schedule(u64),
    /// Schedule at `now + n ns` (same-tick, sub-tick ordering).
    ScheduleNs(u64),
    /// Schedule at `now + n ms` (coarse levels and overflow).
    ScheduleFar(u64),
    Cancel(usize),
    Pop,
    /// The kernel's extraction path: `pop_within(now + n ns)`. The limit
    /// often falls short of the next event, exercising `Deferred`.
    PopWithin(u64),
    Peek,
    /// Arm (or re-arm) CPU slot `.0` at `now + .1 ns`; `u64::MAX`
    /// saturates to `SimTime::MAX`, like an unbounded spin segment.
    Arm(usize, u64),
    Disarm(usize),
}

/// Completion slots in the model-based interleaving test.
const SLOTS: usize = 3;

fn queue_ops() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        4 => (0u64..8).prop_map(QueueOp::Schedule),
        2 => (0u64..1500).prop_map(QueueOp::ScheduleNs),
        1 => (0u64..2_400_000).prop_map(QueueOp::ScheduleFar),
        2 => (0usize..64).prop_map(QueueOp::Cancel),
        2 => Just(QueueOp::Pop),
        2 => (0u64..20_000).prop_map(QueueOp::PopWithin),
        1 => Just(QueueOp::Peek),
        3 => (0..SLOTS, arm_delay()).prop_map(|(cpu, ns)| QueueOp::Arm(cpu, ns)),
        1 => (0..SLOTS).prop_map(QueueOp::Disarm),
    ]
}

/// Slot delays: whole microseconds (ties with `Schedule`), zero
/// (re-arming at `now`), sub-tick nanoseconds, and `SimTime::MAX`.
fn arm_delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => (0u64..8).prop_map(|us| us * 1_000),
        1 => Just(0u64),
        2 => 0u64..1500,
        1 => Just(u64::MAX),
    ]
}

/// What a model entry delivers: a wheel event's value or a CPU slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Event(usize),
    Slot(usize),
}

/// The queue's delivery in the model's terms.
fn delivered(next: PopNext<usize>) -> Option<(u64, Item)> {
    match next {
        PopNext::Popped(t, v) => Some((t.as_nanos(), Item::Event(v))),
        PopNext::Slot(t, cpu) => Some((t.as_nanos(), Item::Slot(cpu))),
        PopNext::Empty | PopNext::Deferred(_) => None,
    }
}

/// Naive reference: a vec of live `(time_ns, seq, item)` entries, popped
/// by scanning for the minimum `(time, seq)`. Deliberately O(n) and
/// obvious. A completion slot is an ordinary entry keyed by the sequence
/// number its `arm` reserved.
#[derive(Default)]
struct ModelQueue {
    live: Vec<(u64, usize, Item)>,
}

impl ModelQueue {
    fn min_index(&self) -> Option<usize> {
        (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))
    }

    fn pop(&mut self) -> Option<(u64, Item)> {
        let i = self.min_index()?;
        let (t, _, v) = self.live.remove(i);
        Some((t, v))
    }

    fn remove(&mut self, item: Item) {
        self.live.retain(|&(_, _, it)| it != item);
    }

    fn peek_time(&self) -> Option<u64> {
        self.min_index().map(|i| self.live[i].0)
    }
}

proptest! {
    /// Events pop in nondecreasing time order with FIFO tie-breaking,
    /// regardless of the schedule order.
    #[test]
    fn queue_pops_sorted_stable(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some((at, idx)) = q.pop() {
            got.push((at.as_micros(), idx));
        }
        prop_assert_eq!(got, expected);
    }

    /// Cancellation removes exactly the cancelled events.
    #[test]
    fn queue_cancellation_model(
        times in prop::collection::vec(0u64..10_000, 1..200),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            tokens.push(q.schedule(SimTime::from_micros(t), i));
        }
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let cancelled = *cancel_mask.get(i).unwrap_or(&false);
            if cancelled {
                q.cancel(tokens[i]);
            } else {
                expected.push((t, i));
            }
        }
        expected.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some((at, idx)) = q.pop() {
            got.push((at.as_micros(), idx));
        }
        prop_assert_eq!(got, expected);
    }

    /// Interleaved schedule/pop keeps the clock monotone and never loses
    /// a live event, including events far enough out to cross every wheel
    /// level into the overflow list.
    #[test]
    fn queue_interleaved_clock_monotone(
        ops in prop::collection::vec((0u64..500, 0u8..8), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut scheduled = 0usize;
        let mut popped = 0usize;
        let mut last = SimTime::ZERO;
        for (delay, kind) in ops {
            match kind {
                // Far-future: milliseconds to tens of minutes out.
                0 => {
                    q.schedule(
                        q.now() + SimDuration::from_millis(delay * 5_000),
                        scheduled,
                    );
                    scheduled += 1;
                }
                1..=3 => {
                    q.schedule(q.now() + SimDuration::from_micros(delay), scheduled);
                    scheduled += 1;
                }
                _ => {
                    if let Some((at, _)) = q.pop() {
                        prop_assert!(at >= last);
                        last = at;
                        popped += 1;
                    }
                }
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(scheduled, popped);
    }

    /// Model-based equivalence: arbitrary schedule/cancel/pop/
    /// pop-within/peek/arm/disarm interleavings (with frequent
    /// same-instant ties between slots and wheel entries, sub-tick
    /// collisions, far-future overflow entries, and slots armed at `now`
    /// or at `SimTime::MAX`) agree step-for-step with a naive sorted-vec
    /// reference. Also pins exact `len` after an eager cancel,
    /// cancel-after-pop refusal, and that a deferred `pop_within` leaves
    /// the queue untouched.
    #[test]
    fn queue_matches_model_under_interleaving(
        ops in prop::collection::vec(queue_ops(), 1..300)
    ) {
        let mut q = EventQueue::with_slots(SLOTS);
        let mut model = ModelQueue::default();
        // Live tokens, with the value each one carries.
        let mut tokens: Vec<(sa_sim::EventToken, usize)> = Vec::new();
        let mut next_seq = 0usize;
        for op in ops {
            let at = match op {
                QueueOp::Schedule(us) => Some(q.now() + SimDuration::from_micros(us)),
                QueueOp::ScheduleNs(ns) => Some(q.now() + SimDuration::from_nanos(ns)),
                QueueOp::ScheduleFar(ms) => Some(q.now() + SimDuration::from_millis(ms)),
                _ => None,
            };
            if let Some(at) = at {
                tokens.push((q.schedule(at, next_seq), next_seq));
                model.live.push((at.as_nanos(), next_seq, Item::Event(next_seq)));
                next_seq += 1;
            }
            match op {
                QueueOp::Schedule(_) | QueueOp::ScheduleNs(_) | QueueOp::ScheduleFar(_) => {}
                QueueOp::Arm(cpu, ns) => {
                    let at = q.now() + SimDuration::from_nanos(ns);
                    q.arm(cpu, at);
                    model.remove(Item::Slot(cpu));
                    model.live.push((at.as_nanos(), next_seq, Item::Slot(cpu)));
                    next_seq += 1;
                    prop_assert_eq!(q.armed_at(cpu), Some(at));
                }
                QueueOp::Disarm(cpu) => {
                    q.disarm(cpu);
                    model.remove(Item::Slot(cpu));
                    prop_assert_eq!(q.armed_at(cpu), None);
                }
                QueueOp::Cancel(i) => {
                    if tokens.is_empty() {
                        continue;
                    }
                    let (tok, seq) = tokens.swap_remove(i % tokens.len());
                    prop_assert!(q.cancel(tok), "refused live token {}", seq);
                    let mi = model
                        .live
                        .iter()
                        .position(|&(_, s, _)| s == seq)
                        .expect("model out of sync");
                    model.live.remove(mi);
                    // Eager removal: exact len immediately, and a second
                    // cancel of the same token must refuse.
                    prop_assert_eq!(q.len(), model.live.len());
                    prop_assert!(!q.cancel(tok));
                }
                QueueOp::Pop => {
                    let got = delivered(q.pop_within(SimTime::MAX));
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                    if let Some((t, item)) = want {
                        prop_assert_eq!(q.now().as_nanos(), t);
                        match item {
                            Item::Event(v) => {
                                let ti = tokens.iter().position(|&(_, s)| s == v);
                                if let Some(ti) = ti {
                                    // A popped event's token is dead.
                                    prop_assert!(!q.cancel(tokens.swap_remove(ti).0));
                                }
                            }
                            Item::Slot(cpu) => prop_assert_eq!(q.armed_at(cpu), None),
                        }
                    }
                }
                QueueOp::PopWithin(ns) => {
                    let (now, len, peek) = (q.now(), q.len(), q.peek_time());
                    let limit = now + SimDuration::from_nanos(ns);
                    match q.pop_within(limit) {
                        PopNext::Empty => prop_assert!(model.live.is_empty()),
                        PopNext::Deferred(t) => {
                            prop_assert_eq!(Some(t.as_nanos()), model.peek_time());
                            prop_assert!(t > limit);
                            prop_assert_eq!(q.now(), now);
                            prop_assert_eq!(q.len(), len);
                            prop_assert_eq!(q.peek_time(), peek);
                        }
                        next => {
                            let (t, item) = delivered(next).expect("a delivery");
                            prop_assert!(t <= limit.as_nanos());
                            prop_assert_eq!(Some((t, item)), model.pop());
                            prop_assert_eq!(q.now().as_nanos(), t);
                            if let Item::Event(v) = item {
                                let ti = tokens.iter().position(|&(_, s)| s == v);
                                if let Some(ti) = ti {
                                    prop_assert!(!q.cancel(tokens.swap_remove(ti).0));
                                }
                            }
                        }
                    }
                }
                QueueOp::Peek => {
                    prop_assert_eq!(q.peek_time().map(|t| t.as_nanos()), model.peek_time());
                }
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.is_empty(), model.live.is_empty());
        }
        // Drain: remaining events agree in full (time, item) order.
        let mut got = Vec::new();
        while let Some(e) = delivered(q.pop_within(SimTime::MAX)) {
            got.push(e);
        }
        let mut want = Vec::new();
        while let Some(e) = model.pop() {
            want.push(e);
        }
        prop_assert_eq!(&got, &want);
    }

    /// The time-weighted gauge equals a straightforward integral.
    #[test]
    fn time_weighted_matches_reference(
        steps in prop::collection::vec((1u64..1000, -5i64..6), 1..100)
    ) {
        let mut g = TimeWeighted::new();
        let mut now = SimTime::ZERO;
        let mut level = 0i64;
        let mut area = 0i128;
        for (dt, delta) in steps {
            let next = now + SimDuration::from_micros(dt);
            area += level as i128 * (dt as i128) * 1_000;
            now = next;
            level += delta;
            g.adjust(now, delta);
        }
        prop_assert_eq!(g.level(), level);
        let mean = g.mean(now);
        let ref_mean = if now.as_nanos() == 0 {
            0.0
        } else {
            area as f64 / now.as_nanos() as f64
        };
        prop_assert!((mean - ref_mean).abs() < 1e-9, "{} vs {}", mean, ref_mean);
    }

    /// Histogram mean/min/max equal exact statistics.
    #[test]
    fn histogram_matches_reference(samples in prop::collection::vec(0u64..10_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.mean().as_nanos(), (sum / samples.len() as u128) as u64);
        prop_assert_eq!(h.min().as_nanos(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max().as_nanos(), *samples.iter().max().unwrap());
        // Quantiles are monotone and bounded by max.
        let q1 = h.quantile(0.25);
        let q2 = h.quantile(0.5);
        let q3 = h.quantile(0.99);
        prop_assert!(q1 <= q2 && q2 <= q3 && q3 <= h.max());
    }
}
