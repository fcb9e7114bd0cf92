//! Sinks and the per-run [`Tracer`] handle.

use std::collections::VecDeque;

use fastcap_core::cost::{CostCounter, OPS};

use crate::event::{Stamped, TraceEvent};
use crate::metrics::MetricsRegistry;

/// A bounded FIFO event buffer: at capacity, the **oldest** event is
/// dropped (and counted), so a long run keeps its most recent history —
/// which is what a post-mortem wants.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    events: VecDeque<Stamped>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl RingBuffer {
    /// Creates a buffer holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            seq: 0,
            dropped: 0,
        }
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped (oldest-first) because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Stamped> {
        self.events.iter()
    }

    /// Consumes the buffer into a vector, oldest first.
    #[must_use]
    pub fn into_vec(self) -> Vec<Stamped> {
        self.events.into()
    }

    /// Records one event at modeled time `t_ns`.
    pub fn record(&mut self, t_ns: u64, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Stamped {
            t_ns,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }
}

/// The per-run tracing handle: a ring buffer, a metrics registry, and the
/// modeled clock.
///
/// The clock advances only via [`Tracer::advance`], fed with
/// `CostCounter` *deltas* metered by the run loop, so each epoch is
/// priced by what it alone added to the server and policy counters.
#[derive(Debug, Clone)]
pub struct Tracer {
    ns_weights: [f64; OPS.len()],
    clock: CostCounter,
    ring: RingBuffer,
    /// Run-scoped metrics; merged into the hub's registry on submit.
    pub metrics: MetricsRegistry,
}

impl Tracer {
    /// Creates a tracer with the given ring capacity and `COST_MODEL`
    /// per-op nanosecond weights ([`OPS`]-ordered).
    #[must_use]
    pub fn new(capacity: usize, ns_weights: [f64; OPS.len()]) -> Self {
        Tracer {
            ns_weights,
            clock: CostCounter::default(),
            ring: RingBuffer::new(capacity),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Advances the modeled clock by a metered cost delta.
    pub fn advance(&mut self, delta: &CostCounter) {
        self.clock.add(delta);
    }

    /// Current modeled time: the accumulated cost priced by the weight
    /// vector, rounded to whole nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        let ns = self.clock.priced_ns(&self.ns_weights);
        if ns <= 0.0 {
            0
        } else {
            ns.round() as u64
        }
    }

    /// Prices an arbitrary cost delta without advancing the clock (e.g.
    /// a decision's own latency).
    #[must_use]
    pub fn price_ns(&self, delta: &CostCounter) -> u64 {
        let ns = delta.priced_ns(&self.ns_weights);
        if ns <= 0.0 {
            0
        } else {
            ns.round() as u64
        }
    }

    /// Records an event at the current modeled time.
    pub fn record(&mut self, event: TraceEvent) {
        let t = self.now_ns();
        self.ring.record(t, event);
    }

    /// Records an event at an explicit modeled time (for spans whose
    /// start predates the current clock).
    pub fn record_at(&mut self, t_ns: u64, event: TraceEvent) {
        self.ring.record(t_ns, event);
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Stamped> {
        self.ring.iter()
    }

    /// Events dropped by the bounded ring.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Consumes the tracer into `(events, dropped, metrics)`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Stamped>, u64, MetricsRegistry) {
        let dropped = self.ring.dropped();
        (self.ring.into_vec(), dropped, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = RingBuffer::new(2);
        for e in 0..5u64 {
            r.record(
                e,
                TraceEvent::Control {
                    epoch: e,
                    kind: "budget_step",
                    detail: String::new(),
                },
            );
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let held: Vec<u64> = r.iter().map(|s| s.t_ns).collect();
        assert_eq!(held, vec![3, 4]);
        // Sequence numbers keep counting through drops.
        assert_eq!(r.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn clock_is_monotonic_and_priced_in_ops_order() {
        let mut ns = [0.0f64; OPS.len()];
        ns[2] = 1.5; // rng_draw
        let mut t = Tracer::new(16, ns);
        assert_eq!(t.now_ns(), 0);
        let delta = CostCounter {
            rng_draws: 4,
            ..CostCounter::default()
        };
        t.advance(&delta);
        assert_eq!(t.now_ns(), 6);
        t.advance(&delta);
        assert_eq!(t.now_ns(), 12);
        assert_eq!(t.price_ns(&delta), 6);
    }
}
