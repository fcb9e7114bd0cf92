//! Discrete-event core: integer-picosecond time and the event queue.
//!
//! Simulation time is `u64` picoseconds — `f64` timestamps are not totally
//! ordered (NaN) and accumulate drift when epochs are summed; picoseconds
//! give exact ordering, deterministic replay, and 200+ days of range.
//!
//! ## The timing wheel
//!
//! [`EventQueue`] is a hierarchical timing wheel (DESIGN.md §6), not a
//! binary heap: [`LEVELS`] levels of [`SLOTS`] buckets each, where a
//! level-`k` bucket spans `2^(GRAN_BITS + k·SLOT_BITS)` ps. An event lands
//! in the lowest level whose window still covers its timestamp; a `u64`
//! occupancy bitmap per level finds the next non-empty bucket with one
//! `trailing_zeros`, so advancing over an idle span costs O(1) instead of
//! stepping bucket by bucket. Draining a level-0 bucket sorts its events
//! by `(time, sequence)` — the exact order the previous `BinaryHeap`
//! implementation popped — so FIFO among equal timestamps is preserved and
//! artifact bytes are identical under either queue. Events beyond the top
//! window (~17 ms of simulated time ahead) wait in a small overflow heap
//! and are folded back into the wheel when their region is reached.
//! [`HeapQueue`] keeps the old heap alive as the property-test oracle.

use fastcap_core::units::Secs;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in picoseconds.
pub type Ps = u64;

/// Picoseconds per second.
pub const PS_PER_SEC: f64 = 1e12;

/// Converts seconds to picoseconds (saturating at 0 for negatives).
#[inline]
pub fn to_ps(s: Secs) -> Ps {
    (s.get() * PS_PER_SEC).max(0.0).round() as Ps
}

/// Simulator events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// A core finished its think + L2 phase and issues memory request(s).
    CoreReady {
        /// Core index.
        core: usize,
    },
    /// A bank finished serving its current request (now waits for the bus —
    /// transfer blocking).
    BankDone {
        /// Memory controller index.
        ctrl: usize,
        /// Bank index within the controller.
        bank: usize,
    },
    /// A bus transfer completed; the request returns to its core.
    BusDone {
        /// Memory controller index.
        ctrl: usize,
    },
    /// A scheduled scenario mutation fires (see
    /// [`crate::server::ControlAction`]); `slot` indexes the server's
    /// control table. Ordered in the wheel exactly like simulation events,
    /// so injected mutations are deterministic and `--jobs`-invariant.
    Control {
        /// Index into the server's scheduled-control table.
        slot: usize,
    },
}

// ---- packed event representation ---------------------------------------
//
// Wheel entries are `(Ps, u64)` where the second word is
// `seq << EV_BITS | packed_event`: 16 bytes instead of the heap's 40-byte
// `(Ps, u64, Event)` tuples, and because `seq` occupies the high bits,
// comparing the raw pair orders by `(time, sequence)` directly.

const EV_BITS: u32 = 24;
const TAG_SHIFT: u32 = 22;
const TAG_CORE: u64 = 0;
const TAG_BANK: u64 = 1;
const TAG_BUS: u64 = 2;
const TAG_CONTROL: u64 = 3;
const EV_MASK: u64 = (1 << EV_BITS) - 1;

#[inline]
fn pack(ev: Event) -> u64 {
    match ev {
        Event::CoreReady { core } => {
            debug_assert!(core < 1 << TAG_SHIFT);
            (TAG_CORE << TAG_SHIFT) | core as u64
        }
        Event::BankDone { ctrl, bank } => {
            debug_assert!(ctrl < 1 << 8 && bank < 1 << (TAG_SHIFT - 8));
            (TAG_BANK << TAG_SHIFT) | ((bank as u64) << 8) | ctrl as u64
        }
        Event::BusDone { ctrl } => {
            debug_assert!(ctrl < 1 << TAG_SHIFT);
            (TAG_BUS << TAG_SHIFT) | ctrl as u64
        }
        Event::Control { slot } => {
            debug_assert!(slot < 1 << TAG_SHIFT);
            (TAG_CONTROL << TAG_SHIFT) | slot as u64
        }
    }
}

#[inline]
fn unpack(meta: u64) -> Event {
    let ev = meta & EV_MASK;
    let payload = ev & ((1 << TAG_SHIFT) - 1);
    match ev >> TAG_SHIFT {
        TAG_CORE => Event::CoreReady {
            core: payload as usize,
        },
        TAG_BANK => Event::BankDone {
            ctrl: (payload & 0xFF) as usize,
            bank: (payload >> 8) as usize,
        },
        TAG_BUS => Event::BusDone {
            ctrl: payload as usize,
        },
        _ => Event::Control {
            slot: payload as usize,
        },
    }
}

// ---- wheel geometry ----------------------------------------------------

/// log2 of the level-0 bucket width: 1024 ps ≈ 1 ns — about one event
/// per bucket at the simulator's observed densities, and safely below
/// the smallest event delta it schedules (the ~5 ns bus transfer), so
/// events pushed while a bucket drains never land behind the drained
/// horizon.
const GRAN_BITS: u32 = 10;
/// log2 of the bucket count per level (64 buckets = one `u64` bitmap).
const SLOT_BITS: u32 = 6;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `k` buckets span `2^(GRAN_BITS + k·SLOT_BITS)` ps,
/// so four levels cover ~17 ms of simulated time ahead of the cursor.
const LEVELS: usize = 4;

#[inline]
const fn shift(level: usize) -> u32 {
    GRAN_BITS + level as u32 * SLOT_BITS
}

/// One wheel level: 64 buckets, an occupancy bitmap, and the start time of
/// bucket 0's window. Buckets below `next` have already been drained (or
/// cascaded down) and are empty.
#[derive(Debug)]
struct Level {
    slots: [Vec<(Ps, u64)>; SLOTS],
    occ: u64,
    base: Ps,
    next: usize,
}

impl Level {
    fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| Vec::new()),
            occ: 0,
            base: 0,
            next: 0,
        }
    }
}

/// A deterministic time-ordered event queue (FIFO among equal timestamps),
/// implemented as a hierarchical timing wheel. Pops come in exactly the
/// `(time, insertion sequence)` order a binary heap would produce.
#[derive(Debug)]
pub struct EventQueue {
    /// The drained front run, sorted ascending by `(t, seq)`; consumed
    /// from `head`. Always holds the globally earliest pending events.
    ready: Vec<(Ps, u64)>,
    head: usize,
    levels: [Level; LEVELS],
    /// Events beyond the top-level window, keyed exactly like the wheel.
    overflow: BinaryHeap<Reverse<(Ps, u64)>>,
    /// Cached earliest overflow timestamp (`u64::MAX` when empty): one
    /// compare per bucket drain instead of a heap peek.
    overflow_min: Ps,
    len: usize,
    seq: u64,
    popped: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            ready: Vec::new(),
            head: 0,
            levels: std::array::from_fn(|_| Level::new()),
            overflow: BinaryHeap::new(),
            overflow_min: Ps::MAX,
            len: 0,
            seq: 0,
            popped: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `t`.
    #[inline]
    pub fn push(&mut self, t: Ps, event: Event) {
        debug_assert!(self.seq < 1 << (64 - EV_BITS), "sequence space exhausted");
        let meta = (self.seq << EV_BITS) | pack(event);
        self.seq += 1;
        self.len += 1;
        self.insert(t, meta);
    }

    #[inline]
    fn insert(&mut self, t: Ps, meta: u64) {
        // Everything before the drained horizon already sits in `ready`
        // (or was popped); keep such late arrivals ordered by merging them
        // into the unread tail. The simulator never schedules into the
        // past, and the level-0 bucket width is below every service time,
        // so this path is cold.
        let l0 = &self.levels[0];
        let horizon = l0.base + ((l0.next as u64) << GRAN_BITS);
        if t < horizon {
            let at = self.head + self.ready[self.head..].partition_point(|&e| e < (t, meta));
            self.ready.insert(at, (t, meta));
            return;
        }
        for k in 0..LEVELS {
            let lv = &mut self.levels[k];
            debug_assert!(t >= lv.base);
            let slot = ((t - lv.base) >> shift(k)) as usize;
            if slot < SLOTS {
                debug_assert!(slot >= lv.next || k == 0);
                lv.slots[slot].push((t, meta));
                lv.occ |= 1 << slot;
                return;
            }
        }
        self.overflow.push(Reverse((t, meta)));
        self.overflow_min = self.overflow_min.min(t);
    }

    /// Refills `ready` with the next buckets' events in `(t, seq)` order.
    /// Caller guarantees `len > 0` and `ready` is fully consumed.
    fn refill_ready(&mut self) {
        self.ready.clear();
        self.head = 0;
        loop {
            // Drain the earliest non-empty level-0 bucket, found in O(1)
            // from the occupancy bitmap — empty spans are skipped, not
            // stepped. Exactly one bucket per refill: the drained horizon
            // then stays within one bucket width of the cursor, below
            // every event delta the simulator schedules, so hot pushes
            // never fall behind it into the sorted-insert path.
            if self.levels[0].occ != 0 {
                let Self {
                    ready,
                    levels,
                    overflow,
                    ..
                } = self;
                let lv = &mut levels[0];
                let s = lv.occ.trailing_zeros() as usize;
                lv.occ &= !(1u64 << s);
                lv.next = s + 1;
                std::mem::swap(ready, &mut lv.slots[s]);
                let end = lv.base + ((lv.next as u64) << GRAN_BITS);
                // Fold in overflow stragglers whose region the cursor has
                // reached; they are earlier than every remaining wheel
                // event, so merging here preserves global order.
                if self.overflow_min < end {
                    while let Some(&Reverse((t, _))) = overflow.peek() {
                        if t >= end {
                            break;
                        }
                        let Reverse(e) = overflow.pop().expect("peeked entry exists");
                        ready.push(e);
                    }
                    self.overflow_min = overflow.peek().map_or(Ps::MAX, |&Reverse((t, _))| t);
                }
                // (t, seq<<24|ev) pairs: raw order == (time, FIFO-seq).
                if ready.len() > 1 {
                    ready.sort_unstable();
                }
                return;
            }
            // Level 0 exhausted: cascade the next occupied bucket of the
            // shallowest non-empty level down one level.
            if let Some(k) = (1..LEVELS).find(|&k| self.levels[k].occ != 0) {
                let lv = &mut self.levels[k];
                let s = lv.occ.trailing_zeros() as usize;
                lv.occ &= !(1u64 << s);
                lv.next = s + 1;
                let new_base = lv.base + ((s as u64) << shift(k));
                let mut batch = std::mem::take(&mut lv.slots[s]);
                for j in 0..k {
                    self.levels[j].base = new_base;
                    self.levels[j].next = 0;
                }
                for &(t, meta) in &batch {
                    self.insert(t, meta);
                }
                batch.clear();
                self.levels[k].slots[s] = batch; // keep the allocation
                continue;
            }
            // Only far-future overflow events remain: jump the wheel
            // straight to the earliest one (event-free fast-forward) and
            // re-seat everything within the restored horizon.
            let &Reverse((t_min, _)) = self.overflow.peek().expect("len > 0 implies events");
            for lv in &mut self.levels {
                lv.base = t_min;
                lv.next = 0;
            }
            let top_end = t_min + ((SLOTS as u64) << shift(LEVELS - 1));
            while let Some(&Reverse((t, _))) = self.overflow.peek() {
                if t >= top_end {
                    break;
                }
                let Reverse((t, meta)) = self.overflow.pop().expect("peeked entry exists");
                self.insert(t, meta);
            }
            self.overflow_min = self.overflow.peek().map_or(Ps::MAX, |&Reverse((t, _))| t);
        }
    }

    /// Reads (without consuming) the earliest entry of the earliest
    /// non-empty level-0 bucket, provided the bucket is small enough for a
    /// linear `(t, seq)` min-scan and no overflow straggler undercuts it.
    /// Returns `(t, meta, slot, index within slot)`.
    ///
    /// This is the hot path: at the simulator's observed densities most
    /// buckets hold one or two events, so popping straight out of the
    /// bucket skips the whole drain-to-`ready` machinery (swap, sort,
    /// cursor bookkeeping) that a batch refill pays.
    #[inline]
    fn peek_in_slot(&self) -> Option<(Ps, u64, usize, usize)> {
        let lv = &self.levels[0];
        if lv.occ == 0 {
            return None;
        }
        let s = lv.occ.trailing_zeros() as usize;
        let slot_end = lv.base + (((s + 1) as u64) << GRAN_BITS);
        if self.overflow_min < slot_end {
            return None; // straggler must merge first: slow path
        }
        let sv = &lv.slots[s];
        if sv.len() > 8 {
            return None; // dense bucket: batch drain amortizes better
        }
        let (mut at, mut best) = (0, sv[0]);
        for (i, &e) in sv.iter().enumerate().skip(1) {
            if e < best {
                best = e;
                at = i;
            }
        }
        Some((best.0, best.1, s, at))
    }

    /// Consumes the entry returned by [`Self::peek_in_slot`].
    #[inline]
    fn take_from_slot(&mut self, s: usize, at: usize) {
        let lv = &mut self.levels[0];
        lv.slots[s].swap_remove(at);
        if lv.slots[s].is_empty() {
            lv.occ &= !(1u64 << s);
            lv.next = s + 1;
        }
        self.len -= 1;
    }

    /// The single front-of-queue cascade behind [`Self::pop`],
    /// [`Self::pop_if_before`] and [`Self::peek_time`]: drain the ready
    /// run, else pop straight out of a small bucket, else batch-refill.
    /// With a `bound`, an earliest event at or past it is left in place.
    #[inline]
    fn pop_entry(&mut self, bound: Option<Ps>) -> Option<(Ps, u64)> {
        let blocked = |t: Ps| bound.is_some_and(|b| t >= b);
        if self.head < self.ready.len() {
            let (t, meta) = self.ready[self.head];
            if blocked(t) {
                return None;
            }
            self.head += 1;
            self.len -= 1;
            self.popped += 1;
            return Some((t, meta));
        }
        if self.len == 0 {
            return None;
        }
        if let Some((t, meta, s, at)) = self.peek_in_slot() {
            if blocked(t) {
                return None;
            }
            self.take_from_slot(s, at);
            self.popped += 1;
            return Some((t, meta));
        }
        self.refill_ready();
        let (t, meta) = self.ready[self.head];
        if blocked(t) {
            return None;
        }
        self.head += 1;
        self.len -= 1;
        self.popped += 1;
        Some((t, meta))
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Ps, Event)> {
        self.pop_entry(None).map(|(t, meta)| (t, unpack(meta)))
    }

    /// Removes and returns the earliest event only if it fires strictly
    /// before `end` — the epoch loop's single-call replacement for
    /// peek-then-pop.
    #[inline]
    pub fn pop_if_before(&mut self, end: Ps) -> Option<(Ps, Event)> {
        self.pop_entry(Some(end)).map(|(t, meta)| (t, unpack(meta)))
    }

    /// The timestamp of the earliest pending event (the same cascade as
    /// [`Self::pop_entry`], but nothing is consumed).
    pub fn peek_time(&mut self) -> Option<Ps> {
        if self.head < self.ready.len() {
            return Some(self.ready[self.head].0);
        }
        if self.len == 0 {
            return None;
        }
        if let Some((t, ..)) = self.peek_in_slot() {
            return Some(t);
        }
        self.refill_ready();
        Some(self.ready[self.head].0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled (the sequence counter) — a cheap
    /// throughput statistic for benchmarks and capacity planning.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Total events ever consumed — the `event_pop` term of the
    /// deterministic cost model. Counts only consuming pops (a bounded
    /// [`Self::pop_if_before`] that leaves the event in place does not
    /// count), so the value is queue-implementation-invariant.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

/// The pre-overhaul `BinaryHeap` event queue, kept as the reference
/// implementation: property tests drive [`EventQueue`] against it to pin
/// the `(time, FIFO-seq)` pop order.
#[derive(Debug, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<(Ps, u64, Event)>>,
    seq: u64,
    popped: u64,
}

impl HeapQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `t`.
    pub fn push(&mut self, t: Ps, event: Event) {
        self.heap.push(Reverse((t, self.seq, event)));
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Ps, Event)> {
        let e = self.heap.pop().map(|Reverse((t, _, e))| (t, e));
        if e.is_some() {
            self.popped += 1;
        }
        e
    }

    /// Total events ever consumed (mirrors [`EventQueue::popped`]).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Ps> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trip() {
        let s = Secs::from_nanos(123.456);
        let ps = to_ps(s);
        assert_eq!(ps, 123_456);
        assert_eq!(to_ps(Secs(-1.0)), 0);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::BusDone { ctrl: 0 });
        q.push(10, Event::CoreReady { core: 1 });
        q.push(20, Event::BankDone { ctrl: 0, bank: 3 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, Event::CoreReady { core: 1 })));
        assert_eq!(q.pop(), Some((20, Event::BankDone { ctrl: 0, bank: 3 })));
        assert_eq!(q.pop(), Some((30, Event::BusDone { ctrl: 0 })));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        q.push(5, Event::CoreReady { core: 0 });
        q.push(5, Event::CoreReady { core: 1 });
        q.push(5, Event::CoreReady { core: 2 });
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                Event::CoreReady { core: 0 },
                Event::CoreReady { core: 1 },
                Event::CoreReady { core: 2 }
            ]
        );
    }

    #[test]
    fn event_packing_round_trips() {
        for ev in [
            Event::CoreReady { core: 0 },
            Event::CoreReady { core: 4_000_000 },
            Event::BankDone { ctrl: 0, bank: 0 },
            Event::BankDone {
                ctrl: 255,
                bank: 16_000,
            },
            Event::BusDone { ctrl: 0 },
            Event::BusDone { ctrl: 255 },
            Event::Control { slot: 0 },
            Event::Control { slot: 4_000_000 },
        ] {
            assert_eq!(unpack(pack(ev)), ev, "{ev:?}");
        }
    }

    #[test]
    fn cross_level_ordering() {
        // One event per wheel level plus one in overflow, pushed in
        // reverse time order.
        let mut q = EventQueue::new();
        let times = [
            (SLOTS as u64) << shift(LEVELS - 1), // overflow
            1 << shift(3),
            1 << shift(2),
            1 << shift(1),
            1 << shift(0),
            3,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, Event::CoreReady { core: i });
        }
        let mut sorted = times;
        sorted.sort_unstable();
        let popped: Vec<Ps> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(popped, sorted.to_vec());
    }

    #[test]
    fn idle_span_fast_forward() {
        // A far-future event after a long empty span still pops correctly
        // (and in O(1), though this only asserts correctness).
        let mut q = EventQueue::new();
        q.push(5, Event::CoreReady { core: 0 });
        let far = 123_456_789_012; // ~123 ms ahead: overflow territory
        q.push(far, Event::CoreReady { core: 1 });
        assert_eq!(q.pop(), Some((5, Event::CoreReady { core: 0 })));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, Event::CoreReady { core: 1 })));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // Pops interleaved with pushes relative to the advancing cursor,
        // mimicking the simulator's completion chains.
        let mut q = EventQueue::new();
        q.push(1_000, Event::CoreReady { core: 0 });
        assert_eq!(q.pop(), Some((1_000, Event::CoreReady { core: 0 })));
        // Schedule behind, at, and ahead of the drained horizon.
        q.push(1_001, Event::CoreReady { core: 1 });
        q.push(900, Event::CoreReady { core: 2 }); // stale: before last pop
        q.push(70_000, Event::CoreReady { core: 3 });
        assert_eq!(q.pop(), Some((900, Event::CoreReady { core: 2 })));
        assert_eq!(q.pop(), Some((1_001, Event::CoreReady { core: 1 })));
        assert_eq!(q.pop(), Some((70_000, Event::CoreReady { core: 3 })));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_if_before_respects_the_bound() {
        let mut q = EventQueue::new();
        q.push(10, Event::CoreReady { core: 0 });
        q.push(20, Event::CoreReady { core: 1 });
        assert_eq!(
            q.pop_if_before(15),
            Some((10, Event::CoreReady { core: 0 }))
        );
        assert_eq!(q.pop_if_before(15), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_if_before(21),
            Some((20, Event::CoreReady { core: 1 }))
        );
        assert_eq!(q.pop_if_before(u64::MAX), None);
    }

    #[test]
    fn heap_oracle_matches_wheel_on_a_dense_trace() {
        // A deterministic pseudo-random workload spanning every level and
        // the overflow heap, with interleaved pops.
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut cursor: Ps = 0;
        for i in 0..5_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly near-future deltas, occasionally far-future ones.
            let delta = match state % 10 {
                0 => state % (1 << 36),
                1..=3 => state % (1 << 20),
                _ => state % (1 << 14),
            };
            let ev = Event::CoreReady {
                core: (i % 64) as usize,
            };
            wheel.push(cursor + delta, ev);
            heap.push(cursor + delta, ev);
            if state.is_multiple_of(3) {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "divergence at push {i}");
                if let Some((t, _)) = w {
                    cursor = cursor.max(t);
                }
            }
        }
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        // The cost model's event_pop counter must be implementation
        // invariant: both queues consumed the same trace.
        assert_eq!(wheel.popped(), heap.popped());
        assert_eq!(wheel.popped(), wheel.scheduled());
    }

    #[test]
    fn popped_counts_only_consuming_pops() {
        let mut q = EventQueue::new();
        q.push(10, Event::CoreReady { core: 0 });
        q.push(20, Event::CoreReady { core: 1 });
        assert_eq!(q.popped(), 0);
        assert!(q.pop_if_before(15).is_some());
        assert_eq!(q.popped(), 1);
        // Bounded pop that leaves the event in place: not a pop.
        assert!(q.pop_if_before(15).is_none());
        assert_eq!(q.popped(), 1);
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        assert_eq!(q.popped(), 2);
    }
}
