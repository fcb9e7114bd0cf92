//! Per-core draw lanes: the sampling side of the determinism contract.
//!
//! The DES event loop is serial — events interact through the shared
//! memory controllers and bus — and so is everything here. What the lanes
//! fix is *which* record every sampling site reads: every core owns a
//! **lane** of private `SmallRng` streams seeded via
//! `fastcap_core::seed::derive_seed(server_seed, lane)` (DESIGN.md §11), so
//! a draw's value depends only on its lane and its position in that lane's
//! stream — never on the global interleaving of events. That lets each
//! epoch boundary refill every lane's buffer in one batch (the prefill),
//! and the event loop then consumes the precomputed records in
//! `(time, FIFO-seq)` order through the timing wheel. Batching is a
//! serial speed-up: generating a stream's records back to back beats
//! interleaving them with event handling.
//!
//! ## Conservative lookahead
//!
//! A lane's think stream can be prefilled at most as far as the core could
//! possibly consume it within the epoch: one think draw per
//! ready→bank→bus round trip, whose duration is bounded below by the
//! minimum in-flight service time (`1 ps think + L2 + row-hit service +
//! fastest bus transfer`). `epoch_span / that bound` is the Chandy–Misra
//! style lookahead that caps the prefill target; consumption beyond the
//! prefilled window falls back to deterministic inline refills (counted as
//! `lane_sync` ops).
//!
//! ## Why buffering cannot move bytes
//!
//! Each record costs a fixed number of `next_u64` calls on its own stream
//! (the rand shim's one-draw-per-typed-value guarantee), so the record
//! sequence per stream is a pure function of the seed — independent of
//! batching and buffer sizes. The serial oracle
//! ([`LaneSet::use_serial_oracle`]) bypasses buffering and generates each
//! record at its consumption site, verifying that the prefill neither
//! skips, duplicates, nor reorders records.

use fastcap_core::seed::derive_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Inline refill batch for think/access streams when consumption overruns
/// the epoch prefill (each such batch is one `lane_sync`).
const REFILL_BATCH: usize = 64;

/// Prefill headroom: next epoch's target is last epoch's consumption plus
/// a quarter, plus this floor.
const PREFILL_FLOOR: usize = 16;

/// Sub-stream indices within a lane (`derive_seed(lane_seed, STREAM_*)`).
const STREAM_THINK: u64 = 0;
const STREAM_ACCESS: u64 = 1;
const STREAM_METER: u64 = 2;
const STREAM_JITTER: u64 = 3;

/// One precomputed memory-access sample: everything `on_core_ready` needs
/// for one burst slot, drawn eagerly so the record is a fixed five-draw
/// (single-controller: three-draw) function of the stream position alone.
/// Thresholds (`row_hit_p`, `wb_prob`) are applied at *consumption* time,
/// so mid-epoch control actions that change them never perturb the stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessDraw {
    /// Controller for the demand access (resolved against the
    /// construction-fixed interleaving distribution).
    pub ctrl: u32,
    /// Bank for the demand access.
    pub bank: u32,
    /// Uniform sample compared against `row_hit_p`.
    pub hit_u: f64,
    /// Uniform sample compared against `wb_prob`.
    pub wb_u: f64,
    /// Controller for the (possibly unused) writeback.
    pub wb_ctrl: u32,
    /// Bank for the (possibly unused) writeback.
    pub wb_bank: u32,
    /// Row-hit sample for the (possibly unused) writeback.
    pub wb_hit_u: f64,
}

fn pick_cum(cum: &[f64], u: f64) -> u32 {
    cum.iter().position(|&c| u <= c).unwrap_or(cum.len() - 1) as u32
}

fn gen_access(rng: &mut SmallRng, cum: &[f64], banks: usize) -> AccessDraw {
    let ctrl = if cum.len() == 1 {
        0
    } else {
        let u: f64 = rng.gen();
        pick_cum(cum, u)
    };
    let bank = rng.gen_range(0..banks) as u32;
    let hit_u: f64 = rng.gen();
    let wb_u: f64 = rng.gen();
    let wb_ctrl = if cum.len() == 1 {
        0
    } else {
        let u: f64 = rng.gen();
        pick_cum(cum, u)
    };
    let wb_bank = rng.gen_range(0..banks) as u32;
    let wb_hit_u: f64 = rng.gen();
    AccessDraw {
        ctrl,
        bank,
        hit_u,
        wb_u,
        wb_ctrl,
        wb_bank,
        wb_hit_u,
    }
}

/// `-ln(u)` for `u ~ U(1e-12, 1)`: the unit-mean exponential factor of a
/// think-time sample. Stored pre-logged so the hot consumption site is a
/// multiply; `mean * (-ln u)` is bit-identical to the old
/// `-(mean * ln u)` (IEEE negation is exact).
fn gen_think(rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -u.ln()
}

/// Irwin–Hall (n=3) approximately-normal meter-noise sample, rescaled to
/// mean 0 / stdev ~1.
fn gen_meter(rng: &mut SmallRng) -> f64 {
    let s: f64 = (0..3).map(|_| rng.gen::<f64>()).sum();
    (s - 1.5) * 2.0
}

/// A buffered draw stream: a private RNG plus a prefillable record buffer.
///
/// The record sequence is a pure function of the RNG seed; the buffer only
/// moves *when* records are generated (epoch barrier vs. inline), never
/// which records.
struct StreamBuf<T> {
    rng: SmallRng,
    buf: Vec<T>,
    head: usize,
    /// Records consumed since the last barrier (drives the adaptive
    /// prefill target).
    epoch_consumed: usize,
    /// Cumulative records consumed (the per-lane freeze probe).
    consumed: u64,
    /// Hard cap on the prefill target (conservative lookahead).
    cap: usize,
}

impl<T: Copy> StreamBuf<T> {
    fn new(seed: u64, cap: usize) -> Self {
        StreamBuf {
            rng: SmallRng::seed_from_u64(seed),
            buf: Vec::new(),
            head: 0,
            epoch_consumed: 0,
            consumed: 0,
            cap: cap.max(1),
        }
    }

    fn available(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Consumes the next record, inline-refilling `batch` records on
    /// underrun (`*syncs += 1` per refill; `oracle` generates exactly one
    /// record with no sync accounting).
    fn next(
        &mut self,
        mut gen: impl FnMut(&mut SmallRng) -> T,
        batch: usize,
        oracle: bool,
        syncs: &mut u64,
    ) -> T {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
            if oracle {
                self.buf.push(gen(&mut self.rng));
            } else {
                *syncs += 1;
                self.buf
                    .extend((0..batch.max(1)).map(|_| gen(&mut self.rng)));
            }
        }
        let v = self.buf[self.head];
        self.head += 1;
        self.epoch_consumed += 1;
        self.consumed += 1;
        v
    }

    /// Barrier-time refill up to the adaptive target (one `lane_sync` when
    /// any records are generated) and reset of the per-epoch bookkeeping.
    fn prefill(&mut self, mut gen: impl FnMut(&mut SmallRng) -> T, syncs: &mut u64) {
        let target = (self.epoch_consumed + self.epoch_consumed / 4 + PREFILL_FLOOR).min(self.cap);
        self.epoch_consumed = 0;
        let have = self.available();
        if have >= target {
            return;
        }
        self.buf.drain(..self.head);
        self.head = 0;
        *syncs += 1;
        self.buf
            .extend((0..target - have).map(|_| gen(&mut self.rng)));
    }
}

impl<T> std::fmt::Debug for StreamBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBuf")
            .field("available", &(self.buf.len() - self.head))
            .field("consumed", &self.consumed)
            .field("cap", &self.cap)
            .finish()
    }
}

/// One core's private draw streams.
struct Lane {
    think: StreamBuf<f64>,
    access: StreamBuf<AccessDraw>,
    meter: StreamBuf<f64>,
}

impl Lane {
    fn new(server_seed: u64, lane: u64, think_cap: usize, access_cap: usize) -> Self {
        let ls = derive_seed(server_seed, lane);
        Lane {
            think: StreamBuf::new(derive_seed(ls, STREAM_THINK), think_cap),
            access: StreamBuf::new(derive_seed(ls, STREAM_ACCESS), access_cap),
            meter: StreamBuf::new(derive_seed(ls, STREAM_METER), 1),
        }
    }

    fn prefill(&mut self, cum: &[f64], banks: usize, meter_on: bool, syncs: &mut u64) {
        self.think.prefill(gen_think, syncs);
        self.access
            .prefill(|rng| gen_access(rng, cum, banks), syncs);
        if meter_on {
            self.meter.prefill(gen_meter, syncs);
        }
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("think", &self.think)
            .field("access", &self.access)
            .field("meter", &self.meter)
            .finish()
    }
}

/// The full lane partition of one server: one [`Lane`] per core plus the
/// memory/meter lane (index `n_cores`), and the sync-op counters.
pub(crate) struct LaneSet {
    server_seed: u64,
    lanes: Vec<Lane>,
    /// The memory subsystem's meter stream (lane index `n_cores`).
    mem_meter: StreamBuf<f64>,
    /// Construction-fixed cumulative interleaving distribution.
    ctrl_cum: Vec<f64>,
    banks: usize,
    /// Serial-oracle mode: generate every record at its consumption site.
    oracle: bool,
    /// Stream refills across every lane (`lane_sync` ops).
    syncs: u64,
    barrier_waits: u64,
}

impl LaneSet {
    pub fn new(
        server_seed: u64,
        n_cores: usize,
        ctrl_cum: Vec<f64>,
        banks: usize,
        think_cap: usize,
    ) -> Self {
        // Access records per think cycle are bounded by the burst size;
        // bursts are small (tens), so a generous fixed cap suffices —
        // overruns fall back to inline refills either way.
        let access_cap = think_cap.saturating_mul(64).clamp(1, 1 << 16);
        LaneSet {
            server_seed,
            lanes: (0..n_cores as u64)
                .map(|l| Lane::new(server_seed, l, think_cap, access_cap))
                .collect(),
            mem_meter: StreamBuf::new(
                derive_seed(derive_seed(server_seed, n_cores as u64), STREAM_METER),
                1,
            ),
            ctrl_cum,
            banks,
            oracle: false,
            syncs: 0,
            barrier_waits: 0,
        }
    }

    /// Switches to serial-oracle generation (batch-of-one at every
    /// consumption site, no barrier prefill, no sync-op accounting).
    /// Already-buffered records are drained first, so the per-stream
    /// record sequence is unchanged — only the machinery around it.
    pub fn use_serial_oracle(&mut self) {
        self.oracle = true;
    }

    /// The construction-time activity-stagger jitter for `core`, uniform
    /// on `0..=bound` from the lane's one-off jitter stream.
    pub fn jitter(&self, core: usize, bound: u64) -> u64 {
        let seed = derive_seed(derive_seed(self.server_seed, core as u64), STREAM_JITTER);
        SmallRng::seed_from_u64(seed).gen_range(0..=bound)
    }

    /// Next think sample for `core`: the pre-logged `-ln(u)` factor.
    pub fn next_think(&mut self, core: usize) -> f64 {
        self.lanes[core]
            .think
            .next(gen_think, REFILL_BATCH, self.oracle, &mut self.syncs)
    }

    /// Next memory-access record for `core`.
    pub fn next_access(&mut self, core: usize) -> AccessDraw {
        let (cum, banks) = (&self.ctrl_cum, self.banks);
        self.lanes[core].access.next(
            |rng| gen_access(rng, cum, banks),
            REFILL_BATCH,
            self.oracle,
            &mut self.syncs,
        )
    }

    /// Next meter-noise sample for `core`.
    pub fn next_meter(&mut self, core: usize) -> f64 {
        self.lanes[core]
            .meter
            .next(gen_meter, 1, self.oracle, &mut self.syncs)
    }

    /// Next meter-noise sample for the memory subsystem (lane `n_cores`).
    pub fn next_mem_meter(&mut self) -> f64 {
        self.mem_meter
            .next(gen_meter, 1, self.oracle, &mut self.syncs)
    }

    /// The epoch-boundary barrier: refills every lane's streams to their
    /// adaptive targets. Exactly one `barrier_wait` per call.
    pub fn epoch_barrier(&mut self, meter_on: bool) {
        if self.oracle {
            return;
        }
        self.barrier_waits += 1;
        let (cum, banks) = (&self.ctrl_cum, self.banks);
        for lane in &mut self.lanes {
            lane.prefill(cum, banks, meter_on, &mut self.syncs);
        }
        if meter_on {
            self.mem_meter.prefill(gen_meter, &mut self.syncs);
        }
    }

    /// Cumulative lane-stream refills, inline and at barriers (zero in
    /// oracle mode).
    pub fn lane_syncs(&self) -> u64 {
        self.syncs
    }

    /// Cumulative epoch barriers (zero in oracle mode).
    pub fn barrier_waits(&self) -> u64 {
        self.barrier_waits
    }

    /// Cumulative records consumed from `core`'s lane across all of its
    /// streams — the per-lane half of the "offline cores draw nothing"
    /// invariant: an offline core's count freezes.
    pub fn lane_draws(&self, core: usize) -> u64 {
        let l = &self.lanes[core];
        l.think.consumed + l.access.consumed + l.meter.consumed
    }
}

/// Calibration-only driver exercising the lane machinery in isolation:
/// `rounds` epoch barriers over a 4-lane set with a deliberately small
/// buffer cap, each round consuming enough records that every barrier
/// triggers prefill refills. Returns the `(lane_sync, barrier_wait)`
/// counts performed — deterministic, so callers may time the call and
/// attribute the wall clock entirely to those two operations. `repro
/// calibrate` uses this to decorrelate the lane-op weights from the
/// event-queue weights (inside the full DES probe both families scale
/// with epoch count, so a joint fit cannot separate them).
#[must_use]
pub fn lane_calibration_probe(rounds: u64) -> (u64, u64) {
    let mut ls = LaneSet::new(0xFA57_CA11, 4, vec![1.0], 8, 256);
    for _ in 0..rounds {
        for core in 0..4 {
            for _ in 0..96 {
                let _ = ls.next_think(core);
                let _ = ls.next_access(core);
            }
            let _ = ls.next_meter(core);
        }
        ls.epoch_barrier(true);
    }
    (ls.lane_syncs(), ls.barrier_waits())
}

impl std::fmt::Debug for LaneSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneSet")
            .field("lanes", &self.lanes.len())
            .field("oracle", &self.oracle)
            .field("barrier_waits", &self.barrier_waits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> LaneSet {
        LaneSet::new(42, 4, vec![1.0], 32, 1000)
    }

    /// Drains `n` records from every stream of every core lane, returning
    /// one record vector per lane — the raw stream content, independent of
    /// machinery and of the order lanes were visited in.
    fn drain_cores(ls: &mut LaneSet, n: usize) -> Vec<Vec<u64>> {
        (0..4)
            .map(|core| {
                let mut out = Vec::new();
                for _ in 0..n {
                    out.push(ls.next_think(core).to_bits());
                    let a = ls.next_access(core);
                    out.extend([
                        u64::from(a.ctrl),
                        u64::from(a.bank),
                        a.hit_u.to_bits(),
                        a.wb_u.to_bits(),
                        u64::from(a.wb_ctrl),
                        u64::from(a.wb_bank),
                        a.wb_hit_u.to_bits(),
                    ]);
                    out.push(ls.next_meter(core).to_bits());
                }
                out
            })
            .collect()
    }

    /// [`drain_cores`] plus one memory/meter-lane record, flattened.
    fn drain(ls: &mut LaneSet, n: usize) -> Vec<u64> {
        let mut out: Vec<u64> = drain_cores(ls, n).concat();
        out.push(ls.next_mem_meter().to_bits());
        out
    }

    /// Inline refills, a barrier prefill and the serial oracle all yield
    /// the same records.
    #[test]
    fn streams_are_identical_across_thread_counts_and_oracle() {
        let mut reference = set();
        let baseline = drain(&mut reference, 50);
        let mut prefilled = set();
        prefilled.epoch_barrier(true);
        assert_eq!(drain(&mut prefilled, 50), baseline, "barrier prefill");
        let mut oracle = set();
        oracle.use_serial_oracle();
        assert_eq!(drain(&mut oracle, 50), baseline, "serial oracle");
    }

    #[test]
    fn barriers_and_prefill_do_not_shift_streams() {
        let mut plain = set();
        let baseline = drain_cores(&mut plain, 30);
        let mut barriered = set();
        // Many barriers with consumption in between: the prefill targets
        // adapt, the per-lane record sequences must not move.
        let mut out = vec![Vec::new(); 4];
        for _ in 0..6 {
            barriered.epoch_barrier(true);
            for (acc, round) in out.iter_mut().zip(drain_cores(&mut barriered, 5)) {
                acc.extend(round);
            }
        }
        assert_eq!(out, baseline);
    }

    #[test]
    fn lanes_are_independent_streams() {
        // Consuming heavily from lane 0 must not move lane 1.
        let mut a = set();
        let mut b = set();
        for _ in 0..500 {
            a.next_think(0);
            a.next_access(0);
        }
        let t1: Vec<u64> = (0..10).map(|_| a.next_think(1).to_bits()).collect();
        let t1b: Vec<u64> = (0..10).map(|_| b.next_think(1).to_bits()).collect();
        assert_eq!(t1, t1b);
    }

    /// Sync ops count per-lane consumption, not the order in which the
    /// event loop interleaves lanes: lane by lane or round robin, the
    /// counts agree.
    #[test]
    fn sync_ops_are_logical_and_thread_invariant() {
        let mut lane_by_lane = set();
        let mut round_robin = set();
        for _ in 0..4 {
            lane_by_lane.epoch_barrier(true);
            drain(&mut lane_by_lane, 20);
            round_robin.epoch_barrier(true);
            for _ in 0..20 {
                for core in 0..4 {
                    round_robin.next_think(core);
                    round_robin.next_access(core);
                    round_robin.next_meter(core);
                }
            }
            round_robin.next_mem_meter();
        }
        let counts = |ls: &LaneSet| (ls.lane_syncs(), ls.barrier_waits());
        assert_eq!(counts(&lane_by_lane), counts(&round_robin));
        assert!(lane_by_lane.lane_syncs() > 0);
        assert_eq!(lane_by_lane.barrier_waits(), 4);
    }

    #[test]
    fn oracle_reports_no_sync_ops() {
        let mut ls = set();
        ls.use_serial_oracle();
        ls.epoch_barrier(true);
        drain(&mut ls, 20);
        assert_eq!(ls.lane_syncs(), 0);
        assert_eq!(ls.barrier_waits(), 0);
    }

    #[test]
    fn lane_draws_counts_consumption_per_lane() {
        let mut ls = set();
        assert_eq!(ls.lane_draws(2), 0);
        ls.next_think(2);
        ls.next_access(2);
        ls.next_meter(2);
        assert_eq!(ls.lane_draws(2), 3);
        assert_eq!(ls.lane_draws(1), 0);
    }

    #[test]
    fn jitter_is_per_lane_deterministic_and_bounded() {
        let ls = set();
        for core in 0..4 {
            let j = ls.jitter(core, 1000);
            assert!(j <= 1000);
            assert_eq!(j, ls.jitter(core, 1000));
        }
        assert_ne!(ls.jitter(0, u64::MAX), ls.jitter(1, u64::MAX));
    }

    #[test]
    fn think_cap_bounds_the_prefill_target() {
        let mut ls = LaneSet::new(7, 1, vec![1.0], 8, 10);
        // Consume an exact multiple of the inline batch so the buffer is
        // empty, then barrier: despite 384 consumed last epoch, the
        // conservative-lookahead cap limits the prefill to 10 records.
        for _ in 0..6 * REFILL_BATCH {
            ls.next_think(0);
        }
        assert_eq!(ls.lanes[0].think.available(), 0);
        ls.epoch_barrier(false);
        assert_eq!(ls.lanes[0].think.available(), 10);
    }
}
