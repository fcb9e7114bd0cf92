//! Per-run counters the timed wrappers feed: FastCap `decide` latencies,
//! operation-count deltas per layer, policy events, and the digest of
//! every simulated output.
//!
//! Like the span recorder, the tally is thread-local: one workload runs
//! on one thread.

use crate::prof::Layer;
use fastcap_core::capper::DvfsDecision;
use fastcap_core::cost::CostCounter;
use fastcap_fleet::FleetEpoch;
use fastcap_sim::EpochReport;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// FNV-1a, 64-bit, fed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes an integer in.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Mixes a float in, bit for bit.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Mixes in one epoch's simulated outputs: the DVFS levels in force,
    /// per-core and memory power, total power and per-core instructions.
    pub fn report(&mut self, r: &EpochReport) {
        self.u64(r.epoch);
        for &i in &r.core_freq_idx {
            self.u64(i as u64);
        }
        self.u64(r.mem_freq_idx as u64);
        for p in &r.core_power {
            self.f64(p.get());
        }
        self.f64(r.mem_power.get());
        self.f64(r.total_power.get());
        for &x in &r.instructions {
            self.f64(x);
        }
        self.u64(u64::from(r.emergency));
    }

    /// Mixes in one DVFS decision as the policy returned it.
    pub fn decision(&mut self, d: &DvfsDecision) {
        for &i in &d.core_freqs {
            self.u64(i as u64);
        }
        self.u64(d.mem_freq as u64);
        self.f64(d.predicted_power.get());
        self.f64(d.quantized_power.get());
        self.f64(d.budget_trim.get());
        self.f64(d.degradation);
        self.u64(u64::from(d.budget_bound) | u64::from(d.emergency) << 1);
    }

    /// Mixes in one fleet epoch's aggregate record.
    pub fn fleet_epoch(&mut self, e: &FleetEpoch) {
        self.u64(e.epoch);
        self.f64(e.budget_w);
        self.f64(e.committed_w);
        self.f64(e.power_w);
        self.f64(e.bips);
        self.u64(e.online_leaves as u64);
    }
}

/// Calls and operation counts attributed to one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCount {
    /// Calls made.
    pub calls: u64,
    /// `CostCounter` delta across those calls.
    pub cost: CostCounter,
}

/// Everything the wrappers count during one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// CPU ns of every FastCap `decide`.
    pub fastcap_decide_ns: Vec<u32>,
    /// Per-layer calls and cost deltas (recorded only while tracing).
    pub layers: BTreeMap<Layer, LayerCount>,
    /// `decide` calls that returned `Err`.
    pub decide_errors: u64,
    /// `on_budget_change` calls.
    pub budget_moves: u64,
    /// `on_active_set_change` calls that warm-carried.
    pub warm_carries: u64,
    /// Scenario control events applied by the runs.
    pub control_events: u64,
    /// DES epochs run inside `ScenarioRunner::run` while tracing.
    pub scenario_epochs: u64,
    /// Digest of the simulated outputs since the last [`take_digest`].
    pub digest: Digest,
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Runs `f` on the thread's tally.
pub fn with<T>(f: impl FnOnce(&mut Tally) -> T) -> T {
    TALLY.with(|t| f(&mut t.borrow_mut()))
}

/// Adds one call of `layer` with cost delta `cost`.
pub fn count(layer: Layer, cost: &CostCounter) {
    with(|t| {
        let e = t.layers.entry(layer).or_default();
        e.calls += 1;
        e.cost.add(cost);
    });
}

/// Decide samples the tally holds without growing: the buffer is touched
/// up front so that peak RSS does not depend on how many decides a run
/// fits in, which varies with host speed.
const DECIDE_SAMPLES: usize = 1 << 20;

/// Replaces the thread's tally with an empty one whose decide-sample
/// buffer is already resident.
pub fn reset() {
    with(|t| {
        *t = Tally::default();
        t.fastcap_decide_ns.resize(DECIDE_SAMPLES, 0);
        t.fastcap_decide_ns.clear();
    });
}

/// Returns the digest accumulated so far and starts a fresh one.
#[must_use]
pub fn take_digest() -> Digest {
    with(|t| std::mem::take(&mut t.digest))
}

/// Replaces the thread's tally with an empty one and returns the old.
#[must_use]
pub fn take() -> Tally {
    with(std::mem::take)
}
