//! Simulator configuration: the Table II platform plus calibration.
//!
//! [`SimConfig`] encodes everything Sec. IV-A specifies: per-core DVFS
//! (10 levels, 2.2–4.0 GHz, 0.65–1.2 V linear), memory-bus DVFS (200–800 MHz
//! in 66 MHz steps), cache latencies, DDR3 timing and currents (see
//! [`crate::dram`]), channel counts per core count (4 channels for 4/16/32
//! cores, 8 for 64), the 5 ms epoch with a 300 µs profiling phase, and the
//! fixed 10 W "other components" power.
//!
//! ## Calibration
//!
//! The paper reports measured peak full-system power of 60 / 120 / 210 /
//! 375 W for 4 / 16 / 32 / 64 cores, split roughly 60% CPU / 30% memory /
//! 10% other at maximum frequencies. Per-core maximum dynamic power is a
//! per-preset calibration constant chosen so our peaks land near those
//! numbers (documented in DESIGN.md §2); everything else follows from the
//! physical models.
//!
//! ## Time dilation
//!
//! Pure time-rescaling leaves queue dynamics (utilizations, queue-length
//! distributions) invariant, so we simulate a `1/time_dilation` slice of
//! each epoch instead of the full 5 ms — identical controller behaviour,
//! far fewer events. Dilation 1.0 simulates every nanosecond.

use fastcap_core::capper::FastCapConfig;
use fastcap_core::error::{Error, Result};
use fastcap_core::freq::{FreqLadder, VoltageCurve};
use fastcap_core::power::PowerLaw;
use fastcap_core::units::{Secs, Watts};
use serde::{Deserialize, Serialize};

use crate::dram::DramConfig;

/// Core execution mode (Sec. IV-B studies both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreMode {
    /// Single-issue in-order pipeline: every last-level miss blocks.
    InOrder,
    /// Idealized out-of-order: a 128-entry window with dependencies
    /// disregarded, so up to each application's MLP misses overlap and the
    /// think time becomes the interval between *stalls*.
    OutOfOrder,
}

/// How memory accesses spread across controllers (multi-controller mode,
/// Sec. IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Interleaving {
    /// Uniform distribution over controllers.
    Uniform,
    /// Highly skewed distribution: controller `j` receives a share
    /// proportional to `skew^j` (e.g. 0.55/0.25/0.14/0.06 for 4 controllers
    /// at the default skew).
    Skewed {
        /// Geometric decay factor in `(0, 1)`.
        decay: f64,
    },
}

impl Interleaving {
    /// Access-probability row over `n` controllers.
    pub fn weights(&self, n: usize) -> Vec<f64> {
        match *self {
            Interleaving::Uniform => vec![1.0 / n as f64; n],
            Interleaving::Skewed { decay } => {
                let raw: Vec<f64> = (0..n).map(|j| decay.powi(j as i32)).collect();
                let sum: f64 = raw.iter().sum();
                raw.into_iter().map(|w| w / sum).collect()
            }
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cores `N`.
    pub n_cores: usize,
    /// Execution mode.
    pub core_mode: CoreMode,
    /// Core DVFS ladder.
    pub core_ladder: FreqLadder,
    /// Core voltage/frequency curve.
    pub core_vcurve: VoltageCurve,
    /// Memory-bus DVFS ladder.
    pub mem_ladder: FreqLadder,
    /// Number of memory controllers (1 = the paper's default model).
    pub n_controllers: usize,
    /// DRAM banks per controller.
    pub banks_per_controller: usize,
    /// Access interleaving across controllers (ignored for 1 controller).
    pub interleaving: Interleaving,
    /// Bus burst length in bus cycles (`s_b = burst_cycles / f_bus`).
    pub bus_burst_cycles: u32,
    /// DRAM timing and power parameters (Table II).
    pub dram: DramConfig,
    /// Shared-L2 hit time (frequency-independent).
    pub l2_time: Secs,
    /// Epoch length (wall-clock semantics; the simulated slice is
    /// `epoch_length / time_dilation`).
    pub epoch_length: Secs,
    /// Profiling-phase length at the start of each epoch.
    pub profiling_length: Secs,
    /// Time dilation factor (≥ 1).
    pub time_dilation: f64,
    /// Maximum per-core dynamic power at full frequency and activity
    /// (calibration constant).
    pub core_dyn_max: Watts,
    /// Per-core static power.
    pub core_static: Watts,
    /// Memory-controller dynamic power at maximum frequency (all
    /// controllers combined).
    pub mc_dyn_max: Watts,
    /// Bus I/O dynamic power at maximum frequency and full utilization
    /// (all controllers combined).
    pub io_dyn_max: Watts,
    /// Fixed "other components" power (disks, NIC, board — Sec. IV-A).
    pub other_power: Watts,
    /// Activity floor: fraction of core dynamic power drawn while stalled
    /// (clock distribution etc.).
    pub idle_activity: f64,
    /// Core DVFS transition stall (the core halts this long).
    pub core_transition: Secs,
    /// Memory DVFS transition stall (all memory halts; PLL/DLL resync).
    pub mem_transition: Secs,
    /// Relative standard deviation of power-meter noise (0 = ideal meter).
    pub meter_noise: f64,
    /// Paper-reported peak full-system power target for this preset (used
    /// by the controller as `P̄`).
    pub peak_power: Watts,
}

impl SimConfig {
    /// The ISPASS platform preset for `n_cores ∈ {4, 16, 32, 64}` (other
    /// multiples of 4 interpolate the calibration).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `n_cores` is not a positive
    /// multiple of 4.
    pub fn ispass(n_cores: usize) -> Result<Self> {
        if n_cores == 0 || !n_cores.is_multiple_of(4) {
            return Err(Error::InvalidConfig {
                what: "n_cores",
                why: format!("must be a positive multiple of 4, got {n_cores}"),
            });
        }
        // 8 DDR3 channels for 64 cores, 4 otherwise (Table II). We fold
        // channel parallelism into the bus burst time: twice the channels,
        // half the burst cycles.
        let eight_channels = n_cores >= 64;
        let (dimms, burst, banks) = if eight_channels {
            (16, 2, 64)
        } else {
            (8, 4, 32)
        };
        // Peak calibration (DESIGN.md §2): per-core max dynamic power chosen
        // so the measured peak lands near 60/120/210/375 W.
        let core_dyn_max = match n_cores {
            4 => Watts(7.75),
            16 => Watts(5.5),
            32 => Watts(5.2),
            64 => Watts(4.67),
            n => Watts(5.5 - 0.01 * (n as f64 - 16.0)),
        };
        let peak_power = match n_cores {
            4 => Watts(60.0),
            16 => Watts(120.0),
            32 => Watts(210.0),
            64 => Watts(375.0),
            n => Watts(
                (core_dyn_max.get() + 0.5) * n as f64 + if eight_channels { 44.0 } else { 27.0 },
            ),
        };
        Ok(Self {
            n_cores,
            core_mode: CoreMode::InOrder,
            core_ladder: FreqLadder::ispass_core(),
            core_vcurve: VoltageCurve::ispass_core(),
            mem_ladder: FreqLadder::ispass_memory_bus(),
            n_controllers: 1,
            banks_per_controller: banks,
            interleaving: Interleaving::Uniform,
            bus_burst_cycles: burst,
            dram: DramConfig::ddr3_table_ii(dimms),
            l2_time: Secs::from_nanos(7.5),
            epoch_length: Secs::from_millis(5.0),
            profiling_length: Secs::from_micros(300.0),
            time_dilation: 20.0,
            core_dyn_max,
            core_static: Watts(0.5),
            mc_dyn_max: Watts(if eight_channels { 12.0 } else { 6.0 }),
            io_dyn_max: Watts(if eight_channels { 16.0 } else { 8.0 }),
            other_power: Watts(10.0),
            idle_activity: 0.35,
            core_transition: Secs::from_micros(10.0),
            mem_transition: Secs::from_micros(20.0),
            meter_noise: 0.01,
            peak_power,
        })
    }

    /// Switches to the idealized out-of-order mode.
    #[must_use]
    pub fn out_of_order(mut self) -> Self {
        self.core_mode = CoreMode::OutOfOrder;
        self
    }

    /// Switches to `n` memory controllers with the given interleaving.
    /// Banks are split evenly across controllers.
    #[must_use]
    pub fn with_controllers(mut self, n: usize, interleaving: Interleaving) -> Self {
        let total_banks = self.n_controllers * self.banks_per_controller;
        self.n_controllers = n.max(1);
        self.banks_per_controller = (total_banks / self.n_controllers).max(1);
        self.interleaving = interleaving;
        self
    }

    /// Overrides the time dilation.
    #[must_use]
    pub fn with_time_dilation(mut self, d: f64) -> Self {
        self.time_dilation = d.max(1.0);
        self
    }

    /// Overrides the random meter noise (0 disables).
    #[must_use]
    pub fn with_meter_noise(mut self, sigma: f64) -> Self {
        self.meter_noise = sigma.max(0.0);
        self
    }

    /// `s̄_b`: bus transfer time at the maximum memory frequency.
    pub fn min_bus_transfer_time(&self) -> Secs {
        Secs(self.bus_burst_cycles as f64 / self.mem_ladder.max().get())
    }

    /// Bus transfer time at memory ladder level `idx`.
    pub fn bus_transfer_time(&self, idx: usize) -> Secs {
        Secs(self.bus_burst_cycles as f64 / self.mem_ladder.at(idx).get())
    }

    /// The simulated slice of one epoch, after dilation.
    pub fn sim_epoch_length(&self) -> Secs {
        Secs(self.epoch_length.get() / self.time_dilation)
    }

    /// The simulated slice of the profiling phase, after dilation.
    pub fn sim_profiling_length(&self) -> Secs {
        Secs(self.profiling_length.get() / self.time_dilation)
    }

    /// Total memory static power (DRAM background + refresh at idle),
    /// used for the controller configuration.
    pub fn mem_static_power(&self) -> Watts {
        self.dram.background_power(0.0)
    }

    /// Builds the matching FastCap controller configuration for a budget
    /// fraction.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::InvalidConfig`] from the controller builder.
    pub fn controller_config(&self, budget_fraction: f64) -> Result<FastCapConfig> {
        self.controller_config_n(budget_fraction, self.n_cores)
    }

    /// Builds a controller configuration for a subset of `n_cores` online
    /// cores (scenario hotplug): the full machine's peak power and budget
    /// stay in force, but the controller models — and spends static power
    /// for — only the online cores.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::InvalidConfig`] from the controller builder.
    pub fn controller_config_n(
        &self,
        budget_fraction: f64,
        n_cores: usize,
    ) -> Result<FastCapConfig> {
        FastCapConfig::builder(n_cores)
            .budget_fraction(budget_fraction)
            .peak_power(self.peak_power)
            .core_ladder(self.core_ladder.clone())
            .mem_ladder(self.mem_ladder.clone())
            .static_powers(self.core_static, self.mem_static_power(), self.other_power)
            .min_bus_transfer_time(self.min_bus_transfer_time())
            .cache_time(self.l2_time)
            .initial_laws(
                PowerLaw {
                    p_max: self.core_dyn_max,
                    alpha: 2.5,
                },
                PowerLaw {
                    // Seed: controller + bus I/O at full tilt plus DRAM
                    // activity at a typical saturated utilization; the
                    // online fitter refines this within a few epochs.
                    p_max: self.mc_dyn_max + self.io_dyn_max + self.dram.activity_power(0.25, 0.7),
                    alpha: 1.0,
                },
            )
            .build()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on nonsensical values.
    pub fn validate(&self) -> Result<()> {
        if self.n_cores == 0 {
            return Err(Error::InvalidConfig {
                what: "n_cores",
                why: "must be positive".into(),
            });
        }
        if self.n_controllers == 0 || self.banks_per_controller == 0 {
            return Err(Error::InvalidConfig {
                what: "memory layout",
                why: "need at least one controller and one bank".into(),
            });
        }
        // Upper bounds from the event queue's packed representation
        // (engine.rs: 22 payload bits — 8 for the controller, 14 for the
        // bank, 22 for the core). Far above any modeled platform (the
        // paper tops out at 64 cores / 8 controllers), but enforced here
        // so an out-of-range config fails loudly instead of silently
        // mis-routing events.
        if self.n_cores > 1 << 22 {
            return Err(Error::InvalidConfig {
                what: "n_cores",
                why: format!("at most {} cores are supported", 1u32 << 22),
            });
        }
        if self.n_controllers > 1 << 8 || self.banks_per_controller > 1 << 14 {
            return Err(Error::InvalidConfig {
                what: "memory layout",
                why: format!(
                    "at most {} controllers x {} banks are supported",
                    1u32 << 8,
                    1u32 << 14
                ),
            });
        }
        if self.bus_burst_cycles == 0 {
            return Err(Error::InvalidConfig {
                what: "bus_burst_cycles",
                why: "must be positive".into(),
            });
        }
        if self.time_dilation.is_nan() || self.time_dilation < 1.0 {
            return Err(Error::InvalidConfig {
                what: "time_dilation",
                why: "must be >= 1".into(),
            });
        }
        if self.profiling_length.get() >= self.epoch_length.get() {
            return Err(Error::InvalidConfig {
                what: "profiling_length",
                why: "must be shorter than the epoch".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.idle_activity) {
            return Err(Error::InvalidConfig {
                what: "idle_activity",
                why: "must be in [0, 1]".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for n in [4, 16, 32, 64] {
            let c = SimConfig::ispass(n).unwrap();
            c.validate().unwrap();
            assert_eq!(c.n_cores, n);
        }
        assert!(SimConfig::ispass(0).is_err());
        assert!(SimConfig::ispass(6).is_err());
    }

    #[test]
    fn table_ii_derived_values() {
        let c = SimConfig::ispass(16).unwrap();
        assert_eq!(c.core_ladder.len(), 10);
        assert_eq!(c.mem_ladder.len(), 10);
        assert_eq!(c.banks_per_controller, 32);
        // s̄_b = 4 cycles / 800 MHz = 5 ns.
        assert!((c.min_bus_transfer_time().nanos() - 5.0).abs() < 1e-9);
        // Slowest: 4 / 200 MHz = 20 ns.
        assert!((c.bus_transfer_time(0).nanos() - 20.0).abs() < 1e-9);
        assert!((c.l2_time.nanos() - 7.5).abs() < 1e-12);
        assert!((c.epoch_length.millis() - 5.0).abs() < 1e-12);
        assert!((c.profiling_length.micros() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn sixty_four_cores_get_eight_channels() {
        let c = SimConfig::ispass(64).unwrap();
        assert_eq!(c.banks_per_controller, 64);
        assert_eq!(c.bus_burst_cycles, 2);
        assert!((c.min_bus_transfer_time().nanos() - 2.5).abs() < 1e-9);
        assert!(c.dram.dimms == 16);
    }

    #[test]
    fn peak_power_targets_match_paper() {
        for (n, p) in [(4, 60.0), (16, 120.0), (32, 210.0), (64, 375.0)] {
            let c = SimConfig::ispass(n).unwrap();
            assert_eq!(c.peak_power, Watts(p));
        }
    }

    #[test]
    fn dilation_shrinks_simulated_slice() {
        let c = SimConfig::ispass(16).unwrap().with_time_dilation(50.0);
        assert!((c.sim_epoch_length().micros() - 100.0).abs() < 1e-9);
        assert!((c.sim_profiling_length().micros() - 6.0).abs() < 1e-9);
        // Dilation below 1 clamps to 1.
        let c1 = SimConfig::ispass(16).unwrap().with_time_dilation(0.1);
        assert_eq!(c1.time_dilation, 1.0);
    }

    #[test]
    fn interleaving_weights() {
        let u = Interleaving::Uniform.weights(4);
        assert!(u.iter().all(|&w| (w - 0.25).abs() < 1e-12));
        let s = Interleaving::Skewed { decay: 0.45 }.weights(4);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[0] > 0.5, "first controller dominates: {s:?}");
        assert!(s[0] > s[1] && s[1] > s[2] && s[2] > s[3]);
    }

    #[test]
    fn with_controllers_redistributes_banks() {
        let c = SimConfig::ispass(16)
            .unwrap()
            .with_controllers(4, Interleaving::Uniform);
        assert_eq!(c.n_controllers, 4);
        assert_eq!(c.banks_per_controller, 8);
        c.validate().unwrap();
    }

    #[test]
    fn controller_config_is_consistent() {
        let c = SimConfig::ispass(16).unwrap();
        let cc = c.controller_config(0.6).unwrap();
        assert_eq!(cc.n_cores, 16);
        assert_eq!(cc.budget(), Watts(72.0));
        assert!((cc.min_bus_transfer_time.nanos() - 5.0).abs() < 1e-9);
        assert!(c.controller_config(0.0).is_err());
    }

    #[test]
    fn controller_config_n_keeps_machine_budget() {
        // Hotplug rebuild: 12 online cores still see the full machine's
        // peak power and absolute budget, but less core static power.
        let c = SimConfig::ispass(16).unwrap();
        let full = c.controller_config(0.6).unwrap();
        let sub = c.controller_config_n(0.6, 12).unwrap();
        assert_eq!(sub.n_cores, 12);
        assert_eq!(sub.peak_power, full.peak_power);
        assert_eq!(sub.budget(), full.budget());
        let delta = full.total_static_power().get() - sub.total_static_power().get();
        assert!((delta - 4.0 * c.core_static.get()).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SimConfig::ispass(16).unwrap();
        c.profiling_length = c.epoch_length;
        assert!(c.validate().is_err());
        let mut c = SimConfig::ispass(16).unwrap();
        c.bus_burst_cycles = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::ispass(16).unwrap();
        c.idle_activity = 1.5;
        assert!(c.validate().is_err());
        // Event-packing bounds (engine.rs): out-of-range layouts must be
        // rejected, not silently mis-routed.
        let mut c = SimConfig::ispass(16).unwrap();
        c.n_controllers = 257;
        assert!(c.validate().is_err());
        let mut c = SimConfig::ispass(16).unwrap();
        c.banks_per_controller = (1 << 14) + 1;
        assert!(c.validate().is_err());
        let mut c = SimConfig::ispass(16).unwrap();
        c.n_cores = (1 << 22) + 1;
        assert!(c.validate().is_err());
    }
}
