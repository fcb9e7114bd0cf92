//! DDR3 timing and power, from Table II.
//!
//! Timing: a row-buffer hit costs `tCL`; a row-buffer miss costs
//! `tRP + tRCD + tCL` (precharge, activate, then CAS). The remaining Table II
//! parameters (`tFAW`, `tRTP`, `tRAS`, `tRRD`) are encoded for completeness
//! and folded into a small fixed overhead on row misses (`tRAS` limits how
//! soon a row can close; at the bank-level abstraction this manifests as a
//! minimum row cycle time).
//!
//! Power: the Micron-style current-based model. Each Table II current is
//! per DRAM device; a 2 GB ECC DIMM has two ranks of 8 devices (plus ECC,
//! ignored), so DIMM power = 16 × device power at `VDD = 1.5 V`:
//!
//! * background: active/precharge standby weighted by bank utilization;
//! * activate/read/write: the row-buffer current increment while a bank is
//!   actively serving;
//! * refresh: the refresh current for the refresh duty cycle.
//!
//! DRAM core timing does not scale with the bus frequency (MemScale scales
//! bus and DIMM interface frequency; array timing in nanoseconds is fixed),
//! which is why the paper models memory DVFS purely through the transfer
//! time `s_b`.

use fastcap_core::units::{Secs, Watts};

/// DDR3 configuration straight out of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of DIMMs (8 × 2 GB for 4 channels; 16 for 8 channels).
    pub dimms: usize,
    /// Devices per DIMM contributing current (2 ranks × 8 devices).
    pub devices_per_dimm: usize,
    /// Supply voltage.
    pub vdd: f64,
    /// `tRCD` — row-to-column delay.
    pub t_rcd: Secs,
    /// `tRP` — row precharge.
    pub t_rp: Secs,
    /// `tCL` — CAS latency.
    pub t_cl: Secs,
    /// `tRAS` — minimum row-active time (28 memory cycles at 800 MHz).
    pub t_ras: Secs,
    /// Refresh period (64 ms for all rows).
    pub refresh_period: Secs,
    /// Refresh duty cycle (fraction of time a rank is refreshing).
    pub refresh_duty: f64,
    /// Row-buffer read current (A, per device).
    pub i_read: f64,
    /// Row-buffer write current (A, per device).
    pub i_write: f64,
    /// Precharge current (A, per device).
    pub i_precharge: f64,
    /// Active standby current (A, per device).
    pub i_act_standby: f64,
    /// Precharge standby current (A, per device).
    pub i_pre_standby: f64,
    /// Precharge powerdown current (A, per device).
    pub i_pre_powerdown: f64,
    /// Refresh current (A, per device).
    pub i_refresh: f64,
    /// Fraction of idle time the controller spends ranks in powerdown
    /// (CKE-low) rather than standby.
    pub powerdown_fraction: f64,
    /// Multiplier on the row-buffer activity power, accounting for the
    /// activate/precharge energy that the service-time current
    /// approximation does not capture (calibrated so the memory subsystem
    /// contributes ~30% of peak power, Sec. IV-A).
    pub activity_scale: f64,
}

impl DramConfig {
    /// Table II values for the given DIMM count.
    pub fn ddr3_table_ii(dimms: usize) -> Self {
        Self {
            dimms,
            devices_per_dimm: 16,
            vdd: 1.5,
            t_rcd: Secs::from_nanos(15.0),
            t_rp: Secs::from_nanos(15.0),
            t_cl: Secs::from_nanos(15.0),
            // 28 cycles at 800 MHz = 35 ns.
            t_ras: Secs::from_nanos(35.0),
            refresh_period: Secs::from_millis(64.0),
            // 8192 rows refreshed per 64 ms window at ~160 ns each ≈ 2%.
            refresh_duty: 0.02,
            i_read: 0.250,
            i_write: 0.250,
            i_precharge: 0.120,
            i_act_standby: 0.067,
            i_pre_standby: 0.070,
            i_pre_powerdown: 0.045,
            i_refresh: 0.240,
            powerdown_fraction: 0.7,
            activity_scale: 2.5,
        }
    }

    /// Bank service time for one access.
    ///
    /// Row hit: `tCL`. Row miss: `tRP + tRCD + tCL`, floored by the row
    /// cycle constraint `tRAS + tRP` (the previous row must have been open
    /// at least `tRAS`).
    pub fn bank_service_time(&self, row_hit: bool) -> Secs {
        if row_hit {
            self.t_cl
        } else {
            let miss = self.t_rp + self.t_rcd + self.t_cl;
            miss.max(self.t_ras + self.t_rp - self.t_ras * 0.5)
        }
    }

    /// Mean bank service time at a given row-hit ratio.
    pub fn mean_service_time(&self, row_hit_ratio: f64) -> Secs {
        let h = row_hit_ratio.clamp(0.0, 1.0);
        self.bank_service_time(true) * h + self.bank_service_time(false) * (1.0 - h)
    }

    /// Total device count.
    fn devices(&self) -> f64 {
        (self.dimms * self.devices_per_dimm) as f64
    }

    /// Background + refresh power at the given average bank utilization
    /// (0 = all banks precharged/idle, 1 = all banks active).
    ///
    /// Idle ranks spend `powerdown_fraction` of their time in precharge
    /// powerdown (CKE low, 45 mA per Table II) and the rest in precharge
    /// standby; busy ranks draw active standby. At zero utilization this is
    /// the frequency-independent "static" part of memory power.
    pub fn background_power(&self, bank_utilization: f64) -> Watts {
        let u = bank_utilization.clamp(0.0, 1.0);
        let idle = self.powerdown_fraction * self.i_pre_powerdown
            + (1.0 - self.powerdown_fraction) * self.i_pre_standby;
        let standby = u * self.i_act_standby + (1.0 - u) * idle;
        let refresh = self.refresh_duty * (self.i_refresh - idle).max(0.0);
        Watts(self.vdd * (standby + refresh) * self.devices())
    }

    /// Incremental (above standby) power while banks are actively serving,
    /// at the given bank utilization and read fraction. `activity_scale`
    /// folds in the activate/precharge energy the service-time current
    /// approximation misses.
    pub fn activity_power(&self, bank_utilization: f64, read_fraction: f64) -> Watts {
        let u = bank_utilization.clamp(0.0, 1.0);
        let r = read_fraction.clamp(0.0, 1.0);
        let i_rw = r * self.i_read + (1.0 - r) * self.i_write;
        let incr = (i_rw - self.i_act_standby).max(0.0) * self.activity_scale;
        Watts(self.vdd * incr * self.devices() * u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::ddr3_table_ii(8)
    }

    #[test]
    fn timing_matches_table_ii() {
        let d = cfg();
        assert!((d.t_rcd.nanos() - 15.0).abs() < 1e-12);
        assert!((d.t_rp.nanos() - 15.0).abs() < 1e-12);
        assert!((d.t_cl.nanos() - 15.0).abs() < 1e-12);
        assert!((d.refresh_period.millis() - 64.0).abs() < 1e-12);
    }

    #[test]
    fn hit_is_faster_than_miss() {
        let d = cfg();
        let hit = d.bank_service_time(true);
        let miss = d.bank_service_time(false);
        assert!((hit.nanos() - 15.0).abs() < 1e-12);
        assert!(miss.nanos() >= 45.0 - 1e-12, "miss = {} ns", miss.nanos());
        assert!(miss > hit);
    }

    #[test]
    fn mean_service_interpolates() {
        let d = cfg();
        let s0 = d.mean_service_time(0.0);
        let s1 = d.mean_service_time(1.0);
        let sh = d.mean_service_time(0.5);
        assert!((sh.get() - 0.5 * (s0.get() + s1.get())).abs() < 1e-15);
        // Clamps out-of-range ratios.
        assert_eq!(d.mean_service_time(2.0), s1);
    }

    #[test]
    fn background_power_uses_powerdown_when_idle() {
        // 128 devices * 1.5 V * (~0.053 idle mix + refresh) ≈ 11 W idle;
        // fully busy ranks draw active standby (67 mA) ≈ 13 W.
        let d = cfg();
        let idle = d.background_power(0.0);
        assert!(
            idle.get() > 9.0 && idle.get() < 13.0,
            "idle background = {idle}"
        );
        let busy = d.background_power(1.0);
        assert!(busy > idle, "busy ranks leave powerdown: {busy} vs {idle}");
    }

    #[test]
    fn activity_power_scales_with_utilization() {
        // Full-tilt reads: (250-67) mA * 1.5 V * 128 devices * 2.5 ≈ 88 W
        // theoretical ceiling; realistic bank utilizations (< 0.3 under bus
        // saturation) land the DRAM activity share near the paper's ~30%
        // memory split.
        let d = cfg();
        let p = d.activity_power(1.0, 1.0);
        assert!(p.get() > 50.0 && p.get() < 100.0, "max activity = {p}");
        assert_eq!(d.activity_power(0.0, 1.0), Watts(0.0));
        // At a bus-saturated utilization the share is plausible.
        let typical = d.activity_power(0.2, 0.7);
        assert!(
            typical.get() > 10.0 && typical.get() < 25.0,
            "typical activity = {typical}"
        );
        // Writes draw the same row-buffer current in Table II.
        assert_eq!(
            d.activity_power(0.5, 0.0).get(),
            d.activity_power(0.5, 1.0).get()
        );
    }

    #[test]
    fn sixteen_dimms_double_the_power() {
        let d8 = cfg();
        let d16 = DramConfig::ddr3_table_ii(16);
        assert!(
            (d16.background_power(0.0).get() / d8.background_power(0.0).get() - 2.0).abs() < 1e-9
        );
    }
}
