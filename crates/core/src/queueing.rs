//! Closed-network queuing model of the memory subsystem.
//!
//! The paper models the many-core machine as a closed queuing network
//! (Fig. 1/2): each core alternates between a *think* phase of average
//! duration `z_i` (compute, scaled by core DVFS), a fixed shared-cache phase
//! `c_i`, and a memory access whose mean *response time* `R` covers bank
//! queuing, bank service (`s_m`) and the FCFS shared bus transfer (`s_b`,
//! scaled by memory DVFS). The memory exhibits *transfer blocking*: a bank
//! cannot start its next request until its finished request has won the bus
//! and been transferred.
//!
//! No closed form exists for the mean response time under transfer blocking,
//! so FastCap uses the counter-based approximation (Eq. 1):
//!
//! ```text
//! R(s_b) ≈ Q · (s_m + U · s_b)
//! ```
//!
//! where `Q` is the expected number of requests found at a bank on arrival
//! (including the new one) and `U` the expected number of bus-waiters at
//! departure (including the departing request). Both come directly from the
//! memory-controller occupancy counters proposed by MemScale.
//!
//! This module also provides:
//!
//! * [`MultiControllerModel`] — the Sec. IV-B extension where each memory
//!   controller has its own `(Q, U, s_m)` and each core's effective response
//!   time is the access-probability-weighted average.
//! * [`mva`] — an exact Mean Value Analysis solver for the *non-blocking*
//!   closed network, used as an independent reference to validate the
//!   discrete-event simulator (blocking makes the true network slower than
//!   MVA predicts, so MVA bounds throughput from above).

use crate::error::{Error, Result};
use crate::units::Secs;

/// Counter-based response-time model for one memory controller (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseTimeModel {
    /// Expected queue length seen at a bank on arrival, including the
    /// arriving request (`Q ≥ 1` whenever the memory is in use).
    pub bank_queue: f64,
    /// Expected number of requests waiting for the bus at departure,
    /// including the departing one (`U ≥ 1`).
    pub bus_queue: f64,
    /// Mean bank service (access) time `s_m`.
    pub bank_service_time: Secs,
}

impl ResponseTimeModel {
    /// Creates a model, validating counter sanity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] if queues are not `>= 0` and finite or
    /// the service time is negative/non-finite.
    pub fn new(bank_queue: f64, bus_queue: f64, bank_service_time: Secs) -> Result<Self> {
        if !(bank_queue >= 0.0 && bank_queue.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!("bank_queue must be >= 0 and finite, got {bank_queue}"),
            });
        }
        if !(bus_queue >= 0.0 && bus_queue.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!("bus_queue must be >= 0 and finite, got {bus_queue}"),
            });
        }
        if !(bank_service_time.get() >= 0.0 && bank_service_time.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!("bank_service_time must be >= 0 and finite, got {bank_service_time}"),
            });
        }
        Ok(Self {
            bank_queue,
            bus_queue,
            bank_service_time,
        })
    }

    /// Mean memory response time at bus transfer time `s_b` (Eq. 1):
    /// `R(s_b) = Q · (s_m + U · s_b)`.
    #[inline]
    pub fn response_time(&self, bus_transfer_time: Secs) -> Secs {
        Secs(
            self.bank_queue
                * (self.bank_service_time.get() + self.bus_queue * bus_transfer_time.get()),
        )
    }
}

/// Weighted multi-controller response-time model (Sec. IV-B).
///
/// Each controller `j` has its own counters; core `i` experiences the
/// weighted response time `R_i(s_b) = Σ_j w_ij · R_j(s_b)` where `w_ij` is
/// the probability that core `i`'s accesses are routed to controller `j`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiControllerModel {
    controllers: Vec<ResponseTimeModel>,
    /// `weights[i][j]`: probability core `i` accesses controller `j`.
    weights: Vec<Vec<f64>>,
}

impl MultiControllerModel {
    /// Creates a weighted model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] if there are no controllers, a weight
    /// row has the wrong length, contains negatives, or does not sum to ~1.
    pub fn new(controllers: Vec<ResponseTimeModel>, weights: Vec<Vec<f64>>) -> Result<Self> {
        if controllers.is_empty() {
            return Err(Error::InvalidModel {
                why: "need at least one memory controller".into(),
            });
        }
        for (i, row) in weights.iter().enumerate() {
            if row.len() != controllers.len() {
                return Err(Error::InvalidModel {
                    why: format!(
                        "weight row {i} has {} entries for {} controllers",
                        row.len(),
                        controllers.len()
                    ),
                });
            }
            let sum: f64 = row.iter().sum();
            if row.iter().any(|&w| w < 0.0 || !w.is_finite()) || (sum - 1.0).abs() > 1e-6 {
                return Err(Error::InvalidModel {
                    why: format!("weight row {i} must be non-negative and sum to 1, sums to {sum}"),
                });
            }
        }
        Ok(Self {
            controllers,
            weights,
        })
    }

    /// Uniform access distribution over `controllers` for `n_cores` cores.
    ///
    /// # Errors
    ///
    /// Propagates the validation of [`MultiControllerModel::new`].
    pub fn uniform(controllers: Vec<ResponseTimeModel>, n_cores: usize) -> Result<Self> {
        let k = controllers.len();
        let row = vec![1.0 / k as f64; k];
        Self::new(controllers, vec![row; n_cores])
    }

    /// Number of cores the weight matrix covers (one row per core).
    #[inline]
    pub fn core_count(&self) -> usize {
        self.weights.len()
    }

    /// The per-controller models.
    #[inline]
    pub fn controllers(&self) -> &[ResponseTimeModel] {
        &self.controllers
    }

    /// Weighted mean response time for `core` at bus transfer time `s_b`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range of the weight matrix.
    pub fn response_time_for_core(&self, core: usize, bus_transfer_time: Secs) -> Secs {
        let row = &self.weights[core];
        let mut r = 0.0;
        for (j, ctl) in self.controllers.iter().enumerate() {
            r += row[j] * ctl.response_time(bus_transfer_time).get();
        }
        Secs(r)
    }
}

/// Exact Mean Value Analysis for the non-blocking closed network.
///
/// Used as an independent correctness oracle for the simulator: with
/// transfer blocking disabled, simulated throughput must match MVA; with
/// blocking enabled it must not exceed it.
pub mod mva {
    use super::*;

    /// A closed queuing network: `customers` circulate among one delay
    /// station (mean think time `think`) and a set of FCFS queueing stations
    /// with the given visit ratios and mean service times.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ClosedNetwork {
        /// Number of circulating customers (cores).
        pub customers: usize,
        /// Mean think time at the delay station (per visit).
        pub think: Secs,
        /// `(visit_ratio, service_time)` for each queueing station.
        pub stations: Vec<(f64, Secs)>,
    }

    /// MVA solution.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MvaSolution {
        /// System throughput in customers (memory accesses) per second.
        pub throughput: f64,
        /// Mean response time across the queueing stations (per cycle).
        pub response_time: Secs,
        /// Mean queue length at each station.
        pub queue_lengths: Vec<f64>,
    }

    /// Runs exact single-class MVA.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] for zero customers, no stations, or
    /// negative parameters.
    pub fn solve(net: &ClosedNetwork) -> Result<MvaSolution> {
        if net.customers == 0 {
            return Err(Error::InvalidModel {
                why: "MVA needs at least one customer".into(),
            });
        }
        if net.stations.is_empty() {
            return Err(Error::InvalidModel {
                why: "MVA needs at least one station".into(),
            });
        }
        if net.think.get() < 0.0 {
            return Err(Error::InvalidModel {
                why: "think time must be non-negative".into(),
            });
        }
        for &(v, s) in &net.stations {
            if v < 0.0 || s.get() < 0.0 || !v.is_finite() || !s.is_finite() {
                return Err(Error::InvalidModel {
                    why: "visit ratios and service times must be non-negative and finite".into(),
                });
            }
        }

        let k = net.stations.len();
        let mut queue = vec![0.0_f64; k];
        let mut throughput = 0.0;
        let mut total_r = 0.0;
        for n in 1..=net.customers {
            // Residence time at each station with n customers.
            let mut r = vec![0.0_f64; k];
            total_r = 0.0;
            for (j, &(v, s)) in net.stations.iter().enumerate() {
                r[j] = v * s.get() * (1.0 + queue[j]);
                total_r += r[j];
            }
            throughput = n as f64 / (net.think.get() + total_r);
            for j in 0..k {
                queue[j] = throughput * r[j];
            }
        }
        Ok(MvaSolution {
            throughput,
            response_time: Secs(total_r),
            queue_lengths: queue,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::mva::{solve, ClosedNetwork};
    use super::*;

    #[test]
    fn response_time_matches_eq1() {
        let m = ResponseTimeModel::new(2.0, 1.5, Secs::from_nanos(30.0)).unwrap();
        // R = Q (s_m + U s_b) = 2 * (30 + 1.5*10) = 90 ns.
        let r = m.response_time(Secs::from_nanos(10.0));
        assert!((r.nanos() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn response_time_monotone_in_bus_time() {
        let m = ResponseTimeModel::new(1.7, 1.2, Secs::from_nanos(25.0)).unwrap();
        let mut prev = Secs(0.0);
        for ns in [5.0, 10.0, 15.0, 20.0] {
            let r = m.response_time(Secs::from_nanos(ns));
            assert!(r > prev);
            prev = r;
        }
    }

    #[test]
    fn model_rejects_garbage() {
        assert!(ResponseTimeModel::new(-1.0, 1.0, Secs(1e-9)).is_err());
        assert!(ResponseTimeModel::new(1.0, f64::NAN, Secs(1e-9)).is_err());
        assert!(ResponseTimeModel::new(1.0, 1.0, Secs(-1e-9)).is_err());
        assert!(ResponseTimeModel::new(1.0, 1.0, Secs(f64::INFINITY)).is_err());
    }

    #[test]
    fn multi_controller_uniform_equals_average() {
        let fast = ResponseTimeModel::new(1.0, 1.0, Secs::from_nanos(20.0)).unwrap();
        let slow = ResponseTimeModel::new(3.0, 2.0, Secs::from_nanos(40.0)).unwrap();
        let m = MultiControllerModel::uniform(vec![fast, slow], 2).unwrap();
        let sb = Secs::from_nanos(10.0);
        let expect = 0.5 * (fast.response_time(sb).get() + slow.response_time(sb).get());
        for core in 0..2 {
            assert!((m.response_time_for_core(core, sb).get() - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn multi_controller_skew_prefers_local() {
        let fast = ResponseTimeModel::new(1.0, 1.0, Secs::from_nanos(20.0)).unwrap();
        let slow = ResponseTimeModel::new(4.0, 3.0, Secs::from_nanos(50.0)).unwrap();
        let m = MultiControllerModel::new(vec![fast, slow], vec![vec![0.9, 0.1], vec![0.1, 0.9]])
            .unwrap();
        let sb = Secs::from_nanos(10.0);
        // Core 0 mostly hits the fast controller and must see a smaller R.
        assert!(m.response_time_for_core(0, sb) < m.response_time_for_core(1, sb));
    }

    #[test]
    fn multi_controller_validation() {
        let c = ResponseTimeModel::new(1.0, 1.0, Secs(1e-9)).unwrap();
        assert!(MultiControllerModel::new(vec![], vec![]).is_err());
        assert!(MultiControllerModel::new(vec![c], vec![vec![0.5, 0.5]]).is_err());
        assert!(MultiControllerModel::new(vec![c], vec![vec![0.5]]).is_err());
        assert!(MultiControllerModel::new(vec![c], vec![vec![-1.0]]).is_err());
        assert!(MultiControllerModel::new(vec![c], vec![vec![1.0]]).is_ok());
    }

    #[test]
    fn mva_single_customer_has_no_queueing() {
        // One customer never queues: throughput = 1 / (Z + sum of demands).
        let net = ClosedNetwork {
            customers: 1,
            think: Secs(100e-9),
            stations: vec![(1.0, Secs(30e-9)), (1.0, Secs(10e-9))],
        };
        let sol = solve(&net).unwrap();
        assert!((sol.throughput - 1.0 / 140e-9).abs() / sol.throughput < 1e-12);
        assert!((sol.response_time.nanos() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn mva_throughput_saturates_at_bottleneck() {
        // With many customers the bottleneck station (largest demand) caps
        // throughput at 1/demand_max.
        let net = ClosedNetwork {
            customers: 64,
            think: Secs(50e-9),
            stations: vec![(1.0, Secs(30e-9)), (1.0, Secs(10e-9))],
        };
        let sol = solve(&net).unwrap();
        let cap = 1.0 / 30e-9;
        assert!(sol.throughput <= cap * (1.0 + 1e-9));
        assert!(sol.throughput > cap * 0.95, "should be near saturation");
    }

    #[test]
    fn mva_throughput_monotone_in_population() {
        let mut prev = 0.0;
        for n in [1, 2, 4, 8, 16] {
            let net = ClosedNetwork {
                customers: n,
                think: Secs(100e-9),
                stations: vec![(1.0, Secs(20e-9))],
            };
            let t = solve(&net).unwrap().throughput;
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn mva_rejects_bad_networks() {
        let ok_station = vec![(1.0, Secs(1e-9))];
        assert!(solve(&ClosedNetwork {
            customers: 0,
            think: Secs(0.0),
            stations: ok_station.clone(),
        })
        .is_err());
        assert!(solve(&ClosedNetwork {
            customers: 1,
            think: Secs(0.0),
            stations: vec![],
        })
        .is_err());
        assert!(solve(&ClosedNetwork {
            customers: 1,
            think: Secs(-1.0),
            stations: ok_station.clone(),
        })
        .is_err());
        assert!(solve(&ClosedNetwork {
            customers: 1,
            think: Secs(0.0),
            stations: vec![(-1.0, Secs(1e-9))],
        })
        .is_err());
    }
}
