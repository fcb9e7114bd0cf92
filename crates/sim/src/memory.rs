//! The memory subsystem: banks, the shared bus, and transfer blocking.
//!
//! Faithful to the paper's Fig. 1: each controller owns a set of FIFO banks
//! and one FCFS data bus. A bank serves one request at a time; when service
//! finishes the request must win the bus before the bank can start its next
//! request — the *transfer-blocking* property that makes the closed network
//! analytically intractable and motivates the counter-based approximation
//! (Eq. 1). The MemScale-style occupancy counters (`Q`, `U`, mean `s_m`) are
//! sampled here on every arrival and departure of the epoch: the paper's
//! 300 µs profiling phase is not modeled (DESIGN.md §2).

use crate::engine::{Event, EventQueue, Ps};
use std::collections::VecDeque;

/// One in-flight memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The issuing core for blocking reads; `None` for background
    /// writebacks (off the critical path — Sec. III-A).
    pub owner: Option<usize>,
    /// Sampled bank service time (row hit/miss resolved at issue).
    pub service: Ps,
}

/// Bank service state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No request in service.
    Idle,
    /// Serving a request (timing event pending).
    Serving,
    /// Service done; blocked waiting for the bus (transfer blocking).
    WaitingBus,
    /// Its request is on the bus.
    Transferring,
}

/// One DRAM bank: FIFO queue + the request in service.
#[derive(Debug)]
pub struct Bank {
    /// Requests waiting behind the current one.
    pub queue: VecDeque<Request>,
    /// Current occupant (valid unless `Idle`).
    pub current: Option<Request>,
    /// Service state.
    pub state: BankState,
}

impl Bank {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            current: None,
            state: BankState::Idle,
        }
    }

    /// Occupancy including the request in service.
    pub fn occupancy(&self) -> usize {
        self.queue.len() + usize::from(self.state != BankState::Idle)
    }
}

/// Profiling-window counter accumulators (MemScale counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemCounters {
    /// Sum and count of bank-queue-at-arrival samples (`Q`).
    pub q_sum: f64,
    /// Number of `Q` samples.
    pub q_n: u64,
    /// Sum and count of bus-waiters-at-departure samples (`U`).
    pub u_sum: f64,
    /// Number of `U` samples.
    pub u_n: u64,
    /// Sum of sampled bank service times (ps).
    pub service_sum: f64,
    /// Number of service-time samples.
    pub service_n: u64,
}

impl MemCounters {
    /// Mean `Q` (≥ 1 when any sample exists; 1.0 fallback when idle).
    pub fn mean_q(&self) -> f64 {
        if self.q_n == 0 {
            1.0
        } else {
            self.q_sum / self.q_n as f64
        }
    }

    /// Mean `U` (1.0 fallback when idle).
    pub fn mean_u(&self) -> f64 {
        if self.u_n == 0 {
            1.0
        } else {
            self.u_sum / self.u_n as f64
        }
    }

    /// Mean bank service time in picoseconds (row-hit `tCL` fallback).
    pub fn mean_service_ps(&self, fallback: Ps) -> f64 {
        if self.service_n == 0 {
            fallback as f64
        } else {
            self.service_sum / self.service_n as f64
        }
    }

    /// Clears all accumulators (start of an epoch).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Whole-epoch activity statistics (for the power model).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemActivity {
    /// Total bank busy time (sum over banks), ps.
    pub bank_busy: f64,
    /// Total bus busy time, ps.
    pub bus_busy: f64,
    /// Completed read (core-owned) transfers.
    pub reads: u64,
    /// Completed writeback transfers.
    pub writes: u64,
}

impl MemActivity {
    /// Clears the accumulators (start of an epoch).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Fraction of read traffic.
    pub fn read_fraction(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            1.0
        } else {
            self.reads as f64 / total as f64
        }
    }
}

/// One memory controller: banks + FCFS bus.
#[derive(Debug)]
pub struct MemController {
    /// Controller index (for event routing).
    pub id: usize,
    /// The banks.
    pub banks: Vec<Bank>,
    /// Banks waiting for the bus, FCFS.
    pub bus_queue: VecDeque<usize>,
    /// Bank currently transferring on the bus.
    pub transferring: Option<usize>,
    /// No new service/transfer may start before this time (memory DVFS
    /// transition freeze).
    pub frozen_until: Ps,
    /// Profiling counters.
    pub counters: MemCounters,
    /// Epoch activity stats.
    pub activity: MemActivity,
}

impl MemController {
    /// Creates a controller with `n_banks` banks.
    pub fn new(id: usize, n_banks: usize) -> Self {
        Self {
            id,
            banks: (0..n_banks).map(|_| Bank::new()).collect(),
            bus_queue: VecDeque::new(),
            transferring: None,
            frozen_until: 0,
            counters: MemCounters::default(),
            activity: MemActivity::default(),
        }
    }

    /// Whether the bus is currently transferring.
    pub fn bus_busy(&self) -> bool {
        self.transferring.is_some()
    }

    /// Enqueues `req` at `bank`, sampling the `Q` counter, and starts
    /// service if the bank is idle.
    pub fn enqueue(&mut self, bank: usize, req: Request, now: Ps, queue: &mut EventQueue) {
        let b = &mut self.banks[bank];
        // Q: requests found at the bank on arrival, including this one.
        self.counters.q_sum += (b.occupancy() + 1) as f64;
        self.counters.q_n += 1;
        self.counters.service_sum += req.service as f64;
        self.counters.service_n += 1;
        if b.state == BankState::Idle {
            b.current = Some(req);
            b.state = BankState::Serving;
            let start = now.max(self.frozen_until);
            queue.push(
                start + req.service,
                Event::BankDone {
                    ctrl: self.id,
                    bank,
                },
            );
        } else {
            b.queue.push_back(req);
        }
    }

    /// Handles service completion at `bank`: the bank now *blocks* on the
    /// bus (transfer blocking). Samples the `U` counter.
    pub fn on_bank_done(&mut self, bank: usize, now: Ps, bus_transfer: Ps, queue: &mut EventQueue) {
        let service = self.banks[bank]
            .current
            .expect("BankDone for a bank with no occupant")
            .service;
        self.activity.bank_busy += service as f64;
        self.banks[bank].state = BankState::WaitingBus;
        // U: waiters for the bus at departure, including this request and
        // the one currently transferring (its residual occupies the
        // departing request just the same).
        let waiting = self.bus_queue.len() + usize::from(self.bus_busy()) + 1;
        self.counters.u_sum += waiting as f64;
        self.counters.u_n += 1;
        if self.bus_busy() {
            self.bus_queue.push_back(bank);
        } else {
            self.start_transfer(bank, now, bus_transfer, queue);
        }
    }

    fn start_transfer(&mut self, bank: usize, now: Ps, bus_transfer: Ps, queue: &mut EventQueue) {
        debug_assert_eq!(self.banks[bank].state, BankState::WaitingBus);
        self.banks[bank].state = BankState::Transferring;
        self.transferring = Some(bank);
        let start = now.max(self.frozen_until);
        queue.push(start + bus_transfer, Event::BusDone { ctrl: self.id });
    }

    /// Handles bus-transfer completion: releases the bank (it may start its
    /// next queued request), starts the next waiting transfer, and returns
    /// the completed request so the server can wake its core.
    pub fn on_bus_done(&mut self, now: Ps, bus_transfer: Ps, queue: &mut EventQueue) -> Request {
        let bank = self
            .transferring
            .take()
            .expect("BusDone with no transfer in flight");
        self.activity.bus_busy += bus_transfer as f64;
        let done = self.banks[bank]
            .current
            .take()
            .expect("transferring bank with no occupant");
        if done.owner.is_some() {
            self.activity.reads += 1;
        } else {
            self.activity.writes += 1;
        }
        // Transfer blocking released: the bank may begin its next request.
        if let Some(next) = self.banks[bank].queue.pop_front() {
            self.banks[bank].current = Some(next);
            self.banks[bank].state = BankState::Serving;
            let start = now.max(self.frozen_until);
            queue.push(
                start + next.service,
                Event::BankDone {
                    ctrl: self.id,
                    bank,
                },
            );
        } else {
            self.banks[bank].state = BankState::Idle;
        }
        // Next bus customer, FCFS.
        if let Some(next_bank) = self.bus_queue.pop_front() {
            self.start_transfer(next_bank, now, bus_transfer, queue);
        }
        done
    }

    /// Total outstanding requests across banks and bus.
    pub fn outstanding(&self) -> usize {
        self.banks.iter().map(Bank::occupancy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(ctl: &mut MemController, queue: &mut EventQueue, sb: Ps) -> Vec<(Ps, Request)> {
        let mut done = Vec::new();
        while let Some((t, ev)) = queue.pop() {
            match ev {
                Event::BankDone { bank, .. } => ctl.on_bank_done(bank, t, sb, queue),
                Event::BusDone { .. } => {
                    let r = ctl.on_bus_done(t, sb, queue);
                    done.push((t, r));
                }
                Event::CoreReady { .. } | Event::Control { .. } => unreachable!(),
            }
        }
        done
    }

    fn req(owner: usize, service: Ps) -> Request {
        Request {
            owner: Some(owner),
            service,
        }
    }

    #[test]
    fn single_request_timing() {
        let mut ctl = MemController::new(0, 4);
        let mut q = EventQueue::new();
        ctl.enqueue(0, req(0, 30), 0, &mut q);
        let done = drain(&mut ctl, &mut q, 5);
        assert_eq!(done.len(), 1);
        // 30 ps service + 5 ps transfer.
        assert_eq!(done[0].0, 35);
        assert_eq!(done[0].1.owner, Some(0));
        assert_eq!(ctl.outstanding(), 0);
        assert_eq!(ctl.activity.reads, 1);
    }

    #[test]
    fn transfer_blocking_delays_next_service() {
        // Two requests at the same bank; a long transfer blocks the second
        // service even though the bank finished the first.
        let mut ctl = MemController::new(0, 1);
        let mut q = EventQueue::new();
        let sb = 100;
        ctl.enqueue(0, req(0, 10), 0, &mut q);
        ctl.enqueue(0, req(1, 10), 0, &mut q);
        let done = drain(&mut ctl, &mut q, sb);
        // First: service 0-10, transfer 10-110. Second service can only
        // start at 110 (transfer blocking!), done 120, transfer 120-220.
        assert_eq!(done[0].0, 110);
        assert_eq!(done[1].0, 220);
    }

    #[test]
    fn bus_is_fcfs_across_banks() {
        let mut ctl = MemController::new(0, 2);
        let mut q = EventQueue::new();
        let sb = 50;
        ctl.enqueue(0, req(0, 10), 0, &mut q);
        ctl.enqueue(1, req(1, 20), 0, &mut q);
        let done = drain(&mut ctl, &mut q, sb);
        // Bank 0 done at 10, grabs bus 10-60. Bank 1 done at 20, waits,
        // transfers 60-110.
        assert_eq!(done[0].0, 60);
        assert_eq!(done[0].1.owner, Some(0));
        assert_eq!(done[1].0, 110);
        assert_eq!(done[1].1.owner, Some(1));
    }

    #[test]
    fn parallel_banks_overlap_service() {
        let mut ctl = MemController::new(0, 2);
        let mut q = EventQueue::new();
        let sb = 1;
        ctl.enqueue(0, req(0, 100), 0, &mut q);
        ctl.enqueue(1, req(1, 100), 0, &mut q);
        let done = drain(&mut ctl, &mut q, sb);
        // Both services overlap; completions at 101 and 102 (bus serializes
        // only the 1 ps transfers).
        assert_eq!(done[0].0, 101);
        assert_eq!(done[1].0, 102);
    }

    #[test]
    fn counters_measure_queueing() {
        let mut ctl = MemController::new(0, 1);
        let mut q = EventQueue::new();
        ctl.enqueue(0, req(0, 10), 0, &mut q);
        ctl.enqueue(0, req(1, 10), 0, &mut q);
        ctl.enqueue(0, req(2, 10), 0, &mut q);
        // Q samples: 1, 2, 3 -> mean 2.
        assert!((ctl.counters.mean_q() - 2.0).abs() < 1e-12);
        drain(&mut ctl, &mut q, 5);
        // Three U samples collected (one per departure).
        assert_eq!(ctl.counters.u_n, 3);
        assert!(ctl.counters.mean_u() >= 1.0);
        // Service samples: 3 × 10 ps.
        assert!((ctl.counters.mean_service_ps(999) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn counters_fall_back_when_idle() {
        let c = MemCounters::default();
        assert_eq!(c.mean_q(), 1.0);
        assert_eq!(c.mean_u(), 1.0);
        assert_eq!(c.mean_service_ps(15_000), 15_000.0);
    }

    #[test]
    fn freeze_delays_starts() {
        let mut ctl = MemController::new(0, 1);
        let mut q = EventQueue::new();
        ctl.frozen_until = 1000;
        ctl.enqueue(0, req(0, 10), 0, &mut q);
        let done = drain(&mut ctl, &mut q, 5);
        // Service starts at 1000, done 1010, transfer starts ≥ 1010.
        assert_eq!(done[0].0, 1015);
    }

    #[test]
    fn writebacks_count_as_writes() {
        let mut ctl = MemController::new(0, 1);
        let mut q = EventQueue::new();
        ctl.enqueue(
            0,
            Request {
                owner: None,
                service: 10,
            },
            0,
            &mut q,
        );
        drain(&mut ctl, &mut q, 5);
        assert_eq!(ctl.activity.writes, 1);
        assert_eq!(ctl.activity.reads, 0);
        assert!((ctl.activity.read_fraction() - 0.0).abs() < 1e-12);
        let empty = MemActivity::default();
        assert_eq!(empty.read_fraction(), 1.0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut ctl = MemController::new(0, 2);
        let mut q = EventQueue::new();
        ctl.enqueue(0, req(0, 30), 0, &mut q);
        ctl.enqueue(1, req(1, 40), 0, &mut q);
        drain(&mut ctl, &mut q, 5);
        assert!((ctl.activity.bank_busy - 70.0).abs() < 1e-12);
        assert!((ctl.activity.bus_busy - 10.0).abs() < 1e-12);
    }
}
