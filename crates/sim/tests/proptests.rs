//! Property-based tests for the simulator substrate.
//!
//! Invariants checked: conservation (every enqueued request completes
//! exactly once), transfer blocking (a bank never serves two requests whose
//! windows overlap its pending transfer), FCFS bus order, and closed-network
//! sanity against the MVA upper bound.

use fastcap_core::queueing::mva::{solve, ClosedNetwork};
use fastcap_core::units::Secs;
use fastcap_sim::engine::{Event, EventQueue, Ps};
use fastcap_sim::memory::{MemController, Request};
use proptest::prelude::*;

/// Drives one controller until quiescent; returns completions in order.
fn drain(ctl: &mut MemController, queue: &mut EventQueue, sb: Ps) -> Vec<(Ps, Request)> {
    let mut done = Vec::new();
    while let Some((t, ev)) = queue.pop() {
        match ev {
            Event::BankDone { bank, .. } => ctl.on_bank_done(bank, t, sb, queue),
            Event::BusDone { .. } => {
                let r = ctl.on_bus_done(t, sb, queue);
                done.push((t, r));
            }
            Event::CoreReady { .. } | Event::Control { .. } => {
                unreachable!("no cores or controls in this harness")
            }
        }
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every request completes exactly once, regardless of
    /// arrival pattern, bank spread or service times.
    #[test]
    fn all_requests_complete_once(
        reqs in proptest::collection::vec((0usize..8, 1u64..200, any::<bool>()), 1..120),
        sb in 1u64..100,
    ) {
        let mut ctl = MemController::new(0, 8);
        let mut queue = EventQueue::new();
        for (i, &(bank, service, wb)) in reqs.iter().enumerate() {
            ctl.enqueue(
                bank,
                Request { owner: if wb { None } else { Some(i) }, service },
                0,
                &mut queue,
            );
        }
        let done = drain(&mut ctl, &mut queue, sb);
        prop_assert_eq!(done.len(), reqs.len());
        prop_assert_eq!(ctl.outstanding(), 0);
        // Every core-owned request returned exactly once.
        let mut owners: Vec<usize> = done.iter().filter_map(|(_, r)| r.owner).collect();
        owners.sort_unstable();
        let mut expect: Vec<usize> = reqs
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, wb))| !wb)
            .map(|(i, _)| i)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(owners, expect);
        // Reads + writes accounted.
        prop_assert_eq!((ctl.activity.reads + ctl.activity.writes) as usize, reqs.len());
    }

    /// Bus completions are spaced at least one transfer apart (single FCFS
    /// bus), and total bus busy time equals completions × s_b.
    #[test]
    fn bus_serializes_transfers(
        reqs in proptest::collection::vec((0usize..4, 5u64..80), 2..60),
        sb in 5u64..60,
    ) {
        let mut ctl = MemController::new(0, 4);
        let mut queue = EventQueue::new();
        for (i, &(bank, service)) in reqs.iter().enumerate() {
            ctl.enqueue(bank, Request { owner: Some(i), service }, 0, &mut queue);
        }
        let done = drain(&mut ctl, &mut queue, sb);
        for w in done.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 + sb,
                "transfers overlap: {} then {} (sb={sb})", w[0].0, w[1].0);
        }
        let expected_busy = (done.len() as u64 * sb) as f64;
        prop_assert!((ctl.activity.bus_busy - expected_busy).abs() < 1e-9);
    }

    /// Transfer blocking: per bank, completion k+1 happens at least
    /// service + transfer after completion k (the bank cannot even *serve*
    /// the next request until its transfer finishes).
    #[test]
    fn transfer_blocking_spacing(
        services in proptest::collection::vec(5u64..100, 2..40),
        sb in 5u64..80,
    ) {
        // All requests to one bank: completions must be spaced by at least
        // service_{k+1} + sb.
        let mut ctl = MemController::new(0, 1);
        let mut queue = EventQueue::new();
        for (i, &service) in services.iter().enumerate() {
            ctl.enqueue(0, Request { owner: Some(i), service }, 0, &mut queue);
        }
        let done = drain(&mut ctl, &mut queue, sb);
        prop_assert_eq!(done.len(), services.len());
        for k in 1..done.len() {
            let min_gap = done[k].1.service + sb;
            prop_assert!(
                done[k].0 - done[k - 1].0 >= min_gap,
                "bank served during its own transfer: gap {} < {}",
                done[k].0 - done[k - 1].0, min_gap
            );
        }
    }

    /// Counter means stay within physical ranges.
    #[test]
    fn counters_are_physical(
        reqs in proptest::collection::vec((0usize..6, 5u64..60), 1..80),
        sb in 1u64..40,
    ) {
        let n = reqs.len();
        let mut ctl = MemController::new(0, 6);
        let mut queue = EventQueue::new();
        for (i, &(bank, service)) in reqs.iter().enumerate() {
            ctl.enqueue(bank, Request { owner: Some(i), service }, 0, &mut queue);
        }
        drain(&mut ctl, &mut queue, sb);
        let q = ctl.counters.mean_q();
        let u = ctl.counters.mean_u();
        prop_assert!(q >= 1.0 && q <= n as f64, "Q = {q}");
        prop_assert!(u >= 1.0 && u <= n as f64 + 1.0, "U = {u}");
        let s = ctl.counters.mean_service_ps(0);
        prop_assert!((5.0..60.0).contains(&s), "s_m = {s}");
    }
}

/// MVA cross-check: with negligible transfer times (no meaningful blocking)
/// the simulated closed network's throughput approaches the MVA solution;
/// with blocking it must not exceed it.
#[test]
fn simulated_throughput_bounded_by_mva() {
    use fastcap_sim::{Server, SimConfig};
    use fastcap_workloads::mixes;

    let cfg = SimConfig::ispass(16)
        .unwrap()
        .with_time_dilation(50.0)
        .with_meter_noise(0.0);
    let mix = mixes::by_name("MID2").unwrap();
    let mut server = Server::for_workload(cfg.clone(), &mix, 9).unwrap();
    let run = server.run(8, |_| None);
    let sim_rate: f64 = {
        // Memory accesses per second = instruction throughput / inst-per-miss.
        let tp = run.throughput(2);
        let apps = mix.instantiate(16).unwrap();
        tp.iter()
            .zip(&apps)
            .map(|(t, a)| t / a.profile.instructions_per_miss())
            .sum()
    };

    // MVA model of the same network (think+L2 as delay, banks + bus as
    // queueing stations with per-station visit ratios 1/B and 1).
    let apps = mix.instantiate(16).unwrap();
    let mean_z: f64 = apps
        .iter()
        .map(|a| a.profile.instructions_per_miss() * a.profile.base_cpi / 4.0e9)
        .sum::<f64>()
        / apps.len() as f64;
    let mean_sm: f64 = apps
        .iter()
        .map(|a| cfg.dram.mean_service_time(a.profile.row_hit_ratio).get())
        .sum::<f64>()
        / apps.len() as f64;
    // Writebacks add traffic: inflate visit ratios by the mean writeback
    // probability.
    let wb: f64 = apps
        .iter()
        .map(|a| a.profile.writeback_probability())
        .sum::<f64>()
        / apps.len() as f64;
    let banks = cfg.banks_per_controller;
    let mut stations: Vec<(f64, Secs)> = (0..banks)
        .map(|_| ((1.0 + wb) / banks as f64, Secs(mean_sm)))
        .collect();
    stations.push((1.0 + wb, Secs(cfg.min_bus_transfer_time().get())));
    let net = ClosedNetwork {
        customers: 16,
        think: Secs(mean_z + cfg.l2_time.get()),
        stations,
    };
    let mva_rate = solve(&net).unwrap().throughput;
    assert!(
        sim_rate <= mva_rate * 1.10,
        "sim {sim_rate:.3e} should not exceed MVA bound {mva_rate:.3e} (+10% slack)"
    );
    assert!(
        sim_rate >= mva_rate * 0.35,
        "sim {sim_rate:.3e} implausibly far below MVA {mva_rate:.3e}"
    );
}

// ---- timing wheel vs. binary-heap oracle -------------------------------
//
// The timing wheel (DESIGN.md §6) must pop in exactly the same
// (time, FIFO-sequence) order as the pre-overhaul `BinaryHeap` — that
// equivalence is what makes artifact bytes queue-implementation-invariant.
// These properties drive both queues through identical push/pop schedules
// spanning every wheel level, the overflow heap, cascades, and
// behind-the-cursor pushes.

use fastcap_sim::engine::HeapQueue;

/// Event constructor covering all three variants from packed test data.
fn event_for(i: usize) -> Event {
    match i % 3 {
        0 => Event::CoreReady { core: i % 64 },
        1 => Event::BankDone {
            ctrl: i % 4,
            bank: i % 32,
        },
        _ => Event::BusDone { ctrl: i % 4 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pops match the heap oracle exactly for arbitrary interleaved
    /// push/pop traces whose deltas span all wheel levels and overflow.
    #[test]
    fn wheel_matches_heap_oracle(
        ops in proptest::collection::vec((1u64..1u64 << 38, 0u32..4), 1..400),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut cursor: Ps = 0;
        for (i, &(delta, kind)) in ops.iter().enumerate() {
            // Skew deltas so most are near-future but some hit deep
            // levels / overflow, like a simulation schedule.
            let delta = match kind {
                0 => delta % (1 << 14),
                1 => delta % (1 << 20),
                2 => delta % (1 << 27),
                _ => delta, // up to ~2^38 ps: overflow territory
            };
            let ev = event_for(i);
            wheel.push(cursor + delta, ev);
            heap.push(cursor + delta, ev);
            prop_assert_eq!(wheel.len(), heap.len());
            if i % 3 == 0 {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(w, h);
                if let Some((t, _)) = w {
                    // Advance like a simulator: pops move the cursor, so
                    // later pushes land behind, at, and ahead of it.
                    cursor = cursor.max(t);
                }
            }
        }
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// `pop_if_before` is exactly "pop when earlier than the bound":
    /// equivalent to the oracle's peek-then-pop at every epoch boundary.
    #[test]
    fn pop_if_before_matches_bounded_oracle(
        pushes in proptest::collection::vec(1u64..1u64 << 22, 1..200),
        spans in proptest::collection::vec(1u64..1u64 << 16, 1..40),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in pushes.iter().enumerate() {
            let ev = event_for(i);
            wheel.push(t, ev);
            heap.push(t, ev);
        }
        let mut end: Ps = 0;
        for &span in &spans {
            end += span;
            loop {
                let expected = match heap.peek_time() {
                    Some(t) if t < end => heap.pop(),
                    _ => None,
                };
                let got = wheel.pop_if_before(end);
                prop_assert_eq!(got, expected);
                if got.is_none() {
                    break;
                }
            }
        }
        prop_assert_eq!(wheel.len(), heap.len());
    }

    /// Equal timestamps pop strictly in insertion order at any scale,
    /// including across level boundaries after long idle fast-forwards.
    #[test]
    fn fifo_among_equal_timestamps_everywhere(
        t in 1u64..1u64 << 36,
        n in 2usize..40,
    ) {
        let mut wheel = EventQueue::new();
        for i in 0..n {
            wheel.push(t, Event::CoreReady { core: i });
        }
        for i in 0..n {
            let (pt, ev) = wheel.pop().expect("n events pending");
            prop_assert_eq!(pt, t);
            prop_assert_eq!(ev, Event::CoreReady { core: i });
        }
    }
}
