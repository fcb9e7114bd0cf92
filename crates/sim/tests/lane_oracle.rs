//! Per-core draw lanes (DESIGN.md §11): the epoch-barrier prefill must be
//! byte-exact against the serial oracle, and per-lane streams must freeze
//! while their core is offline.
//!
//! The oracle (`Server::serial_oracle`) generates every draw record at
//! its consumption site with no prefill and no buffering, from its first
//! draw on — the role `HeapQueue` plays for the timing wheel. Equality
//! across seeds and mixes proves the barrier/prefill machinery neither
//! skips, duplicates nor reorders records.

use fastcap_sim::{ControlAction, Server, SimConfig};
use fastcap_workloads::mixes;
use proptest::prelude::*;

const MIXES: [&str; 4] = ["MIX1", "MEM1", "ILP2", "MID1"];

fn cfg(n_cores: usize, noise: f64) -> SimConfig {
    SimConfig::ispass(n_cores)
        .unwrap()
        .with_time_dilation(200.0)
        .with_meter_noise(noise)
}

fn build(mix: &str, n_cores: usize, seed: u64, noise: f64) -> Server {
    Server::for_workload(cfg(n_cores, noise), &mixes::by_name(mix).unwrap(), seed).unwrap()
}

fn build_oracle(mix: &str, n_cores: usize, seed: u64, noise: f64) -> Server {
    let apps = mixes::by_name(mix).unwrap().instantiate(n_cores).unwrap();
    Server::serial_oracle(cfg(n_cores, noise), apps, seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The prefilled lanes == the serial oracle, byte for byte, across
    /// seeds and mixes.
    #[test]
    fn lane_engine_matches_serial_oracle_at_any_lane_count(
        seed in 0u64..10_000,
        mix_idx in 0usize..MIXES.len(),
        noisy in any::<bool>(),
    ) {
        let mix = MIXES[mix_idx];
        let noise = if noisy { 0.01 } else { 0.0 };
        let mut oracle = build_oracle(mix, 4, seed, noise);
        let want = oracle.run(4, |_| None);
        let mut laned = build(mix, 4, seed, noise);
        let got = laned.run(4, |_| None);
        prop_assert_eq!(&got, &want, "prefilled lanes diverged from oracle");
        // The sampling-event attribution is part of the contract too.
        prop_assert_eq!(laned.rng_draws(), oracle.rng_draws());
        // One barrier per epoch, and the prefill refills streams.
        let cost = laned.cost();
        prop_assert!(cost.barrier_waits == 4 && cost.lane_syncs > 0);
        // The oracle batches nothing, its first draws included.
        let cost = oracle.cost();
        prop_assert_eq!((cost.lane_syncs, cost.barrier_waits), (0, 0));
    }
}

/// Regression for the scn_hotplug path: while a core is offline, its lane's
/// draw streams freeze — no think, access or meter record is consumed on
/// its behalf — and resume when it returns.
#[test]
fn offline_core_freezes_its_lane_streams() {
    let mut s = build("MID1", 16, 31, 0.01);
    s.schedule_control(
        2,
        ControlAction::SetOnline {
            core: 3,
            online: false,
        },
    )
    .unwrap();
    s.schedule_control(
        6,
        ControlAction::SetOnline {
            core: 3,
            online: true,
        },
    )
    .unwrap();
    s.run(3, |_| None);
    let at_offline: Vec<u64> = (0..16).map(|c| s.lane_draws(c)).collect();
    assert!(
        at_offline.iter().all(|&d| d > 0),
        "every lane drew at start"
    );
    s.run(3, |_| None); // epochs 3..6: core 3 fully offline
    let mid: Vec<u64> = (0..16).map(|c| s.lane_draws(c)).collect();
    assert_eq!(mid[3], at_offline[3], "offline core's lane must freeze");
    assert!(
        mid[4] > at_offline[4],
        "online cores keep consuming their lanes"
    );
    s.run(3, |_| None); // back online at epoch 6
    assert!(s.lane_draws(3) > mid[3], "returning core resumes its lane");
}

/// The freeze also holds under the serial oracle, so the lane/oracle pair
/// cannot drift apart across a hotplug window.
#[test]
fn oracle_and_lane_engine_agree_across_hotplug() {
    let plan = |s: &mut Server| {
        for core in [1usize, 5, 9] {
            s.schedule_control(
                1,
                ControlAction::SetOnline {
                    core,
                    online: false,
                },
            )
            .unwrap();
            s.schedule_control(4, ControlAction::SetOnline { core, online: true })
                .unwrap();
        }
    };
    let mut oracle = build_oracle("MID1", 16, 77, 0.01);
    plan(&mut oracle);
    let want = oracle.run(7, |_| None);
    let mut laned = build("MID1", 16, 77, 0.01);
    plan(&mut laned);
    assert_eq!(laned.run(7, |_| None), want);
    assert_eq!(laned.lane_draws(1), oracle.lane_draws(1));
}
