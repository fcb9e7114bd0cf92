//! Integration tests for the Sec. IV-B platform variations: out-of-order
//! cores, multiple memory controllers with skewed interleaving, and larger
//! core counts (the Fig. 12/13 configurations).

use fastcap_bench::harness::{synthetic_controller_config, synthetic_observation};
use fastcap_core::capper::FastCapController;
use fastcap_policies::{CappingPolicy, FastCapPolicy};
use fastcap_sim::{Interleaving, RunResult, Server, SimConfig};
use fastcap_workloads::mixes;
use std::time::Instant;

fn capped(cfg: &SimConfig, mix: &str, budget: f64, epochs: usize, seed: u64) -> RunResult {
    let ctl_cfg = cfg.controller_config(budget).unwrap();
    let mut policy = FastCapPolicy::new(ctl_cfg).unwrap();
    let mix = mixes::by_name(mix).unwrap();
    let mut server = Server::for_workload(cfg.clone(), &mix, seed).unwrap();
    server.run(epochs, |obs| policy.decide(obs).ok())
}

fn baseline(cfg: &SimConfig, mix: &str, epochs: usize, seed: u64) -> RunResult {
    let mix = mixes::by_name(mix).unwrap();
    let mut server = Server::for_workload(cfg.clone(), &mix, seed).unwrap();
    server.run(epochs, |_| None)
}

/// Mean wall-clock µs of one FastCap decide() on the synthetic `n_cores`
/// observation, over `iters` calls after a 10-decide warm-up.
fn measure_decide_micros(n_cores: usize, iters: u32) -> f64 {
    let cfg = synthetic_controller_config(n_cores, 0.6).unwrap();
    let mut ctl = FastCapController::new(cfg).unwrap();
    let obs = synthetic_observation(n_cores);
    for _ in 0..10 {
        ctl.decide(&obs).unwrap();
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(ctl.decide(&obs).unwrap());
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

#[test]
fn out_of_order_mode_is_capped_and_fair() {
    let cfg = SimConfig::ispass(16)
        .unwrap()
        .with_time_dilation(200.0)
        .out_of_order();
    let budget = cfg.controller_config(0.6).unwrap().budget();
    let base = baseline(&cfg, "MIX3", 20, 41);
    let run = capped(&cfg, "MIX3", 0.6, 20, 41);
    assert!(
        run.avg_power(5).get() <= budget.get() * 1.08,
        "OoO avg {} vs budget {budget}",
        run.avg_power(5)
    );
    let rep = run.fairness_vs(&base, 5).unwrap();
    assert!(
        rep.worst / rep.average < 1.25,
        "OoO fairness: worst {} avg {}",
        rep.worst,
        rep.average
    );
}

#[test]
fn ooo_memory_bound_workloads_lose_more_than_in_order() {
    // Fig. 13: OoO raises baseline memory-level parallelism, so capping
    // costs MEM workloads more than under in-order execution.
    let inorder = SimConfig::ispass(16).unwrap().with_time_dilation(200.0);
    let ooo = inorder.clone().out_of_order();
    let avg = |r: &RunResult, b: &RunResult| {
        let d = r.degradation_vs(b, 5).unwrap();
        d.iter().sum::<f64>() / d.len() as f64
    };
    let b_io = baseline(&inorder, "MEM1", 20, 43);
    let r_io = capped(&inorder, "MEM1", 0.6, 20, 43);
    let b_oo = baseline(&ooo, "MEM1", 20, 43);
    let r_oo = capped(&ooo, "MEM1", 0.6, 20, 43);
    let (d_io, d_oo) = (avg(&r_io, &b_io), avg(&r_oo, &b_oo));
    assert!(
        d_oo > d_io * 0.95,
        "OoO MEM degradation ({d_oo}) should be at least comparable to in-order ({d_io})"
    );
}

#[test]
fn skewed_multi_controller_is_capped_and_fair() {
    let cfg = SimConfig::ispass(16)
        .unwrap()
        .with_time_dilation(200.0)
        .with_controllers(4, Interleaving::Skewed { decay: 0.45 });
    let budget = cfg.controller_config(0.6).unwrap().budget();
    let base = baseline(&cfg, "MEM3", 20, 47);
    let run = capped(&cfg, "MEM3", 0.6, 20, 47);
    assert!(
        run.avg_power(5).get() <= budget.get() * 1.08,
        "skewed-MC avg {} vs budget {budget}",
        run.avg_power(5)
    );
    let rep = run.fairness_vs(&base, 5).unwrap();
    assert!(
        rep.worst / rep.average < 1.25,
        "skewed-MC fairness: worst {} avg {}",
        rep.worst,
        rep.average
    );
}

#[test]
fn uniform_multi_controller_matches_single_controller_roughly() {
    // Same total banks and bus capacity split four ways should produce
    // broadly similar capped throughput under uniform interleaving.
    let single = SimConfig::ispass(16).unwrap().with_time_dilation(200.0);
    let multi = single.clone().with_controllers(4, Interleaving::Uniform);
    let t = |cfg: &SimConfig| {
        let r = capped(cfg, "MID4", 0.6, 20, 53);
        r.throughput(5).iter().sum::<f64>()
    };
    let (ts, tm) = (t(&single), t(&multi));
    // Four parallel buses actually help; allow a broad band either way.
    assert!(
        tm > ts * 0.7 && tm < ts * 2.5,
        "multi-MC throughput {tm:.3e} wildly off single-MC {ts:.3e}"
    );
}

#[test]
fn thirty_two_and_sixty_four_cores_hold_the_budget() {
    for n in [32usize, 64] {
        let cfg = SimConfig::ispass(n).unwrap().with_time_dilation(300.0);
        let budget = cfg.controller_config(0.6).unwrap().budget();
        let run = capped(&cfg, "MIX1", 0.6, 14, 61);
        assert!(
            run.avg_power(4).get() <= budget.get() * 1.08,
            "{n} cores: avg {} vs budget {budget}",
            run.avg_power(4)
        );
        assert_eq!(run.n_cores, n);
    }
}

#[test]
fn overhead_scales_roughly_linearly_in_cores() {
    // Table I / Sec. IV-B: decide() is O(N log M). Allow generous slack for
    // timer noise: 4x the cores must cost less than 10x the time.
    let t16 = measure_decide_micros(16, 600);
    let t64 = measure_decide_micros(64, 600);
    assert!(
        t64 / t16 < 10.0,
        "decide() scaling 16->64 cores: {t16:.1}µs -> {t64:.1}µs"
    );
}
