//! `scn_matrix`: the scenario-matrix sweep — {generated scenarios × app
//! mixes × policies} — with the invariant oracle evaluated on every cell.
//!
//! Where each `scn_*` artifact scripts **one** hand-written scenario onto
//! **one** mix, the matrix samples scenarios from the seeded generator
//! grammar ([`fastcap_scenario::generate`]) and crosses them with any
//! subset of the sixteen Table III mixes and the 16-core policy set. Per
//! cell it runs the uncapped baseline plus every requested policy on a
//! shared RNG stream (identical sampled workload and perturbations),
//! summarises the transient response (settle epochs, worst overshoot,
//! degradation fairness, retained throughput) and publishes the
//! [`fastcap_scenario::oracle`] verdict as data.
//!
//! Determinism contract: scenario seeds derive from `--seed` on reserved
//! streams, cells run on the standard sweep engine ([`crate::sweep`]),
//! and all reductions are index-ordered — so the matrix tables are
//! byte-identical at any `--jobs` value (pinned by
//! `crates/bench/tests/matrix_cli.rs`).

use crate::harness::{run_scenario, settle_epochs, Opts, PolicyKind};
use crate::sweep::{derive_seed, Sweep};
use crate::table::{f3, pct, ResultTable};
use fastcap_core::error::{Error, Result};
use fastcap_scenario::{generate, oracle, GeneratorConfig, Scenario, ScenarioRunner};
use fastcap_sim::RunResult;
use fastcap_workloads::mixes;

/// Budget fraction in force at epoch 0 of every cell (generated budget
/// events step away from it and back).
const INITIAL_BUDGET: f64 = 0.8;

/// Reserved `derive_seed` stream base for scenario generation — far above
/// any cell stream index, so generator seeds never collide with sweep
/// point seeds.
const GEN_STREAM_BASE: u64 = 1 << 32;

/// A parsed matrix specification: which subsets to cross.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Mix names, in Table III order.
    pub mixes: Vec<String>,
    /// Policies, in `SCENARIO_SET` display order.
    pub policies: Vec<PolicyKind>,
    /// Number of generated scenarios.
    pub scenario_count: usize,
}

impl MatrixSpec {
    /// Parses CLI subsets: `mixes` and `policies` are comma-separated
    /// names or `all`; `count` is the number of generated scenarios.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first unknown mix or
    /// policy, or a zero count.
    pub fn parse(mix_list: &str, policy_list: &str, count: usize) -> Result<Self> {
        if count == 0 {
            return Err(Error::InvalidConfig {
                what: "matrix",
                why: "--count must be >= 1".into(),
            });
        }
        let mixes = if mix_list.eq_ignore_ascii_case("all") {
            mixes::all().iter().map(|m| m.name.clone()).collect()
        } else {
            mix_list
                .split(',')
                .map(|name| {
                    mixes::by_name(name.trim()).map(|m| m.name).ok_or_else(|| {
                        Error::InvalidConfig {
                            what: "matrix",
                            why: format!(
                                "unknown mix `{}`; known: {}",
                                name.trim(),
                                mixes::all()
                                    .iter()
                                    .map(|m| m.name.as_str())
                                    .collect::<Vec<_>>()
                                    .join(" ")
                            ),
                        }
                    })
                })
                .collect::<Result<Vec<_>>>()?
        };
        let policies = if policy_list.eq_ignore_ascii_case("all") {
            PolicyKind::SCENARIO_SET.to_vec()
        } else {
            policy_list
                .split(',')
                .map(|name| PolicyKind::parse(name.trim()))
                .collect::<Result<Vec<_>>>()?
        };
        Ok(Self {
            mixes,
            policies,
            scenario_count: count,
        })
    }

    /// The default full matrix: every mix, every 16-core policy, two
    /// generated scenarios.
    ///
    /// # Errors
    ///
    /// Never fails in practice (all inputs are known-good).
    pub fn default_spec() -> Result<Self> {
        Self::parse("all", "all", 2)
    }
}

/// Per-cell transient metrics for one policy run.
struct CellMetrics {
    settle: usize,
    worst_overshoot: f64,
    avg_d: Option<f64>,
    worst_d: Option<f64>,
    thr_ratio: Option<f64>,
    oracle: oracle::OracleReport,
}

fn cell_metrics(
    run: &RunResult,
    baseline: &RunResult,
    runner: &ScenarioRunner,
    other_static: fastcap_core::units::Watts,
    warmup: usize,
) -> CellMetrics {
    let epochs = run.epochs.len();
    let peak = run.peak_power.get();
    let budgets = runner.budget_trace(epochs);

    // Settle: epochs the policy needs after the *last* budget move (or
    // the warm-up, without moves) until power stays under the final cap.
    let tail_start = runner
        .budget_moves()
        .last()
        .map_or(warmup, |&(e, _)| (e as usize).min(epochs));
    let final_cap = budgets.last().copied().unwrap_or(INITIAL_BUDGET) * peak;
    let settle = settle_epochs(&run.epochs[tail_start..], |ep| {
        (ep.total_power.get(), final_cap)
    });

    // Worst overshoot vs the budget in force, anywhere past the warm-up.
    let worst_overshoot = run
        .epochs
        .iter()
        .enumerate()
        .skip(warmup)
        .map(|(e, ep)| (ep.total_power.get() - budgets[e] * peak) / (budgets[e] * peak))
        .fold(0.0f64, f64::max);

    // Degradation vs the uncapped baseline of the same scenario, over the
    // post-warm-up window. Cores idle on both sides (offline through the
    // window) carry no signal and are skipped.
    let tb = baseline.throughput(warmup);
    let tm = run.throughput(warmup);
    let ds: Vec<f64> = tb
        .iter()
        .zip(&tm)
        .filter(|(&b, &m)| b > 0.0 && m > 0.0)
        .map(|(&b, &m)| b / m)
        .collect();
    let (avg_d, worst_d) = if ds.is_empty() {
        (None, None)
    } else {
        (
            Some(ds.iter().sum::<f64>() / ds.len() as f64),
            Some(ds.iter().cloned().fold(f64::MIN, f64::max)),
        )
    };
    let (b_sum, m_sum) = (tb.iter().sum::<f64>(), tm.iter().sum::<f64>());
    let thr_ratio = (b_sum > 0.0).then(|| m_sum / b_sum);

    let oracle = oracle::check_run(
        run,
        runner,
        other_static,
        Some(baseline),
        &oracle::OracleConfig::default(),
    );
    CellMetrics {
        settle,
        worst_overshoot,
        avg_d,
        worst_d,
        thr_ratio,
        oracle,
    }
}

/// Runs the matrix and reduces it into three tables: the per-cell summary
/// (`scn_matrix_cells`), the per-policy aggregate (`scn_matrix`) and the
/// generated-scenario legend (`scn_matrix_scenarios`).
///
/// # Errors
///
/// Propagates simulator, policy and scenario failures.
pub fn run_matrix(spec: &MatrixSpec, opts: &Opts) -> Result<Vec<ResultTable>> {
    let cfg = opts.sim_config(16)?;
    let epochs = opts.epochs();
    let gen_cfg = GeneratorConfig::for_run(16, epochs);
    let scenarios: Vec<Scenario> = (0..spec.scenario_count)
        .map(|k| generate(&gen_cfg, derive_seed(opts.seed, GEN_STREAM_BASE + k as u64)))
        .collect();
    let runners: Vec<ScenarioRunner> = scenarios
        .iter()
        .map(|s| ScenarioRunner::new(s, INITIAL_BUDGET))
        .collect::<Result<_>>()?;
    let mix_specs: Vec<_> = spec
        .mixes
        .iter()
        .map(|name| mixes::by_name(name).expect("parsed mixes exist"))
        .collect();

    // One cell = one (scenario, mix); its baseline and every policy run
    // share one RNG stream so comparisons are paired. The sweep engine
    // shards all runs of all cells across `--jobs` workers.
    let runs_per_cell = 1 + spec.policies.len();
    let mut sweep = Sweep::new();
    for (k, runner) in runners.iter().enumerate() {
        for (m, mix) in mix_specs.iter().enumerate() {
            let stream = (k * mix_specs.len() + m) as u64;
            let cfg_ref = &cfg;
            sweep.push_with_stream(stream, move |ctx| {
                run_scenario(cfg_ref, mix, None, runner, epochs, ctx.seed)
            });
            for &kind in &spec.policies {
                let cfg_ref = &cfg;
                sweep.push_with_stream(stream, move |ctx| {
                    run_scenario(cfg_ref, mix, Some(kind), runner, epochs, ctx.seed)
                });
            }
        }
    }
    let runs = sweep.run(opts)?;

    let mut cells = ResultTable::new(
        "scn_matrix_cells",
        format!(
            "Scenario matrix cells: {} scenario(s) x {} mix(es) x {} policy(ies), \
             B0 = {}%, 16 cores",
            spec.scenario_count,
            spec.mixes.len(),
            spec.policies.len(),
            (INITIAL_BUDGET * 100.0).round()
        ),
        &[
            "scenario",
            "mix",
            "policy",
            "settle epochs",
            "worst overshoot",
            "avg D",
            "worst D",
            "throughput vs uncapped",
            "oracle",
        ],
    );
    // Per-policy accumulators for the aggregate table.
    struct Agg {
        cells: usize,
        settle_sum: usize,
        settle_max: usize,
        overshoot_max: f64,
        d_sum: f64,
        d_n: usize,
        d_worst: f64,
        thr_sum: f64,
        thr_n: usize,
        green: usize,
    }
    let mut aggs: Vec<Agg> = spec
        .policies
        .iter()
        .map(|_| Agg {
            cells: 0,
            settle_sum: 0,
            settle_max: 0,
            overshoot_max: 0.0,
            d_sum: 0.0,
            d_n: 0,
            d_worst: 0.0,
            thr_sum: 0.0,
            thr_n: 0,
            green: 0,
        })
        .collect();

    let opt3 = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), f3);
    for (k, runner) in runners.iter().enumerate() {
        for (m, _) in mix_specs.iter().enumerate() {
            let cell = k * mix_specs.len() + m;
            let base = &runs[cell * runs_per_cell];
            for (p, &kind) in spec.policies.iter().enumerate() {
                let run = &runs[cell * runs_per_cell + 1 + p];
                let metrics = cell_metrics(run, base, runner, cfg.other_power, opts.skip());
                cells.push_row(vec![
                    format!("g{k}"),
                    spec.mixes[m].clone(),
                    kind.name().to_string(),
                    metrics.settle.to_string(),
                    pct(metrics.worst_overshoot),
                    opt3(metrics.avg_d),
                    opt3(metrics.worst_d),
                    opt3(metrics.thr_ratio),
                    metrics.oracle.summary(),
                ]);
                let agg = &mut aggs[p];
                agg.cells += 1;
                agg.settle_sum += metrics.settle;
                agg.settle_max = agg.settle_max.max(metrics.settle);
                agg.overshoot_max = agg.overshoot_max.max(metrics.worst_overshoot);
                if let Some(d) = metrics.avg_d {
                    agg.d_sum += d;
                    agg.d_n += 1;
                }
                if let Some(d) = metrics.worst_d {
                    agg.d_worst = agg.d_worst.max(d);
                }
                if let Some(t) = metrics.thr_ratio {
                    agg.thr_sum += t;
                    agg.thr_n += 1;
                }
                if metrics.oracle.is_green() {
                    agg.green += 1;
                }
            }
        }
    }

    let mut table = ResultTable::new(
        "scn_matrix",
        format!(
            "Scenario matrix aggregate over {} cell(s) per policy",
            spec.scenario_count * spec.mixes.len()
        ),
        &[
            "policy",
            "cells",
            "mean settle",
            "max settle",
            "worst overshoot",
            "mean avg D",
            "max worst D",
            "mean throughput vs uncapped",
            "oracle green",
        ],
    );
    for (p, kind) in spec.policies.iter().enumerate() {
        let a = &aggs[p];
        table.push_row(vec![
            kind.name().to_string(),
            a.cells.to_string(),
            f3(a.settle_sum as f64 / a.cells.max(1) as f64),
            a.settle_max.to_string(),
            pct(a.overshoot_max),
            if a.d_n > 0 {
                f3(a.d_sum / a.d_n as f64)
            } else {
                "n/a".to_string()
            },
            f3(a.d_worst),
            if a.thr_n > 0 {
                f3(a.thr_sum / a.thr_n as f64)
            } else {
                "n/a".to_string()
            },
            format!("{}/{}", a.green, a.cells),
        ]);
    }

    let mut legend = ResultTable::new(
        "scn_matrix_scenarios",
        "Generated scenarios (reproduce with the printed seed)",
        &["id", "seed", "events", "description"],
    );
    for (k, s) in scenarios.iter().enumerate() {
        legend.push_row(vec![
            format!("g{k}"),
            format!("{}", derive_seed(opts.seed, GEN_STREAM_BASE + k as u64)),
            s.events.len().to_string(),
            s.description.clone(),
        ]);
    }

    Ok(vec![table, cells, legend])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_subsets_and_rejects_unknowns() {
        let s = MatrixSpec::parse("MID1, mem2", "FastCap,freq-par", 3).unwrap();
        assert_eq!(s.mixes, vec!["MID1", "MEM2"]);
        assert_eq!(s.policies, vec![PolicyKind::FastCap, PolicyKind::FreqPar]);
        assert_eq!(s.scenario_count, 3);
        let all = MatrixSpec::parse("all", "all", 1).unwrap();
        assert_eq!(all.mixes.len(), 16);
        assert_eq!(all.policies.len(), 6);
        assert!(MatrixSpec::parse("NOPE", "all", 1).is_err());
        assert!(MatrixSpec::parse("all", "NOPE", 1).is_err());
        assert!(
            MatrixSpec::parse("all", "MaxBIPS", 1).is_err(),
            "16c-incapable"
        );
        assert!(MatrixSpec::parse("all", "all", 0).is_err());
        assert!(MatrixSpec::default_spec().is_ok());
    }

    #[test]
    fn budget_trace_follows_moves() {
        let s = fastcap_scenario::Scenario {
            name: "t".into(),
            description: "d".into(),
            n_cores: 16,
            events: vec![fastcap_scenario::ScenarioEvent {
                at_epoch: 3,
                action: fastcap_scenario::Action::BudgetStep { fraction: 0.5 },
            }],
        };
        let runner = ScenarioRunner::new(&s, 0.9).unwrap();
        let trace = runner.budget_trace(6);
        assert_eq!(trace, vec![0.9, 0.9, 0.9, 0.5, 0.5, 0.5]);
    }
}
