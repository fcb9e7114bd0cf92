//! `scn_capstep`: transient response to a power-budget step (scenario
//! engine). The default scenario (`scenarios/scn_capstep.json`) drops the
//! budget from 90% to 50% of peak at epoch 16 — a datacenter power
//! emergency — and ramps it back later. For every policy of the scenario
//! comparison set (including beam-search MaxBIPS, which the exhaustive
//! `O(Fᴺ·M)` baseline could never bring to 16 cores) we report how many
//! epochs the policy needs to settle under the new cap and the worst
//! transient overshoot on the way down — the capping-quality axis no
//! static artifact covers.

use crate::harness::{
    over_cap, resolve_scenario, run_scenario, settle_epochs, Opts, PolicyKind, ScnArtifactSpec,
};
use crate::sweep::Sweep;
use crate::table::{f3, pct, ResultTable};
use fastcap_core::error::Result;
use fastcap_scenario::ScenarioRunner;
use fastcap_workloads::mixes;

/// The artifact's checked-in scenario, its initial budget (the scenario
/// steps away from it) and mix.
pub const SPEC: ScnArtifactSpec = ScnArtifactSpec {
    id: "scn_capstep",
    scenario_json: include_str!("../../../../scenarios/scn_capstep.json"),
    initial_budget: 0.9,
    mix: "MID1",
};

/// Runs the experiment. Sweep: one point per policy on a **shared** RNG
/// stream, so every policy caps the same sampled MID1 trace through the
/// same scripted emergency.
///
/// # Errors
///
/// Propagates harness and scenario failures.
pub fn run(opts: &Opts) -> Result<Vec<ResultTable>> {
    let cfg = opts.sim_config(16)?;
    let mix = mixes::by_name(SPEC.mix).expect("SPEC names a Table III mix");
    let scenario = resolve_scenario(opts, SPEC.scenario_json)?;
    let runner = ScenarioRunner::new(&scenario, SPEC.initial_budget)?;
    let epochs = opts.epochs();

    let mut sweep = Sweep::new();
    for &kind in &PolicyKind::SCENARIO_SET {
        let (cfg, mix, runner) = (&cfg, &mix, &runner);
        sweep.push_with_stream(0, move |ctx| {
            run_scenario(cfg, mix, Some(kind), runner, epochs, ctx.seed)
        });
    }
    let runs = sweep.run(opts)?;
    let peak = cfg.peak_power.get();

    let mut tables = Vec::new();

    // Transient summary around the first budget move (the emergency
    // step). Windows come from the compiled schedule, so a `--scenario`
    // override keeps the metrics aligned with its own timeline.
    let moves = runner.budget_moves();
    if let Some(&(step_epoch, step_frac)) = moves.first() {
        let step = step_epoch as usize;
        let window_end = moves
            .iter()
            .find(|&&(e, _)| e > step_epoch)
            .map_or(epochs, |&(e, _)| (e as usize).min(epochs));
        let budget = step_frac * peak;
        let mut t = ResultTable::new(
            "scn_capstep",
            format!(
                "Budget step {}% → {}% at epoch {step}: settling + transient overshoot \
                 (MID1, 16 cores)",
                (SPEC.initial_budget * 100.0).round(),
                (step_frac * 100.0).round()
            ),
            &[
                "policy",
                "settle epochs",
                "worst overshoot",
                "avg power / budget",
                "violations",
            ],
        );
        for (kind, r) in PolicyKind::SCENARIO_SET.iter().zip(&runs) {
            let window: Vec<f64> = r.epochs[step.min(r.epochs.len())..window_end]
                .iter()
                .map(|e| e.total_power.get())
                .collect();
            let settle = settle_epochs(&window, |&p| (p, budget));
            let worst = window
                .iter()
                .map(|&p| (p - budget) / budget)
                .fold(0.0f64, f64::max);
            let avg = window.iter().sum::<f64>() / window.len().max(1) as f64 / budget;
            let violations = window.iter().filter(|&&p| over_cap(p, budget)).count();
            t.push_row(vec![
                kind.name().to_string(),
                settle.to_string(),
                pct(worst),
                f3(avg),
                violations.to_string(),
            ]);
        }
        tables.push(t);

        // Recovery check at the tail of the ramp back up (when present):
        // average power over the last few epochs against the final cap.
        if let Some(&(_, final_frac)) = moves.last() {
            let tail_start = moves.last().map_or(0, |&(e, _)| e as usize + 2);
            if tail_start + 2 < epochs {
                let mut rec = ResultTable::new(
                    "scn_capstep_recovery",
                    format!(
                        "After the ramp back to {}%: tail power vs restored budget",
                        (final_frac * 100.0).round()
                    ),
                    &[
                        "policy",
                        "tail avg power / peak",
                        "tail avg / restored budget",
                    ],
                );
                for (kind, r) in PolicyKind::SCENARIO_SET.iter().zip(&runs) {
                    let tail: Vec<f64> = r.epochs[tail_start.min(r.epochs.len())..]
                        .iter()
                        .map(|e| e.total_power.get())
                        .collect();
                    let avg = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
                    rec.push_row(vec![
                        kind.name().to_string(),
                        f3(avg / peak),
                        f3(avg / (final_frac * peak)),
                    ]);
                }
                tables.push(rec);
            }
        }
    }

    // Full normalized power trace: the figure-grade transient artifact.
    let mut trace = ResultTable::new(
        "scn_capstep_trace",
        "Normalized power over time through the budget step (MID1, 16 cores)",
        &{
            let mut cols = vec!["epoch"];
            cols.extend(PolicyKind::SCENARIO_SET.iter().map(|k| k.name()));
            cols
        },
    );
    for e in 0..epochs {
        let mut row = vec![e.to_string()];
        row.extend(
            runs.iter()
                .map(|r| f3(r.epochs[e].total_power.get() / peak)),
        );
        trace.push_row(row);
    }
    tables.push(trace);
    Ok(tables)
}
