//! Ablations of FastCap's design choices (DESIGN.md §4):
//!
//! 1. **Online model refitting** (Sec. III-C) — freeze the initial power
//!    laws instead of recomputing `(P, α)` from the last three frequencies.
//!    Expected: frozen models mis-predict power and either violate the cap
//!    or waste budget.
//! 2. **Binary search vs. exhaustive memory scan** (Algorithm 1) — both
//!    must return the same `D` (convexity), the binary search touching
//!    fewer candidates.
//!
//! Ladder quantization (nearest vs. floor rounding) is decomposed by the
//! `bias_ablation` artifact instead: the controller already floors at
//! budget-bound optima (DESIGN.md §13).

use crate::harness::{run_baseline, Opts};
use crate::sweep::{par_sweep, Sweep};
use crate::table::{f2, f3, pct, ResultTable};
use fastcap_core::capper::{DvfsDecision, FastCapController};
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::optimizer::{algorithm1, bus_candidates, exhaustive};
use fastcap_sim::Server;
use fastcap_workloads::mixes;

/// How the controller is ablated.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The real thing.
    Full,
    /// No online refitting: initial power laws forever.
    FrozenModels,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Full => "FastCap (full)",
            Variant::FrozenModels => "frozen power models",
        }
    }
}

fn decide(ctl: &mut FastCapController, v: Variant, obs: &EpochObservation) -> Option<DvfsDecision> {
    match v {
        Variant::Full => ctl.decide(obs).ok(),
        Variant::FrozenModels => {
            // Skip `observe`: the fitters never see a sample.
            let cands = ctl.candidates().to_vec();
            ctl.solve_quantized(obs, &cands).ok()
        }
    }
}

/// Runs the experiment. Two sweeps: the closed-loop part is one point
/// per controller variant plus the uncapped baseline (3 points on a
/// **shared** RNG stream, so every variant caps the same MIX3 draw); the
/// search ablation is one cheap point per core count.
///
/// # Errors
///
/// Propagates harness failures.
pub fn run(opts: &Opts) -> Result<Vec<ResultTable>> {
    let cfg = opts.sim_config(16)?;
    let mix = mixes::by_name("MIX3").expect("mix exists");
    let budget_frac = 0.6;
    let ctl_cfg = cfg.controller_config(budget_frac)?;
    let budget = ctl_cfg.budget();

    // --- 1: closed-loop variants ------------------------------------------
    const VARIANTS: [Variant; 2] = [Variant::Full, Variant::FrozenModels];
    let mut sweep = Sweep::new();
    {
        let (cfg, mix) = (&cfg, &mix);
        sweep.push_with_stream(0, move |ctx| {
            run_baseline(cfg, mix, opts.epochs(), ctx.seed)
        });
        for v in VARIANTS {
            let ctl_cfg = &ctl_cfg;
            sweep.push_with_stream(0, move |ctx| {
                let mut ctl = FastCapController::new(ctl_cfg.clone())?;
                let mut server = Server::for_workload(cfg.clone(), mix, ctx.seed)?;
                Ok(server.run(opts.epochs(), |obs| decide(&mut ctl, v, obs)))
            });
        }
    }
    let mut runs = sweep.run(opts)?;
    let baseline = runs.remove(0);

    let mut t = ResultTable::new(
        "ablation_controller",
        "Controller ablations on MIX3 (16 cores, B = 60%)",
        &[
            "variant",
            "avg power / budget",
            "violations >2%",
            "avg degr",
            "worst degr",
        ],
    );
    for (v, run) in VARIANTS.into_iter().zip(runs) {
        let d = run.degradation_vs(&baseline, opts.skip())?;
        let avg = d.iter().sum::<f64>() / d.len() as f64;
        let worst = d.iter().cloned().fold(f64::MIN, f64::max);
        t.push_row(vec![
            v.label().to_string(),
            pct(run.avg_power(opts.skip()) / budget),
            run.violations(budget, 0.02, opts.skip()).to_string(),
            f3(avg),
            f3(worst),
        ]);
    }

    // --- 2: search ablation (pure algorithm, no simulator) ----------------
    let rows = par_sweep(opts, &[16usize, 64, 256], |&n, _ctx| {
        let mut ctl = FastCapController::new(crate::harness::synthetic_controller_config(n, 0.6)?)?;
        let obs = crate::harness::synthetic_observation(n);
        ctl.observe(&obs);
        let model = ctl.build_model(&obs)?;
        let cands = bus_candidates(
            model.memory.min_bus_transfer_time,
            ctl.config().mem_ladder.levels(),
        );
        let a = algorithm1(&model, &cands)?;
        let e = exhaustive(&model, &cands)?;
        Ok(vec![
            n.to_string(),
            f2(a.degradation()),
            f2(e.degradation()),
            a.points_evaluated.to_string(),
            e.points_evaluated.to_string(),
        ])
    })?;
    let mut s = ResultTable::new(
        "ablation_search",
        "Algorithm 1 binary search vs exhaustive memory scan (same optimum, fewer evaluations)",
        &[
            "cores",
            "D (binary)",
            "D (exhaustive)",
            "points (binary)",
            "points (exhaustive)",
        ],
    );
    for row in rows {
        s.push_row(row);
    }

    Ok(vec![t, s])
}
