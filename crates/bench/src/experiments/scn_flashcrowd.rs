//! `scn_flashcrowd`: fairness and throughput through a 10× arrival surge
//! (scenario engine). The default scenario
//! (`scenarios/scn_flashcrowd.json`) multiplies the arrival intensity of
//! MIX2's four milc copies by 10 for a 15-epoch window — a flash crowd
//! hitting one service of a consolidated machine. Degradations are
//! measured against an **uncapped run of the same scenario** (same seed,
//! same surge), so the numbers isolate what the capping policy does to
//! the crowd, not the crowd itself. The paper's fairness story (Fig. 11)
//! replays dynamically: throughput-maximizing policies starve the surging
//! cores precisely when they have the most work.

use crate::harness::{resolve_scenario, run_scenario, Opts, PolicyKind, ScnArtifactSpec};
use crate::sweep::Sweep;
use crate::table::{f3, ResultTable};
use fastcap_core::error::Result;
use fastcap_core::fairness;
use fastcap_scenario::ScenarioRunner;
use fastcap_sim::ControlAction;
use fastcap_workloads::mixes;

/// The artifact's checked-in scenario, its budget (in force throughout)
/// and mix.
pub const SPEC: ScnArtifactSpec = ScnArtifactSpec {
    id: "scn_flashcrowd",
    scenario_json: include_str!("../../../../scenarios/scn_flashcrowd.json"),
    initial_budget: 0.6,
    mix: "MIX2",
};

/// Runs the experiment. Sweep: the uncapped baseline plus one point per
/// policy, all on a **shared** RNG stream (everyone faces the identical
/// sampled surge).
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
    {
        let (cfg, mix, runner) = (&cfg, &mix, &runner);
        sweep.push_with_stream(0, move |ctx| {
            run_scenario(cfg, mix, None, runner, epochs, ctx.seed)
        });
    }
    for &kind in &PolicyKind::SCENARIO_SET {
        let (cfg, mix, runner) = (&cfg, &mix, &runner);
        sweep.push_with_stream(0, move |ctx| {
            run_scenario(cfg, mix, Some(kind), runner, epochs, ctx.seed)
        });
    }
    let runs = sweep.run(opts)?;
    let (baseline, capped) = (&runs[0], &runs[1..]);
    let peak = cfg.peak_power.get();

    // Surge window from the compiled schedule: the first intensity move
    // above nominal starts it; the first later move back to (or below)
    // nominal ends it — escalations inside the surge extend it.
    let mut surge_start = 0usize;
    let mut surge_end = epochs;
    let mut seen_start = false;
    for (e, action) in runner.server_moves() {
        if let ControlAction::SetIntensity { factor, .. } = action {
            if !seen_start && *factor > 1.0 {
                surge_start = (*e as usize).min(epochs);
                seen_start = true;
            } else if seen_start && *e as usize > surge_start && *factor <= 1.0 {
                surge_end = (*e as usize).min(epochs);
                break;
            }
        }
    }
    let pre = (opts.skip(), surge_start);
    let surge = (surge_start, surge_end);

    let mut t = ResultTable::new(
        "scn_flashcrowd",
        format!(
            "10x flash crowd, epochs {}..{} (MIX2, 16 cores, B = {}%): degradation vs \
             uncapped-same-scenario",
            surge.0,
            surge.1,
            (SPEC.initial_budget * 100.0).round()
        ),
        &[
            "policy",
            "surge avg D",
            "surge worst D",
            "surge Jain",
            "surge throughput vs uncapped",
            "recovered avg D",
        ],
    );
    for (kind, r) in PolicyKind::SCENARIO_SET.iter().zip(capped) {
        let ratios = |lo: usize, hi: usize| -> Result<Vec<f64>> {
            let base = baseline.throughput_in(lo, hi);
            let mine = r.throughput_in(lo, hi);
            fairness::degradation_ratios(&mine, &base)
        };
        // degradation_ratios(baseline=mine, observed=base) gives base/mine
        // per core: >= 1 when capping slows the application down.
        let in_surge = ratios(surge.0, surge.1)?;
        let rep = fairness::report(&in_surge)?;
        let thr_ratio = {
            let b: f64 = baseline.throughput_in(surge.0, surge.1).iter().sum();
            let m: f64 = r.throughput_in(surge.0, surge.1).iter().sum();
            // An empty/idle window (possible under a `--scenario`
            // override) must not publish inf/NaN.
            if b > 0.0 {
                f3(m / b)
            } else {
                "n/a".to_string()
            }
        };
        // Recovery: the tail after the surge ends (give it two epochs).
        let rec_lo = (surge.1 + 2).min(epochs);
        let recovered = if rec_lo + 1 < epochs {
            let rep = fairness::report(&ratios(rec_lo, epochs)?)?;
            f3(rep.average)
        } else {
            "n/a".to_string()
        };
        t.push_row(vec![
            kind.name().to_string(),
            f3(rep.average),
            f3(rep.worst),
            f3(rep.jain_index),
            thr_ratio,
            recovered,
        ]);
    }

    // Pre-surge sanity column set, as its own small table: the same
    // metrics before anything happens (every policy should look like its
    // static self here).
    let mut pre_t = ResultTable::new(
        "scn_flashcrowd_pre",
        format!("Pre-surge window, epochs {}..{}", pre.0, pre.1),
        &["policy", "avg D", "worst D", "Jain"],
    );
    for (kind, r) in PolicyKind::SCENARIO_SET.iter().zip(capped) {
        let base = baseline.throughput_in(pre.0, pre.1);
        let mine = r.throughput_in(pre.0, pre.1);
        let rep = fairness::report(&fairness::degradation_ratios(&mine, &base)?)?;
        pre_t.push_row(vec![
            kind.name().to_string(),
            f3(rep.average),
            f3(rep.worst),
            f3(rep.jain_index),
        ]);
    }

    // Power trace incl. the uncapped baseline: shows the surge's power
    // signature and each policy holding the cap through it.
    let mut trace = ResultTable::new(
        "scn_flashcrowd_trace",
        "Normalized power over time through the flash crowd (MIX2, 16 cores)",
        &{
            let mut cols = vec!["epoch", "Uncapped"];
            cols.extend(PolicyKind::SCENARIO_SET.iter().map(|k| k.name()));
            cols
        },
    );
    for e in 0..epochs {
        let mut row = vec![e.to_string()];
        row.push(f3(baseline.epochs[e].total_power.get() / peak));
        row.extend(
            capped
                .iter()
                .map(|r| f3(r.epochs[e].total_power.get() / peak)),
        );
        trace.push_row(row);
    }
    Ok(vec![t, pre_t, trace])
}
