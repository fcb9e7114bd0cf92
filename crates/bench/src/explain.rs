//! `repro explain <artifact>` — the oracle-violation post-mortem.
//!
//! Re-runs a scenario artifact's policy set serially with an explicit
//! [`Tracer`] per run, evaluates the invariant oracle on every run, and
//! prints the per-epoch **decision audit trail** (in-force budget,
//! solver iterations, candidate count, chosen frequency vector,
//! predicted vs measured power, slack, modeled decide latency) around
//! each oracle violation — or, for a green run, around every budget and
//! hotplug move of the scenario so each settle transient is still
//! explained.
//!
//! Everything here is deterministic: the runs use the same derived seed
//! as the artifact's sweep (stream 0), and timestamps come from the
//! modeled-cost clock, so two invocations print identical trails.

use crate::experiments::{scn_capstep, scn_flashcrowd, scn_hotplug};
use crate::harness::{resolve_scenario, Opts, PolicyKind, ScnArtifactSpec};
use fastcap_core::error::{Error, Result};
use fastcap_scenario::{oracle, ScenarioRunner};
use fastcap_sim::Server;
use fastcap_trace::{DecisionRecord, TraceEvent, Tracer};
use fastcap_workloads::mixes;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The explainable scenario artifacts, each as its runner sets it up.
pub const SCN_ARTIFACTS: [ScnArtifactSpec; 3] =
    [scn_capstep::SPEC, scn_flashcrowd::SPEC, scn_hotplug::SPEC];

/// Context epochs printed on each side of a violation (the K of the
/// "K epochs around it" trail).
const CONTEXT_EPOCHS: u64 = 3;

/// Post-move epochs printed for a green run (covers each settle window).
const SETTLE_EPOCHS: u64 = 8;

/// Ring capacity for explain runs: large enough that a full-length run's
/// events (≈3 per epoch) never wrap.
const EXPLAIN_RING: usize = 1 << 14;

/// Formats a frequency vector compactly: `all@7` when uniform, the
/// space-joined levels otherwise.
fn fmt_freqs(freqs: &[usize]) -> String {
    match freqs.first() {
        Some(&f0) if freqs.iter().all(|&f| f == f0) => format!("all@{f0}"),
        _ => freqs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" "),
    }
}

fn fmt_opt_w(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |w| format!("{w:.2}"))
}

/// The epochs worth printing: a ±[`CONTEXT_EPOCHS`] window around every
/// violation epoch, or (green run) a window from [`CONTEXT_EPOCHS`] before
/// every budget or hotplug move to the end of its settle window.
/// Overlapping windows merge.
fn focus_epochs(violations: &[u64], moves: &[u64], epochs: u64) -> BTreeSet<u64> {
    let mut focus = BTreeSet::new();
    let mut widen = |center: u64, after: u64| {
        let lo = center.saturating_sub(CONTEXT_EPOCHS);
        let hi = (center + after).min(epochs.saturating_sub(1));
        focus.extend(lo..=hi);
    };
    if violations.is_empty() {
        for &m in moves {
            widen(m, SETTLE_EPOCHS);
        }
    } else {
        for &v in violations {
            widen(v, CONTEXT_EPOCHS);
        }
    }
    focus
}

/// Appends one policy's decision-trail table over `focus` epochs.
fn write_trail(
    out: &mut String,
    focus: &BTreeSet<u64>,
    decisions: &[&DecisionRecord],
    controls: &[(u64, &'static str, &str)],
) {
    let _ = writeln!(
        out,
        "| epoch | budget W | observed W | iters | cands | core freqs | mem | predicted W | \
         quantized W | trim W | measured W | slack W | decide µs | flags |"
    );
    let _ = writeln!(
        out,
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|"
    );
    let mut last: Option<u64> = None;
    for &e in focus {
        if last.is_some_and(|l| e > l + 1) {
            let _ = writeln!(out, "| … | | | | | | | | | | | | | |");
        }
        last = Some(e);
        for (_, kind, detail) in controls.iter().filter(|&&(ce, _, _)| ce == e) {
            let _ = writeln!(out, "| {e} | *{kind}: {detail}* | | | | | | | | | | | | |");
        }
        for d in decisions.iter().filter(|d| d.epoch == e) {
            let mut flags = String::new();
            if d.budget_bound {
                flags.push('B');
            }
            if d.emergency {
                flags.push('E');
            }
            let _ = writeln!(
                out,
                "| {e} | {} | {:.2} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {} | \
                 {:.1} | {flags} |",
                fmt_opt_w(d.budget_w),
                d.observed_w,
                d.solver_iters,
                d.candidates,
                fmt_freqs(&d.core_freqs),
                d.mem_freq,
                d.predicted_w,
                d.quantized_w,
                d.trim_w,
                d.measured_w,
                fmt_opt_w(d.slack_w),
                d.decide_ns as f64 / 1_000.0,
            );
        }
    }
}

/// A finished explain pass: the rendered report plus the aggregate
/// verdict. `all_green` is false the moment **any** policy in the
/// comparison set tripped the oracle — `repro explain` turns that into a
/// non-zero exit code so CI can gate on it instead of grepping the text.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The rendered markdown report.
    pub text: String,
    /// Every policy's run came back oracle-green.
    pub all_green: bool,
}

/// Runs the explain pass and returns the rendered report plus the
/// aggregate oracle verdict.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an unknown artifact id and
/// propagates simulator/policy/scenario failures.
pub fn run_explain(artifact: &str, opts: &Opts) -> Result<ExplainReport> {
    let spec = SCN_ARTIFACTS
        .iter()
        .find(|s| s.id == artifact)
        .ok_or_else(|| Error::InvalidConfig {
            what: "explain",
            why: format!(
                "unknown explainable artifact `{artifact}`; known: {:?}",
                SCN_ARTIFACTS.map(|s| s.id)
            ),
        })?;
    let cfg = opts.sim_config(16)?;
    let mix = mixes::by_name(spec.mix).ok_or_else(|| Error::InvalidConfig {
        what: "explain",
        why: format!("unknown mix `{}`", spec.mix),
    })?;
    let scenario = resolve_scenario(opts, spec.scenario_json)?;
    let runner = ScenarioRunner::new(&scenario, spec.initial_budget)?;
    let epochs = opts.epochs();
    let seed = crate::sweep::derive_seed(opts.seed, 0);
    let ns = crate::costmodel::CostModel::embedded()?.weights.ns;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# repro explain {artifact} — {} on {} ({} epochs, seed {}, initial budget {}%)",
        scenario.name,
        spec.mix,
        epochs,
        opts.seed,
        (spec.initial_budget * 100.0).round()
    );

    // Uncapped reference under the same scenario (the oracle's
    // degradation baseline).
    let mut base_srv = Server::for_workload(cfg.clone(), &mix, seed)?;
    runner.install(&mut base_srv)?;
    let base = runner.run(&mut base_srv, epochs, None)?;
    let moves: Vec<u64> = runner
        .budget_moves()
        .iter()
        .map(|&(e, _)| e)
        .chain(runner.mask_moves().iter().map(|&(e, _)| e))
        .collect();

    let mut all_green = true;
    for kind in PolicyKind::SCENARIO_SET {
        let mut tracer = Tracer::new(EXPLAIN_RING, ns);
        let mut server = Server::for_workload(cfg.clone(), &mix, seed)?;
        runner.install(&mut server)?;
        let mut factory =
            |n_active: usize, budget: f64| kind.build(cfg.controller_config_n(budget, n_active)?);
        let run = runner.run_traced(&mut server, epochs, Some(&mut factory), Some(&mut tracer))?;
        let report = oracle::check_run(
            &run,
            &runner,
            cfg.other_power,
            Some(&base),
            &oracle::OracleConfig::default(),
        )
        .for_policy(kind.name());

        let _ = writeln!(out);
        if report.is_green() {
            let _ = writeln!(out, "## {} — oracle green", kind.name());
        } else {
            all_green = false;
            let _ = writeln!(
                out,
                "## {} — {} oracle violation(s)",
                kind.name(),
                report.violations.len()
            );
            for v in &report.violations {
                let _ = writeln!(out, "- [{}] {v}", v.check);
            }
        }

        let violation_epochs: Vec<u64> = report.violations.iter().filter_map(|v| v.epoch).collect();
        let focus = focus_epochs(&violation_epochs, &moves, epochs as u64);
        if focus.is_empty() {
            let _ = writeln!(
                out,
                "(no budget moves and no violations — nothing to trail)"
            );
            continue;
        }
        let stamped: Vec<&fastcap_trace::Stamped> = tracer.events().collect();
        let decisions: Vec<&DecisionRecord> = stamped
            .iter()
            .filter_map(|s| match &s.event {
                TraceEvent::Decision(d) => Some(d),
                _ => None,
            })
            .collect();
        let controls: Vec<(u64, &'static str, &str)> = stamped
            .iter()
            .filter_map(|s| match &s.event {
                TraceEvent::Control {
                    epoch,
                    kind,
                    detail,
                } => Some((*epoch, *kind, detail.as_str())),
                _ => None,
            })
            .collect();
        let _ = writeln!(
            out,
            "decision trail ({} epoch(s), {} decision record(s) captured):",
            focus.len(),
            decisions.len()
        );
        let _ = writeln!(out);
        write_trail(&mut out, &focus, &decisions, &controls);
    }
    Ok(ExplainReport {
        text: out,
        all_green,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focus_windows_center_on_violations_or_the_first_move() {
        // Violations win: window is ±CONTEXT_EPOCHS, clamped to the run.
        let f = focus_epochs(&[5], &[16], 40);
        assert_eq!(
            f.iter().copied().collect::<Vec<_>>(),
            (2..=8).collect::<Vec<_>>()
        );
        // Green: every move plus its settle window, merged where they
        // overlap.
        let f = focus_epochs(&[], &[16], 40);
        assert!(f.contains(&13) && f.contains(&24) && !f.contains(&12));
        let f = focus_epochs(&[], &[28, 14, 20], 40);
        assert_eq!(
            f.iter().copied().collect::<Vec<_>>(),
            (11..=36).collect::<Vec<_>>()
        );
        // Apart, each move keeps its own window; the last one is clamped
        // to the run.
        let f = focus_epochs(&[], &[14, 34], 40);
        assert_eq!(
            f.iter().copied().collect::<Vec<_>>(),
            (11..=22).chain(31..=39).collect::<Vec<_>>()
        );
        // Violations clamped at both ends.
        let f = focus_epochs(&[0, 39], &[], 40);
        assert!(f.contains(&0) && f.contains(&39) && !f.contains(&40));
    }

    #[test]
    fn freq_vectors_render_compactly() {
        assert_eq!(fmt_freqs(&[7, 7, 7]), "all@7");
        assert_eq!(fmt_freqs(&[7, 3]), "7 3");
        assert_eq!(fmt_opt_w(None), "-");
        assert_eq!(fmt_opt_w(Some(60.0)), "60.00");
    }

    #[test]
    fn explain_trails_the_hotplug_moves() {
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        let text = run_explain("scn_hotplug", &opts).unwrap().text;
        let freq_par = text
            .split("\n## ")
            .find(|s| s.starts_with("Freq-Par"))
            .expect("a Freq-Par section");
        assert!(freq_par.contains("decision trail"), "{freq_par}");
        // Both moves are trailed: the cores leaving at epoch 14 and
        // returning at epoch 28.
        for row in [
            "| 14 | *hotplug: online=12/16* |",
            "| 28 | *hotplug: online=16/16* |",
        ] {
            assert!(freq_par.contains(row), "{row} missing:\n{freq_par}");
        }
    }

    #[test]
    fn explain_covers_the_capstep_artifact() {
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        let report = run_explain("scn_capstep", &opts).unwrap();
        let text = &report.text;
        // Every policy of the comparison set gets a section...
        for kind in PolicyKind::SCENARIO_SET {
            assert!(
                text.contains(kind.name()),
                "missing section {}",
                kind.name()
            );
        }
        // ...with a decision trail showing the audit columns, including
        // the quantized prediction and integrator trim.
        assert!(text.contains("| epoch | budget W |"));
        assert!(text.contains("| quantized W | trim W |"));
        assert!(text.contains("budget_step"));
        // The aggregate verdict matches the per-section headers.
        assert_eq!(report.all_green, !text.contains("oracle violation(s)"));
        // Unknown artifacts fail loudly.
        assert!(run_explain("fig5", &opts).is_err());
    }
}
