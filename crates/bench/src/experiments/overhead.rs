//! Algorithm overhead (Sec. IV-B text): mean `decide()` latency for 16, 32
//! and 64 cores, and the fraction of a 5 ms epoch it consumes.
//!
//! The paper measures 33.5 / 64.9 / 133.5 µs — i.e. overhead grows linearly
//! with the core count (0.7% / 1.3% / 2.7% of the epoch). Absolute numbers
//! depend on the host; the *linearity* is the claim to check.
//!
//! The latency column is **modeled**: decision-path operation counts
//! priced by the calibrated `COST_MODEL.json` weights (DESIGN.md §10),
//! making the artifact byte-deterministic and golden-pinned. Host time of
//! FastCap's decide in a closed loop is perfbench's `decide_mean_us`
//! (DESIGN.md §10.4).

use crate::costmodel;
use crate::harness::{synthetic_controller_config, synthetic_observation, Opts, PolicyKind};
use crate::table::{f2, pct, ResultTable};
use fastcap_core::capper::FastCapController;
use fastcap_core::error::Result;

/// Number of candidate bus points Algorithm 1 touches for the synthetic
/// observation at this core count (the binary search visits 3–7 of the `M`
/// candidates depending on where the optimum sits, so raw latency does not
/// scale as a clean 2× per core doubling — latency / (cores × points) is
/// the flat quantity).
///
/// # Errors
///
/// Propagates controller construction failures.
pub fn points_evaluated(n_cores: usize) -> Result<usize> {
    use fastcap_core::optimizer::{algorithm1, bus_candidates};
    let cfg = synthetic_controller_config(n_cores, 0.6)?;
    let mut ctl = FastCapController::new(cfg)?;
    let obs = synthetic_observation(n_cores);
    ctl.observe(&obs);
    let model = ctl.build_model(&obs)?;
    let cands = bus_candidates(
        model.memory.min_bus_transfer_time,
        ctl.config().mem_ladder.levels(),
    );
    Ok(algorithm1(&model, &cands)?.points_evaluated)
}

/// Runs the experiment: prices deterministic decision-path counters with
/// the checked-in weights — no clock, no sweep needed.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn run(_opts: &Opts) -> Result<Vec<ResultTable>> {
    let mut measured = Vec::new();
    for n in [16usize, 32, 64] {
        let us = costmodel::modeled_decide_micros(PolicyKind::FastCap, n, costmodel::DECIDE_REPS)?;
        measured.push((n, us, points_evaluated(n)?));
    }

    let mut t = ResultTable::new(
        "overhead",
        "FastCap decide() modeled cost (paper wall-clock: 33.5/64.9/133.5 µs at 16/32/64 cores)",
        &[
            "cores",
            "mean latency (µs)",
            "of 5 ms epoch",
            "scaling vs 16 cores",
            "bus points touched",
            "µs / (core·point)",
        ],
    );
    let base = measured[0].1;
    for (n, us, points) in measured {
        t.push_row(vec![
            n.to_string(),
            f2(us),
            pct(us / 5_000.0),
            format!("{:.2}x", us / base),
            points.to_string(),
            format!("{:.3}", us / (n as f64 * points as f64)),
        ]);
    }
    Ok(vec![t])
}
