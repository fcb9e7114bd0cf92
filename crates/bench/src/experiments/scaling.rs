//! Scaling study (beyond the paper): closed-loop capping quality from 16
//! to 256 cores, using the analytic backend (the DES would take hours at
//! 256 cores; `tests/analytic_vs_des.rs` validates the backends against
//! each other at 16).
//!
//! The paper argues FastCap's `O(N log M)` complexity is what makes
//! many-core capping viable; this experiment shows the *quality* also
//! holds: budget adherence and fairness are flat in `N`, and decide()
//! latency stays far below the 5 ms epoch. The decide-µs column is
//! modeled cost (DESIGN.md §10), so the whole table is golden-pinned;
//! perfbench's `manycore-256` workload measures the 256-core decide on
//! the host.

use crate::harness::Opts;
use crate::sweep::par_sweep;
use crate::table::{f2, f3, pct, ResultTable};
use fastcap_core::error::Result;
use fastcap_core::fairness;
use fastcap_policies::{CappingPolicy, FastCapPolicy};
use fastcap_sim::{AnalyticServer, SimConfig};
use fastcap_workloads::mixes;

const CORE_COUNTS: [usize; 5] = [16, 32, 64, 128, 256];

/// Runs the experiment. A parallel sweep over the core-count ladder for
/// the closed-loop quality metrics (the expensive analytic simulations),
/// plus the decide-µs column: **modeled** cost (operation counts ×
/// `COST_MODEL.json` weights — byte-deterministic at any `--jobs`).
///
/// # Errors
///
/// Propagates simulator/policy construction failures.
pub fn run(opts: &Opts) -> Result<Vec<ResultTable>> {
    let epochs = opts.epochs().min(60);
    let mix = mixes::by_name("MIX2").expect("mix exists");

    let quality = par_sweep(opts, &CORE_COUNTS, |&n, ctx| {
        let cfg = SimConfig::ispass(n)?.with_meter_noise(0.0);
        let ctl_cfg = cfg.controller_config(0.6)?;
        let budget = ctl_cfg.budget();

        let mut baseline = AnalyticServer::for_workload(cfg.clone(), &mix, ctx.seed)?;
        let base = baseline.run(epochs, |_| None);

        let mut policy = FastCapPolicy::new(ctl_cfg)?;
        let mut server = AnalyticServer::for_workload(cfg, &mix, ctx.seed)?;
        let run = server.run(epochs, |obs| policy.decide(obs).ok());

        let d = run.degradation_vs(&base, opts.skip())?;
        let rep = fairness::report(&d)?;
        Ok(vec![
            pct(run.avg_power(opts.skip()) / budget),
            f3(rep.average),
            f3(rep.worst),
            f3(rep.jain_index),
        ])
    })?;

    let mut latencies = Vec::new();
    for n in CORE_COUNTS {
        latencies.push(crate::costmodel::modeled_decide_micros(
            crate::harness::PolicyKind::FastCap,
            n,
            crate::costmodel::DECIDE_REPS,
        )?);
    }

    let mut t = ResultTable::new(
        "scaling",
        "Closed-loop FastCap from 16 to 256 cores (analytic backend, MIX2, B = 60%; modeled decide µs)",
        &[
            "cores",
            "avg power / budget",
            "avg degr",
            "worst degr",
            "Jain",
            "decide µs",
        ],
    );
    for ((n, mut row), us) in CORE_COUNTS.into_iter().zip(quality).zip(latencies) {
        let mut cells = vec![n.to_string()];
        cells.append(&mut row);
        cells.push(f2(us));
        t.push_row(cells);
    }
    Ok(vec![t])
}
