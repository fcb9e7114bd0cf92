//! Table I: time-complexity comparison — modeled scaling of FastCap's
//! `O(N log M)` search versus MaxBIPS's `O(Fᴺ·M)` exhaustive search, plus
//! the theoretical rows for approaches we reproduce only analytically.
//!
//! The latency columns are **modeled** (operation counts ×
//! `COST_MODEL.json` weights, DESIGN.md §10), so both measured tables are
//! byte-deterministic and golden-pinned. Host time of FastCap's decide in
//! a closed loop is perfbench's `decide_mean_us` (DESIGN.md §10.4).

use crate::costmodel;
use crate::harness::{Opts, PolicyKind};
use crate::table::{f2, ResultTable};
use fastcap_core::error::Result;

/// Runs the experiment over the FastCap and MaxBIPS core-count ladders,
/// counting decision-path operations serially — byte-deterministic at
/// any `--jobs`.
///
/// # Errors
///
/// Propagates policy construction / measurement failures.
pub fn run(_opts: &Opts) -> Result<Vec<ResultTable>> {
    let mut theory = ResultTable::new(
        "tab1_theory",
        "Table I — complexity of capping approaches",
        &["method", "complexity", "memory DVFS"],
    );
    for (m, c, d) in [
        ("Exhaustive [14] (MaxBIPS)", "O(F^N)", "extended: yes"),
        (
            "Numeric optimization [17,20]",
            "~O(N^4)",
            "no (not reproduced)",
        ),
        ("Heuristics [18,19]", "O(F·N·logN)", "no (not reproduced)"),
        ("FastCap", "O(N·logM)", "yes"),
    ] {
        theory.push_row(vec![m.into(), c.into(), d.into()]);
    }

    // FastCap scaling should be ~linear in N.
    let mut fast = ResultTable::new(
        "tab1_fastcap",
        "Modeled FastCap decide() cost vs core count (expect linear)",
        &["cores", "µs per decide", "µs per core"],
    );
    for n in [16usize, 32, 64, 128, 256] {
        let us = costmodel::modeled_decide_micros(PolicyKind::FastCap, n, costmodel::DECIDE_REPS)?;
        fast.push_row(vec![n.to_string(), f2(us), format!("{:.3}", us / n as f64)]);
    }

    // MaxBIPS explodes with N (F^N·M grid).
    let mut mb = ResultTable::new(
        "tab1_maxbips",
        "Modeled MaxBIPS decide() cost vs core count (expect exponential)",
        &["cores", "grid points (F^N·M)", "µs per decide"],
    );
    for n in [1usize, 2, 3, 4] {
        let us = costmodel::modeled_decide_micros(PolicyKind::MaxBips, n, costmodel::MAXBIPS_REPS)?;
        let grid = 10f64.powi(n as i32) * 10.0;
        mb.push_row(vec![n.to_string(), format!("{grid:.0}"), f2(us)]);
    }

    Ok(vec![theory, fast, mb])
}
