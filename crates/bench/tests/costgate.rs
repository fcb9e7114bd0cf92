//! The modeled-timing check, in process: every canonical probe's counted
//! operations, priced by the checked-in `COST_MODEL.json`, stay within
//! ±`GATE_TOLERANCE` of their expectations, and probes and expectations
//! stay in sync. `golden.rs` pins the bytes of the timing artifacts
//! (`TIMING_GOLDENS`); together they are the whole timing gate, and
//! neither reads a clock.
//!
//! Each half gets a negative control, a gate that cannot fail guarding
//! nothing:
//!
//! - (a) a probe pushed past the tolerance, and each out-of-sync case,
//!   is reported by name;
//! - (b) one extra 16-core sum per bus point of a FastCap decide moves
//!   the pinned `tab1_fastcap` 16-core cell, so its golden hash flips.
//!   Control (a) cannot show this: the same regression is about +2.9 %
//!   of the `decide/FastCap/16` expectation, inside the band.
//!
//! The `repro` CLI tests at the end keep the calibrate subcommand's and
//! the dispatcher's usage errors honest.

use fastcap_bench::costmodel::{
    check_expectations, decide_counter, expectation_counters, modeled_decide_micros, CostModel,
    DECIDE_REPS, GATE_TOLERANCE,
};
use fastcap_bench::table::f2;
use fastcap_bench::PolicyKind;
use fastcap_core::cost::{CostCounter, OPS};
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn probe_expectations_hold_on_a_clean_tree() {
    let model = CostModel::embedded().unwrap();
    let probes = expectation_counters().unwrap();
    assert_eq!(probes.len(), 17, "the canonical probe set");
    let failures = check_expectations(&model, &probes);
    assert!(failures.is_empty(), "{failures:#?}");
}

/// `c` with its solver work moved so the model prices it at `target_ns`,
/// to within half a solver iteration.
fn priced_at(model: &CostModel, c: CostCounter, target_ns: f64) -> CostCounter {
    let w = model.weights.ns[OPS.iter().position(|&op| op == "solver_iter").unwrap()];
    assert!(w > 0.0, "the solver_iter weight prices solver work");
    let delta = ((target_ns - model.weights.modeled_ns(&c)) / w).round() as i64;
    CostCounter {
        solver_iters: c.solver_iters.checked_add_signed(delta).unwrap(),
        ..c
    }
}

#[test]
fn expectation_check_names_each_drifted_or_unsynced_probe() {
    let model = CostModel::embedded().unwrap();
    let probes = expectation_counters().unwrap();
    let name = "decide/FastCap/16";
    let at = probes.iter().position(|(n, _)| n == name).unwrap();
    let expected = model
        .expectations
        .iter()
        .find(|e| e.name == name)
        .unwrap()
        .total_ns;

    // Drift: just inside the band passes, just outside fails either way,
    // and only the drifted probe is named.
    for (rel, fails) in [(0.04, false), (-0.04, false), (0.06, true), (-0.06, true)] {
        let mut drifted = probes.clone();
        drifted[at].1 = priced_at(&model, probes[at].1, expected * (1.0 + rel));
        let failures = check_expectations(&model, &drifted);
        if fails {
            assert_eq!(failures.len(), 1, "{rel:+}: {failures:#?}");
            assert!(failures[0].starts_with(name), "{failures:#?}");
        } else {
            assert!(failures.is_empty(), "{rel:+} is within ±{GATE_TOLERANCE}");
        }
    }

    // Out of sync: an expectation without a probe...
    let dropped: Vec<_> = probes.iter().filter(|(n, _)| n != name).cloned().collect();
    let failures = check_expectations(&model, &dropped);
    assert_eq!(failures.len(), 1, "{failures:#?}");
    assert!(
        failures[0].starts_with(name) && failures[0].contains("no matching probe"),
        "{failures:#?}"
    );
    // ...and a probe without an expectation.
    let mut extra = probes.clone();
    extra.push(("decide/FastCap/512".into(), probes[at].1));
    let failures = check_expectations(&model, &extra);
    assert_eq!(failures.len(), 1, "{failures:#?}");
    assert!(
        failures[0].starts_with("decide/FastCap/512") && failures[0].contains("no checked-in"),
        "{failures:#?}"
    );
}

#[test]
fn an_extra_solver_sum_per_bus_point_moves_the_pinned_tab1_cell() {
    // `tab1_fastcap` publishes `f2` of this value in its 16-core row, and
    // `golden.rs` pins that file's bytes.
    const PINNED: &str = "79.78";
    let micros = modeled_decide_micros(PolicyKind::FastCap, 16, DECIDE_REPS).unwrap();
    assert_eq!(f2(micros), PINNED);

    let model = CostModel::embedded().unwrap();
    let c = decide_counter(PolicyKind::FastCap, 16, DECIDE_REPS).unwrap();
    let per_decide = |c: &CostCounter| model.weights.modeled_ns(c) / f64::from(DECIDE_REPS) / 1e3;
    assert_eq!(f2(per_decide(&c)), PINNED);
    let points = c.bus_evals / u64::from(DECIDE_REPS);
    assert_eq!(points, 6, "bus points a 16-core decide probes");

    // One more 16-core power sum at each of them: +96 solver terms a decide.
    let slowed = CostCounter {
        solver_iters: c.solver_iters + 16 * c.bus_evals,
        ..c
    };
    assert_ne!(
        f2(per_decide(&slowed)),
        PINNED,
        "the regression must reach the published digits"
    );
}

#[test]
fn calibrate_rejects_extra_targets() {
    let out = repro(&["calibrate", "bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "no usage on stderr: {stderr}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = repro(&["calibrote"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown artifact") && stderr.contains("usage:"),
        "unexpected stderr: {stderr}"
    );
}
