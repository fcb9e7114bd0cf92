//! Per-policy roll-up of a `repro --trace` Chrome-trace file.
//!
//! Reads the trace-event JSON that `repro trace <artifact>` (or any
//! artifact run with `--trace FILE`) writes, groups the decision
//! instant events by policy, and prints decision-latency and overshoot
//! aggregates — a quick offline view of the same audit trail `repro
//! explain` renders per epoch.
//!
//! ```text
//! repro trace scn_capstep --quick --out /tmp/tr
//! cargo run --release --example trace_summary /tmp/tr/scn_capstep.trace.json
//! ```
//!
//! The latency column is *modeled* time: `decide_ns` is the policy's
//! per-epoch cost-counter delta priced by `COST_MODEL.json`, so the
//! numbers are byte-stable across machines and `--jobs` levels.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Aggregates for one policy across every stream in the file.
#[derive(Default)]
struct Roll {
    decisions: u64,
    decide_ns_sum: u64,
    decide_ns_max: u64,
    /// Epochs where a budget was in force and measured power exceeded it.
    over_epochs: u64,
    budgeted_epochs: u64,
    worst_overshoot_pct: f64,
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_summary <trace.json>");
        eprintln!("  (produce one with: repro trace scn_capstep --quick --out /tmp/tr)");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_summary: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trace_summary: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(Value::Array(events)) = root.get("traceEvents") else {
        eprintln!("trace_summary: {path} has no traceEvents array");
        return ExitCode::FAILURE;
    };

    let mut streams = 0u64;
    let mut rolls: BTreeMap<String, Roll> = BTreeMap::new();
    for ev in events {
        match (
            ev.get("name").and_then(Value::as_str),
            ev.get("ph").and_then(Value::as_str),
        ) {
            (Some("process_name"), Some("M")) => streams += 1,
            (Some(name), Some("i")) if name.starts_with("decide ") => {
                let Some(args) = ev.get("args") else { continue };
                let policy = args
                    .get("policy")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                let roll = rolls.entry(policy).or_default();
                roll.decisions += 1;
                let ns = args.get("decide_ns").and_then(Value::as_u64).unwrap_or(0);
                roll.decide_ns_sum += ns;
                roll.decide_ns_max = roll.decide_ns_max.max(ns);
                if let (Some(budget), Some(measured)) = (
                    args.get("budget_w").and_then(Value::as_f64),
                    args.get("measured_w").and_then(Value::as_f64),
                ) {
                    roll.budgeted_epochs += 1;
                    let pct = (measured - budget) / budget * 100.0;
                    if pct > 0.0 {
                        roll.over_epochs += 1;
                    }
                    roll.worst_overshoot_pct = roll.worst_overshoot_pct.max(pct);
                }
            }
            _ => {}
        }
    }

    println!("{path}: {streams} stream(s), {} event(s)", events.len());
    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>10} {:>11}",
        "policy", "decisions", "decide_us", "max_us", "over/cap", "worst_over%"
    );
    for (policy, r) in &rolls {
        let mean_us = if r.decisions == 0 {
            0.0
        } else {
            r.decide_ns_sum as f64 / r.decisions as f64 / 1000.0
        };
        let worst = if r.budgeted_epochs == 0 {
            "-".to_string()
        } else {
            format!("{:+.2}", r.worst_overshoot_pct)
        };
        println!(
            "{:<16} {:>9} {:>12.2} {:>12.2} {:>7}/{:<3} {:>11}",
            policy,
            r.decisions,
            mean_us,
            r.decide_ns_max as f64 / 1000.0,
            r.over_epochs,
            r.budgeted_epochs,
            worst
        );
    }
    if rolls.is_empty() {
        println!("(no decision events — was the run policy-less?)");
    }
    ExitCode::SUCCESS
}
