//! `fleet_settle`: transient response of the budget tree through the
//! checked-in `scenarios/fleet/fleet_settle.json` timeline — a rack
//! failure and return, a datacenter budget emergency, and a regional
//! flash crowd — on a 64-server, 16-core fleet (16-core leaves keep the
//! low-budget phases above the platform's min-frequency power floor).
//!
//! Alongside the scripted run, a seeded **population** of generated fleet
//! scenarios (the PR 5 motif grammar at fleet scale) sweeps smaller trees
//! through random event mixes, reporting worst/tail cap ratios and the
//! conservation verdict per member — scripted depth plus generated
//! breadth in one artifact.

use crate::fleet_support::{fleet_spec, run_analytic_fleet, settled_mean, FLEET_SEED_STREAM};
use crate::harness::{settle_epochs, Opts, SETTLE_TOLERANCE};
use crate::sweep::{derive_seed, Sweep};
use crate::table::{f2, f3, ResultTable};
use fastcap_core::error::{Error, Result};
use fastcap_fleet::FleetRun;
use fastcap_scenario::{
    generate_fleet, rack_name, FleetAction, FleetGeneratorConfig, FleetScenario,
};

/// The checked-in default fleet scenario.
const DEFAULT_SCENARIO: &str = include_str!("../../../../scenarios/fleet/fleet_settle.json");

/// Racks in the scripted fleet.
const RACKS: usize = 4;
/// Servers per rack in the scripted fleet.
const PER_RACK: usize = 16;
/// Cores per server (16: the min-frequency power floor sits near 25% of
/// peak, so the 55% emergency phase stays feasible).
const N_CORES: usize = 16;
/// Budget fraction in force at epoch 0.
const INITIAL_BUDGET: f64 = 0.85;
/// Racks/servers-per-rack of each population member (kept small: the
/// population is breadth, not depth).
const POP_RACKS: usize = 4;
/// Servers per rack of each population member.
const POP_PER_RACK: usize = 4;
/// Seed stream base for population members (clear of the scripted
/// fleet's [`FLEET_SEED_STREAM`] and the surface streams).
const POP_STREAM_BASE: u64 = 200;

/// A short human label for a fleet action (phase names in the table).
fn action_label(a: &FleetAction) -> String {
    match a {
        FleetAction::FleetBudgetStep { fraction } => {
            format!("budget -> {:.0}%", fraction * 100.0)
        }
        FleetAction::NodeCapStep { node, fraction } => {
            format!("{node} cap -> {:.0}%", fraction * 100.0)
        }
        FleetAction::NodeOffline { node } => format!("{node} offline"),
        FleetAction::NodeOnline { node } => format!("{node} online"),
        FleetAction::NodeSurge { node, factor } => format!("{node} surge x{factor:.1}"),
    }
}

/// Worst and tail power-vs-committed ratios plus the minimum online-leaf
/// count over `run.epochs[lo..hi]`.
fn window_stats(run: &FleetRun, lo: usize, hi: usize) -> (f64, f64, usize) {
    let window = &run.epochs[lo.min(run.epochs.len())..hi.min(run.epochs.len())];
    let worst = window
        .iter()
        .map(|e| e.power_w / e.committed_w)
        .fold(0.0f64, f64::max);
    let tail_from = window.len().saturating_sub(4);
    let tail = settled_mean(
        &window
            .iter()
            .map(|e| e.power_w / e.committed_w)
            .collect::<Vec<_>>(),
        tail_from,
    );
    let online = window.iter().map(|e| e.online_leaves).min().unwrap_or(0);
    (worst, tail, online)
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates scenario lint failures, fleet failures, and
/// tree-conservation violations.
pub fn run(opts: &Opts) -> Result<Vec<ResultTable>> {
    let epochs = opts.epochs();
    let scenario =
        FleetScenario::from_json(DEFAULT_SCENARIO).map_err(|why| Error::InvalidConfig {
            what: "fleet scenario",
            why,
        })?;
    let racks: Vec<String> = (0..RACKS).map(rack_name).collect();
    let complaints = scenario.lint(&racks);
    if let Some(first) = complaints.first() {
        return Err(Error::InvalidConfig {
            what: "fleet scenario",
            why: format!("{} lint complaint(s); first: {first}", complaints.len()),
        });
    }

    // The population: deterministic generated scenarios on their own
    // streams. Generated budgets bottom out at 45% of fleet peak — above
    // the 16-core power floor, so every member's cap is feasible.
    let n_pop = if opts.quick { 4 } else { 8 };
    let gen_cfg = FleetGeneratorConfig::for_run(POP_RACKS, epochs);
    let population: Vec<(u64, FleetScenario)> = (0..n_pop)
        .map(|i| {
            let seed = derive_seed(opts.seed, POP_STREAM_BASE + i as u64);
            (seed, generate_fleet(&gen_cfg, seed))
        })
        .collect();

    let spec = fleet_spec(RACKS, PER_RACK, N_CORES);
    let pop_spec = fleet_spec(POP_RACKS, POP_PER_RACK, N_CORES);
    let dilation = opts.dilation();

    // Point 0: the scripted run. Points 1..: the population, one per
    // member, all on the shared sharded sweep.
    let mut sweep = Sweep::new();
    {
        let (spec, scenario) = (&spec, &scenario);
        sweep.push_with_stream(FLEET_SEED_STREAM, move |ctx| {
            run_analytic_fleet(
                "fleet_settle/scripted",
                spec,
                scenario,
                INITIAL_BUDGET,
                dilation,
                ctx.seed,
                epochs,
            )
            .map(|(_, run)| run)
        });
    }
    for (i, (_, member)) in population.iter().enumerate() {
        let pop_spec = &pop_spec;
        sweep.push_with_stream(POP_STREAM_BASE + i as u64, move |ctx| {
            run_analytic_fleet(
                "fleet_settle/population",
                pop_spec,
                member,
                INITIAL_BUDGET,
                dilation,
                ctx.seed,
                epochs,
            )
            .map(|(_, run)| run)
        });
    }
    let mut runs = sweep.run(opts)?;
    let pop_runs = runs.split_off(1);
    let scripted = runs.pop().expect("scripted point");

    // Phase table: one row per scripted event, measured from its epoch to
    // the next event (or the end of the run). Settling is judged against
    // the *committed* root allocation — what the tree could actually
    // grant — so infeasible-cap epochs don't read as overshoot.
    let mut events: Vec<(usize, String)> = scenario
        .events
        .iter()
        .map(|e| (e.at_epoch as usize, action_label(&e.action)))
        .collect();
    events.sort_by_key(|e| e.0);
    let mut phases: Vec<(usize, usize, String)> = Vec::new();
    phases.push((0, events.first().map_or(epochs, |e| e.0), "initial".into()));
    for (k, (start, label)) in events.iter().enumerate() {
        let end = events.get(k + 1).map_or(epochs, |e| e.0);
        phases.push((*start, end, label.clone()));
    }

    let mut settle_t = ResultTable::new(
        "fleet_settle",
        format!(
            "Fleet transient response through `{}`: {} servers ({RACKS} racks × \
             {PER_RACK}, {N_CORES} cores), Analytic tier, initial budget {:.0}% \
             (settle = epochs until fleet power stays within {:.0}% above the \
             committed root allocation)",
            scenario.name,
            spec.n_leaves(),
            INITIAL_BUDGET * 100.0,
            SETTLE_TOLERANCE * 100.0
        ),
        &[
            "phase",
            "start",
            "settle epochs",
            "worst power / committed",
            "tail power / committed",
            "min online",
        ],
    );
    for &(start, end, ref label) in &phases {
        let window =
            &scripted.epochs[start.min(scripted.epochs.len())..end.min(scripted.epochs.len())];
        // Each epoch is held to its own committed root allocation.
        let settle = settle_epochs(window, |e| (e.power_w, e.committed_w));
        let (worst, tail, online) = window_stats(&scripted, start, end);
        settle_t.push_row(vec![
            label.clone(),
            start.to_string(),
            settle.to_string(),
            f3(worst),
            f3(tail),
            online.to_string(),
        ]);
    }

    // Full per-epoch trace of the scripted run.
    let mut trace_t = ResultTable::new(
        "fleet_settle_trace",
        "Scripted run, per epoch: budget, committed root allocation, fleet \
         power (W) and online servers",
        &[
            "epoch",
            "budget W",
            "committed W",
            "power W",
            "power / committed",
            "online",
        ],
    );
    for e in &scripted.epochs {
        trace_t.push_row(vec![
            e.epoch.to_string(),
            f2(e.budget_w),
            f2(e.committed_w),
            f2(e.power_w),
            f3(e.power_w / e.committed_w),
            e.online_leaves.to_string(),
        ]);
    }

    // Population table: breadth over the generated grammar. Generated
    // timelines differ per member, so the columns stay descriptive
    // (worst/tail ratios, availability floor) rather than settle-judged.
    let mut pop_t = ResultTable::new(
        "fleet_settle_population",
        format!(
            "Generated fleet-scenario population ({n_pop} members, {} servers \
             each, {POP_RACKS} racks): cap tracking and conservation under \
             random event mixes",
            pop_spec.n_leaves()
        ),
        &[
            "scenario",
            "seed",
            "events",
            "worst power / committed",
            "tail power / committed",
            "min online",
            "conservation",
        ],
    );
    for (i, ((seed, member), run)) in population.iter().zip(&pop_runs).enumerate() {
        let (worst, tail, online) = window_stats(run, 0, epochs);
        pop_t.push_row(vec![
            format!("gen-{i}"),
            seed.to_string(),
            member.events.len().to_string(),
            f3(worst),
            f3(tail),
            online.to_string(),
            "ok".into(), // run_analytic_fleet fails the artifact otherwise
        ]);
    }

    Ok(vec![settle_t, trace_t, pop_t])
}
