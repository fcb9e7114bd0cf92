//! `fleet_ladder`: the gap-vs-speed ladder of server-model tiers, judged
//! against the DES oracle on a 256-server budget tree (16 racks × 16
//! four-core servers, mixes rotating through the fleet set, FastCap
//! everywhere).
//!
//! Each tier (Analytic, Sampled) drives the *whole* fleet through the
//! water-filling tree; a deterministic set of spot-check leaves is then
//! replayed on the full DES at the exact budget-fraction trace the tier
//! produced, with the same per-leaf seed — so the comparison holds the
//! workload and the capping schedule fixed and isolates the model error.
//! Speed is the modeled cost (backend ops × checked-in ns/op), not
//! wall-clock, so the table is byte-identical at any `--jobs`.

use crate::fleet_support::{
    analytic_builder, ensure_conserved, fleet_spec, modeled_rate, record_surfaces, replay_des,
    sampled_builder, settled_mean, FLEET_SEED_STREAM,
};
use crate::harness::Opts;
use crate::sweep::{derive_seed, Sweep};
use crate::table::{f2, pct, ResultTable};
use fastcap_core::error::Result;
use fastcap_fleet::{Fleet, FleetRun, LeafSpec, ModelTier, TreeSpec};
use fastcap_scenario::FleetScenario;

/// Tree shape: 16 racks × 16 servers = 256 leaves.
const RACKS: usize = 16;
/// Servers per rack.
const PER_RACK: usize = 16;
/// Cores per server (small platform: the DES replays stay cheap).
const N_CORES: usize = 4;
/// Datacenter budget fraction (static through the run).
const BUDGET: f64 = 0.7;
/// DES spot-check replays per tier.
const SPOTS: usize = 8;

/// The spot-check leaves: spread across the tree *and* across the mix
/// rotation (a plain stride of 256/8 = 32 would alias to one mix).
fn spot_leaves(n_leaves: usize) -> Vec<usize> {
    (0..SPOTS)
        .map(|i| (i * n_leaves / SPOTS + i).min(n_leaves - 1))
        .collect()
}

/// One tier's fleet pass: run, trace the spot leaves, hand back the run
/// plus total ops.
fn run_tier<M: fastcap_fleet::ServerModel>(
    cell: &str,
    mut fleet: Fleet<M>,
    spots: &[usize],
    epochs: usize,
) -> Result<(FleetRun, u64)> {
    fleet.trace_leaves(spots);
    let run = fleet.run(epochs)?;
    ensure_conserved(cell, &run)?;
    Ok((run, fleet.total_ops()))
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates surface recording, fleet and replay failures, and fails on
/// any tree-conservation violation.
pub fn run(opts: &Opts) -> Result<Vec<ResultTable>> {
    let spec = fleet_spec(RACKS, PER_RACK, N_CORES);
    let n_leaves = spec.n_leaves();
    let epochs = opts.epochs() / 2;
    let skip = opts.skip().min(epochs / 2);
    let fleet_seed = derive_seed(opts.seed, FLEET_SEED_STREAM);
    let spots = spot_leaves(n_leaves);
    let leaf_cfg = opts.sim_config(N_CORES)?;

    // Surfaces for the Sampled tier: recorded from the DES, sharded.
    let surfaces = record_surfaces(opts, N_CORES)?;

    // The two cheap tiers sweep concurrently (each fleet runs serially
    // inside its point; bytes are schedule-invariant).
    let mut tier_sweep = Sweep::new();
    {
        let (spec, spots): (&TreeSpec, &[usize]) = (&spec, &spots);
        tier_sweep.push(move |_| {
            let mut build = analytic_builder(opts.dilation());
            let fleet = Fleet::new(
                spec,
                &FleetScenario::empty(),
                BUDGET,
                fleet_seed,
                &mut build,
            )?;
            run_tier("fleet_ladder/Analytic", fleet, spots, epochs)
        });
        let surfaces = &surfaces;
        tier_sweep.push(move |_| {
            let mut build = sampled_builder(surfaces);
            let fleet = Fleet::new(
                spec,
                &FleetScenario::empty(),
                BUDGET,
                fleet_seed,
                &mut build,
            )?;
            run_tier("fleet_ladder/Sampled", fleet, spots, epochs)
        });
    }
    let mut tier_runs = tier_sweep.run(opts)?;
    let (sampled_run, sampled_ops) = tier_runs.pop().expect("two tier points");
    let (analytic_run, analytic_ops) = tier_runs.pop().expect("two tier points");

    // DES oracle replays: each spot leaf, per tier trace, at the leaf's
    // fleet-derived seed — sharded like any sweep.
    let tier_traces = [&analytic_run.traces, &sampled_run.traces];
    let mut replay_sweep = Sweep::new();
    for traces in tier_traces {
        for trace in traces.iter() {
            let (leaf_cfg, spec) = (&leaf_cfg, &spec);
            let leaf_idx = trace.leaf;
            let fractions = &trace.fractions;
            replay_sweep.push(move |_| {
                let leaf = leaf_payload(spec, leaf_idx);
                replay_des(
                    leaf_cfg,
                    leaf,
                    derive_seed(fleet_seed, leaf_idx as u64),
                    fractions,
                )
            });
        }
    }
    let replays = replay_sweep.run(opts)?;
    let (analytic_oracle, sampled_oracle) = replays.split_at(spots.len());

    // Per-tier accuracy gaps over the settled window, meaned across the
    // spot leaves.
    let gap =
        |traces: &[fastcap_fleet::LeafTrace], oracle: &[(Vec<f64>, Vec<f64>, u64)]| -> (f64, f64) {
            let mut pg = 0.0;
            let mut bg = 0.0;
            for (t, (op, ob, _)) in traces.iter().zip(oracle) {
                let (mp, mb) = (settled_mean(&t.power, skip), settled_mean(&t.bips, skip));
                let (dp, db) = (settled_mean(op, skip), settled_mean(ob, skip));
                pg += (mp - dp).abs() / dp;
                bg += (mb - db).abs() / db;
            }
            (pg / traces.len() as f64, bg / traces.len() as f64)
        };
    let (a_pgap, a_bgap) = gap(&analytic_run.traces, analytic_oracle);
    let (s_pgap, s_bgap) = gap(&sampled_run.traces, sampled_oracle);

    let leaf_epochs = (n_leaves * epochs) as u64;
    let des_ops: u64 = replays.iter().map(|&(_, _, ops)| ops).sum();
    let des_leaf_epochs = (2 * spots.len() * epochs) as u64;

    let mut ladder = ResultTable::new(
        "fleet_ladder",
        format!(
            "Server-model ladder vs the DES oracle: {n_leaves}-server tree \
             ({RACKS} racks × {PER_RACK}), {N_CORES}-core leaves, budget \
             {:.0}% of fleet peak, {epochs} epochs, {SPOTS} spot-check \
             replays/tier (gaps on the settled window; speed is modeled \
             ops, not wall-clock)",
            BUDGET * 100.0
        ),
        &[
            "tier",
            "power gap vs DES",
            "bips gap vs DES",
            "ops / leaf-epoch",
            "modeled ns / leaf-epoch",
            "modeled knode-epochs/s",
        ],
    );
    for (tier, pgap, bgap, ops, le) in [
        (
            ModelTier::Analytic,
            Some(a_pgap),
            Some(a_bgap),
            analytic_ops,
            leaf_epochs,
        ),
        (
            ModelTier::Sampled,
            Some(s_pgap),
            Some(s_bgap),
            sampled_ops,
            leaf_epochs,
        ),
        (ModelTier::Des, None, None, des_ops, des_leaf_epochs),
    ] {
        let (per, ns, knode) = modeled_rate(tier, ops, le);
        ladder.push_row(vec![
            tier.name().to_string(),
            pgap.map_or_else(|| "oracle".into(), pct),
            bgap.map_or_else(|| "oracle".into(), pct),
            f2(per),
            f2(ns),
            f2(knode),
        ]);
    }

    // Per-spot-leaf detail: settled power/throughput per tier vs DES.
    let mut leaves = ResultTable::new(
        "fleet_ladder_leaves",
        "Spot-check leaves: settled power and throughput per tier vs the \
         DES replay of the same seed and cap trace",
        &[
            "leaf",
            "mix",
            "DES W",
            "Analytic W",
            "Sampled W",
            "Analytic bips gap",
            "Sampled bips gap",
        ],
    );
    for (k, &leaf_idx) in spots.iter().enumerate() {
        let (ap, sp) = (&analytic_run.traces[k], &sampled_run.traces[k]);
        let (des_p, des_b, _) = &analytic_oracle[k];
        let (dp, db) = (settled_mean(des_p, skip), settled_mean(des_b, skip));
        leaves.push_row(vec![
            ap.node.clone(),
            leaf_payload(&spec, leaf_idx).mix.clone(),
            f2(dp),
            f2(settled_mean(&ap.power, skip)),
            f2(settled_mean(&sp.power, skip)),
            pct((settled_mean(&ap.bips, skip) - db).abs() / db),
            pct((settled_mean(&sp.bips, skip) - db).abs() / db),
        ]);
    }

    Ok(vec![ladder, leaves])
}

/// The payload of leaf `idx` (DFS preorder) in a canonical spec.
fn leaf_payload(spec: &TreeSpec, idx: usize) -> &LeafSpec {
    let per_rack = spec.children[0].children.len();
    spec.children[idx / per_rack].children[idx % per_rack]
        .leaf
        .as_ref()
        .expect("canonical leaves carry payloads")
}
