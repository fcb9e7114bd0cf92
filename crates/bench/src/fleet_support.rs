//! Shared machinery for the `fleet_*` artifacts: the canonical leaf
//! population, sharded response-surface recording, per-tier fleet
//! builders, DES spot-check replays, and the deterministic modeled-cost
//! columns.
//!
//! Determinism: every fleet artifact derives one fleet seed from the
//! global `--seed` on a dedicated stream ([`FLEET_SEED_STREAM`]), and the
//! fleet engine fans that out per leaf — so the DES replay of leaf `i`
//! can reconstruct the exact workload trace the fleet's leaf `i` ran.
//! Speed columns are *modeled* (backend op counts × checked-in per-tier
//! ns/op), never wall-clock, so `fleet_*` bytes are identical at any
//! `--jobs` count.

use crate::harness::Opts;
use crate::sweep::Sweep;
use fastcap_core::error::{Error, Result};
use fastcap_fleet::{
    canonical_tree, AnalyticModel, DesModel, Fleet, FleetRun, LeafSpec, ModelTier, ResponseSurface,
    SampledModel, ServerModel, TreeSpec, SURFACE_GRID,
};
use fastcap_scenario::FleetScenario;
use fastcap_sim::SimConfig;
use fastcap_workloads::{mixes, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The fleet leaf mix rotation: one representative of each workload class
/// (balanced, mid, memory-, ILP-bound), assigned round-robin by global
/// leaf index.
pub const FLEET_MIXES: [&str; 4] = ["MIX1", "MID1", "MEM2", "ILP2"];

/// Every fleet leaf runs the paper's policy.
pub const FLEET_POLICY: &str = "FastCap";

/// Sweep stream the fleet seed derives from — clear of the surface
/// recording streams (one per mix) so fleet workload draws never alias a
/// surface measurement's.
pub const FLEET_SEED_STREAM: u64 = 64;

/// Resolves a mix name or fails with a config error naming it.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an unknown mix.
pub fn mix_by_name(name: &str) -> Result<WorkloadSpec> {
    mixes::by_name(name).ok_or_else(|| Error::InvalidConfig {
        what: "fleet mix",
        why: format!("unknown mix `{name}`"),
    })
}

/// The canonical fleet population: `racks × per_rack` servers of
/// `n_cores` cores each, mixes rotating through [`FLEET_MIXES`] by global
/// leaf index, all under [`FLEET_POLICY`].
pub fn fleet_spec(racks: usize, per_rack: usize, n_cores: usize) -> TreeSpec {
    canonical_tree(racks, per_rack, |r, s| LeafSpec {
        mix: FLEET_MIXES[(r * per_rack + s) % FLEET_MIXES.len()].into(),
        n_cores,
        policy: FLEET_POLICY.into(),
    })
}

/// Records the per-mix response surfaces the Sampled tier replays: one
/// DES measurement per `(mix, grid fraction)`, sharded across `--jobs`
/// like any other sweep. Grid points of the same mix share one RNG stream
/// so the whole surface caps a single sampled trace.
///
/// # Errors
///
/// Propagates measurement and assembly failures.
pub fn record_surfaces(
    opts: &Opts,
    n_cores: usize,
) -> Result<BTreeMap<String, Arc<ResponseSurface>>> {
    let cfg = opts.sim_config(n_cores)?;
    let epochs = opts.epochs() / 2;
    let skip = opts.skip();
    let specs: Vec<WorkloadSpec> = FLEET_MIXES
        .iter()
        .map(|name| mix_by_name(name))
        .collect::<Result<_>>()?;

    let mut sweep = Sweep::new();
    for (mi, mix) in specs.iter().enumerate() {
        for &fraction in &SURFACE_GRID {
            let cfg = &cfg;
            sweep.push_with_stream(mi as u64, move |ctx| {
                ResponseSurface::measure_point(cfg, mix, fraction, epochs, skip, ctx.seed)
            });
        }
    }
    let points = sweep.run(opts)?;

    let mut out = BTreeMap::new();
    for (mi, &name) in FLEET_MIXES.iter().enumerate() {
        let chunk = &points[mi * SURFACE_GRID.len()..(mi + 1) * SURFACE_GRID.len()];
        out.insert(
            name.to_string(),
            Arc::new(ResponseSurface::from_points(
                name,
                &cfg,
                &SURFACE_GRID,
                chunk,
            )?),
        );
    }
    Ok(out)
}

/// Leaf builder for [`Fleet`]`<`[`AnalyticModel`]`>` at the given
/// simulator time dilation.
pub fn analytic_builder(dilation: f64) -> impl FnMut(&LeafSpec, u64, f64) -> Result<AnalyticModel> {
    move |leaf, seed, fraction| {
        let cfg = SimConfig::ispass(leaf.n_cores)?.with_time_dilation(dilation);
        let mix = mix_by_name(&leaf.mix)?;
        AnalyticModel::new(cfg, &mix, &leaf.policy, fraction, seed)
    }
}

/// Leaf builder for [`Fleet`]`<`[`SampledModel`]`>` over recorded
/// surfaces (several leaves of the same mix share one surface).
pub fn sampled_builder(
    surfaces: &BTreeMap<String, Arc<ResponseSurface>>,
) -> impl FnMut(&LeafSpec, u64, f64) -> Result<SampledModel> + '_ {
    move |leaf, _seed, fraction| {
        let surface = surfaces
            .get(&leaf.mix)
            .ok_or_else(|| Error::InvalidConfig {
                what: "fleet surface",
                why: format!("no recorded surface for mix `{}`", leaf.mix),
            })?;
        SampledModel::new(Arc::clone(surface), fraction)
    }
}

/// One DES spot-check replay: drives the exact-tier model along a traced
/// budget-fraction series (same leaf seed ⇒ same workload trace the
/// fleet's leaf ran) and returns its per-epoch `(power, bips)` series
/// plus the DES op count. A `0.0` trace entry means the leaf was offline
/// that epoch: the replay skips the step, like the fleet does.
///
/// # Errors
///
/// Propagates model construction and budget-validation failures.
pub fn replay_des(
    cfg: &SimConfig,
    leaf: &LeafSpec,
    seed: u64,
    fractions: &[f64],
) -> Result<(Vec<f64>, Vec<f64>, u64)> {
    let first = fractions
        .iter()
        .copied()
        .find(|&f| f > 0.0)
        .ok_or_else(|| Error::InvalidConfig {
            what: "fleet replay",
            why: "trace has no online epoch".into(),
        })?;
    let mix = mix_by_name(&leaf.mix)?;
    let mut model = DesModel::new(cfg.clone(), &mix, &leaf.policy, first, seed)?;
    let mut power = Vec::with_capacity(fractions.len());
    let mut bips = Vec::with_capacity(fractions.len());
    for &f in fractions {
        if f == 0.0 {
            power.push(0.0);
            bips.push(0.0);
            continue;
        }
        if f.to_bits() != model.budget_fraction().to_bits() {
            model.set_budget_fraction(f)?;
        }
        let e = model.step();
        power.push(e.power.get());
        bips.push(e.bips);
    }
    Ok((power, bips, model.ops()))
}

/// Fails loudly when a fleet run tripped the tree-conservation oracle —
/// every `fleet_*` cell runs through this, so a minted or lost watt
/// anywhere in the tree fails the artifact instead of publishing a bad
/// table.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] carrying the first violation.
pub fn ensure_conserved(cell: &str, run: &FleetRun) -> Result<()> {
    match run.violations.first() {
        None => Ok(()),
        Some(first) => Err(Error::InvalidConfig {
            what: "fleet conservation",
            why: format!(
                "{cell}: {} tree-conservation violation(s); first: {first}",
                run.violations.len()
            ),
        }),
    }
}

/// The deterministic speed columns for one tier:
/// `(ops per leaf-epoch, modeled ns per leaf-epoch, modeled
/// knode-epochs/s)` from a backend op count over `leaf_epochs` stepped
/// leaf-epochs.
#[must_use]
pub fn modeled_rate(tier: ModelTier, ops: u64, leaf_epochs: u64) -> (f64, f64, f64) {
    let per = ops as f64 / leaf_epochs.max(1) as f64;
    let ns = per * tier.ns_per_op();
    let knode_eps = if ns > 0.0 { 1.0e6 / ns } else { 0.0 };
    (per, ns, knode_eps)
}

/// Mean of a settled window (`skip..`), `0.0` for an empty window.
#[must_use]
pub fn settled_mean(series: &[f64], skip: usize) -> f64 {
    let w = &series[skip.min(series.len())..];
    if w.is_empty() {
        0.0
    } else {
        w.iter().sum::<f64>() / w.len() as f64
    }
}

/// Builds and runs one analytic-tier fleet under a scenario — the
/// workhorse of the settle/population cells. When the process-global
/// trace hub is armed it records the fleet's audit trail (tree-alloc
/// snapshots, scenario events, epoch spans) under a deterministic
/// `fleet/…` stream name.
///
/// # Errors
///
/// Propagates fleet construction/run failures and conservation
/// violations.
pub fn run_analytic_fleet(
    cell: &str,
    spec: &TreeSpec,
    scenario: &FleetScenario,
    fraction: f64,
    dilation: f64,
    fleet_seed: u64,
    epochs: usize,
) -> Result<(Fleet<AnalyticModel>, FleetRun)> {
    let mut build = analytic_builder(dilation);
    let mut fleet = Fleet::new(spec, scenario, fraction, fleet_seed, &mut build)?;
    let run = match fastcap_trace::hub() {
        None => fleet.run(epochs)?,
        Some(hub) => {
            let mut tracer = hub.tracer();
            let run = fleet.run_traced(epochs, Some(&mut tracer))?;
            hub.submit(
                format!("fleet/{cell}/b{fraction}/e{epochs}/s{fleet_seed}"),
                tracer,
            );
            run
        }
    };
    ensure_conserved(cell, &run)?;
    Ok((fleet, run))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Opts {
        Opts {
            quick: true,
            ..Opts::default()
        }
    }

    #[test]
    fn surfaces_cover_every_fleet_mix_and_are_jobs_invariant() {
        let a = record_surfaces(&quick(), 4).unwrap();
        let b = record_surfaces(&Opts { jobs: 7, ..quick() }, 4).unwrap();
        assert_eq!(a.len(), FLEET_MIXES.len());
        for name in FLEET_MIXES {
            let sa = &a[name];
            assert_eq!(sa.fractions, SURFACE_GRID.to_vec());
            assert_eq!(**sa, *b[name], "{name}: surface depends on --jobs");
            assert!(sa.power.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn spec_rotates_mixes_and_replay_tracks_a_trace() {
        let spec = fleet_spec(2, 4, 4);
        assert_eq!(spec.n_leaves(), 8);
        let leaf = &spec.children[0].children[1];
        assert_eq!(leaf.leaf.as_ref().unwrap().mix, "MID1");

        let cfg = quick().sim_config(4).unwrap();
        let l = LeafSpec {
            mix: "MEM2".into(),
            n_cores: 4,
            policy: "FastCap".into(),
        };
        // Offline gap in the middle: replay must zero it and resume.
        let trace = [0.7, 0.7, 0.0, 0.7];
        let (p, b, ops) = replay_des(&cfg, &l, 5, &trace).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p[2], 0.0);
        assert!(p[0] > 0.0 && b[3] > 0.0 && ops > 0);
        assert!(replay_des(&cfg, &l, 5, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn modeled_rate_is_pure_arithmetic() {
        let (per, ns, k) = modeled_rate(ModelTier::Sampled, 40, 40);
        assert_eq!(per, 1.0);
        assert_eq!(ns, 60.0);
        assert!((k - 1.0e6 / 60.0).abs() < 1e-9);
        assert_eq!(settled_mean(&[1.0, 3.0, 5.0], 1), 4.0);
        assert_eq!(settled_mean(&[], 0), 0.0);
    }
}
