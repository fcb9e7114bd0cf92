//! MaxBIPS: exhaustive throughput maximization (Isci et al., MICRO'06 \[14\]).
//!
//! MaxBIPS picks, every epoch, the power-mode combination that maximizes
//! the *total* instruction throughput within the budget, by exhaustively
//! evaluating all `F^N` core-frequency combinations (extended here, as in
//! the paper's comparison, to also search the `M` memory frequencies —
//! `O(F^N · M)` total).
//!
//! Two properties the paper highlights:
//!
//! * the search is exponential in the core count — the paper could only
//!   afford it on 4-core systems, and so does this implementation (the
//!   constructor and every warm carry reject core counts whose search
//!   space would exceed ~10⁸ evaluations);
//! * maximizing aggregate BIPS is *unfair*: power flows to power-efficient
//!   applications, creating performance outliers (Fig. 11).

use crate::model_predictive::{core_budgets, grid_decision, GridPoint, ModelPredictive, Search};
use fastcap_core::capper::{DvfsDecision, FastCapConfig, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::{Error, Result};
use fastcap_core::model::CapModel;
use fastcap_core::optimizer::evaluate_point;
use fastcap_core::units::Secs;
use std::cmp::Ordering;

/// The MaxBIPS baseline.
pub type MaxBipsPolicy = ModelPredictive<Exhaustive>;

/// Cap on `F^N · M` grid size (keeps per-epoch latency finite; the paper
/// faced the same wall and evaluated MaxBIPS on 4 cores only).
const MAX_GRID: f64 = 1e8;

/// Default beam width of [`MaxBipsBeamPolicy`]. With Pareto-dominance
/// pruning inside each expansion, 64 survivors per core recover the
/// exhaustive optimum on every pinned instance (see the `beam_matches_*`
/// tests) at `O(N · W · F)` per memory candidate instead of `O(F^N)`.
const DEFAULT_BEAM_WIDTH: usize = 64;

/// The exhaustive MaxBIPS search: an odometer over all `F^N` core-level
/// combinations at every memory candidate, `O(F^N · M)`.
#[derive(Debug, Clone, Default)]
pub struct Exhaustive {
    /// Objective value of the last decision (test/diagnostic hook shared
    /// with the beam variant so the two can be pinned against each other).
    last_total_bips: f64,
    tables: GridTables,
}

/// Per-(core, level) search tables shared by the exhaustive and beam
/// searches, each one row-major buffer (core `i`, ladder level `l` at
/// `i·F + l`) refilled in place on every decide and memory candidate.
#[derive(Debug, Clone, Default)]
struct GridTables {
    /// Core ladder length `F`.
    levels: usize,
    /// Ladder scale of each core level.
    scales: Vec<f64>,
    /// Instructions per memory access of each core, the BIPS weight.
    ipm: Vec<f64>,
    /// Dynamic power of core `i` at level `l`.
    pcost: Vec<f64>,
    /// Predicted instruction throughput of core `i` at level `l` at the
    /// memory point of the last [`GridTables::load_bips`].
    bips: Vec<f64>,
}

impl GridTables {
    /// Loads the memory-independent rows of one decide.
    fn load(&mut self, model: &CapModel, cfg: &FastCapConfig, obs: &EpochObservation) {
        self.levels = cfg.core_ladder.len();
        self.scales.clear();
        self.scales
            .extend((0..self.levels).map(|l| cfg.core_ladder.scale(l)));
        self.ipm.clear();
        self.ipm
            .extend(obs.cores.iter().map(|c| c.instructions_per_miss()));
        self.pcost.clear();
        for c in &model.cores {
            self.pcost
                .extend(self.scales.iter().map(|&s| c.power.dynamic_power(s).get()));
        }
    }

    /// Loads the BIPS rows at memory operating point `sb`.
    fn load_bips(&mut self, model: &CapModel, sb: Secs) {
        self.bips.clear();
        for (i, c) in model.cores.iter().enumerate() {
            let r = model.memory.response.response_time(i, sb).get();
            let ipm = self.ipm[i];
            self.bips.extend(self.scales.iter().map(|&s| {
                let turn = c.min_think_time.get() / s + c.cache_time.get() + r;
                ipm / turn
            }));
        }
    }

    fn pcost(&self, i: usize) -> &[f64] {
        &self.pcost[i * self.levels..(i + 1) * self.levels]
    }

    fn bips(&self, i: usize) -> &[f64] {
        &self.bips[i * self.levels..(i + 1) * self.levels]
    }

    /// Exact minimum power of cores `i..` for every `i` (`n + 1` entries,
    /// the last 0): the feasibility bound for partial assignments.
    fn min_suffix(&self, n: usize) -> Vec<f64> {
        let mut min_suffix = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            let row_min = self.pcost(i).iter().cloned().fold(f64::MAX, f64::min);
            min_suffix[i] = min_suffix[i + 1] + row_min;
        }
        min_suffix
    }
}

impl Search for Exhaustive {
    const NAME: &'static str = "MaxBIPS";

    /// Rejects core counts whose exhaustive search space `F^N · M` would
    /// exceed ~10⁸ points (e.g. 16+ cores).
    fn admits(cfg: &FastCapConfig) -> Result<()> {
        let f = cfg.core_ladder.len() as f64;
        let m = cfg.mem_ladder.len() as f64;
        let grid = f.powi(cfg.n_cores as i32) * m;
        if !grid.is_finite() || grid > MAX_GRID {
            return Err(Error::InvalidConfig {
                what: "MaxBIPS::n_cores",
                why: format!(
                    "exhaustive search needs {grid:.1e} evaluations for N={}, F={f}, M={m} \
                     (cap {MAX_GRID:.0e}); the paper, too, only ran MaxBIPS on 4 cores",
                    cfg.n_cores
                ),
            });
        }
        Ok(())
    }

    fn search(
        &mut self,
        ctl: &mut FastCapController,
        model: &CapModel,
        obs: &EpochObservation,
        cost: &mut CostCounter,
    ) -> Result<DvfsDecision> {
        let cfg = ctl.config();
        let n = model.n_cores();
        let f_levels = cfg.core_ladder.len();
        let tables = &mut self.tables;
        tables.load(model, cfg, obs);

        let mut best: Option<(f64, GridPoint)> = None;
        for (sb, core_budget) in core_budgets(ctl, model) {
            if core_budget <= 0.0 {
                continue;
            }
            tables.load_bips(model, sb);
            cost.grid_points += (n * f_levels) as u64;

            // Exhaustive odometer over F^N combinations.
            let mut combo = vec![0usize; n];
            loop {
                let mut power = 0.0;
                let mut total_bips = 0.0;
                for (i, &l) in combo.iter().enumerate() {
                    power += tables.pcost(i)[l];
                    total_bips += tables.bips(i)[l];
                }
                cost.grid_points += n as u64;
                if power <= core_budget && best.as_ref().is_none_or(|(bb, _)| total_bips > *bb) {
                    let scales_now: Vec<f64> = combo.iter().map(|&l| tables.scales[l]).collect();
                    let (degradation, power) = evaluate_point(model, &scales_now, sb)?;
                    cost.grid_points += n as u64;
                    cost.quantize_ops += 1;
                    let point = GridPoint {
                        core_freqs: combo.clone(),
                        sb,
                        degradation,
                        power,
                    };
                    best = Some((total_bips, point));
                }
                // Advance the odometer.
                let mut k = 0;
                loop {
                    if k == n {
                        break;
                    }
                    combo[k] += 1;
                    if combo[k] < f_levels {
                        break;
                    }
                    combo[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }
        }
        self.last_total_bips = best.as_ref().map_or(0.0, |(bips, _)| *bips);
        Ok(grid_decision(ctl, model, best.map(|(_, point)| point)))
    }
}

/// One beam node: a partial assignment of cores `0..=i`, held as its
/// power and BIPS sums plus a link to its parent in layer `i − 1`. The
/// per-core levels are rebuilt from the links only when a search result
/// beats the best so far.
#[derive(Debug, Clone, Copy)]
struct Node {
    power: f64,
    bips: f64,
    /// Index of the parent in the previous layer's frontier.
    parent: usize,
    /// Core ladder level this node assigns to core `i`.
    level: usize,
}

/// The beam's total order: BIPS descending, then power, parent and level
/// ascending — a stable sort of the parent-major expansion order.
fn beam_order(a: &Node, b: &Node) -> Ordering {
    b.bips
        .total_cmp(&a.bips)
        .then_with(|| a.power.total_cmp(&b.power))
        .then_with(|| a.parent.cmp(&b.parent))
        .then_with(|| a.level.cmp(&b.level))
}

/// Reusable beam storage: one frontier per core and one expansion run per
/// ladder level, kept across memory candidates and decides so that a
/// search allocates nothing per state.
#[derive(Debug, Clone, Default)]
struct BeamArena {
    /// `layers[i]`: the frontier after assigning cores `0..=i`.
    layers: Vec<Vec<Node>>,
    /// `runs[l]`: the current layer's feasible expansions at level `l`.
    runs: Vec<Vec<Node>>,
    /// Merge cursor into each run.
    heads: Vec<usize>,
}

impl BeamArena {
    /// Runs a width-`width` beam over every core at one memory point and
    /// returns the top complete node, or `None` when no assignment fits
    /// `core_budget`. Counts every expansion (`F` per surviving parent, at
    /// most `W·F` per core) as a grid point in `cost`, merged or not.
    ///
    /// The previous frontier is strictly decreasing in both BIPS and power,
    /// so one level's expansions, taken in parent order, are already in
    /// beam order except inside rare groups of equal BIPS, which the
    /// insertion sort flips. Merging the `F` runs then yields the beam
    /// order of all expansions without sorting them, and the merge stops
    /// once the frontier holds `width` survivors.
    fn search(
        &mut self,
        tables: &GridTables,
        min_suffix: &[f64],
        core_budget: f64,
        width: usize,
        cost: &mut CostCounter,
    ) -> Option<Node> {
        let n = min_suffix.len() - 1;
        let f = tables.levels;
        self.layers.resize_with(n, Vec::new);
        self.runs.resize_with(f, Vec::new);
        self.heads.resize(f, 0);
        let root = [Node {
            power: 0.0,
            bips: 0.0,
            parent: 0,
            level: 0,
        }];
        for i in 0..n {
            let (done, rest) = self.layers.split_at_mut(i);
            let prev = done.last().map_or(&root[..], Vec::as_slice);
            cost.grid_points += (prev.len() * f) as u64;
            let (pcost, bips) = (tables.pcost(i), tables.bips(i));
            for (level, run) in self.runs.iter_mut().enumerate() {
                run.clear();
                for (parent, s) in prev.iter().enumerate() {
                    let power = s.power + pcost[level];
                    // Drop states whose cheapest completion cannot fit.
                    if power + min_suffix[i + 1] > core_budget {
                        continue;
                    }
                    run.push(Node {
                        power,
                        bips: s.bips + bips[level],
                        parent,
                        level,
                    });
                }
                insertion_sort(run);
            }
            let frontier = &mut rest[0];
            merge_frontier(&self.runs, &mut self.heads, width, frontier);
            if frontier.is_empty() {
                return None;
            }
        }
        self.layers.last().map(|top| top[0])
    }

    /// Writes the level of every core on the top node's parent path, as
    /// left by the last successful [`BeamArena::search`], into `combo`.
    fn rebuild_top(&self, combo: &mut Vec<usize>) {
        combo.clear();
        combo.resize(self.layers.len(), 0);
        let mut idx = 0;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            combo[i] = layer[idx].level;
            idx = layer[idx].parent;
        }
    }
}

/// Sorts `run` into beam order; linear on a run that already is in order.
fn insertion_sort(run: &mut [Node]) {
    for j in 1..run.len() {
        let mut k = j;
        while k > 0 && beam_order(&run[k - 1], &run[k]).is_gt() {
            run.swap(k - 1, k);
            k -= 1;
        }
    }
}

/// Merges beam-ordered `runs` into `frontier` with Pareto pruning: a node
/// survives only if it is strictly cheaper than every node before it in
/// beam order, and the merge stops at `width` survivors. A run's head that
/// is no cheaper than the last survivor can never survive, so it is
/// skipped without a merge comparison.
fn merge_frontier(runs: &[Vec<Node>], heads: &mut [usize], width: usize, frontier: &mut Vec<Node>) {
    frontier.clear();
    heads.fill(0);
    let mut cheapest = f64::MAX;
    while frontier.len() < width {
        let mut pick: Option<(usize, &Node)> = None;
        for (l, (run, head)) in runs.iter().zip(heads.iter_mut()).enumerate() {
            while let Some(node) = run.get(*head) {
                if node.power < cheapest {
                    if pick.is_none_or(|(_, p)| beam_order(node, p).is_lt()) {
                        pick = Some((l, node));
                    }
                    break;
                }
                *head += 1;
            }
        }
        let Some((l, &node)) = pick else { break };
        heads[l] += 1;
        cheapest = node.power;
        frontier.push(node);
    }
}

/// Beam-search MaxBIPS: the same objective as [`MaxBipsPolicy`] —
/// maximize total predicted BIPS within the budget, over all core and
/// memory frequencies — but searched with a width-`W` beam per memory
/// candidate instead of the `O(Fᴺ)` exhaustive odometer, so it runs at
/// any core count (the exhaustive baseline rejects `N > 8` at the paper's
/// ladder sizes and 16-core scenario artifacts would otherwise have to
/// exclude MaxBIPS).
pub type MaxBipsBeamPolicy = ModelPredictive<Beam>;

/// The width-`W` beam search of [`MaxBipsBeamPolicy`], `O(N·W·F·M)`.
///
/// Cores are assigned in index order. After extending every surviving
/// state by all `F` levels of the next core, states that cannot be
/// completed within the core power budget (checked against the exact
/// minimum power of the remaining cores) are dropped, the rest are
/// Pareto-pruned — a state survives only if no state with at least its
/// BIPS has strictly less power — and the frontier is truncated to the
/// beam width. The search is deterministic: survivors are taken in a
/// total order (BIPS descending, then power, parent and level ascending)
/// that depends only on the model, so exact ties between identical cores
/// always resolve the same way.
#[derive(Debug, Clone)]
pub struct Beam {
    width: usize,
    last_total_bips: f64,
    tables: GridTables,
    arena: BeamArena,
}

impl Default for Beam {
    fn default() -> Self {
        Self {
            width: DEFAULT_BEAM_WIDTH,
            last_total_bips: 0.0,
            tables: GridTables::default(),
            arena: BeamArena::default(),
        }
    }
}

impl MaxBipsBeamPolicy {
    /// Creates the policy with an explicit beam width (≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero width, and propagates
    /// configuration validation failures.
    pub fn with_width(cfg: FastCapConfig, width: usize) -> Result<Self> {
        if width == 0 {
            return Err(Error::InvalidConfig {
                what: "MaxBipsBeam::width",
                why: "beam width must be at least 1".into(),
            });
        }
        Self::with_search(
            cfg,
            Beam {
                width,
                ..Beam::default()
            },
        )
    }
}

impl Search for Beam {
    const NAME: &'static str = "MaxBIPS-beam";

    fn search(
        &mut self,
        ctl: &mut FastCapController,
        model: &CapModel,
        obs: &EpochObservation,
        cost: &mut CostCounter,
    ) -> Result<DvfsDecision> {
        let cfg = ctl.config();
        let n = model.n_cores();
        let f_levels = cfg.core_ladder.len();
        let tables = &mut self.tables;
        tables.load(model, cfg, obs);
        let min_suffix = tables.min_suffix(n);

        let mut combo = Vec::with_capacity(n);
        let mut best: Option<(f64, Secs)> = None;
        for (sb, core_budget) in core_budgets(ctl, model) {
            if core_budget <= 0.0 || min_suffix[0] > core_budget {
                continue;
            }
            tables.load_bips(model, sb);
            cost.grid_points += (n * f_levels) as u64;
            let top = self
                .arena
                .search(tables, &min_suffix, core_budget, self.width, cost);
            if let Some(top) = top {
                if best.as_ref().is_none_or(|(b, _)| top.bips > *b) {
                    cost.quantize_ops += 1;
                    self.arena.rebuild_top(&mut combo);
                    best = Some((top.bips, sb));
                }
            }
        }

        self.last_total_bips = best.map_or(0.0, |(bips, _)| bips);
        let point = match best {
            Some((_, sb)) => {
                let scales_now: Vec<f64> = combo.iter().map(|&l| tables.scales[l]).collect();
                let (degradation, power) = evaluate_point(model, &scales_now, sb)?;
                cost.grid_points += n as u64;
                Some(GridPoint {
                    core_freqs: combo,
                    sb,
                    degradation,
                    power,
                })
            }
            None => None,
        };
        Ok(grid_decision(ctl, model, point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg_4, obs_4};
    use crate::{CappingPolicy, FastCapPolicy};
    use fastcap_core::counters::{CoreSample, MemorySample};
    use fastcap_core::units::{Hz, Watts};

    #[test]
    fn rejects_large_core_counts() {
        let cfg = FastCapConfig::builder(16).build().unwrap();
        assert!(matches!(
            MaxBipsPolicy::new(cfg),
            Err(Error::InvalidConfig { .. })
        ));
        // A warm carry onto 16 cores is refused the same way, and the
        // policy keeps deciding for its 4 cores.
        let mut p = MaxBipsPolicy::new(cfg_4(0.6)).unwrap();
        assert!(matches!(
            p.on_active_set_change(&[None; 16]),
            Err(Error::InvalidConfig { .. })
        ));
        assert_eq!(p.decide(&obs_4()).unwrap().core_freqs.len(), 4);
    }

    #[test]
    fn four_cores_work_within_budget() {
        let mut p = MaxBipsPolicy::new(cfg_4(0.6)).unwrap();
        let d = p.decide(&obs_4()).unwrap();
        assert!(!d.emergency);
        assert!(
            d.predicted_power.get() <= 36.0 + 1e-6,
            "{}",
            d.predicted_power
        );
        assert_eq!(d.core_freqs.len(), 4);
    }

    #[test]
    fn maximizes_throughput_at_fairness_cost() {
        // MaxBIPS must achieve total predicted BIPS >= FastCap's config
        // (it optimizes exactly that), while its worst-core D is <= FastCap's
        // (it ignores fairness).
        let obs = obs_4();
        let mut mb = MaxBipsPolicy::new(cfg_4(0.6)).unwrap();
        let mut fc = FastCapPolicy::new(cfg_4(0.6)).unwrap();
        let dm = mb.decide(&obs).unwrap();
        let df = fc.decide(&obs).unwrap();
        assert!(
            dm.degradation <= df.degradation + 1e-6,
            "MaxBIPS worst-core D {} should not beat FastCap {}",
            dm.degradation,
            df.degradation
        );
        // CPU-bound cores (higher IPM) tend to receive >= frequency of
        // memory-bound ones under MaxBIPS.
        assert!(dm.core_freqs[0] >= dm.core_freqs[2]);
    }

    #[test]
    fn emergency_when_infeasible() {
        let cfg = FastCapConfig::builder(4)
            .budget_fraction(0.2)
            .peak_power(Watts(60.0))
            .build()
            .unwrap(); // 12 W < static 26 W
        let mut p = MaxBipsPolicy::new(cfg).unwrap();
        let d = p.decide(&obs_4()).unwrap();
        assert!(d.emergency);
        let mut b = MaxBipsBeamPolicy::new(cfg_4(0.2)).unwrap();
        let d = b.decide(&obs_4()).unwrap();
        assert!(d.emergency, "beam variant takes the same emergency floor");
    }

    // ---- beam variant ---------------------------------------------------

    use crate::MaxBipsBeamPolicy;
    use fastcap_core::freq::FreqLadder;

    /// An 8-core configuration with 5-level ladders, small enough
    /// (`5^8 · 5 ≈ 2·10^6`) for the exhaustive baseline to accept.
    fn cfg_8(budget: f64) -> FastCapConfig {
        FastCapConfig::builder(8)
            .budget_fraction(budget)
            .core_ladder(
                FreqLadder::equally_spaced(Hz::from_ghz(2.2), Hz::from_ghz(4.0), 5).unwrap(),
            )
            .mem_ladder(
                FreqLadder::equally_spaced(Hz::from_mhz(200.0), Hz::from_mhz(800.0), 5).unwrap(),
            )
            .build()
            .unwrap()
    }

    fn obs_8() -> EpochObservation {
        let cores = (0..8)
            .map(|i| CoreSample {
                freq: Hz::from_ghz(4.0),
                busy_time_per_instruction: Secs::from_nanos(0.25 + 0.015 * (i % 5) as f64),
                instructions: 1_000_000,
                last_level_misses: [300, 900, 3_000, 9_000][i % 4],
                power: Watts(3.9 + 0.2 * (i % 3) as f64),
            })
            .collect();
        EpochObservation::single(
            cores,
            MemorySample {
                bus_freq: Hz::from_mhz(800.0),
                bank_queue: 1.5,
                bus_queue: 1.3,
                bank_service_time: Secs::from_nanos(27.0),
                power: Watts(28.0),
            },
            Watts(62.0),
        )
    }

    #[test]
    fn beam_matches_exhaustive_objective_at_4_cores() {
        for budget in [0.6, 0.75, 0.9] {
            let obs = obs_4();
            let mut exact = MaxBipsPolicy::new(cfg_4(budget)).unwrap();
            let mut beam = MaxBipsBeamPolicy::new(cfg_4(budget)).unwrap();
            let de = exact.decide(&obs).unwrap();
            let db = beam.decide(&obs).unwrap();
            assert!(!de.emergency && !db.emergency, "B={budget}");
            let tol = 1e-9 * exact.search.last_total_bips.max(1.0);
            assert!(
                (beam.search.last_total_bips - exact.search.last_total_bips).abs() <= tol,
                "B={budget}: beam {} vs exhaustive {}",
                beam.search.last_total_bips,
                exact.search.last_total_bips
            );
            assert!(db.predicted_power.get() <= 60.0 * budget + 1e-6);
        }
    }

    #[test]
    fn beam_matches_exhaustive_objective_at_8_cores() {
        for budget in [0.55, 0.7] {
            let obs = obs_8();
            let mut exact = MaxBipsPolicy::new(cfg_8(budget)).unwrap();
            let mut beam = MaxBipsBeamPolicy::new(cfg_8(budget)).unwrap();
            exact.decide(&obs).unwrap();
            beam.decide(&obs).unwrap();
            assert!(
                exact.search.last_total_bips > 0.0,
                "B={budget}: exhaustive found a feasible point"
            );
            let tol = 1e-9 * exact.search.last_total_bips.max(1.0);
            assert!(
                (beam.search.last_total_bips - exact.search.last_total_bips).abs() <= tol,
                "B={budget}: beam {} vs exhaustive {}",
                beam.search.last_total_bips,
                exact.search.last_total_bips
            );
            // The beam can never beat the exhaustive optimum.
            assert!(beam.search.last_total_bips <= exact.search.last_total_bips + tol);
        }
    }

    #[test]
    fn beam_scales_to_16_cores_where_exhaustive_refuses() {
        let cfg = FastCapConfig::builder(16)
            .budget_fraction(0.6)
            .peak_power(Watts(120.0))
            .build()
            .unwrap();
        assert!(MaxBipsPolicy::new(cfg.clone()).is_err());
        let mut beam = MaxBipsBeamPolicy::new(cfg).unwrap();
        let d = beam.decide(&crate::tests::obs_16()).unwrap();
        assert!(!d.emergency);
        assert_eq!(d.core_freqs.len(), 16);
        assert!(d.predicted_power.get() <= 72.0 + 1e-6);
        assert!(beam.search.last_total_bips > 0.0);
    }

    #[test]
    fn narrow_beams_stay_feasible_and_monotone() {
        // Widening the beam can only improve (or tie) the objective.
        let obs = obs_4();
        let mut last = 0.0;
        for width in [1, 4, 64] {
            let mut p = MaxBipsBeamPolicy::with_width(cfg_4(0.6), width).unwrap();
            let d = p.decide(&obs).unwrap();
            assert!(!d.emergency, "width {width}");
            assert!(d.predicted_power.get() <= 36.0 + 1e-6, "width {width}");
            assert!(
                p.search.last_total_bips >= last - 1e-12,
                "width {width} regressed: {} < {last}",
                p.search.last_total_bips
            );
            last = p.search.last_total_bips;
        }
        assert!(MaxBipsBeamPolicy::with_width(cfg_4(0.6), 0).is_err());
    }

    #[test]
    fn beam_is_deterministic() {
        let obs = obs_8();
        let run = || {
            let mut p = MaxBipsBeamPolicy::new(cfg_8(0.6)).unwrap();
            p.decide(&obs).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn beam_frontiers_are_strict_pareto_and_completable() {
        // Every layer keeps at most W survivors, strictly decreasing in both
        // BIPS and power, and each survivor's cheapest completion still fits
        // the core budget. The 16-core fixture has identical cores, so its
        // layers are full of exact (BIPS, power) ties.
        let cases = [
            (crate::tests::cfg_16(0.6), crate::tests::obs_16(), 1),
            (crate::tests::cfg_16(0.5), crate::tests::obs_16(), 4),
            (crate::tests::cfg_16(0.6), crate::tests::obs_16(), 64),
            (crate::tests::cfg_16(0.85), crate::tests::obs_16(), 64),
            (cfg_8(0.55), obs_8(), 4),
            (cfg_8(0.7), obs_8(), 64),
        ];
        for (cfg, obs, width) in cases {
            let mut controller = FastCapController::new(cfg).unwrap();
            controller.observe(&obs);
            let model = controller.build_model(&obs).unwrap();
            let mut tables = GridTables::default();
            tables.load(&model, controller.config(), &obs);
            let min_suffix = tables.min_suffix(model.n_cores());
            let mut arena = BeamArena::default();
            let mut searched = 0;
            for &sb in controller.candidates() {
                let bus_scale = model.memory.min_bus_transfer_time / sb;
                let mem_dyn = model.memory.power.dynamic_power(bus_scale);
                let core_budget = model.budget.get() - model.static_power.get() - mem_dyn.get();
                tables.load_bips(&model, sb);
                let mut cost = CostCounter::default();
                if arena
                    .search(&tables, &min_suffix, core_budget, width, &mut cost)
                    .is_none()
                {
                    continue;
                }
                searched += 1;
                assert_eq!(arena.layers.len(), model.n_cores());
                for (i, layer) in arena.layers.iter().enumerate() {
                    assert!(!layer.is_empty() && layer.len() <= width, "layer {i}");
                    for pair in layer.windows(2) {
                        assert!(pair[1].bips < pair[0].bips, "layer {i}: {pair:?}");
                        assert!(pair[1].power < pair[0].power, "layer {i}: {pair:?}");
                    }
                    for node in layer {
                        assert!(
                            node.power + min_suffix[i + 1] <= core_budget,
                            "layer {i}: {node:?} cannot complete within {core_budget}"
                        );
                    }
                }
            }
            assert!(searched > 0, "width {width}: no memory point was searched");
        }
    }
}
