//! The FastCap optimization solver (Sec. III-B, Algorithm 1).
//!
//! The optimization is
//!
//! ```text
//! maximize D
//!   s.t.  (z_i + c_i + R(s_b)) / (z̄_i + c_i + R(s̄_b)) <= 1/D   ∀i   (5)
//!         Σ_i P_i (z̄_i/z_i)^α_i + P_m (s̄_b/s_b)^β + P_s <= B·P̄     (6)
//!         s_b >= s̄_b,  z_i >= z̄_i                                  (7)
//! ```
//!
//! **Theorem 1** shows both (5) and (6) bind at the optimum, which yields
//! the closed form (Eq. 8)
//!
//! ```text
//! z_i = (z̄_i + c_i + R(s̄_b)) / D  −  c_i − R(s_b)
//! ```
//!
//! so that, for a *fixed* bus transfer time `s_b`, the only unknown is the
//! scalar `D`: substituting Eq. 8 into the power equality gives one monotone
//! scalar equation. [`solve_for_bus_time`] pins its root with a fixed
//! bisection whose midpoints are settled, all but a few, by a safeguarded
//! Newton root instead of an `N`-core power sum each (DESIGN.md §14):
//! `O(N)` per candidate either way. Because the problem is convex,
//! `D*(s_b)` is unimodal over the ordered candidate array, and Algorithm 1
//! finds the global optimum with a binary search over the `M` memory
//! frequencies — total cost `O(N log M)` ([`algorithm1`]). The search
//! compares bus points by their root alone and builds the per-core
//! solution once, at the chosen point (DESIGN.md §14, step 6).
//! [`exhaustive`] scans all `M` candidates and exists purely as a
//! correctness oracle.

use crate::error::{Error, Result};
use crate::model::{CapModel, CoreModel};
use crate::units::{Secs, Watts};

/// Tolerance for the scalar bisection on `D` (relative).
const D_TOLERANCE: f64 = 1e-10;
/// Iteration cap for the bisection (60 halvings ≪ f64 precision already).
const MAX_BISECT_ITERS: usize = 200;
/// Most power sums the Newton search for the bisection's root may take
/// before the bisection runs without certificates.
pub const NEWTON_MAX_ITERS: usize = 8;
/// Newton has converged once its step is below this fraction of `D`.
const NEWTON_TOL: f64 = CERT_OFFSET / 4.0;
/// Relative distance of the two certificates from Newton's root.
const CERT_OFFSET: f64 = 1e-11;

/// Solution of the inner problem at a fixed bus transfer time.
#[derive(Debug, Clone, PartialEq)]
pub struct BusPointSolution {
    /// Optimal degradation factor `D ∈ (0, 1]`: every application runs at
    /// `D` times its best achievable performance.
    pub degradation: f64,
    /// Optimal per-core think times `z_i` (continuous, pre-quantization).
    pub think_times: Vec<Secs>,
    /// Per-core frequency scaling factors `z̄_i / z_i ∈ (0, 1]`.
    pub core_scales: Vec<f64>,
    /// Predicted total power (dynamic + static) at this operating point.
    pub predicted_power: Watts,
    /// Whether the power budget is binding (`true`) or performance saturated
    /// at `D = D_max` with power to spare (`false`, e.g. MEM workloads under
    /// a generous budget — Fig. 5, B=80%).
    pub budget_bound: bool,
    /// Deterministic count of per-core terms evaluated while solving this
    /// bus point: the two constant-setup loops, every power sum (at
    /// `d_max`, Newton's, the two certificates' and the bisection's
    /// midpoints between them) and the final think-time pass. [`algorithm1`]
    /// counts that final pass at every bus point it probes but runs it only
    /// at the one it chooses. Feeds the cost model's `solver_iter` class;
    /// identical for identical inputs on any host.
    pub core_terms: u64,
}

/// Full solution of the FastCap optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Index into the candidate `s_b` array that was selected.
    pub bus_index: usize,
    /// The selected bus transfer time `s_b`.
    pub bus_transfer_time: Secs,
    /// Memory frequency scaling factor `s̄_b / s_b ∈ (0, 1]`.
    pub bus_scale: f64,
    /// The inner solution at that bus point.
    pub inner: BusPointSolution,
    /// How many candidate bus points were evaluated (instrumentation for the
    /// complexity experiments; `O(log M)` for Algorithm 1, `M` for the
    /// exhaustive oracle).
    pub points_evaluated: usize,
    /// Total per-core terms counted across all bus points touched, each
    /// counted as [`BusPointSolution::core_terms`] counts it when first
    /// touched, for the deterministic cost model. Every touched point
    /// counts its final think-time pass, though [`algorithm1`] runs that
    /// pass only at the chosen point.
    pub core_terms: u64,
}

impl Solution {
    /// Optimal degradation factor `D`.
    #[inline]
    pub fn degradation(&self) -> f64 {
        self.inner.degradation
    }
}

/// Solves the inner problem for a fixed `s_b` (Eq. 8 + power equality):
/// the root step ([`Probe::root`]) and then the per-core pass
/// ([`Probe::solution`]) at the same point.
///
/// When the budget binds, the root of `P(D) = core budget` is pinned by
/// the bisection below, run from `(d_max·1e-9, d_max]` to a relative width
/// of `D_TOLERANCE`. Safeguarded Newton first finds that root `D̂`, and
/// two sums just beside it certify every bisection midpoint outside
/// `D̂·(1 ± CERT_OFFSET)`: such a midpoint is settled by comparison, and
/// only midpoints between the certificates are summed. The bisection's
/// path, and so every returned number, is the one a sum at every midpoint
/// gives (DESIGN.md §14).
///
/// Returns `Ok(None)` when this bus point is infeasible: the memory's own
/// frequency-dependent power at `s_b` already exceeds the dynamic budget, so
/// no assignment of core frequencies can satisfy constraint 6.
///
/// # Errors
///
/// Returns [`Error::InvalidModel`] if the model fails validation.
pub fn solve_for_bus_time(model: &CapModel, s_b: Secs) -> Result<Option<BusPointSolution>> {
    model.validate()?;
    let sb_bar = model.memory.min_bus_transfer_time;
    if s_b < sb_bar {
        return Err(Error::InvalidModel {
            why: format!("s_b ({s_b}) below minimum bus transfer time ({sb_bar})"),
        });
    }
    let mut probe = Probe::new(model);
    Ok(probe.root(s_b).map(|root| probe.solution(s_b, root)))
}

/// One bus point's root: `D*(s_b)`, which alone steers Algorithm 1, and
/// what [`Probe::solution`] needs to build the per-core solution there.
#[derive(Clone, Copy)]
struct Root {
    /// `D*(s_b)`.
    degradation: f64,
    /// The core power an unbound point summed at `d_max`; `None` when the
    /// budget binds.
    unbound_power: Option<f64>,
    /// The memory's frequency-dependent power at this `s_b`.
    mem_dyn: Watts,
    /// Every term the point counts, its final per-core pass included.
    core_terms: u64,
}

/// What one solve shares across its bus points, and its counts.
struct Probe<'a> {
    model: &'a CapModel,
    /// `T̄_i = z̄_i + c_i + R_i(s̄_b)`: best turn-around, at maximum
    /// frequencies. No `s_b` changes it.
    t_bar: Vec<f64>,
    /// `A_i = c_i + R_i(s_b)` at the bus point in hand: the
    /// frequency-independent part of `z_i(D)`.
    a: Vec<f64>,
    /// Roots computed, feasible or not.
    evaluated: usize,
    /// Terms counted by the feasible ones.
    core_terms: u64,
}

impl<'a> Probe<'a> {
    fn new(model: &'a CapModel) -> Self {
        let n = model.n_cores();
        let mut t_bar = Vec::with_capacity(n);
        let sb_bar = model.memory.min_bus_transfer_time;
        model
            .memory
            .response
            .for_each_response_time(n, sb_bar, |i, r_bar| {
                let c = &model.cores[i];
                t_bar.push((c.min_think_time + c.cache_time + r_bar).get());
            });
        Self {
            model,
            t_bar,
            a: Vec::with_capacity(n),
            evaluated: 0,
            core_terms: 0,
        }
    }

    /// Sets `A_i` for the bus point `s_b`.
    fn set_bus_time(&mut self, s_b: Secs) {
        let (cores, a) = (&self.model.cores, &mut self.a);
        a.clear();
        self.model
            .memory
            .response
            .for_each_response_time(cores.len(), s_b, |i, r| {
                a.push((cores[i].cache_time + r).get())
            });
    }

    /// The root step at `s_b`: `D` and what the per-core pass needs, or
    /// `None` when the memory alone busts the budget. It counts the final
    /// pass's `N` terms whether or not that pass ever runs, so a point
    /// costs the same counted work probed or chosen.
    fn root(&mut self, s_b: Secs) -> Option<Root> {
        self.evaluated += 1;
        let model = self.model;
        let bus_scale = model.memory.min_bus_transfer_time / s_b;
        let mem_dyn = model.memory.power.dynamic_power(bus_scale);
        let dyn_budget = model.dynamic_budget();

        // Infeasible: memory alone busts the budget even with idle cores.
        if mem_dyn.get() >= dyn_budget.get() {
            return None;
        }
        let core_budget = (dyn_budget - mem_dyn).get();
        self.set_bus_time(s_b);
        let mut point = BusPoint::new(&model.cores, &self.t_bar, &self.a);
        let d_max = point.d_max();

        // If even D = d_max fits the budget, performance saturates there
        // and the budget is not binding.
        let (p_max, slope_max) = point.power_and_slope(d_max);
        let (degradation, unbound_power) = if p_max <= core_budget {
            (d_max, Some(p_max))
        } else {
            // Otherwise bisect the monotone power equality g(D) = budget,
            // settling each midpoint beyond a certificate without summing.
            let (under, over) = point.certificates(d_max, p_max, slope_max, core_budget);
            let mut lo = d_max * 1e-9;
            let mut hi = d_max;
            let mut iters = 0;
            while (hi - lo) > D_TOLERANCE * d_max && iters < MAX_BISECT_ITERS {
                let mid = 0.5 * (lo + hi);
                let over_budget = if mid >= over {
                    true
                } else if mid <= under {
                    false
                } else {
                    point.power(mid) > core_budget
                };
                if over_budget {
                    hi = mid;
                } else {
                    lo = mid;
                }
                iters += 1;
            }
            (0.5 * (lo + hi), None)
        };
        let core_terms = point.terms + point.n();
        self.core_terms += core_terms;
        Some(Root {
            degradation,
            unbound_power,
            mem_dyn,
            core_terms,
        })
    }

    /// The per-core pass at `root`, found at `s_b`.
    fn solution(&mut self, s_b: Secs, root: Root) -> BusPointSolution {
        self.set_bus_time(s_b);
        BusPoint::new(&self.model.cores, &self.t_bar, &self.a)
            .solution(root, self.model.static_power)
    }
}

/// One bus point's per-core constants and its deterministic work meter.
struct BusPoint<'a> {
    cores: &'a [CoreModel],
    t_bar: &'a [f64],
    a: &'a [f64],
    /// One unit per per-core term evaluated at this bus point.
    terms: u64,
}

impl<'a> BusPoint<'a> {
    /// Counts the `N` setup terms of `T̄_i` and `A_i`.
    fn new(cores: &'a [CoreModel], t_bar: &'a [f64], a: &'a [f64]) -> Self {
        Self {
            cores,
            t_bar,
            a,
            terms: cores.len() as u64,
        }
    }

    fn n(&self) -> u64 {
        self.cores.len() as u64
    }

    /// The largest `D`: above it some core would need a think time below
    /// `z̄_i`, i.e. a frequency above maximum (constraint 7).
    fn d_max(&mut self) -> f64 {
        let mut d_max = f64::INFINITY;
        for (i, c) in self.cores.iter().enumerate() {
            d_max = d_max.min(self.t_bar[i] / (c.min_think_time.get() + self.a[i]));
        }
        self.terms += self.n();
        debug_assert!(d_max <= 1.0 + 1e-12, "d_max = {d_max} must not exceed 1");
        d_max.min(1.0)
    }

    /// The shared per-core term: core `i`'s think time `z_i(D)` (Eq. 8)
    /// before its clamp at `z̄_i`, and its frequency scale `z̄_i / z_i`
    /// clamped at the top frequency.
    #[inline]
    fn term(&self, i: usize, d: f64) -> (f64, f64) {
        let z = self.t_bar[i] / d - self.a[i];
        // Within (0, d_max] we always have z >= z̄_i > 0; the min() is a
        // numerical guard at d == d_max exactly.
        (z, (self.cores[i].min_think_time.get() / z).min(1.0))
    }

    /// Core dynamic power at `d` (monotone increasing).
    fn power(&mut self, d: f64) -> f64 {
        let mut p = 0.0;
        for (i, c) in self.cores.iter().enumerate() {
            p += c.power.dynamic_power(self.term(i, d).1).get();
        }
        self.terms += self.n();
        p
    }

    /// Core dynamic power at `d` and its slope `dP/dD`, the sum of
    /// `α_i·p_i·T̄_i / (z_i·D²)` over the cores below top frequency.
    fn power_and_slope(&mut self, d: f64) -> (f64, f64) {
        let (mut p, mut slope) = (0.0, 0.0);
        for (i, c) in self.cores.iter().enumerate() {
            let (z, scale) = self.term(i, d);
            let p_i = c.power.dynamic_power(scale).get();
            p += p_i;
            if scale < 1.0 {
                slope += c.power.alpha * p_i * self.t_bar[i] / z;
            }
        }
        self.terms += self.n();
        (p, slope / (d * d))
    }

    /// Safeguarded Newton for the root of `P(D) = budget`, started at
    /// `d_max`, where `P` is over budget. `[lo, hi]` brackets the root, and
    /// a step that would leave it is replaced by a bisection step. Returns
    /// `None` when [`NEWTON_MAX_ITERS`] sums do not bring the step below
    /// `NEWTON_TOL` of `D`.
    fn newton_root(&mut self, d_max: f64, p: f64, slope: f64, budget: f64) -> Option<f64> {
        let (mut lo, mut hi) = (0.0, d_max);
        let (mut d, mut p, mut slope) = (d_max, p, slope);
        for step in 0..=NEWTON_MAX_ITERS {
            let mut next = d - (p - budget) / slope;
            if !(next > lo && next < hi) {
                next = 0.5 * (lo + hi);
            }
            if (next - d).abs() <= NEWTON_TOL * next {
                return Some(next);
            }
            if step == NEWTON_MAX_ITERS {
                break;
            }
            d = next;
            (p, slope) = self.power_and_slope(d);
            if p > budget {
                hi = d;
            } else {
                lo = d;
            }
        }
        None
    }

    /// Returns `(under, over)`: every `D <= under` is within the budget
    /// and every `D >= over` is over it. Each sits at Newton's root
    /// `·(1 ± CERT_OFFSET)` when a sum there confirms its side, and
    /// otherwise at the bracket end (`0` or `d_max`) that certifies no
    /// midpoint.
    fn certificates(&mut self, d_max: f64, p: f64, slope: f64, budget: f64) -> (f64, f64) {
        let (mut under, mut over) = (0.0, d_max);
        if let Some(root) = self.newton_root(d_max, p, slope, budget) {
            let up = root * (1.0 + CERT_OFFSET);
            if up < d_max && self.power(up) > budget {
                over = up;
            }
            let down = root * (1.0 - CERT_OFFSET);
            if self.power(down) <= budget {
                under = down;
            }
        }
        (under, over)
    }

    /// The per-core pass: think times, scales and predicted power at the
    /// root's `D`. An unbound root already holds its core power, summed at
    /// `d_max`, and the pass sums none. Otherwise the pass sums it,
    /// bit-equal to [`BusPoint::power`]'s. The root has counted the pass's
    /// `N` terms.
    fn solution(&self, root: Root, static_power: Watts) -> BusPointSolution {
        let n = self.cores.len();
        let budget_bound = root.unbound_power.is_none();
        let mut think_times = Vec::with_capacity(n);
        let mut core_scales = Vec::with_capacity(n);
        let mut p = 0.0;
        for (i, c) in self.cores.iter().enumerate() {
            let (z, scale) = self.term(i, root.degradation);
            if budget_bound {
                p += c.power.dynamic_power(scale).get();
            }
            let z = z.max(c.min_think_time.get());
            think_times.push(Secs(z));
            core_scales.push((c.min_think_time.get() / z).min(1.0));
        }
        BusPointSolution {
            degradation: root.degradation,
            think_times,
            core_scales,
            predicted_power: Watts(root.unbound_power.unwrap_or(p)) + root.mem_dyn + static_power,
            budget_bound,
            core_terms: root.core_terms,
        }
    }
}

/// Builds the ordered candidate `s_b` array from a memory frequency ladder:
/// `s_b(f) = s̄_b · f_max / f`, sorted ascending (fastest memory first).
pub fn bus_candidates(min_bus_transfer_time: Secs, mem_freqs: &[crate::units::Hz]) -> Vec<Secs> {
    let f_max = mem_freqs
        .iter()
        .cloned()
        .fold(crate::units::Hz(0.0), crate::units::Hz::max);
    let mut v: Vec<Secs> = mem_freqs
        .iter()
        .map(|&f| Secs(min_bus_transfer_time.get() * f_max.get() / f.get()))
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("transfer times are finite"));
    v
}

/// Algorithm 1: binary search over the ordered candidate array.
///
/// Exploits the convexity of the optimization: `D*(s_b)` is unimodal over
/// the sorted candidates, so comparing the midpoint with its neighbours
/// (`D⁻`, `D⁺` in the paper's notation) tells which half contains the
/// optimum. Infeasible candidates (memory power alone over budget) form a
/// prefix of the array, the fast-memory end where `s_b` is smallest, and
/// are treated as `D = -∞`.
///
/// # Errors
///
/// * [`Error::InvalidModel`] if the model fails validation or `candidates`
///   is empty or unsorted.
/// * [`Error::Infeasible`] if *no* candidate admits a solution.
pub fn algorithm1(model: &CapModel, candidates: &[Secs]) -> Result<Solution> {
    validate_candidates(model, candidates)?;
    let mut probe = Probe::new(model);
    // Memoize roots: the paper's loop re-touches neighbours. Only `D`
    // steers the search, so the per-core pass runs once, at the chosen
    // point.
    let mut roots: Vec<Option<Option<Root>>> = vec![None; candidates.len()];
    let mut memo = |probe: &mut Probe, idx: usize| {
        *roots[idx].get_or_insert_with(|| probe.root(candidates[idx]))
    };
    let d_of = |root: Option<Root>| root.map_or(f64::NEG_INFINITY, |r| r.degradation);

    let (mut l, mut r) = (0usize, candidates.len() - 1);
    let mut best_idx = None;
    while l != r {
        let m = (l + r) / 2;
        let dm = d_of(memo(&mut probe, m));
        let dp = if m < r {
            d_of(memo(&mut probe, m + 1))
        } else {
            f64::NEG_INFINITY
        };
        let dn = if m > l {
            d_of(memo(&mut probe, m - 1))
        } else {
            f64::NEG_INFINITY
        };
        if dm < dp {
            // Rising to the right: optimum is strictly beyond m.
            l = m + 1;
        } else if dn > dm {
            // Falling from the left: optimum is strictly before m.
            r = m.saturating_sub(1).max(l);
            if r == m {
                break;
            }
        } else {
            // Local (hence global, by unimodality) optimum.
            best_idx = Some(m);
            break;
        }
    }
    let idx = best_idx.unwrap_or(l);
    let (idx, root) = match memo(&mut probe, idx) {
        Some(root) => (idx, root),
        None => scan_feasible_suffix(&mut probe, candidates)
            .ok_or_else(|| infeasible_error(model, candidates))?,
    };
    let inner = probe.solution(candidates[idx], root);
    Ok(make_solution(
        model,
        candidates,
        idx,
        inner,
        probe.evaluated,
        probe.core_terms,
    ))
}

/// Algorithm 1's rare path, after its search lands on an infeasible point:
/// the feasible region (if any) is the high-`s_b` suffix. Scans down from
/// the slowest memory to the first feasible point, then ascends while `D`
/// improves. Every root is computed afresh and counted again.
fn scan_feasible_suffix(probe: &mut Probe, candidates: &[Secs]) -> Option<(usize, Root)> {
    for i in (0..candidates.len()).rev() {
        if let Some(root) = probe.root(candidates[i]) {
            let mut best = (i, root);
            for j in (0..i).rev() {
                match probe.root(candidates[j]) {
                    Some(next) if next.degradation > best.1.degradation => best = (j, next),
                    _ => break,
                }
            }
            return Some(best);
        }
    }
    None
}

/// Exhaustive reference solver: evaluates every candidate and returns the
/// best. `O(N·M)` — used to validate [`algorithm1`] and by baseline
/// policies that lack the unimodality insight.
///
/// # Errors
///
/// Same conditions as [`algorithm1`].
pub fn exhaustive(model: &CapModel, candidates: &[Secs]) -> Result<Solution> {
    validate_candidates(model, candidates)?;
    let mut best: Option<(usize, BusPointSolution)> = None;
    let mut evaluated = 0usize;
    let mut terms_total = 0u64;
    for (i, &sb) in candidates.iter().enumerate() {
        evaluated += 1;
        if let Some(sol) = solve_for_bus_time(model, sb)? {
            terms_total += sol.core_terms;
            let better = best
                .as_ref()
                .is_none_or(|(_, b)| sol.degradation > b.degradation);
            if better {
                best = Some((i, sol));
            }
        }
    }
    match best {
        Some((idx, inner)) => Ok(make_solution(
            model,
            candidates,
            idx,
            inner,
            evaluated,
            terms_total,
        )),
        None => Err(infeasible_error(model, candidates)),
    }
}

/// Evaluates a *fixed* operating point: per-core frequency scaling factors
/// and one bus transfer time. Returns `(D, predicted_power)` where `D` is
/// the worst-core performance ratio (Eq. 5 with the given scales) and the
/// power follows Eq. 6's left-hand side.
///
/// Baseline policies (Eql-Pwr, Eql-Freq, MaxBIPS) search configuration
/// grids and need exactly this evaluation; FastCap itself never calls it.
///
/// # Errors
///
/// Returns [`Error::InvalidModel`] for a malformed model, a scale vector of
/// the wrong length, or scales outside `(0, 1]`.
pub fn evaluate_point(model: &CapModel, core_scales: &[f64], s_b: Secs) -> Result<(f64, Watts)> {
    model.validate()?;
    if core_scales.len() != model.n_cores() {
        return Err(Error::InvalidModel {
            why: format!("{} scales for {} cores", core_scales.len(), model.n_cores()),
        });
    }
    let sb_bar = model.memory.min_bus_transfer_time;
    let bus_scale = sb_bar / s_b;
    let mut power = model.memory.power.dynamic_power(bus_scale) + model.static_power;
    let mut d = f64::INFINITY;
    for (i, (c, &scale)) in model.cores.iter().zip(core_scales).enumerate() {
        if !(scale > 0.0 && scale <= 1.0 + 1e-12) {
            return Err(Error::InvalidModel {
                why: format!("core {i}: scale {scale} outside (0, 1]"),
            });
        }
        let r_bar = model.memory.response.response_time(i, sb_bar);
        let r = model.memory.response.response_time(i, s_b);
        let t_bar = (c.min_think_time + c.cache_time + r_bar).get();
        let z = c.min_think_time.get() / scale;
        let t = z + c.cache_time.get() + r.get();
        d = d.min(t_bar / t);
        power += c.power.dynamic_power(scale);
    }
    Ok((d, power))
}

fn make_solution(
    model: &CapModel,
    candidates: &[Secs],
    idx: usize,
    inner: BusPointSolution,
    points_evaluated: usize,
    core_terms: u64,
) -> Solution {
    Solution {
        bus_index: idx,
        bus_transfer_time: candidates[idx],
        bus_scale: model.memory.min_bus_transfer_time / candidates[idx],
        inner,
        points_evaluated,
        core_terms,
    }
}

fn infeasible_error(model: &CapModel, candidates: &[Secs]) -> Error {
    // Floor: static power plus the memory's smallest dynamic power (at the
    // largest s_b candidate). Core dynamic power can approach zero in the
    // continuous relaxation.
    let slowest = candidates
        .last()
        .copied()
        .unwrap_or(model.memory.min_bus_transfer_time);
    let mem_min = model
        .memory
        .power
        .dynamic_power(model.memory.min_bus_transfer_time / slowest);
    Error::Infeasible {
        floor_watts: (model.static_power + mem_min).get(),
        budget_watts: model.budget.get(),
    }
}

fn validate_candidates(model: &CapModel, candidates: &[Secs]) -> Result<()> {
    model.validate()?;
    if candidates.is_empty() {
        return Err(Error::InvalidModel {
            why: "candidate s_b array is empty".into(),
        });
    }
    for w in candidates.windows(2) {
        // partial_cmp so an unordered (NaN) pair is also rejected.
        if w[1].partial_cmp(&w[0]).is_none_or(|o| o.is_lt()) {
            return Err(Error::InvalidModel {
                why: "candidate s_b array must be sorted ascending".into(),
            });
        }
    }
    if candidates[0] < model.memory.min_bus_transfer_time {
        return Err(Error::InvalidModel {
            why: "candidates include s_b below the minimum bus transfer time".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CoreModel, MemoryModel, ResponseModel};
    use crate::power::PowerLaw;
    use crate::queueing::ResponseTimeModel;
    use crate::units::Hz;

    fn core(z_ns: f64, p_max: f64, alpha: f64) -> CoreModel {
        CoreModel {
            min_think_time: Secs::from_nanos(z_ns),
            cache_time: Secs::from_nanos(7.5),
            power: PowerLaw::new(Watts(p_max), alpha).unwrap(),
        }
    }

    fn model_16(budget: f64) -> CapModel {
        // 16 cores, half CPU-bound (long think), half memory-bound.
        let mut cores = Vec::new();
        for i in 0..16 {
            let z = if i % 2 == 0 { 400.0 } else { 15.0 };
            cores.push(core(z, 3.5, 2.5));
        }
        CapModel {
            cores,
            memory: MemoryModel {
                min_bus_transfer_time: Secs::from_nanos(5.0),
                response: ResponseModel::Single(
                    ResponseTimeModel::new(1.6, 1.3, Secs::from_nanos(30.0)).unwrap(),
                ),
                power: PowerLaw::new(Watts(24.0), 1.0).unwrap(),
            },
            static_power: Watts(38.0),
            budget: Watts(budget),
        }
    }

    fn ispass_candidates(model: &CapModel) -> Vec<Secs> {
        bus_candidates(
            model.memory.min_bus_transfer_time,
            crate::freq::FreqLadder::ispass_memory_bus().levels(),
        )
    }

    #[test]
    fn bus_candidates_are_sorted_and_anchored() {
        let ladder = crate::freq::FreqLadder::ispass_memory_bus();
        let c = bus_candidates(Secs::from_nanos(5.0), ladder.levels());
        assert_eq!(c.len(), 10);
        assert!((c[0].nanos() - 5.0).abs() < 1e-9, "fastest = s̄_b");
        assert!((c[9].nanos() - 20.0).abs() < 1e-9, "slowest = 4x (800/200)");
        for w in c.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn inner_solution_saturates_budget_when_binding() {
        let m = model_16(72.0); // 60% of 120 W
        let cands = ispass_candidates(&m);
        let sol = solve_for_bus_time(&m, cands[0]).unwrap().unwrap();
        assert!(sol.budget_bound);
        assert!(
            (sol.predicted_power.get() - 72.0).abs() < 1e-6,
            "Theorem 1: power equality must bind, got {}",
            sol.predicted_power
        );
        assert!(sol.degradation > 0.0 && sol.degradation <= 1.0);
    }

    #[test]
    fn inner_solution_caps_at_dmax_when_budget_loose() {
        let m = model_16(1000.0);
        let cands = ispass_candidates(&m);
        let sol = solve_for_bus_time(&m, cands[0]).unwrap().unwrap();
        assert!(!sol.budget_bound);
        // At s_b = s̄_b and a loose budget, everything runs at max frequency.
        assert!((sol.degradation - 1.0).abs() < 1e-9);
        for s in &sol.core_scales {
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(sol.predicted_power < m.budget);
    }

    #[test]
    fn fairness_all_cores_share_the_same_ratio() {
        // Theorem 1: constraint 5 binds for every core — verify that
        // (z_i + c_i + R)/T̄_i is the same 1/D for all cores.
        let m = model_16(72.0);
        let cands = ispass_candidates(&m);
        let sb = cands[3];
        let sol = solve_for_bus_time(&m, sb).unwrap().unwrap();
        let sb_bar = m.memory.min_bus_transfer_time;
        for (i, c) in m.cores.iter().enumerate() {
            let r_bar = m.memory.response.response_time(i, sb_bar);
            let r = m.memory.response.response_time(i, sb);
            let t_bar = (c.min_think_time + c.cache_time + r_bar).get();
            let t = (sol.think_times[i] + c.cache_time + r).get();
            let ratio = t / t_bar;
            assert!(
                (ratio - 1.0 / sol.degradation).abs() / ratio < 1e-6,
                "core {i}: ratio {ratio} vs 1/D {}",
                1.0 / sol.degradation
            );
        }
    }

    #[test]
    fn think_times_never_below_minimum() {
        let m = model_16(72.0);
        for &sb in &ispass_candidates(&m) {
            if let Some(sol) = solve_for_bus_time(&m, sb).unwrap() {
                for (i, c) in m.cores.iter().enumerate() {
                    assert!(
                        sol.think_times[i].get() >= c.min_think_time.get() * (1.0 - 1e-9),
                        "z_{i} below z̄_{i} at s_b={sb}"
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_bus_point_returns_none() {
        let mut m = model_16(72.0);
        // Memory power alone (24 W at max frequency) + static 71 W > 72 W.
        m.static_power = Watts(71.0);
        let cands = ispass_candidates(&m);
        assert!(solve_for_bus_time(&m, cands[0]).unwrap().is_none());
        // At the slowest memory point the dynamic memory power is
        // 24 W * 0.25 = 6 W; with 65 W static the dynamic budget is 7 W,
        // so that point becomes feasible again.
        m.static_power = Watts(65.0);
        assert!(solve_for_bus_time(&m, cands[9]).unwrap().is_some());
    }

    #[test]
    fn rejects_sb_below_minimum() {
        let m = model_16(72.0);
        assert!(solve_for_bus_time(&m, Secs::from_nanos(1.0)).is_err());
    }

    #[test]
    fn algorithm1_matches_exhaustive_on_many_shapes() {
        for budget in [50.0, 60.0, 72.0, 90.0, 118.0, 400.0] {
            let m = model_16(budget);
            let cands = ispass_candidates(&m);
            let a = algorithm1(&m, &cands).unwrap();
            let e = exhaustive(&m, &cands).unwrap();
            assert!(
                (a.degradation() - e.degradation()).abs() < 1e-9,
                "budget {budget}: alg1 D={} vs exhaustive D={}",
                a.degradation(),
                e.degradation()
            );
        }
    }

    #[test]
    fn algorithm1_evaluates_fewer_points_than_exhaustive() {
        let m = model_16(72.0);
        let cands = ispass_candidates(&m);
        let a = algorithm1(&m, &cands).unwrap();
        // log2(10) ≈ 3.3 midpoints, each touching ≤ 3 candidates.
        assert!(
            a.points_evaluated <= cands.len(),
            "evaluated {} of {}",
            a.points_evaluated,
            cands.len()
        );
    }

    #[test]
    fn memory_bound_workload_prefers_fast_memory() {
        // All cores memory-bound: tiny think times. Optimal bus point should
        // be at (or near) the fastest memory frequency.
        let mut m = model_16(90.0);
        for c in &mut m.cores {
            c.min_think_time = Secs::from_nanos(10.0);
        }
        let cands = ispass_candidates(&m);
        let sol = algorithm1(&m, &cands).unwrap();
        assert!(
            sol.bus_index <= 2,
            "memory-bound should pick fast memory, got index {}",
            sol.bus_index
        );
    }

    #[test]
    fn cpu_bound_workload_slows_memory_down() {
        // All cores CPU-bound under a tight budget: memory power is better
        // spent on cores.
        let mut m = model_16(65.0);
        for c in &mut m.cores {
            c.min_think_time = Secs::from_nanos(2000.0);
        }
        let cands = ispass_candidates(&m);
        let sol = algorithm1(&m, &cands).unwrap();
        assert!(
            sol.bus_index >= 5,
            "CPU-bound under pressure should slow memory, got index {}",
            sol.bus_index
        );
    }

    #[test]
    fn infeasible_model_errors_with_floor() {
        let mut m = model_16(40.0);
        m.static_power = Watts(39.5); // + min memory dyn (6 W) > 40 W
        let cands = ispass_candidates(&m);
        match algorithm1(&m, &cands) {
            Err(Error::Infeasible {
                floor_watts,
                budget_watts,
            }) => {
                assert!(floor_watts > budget_watts);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        assert!(matches!(
            exhaustive(&m, &cands),
            Err(Error::Infeasible { .. })
        ));
    }

    #[test]
    fn candidate_validation() {
        let m = model_16(72.0);
        assert!(algorithm1(&m, &[]).is_err());
        // Unsorted.
        assert!(algorithm1(&m, &[Secs(10e-9), Secs(5e-9)]).is_err());
        // Below s̄_b.
        assert!(algorithm1(&m, &[Secs(1e-9), Secs(10e-9)]).is_err());
    }

    #[test]
    fn single_candidate_works() {
        let m = model_16(72.0);
        let sol = algorithm1(&m, &[Secs::from_nanos(5.0)]).unwrap();
        assert_eq!(sol.bus_index, 0);
        assert!(sol.degradation() > 0.0);
    }

    #[test]
    fn tighter_budget_degrades_more() {
        let cands = ispass_candidates(&model_16(1.0));
        let mut prev_d = 0.0;
        for budget in [55.0, 65.0, 75.0, 90.0, 110.0] {
            let m = model_16(budget);
            let d = algorithm1(&m, &cands).unwrap().degradation();
            assert!(
                d >= prev_d - 1e-9,
                "D must be non-decreasing in budget: {d} after {prev_d}"
            );
            prev_d = d;
        }
    }

    #[test]
    fn heterogeneous_alphas_are_respected() {
        // Cores with cheaper power curves (higher alpha at low scale) should
        // still all meet the same fairness ratio.
        let mut m = model_16(70.0);
        for (i, c) in m.cores.iter_mut().enumerate() {
            c.power = PowerLaw::new(Watts(3.5), 1.5 + (i % 4) as f64 * 0.5).unwrap();
        }
        let cands = ispass_candidates(&m);
        let sol = algorithm1(&m, &cands).unwrap();
        assert!((sol.inner.predicted_power.get() - 70.0).abs() < 1e-5);
    }

    #[test]
    fn multi_controller_model_solves() {
        use crate::queueing::MultiControllerModel;
        let mut m = model_16(72.0);
        let fast = ResponseTimeModel::new(1.2, 1.1, Secs::from_nanos(25.0)).unwrap();
        let slow = ResponseTimeModel::new(2.5, 1.8, Secs::from_nanos(40.0)).unwrap();
        // Skewed: even cores mostly hit the fast controller.
        let weights: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0.8, 0.2]
                } else {
                    vec![0.2, 0.8]
                }
            })
            .collect();
        m.memory.response =
            ResponseModel::Multi(MultiControllerModel::new(vec![fast, slow], weights).unwrap());
        let cands = ispass_candidates(&m);
        let a = algorithm1(&m, &cands).unwrap();
        let e = exhaustive(&m, &cands).unwrap();
        assert!((a.degradation() - e.degradation()).abs() < 1e-9);
        assert!((a.inner.predicted_power.get() - 72.0).abs() < 1e-5);
    }

    #[test]
    fn core_terms_are_deterministic() {
        let m = model_16(72.0);
        let cands = ispass_candidates(&m);
        let a = algorithm1(&m, &cands).unwrap();
        let b = algorithm1(&m, &cands).unwrap();
        assert!(a.core_terms > 0, "a non-trivial solve must count terms");
        assert_eq!(a.core_terms, b.core_terms, "counts must be repeatable");
    }

    #[test]
    fn mem_freq_hz_round_trip() {
        // bus_scale must equal f_selected / f_max for ladder-derived
        // candidates.
        let ladder = crate::freq::FreqLadder::ispass_memory_bus();
        let m = model_16(72.0);
        let cands = bus_candidates(m.memory.min_bus_transfer_time, ladder.levels());
        let sol = algorithm1(&m, &cands).unwrap();
        let implied_freq = Hz(ladder.max().get() * sol.bus_scale);
        let idx = ladder.nearest(implied_freq);
        assert!((ladder.at(idx).get() - implied_freq.get()).abs() < 1.0);
    }
}
