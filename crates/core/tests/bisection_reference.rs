//! Reference twin for `solve_for_bus_time`: the plain bisection that sums
//! the core power at every midpoint, kept here as a test oracle for the
//! solver that lets a Newton root settle the midpoints outside two
//! certificates. The two must return the same bits: `D`, every think time
//! and scale, the predicted power and `budget_bound`. Only the counted
//! work may differ, and by at most the Newton sums plus the two
//! certificates per bus point.
//!
//! Besides random budgets, every budget-bound point is replayed with its
//! budget set to the reference's own sum at one of its last midpoints.
//! There the comparison is a tie, which only an exact sum settles the way
//! the reference does, so a solver that compared midpoints with its Newton
//! root instead would fail within a few models.
//!
//! The same models check `algorithm1`, which probes bus points by their
//! root alone and runs the per-core pass once, at the chosen point,
//! against `reference_algorithm1`, which memoizes full
//! `solve_for_bus_time` results. The two must return the same bits, the
//! same counts and the same errors, also where the search lands on an
//! infeasible point and scans the feasible suffix.

use fastcap_core::error::{Error, Result};
use fastcap_core::freq::FreqLadder;
use fastcap_core::model::{CapModel, CoreModel, MemoryModel, ResponseModel};
use fastcap_core::optimizer::{
    algorithm1, bus_candidates, solve_for_bus_time, BusPointSolution, Solution, NEWTON_MAX_ITERS,
};
use fastcap_core::power::{ExponentBounds, PowerLaw};
use fastcap_core::queueing::{MultiControllerModel, ResponseTimeModel};
use fastcap_core::units::{Secs, Watts};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// The reference solve and the midpoints its bisection visited.
struct Reference {
    sol: Option<BusPointSolution>,
    midpoints: Vec<f64>,
}

/// The bisection `solve_for_bus_time` ran before the Newton replay: a full
/// sum at every midpoint, counted the same way.
fn reference_solve(model: &CapModel, s_b: Secs) -> Reference {
    let none = Reference {
        sol: None,
        midpoints: Vec::new(),
    };
    let sb_bar = model.memory.min_bus_transfer_time;
    let n = model.n_cores();
    let bus_scale = sb_bar / s_b;
    let mem_dyn = model.memory.power.dynamic_power(bus_scale);
    let dyn_budget = model.dynamic_budget();
    if mem_dyn.get() >= dyn_budget.get() {
        return none;
    }
    let core_budget = dyn_budget - mem_dyn;
    let mut terms = 0u64;

    let mut t_bar = Vec::with_capacity(n);
    let mut a = Vec::with_capacity(n);
    for (i, c) in model.cores.iter().enumerate() {
        let r_bar = model.memory.response.response_time(i, sb_bar);
        let r = model.memory.response.response_time(i, s_b);
        t_bar.push(c.min_think_time + c.cache_time + r_bar);
        a.push(c.cache_time + r);
    }
    terms += n as u64;
    let mut d_max = f64::INFINITY;
    for (i, c) in model.cores.iter().enumerate() {
        d_max = d_max.min(t_bar[i].get() / (c.min_think_time + a[i]).get());
    }
    terms += n as u64;
    d_max = d_max.min(1.0);

    let mut core_power_at = |d: f64| -> f64 {
        let mut p = 0.0;
        for (i, c) in model.cores.iter().enumerate() {
            let z = t_bar[i].get() / d - a[i].get();
            let scale = (c.min_think_time.get() / z).min(1.0);
            p += c.power.dynamic_power(scale).get();
        }
        terms += n as u64;
        p
    };
    let think_times_at = |d: f64| -> (Vec<Secs>, Vec<f64>) {
        let mut zs = Vec::with_capacity(n);
        let mut scales = Vec::with_capacity(n);
        for (i, c) in model.cores.iter().enumerate() {
            let z = (t_bar[i].get() / d - a[i].get()).max(c.min_think_time.get());
            zs.push(Secs(z));
            scales.push((c.min_think_time.get() / z).min(1.0));
        }
        (zs, scales)
    };

    let mut midpoints = Vec::new();
    let (d, budget_bound) = if core_power_at(d_max) <= core_budget.get() {
        (d_max, false)
    } else {
        let mut lo = d_max * 1e-9;
        let mut hi = d_max;
        let mut iters = 0;
        while (hi - lo) > 1e-10 * d_max && iters < 200 {
            let mid = 0.5 * (lo + hi);
            midpoints.push(mid);
            if core_power_at(mid) > core_budget.get() {
                hi = mid;
            } else {
                lo = mid;
            }
            iters += 1;
        }
        (0.5 * (lo + hi), true)
    };
    let (think_times, core_scales) = think_times_at(d);
    let predicted = Watts(core_power_at(d)) + mem_dyn + model.static_power;
    // The think-time pass counts once, after the final power sum.
    let core_terms = terms + n as u64;
    Reference {
        sol: Some(BusPointSolution {
            degradation: d,
            think_times,
            core_scales,
            predicted_power: predicted,
            budget_bound,
            core_terms,
        }),
        midpoints,
    }
}

/// The reference's core power sum at `d` for the bus point `s_b`.
fn reference_power(model: &CapModel, s_b: Secs, d: f64) -> f64 {
    let sb_bar = model.memory.min_bus_transfer_time;
    let mut p = 0.0;
    for (i, c) in model.cores.iter().enumerate() {
        let r_bar = model.memory.response.response_time(i, sb_bar);
        let r = model.memory.response.response_time(i, s_b);
        let t_bar = c.min_think_time + c.cache_time + r_bar;
        let a = c.cache_time + r;
        let z = t_bar.get() / d - a.get();
        p += c
            .power
            .dynamic_power((c.min_think_time.get() / z).min(1.0))
            .get();
    }
    p
}

/// Samples `lo..hi` log-uniformly.
fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

fn random_core(rng: &mut SmallRng) -> CoreModel {
    let alpha = ExponentBounds::CORE;
    CoreModel {
        min_think_time: Secs::from_nanos(log_uniform(rng, 2.0, 4000.0)),
        cache_time: Secs::from_nanos(rng.gen_range(0.0..15.0)),
        power: PowerLaw::new(
            Watts(rng.gen_range(0.2..8.0)),
            rng.gen_range(alpha.lo..=alpha.hi),
        )
        .expect("valid law"),
    }
}

fn random_response(rng: &mut SmallRng) -> ResponseTimeModel {
    ResponseTimeModel::new(
        rng.gen_range(1.0..3.0),
        rng.gen_range(1.0..2.5),
        Secs::from_nanos(rng.gen_range(10.0..60.0)),
    )
    .expect("valid response model")
}

/// A random instance: 1 to 300 cores, identical or heterogeneous, one or
/// several memory controllers, and a budget anywhere from barely above the
/// slowest memory's floor to above peak power.
fn random_model(seed: u64) -> CapModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = match rng.gen_range(0..10) {
        0..=3 => rng.gen_range(1..=4),
        4..=7 => rng.gen_range(5..=64),
        _ => rng.gen_range(65..=300),
    };
    let cores: Vec<CoreModel> = if rng.gen_bool(0.25) {
        vec![random_core(&mut rng); n]
    } else {
        (0..n).map(|_| random_core(&mut rng)).collect()
    };
    let response = if rng.gen_bool(0.5) {
        ResponseModel::Single(random_response(&mut rng))
    } else {
        let k = rng.gen_range(2..=4);
        let controllers = (0..k).map(|_| random_response(&mut rng)).collect();
        let weights = (0..n)
            .map(|_| {
                let raw: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..1.0) + 1e-3).collect();
                let sum: f64 = raw.iter().sum();
                raw.iter().map(|w| w / sum).collect()
            })
            .collect();
        ResponseModel::Multi(MultiControllerModel::new(controllers, weights).expect("valid"))
    };
    let beta = ExponentBounds::MEMORY;
    let memory = MemoryModel {
        min_bus_transfer_time: Secs::from_nanos(5.0),
        response,
        power: PowerLaw::new(
            Watts(rng.gen_range(1.0..40.0)),
            rng.gen_range(beta.lo..=beta.hi),
        )
        .expect("valid law"),
    };
    let static_power = rng.gen_range(0.0..30.0);
    // The slowest memory point (a quarter of the fastest frequency) sets
    // the feasibility floor; the budget spans from just above it to loose.
    let floor = static_power + memory.power.dynamic_power(0.25).get();
    let peak: f64 = cores.iter().map(|c| c.power.p_max.get()).sum::<f64>()
        + memory.power.p_max.get()
        + static_power;
    // Half the budgets spread evenly up to loose, half crowd the floor,
    // where Newton from d_max has the farthest to go.
    let headroom = if rng.gen_bool(0.5) {
        rng.gen_range(0.0..1.5)
    } else {
        log_uniform(&mut rng, 1e-6, 1.5)
    };
    let budget = floor + headroom * (peak - floor);
    CapModel {
        cores,
        memory,
        static_power: Watts(static_power),
        budget: Watts(budget),
    }
}

/// `model` with its budget moved so that the core budget at `s_b` is
/// exactly `target`, or `None` if no nearby budget rounds to it.
fn with_core_budget(model: &CapModel, s_b: Secs, target: f64) -> Option<CapModel> {
    let mem_dyn = model
        .memory
        .power
        .dynamic_power(model.memory.min_bus_transfer_time / s_b);
    let core_budget = |b: f64| ((Watts(b) - model.static_power) - mem_dyn).get();
    let mut b = target + mem_dyn.get() + model.static_power.get();
    for _ in 0..8 {
        let got = core_budget(b);
        if got == target {
            let mut m = model.clone();
            m.budget = Watts(b);
            return Some(m);
        }
        b = if got < target {
            b.next_up()
        } else {
            b.next_down()
        };
    }
    None
}

#[derive(Default)]
struct Stats {
    feasible: u64,
    budget_bound: u64,
    ties: u64,
    /// Sums of `core_terms / N` over the budget-bound points.
    evals: u64,
    reference_evals: u64,
    worst_evals: u64,
    /// `algorithm1` comparisons, and how many of them scanned the feasible
    /// suffix or found no feasible point.
    searches: u64,
    scans: u64,
    infeasible: u64,
}

thread_local! {
    static STATS: RefCell<Stats> = RefCell::new(Stats::default());
}

fn assert_bit_equal(got: &BusPointSolution, want: &BusPointSolution, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let secs = |v: &[Secs]| v.iter().map(|x| x.get().to_bits()).collect::<Vec<_>>();
    assert_eq!(
        got.degradation.to_bits(),
        want.degradation.to_bits(),
        "{what}: D {} vs {}",
        got.degradation,
        want.degradation
    );
    assert_eq!(got.budget_bound, want.budget_bound, "{what}: budget_bound");
    assert_eq!(
        got.predicted_power.get().to_bits(),
        want.predicted_power.get().to_bits(),
        "{what}: predicted power {} vs {}",
        got.predicted_power,
        want.predicted_power
    );
    assert_eq!(
        secs(&got.think_times),
        secs(&want.think_times),
        "{what}: think times"
    );
    assert_eq!(
        bits(&got.core_scales),
        bits(&want.core_scales),
        "{what}: scales"
    );
}

/// Compares one bus point and returns the reference's midpoints.
fn check_point(model: &CapModel, s_b: Secs, what: &str, tie: bool) -> Vec<f64> {
    let want = reference_solve(model, s_b);
    let got = solve_for_bus_time(model, s_b).expect("valid model");
    let (got, want_sol) = match (got, &want.sol) {
        (None, None) => return Vec::new(),
        (Some(g), Some(w)) => (g, w),
        (g, w) => panic!("{what}: feasibility differs: {g:?} vs {w:?}"),
    };
    assert_bit_equal(&got, want_sol, what);
    let n = model.n_cores() as u64;
    let slack = (NEWTON_MAX_ITERS as u64 + 2) * n;
    assert!(
        got.core_terms <= want_sol.core_terms + slack,
        "{what}: {} terms against the reference's {} (N = {n})",
        got.core_terms,
        want_sol.core_terms
    );
    STATS.with(|s| {
        let mut s = s.borrow_mut();
        s.feasible += 1;
        s.ties += u64::from(tie);
        if got.budget_bound && !tie {
            s.budget_bound += 1;
            s.evals += got.core_terms / n;
            s.reference_evals += want_sol.core_terms / n;
            s.worst_evals = s.worst_evals.max(got.core_terms / n);
        }
    });
    want.midpoints
}

/// The `algorithm1` that memoized full `solve_for_bus_time` results: it
/// clones a whole solution out of its memo at every probe, validates the
/// model at every solve, and its scan after an infeasible landing solves
/// every point in full.
fn reference_algorithm1(model: &CapModel, candidates: &[Secs]) -> Result<Solution> {
    reference_validate_candidates(model, candidates)?;
    let mut evaluated = 0usize;
    let mut terms_total = 0u64;
    let mut cache: Vec<Option<Option<BusPointSolution>>> = vec![None; candidates.len()];
    let eval = |idx: usize,
                cache: &mut Vec<Option<Option<BusPointSolution>>>,
                evaluated: &mut usize,
                terms: &mut u64|
     -> Result<Option<BusPointSolution>> {
        if cache[idx].is_none() {
            *evaluated += 1;
            let sol = solve_for_bus_time(model, candidates[idx])?;
            if let Some(s) = &sol {
                *terms += s.core_terms;
            }
            cache[idx] = Some(sol);
        }
        Ok(cache[idx].clone().expect("just filled"))
    };
    let d_of =
        |sol: &Option<BusPointSolution>| sol.as_ref().map_or(f64::NEG_INFINITY, |s| s.degradation);

    let (mut l, mut r) = (0usize, candidates.len() - 1);
    let mut best_idx = None;
    while l != r {
        let m = (l + r) / 2;
        let dm = d_of(&eval(m, &mut cache, &mut evaluated, &mut terms_total)?);
        let dp = if m < r {
            d_of(&eval(m + 1, &mut cache, &mut evaluated, &mut terms_total)?)
        } else {
            f64::NEG_INFINITY
        };
        let dn = if m > l {
            d_of(&eval(m - 1, &mut cache, &mut evaluated, &mut terms_total)?)
        } else {
            f64::NEG_INFINITY
        };
        if dm < dp {
            l = m + 1;
        } else if dn > dm {
            r = m.saturating_sub(1).max(l);
            if r == m {
                break;
            }
        } else {
            best_idx = Some(m);
            break;
        }
    }
    let idx = best_idx.unwrap_or(l);
    let make = |idx: usize, inner, points_evaluated, core_terms| Solution {
        bus_index: idx,
        bus_transfer_time: candidates[idx],
        bus_scale: model.memory.min_bus_transfer_time / candidates[idx],
        inner,
        points_evaluated,
        core_terms,
    };
    if let Some(inner) = eval(idx, &mut cache, &mut evaluated, &mut terms_total)? {
        return Ok(make(idx, inner, evaluated, terms_total));
    }
    STATS.with(|s| s.borrow_mut().scans += 1);
    for (i, &sb) in candidates.iter().enumerate().rev() {
        evaluated += 1;
        if let Some(inner) = solve_for_bus_time(model, sb)? {
            terms_total += inner.core_terms;
            let mut best = (i, inner);
            let mut j = i;
            while j > 0 {
                j -= 1;
                evaluated += 1;
                let next = solve_for_bus_time(model, candidates[j])?;
                if let Some(s) = &next {
                    terms_total += s.core_terms;
                }
                match next {
                    Some(s) if s.degradation > best.1.degradation => best = (j, s),
                    _ => break,
                }
            }
            return Ok(make(best.0, best.1, evaluated, terms_total));
        }
    }
    let slowest = candidates[candidates.len() - 1];
    let mem_min = model
        .memory
        .power
        .dynamic_power(model.memory.min_bus_transfer_time / slowest);
    Err(Error::Infeasible {
        floor_watts: (model.static_power + mem_min).get(),
        budget_watts: model.budget.get(),
    })
}

fn reference_validate_candidates(model: &CapModel, candidates: &[Secs]) -> Result<()> {
    model.validate()?;
    let invalid = |why: &str| Err(Error::InvalidModel { why: why.into() });
    if candidates.is_empty() {
        return invalid("candidate s_b array is empty");
    }
    if candidates
        .windows(2)
        .any(|w| w[1].partial_cmp(&w[0]).is_none_or(|o| o.is_lt()))
    {
        return invalid("candidate s_b array must be sorted ascending");
    }
    if candidates[0] < model.memory.min_bus_transfer_time {
        return invalid("candidates include s_b below the minimum bus transfer time");
    }
    Ok(())
}

/// Compares `algorithm1` with the reference on one model: every field as
/// raw bits, every count, or the same error.
fn check_algorithm1(model: &CapModel, candidates: &[Secs], what: &str) {
    let got = algorithm1(model, candidates);
    let want = reference_algorithm1(model, candidates);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.bus_index, w.bus_index, "{what}: bus index");
            assert_eq!(
                g.bus_transfer_time.get().to_bits(),
                w.bus_transfer_time.get().to_bits(),
                "{what}: bus transfer time"
            );
            assert_eq!(
                g.bus_scale.to_bits(),
                w.bus_scale.to_bits(),
                "{what}: bus scale"
            );
            assert_bit_equal(&g.inner, &w.inner, what);
            assert_eq!(
                g.inner.core_terms, w.inner.core_terms,
                "{what}: inner terms"
            );
            assert_eq!(g.points_evaluated, w.points_evaluated, "{what}: points");
            assert_eq!(g.core_terms, w.core_terms, "{what}: terms");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: errors"),
        _ => panic!("{what}: {got:?} against the reference's {want:?}"),
    }
    STATS.with(|s| {
        let mut s = s.borrow_mut();
        s.searches += 1;
        s.infeasible += u64::from(matches!(want, Err(Error::Infeasible { .. })));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    fn newton_replay_case(seed in any::<u64>()) {
        let model = random_model(seed);
        let cands = bus_candidates(
            model.memory.min_bus_transfer_time,
            FreqLadder::ispass_memory_bus().levels(),
        );
        for (k, &s_b) in cands.iter().enumerate() {
            let what = format!("seed {seed} candidate {k}");
            let midpoints = check_point(&model, s_b, &what, false);
            // Tie the budget to the sum at one of the last midpoints.
            if let Some(&m) = midpoints.iter().rev().nth((seed % 4) as usize) {
                let target = reference_power(&model, s_b, m);
                if let Some(tied) = with_core_budget(&model, s_b, target) {
                    check_point(&tied, s_b, &format!("{what}, budget tied at D = {m}"), true);
                }
            }
        }
    }

    fn root_memo_case(seed in any::<u64>()) {
        let model = random_model(seed);
        let cands = bus_candidates(
            model.memory.min_bus_transfer_time,
            FreqLadder::ispass_memory_bus().levels(),
        );
        check_algorithm1(&model, &cands, &format!("seed {seed}"));
        // Half the slowest memory's floor: no point is feasible.
        let floor = model.static_power
            + model
                .memory
                .power
                .dynamic_power(model.memory.min_bus_transfer_time / cands[cands.len() - 1]);
        let mut starved = model.clone();
        starved.budget = Watts(0.5 * floor.get());
        check_algorithm1(&starved, &cands, &format!("seed {seed}, half the floor"));
    }
}

#[test]
fn root_memo_matches_the_solution_memo_bit_for_bit() {
    // Malformed inputs fail with the same error.
    let model = random_model(0);
    let cands = bus_candidates(
        model.memory.min_bus_transfer_time,
        FreqLadder::ispass_memory_bus().levels(),
    );
    let mut coreless = model.clone();
    coreless.cores.clear();
    for (m, c) in [
        (&model, &[][..]),
        (&model, &[cands[1], cands[0]][..]),
        (&model, &[Secs::from_nanos(1.0)][..]),
        (&coreless, &cands[..]),
    ] {
        check_algorithm1(m, c, &format!("malformed: {c:?}, {} cores", m.n_cores()));
    }
    root_memo_case();
    let s = STATS.with(|s| std::mem::take(&mut *s.borrow_mut()));
    eprintln!(
        "{} searches; {} landed on an infeasible point and scanned the suffix, \
         {} of them finding no feasible point",
        s.searches, s.scans, s.infeasible
    );
    assert!(
        s.scans - s.infeasible >= 300 && s.infeasible >= 1000,
        "too few scans or infeasible models exercised"
    );
}

#[test]
fn newton_replay_matches_the_bisection_bit_for_bit() {
    newton_replay_case();
    let s = STATS.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let mean = s.evals as f64 / s.budget_bound.max(1) as f64;
    let reference = s.reference_evals as f64 / s.budget_bound.max(1) as f64;
    eprintln!(
        "{} feasible bus points, {} budget-bound, {} tied; N-core sums per \
         budget-bound point: mean {mean:.1} (reference {reference:.1}), worst {}",
        s.feasible, s.budget_bound, s.ties, s.worst_evals
    );
    assert!(
        s.budget_bound >= 1000 && s.ties >= 1000,
        "too few points exercised"
    );
    assert!(
        mean < 0.7 * reference,
        "Newton should save most sums: {mean:.1} against {reference:.1}"
    );
}
