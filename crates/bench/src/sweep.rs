//! The sweep execution engine: every experiment runner declares its
//! (mix × budget × policy × config) grid as a list of independent
//! [`SweepPoint`]s, and the engine shards them across worker threads
//! (`--jobs`, default: available parallelism) with a deterministic
//! reduce contract. See DESIGN.md §5.
//!
//! Two properties make parallel and serial runs emit bit-identical
//! artifacts:
//!
//! * **Index-ordered results.** [`Sweep::run`] always returns point
//!   results ordered by insertion index (the shim's `par_map_indexed`
//!   guarantee), never by completion order — so every downstream reduce
//!   step sees the same sequence regardless of `--jobs`.
//! * **Per-point seeding.** Each point draws its RNG seed from
//!   [`derive_seed`]`(global_seed, stream)` — a splitmix64 mix of the
//!   `--seed` flag and the point's *stream id* (by default its index).
//!   No point ever advances another point's RNG, so scheduling cannot
//!   perturb the sampled workloads. Points that must share one workload
//!   trace (e.g. the same mix swept over budgets) opt into a common
//!   stream with [`Sweep::push_with_stream`].
//!
//! No point reads the host clock — the timing artifacts price operation
//! counts (DESIGN.md §10) — so every sweep shards freely.

use crate::harness::Opts;
use fastcap_core::error::Result;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::Arc;

/// A shared pool of spare worker tokens for **two-level** sharding
/// (`repro all --jobs N`): the outer level runs whole artifacts in
/// parallel, and every inner [`Sweep::run`] holds one implicit worker and
/// borrows spare tokens from this budget for its extra threads. When an
/// artifact finishes, its tokens return to the pool and still-running
/// artifacts' subsequent sweeps widen — so the machine stays saturated
/// through the long tail without ever oversubscribing `N`.
///
/// Purely a scheduling construct: artifact bytes are jobs-invariant, so
/// how tokens migrate between levels can never change results.
#[derive(Debug)]
pub struct WorkBudget {
    spare: AtomicIsize,
}

impl WorkBudget {
    /// A budget with `spare` tokens beyond the holders' implicit workers.
    pub fn new(spare: usize) -> Arc<Self> {
        Arc::new(Self {
            spare: AtomicIsize::new(spare as isize),
        })
    }

    /// Takes up to `want` tokens, returning how many were granted.
    pub(crate) fn take(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let mut cur = self.spare.load(Ordering::Relaxed);
        loop {
            let grant = cur.clamp(0, want as isize);
            if grant == 0 {
                return 0;
            }
            match self.spare.compare_exchange_weak(
                cur,
                cur - grant,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return grant as usize,
                Err(now) => cur = now,
            }
        }
    }

    /// Returns `n` tokens to the pool.
    pub(crate) fn put(&self, n: usize) {
        if n > 0 {
            self.spare.fetch_add(n as isize, Ordering::AcqRel);
        }
    }
}

/// What a point's closure receives: its position and derived seed.
#[derive(Debug, Clone, Copy)]
pub struct PointCtx {
    /// The point's insertion index within the sweep.
    pub index: usize,
    /// RNG seed for this point: `derive_seed(opts.seed, stream)`.
    pub seed: u64,
}

/// One independent unit of work: a closure from [`PointCtx`] to a result.
pub struct SweepPoint<'a, T> {
    stream: u64,
    run: Box<dyn Fn(PointCtx) -> Result<T> + Send + Sync + 'a>,
}

/// An ordered list of independent work items.
pub struct Sweep<'a, T> {
    points: Vec<SweepPoint<'a, T>>,
}

impl<'a, T: Send> Sweep<'a, T> {
    /// An empty parallel sweep.
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Number of points declared so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds a point on its own RNG stream (stream id = insertion index).
    pub fn push(&mut self, f: impl Fn(PointCtx) -> Result<T> + Send + Sync + 'a) {
        let stream = self.points.len() as u64;
        self.push_with_stream(stream, f);
    }

    /// Adds a point on an explicit RNG stream. Points sharing a stream
    /// receive the same seed — use this when several points must observe
    /// the *same* sampled workload (e.g. one mix swept across budgets or
    /// controller variants).
    pub fn push_with_stream(
        &mut self,
        stream: u64,
        f: impl Fn(PointCtx) -> Result<T> + Send + Sync + 'a,
    ) {
        self.points.push(SweepPoint {
            stream,
            run: Box::new(f),
        });
    }

    /// Executes every point on up to `opts.jobs` workers and returns the
    /// results **in insertion order**.
    ///
    /// A failing point makes workers stop claiming further points, so a
    /// bad configuration aborts an 80-point grid after the in-flight
    /// work instead of simulating it to completion. Success results are
    /// unaffected (every point completed), so artifact bytes stay
    /// jobs-invariant; the surfaced error is the lowest-indexed failure
    /// *observed* — with `--jobs 1` that is exactly the first failing
    /// point, with more workers an in-flight later point may win the
    /// race against an unclaimed earlier one.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed observed point failure.
    pub fn run(&self, opts: &Opts) -> Result<Vec<T>> {
        let Some(budget) = &opts.budget else {
            let failed = AtomicBool::new(false);
            let jobs = opts.jobs.max(1);
            return self.collect(self.run_span(jobs, opts, 0, self.points.len(), &failed));
        };
        // Two-level mode: run in chunks, re-polling the shared pool at
        // each chunk boundary — one implicit worker plus whatever spare
        // tokens it can grant, never more than the chunk can use. A
        // long grid started when the pool was empty widens as sibling
        // artifacts finish and donate their workers back.
        //
        // With an explicit `--lanes L`, every worker's simulation spins an
        // L-wide lane pool, so each *extra* worker charges L tokens — the
        // two parallelism levels share one hardware pot instead of
        // multiplying against each other. (The default `lanes: None`
        // resolves to 1 lane under a budget — see `Opts::resolved_lanes` —
        // so the common path charges exactly as before.) Purely a
        // scheduling choice: bytes are lane- and jobs-invariant.
        let lane_width = opts.lanes.unwrap_or(1).max(1);
        let n = self.points.len();
        let failed = AtomicBool::new(false);
        let mut slots = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let remaining = n - start;
            let cap = (opts.jobs.max(1) - 1).min(remaining - 1);
            let granted = budget.take(cap * lane_width);
            let extra = granted / lane_width;
            budget.put(granted - extra * lane_width); // unusable remainder
            let jobs = 1 + extra;
            let end = start + remaining.min((jobs * 2).max(4));
            slots.extend(self.run_span(jobs, opts, start, end, &failed));
            budget.put(extra * lane_width);
            start = end;
            if failed.load(Ordering::Relaxed) {
                break; // surface the error; unclaimed chunks never start
            }
        }
        self.collect(slots)
    }

    /// Runs points `[start, end)` on up to `jobs` workers; slots come
    /// back in point order.
    fn run_span(
        &self,
        jobs: usize,
        opts: &Opts,
        start: usize,
        end: usize,
        failed: &AtomicBool,
    ) -> Vec<Option<Result<T>>> {
        rayon::par_map_indexed(jobs, end - start, |i| {
            if failed.load(Ordering::Relaxed) {
                return None; // a point already failed; don't start more work
            }
            let i = start + i;
            let p = &self.points[i];
            let r = (p.run)(PointCtx {
                index: i,
                seed: derive_seed(opts.seed, p.stream),
            });
            if r.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            Some(r)
        })
    }

    fn collect(&self, slots: Vec<Option<Result<T>>>) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(slots.len());
        for r in slots {
            match r {
                Some(Ok(v)) => out.push(v),
                // Lowest-indexed observed error; skipped slots (None) can
                // only exist when some later Some(Err) is present.
                Some(Err(e)) => return Err(e),
                None => {}
            }
        }
        Ok(out)
    }
}

impl<T: Send> Default for Sweep<'_, T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Sweeps `f` over `items` in parallel — the common one-point-per-item
/// case. Point `i` gets stream id `i`; results come back in item order.
///
/// # Errors
///
/// Propagates the first (by index) point failure.
pub fn par_sweep<I, T, F>(opts: &Opts, items: &[I], f: F) -> Result<Vec<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&I, PointCtx) -> Result<T> + Send + Sync,
{
    let f = &f;
    let mut sweep = Sweep::new();
    for item in items {
        sweep.push(move |ctx| f(item, ctx));
    }
    sweep.run(opts)
}

// Seed-stream derivation moved to fastcap-core so non-bench layers (the
// fleet tree's per-leaf streams) share the same pinned mapping; re-exported
// here to keep the historical `sweep::derive_seed` path working.
pub use fastcap_core::seed::derive_seed;

#[cfg(test)]
mod tests {
    use super::*;
    use fastcap_core::error::Error;

    fn opts_with_jobs(jobs: usize) -> Opts {
        Opts {
            jobs,
            ..Opts::default()
        }
    }

    #[test]
    fn results_are_insertion_ordered_at_any_job_count() {
        for jobs in [1, 2, 8] {
            let mut s = Sweep::new();
            for i in 0..20usize {
                s.push(move |ctx| {
                    assert_eq!(ctx.index, i);
                    Ok(i * 10)
                });
            }
            let out = s.run(&opts_with_jobs(jobs)).unwrap();
            assert_eq!(out, (0..20).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn seeds_are_jobs_invariant_and_stream_keyed() {
        let collect = |jobs: usize| {
            let mut s = Sweep::new();
            for _ in 0..6 {
                s.push(|ctx| Ok(ctx.seed));
            }
            s.run(&opts_with_jobs(jobs)).unwrap()
        };
        let serial = collect(1);
        let parallel = collect(8);
        assert_eq!(serial, parallel);
        // Distinct streams get distinct seeds.
        let unique: std::collections::HashSet<_> = serial.iter().collect();
        assert_eq!(unique.len(), serial.len());
    }

    #[test]
    fn shared_stream_shares_the_seed() {
        let mut s = Sweep::new();
        s.push_with_stream(7, |ctx| Ok(ctx.seed));
        s.push_with_stream(7, |ctx| Ok(ctx.seed));
        s.push_with_stream(8, |ctx| Ok(ctx.seed));
        let out = s.run(&Opts::default()).unwrap();
        assert_eq!(out[0], out[1]);
        assert_ne!(out[0], out[2]);
    }

    #[test]
    fn first_failing_point_errors_serially() {
        // With one worker, points run in order and the first failure is
        // surfaced exactly.
        let mut s: Sweep<'_, usize> = Sweep::new();
        for i in 0..10usize {
            s.push(move |_| {
                if i >= 3 {
                    Err(Error::InvalidModel {
                        why: format!("point {i}"),
                    })
                } else {
                    Ok(i)
                }
            });
        }
        let err = s.run(&opts_with_jobs(1)).unwrap_err();
        assert_eq!(err.to_string(), "invalid optimization model: point 3");
    }

    #[test]
    fn parallel_failure_surfaces_an_observed_error() {
        for jobs in [2, 8] {
            let mut s: Sweep<'_, usize> = Sweep::new();
            for i in 0..10usize {
                s.push(move |_| {
                    if i >= 3 {
                        Err(Error::InvalidModel {
                            why: format!("point {i}"),
                        })
                    } else {
                        Ok(i)
                    }
                });
            }
            let err = s.run(&opts_with_jobs(jobs)).unwrap_err().to_string();
            // Some failing point (never a successful one) is surfaced;
            // which of 3..9 wins depends on scheduling.
            assert!(
                err.starts_with("invalid optimization model: point "),
                "{err}"
            );
            let idx: usize = err.rsplit(' ').next().unwrap().parse().unwrap();
            assert!((3..10).contains(&idx), "{err}");
        }
    }

    #[test]
    fn failure_aborts_remaining_points() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let executed = AtomicUsize::new(0);
        let mut s: Sweep<'_, usize> = Sweep::new();
        for i in 0..100usize {
            let executed = &executed;
            s.push(move |_| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    return Err(Error::InvalidModel {
                        why: "early".into(),
                    });
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(i)
            });
        }
        assert!(s.run(&opts_with_jobs(4)).is_err());
        // Point 0 fails immediately; at most the in-flight points finish,
        // the rest are never started.
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 50, "expected early abort, but {ran}/100 points ran");
    }

    #[test]
    fn par_sweep_maps_items_in_order() {
        let items = vec!["a", "bb", "ccc"];
        let out = par_sweep(&opts_with_jobs(4), &items, |it, _| Ok(it.len())).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn work_budget_grants_and_returns_tokens() {
        let b = WorkBudget::new(3);
        assert_eq!(b.take(2), 2);
        assert_eq!(b.take(5), 1, "only one spare left");
        assert_eq!(b.take(1), 0, "pool exhausted");
        b.put(3);
        assert_eq!(b.take(4), 3);
        b.put(3);
        assert_eq!(b.take(0), 0);
    }

    #[test]
    fn budgeted_sweeps_stay_deterministic() {
        // Results and seeds are identical whether a sweep runs with its
        // full job count or borrows from a (possibly empty) budget pool.
        let collect = |budget: Option<std::sync::Arc<WorkBudget>>| {
            let opts = Opts {
                jobs: 6,
                budget,
                ..Opts::default()
            };
            let mut s = Sweep::new();
            for _ in 0..12 {
                s.push(|ctx| Ok((ctx.index, ctx.seed)));
            }
            s.run(&opts).unwrap()
        };
        let plain = collect(None);
        let starved = collect(Some(WorkBudget::new(0)));
        let flush = collect(Some(WorkBudget::new(16)));
        assert_eq!(plain, starved);
        assert_eq!(plain, flush);
    }

    #[test]
    fn budget_tokens_are_released_after_a_sweep() {
        let budget = WorkBudget::new(4);
        let opts = Opts {
            jobs: 8,
            budget: Some(budget.clone()),
            ..Opts::default()
        };
        let mut s = Sweep::new();
        for i in 0..6usize {
            s.push(move |_| Ok(i));
        }
        s.run(&opts).unwrap();
        // All 4 spare tokens must be back in the pool.
        assert_eq!(budget.take(8), 4);
    }

    #[test]
    fn explicit_lanes_charge_budget_tokens_per_worker() {
        // With `--lanes 3`, each extra worker claims 3 tokens: a pool of 4
        // spares funds at most one extra worker, and the unusable
        // remainder plus the claim are all returned afterwards.
        let budget = WorkBudget::new(4);
        let opts = Opts {
            jobs: 8,
            lanes: Some(3),
            budget: Some(budget.clone()),
            ..Opts::default()
        };
        let mut s = Sweep::new();
        for i in 0..6usize {
            s.push(move |_| Ok(i));
        }
        assert_eq!(s.run(&opts).unwrap(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(budget.take(8), 4, "all lane-width tokens returned");
    }

    #[test]
    fn lane_width_does_not_change_budgeted_results() {
        let collect = |lanes: Option<usize>| {
            let opts = Opts {
                jobs: 6,
                lanes,
                budget: Some(WorkBudget::new(5)),
                ..Opts::default()
            };
            let mut s = Sweep::new();
            for _ in 0..12 {
                s.push(|ctx| Ok((ctx.index, ctx.seed)));
            }
            s.run(&opts).unwrap()
        };
        assert_eq!(collect(None), collect(Some(2)));
        assert_eq!(collect(None), collect(Some(64)));
    }

    #[test]
    fn derive_seed_is_stable() {
        // Pinned: changing the derivation silently changes every artifact.
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        assert_eq!(derive_seed(42, 0), 12058926934050108962);
        assert_eq!(derive_seed(42, 16), 3752715396868486130);
    }
}
