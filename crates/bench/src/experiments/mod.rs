//! One module per paper artifact. Each exposes
//! `run(&Opts) -> Result<Vec<ResultTable>>`, declares its independent
//! work as a [`crate::sweep::Sweep`] (sharded across `--jobs` workers,
//! deterministic at any worker count — see DESIGN.md §5), and reduces
//! the index-ordered point results into tables; the `repro` binary
//! dispatches on artifact id and prints/writes whatever comes back. No
//! artifact table reads the host clock: the latency columns of `tab1`,
//! `overhead` and `scaling` are modeled cost (DESIGN.md §10), so every
//! table is byte-identical at any `--jobs` and golden-pinned.

pub mod ablation;
pub mod bias_ablation;
pub mod epochlen;
pub mod fig10;
pub mod fig11;
pub mod fig12_13;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod fleet_ladder;
pub mod fleet_scale;
pub mod fleet_settle;
pub mod overhead;
pub mod scaling;
pub mod scn_capstep;
pub mod scn_flashcrowd;
pub mod scn_hotplug;
pub mod scn_matrix;
pub mod tab1;
pub mod tab3;

use crate::harness::Opts;
use crate::sweep::WorkBudget;
use crate::table::ResultTable;
use fastcap_core::error::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// All artifact ids: the paper's figures/tables in paper order, then the
/// beyond-paper artifacts, then the scenario-engine transients (`scn_*`,
/// scripted dynamic runs — see DESIGN.md §7), then the fleet layer
/// (`fleet_*`, hierarchical budget-tree runs over the server-model ladder
/// — see DESIGN.md §9). The scenario matrix
/// ([`scn_matrix`]) is *not* listed: its grid shape is an input, so it
/// runs through the `repro matrix` subcommand instead of an artifact id
/// (DESIGN.md §8).
pub const ALL: &[&str] = &[
    "tab1",
    "tab3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "overhead",
    "epochlen",
    "ablation",
    "bias_ablation",
    "scaling",
    "scn_capstep",
    "scn_flashcrowd",
    "scn_hotplug",
    "fleet_ladder",
    "fleet_settle",
    "fleet_scale",
];

/// Dispatches one artifact id to its runner.
///
/// # Errors
///
/// Returns an error for unknown ids or failed runs.
pub fn run(id: &str, opts: &Opts) -> Result<Vec<ResultTable>> {
    match id {
        "tab1" => tab1::run(opts),
        "tab3" => tab3::run(opts),
        "fig3" => fig3::run(opts),
        "fig4" => fig4::run(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" | "fig8" => fig7_8::run(opts),
        "fig9" => fig9::run(opts),
        "fig10" => fig10::run(opts),
        "fig11" => fig11::run(opts),
        "fig12" | "fig13" => fig12_13::run(opts),
        "overhead" => overhead::run(opts),
        "epochlen" => epochlen::run(opts),
        "ablation" => ablation::run(opts),
        "bias_ablation" => bias_ablation::run(opts),
        "scaling" => scaling::run(opts),
        "scn_capstep" => scn_capstep::run(opts),
        "scn_flashcrowd" => scn_flashcrowd::run(opts),
        "scn_hotplug" => scn_hotplug::run(opts),
        "fleet_ladder" => fleet_ladder::run(opts),
        "fleet_settle" => fleet_settle::run(opts),
        "fleet_scale" => fleet_scale::run(opts),
        other => Err(fastcap_core::error::Error::InvalidConfig {
            what: "experiment",
            why: format!("unknown artifact `{other}`; known: {ALL:?}"),
        }),
    }
}

/// One artifact's outcome from [`run_many`].
#[derive(Debug)]
pub struct ArtifactRun {
    /// The artifact id.
    pub id: String,
    /// Its result tables, exactly as [`run`] would return them.
    pub tables: Vec<ResultTable>,
    /// Wall-clock seconds this artifact took (its own work only).
    pub elapsed: f64,
}

/// Runs several artifacts with **two-level** work sharding: whole
/// artifacts shard across an outer worker pool while each artifact's
/// sweep points shard across the same `opts.jobs` budget via a shared
/// [`WorkBudget`] — so one long-running artifact at the tail still uses
/// every core, and many small artifacts don't serialize on each other.
///
/// Results come back **in input order**, and every artifact's bytes are
/// identical to a serial `run` at the same seed (sweeps are jobs- and
/// schedule-invariant; see DESIGN.md §5).
///
/// Returns every artifact that completed plus the lowest-indexed
/// *observed* failure, if any — so a late failure in a long `repro all`
/// does not discard hours of finished tables. A failure stops unstarted
/// artifacts from launching.
/// `on_complete` fires for each artifact as it finishes (completion
/// order, possibly from worker threads): persist results there — e.g.
/// write CSVs to disk — so even a panic in a later runner cannot discard
/// finished work.
pub fn run_many(
    ids: &[&str],
    opts: &Opts,
    on_complete: impl Fn(&ArtifactRun) + Send + Sync,
) -> (Vec<ArtifactRun>, Option<fastcap_core::error::Error>) {
    let outer = opts.jobs.max(1).min(ids.len().max(1));
    // Every outer worker carries one implicit token; the rest start as
    // spare, borrowed by inner sweeps as their artifacts' parallelism
    // allows. Once fewer artifacts remain in flight than there are
    // outer workers, each further completion frees a worker for good —
    // that completion donates one token, so the long tail's sweeps
    // (which re-poll the pool at chunk boundaries) widen onto the freed
    // cores. The arithmetic uses only the completion counter, so it
    // cannot race with work claiming.
    let budget = WorkBudget::new(opts.jobs.max(1) - outer);
    let inner_opts = Opts {
        budget: Some(budget.clone()),
        ..opts.clone()
    };
    let failed = AtomicBool::new(false);
    let completed = std::sync::atomic::AtomicUsize::new(0);
    let slots = rayon::par_map_indexed(outer, ids.len(), |i| {
        if failed.load(Ordering::Relaxed) {
            return None;
        }
        let id = ids[i];
        let start = Instant::now();
        let r = run(id, &inner_opts);
        if r.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Liveness on stderr (stdout stays ordered and byte-stable).
        match &r {
            Ok(_) => eprintln!("[{id}: done in {elapsed:.1}s]"),
            Err(e) => eprintln!("[{id}: FAILED after {elapsed:.1}s: {e}]"),
        }
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        if outer + done > ids.len() {
            budget.put(1);
        }
        match r {
            Ok(tables) => {
                let run = ArtifactRun {
                    id: id.to_string(),
                    tables,
                    elapsed,
                };
                on_complete(&run);
                Some(Ok(run))
            }
            Err(e) => Some(Err(e)),
        }
    });

    let mut runs = Vec::with_capacity(ids.len());
    let mut first_err = None;
    for (slot, &id) in slots.into_iter().zip(ids) {
        match slot {
            Some(Ok(run)) => runs.push(run),
            Some(Err(e)) if first_err.is_none() => {
                // Name the failing artifact: with many concurrent runners
                // the bare model error does not say which one died.
                first_err = Some(fastcap_core::error::Error::InvalidConfig {
                    what: "artifact",
                    why: format!("{id}: {e}"),
                });
            }
            _ => {}
        }
    }
    (runs, first_err)
}
