//! `repro` — regenerate the FastCap paper's tables and figures, plus the
//! scenario-engine transient artifacts.
//!
//! ```text
//! repro <artifact>... [--quick] [--seed N] [--jobs N] [--out DIR] [--scenario FILE] [--trace FILE]
//! repro all [--quick] [--jobs N]
//! repro matrix [--count K] [--mixes LIST|all] [--policies LIST|all] [--quick] [--jobs N]
//! repro scenario validate [DIR]
//! repro trace <artifact>
//! repro explain <artifact>
//! repro calibrate
//! repro costgate [--jobs N]
//! repro --list
//! ```
//!
//! The timing artifacts (`tab1`, `overhead`, `scaling`) publish **modeled**
//! latencies — deterministic operation counts priced by the checked-in
//! `COST_MODEL.json` weights (DESIGN.md §10) — and are golden-pinned like
//! every other artifact. `repro calibrate` refits the weights from this
//! host's wall clock; `repro costgate` re-checks the goldens and the
//! modeled-cost expectations. Host time is measured by `perfbench`
//! (`perfbench/`), never by `repro`.
//!
//! `--jobs N` shards each experiment's sweep across N worker threads
//! (default: available parallelism); it is the only thread knob, and each
//! simulation runs on one thread. Artifacts are bit-identical at any job
//! count for a fixed `--seed`; see DESIGN.md §5 and §11.
//!
//! `--trace FILE` arms the tracer and writes the run's Chrome-trace JSON
//! to FILE plus a metrics CSV beside it; `repro trace <artifact>` writes
//! `<out>/<artifact>.trace.json`. `repro explain <artifact>` replays a
//! scenario artifact traced and prints each policy's decision trail
//! around any oracle violation, exiting non-zero when one is red. See
//! DESIGN.md §12.
//!
//! `--scenario FILE` replaces the checked-in default scenario of the
//! `scn_*` artifacts; `scenario validate` lints every `*.json` under a
//! scenario directory (default `scenarios/`) as a single-server scenario,
//! and every `*.json` under its `fleet/` subdirectory as a fleet
//! scenario (node-targeted events; DESIGN.md §9). See DESIGN.md §7.
//!
//! `repro matrix` sweeps {generated scenarios × mixes × policies} with
//! the invariant oracle evaluated on every cell (DESIGN.md §8):
//! `--count K` generated scenarios (default 2, seeds derived from
//! `--seed`), `--mixes`/`--policies` comma-separated subsets or `all`.
//! Matrix tables are byte-identical at any `--jobs` value.
//!
//! Artifacts: tab1 tab3 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//! fig12 fig13 overhead epochlen ablation bias_ablation scaling
//! scn_capstep scn_flashcrowd scn_hotplug fleet_ladder fleet_settle
//! fleet_scale.
//! Results print as markdown and are written as CSV/JSON under `--out`
//! (default `results/`).

use fastcap_bench::experiments;
use fastcap_bench::harness::Opts;
use fastcap_scenario::{rack_name, FleetScenario, Scenario};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> String {
    format!(
        "usage: repro <artifact|all>... [--quick] [--seed N] [--jobs N] [--out DIR] \
         [--scenario FILE] [--trace FILE] [--list]\n\
         \x20      repro matrix [--count K] [--mixes LIST|all] [--policies LIST|all]\n\
         \x20      repro scenario validate [DIR]\n\
         \x20      repro trace <artifact>\n\
         \x20      repro explain <artifact>\n\
         \x20      repro calibrate\n\
         \x20      repro costgate [--jobs N]\n\
         artifacts: {}",
        experiments::ALL.join(" ")
    )
}

/// Arms the process-global trace hub with the embedded cost model's per-op
/// weights (the modeled clock every trace timestamp reads).
fn arm_tracing() -> Result<(), String> {
    let model = fastcap_bench::costmodel::CostModel::embedded()
        .map_err(|e| format!("embedded COST_MODEL.json is invalid: {e}"))?;
    fastcap_trace::install(fastcap_trace::TraceConfig {
        ns_weights: model.weights.ns,
        ..fastcap_trace::TraceConfig::default()
    });
    Ok(())
}

/// Drains the hub and writes the Chrome-trace JSON to `path` (plus the
/// metrics CSV beside it), printing the terminal roll-up. Returns `false`
/// on any I/O failure (already reported on stderr).
fn flush_trace(path: &Path) -> bool {
    let Some(hub) = fastcap_trace::hub() else {
        eprintln!("trace hub was never armed");
        return false;
    };
    let streams = hub.drain_sorted();
    if streams.is_empty() {
        eprintln!("warning: no trace streams captured (artifact records no traced runs)");
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return false;
        }
    }
    if let Err(e) = std::fs::write(path, fastcap_trace::chrome_trace_json(&streams)) {
        eprintln!("cannot write {}: {e}", path.display());
        return false;
    }
    let metrics_path = PathBuf::from(format!("{}.metrics.csv", path.display()));
    if let Err(e) = std::fs::write(&metrics_path, fastcap_trace::metrics_csv(&streams)) {
        eprintln!("cannot write {}: {e}", metrics_path.display());
        return false;
    }
    print!("{}", fastcap_trace::terminal_summary(&streams));
    println!(
        "[trace: {} stream(s) -> {} (+ {})]",
        streams.len(),
        path.display(),
        metrics_path.display()
    );
    true
}

/// Lints one fleet-scenario file. The rack set is inferred from the
/// `rack<N>` node names the file itself mentions (the fleet engine
/// re-resolves names against the concrete tree at run time), so the lint
/// catches malformed values, broken timelines, and non-canonical node
/// names without needing a tree shape up front.
fn lint_fleet_file(path: &Path) -> Result<(FleetScenario, usize), Vec<String>> {
    let text = std::fs::read_to_string(path).map_err(|e| vec![e.to_string()])?;
    let s = FleetScenario::from_json(&text).map_err(|e| vec![e])?;
    let mut max_rack = 0usize;
    for event in &s.events {
        if let Some(n) = event
            .action
            .node()
            .and_then(|n| n.strip_prefix("rack"))
            .and_then(|i| i.parse::<usize>().ok())
        {
            max_rack = max_rack.max(n + 1);
        }
    }
    // At least two racks: the lint rejects timelines that take the whole
    // fleet down, which needs a survivor to be meaningful.
    let racks: Vec<String> = (0..max_rack.max(2)).map(rack_name).collect();
    let lints = s.lint(&racks);
    if lints.is_empty() {
        Ok((s, racks.len()))
    } else {
        Err(lints)
    }
}

/// `repro scenario validate [DIR]`: lints every scenario file under DIR
/// (single-server schema), then every file under `DIR/fleet/`
/// (fleet schema).
fn scenario_validate(dir: &Path) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read scenario directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("no *.json scenarios under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for path in &files {
        match Scenario::load(path) {
            Ok(s) => {
                let lints = s.lint();
                if lints.is_empty() {
                    println!(
                        "ok   {} ({}, {} cores, {} event(s))",
                        path.display(),
                        s.name,
                        s.n_cores,
                        s.events.len()
                    );
                } else {
                    failed += 1;
                    println!("FAIL {}", path.display());
                    for l in lints {
                        println!("     - {l}");
                    }
                }
            }
            Err(e) => {
                failed += 1;
                println!("FAIL {e}");
            }
        }
    }
    // Fleet scenarios live in a subdirectory: their schema (node-targeted
    // events) is not a single-server scenario's, so the two lints never
    // see each other's files.
    let fleet_dir = dir.join("fleet");
    let mut fleet_files: Vec<PathBuf> = std::fs::read_dir(&fleet_dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    fleet_files.sort();
    for path in &fleet_files {
        match lint_fleet_file(path) {
            Ok((s, racks)) => println!(
                "ok   {} (fleet: {}, {} rack name(s), {} event(s))",
                path.display(),
                s.name,
                racks,
                s.events.len()
            ),
            Err(lints) => {
                failed += 1;
                println!("FAIL {}", path.display());
                for l in lints {
                    println!("     - {l}");
                }
            }
        }
    }
    println!(
        "[{} scenario(s), {} failing]",
        files.len() + fleet_files.len(),
        failed
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro calibrate`: re-measure the wall-clock probe matrix, fit fresh
/// per-op ns weights, and write `COST_MODEL.json` into the current
/// directory (the repo root in the normal `cargo run` workflow). The
/// file is embedded at **compile** time, so rebuild after committing it.
fn calibrate_cmd() -> ExitCode {
    let model = match fastcap_bench::costmodel::calibrate() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("calibration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = Path::new("COST_MODEL.json");
    if let Err(e) = std::fs::write(path, model.to_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# Calibrated cost model -> {}", path.display());
    println!();
    println!("| op | ns/op |");
    println!("|---|---|");
    for (k, op) in fastcap_core::cost::OPS.iter().enumerate() {
        println!("| {op} | {:.3} |", model.weights.ns[k]);
    }
    println!();
    println!(
        "[{} expectation(s); rebuild (`cargo build --release`) to embed the new model]",
        model.expectations.len()
    );
    ExitCode::SUCCESS
}

/// `repro costgate`: the deterministic timing gate — golden hashes of the
/// modeled artifacts plus modeled-cost expectations, all host-independent.
fn costgate_cmd(jobs: usize, inject: u64) -> ExitCode {
    if inject > 0 {
        eprintln!("[costgate: injecting {inject} extra solver iteration(s) per solve]");
        fastcap_core::optimizer::set_injected_solver_iters(inject);
    }
    match fastcap_bench::costmodel::cost_gate(jobs) {
        Ok(failures) if failures.is_empty() => {
            println!(
                "[costgate: OK — {} golden artifact(s), {} expectation probe(s)]",
                fastcap_bench::costmodel::TIMING_GOLDENS.len(),
                fastcap_bench::costmodel::CostModel::embedded()
                    .map(|m| m.expectations.len())
                    .unwrap_or(0)
            );
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                println!("FAIL {f}");
            }
            println!("[costgate: {} failure(s)]", failures.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("costgate could not run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut opts = Opts::default();
    let mut targets: Vec<String> = Vec::new();
    // `repro matrix` subsets (only valid with the matrix subcommand).
    let mut matrix_mixes: Option<String> = None;
    let mut matrix_policies: Option<String> = None;
    let mut matrix_count: Option<usize> = None;
    // `--trace FILE` / `repro trace <artifact>`: Chrome-trace output path.
    let mut trace_out: Option<PathBuf> = None;
    // `repro costgate --inject-solver-iters N`: regression-injection hook
    // for the gate's own negative test (deliberately not in the usage
    // text — it exists to prove the gate trips, not for users).
    let mut inject_solver_iters: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--inject-solver-iters" => match args.next().and_then(|v| v.parse().ok()) {
                Some(k) => inject_solver_iters = k,
                None => {
                    eprintln!("--inject-solver-iters needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.seed = s,
                None => {
                    eprintln!("--seed needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(j) if j >= 1 => opts.jobs = j,
                _ => {
                    eprintln!("--jobs needs an integer >= 1\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(d) => opts.out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--scenario" => match args.next() {
                Some(f) => opts.scenario = Some(PathBuf::from(f)),
                None => {
                    eprintln!("--scenario needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(f) => trace_out = Some(PathBuf::from(f)),
                None => {
                    eprintln!("--trace needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--mixes" => match args.next() {
                Some(list) => matrix_mixes = Some(list),
                None => {
                    eprintln!("--mixes needs a comma-separated list or `all`\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--policies" => match args.next() {
                Some(list) => matrix_policies = Some(list),
                None => {
                    eprintln!(
                        "--policies needs a comma-separated list or `all`\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--count" => match args.next().and_then(|v| v.parse().ok()) {
                Some(k) if k >= 1 => matrix_count = Some(k),
                _ => {
                    eprintln!("--count needs an integer >= 1\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for id in experiments::ALL {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    // `repro explain <artifact>` — the oracle-violation post-mortem:
    // re-run traced, print the per-epoch decision audit trail around any
    // violation (or the first budget move when green).
    if targets[0] == "explain" {
        if targets.len() != 2 {
            eprintln!("explain takes exactly one artifact\n{}", usage());
            return ExitCode::FAILURE;
        }
        return match fastcap_bench::explain::run_explain(&targets[1], &opts) {
            Ok(report) => {
                print!("{}", report.text);
                if report.all_green {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("[explain: oracle red — see the violation sections above]");
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `repro trace <artifact>` — sugar for `repro <artifact> --trace
    // <out>/<artifact>.trace.json`.
    if targets[0] == "trace" {
        if targets.len() != 2 {
            eprintln!("trace takes exactly one artifact\n{}", usage());
            return ExitCode::FAILURE;
        }
        let artifact = targets[1].clone();
        trace_out.get_or_insert_with(|| opts.out_dir.join(format!("{artifact}.trace.json")));
        targets = vec![artifact];
    }
    if trace_out.is_some()
        && ["calibrate", "costgate", "scenario", "matrix"].contains(&targets[0].as_str())
    {
        eprintln!(
            "--trace is only valid with artifact targets (or `repro trace <artifact>`)\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    if inject_solver_iters > 0 && targets[0] != "costgate" {
        eprintln!("--inject-solver-iters is only valid with `repro costgate`");
        return ExitCode::FAILURE;
    }
    // `repro calibrate` — fit the cost model.
    if targets[0] == "calibrate" {
        if targets.len() > 1 {
            eprintln!(
                "calibrate takes no further targets (got {:?})\n{}",
                &targets[1..],
                usage()
            );
            return ExitCode::FAILURE;
        }
        return calibrate_cmd();
    }
    // `repro costgate` — deterministic timing gate (goldens + modeled
    // cost expectations); red under an injected regression.
    if targets[0] == "costgate" {
        if targets.len() > 1 {
            eprintln!(
                "costgate takes no further targets (got {:?})\n{}",
                &targets[1..],
                usage()
            );
            return ExitCode::FAILURE;
        }
        return costgate_cmd(opts.jobs, inject_solver_iters);
    }
    // `repro scenario validate [DIR]` — the scenario-file linter.
    if targets[0] == "scenario" {
        if matrix_mixes.is_some() || matrix_policies.is_some() || matrix_count.is_some() {
            eprintln!(
                "--mixes/--policies/--count are only valid with `repro matrix`\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        }
        return match targets.get(1).map(String::as_str) {
            Some("validate") if targets.len() <= 3 => {
                let dir = targets
                    .get(2)
                    .map_or_else(|| PathBuf::from("scenarios"), PathBuf::from);
                scenario_validate(&dir)
            }
            _ => {
                eprintln!(
                    "scenario subcommand: validate [DIR] (default DIR: scenarios)\n{}",
                    usage()
                );
                ExitCode::FAILURE
            }
        };
    }
    // `repro matrix [--count K] [--mixes ...] [--policies ...]` — the
    // scenario-matrix sweep (DESIGN.md §8).
    if targets[0] == "matrix" {
        if targets.len() > 1 {
            eprintln!(
                "matrix takes no further targets (got {:?})\n{}",
                &targets[1..],
                usage()
            );
            return ExitCode::FAILURE;
        }
        if opts.scenario.is_some() {
            eprintln!(
                "--scenario is only valid with the scn_* artifacts; the matrix runs \
                 generated scenarios (use --count/--seed)\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        }
        let spec = match experiments::scn_matrix::MatrixSpec::parse(
            matrix_mixes.as_deref().unwrap_or("all"),
            matrix_policies.as_deref().unwrap_or("all"),
            matrix_count.unwrap_or(2),
        ) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "# FastCap scenario matrix — {} scenario(s) x {} mix(es) x {} policy(ies), \
             {} mode, seed {}, {} job(s)",
            spec.scenario_count,
            spec.mixes.len(),
            spec.policies.len(),
            if opts.quick { "quick" } else { "full" },
            opts.seed,
            opts.jobs
        );
        let start = Instant::now();
        return match experiments::scn_matrix::run_matrix(&spec, &opts) {
            Ok(tables) => {
                for t in &tables {
                    if let Err(e) = t.write_to(&opts.out_dir) {
                        eprintln!("warning: could not write {} artifacts: {e}", t.id);
                    }
                    print!("{}", t.to_markdown());
                }
                println!(
                    "\n[matrix: {} table(s) in {:.1}s]",
                    tables.len(),
                    start.elapsed().as_secs_f64()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if matrix_mixes.is_some() || matrix_policies.is_some() || matrix_count.is_some() {
        eprintln!(
            "--mixes/--policies/--count are only valid with `repro matrix`\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    // Validate artifact names before running anything, so a typo in a long
    // multi-artifact invocation fails fast instead of after hours of sim.
    for t in &targets {
        if t != "all" && !experiments::ALL.contains(&t.as_str()) {
            eprintln!("unknown artifact `{t}`\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    if targets.iter().any(|t| t == "all") {
        // fig8 and fig13 share runners with fig7 and fig12; dedupe by
        // runner so each executes once.
        targets = experiments::ALL
            .iter()
            .filter(|&&id| id != "fig8" && id != "fig13")
            .map(|s| s.to_string())
            .collect();
    }

    if trace_out.is_some() {
        if let Err(e) = arm_tracing() {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }

    let mode = if opts.quick { "quick" } else { "full" };
    println!(
        "# FastCap reproduction — {} artifact(s), {mode} mode, seed {}, {} job(s)",
        targets.len(),
        opts.seed,
        opts.jobs
    );
    // Two-level sharding: artifacts run concurrently on the outer pool
    // while each one's sweep grid shards across the same worker budget.
    // Output (and bytes) are identical to a serial run — only the
    // wall-clock changes.
    let ids: Vec<&str> = targets.iter().map(String::as_str).collect();
    let start = Instant::now();
    // CSVs land on disk the moment each artifact completes (from the
    // completion callback), so neither a later failure nor a panic in
    // another runner can discard finished work; the markdown printout
    // stays deferred so stdout keeps its stable input order.
    let out_dir = opts.out_dir.clone();
    let (runs, err) = experiments::run_many(&ids, &opts, |r| {
        for t in &r.tables {
            if let Err(e) = t.write_to(&out_dir) {
                eprintln!("warning: could not write {} artifacts: {e}", t.id);
            }
        }
    });
    for r in &runs {
        for t in &r.tables {
            print!("{}", t.to_markdown());
        }
        println!(
            "\n[{}: {} table(s) in {:.1}s]",
            r.id,
            r.tables.len(),
            r.elapsed
        );
    }
    println!(
        "[total: {} of {} artifact(s) in {:.1}s wall-clock]",
        runs.len(),
        ids.len(),
        start.elapsed().as_secs_f64()
    );
    if let Some(path) = &trace_out {
        if !flush_trace(path) {
            return ExitCode::FAILURE;
        }
    }
    match err {
        None => ExitCode::SUCCESS,
        Some(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
