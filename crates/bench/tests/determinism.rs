//! Determinism regression for the sweep execution engine: the `--jobs`
//! worker count must never leak into artifact bytes, and bad `--jobs`
//! values must be rejected with usage before anything runs.

use fastcap_bench::experiments;
use fastcap_bench::harness::Opts;
use std::path::Path;
use std::process::Command;

fn run_repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn read_artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("artifact dir exists")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fig5_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join("fastcap_determinism_fig5");
    let (d1, d8) = (base.join("jobs1"), base.join("jobs8"));
    for (jobs, dir) in [("1", &d1), ("8", &d8)] {
        let _ = std::fs::remove_dir_all(dir);
        let out = run_repro(&[
            "fig5",
            "--quick",
            "--seed",
            "7",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "repro fig5 --jobs {jobs} failed");
    }
    let (a1, a8) = (read_artifacts(&d1), read_artifacts(&d8));
    assert!(!a1.is_empty(), "fig5 wrote artifacts");
    assert_eq!(
        a1.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        a8.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same artifact set"
    );
    for ((name, b1), (_, b8)) in a1.iter().zip(&a8) {
        assert_eq!(b1, b8, "{name} differs between --jobs 1 and --jobs 8");
    }
}

#[test]
fn library_sweeps_are_jobs_invariant() {
    // In-process double-check on a real simulation sweep (fig11: four
    // par_sweep points, each a baseline plus two policies).
    let tables_at = |jobs: usize| {
        let opts = Opts {
            quick: true,
            seed: 3,
            jobs,
            out_dir: std::env::temp_dir().join("fastcap_determinism_lib"),
            ..Opts::default()
        };
        experiments::run("fig11", &opts).unwrap()
    };
    let serial = tables_at(1);
    let parallel = tables_at(6);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.id, p.id);
        assert_eq!(s.to_csv(), p.to_csv(), "{} differs across job counts", s.id);
    }
}

#[test]
fn bad_jobs_values_exit_nonzero_with_usage() {
    for args in [
        &["fig5", "--jobs", "0"][..],
        &["fig5", "--jobs", "banana"][..],
        &["fig5", "--jobs", "-3"][..],
        &["fig5", "--jobs"][..],
    ] {
        let out = run_repro(args);
        assert!(
            !out.status.success(),
            "{args:?} must exit non-zero, got {:?}",
            out.status
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(stderr.contains("--jobs"), "{args:?}: {stderr}");
    }
}

#[test]
fn jobs_flag_round_trips_through_help() {
    let out = run_repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--jobs N"), "{stdout}");
}

#[test]
fn run_many_is_schedule_invariant_and_input_ordered() {
    // Two-level sharding (artifacts × grid points) must return results in
    // input order with bytes identical to one-at-a-time serial runs, for
    // any worker count — the modeled timing table (tab1) included.
    let ids = ["fig4", "tab1", "fig3"];
    let runs_at = |jobs: usize| {
        let opts = Opts {
            quick: true,
            seed: 9,
            jobs,
            out_dir: std::env::temp_dir().join("fastcap_run_many"),
            ..Opts::default()
        };
        let (runs, err) = experiments::run_many(&ids, &opts, |_| {});
        assert!(err.is_none(), "unexpected failure: {err:?}");
        runs
    };
    let serial = runs_at(1);
    let parallel = runs_at(6);
    assert_eq!(serial.len(), 3);
    assert_eq!(
        serial.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
        ids.to_vec(),
        "results must come back in input order"
    );
    assert_eq!(
        parallel.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
        ids.to_vec()
    );
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.tables.len(), p.tables.len(), "{}", s.id);
        for (st, pt) in s.tables.iter().zip(&p.tables) {
            assert_eq!(
                st.to_csv(),
                pt.to_csv(),
                "{} differs across schedules",
                st.id
            );
        }
    }
    // And against the single-artifact path.
    let lone = experiments::run(
        "fig3",
        &Opts {
            quick: true,
            seed: 9,
            jobs: 2,
            out_dir: std::env::temp_dir().join("fastcap_run_many_lone"),
            ..Opts::default()
        },
    )
    .unwrap();
    assert_eq!(lone.len(), serial[2].tables.len());
    for (lt, st) in lone.iter().zip(&serial[2].tables) {
        assert_eq!(lt.to_csv(), st.to_csv(), "run vs run_many mismatch");
    }
}

#[test]
fn run_many_surfaces_unknown_artifact_errors() {
    let opts = Opts {
        quick: true,
        ..Opts::default()
    };
    let (_, err) = experiments::run_many(&["fig3", "nope"], &opts, |_| {});
    let err = err.expect("unknown artifact must surface an error");
    assert!(err.to_string().contains("unknown artifact"), "{err}");
    assert!(
        err.to_string().contains("nope"),
        "names the artifact: {err}"
    );
}
