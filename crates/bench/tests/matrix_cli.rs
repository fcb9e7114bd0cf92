//! `repro matrix` regression: CLI conventions (bad subset/seed/jobs and
//! removed flags exit 1 with usage), byte-identical summaries at
//! `--jobs 1` vs `--jobs 8`, and the in-process table shapes.

use fastcap_bench::experiments::scn_matrix::{run_matrix, MatrixSpec};
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
fn bad_matrix_input_exits_nonzero_with_usage() {
    for args in [
        // Bad subsets.
        &["matrix", "--mixes", "NOPE"][..],
        &["matrix", "--mixes", "MID1,XXX"][..],
        &["matrix", "--policies", "Doom"][..],
        // Exhaustive MaxBIPS cannot run the 16-core matrix.
        &["matrix", "--policies", "MaxBIPS"][..],
        // Bad counts / missing values.
        &["matrix", "--count", "0"][..],
        &["matrix", "--count", "banana"][..],
        &["matrix", "--count"][..],
        &["matrix", "--mixes"][..],
        &["matrix", "--policies"][..],
        // Bad global flags through the matrix path.
        &["matrix", "--seed", "x"][..],
        &["matrix", "--jobs", "0"][..],
        // Extra targets and misplaced flags (both directions: matrix
        // flags off the matrix path, --scenario on it).
        &["matrix", "fig3"][..],
        &["fig3", "--mixes", "MID1"][..],
        &["fig3", "--count", "2"][..],
        &["scenario", "validate", "--count", "2"][..],
        &["matrix", "--scenario", "scenarios/scn_capstep.json"][..],
        // Removed flags and subcommands: host timing lives in perfbench,
        // not in repro, `--jobs` is the only thread knob, and the timing
        // check runs in the tier-1 tests.
        &["tab1", "--wall-clock"][..],
        &["calibrate", "--check"][..],
        &["fig3", "--lanes", "2"][..],
        &["costgate"][..],
        &["costgate", "--inject-solver-iters", "1"][..],
    ] {
        let out = run_repro(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?} must exit 1, got {:?}",
            out.status
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn matrix_help_mentions_the_subcommand() {
    let out = run_repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("repro matrix"), "{stdout}");
    assert!(stdout.contains("--count K"), "{stdout}");
}

#[test]
fn matrix_summary_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join("fastcap_matrix_jobs");
    let (d1, d8) = (base.join("jobs1"), base.join("jobs8"));
    for (jobs, dir) in [("1", &d1), ("8", &d8)] {
        let _ = std::fs::remove_dir_all(dir);
        let out = run_repro(&[
            "matrix",
            "--quick",
            "--seed",
            "11",
            "--count",
            "1",
            "--mixes",
            "MID1",
            "--policies",
            "FastCap,Freq-Par",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "matrix --jobs {jobs} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (a1, a8) = (read_artifacts(&d1), read_artifacts(&d8));
    assert_eq!(
        a1.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        vec![
            "scn_matrix.csv",
            "scn_matrix.json",
            "scn_matrix_cells.csv",
            "scn_matrix_cells.json",
            "scn_matrix_scenarios.csv",
            "scn_matrix_scenarios.json",
        ]
    );
    for ((name, b1), (_, b8)) in a1.iter().zip(&a8) {
        assert_eq!(b1, b8, "{name} differs between --jobs 1 and --jobs 8");
    }
}

#[test]
fn matrix_tables_have_expected_shape() {
    // In-process: 1 scenario x 2 mixes x 2 policies = 4 cell rows, 2
    // aggregate rows, 1 legend row; and re-running with more jobs gives
    // identical CSVs (library-level jobs invariance).
    let tables_at = |jobs: usize| {
        let spec = MatrixSpec::parse("MID2,ILP1", "FastCap,Eql-Pwr", 1).unwrap();
        let opts = Opts {
            quick: true,
            seed: 4,
            jobs,
            out_dir: std::env::temp_dir().join("fastcap_matrix_lib"),
            ..Opts::default()
        };
        run_matrix(&spec, &opts).unwrap()
    };
    let tables = tables_at(1);
    assert_eq!(tables.len(), 3);
    let agg = &tables[0];
    assert_eq!(agg.id, "scn_matrix");
    assert_eq!(agg.rows.len(), 2, "one aggregate row per policy");
    assert_eq!(agg.rows[0][0], "FastCap");
    assert_eq!(agg.rows[1][0], "Eql-Pwr");
    let cells = &tables[1];
    assert_eq!(cells.id, "scn_matrix_cells");
    assert_eq!(cells.rows.len(), 4, "scenarios x mixes x policies");
    // Every cell carries an oracle verdict.
    for row in &cells.rows {
        let verdict = row.last().unwrap();
        assert!(
            verdict == "ok" || verdict.ends_with("viol"),
            "bad oracle cell: {verdict}"
        );
    }
    let legend = &tables[2];
    assert_eq!(legend.id, "scn_matrix_scenarios");
    assert_eq!(legend.rows.len(), 1);

    let parallel = tables_at(6);
    for (s, p) in tables.iter().zip(&parallel) {
        assert_eq!(s.to_csv(), p.to_csv(), "{} differs across job counts", s.id);
    }
}

#[test]
fn matrix_seed_changes_generated_scenarios() {
    let run_at = |seed: u64| {
        let spec = MatrixSpec::parse("MID1", "FastCap", 1).unwrap();
        let opts = Opts {
            quick: true,
            seed,
            jobs: 1,
            out_dir: std::env::temp_dir().join("fastcap_matrix_seed"),
            ..Opts::default()
        };
        run_matrix(&spec, &opts).unwrap()
    };
    let a = run_at(1);
    let b = run_at(2);
    let a2 = run_at(1);
    assert_ne!(
        a[2].to_csv(),
        b[2].to_csv(),
        "different seeds must generate different scenarios"
    );
    for (x, y) in a.iter().zip(&a2) {
        assert_eq!(x.to_csv(), y.to_csv(), "same seed must reproduce exactly");
    }
}
