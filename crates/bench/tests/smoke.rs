//! Smoke tests for the experiment harness: cheap runners execute and
//! produce well-formed tables; the dispatcher knows every artifact id; the
//! `repro` binary handles `--list` and bad artifact names.

use fastcap_bench::experiments;
use fastcap_bench::harness::Opts;
use std::process::Command;

fn quick_opts() -> Opts {
    Opts {
        quick: true,
        seed: 1,
        out_dir: std::env::temp_dir().join("fastcap_bench_smoke"),
        ..Opts::default()
    }
}

#[test]
fn dispatcher_rejects_unknown_ids() {
    assert!(experiments::run("fig99", &quick_opts()).is_err());
    assert!(experiments::run("", &quick_opts()).is_err());
}

#[test]
fn all_ids_are_known_to_the_dispatcher() {
    // Every id in ALL must at least dispatch (we only *run* the cheap one
    // here; the expensive ones are covered by the repro binary itself).
    assert!(experiments::ALL.contains(&"fig3"));
    assert!(experiments::ALL.contains(&"overhead"));
    assert!(experiments::ALL.contains(&"scaling"));
    assert!(experiments::ALL.contains(&"scn_capstep"));
    assert!(experiments::ALL.contains(&"scn_flashcrowd"));
    assert!(experiments::ALL.contains(&"scn_hotplug"));
    assert!(experiments::ALL.contains(&"fleet_ladder"));
    assert!(experiments::ALL.contains(&"fleet_settle"));
    assert!(experiments::ALL.contains(&"fleet_scale"));
    assert!(experiments::ALL.contains(&"bias_ablation"));
    assert_eq!(experiments::ALL.len(), 24);
}

#[test]
fn tab3_regenerates_table_iii() {
    let tables = experiments::run("tab3", &quick_opts()).unwrap();
    assert_eq!(tables.len(), 1);
    let t = &tables[0];
    assert_eq!(t.rows.len(), 16, "sixteen mixes");
    // Spot-check a Table III value straight out of the artifact.
    let mem1 = t.rows.iter().find(|r| r[0] == "MEM1").unwrap();
    assert_eq!(mem1[1], "18.22");
    assert_eq!(mem1[3], "swim applu galgel equake");
    // Artifacts are writable.
    t.write_to(&quick_opts().out_dir).unwrap();
    assert!(quick_opts().out_dir.join("tab3.csv").exists());
}

#[test]
fn repro_list_prints_every_artifact_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("run repro --list");
    assert!(out.status.success(), "--list exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, experiments::ALL, "--list must print ALL, in order");
}

#[test]
fn repro_rejects_unknown_artifacts_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99")
        .output()
        .expect("run repro fig99");
    assert!(
        !out.status.success(),
        "unknown artifact must exit non-zero, got {:?}",
        out.status
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown artifact `fig99`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    // No-argument invocation also fails with the usage string.
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("usage: repro"));
}

#[test]
fn repro_rejects_invalid_lane_counts_with_usage() {
    // `--lanes` is gone (`--jobs` is the only thread knob), so any lane
    // count, valid or not, must exit non-zero and print the usage string:
    // a stale `--lanes` may never be silently ignored.
    for bad in [
        &["fig3", "--lanes", "0"][..],
        &["fig3", "--lanes", "two"],
        &["fig3", "--lanes"],
        &["fig3", "--lanes", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(bad)
            .output()
            .expect("run repro with --lanes");
        assert!(
            !out.status.success(),
            "repro {bad:?} must exit non-zero, got {:?}",
            out.status
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unknown flag --lanes"), "{stderr}");
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
}

#[test]
fn tab1_theory_rows_cover_the_paper() {
    let tables = experiments::run("tab1", &quick_opts()).unwrap();
    let theory = tables.iter().find(|t| t.id == "tab1_theory").unwrap();
    assert!(theory.rows.iter().any(|r| r[0].contains("FastCap")));
    assert!(theory.rows.iter().any(|r| r[1] == "O(F^N)"));
    // The measured FastCap table shows per-core cost flattening out.
    let fast = tables.iter().find(|t| t.id == "tab1_fastcap").unwrap();
    assert!(fast.rows.len() >= 4);
}
