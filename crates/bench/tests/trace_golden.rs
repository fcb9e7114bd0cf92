//! Golden byte-equality regression for the tracing layer.
//!
//! Two contracts (DESIGN.md §12), both pinned here:
//!
//! 1. **Tracing is invisible when off — and inert when on.** Running an
//!    artifact with `--trace` must produce byte-identical result tables
//!    to a run without it: the tracer only *reads* cost counters the run
//!    already maintains, it never mutates simulation state or RNG order.
//! 2. **Trace bytes obey the determinism contract.** The trace file
//!    itself is a published artifact: its bytes are identical at
//!    `--jobs 1` and `--jobs 8` and pinned by FNV-1a hashes, because
//!    every timestamp comes from the modeled-cost clock (CostCounter ×
//!    COST_MODEL.json), never wall clock, and streams are drained in a
//!    canonical sort order regardless of worker interleaving.
//!
//! Trace output is written to dedicated directories — the artifact-count
//! assertion in `golden.rs` runs over its own dirs, which never see a
//! `--trace` flag.

use fastcap_bench::costmodel::fnv1a;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Golden FNV-1a hashes of the Chrome-trace JSON emitted by
/// `repro trace <artifact> --quick --seed 42`. Pinned at the same seed
/// and mode as the artifact goldens; a flip here without a deliberate
/// trace-format change means event order, the modeled clock, or a
/// decision record drifted. (Both moved when the model-predictive
/// skeleton gave the baselines a bootstrap, warm carry and the
/// controller's reported trim, and again when the Newton-certified
/// bisection cut the counted solver work: only `ts`, `dur`,
/// `solver_iters` and `decide_ns` changed.)
const TRACE_GOLDEN: &[(&str, u64)] = &[
    ("scn_capstep.trace.json", 0x8077_2259_8e65_7a5d),
    ("scn_hotplug.trace.json", 0xbb92_ae54_d9e4_c4eb),
];

fn run_repro(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn hash_dir(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .expect("artifact dir exists")
        .map(|e| {
            let e = e.unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            (e.file_name().to_string_lossy().into_owned(), fnv1a(&bytes))
        })
        .collect()
}

#[test]
fn tracing_never_perturbs_artifact_bytes() {
    let base = std::env::temp_dir().join("fastcap_trace_inert");
    let _ = std::fs::remove_dir_all(&base);
    let plain = base.join("plain");
    let traced = base.join("traced");
    run_repro(&[
        "scn_capstep",
        "--quick",
        "--seed",
        "42",
        "--out",
        plain.to_str().unwrap(),
    ]);
    run_repro(&[
        "scn_capstep",
        "--quick",
        "--seed",
        "42",
        "--trace",
        base.join("side.trace.json").to_str().unwrap(),
        "--out",
        traced.to_str().unwrap(),
    ]);
    assert_eq!(
        hash_dir(&plain),
        hash_dir(&traced),
        "arming the tracer changed artifact bytes"
    );
}

#[test]
fn trace_bytes_are_pinned_at_any_job_and_lane_count() {
    let base = std::env::temp_dir().join("fastcap_trace_golden");
    let _ = std::fs::remove_dir_all(&base);
    let mut per_cell = Vec::new();
    for jobs in ["1", "8"] {
        let dir = base.join(format!("jobs{jobs}"));
        // `repro trace` defaults the trace file into the out dir as
        // `<artifact>.trace.json`; one invocation per artifact because a
        // single trace file holds one artifact's streams.
        for artifact in ["scn_capstep", "scn_hotplug"] {
            run_repro(&[
                "trace",
                artifact,
                "--quick",
                "--seed",
                "42",
                "--jobs",
                jobs,
                "--out",
                dir.to_str().unwrap(),
            ]);
        }
        // Only the trace files are under contract here; the result
        // tables they ride with are pinned by golden.rs.
        let traces: BTreeMap<String, u64> = hash_dir(&dir)
            .into_iter()
            .filter(|(name, _)| name.ends_with(".trace.json"))
            .collect();
        per_cell.push(traces);
    }
    assert_eq!(
        per_cell[0], per_cell[1],
        "trace bytes differ at --jobs 1 and --jobs 8"
    );

    let got = &per_cell[0];
    assert_eq!(
        got.len(),
        TRACE_GOLDEN.len(),
        "trace file set changed: {:?}",
        got.keys().collect::<Vec<_>>()
    );
    for &(name, want) in TRACE_GOLDEN {
        let have = got
            .get(name)
            .unwrap_or_else(|| panic!("missing trace file {name}"));
        assert_eq!(
            *have, want,
            "{name}: trace bytes drifted from the golden hash \
             (got {have:#018x}, want {want:#018x})"
        );
    }
}
