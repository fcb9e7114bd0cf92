//! Golden regression for the fleet layer (DESIGN.md §9).
//!
//! Two contracts:
//!
//! 1. **Ladder exactness anchor.** The `Des` tier wrapped in a one-server
//!    budget tree must reproduce the single-server `fig5` harness *bit
//!    for bit* at every fig5 budget — the tree's single-child
//!    water-filling pass-through and the `DesModel` wrapper both have to
//!    be bitwise no-ops for the ladder's "exact" rung to mean exact.
//! 2. **Byte-pinned `fleet_*` artifacts.** `repro fleet_ladder
//!    fleet_settle fleet_scale --quick --seed 42` is pinned via FNV-1a
//!    hashes and must agree at `--jobs 1` and `--jobs 8` — the fleet
//!    sweeps (surface recording, tier fleets, DES replays, the generated
//!    scenario population) may never leak scheduling into bytes.

use fastcap_bench::harness::{run_capped_only, Opts, PolicyKind};
use fastcap_bench::sweep::derive_seed;
use fastcap_fleet::{DesModel, Fleet, LeafSpec, TreeSpec};
use fastcap_scenario::FleetScenario;
use fastcap_workloads::mixes;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// FNV-1a, 64-bit: tiny, dependency-free, stable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The golden hashes of the fleet artifacts (quick mode, seed 42),
/// re-pinned with the loose-cap bias fix (DESIGN.md §13): the leaf
/// controllers' quantize-down/trim/bootstrap behavior and the
/// budget-step demand re-seed changed every fleet power trajectory.
/// Only `fleet_scale` kept its bytes — it reports backend op counts,
/// which the demand re-seed does not touch.
const FLEET_GOLDEN: &[(&str, u64)] = &[
    ("fleet_ladder.csv", 0x6426_e47d_7337_8d29),
    ("fleet_ladder.json", 0x1b08_5de5_fd60_c7ae),
    ("fleet_ladder_leaves.csv", 0xdb30_6b4e_9f79_6697),
    ("fleet_ladder_leaves.json", 0x7b88_b18d_19db_8641),
    ("fleet_scale.csv", 0x1558_c866_7a8d_4635),
    ("fleet_scale.json", 0x6dde_8a71_3b86_9468),
    ("fleet_settle.csv", 0xced4_1647_1a0f_5ca7),
    ("fleet_settle.json", 0x1c10_4ca7_89fa_bf83),
    ("fleet_settle_population.csv", 0x23af_de75_b632_8859),
    ("fleet_settle_population.json", 0x887f_a297_a67c_7727),
    ("fleet_settle_trace.csv", 0x950c_b313_8b73_e4a0),
    ("fleet_settle_trace.json", 0xcceb_4a4b_393e_3512),
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
fn des_tier_in_a_one_server_tree_reproduces_fig5_bit_for_bit() {
    let opts = Opts {
        quick: true,
        ..Opts::default()
    };
    let cfg = opts.sim_config(16).unwrap();
    let mix = mixes::by_name("MEM3").expect("MEM3 exists");
    let epochs = opts.epochs();
    // fig5 runs its budgets on sweep stream 0 of the global seed; the
    // fleet derives leaf 0's seed as stream 0 of the fleet seed — so a
    // fleet seeded with the global seed hands leaf 0 exactly fig5's seed.
    let fleet_seed = opts.seed;
    let leaf_seed = derive_seed(fleet_seed, 0);

    for b in [0.4, 0.6, 0.8] {
        // The payload names what the leaf runs; `build` ignores it.
        let spec = TreeSpec::leaf(
            "solo",
            LeafSpec {
                mix: "MEM3".into(),
                n_cores: 16,
                policy: "FastCap".into(),
            },
        );
        let mut build = |_leaf: &LeafSpec, seed: u64, fraction: f64| {
            DesModel::new(cfg.clone(), &mix, "FastCap", fraction, seed)
        };
        let mut fleet =
            Fleet::new(&spec, &FleetScenario::empty(), b, fleet_seed, &mut build).unwrap();
        let run = fleet.run(epochs).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);

        let standalone =
            run_capped_only(&cfg, &mix, PolicyKind::FastCap, b, epochs, leaf_seed).unwrap();
        let wrapped = fleet.leaf_model(0).result();
        assert_eq!(wrapped.epochs.len(), standalone.epochs.len());
        assert_eq!(
            wrapped.epochs, standalone.epochs,
            "B={b}: one-server fleet Des tier diverged from the fig5 harness"
        );
    }
}

#[test]
fn fleet_artifact_bytes_are_pinned_at_any_job_and_lane_count() {
    let base = std::env::temp_dir().join("fastcap_fleet_golden");
    let _ = std::fs::remove_dir_all(&base);
    let mut per_cell = Vec::new();
    for jobs in ["1", "8"] {
        let dir = base.join(format!("jobs{jobs}"));
        run_repro(&[
            "fleet_ladder",
            "fleet_settle",
            "fleet_scale",
            "--quick",
            "--seed",
            "42",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().unwrap(),
        ]);
        per_cell.push(hash_dir(&dir));
    }
    assert_eq!(
        per_cell[0], per_cell[1],
        "fleet artifact bytes differ at --jobs 1 and --jobs 8"
    );

    let got = &per_cell[0];
    assert_eq!(
        got.len(),
        FLEET_GOLDEN.len(),
        "fleet artifact set changed: {:?}",
        got.keys().collect::<Vec<_>>()
    );
    for &(name, want) in FLEET_GOLDEN {
        let have = got
            .get(name)
            .unwrap_or_else(|| panic!("missing fleet artifact {name}"));
        assert_eq!(
            *have, want,
            "{name}: bytes drifted from the golden hash \
             (got {have:#018x}, want {want:#018x})"
        );
    }
}
