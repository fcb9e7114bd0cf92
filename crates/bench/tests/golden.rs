//! Golden byte-equality regression for the DES hot path and the scenario
//! engine.
//!
//! Pins the exact artifact bytes of `repro fig5 --quick`, `repro fig12
//! --quick` (which also emits fig13) and the three `scn_*` scenario
//! artifacts at seed 42, via FNV-1a hashes. The fig5/fig12 hashes were
//! taken on the pre-overhaul `BinaryHeap` engine and reverified
//! unchanged after both the timing-wheel swap (PR 3) and the
//! scenario-engine hooks (PR 4) — static artifacts must never move. The
//! scn_* hashes pin the scenario engine itself: injected-event order,
//! the budget re-solve path, hotplug projection/scatter, and the policy
//! comparison set (incl. beam-search MaxBIPS). Any future change that perturbs
//! event order, RNG draw order, or reduce order will flip these hashes —
//! and must either be a deliberate, documented artifact change or a bug.
//! `--jobs 1` and `--jobs 8` must agree: two-level sharding may never
//! leak into bytes (DESIGN.md §5, §11).
//!
//! Since the modeled cost model landed (DESIGN.md §10), the timing
//! artifacts (`tab1`, `overhead`, `scaling`) are pinned too: their
//! latency columns are operation counts priced by the checked-in
//! `COST_MODEL.json`, not wall-clock, so they obey the same byte contract
//! as everything else. Their pins live in
//! `fastcap_bench::costmodel::TIMING_GOLDENS` (shared with `repro
//! costgate`).

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

/// The golden hashes, re-pinned when the loose-cap bias fix (DESIGN.md
/// §13: quantize-down actuation, slack-feedback trim, fitter sample
/// aging, bootstrap first decision) changed every simulated power
/// trajectory — a deliberate whole-set re-golden, enumerated in the PR.
/// The new pins are again invariant across jobs, lanes and queue
/// implementation. (The previous whole-set re-golden was the PR 8 lane
/// engine; before that the pins dated from the pre-overhaul
/// `BinaryHeap` engine.) `bias_ablation` — the fix's decomposition
/// artifact — is pinned here alongside the trajectories it guards. The
/// 16 `scn_*` pins moved once more when the model-predictive skeleton
/// (DESIGN.md §7) gave every baseline FastCap's epoch-0 bootstrap and
/// warm-carry hotplug: MaxBIPS-beam's rows and the Eql-Pwr/Eql-Freq
/// hotplug rows changed, while every FastCap, CPU-only and Freq-Par row
/// kept its bytes.
const GOLDEN: &[(&str, u64)] = &[
    ("bias_ablation.csv", 0x98f0_032f_a2ad_cdc9),
    ("bias_ablation.json", 0x2936_35f9_1109_c930),
    ("fig12.csv", 0x8d9f_87c7_1c55_be87),
    ("fig12.json", 0x86da_5556_0fd0_8f3b),
    ("fig13.csv", 0xa0a3_6f13_72e8_1e6f),
    ("fig13.json", 0xc8a0_ccf5_6c03_ff0e),
    ("fig5.csv", 0xf828_06fb_80f5_8aab),
    ("fig5.json", 0xcd80_7fd5_80d8_d2af),
    ("fig5_recovery.csv", 0xbf22_50e9_9b61_88f3),
    ("fig5_recovery.json", 0x75b0_0f9f_6d85_ae30),
    ("scn_capstep.csv", 0x68d8_ad32_b212_33e9),
    ("scn_capstep.json", 0x9a54_d6e3_fbe9_579c),
    ("scn_capstep_recovery.csv", 0xa303_daad_2d83_d868),
    ("scn_capstep_recovery.json", 0x0dfa_82fa_97d7_7ba8),
    ("scn_capstep_trace.csv", 0xeedc_cde4_2f41_2376),
    ("scn_capstep_trace.json", 0x7c58_472a_ace4_fb4d),
    ("scn_flashcrowd.csv", 0x503c_a533_43c5_9665),
    ("scn_flashcrowd.json", 0x6e13_029b_a419_3bd2),
    ("scn_flashcrowd_pre.csv", 0xe882_f594_8f64_741d),
    ("scn_flashcrowd_pre.json", 0x2259_2dd4_b7fd_af05),
    ("scn_flashcrowd_trace.csv", 0x9084_baff_cc61_2455),
    ("scn_flashcrowd_trace.json", 0x3fb0_58a3_11ea_403c),
    ("scn_hotplug.csv", 0x10e8_4c46_da62_8433),
    ("scn_hotplug.json", 0x494e_30ea_a288_d2e9),
    ("scn_hotplug_trace.csv", 0x9a1e_02cd_1776_5dc6),
    ("scn_hotplug_trace.json", 0xd386_51b5_674d_6ca6),
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
fn fig5_and_fig12_13_bytes_are_pinned_at_any_job_and_lane_count() {
    let base = std::env::temp_dir().join("fastcap_golden");
    let _ = std::fs::remove_dir_all(&base);
    // Bytes are invariant in artifact and sweep sharding (--jobs); each
    // simulation runs on one thread with per-core draw lanes (DESIGN.md
    // §11).
    let mut per_cell = Vec::new();
    for jobs in ["1", "8"] {
        let dir = base.join(format!("jobs{jobs}"));
        run_repro(&[
            "fig5",
            "fig12",
            "scn_capstep",
            "scn_flashcrowd",
            "scn_hotplug",
            "tab1",
            "overhead",
            "scaling",
            "bias_ablation",
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
        "artifact bytes differ at --jobs 1 and --jobs 8"
    );

    let got = &per_cell[0];
    let timing = fastcap_bench::costmodel::TIMING_GOLDENS;
    assert_eq!(
        got.len(),
        GOLDEN.len() + timing.len(),
        "artifact set changed: {:?}",
        got.keys().collect::<Vec<_>>()
    );
    for &(name, want) in GOLDEN.iter().chain(timing) {
        let have = got
            .get(name)
            .unwrap_or_else(|| panic!("missing artifact {name}"));
        assert_eq!(
            *have, want,
            "{name}: bytes drifted from the golden hash \
             (got {have:#018x}, want {want:#018x})"
        );
    }
}
