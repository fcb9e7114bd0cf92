#!/usr/bin/env bash
# Same-runner performance A/B gate.
#
#   .github/perf-ab.sh BASE_REV
#
# Builds perfbench at BASE_REV (in a temporary git worktree) and at the
# checked-out tree, then runs 3 alternating base/head pairs of 5-s
# untraced runs of each workload below on this machine. It fails when a
# head run is not `correct` or has failed operations, or when the head's
# median `epochs_per_s` is below the base's by more than the bound
# BENCHMARK.json gives that metric. The head build is the one
# `cargo run --release --offline --manifest-path perfbench/Cargo.toml`
# makes, so a tree that has already run perfbench is not rebuilt.
#
# perf-ab/ at the repository root receives each run's final JSON line,
# one file per build and workload (`base-scn-matrix.jsonl`, ...), and
# summary.txt.
set -euo pipefail

base_rev=${1:?usage: .github/perf-ab.sh BASE_REV}
out=perf-ab
workloads=(scn-matrix manycore-256)
pairs=3
seconds=5

root=$(git rev-parse --show-toplevel)
cd "$root"
mkdir -p "$out"
rm -f "$out"/*.jsonl "$out/summary.txt"

wt=$(mktemp -d)
trap 'git worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"' EXIT
git worktree add --detach "$wt" "$base_rev" >/dev/null

for tree in "$root" "$wt"; do
  cargo build --release --offline -q --manifest-path "$tree/perfbench/Cargo.toml"
done

run() { # run <base|head> <workload>
  local tree=$root
  [ "$1" = base ] && tree=$wt
  "$tree/perfbench/target/release/perfbench" \
    --workload "$2" --seed 42 --seconds "$seconds" --trace 0 \
    | tail -n 1 >> "$out/$1-$2.jsonl"
}

for w in "${workloads[@]}"; do
  for ((p = 0; p < pairs; p++)); do
    # Swap the order every pair so a drifting host favours neither build.
    if ((p % 2 == 0)); then
      run base "$w"; run head "$w"
    else
      run head "$w"; run base "$w"
    fi
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF' | tee "$out/summary.txt"
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bound = next(m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]
             if m["name"] == "epochs_per_s")
ok = True
for w in workloads:
    runs = {b: [json.loads(l) for l in open(f"{out}/{b}-{w}.jsonl")]
            for b in ("base", "head")}
    med = {b: statistics.median(r["metrics"]["epochs_per_s"]["value"] for r in rs)
           for b, rs in runs.items()}
    ratio = med["head"] / med["base"]
    bad = sum(r["correct"] is not True or r["failed"] != 0 for r in runs["head"])
    verdict = "ok"
    if bad:
        verdict = f"FAIL: {bad} head run(s) not correct or with failed operations"
    elif ratio < 1 - bound:
        verdict = f"FAIL: below the {1 - bound:.2f} floor"
    ok = ok and verdict == "ok"
    print(f"{w}: epochs_per_s median base {med['base']:.1f} head {med['head']:.1f} "
          f"ratio {ratio:.3f} ({verdict})")
sys.exit(0 if ok else 1)
EOF
