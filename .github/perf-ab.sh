#!/usr/bin/env bash
# Same-runner performance A/B gate.
#
#   .github/perf-ab.sh BASE_REV
#
# Builds perfbench at BASE_REV (in a temporary git worktree) and at the
# checked-out tree, then runs 3 alternating base/head pairs of 5-s
# untraced runs of each workload below on this machine. It fails when a
# head run is not `correct` or has failed operations, when the head's
# median `epochs_per_s` is below the base's by more than the bound
# BENCHMARK.json gives that metric, or when the head's median
# `peak_rss_mb` is above the base's by more than that metric's bound.
# The head build is the one
# `cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml`
# makes, so a tree that has already run perfbench is not rebuilt.
# `--locked` refuses a tree whose manifests would rewrite the frozen
# perfbench/Cargo.lock.
#
# perf-ab/ at the repository root receives each run's `# ...` header
# line and its final JSON line, one file of each per build and workload
# (`base-scn-matrix.headers`, `base-scn-matrix.jsonl`, ...), and
# summary.txt. Besides the verdict, the summary says for each workload
# whether HEAD's digests equal BASE's (same simulated outputs) and lists
# every run's `decides=`, which on `fleet-settle` must stay below
# perfbench's 2^20 decide-sample room. Neither is a failure condition: a
# deliberate re-golden changes digests.
set -euo pipefail

base_rev=${1:?usage: .github/perf-ab.sh BASE_REV}
out=perf-ab
workloads=(scn-matrix manycore-256 fleet-settle)
pairs=3
seconds=5

root=$(git rev-parse --show-toplevel)
cd "$root"
mkdir -p "$out"
rm -f "$out"/*.jsonl "$out"/*.headers "$out/summary.txt"

wt=$(mktemp -d)
trap 'git worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"' EXIT
git worktree add --detach "$wt" "$base_rev" >/dev/null

for tree in "$root" "$wt"; do
  cargo build --release --offline --locked -q --manifest-path "$tree/perfbench/Cargo.toml"
done

run() { # run <base|head> <workload>
  local tree=$root
  [ "$1" = base ] && tree=$wt
  local lines
  lines=$("$tree/perfbench/target/release/perfbench" \
    --workload "$2" --seed 42 --seconds "$seconds" --trace 0)
  grep '^# ' <<<"$lines" >> "$out/$1-$2.headers"
  tail -n 1 <<<"$lines" >> "$out/$1-$2.jsonl"
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
import json, re, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
ok = True
for w in workloads:
    runs = {b: [json.loads(l) for l in open(f"{out}/{b}-{w}.jsonl")]
            for b in ("base", "head")}
    def ratio(metric):
        med = {b: statistics.median(r["metrics"][metric]["value"] for r in rs)
               for b, rs in runs.items()}
        return med["base"], med["head"], med["head"] / med["base"]
    speed, rss = ratio("epochs_per_s"), ratio("peak_rss_mb")
    bad = sum(r["correct"] is not True or r["failed"] != 0 for r in runs["head"])
    verdict = "ok"
    if bad:
        verdict = f"FAIL: {bad} head run(s) not correct or with failed operations"
    elif speed[2] < 1 - bounds["epochs_per_s"]:
        verdict = f"FAIL: epochs_per_s below the {1 - bounds['epochs_per_s']:.2f} floor"
    elif rss[2] > 1 + bounds["peak_rss_mb"]:
        verdict = f"FAIL: peak_rss_mb above the {1 + bounds['peak_rss_mb']:.2f} ceiling"
    ok = ok and verdict == "ok"
    print(f"{w}: epochs_per_s median base {speed[0]:.1f} head {speed[1]:.1f} "
          f"ratio {speed[2]:.3f}; peak_rss_mb median base {rss[0]:.2f} head {rss[1]:.2f} "
          f"ratio {rss[2]:.3f} ({verdict})")
    fields = {b: [dict(re.findall(r"(\w+)=(\S+)", l)) for l in open(f"{out}/{b}-{w}.headers")]
              for b in ("base", "head")}
    digests = {b: sorted({h["digest"] for h in hs}) for b, hs in fields.items()}
    same = "equal" if digests["base"] == digests["head"] else "DIFFER"
    print(f"  digests {same}: base {' '.join(digests['base'])} head {' '.join(digests['head'])}")
    print("  decides: " + "; ".join(
        f"{b} {' '.join(h['decides'] for h in hs)}" for b, hs in fields.items()))
sys.exit(0 if ok else 1)
EOF
