//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints its metrics, one per
//! line, then a JSON object with `correct`, `attempted`, `failed` and
//! `metrics` as the last line. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones. A run is incorrect when its
//! simulated outputs differ from the first run of the same build, workload
//! and seed (digests are kept next to the executable).

use fastcap_bench::costmodel::{fnv1a, CostModel};
use perfbench::report::{self, Metric};
use perfbench::{measure, prof, workloads};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload \
     <scn-matrix|manycore-256|fleet-settle|all|des-platforms|manycore-256-b40> \
     --seed <u64> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| bad("seconds"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where this build keeps its digests and span dumps: next to the
/// executable, under a directory named by the executable's own hash, so
/// every build compares only with itself.
fn state_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-state")
        .join(format!("{:016x}", fnv1a(&bytes)));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `true` when `digest` matches the first run's (recording it if this is
/// the first run of the build, workload and seed).
fn digest_matches(dir: &Path, workload: &str, seed: u64, digest: u64) -> Result<bool, String> {
    let path = dir.join(format!("{workload}-{seed}.digest"));
    let hex = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(first) => Ok(first.trim() == hex),
        Err(_) => std::fs::write(&path, &hex)
            .map(|()| true)
            .map_err(|e| format!("write {}: {e}", path.display())),
    }
}

fn write_spans(dir: &Path, workload: &str, spans: &[prof::Span]) -> Result<(), String> {
    let path = dir.join(format!("{workload}.spans.tsv"));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(w, "id\tlayer\tstart_ns\tend_ns\tparent\trun")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer, s.start_ns, s.end_ns, s.run
            )?;
        }
        w.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}

/// One workload's outcome.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_one(name: &str, args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut w = workloads::build(name, args.seed).map_err(|e| e.to_string())?;
    let m = measure::run(w.as_mut(), args.seconds as f64, args.trace).map_err(|e| e.to_string())?;
    // A traced run also prints its end-to-end figures, so traced minus
    // untraced `epochs_per_s` gives the span overhead.
    let end_to_end = report::end_to_end(&m);
    let per_layer = if args.trace {
        let model = CostModel::embedded().map_err(|e| e.to_string())?;
        write_spans(dir, name, &m.spans)?;
        report::per_layer(&m, &model.weights.ns)
    } else {
        Vec::new()
    };
    let same = digest_matches(dir, name, args.seed, m.digest)?;
    let correct = same && m.mismatched_passes == 0;
    let failed = if same { m.failed } else { m.attempted };
    println!(
        "# {name} seed={} trace={} passes={} decides={} decides_per_pass={} settled_epochs={} \
         digest={:016x}{}",
        args.seed,
        u8::from(args.trace),
        m.passes,
        m.tally.fastcap_decide_ns.len(),
        m.decide_ns.len(),
        m.quality.settled_epochs(),
        m.digest,
        if same {
            ""
        } else {
            " (differs from the first run)"
        },
    );
    for x in end_to_end.iter().chain(&per_layer) {
        println!("{name} {} {} {}", x.name, x.value, x.unit);
    }
    println!(
        "{name} failed_share {} share ({failed} of {} operations)",
        failed as f64 / m.attempted.max(1) as f64,
        m.attempted
    );
    Ok(Outcome {
        correct,
        attempted: m.attempted,
        failed,
        metrics: if args.trace { per_layer } else { end_to_end },
    })
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &Metric)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let result = state_dir().and_then(|dir| {
        names
            .iter()
            .map(|n| run_one(n, &args, &dir).map(|o| (*n, o)))
            .collect::<Result<Vec<_>, String>>()
    });
    let outcomes = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One workload reports its metrics by name; `all` prefixes each with
    // its workload.
    let prefix = names.len() > 1;
    let metrics: Vec<(String, &Metric)> = outcomes
        .iter()
        .flat_map(|(n, o)| {
            o.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{n}.{}", m.name)
                } else {
                    m.name.clone()
                };
                (name, m)
            })
        })
        .collect();
    println!(
        "{}",
        json(
            outcomes.iter().all(|(_, o)| o.correct),
            outcomes.iter().map(|(_, o)| o.attempted).sum(),
            outcomes.iter().map(|(_, o)| o.failed).sum(),
            &metrics,
        )
    );
    ExitCode::SUCCESS
}
