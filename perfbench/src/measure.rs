//! The closed measurement loop: set up, then run passes of a workload's
//! steps until the time is up.

use crate::prof::{self, Layer, Span};
use crate::tally::{self, Tally};
use crate::workloads::{Quality, Workload};
use fastcap_core::error::Result;
use std::time::{Duration, Instant};

/// Set-ups timed before each pass; the pass runs on the last one.
pub const SETUPS_PER_PASS: usize = 4;

/// Counts of the first pass, which repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounts {
    /// `on_budget_change` calls.
    pub budget_moves: u64,
    /// Warm-carried hotplug events.
    pub warm_carries: u64,
    /// Scenario control events applied.
    pub control_events: u64,
}

/// Everything one measured run produced.
#[derive(Debug, Default)]
pub struct Measurement {
    /// CPU seconds of every set-up.
    pub setup_s: Vec<f64>,
    /// CPU ns of each step, per step index, one entry per pass.
    pub step_ns: Vec<Vec<u64>>,
    /// CPU ns of each FastCap `decide` of a pass, in call order: the
    /// fastest of the passes that reached it.
    pub decide_ns: Vec<u32>,
    /// Simulated epochs of each step (the same in every pass).
    pub step_epochs: Vec<u64>,
    /// Operations attempted and failed, over all passes.
    pub attempted: u64,
    /// See [`Measurement::attempted`].
    pub failed: u64,
    /// Passes run to the end.
    pub passes: usize,
    /// Digest of the first pass's simulated outputs.
    pub digest: u64,
    /// Complete passes whose digest differed from the first pass's.
    pub mismatched_passes: usize,
    /// FastCap's quality over the first pass.
    pub quality: Quality,
    /// First-pass counts.
    pub counts: PassCounts,
    /// Counters of the whole measured window.
    pub tally: Tally,
    /// Spans of the whole measured window (traced runs only).
    pub spans: Vec<Span>,
}

/// Runs passes of `w` until `seconds` have passed since the first one
/// started, setting each up [`SETUPS_PER_PASS`] times first, so that
/// set-ups are timed across the whole run. Tearing the previous pass down
/// is not part of a set-up's time. The first pass always runs to the end;
/// a later pass stops at the first step that would start late.
///
/// # Errors
///
/// Propagates set-up failures. Failures inside a step count as failed
/// operations instead.
pub fn run(w: &mut dyn Workload, seconds: f64, trace: bool) -> Result<Measurement> {
    let mut m = Measurement::default();
    prof::reset(false);
    let n = w.steps();
    m.step_ns = vec![Vec::new(); n];
    m.step_epochs = vec![0; n];
    let window = Duration::from_secs_f64(seconds);
    // Index of each pass's first decide sample.
    let mut decide_starts = Vec::new();
    let start = Instant::now();
    'passes: for pass in 0.. {
        if pass > 0 && start.elapsed() >= window {
            break;
        }
        for _ in 0..SETUPS_PER_PASS {
            w.teardown();
            let t = prof::cpu_ns();
            w.setup()?;
            m.setup_s.push((prof::cpu_ns() - t) as f64 / 1e9);
        }
        if pass == 0 {
            tally::reset();
            prof::reset(trace);
        }
        decide_starts.push(tally::with(|t| t.fastcap_decide_ns.len()));
        let _ = tally::take_digest();
        let mut quality = Quality::default();
        let (mut pass_ops, mut pass_failed) = (0, 0);
        for i in 0..n {
            if pass > 0 && start.elapsed() >= window {
                break 'passes;
            }
            let t = prof::cpu_ns();
            let step = prof::span(Layer::Step, || w.run_step(i, &mut quality));
            m.step_ns[i].push(prof::cpu_ns() - t);
            m.step_epochs[i] = step.epochs;
            m.attempted += step.attempted;
            m.failed += step.failed;
            pass_ops += step.attempted;
            pass_failed += step.failed;
        }
        let digest = tally::take_digest().0;
        m.passes += 1;
        if pass == 0 {
            m.digest = digest;
            m.quality = quality;
            m.counts = tally::with(|t| PassCounts {
                budget_moves: t.budget_moves,
                warm_carries: t.warm_carries,
                control_events: t.control_events,
            });
        } else if digest != m.digest {
            m.mismatched_passes += 1;
            m.failed += pass_ops - pass_failed;
        }
    }
    m.spans = prof::take_spans();
    prof::reset(false);
    m.tally = tally::take();
    m.decide_ns = fastest_per_index(&m.tally.fastcap_decide_ns, &decide_starts);
    Ok(m)
}

/// Splits `samples` into passes at `starts` and returns, for each
/// position within a pass, the smallest sample of the passes that
/// reached it. Every pass makes the same calls in the same order, so the
/// fastest of them is the one least disturbed by the host.
fn fastest_per_index(samples: &[u32], starts: &[usize]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for (i, &lo) in starts.iter().enumerate() {
        let hi = starts.get(i + 1).copied().unwrap_or(samples.len());
        for (j, &x) in samples[lo..hi].iter().enumerate() {
            match out.get_mut(j) {
                Some(y) => *y = (*y).min(x),
                None => out.push(x),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::fastest_per_index;

    #[test]
    fn fastest_per_index_aligns_passes() {
        // Three passes; the last stopped after two calls.
        let samples = [5, 9, 4, 6, 3, 7, 2, 8];
        assert_eq!(fastest_per_index(&samples, &[0, 3, 6]), vec![2, 3, 4]);
        assert_eq!(fastest_per_index(&[], &[0]), Vec::<u32>::new());
    }
}
