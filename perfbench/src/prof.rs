//! Benchmark-side span recorder.
//!
//! The benchmark wraps each call into a layer of the program in
//! [`span`]. With tracing off, a span is only the call. With tracing on,
//! it records the layer, its start and end on one monotonic clock, the
//! enclosing span and the closed-loop run it belongs to. Spans stay in
//! memory until the benchmark writes them out at exit. A layer's self time
//! is its span minus the time covered by its direct child spans
//! ([`self_times`]).
//!
//! The recorder is thread-local: every workload runs on one thread, and
//! tests running on parallel threads get independent recorders.

use fastcap_bench::PolicyKind;
use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One step of a workload, as the benchmark loop runs it.
    Step,
    /// `ScenarioRunner::run`, which owns its DES epochs.
    ScenarioRun,
    /// `EpochBackend::run_epoch` on the DES `Server`.
    SimEpoch,
    /// `EpochBackend::run_epoch` on `AnalyticServer`.
    AnalyticEpoch,
    /// `CappingPolicy::decide` of `PolicyKind::SCENARIO_SET[i]`.
    Decide(u8),
    /// `FastCapController::observe`.
    Observe,
    /// `FastCapController::solve_quantized`.
    Solve,
    /// `oracle::check_run`.
    Oracle,
    /// One `Fleet::run` epoch.
    FleetEpoch,
    /// `ServerModel::step` of one fleet leaf.
    LeafStep,
}

impl Layer {
    /// The `decide` layer of the policy called `name`, if it is one of
    /// `PolicyKind::SCENARIO_SET`.
    #[must_use]
    pub fn decide(name: &str) -> Option<Layer> {
        PolicyKind::SCENARIO_SET
            .iter()
            .position(|k| k.name() == name)
            .map(|i| Layer::Decide(i as u8))
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Step => write!(f, "step"),
            Layer::ScenarioRun => write!(f, "scenario.run"),
            Layer::SimEpoch => write!(f, "sim.epoch"),
            Layer::AnalyticEpoch => write!(f, "sim.analytic_epoch"),
            Layer::Decide(i) => write!(
                f,
                "policies.decide.{}",
                PolicyKind::SCENARIO_SET[usize::from(*i)].name()
            ),
            Layer::Observe => write!(f, "core.observe"),
            Layer::Solve => write!(f, "core.solve"),
            Layer::Oracle => write!(f, "scenario.oracle"),
            Layer::FleetEpoch => write!(f, "fleet.epoch"),
            Layer::LeafStep => write!(f, "fleet.leaf_step"),
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder was armed.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Closed-loop run the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration, ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        run: 0,
    });
}

/// Arms (`true`) or disarms the recorder and drops every recorded span.
pub fn reset(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.origin = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.run = 0;
    });
}

/// Whether spans are being recorded.
#[must_use]
pub fn armed() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Starts a new closed-loop run: spans recorded from now on carry its id.
pub fn next_run() {
    REC.with(|r| r.borrow_mut().run += 1);
}

/// Calls `f` inside a span of `layer` (recorded only when armed).
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let span = Span {
            layer,
            start_ns: r.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            run: r.run,
        };
        r.spans.push(span);
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[idx as usize].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// CPU time the process has used, ns (Linux).
///
/// Host time is taken on this clock — step durations, set-ups and decide
/// latencies — so that time the process spends descheduled does not count:
/// on a shared virtual machine, hypervisor steal and preemption add about
/// a millisecond at a time and stretch whole runs by up to a third.
#[must_use]
#[allow(unsafe_code)]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and CLOCK_PROCESS_CPUTIME_ID is a clock Linux always has.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Takes every recorded span out of the recorder.
#[must_use]
pub fn take_spans() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span, ns: its duration minus its direct children's.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] = out[p as usize].saturating_sub(s.dur_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        reset(true);
        next_run();
        span(Layer::Step, || {
            span(Layer::SimEpoch, || std::hint::black_box(1 + 1));
            span(Layer::Decide(0), || {
                span(Layer::Solve, || std::hint::black_box(2 + 2));
            });
        });
        let spans = take_spans();
        reset(false);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.run == 1 && s.end_ns >= s.start_ns));
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(own[2], spans[2].dur_ns() - spans[3].dur_ns());
    }

    #[test]
    fn disarmed_recorder_keeps_nothing() {
        reset(false);
        assert_eq!(span(Layer::Oracle, || 7), 7);
        assert!(take_spans().is_empty());
    }
}
