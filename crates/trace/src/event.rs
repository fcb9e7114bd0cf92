//! The typed event vocabulary.
//!
//! One enum, a handful of variants — each one a decision point or state
//! transition an operator would want on a timeline. Adding an event type
//! (DESIGN.md §12): add a variant here, emit it from the owning layer
//! under the `Option<&mut Tracer>` check, and teach
//! [`crate::export::chrome_trace_json`] how to render it (pick a track,
//! a phase, and stable `args` keys).

/// Why a policy chose what it chose, for one governed epoch.
///
/// The record pairs the *inputs* the policy saw (in-force budget, the
/// observation summary from the previous epoch) with the *work* it did
/// (solver iterations, candidates examined) and the *outcome* (chosen
/// frequency vector, predicted vs. measured power, remaining slack).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Epoch index within the run (0-based).
    pub epoch: u64,
    /// Policy name (`CappingPolicy::name`).
    pub policy: String,
    /// In-force absolute power budget, if the policy is capping.
    pub budget_w: Option<f64>,
    /// Total measured power from the observation the policy decided on
    /// (one epoch stale by construction — the control loop's latency).
    pub observed_w: f64,
    /// Solver inner-loop iterations spent on this decision.
    pub solver_iters: u64,
    /// Candidate configurations examined (bus points + grid points).
    pub candidates: u64,
    /// Chosen per-core frequency levels (ladder indices).
    pub core_freqs: Vec<usize>,
    /// Chosen memory frequency level.
    pub mem_freq: usize,
    /// Power the policy's model predicted at the *continuous* optimum
    /// (saturates the cap when budget-bound, by Theorem 1).
    pub predicted_w: f64,
    /// Power the model predicts at the **quantized** ladder point — the
    /// frequencies actually actuated. The number to audit against the
    /// cap: with quantize-down it stays at or below the effective budget
    /// whenever the solve is budget-bound.
    pub quantized_w: f64,
    /// Slack-feedback integrator trim subtracted from the cap for this
    /// solve (0 = disabled or fully unwound).
    pub trim_w: f64,
    /// Power actually measured over the governed epoch.
    pub measured_w: f64,
    /// `budget_w - measured_w` (negative = overshoot), when capping.
    pub slack_w: Option<f64>,
    /// The continuous optimum was budget-bound before quantization.
    pub budget_bound: bool,
    /// The policy engaged its emergency path.
    pub emergency: bool,
    /// Modeled nanoseconds this decision cost (the policy's
    /// `decision_cost` delta priced by the cost model).
    pub decide_ns: u64,
}

/// Draw-lane activity over one epoch (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRecord {
    /// Epoch index within the run.
    pub epoch: u64,
    /// Sampling events the backend consumed this epoch: the delta of its
    /// cost counter's `rng_draws` (think samples, burst issues, meter
    /// samples). Not a prefill depth; the name is kept because it is the
    /// exported key of pinned trace bytes.
    pub prefill_draws: u64,
    /// Lane-stream refills at conservative sync points (refill fallbacks).
    pub refill_fallbacks: u64,
    /// Epoch-boundary hard barriers.
    pub barrier_waits: u64,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One simulated epoch, as a span on the modeled clock.
    EpochSpan {
        /// Epoch index within the run.
        epoch: u64,
        /// Span start, modeled nanoseconds since run start.
        t_start_ns: u64,
        /// Span end, modeled nanoseconds since run start.
        t_end_ns: u64,
        /// Total power measured over the epoch, watts.
        power_w: f64,
    },
    /// A policy decision audit record.
    Decision(DecisionRecord),
    /// A scenario/fleet control action taking effect: budget step, core
    /// hotplug, surge, overlay, app swap, node offline…
    Control {
        /// Epoch index at which the action takes effect.
        epoch: u64,
        /// Stable action kind (e.g. `budget_step`, `hotplug`, `surge`).
        kind: &'static str,
        /// Human-readable detail (new fraction, mask, target node…).
        detail: String,
    },
    /// Draw-lane counters for one epoch.
    Lane(LaneRecord),
    /// A fleet budget-tree allocation at one interior node for one epoch.
    TreeAlloc {
        /// Epoch index within the fleet run.
        epoch: u64,
        /// Tree-node name.
        node: String,
        /// Watts committed at this node by the water-filling divide.
        committed_w: f64,
        /// Watts handed to each child, in child order.
        children_w: Vec<f64>,
    },
}

impl TraceEvent {
    /// Stable short label for summaries and drop accounting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::EpochSpan { .. } => "epoch",
            TraceEvent::Decision(_) => "decision",
            TraceEvent::Control { .. } => "control",
            TraceEvent::Lane(_) => "lane",
            TraceEvent::TreeAlloc { .. } => "tree_alloc",
        }
    }
}

/// An event plus its modeled-clock timestamp and intra-stream sequence
/// number (the tiebreak for events sharing a timestamp).
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped {
    /// Modeled nanoseconds since the owning run started.
    pub t_ns: u64,
    /// Monotonic per-stream sequence number.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}
