//! Deterministic structured tracing and metrics for the FastCap stack.
//!
//! Every layer of the stack — optimizer, policies, DES sim, scenario
//! interpreter, fleet budget trees — can emit typed [`TraceEvent`]s into a
//! bounded ring buffer, timestamped by the **deterministic modeled-cost
//! clock**: cumulative [`fastcap_core::cost::CostCounter`] deltas priced by
//! the checked-in `COST_MODEL.json` per-op nanosecond weights. No wall
//! clock is ever read, so trace bytes are a pure function of (repo state,
//! `--seed`) and are invariant at any `--jobs` level — traces themselves
//! are golden-pinnable, just like artifact bytes (DESIGN.md §11, §12).
//!
//! Design rules:
//!
//! - **Zero overhead when off.** Tracing is armed per run by handing the
//!   run loop an `Option<&mut Tracer>`; every loop checks it once per
//!   epoch. Nothing in this crate touches a `CostCounter` — trace work is
//!   never part of the modeled cost, so arming a tracer cannot move
//!   artifact bytes or trip `repro costgate`.
//! - **Read-only probes.** Emitters only read state the run loop already
//!   has (cost counters, decisions, epoch reports); they never mutate
//!   simulation state or draw randomness.
//! - **Deterministic aggregation.** Concurrent runs (sweep shards) record
//!   into private [`Tracer`]s and submit them to the process-global
//!   [`hub`] under a deterministic stream name; export sorts streams by
//!   name (then content), so the merged trace is `--jobs`-invariant.

pub mod event;
pub mod export;
pub mod hub;
pub mod metrics;
pub mod sink;

pub use event::{DecisionRecord, LaneRecord, Stamped, TraceEvent};
pub use export::{chrome_trace_json, metrics_csv, terminal_summary};
pub use hub::{hub, install, TraceConfig, TraceHub};
pub use metrics::{Metric, MetricsRegistry};
pub use sink::{RingBuffer, TraceSink, Tracer};
