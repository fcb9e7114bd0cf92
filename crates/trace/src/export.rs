//! Exporters: Chrome trace-event JSON (Perfetto-loadable), a merged
//! metrics CSV, and a terminal summary table.
//!
//! Track layout (per stream = one Chrome "process"): tid 0 carries epoch
//! spans, tid 1 decision instants, tid 2 control instants, tid 3 the
//! draw-lane counter track (`lane_engine`), tid 4 tree-node counter
//! tracks. Per-core
//! frequency counter tracks and per-node committed-watts tracks are
//! *derived* at export time from decision / tree events, so they cost no
//! ring-buffer capacity during the run.

use std::fmt::Write as _;

use serde_json::Value;

use crate::event::{DecisionRecord, TraceEvent};
use crate::hub::TraceStream;
use crate::metrics::MetricsRegistry;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn us(t_ns: u64) -> Value {
    Value::Float(t_ns as f64 / 1000.0)
}

fn meta(pid: u64, tid: u64, kind: &str, name: &str) -> Value {
    obj(vec![
        ("name", Value::Str(kind.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(tid)),
        ("args", obj(vec![("name", Value::Str(name.to_string()))])),
    ])
}

fn counter(pid: u64, t_ns: u64, name: String, args: Vec<(&str, Value)>) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("ph", Value::Str("C".to_string())),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(3)),
        ("ts", us(t_ns)),
        ("args", obj(args)),
    ])
}

fn decision_args(d: &DecisionRecord) -> Value {
    let mut entries = vec![
        ("epoch", Value::UInt(d.epoch)),
        ("policy", Value::Str(d.policy.clone())),
    ];
    if let Some(b) = d.budget_w {
        entries.push(("budget_w", Value::Float(b)));
    }
    entries.push(("observed_w", Value::Float(d.observed_w)));
    entries.push(("solver_iters", Value::UInt(d.solver_iters)));
    entries.push(("candidates", Value::UInt(d.candidates)));
    entries.push((
        "core_freqs",
        Value::Array(
            d.core_freqs
                .iter()
                .map(|&f| Value::UInt(f as u64))
                .collect(),
        ),
    ));
    entries.push(("mem_freq", Value::UInt(d.mem_freq as u64)));
    entries.push(("predicted_w", Value::Float(d.predicted_w)));
    entries.push(("quantized_w", Value::Float(d.quantized_w)));
    entries.push(("trim_w", Value::Float(d.trim_w)));
    entries.push(("measured_w", Value::Float(d.measured_w)));
    if let Some(s) = d.slack_w {
        entries.push(("slack_w", Value::Float(s)));
    }
    entries.push(("budget_bound", Value::Bool(d.budget_bound)));
    entries.push(("emergency", Value::Bool(d.emergency)));
    entries.push(("decide_ns", Value::UInt(d.decide_ns)));
    obj(entries)
}

/// Renders submitted streams as a Chrome trace-event JSON document.
///
/// Pure function of the (already name-sorted) streams: byte-identical
/// output for identical input, no wall clock, no host state.
#[must_use]
pub fn chrome_trace_json(streams: &[TraceStream]) -> String {
    let mut events: Vec<Value> = Vec::new();
    for (i, stream) in streams.iter().enumerate() {
        let pid = i as u64 + 1;
        events.push(meta(pid, 0, "process_name", &stream.name));
        events.push(meta(pid, 0, "thread_name", "epochs"));
        events.push(meta(pid, 1, "thread_name", "decisions"));
        events.push(meta(pid, 2, "thread_name", "control"));
        events.push(meta(pid, 3, "thread_name", "counters"));
        for stamped in &stream.events {
            match &stamped.event {
                TraceEvent::EpochSpan {
                    epoch,
                    t_start_ns,
                    t_end_ns,
                    power_w,
                } => {
                    events.push(obj(vec![
                        ("name", Value::Str(format!("epoch {epoch}"))),
                        ("ph", Value::Str("X".to_string())),
                        ("pid", Value::UInt(pid)),
                        ("tid", Value::UInt(0)),
                        ("ts", us(*t_start_ns)),
                        ("dur", us(t_end_ns.saturating_sub(*t_start_ns))),
                        ("args", obj(vec![("power_w", Value::Float(*power_w))])),
                    ]));
                    events.push(counter(
                        pid,
                        *t_end_ns,
                        "power_w".to_string(),
                        vec![("watts", Value::Float(*power_w))],
                    ));
                }
                TraceEvent::Decision(d) => {
                    events.push(obj(vec![
                        ("name", Value::Str(format!("decide {}", d.policy))),
                        ("ph", Value::Str("i".to_string())),
                        ("s", Value::Str("t".to_string())),
                        ("pid", Value::UInt(pid)),
                        ("tid", Value::UInt(1)),
                        ("ts", us(stamped.t_ns)),
                        ("args", decision_args(d)),
                    ]));
                    for (c, &level) in d.core_freqs.iter().enumerate() {
                        events.push(counter(
                            pid,
                            stamped.t_ns,
                            format!("core{c} freq"),
                            vec![("level", Value::UInt(level as u64))],
                        ));
                    }
                }
                TraceEvent::Control {
                    epoch,
                    kind,
                    detail,
                } => {
                    events.push(obj(vec![
                        ("name", Value::Str((*kind).to_string())),
                        ("ph", Value::Str("i".to_string())),
                        ("s", Value::Str("p".to_string())),
                        ("pid", Value::UInt(pid)),
                        ("tid", Value::UInt(2)),
                        ("ts", us(stamped.t_ns)),
                        (
                            "args",
                            obj(vec![
                                ("epoch", Value::UInt(*epoch)),
                                ("detail", Value::Str(detail.clone())),
                            ]),
                        ),
                    ]));
                }
                TraceEvent::Lane(l) => {
                    events.push(counter(
                        pid,
                        stamped.t_ns,
                        "lane_engine".to_string(),
                        vec![
                            ("prefill_draws", Value::UInt(l.prefill_draws)),
                            ("refill_fallbacks", Value::UInt(l.refill_fallbacks)),
                            ("barrier_waits", Value::UInt(l.barrier_waits)),
                        ],
                    ));
                }
                TraceEvent::TreeAlloc {
                    node,
                    committed_w,
                    children_w,
                    ..
                } => {
                    events.push(counter(
                        pid,
                        stamped.t_ns,
                        format!("node {node} committed_w"),
                        vec![("watts", Value::Float(*committed_w))],
                    ));
                    for (c, w) in children_w.iter().enumerate() {
                        events.push(counter(
                            pid,
                            stamped.t_ns,
                            format!("node {node} child{c}_w"),
                            vec![("watts", Value::Float(*w))],
                        ));
                    }
                }
            }
        }
        if stream.dropped > 0 {
            events.push(obj(vec![
                ("name", Value::Str("ring_dropped".to_string())),
                ("ph", Value::Str("i".to_string())),
                ("s", Value::Str("p".to_string())),
                ("pid", Value::UInt(pid)),
                ("tid", Value::UInt(2)),
                ("ts", Value::Float(0.0)),
                ("args", obj(vec![("events", Value::UInt(stream.dropped))])),
            ]));
        }
    }
    let doc = obj(vec![
        ("displayTimeUnit", Value::Str("ms".to_string())),
        ("traceEvents", Value::Array(events)),
    ]);
    let mut out = serde_json::to_string(&doc).expect("trace json render");
    out.push('\n');
    out
}

/// Merges every stream's metrics (in stream order — already name-sorted)
/// and renders the combined registry as CSV.
#[must_use]
pub fn metrics_csv(streams: &[TraceStream]) -> String {
    let mut merged = MetricsRegistry::default();
    for s in streams {
        merged.merge(&s.metrics);
    }
    merged.to_csv()
}

/// A per-stream roll-up table for the terminal: event/decision counts,
/// ring drops, mean modeled decision latency, and worst overshoot.
#[must_use]
pub fn terminal_summary(streams: &[TraceStream]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>7} {:>9} {:>6} {:>12} {:>10}",
        "stream", "events", "decisions", "drops", "decide_us", "overshoot%"
    );
    for s in streams {
        let mut decisions = 0u64;
        let mut decide_ns_sum = 0u64;
        let mut worst_overshoot = f64::NEG_INFINITY;
        for stamped in &s.events {
            if let TraceEvent::Decision(d) = &stamped.event {
                decisions += 1;
                decide_ns_sum += d.decide_ns;
                if let Some(b) = d.budget_w {
                    if b > 0.0 {
                        worst_overshoot = worst_overshoot.max((d.measured_w - b) / b * 100.0);
                    }
                }
            }
        }
        let mean_us = if decisions > 0 {
            decide_ns_sum as f64 / decisions as f64 / 1000.0
        } else {
            0.0
        };
        let overshoot = if worst_overshoot.is_finite() {
            format!("{worst_overshoot:+.2}")
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<52} {:>7} {:>9} {:>6} {:>12.2} {:>10}",
            s.name,
            s.events.len(),
            decisions,
            s.dropped,
            mean_us,
            overshoot
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LaneRecord, Stamped};

    fn stream_with(events: Vec<TraceEvent>) -> TraceStream {
        TraceStream {
            name: "test/stream".to_string(),
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| Stamped {
                    t_ns: i as u64 * 1000,
                    seq: i as u64,
                    event,
                })
                .collect(),
            dropped: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    fn sample_decision() -> DecisionRecord {
        DecisionRecord {
            epoch: 3,
            policy: "FastCap".to_string(),
            budget_w: Some(80.0),
            observed_w: 78.5,
            solver_iters: 12,
            candidates: 40,
            core_freqs: vec![5, 5, 4],
            mem_freq: 2,
            predicted_w: 79.0,
            quantized_w: 78.2,
            trim_w: 0.5,
            measured_w: 81.0,
            slack_w: Some(-1.0),
            budget_bound: true,
            emergency: false,
            decide_ns: 2500,
        }
    }

    #[test]
    fn chrome_json_parses_and_has_expected_phases() {
        let streams = vec![stream_with(vec![
            TraceEvent::EpochSpan {
                epoch: 0,
                t_start_ns: 0,
                t_end_ns: 1000,
                power_w: 75.0,
            },
            TraceEvent::Decision(sample_decision()),
            TraceEvent::Control {
                epoch: 1,
                kind: "budget_step",
                detail: "fraction=0.5".to_string(),
            },
            TraceEvent::Lane(LaneRecord {
                epoch: 1,
                prefill_draws: 64,
                refill_fallbacks: 2,
                barrier_waits: 1,
            }),
            TraceEvent::TreeAlloc {
                epoch: 0,
                node: "rack0".to_string(),
                committed_w: 100.0,
                children_w: vec![60.0, 40.0],
            },
        ])];
        let json = chrome_trace_json(&streams);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match v.get("traceEvents") {
            Some(Value::Array(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"M"));
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
        // One derived freq counter track per core.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|p| p.as_str()))
            .collect();
        assert!(names.contains(&"core0 freq"));
        assert!(names.contains(&"core2 freq"));
        assert!(names.contains(&"node rack0 committed_w"));
    }

    #[test]
    fn export_is_deterministic() {
        let streams = vec![stream_with(vec![TraceEvent::Decision(sample_decision())])];
        assert_eq!(chrome_trace_json(&streams), chrome_trace_json(&streams));
    }

    #[test]
    fn summary_rolls_up_decisions() {
        let streams = vec![stream_with(vec![TraceEvent::Decision(sample_decision())])];
        let s = terminal_summary(&streams);
        assert!(s.contains("test/stream"));
        assert!(s.contains("+1.25")); // (81-80)/80 overshoot
    }
}
