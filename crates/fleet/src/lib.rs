//! # fastcap-fleet
//!
//! Hierarchical budget-tree capping over a tiered server-model ladder:
//! the fleet-scale layer of the FastCap reproduction (Liu, Cox, Deng,
//! Draper, Bianchini — ISPASS 2016).
//!
//! The paper caps one many-core server; a datacenter caps thousands. This
//! crate scales the same water-filling idea up a tree — cluster → rack →
//! server — with FastCap-style demand-aware division at every interior
//! node, and puts a cost/accuracy ladder behind each leaf so fleets of
//! hundreds to thousands of servers stay tractable:
//!
//! * [`waterfill`] — exact breakpoint water-filling ([`fill`] /
//!   [`divide`]): conservation to float precision and bitwise single-child
//!   pass-through, no iteration-accuracy trade-off.
//! * [`model`] — the [`ServerModel`] trait and [`ModelTier`] ladder, with
//!   deterministic per-tier op counting for byte-stable throughput
//!   columns.
//! * [`tiers`] — the rungs: [`AnalyticModel`] (closed-form MVA, fastest),
//!   [`SampledModel`] (replayed DES response surfaces), [`DesModel`] (full
//!   DES, exact — the accuracy oracle and `fig5` pin backend).
//! * [`tree`] — [`TreeSpec`] / [`Fleet`]: the arena engine running the
//!   per-epoch pipeline (scenario events → state propagation → bottom-up
//!   aggregation → top-down division → leaf stepping) with the
//!   tree-conservation oracle checked every epoch.
//!
//! Determinism: a fleet run is a pure function of
//! `(spec, scenario, fraction, seed)` — per-leaf RNG streams derive from
//! the fleet seed on the leaf's DFS-preorder index, every pass iterates in
//! arena order, and model costs are op counts, not wall-clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod tiers;
pub mod tree;
pub mod waterfill;

pub use model::{report_bips, ModelTier, ServerEpoch, ServerModel};
pub use tiers::{AnalyticModel, DesModel, ResponseSurface, SampledModel, SURFACE_GRID};
pub use tree::{
    canonical_tree, Fleet, FleetEpoch, FleetRun, LeafSpec, LeafTrace, Node, TreeSpec,
    DEMAND_HEADROOM, MIN_FRACTION,
};
pub use waterfill::{divide, fill};
