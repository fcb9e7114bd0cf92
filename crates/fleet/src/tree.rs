//! The budget tree: cluster → rack → server water-filling over a fleet of
//! [`ServerModel`]s.
//!
//! A [`TreeSpec`] describes the static hierarchy (names, per-level
//! capacity clamps, leaf payloads); [`Fleet`] compiles it — plus an
//! optional [`FleetScenario`] of timed node-targeted events — into an
//! arena engine that runs the per-epoch pipeline:
//!
//! 1. **events** — scenario actions due this epoch mutate node state
//!    (datacenter budget step, per-node capacity derating, rack
//!    offline/online, demand surge) *before* re-allocation, so the tree
//!    reacts the same epoch;
//! 2. **top-down effective state** — online/surge flags propagate from
//!    each node to its subtree;
//! 3. **bottom-up aggregation** — every leaf publishes its water-filling
//!    bounds (floor [`MIN_FRACTION`]·peak, cap peak) and a demand
//!    estimate ([`DEMAND_HEADROOM`] × last observed power, scaled by any
//!    surge); interior nodes sum their children and clamp the subtree cap
//!    to `capacity_fraction × static peak`;
//! 4. **top-down division** — the root budget (`fraction × static fleet
//!    peak`) flows down, each interior node splitting its share with the
//!    exact demand-aware water-fill ([`crate::waterfill::divide`]); every
//!    split is recorded as a [`TreeAlloc`] and checked against the
//!    tree-conservation oracle each epoch;
//! 5. **leaf stepping** — leaves receive their share as a budget fraction
//!    (re-solved only on a *bitwise* change), then step one epoch in leaf
//!    index order.
//!
//! Determinism contract: per-leaf RNG streams derive from the fleet seed
//! via [`fastcap_core::seed::derive_seed`] on the leaf's DFS-preorder
//! index; every pass iterates in arena order; no wall-clock anywhere — so
//! a fleet run is a pure function of `(spec, scenario, fraction, seed)`
//! and artifact bytes are identical at any `--jobs` count. The exact
//! breakpoint water-fill forwards a feasible budget through single-child
//! chains bitwise, which is what lets a one-server tree reproduce the
//! single-server artifacts exactly (the `fig5` pin test).

use crate::model::ServerModel;
use crate::waterfill::divide;
use fastcap_core::error::{Error, Result};
use fastcap_core::seed::derive_seed;
use fastcap_core::units::Watts;
use fastcap_scenario::oracle::{check_tree_allocs, TreeAlloc, TREE_CONSERVATION_EPS};
use fastcap_scenario::{rack_name, FleetAction, FleetScenario, ROOT_NODE};
use fastcap_trace::{TraceEvent, Tracer};
use std::collections::HashMap;

/// Floor on any online leaf's budget share, as a fraction of its peak:
/// capping below this is outside the controller's validated range, so the
/// water level never starves a live server entirely.
pub const MIN_FRACTION: f64 = 0.1;

/// Demand headroom: a leaf asks for this multiple of its last observed
/// power, so a server ramping up can claim budget beyond its current draw
/// without waiting for the level to drift.
pub const DEMAND_HEADROOM: f64 = 1.25;

/// Where a node sits in the hierarchy. Assigned structurally: the root is
/// the [`Node::Cluster`], leaves are [`Node::Server`]s, everything between
/// is a [`Node::Rack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The tree root — owns the datacenter budget.
    Cluster,
    /// An interior aggregation point (PDU / rack / row).
    Rack,
    /// A leaf driving one [`ServerModel`].
    Server,
}

/// Static description of one budget-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSpec {
    /// Unique node name (e.g. `dc`, `rack3`, `srv3_7`).
    pub name: String,
    /// Static capacity clamp: the node may hand its subtree at most this
    /// fraction of the subtree's aggregate peak. In `(0, 1]`.
    pub capacity_fraction: f64,
    /// Child subtrees (empty exactly when `leaf` is set).
    pub children: Vec<TreeSpec>,
    /// Leaf payload (set exactly when `children` is empty).
    pub leaf: Option<LeafSpec>,
}

impl TreeSpec {
    /// A leaf node at full capacity.
    pub fn leaf(name: impl Into<String>, payload: LeafSpec) -> Self {
        Self {
            name: name.into(),
            capacity_fraction: 1.0,
            children: Vec::new(),
            leaf: Some(payload),
        }
    }

    /// An interior node clamped to `capacity_fraction` of its subtree
    /// peak.
    pub fn interior(
        name: impl Into<String>,
        capacity_fraction: f64,
        children: Vec<TreeSpec>,
    ) -> Self {
        Self {
            name: name.into(),
            capacity_fraction,
            children,
            leaf: None,
        }
    }

    /// Number of leaves in the subtree.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        if self.leaf.is_some() {
            1
        } else {
            self.children.iter().map(TreeSpec::n_leaves).sum()
        }
    }
}

/// A leaf's payload: which workload/platform/policy one server runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSpec {
    /// Workload mix name (resolved by `fastcap_workloads::mixes`).
    pub mix: String,
    /// Core count of the server platform.
    pub n_cores: usize,
    /// Capping policy name (resolved by
    /// [`fastcap_policies::PolicyKind::parse`]).
    pub policy: String,
}

/// The canonical two-level fleet: `dc` → `rack{r}` → `srv{r}_{s}`, every
/// node at full capacity, leaf payloads from `leaf(rack, server)`.
pub fn canonical_tree(
    racks: usize,
    servers_per_rack: usize,
    mut leaf: impl FnMut(usize, usize) -> LeafSpec,
) -> TreeSpec {
    assert!(racks > 0 && servers_per_rack > 0, "empty canonical tree");
    let children = (0..racks)
        .map(|r| {
            let servers = (0..servers_per_rack)
                .map(|s| TreeSpec::leaf(format!("srv{r}_{s}"), leaf(r, s)))
                .collect();
            TreeSpec::interior(rack_name(r), 1.0, servers)
        })
        .collect();
    TreeSpec::interior(ROOT_NODE, 1.0, children)
}

/// One fleet epoch's aggregate record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEpoch {
    /// Epoch index (monotone across repeated [`Fleet::run`] calls).
    pub epoch: u64,
    /// Budget the datacenter requested: `fraction × static fleet peak`.
    pub budget_w: f64,
    /// Budget the root actually committed after feasibility clamping
    /// (offline subtrees and capacity deratings shrink the feasible
    /// range).
    pub committed_w: f64,
    /// Total power drawn by online leaves this epoch.
    pub power_w: f64,
    /// Total instruction throughput of online leaves this epoch.
    pub bips: f64,
    /// Leaves that were online (and stepped) this epoch.
    pub online_leaves: usize,
}

/// Per-epoch series for one traced leaf (see [`Fleet::trace_leaves`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LeafTrace {
    /// Leaf index (DFS preorder).
    pub leaf: usize,
    /// The leaf's node name.
    pub node: String,
    /// Budget fraction in force each epoch (`0.0` while offline).
    pub fractions: Vec<f64>,
    /// Power drawn each epoch (`0.0` while offline).
    pub power: Vec<f64>,
    /// Throughput each epoch (`0.0` while offline).
    pub bips: Vec<f64>,
}

/// What a fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// One record per epoch.
    pub epochs: Vec<FleetEpoch>,
    /// Traces for the leaves registered with [`Fleet::trace_leaves`].
    pub traces: Vec<LeafTrace>,
    /// Tree-conservation oracle violations (prefixed with the epoch);
    /// empty on a healthy run.
    pub violations: Vec<String>,
}

#[derive(Debug, Clone, Copy)]
enum CompiledAction {
    Budget(f64),
    Cap(usize, f64),
    Offline(usize),
    Online(usize),
    Surge(usize, f64),
}

struct NodeState {
    name: String,
    kind: Node,
    parent: Option<usize>,
    children: Vec<usize>,
    capacity_fraction: f64,
    /// Scenario-driven capacity derating on top of the static clamp.
    cap_override: f64,
    online: bool,
    surge: f64,
    leaf: Option<usize>,
    static_peak: f64,
    // Per-epoch scratch, rebuilt by the aggregation passes.
    eff_online: bool,
    eff_surge: f64,
    lo: f64,
    hi: f64,
    demand: f64,
}

struct LeafState<M> {
    model: M,
    node: usize,
    last_power: Option<f64>,
}

/// The arena engine: a compiled [`TreeSpec`] driving one [`ServerModel`]
/// per leaf. See the module docs for the per-epoch pipeline and the
/// determinism contract.
pub struct Fleet<M: ServerModel> {
    nodes: Vec<NodeState>,
    leaves: Vec<LeafState<M>>,
    budget_fraction: f64,
    events: Vec<(u64, CompiledAction)>,
    next_event: usize,
    epoch: u64,
    traced: Vec<usize>,
    waterfill_passes: u64,
}

fn invalid(why: String) -> Error {
    Error::InvalidConfig {
        what: "fleet tree",
        why,
    }
}

impl<M: ServerModel> Fleet<M> {
    /// Compiles `spec` and `scenario` into a runnable fleet capped at
    /// `fraction` of the static fleet peak. Each leaf model is built by
    /// `build(payload, leaf_seed, fraction)` where `leaf_seed` derives
    /// from `fleet_seed` on the leaf's DFS-preorder index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a malformed tree (duplicate
    /// or empty names, a node with both/neither of children and leaf,
    /// capacity outside `(0, 1]`), a fraction outside `(0, 1]`, a
    /// scenario event naming an unknown node or offlining the root, and
    /// propagates leaf-model construction failures.
    pub fn new(
        spec: &TreeSpec,
        scenario: &FleetScenario,
        fraction: f64,
        fleet_seed: u64,
        build: &mut dyn FnMut(&LeafSpec, u64, f64) -> Result<M>,
    ) -> Result<Self> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(invalid(format!(
                "budget fraction {fraction} outside (0, 1]"
            )));
        }
        let mut fleet = Self {
            nodes: Vec::new(),
            leaves: Vec::new(),
            budget_fraction: fraction,
            events: Vec::new(),
            next_event: 0,
            epoch: 0,
            traced: Vec::new(),
            waterfill_passes: 0,
        };
        let mut names: HashMap<String, usize> = HashMap::new();
        fleet.flatten(spec, None, &mut names, fleet_seed, fraction, build)?;

        // Subtree peaks, bottom-up: in DFS preorder every child index is
        // greater than its parent's, so a reverse scan sees children first.
        for i in (0..fleet.nodes.len()).rev() {
            fleet.nodes[i].static_peak = match fleet.nodes[i].leaf {
                Some(l) => fleet.leaves[l].model.peak_power().get(),
                None => fleet.nodes[i]
                    .children
                    .iter()
                    .map(|&c| fleet.nodes[c].static_peak)
                    .sum(),
            };
        }

        // Compile the scenario: resolve node names to arena indices now so
        // a typo fails construction, not epoch 37.
        for ev in &scenario.events {
            let resolve = |name: &str| -> Result<usize> {
                names
                    .get(name)
                    .copied()
                    .ok_or_else(|| invalid(format!("scenario targets unknown node `{name}`")))
            };
            let action = match &ev.action {
                FleetAction::FleetBudgetStep { fraction } => CompiledAction::Budget(*fraction),
                FleetAction::NodeCapStep { node, fraction } => {
                    CompiledAction::Cap(resolve(node)?, *fraction)
                }
                FleetAction::NodeOffline { node } => {
                    let idx = resolve(node)?;
                    if idx == 0 {
                        return Err(invalid("scenario offlines the root node".into()));
                    }
                    CompiledAction::Offline(idx)
                }
                FleetAction::NodeOnline { node } => CompiledAction::Online(resolve(node)?),
                FleetAction::NodeSurge { node, factor } => {
                    CompiledAction::Surge(resolve(node)?, *factor)
                }
            };
            fleet.events.push((ev.at_epoch, action));
        }
        // Stable by epoch: same-epoch events keep scenario order.
        fleet.events.sort_by_key(|&(at, _)| at);
        Ok(fleet)
    }

    fn flatten(
        &mut self,
        spec: &TreeSpec,
        parent: Option<usize>,
        names: &mut HashMap<String, usize>,
        fleet_seed: u64,
        fraction: f64,
        build: &mut dyn FnMut(&LeafSpec, u64, f64) -> Result<M>,
    ) -> Result<usize> {
        if spec.name.is_empty() {
            return Err(invalid("node with empty name".into()));
        }
        if !(spec.capacity_fraction > 0.0 && spec.capacity_fraction <= 1.0) {
            return Err(invalid(format!(
                "node `{}`: capacity fraction {} outside (0, 1]",
                spec.name, spec.capacity_fraction
            )));
        }
        match (&spec.leaf, spec.children.is_empty()) {
            (Some(_), true) | (None, false) => {}
            (Some(_), false) => {
                return Err(invalid(format!(
                    "node `{}` has both a leaf payload and children",
                    spec.name
                )))
            }
            (None, true) => {
                return Err(invalid(format!(
                    "node `{}` has neither a leaf payload nor children",
                    spec.name
                )))
            }
        }
        let idx = self.nodes.len();
        if names.insert(spec.name.clone(), idx).is_some() {
            return Err(invalid(format!("duplicate node name `{}`", spec.name)));
        }
        let kind = if spec.leaf.is_some() {
            Node::Server
        } else if parent.is_none() {
            Node::Cluster
        } else {
            Node::Rack
        };
        let leaf = match &spec.leaf {
            Some(payload) => {
                let leaf_idx = self.leaves.len();
                let seed = derive_seed(fleet_seed, leaf_idx as u64);
                let model = build(payload, seed, fraction)?;
                self.leaves.push(LeafState {
                    model,
                    node: idx,
                    last_power: None,
                });
                Some(leaf_idx)
            }
            None => None,
        };
        self.nodes.push(NodeState {
            name: spec.name.clone(),
            kind,
            parent,
            children: Vec::new(),
            capacity_fraction: spec.capacity_fraction,
            cap_override: 1.0,
            online: true,
            surge: 1.0,
            leaf,
            static_peak: 0.0,
            eff_online: true,
            eff_surge: 1.0,
            lo: 0.0,
            hi: 0.0,
            demand: 0.0,
        });
        for child in &spec.children {
            let c = self.flatten(child, Some(idx), names, fleet_seed, fraction, build)?;
            self.nodes[idx].children.push(c);
        }
        Ok(idx)
    }

    /// Number of leaves (servers) in the fleet.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Static aggregate peak power of the whole fleet.
    #[must_use]
    pub fn static_peak(&self) -> Watts {
        Watts(self.nodes[0].static_peak)
    }

    /// The datacenter budget fraction currently in force.
    #[must_use]
    pub fn budget_fraction(&self) -> f64 {
        self.budget_fraction
    }

    /// The model behind leaf `i`.
    #[must_use]
    pub fn leaf_model(&self, i: usize) -> &M {
        &self.leaves[i].model
    }

    /// Sum of backend ops across all leaf models — the deterministic cost
    /// measure behind the gap-vs-speed ladder columns.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.leaves.iter().map(|l| l.model.ops()).sum()
    }

    /// Water-fill divisions executed so far (one per interior node per
    /// epoch) — the fleet engine's own contribution to the cost model.
    #[must_use]
    pub fn waterfill_passes(&self) -> u64 {
        self.waterfill_passes
    }

    /// Deterministic cost breakdown of the whole fleet: every leaf's
    /// backend + policy counts merged, plus the engine's water-fill
    /// passes.
    #[must_use]
    pub fn total_cost(&self) -> fastcap_core::cost::CostCounter {
        let mut c = fastcap_core::cost::CostCounter {
            waterfill_passes: self.waterfill_passes,
            ..Default::default()
        };
        for l in &self.leaves {
            c.add(&l.model.cost());
        }
        c
    }

    /// Structural role of the named node, if it exists.
    #[must_use]
    pub fn node_kind(&self, name: &str) -> Option<Node> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.kind)
    }

    /// Registers leaves whose per-epoch `(fraction, power, bips)` series
    /// the next [`Fleet::run`] records — the input to DES spot-check
    /// replays.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range leaf index.
    pub fn trace_leaves(&mut self, leaves: &[usize]) {
        for &l in leaves {
            assert!(l < self.leaves.len(), "trace of unknown leaf {l}");
        }
        self.traced = leaves.to_vec();
    }

    /// Runs `epochs` fleet epochs (continuing from any previous run) and
    /// returns the per-epoch records, traces and oracle verdicts.
    ///
    /// # Errors
    ///
    /// Propagates leaf-model budget-validation failures (the water-fill
    /// bounds keep fractions inside `[MIN_FRACTION, 1]`, so an error here
    /// indicates a model bug, not data).
    pub fn run(&mut self, epochs: usize) -> Result<FleetRun> {
        self.run_traced(epochs, None)
    }

    /// [`Fleet::run`] with an optional audit-trail tracer: when `trace` is
    /// `Some`, each epoch appends an epoch span, one [`TraceEvent::TreeAlloc`]
    /// snapshot per interior node (the water-fill split the conservation
    /// oracle audits), and a control event per fleet scenario action, all
    /// timestamped on the modeled-cost clock ([`Fleet::total_cost`] deltas
    /// priced by the tracer's weights). Tracing only reads state the run
    /// already computes, so the [`FleetRun`] is byte-identical with `trace`
    /// `Some` or `None`.
    ///
    /// # Errors
    ///
    /// Propagates leaf-model budget-validation failures, exactly as
    /// [`Fleet::run`].
    pub fn run_traced(
        &mut self,
        epochs: usize,
        mut trace: Option<&mut Tracer>,
    ) -> Result<FleetRun> {
        let mut out = FleetRun {
            epochs: Vec::with_capacity(epochs),
            traces: self
                .traced
                .iter()
                .map(|&l| LeafTrace {
                    leaf: l,
                    node: self.nodes[self.leaves[l].node].name.clone(),
                    fractions: Vec::with_capacity(epochs),
                    power: Vec::with_capacity(epochs),
                    bips: Vec::with_capacity(epochs),
                })
                .collect(),
            violations: Vec::new(),
        };
        let n = self.nodes.len();
        let mut alloc = vec![0.0f64; n];
        let mut step_results = vec![(0.0f64, 0.0f64, 0.0f64); self.leaves.len()];
        // Cost snapshot for the modeled trace clock (advanced by the delta
        // each fleet epoch adds across all leaf models + the engine).
        let mut cost = self.total_cost();

        for _ in 0..epochs {
            // 1. Scenario events due at (or before) this epoch. Budget and
            // cap steps invalidate every leaf's demand estimate (it
            // describes power drawn under the *old* allocation), so they
            // flag this epoch for demand re-seeding in pass 3.
            let mut reseed_demand = false;
            while self.next_event < self.events.len()
                && self.events[self.next_event].0 <= self.epoch
            {
                let detail = match self.events[self.next_event].1 {
                    CompiledAction::Budget(f) => {
                        self.budget_fraction = f;
                        reseed_demand = true;
                        format!("fraction={f}")
                    }
                    CompiledAction::Cap(i, f) => {
                        self.nodes[i].cap_override = f;
                        reseed_demand = true;
                        format!("node={} cap={f}", self.nodes[i].name)
                    }
                    CompiledAction::Offline(i) => {
                        self.nodes[i].online = false;
                        format!("node={} offline", self.nodes[i].name)
                    }
                    CompiledAction::Online(i) => {
                        self.nodes[i].online = true;
                        format!("node={} online", self.nodes[i].name)
                    }
                    CompiledAction::Surge(i, f) => {
                        self.nodes[i].surge = f;
                        format!("node={} surge={f}", self.nodes[i].name)
                    }
                };
                if let Some(t) = trace.as_deref_mut() {
                    t.record(TraceEvent::Control {
                        epoch: self.epoch,
                        kind: "fleet_event",
                        detail,
                    });
                    t.metrics.counter_add("fleet.scenario_events", 1);
                }
                self.next_event += 1;
            }

            // 2. Effective online/surge state, top-down (parents precede
            // children in preorder).
            for i in 0..n {
                let (p_online, p_surge) = match self.nodes[i].parent {
                    Some(p) => (self.nodes[p].eff_online, self.nodes[p].eff_surge),
                    None => (true, 1.0),
                };
                let node = &mut self.nodes[i];
                node.eff_online = p_online && node.online;
                node.eff_surge = p_surge * node.surge;
            }

            // 3. Water-filling bounds and demand, bottom-up.
            for i in (0..n).rev() {
                let (lo, hi, demand) = match self.nodes[i].leaf {
                    Some(l) => {
                        if self.nodes[i].eff_online {
                            let peak = self.leaves[l].model.peak_power().get();
                            let lo = MIN_FRACTION * peak;
                            // On a budget/cap-step epoch the last observed
                            // power describes draw under the *old*
                            // allocation, so headroom-over-stale-power
                            // would lag the grant by one transient epoch
                            // (the fleet_settle cold-start spike). Seed
                            // from the newly granted fraction instead so
                            // every leaf claims its share immediately.
                            let base = if reseed_demand {
                                self.budget_fraction * peak
                            } else {
                                self.leaves[l]
                                    .last_power
                                    .map_or(peak, |p| DEMAND_HEADROOM * p)
                            };
                            (lo, peak, (base * self.nodes[i].eff_surge).clamp(lo, peak))
                        } else {
                            (0.0, 0.0, 0.0)
                        }
                    }
                    None => {
                        let node = &self.nodes[i];
                        let mut lo = 0.0;
                        let mut hi = 0.0;
                        let mut demand = 0.0;
                        for &c in &node.children {
                            lo += self.nodes[c].lo;
                            hi += self.nodes[c].hi;
                            demand += self.nodes[c].demand;
                        }
                        // The capacity clamp binds the subtree cap; the
                        // floor sum always stays honoured (lo ≤ hi).
                        let cap = node.capacity_fraction * node.cap_override * node.static_peak;
                        let hi = lo.max(hi.min(cap));
                        (lo, hi, demand.clamp(lo, hi))
                    }
                };
                let node = &mut self.nodes[i];
                node.lo = lo;
                node.hi = hi;
                node.demand = demand;
            }

            // 4. Budget division, top-down, with conservation audit.
            let budget_w = self.budget_fraction * self.nodes[0].static_peak;
            alloc[0] = budget_w;
            let mut tree_allocs: Vec<TreeAlloc> = Vec::new();
            let mut committed_root = budget_w;
            for i in 0..n {
                if self.nodes[i].children.is_empty() {
                    continue;
                }
                let node = &self.nodes[i];
                let d: Vec<f64> = node
                    .children
                    .iter()
                    .map(|&c| self.nodes[c].demand)
                    .collect();
                let lo: Vec<f64> = node.children.iter().map(|&c| self.nodes[c].lo).collect();
                let hi: Vec<f64> = node.children.iter().map(|&c| self.nodes[c].hi).collect();
                let shares = divide(alloc[i], &d, &lo, &hi);
                self.waterfill_passes += 1;
                // Committed is recomputed independently of the solver so
                // the oracle can catch minted/lost watts.
                let committed = alloc[i].clamp(lo.iter().sum(), hi.iter().sum());
                if i == 0 {
                    committed_root = committed;
                }
                tree_allocs.push(TreeAlloc {
                    node: node.name.clone(),
                    committed,
                    children: shares.clone(),
                });
                for (&c, &s) in node.children.iter().zip(&shares) {
                    alloc[c] = s;
                }
            }
            for v in check_tree_allocs(&tree_allocs, TREE_CONSERVATION_EPS) {
                out.violations.push(format!("epoch {}: {v}", self.epoch));
            }
            if let Some(t) = trace.as_deref_mut() {
                for a in &tree_allocs {
                    t.record(TraceEvent::TreeAlloc {
                        epoch: self.epoch,
                        node: a.node.clone(),
                        committed_w: a.committed,
                        children_w: a.children.clone(),
                    });
                }
            }

            // 5. Step the leaves, in leaf index order.
            let mut power_w = 0.0;
            let mut bips = 0.0;
            let mut online_leaves = 0usize;
            for (l, leaf) in self.leaves.iter_mut().enumerate() {
                let node = &self.nodes[leaf.node];
                if !node.eff_online {
                    leaf.last_power = None;
                    step_results[l] = (0.0, 0.0, 0.0);
                    continue;
                }
                let peak = leaf.model.peak_power().get();
                let fraction = (alloc[leaf.node] / peak).clamp(MIN_FRACTION, 1.0);
                // Re-solve only on a bitwise change: a constant-budget
                // leaf must behave exactly like a standalone run.
                if fraction.to_bits() != leaf.model.budget_fraction().to_bits() {
                    leaf.model.set_budget_fraction(fraction)?;
                }
                let e = leaf.model.step();
                leaf.last_power = Some(e.power.get());
                power_w += e.power.get();
                bips += e.bips;
                online_leaves += 1;
                step_results[l] = (fraction, e.power.get(), e.bips);
            }

            for trace in &mut out.traces {
                let (f, p, b) = step_results[trace.leaf];
                trace.fractions.push(f);
                trace.power.push(p);
                trace.bips.push(b);
            }
            if let Some(t) = trace.as_deref_mut() {
                let now = self.total_cost();
                let delta = now.delta_since(&cost);
                cost = now;
                let t_start_ns = t.now_ns();
                t.advance(&delta);
                t.record_at(
                    t_start_ns,
                    TraceEvent::EpochSpan {
                        epoch: self.epoch,
                        t_start_ns,
                        t_end_ns: t.now_ns(),
                        power_w,
                    },
                );
                t.metrics
                    .counter_add("fleet.waterfill_passes", delta.waterfill_passes);
                t.metrics.gauge_set("fleet.committed_w", committed_root);
            }
            out.epochs.push(FleetEpoch {
                epoch: self.epoch,
                budget_w,
                committed_w: committed_root,
                power_w,
                bips,
                online_leaves,
            });
            self.epoch += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiers::AnalyticModel;
    use fastcap_policies::{ClosedLoop, PolicyKind};
    use fastcap_scenario::FleetEvent;
    use fastcap_sim::{AnalyticServer, SimConfig};
    use fastcap_workloads::mixes;

    fn cfg() -> SimConfig {
        SimConfig::ispass(4).unwrap().with_time_dilation(200.0)
    }

    fn analytic_leaf(spec: &LeafSpec, seed: u64, fraction: f64) -> Result<AnalyticModel> {
        let cfg = SimConfig::ispass(spec.n_cores)?.with_time_dilation(200.0);
        let mix = mixes::by_name(&spec.mix).expect("mix");
        AnalyticModel::new(cfg, &mix, &spec.policy, fraction, seed)
    }

    fn leaf_spec(mix: &str) -> LeafSpec {
        LeafSpec {
            mix: mix.into(),
            n_cores: 4,
            policy: "FastCap".into(),
        }
    }

    fn fleet(
        racks: usize,
        per_rack: usize,
        scenario: &FleetScenario,
        fraction: f64,
    ) -> Fleet<AnalyticModel> {
        let spec = canonical_tree(racks, per_rack, |r, _| {
            leaf_spec(["MIX1", "MID1", "MEM2", "ILP2"][r % 4])
        });
        Fleet::new(&spec, scenario, fraction, 42, &mut analytic_leaf).unwrap()
    }

    #[test]
    fn spec_validates_shape() {
        let spec = canonical_tree(2, 2, |r, s| {
            leaf_spec(if (r + s) % 2 == 0 { "MIX1" } else { "MEM2" })
        });
        assert_eq!(spec.n_leaves(), 4);

        // Malformed trees fail compilation with a named culprit.
        let scn = FleetScenario::empty();
        let mut bad = spec.clone();
        bad.children[0].name = "dc".into();
        let err = Fleet::<AnalyticModel>::new(&bad, &scn, 0.6, 1, &mut analytic_leaf)
            .err()
            .unwrap();
        assert!(err.to_string().contains("duplicate"), "{err}");
        let mut orphan = spec.clone();
        orphan.children[0].children.clear();
        assert!(Fleet::<AnalyticModel>::new(&orphan, &scn, 0.6, 1, &mut analytic_leaf).is_err());
        assert!(Fleet::<AnalyticModel>::new(&spec, &scn, 1.5, 1, &mut analytic_leaf).is_err());
    }

    #[test]
    fn single_server_fleet_matches_a_standalone_closed_loop() {
        // The analytic-tier version of the fig5 pin: one server behind
        // dc → rack0, constant budget — the tree must be a bitwise no-op.
        let spec = canonical_tree(1, 1, |_, _| leaf_spec("MEM2"));
        let scn = FleetScenario::empty();
        let mut fleet = Fleet::new(&spec, &scn, 0.6, 42, &mut analytic_leaf).unwrap();
        assert_eq!(fleet.n_leaves(), 1);
        fleet.trace_leaves(&[0]);
        let run = fleet.run(8).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);

        let mix = mixes::by_name("MEM2").unwrap();
        let policy = PolicyKind::FastCap
            .build(cfg().controller_config(0.6).unwrap())
            .unwrap();
        let server = AnalyticServer::for_workload(cfg(), &mix, derive_seed(42, 0)).unwrap();
        let standalone = ClosedLoop::new(server, policy).run(8);
        for (e, report) in run.epochs.iter().zip(&standalone.epochs) {
            assert_eq!(e.power_w, report.total_power.get(), "epoch {}", e.epoch);
        }
        assert!(run.traces[0].fractions.iter().all(|f| *f == 0.6));
        assert_eq!(fleet.node_kind("dc"), Some(Node::Cluster));
        assert_eq!(fleet.node_kind("rack0"), Some(Node::Rack));
        assert_eq!(fleet.node_kind("srv0_0"), Some(Node::Server));
    }

    #[test]
    fn scenario_compilation_rejects_unknown_nodes_and_root_failure() {
        let spec = canonical_tree(2, 1, |_, _| leaf_spec("MIX1"));
        let mut scn = FleetScenario::empty();
        scn.events.push(FleetEvent {
            at_epoch: 2,
            action: FleetAction::NodeOffline {
                node: "rack99".into(),
            },
        });
        assert!(Fleet::<AnalyticModel>::new(&spec, &scn, 0.6, 1, &mut analytic_leaf).is_err());
        scn.events[0].action = FleetAction::NodeOffline { node: "dc".into() };
        assert!(Fleet::<AnalyticModel>::new(&spec, &scn, 0.6, 1, &mut analytic_leaf).is_err());
        scn.events[0].action = FleetAction::NodeOffline {
            node: "rack1".into(),
        };
        assert!(Fleet::<AnalyticModel>::new(&spec, &scn, 0.6, 1, &mut analytic_leaf).is_ok());
    }

    #[test]
    fn rack_failure_takes_leaves_out_and_returns_them() {
        let mut scn = FleetScenario::empty();
        scn.events.push(FleetEvent {
            at_epoch: 3,
            action: FleetAction::NodeOffline {
                node: "rack0".into(),
            },
        });
        scn.events.push(FleetEvent {
            at_epoch: 6,
            action: FleetAction::NodeOnline {
                node: "rack0".into(),
            },
        });
        let mut fleet = fleet(2, 2, &scn, 0.7);
        let run = fleet.run(10).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let online: Vec<usize> = run.epochs.iter().map(|e| e.online_leaves).collect();
        assert_eq!(online[..3], [4, 4, 4]);
        assert_eq!(online[3..6], [2, 2, 2]);
        assert_eq!(online[6..], [4, 4, 4, 4]);
        // Power follows the failure and the survivors never exceed the
        // root's committed budget by more than transient overshoot.
        assert!(run.epochs[4].power_w < run.epochs[2].power_w);
        assert!(run.epochs[9].online_leaves == 4);
    }

    #[test]
    fn budget_and_cap_steps_reshape_the_allocation() {
        let mut scn = FleetScenario::empty();
        scn.events.push(FleetEvent {
            at_epoch: 4,
            action: FleetAction::FleetBudgetStep { fraction: 0.5 },
        });
        scn.events.push(FleetEvent {
            at_epoch: 8,
            action: FleetAction::NodeCapStep {
                node: "rack0".into(),
                fraction: 0.5,
            },
        });
        let mut fleet = fleet(2, 2, &scn, 0.9);
        fleet.trace_leaves(&[0, 1, 2, 3]);
        let peak = fleet.static_peak().get();
        let run = fleet.run(12).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.epochs[3].budget_w, 0.9 * peak);
        assert_eq!(run.epochs[4].budget_w, 0.5 * peak);
        // After the rack0 derate, its two leaves together stay under half
        // the rack peak (plus the leaf floors, which always remain).
        let rack_peak = peak / 2.0;
        for e in 9..12 {
            let rack0: f64 = run.traces[..2]
                .iter()
                .map(|t| t.fractions[e] * rack_peak / 2.0)
                .sum();
            assert!(
                rack0 <= 0.5 * rack_peak + 1e-9,
                "epoch {e}: rack0 allocated {rack0} W over its 50% cap"
            );
        }
    }

    #[test]
    fn budget_step_grants_headroom_to_cold_racks_immediately() {
        // Scarce water-filling is fair — it equalizes, and a demand above
        // the fair share never binds. Before demand re-seeding, a surged
        // rack claimed a budget step's fresh headroom one epoch early
        // because the cold rack's estimate (headroom × last power) lagged
        // the grant. Re-seeding from the newly granted fraction kills
        // that transient: on the step epoch every leaf bids its granted
        // share, so the cold rack steps up *immediately* and the surge
        // never starves it below fairness.
        let mut scn = FleetScenario::empty();
        scn.events.push(FleetEvent {
            at_epoch: 5,
            action: FleetAction::FleetBudgetStep { fraction: 0.95 },
        });
        scn.events.push(FleetEvent {
            at_epoch: 5,
            action: FleetAction::NodeSurge {
                node: "rack0".into(),
                factor: 4.0,
            },
        });
        // Same mix everywhere so the comparison is apples-to-apples.
        let spec = canonical_tree(2, 2, |_, _| leaf_spec("MID1"));
        let mut fleet = Fleet::new(&spec, &scn, 0.5, 7, &mut analytic_leaf).unwrap();
        fleet.trace_leaves(&[0, 2]);
        let run = fleet.run(10).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let hot = &run.traces[0]; // srv0_0, surged
        let cold = &run.traces[1]; // srv1_0
        assert_eq!(hot.fractions[4], cold.fractions[4], "symmetric before");
        // The surge may tip the split toward the hot rack but never
        // below the cold rack's fair entitlement of the new budget.
        assert!(
            hot.fractions[5] >= cold.fractions[5],
            "surge must not penalize the surged rack: {} vs {}",
            hot.fractions[5],
            cold.fractions[5]
        );
        // Immediate uptake: the cold rack's share jumps on the step
        // epoch itself instead of idling one transient epoch on its
        // stale demand estimate.
        assert!(
            cold.fractions[5] > cold.fractions[4] + 0.2,
            "cold rack must claim the step headroom immediately: {} -> {}",
            cold.fractions[4],
            cold.fractions[5]
        );
        // …and fairness holds once demand estimates refresh.
        let last = run.epochs.len() - 1;
        assert!((hot.fractions[last] - cold.fractions[last]).abs() < 0.06);
    }
}
