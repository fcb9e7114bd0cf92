//! The policy abstraction shared by FastCap and all baselines.

use fastcap_core::capper::DvfsDecision;
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::units::Watts;

/// A power-capping policy: maps per-epoch counter observations to DVFS
/// decisions. One `decide` call corresponds to one OS time quantum
/// (Sec. III-C).
pub trait CappingPolicy {
    /// Human-readable policy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Computes the DVFS settings for the next epoch.
    ///
    /// # Errors
    ///
    /// Implementations return [`fastcap_core::error::Error`] for malformed
    /// observations; transient infeasibility must be handled internally
    /// (emergency minimum-frequency decisions), not reported as an error.
    fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision>;

    /// A cold-start decision for epoch 0, before any observation exists.
    /// Model-predictive policies solve it from their configured initial
    /// power laws, so the very first epoch already runs under the cap.
    /// The default — for feedback-only policies like Freq-Par — is
    /// `None`, and the backend runs the first epoch at maximum
    /// frequencies.
    fn bootstrap(&mut self) -> Option<DvfsDecision> {
        None
    }

    /// Applies a mid-run power-budget change (scenario budget steps and
    /// ramps — datacenter power emergencies). Implementations keep all
    /// learned state (fitted power models, feedback state) and only move
    /// the cap, so the next [`CappingPolicy::decide`] re-solves against
    /// the new budget immediately.
    ///
    /// # Errors
    ///
    /// Returns [`fastcap_core::error::Error`] when the fraction is outside
    /// `(0, 1]`; the policy must be left unchanged.
    fn on_budget_change(&mut self, fraction: f64) -> Result<()>;

    /// Applies a mid-run active-core-set change (scenario hotplug) by
    /// **warm-carrying** learned state: `carried[j]` names the policy's
    /// previous core index that new core `j` corresponds to, or `None` for
    /// a core with no prior state (it starts cold). Model-predictive
    /// policies keep the surviving cores' fitted models, so the hotplug
    /// transient isolates budget re-allocation rather than re-fitting;
    /// Freq-Par re-scopes its machine-wide quota to the new core count.
    ///
    /// Returns whether the policy now models the new set. Every policy in
    /// this crate answers `true`; the scenario runner rejects a `false`
    /// with an error naming the policy.
    ///
    /// # Errors
    ///
    /// Returns [`fastcap_core::error::Error`] for an empty or out-of-range
    /// carry map; the policy must be left unchanged.
    fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool>;

    /// Cumulative deterministic operation counts along this policy's
    /// decision path (solver iterations, grid points, quantizations, …).
    /// The counts are exact functions of the observations fed in — no wall
    /// clock — which is what the modeled-latency timing artifacts multiply
    /// by the checked-in `COST_MODEL.json` weights.
    fn decision_cost(&self) -> CostCounter;

    /// The absolute power budget currently in force, if any. The tracing
    /// layer reads this into every decision audit record (the "what cap was it
    /// solving against" column of `repro explain`).
    fn in_force_budget(&self) -> Option<Watts>;
}
