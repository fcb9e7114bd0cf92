//! # fastcap-scenario
//!
//! Scripted **dynamic** runs for the FastCap reproduction: the paper's
//! controller exists to *react* — workloads drift, budgets move, machines
//! change — yet static experiments hold everything fixed. This crate adds
//! a declarative, serde-loadable scenario format describing timed mid-run
//! events, and an interpreter that injects them deterministically into the
//! DES engine and the capping policy:
//!
//! * **power-budget steps and ramps** — datacenter power emergencies and
//!   recoveries, applied through the policies' explicit
//!   [`CappingPolicy::on_budget_change`](fastcap_policies::CappingPolicy::on_budget_change)
//!   re-solve path;
//! * **workload churn** — applications arriving/departing (`swap_app`),
//!   flash crowds (`intensity_scale`), and diurnal load envelopes
//!   (`overlay`) layered over each application's own
//!   [`PhaseSpec`](fastcap_workloads::PhaseSpec);
//! * **core hotplug** — cores vanishing and reappearing
//!   (`cores_offline` / `cores_online`): every model-predictive policy
//!   warm-carries the surviving cores' fitted models onto the new online
//!   set, so the transient isolates allocation, and a policy that
//!   declines (Freq-Par) is rebuilt for it by the factory.
//!
//! Beyond hand-written files, [`generate`] samples scenarios from a
//! seeded composable motif grammar (deterministic and lint-clean by
//! construction — the substrate of the `repro matrix` sweeps), and
//! [`oracle`] checks the invariants every finished run must satisfy
//! (budget compliance after settle windows, counter conservation,
//! power-gated offline cores, sane degradations).
//!
//! Static runs are the degenerate case: an empty scenario is byte-identical
//! to a plain run (pinned by this crate's proptests). See DESIGN.md §7 for
//! the format and determinism contract, and `scenarios/*.json` for
//! checked-in examples driven by the `scn_*` artifacts of the `repro`
//! binary.
//!
//! ```
//! use fastcap_scenario::{Action, Scenario, ScenarioEvent, ScenarioRunner};
//!
//! let scenario = Scenario {
//!     name: "emergency".into(),
//!     description: "budget drops to 50% at epoch 10".into(),
//!     n_cores: 16,
//!     events: vec![ScenarioEvent {
//!         at_epoch: 10,
//!         action: Action::BudgetStep { fraction: 0.5 },
//!     }],
//! };
//! assert!(scenario.validate().is_ok());
//! let runner = ScenarioRunner::new(&scenario, 0.9).unwrap();
//! assert_eq!(runner.initial_budget(), 0.9);
//! // runner.install(&mut server)?; runner.run(&mut server, 100, ...)?;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod format;
pub mod generate;
pub mod oracle;
mod runtime;

pub use fleet::{
    generate_fleet, rack_name, FleetAction, FleetEvent, FleetGeneratorConfig, FleetScenario,
    ROOT_NODE,
};
pub use format::{Action, Scenario, ScenarioEvent};
pub use generate::{generate, GeneratorConfig};
pub use runtime::{PolicyFactory, ScenarioRunner};
