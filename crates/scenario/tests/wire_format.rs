//! Pins the scenario and fleet-scenario wire format byte for byte.
//!
//! One event per [`Action`] and per [`FleetAction`] variant, each with its
//! exact compact JSON: the `kind` tag comes first in snake_case, the
//! variant's fields follow in declaration order, integers print bare and
//! floats keep a fractional part. Every event must also parse back equal.

use fastcap_scenario::{Action, FleetAction, FleetEvent, ScenarioEvent};

fn event(at_epoch: u64, action: Action) -> ScenarioEvent {
    ScenarioEvent { at_epoch, action }
}

fn fleet_event(at_epoch: u64, action: FleetAction) -> FleetEvent {
    FleetEvent { at_epoch, action }
}

#[test]
fn every_event_variant_has_its_pinned_compact_json() {
    let cases = [
        (
            event(1, Action::BudgetStep { fraction: 0.5 }),
            r#"{"at_epoch":1,"action":{"kind":"budget_step","fraction":0.5}}"#,
        ),
        (
            event(
                10,
                Action::BudgetRamp {
                    to_fraction: 0.9,
                    over_epochs: 8,
                },
            ),
            r#"{"at_epoch":10,"action":{"kind":"budget_ramp","to_fraction":0.9,"over_epochs":8}}"#,
        ),
        (
            event(30, Action::CoresOffline { cores: vec![0, 1] }),
            r#"{"at_epoch":30,"action":{"kind":"cores_offline","cores":[0,1]}}"#,
        ),
        (
            event(40, Action::CoresOnline { cores: vec![15] }),
            r#"{"at_epoch":40,"action":{"kind":"cores_online","cores":[15]}}"#,
        ),
        (
            event(
                50,
                Action::IntensityScale {
                    factor: 10.0,
                    cores: vec![],
                },
            ),
            r#"{"at_epoch":50,"action":{"kind":"intensity_scale","factor":10.0,"cores":[]}}"#,
        ),
        (
            event(
                60,
                Action::Overlay {
                    period_epochs: 48.0,
                    amplitude: 0.35,
                    cores: vec![3, 7],
                },
            ),
            r#"{"at_epoch":60,"action":{"kind":"overlay","period_epochs":48.0,"amplitude":0.35,"cores":[3,7]}}"#,
        ),
        (
            event(
                70,
                Action::SwapApp {
                    core: 2,
                    app: "swim".into(),
                },
            ),
            r#"{"at_epoch":70,"action":{"kind":"swap_app","core":2,"app":"swim"}}"#,
        ),
    ];
    for (ev, want) in cases {
        assert_eq!(serde_json::to_string(&ev).unwrap(), want);
        let back: ScenarioEvent = serde_json::from_str(want).unwrap();
        assert_eq!(back, ev, "{want}");
    }

    let fleet_cases = [
        (
            fleet_event(30, FleetAction::FleetBudgetStep { fraction: 0.55 }),
            r#"{"at_epoch":30,"action":{"kind":"fleet_budget_step","fraction":0.55}}"#,
        ),
        (
            fleet_event(
                12,
                FleetAction::NodeCapStep {
                    node: "rack1".into(),
                    fraction: 0.7,
                },
            ),
            r#"{"at_epoch":12,"action":{"kind":"node_cap_step","node":"rack1","fraction":0.7}}"#,
        ),
        (
            fleet_event(
                10,
                FleetAction::NodeOffline {
                    node: "rack2".into(),
                },
            ),
            r#"{"at_epoch":10,"action":{"kind":"node_offline","node":"rack2"}}"#,
        ),
        (
            fleet_event(
                24,
                FleetAction::NodeOnline {
                    node: "rack2".into(),
                },
            ),
            r#"{"at_epoch":24,"action":{"kind":"node_online","node":"rack2"}}"#,
        ),
        (
            fleet_event(
                34,
                FleetAction::NodeSurge {
                    node: "dc".into(),
                    factor: 3.0,
                },
            ),
            r#"{"at_epoch":34,"action":{"kind":"node_surge","node":"dc","factor":3.0}}"#,
        ),
    ];
    for (ev, want) in fleet_cases {
        assert_eq!(serde_json::to_string(&ev).unwrap(), want);
        let back: FleetEvent = serde_json::from_str(want).unwrap();
        assert_eq!(back, ev, "{want}");
    }
}
