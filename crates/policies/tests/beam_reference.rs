//! Reference twin for `MaxBipsBeamPolicy`: the straightforward beam that
//! clones each partial combination into its own `Vec` and sorts every
//! layer's expansions, kept here as a test oracle for the arena/run-merge
//! search. Its tie rule is the policy's total order: a stable sort over the
//! parent-major expansion order by BIPS descending, then power ascending.
//! Like every model-predictive policy, it reports the controller's budget
//! trim. The two must agree on the decision and on the counted decision
//! cost.

use fastcap_core::capper::{DvfsDecision, FastCapConfig, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::{CoreSample, EpochObservation, MemorySample};
use fastcap_core::optimizer::evaluate_point;
use fastcap_core::units::{Hz, Secs, Watts};
use fastcap_policies::{CappingPolicy, MaxBipsBeamPolicy};
use proptest::prelude::*;

#[derive(Clone)]
struct State {
    power: f64,
    bips: f64,
    combo: Vec<usize>,
}

/// The reference beam: same model, same op counting, one `Vec` per state.
struct ReferenceBeam {
    controller: FastCapController,
    width: usize,
    search_cost: CostCounter,
}

impl ReferenceBeam {
    fn new(cfg: FastCapConfig, width: usize) -> Self {
        Self {
            controller: FastCapController::new(cfg).expect("valid config"),
            width,
            search_cost: CostCounter::default(),
        }
    }

    fn decision_cost(&self) -> CostCounter {
        let mut c = self.controller.cost();
        c.add(&self.search_cost);
        c
    }

    fn decide(&mut self, obs: &EpochObservation) -> DvfsDecision {
        self.controller.observe(obs);
        let model = self.controller.build_model(obs).expect("model");
        let cfg = self.controller.config();
        let n = model.n_cores();
        let f = cfg.core_ladder.len();
        let scales: Vec<f64> = (0..f).map(|l| cfg.core_ladder.scale(l)).collect();
        let ipm: Vec<f64> = obs
            .cores
            .iter()
            .map(|c| c.instructions_per_miss())
            .collect();
        let pcost: Vec<Vec<f64>> = model
            .cores
            .iter()
            .map(|c| {
                scales
                    .iter()
                    .map(|&s| c.power.dynamic_power(s).get())
                    .collect()
            })
            .collect();
        let mut min_suffix = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            let row_min = pcost[i].iter().cloned().fold(f64::MAX, f64::min);
            min_suffix[i] = min_suffix[i + 1] + row_min;
        }

        let mut best: Option<(f64, Vec<usize>, Secs, usize)> = None;
        for &sb in self.controller.candidates() {
            let bus_scale = model.memory.min_bus_transfer_time / sb;
            let mem_dyn = model.memory.power.dynamic_power(bus_scale);
            let core_budget = model.budget.get() - model.static_power.get() - mem_dyn.get();
            if core_budget <= 0.0 || min_suffix[0] > core_budget {
                continue;
            }
            let bips: Vec<Vec<f64>> = model
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let r = model.memory.response.response_time(i, sb).get();
                    scales
                        .iter()
                        .map(|&s| ipm[i] / (c.min_think_time.get() / s + c.cache_time.get() + r))
                        .collect()
                })
                .collect();
            self.search_cost.grid_points += (n * f) as u64;

            let mut beam = vec![State {
                power: 0.0,
                bips: 0.0,
                combo: Vec::new(),
            }];
            for i in 0..n {
                self.search_cost.grid_points += (beam.len() * f) as u64;
                let mut next = Vec::new();
                for s in &beam {
                    for l in 0..f {
                        let power = s.power + pcost[i][l];
                        if power + min_suffix[i + 1] > core_budget {
                            continue;
                        }
                        let mut combo = s.combo.clone();
                        combo.push(l);
                        next.push(State {
                            power,
                            bips: s.bips + bips[i][l],
                            combo,
                        });
                    }
                }
                next.sort_by(|a, b| {
                    b.bips
                        .total_cmp(&a.bips)
                        .then_with(|| a.power.total_cmp(&b.power))
                });
                let mut frontier = Vec::new();
                let mut cheapest = f64::MAX;
                for s in next {
                    if s.power < cheapest {
                        cheapest = s.power;
                        frontier.push(s);
                        if frontier.len() == self.width {
                            break;
                        }
                    }
                }
                beam = frontier;
                if beam.is_empty() {
                    break;
                }
            }
            if let Some(top) = beam.first() {
                if best.as_ref().is_none_or(|(b, ..)| top.bips > *b) {
                    self.search_cost.quantize_ops += 1;
                    best = Some((
                        top.bips,
                        top.combo.clone(),
                        sb,
                        cfg.mem_ladder.nearest_scale(bus_scale),
                    ));
                }
            }
        }

        match best {
            Some((_, combo, sb, mem_freq)) => {
                let scales_now: Vec<f64> = combo.iter().map(|&l| scales[l]).collect();
                let (d, power) = evaluate_point(&model, &scales_now, sb).expect("point");
                self.search_cost.grid_points += n as u64;
                DvfsDecision {
                    core_freqs: combo,
                    mem_freq,
                    predicted_power: power,
                    quantized_power: power,
                    budget_trim: self.controller.budget_trim(),
                    degradation: d,
                    budget_bound: true,
                    emergency: false,
                }
            }
            None => DvfsDecision {
                core_freqs: vec![0; n],
                mem_freq: 0,
                predicted_power: model.static_power,
                quantized_power: model.static_power,
                budget_trim: self.controller.budget_trim(),
                degradation: 0.0,
                budget_bound: true,
                emergency: true,
            },
        }
    }
}

fn cfg(budget: f64) -> FastCapConfig {
    FastCapConfig::builder(16)
        .budget_fraction(budget)
        .peak_power(Watts(120.0))
        .build()
        .expect("valid config")
}

/// 16 cores drawn from `classes` templates, core `i` taking template
/// `i % classes`: one class gives 16 identical cores, 16 gives all
/// distinct ones, and 2 is the `obs_16` shape. Identical cores tie
/// exactly in both BIPS and power.
fn observation_strategy() -> impl Strategy<Value = EpochObservation> {
    (
        proptest::collection::vec(
            (
                200u64..40_000, // misses
                0.2_f64..0.4,   // TPI ns
                3.0_f64..5.5,   // core power
            ),
            16..=16,
        ),
        (0usize..4).prop_map(|k| [1, 2, 4, 16][k]),
        1.0_f64..3.0,
        1.0_f64..2.0,
        16.0_f64..45.0,
        15.0_f64..45.0, // memory power
    )
        .prop_map(|(templates, classes, q, u, sm, mp)| {
            let cores = (0..16)
                .map(|i| {
                    let (misses, tpi, power) = templates[i % classes];
                    CoreSample {
                        freq: Hz::from_ghz(4.0),
                        busy_time_per_instruction: Secs::from_nanos(tpi),
                        instructions: 1_000_000,
                        last_level_misses: misses,
                        power: Watts(power),
                    }
                })
                .collect::<Vec<_>>();
            let total = cores.iter().map(|c| c.power.get()).sum::<f64>() + mp + 10.0;
            EpochObservation::single(
                cores,
                MemorySample {
                    bus_freq: Hz::from_mhz(800.0),
                    bank_queue: q,
                    bus_queue: u,
                    bank_service_time: Secs::from_nanos(sm),
                    power: Watts(mp),
                },
                Watts(total),
            )
        })
}

/// Two decides on the same observation (the second on refitted models)
/// must match the reference in decision and counted cost.
fn assert_twins_agree(obs: &EpochObservation, budget: f64, width: usize) {
    let mut beam = MaxBipsBeamPolicy::with_width(cfg(budget), width).expect("build");
    let mut reference = ReferenceBeam::new(cfg(budget), width);
    for round in 0..2 {
        let got = beam.decide(obs).expect("decide");
        let want = reference.decide(obs);
        assert_eq!(got, want, "B={budget} W={width} round {round}");
        assert_eq!(
            beam.decision_cost(),
            reference.decision_cost(),
            "B={budget} W={width} round {round}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn beam_matches_reference_twin(
        obs in observation_strategy(),
        b in 0.4_f64..=1.0,
        width in (0usize..3).prop_map(|k| [1, 4, 64][k]),
    ) {
        assert_twins_agree(&obs, b, width);
    }
}

#[test]
fn beam_matches_reference_twin_on_identical_core_pairs() {
    // The policy crate's `obs_16` fixture: even cores CPU-bound, odd cores
    // memory-bound, every pair of a class identical.
    let cores = (0..16)
        .map(|i| CoreSample {
            freq: Hz::from_ghz(4.0),
            busy_time_per_instruction: Secs::from_nanos(0.28),
            instructions: 1_000_000,
            last_level_misses: if i % 2 == 0 { 600 } else { 8_000 },
            power: Watts(4.3),
        })
        .collect();
    let obs = EpochObservation::single(
        cores,
        MemorySample {
            bus_freq: Hz::from_mhz(800.0),
            bank_queue: 1.5,
            bus_queue: 1.3,
            bank_service_time: Secs::from_nanos(28.0),
            power: Watts(30.0),
        },
        Watts(108.0),
    );
    for width in [1, 4, 64] {
        for budget in [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            assert_twins_agree(&obs, budget, width);
        }
    }
}
