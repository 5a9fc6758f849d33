//! Utility-driven strategy selection: "there is not one unique anonymization
//! strategy that always performs well" (paper, §3). PRIVAPI picks a
//! different optimal mechanism depending on the analysis the dataset is
//! destined for, under the same privacy floor.
//!
//! ```bash
//! cargo run --release --example strategy_selection
//! ```

use crowdsense::mobility::gen::{CityModel, PopulationConfig};
use crowdsense::privapi::prelude::*;

fn main() {
    let city = CityModel::builder().seed(77).build();
    let data = city.generate_with_truth(&PopulationConfig {
        users: 12,
        days: 5,
        sampling_interval_s: 120,
        ..PopulationConfig::default()
    });
    let attack = PoiAttack::default();
    let reference = attack.extract(&data.dataset);

    let objectives = [
        Objective::CrowdedPlaces {
            cell: geo::Meters::new(250.0),
            k: 20,
        },
        Objective::Traffic {
            cell: geo::Meters::new(500.0),
        },
        Objective::Distortion,
    ];

    // One shared pool definition drives middleware, experiments and
    // examples alike; the engine evaluates it in parallel.
    let pool = StrategyPool::default_pool();
    for objective in objectives {
        let engine = EvaluationEngine::new(objective, 0.25, 7);
        match engine.evaluate(&pool, &data.dataset, &reference) {
            Ok(report) => {
                println!("{report}");
                match report.winner() {
                    Some(winner) => {
                        println!("→ for {objective}, PRIVAPI deploys: {}\n", winner.info)
                    }
                    None => println!("objective {objective}: {}\n", report.no_feasible_error()),
                }
            }
            Err(e) => println!("objective {objective}: {e}\n"),
        }
    }
}
