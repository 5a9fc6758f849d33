//! Utility-driven optimal strategy selection.
//!
//! "A minimum level of privacy must be enforced, as parametrized by the
//! users and/or the platform owner. In the same time, our middleware wants
//! to be utility-driven. […] there is not one unique anonymization strategy
//! that always performs well but many from which we can choose the one that
//! fits the best to the usage that will be done with the anonymized
//! dataset." (paper, §3)
//!
//! The search itself is [`crate::engine::EvaluationEngine`]: it evaluates a
//! pool of candidate strategies against the dataset being published. Each
//! candidate's privacy is measured with the [`crate::attack::PoiAttack`]
//! (self-attack against POIs extracted from the raw data — the strongest
//! adversary the platform can emulate), its utility with the metric
//! matching the analyst's declared [`Objective`]. This module holds what
//! the search reports: one [`CandidateResult`] per candidate and the
//! [`SelectionReport`] naming the highest-utility candidate whose POI
//! recall is at or below the privacy floor.

use crate::error::PrivapiError;
use crate::strategy::StrategyInfo;
use geo::Meters;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The analysis the published dataset is destined for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Finding out crowded places: top-`k` hot cells on a `cell` grid.
    CrowdedPlaces {
        /// Grid cell size.
        cell: Meters,
        /// Number of hot cells the analyst cares about.
        k: usize,
    },
    /// Predicting traffic: hourly per-cell forecast on a `cell` grid.
    Traffic {
        /// Grid cell size.
        cell: Meters,
    },
    /// Generic positional fidelity (time-aligned spatial distortion).
    Distortion,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::CrowdedPlaces { cell, k } => {
                write!(f, "crowded-places(cell={:.0}m, k={k})", cell.get())
            }
            Objective::Traffic { cell } => write!(f, "traffic(cell={:.0}m)", cell.get()),
            Objective::Distortion => write!(f, "distortion"),
        }
    }
}

/// Evaluation of one candidate strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateResult {
    /// Which strategy instance this row describes.
    pub info: StrategyInfo,
    /// POI recall achieved by the self-attack (lower = more private).
    pub poi_recall: f64,
    /// Utility score in `[0, 1]` for the declared objective.
    pub utility: f64,
    /// Whether the candidate met the privacy floor.
    pub feasible: bool,
}

/// Outcome of a selection run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionReport {
    /// Per-candidate evaluations, in candidate order.
    pub candidates: Vec<CandidateResult>,
    /// Index of the winning candidate in `candidates`.
    pub chosen: Option<usize>,
    /// The privacy floor that was enforced (max tolerated POI recall).
    pub privacy_floor: f64,
    /// The analyst objective the utilities were scored under.
    pub objective: Objective,
}

impl SelectionReport {
    /// The winning candidate's evaluation, if any.
    pub fn winner(&self) -> Option<&CandidateResult> {
        self.chosen.and_then(|i| self.candidates.get(i))
    }

    /// The best (lowest) POI recall any candidate achieved.
    pub fn best_recall(&self) -> f64 {
        self.candidates
            .iter()
            .map(|c| c.poi_recall)
            .fold(f64::INFINITY, f64::min)
    }

    /// The error describing a winner-less report: no candidate satisfied
    /// the privacy floor. Shared policy for every caller that must refuse
    /// publication rather than release an infeasible dataset.
    pub fn no_feasible_error(&self) -> PrivapiError {
        PrivapiError::NoFeasibleStrategy {
            floor: self.privacy_floor,
            best_recall: self.best_recall(),
        }
    }
}

impl fmt::Display for SelectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "selection for {} (privacy floor: POI recall ≤ {:.2})",
            self.objective, self.privacy_floor
        )?;
        for (i, c) in self.candidates.iter().enumerate() {
            let marker = if Some(i) == self.chosen {
                "→"
            } else if c.feasible {
                " "
            } else {
                "✗"
            };
            writeln!(
                f,
                "  {marker} {:<45} recall={:.2} utility={:.3}",
                c.info.to_string(),
                c.poi_recall,
                c.utility
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::reference_from_truth;
    use crate::engine::EvaluationEngine;
    use crate::pipeline::{PrivApi, PrivApiConfig};
    use crate::pool::StrategyPool;
    use mobility::gen::{CityModel, PopulationConfig};

    fn data() -> mobility::gen::GeneratedData {
        CityModel::builder()
            .seed(17)
            .build()
            .generate_with_truth(&PopulationConfig {
                users: 4,
                days: 3,
                sampling_interval_s: 120,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            })
    }

    /// The engine over `pool` at seed 7, scored against `reference`.
    fn evaluate(
        objective: Objective,
        floor: f64,
        pool: &StrategyPool,
        d: &mobility::gen::GeneratedData,
    ) -> Result<SelectionReport, PrivapiError> {
        let reference = reference_from_truth(&d.truth);
        EvaluationEngine::new(objective, floor, 7).evaluate(pool, &d.dataset, &reference)
    }

    #[test]
    fn selector_prefers_private_strategy_over_identity() {
        let pool = StrategyPool::new()
            .with_identity()
            .with_speed_smoothing(&[100.0])
            .unwrap();
        let objective = Objective::CrowdedPlaces {
            cell: Meters::new(250.0),
            k: 10,
        };
        let report = evaluate(objective, 0.25, &pool, &data()).unwrap();
        assert_eq!(report.winner().unwrap().info.name, "speed-smoothing");
        // Identity must be infeasible: it leaks everything.
        let identity_row = &report.candidates[0];
        assert!(!identity_row.feasible, "identity row: {identity_row:?}");
        assert!(report.winner().unwrap().feasible);
    }

    #[test]
    fn impossible_floor_reports_best_recall() {
        // Identity leaks ~everything; a negative floor clamps to 0 — still
        // infeasible because recall on raw data is far above 0. Publishing
        // refuses with the report's best recall.
        let d = data();
        let pool = StrategyPool::new().with_identity();
        let report = evaluate(Objective::Distortion, -0.1, &pool, &d).unwrap();
        assert_eq!(report.privacy_floor, 0.0);
        assert_eq!(report.chosen, None);
        let err = PrivApi::new(PrivApiConfig {
            privacy_floor: -0.1,
            objective: Objective::Distortion,
            seed: 7,
        })
        .with_pool(pool)
        .publish(&d.dataset)
        .expect_err("identity must not satisfy a zero floor");
        match err {
            PrivapiError::NoFeasibleStrategy { best_recall, .. } => {
                assert!(best_recall > 0.5);
            }
            other => panic!("expected NoFeasibleStrategy, got {other:?}"),
        }
    }

    #[test]
    fn empty_selector_errors() {
        assert!(matches!(
            evaluate(Objective::Distortion, 0.5, &StrategyPool::new(), &data()),
            Err(PrivapiError::EmptyDataset)
        ));
    }

    #[test]
    fn default_candidates_cover_all_families() {
        let pool = StrategyPool::default_pool();
        assert_eq!(pool.len(), 11);
        let families: std::collections::BTreeSet<String> =
            pool.infos().into_iter().map(|info| info.name).collect();
        assert_eq!(families.len(), 5, "{families:?}");
    }

    #[test]
    fn report_display_lists_candidates() {
        let pool = StrategyPool::new().with_identity();
        let objective = Objective::Traffic {
            cell: Meters::new(500.0),
        };
        let report = evaluate(objective, 1.0, &pool, &data()).unwrap();
        let text = report.to_string();
        assert!(text.contains("identity"));
        assert!(text.contains("traffic"));
    }

    #[test]
    fn objective_display() {
        assert_eq!(
            Objective::CrowdedPlaces {
                cell: Meters::new(250.0),
                k: 5
            }
            .to_string(),
            "crowded-places(cell=250m, k=5)"
        );
        assert_eq!(
            Objective::Traffic {
                cell: Meters::new(500.0)
            }
            .to_string(),
            "traffic(cell=500m)"
        );
        assert_eq!(Objective::Distortion.to_string(), "distortion");
    }
}
