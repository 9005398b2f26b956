//! Shared fixtures for the benchmark harness.
//!
//! Every benchmark in `benches/` regenerates one recorded experiment of
//! `EXPERIMENTS.md` (B10/B11, B14, B15, B18, B20). The helpers here build
//! scenarios and engines at the scales the experiments sweep so the
//! individual bench files stay focused on the measurement itself.

#![warn(missing_docs)]

use sdwp_core::PersonalizationEngine;
use sdwp_datagen::{PaperScenario, ScenarioConfig};
use sdwp_prml::corpus::ALL_PAPER_RULES;
use sdwp_user::LocationContext;
use std::sync::Arc;

/// Builds a scenario whose store/customer/fact counts are `scale` times the
/// tiny baseline (20 stores / 200 facts).
pub fn scenario_at_scale(scale: usize) -> PaperScenario {
    PaperScenario::generate(ScenarioConfig::tiny().scaled(scale))
}

/// Builds a default-sized scenario (200 stores, 5 000 facts).
pub fn default_scenario() -> PaperScenario {
    PaperScenario::generate(ScenarioConfig::default())
}

/// Builds a fully configured personalization engine over a scenario, with
/// the paper's four rules registered and the interest threshold set to 2.
/// Queries run through the default morsel-parallel executor and result
/// cache.
pub fn engine_for(scenario: &PaperScenario) -> PersonalizationEngine {
    engine_with_config(scenario, sdwp_olap::ExecutionConfig::default())
}

/// Builds a fully configured engine with an explicit executor
/// configuration (worker count, morsel size, cache capacity), so benches
/// can ablate the parallel pipeline and the result cache separately.
pub fn engine_with_config(
    scenario: &PaperScenario,
    config: sdwp_olap::ExecutionConfig,
) -> PersonalizationEngine {
    let engine = PersonalizationEngine::with_execution_config(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
        config,
    );
    engine.register_user(scenario.manager.clone());
    engine.set_parameter("threshold", 2.0);
    for rule in ALL_PAPER_RULES {
        engine
            .add_rules_text(rule)
            .expect("the paper's rules always register");
    }
    engine
}

/// A login location right next to the scenario's first store, so the 5 km
/// instance rule always selects a non-empty neighbourhood.
pub fn manager_location(scenario: &PaperScenario) -> LocationContext {
    let store = &scenario.retail.stores[0];
    LocationContext::at_point("office", store.location.x() + 0.5, store.location.y())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let scenario = scenario_at_scale(1);
        let engine = engine_for(&scenario);
        let session = engine
            .start_session("regional-manager", Some(manager_location(&scenario)))
            .unwrap();
        assert!(session.report.rules_matched > 0);
    }
}
