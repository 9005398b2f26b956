//! Dashboard-workload generation for shared-scan batches.
//!
//! A BI dashboard refresh submits every panel's query at once, and how
//! much a shared scan saves depends on how the panels' filters overlap:
//! identical filters collapse to one selection vector per morsel,
//! disjoint filters each pay their own per-row evaluation, and real
//! dashboards sit in between. This module builds deterministic query
//! batches over the paper scenario's `Sales` schema in each of those
//! regimes, so `perfbench`'s dashboard workloads and the examples get
//! realistic batches without hand-writing query lists.

use sdwp_model::AggregationFunction;
use sdwp_olap::{AttributeRef, Filter, Query};

/// How the filters of a generated batch's queries overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapRegime {
    /// Every query carries the same dimension filter — the whole batch
    /// shares one selection vector per morsel (the GLADE best case).
    Identical,
    /// Every query filters a different city — no selection sharing, only
    /// the shared scan loop and shared group-key dictionaries remain.
    Disjoint,
    /// Alternating: even panels share one filter, odd panels are
    /// pairwise disjoint — the realistic middle ground.
    Mixed,
}

impl OverlapRegime {
    /// All regimes, in sweep order.
    pub const ALL: [OverlapRegime; 3] = [
        OverlapRegime::Identical,
        OverlapRegime::Disjoint,
        OverlapRegime::Mixed,
    ];
}

/// The city filter of panel `index` under `regime`. `cities` is the
/// scenario's city count — disjoint panels cycle through it, so every
/// filter still matches real members.
fn panel_filter(regime: OverlapRegime, index: usize, cities: usize) -> Filter {
    let cities = cities.max(1);
    let city = match regime {
        OverlapRegime::Identical => 0,
        OverlapRegime::Disjoint => index % cities,
        // Even panels share City-0; odd panels take distinct cities
        // (starting at 1 so they never collide with the shared class).
        OverlapRegime::Mixed => {
            if index.is_multiple_of(2) {
                0
            } else {
                1 + (index / 2) % cities.saturating_sub(1).max(1)
            }
        }
    };
    Filter::eq("City.name", format!("City-{city}"))
}

/// Builds a deterministic `size`-panel dashboard batch over the paper
/// scenario's `Sales` fact. Panels cycle through six shapes exercising
/// both executor paths — flat grouped roll-ups, ungrouped totals on one
/// flat slot and a COUNT DISTINCT on the hashed fallback — while `regime`
/// decides how their `Store` city filters overlap. Same arguments, same
/// batch: the generator is pure.
pub fn dashboard_batch(regime: OverlapRegime, size: usize, cities: usize) -> Vec<Query> {
    (0..size)
        .map(|index| {
            let filter = panel_filter(regime, index, cities);
            let base = Query::over("Sales").filter_dimension("Store", filter);
            match index % 6 {
                0 => base
                    .group_by(AttributeRef::new("Store", "City", "name"))
                    .measure("UnitSales"),
                1 => base.measure("UnitSales").measure("StoreCost"),
                2 => base
                    .group_by(AttributeRef::new("Product", "Category", "name"))
                    .measure("StoreSales"),
                3 => base
                    .group_by(AttributeRef::new("Store", "State", "name"))
                    .measure("StoreCost")
                    .measure("UnitSales"),
                4 => base
                    .group_by(AttributeRef::new("Time", "Month", "name"))
                    .measure("StoreSales"),
                _ => base.measure_agg("UnitSales", AggregationFunction::CountDistinct),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = dashboard_batch(OverlapRegime::Mixed, 8, 25);
        let b = dashboard_batch(OverlapRegime::Mixed, 8, 25);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn identical_regime_shares_one_filter() {
        let batch = dashboard_batch(OverlapRegime::Identical, 8, 25);
        let filters: Vec<_> = batch.iter().map(|q| &q.dimension_filters).collect();
        assert!(filters.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn disjoint_regime_uses_distinct_filters() {
        let batch = dashboard_batch(OverlapRegime::Disjoint, 8, 25);
        let mut seen: Vec<String> = batch
            .iter()
            .map(|q| format!("{:?}", q.dimension_filters))
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), batch.len());
    }

    #[test]
    fn mixed_regime_has_a_shared_class_and_distinct_classes() {
        let batch = dashboard_batch(OverlapRegime::Mixed, 8, 25);
        let filters: Vec<String> = batch
            .iter()
            .map(|q| format!("{:?}", q.dimension_filters))
            .collect();
        // Even panels share; odd panels differ from the shared class.
        assert_eq!(filters[0], filters[2]);
        assert_ne!(filters[0], filters[1]);
        assert_ne!(filters[1], filters[3]);
    }

    #[test]
    fn batches_execute_against_the_paper_scenario() {
        let scenario = crate::PaperScenario::generate(crate::ScenarioConfig::tiny());
        let engine = sdwp_olap::QueryEngine::new();
        for regime in OverlapRegime::ALL {
            let batch = dashboard_batch(regime, 6, crate::ScenarioConfig::tiny().cities);
            for (query, result) in batch.iter().zip(engine.execute_batch_with_view(
                &scenario.cube,
                &batch,
                &sdwp_olap::InstanceView::unrestricted(),
            )) {
                let result = result.unwrap();
                assert_eq!(result, engine.execute(&scenario.cube, query).unwrap());
            }
        }
    }
}
