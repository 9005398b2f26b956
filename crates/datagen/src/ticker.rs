//! The retail update stream: a deterministic ticker of fact deltas over
//! the paper scenario.
//!
//! The paper's decision makers act on *live* spatial data — sales keep
//! arriving while regional managers analyse them. This module generates
//! that write workload: batches of sales appends mixed with price
//! corrections (a cell upsert on an earlier sale) and occasional order
//! cancellations (a retraction), shaped for the streaming-ingestion
//! pipeline. Like every generator in this crate it is deterministic under
//! its seed, so ingest benchmarks and property tests are repeatable.

use crate::scenario::PaperScenario;
use rand::rngs::StdRng;
use rand::Rng;
use sdwp_ingest::{DeltaBatch, IngestError};
use sdwp_olap::{CellValue, FactTable};
use std::collections::BTreeSet;

/// Shape of the generated update stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickerConfig {
    /// RNG seed (independent of the scenario's seed).
    pub seed: u64,
    /// New sales appended per batch.
    pub appends_per_batch: usize,
    /// Price corrections (cell upserts) per batch.
    pub corrections_per_batch: usize,
    /// Cancellations (retractions) per batch.
    pub retractions_per_batch: usize,
}

impl Default for TickerConfig {
    fn default() -> Self {
        TickerConfig {
            seed: 99,
            appends_per_batch: 8,
            corrections_per_batch: 2,
            retractions_per_batch: 1,
        }
    }
}

impl TickerConfig {
    /// Replaces the seed, keeping the batch shape.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of appends per batch.
    pub fn with_appends(mut self, appends: usize) -> Self {
        self.appends_per_batch = appends;
        self
    }

    /// Sets the number of price corrections per batch.
    pub fn with_corrections(mut self, corrections: usize) -> Self {
        self.corrections_per_batch = corrections;
        self
    }

    /// Sets the number of cancellations per batch.
    pub fn with_retractions(mut self, retractions: usize) -> Self {
        self.retractions_per_batch = retractions;
        self
    }
}

/// An infinite, deterministic stream of [`DeltaBatch`]es over a scenario's
/// `Sales` fact.
///
/// The ticker tracks the fact table's row count as its batches would grow
/// it (appends allocate ids `base.. `), and never corrects or re-retracts
/// a row it has already retracted — every produced batch validates against
/// a cube that applied all previous batches in order. It is an
/// [`Iterator`], so `ticker.take(n)` is a bounded update stream.
///
/// # Compaction: the re-anchoring protocol
///
/// The ticker addresses corrections and cancellations by **stable row
/// id**, so a fact-table compaction (which renumbers live rows) would
/// desynchronise it. Producers running against a pipeline with a
/// `CompactionPolicy` enabled must follow the re-anchoring protocol (see
/// `tests/compaction_consistency.rs`): `flush()` the pipeline — a barrier
/// after which any compaction the flush triggered has already published —
/// then call [`RetailTicker::re_anchor`] with the published fact table
/// before producing the next id-addressed batch. The ticker translates
/// its bookkeeping through the table's retained remap chain; ids it had
/// retracted are exactly the ids compaction dropped, so they fall away.
#[derive(Debug, Clone)]
pub struct RetailTicker {
    rng: StdRng,
    config: TickerConfig,
    stores: usize,
    customers: usize,
    products: usize,
    days: usize,
    /// Virtual length of the Sales fact table after every batch produced
    /// so far.
    fact_rows: usize,
    /// Rows this ticker has retracted (never targeted again).
    retracted: BTreeSet<usize>,
    /// The fact table's compaction version the ticker's row ids refer to.
    version_seen: u64,
}

impl RetailTicker {
    /// Creates a ticker over a scenario, starting from the scenario's
    /// already-loaded `Sales` rows.
    pub fn new(scenario: &PaperScenario, config: TickerConfig) -> Self {
        RetailTicker {
            rng: crate::spatial::rng_for_seed(config.seed),
            config,
            stores: scenario.retail.stores.len(),
            customers: scenario.retail.customers.len(),
            products: scenario.retail.products.len(),
            days: scenario.retail.days,
            fact_rows: scenario.retail.sales.len(),
            retracted: BTreeSet::new(),
            version_seen: 0,
        }
    }

    /// The Sales row count after every batch produced so far (live and
    /// retracted).
    pub fn fact_rows(&self) -> usize {
        self.fact_rows
    }

    /// The compaction version the ticker's row ids currently refer to.
    pub fn version_seen(&self) -> u64 {
        self.version_seen
    }

    /// Re-anchors the ticker's row-id bookkeeping to the published fact
    /// table after a flush: if the table was compacted since the last
    /// anchor, outstanding ids translate forward through the retained
    /// remap chain (retracted ids are precisely the rows compaction
    /// dropped, so the retracted set empties) and the virtual row count
    /// snaps to the table's current length. A no-op when no compaction
    /// happened. Only call this at a flush barrier — with batches still
    /// in flight, the table's length would not yet include them.
    ///
    /// # Errors
    /// [`IngestError::ProducerLagged`] when the table's retained remap
    /// chain no longer covers `version_seen`
    /// ([`FactTable::translate_rows_from`] refuses it): the producer
    /// lagged more than the serving layer's retention window, and
    /// translating through a partial chain would silently address the
    /// wrong rows. The ticker's bookkeeping is left untouched so the
    /// caller can recover — discard the outstanding id-addressed plan
    /// and re-anchor after a flush, or prevent the trim up front by
    /// registering a producer floor
    /// (`IngestHandle::set_producer_floor`) before lagging.
    pub fn re_anchor(&mut self, fact: &FactTable) -> Result<(), IngestError> {
        let current = fact.compaction_version();
        if current == self.version_seen {
            return Ok(());
        }
        self.retracted = fact
            .translate_rows_from(self.version_seen, self.retracted.iter().copied())
            .ok_or(IngestError::ProducerLagged {
                floor: fact.remap_base,
                requested: self.version_seen,
            })?
            .into_iter()
            .collect();
        self.fact_rows = fact.table.len();
        self.version_seen = current;
        Ok(())
    }

    /// Draws a random live row id, or `None` when none is targetable.
    fn live_row(&mut self) -> Option<usize> {
        if self.retracted.len() >= self.fact_rows {
            return None;
        }
        // Rejection-sample: retractions are rare, so this terminates fast.
        for _ in 0..64 {
            let row = self.rng.gen_range(0..self.fact_rows.max(1));
            if !self.retracted.contains(&row) {
                return Some(row);
            }
        }
        None
    }

    /// Produces the next batch of the stream.
    pub fn next_batch(&mut self) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for _ in 0..self.config.appends_per_batch {
            let unit_sales = self.rng.gen_range(1.0..20.0f64).round();
            let unit_price = self.rng.gen_range(2.0..60.0f64);
            batch = batch.append(
                "Sales",
                vec![
                    ("Store", self.rng.gen_range(0..self.stores.max(1))),
                    ("Customer", self.rng.gen_range(0..self.customers.max(1))),
                    ("Product", self.rng.gen_range(0..self.products.max(1))),
                    ("Time", self.rng.gen_range(0..self.days.max(1))),
                ],
                vec![
                    ("UnitSales", CellValue::Float(unit_sales)),
                    ("StoreCost", CellValue::Float(unit_sales * unit_price * 0.7)),
                    ("StoreSales", CellValue::Float(unit_sales * unit_price)),
                ],
            );
            self.fact_rows += 1;
        }
        for _ in 0..self.config.corrections_per_batch {
            if let Some(row) = self.live_row() {
                // A price correction rewrites the revenue pair coherently.
                let unit_price = self.rng.gen_range(2.0..60.0f64);
                let unit_sales = self.rng.gen_range(1.0..20.0f64).round();
                batch = batch
                    .upsert_cell(
                        "Sales",
                        row,
                        "StoreSales",
                        CellValue::Float(unit_sales * unit_price),
                    )
                    .upsert_cell(
                        "Sales",
                        row,
                        "StoreCost",
                        CellValue::Float(unit_sales * unit_price * 0.7),
                    );
            }
        }
        for _ in 0..self.config.retractions_per_batch {
            if let Some(row) = self.live_row() {
                batch = batch.retract("Sales", row);
                self.retracted.insert(row);
            }
        }
        batch
    }
}

impl Iterator for RetailTicker {
    type Item = DeltaBatch;

    fn next(&mut self) -> Option<DeltaBatch> {
        Some(self.next_batch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PaperScenario, ScenarioConfig};
    use sdwp_ingest::FactDelta;

    fn scenario() -> PaperScenario {
        PaperScenario::generate(ScenarioConfig::tiny())
    }

    #[test]
    fn batches_match_the_configured_shape() {
        let scenario = scenario();
        let mut ticker = RetailTicker::new(
            &scenario,
            TickerConfig::default()
                .with_appends(5)
                .with_corrections(2)
                .with_retractions(1),
        );
        let batch = ticker.next_batch();
        let appends = batch
            .deltas
            .iter()
            .filter(|d| matches!(d, FactDelta::Append { .. }))
            .count();
        let upserts = batch
            .deltas
            .iter()
            .filter(|d| matches!(d, FactDelta::UpsertCell { .. }))
            .count();
        let retracts = batch
            .deltas
            .iter()
            .filter(|d| matches!(d, FactDelta::Retract { .. }))
            .count();
        // Each correction upserts the StoreSales/StoreCost pair.
        assert_eq!((appends, upserts, retracts), (5, 4, 1));
        assert_eq!(ticker.fact_rows(), scenario.retail.sales.len() + 5);
    }

    #[test]
    fn every_batch_validates_against_the_evolving_cube() {
        let scenario = scenario();
        let mut cube = scenario.cube.clone();
        let ticker = RetailTicker::new(&scenario, TickerConfig::default().with_retractions(3));
        for batch in ticker.take(25) {
            batch
                .validate(&cube)
                .expect("ticker batches always validate in order");
            batch.apply(&mut cube);
        }
        assert!(cube.total_fact_rows() > scenario.cube.total_fact_rows());
    }

    #[test]
    fn re_anchoring_survives_compaction() {
        let scenario = scenario();
        let mut cube = scenario.cube.clone();
        let mut ticker = RetailTicker::new(&scenario, TickerConfig::default().with_retractions(3));
        for batch in ticker.by_ref().take(6) {
            batch.validate(&cube).expect("pre-compaction batch");
            batch.apply(&mut cube);
        }
        // A no-op anchor before any compaction changes nothing.
        let rows_before = ticker.fact_rows();
        ticker.re_anchor(cube.fact_table("Sales").unwrap()).unwrap();
        assert_eq!(
            (ticker.version_seen(), ticker.fact_rows()),
            (0, rows_before)
        );

        // Compact (renumbering every live row), re-anchor, keep going:
        // every later id-addressed batch still validates in order.
        cube.compact_fact_table("Sales").unwrap();
        ticker.re_anchor(cube.fact_table("Sales").unwrap()).unwrap();
        assert_eq!(ticker.version_seen(), 1);
        assert_eq!(
            ticker.fact_rows(),
            cube.fact_table("Sales").unwrap().table.len()
        );
        // The rows the ticker retracted were exactly the rows compaction
        // dropped, so its do-not-touch set empties.
        assert!(ticker.retracted.is_empty());
        for batch in ticker.by_ref().take(6) {
            batch.validate(&cube).expect("re-anchored batch validates");
            batch.apply(&mut cube);
        }
        // A second compaction chains through the (possibly trimmed) remap
        // window the same way.
        cube.compact_fact_table("Sales").unwrap();
        cube.trim_fact_remaps("Sales", 1).unwrap();
        ticker.re_anchor(cube.fact_table("Sales").unwrap()).unwrap();
        assert_eq!(ticker.version_seen(), 2);
        for batch in ticker.take(4) {
            batch
                .validate(&cube)
                .expect("batch after trimmed re-anchor");
            batch.apply(&mut cube);
        }
    }

    #[test]
    fn lagging_past_the_remap_window_is_a_typed_refusal() {
        let scenario = scenario();
        let mut cube = scenario.cube.clone();
        let mut ticker = RetailTicker::new(&scenario, TickerConfig::default().with_retractions(3));
        for batch in ticker.by_ref().take(4) {
            batch.validate(&cube).expect("pre-compaction batch");
            batch.apply(&mut cube);
        }
        // Two compactions land while the ticker never re-anchors; the
        // serving layer then trims the remap chain past the ticker's
        // anchor (version 0).
        cube.compact_fact_table("Sales").unwrap();
        cube.compact_fact_table("Sales").unwrap();
        cube.trim_fact_remaps("Sales", 1).unwrap();
        let rows_before = ticker.fact_rows();
        match ticker.re_anchor(cube.fact_table("Sales").unwrap()) {
            Err(IngestError::ProducerLagged { floor, requested }) => {
                assert_eq!((floor, requested), (1, 0));
            }
            other => panic!("expected ProducerLagged, got {other:?}"),
        }
        // The refusal left the bookkeeping untouched, so the producer can
        // discard its plan and recover deliberately.
        assert_eq!(ticker.version_seen(), 0);
        assert_eq!(ticker.fact_rows(), rows_before);
    }

    #[test]
    fn deterministic_per_seed() {
        let scenario = scenario();
        let a: Vec<DeltaBatch> = RetailTicker::new(&scenario, TickerConfig::default().with_seed(5))
            .take(4)
            .collect();
        let b: Vec<DeltaBatch> = RetailTicker::new(&scenario, TickerConfig::default().with_seed(5))
            .take(4)
            .collect();
        let c: Vec<DeltaBatch> = RetailTicker::new(&scenario, TickerConfig::default().with_seed(6))
            .take(4)
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
