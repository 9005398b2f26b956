//! B16 — shared-scan multi-query batch execution: one morsel-parallel
//! pass answering a whole dashboard refresh vs executing each panel
//! alone.
//!
//! The batch path resolves every query against one snapshot up front,
//! shares group-key dictionaries per attribute, and materialises one
//! selection vector per *filter class* per morsel — queries whose
//! canonical filters coincide share it outright. Three overlap regimes
//! bound the win:
//!
//! * **identical** — every panel filters the same city: the whole batch
//!   is one filter class, so per-row predicate work is paid once and the
//!   GLADE-style sharing is maximal;
//! * **disjoint** — every panel filters a different city: each panel
//!   pays its own predicate pass and only the shared scan loop,
//!   dictionaries and morsel scheduling are amortised;
//! * **mixed** — alternating shared/distinct filters, the realistic
//!   dashboard middle ground.
//!
//! Swept at batch sizes 1/2/4/8/16 on the paper scenario scaled to
//! ~100k sales rows. `standalone/N` executes the same queries one at a
//! time (the pre-batch cost); `batched/N` is one `execute_batch_with_view`
//! call; `batched-warm-dicts/N` adds a pre-warmed group-key dictionary
//! cache (what the serving layer sees from the second refresh on). The
//! acceptance gate compares `batched/identical/8` against
//! `standalone/identical/1`: the 8-panel batch must cost ≤ 3× one
//! uncached panel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdwp_datagen::{dashboard_batch, OverlapRegime, PaperScenario, ScenarioConfig};
use sdwp_olap::{GroupDictCache, InstanceView, QueryEngine};
use std::hint::black_box;
use std::time::Duration;

/// Batch sizes swept per overlap regime.
const BATCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn bench_shared_scan_batch(c: &mut Criterion) {
    // The acceptance scenario: the default paper scenario scaled 20× —
    // ~100k sales rows, 500 cities — so scans dominate setup.
    let config = ScenarioConfig::default().scaled(20);
    let cities = config.cities;
    let scenario = PaperScenario::generate(config);
    let cube = &scenario.cube;
    let rows = cube
        .fact_table("Sales")
        .expect("scenario has Sales")
        .table
        .len() as u64;
    let engine = QueryEngine::new();
    let view = InstanceView::unrestricted();

    for regime in OverlapRegime::ALL {
        let mut group = c.benchmark_group(format!("shared_scan_batch/{}", regime.label()));
        for &size in &BATCH_SIZES {
            let batch = dashboard_batch(regime, size, cities);
            // Every variant scans the same fact once per logical pass;
            // report fact-row throughput of one pass so curves compare.
            group.throughput(Throughput::Elements(rows));

            group.bench_function(BenchmarkId::new("standalone", size), |b| {
                b.iter(|| {
                    for query in &batch {
                        black_box(
                            engine
                                .execute_with_view(cube, query, &view)
                                .expect("dashboard query executes"),
                        );
                    }
                })
            });

            group.bench_function(BenchmarkId::new("batched", size), |b| {
                b.iter(|| {
                    for result in engine.execute_batch_with_view(cube, black_box(&batch), &view) {
                        black_box(result.expect("dashboard query executes"));
                    }
                })
            });

            group.bench_function(BenchmarkId::new("batched-warm-dicts", size), |b| {
                let dicts = GroupDictCache::new();
                // Warm the dictionaries once; the measured loop then
                // only pays lookups, like the second refresh onward.
                for result in
                    engine.execute_batch_observed(cube, &batch, &view, Some((&dicts, 1)), None)
                {
                    result.expect("dashboard query executes");
                }
                b.iter(|| {
                    for result in engine.execute_batch_observed(
                        cube,
                        black_box(&batch),
                        &view,
                        Some((&dicts, 1)),
                        None,
                    ) {
                        black_box(result.expect("dashboard query executes"));
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_shared_scan_batch
}
criterion_main!(benches);
