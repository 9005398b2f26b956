//! Set-up: the scenario, the engine behind its facade, rules, standing
//! sessions, warm-up — and, outside set-up time, the reference answers.

use crate::spec::Workload;
use crate::target::{render_table, RealTarget};
use crate::workloads::{
    aggregate_as_query, churn_location, feed_ticker, has_relogin, mix, AnalystClient, ChurnClient,
    Client, ColdClient, Feeder, Reader, Record, RefTable, References, Stash, WarmClient,
    RELOGIN_EVERY, SELECTIONS, USER,
};
use sdwp_core::{PersonalizationEngine, TenantPolicy, WebFacade, WebRequest, WebResponse};
use sdwp_datagen::{PaperScenario, ScenarioConfig};
use sdwp_ingest::{EpochPolicy, IngestConfig};
use sdwp_olap::{Cube, ExecutionConfig, InstanceView, Query, QueryEngine};
use sdwp_prml::corpus::ALL_PAPER_RULES;
use sdwp_user::{LocationContext, SessionId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Factor on `ScenarioConfig::default()` (20: 100 000 `Sales` rows,
    /// 4 000 stores, 500 cities).
    pub scale: usize,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Sizing {
    /// The benchmark's size.
    pub const FULL: Sizing = Sizing {
        scale: 20,
        setups: 5,
    };
    /// The smoke test's size.
    pub const SMOKE: Sizing = Sizing {
        scale: 2,
        setups: 1,
    };

    /// Whether guards that depend on the full size apply: 500 cities
    /// outrun the result cache, and windows are long enough for a p99 of
    /// generator lateness and for the layer sum to mean something.
    pub fn is_full(self) -> bool {
        self.scale >= Sizing::FULL.scale
    }
}

/// Seed of the generated warehouse. The data set is fixed, like a
/// benchmark's scale factor: `--seed` drives the request streams only
/// (where each stream starts, the delta feed). How much work a request is
/// depends on the data — the Train rule's triple `Foreach` alone varies
/// 2.6× between data seeds — and a metric that moves with the seed cannot
/// be compared between runs.
pub const DATA_SEED: u64 = 42;

/// Radius of the `regional` rule set's instance rule, km.
pub const REGIONAL_KM: f64 = 150.0;
/// Radius of the paper's instance rule, km.
pub const PAPER_KM: f64 = 5.0;

/// The rule texts a workload runs under: the paper's verbatim, or the
/// same with the 5 km instance rule widened to 150 km.
pub fn rule_texts(workload: Workload) -> Vec<String> {
    ALL_PAPER_RULES
        .iter()
        .map(|text| match workload {
            Workload::SessionChurn => text.to_string(),
            _ => text.replace("<5km", "<150km"),
        })
        .collect()
}

/// The radius of the instance rule in [`rule_texts`].
pub fn rule_radius_km(workload: Workload) -> f64 {
    match workload {
        Workload::SessionChurn => PAPER_KM,
        _ => REGIONAL_KM,
    }
}

/// The clients of a workload, with the stream state they carry from
/// warm-up into the measured window.
// One value per run: boxing the large variant would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Clients {
    /// One closed-loop client (`cold_refresh`, `warm_refresh`,
    /// `session_churn`).
    Solo(Box<dyn Client>),
    /// `two_tenant`: the measured dashboard client and the analyst.
    Tenants {
        /// The dashboard tenant's client.
        dashboard: Box<dyn Client>,
        /// The analyst tenant's client.
        analyst: Box<dyn Client>,
    },
    /// `live_dashboard`: the paced feeder and reader.
    Live {
        /// Sends ticker batches.
        feeder: Feeder,
        /// Sends aggregates and the read-your-writes probe.
        reader: Reader,
    },
}

/// A set-up system, ready for its measured window.
pub struct Rig {
    /// The workload it was set up for.
    pub workload: Workload,
    /// The generated data.
    pub scenario: Arc<PaperScenario>,
    /// The engine, shared with the facade.
    pub engine: Arc<PersonalizationEngine>,
    /// The facade the load goes through.
    pub facade: WebFacade,
    /// Standing sessions (none for `session_churn`).
    pub sessions: Vec<SessionId>,
    /// Where the standing sessions logged in.
    pub login_point: (f64, f64),
    /// The workload's clients.
    pub clients: Clients,
    /// Seconds spent generating the scenario (part of `setup_s`).
    pub generate_s: f64,
    /// Seconds from nothing to warmed up.
    pub setup_s: f64,
    /// What warm-up measured (its failures count).
    pub warmup: Record,
}

/// Share of all stores the standing sessions' view should hold.
const REGIONAL_STORE_SHARE: f64 = 0.17;

/// Where the standing sessions log in: just east of the store (of 64
/// spread over the store list) whose 150 km neighbourhood holds closest
/// to 17 % of all stores. The width of the session view decides how much
/// work every query is, so it must not wander with the seed the way a
/// fixed store's distance from the region's edge does.
fn regional_login_point(scenario: &PaperScenario) -> (f64, f64) {
    let stores = &scenario.retail.stores;
    let target = REGIONAL_STORE_SHARE * stores.len() as f64;
    let within = |x: f64, y: f64| {
        stores
            .iter()
            .filter(|s| (s.location.x() - x).hypot(s.location.y() - y) < REGIONAL_KM)
            .count() as f64
    };
    stores
        .iter()
        .step_by((stores.len() / 64).max(1))
        .map(|store| (store.location.x() + 0.5, store.location.y()))
        .map(|(x, y)| ((within(x, y) - target).abs(), (x, y)))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("the scenario has stores")
        .1
}

fn login(facade: &WebFacade, point: (f64, f64), class: Option<&str>) -> Result<SessionId, String> {
    match facade.handle(WebRequest::Login {
        user: USER.into(),
        location: Some(point),
        class: class.map(str::to_string),
    }) {
        WebResponse::LoggedIn { session, .. } => Ok(session),
        other => Err(format!("set-up login answered {other:?}")),
    }
}

/// Operations each client runs before the window opens. `session_churn`
/// needs one fresh login and one interest-triggered relogin here: they
/// publish the Airport and Train schema generations exactly once.
fn warmup_ops(workload: Workload) -> u64 {
    match workload {
        Workload::ColdRefresh => 20,
        Workload::WarmRefresh => 600,
        Workload::SessionChurn => RELOGIN_EVERY,
        Workload::LiveDashboard => 50,
        Workload::TwoTenant => 10,
    }
}

/// Builds the system for `workload` from `seed` and warms it up.
pub fn setup(workload: Workload, seed: u64, sizing: Sizing) -> Result<Rig, String> {
    let begin = Instant::now();
    let config = ScenarioConfig::default()
        .scaled(sizing.scale)
        .with_seed(DATA_SEED);
    let cities = config.cities;
    let scenario = Arc::new(PaperScenario::generate(config));
    let generate_s = begin.elapsed().as_secs_f64();

    // The shipping default: `ExecutionConfig::default()`, metrics on.
    let engine = Arc::new(PersonalizationEngine::with_layer_source(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
    ));
    engine.register_user(scenario.manager.clone());
    engine.set_parameter("threshold", 2.0);
    for rule in rule_texts(workload) {
        engine
            .add_rules_text(&rule)
            .map_err(|error| format!("rule registration failed: {error}"))?;
    }
    let facade = WebFacade::from_shared(Arc::clone(&engine));

    let login_point = regional_login_point(&scenario);
    let first = mix(seed, 1) % 100_000;
    let mut sessions = Vec::new();
    let mut clients = match workload {
        Workload::ColdRefresh => {
            sessions.push(login(&facade, login_point, None)?);
            Clients::Solo(Box::new(ColdClient::new(sessions[0], cities, first)))
        }
        Workload::WarmRefresh => {
            sessions.push(login(&facade, login_point, None)?);
            Clients::Solo(Box::new(WarmClient::new(sessions[0], cities, first)))
        }
        Workload::SessionChurn => Clients::Solo(Box::new(ChurnClient::new(
            Arc::clone(&engine),
            Arc::clone(&scenario),
            first,
        ))),
        Workload::LiveDashboard => {
            engine.start_ingest(IngestConfig::default().with_epoch(EpochPolicy {
                max_rows: 256,
                max_interval: Duration::from_millis(5),
            }));
            sessions.push(login(&facade, login_point, None)?);
            let view = engine
                .session_view(sessions[0])
                .map_err(|e| e.to_string())?;
            let probe_store = view
                .selected_members("Store")
                .and_then(|members| members.iter().next().copied())
                .ok_or("the regional view selects no store")?;
            Clients::Live {
                feeder: Feeder::new(feed_ticker(&scenario, seed)),
                reader: Reader::new(Arc::clone(&engine), &scenario, sessions[0], probe_store),
            }
        }
        Workload::TwoTenant => {
            engine.set_tenant_policy("dashboard", TenantPolicy::default().with_weight(8));
            engine.set_tenant_policy(
                "analyst",
                TenantPolicy::default().with_weight(1).with_max_in_flight(1),
            );
            sessions.push(login(&facade, login_point, Some("dashboard"))?);
            sessions.push(login(&facade, login_point, Some("analyst"))?);
            Clients::Tenants {
                dashboard: Box::new(ColdClient::new(sessions[0], cities, first)),
                analyst: Box::new(AnalystClient::new(
                    sessions[1],
                    cities,
                    mix(seed, 2) % 100_000,
                )),
            }
        }
    };

    let mut warmup = Record::default();
    let mut target = RealTarget::new(&facade);
    for _ in 0..warmup_ops(workload) {
        match &mut clients {
            Clients::Solo(client) => client.run_op(&mut target, &mut warmup),
            Clients::Tenants { dashboard, analyst } => {
                dashboard.run_op(&mut target, &mut warmup);
                analyst.run_op(&mut target, &mut warmup);
            }
            Clients::Live { feeder, reader } => {
                feeder.tick(&mut target, &mut warmup, None);
                feeder.tick(&mut target, &mut warmup, None);
                reader.tick(&mut target, &mut warmup, None);
            }
        }
    }
    Ok(Rig {
        workload,
        scenario,
        engine,
        facade,
        sessions,
        login_point,
        clients,
        generate_s,
        setup_s: begin.elapsed().as_secs_f64(),
        warmup,
    })
}

/// Sessions of `session_churn` with a reference answer.
const REFERENCE_SESSIONS: u64 = 32;
/// Stashed `live_dashboard` responses compared with the serial answer,
/// per pass.
const VERIFY_STASHED: usize = 16;

fn serial_engine() -> QueryEngine {
    QueryEngine::with_config(ExecutionConfig::serial())
}

/// The serial reference's answer, and how long it took in µs.
fn reference_answer(
    cube: &Cube,
    query: &Query,
    view: &InstanceView,
) -> Result<(RefTable, f64), String> {
    let start = Instant::now();
    let result = serial_engine()
        .execute_serial_with_view(cube, query, view)
        .map_err(|error| format!("serial reference failed: {error}"))?;
    let micros = start.elapsed().as_nanos() as f64 / 1e3;
    let (columns, rows) = render_table(&result);
    Ok((
        RefTable {
            columns,
            rows,
            facts_matched: result.facts_matched,
        },
        micros,
    ))
}

/// Reference answers for `queries` on one view, on two threads (the
/// sandbox has two cores). Returns the tables and each query's time.
fn reference_tables(
    cube: &Cube,
    view: &InstanceView,
    queries: &[Query],
    references: &mut References,
    times_us: &mut Vec<f64>,
) -> Result<(), String> {
    let mut distinct: Vec<&Query> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for query in queries {
        if seen.insert(query.canonical_key()) {
            distinct.push(query);
        }
    }
    let halves = distinct.split_at(distinct.len() / 2);
    let work = |part: &[&Query]| -> Result<Vec<(String, RefTable, f64)>, String> {
        part.iter()
            .map(|query| {
                reference_answer(cube, query, view)
                    .map(|(table, micros)| (query.canonical_key(), table, micros))
            })
            .collect()
    };
    let (left, right) = std::thread::scope(|scope| {
        let right = scope.spawn(|| work(halves.1));
        let left = work(halves.0);
        (left, right.join().expect("reference thread panicked"))
    });
    for (key, table, micros) in left?.into_iter().chain(right?) {
        references.by_query.insert(key, table);
        times_us.push(micros);
    }
    Ok(())
}

/// What the reference pass found out besides the answers it handed to
/// the clients.
pub struct ReferenceFacts {
    /// Time of each serial reference execution, µs.
    pub serial_us: Vec<f64>,
    /// A session view of the workload (the standing session's, or the
    /// first churn session's), for the view and spatial probes.
    pub view: Arc<InstanceView>,
}

/// Computes the reference answers for the first operations of the
/// window and hands them to the clients. Not part of `setup_s`: this is
/// the harness's work, not the system's.
pub fn prepare_references(rig: &mut Rig) -> Result<ReferenceFacts, String> {
    let engine = Arc::clone(&rig.engine);
    let cube = engine.cube();
    let mut references = References::default();
    let mut serial_us = Vec::new();
    let standing_view = match rig.sessions.first() {
        Some(&session) => Some(engine.session_view(session).map_err(|e| e.to_string())?),
        None => None,
    };
    let queries: Vec<Query> = match &rig.clients {
        Clients::Solo(client) => client.upcoming_queries(),
        // Both tenants logged in at the same point: one view content.
        Clients::Tenants { dashboard, analyst } => {
            let mut queries = dashboard.upcoming_queries();
            queries.extend(analyst.upcoming_queries());
            queries
        }
        // `live_dashboard` reads a new snapshot every time; its answers
        // are checked against the snapshot they came from, after the
        // window (`verify_stash`).
        Clients::Live { .. } => Vec::new(),
    };
    if let Some(view) = standing_view.as_deref() {
        reference_tables(&cube, view, &queries, &mut references, &mut serial_us)?;
    }
    let mut churn_view = None;
    if let (Clients::Solo(client), Workload::SessionChurn) = (&rig.clients, rig.workload) {
        // Every session has its own view: log in where the session will,
        // answer its aggregate serially, log out.
        let first = client.next_ordinal();
        for ordinal in first..first + REFERENCE_SESSIONS {
            let (x, y) = churn_location(&rig.scenario, ordinal);
            let handle = engine
                .start_session(USER, Some(LocationContext::at_point("reference", x, y)))
                .map_err(|e| e.to_string())?;
            let view = engine.session_view(handle.id).map_err(|e| e.to_string())?;
            let (table, micros) = reference_answer(&cube, &aggregate_as_query(0), &view)?;
            references.by_ordinal.insert(ordinal, table);
            serial_us.push(micros);
            churn_view.get_or_insert(view);
            if has_relogin(ordinal) {
                // Raise the interest as the session will, and log in again.
                for _ in 0..SELECTIONS {
                    engine
                        .record_spatial_selection(handle.id, "GeoMD.Store.City", None)
                        .map_err(|e| e.to_string())?;
                }
            }
            engine.end_session(handle.id).map_err(|e| e.to_string())?;
            if has_relogin(ordinal) {
                let handle = engine
                    .start_session(USER, Some(LocationContext::at_point("reference", x, y)))
                    .map_err(|e| e.to_string())?;
                let view = engine.session_view(handle.id).map_err(|e| e.to_string())?;
                let (table, micros) = reference_answer(&cube, &aggregate_as_query(0), &view)?;
                references.by_relogin.insert(ordinal, table);
                serial_us.push(micros);
                engine.end_session(handle.id).map_err(|e| e.to_string())?;
                engine.register_user(rig.scenario.manager.clone());
            }
        }
    }
    let references = Arc::new(references);
    match &mut rig.clients {
        Clients::Solo(client) => client.set_references(Arc::clone(&references)),
        Clients::Tenants { dashboard, analyst } => {
            dashboard.set_references(Arc::clone(&references));
            analyst.set_references(Arc::clone(&references));
        }
        Clients::Live { reader, .. } => {
            // Warm-up responses are checked like the window's.
            let view = standing_view.as_deref().expect("a standing session");
            serial_us.extend(verify_stash(&reader.take_stash(), view, &mut rig.warmup));
        }
    }
    Ok(ReferenceFacts {
        serial_us,
        view: standing_view
            .or(churn_view)
            .expect("a standing session or a reference session"),
    })
}

/// Checks the responses `live_dashboard`'s reader kept: a probe's own
/// row must be in the snapshot published when its read returned, and a
/// response computed from exactly one snapshot must equal the serial
/// reference on it. Returns the serial reference's times, µs.
pub fn verify_stash(stash: &[Stash], view: &InstanceView, record: &mut Record) -> Vec<f64> {
    let mut serial_us = Vec::new();
    let query = aggregate_as_query(0);
    for kept in stash {
        if let Some(keys) = kept.probe_row {
            record.checked += 1;
            if !probe_row_present(&kept.cube, keys) {
                record.failed += 1;
                record
                    .first_failure
                    .get_or_insert_with(|| format!("probe row {keys:?} is not in the snapshot"));
            }
        }
        if !kept.stable || serial_us.len() >= VERIFY_STASHED {
            continue;
        }
        let WebResponse::Table {
            columns,
            rows,
            facts_matched,
        } = &kept.response
        else {
            continue;
        };
        match reference_answer(&kept.cube, &query, view) {
            Ok((reference, micros)) => {
                serial_us.push(micros);
                record.checked += 1;
                if !crate::workloads::table_matches(columns, rows, *facts_matched, &reference, true)
                {
                    record.failed += 1;
                    record
                        .first_failure
                        .get_or_insert_with(|| "wrong table beside ingest".to_string());
                }
            }
            Err(message) => {
                record.failed += 1;
                record.first_failure.get_or_insert(message);
            }
        }
    }
    serial_us
}

/// Rows from the table's end searched for a probe's row: the row was
/// appended a moment before the snapshot was taken.
const PROBE_SEARCH_ROWS: usize = 4096;

fn probe_row_present(cube: &Cube, keys: [usize; 4]) -> bool {
    let Ok(fact) = cube.fact_table("Sales") else {
        return false;
    };
    let rows = fact.table.len();
    (rows.saturating_sub(PROBE_SEARCH_ROWS)..rows)
        .rev()
        .any(|row| {
            ["Store", "Customer", "Product", "Time"]
                .iter()
                .zip(keys)
                .all(|(dimension, key)| cube.fact_member("Sales", row, dimension).ok() == Some(key))
        })
}
