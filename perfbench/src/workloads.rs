//! The request streams of the five workloads, the per-request latency
//! record, and answer checking.
//!
//! Every generator is a pure function of the seed (through the scenario
//! and the ordinals derived from it); the program under test only ever
//! sees the generated requests.

use crate::target::{aggregate_query, Target};
use sdwp_core::{BatchEntry, PersonalizationEngine, WebRequest, WebResponse};
use sdwp_datagen::{dashboard_batch, OverlapRegime, PaperScenario, RetailTicker, TickerConfig};
use sdwp_ingest::DeltaBatch;
use sdwp_model::AggregationFunction;
use sdwp_olap::{AttributeRef, CellValue, Cube, Filter, Query};
use sdwp_user::{SessionId, UserProfile};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The decision maker every session logs in as.
pub const USER: &str = "regional-manager";
/// Panels per dashboard refresh.
pub const PANELS: usize = 8;
/// Cities a refresh's filters are shifted by per ordinal: a mixed
/// 8-panel batch touches 5 consecutive cities, so a stride of 5 makes
/// consecutive refreshes disjoint.
pub const COLD_STRIDE: usize = 5;
/// Dashboards in the warm set.
pub const WARM_DASHBOARDS: usize = 4;
/// Requests in one cycle of the warm set: the dashboards, then the two
/// aggregates.
pub const WARM_CYCLE: u64 = (WARM_DASHBOARDS + AGGREGATES.len()) as u64;
/// Spatial selections per session in `session_churn`.
pub const SELECTIONS: usize = 4;
/// Every this-many-th session logs in a second time.
pub const RELOGIN_EVERY: u64 = 4;
/// Period of the delta feed in `live_dashboard`.
pub const FEED_PERIOD: Duration = Duration::from_millis(5);
/// Period of the reader in `live_dashboard`.
pub const READ_PERIOD: Duration = Duration::from_millis(10);
/// Every this-many-th read is the read-your-writes probe.
pub const PROBE_EVERY: u64 = 25;
/// Full table comparison for this many operations per client; later
/// ones compare row counts and `facts_matched` only.
pub const FULL_CHECKS: u64 = 500;

/// Flag on an operation id: an auxiliary operation (the read-your-writes
/// probe), left out when layer times are added up per operation.
pub const AUX_OP: u64 = 1 << 63;

/// SplitMix64: derives stream offsets from the seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request types whose latencies are reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// An 8-panel `QueryBatch`.
    Batch,
    /// An `Aggregate`.
    Aggregate,
    /// A fresh `Login`.
    Login,
    /// An interest-triggered `Login`.
    Relogin,
    /// A `SpatialSelection`.
    Selection,
    /// The analyst's one-panel `QueryBatch`.
    Analyst,
}

/// What one client measured.
#[derive(Debug, Default)]
pub struct Record {
    /// Latency of each operation, µs (closed loop: first request to last
    /// response; open loop: due time to response).
    pub ops: Vec<f64>,
    /// Service time of each operation, µs (open loop only: actual start
    /// to response; what the layer times are compared with).
    pub service: Vec<f64>,
    /// Latencies by request type, µs.
    pub kinds: HashMap<Kind, Vec<f64>>,
    /// Read-your-writes probe latencies (submit → table), ms.
    pub ryw_ms: Vec<f64>,
    /// How late the open-loop generator issued each request, µs.
    pub late_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// `Error`, `Overloaded`, `BatchEntry::Error` or wrong answers.
    pub failed: u64,
    /// Tables compared with a reference.
    pub checked: u64,
    /// First failure, for the error message.
    pub first_failure: Option<String>,
    /// Rules matched, as the responses report them.
    pub rules_matched: u64,
    /// Validity: a fresh login listed `TrainAirportCity`, or a relogin
    /// did not.
    pub regime_violations: u64,
}

impl Record {
    fn sample(&mut self, kind: Kind, micros: f64) {
        self.kinds.entry(kind).or_default().push(micros);
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Folds another client's record into this one.
    pub fn merge(&mut self, other: Record) {
        self.ops.extend(other.ops);
        self.service.extend(other.service);
        for (kind, samples) in other.kinds {
            self.kinds.entry(kind).or_default().extend(samples);
        }
        self.ryw_ms.extend(other.ryw_ms);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.rules_matched += other.rules_matched;
        self.regime_violations += other.regime_violations;
    }

    /// Latencies of one request type (empty when none were sent).
    pub fn kind(&self, kind: Kind) -> &[f64] {
        self.kinds.get(&kind).map_or(&[], Vec::as_slice)
    }

    /// Responses that were neither failures nor wrong.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed.min(self.attempted)
    }
}

/// A reference answer: a table as `WebResponse::Table` renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct RefTable {
    /// Column headers.
    pub columns: Vec<String>,
    /// Rendered rows.
    pub rows: Vec<Vec<String>>,
    /// Fact rows that passed every filter.
    pub facts_matched: usize,
}

/// Reference answers by canonical query text (one view per workload) or,
/// for `session_churn`, by session ordinal.
#[derive(Debug, Default)]
pub struct References {
    /// Answers keyed by `Query::canonical_key`.
    pub by_query: HashMap<String, RefTable>,
    /// `session_churn`: the aggregate's answer per session ordinal.
    pub by_ordinal: HashMap<u64, RefTable>,
    /// `session_churn`: the aggregate's answer after the second login of
    /// the sessions that have one (the Train rule narrows the view).
    pub by_relogin: HashMap<u64, RefTable>,
}

/// Cells agree when equal as text or, for floats rendered at a rounding
/// boundary, as numbers within 1e-6 relative.
fn cells_agree(a: &str, b: &str) -> bool {
    a == b
        || match (a.parse::<f64>(), b.parse::<f64>()) {
            (Ok(x), Ok(y)) => (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0),
            _ => false,
        }
}

/// Compares an answered table with its reference; `full` compares every
/// cell, otherwise shape and `facts_matched` only.
pub fn table_matches(
    columns: &[String],
    rows: &[Vec<String>],
    facts_matched: usize,
    reference: &RefTable,
    full: bool,
) -> bool {
    if facts_matched != reference.facts_matched || rows.len() != reference.rows.len() {
        return false;
    }
    !full
        || (columns == reference.columns.as_slice()
            && rows.iter().zip(&reference.rows).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cells_agree(x, y))
            }))
}

// ----- refresh streams (cold_refresh, warm_refresh, two_tenant) --------

/// Rewrites the `City-<n>` constant of a panel's store filter.
fn shift_city(query: &mut Query, shift: usize, cities: usize) {
    for (_, filter) in &mut query.dimension_filters {
        if let Filter::Attribute {
            value: CellValue::Text(name),
            ..
        } = filter
        {
            if let Some(city) = name
                .strip_prefix("City-")
                .and_then(|n| n.parse::<usize>().ok())
            {
                *name = format!("City-{}", (city + shift) % cities.max(1));
            }
        }
    }
}

/// The dashboard of refresh `ordinal`: `dashboard_batch`'s six panel
/// shapes in the mixed overlap pattern, every city filter shifted by
/// `ordinal × COLD_STRIDE`. A (shape, city) pair recurs only after
/// `cities / COLD_STRIDE` refreshes.
pub fn refresh_queries(ordinal: u64, cities: usize) -> Vec<Query> {
    let mut queries = dashboard_batch(OverlapRegime::Mixed, PANELS, cities);
    let shift = (ordinal as usize % cities.max(1)) * COLD_STRIDE;
    for query in &mut queries {
        shift_city(query, shift, cities);
    }
    queries
}

/// The aggregates of the warm set and of the sessions: `(measure,
/// group-by)` of `WebRequest::Aggregate` over `Sales`.
pub const AGGREGATES: [(&str, (&str, &str, &str)); 2] = [
    ("UnitSales", ("Store", "City", "name")),
    ("StoreSales", ("Product", "Category", "name")),
];

/// `WebRequest::Aggregate` number `which` of [`AGGREGATES`].
pub fn aggregate_request(session: SessionId, which: usize) -> WebRequest {
    let (measure, (dimension, level, attribute)) = AGGREGATES[which % AGGREGATES.len()];
    WebRequest::Aggregate {
        session,
        fact: "Sales".into(),
        measure: measure.into(),
        group_by: vec![(dimension.into(), level.into(), attribute.into())],
        deadline_micros: None,
    }
}

/// The query [`aggregate_request`] stands for.
pub fn aggregate_as_query(which: usize) -> Query {
    let (measure, (dimension, level, attribute)) = AGGREGATES[which % AGGREGATES.len()];
    aggregate_query(
        "Sales",
        measure,
        &[(dimension.into(), level.into(), attribute.into())],
    )
}

/// The reference answer of each query, where there is one. Computing a
/// canonical key formats the whole query: clients whose operations take
/// microseconds resolve their references once, not per operation.
fn resolve<'a>(
    references: Option<&'a References>,
    queries: &'a [Query],
) -> impl Iterator<Item = Option<&'a RefTable>> {
    queries
        .iter()
        .map(move |query| references?.by_query.get(&query.canonical_key()))
}

/// Checks a `QueryBatch` response of `panels` panels against their
/// reference answers; returns false on any failure (already recorded).
fn check_batch<'a>(
    record: &mut Record,
    response: &WebResponse,
    panels: usize,
    references: impl Iterator<Item = Option<&'a RefTable>>,
    full: bool,
) -> bool {
    let WebResponse::BatchResult { results } = response else {
        record.fail(|| format!("QueryBatch answered {response:?}"));
        return false;
    };
    if results.len() != panels {
        record.fail(|| format!("{} panels answered for {panels}", results.len()));
        return false;
    }
    for (panel, (entry, reference)) in results.iter().zip(references).enumerate() {
        match entry {
            BatchEntry::Error { message } => {
                record.fail(|| format!("panel {panel} failed: {message}"));
                return false;
            }
            BatchEntry::Table {
                columns,
                rows,
                facts_matched,
            } => {
                if let Some(reference) = reference {
                    record.checked += 1;
                    if !table_matches(columns, rows, *facts_matched, reference, full) {
                        record.fail(|| format!("wrong table in panel {panel}"));
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Checks a `Table` response against a reference.
fn check_table(
    record: &mut Record,
    response: &WebResponse,
    reference: Option<&RefTable>,
    full: bool,
) -> bool {
    let WebResponse::Table {
        columns,
        rows,
        facts_matched,
    } = response
    else {
        record.fail(|| format!("Aggregate answered {response:?}"));
        return false;
    };
    if let Some(reference) = reference {
        record.checked += 1;
        if !table_matches(columns, rows, *facts_matched, reference, full) {
            record.fail(|| "wrong aggregate table".to_string());
            return false;
        }
    }
    true
}

/// A closed-loop client: each call runs one operation to completion.
pub trait Client: Send {
    /// Runs the next operation against `target`.
    fn run_op(&mut self, target: &mut dyn Target, record: &mut Record);

    /// Hands the client its reference answers (none during warm-up).
    fn set_references(&mut self, references: Arc<References>);

    /// The ordinal of the next operation.
    fn next_ordinal(&self) -> u64;

    /// The queries of the coming operations that get a reference answer
    /// on the client's session view (none for `session_churn`, whose view
    /// changes with every session).
    fn upcoming_queries(&self) -> Vec<Query> {
        Vec::new()
    }
}

/// Refreshes whose panels get a reference answer: the serial reference
/// costs ≈ 10 ms per query at full size, and the window is short.
const REFERENCE_REFRESHES: u64 = 16;
/// Analyst queries with a reference answer.
const REFERENCE_ANALYST: u64 = 6;

/// `cold_refresh` and the dashboard client of `two_tenant`: a dashboard
/// refresh whose panels never repeat within the cache's reach.
pub struct ColdClient {
    session: SessionId,
    cities: usize,
    /// Next refresh ordinal.
    pub ordinal: u64,
    references: Option<Arc<References>>,
}

impl ColdClient {
    /// A client starting at refresh `ordinal`.
    pub fn new(session: SessionId, cities: usize, ordinal: u64) -> Self {
        ColdClient {
            session,
            cities,
            ordinal,
            references: None,
        }
    }
}

impl Client for ColdClient {
    fn run_op(&mut self, target: &mut dyn Target, record: &mut Record) {
        let queries = refresh_queries(self.ordinal, self.cities);
        let request = WebRequest::QueryBatch {
            session: self.session,
            queries: queries.clone(),
            deadline_micros: None,
        };
        target.begin_op(self.ordinal);
        let (response, micros) = target.call(request);
        record.attempted += 1;
        let references = resolve(self.references.as_deref(), &queries);
        if check_batch(record, &response, queries.len(), references, true) {
            record.sample(Kind::Batch, micros);
            record.ops.push(micros);
        }
        self.ordinal += 1;
    }

    fn set_references(&mut self, references: Arc<References>) {
        self.references = Some(references);
    }

    fn next_ordinal(&self) -> u64 {
        self.ordinal
    }

    fn upcoming_queries(&self) -> Vec<Query> {
        (self.ordinal..self.ordinal + REFERENCE_REFRESHES)
            .flat_map(|ordinal| refresh_queries(ordinal, self.cities))
            .collect()
    }
}

/// `warm_refresh`: a cycle over 4 fixed dashboards and 2 aggregates, all
/// of which fit the result cache.
pub struct WarmClient {
    session: SessionId,
    dashboards: Vec<Vec<Query>>,
    /// Next step of the cycle.
    pub step: u64,
    done: u64,
    /// The reference answer of every request of the cycle, per panel.
    references: Vec<Vec<Option<RefTable>>>,
}

impl WarmClient {
    /// The warm set is the first four refreshes of the cold stream, for
    /// every seed: which cities a dashboard filters on decides how large
    /// its tables are, and with them the cost of a hit. The seed picks
    /// the step of the cycle the client starts at.
    pub fn new(session: SessionId, cities: usize, first_step: u64) -> Self {
        WarmClient {
            session,
            dashboards: (0..WARM_DASHBOARDS as u64)
                .map(|d| refresh_queries(d, cities))
                .collect(),
            step: first_step % WARM_CYCLE,
            done: 0,
            references: vec![Vec::new(); WARM_CYCLE as usize],
        }
    }
}

impl Client for WarmClient {
    fn run_op(&mut self, target: &mut dyn Target, record: &mut Record) {
        let slot = (self.step % WARM_CYCLE) as usize;
        let full = self.done < FULL_CHECKS;
        self.done += 1;
        target.begin_op(self.step);
        record.attempted += 1;
        let references = self.references[slot].iter().map(Option::as_ref);
        if slot < WARM_DASHBOARDS {
            let queries = &self.dashboards[slot];
            let (response, micros) = target.call(WebRequest::QueryBatch {
                session: self.session,
                queries: queries.clone(),
                deadline_micros: None,
            });
            if check_batch(record, &response, queries.len(), references, full) {
                record.sample(Kind::Batch, micros);
                record.ops.push(micros);
            }
        } else {
            let which = slot - WARM_DASHBOARDS;
            let (response, micros) = target.call(aggregate_request(self.session, which));
            if check_table(record, &response, references.flatten().next(), full) {
                record.sample(Kind::Aggregate, micros);
            }
        }
        self.step += 1;
    }

    fn set_references(&mut self, references: Arc<References>) {
        let aggregates: Vec<Vec<Query>> = (0..AGGREGATES.len())
            .map(|which| vec![aggregate_as_query(which)])
            .collect();
        self.references = self
            .dashboards
            .iter()
            .chain(&aggregates)
            .map(|queries| {
                resolve(Some(&references), queries)
                    .map(|r| r.cloned())
                    .collect()
            })
            .collect();
    }

    fn next_ordinal(&self) -> u64 {
        self.step
    }

    /// Every query of the warm set.
    fn upcoming_queries(&self) -> Vec<Query> {
        let mut all: Vec<Query> = self.dashboards.iter().flatten().cloned().collect();
        all.extend((0..AGGREGATES.len()).map(aggregate_as_query));
        all
    }
}

/// The analyst's query of `two_tenant`: store-level group-by over every
/// measure plus a COUNT DISTINCT, under a filter that excludes one
/// customer city (so it matches almost every row and never repeats).
pub fn analyst_query(ordinal: u64, cities: usize) -> Query {
    let city = ordinal as usize % cities.max(1);
    Query::over("Sales")
        .group_by(AttributeRef::new("Store", "Store", "name"))
        .measure("UnitSales")
        .measure("StoreCost")
        .measure("StoreSales")
        .measure_agg("UnitSales", AggregationFunction::CountDistinct)
        .filter_dimension(
            "Customer",
            Filter::Not(Box::new(Filter::eq("City.name", format!("City-{city}")))),
        )
}

/// The analyst client of `two_tenant`.
pub struct AnalystClient {
    session: SessionId,
    cities: usize,
    /// Next query ordinal.
    pub ordinal: u64,
    references: Option<Arc<References>>,
}

impl AnalystClient {
    /// A client starting at query `ordinal`.
    pub fn new(session: SessionId, cities: usize, ordinal: u64) -> Self {
        AnalystClient {
            session,
            cities,
            ordinal,
            references: None,
        }
    }
}

impl Client for AnalystClient {
    fn run_op(&mut self, target: &mut dyn Target, record: &mut Record) {
        let queries = vec![analyst_query(self.ordinal, self.cities)];
        target.begin_op(self.ordinal);
        let (response, micros) = target.call(WebRequest::QueryBatch {
            session: self.session,
            queries: queries.clone(),
            deadline_micros: None,
        });
        record.attempted += 1;
        let references = resolve(self.references.as_deref(), &queries);
        if check_batch(record, &response, queries.len(), references, true) {
            record.sample(Kind::Analyst, micros);
        }
        self.ordinal += 1;
    }

    fn set_references(&mut self, references: Arc<References>) {
        self.references = Some(references);
    }

    fn next_ordinal(&self) -> u64 {
        self.ordinal
    }

    fn upcoming_queries(&self) -> Vec<Query> {
        (self.ordinal..self.ordinal + REFERENCE_ANALYST)
            .map(|ordinal| analyst_query(ordinal, self.cities))
            .collect()
    }
}

// ----- session_churn ----------------------------------------------------

/// The login point of session `ordinal`: just east of a store, rotating
/// over all stores so no two sessions of a run share a view.
pub fn churn_location(scenario: &PaperScenario, ordinal: u64) -> (f64, f64) {
    let stores = &scenario.retail.stores;
    let store = &stores[ordinal as usize % stores.len()];
    (store.location.x() + 0.5, store.location.y())
}

/// Whether session `ordinal` logs in a second time.
pub fn has_relogin(ordinal: u64) -> bool {
    (ordinal + 1).is_multiple_of(RELOGIN_EVERY)
}

/// `session_churn`: whole sessions of the paper's decision maker.
pub struct ChurnClient {
    engine: Arc<PersonalizationEngine>,
    scenario: Arc<PaperScenario>,
    profile: UserProfile,
    /// Next session ordinal.
    pub ordinal: u64,
    references: Option<Arc<References>>,
}

impl ChurnClient {
    /// A client starting at session `ordinal`.
    pub fn new(
        engine: Arc<PersonalizationEngine>,
        scenario: Arc<PaperScenario>,
        ordinal: u64,
    ) -> Self {
        ChurnClient {
            profile: scenario.manager.clone(),
            engine,
            scenario,
            ordinal,
            references: None,
        }
    }

    /// Sends a `Login` and checks which regime it ran in.
    fn login(
        &self,
        target: &mut dyn Target,
        record: &mut Record,
        relogin: bool,
    ) -> Option<(SessionId, f64)> {
        let (response, micros) = target.call(WebRequest::Login {
            user: USER.into(),
            location: Some(churn_location(&self.scenario, self.ordinal)),
            class: None,
        });
        record.attempted += 1;
        match response {
            WebResponse::LoggedIn { session, report } => {
                record.rules_matched += report.rules_matched as u64;
                let train = report
                    .rules_with_effects
                    .iter()
                    .any(|rule| rule == "TrainAirportCity");
                if train != relogin {
                    record.regime_violations += 1;
                }
                record.sample(if relogin { Kind::Relogin } else { Kind::Login }, micros);
                Some((session, micros))
            }
            other => {
                record.fail(|| format!("Login answered {other:?}"));
                None
            }
        }
    }

    /// Sends a request whose response carries nothing to compare.
    fn plain(
        target: &mut dyn Target,
        record: &mut Record,
        request: WebRequest,
        expected: fn(&WebResponse) -> bool,
    ) -> f64 {
        let (response, micros) = target.call(request);
        record.attempted += 1;
        if !expected(&response) {
            record.fail(|| format!("unexpected response {response:?}"));
        }
        micros
    }

    fn aggregate(
        &self,
        target: &mut dyn Target,
        record: &mut Record,
        session: SessionId,
        reference: Option<&RefTable>,
    ) -> f64 {
        let (response, micros) = target.call(aggregate_request(session, 0));
        record.attempted += 1;
        if check_table(record, &response, reference, true) {
            record.sample(Kind::Aggregate, micros);
        }
        micros
    }
}

impl Client for ChurnClient {
    fn run_op(&mut self, target: &mut dyn Target, record: &mut Record) {
        target.begin_op(self.ordinal);
        let references = self.references.clone();
        let reference = references
            .as_deref()
            .and_then(|refs| refs.by_ordinal.get(&self.ordinal));
        let relogin_reference = references
            .as_deref()
            .and_then(|refs| refs.by_relogin.get(&self.ordinal));
        let mut total = 0.0;
        let mut complete = false;
        if let Some((session, micros)) = self.login(target, record, false) {
            total += micros;
            for _ in 0..SELECTIONS {
                let (response, micros) = target.call(WebRequest::SpatialSelection {
                    session,
                    element: "GeoMD.Store.City".into(),
                    expression: None,
                });
                record.attempted += 1;
                total += micros;
                match response {
                    WebResponse::SelectionRecorded { rules_matched } => {
                        record.rules_matched += rules_matched as u64;
                        record.sample(Kind::Selection, micros);
                    }
                    other => record.fail(|| format!("SpatialSelection answered {other:?}")),
                }
            }
            total += self.aggregate(target, record, session, reference);
            total += Self::plain(target, record, WebRequest::Report { session }, |r| {
                matches!(r, WebResponse::Report(_))
            });
            total += Self::plain(target, record, WebRequest::Logout { session }, |r| {
                matches!(r, WebResponse::LoggedOut)
            });
            complete = true;
            if has_relogin(self.ordinal) {
                // Interest is now 4 > threshold: this login also runs the
                // Train rule's triple Foreach, which may narrow the view.
                complete = false;
                if let Some((session, micros)) = self.login(target, record, true) {
                    total += micros;
                    total += self.aggregate(target, record, session, relogin_reference);
                    total += Self::plain(target, record, WebRequest::Logout { session }, |r| {
                        matches!(r, WebResponse::LoggedOut)
                    });
                    complete = true;
                }
            }
        }
        if complete {
            record.ops.push(total);
        }
        // Untimed: the next session starts from interest 0 again, which
        // is what keeps fresh logins in the cheap regime.
        self.engine.register_user(self.profile.clone());
        self.ordinal += 1;
    }

    fn set_references(&mut self, references: Arc<References>) {
        self.references = Some(references);
    }

    fn next_ordinal(&self) -> u64 {
        self.ordinal
    }
}

// ----- live_dashboard ---------------------------------------------------

/// When request `k` of an open-loop stream is due.
pub fn due_time(start: Instant, period: Duration, k: u64) -> Instant {
    start + Duration::from_nanos(period.as_nanos() as u64 * k)
}

/// Sleeps until `due` (never spins: the generator must not compete with
/// the program for the two cores); returns how late it woke, µs.
pub fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e3
}

/// Open-loop latency: a request is timed from when it was *due*, so a
/// stall is charged to every request it delays.
pub fn latency_from_due_us(due: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(due).as_nanos() as f64 / 1e3
}

/// The ticker of the delta feed: 2 appends, 8 price corrections and 1
/// retraction per batch, so the table grows slowly.
pub fn feed_ticker(scenario: &PaperScenario, seed: u64) -> RetailTicker {
    RetailTicker::new(
        scenario,
        TickerConfig::default()
            .with_seed(mix(seed, 3))
            .with_appends(2)
            .with_corrections(8)
            .with_retractions(1),
    )
}

/// The feeder of `live_dashboard`: one ticker batch per tick.
pub struct Feeder {
    ticker: RetailTicker,
    /// Batches sent so far.
    pub sent: u64,
}

impl Feeder {
    /// A feeder over `ticker`.
    pub fn new(ticker: RetailTicker) -> Self {
        Feeder { ticker, sent: 0 }
    }

    /// Sends the next batch; `due` is `None` in the unpaced warm-up.
    pub fn tick(&mut self, target: &mut dyn Target, record: &mut Record, due: Option<Instant>) {
        let batch = self.ticker.next_batch();
        if let Some(due) = due {
            record.late_us.push(wait_until(due));
        }
        target.begin_op(self.sent);
        let (response, _) = target.call(WebRequest::Ingest { batch });
        record.attempted += 1;
        if !matches!(response, WebResponse::IngestAccepted { .. }) {
            record.fail(|| format!("Ingest answered {response:?}"));
        }
        self.sent += 1;
    }
}

/// A response kept with the snapshot it can be checked against once the
/// window is over.
pub struct Stash {
    /// The snapshot published when the response arrived.
    pub cube: Arc<Cube>,
    /// True when no snapshot was published while the query ran, so the
    /// response was computed from exactly `cube`.
    pub stable: bool,
    /// The `Table` response.
    pub response: WebResponse,
    /// The foreign keys of the probe's own row, for a probe.
    pub probe_row: Option<[usize; 4]>,
}

/// Stable regular reads kept for checking, per pass.
const STASH_READS: usize = 24;

/// The reader of `live_dashboard`.
pub struct Reader {
    engine: Arc<PersonalizationEngine>,
    session: SessionId,
    /// A store inside the session's view: where probe rows are sold.
    probe_store: usize,
    customers: usize,
    products: usize,
    days: usize,
    /// Ticks so far.
    pub tick: u64,
    /// Probes so far.
    pub probes: u64,
    /// Responses kept for checking after the window.
    pub stash: Vec<Stash>,
    stashed_reads: usize,
}

impl Reader {
    /// A reader on `session`, whose view contains `probe_store`.
    pub fn new(
        engine: Arc<PersonalizationEngine>,
        scenario: &PaperScenario,
        session: SessionId,
        probe_store: usize,
    ) -> Self {
        Reader {
            engine,
            session,
            probe_store,
            customers: scenario.retail.customers.len(),
            products: scenario.retail.products.len(),
            days: scenario.retail.days,
            tick: 0,
            probes: 0,
            stash: Vec::new(),
            stashed_reads: 0,
        }
    }

    /// Forgets the responses kept so far (between passes).
    pub fn take_stash(&mut self) -> Vec<Stash> {
        self.stashed_reads = 0;
        std::mem::take(&mut self.stash)
    }

    /// The foreign keys of probe `k`'s row: the probe store and a
    /// (customer, product, day) triple that counts up with `k`.
    fn probe_keys(&self, k: u64) -> [usize; 4] {
        let k = k as usize;
        [
            self.probe_store,
            k % self.customers,
            (k / self.customers) % self.products,
            (k / (self.customers * self.products)) % self.days,
        ]
    }

    /// Runs the next read; `due` is `None` in the unpaced warm-up.
    pub fn tick(&mut self, target: &mut dyn Target, record: &mut Record, due: Option<Instant>) {
        let probe = (self.tick + 1).is_multiple_of(PROBE_EVERY);
        let late = due.map(wait_until);
        target.begin_op(if probe { self.tick | AUX_OP } else { self.tick });
        if probe {
            self.probe(target, record);
        } else {
            let before = self.engine.cube_generation();
            let start = Instant::now();
            let (response, micros) = target.call(aggregate_request(self.session, 0));
            let end = Instant::now();
            record.attempted += 1;
            if check_table(record, &response, None, false) {
                record.sample(Kind::Aggregate, micros);
                record.service.push(micros);
                record
                    .ops
                    .push(latency_from_due_us(due.unwrap_or(start), end));
                if let Some(late) = late {
                    record.late_us.push(late);
                }
                if self.stashed_reads < STASH_READS {
                    let (after, cube) = self.engine.cube_versioned();
                    if after == before {
                        self.stashed_reads += 1;
                        self.stash.push(Stash {
                            cube,
                            stable: true,
                            response,
                            probe_row: None,
                        });
                    }
                }
            }
        }
        self.tick += 1;
    }

    /// The read-your-writes probe: append one row, wait for its
    /// publication, pin the session to it, read.
    fn probe(&mut self, target: &mut dyn Target, record: &mut Record) {
        let keys = self.probe_keys(self.probes);
        self.probes += 1;
        let batch = DeltaBatch::new().append(
            "Sales",
            vec![
                ("Store", keys[0]),
                ("Customer", keys[1]),
                ("Product", keys[2]),
                ("Time", keys[3]),
            ],
            vec![
                ("UnitSales", CellValue::Float(1.0)),
                ("StoreCost", CellValue::Float(0.7)),
                ("StoreSales", CellValue::Float(1.0)),
            ],
        );
        let submit = Instant::now();
        let (response, _) = target.call(WebRequest::Ingest { batch });
        record.attempted += 1;
        if !matches!(response, WebResponse::IngestAccepted { .. }) {
            record.fail(|| format!("probe Ingest answered {response:?}"));
            return;
        }
        let generation = match target.flush() {
            Ok(generation) => generation,
            Err(message) => {
                record.attempted += 1;
                record.fail(|| format!("flush failed: {message}"));
                return;
            }
        };
        let (response, _) = target.call(WebRequest::PinGeneration {
            session: self.session,
            generation,
        });
        record.attempted += 1;
        if !matches!(response, WebResponse::GenerationPinned { .. }) {
            record.fail(|| format!("PinGeneration answered {response:?}"));
            return;
        }
        let before = self.engine.cube_generation();
        let (response, _) = target.call(aggregate_request(self.session, 0));
        let end = Instant::now();
        record.attempted += 1;
        if check_table(record, &response, None, false) {
            record
                .ryw_ms
                .push(end.duration_since(submit).as_nanos() as f64 / 1e6);
            let (after, cube) = self.engine.cube_versioned();
            self.stash.push(Stash {
                cube,
                stable: after == before,
                response,
                probe_row: Some(keys),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_datagen::ScenarioConfig;
    use std::collections::HashSet;

    #[test]
    fn generators_are_pure_in_the_seed() {
        assert_eq!(mix(42, 1), mix(42, 1));
        assert_ne!(mix(42, 1), mix(43, 1));
        assert_ne!(mix(42, 1), mix(42, 2));
        for ordinal in [0, 1, 99, 12_345] {
            assert_eq!(refresh_queries(ordinal, 500), refresh_queries(ordinal, 500));
            assert_eq!(analyst_query(ordinal, 500), analyst_query(ordinal, 500));
        }
        let scenario = PaperScenario::generate(ScenarioConfig::tiny().with_seed(5));
        let again = PaperScenario::generate(ScenarioConfig::tiny().with_seed(5));
        assert_eq!(churn_location(&scenario, 7), churn_location(&again, 7));
        let batches = |s: &PaperScenario| -> Vec<DeltaBatch> {
            let mut ticker = feed_ticker(s, 9);
            (0..5).map(|_| ticker.next_batch()).collect()
        };
        assert_eq!(
            format!("{:?}", batches(&scenario)),
            format!("{:?}", batches(&again))
        );
    }

    /// The result cache holds 256 entries; a cold key must not come back
    /// while it could still be cached.
    #[test]
    fn no_cold_key_recurs_within_512_keys() {
        let keys: Vec<String> = (0..300u64)
            .flat_map(|ordinal| refresh_queries(ordinal, 500))
            .map(|query| query.canonical_key())
            .collect();
        let mut last_seen: HashMap<&str, usize> = HashMap::new();
        for (position, key) in keys.iter().enumerate() {
            if let Some(previous) = last_seen.insert(key.as_str(), position) {
                // Panels 0 and 6 of one refresh are the same query.
                let same_refresh = previous / PANELS == position / PANELS;
                assert!(
                    same_refresh || position - previous > 512,
                    "key {key} recurs after {} keys",
                    position - previous
                );
            }
        }
    }

    #[test]
    fn the_warm_set_fits_the_cache() {
        let warm = WarmClient::new(1, 500, 17);
        let queries = warm.upcoming_queries();
        let distinct: HashSet<String> = queries.iter().map(Query::canonical_key).collect();
        assert_eq!(queries.len(), WARM_DASHBOARDS * PANELS + AGGREGATES.len());
        assert!(distinct.len() <= 34 && distinct.len() >= 28);
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let start = Instant::now();
        let period = Duration::from_millis(10);
        assert_eq!(due_time(start, period, 0), start);
        assert_eq!(
            due_time(start, period, 7),
            start + Duration::from_millis(70)
        );
        // A request due at 70 ms that only started at 75 ms and finished at
        // 80 ms took 10 ms, not 5.
        let due = due_time(start, period, 7);
        let end = start + Duration::from_millis(80);
        assert_eq!(latency_from_due_us(due, end), 10_000.0);
        // Due times do not drift with lateness: request 8 is due at 80 ms.
        assert_eq!(
            due_time(start, period, 8),
            start + Duration::from_millis(80)
        );
        // A due time in the past is not waited for, and reports lateness.
        assert!(wait_until(Instant::now() - Duration::from_millis(2)) >= 2_000.0);
    }

    #[test]
    fn table_comparison_is_exact_up_to_float_rendering() {
        let reference = RefTable {
            columns: vec!["k".into(), "v".into()],
            rows: vec![vec!["a".into(), "1.235".into()]],
            facts_matched: 3,
        };
        let same = vec![vec!["a".to_string(), "1.235".to_string()]];
        let rounded = vec![vec!["a".to_string(), "1.2350001".to_string()]];
        let wrong = vec![vec!["a".to_string(), "1.3".to_string()]];
        assert!(table_matches(
            &reference.columns,
            &same,
            3,
            &reference,
            true
        ));
        assert!(table_matches(
            &reference.columns,
            &rounded,
            3,
            &reference,
            true
        ));
        assert!(!table_matches(
            &reference.columns,
            &wrong,
            3,
            &reference,
            true
        ));
        assert!(table_matches(
            &reference.columns,
            &wrong,
            3,
            &reference,
            false
        ));
        assert!(!table_matches(
            &reference.columns,
            &same,
            4,
            &reference,
            false
        ));
    }
}
