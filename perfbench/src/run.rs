//! One run of one workload: set-up, the measured window, the traced
//! pass, the validity guards, and the metrics that come out.

use crate::layers::{self, Counters};
use crate::rig::{self, Clients, Rig, Sizing};
use crate::spans::SpanLog;
use crate::spec::{MetricSpec, Workload, END_TO_END};
use crate::stats::{median, percentile, samples_needed, sorted};
use crate::target::{RealTarget, Shadow, ShadowTarget, Target};
use crate::workloads::{due_time, Client, Kind, Record, FEED_PERIOD, READ_PERIOD, WARM_CYCLE};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds measured (untraced window plus, with `trace`, the traced
    /// pass: two thirds and one third).
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Scenario size and set-up repetitions.
    pub sizing: Sizing,
    /// Where to write the span dump of the traced pass, if anywhere.
    pub spans_out: Option<std::path::PathBuf>,
}

/// A measured metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Which metric.
    pub spec: &'static MetricSpec,
    /// Its value.
    pub value: f64,
    /// Samples behind the value (0: not a sampled statistic).
    pub samples: u64,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Requests sent (warm-up included).
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// Tables compared with a reference answer.
    pub checked: u64,
    /// The first failure's description.
    pub first_failure: Option<String>,
    /// Every end-to-end metric.
    pub end_to_end: Vec<Measured>,
    /// Every per-layer metric (empty without `trace`).
    pub per_layer: Vec<Measured>,
    /// Validity guards on the workload's logic that did not hold (cache
    /// regime, schema generations, login regime): the run is invalid.
    pub invalid: Vec<String>,
    /// Validity guards that did not hold because of the machine's
    /// weather (generator lateness, window-to-window drift of the layer
    /// sum): fatal for `perf run`, a warning for a single driver run —
    /// the driver takes medians over many runs, and one exit code other
    /// than 0 would throw all of them away.
    pub weather: Vec<String>,
    /// Engine worker threads (`ExecutionConfig::effective_workers`).
    pub workers: usize,
}

/// One pass over the clients: a window of load and what it measured.
pub struct Pass {
    /// Length of the window, seconds.
    pub window_s: f64,
    /// The measured client (solo client, dashboard tenant, or reader).
    pub primary: Record,
    /// The other client (analyst tenant, or feeder), if any.
    pub secondary: Record,
    /// Seconds the secondary client ran.
    pub secondary_s: f64,
    /// Engine counters when the window opened.
    pub before: Counters,
    /// Engine counters when it closed.
    pub after: Counters,
    /// Deepest ingest queue seen (sampled by the feeder).
    pub queue_depth_max: u64,
    /// Span logs of a traced pass, primary client first.
    pub logs: Vec<(&'static str, SpanLog)>,
}

fn closed_loop(
    client: &mut dyn Client,
    target: &mut dyn Target,
    deadline: Instant,
) -> (Record, f64) {
    let start = Instant::now();
    let mut record = Record::default();
    while Instant::now() < deadline {
        client.run_op(target, &mut record);
    }
    (record, start.elapsed().as_secs_f64())
}

/// Runs the clients for `seconds`; the primary client goes through the
/// shadow facade when one is given (the secondary always loads the real
/// facade, except the feeder, whose submissions are part of the trace).
pub fn run_pass(rig: &mut Rig, seconds: f64, shadow: Option<&Arc<Shadow>>) -> Pass {
    let before = Counters::capture(&rig.engine);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let real = || RealTarget::new(&rig.facade);
    let mut primary_shadow = shadow.map(|s| ShadowTarget::new(s, epoch));
    let mut secondary_shadow = None;
    let mut primary_real = real();
    let primary_target: &mut dyn Target = match &mut primary_shadow {
        Some(target) => target,
        None => &mut primary_real,
    };
    let mut queue_depth_max = 0;
    let (primary, window_s, secondary, secondary_s) = match &mut rig.clients {
        Clients::Solo(client) => {
            let (record, elapsed) = closed_loop(client.as_mut(), primary_target, deadline);
            (record, elapsed, Record::default(), 0.0)
        }
        Clients::Tenants { dashboard, analyst } => {
            let mut analyst_target = real();
            std::thread::scope(|scope| {
                let analyst =
                    scope.spawn(|| closed_loop(analyst.as_mut(), &mut analyst_target, deadline));
                let (record, elapsed) = closed_loop(dashboard.as_mut(), primary_target, deadline);
                let (other, other_s) = analyst.join().expect("analyst client panicked");
                (record, elapsed, other, other_s)
            })
        }
        Clients::Live { feeder, reader } => {
            let engine = Arc::clone(&rig.engine);
            let mut feeder_real = real();
            secondary_shadow = shadow.map(|s| ShadowTarget::new(s, epoch));
            let feeder_target: &mut dyn Target = match &mut secondary_shadow {
                Some(target) => target,
                None => &mut feeder_real,
            };
            let depth = &mut queue_depth_max;
            std::thread::scope(|scope| {
                let feeding = scope.spawn(move || {
                    let mut record = Record::default();
                    let mut k = 0;
                    loop {
                        let due = due_time(epoch, FEED_PERIOD, k);
                        if due >= deadline {
                            break;
                        }
                        feeder.tick(feeder_target, &mut record, Some(due));
                        if k % 20 == 0 {
                            if let Some(stats) = engine.ingest_stats() {
                                *depth = (*depth).max(stats.queue_depth);
                            }
                        }
                        k += 1;
                    }
                    (record, epoch.elapsed().as_secs_f64())
                });
                let mut record = Record::default();
                let mut j = 0;
                loop {
                    let due = due_time(epoch, READ_PERIOD, j);
                    if due >= deadline {
                        break;
                    }
                    reader.tick(primary_target, &mut record, Some(due));
                    j += 1;
                }
                let elapsed = epoch.elapsed().as_secs_f64();
                let (other, other_s) = feeding.join().expect("feeder panicked");
                (record, elapsed, other, other_s)
            })
        }
    };
    let after = Counters::capture(&rig.engine);
    let mut logs = Vec::new();
    if let Some(target) = primary_shadow {
        logs.push(("primary", target.log));
    }
    if let Some(target) = secondary_shadow {
        logs.push(("feeder", target.log));
    }
    Pass {
        window_s,
        primary,
        secondary,
        secondary_s,
        before,
        after,
        queue_depth_max,
        logs,
    }
}

/// The open loop is invalid once the generators start more than 1 in 100
/// requests this late: one read period. (Stalls of the sandbox itself,
/// up to 67 ms measured, put the p99 of a healthy run at 0.5–5.5 ms.)
const MAX_LATE_P99_US: f64 = 20_000.0;

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile of `samples`, or 0 when fewer than ten of them lie
/// beyond it: a tail the sample cannot support is not reported.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    if samples.len() >= samples_needed(q) {
        percentile(&sorted(samples.to_vec()), q)
    } else {
        0.0
    }
}

fn end_to_end(setup_s: f64, pass: &Pass) -> Vec<Measured> {
    let ops = &pass.primary.ops;
    // The feeder's accepted batches are responses too; the analyst is a
    // background tenant and is reported on its own.
    let mut ok = pass.primary.ok();
    if pass.secondary.kind(Kind::Analyst).is_empty() {
        ok += pass.secondary.ok();
    }
    let values = [
        (setup_s, 0),
        (ok as f64 / pass.window_s, ok),
        (median(ops), ops.len() as u64),
        (peak_rss_mb(), 0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (value, samples))| Measured {
            spec,
            value,
            samples,
        })
        .collect()
}

/// Runs one workload once.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    // Set-up, repeated: `setup_s` is the median, the last system is kept.
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..config.sizing.setups.max(1) {
        drop(rig.take());
        let built = rig::setup(config.workload, config.seed, config.sizing)?;
        setups.push(built.setup_s);
        rig = Some(built);
    }
    let mut rig = rig.expect("at least one set-up ran");
    let setup_s = median(&setups);
    let facts = rig::prepare_references(&mut rig)?;
    let generation_after_warmup = rig.engine.cube_generation();
    let workers = rig.engine.execution_config().effective_workers();

    let untraced_s = if config.trace {
        config.seconds * 2.0 / 3.0
    } else {
        config.seconds
    };
    let mut untraced = run_pass(&mut rig, untraced_s, None);
    let mut serial_us = facts.serial_us.clone();
    if let Clients::Live { reader, .. } = &mut rig.clients {
        let stash = reader.take_stash();
        serial_us.extend(rig::verify_stash(
            &stash,
            &facts.view,
            &mut untraced.primary,
        ));
    }

    let mut traced = None;
    if config.trace {
        let shadow = Shadow::new(&rig.facade);
        if let (Workload::WarmRefresh, Clients::Solo(client)) = (config.workload, &mut rig.clients)
        {
            // The shadow's result cache is its own and starts empty: one
            // unrecorded cycle fills it, as warm-up filled the engine's.
            let mut target = ShadowTarget::new(&shadow, Instant::now());
            for _ in 0..WARM_CYCLE {
                client.run_op(&mut target, &mut Record::default());
            }
            shadow.forget_rows();
        }
        let mut pass = run_pass(&mut rig, config.seconds - untraced_s, Some(&shadow));
        if let Clients::Live { reader, .. } = &mut rig.clients {
            let stash = reader.take_stash();
            rig::verify_stash(&stash, &facts.view, &mut pass.primary);
        }
        if let Some(path) = &config.spans_out {
            let logs: Vec<(&str, &SpanLog)> =
                pass.logs.iter().map(|(name, log)| (*name, log)).collect();
            std::fs::write(path, crate::spans::dump(&logs).to_compact())
                .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
        }
        traced = Some((pass, shadow));
    }
    let generations = rig.engine.cube_generation() - generation_after_warmup;

    let mut invalid = Vec::new();
    let mut weather = Vec::new();
    let mut guard = |holds: bool, what: String| {
        if !holds {
            invalid.push(what);
        }
    };
    guard(
        !untraced.primary.ops.is_empty(),
        "no operation completed in the window".into(),
    );
    let cache = untraced.after.cache_delta(&untraced.before);
    match config.workload {
        Workload::ColdRefresh | Workload::TwoTenant if config.sizing.is_full() => guard(
            cache.hits == 0,
            format!(
                "{} result-cache hits on a workload meant to miss",
                cache.hits
            ),
        ),
        Workload::WarmRefresh => {
            let ratio = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
            guard(
                ratio >= 0.99,
                format!("hit ratio {ratio:.4} on a workload meant to hit"),
            );
        }
        _ => {}
    }
    if config.workload != Workload::LiveDashboard {
        guard(
            generations == 0,
            format!("{generations} schema generations published after warm-up"),
        );
    }
    let violations = untraced.primary.regime_violations
        + traced
            .as_ref()
            .map_or(0, |(pass, _)| pass.primary.regime_violations)
        + rig.warmup.regime_violations;
    guard(
        violations == 0,
        format!("{violations} logins ran in the wrong rule regime"),
    );
    let mut late = untraced.primary.late_us.clone();
    late.extend(&untraced.secondary.late_us);
    let late_p99 = percentile(&sorted(late), 0.99);
    // Full size only: one stall of the sandbox in a 1 s smoke window is
    // already more than 1 request in 100.
    if late_p99 >= MAX_LATE_P99_US && config.sizing.is_full() {
        weather.push(format!(
            "open-loop generator ran {late_p99:.0} us late at p99"
        ));
    }

    let mut per_layer = Vec::new();
    if let Some((pass, shadow)) = &traced {
        let tables = layers::Inputs {
            rig: &rig,
            facts: &facts,
            serial_us: &serial_us,
            untraced: &untraced,
            traced: pass,
            shadow,
            generations,
            late_p99_us: late_p99,
        };
        per_layer = layers::per_layer(&tables);
        let share = per_layer
            .iter()
            .find(|m| m.spec.name == "harness.unattributed_share")
            .map_or(0.0, |m| m.value);
        if matches!(
            config.workload,
            Workload::ColdRefresh | Workload::LiveDashboard
        ) && config.sizing.is_full()
            && share.abs() > 0.10
        {
            weather.push(format!(
                "layer times leave {share:.3} of the operation unattributed"
            ));
        }
    }

    let mut total = Record::default();
    total.merge(std::mem::take(&mut rig.warmup));
    let end_to_end = end_to_end(setup_s, &untraced);
    total.merge(untraced.primary);
    total.merge(untraced.secondary);
    if let Some((pass, _)) = traced {
        total.merge(pass.primary);
        total.merge(pass.secondary);
    }
    Ok(Outcome {
        attempted: total.attempted,
        failed: total.failed,
        checked: total.checked,
        first_failure: total.first_failure,
        end_to_end,
        per_layer,
        invalid,
        weather,
        workers,
    })
}
