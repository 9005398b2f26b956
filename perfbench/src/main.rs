//! `perf` — the facade-level benchmark's command line.
//!
//! * `perf --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints its result as the last line of
//!   standard output (what `BENCHMARK.json`'s `command` invokes);
//! * `perf run` runs all five, each in child processes, prints every
//!   metric and writes one JSON document;
//! * `perf diff OLD NEW` compares two documents against the bounds;
//! * `perf aa` runs two back-to-back sets and requires them to agree.

use sdwp_perfbench::json::Json;
use sdwp_perfbench::report::{
    compare, print_comparison, print_section, result_line, workload_section, worsening, Verdict,
};
use sdwp_perfbench::rig::Sizing;
use sdwp_perfbench::run::{run, RunConfig};
use sdwp_perfbench::spec::Workload;
use sdwp_perfbench::RUN_SECONDS;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Exit code of a run whose workload did not do what it is for.
const EXIT_INVALID: u8 = 2;
/// Exit code of a strict run invalidated by the machine's weather.
const EXIT_WEATHER: u8 = 3;
/// Times `perf run` makes a run that the weather keeps invalidating.
const WEATHER_ATTEMPTS: usize = 3;

const USAGE: &str = "usage:
  perf --workload NAME --seed N --seconds S --trace 0|1 [--smoke 1] [--strict 1] [--spans FILE]
  perf run  [--seed N] [--seconds S] [--repeats K] [--out FILE] [--smoke]
  perf aa   [--seed N] [--seconds S] [--repeats K] [--smoke]
  perf diff OLD.json NEW.json
workloads: cold_refresh warm_refresh session_churn live_dashboard two_tenant";

/// `--key value` pairs (a trailing flag without a value reads as \"1\").
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = match rest.peek() {
                Some(next) if !next.starts_with("--") => rest.next().cloned().unwrap_or_default(),
                _ => "1".to_string(),
            };
            pairs.push((key.to_string(), value));
        }
        Ok(Options(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: `{text}` is not a valid value")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "0")
    }
}

/// One workload, in this process.
fn single(options: &Options) -> Result<ExitCode, String> {
    let name = options.get("workload").unwrap_or_default();
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = options.number("seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = options.flag("trace");
    let config = RunConfig {
        workload,
        seed: options.number("seed", 42)?,
        seconds,
        trace,
        sizing: if options.flag("smoke") {
            Sizing::SMOKE
        } else {
            Sizing::FULL
        },
        spans_out: options.get("spans").map(PathBuf::from),
    };
    let outcome = run(&config)?;
    if let Some(failure) = &outcome.first_failure {
        eprintln!(
            "{name}: {} of {} requests failed; first: {failure}",
            outcome.failed, outcome.attempted
        );
    }
    for failure in outcome.invalid.iter().chain(&outcome.weather) {
        eprintln!("{name}: invalid run: {failure}");
    }
    // A run whose workload did not do what it is meant to do reports no
    // number at all. `--strict 1` (what `perf run` and `perf aa` pass)
    // extends that to the guards that depend on the machine's weather,
    // under an exit code of their own: such a run is worth repeating.
    if !outcome.invalid.is_empty() {
        return Ok(ExitCode::from(EXIT_INVALID));
    }
    if options.flag("strict") && !outcome.weather.is_empty() {
        return Ok(ExitCode::from(EXIT_WEATHER));
    }
    println!(
        "{}",
        result_line(&outcome, trace, options.flag("detail")).to_compact()
    );
    Ok(ExitCode::SUCCESS)
}

/// Settings shared by `run` and `aa`.
struct SetOptions {
    seed: u64,
    seconds: f64,
    repeats: usize,
    smoke: bool,
}

impl SetOptions {
    fn parse(options: &Options) -> Result<SetOptions, String> {
        let smoke = options.flag("smoke");
        Ok(SetOptions {
            seed: options.number("seed", 42)?,
            seconds: options.number("seconds", if smoke { 1.0 } else { RUN_SECONDS as f64 })?,
            repeats: options.number("repeats", 1usize)?.max(1),
            smoke,
        })
    }
}

/// Runs one workload in a fresh child process, so set-up time and peak
/// memory are that workload's own; returns its detail line.
fn child(set: &SetOptions, workload: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut attempt = 1;
    let output = loop {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &set.seed.to_string()])
            .args(["--seconds", &set.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--smoke", if set.smoke { "1" } else { "0" }])
            .args(["--detail", "1", "--strict", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
        if output.status.code() == Some(i32::from(EXIT_WEATHER)) && attempt < WEATHER_ATTEMPTS {
            eprintln!("{}: repeating the run", workload.name());
            attempt += 1;
            continue;
        }
        break output;
    };
    if !output.status.success() {
        return Err(format!(
            "the {} run failed ({})",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("the {} run printed no result: {e}", workload.name()))
}

/// One set of runs: every workload `repeats` times untraced and once
/// traced. Returns the document and whether every answer was right.
fn run_set(set: &SetOptions, traced: bool) -> Result<(Json, bool), String> {
    let mut sections = Vec::new();
    let mut workers = 0.0;
    let mut all_correct = true;
    for workload in Workload::ALL {
        eprintln!("running {} …", workload.name());
        let untraced: Vec<Json> = (0..set.repeats)
            .map(|_| child(set, workload, false))
            .collect::<Result<_, _>>()?;
        let traced_line = if traced {
            child(set, workload, true)?
        } else {
            Json::Null
        };
        for line in untraced.iter().chain([&traced_line]) {
            all_correct &= line.get("correct") != Some(&Json::Bool(false));
            workers = line
                .get("workers")
                .and_then(Json::as_f64)
                .unwrap_or(workers);
        }
        sections.push(workload_section(workload, &untraced, &traced_line));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let document = Json::obj([
        ("benchmark", Json::str("sdwp_perfbench")),
        ("seed", Json::Num(set.seed as f64)),
        ("seconds", Json::Num(set.seconds)),
        ("repeats", Json::Num(set.repeats as f64)),
        ("smoke", Json::Bool(set.smoke)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("workers", Json::Num(workers)),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
            ]),
        ),
        ("workloads", Json::Arr(sections)),
    ]);
    Ok((document, all_correct))
}

fn run_all(options: &Options) -> Result<ExitCode, String> {
    let set = SetOptions::parse(options)?;
    let (document, all_correct) = run_set(&set, true)?;
    for section in document
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        print_section(section);
    }
    if let Some(path) = options.get("out") {
        std::fs::write(path, document.to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote {path}");
    }
    if !all_correct {
        eprintln!("some requests failed or answered wrongly (error_share > 0)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn aa(options: &Options) -> Result<ExitCode, String> {
    let set = SetOptions::parse(options)?;
    let (first, _) = run_set(&set, false)?;
    let (second, _) = run_set(&set, false)?;
    let rows = compare(&first, &second)?;
    print_comparison(&rows);
    // Medians against the bound, either direction. (The verdict column
    // may read `unresolved`: a set of few runs records a wide spread.)
    let disagree = rows
        .iter()
        .filter(|row| {
            worsening(row.spec, row.old, row.new).abs() > row.spec.bound.unwrap_or(f64::INFINITY)
        })
        .count();
    if disagree > 0 {
        eprintln!("{disagree} metric(s) of two runs of the same code disagree beyond their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("two sets of runs of the same code agree within every bound");
    Ok(ExitCode::SUCCESS)
}

fn diff(paths: &[String]) -> Result<ExitCode, String> {
    let [old, new] = paths else {
        return Err("diff takes exactly two files".to_string());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&read(old)?, &read(new)?)?;
    print_comparison(&rows);
    let regressed = rows
        .iter()
        .filter(|row| row.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|row| row.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{regressed} regressed, {unresolved} unresolved, of {}",
        rows.len()
    );
    Ok(if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Options::parse(&args[1..]).and_then(|o| run_all(&o)),
        Some("aa") => Options::parse(&args[1..]).and_then(|o| aa(&o)),
        Some("diff") => diff(&args[1..]),
        Some(first) if first.starts_with("--") => Options::parse(&args).and_then(|o| {
            if o.get("workload").is_some() {
                single(&o)
            } else {
                Err(USAGE.to_string())
            }
        }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
