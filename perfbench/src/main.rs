//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <batch-seq|batch-par|service-cold|service-warm|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin      # rewrite pins.json from the current code
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). A run checks every output against
//! `pins.json` and prints its metrics; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics of `BENCHMARK.json` untraced (`--trace 0`) or its
//! per-layer metrics from a traced run (`--trace 1`). `metrics.json`
//! describes every metric, and for each per-layer one the end-to-end
//! metric and workload it should move. Scratch files go to
//! `.bench_work/` and are removed; the result, the host record and
//! (traced) the spans stay in `.bench_work/results/`.

mod alloc;
mod batch;
mod calib;
mod host;
mod pins;
mod service;
mod stats;
mod sweep;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use scenario::registry::{self, RunOpts};
use scenario::Value;

use pins::{Pins, RegistryCounts};
use trace::Tracer;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const METRICS_JSON: &str = include_str!("../metrics.json");

pub const WORKLOADS: [&str; 4] = ["batch-seq", "batch-par", "service-cold", "service-warm"];

const WORK_DIR: &str = ".bench_work";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The run's fixed amount of work: `rate` operations per second of
    /// `--seconds`, at least one. The same seconds give the same work,
    /// so two commits are measured on identical inputs.
    pub fn ops(&self, rate: f64) -> usize {
        ((self.seconds * rate).round() as usize).max(1)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Exact counts that did not repeat.
    pub drift: Vec<String>,
    pub e2e: Vec<(String, f64)>,
    pub layer: Vec<(String, f64)>,
    /// Context printed and saved with the result, never compared.
    pub notes: Vec<(String, Value)>,
}

impl Measured {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.push((name.into(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.push((name.into(), value));
    }

    pub fn note(&mut self, name: &str, value: Value) {
        self.notes.push((name.into(), value));
    }

    pub fn note_tail(&mut self, t: stats::Tail) {
        let v = Value::obj()
            .with("percentile", t.percentile)
            .with("samples", t.samples)
            .with("beyond", t.beyond);
        self.note("req_tail", v);
    }
}

/// Numbers as a JSON array, for result notes.
pub fn arr(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&x| x.into()).collect())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: the benchmark's seeded generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..v.len()).rev() {
        let j = (splitmix(&mut s) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    /// The end-to-end metric and workloads it should move, from
    /// `metrics.json` (empty for end-to-end metrics).
    pub moves: String,
}

/// The entry of `metrics.json` section `key` that describes `name`:
/// its exact name, or a `prefix.*` pattern.
fn describe<'a>(doc: &'a Value, key: &str, name: &str) -> Option<&'a Value> {
    let Some(Value::Obj(pairs)) = doc.get(key) else {
        return None;
    };
    pairs.iter().find_map(|(pattern, v)| {
        let hit = match pattern.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == pattern,
        };
        hit.then_some(v)
    })
}

/// The end-to-end and per-layer metric lists of `BENCHMARK.json`.
pub fn specs() -> (Vec<Spec>, Vec<Spec>) {
    let bench = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let doc = Value::parse(METRICS_JSON).expect("metrics.json is valid JSON");
    let list = |key: &str| -> Vec<Spec> {
        let metrics = bench.get(key).and_then(Value::as_arr).expect("metric list");
        metrics
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                let about = describe(&doc, key, &field("name"));
                let text = |k: &str| about.and_then(|a| a.get(k)).and_then(Value::as_str);
                let on: Vec<&str> = about
                    .and_then(|a| a.get("on"))
                    .and_then(Value::as_arr)
                    .map_or(Vec::new(), |on| {
                        on.iter().filter_map(Value::as_str).collect()
                    });
                let moves = text("moves").unwrap_or("");
                Spec {
                    name: field("name"),
                    unit: field("unit"),
                    moves: if on.is_empty() {
                        moves.to_string()
                    } else {
                        format!("{moves} on {}", on.join(", "))
                    },
                }
            })
            .collect()
    };
    (list("end_to_end"), list("per_layer"))
}

/// Commits the filesystem's pending metadata (a finished run deletes
/// thousands of cache entries), so the next `fsync`s do not pay for it.
pub fn settle(dir: &Path) {
    let _ = fs::File::open(dir).and_then(|d| d.sync_all());
}

fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(
    args: &Args,
    pins: &Pins,
    tracer: &Tracer,
    work: &Path,
) -> Result<Measured, String> {
    let mut m = match args.workload.as_str() {
        "batch-seq" => batch::run(args, 1, pins, tracer),
        "batch-par" => batch::run(args, 2, pins, tracer),
        "service-cold" => service::run(false, args, pins, tracer, work)?,
        "service-warm" => service::run(true, args, pins, tracer, work)?,
        other => return Err(format!("unknown workload {other}")),
    };
    m.e2e(
        "peak_heap_mb",
        alloc::peak_bytes() as f64 / (1024.0 * 1024.0),
    );
    m.note("peak_rss_mb", peak_rss_mb().into());
    if tracer.is_on() {
        let no_server = args.workload.starts_with("batch");
        sweep::run(&mut m, pins, args.seed, no_server, tracer, work)?;
    }
    Ok(m)
}

fn metrics_json(values: &[(String, f64)], specs: &[Spec]) -> Value {
    specs.iter().fold(Value::obj(), |v, s| {
        let value = values
            .iter()
            .find(|(n, _)| *n == s.name)
            .map_or(0.0, |(_, x)| *x);
        v.with(
            &s.name,
            Value::obj()
                .with("value", value)
                .with("unit", s.unit.as_str()),
        )
    })
}

fn print_table(title: &str, values: &[(String, f64)], specs: &[Spec]) {
    println!("{title}");
    for s in specs {
        let value = values.iter().find(|(n, _)| *n == s.name).map(|(_, x)| *x);
        let value = value.map_or_else(|| "missing".into(), |x| format!("{x:.4}"));
        println!("  {:<52} {:>14} {:<6} {}", s.name, value, s.unit, s.moves);
    }
}

fn single(args: &Args) -> Result<bool, String> {
    let pins = Pins::load()?;
    let (e2e_specs, layer_specs) = specs();
    let results = Path::new(WORK_DIR).join("results");
    let work = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    fs::create_dir_all(&work).map_err(|e| e.to_string())?;

    // Exact counts first: a drift means a different program.
    let opts = RunOpts::default();
    let grids: Vec<Vec<scenario::Scenario>> = registry::ARTIFACTS
        .iter()
        .map(|a| a.scenarios(&opts))
        .collect();
    let mut drift = RegistryCounts::measure(grids.iter().map(Vec::as_slice)).drift(&pins.registry);

    let tracer = Tracer::new(args.trace);
    let host = host::record(args.seed, &work);
    settle(Path::new(WORK_DIR));
    let measured = run_workload(args, &pins, &tracer, &work);
    let _ = fs::remove_dir_all(&work);
    settle(Path::new(WORK_DIR));
    let m = measured?;
    drift.extend(m.drift.iter().cloned());

    let (values, specs) = if args.trace {
        (&m.layer, &layer_specs)
    } else {
        (&m.e2e, &e2e_specs)
    };
    for s in specs.iter() {
        if !values.iter().any(|(n, _)| *n == s.name) {
            drift.push(format!("metric {} was not measured", s.name));
        }
    }
    let correct = drift.is_empty() && m.failed == 0;

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut notes = m
        .notes
        .iter()
        .fold(Value::obj(), |v, (k, x)| v.with(k, x.clone()));
    notes = notes.with("failed_frac", m.failed as f64 / m.attempted.max(1) as f64);
    if args.trace {
        let spans = tracer.spans();
        let doc = trace::to_json(&spans);
        println!("self time per layer (traced passes or requests, and the sweep; ms):");
        for (name, t) in trace::self_time_ms(&spans) {
            println!("  {name:<52} {t:>12.3}");
        }
        let path = results.join(format!("{stem}.trace.json"));
        fs::write(&path, doc.pretty()).map_err(|e| e.to_string())?;
        notes = notes.with("spans", path.to_string_lossy().as_ref());
        notes = notes.with("untraced", metrics_json(&m.e2e, &e2e_specs));
    }
    let title = if args.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics"
    };
    println!("{} seed {} ({}s)", args.workload, args.seed, args.seconds);
    print_table(title, values, specs);
    for d in &drift {
        println!("DRIFT: {d}");
    }
    println!("host: {host}");
    println!("notes: {notes}");
    let metrics = metrics_json(values, specs);
    let record = Value::obj()
        .with("workload", args.workload.as_str())
        .with("trace", args.trace)
        .with("host", host)
        .with("correct", correct)
        .with("attempted", m.attempted)
        .with("failed", m.failed)
        .with(
            "drift",
            Value::Arr(drift.iter().map(|d| d.as_str().into()).collect()),
        )
        .with("metrics", metrics.clone())
        .with("notes", notes);
    fs::write(results.join(format!("{stem}.json")), record.pretty()).map_err(|e| e.to_string())?;
    let last = Value::obj()
        .with("correct", correct)
        .with("attempted", m.attempted)
        .with("failed", m.failed)
        .with("metrics", metrics);
    println!("{last}");
    Ok(correct)
}

/// `--workload all`: each workload in its own process (peak memory is
/// per process), one after another; the last line sums them up with
/// metrics named `<workload>.<metric>`.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Value::obj();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().and_then(|l| Value::parse(l).ok());
        for l in lines {
            println!("{l}");
        }
        let Some(last) = last else {
            return Err(format!(
                "{w} printed no result: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        };
        correct &=
            out.status.success() && last.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += last.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += last.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Obj(pairs)) = last.get("metrics") {
            for (k, v) in pairs {
                metrics = metrics.with(&format!("{w}.{k}"), v.clone());
            }
        }
    }
    let last = Value::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{last}");
    Ok(correct)
}

/// `--pin`: recompute every pinned hash and count from this build and
/// rewrite `pins.json`.
fn pin() -> Result<(), String> {
    let opts = RunOpts::default();
    let mut p = Pins::default();
    let mut grids = Vec::new();
    for a in registry::ARTIFACTS {
        let job = scenario::Job::from_artifact(a, &opts);
        let (outcomes, _) = scenario::Engine::new()
            .run_job(&job, None, &scenario::CancelToken::new())
            .map_err(|e| e.to_string())?;
        let bytes = pins::artifact_bytes(a, &opts, &job.grid, &outcomes);
        p.artifacts
            .insert(a.id.into(), scenario::content_hash64(bytes.as_bytes()));
        grids.push(job.grid);
    }
    p.registry = RegistryCounts::measure(grids.iter().map(Vec::as_slice));
    p.service = service::pin().map_err(|e| e.to_string())?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("pins.json");
    fs::write(&path, format!("{}\n", p.to_json().pretty())).map_err(|e| e.to_string())?;
    println!(
        "pinned {} artifacts and {} service requests into {}",
        p.artifacts.len(),
        p.service.len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pin") {
        return match pin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = if args.workload == "all" {
        all(&args)
    } else {
        single(&args)
    };
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_describes_every_metric() {
        let doc = Value::parse(METRICS_JSON).unwrap();
        let (e2e, layer) = specs();
        for (key, list) in [("end_to_end", e2e), ("per_layer", layer)] {
            for s in list {
                let about = describe(&doc, key, &s.name);
                let what = about.and_then(|a| a.get("what")).and_then(Value::as_str);
                assert!(what.is_some(), "metrics.json does not describe {}", s.name);
            }
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<_>>());
    }
}
