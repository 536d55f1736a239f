//! # lru-leak-cli — the command-line face of the scenario registry
//!
//! The synopsis and the help for every option are [`USAGE`], which
//! `lru-leak help` prints. One table in this crate decides which
//! positional argument and options each command takes, and a unit test
//! keeps each row equal to the command's `USAGE` entry.
//!
//! Everything is a thin veneer over [`scenario::registry`]: `run <id>`
//! executes the artifact's registered grid, so for a fixed seed the
//! CLI's numbers *are* the registry's numbers, and `run-all` executes
//! the entire registry as one batch job. `show`
//! prints an artifact's grid with every axis spelled out — including
//! the noise axis and per-cell trial counts that default-omitting
//! serialization would hide. With `--json` the report's metrics tree
//! is pretty-printed;
//! the writer is deterministic, so repeated runs with the same seed
//! (and any `--threads` value) are bit-identical. `--csv` flattens
//! one report's summary into deterministic CSV (one row per grid
//! cell), and `run-all --csv-dir DIR` writes one `<artifact>.csv`
//! per artifact — both pure renderers over `Report.metrics`.
//! `--progress` streams completion counts — and, for `run-all`,
//! per-artifact wall times — to stderr, keeping stdout deterministic.
//! `run-all --json` additionally reports per-artifact wall-clock
//! millis (and the batch total) in its summary block — the only
//! run-dependent bytes in the output.
//!
//! Lockstep-eligible covert cells (`Scenario::lockstep_spec`) run
//! through the batched one-set interpreter and every other cell on
//! the scalar path; there is no switch, and the report bytes are
//! those of the per-trial reference either way.
//!
//! `run` and `run-all` execute through the resilient
//! [`scenario::engine`] job layer: a panicking trial chunk is caught
//! and retried deterministically instead of aborting the process,
//! `--timeout-secs` cancels an overrunning artifact cooperatively,
//! and `--cache-dir` serves repeated cells from a content-addressed
//! on-disk cache so an interrupted `run-all` resumes at the first
//! uncached cell. `run-all` degrades gracefully — a failed artifact
//! is reported (status + cause in the JSON summary) while the batch
//! continues — and the process exit code distinguishes usage errors
//! (2), runtime failures (1), and partial batch failures (3).
//!
//! `serve` turns the same execution core into a long-lived TCP
//! service ([`lru_leak_server`]): requests arrive as JSON lines, are
//! admitted through a credit ledger (cost = cells × trials),
//! coalesced single-flight on the canonical scenario JSON, and
//! executed through one shared result cache — so N concurrent
//! identical `submit`s cost one simulation and print bytes identical
//! to `run <id> --json`. `submit`/`status`/`shutdown` are the
//! matching clients. The service is crash-safe: with `--cache-dir`
//! every accepted job is write-ahead-logged to a durable journal, and
//! `serve --recover` replays accepted-but-not-done work in original
//! admission order after a crash; `submit --retries N` re-submits
//! idempotently over bad networks (torn frames are detected by a
//! response checksum) with `--backoff-ms`-based seeded-jitter
//! exponential backoff; overload is shed with a structured
//! `overloaded` rejection instead of unbounded queueing.
//!
//! The core is [`run_cli`], which returns the output instead of
//! printing — the binary is three lines, and the test suite drives
//! the CLI in-process ([`run_cli_with`] additionally captures the
//! progress stream, [`run_cli_faulted`] additionally injects a
//! [`FaultPlan`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write;
use std::io::Read;
use std::time::{Duration, Instant};

use lru_channel::trials::{RunCtrl, MAX_WORKERS};
use lru_leak_server::{
    client as service_client, Server, ServerConfig, DEFAULT_ADDR, MAX_FRAME_BYTES,
};
use scenario::registry::{self, RunOpts};
use scenario::spec::{Scenario, ScenarioBuilder};
use scenario::{CancelToken, Engine, EngineError, FaultPlan, JobStatus, ResultCache, Value};

/// A CLI failure: the message to print on stderr and the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
    /// Process exit code: 2 = usage, 1 = runtime/engine failure,
    /// 3 = partial `run-all` failure (some artifacts completed).
    pub code: i32,
    /// Deterministic stdout the run produced before failing (partial
    /// `run-all` output); the binary prints it before the message.
    pub stdout: Option<String>,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: format!("{}\n\n{USAGE}", message.into()),
            code: 2,
            stdout: None,
        }
    }

    fn run(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 1,
            stdout: None,
        }
    }

    fn partial(message: impl Into<String>, stdout: String) -> CliError {
        CliError {
            message: message.into(),
            code: 3,
            stdout: Some(stdout),
        }
    }
}

/// The help text.
pub const USAGE: &str = "\
lru-leak — run the paper's experiments from one declarative surface

USAGE:
    lru-leak list
    lru-leak run <artifact> [--trials N] [--threads K] [--seed S] [--json | --csv | --vega]
                 [--timeout-secs T] [--cache-dir DIR] [--progress]
    lru-leak run-all [--trials N] [--threads K] [--seed S] [--json] [--csv-dir DIR]
                 [--timeout-secs T] [--cache-dir DIR] [--progress]
    lru-leak show <artifact> [--trials N] [--seed S]
    lru-leak adhoc <scenario-json | @file.json> [--trials N] [--threads K] [--seed S] [--json]
                 [--summary] [--progress]
    lru-leak serve [--addr A] [--threads K] [--cache-dir DIR] [--max-inflight-trials N]
                 [--max-queued N] [--recover]
    lru-leak submit <artifact | scenario-json | @file.json> [--addr A] [--trials N] [--seed S]
                 [--threads K] [--timeout-secs T] [--retries N] [--backoff-ms B] [--progress]
    lru-leak status [--addr A]
    lru-leak shutdown [--addr A]
    lru-leak help

ARTIFACTS:
    fig3..fig15, table1..table7, ablation_* (including the
    ablation_noise_* interference sweeps) — see `lru-leak list`.
    Bench-target names (e.g. fig6_timesliced) are accepted too.
    `run-all` executes every registered artifact as one batch job.
    `show` prints an artifact's grid with every axis spelled out
    (noise axis, per-cell trial counts) without running anything.

OPTIONS:
    --trials N    Override the artifact's natural per-point trial /
                  sample count (artifacts without a trial axis ignore it)
    --threads K   Pin the parallel trial driver to K workers, 1..=256
                  (results are bit-identical for any K; 1 = sequential;
                  default: the host's available parallelism). The
                  service caps a request's \"threads\" at 256 too
    --seed S      Master seed (default: the fixed bench seed)
    --json        Emit the deterministic JSON metrics instead of tables
    --csv         run only: flatten the report's summary into
                  deterministic CSV (one row per grid cell)
    --vega        run only: emit the report's summary as a
                  self-contained Vega-Lite v5 spec (a renderer over
                  the same metrics --csv flattens)
    --csv-dir DIR run-all only: additionally write one <artifact>.csv
                  per artifact into DIR (created if missing)
    --progress    Report completion counts (and per-artifact wall times
                  for run-all) on stderr; stdout stays deterministic
    --summary     adhoc only: stream the trials through the experiment
                  kind's default constant-memory aggregate instead of
                  collecting every per-trial metrics tree (platform-spec
                  and policy-perf have no scalar metrics and still
                  collect — see scenario::aggregate)
    --timeout-secs T
                  run/run-all: cancel an artifact that exceeds T seconds
                  (cooperative — observed at chunk boundaries). run-all
                  reports the timeout and continues with the next artifact
    --cache-dir DIR
                  run/run-all/serve: content-addressed result cache. Each
                  grid cell's outcome is stored under a hash of its
                  canonical scenario JSON (seed and trials included);
                  repeated and interrupted runs resume at the first
                  uncached cell, byte-identical to an uncached run.
                  run-all --json additionally reports the hit/miss/
                  corrupt-recovered counters under \"cache\"
    --addr A      serve/submit/status/shutdown: the service address
                  (default 127.0.0.1:4517; serve accepts port 0 for an
                  ephemeral port)
    --max-inflight-trials N
                  serve only: global admission budget in trial-units
                  (cells x trials); over-budget requests queue FIFO
    --max-queued N
                  serve only: admission wait-queue bound (default 64).
                  A request that would park behind more than N earlier
                  waiters is shed with a structured \"overloaded\"
                  error event carrying retry_after_ms (HTTP: 503 +
                  Retry-After) instead of queueing unboundedly; 0
                  means never park — admit immediately or shed
    --recover     serve only (needs --cache-dir): replay the durable
                  job journal on startup. Jobs accepted-but-not-done
                  before a crash re-enqueue through the credit ledger
                  in original admission order; already-done jobs are
                  verified against (and served from) the result cache.
                  Recovered responses are byte-identical to
                  uninterrupted ones
    --retries N   submit only: re-submit up to N times on transport
                  failures (refused/reset connections, torn or
                  checksum-failed response frames) and on structured
                  \"overloaded\" rejections, which honor the server's
                  retry_after_ms hint. Resubmission is idempotent:
                  single-flight coalescing plus the journal's
                  content-hash dedupe re-attach a retry to the same
                  job instead of recomputing it
    --backoff-ms B
                  submit only: base backoff between retries (default
                  250). Attempt k sleeps B*2^k plus a deterministic
                  request-seeded jitter in [0, B)

EXIT CODES:
    0   success
    1   runtime failure (unknown artifact, bad scenario, engine
        panic/timeout/cancellation, I/O error)
    2   usage error (unknown command or malformed options)
    3   partial run-all failure: at least one artifact failed or timed
        out; completed artifacts' deterministic output is still printed
        and the JSON summary carries per-artifact status + cause";

/// Where `--progress` lines go. The binary passes an
/// `eprintln!`-backed sink; tests pass a collector.
pub type ProgressSink<'a> = &'a (dyn Fn(&str) + Sync);

#[derive(Debug, Default)]
struct Flags {
    trials: Option<usize>,
    threads: Option<usize>,
    seed: Option<u64>,
    json: bool,
    csv: bool,
    vega: bool,
    csv_dir: Option<String>,
    progress: bool,
    summary: bool,
    timeout_secs: Option<u64>,
    cache_dir: Option<String>,
    addr: Option<String>,
    max_inflight_trials: Option<usize>,
    max_queued: Option<usize>,
    recover: bool,
    retries: Option<u32>,
    backoff_ms: Option<u64>,
}

/// One command: what its positional argument is, if it takes one (as
/// the "needs ..." usage error names it), and every option it takes,
/// in [`USAGE`] order.
struct Command {
    name: &'static str,
    positional: Option<&'static str>,
    options: &'static [&'static str],
}

/// What each command accepts; [`parse_args`] rejects everything else.
/// `help` takes anything and has no row.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", positional: None, options: &[] },
    Command { name: "run", positional: Some("an artifact ID"), options: &[
        "--trials", "--threads", "--seed", "--json", "--csv", "--vega", "--timeout-secs",
        "--cache-dir", "--progress"] },
    Command { name: "run-all", positional: None, options: &[
        "--trials", "--threads", "--seed", "--json", "--csv-dir", "--timeout-secs",
        "--cache-dir", "--progress"] },
    Command { name: "show", positional: Some("an artifact ID"), options: &["--trials", "--seed"] },
    Command { name: "adhoc", positional: Some("a scenario (JSON or @file)"), options: &[
        "--trials", "--threads", "--seed", "--json", "--summary", "--progress"] },
    Command { name: "serve", positional: None, options: &[
        "--addr", "--threads", "--cache-dir", "--max-inflight-trials", "--max-queued",
        "--recover"] },
    Command { name: "submit", positional: Some("an artifact ID, a scenario as JSON, or @file"),
        options: &["--addr", "--trials", "--seed", "--threads", "--timeout-secs", "--retries",
        "--backoff-ms", "--progress"] },
    Command { name: "status", positional: None, options: &["--addr"] },
    Command { name: "shutdown", positional: None, options: &["--addr"] },
];

/// Parses an integer option's value; a `positive` option rejects 0.
fn parse_int<T: std::str::FromStr + Default + PartialEq>(
    name: &str,
    value: &str,
    positive: bool,
) -> Result<T, CliError> {
    let kind = if positive { "positive" } else { "non-negative" };
    let n: T = value
        .parse()
        .map_err(|_| CliError::usage(format!("{name} needs a {kind} integer, got {value:?}")))?;
    if positive && n == T::default() {
        return Err(CliError::usage(format!("{name} must be >= 1")));
    }
    Ok(n)
}

/// Splits the arguments after the command name into the command's
/// positional argument (`""` when it takes none) and its options,
/// rejecting anything its [`COMMANDS`] row does not list.
fn parse_args<'a>(cmd: &Command, args: &'a [String]) -> Result<(&'a str, Flags), CliError> {
    let name = cmd.name;
    let mut it = args.iter().map(String::as_str);
    let positional = match cmd.positional {
        Some(what) => it
            .next()
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| CliError::usage(format!("{name} needs {what}")))?,
        None => "",
    };
    let mut flags = Flags::default();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            let takes = cmd.positional.map_or("no", |_| "one");
            return Err(CliError::usage(format!(
                "{name} takes {takes} argument, got {arg:?}"
            )));
        }
        if !cmd.options.contains(&arg) {
            return Err(CliError::usage(format!(
                "{name} does not take {arg}; it takes only [{}]",
                cmd.options.join(" ")
            )));
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| CliError::usage(format!("{arg} needs a value")))
        };
        match arg {
            "--trials" => flags.trials = Some(parse_int(arg, value()?, true)?),
            "--threads" => {
                let threads = parse_int(arg, value()?, true)?;
                if threads > MAX_WORKERS {
                    return Err(CliError::usage(format!("{arg} must be <= {MAX_WORKERS}")));
                }
                flags.threads = Some(threads);
            }
            "--seed" => flags.seed = Some(parse_int(arg, value()?, false)?),
            "--timeout-secs" => flags.timeout_secs = Some(parse_int(arg, value()?, true)?),
            "--max-inflight-trials" => {
                flags.max_inflight_trials = Some(parse_int(arg, value()?, true)?)
            }
            "--max-queued" => flags.max_queued = Some(parse_int(arg, value()?, false)?),
            "--retries" => flags.retries = Some(parse_int(arg, value()?, false)?),
            "--backoff-ms" => flags.backoff_ms = Some(parse_int(arg, value()?, false)?),
            "--csv-dir" => flags.csv_dir = Some(value()?.to_string()),
            "--cache-dir" => flags.cache_dir = Some(value()?.to_string()),
            "--addr" => flags.addr = Some(value()?.to_string()),
            "--json" => flags.json = true,
            "--csv" => flags.csv = true,
            "--vega" => flags.vega = true,
            "--progress" => flags.progress = true,
            "--summary" => flags.summary = true,
            "--recover" => flags.recover = true,
            _ => unreachable!("every option in COMMANDS has an arm"),
        }
    }
    Ok((positional, flags))
}

fn opts_from(flags: &Flags) -> RunOpts {
    let defaults = RunOpts::default();
    RunOpts {
        trials: flags.trials,
        seed: flags.seed.unwrap_or(defaults.seed),
    }
}

/// The service address a client command talks to.
fn service_addr(flags: &Flags) -> String {
    flags
        .addr
        .clone()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

/// Builds the wire request a `submit` sends: a `run` request when the
/// target names a registry artifact, otherwise an `adhoc` request
/// from inline JSON or an `@file`.
fn build_submit_request(target: &str, flags: &Flags) -> Result<Value, CliError> {
    let mut req = if registry::get(target).is_some() {
        Value::obj().with("cmd", "run").with("artifact", target)
    } else if target.starts_with('{') || target.starts_with('@') {
        let sc = load_scenario(target)?
            .build()
            .map_err(|e| CliError::run(e.to_string()))?;
        Value::obj()
            .with("cmd", "adhoc")
            .with("scenario", sc.to_json())
    } else {
        return Err(CliError::run(format!(
            "unknown artifact {target:?} — `lru-leak list` shows the registry \
             (or pass a scenario as JSON / @file)"
        )));
    };
    if let Some(trials) = flags.trials {
        req = req.with("trials", trials);
    }
    if let Some(seed) = flags.seed {
        req = req.with("seed", seed);
    }
    if let Some(threads) = flags.threads {
        req = req.with("threads", threads);
    }
    if let Some(secs) = flags.timeout_secs {
        req = req.with("timeout_secs", secs);
    }
    if flags.progress {
        req = req.with("stream", true);
    }
    Ok(req)
}

/// Renders a server-side `accepted`/`progress` event as one
/// `--progress` line.
fn relay_event(sink: ProgressSink, event: &Value) {
    match event.get("event").and_then(Value::as_str) {
        Some("accepted") => {
            let label = event.get("request").and_then(Value::as_str).unwrap_or("?");
            let cost = event.get("cost").and_then(Value::as_u64).unwrap_or(0);
            let coalesced = event
                .get("coalesced")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            sink(&format!(
                "accepted: {label} (cost {cost} trial-units{})",
                if coalesced {
                    ", coalesced onto an in-flight job"
                } else {
                    ""
                }
            ));
        }
        Some("progress") => {
            let n = |k: &str| event.get(k).and_then(Value::as_u64).unwrap_or(0);
            sink(&format!(
                "  progress: {}/{} cells, {}/{} trials",
                n("cells_done"),
                n("cells"),
                n("trials_done"),
                n("trials")
            ));
        }
        _ => {}
    }
}

fn list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:<28} WHAT", "ARTIFACT", "PAPER");
    for id in registry::ids() {
        let a = registry::get(id).expect("listed id resolves");
        let _ = writeln!(out, "{:<22} {:<28} {}", a.id, a.paper_ref, a.what);
    }
    let _ = writeln!(
        out,
        "\n{} artifacts. Run one with `lru-leak run <artifact> [--json]`.",
        registry::ids().len()
    );
    out
}

fn artifact(id: &str) -> Result<&'static registry::Artifact, CliError> {
    registry::get(id).ok_or_else(|| {
        CliError::run(format!(
            "unknown artifact {id:?} — `lru-leak list` shows the registry"
        ))
    })
}

/// Parses a scenario given inline or as `@file`, unvalidated, so the
/// caller can apply overrides before [`ScenarioBuilder::build`]. A
/// file is read through a [`MAX_FRAME_BYTES`] cap: a scenario too big
/// to submit over the wire does not load either.
fn load_scenario(text: &str) -> Result<ScenarioBuilder, CliError> {
    let Some(path) = text.strip_prefix('@') else {
        return ScenarioBuilder::from_json_str(text).map_err(|e| CliError::run(e.to_string()));
    };
    let cannot_read =
        |e: &dyn std::fmt::Display| CliError::run(format!("cannot read {path:?}: {e}"));
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|f| f.take(MAX_FRAME_BYTES as u64 + 1).read_to_end(&mut bytes))
        .map_err(|e| cannot_read(&e))?;
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(CliError::run(format!(
            "{path:?} is larger than the {MAX_FRAME_BYTES}-byte scenario cap"
        )));
    }
    let body = String::from_utf8(bytes).map_err(|e| cannot_read(&e))?;
    ScenarioBuilder::from_json_str(&body).map_err(|e| CliError::run(e.to_string()))
}

/// Emits one throttled progress line (~20 per sweep) to `sink`.
fn emit_progress(sink: ProgressSink, what: &str, unit: &str, done: usize, total: usize) {
    let step = (total / 20).max(1);
    if done == total || done.is_multiple_of(step) {
        sink(&format!("  {what}: {done}/{total} {unit}"));
    }
}

/// Builds the job engine a `run`/`run-all` invocation executes
/// through: result cache from `--cache-dir`, per-artifact deadline
/// from `--timeout-secs`, per-job worker width from `--threads`,
/// plus the test-only fault plan when driven via
/// [`run_cli_faulted`]. Also returns a handle on the cache so the
/// caller can report its hit/miss counters after the batch.
fn build_engine(
    flags: &Flags,
    fault: Option<FaultPlan>,
) -> Result<(Engine, Option<ResultCache>), CliError> {
    let mut engine = Engine::new();
    let mut cache_handle = None;
    if let Some(dir) = &flags.cache_dir {
        let cache = ResultCache::open(dir)
            .map_err(|e| CliError::run(format!("cannot open cache dir {dir:?}: {e}")))?;
        engine = engine.with_cache(cache.clone());
        cache_handle = Some(cache);
    }
    if let Some(secs) = flags.timeout_secs {
        engine = engine.with_timeout(Duration::from_secs(secs));
    }
    if let Some(threads) = flags.threads {
        engine = engine.with_workers(threads);
    }
    if let Some(plan) = fault {
        engine = engine.with_fault_plan(plan);
    }
    Ok((engine, cache_handle))
}

/// Runs one artifact through the engine, streaming throttled
/// per-cell progress to `sink` when requested.
fn run_artifact_report(
    engine: &Engine,
    a: &'static registry::Artifact,
    opts: &RunOpts,
    progress: bool,
    sink: ProgressSink,
) -> Result<(registry::Report, JobStatus), EngineError> {
    let cb = move |done: usize, total: usize| emit_progress(sink, a.id, "scenarios", done, total);
    let progress_fn: Option<scenario::ProgressFn> = if progress { Some(&cb) } else { None };
    engine.run_artifact(a, opts, progress_fn, &CancelToken::new())
}

/// One stderr line summarizing how a completed job was served, only
/// when the engine actually did something beyond a plain run.
fn emit_status(sink: ProgressSink, id: &str, status: &JobStatus) {
    if status.from_cache > 0 || status.retried_chunks > 0 {
        sink(&format!(
            "  {id}: {} of {} cells from cache, {} computed, {} chunk retries",
            status.from_cache, status.cells, status.computed, status.retried_chunks
        ));
    }
}

/// Runs the CLI with `args` (not including the binary name) and
/// returns what it would print on stdout. `--progress` output goes
/// to stderr.
///
/// # Errors
///
/// Returns a [`CliError`] with the stderr message and exit code.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    run_cli_with(args, &|line: &str| eprintln!("{line}"))
}

/// [`run_cli`] with an explicit `--progress` sink, so tests can
/// capture the progress stream in-process.
///
/// # Errors
///
/// Returns a [`CliError`] with the stderr message and exit code.
pub fn run_cli_with(args: &[String], sink: ProgressSink) -> Result<String, CliError> {
    run_cli_inner(args, sink, None)
}

/// [`run_cli_with`] with a [`FaultPlan`] attached to the engine —
/// test support for the resilience suite, which drives faulted
/// `run`/`run-all` invocations in-process and pins their output
/// against fault-free runs.
///
/// # Errors
///
/// Returns a [`CliError`] with the stderr message and exit code.
pub fn run_cli_faulted(
    args: &[String],
    sink: ProgressSink,
    fault: FaultPlan,
) -> Result<String, CliError> {
    run_cli_inner(args, sink, Some(fault))
}

fn run_cli_inner(
    args: &[String],
    sink: ProgressSink,
    fault: Option<FaultPlan>,
) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage("missing command"));
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(format!("{USAGE}\n"));
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == command)
        .ok_or_else(|| CliError::usage(format!("unknown command {command:?}")))?;
    let (arg, flags) = parse_args(cmd, &args[1..])?;
    match cmd.name {
        "list" => Ok(list()),
        "run" => {
            if usize::from(flags.csv) + usize::from(flags.json) + usize::from(flags.vega) > 1 {
                return Err(CliError::usage("pick one of --csv, --json and --vega"));
            }
            let (engine, _cache) = build_engine(&flags, fault)?;
            let a = artifact(arg)?;
            let opts = opts_from(&flags);
            let (report, status) = run_artifact_report(&engine, a, &opts, flags.progress, sink)
                .map_err(|e| CliError::run(format!("{}: {e}", a.id)))?;
            if flags.progress {
                emit_status(sink, a.id, &status);
            }
            if flags.json {
                Ok(format!("{}\n", report.metrics.pretty()))
            } else if flags.csv {
                Ok(scenario::fmt::summary_to_csv(&report.metrics))
            } else if flags.vega {
                Ok(scenario::fmt::summary_to_vega(&report.metrics))
            } else {
                Ok(report.text)
            }
        }
        "run-all" => {
            if let Some(dir) = &flags.csv_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| CliError::run(format!("cannot create {dir:?}: {e}")))?;
            }
            let (engine, cache) = build_engine(&flags, fault)?;
            let opts = opts_from(&flags);
            let ids = registry::ids();
            let total = ids.len();
            let batch_start = Instant::now();
            let mut artifacts_json = Vec::with_capacity(total);
            let mut failures: Vec<Value> = Vec::new();
            let mut timings: Vec<Value> = Vec::with_capacity(total);
            let mut text = String::new();
            for (k, id) in ids.iter().enumerate() {
                let a = artifact(id)?;
                if flags.progress {
                    sink(&format!("[{}/{total}] {} — {}", k + 1, a.id, a.paper_ref));
                }
                let t0 = Instant::now();
                // A failed or timed-out artifact is reported and the
                // batch continues; completed artifacts keep their
                // deterministic stdout either way.
                let result = run_artifact_report(&engine, a, &opts, flags.progress, sink);
                let millis = t0.elapsed().as_millis() as u64;
                timings.push(Value::obj().with("id", a.id).with("millis", millis).with(
                    "status",
                    result.as_ref().map_or_else(EngineError::status, |_| "ok"),
                ));
                let report = match result {
                    Ok((report, status)) => {
                        if flags.progress {
                            sink(&format!(
                                "[{}/{total}] {} done in {:.3}s",
                                k + 1,
                                a.id,
                                t0.elapsed().as_secs_f64()
                            ));
                            emit_status(sink, a.id, &status);
                        }
                        report
                    }
                    Err(e) => {
                        if flags.progress {
                            sink(&format!(
                                "[{}/{total}] {} FAILED ({}) in {:.3}s",
                                k + 1,
                                a.id,
                                e.status(),
                                t0.elapsed().as_secs_f64()
                            ));
                        }
                        failures.push(
                            Value::obj()
                                .with("id", a.id)
                                .with("status", e.status())
                                .with("cause", e.to_string()),
                        );
                        if !flags.json {
                            let _ = writeln!(text, "{}: FAILED ({}) — {e}\n", a.id, e.status());
                        }
                        continue;
                    }
                };
                if let Some(dir) = &flags.csv_dir {
                    let path = format!("{dir}/{}.csv", a.id);
                    std::fs::write(&path, scenario::fmt::summary_to_csv(&report.metrics))
                        .map_err(|e| CliError::run(format!("cannot write {path:?}: {e}")))?;
                }
                if flags.json {
                    artifacts_json.push(report.metrics);
                } else {
                    text.push_str(&report.text);
                    text.push('\n');
                }
            }
            if flags.progress {
                sink(&format!(
                    "run-all: {total} artifacts in {:.3}s",
                    batch_start.elapsed().as_secs_f64()
                ));
            }
            let failed = failures.len();
            let out = if flags.json {
                // The failure and cache keys appear only when a
                // failure happened / a cache was attached. The wall
                // clock (batch + per-artifact millis) is the only
                // run-dependent block a plain batch carries; the
                // artifacts themselves stay bit-identical across
                // runs and caches — the resilience
                // suite strips the clock/cache keys and pins that.
                let mut batch = Value::obj()
                    .with("command", "run-all")
                    .with("seed", opts.seed)
                    .with("artifact_count", total)
                    .with("wall_millis", batch_start.elapsed().as_millis() as u64)
                    .with("timings", Value::Arr(timings));
                if let Some(cache) = &cache {
                    batch = batch.with("cache", cache.stats().to_json());
                }
                if failed > 0 {
                    batch = batch
                        .with("failed_count", failed)
                        .with("failures", Value::Arr(failures.clone()));
                }
                format!(
                    "{}\n",
                    batch.with("artifacts", Value::Arr(artifacts_json)).pretty()
                )
            } else {
                if failed == 0 {
                    let _ = writeln!(text, "run-all: {total} artifacts (seed {})", opts.seed);
                } else {
                    let _ = writeln!(
                        text,
                        "run-all: {} of {total} artifacts completed, {failed} failed (seed {})",
                        total - failed,
                        opts.seed
                    );
                }
                if let Some(cache) = &cache {
                    let s = cache.stats();
                    let _ = writeln!(
                        text,
                        "cache: {} hits, {} misses, {} corrupt recovered",
                        s.hits, s.misses, s.corrupt_recovered
                    );
                }
                text
            };
            if failed == 0 {
                Ok(out)
            } else {
                Err(CliError::partial(
                    format!("run-all: {failed} of {total} artifacts failed"),
                    out,
                ))
            }
        }
        "show" => {
            let a = artifact(arg)?;
            let grid = a
                .try_scenarios(&opts_from(&flags))
                .map_err(|e| CliError::run(format!("{}: {e}", a.id)))?;
            // Axes whose default would otherwise be invisible are
            // spelled out: every scenario serializes via
            // to_json_full (explicit noise), and the header lists
            // the grid's noise axis and trial counts.
            let total_trials: usize = grid.iter().map(|s| s.trials).sum();
            let mut noise_axis: Vec<Value> = Vec::new();
            for sc in &grid {
                let label = Value::from(sc.noise.label());
                if !noise_axis.contains(&label) {
                    noise_axis.push(label);
                }
            }
            let json = Value::obj()
                .with("id", a.id)
                .with("bench", a.bench)
                .with("paper_ref", a.paper_ref)
                .with("what", a.what)
                .with("cells", grid.len())
                .with("total_trials", total_trials)
                .with("noise_axis", Value::Arr(noise_axis))
                .with(
                    "scenarios",
                    Value::Arr(grid.iter().map(Scenario::to_json_full).collect()),
                );
            Ok(format!("{}\n", json.pretty()))
        }
        "adhoc" => {
            // The overrides apply before validation, so the one
            // check bounds the counts that actually run.
            let mut builder = load_scenario(arg)?;
            if let Some(trials) = flags.trials {
                builder = builder.trials(trials);
            }
            if let Some(seed) = flags.seed {
                builder = builder.seed(seed);
            }
            let sc = builder.build().map_err(|e| CliError::run(e.to_string()))?;
            let cb =
                |done: usize, total: usize| emit_progress(sink, "adhoc", "trials", done, total);
            let mut ctrl = RunCtrl::new().with_workers(flags.threads.unwrap_or(0));
            if flags.progress {
                ctrl = ctrl.with_progress(&cb);
            }
            let outcome = if flags.summary {
                // Stream through the scenario's constant-memory
                // default aggregate (noisy covert scenarios get the
                // channel-capacity estimate): O(workers × chunk)
                // memory even for million-trial sweeps.
                scenario::Aggregate::for_scenario(&sc).reduce(&sc, &ctrl)
            } else {
                // Identical bytes to sc.run() for every worker count.
                sc.run_ctrl(&ctrl)
            }
            .map_err(|e| CliError::run(format!("adhoc: {e}")))?;
            let result = Value::obj()
                .with("scenario", sc.to_json())
                .with("outcome", outcome);
            if flags.json {
                Ok(format!("{}\n", result.pretty()))
            } else {
                // A malformed outcome is a runtime error, not a
                // panic: surface it with the scenario attached.
                let outcome = result.get("outcome").ok_or_else(|| {
                    CliError::run(format!(
                        "adhoc scenario produced no outcome (scenario: {})",
                        sc.to_json()
                    ))
                })?;
                let mut out = String::new();
                let _ = writeln!(out, "scenario: {}", sc.to_json());
                let _ = writeln!(out, "outcome:  {outcome}");
                Ok(out)
            }
        }
        "serve" => {
            if flags.recover && flags.cache_dir.is_none() {
                return Err(CliError::usage(
                    "--recover needs --cache-dir: the job journal lives in the cache directory",
                ));
            }
            let config = ServerConfig {
                addr: service_addr(&flags),
                threads: flags.threads,
                cache_dir: flags.cache_dir.as_ref().map(std::path::PathBuf::from),
                max_inflight_trials: flags.max_inflight_trials.unwrap_or(0),
                max_queued: flags.max_queued,
                recover: flags.recover,
                ..ServerConfig::default()
            };
            let server = Server::bind(config).map_err(|e| CliError::run(format!("serve: {e}")))?;
            let addr = server
                .local_addr()
                .map_err(|e| CliError::run(format!("serve: {e}")))?;
            // The listening line goes to the progress sink (stderr)
            // unconditionally so scripts backgrounding the server can
            // wait for it without polluting stdout.
            sink(&format!("lru-leak serve: listening on {addr}"));
            let summary = server
                .run()
                .map_err(|e| CliError::run(format!("serve: {e}")))?;
            Ok(format!(
                "serve: {} requests ({} coalesced, {} shed), {} completed, {} failed, \
                 {} cells computed, {} cells cached, {} jobs recovered \
                 ({} served from the journal's done records)\n",
                summary.requests,
                summary.coalesced,
                summary.shed,
                summary.completed,
                summary.failed,
                summary.computed_cells,
                summary.cached_cells,
                summary.recovered_pending,
                summary.recovered_done
            ))
        }
        "submit" => {
            let request = build_submit_request(arg, &flags)?;
            let addr = service_addr(&flags);
            // Resubmission is idempotent (single-flight coalescing +
            // journal dedupe by content hash), so every transport
            // failure — including a torn or checksum-failed response
            // frame — and every structured `overloaded` shed is safe
            // to retry.
            let policy = service_client::RetryPolicy::new(
                flags.retries.unwrap_or(0),
                std::time::Duration::from_millis(flags.backoff_ms.unwrap_or(250)),
            )
            .seeded_by_request(&request);
            let event = service_client::request_with_retry(&addr, &request, &policy, |event| {
                if flags.progress {
                    relay_event(sink, event);
                }
            })
            .map_err(|e| CliError::run(format!("submit: {addr}: {e}")))?;
            match event.get("event").and_then(Value::as_str) {
                // The body is the exact `run <id> --json` (or
                // `adhoc --json`) stdout: print it verbatim.
                Some("result") => event
                    .get("body")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| CliError::run("submit: result event carried no body")),
                Some("error") => {
                    let status = event.get("status").and_then(Value::as_str).unwrap_or("?");
                    let message = event.get("message").and_then(Value::as_str).unwrap_or("?");
                    Err(CliError::run(format!("submit: {status}: {message}")))
                }
                _ => Err(CliError::run(format!(
                    "submit: unexpected final event: {event}"
                ))),
            }
        }
        "status" => {
            let addr = service_addr(&flags);
            let event = service_client::status(&addr)
                .map_err(|e| CliError::run(format!("status: {addr}: {e}")))?;
            Ok(format!("{}\n", event.pretty()))
        }
        "shutdown" => {
            let addr = service_addr(&flags);
            let event = service_client::shutdown(&addr)
                .map_err(|e| CliError::run(format!("shutdown: {addr}: {e}")))?;
            Ok(format!("{}\n", event.pretty()))
        }
        _ => unreachable!("every COMMANDS row has an arm"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn list_names_every_artifact() {
        let out = run_cli(&args(&["list"])).unwrap();
        for id in registry::ids() {
            assert!(out.contains(id), "list output missing {id}");
        }
    }

    #[test]
    fn usage_synopsis_lists_exactly_each_commands_options() {
        // Each synopsis entry: its `lru-leak <command>` line plus the
        // indented continuation lines below it.
        let synopsis = &USAGE[USAGE.find("USAGE:").unwrap()..USAGE.find("ARTIFACTS:").unwrap()];
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in synopsis.lines().skip(1) {
            let mut words = line.split_whitespace();
            if words.next() == Some("lru-leak") {
                entries.push((words.next().unwrap(), Vec::new()));
            }
            let (_, options) = entries.last_mut().expect("synopsis starts with a command");
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            options.extend(words.filter(|w| w.starts_with("--")));
        }
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.push("help");
        assert_eq!(entries.iter().map(|e| e.0).collect::<Vec<_>>(), names);
        for (cmd, (_, options)) in COMMANDS.iter().zip(&entries) {
            assert_eq!(cmd.options, &options[..], "{}", cmd.name);
            // Every listed option parses, with a value if it takes one.
            let head = &["x"][..usize::from(cmd.positional.is_some())];
            for opt in cmd.options {
                let parses = |tail: &[&str]| parse_args(cmd, &args(&[head, tail].concat())).is_ok();
                assert!(parses(&[opt, "1"]) || parses(&[opt]), "{} {opt}", cmd.name);
            }
        }
    }

    #[test]
    fn zero_trials_is_a_usage_error() {
        for cmd in [
            &["run", "fig5", "--trials", "0"][..],
            &["run-all", "--trials", "0"][..],
            &["adhoc", "{}", "--trials", "0"][..],
            &["submit", "fig5", "--trials", "0"][..],
        ] {
            let err = run_cli(&args(cmd)).unwrap_err();
            assert_eq!(err.code, 2, "{cmd:?}");
            assert!(
                err.message.contains("--trials must be >= 1"),
                "{cmd:?}: {err:?}"
            );
        }
    }

    #[test]
    fn threads_above_the_worker_cap_is_a_usage_error() {
        let over = (MAX_WORKERS + 1).to_string();
        for cmd in [
            &["run", "fig5", "--threads", &over][..],
            &["run-all", "--threads", &over][..],
            &["adhoc", "{}", "--threads", &over][..],
            &["serve", "--threads", &over][..],
            &["submit", "fig5", "--threads", &over][..],
        ] {
            let err = run_cli(&args(cmd)).unwrap_err();
            assert_eq!(err.code, 2, "{cmd:?}");
            assert!(
                err.message.contains("--threads must be <= 256"),
                "{cmd:?}: {err:?}"
            );
        }
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run_cli(&args(&[])).unwrap_err().code, 2);
        assert_eq!(run_cli(&args(&["frobnicate"])).unwrap_err().code, 2);
        assert_eq!(run_cli(&args(&["run"])).unwrap_err().code, 2);
        assert_eq!(
            run_cli(&args(&["run", "fig5", "--trials", "zero"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["run", "fig5", "--timeout-secs", "0"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["show", "fig5", "--cache-dir", "/tmp/x"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["adhoc", "{}", "--timeout-secs", "5"]))
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn crash_safety_flags_parse_and_are_scoped_to_their_commands() {
        // --recover without --cache-dir is a usage error before any
        // socket is bound.
        assert_eq!(run_cli(&args(&["serve", "--recover"])).unwrap_err().code, 2);
        // serve rejects the client's retry knobs; submit rejects the
        // server's admission knobs.
        assert_eq!(
            run_cli(&args(&["serve", "--retries", "3"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["serve", "--backoff-ms", "10"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["submit", "fig5", "--max-queued", "4"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["submit", "fig5", "--recover"]))
                .unwrap_err()
                .code,
            2
        );
        // Local commands take none of the service knobs.
        assert_eq!(
            run_cli(&args(&["run", "fig5", "--retries", "1"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["status", "--max-queued", "1"]))
                .unwrap_err()
                .code,
            2
        );
        // Malformed values are usage errors, not panics.
        assert_eq!(
            run_cli(&args(&["serve", "--max-queued", "many"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["submit", "fig5", "--retries", "some"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&args(&["submit", "fig5", "--backoff-ms", "soon"]))
                .unwrap_err()
                .code,
            2
        );
        // And help documents every crash-safety flag.
        let help = run_cli(&args(&["help"])).unwrap();
        for flag in ["--recover", "--retries", "--backoff-ms", "--max-queued"] {
            assert!(help.contains(flag), "help missing {flag}");
        }
    }

    #[test]
    fn help_documents_the_exit_codes_and_engine_flags() {
        let out = run_cli(&args(&["help"])).unwrap();
        assert!(out.contains("EXIT CODES"));
        assert!(out.contains("--timeout-secs"));
        assert!(out.contains("--cache-dir"));
        for code in ["0 ", "1 ", "2 ", "3 "] {
            assert!(
                out.contains(&format!("\n    {code}")),
                "help missing exit code row {code:?}"
            );
        }
    }

    #[test]
    fn unknown_artifact_exits_1() {
        let err = run_cli(&args(&["run", "fig99"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("fig99"));
    }

    #[test]
    fn show_emits_a_parsable_grid_with_metadata() {
        let out = run_cli(&args(&["show", "fig5"])).unwrap();
        let v = Value::parse(out.trim()).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("fig5"));
        assert_eq!(v.get("cells").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("total_trials").and_then(Value::as_u64), Some(2));
        let noise = v.get("noise_axis").and_then(Value::as_arr).unwrap();
        assert_eq!(noise.len(), 1);
        assert_eq!(noise[0].as_str(), Some("none"));
        let arr = v.get("scenarios").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        for sc in arr {
            // Every axis is spelled out — including the default
            // noise axis — and each entry re-parses as a scenario.
            assert_eq!(sc.get("noise").and_then(Value::as_str), Some("none"));
            Scenario::from_json(sc).unwrap();
        }
    }

    #[test]
    fn show_surfaces_the_noise_axis_of_the_noise_sweeps() {
        let out = run_cli(&args(&["show", "ablation_noise_ber"])).unwrap();
        let v = Value::parse(out.trim()).unwrap();
        let noise = v.get("noise_axis").and_then(Value::as_arr).unwrap();
        assert!(
            noise.len() >= 4,
            "expected the interference ladder in the noise axis, got {noise:?}"
        );
        assert!(noise
            .iter()
            .any(|l| l.as_str().is_some_and(|s| s.starts_with("bernoulli"))));
    }

    #[test]
    fn run_csv_flattens_the_summary() {
        let out = run_cli(&args(&["run", "table3", "--csv"])).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].starts_with("artifact,"),
            "header row: {}",
            lines[0]
        );
        assert_eq!(lines.len(), 4, "3 platforms + header: {out}");
        assert!(lines[1].starts_with("table3,"));
        // Deterministic renderer: same run, same bytes.
        assert_eq!(out, run_cli(&args(&["run", "table3", "--csv"])).unwrap());
    }

    #[test]
    fn run_csv_and_json_are_mutually_exclusive() {
        let err = run_cli(&args(&["run", "table3", "--csv", "--json"])).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run_cli(&args(&["run", "table3", "--csv-dir", "x"])).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run_cli(&args(&["run-all", "--csv"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn service_flags_are_rejected_locally_and_vice_versa() {
        // Local commands refuse the service-client options…
        for cmd in [
            &["run", "fig5", "--addr", "127.0.0.1:1"][..],
            &["run-all", "--addr", "127.0.0.1:1"][..],
            &["run", "fig5", "--max-inflight-trials", "8"][..],
            &["adhoc", "{}", "--addr", "127.0.0.1:1"][..],
        ] {
            let err = run_cli(&args(cmd)).unwrap_err();
            assert_eq!(err.code, 2, "{cmd:?}: {}", err.message);
        }
        // …and the service commands refuse local rendering options.
        for cmd in [
            &["serve", "--json"][..],
            &["serve", "--trials", "4"][..],
            &["submit", "fig5", "--csv"][..],
            &["submit", "fig5", "--cache-dir", "/tmp/x"][..],
            &["status", "--trials", "4"][..],
            &["shutdown", "--json"][..],
            &["status", "extra-arg"][..],
            // Each command takes only what its USAGE line lists.
            &["show", "fig5", "--json"][..],
            &["show", "fig5", "--threads", "2"][..],
            &["serve", "--progress"][..],
            &["run-all", "fig4"][..],
        ] {
            let err = run_cli(&args(cmd)).unwrap_err();
            assert_eq!(err.code, 2, "{cmd:?}: {}", err.message);
        }
    }

    #[test]
    fn vega_is_exclusive_with_the_other_renderers() {
        let err = run_cli(&args(&["run", "table3", "--vega", "--json"])).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run_cli(&args(&["run-all", "--vega"])).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run_cli(&args(&["adhoc", "{}", "--vega"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn run_vega_emits_a_valid_vega_lite_spec() {
        let out = run_cli(&args(&["run", "table3", "--vega"])).unwrap();
        let v = Value::parse(out.trim()).unwrap();
        assert_eq!(
            v.get("$schema").and_then(Value::as_str),
            Some("https://vega.github.io/schema/vega-lite/v5.json")
        );
        let values = v
            .get("data")
            .and_then(|d| d.get("values"))
            .and_then(Value::as_arr)
            .unwrap();
        assert!(!values.is_empty(), "spec carries inline data rows");
        assert!(v.get("encoding").is_some());
        // Deterministic renderer: same run, same bytes.
        assert_eq!(out, run_cli(&args(&["run", "table3", "--vega"])).unwrap());
    }

    #[test]
    fn submit_to_a_dead_address_is_a_runtime_error() {
        // Port 1 is privileged and unbound in the test environment.
        let err = run_cli(&args(&["submit", "fig5", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.starts_with("submit:"), "{}", err.message);
        let err = run_cli(&args(&[
            "submit",
            "not-an-artifact",
            "--addr",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("not-an-artifact"));
    }

    #[test]
    fn adhoc_round_trips_a_scenario() {
        let sc = Scenario::builder()
            .message(scenario::MessageSource::Alternating { bits: 8 })
            .seed(3)
            .build()
            .unwrap();
        let out = run_cli(&args(&["adhoc", &sc.to_json().to_string(), "--json"])).unwrap();
        let v = Value::parse(out.trim()).unwrap();
        assert!(v.get("outcome").unwrap().get("error_rate").is_some());
        let cmd = args(&[
            "adhoc",
            &sc.to_json().to_string(),
            "--json",
            "--seed",
            "7",
            "--progress",
        ]);
        let out = run_cli_with(&cmd, &|_: &str| {}).unwrap();
        let v = Value::parse(out.trim()).unwrap();
        let seed = v.get("scenario").and_then(|s| s.get("seed"));
        assert_eq!(seed.and_then(Value::as_u64), Some(7));
    }
}
