//! The batch workloads: every registry artifact at default trials
//! through `Engine::run_job` (no result cache) and
//! `Artifact::render_report`, as `lru-leak run-all --json` runs them,
//! at one worker (`batch-seq`) or two (`batch-par`).
//!
//! An operation is one grid cell, timed as the gap between two of the
//! engine's progress callbacks: with one worker the engine finishes
//! cells one after another, so that is one cell's latency; with two it
//! is the time between two completions.

use std::sync::Mutex;
use std::time::Instant;

use scenario::registry::{self, Artifact, RunOpts};
use scenario::{CancelToken, Engine, Job};

use crate::pins::{artifact_bytes, Pins};
use crate::trace::{SpanId, Tracer};
use crate::{arr, calib, ms, shuffle, stats, Args, Measured};

/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Set-ups timed together as one sample (one takes microseconds).
const SETUP_BATCH: usize = 50;

/// Passes per second of `--seconds`: the run's fixed amount of work.
const PASSES_PER_SECOND: f64 = 0.5;

/// Runs one artifact job and checks its bytes; pushes its cell
/// latencies and returns whether the bytes match the pin.
fn job(
    engine: &Engine,
    a: &Artifact,
    j: &Job,
    pins: &Pins,
    tracer: &Tracer,
    pass: Option<SpanId>,
    cell_ms: &mut Vec<f64>,
) -> bool {
    let opts = RunOpts::default();
    let id = tracer.open("bench.artifact", pass, None);
    let marks = Mutex::new(Vec::with_capacity(j.grid.len()));
    let done = |_: usize, _: usize| {
        marks
            .lock()
            .expect("a worker panicked while recording progress")
            .push(Instant::now());
    };
    let start = Instant::now();
    let run = tracer.span("scenario.engine.run_job", id, None, |_| {
        engine.run_job(j, Some(&done), &CancelToken::new())
    });
    let mut prev = start;
    for t in marks.into_inner().expect("progress marks") {
        cell_ms.push(ms(t - prev));
        prev = t;
    }
    let ok = match run {
        Ok((outcomes, _)) => {
            let bytes = tracer.span("scenario.render", id, None, |_| {
                artifact_bytes(a, &opts, &j.grid, &outcomes)
            });
            tracer.span("bench.verify", id, None, |_| pins.artifact_ok(a.id, &bytes))
        }
        Err(_) => false,
    };
    tracer.close(id);
    ok
}

/// Per index, the median of the passes' values.
fn median_per_index(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| stats::median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

pub fn run(args: &Args, workers: usize, pins: &Pins, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let opts = RunOpts::default();
    let mut order: Vec<&'static Artifact> = registry::ARTIFACTS.iter().collect();
    shuffle(&mut order, args.seed);

    // Timings are scaled by the calibration kernel run between them
    // (see `calib`); the wall times stay in the notes.
    let mut kernel = vec![calib::kernel_ms(1)];
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            let jobs: Vec<Job> = order.iter().map(|a| Job::from_artifact(a, &opts)).collect();
            built = Some((jobs, Engine::new().with_workers(workers)));
        }
        setups.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        kernel.push(calib::kernel_ms(1));
    }
    let (jobs, engine) = built.expect("at least one set-up");
    let setup_scale = calib::scale(&kernel);

    // A traced run traces every other pass, so the tracing overhead is
    // the difference between the two interleaved halves.
    let untraced = Tracer::new(false);
    let n = args.ops(PASSES_PER_SECOND);
    let n = if tracer.is_on() { n + n % 2 } else { n };
    // Per pass: wall and scaled seconds, and scaled cell latencies in
    // run order.
    let (mut walls, mut passes, mut cells) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..n {
        let t = if tracer.is_on() && k % 2 == 1 {
            tracer
        } else {
            &untraced
        };
        let pass = t.open("bench.pass", None, None);
        let mut cell_ms = Vec::new();
        let mut kernel = vec![calib::kernel_ms(workers)];
        let mut wall = 0.0;
        for (a, j) in order.iter().zip(&jobs) {
            let ta = Instant::now();
            let ok = job(&engine, a, j, pins, t, pass, &mut cell_ms);
            wall += ta.elapsed().as_secs_f64();
            kernel.push(t.span("bench.calibrate", pass, None, |_| calib::kernel_ms(workers)));
            m.attempted += 1;
            m.failed += u64::from(!ok);
        }
        t.close(pass);
        let scale = calib::scale(&kernel);
        walls.push(wall);
        passes.push(wall * scale);
        cells.push(cell_ms.iter().map(|x| x * scale).collect::<Vec<_>>());
    }

    // Other tenants of a shared host slow whole stretches of a run, so
    // a run counts at its best pass, and each cell at its median over
    // the passes (a single pass's small cells are too noisy).
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let pass_s = min(&passes);
    let cells = median_per_index(&cells);
    if tracer.is_on() && n >= 2 {
        let half =
            |odd: usize| -> Vec<f64> { passes.iter().copied().skip(odd).step_by(2).collect() };
        let ratio = min(&half(1)) / min(&half(0));
        m.layer("trace.overhead_pct", 100.0 * (ratio - 1.0));
    }

    let tail = stats::tail(&cells);
    m.e2e("setup_s", stats::median(&setups) * setup_scale);
    m.e2e("batch_s", pass_s);
    m.e2e("req_p50_ms", stats::median(&cells));
    m.e2e("req_tail_ms", tail.value);
    m.e2e("req_per_s", cells.len() as f64 / pass_s);
    m.note_tail(tail);
    m.note("wall_setup_s", stats::median(&setups).into());
    m.note("wall_pass_s", arr(&walls));
    m.note("scaled_pass_s", arr(&passes));
    m
}
