//! `bench_execsim_smoke` — the execution-engine perf gate.
//!
//! Measures the fast-forwarding engine against the retained
//! `sched::reference` interpreter on the workloads the engine was
//! built for, asserts the two produce identical observables, and
//! records the trajectory to `BENCH_execsim.json`:
//!
//! * **timesliced**: fig6-shaped percent-of-ones cells at the paper's
//!   `Tr = 1e8` operating point (clean, both bits) — wall-clock per
//!   engine and the speedup (acceptance target: ≥ 5×);
//! * **fastforward**: the same cell with a disjoint-footprint
//!   co-runner, whose quanta the engine advances in closed form
//!   instead of simulating;
//! * **noise_grid**: the `ablation_noise_grid` artifact the recovered
//!   headroom pays for — cell count and total wall time at natural
//!   sample counts.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p bench-harness --bench bench_execsim_smoke
//! ```

use std::time::Instant;

use bench_harness::{header, BENCH_SEED};
use exec_sim::sched::Engine;
use lru_channel::covert::{percent_ones, CoRunner, PercentOnesOpts, Variant};
use lru_channel::noise::NoiseModel;
use lru_channel::params::{ChannelParams, Platform};
use scenario::registry::{self, RunOpts};

/// Samples per timed percent-ones cell (fig6's natural count).
const SAMPLES: usize = 150;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Timed repetitions per engine; the minimum is reported (the runs
/// are deterministic, so the spread is host noise, not workload).
const REPS: usize = 5;

/// Runs `f` on both engines, asserts identical results, returns
/// `(fast_secs, reference_secs, value)` as best-of-[`REPS`].
fn race<T: PartialEq + std::fmt::Debug>(f: impl Fn(Engine) -> T) -> (f64, f64, T) {
    let best = |engine: Engine| {
        let mut best_secs = f64::INFINITY;
        let mut out = None;
        for _ in 0..REPS {
            let (secs, value) = timed(|| f(engine));
            best_secs = best_secs.min(secs);
            out = Some(value);
        }
        (best_secs, out.expect("REPS > 0"))
    };
    let (fast_secs, fast) = best(Engine::FastForward);
    let (ref_secs, refr) = best(Engine::Reference);
    assert_eq!(fast, refr, "engines must be observationally identical");
    (fast_secs, ref_secs, fast)
}

fn main() {
    header(
        "bench_execsim_smoke",
        "execution-engine perf gate",
        "fast-forwarding engine vs the op-at-a-time interpreter on time-sliced runs, plus the noise grid it unlocks",
    );

    let platform = Platform::e5_2690();
    let params = ChannelParams {
        d: 8,
        target_set: 32,
        ts: 100_000_000,
        tr: 100_000_000,
    };

    // ---- timesliced: clean fig6-shaped cells, both bits ----
    let mut ts_fast = 0.0;
    let mut ts_ref = 0.0;
    for bit in [false, true] {
        let (f, r, frac) = race(|engine| {
            let opts = PercentOnesOpts {
                engine,
                ..PercentOnesOpts::default()
            };
            percent_ones(
                platform,
                params,
                Variant::SharedMemory,
                bit,
                SAMPLES,
                BENCH_SEED,
                opts,
            )
            .unwrap()
        });
        println!(
            "percent_ones bit={} ({SAMPLES} samples @ Tr=1e8): fast {:.1}ms, reference {:.1}ms ({:.1}x), fraction {frac:.3}",
            u8::from(bit),
            f * 1e3,
            r * 1e3,
            r / f.max(1e-9),
        );
        ts_fast += f;
        ts_ref += r;
    }
    let ts_speedup = ts_ref / ts_fast.max(1e-9);
    println!(
        "time-sliced percent-ones pair: fast {:.1}ms, reference {:.1}ms — speedup {ts_speedup:.1}x (target >= 5x)",
        ts_fast * 1e3,
        ts_ref * 1e3
    );

    // ---- fastforward: a disjoint-footprint co-runner next to the
    // ---- channel (sets 0-15 vs target set 32 / probe set 63) ----
    let noise = NoiseModel::RandomEviction {
        lines: 16,
        gap_cycles: 60_000,
    };
    let (ff_fast, ff_ref, frac) = race(|engine| {
        let opts = PercentOnesOpts {
            co_runner: CoRunner::Model(noise),
            engine,
            ..PercentOnesOpts::default()
        };
        percent_ones(
            platform,
            params,
            Variant::SharedMemory,
            true,
            SAMPLES,
            BENCH_SEED,
            opts,
        )
        .unwrap()
    });
    let ff_speedup = ff_ref / ff_fast.max(1e-9);
    println!(
        "disjoint-noise cell ({}): fast {:.1}ms, reference {:.1}ms — speedup {ff_speedup:.1}x, fraction {frac:.3}",
        noise.label(),
        ff_fast * 1e3,
        ff_ref * 1e3
    );

    // ---- noise_grid: the artifact the headroom pays for ----
    let artifact = registry::get("ablation_noise_grid").expect("registered");
    let grid_samples = registry::NOISE_GRID_SAMPLES;
    let opts = RunOpts::default();
    let cells = artifact.scenarios(&opts).len();
    let (grid_secs, report) = timed(|| artifact.run(&opts));
    println!("ablation_noise_grid: {cells} cells at natural samples in {grid_secs:.2}s");
    assert!(report.text.contains("shape check"), "grid must render");

    assert!(
        ts_speedup >= 5.0,
        "acceptance: >= 5x speedup on the time-sliced percent-ones pair, measured {ts_speedup:.1}x"
    );

    // ---- record the trajectory ----
    bench_harness::delta_line(
        "BENCH_execsim.json",
        "time-sliced speedup",
        &["timesliced_percent_ones", "speedup"],
        ts_speedup,
    );
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \
         \"what\": \"fast-forwarding execution engine vs the retained op-at-a-time interpreter (sched::reference), observables asserted identical per run\",\n  \
         \"host_threads\": {host_threads},\n  \
         \"timesliced_percent_ones\": {{\n    \
         \"samples\": {SAMPLES},\n    \"tr\": 100000000,\n    \"cells\": \"bit 0 + bit 1, d=8, E5-2690, shared-memory\",\n    \
         \"fast_secs\": {ts_fast:.4},\n    \"reference_secs\": {ts_ref:.4},\n    \"speedup\": {ts_speedup:.1},\n    \"target_speedup\": 5.0\n  }},\n  \
         \"fastforward_disjoint_noise\": {{\n    \
         \"noise\": \"random-eviction(lines=16, gap=60000) on sets 0-15, channel on set 32\",\n    \
         \"fast_secs\": {ff_fast:.4},\n    \"reference_secs\": {ff_ref:.4},\n    \"speedup\": {ff_speedup:.1}\n  }},\n  \
         \"noise_grid\": {{\n    \
         \"artifact\": \"ablation_noise_grid\",\n    \"cells\": {cells},\n    \"samples_per_cell\": {grid_samples},\n    \"total_secs\": {grid_secs:.3}\n  }}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_execsim.json");
    std::fs::write(out, &json).expect("write BENCH_execsim.json");
    println!("\nwrote BENCH_execsim.json");
}
