//! `bench_batch_smoke` — end-to-end timing of the batch execution
//! surface, the scenario-layer companion of `bench_perf_smoke`.
//!
//! Measures and records to `BENCH_scenario.json`:
//!
//! * **batch**: wall-clock of executing the entire registry in one
//!   `run-all`-shaped pass (`--trials 1`), with
//!   per-artifact timings;
//! * **artifacts**: the fig5/fig6 single-artifact timings tracked
//!   since the scenario redesign, sequential vs default workers,
//!   with the bit-identical-across-worker-counts check;
//! * **streaming**: throughput of the constant-memory fold pipeline —
//!   a ≥1M-trial eviction-probability sweep and a fig4-style
//!   error-rate sweep streamed through `ScalarStats`, both asserted
//!   bit-identical on 1 and 4 workers. Live memory is
//!   `O(workers × chunk)` accumulators by construction
//!   (`lru_channel::trials::run_trials_fold_ctrl`), never `O(trials)`.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p bench-harness --bench bench_batch_smoke
//! ```

use std::time::Instant;

use bench_harness::{header, BENCH_SEED};
use lru_channel::trials::RunCtrl;
use scenario::aggregate::ScalarStats;
use scenario::registry::{self, RunOpts};
use scenario::spec::{ExperimentKind, InitCond, MessageSource, Scenario, SequenceKind};
use scenario::{Aggregate, CancelToken, Engine};

/// Trials of the large streaming sweep (the acceptance floor).
const SWEEP_TRIALS: usize = 1_000_000;

/// Trials of the fig4-style error-rate stream (each trial is a full
/// covert run: machine build, transmit, decode, score).
const FIG4_STYLE_TRIALS: usize = 20_000;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The ≥1M-trial sweep: one Tree-PLRU eviction probe per trial,
/// streamed into scats — the cheapest real experiment in the suite,
/// so the measurement tracks scheduler+fold overhead, not simulator
/// depth.
fn sweep_scenario() -> Scenario {
    Scenario::builder()
        .kind(ExperimentKind::PlruEviction {
            sequence: SequenceKind::Seq1,
            init: InitCond::Random,
            iterations: 2,
            trials: 1,
        })
        .message(MessageSource::Alternating { bits: 1 })
        .trials(SWEEP_TRIALS)
        .seed(BENCH_SEED)
        .build()
        .expect("valid sweep scenario")
}

/// A Fig. 4-shaped cell: the paper's headline covert configuration,
/// error rate per trial, streamed into mean/min/max.
fn fig4_style_scenario() -> Scenario {
    Scenario::builder()
        .message(MessageSource::Random {
            bits: 32,
            repeats: 1,
        })
        .trials(FIG4_STYLE_TRIALS)
        .seed(BENCH_SEED)
        .build()
        .expect("valid covert scenario")
}

fn main() {
    header(
        "bench_batch_smoke",
        "batch execution + streaming throughput gate",
        "run-all wall-clock over the full registry, plus constant-memory fold throughput at 1M trials",
    );

    let opts = RunOpts {
        trials: Some(1),
        seed: BENCH_SEED,
    };

    // ---- batch: the whole registry, run-all shaped ----
    let mut per_artifact = Vec::new();
    let (batch_secs, ()) = timed(|| {
        for id in registry::ids() {
            let artifact = registry::get(id).expect("registered");
            let (secs, report) = timed(|| artifact.run(&opts));
            assert_eq!(report.id, id);
            per_artifact.push((id, secs));
        }
    });
    println!(
        "run-all (--trials 1): {} artifacts in {batch_secs:.3}s",
        per_artifact.len()
    );
    for (id, secs) in &per_artifact {
        println!("  {id:<22} {:>8.1}ms", secs * 1e3);
    }

    // ---- artifacts: the fig5/fig6 trajectory entries ----
    let mut artifact_rows = Vec::new();
    for id in ["fig5", "fig6"] {
        let artifact = registry::get(id).expect("registered");
        let natural = RunOpts::default();
        let sequential = Engine::new().with_workers(1);
        let (seq_secs, (seq, _)) = timed(|| {
            sequential
                .run_artifact(artifact, &natural, None, &CancelToken::new())
                .expect("plain run")
        });
        let (def_secs, def) = timed(|| artifact.run(&natural));
        let identical = seq.text == def.text && seq.metrics.to_string() == def.metrics.to_string();
        assert!(identical, "{id}: output must not depend on worker count");
        println!("{id}: sequential {seq_secs:.4}s, default workers {def_secs:.4}s (bit-identical)");
        artifact_rows.push((id, seq_secs, def_secs));
    }

    // ---- streaming: the ≥1M-trial constant-memory sweep ----
    let sweep = sweep_scenario();
    let summary = |workers: usize| {
        Aggregate::for_scenario(&sweep)
            .reduce(&sweep, &RunCtrl::new().with_workers(workers))
            .expect("plain run")
    };
    let (sweep_seq_secs, sweep_seq) = timed(|| summary(1));
    let (sweep_par_secs, sweep_par) = timed(|| summary(4));
    assert_eq!(
        sweep_seq.to_string(),
        sweep_par.to_string(),
        "1M-trial summary must be bit-identical across worker counts"
    );
    let count = sweep_seq
        .get("keys")
        .and_then(|k| k.get("steady_state"))
        .and_then(|s| s.get("count"))
        .and_then(scenario::Value::as_u64)
        .expect("sweep count");
    assert_eq!(count, SWEEP_TRIALS as u64, "every trial aggregated");
    let sweep_best = sweep_seq_secs.min(sweep_par_secs);
    println!(
        "streaming sweep: {SWEEP_TRIALS} trials in {sweep_best:.2}s ({:.0} trials/s; sequential {sweep_seq_secs:.2}s, 4 workers {sweep_par_secs:.2}s, bit-identical)",
        SWEEP_TRIALS as f64 / sweep_best
    );

    // ---- streaming: fig4-style error-rate stream ----
    let fig4ish = fig4_style_scenario();
    let stats = ScalarStats::new(&["error_rate"]);
    let (fig4_secs, fig4_out) = timed(|| {
        fig4ish
            .run_reduced(&stats, &RunCtrl::new())
            .expect("plain run")
    });
    let err_mean = fig4_out
        .get("keys")
        .and_then(|k| k.get("error_rate"))
        .and_then(|s| s.get("mean"))
        .and_then(scenario::Value::as_f64)
        .expect("error_rate mean");
    println!(
        "fig4-style stream: {FIG4_STYLE_TRIALS} covert trials in {fig4_secs:.2}s ({:.0} trials/s, mean error rate {err_mean:.4})",
        FIG4_STYLE_TRIALS as f64 / fig4_secs
    );

    // ---- record the trajectory ----
    bench_harness::delta_line(
        "BENCH_scenario.json",
        "run-all total secs",
        &["batch", "total_secs"],
        batch_secs,
    );
    // This gate rewrites the whole file; carry the lockstep gate's
    // block over so the two trajectories coexist.
    let lockstep_block = bench_harness::bench_json_get("BENCH_scenario.json", "lockstep");
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"what\": \"end-to-end wall-clock of the scenario batch surface: run-all over the full registry, single-artifact trajectories, and constant-memory streaming-fold throughput\",\n");
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"batch\": {\n");
    json.push_str(&format!(
        "    \"artifact_count\": {},\n    \"trials_override\": 1,\n    \"total_secs\": {batch_secs:.3},\n",
        per_artifact.len()
    ));
    json.push_str("    \"per_artifact_ms\": {\n");
    for (i, (id, secs)) in per_artifact.iter().enumerate() {
        json.push_str(&format!(
            "      \"{id}\": {:.1}{}\n",
            secs * 1e3,
            if i + 1 < per_artifact.len() { "," } else { "" }
        ));
    }
    json.push_str("    }\n  },\n");
    json.push_str("  \"artifacts\": {\n");
    for (i, (id, seq, def)) in artifact_rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{id}\": {{ \"threads1_secs\": {seq:.4}, \"default_secs\": {def:.4}, \"json_bit_identical_across_thread_counts\": true }}{}\n",
            if i + 1 < artifact_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"streaming\": {\n");
    json.push_str("    \"sweep_1m\": {\n");
    json.push_str(&format!(
        "      \"trials\": {SWEEP_TRIALS},\n      \"scenario\": \"plru-eviction probe (Table I cell), ScalarStats over steady_state\",\n      \"sequential_secs\": {sweep_seq_secs:.3},\n      \"workers4_secs\": {sweep_par_secs:.3},\n      \"trials_per_sec\": {:.0},\n      \"bit_identical\": true\n",
        SWEEP_TRIALS as f64 / sweep_best
    ));
    json.push_str("    },\n");
    json.push_str("    \"fig4_style_error_rate\": {\n");
    json.push_str(&format!(
        "      \"trials\": {FIG4_STYLE_TRIALS},\n      \"scenario\": \"headline covert cell (32-bit random message), ScalarStats over error_rate\",\n      \"secs\": {fig4_secs:.3},\n      \"trials_per_sec\": {:.0},\n      \"mean_error_rate\": {err_mean:.4}\n",
        FIG4_STYLE_TRIALS as f64 / fig4_secs
    ));
    json.push_str("    },\n");
    json.push_str("    \"memory\": \"live accumulators bounded at O(workers x chunk) by the in-order wave merge (lru_channel::trials::run_trials_fold_ctrl); chunk layout is a function of trial count only, so output is bit-identical for any --threads\"\n");
    json.push_str("  }\n");
    json.push_str("}\n");
    // Tests and benches run with CWD = the package dir; anchor the
    // report at the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scenario.json");
    std::fs::write(out, &json).expect("write BENCH_scenario.json");
    if let Some(block) = lockstep_block {
        bench_harness::bench_json_upsert("BENCH_scenario.json", "lockstep", &block);
    }
    println!("\nwrote BENCH_scenario.json");
}
