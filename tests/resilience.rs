//! The resilient job engine's contract, pinned end to end:
//!
//! 1. **Recovery is byte-exact.** For every registry artifact, a run
//!    with an injected chunk panic (caught, retried deterministically
//!    once) produces `Report { text, metrics }` byte-identical to an
//!    undisturbed run.
//! 2. **Failure is structured.** A persistent panic surfaces as
//!    `EngineError::ChunkPanicked` (CLI exit 1), never a process
//!    abort; cancellation and deadline expiry are distinguished.
//! 3. **The cache is sound.** Cold vs warm runs are byte-identical;
//!    an "interrupted" batch resumes from the cache; a cache entry
//!    never cross-serves when seed/trials differ; corrupt entries
//!    are recomputed, not trusted.
//! 4. **`run-all` degrades gracefully.** Failed artifacts are
//!    reported with status + cause in the JSON summary, completed
//!    artifacts keep their deterministic output, and the process
//!    exits 3 (partial failure).

mod oracle;

use std::path::PathBuf;
use std::time::Duration;

use lru_leak::exec_sim::sched;
use lru_leak::scenario::engine::{CancelToken, Engine, EngineError, FaultPlan, Job, ResultCache};
use lru_leak::scenario::registry::{self, RunOpts};
use lru_leak::scenario::Value;
use lru_leak_cli::{run_cli, run_cli_faulted};

const SEED: u64 = 0x5eed_cafe;

fn opts() -> RunOpts {
    RunOpts {
        trials: Some(1),
        seed: SEED,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lru-leak-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn quiet(_line: &str) {}

// ---- axis 1 + 4: panic isolation and fault injection ----

#[test]
fn every_artifact_recovers_byte_identically_from_an_injected_panic() {
    let opts = opts();
    for id in registry::ids() {
        let artifact = registry::get(id).unwrap();
        let reference = artifact.run(&opts);
        // Cell 0 panics once; the chunk containing it is retried
        // deterministically and the report must not change a byte.
        let engine = Engine::new().with_fault_plan(FaultPlan::seeded(7).panic_at(&[0], 1));
        let (faulted, status) = engine
            .run_artifact(artifact, &opts, None, &CancelToken::new())
            .unwrap_or_else(|e| panic!("{id}: faulted run did not recover: {e}"));
        assert_eq!(
            faulted.text, reference.text,
            "{id}: faulted-then-retried text differs from the fault-free run"
        );
        assert_eq!(
            faulted.metrics.to_string(),
            reference.metrics.to_string(),
            "{id}: faulted-then-retried metrics differ from the fault-free run"
        );
        assert!(
            status.retried_chunks >= 1,
            "{id}: the injected fault never fired"
        );
    }
}

#[test]
fn persistent_panic_surfaces_a_structured_error_not_an_abort() {
    let artifact = registry::get("fig5").unwrap();
    let engine = Engine::new().with_fault_plan(FaultPlan::seeded(7).panic_at(&[0], u32::MAX));
    let err = engine
        .run_artifact(artifact, &opts(), None, &CancelToken::new())
        .unwrap_err();
    match &err {
        EngineError::ChunkPanicked { payload, .. } => {
            assert!(
                payload.contains("injected fault"),
                "payload should carry the panic message: {payload}"
            );
        }
        other => panic!("expected ChunkPanicked, got {other:?}"),
    }
    assert_eq!(err.status(), "panicked");
}

// ---- axis 2: cancellation and deadlines ----

#[test]
fn cancellation_and_deadline_are_distinguished() {
    let artifact = registry::get("fig5").unwrap();
    // A pre-cancelled token: nothing runs, the error says cancelled.
    let token = CancelToken::new();
    token.cancel();
    let err = Engine::new()
        .run_artifact(artifact, &opts(), None, &token)
        .unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
    assert_eq!(err.status(), "cancelled");

    // A per-job deadline plus injected worker delays: every cell
    // sleeps well past the deadline, so the job must time out.
    let engine = Engine::new()
        .with_timeout(Duration::from_millis(5))
        .with_fault_plan(FaultPlan::seeded(7).delay_every(1, Duration::from_millis(40)));
    let err = engine
        .run_artifact(artifact, &opts(), None, &CancelToken::new())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert_eq!(err.status(), "timeout");
}

// ---- axis 3: the content-addressed cache ----

#[test]
fn interrupted_run_all_resumes_from_the_cache_byte_identically() {
    let dir = tmp_dir("resume");
    let dir_s = dir.to_str().unwrap();
    let base_args = ["--json", "--trials", "1", "--seed", "1234"];

    // The undisturbed reference batch, no cache anywhere near it.
    let all = |extra: &[&str]| {
        let mut a = vec!["run-all"];
        a.extend_from_slice(&base_args);
        a.extend_from_slice(extra);
        run_cli(&args(&a)).unwrap()
    };
    let reference = all(&[]);

    // "Interrupt" a batch after two artifacts: run them individually
    // into the cache, as a batch that died partway would have.
    for id in ["fig3", "fig5"] {
        run_cli(&args(&[
            "run",
            id,
            "--json",
            "--trials",
            "1",
            "--seed",
            "1234",
            "--cache-dir",
            dir_s,
        ]))
        .unwrap();
    }
    let cache = ResultCache::open(&dir).unwrap();
    assert!(cache.entry_count() > 0, "the partial batch left entries");

    // A cached batch additionally reports its hit/miss counters, and
    // every batch reports its (run-dependent) wall clock; the
    // artifacts themselves must stay byte-identical to the cold run,
    // so the comparison strips exactly those top-level keys.
    let strip_cache = |out: &str| {
        let mut v = Value::parse(out.trim()).unwrap();
        if let Value::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "cache" && k != "wall_millis" && k != "timings");
        }
        format!("{}\n", v.pretty())
    };
    let counters = |out: &str| {
        let v = Value::parse(out.trim()).unwrap();
        let n = |k: &str| {
            v.get("cache")
                .and_then(|c| c.get(k))
                .and_then(Value::as_u64)
                .unwrap()
        };
        (n("hits"), n("misses"))
    };

    // The resumed batch serves the interrupted cells from the cache
    // and computes (and records) the rest.
    let resumed = all(&["--cache-dir", dir_s]);
    assert_eq!(
        strip_cache(&resumed),
        strip_cache(&reference),
        "resumed run-all differs from cold"
    );
    let (hits, misses) = counters(&resumed);
    assert!(hits > 0, "resume must hit the interrupted cells");
    assert!(misses > 0, "resume must compute the remaining cells");

    // And a fully warm rerun is byte-identical again, with every
    // cell a hit.
    let warm = all(&["--cache-dir", dir_s]);
    assert_eq!(
        strip_cache(&warm),
        strip_cache(&reference),
        "warm run-all differs from cold"
    );
    let (warm_hits, warm_misses) = counters(&warm);
    assert_eq!(warm_misses, 0, "warm rerun recomputed a cell");
    assert_eq!(warm_hits, hits + misses, "warm rerun must hit every cell");

    // The warm batch really came from the cache.
    let engine = Engine::new().with_cache(ResultCache::open(&dir).unwrap());
    let (_, status) = engine
        .run_artifact(
            registry::get("fig3").unwrap(),
            &RunOpts {
                trials: Some(1),
                seed: 1234,
            },
            None,
            &CancelToken::new(),
        )
        .unwrap();
    assert_eq!(status.from_cache, status.cells, "warm cells not served");
    assert_eq!(status.computed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_never_cross_serves_when_seed_or_trials_differ() {
    let dir = tmp_dir("keys");
    let engine = Engine::new().with_cache(ResultCache::open(&dir).unwrap());
    // fig3 consumes the trial override (histogram sample count), so
    // a `--trials` flip really changes the canonical scenario.
    let artifact = registry::get("fig3").unwrap();
    let token = CancelToken::new();
    let o1 = RunOpts {
        trials: Some(1),
        seed: 1,
    };
    let (r1, s1) = engine.run_artifact(artifact, &o1, None, &token).unwrap();
    assert_eq!(s1.from_cache, 0);
    assert_eq!(s1.computed, s1.cells);

    // Different seed: every cell is a miss, and the output differs.
    let o2 = RunOpts {
        trials: Some(1),
        seed: 2,
    };
    let (r2, s2) = engine.run_artifact(artifact, &o2, None, &token).unwrap();
    assert_eq!(s2.from_cache, 0, "a seed flip must invalidate the key");
    assert_ne!(r1.metrics.to_string(), r2.metrics.to_string());

    // Different trial count: every cell is a miss again.
    let o3 = RunOpts {
        trials: Some(2),
        seed: 1,
    };
    let (_, s3) = engine.run_artifact(artifact, &o3, None, &token).unwrap();
    assert_eq!(s3.from_cache, 0, "a trial flip must invalidate the key");

    // The identical request is served entirely from the cache,
    // byte-identically.
    let (r4, s4) = engine.run_artifact(artifact, &o1, None, &token).unwrap();
    assert_eq!(s4.from_cache, s4.cells);
    assert_eq!(r4.text, r1.text);
    assert_eq!(r4.metrics.to_string(), r1.metrics.to_string());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_recomputed_not_trusted() {
    let dir = tmp_dir("corrupt");
    let engine = Engine::new().with_cache(ResultCache::open(&dir).unwrap());
    let artifact = registry::get("fig5").unwrap();
    let opts = opts();
    let token = CancelToken::new();
    let (r1, _) = engine.run_artifact(artifact, &opts, None, &token).unwrap();

    // Trash every entry the run published.
    let cache = ResultCache::open(&dir).unwrap();
    for sc in &Job::from_artifact(artifact, &opts).grid {
        cache.corrupt_entry(sc).unwrap();
    }
    let (r2, s2) = engine.run_artifact(artifact, &opts, None, &token).unwrap();
    assert_eq!(s2.from_cache, 0, "corrupt entries must read as misses");
    assert_eq!(r2.text, r1.text);
    assert_eq!(r2.metrics.to_string(), r1.metrics.to_string());

    // The recompute repaired the entries in place.
    let (_, s3) = engine.run_artifact(artifact, &opts, None, &token).unwrap();
    assert_eq!(s3.from_cache, s3.cells);

    // The corruption fault point exercises the same path end to end:
    // every write is trashed immediately, so a follow-up run must
    // recompute — and still match.
    let dir2 = tmp_dir("corrupt-writes");
    let faulty = Engine::new()
        .with_cache(ResultCache::open(&dir2).unwrap())
        .with_fault_plan(FaultPlan::seeded(7).corrupt_cache_writes());
    let (f1, _) = faulty.run_artifact(artifact, &opts, None, &token).unwrap();
    let (f2, fs2) = faulty.run_artifact(artifact, &opts, None, &token).unwrap();
    assert_eq!(fs2.from_cache, 0);
    assert_eq!(f1.text, r1.text);
    assert_eq!(f2.text, r1.text);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn a_non_utf8_cache_entry_counts_as_corrupt_not_a_miss() {
    let dir = tmp_dir("non-utf8");
    let cache = ResultCache::open(&dir).unwrap();
    let sc = &Job::from_artifact(registry::get("fig5").unwrap(), &opts()).grid[0];
    cache.store(sc, &Value::from(1u64)).unwrap();
    assert!(cache.contains(sc));
    std::fs::write(dir.join(ResultCache::entry_name(sc)), [0xff; 64]).unwrap();
    assert!(!cache.contains(sc), "garbage bytes must not verify");
    assert_eq!(cache.lookup(sc), None);
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.corrupt_recovered),
        (0, 0, 1),
        "an unreadable entry that exists is corrupt, not absent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- satellite: exit codes through the CLI ----

#[test]
fn engine_failure_through_the_cli_exits_1() {
    let plan = FaultPlan::seeded(7).panic_at(&[0], u32::MAX);
    let err = run_cli_faulted(&args(&["run", "fig5", "--trials", "1"]), &quiet, plan).unwrap_err();
    assert_eq!(err.code, 1);
    assert!(
        err.message.contains("panicked"),
        "message should carry the cause: {}",
        err.message
    );
    assert!(err.stdout.is_none());
}

#[test]
fn partial_run_all_failure_exits_3_with_completed_output() {
    let opts = RunOpts {
        trials: Some(1),
        seed: 1234,
    };
    // Arm a persistent panic at a cell index only the large grids
    // reach — small artifacts complete, large ones fail.
    const FAULT_CELL: usize = 100;
    let plan = FaultPlan::seeded(7).panic_at(&[FAULT_CELL], u32::MAX);
    let expected_failed: Vec<&str> = registry::ids()
        .into_iter()
        .filter(|id| registry::get(id).unwrap().scenarios(&opts).len() > FAULT_CELL)
        .collect();
    assert!(
        !expected_failed.is_empty(),
        "the fault cell must hit at least one artifact"
    );
    assert!(
        expected_failed.len() < registry::ids().len(),
        "the fault cell must spare at least one artifact"
    );

    let err = run_cli_faulted(
        &args(&["run-all", "--json", "--trials", "1", "--seed", "1234"]),
        &quiet,
        plan,
    )
    .unwrap_err();
    assert_eq!(err.code, 3, "partial batch failure must exit 3");
    assert!(err.message.contains("artifacts failed"));

    // The completed artifacts' output is still there, with the
    // failures reported by id, status and cause.
    let out = err.stdout.expect("partial output must be printed");
    let v = Value::parse(out.trim()).unwrap();
    assert_eq!(
        v.get("failed_count").and_then(Value::as_u64),
        Some(expected_failed.len() as u64)
    );
    let failures = v.get("failures").and_then(Value::as_arr).unwrap();
    let failed_ids: Vec<&str> = failures
        .iter()
        .map(|f| f.get("id").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(failed_ids, expected_failed);
    for f in failures {
        assert_eq!(f.get("status").and_then(Value::as_str), Some("panicked"));
        assert!(f
            .get("cause")
            .and_then(Value::as_str)
            .is_some_and(|c| c.contains("injected fault")));
    }
    let completed = v.get("artifacts").and_then(Value::as_arr).unwrap();
    assert_eq!(
        completed.len(),
        registry::ids().len() - expected_failed.len()
    );
}

// ---- axis 5: lockstep batching composes with the resilience machinery ----

#[test]
fn lockstep_cells_recover_byte_identically_from_an_injected_panic() {
    let opts = opts();
    // Every artifact whose grid routes through the lockstep batch
    // path.
    let eligible: Vec<&str> = registry::ids()
        .into_iter()
        .filter(|id| {
            registry::get(id)
                .unwrap()
                .scenarios(&opts)
                .iter()
                .any(|s| s.lockstep_spec().is_ok())
        })
        .collect();
    assert!(
        !eligible.is_empty(),
        "registry must have eligible artifacts"
    );
    for id in eligible {
        let artifact = registry::get(id).unwrap();
        let reference = oracle::run_artifact(artifact, &opts, sched::Engine::FastForward);
        // Cell 0 panics once mid-batch; the chunk containing it is
        // retried deterministically — with its lockstep batches
        // re-run — and the report must not change a byte.
        let engine = Engine::new().with_fault_plan(FaultPlan::seeded(7).panic_at(&[0], 1));
        let (faulted, status) = engine
            .run_artifact(artifact, &opts, None, &CancelToken::new())
            .unwrap_or_else(|e| panic!("{id}: faulted lockstep run did not recover: {e}"));
        assert_eq!(
            faulted.text, reference.text,
            "{id}: faulted-then-retried lockstep text differs from the oracle"
        );
        assert_eq!(
            faulted.metrics.to_string(),
            reference.metrics.to_string(),
            "{id}: faulted-then-retried lockstep metrics differ from the oracle"
        );
        assert!(
            status.retried_chunks >= 1,
            "{id}: the injected fault never fired"
        );
    }
}

#[test]
fn lockstep_runs_honour_cancellation_at_batch_boundaries() {
    use lru_leak::scenario::engine::{FoldError, RunCtrl};
    use lru_leak::scenario::spec::Scenario;

    // A multi-trial eligible sweep, cancelled before it starts: the
    // lockstep driver polls the token at every batch boundary, so
    // nothing runs and the error is structured.
    let scenario = Scenario::builder().trials(16).seed(9).build().unwrap();
    assert!(scenario.lockstep_spec().is_ok());
    let token = CancelToken::new();
    token.cancel();
    let ctrl = RunCtrl::with_cancel(token);
    let err = scenario.run_ctrl(&ctrl).unwrap_err();
    assert!(matches!(err, FoldError::Cancelled), "got {err:?}");

    // And through the engine: a per-job deadline fires while lockstep
    // batches are in flight; the overrun surfaces as a timeout, same
    // as the scalar path.
    let artifact = registry::get("fig5").unwrap();
    let engine = Engine::new()
        .with_timeout(Duration::from_millis(5))
        .with_fault_plan(FaultPlan::seeded(7).delay_every(1, Duration::from_millis(40)));
    let err = engine
        .run_artifact(artifact, &opts(), None, &CancelToken::new())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err:?}"
    );
}
