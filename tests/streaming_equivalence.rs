//! The streaming refactor's contract: stream-and-reduce must be
//! byte-identical to the pre-refactor buffer-then-fold path.
//!
//! The buffered oracles in `oracle/mod.rs` keep the old semantics —
//! run every trial sequentially, collect a `Vec`, then render. The
//! streamed path (chunked work-stealing scheduler, in-order chunk
//! merging) must reproduce the oracle's `Report { text, metrics }`
//! byte for byte on 1, 4 and 8 workers, for every artifact in the
//! registry. Each run pins its own worker count, so the tests share
//! no process state.

mod oracle;

use lru_leak::exec_sim::sched;
use lru_leak::lru_channel::trials::RunCtrl;
use lru_leak::scenario::aggregate::{KeyHistogram, ScalarStats};
use lru_leak::scenario::registry::{self, RunOpts};
use lru_leak::scenario::spec::{ExperimentKind, InitId, MessageSource, Scenario, SequenceId};
use lru_leak::scenario::{Aggregate, CancelToken, Engine, Value};

fn on(workers: usize) -> RunCtrl<'static> {
    RunCtrl::new().with_workers(workers)
}

/// The scenario's default summary aggregate under `ctrl`.
fn summary(sc: &Scenario, ctrl: &RunCtrl) -> Value {
    Aggregate::for_scenario(sc).reduce(sc, ctrl).unwrap()
}

#[test]
fn every_artifact_streams_bit_identical_to_the_buffered_path() {
    let opts = RunOpts {
        trials: Some(1),
        seed: 0x5eed_cafe,
    };
    for id in registry::ids() {
        let artifact = registry::get(id).unwrap();
        let reference = oracle::run_artifact(artifact, &opts, sched::Engine::FastForward);
        for workers in [1usize, 4, 8] {
            let (streamed, _) = Engine::new()
                .with_workers(workers)
                .run_artifact(artifact, &opts, None, &CancelToken::new())
                .unwrap();
            assert_eq!(
                streamed.text, reference.text,
                "{id}: streamed text differs from the buffered oracle at {workers} workers"
            );
            assert_eq!(
                streamed.metrics.to_string(),
                reference.metrics.to_string(),
                "{id}: streamed metrics differ from the buffered oracle at {workers} workers"
            );
        }
    }
}

/// A cheap many-trial scenario (one PLRU eviction probe per trial).
fn plru_scenario(trials: usize) -> Scenario {
    Scenario::builder()
        .kind(ExperimentKind::PlruEviction {
            sequence: SequenceId::Seq1,
            init: InitId::Random,
            iterations: 2,
            trials: 1,
        })
        .message(MessageSource::Alternating { bits: 1 })
        .trials(trials)
        .seed(0xfeed)
        .build()
        .unwrap()
}

#[test]
fn scenario_run_matches_the_buffered_oracle_per_worker_count() {
    let sc = plru_scenario(97); // not a multiple of any chunk size
    let reference = oracle::run_scenario(&sc, sched::Engine::FastForward);
    for workers in [1usize, 4, 8] {
        assert_eq!(
            sc.run_ctrl(&on(workers)).unwrap().to_string(),
            reference.to_string(),
            "collected trials differ at {workers} workers"
        );
    }
}

#[test]
fn streaming_reducers_are_worker_count_invariant() {
    let sc = plru_scenario(500);
    // Non-associative floating-point state (sums) and associative
    // integer state (bins) must both reproduce exactly.
    let stats = ScalarStats::new(&["steady_state"]);
    let hist = KeyHistogram {
        key: "steady_state",
        bins: 8,
    };
    let stats_seq = sc.run_reduced(&stats, &on(1)).unwrap().to_string();
    let hist_seq = sc.run_reduced(&hist, &on(1)).unwrap().to_string();
    let summary_seq = summary(&sc, &on(1)).to_string();
    for workers in [4usize, 8] {
        let ctrl = on(workers);
        assert_eq!(
            sc.run_reduced(&stats, &ctrl).unwrap().to_string(),
            stats_seq
        );
        assert_eq!(sc.run_reduced(&hist, &ctrl).unwrap().to_string(), hist_seq);
        assert_eq!(summary(&sc, &ctrl).to_string(), summary_seq);
    }
}

#[test]
fn summary_aggregate_agrees_with_the_buffered_trials() {
    let sc = plru_scenario(64);
    let buffered = oracle::run_scenario(&sc, sched::Engine::FastForward);
    let trials = buffered.as_arr().expect("trials array");
    let count = trials
        .iter()
        .filter(|t| t.get("steady_state").is_some())
        .count() as u64;
    let max = trials
        .iter()
        .filter_map(|t| t.get("steady_state").and_then(Value::as_f64))
        .fold(f64::NEG_INFINITY, f64::max);
    let summary = summary(&sc, &RunCtrl::new());
    let stat = summary
        .get("keys")
        .and_then(|k| k.get("steady_state"))
        .expect("summary stat");
    assert_eq!(stat.get("count").and_then(Value::as_u64), Some(count));
    assert_eq!(stat.get("max").and_then(Value::as_f64), Some(max));
}
