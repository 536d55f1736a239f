//! The lockstep batching contract: routing eligible covert trials
//! through `lru_channel::lockstep` (one-set lanes) must be invisible
//! in the output.
//!
//! For every registry artifact, the report produced with lockstep
//! batching enabled (`Auto` — the default everywhere — and `Force`)
//! must reproduce the scalar path's (`Off`) `Report { text, metrics }`
//! byte for byte on 1, 4 and 8 workers. Artifacts with no eligible
//! cell route identically under every mode, so they ride along as a
//! no-regression check for free.

use lru_leak::scenario::engine::{CancelToken, Engine, RunCtrl};
use lru_leak::scenario::registry::{self, RunOpts};
use lru_leak::scenario::{LockstepMode, Scenario};

fn report(id: &str, opts: &RunOpts, mode: LockstepMode, workers: usize) -> (String, String) {
    let artifact = registry::get(id).unwrap();
    let engine = Engine::new().with_workers(workers).with_lockstep(mode);
    let (report, _status) = engine
        .run_artifact(artifact, opts, None, &CancelToken::new())
        .unwrap();
    (report.text, report.metrics.to_string())
}

/// Artifacts whose grid contains at least one lockstep-eligible cell.
fn eligible_ids(opts: &RunOpts) -> Vec<&'static str> {
    registry::ids()
        .into_iter()
        .filter(|id| {
            registry::get(id)
                .unwrap()
                .scenarios(opts)
                .iter()
                .any(|s| s.lockstep_spec().is_ok())
        })
        .collect()
}

#[test]
fn every_eligible_artifact_is_bit_identical_across_lockstep_modes_and_workers() {
    let opts = RunOpts {
        trials: Some(1),
        seed: 0x010c_57e9,
    };
    let eligible = eligible_ids(&opts);
    assert!(
        !eligible.is_empty(),
        "registry should contain lockstep-eligible artifacts"
    );
    for id in eligible {
        let scalar = report(id, &opts, LockstepMode::Off, 1);
        for workers in [1usize, 4, 8] {
            for mode in [LockstepMode::Auto, LockstepMode::Force] {
                let batched = report(id, &opts, mode, workers);
                assert_eq!(
                    batched.0,
                    scalar.0,
                    "{id}: lockstep {m} text differs from scalar at {workers} workers",
                    m = mode.name()
                );
                assert_eq!(
                    batched.1,
                    scalar.1,
                    "{id}: lockstep {m} metrics differ from scalar at {workers} workers",
                    m = mode.name()
                );
            }
        }
    }
}

/// Multi-trial sweeps are where the batching actually kicks in (one
/// `run_batch` per scheduler chunk); pin a fig4-style cell at a trial
/// count that spans several chunks.
#[test]
fn multi_trial_covert_sweep_is_bit_identical_across_modes() {
    let scenario = Scenario::builder()
        .trials(24)
        .seed(0x0ba7_c4ed)
        .build()
        .unwrap();
    assert!(scenario.lockstep_spec().is_ok());
    let scalar = scenario
        .run_ctrl(&RunCtrl::new().with_lockstep(LockstepMode::Off))
        .unwrap();
    for workers in [1usize, 4, 8] {
        for mode in [LockstepMode::Auto, LockstepMode::Force] {
            let ctrl = RunCtrl::new().with_workers(workers).with_lockstep(mode);
            let batched = scenario.run_ctrl(&ctrl).unwrap();
            assert_eq!(
                batched.to_string(),
                scalar.to_string(),
                "lockstep {m} differs from scalar at {workers} workers",
                m = mode.name()
            );
        }
    }
}

/// The eligibility oracle itself: the headline covert scenario is
/// eligible, and each gating axis flips it off with the right reason.
#[test]
fn lockstep_eligibility_reasons_are_structured() {
    use lru_leak::scenario::spec::NoiseModel;
    use lru_leak::scenario::LockstepIneligible;

    let base = Scenario::builder().build().unwrap();
    assert!(base.lockstep_spec().is_ok());

    let mut time_sliced = base.clone();
    time_sliced.sharing = lru_leak::lru_channel::covert::Sharing::TimeSliced;
    assert_eq!(
        time_sliced.lockstep_spec().unwrap_err(),
        LockstepIneligible::Sharing
    );

    let mut noisy = base.clone();
    noisy.noise = NoiseModel::RandomEviction {
        lines: 64,
        gap_cycles: 500,
    };
    assert_eq!(
        noisy.lockstep_spec().unwrap_err(),
        LockstepIneligible::Noise
    );

    let mut hierarchy = base.clone();
    hierarchy.hierarchy = lru_leak::scenario::HierarchyId::BackInvalidate;
    let reason = hierarchy.lockstep_spec().unwrap_err();
    assert_eq!(
        reason,
        LockstepIneligible::Hierarchy(lru_leak::scenario::HierarchyId::BackInvalidate)
    );
    assert!(
        reason.to_string().contains("back-invalidate"),
        "the hierarchy reason must name the backend: {reason}"
    );

    // Every reason renders a structured, human-readable message.
    for reason in [
        LockstepIneligible::Kind,
        LockstepIneligible::Sharing,
        LockstepIneligible::Noise,
        LockstepIneligible::Hierarchy(lru_leak::scenario::HierarchyId::NonInclusive),
        LockstepIneligible::WayPredictor,
    ] {
        let msg = reason.to_string();
        assert!(
            msg.starts_with("scenario is not lockstep-eligible: "),
            "unexpected message shape: {msg}"
        );
    }
}
