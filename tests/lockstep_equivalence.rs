//! The lockstep batching contract: routing eligible covert trials
//! through `lru_channel::lockstep` (one-set lanes) must be invisible
//! in the output.
//!
//! Routing is a function of the scenario alone
//! (`Scenario::lockstep_spec`), so the scalar reference is the
//! buffered per-trial oracle in `oracle/mod.rs`: every trial through
//! `Scenario::run_trial` on the calling thread, no driver and no
//! lockstep. Multi-trial eligible cells must reproduce it byte for
//! byte on 1, 4 and 8 workers. Every registry artifact's default run
//! is pinned against the same oracle in `streaming_equivalence.rs`.

// Only `run_scenario` is used here; `run_artifact` serves other suites.
#[allow(dead_code)]
mod oracle;

use lru_leak::exec_sim::sched;
use lru_leak::scenario::engine::RunCtrl;
use lru_leak::scenario::Scenario;

/// Multi-trial sweeps are where the batching actually kicks in (one
/// `run_batch` per scheduler chunk). The cells: a fig4-style builder
/// cell at a trial count that spans several chunks; a 64-trial
/// Tree-PLRU Algorithm 1 cell; and a Random-policy Algorithm 2 cell
/// at a non-zero target set, where each lane's victim stream must be
/// seeded like that set of the L1.
#[test]
fn multi_trial_covert_sweeps_match_the_oracle_across_workers() {
    const SC: &str = r#"{"platform":"e5-2690","policy":"tree-plru","variant":"alg1-shared-memory","sharing":"hyper-threaded","defense":"none","workload":"idle","noise":"none","hierarchy":"inclusive","params":{"d":8,"target_set":0,"ts":6000,"tr":600},"message":{"alternating":20},"kind":{"covert":{}},"trials":64,"seed":7}"#;
    const SC_RANDOM: &str = r#"{"platform":"e5-2690","policy":"random","variant":"alg2-no-shared-memory","sharing":"hyper-threaded","defense":"none","workload":"idle","noise":"none","hierarchy":"inclusive","params":{"d":6,"target_set":37,"ts":6000,"tr":600},"message":{"alternating":20},"kind":{"covert":{}},"trials":64,"seed":7}"#;
    let cells = [
        (
            "builder",
            Scenario::builder()
                .trials(24)
                .seed(0x0ba7_c4ed)
                .build()
                .unwrap(),
        ),
        ("tree-plru", Scenario::from_json_str(SC).unwrap()),
        ("random", Scenario::from_json_str(SC_RANDOM).unwrap()),
    ];
    for (name, scenario) in cells {
        assert!(scenario.lockstep_spec().is_ok(), "{name}: not eligible");
        let reference = oracle::run_scenario(&scenario, sched::Engine::FastForward).to_string();
        for workers in [1usize, 4, 8] {
            let ctrl = RunCtrl::new().with_workers(workers);
            assert_eq!(
                scenario.run_ctrl(&ctrl).unwrap().to_string(),
                reference,
                "{name}: lockstep differs from the oracle at {workers} workers"
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

    let mut skylake = base.clone();
    skylake.platform = lru_leak::scenario::PlatformId::E3_1245V5;
    assert!(skylake.lockstep_spec().is_ok());

    let mut amd = base.clone();
    amd.platform = lru_leak::scenario::PlatformId::Epyc7571;
    assert_eq!(
        amd.lockstep_spec().unwrap_err(),
        LockstepIneligible::WayPredictor
    );

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
    hierarchy.hierarchy = lru_leak::scenario::Inclusion::BackInvalidate;
    let reason = hierarchy.lockstep_spec().unwrap_err();
    assert_eq!(
        reason,
        LockstepIneligible::Hierarchy(lru_leak::scenario::Inclusion::BackInvalidate)
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
        LockstepIneligible::Hierarchy(lru_leak::scenario::Inclusion::NonInclusive),
        LockstepIneligible::WayPredictor,
    ] {
        let msg = reason.to_string();
        assert!(
            msg.starts_with("scenario is not lockstep-eligible: "),
            "unexpected message shape: {msg}"
        );
    }
}
