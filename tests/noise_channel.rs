//! Integration tests of the noise-injection subsystem: interference
//! must actually disturb the channel, stay fully deterministic, and
//! surface through the scenario/registry/CLI layers.

use lru_leak::exec_sim::sched::Engine;
use lru_leak::lru_channel::covert::{
    percent_ones, CoRunner, CovertConfig, PercentOnesOpts, Sharing, Variant,
};
use lru_leak::lru_channel::decode::{self, BitConvention};
use lru_leak::lru_channel::edit_distance::error_rate;
use lru_leak::lru_channel::noise::NoiseModel;
use lru_leak::lru_channel::params::{ChannelParams, Platform};
use lru_leak::lru_channel::trials::RunCtrl;
use lru_leak::scenario::registry;
use lru_leak::scenario::spec::{ExperimentKind, MessageSource, Scenario};
use lru_leak::scenario::{Aggregate, Value};

use cache_sim::replacement::PolicyKind;
use exec_sim::machine::Machine;

fn alg2_error(noise: NoiseModel, seed: u64) -> f64 {
    let msg: Vec<bool> = (0..24).map(|i| i % 2 == 1).collect();
    let params = ChannelParams::paper_alg2_default();
    let cfg = CovertConfig {
        platform: Platform::e5_2690(),
        params,
        variant: Variant::NoSharedMemory,
        sharing: Sharing::HyperThreaded,
        message: msg.clone(),
        seed,
        engine: Engine::FastForward,
    };
    let mut machine = Machine::new(cfg.platform.arch, PolicyKind::TreePlru, seed);
    let run = cfg.run_on_with_noise(&mut machine, noise).unwrap();
    let bits = decode::bits_by_window_ratio(
        &run.samples,
        params.ts,
        run.hit_threshold,
        BitConvention::MissIsOne,
        0.25,
    );
    error_rate(&msg, &bits[..msg.len().min(bits.len())])
}

#[test]
fn heavy_interference_degrades_algorithm_2() {
    let clean = alg2_error(NoiseModel::None, 1);
    let noisy = alg2_error(
        NoiseModel::PeriodicBurst {
            period_cycles: 2_400,
            burst_lines: 128,
        },
        1,
    );
    assert!(
        noisy > clean + 0.1,
        "dense bursts must hurt the whole-set readout (clean {clean:.3}, noisy {noisy:.3})"
    );
}

#[test]
fn noise_none_is_byte_identical_to_the_two_thread_path() {
    let msg: Vec<bool> = (0..12).map(|i| i % 2 == 1).collect();
    let cfg = CovertConfig {
        platform: Platform::e5_2690(),
        params: ChannelParams::paper_alg1_default(),
        variant: Variant::SharedMemory,
        sharing: Sharing::HyperThreaded,
        message: msg,
        seed: 7,
        engine: Engine::FastForward,
    };
    let mut m1 = Machine::new(cfg.platform.arch, PolicyKind::TreePlru, 7);
    let mut m2 = Machine::new(cfg.platform.arch, PolicyKind::TreePlru, 7);
    let plain = cfg.run_on(&mut m1).unwrap();
    let with_none = cfg.run_on_with_noise(&mut m2, NoiseModel::None).unwrap();
    assert_eq!(plain.samples, with_none.samples);
    assert_eq!(plain.hit_threshold, with_none.hit_threshold);
}

#[test]
fn noisy_runs_are_deterministic_per_seed() {
    let noise = NoiseModel::RandomEviction {
        lines: 512,
        gap_cycles: 40,
    };
    assert_eq!(alg2_error(noise, 3), alg2_error(noise, 3));
    // And the interference stream really depends on the seed: the
    // receiver's raw sample trace must differ between seeds (the
    // decoded error rate may coincidentally agree).
    let trace = |seed| {
        let cfg = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg2_default(),
            variant: Variant::NoSharedMemory,
            sharing: Sharing::HyperThreaded,
            message: vec![true; 12],
            seed,
            engine: Engine::FastForward,
        };
        let mut m = Machine::new(cfg.platform.arch, PolicyKind::TreePlru, seed);
        cfg.run_on_with_noise(&mut m, noise)
            .unwrap()
            .samples
            .iter()
            .map(|s| s.measured)
            .collect::<Vec<_>>()
    };
    assert_ne!(trace(3), trace(4));
}

#[test]
fn percent_ones_noisy_none_delegates_and_noise_perturbs() {
    let platform = Platform::e5_2690();
    let params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: 100_000_000,
        tr: 100_000_000,
    };
    let run = |co_runner| {
        let opts = PercentOnesOpts {
            co_runner,
            ..PercentOnesOpts::default()
        };
        percent_ones(platform, params, Variant::SharedMemory, true, 12, 5, opts).unwrap()
    };
    let clean = run(CoRunner::None);
    let delegated = run(CoRunner::Model(NoiseModel::None));
    assert_eq!(clean, delegated, "None must take the exact clean path");
    let noise = CoRunner::Model(NoiseModel::RandomEviction {
        lines: 512,
        gap_cycles: 40,
    });
    assert_eq!(
        run(noise),
        run(noise),
        "noisy percent-ones must be deterministic"
    );
}

#[test]
fn noise_artifacts_are_registered_with_valid_grids() {
    for id in ["ablation_noise_ber", "ablation_noise_capacity"] {
        let a = registry::get(id).unwrap_or_else(|| panic!("{id} missing from registry"));
        let grid = a.scenarios(&registry::RunOpts {
            trials: Some(1),
            ..registry::RunOpts::default()
        });
        assert!(!grid.is_empty());
        // Every cell round-trips (the noise axis serializes) and at
        // least one cell is genuinely noisy.
        for sc in &grid {
            let back = Scenario::from_json_str(&sc.to_json().to_string()).unwrap();
            assert_eq!(&back, sc);
        }
        assert!(
            grid.iter().any(|sc| !sc.noise.is_none()),
            "{id} must sweep a noise axis"
        );
        assert!(
            grid.iter().any(|sc| sc.noise.is_none()),
            "{id} must keep a clean baseline"
        );
    }
}

#[test]
fn noisy_covert_summary_streams_the_capacity_estimate() {
    let sc = Scenario::builder()
        .noise(NoiseModel::Bernoulli { p: 0.5, lines: 4 })
        .message(MessageSource::Random {
            bits: 12,
            repeats: 1,
        })
        .trials(6)
        .seed(9)
        .build()
        .unwrap();
    assert_eq!(sc.kind, ExperimentKind::Covert);
    let summary = Aggregate::for_scenario(&sc)
        .reduce(&sc, &RunCtrl::new())
        .unwrap();
    assert_eq!(
        summary.get("aggregate").and_then(Value::as_str),
        Some("capacity"),
        "noisy covert scenarios default to the capacity aggregate, got {summary}"
    );
    let cap = summary
        .get("capacity_bits_per_use")
        .and_then(Value::as_f64)
        .expect("capacity estimate present");
    assert!((0.0..=1.0).contains(&cap), "capacity {cap} out of range");
    assert_eq!(
        summary
            .get("error_rate")
            .and_then(|e| e.get("count"))
            .and_then(Value::as_u64),
        Some(6),
        "all trials fold into the estimate"
    );
}
