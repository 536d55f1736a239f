//! End-to-end covert-channel integration: both algorithms, all three
//! simulated platforms, text payloads.

use lru_leak::exec_sim::sched::Engine;
use lru_leak::lru_channel::covert::{CovertConfig, Sharing, Variant};
use lru_leak::lru_channel::decode::{self, BitConvention};
use lru_leak::lru_channel::edit_distance::error_rate;
use lru_leak::lru_channel::params::{ChannelParams, Platform};

fn text_to_bits(text: &str) -> Vec<bool> {
    text.bytes()
        .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
        .collect()
}

fn bits_to_text(bits: &[bool]) -> String {
    bits.chunks(8)
        .filter(|c| c.len() == 8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b)) as char)
        .collect()
}

#[test]
fn alg1_transfers_ascii_text_on_intel() {
    let payload = "LRU states leak!";
    let message = text_to_bits(payload);
    let params = ChannelParams::paper_alg1_default();
    let run = CovertConfig {
        platform: Platform::e5_2690(),
        params,
        variant: Variant::SharedMemory,
        sharing: Sharing::HyperThreaded,
        message: message.clone(),
        seed: 1,
        engine: Engine::FastForward,
    }
    .run()
    .unwrap();
    let bits = decode::bits_by_window(
        &run.samples,
        params.ts,
        run.hit_threshold,
        BitConvention::HitIsOne,
    );
    assert_eq!(bits_to_text(&bits[..message.len()]), payload);
}

#[test]
fn alg2_transfers_bits_with_low_error_on_both_intel_parts() {
    let message: Vec<bool> = (0..64).map(|i| (i * 7) % 3 == 0).collect();
    for platform in [Platform::e5_2690(), Platform::e3_1245v5()] {
        let params = ChannelParams::paper_alg2_default();
        let run = CovertConfig {
            platform,
            params,
            variant: Variant::NoSharedMemory,
            sharing: Sharing::HyperThreaded,
            message: message.clone(),
            seed: 2,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        let bits = decode::bits_by_window_ratio(
            &run.samples,
            params.ts,
            run.hit_threshold,
            BitConvention::MissIsOne,
            0.25,
        );
        let err = error_rate(&message, &bits[..message.len().min(bits.len())]);
        assert!(err < 0.2, "{}: Alg2 error rate {err}", platform.arch.model);
    }
}

#[test]
fn amd_channel_works_through_moving_average() {
    // Paper Fig. 7 top: Alg.1 between threads of one address space.
    let message: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
    let params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: 100_000,
        tr: 1_000,
    };
    let run = CovertConfig {
        platform: Platform::epyc_7571(),
        params,
        variant: Variant::SharedMemoryThreads,
        sharing: Sharing::HyperThreaded,
        message: message.clone(),
        seed: 3,
        engine: Engine::FastForward,
    }
    .run()
    .unwrap();
    let period = (run.samples.len() / message.len()).max(1);
    let avg = decode::moving_average(&run.samples, period);
    let bits = decode::bits_from_moving_average(&avg, period, BitConvention::HitIsOne);
    let err = error_rate(&message, &bits[..message.len().min(bits.len())]);
    assert!(err < 0.2, "AMD moving-average decode error rate {err}");
}

#[test]
fn amd_cross_process_alg1_is_degraded_by_way_predictor() {
    // §VI-B: the µtag way predictor breaks cross-address-space
    // Algorithm 1 on Zen; the same run works between threads.
    let message: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
    let params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: 100_000,
        tr: 1_000,
    };
    let mut errors = Vec::new();
    for variant in [Variant::SharedMemoryThreads, Variant::SharedMemory] {
        let run = CovertConfig {
            platform: Platform::epyc_7571(),
            params,
            variant,
            sharing: Sharing::HyperThreaded,
            message: message.clone(),
            seed: 4,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        let period = (run.samples.len() / message.len()).max(1);
        let avg = decode::moving_average(&run.samples, period);
        let bits = decode::bits_from_moving_average(&avg, period, BitConvention::HitIsOne);
        errors.push(error_rate(&message, &bits[..message.len().min(bits.len())]));
    }
    assert!(
        errors[1] > errors[0] + 0.15,
        "cross-process ({:.2}) must be much worse than same-AS ({:.2})",
        errors[1],
        errors[0]
    );
}

#[test]
fn time_sliced_channel_distinguishes_constant_bits() {
    use lru_leak::lru_channel::covert::{percent_ones, PercentOnesOpts};
    let platform = Platform::e5_2690();
    let tr = 100_000_000;
    let params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: tr,
        tr,
    };
    let opts = PercentOnesOpts::default();
    let p0 = percent_ones(platform, params, Variant::SharedMemory, false, 80, 5, opts).unwrap();
    let p1 = percent_ones(platform, params, Variant::SharedMemory, true, 80, 5, opts).unwrap();
    assert!(p0 < 0.1, "sending 0 should read ~all zeros, got {p0:.2}");
    assert!(p1 > 0.15, "sending 1 must show up, got {p1:.2}");
}

#[test]
fn channel_runs_are_deterministic_given_seed() {
    let cfg = CovertConfig {
        platform: Platform::e5_2690(),
        params: ChannelParams::paper_alg1_default(),
        variant: Variant::SharedMemory,
        sharing: Sharing::HyperThreaded,
        message: vec![true, false, true],
        seed: 99,
        engine: Engine::FastForward,
    };
    let a = cfg.run().unwrap();
    let b = cfg.run().unwrap();
    assert_eq!(a.samples, b.samples);
}

#[test]
fn different_target_sets_work_equally() {
    for target_set in [0usize, 17, 33, 62] {
        let params = ChannelParams {
            target_set,
            ..ChannelParams::paper_alg1_default()
        };
        let message = vec![true, false, true, true];
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params,
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: message.clone(),
            seed: 6,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        let bits = decode::bits_by_window(
            &run.samples,
            params.ts,
            run.hit_threshold,
            BitConvention::HitIsOne,
        );
        assert_eq!(
            &bits[..4],
            &message[..],
            "channel must work on set {target_set}"
        );
    }
}

#[test]
fn benign_noise_kills_time_sliced_alg2() {
    // §V-B: the paper could not observe time-sliced Algorithm 2 —
    // any other process running during the large Tr pollutes the
    // target set. With a benign co-runner in the slice rotation, the
    // receiver's percent-of-ones stops depending on the sender's bit.
    use lru_leak::lru_channel::covert::{percent_ones, CoRunner, PercentOnesOpts};
    let platform = Platform::e5_2690();
    let tr = 100_000_000;
    let params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: tr,
        tr,
    };
    let opts = PercentOnesOpts {
        co_runner: CoRunner::Benign,
        ..PercentOnesOpts::default()
    };
    let p0 = percent_ones(
        platform,
        params,
        Variant::NoSharedMemory,
        false,
        60,
        8,
        opts,
    )
    .unwrap();
    let p1 = percent_ones(platform, params, Variant::NoSharedMemory, true, 60, 8, opts).unwrap();
    // Both polluted toward "miss": the gap collapses.
    assert!(
        (p1 - p0).abs() < 0.15,
        "noise should collapse the Alg2 time-sliced gap, got p0={p0:.2} p1={p1:.2}"
    );
    assert!(
        p0 > 0.1,
        "noise pollutes the set even when the sender idles, got {p0:.2}"
    );
}

#[test]
fn alg1_is_robust_across_seeds() {
    // The headline configuration must not depend on a lucky seed:
    // an 8-bit pattern decodes exactly for 20 different seeds.
    let message = vec![true, false, true, true, false, false, true, false];
    for seed in 100..120u64 {
        let params = ChannelParams::paper_alg1_default();
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params,
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: message.clone(),
            seed,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        let bits = decode::bits_by_window(
            &run.samples,
            params.ts,
            run.hit_threshold,
            BitConvention::HitIsOne,
        );
        assert_eq!(&bits[..message.len()], &message[..], "seed {seed} failed");
    }
}
