//! Defense integration: each §IX mitigation actually stops the
//! channel it targets, at the claimed cost.

use lru_leak::cache_sim::plcache::PlDesign;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::defense::delayed_update::{spectre_under_mode, Channel};
use lru_leak::defense::detection::{detection_study, MissRateDetector};
use lru_leak::defense::partition_eval::{dawg_partitioned_leak, shared_plru_leak};
use lru_leak::defense::pl_cache_eval::fig11;
use lru_leak::defense::policy_eval::{fig9_row, geomean_normalized_cpi};
use lru_leak::exec_sim::machine::Machine;
use lru_leak::exec_sim::sched::Engine;
use lru_leak::exec_sim::speculation::SpecMode;
use lru_leak::lru_channel::covert::{CovertConfig, Sharing, Variant};
use lru_leak::lru_channel::decode::{self, BitConvention};
use lru_leak::lru_channel::edit_distance::error_rate;
use lru_leak::lru_channel::params::{ChannelParams, Platform};
use lru_leak::workloads::spec_like::Benchmark;

fn alg1_error_under_policy(policy: PolicyKind) -> f64 {
    let platform = Platform::e5_2690();
    let message: Vec<bool> = (0..40).map(|i| i % 2 == 1).collect();
    let cfg = CovertConfig {
        platform,
        params: ChannelParams::paper_alg1_default(),
        variant: Variant::SharedMemory,
        sharing: Sharing::HyperThreaded,
        message: message.clone(),
        seed: 40,
        engine: Engine::FastForward,
    };
    let mut machine = Machine::new(platform.arch, policy, 40);
    let run = cfg.run_on(&mut machine).unwrap();
    let bits = decode::bits_by_window(
        &run.samples,
        cfg.params.ts,
        run.hit_threshold,
        BitConvention::HitIsOne,
    );
    error_rate(&message, &bits[..message.len().min(bits.len())])
}

#[test]
fn policy_substitution_kills_the_channel() {
    // §IX-A: with FIFO or Random in the L1D the Algorithm 1 channel
    // must degrade to noise, while PLRU variants carry it cleanly.
    let plru = alg1_error_under_policy(PolicyKind::TreePlru);
    let fifo = alg1_error_under_policy(PolicyKind::Fifo);
    let random = alg1_error_under_policy(PolicyKind::Random);
    assert!(plru < 0.1, "Tree-PLRU should carry the channel, err {plru}");
    assert!(fifo > 0.3, "FIFO must break the channel, err {fifo}");
    assert!(random > 0.3, "Random must break the channel, err {random}");
}

#[test]
fn policy_substitution_is_cheap() {
    // §IX-A / Fig. 9: the performance cost is small.
    let arch = lru_leak::cache_sim::profiles::MicroArch::gem5_fig9();
    let rows: Vec<_> = ["bzip2", "hmmer", "libquantum", "gcc"]
        .iter()
        .map(|n| fig9_row(Benchmark::by_name(n).unwrap(), &arch, 20_000, 41))
        .collect();
    let geo = geomean_normalized_cpi(&rows);
    assert!((geo[1] - 1.0).abs() < 0.05, "FIFO CPI cost {:.3}", geo[1]);
    assert!((geo[2] - 1.0).abs() < 0.05, "Random CPI cost {:.3}", geo[2]);
}

#[test]
fn pl_cache_fix_closes_the_lock_channel() {
    let (original, fixed) = fig11(300, 1, 42);
    assert!(original.distinguishability() > 0.1);
    assert!(fixed.distinguishability() < 0.01);
    assert_eq!(original.design, PlDesign::Original);
    assert_eq!(fixed.design, PlDesign::Fixed);
    // The paper's exact wording: with the new design the receiver
    // always observes a cache hit.
    assert!(fixed.trace.iter().all(|p| p.hit));
}

#[test]
fn dawg_partitioning_closes_what_way_partitioning_leaves_open() {
    let shared = shared_plru_leak(3_000, 43);
    let dawg = dawg_partitioned_leak(3_000, 43);
    assert!(shared.victim_flip_rate > 0.2);
    assert_eq!(dawg.victim_flip_rate, 0.0);
}

#[test]
fn invisible_speculation_stops_spectre_but_baseline_leaks() {
    for channel in [Channel::FlushReload, Channel::LruAlg1, Channel::LruAlg2] {
        let base = spectre_under_mode(channel, SpecMode::Baseline, "ok", 44);
        let inv = spectre_under_mode(channel, SpecMode::Invisible, "ok", 44);
        assert!(
            base.accuracy > 0.99,
            "{channel:?} baseline {:.2}",
            base.accuracy
        );
        assert!(
            inv.accuracy < 0.5,
            "{channel:?} invisible {:.2}",
            inv.accuracy
        );
    }
}

#[test]
fn detector_separates_fr_from_lru_and_benign() {
    let verdicts = detection_study(Platform::e5_2690(), 250, 45, Engine::FastForward);
    let flagged: Vec<&str> = verdicts
        .iter()
        .filter(|v| v.flagged)
        .map(|v| v.label)
        .collect();
    assert!(flagged.contains(&"F+R (mem)"), "flagged: {flagged:?}");
    for benign in [
        "L1 LRU Alg.1",
        "L1 LRU Alg.2",
        "sender & gcc",
        "sender only",
    ] {
        assert!(
            !flagged.contains(&benign),
            "{benign} wrongly flagged (flagged: {flagged:?})"
        );
    }
    let _ = MissRateDetector::default();
}

#[test]
fn partition_flip_rates_are_pinned_at_the_registry_count() {
    // `ablation_defenses` runs both partition experiments at 5,000
    // trials; the artifact corpus runs them at one trial, where a
    // flip rate can only read 0 or 1. These bits pin the full-count
    // rates at the corpus seeds exactly: 2,550 / 2,475 / 2,475 flips
    // through the shared tree, none through the partitioned state.
    const TRIALS: usize = 5_000;
    let pins: [(u64, u64, u64); 3] = [
        (lru_leak::scenario::BENCH_SEED, 0x3fe0_51eb_851e_b852, 0),
        (7, 0x3fdf_ae14_7ae1_47ae, 0),
        (123_456_789, 0x3fdf_ae14_7ae1_47ae, 0),
    ];
    for (seed, shared_bits, dawg_bits) in pins {
        let shared = shared_plru_leak(TRIALS, seed).victim_flip_rate;
        let dawg = dawg_partitioned_leak(TRIALS, seed).victim_flip_rate;
        assert_eq!(
            shared.to_bits(),
            shared_bits,
            "shared Tree-PLRU, seed {seed}: {shared}"
        );
        assert_eq!(
            dawg.to_bits(),
            dawg_bits,
            "DAWG-partitioned, seed {seed}: {dawg}"
        );
    }
}
