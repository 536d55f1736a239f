//! Absolute output pins, one per experiment kind.
//!
//! The equivalence suites compare two run paths against each other
//! (engines, worker counts, lockstep modes, buffered vs streamed), so
//! a fault both paths share — say, a `run_trial` arm wired to the
//! wrong experiment body — passes all of them. This suite pins the
//! bytes themselves: one small valid scenario per [`ExperimentKind`],
//! run once on the fast-forward engine, hashed with
//! [`content_hash64`] over its JSON text, and compared against a
//! checked-in hash.
//!
//! A hash here moves only when an experiment's output moves. When
//! that is intended, rerun this test and copy the reported hash into
//! [`cases`], and say in the change which kind's bytes changed and
//! why.

use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::exec_sim::sched::Engine;
use lru_leak::lru_channel::covert::{Sharing, Variant};
use lru_leak::lru_channel::params::ChannelParams;
use lru_leak::scenario::spec::{ChannelId, DefenseId, InitId, SequenceId, WorkloadId};
use lru_leak::scenario::{
    content_hash64, ExperimentKind, HierarchyId, MessageSource, PlatformId, Scenario,
};

/// The pinned scenarios: the smallest counts each kind accepts that
/// still exercise its body, with the hash of the trial's JSON.
fn cases() -> Vec<(&'static str, Scenario, u64)> {
    let b = Scenario::builder;
    let timesliced = ChannelParams {
        d: 8,
        target_set: 0,
        ts: 100_000_000,
        tr: 100_000_000,
    };
    let pp_params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: 6_000,
        tr: 600,
    };
    vec![
        (
            "covert",
            b().message(MessageSource::Alternating { bits: 8 }).seed(1),
            0xfc5d_6742_c87b_8a80,
        ),
        (
            "percent-ones",
            b().sharing(Sharing::TimeSliced)
                .params(timesliced)
                .message(MessageSource::Constant { bit: true, bits: 1 })
                .kind(ExperimentKind::PercentOnes { samples: 4 })
                .seed(2),
            0x903e_eaf7_bc8b_08ca,
        ),
        (
            "prime-probe",
            b().variant(Variant::NoSharedMemory)
                .params(pp_params)
                .message(MessageSource::Alternating { bits: 4 })
                .kind(ExperimentKind::PrimeProbe { samples: 200 })
                .seed(3),
            0x792e_d1de_1040_419f,
        ),
        (
            "flush-reload",
            b().message(MessageSource::Alternating { bits: 4 })
                .kind(ExperimentKind::FlushReload {
                    samples: 200,
                    to_mem: false,
                })
                .seed(4),
            0x6d7a_50e4_ee72_726f,
        ),
        (
            "spectre",
            b().message(MessageSource::Text("Hi".into()))
                .kind(ExperimentKind::Spectre {
                    channel: ChannelId::LruAlg2,
                    rounds: 1,
                    prefetcher: false,
                })
                .seed(5),
            0x6c03_18c9_4c7f_f5b6,
        ),
        (
            "defense-eval",
            b().defense(DefenseId::PlCacheOriginal)
                .kind(ExperimentKind::DefenseEval { trials: 4 })
                .seed(6),
            0xf84d_0a64_38d7_8853,
        ),
        (
            "plru-eviction",
            b().kind(ExperimentKind::PlruEviction {
                sequence: SequenceId::Seq2,
                init: InitId::Sequential,
                iterations: 2,
                trials: 2,
            })
            .seed(7),
            0x9a8a_fb6b_6bb6_bc9b,
        ),
        (
            "latency-check",
            b().kind(ExperimentKind::LatencyCheck).seed(8),
            0x44b9_ffe1_6a6d_86f2,
        ),
        (
            "platform-spec",
            b().platform(PlatformId::Epyc7571)
                .kind(ExperimentKind::PlatformSpec)
                .seed(9),
            0x6a97_67a1_2e9b_7c95,
        ),
        (
            "encoding-latency",
            b().kind(ExperimentKind::EncodingLatency {
                channel: ChannelId::FlushReloadL1,
            })
            .seed(10),
            0x543a_bd7c_0a53_858d,
        ),
        (
            "sender-miss-rates",
            b().kind(ExperimentKind::SenderMissRates { sender: 0, bits: 2 })
                .seed(11),
            0xc5f5_133d_f79f_9f76,
        ),
        (
            "spectre-miss-rates",
            b().message(MessageSource::Text("A".into()))
                .kind(ExperimentKind::SpectreMissRates {
                    channel: ChannelId::LruAlg1,
                })
                .seed(12),
            0xdc89_9e61_3fb4_c36f,
        ),
        (
            "probe-histogram",
            b().kind(ExperimentKind::ProbeHistogram {
                samples: 4,
                single_load: false,
            })
            .seed(13),
            0xb001_91f7_3f81_0e00,
        ),
        (
            "policy-perf",
            b().policy(PolicyKind::Fifo)
                .workload(WorkloadId::Benchmark("mcf".into()))
                .kind(ExperimentKind::PolicyPerf { accesses: 100 })
                .seed(14),
            0xcb5f_0172_4765_ea63,
        ),
        (
            "multi-set",
            b().kind(ExperimentKind::MultiSet { sets: 2, frames: 2 })
                .seed(15),
            0xf531_57cd_38fa_45e7,
        ),
        (
            "l2-channel",
            b().hierarchy(HierarchyId::BackInvalidate)
                .message(MessageSource::Alternating { bits: 4 })
                .kind(ExperimentKind::L2Channel { samples: 4 })
                .seed(16),
            0xd4ed_afa2_42e4_a3e1,
        ),
        (
            "inclusion-victim",
            b().hierarchy(HierarchyId::BackInvalidate)
                .kind(ExperimentKind::InclusionVictim { trials: 2 })
                .seed(17),
            0x96dd_4d1d_2ef9_fe9f,
        ),
    ]
    .into_iter()
    .map(|(tag, builder, hash)| (tag, builder.build().unwrap(), hash))
    .collect()
}

#[test]
fn every_kind_is_pinned_once() {
    let cases = cases();
    let mut tags: Vec<&str> = cases.iter().map(|(_, sc, _)| sc.kind.tag()).collect();
    for (tag, sc, _) in &cases {
        assert_eq!(*tag, sc.kind.tag(), "case label names another kind");
    }
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(
        (cases.len(), tags.len()),
        (17, 17),
        "each of the 17 experiment kinds needs exactly one pin"
    );
}

#[test]
fn every_kind_reproduces_its_pinned_bytes() {
    let mut drift = Vec::new();
    for (tag, sc, want) in cases() {
        let metrics = sc.run_trial(sc.seed, Engine::FastForward);
        let got = content_hash64(metrics.to_string().as_bytes());
        if got != want {
            drift.push(format!("{tag}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "output bytes drifted:\n{}",
        drift.join("\n")
    );
}
