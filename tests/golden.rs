//! Absolute output pins: one per experiment kind, and one per
//! registry artifact at three seeds.
//!
//! The equivalence suites compare two run paths against each other
//! (engines, worker counts, lockstep vs scalar, buffered vs streamed), so
//! a fault both paths share — say, a `run_trial` arm wired to the
//! wrong experiment body — passes all of them. This suite pins the
//! bytes themselves: one small valid scenario per [`ExperimentKind`],
//! run once on the fast-forward engine, hashed with
//! [`content_hash64`] over its JSON text, and compared against a
//! checked-in hash. The artifact corpus does the same for every
//! registry artifact's `lru-leak run <id> --trials 1 --seed <seed>
//! --json` stdout, at each of [`CORPUS_SEEDS`], so it pins the whole
//! path from the cache model through grid rendering.
//!
//! The cache-key pins hash, per artifact, the [`ResultCache::key`] of
//! every cell of its default-options grid — the full encoding `lru-leak
//! show <id>` prints. The stored result cache and the server's journal
//! are addressed by these keys, so a moved key turns every stored entry
//! into a miss even when no output byte moves.
//!
//! A hash here moves only when an experiment's output moves. When
//! that is intended, rerun this test and copy the reported hash into
//! [`cases`], and say in the change which kind's bytes changed and
//! why.

use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::exec_sim::sched::Engine;
use lru_leak::lru_channel::covert::{Sharing, Variant};
use lru_leak::lru_channel::params::ChannelParams;
use lru_leak::scenario::registry;
use lru_leak::scenario::spec::{Channel, DefenseId, InitCond, SequenceKind, WorkloadId};
use lru_leak::scenario::{
    content_hash64, fmt, ExperimentKind, Inclusion, MessageSource, PlatformId, ResultCache,
    RunOpts, Scenario, BENCH_SEED,
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
                    channel: Channel::LruAlg2,
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
                sequence: SequenceKind::Seq2,
                init: InitCond::Sequential,
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
                channel: Channel::FlushReloadL1,
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
                    channel: Channel::LruAlg1,
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
            b().hierarchy(Inclusion::BackInvalidate)
                .message(MessageSource::Alternating { bits: 4 })
                .kind(ExperimentKind::L2Channel { samples: 4 })
                .seed(16),
            0xd4ed_afa2_42e4_a3e1,
        ),
        (
            "inclusion-victim",
            b().hierarchy(Inclusion::BackInvalidate)
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

/// The master seeds of the artifact corpus.
const CORPUS_SEEDS: [u64; 3] = [BENCH_SEED, 7, 123_456_789];

/// The artifact corpus: per registry artifact, in registry order, the
/// hash of its one-trial `run --json` stdout at each of
/// [`CORPUS_SEEDS`].
fn corpus() -> Vec<(&'static str, [u64; 3])> {
    vec![
        (
            "fig3",
            [
                0x7a1f_fb11_e65a_7d41,
                0xf0c9_e91d_15de_f71c,
                0x547c_7294_4cb9_eaa8,
            ],
        ),
        (
            "fig4",
            [
                0xd994_de62_c70f_8b5e,
                0xfde4_3b0a_3e22_2f50,
                0xe822_e25c_8d51_89b7,
            ],
        ),
        (
            "fig5",
            [
                0x647d_a834_9f7a_9318,
                0x1088_4912_d0cd_4de5,
                0x7abb_c8c4_80cc_f95e,
            ],
        ),
        (
            "fig6",
            [
                0xd8fc_17fe_acb7_83d1,
                0xf035_97a6_51d8_f607,
                0xd05e_570a_eda3_67cd,
            ],
        ),
        (
            "fig7",
            [
                0x20a1_d46e_7f2d_f507,
                0x5817_07ef_a5d6_ba62,
                0x392f_d104_067b_34a8,
            ],
        ),
        (
            "fig8",
            [
                0xbddc_4f8e_d952_49be,
                0x8fe6_3913_2cef_fdfc,
                0xc820_ff14_3c8e_5ba0,
            ],
        ),
        (
            "fig9",
            [
                0x374b_e3d0_da34_0730,
                0xa291_234b_0817_d65c,
                0xa92f_c556_278f_644a,
            ],
        ),
        (
            "fig11",
            [
                0x6ddf_deee_0eae_bf2c,
                0xd199_1f0c_3170_d7a8,
                0xfaec_2665_94b7_d3a6,
            ],
        ),
        (
            "fig13",
            [
                0xbaae_4929_03bc_d8e5,
                0x67cc_9d46_845f_f6bb,
                0xcfb1_4b34_4f59_dc82,
            ],
        ),
        (
            "fig14",
            [
                0x603b_7905_97aa_c434,
                0xd744_327d_9ab9_ce7d,
                0x9d6e_736e_240a_29d8,
            ],
        ),
        (
            "fig15",
            [
                0xd65a_cba8_2167_7345,
                0xc894_ec3f_bc64_56cf,
                0xe3e9_0c5c_5999_31a1,
            ],
        ),
        (
            "table1",
            [
                0xe78d_06d9_4d25_46f4,
                0x97bf_fb96_335a_2c48,
                0x38cf_4c51_e5cb_7b52,
            ],
        ),
        (
            "table2",
            [
                0xb131_b33e_faf9_0988,
                0xf63d_d594_1b8f_85c4,
                0x6a34_c357_c82e_c3bc,
            ],
        ),
        (
            "table3",
            [
                0xcbe7_4632_6fb5_1a56,
                0x62a2_c707_277d_f122,
                0xc718_82df_9b30_c892,
            ],
        ),
        (
            "table4",
            [
                0x9630_6459_df49_98b6,
                0x7942_e776_3115_3a5a,
                0xe52e_4318_7531_add3,
            ],
        ),
        (
            "table5",
            [
                0x9494_5417_3b39_266f,
                0xd7f9_c4ff_3ea2_b07f,
                0xa6d1_6599_6f88_7e7f,
            ],
        ),
        (
            "table6",
            [
                0x98fd_42a3_7e6c_a84f,
                0x1a1f_3f75_43ca_b997,
                0x05ee_5795_3ef6_b91d,
            ],
        ),
        (
            "table7",
            [
                0x6d51_9f4e_ee17_21e5,
                0x22ca_f4d9_da6c_8421,
                0x05c4_a0d5_f822_c6e1,
            ],
        ),
        (
            "ablation_defenses",
            [
                0x9cad_2a67_b21c_55f2,
                0xde27_5f78_1a2f_6e66,
                0xa301_a2e4_8f07_cd62,
            ],
        ),
        (
            "ablation_multiset",
            [
                0x9003_3f5d_611a_03a1,
                0xa3a8_80fc_d7df_493e,
                0xf234_fde6_da5d_e490,
            ],
        ),
        (
            "ablation_prefetcher",
            [
                0x5130_51a2_c77d_081f,
                0x2615_1f43_d6bf_c6fb,
                0x8ead_b65a_eb3d_4e75,
            ],
        ),
        (
            "ablation_noise_ber",
            [
                0x9f4a_b15a_bfe8_d868,
                0xc5bb_a6a3_95d1_dd8c,
                0xbb52_4115_c6d3_4959,
            ],
        ),
        (
            "ablation_noise_capacity",
            [
                0x7762_1458_9318_663c,
                0x07ce_afa2_a5ea_aff6,
                0x30c1_53fd_9a18_fa5e,
            ],
        ),
        (
            "ablation_noise_grid",
            [
                0x4a2e_582a_1798_4456,
                0xe4a1_7170_1c81_eb9e,
                0x8f42_901f_7db5_022e,
            ],
        ),
        (
            "l2_lru_channel",
            [
                0xa12e_998e_0f55_fc6f,
                0x9604_673e_d328_7dbb,
                0xbd71_7b78_c09f_a76b,
            ],
        ),
        (
            "l2_inclusion_victim",
            [
                0xcb96_60e1_0f4c_2084,
                0xa507_703f_ff30_57e4,
                0x3944_c0b0_47a1_3898,
            ],
        ),
    ]
}

/// The rendering corpus: per registry artifact, in registry order, the
/// hashes of its one-trial [`Report::text`](lru_leak::scenario::Report)
/// (what `lru-leak run <id>` prints) and of
/// [`fmt::summary_to_csv`] over its metrics (what `--csv` prints), at
/// each of [`CORPUS_SEEDS`].
fn rendering_corpus() -> Vec<(&'static str, [u64; 3], [u64; 3])> {
    vec![
        (
            "fig3",
            [
                0x8397_0968_a529_4abc,
                0x1954_ae35_6fd9_0d3c,
                0x9af6_1226_8d7e_a940,
            ],
            [
                0x55ac_9267_f3e0_1bb6,
                0x2b00_99fb_8be9_4a67,
                0x23d5_03aa_86f4_58c9,
            ],
        ),
        (
            "fig4",
            [
                0x405c_32c6_278a_3fcc,
                0x1002_43a4_b07d_bdfb,
                0x2aa9_f71d_6ffa_725f,
            ],
            [
                0x09ae_77da_91de_69bc,
                0xb037_9218_e8e0_54ea,
                0x0db4_5750_005d_9e97,
            ],
        ),
        (
            "fig5",
            [
                0x8a0e_c2b6_ecce_b585,
                0xda0a_df3b_2a19_c029,
                0xc407_14ed_a682_b979,
            ],
            [
                0x317d_acf0_a138_d551,
                0xfa78_2ede_6bc6_6e81,
                0x317d_acf0_a138_d551,
            ],
        ),
        (
            "fig6",
            [
                0xb7e2_23a4_f0cd_6f5e,
                0xb7e2_23a4_f0cd_6f5e,
                0xb7e2_23a4_f0cd_6f5e,
            ],
            [
                0x071e_c3ba_a3a5_b722,
                0x071e_c3ba_a3a5_b722,
                0x071e_c3ba_a3a5_b722,
            ],
        ),
        (
            "fig7",
            [
                0xa6af_42d4_49db_3865,
                0x22ae_3d5f_0178_c909,
                0xd4c0_ff3e_cf98_59f2,
            ],
            [
                0x9386_2ce1_67cf_0b82,
                0x6436_c665_183a_5038,
                0x9386_2ce1_67cf_0b82,
            ],
        ),
        (
            "fig8",
            [
                0x00cf_8670_66e4_4f95,
                0x00cf_8670_66e4_4f95,
                0x00cf_8670_66e4_4f95,
            ],
            [
                0xc1f5_3cf4_8235_f7e2,
                0xc1f5_3cf4_8235_f7e2,
                0xc1f5_3cf4_8235_f7e2,
            ],
        ),
        (
            "fig9",
            [
                0x08e6_2cab_d73f_c6b4,
                0x08e6_2cab_d73f_c6b4,
                0x08e6_2cab_d73f_c6b4,
            ],
            [
                0x63b1_eaef_dbd5_14ca,
                0x63b1_eaef_dbd5_14ca,
                0x63b1_eaef_dbd5_14ca,
            ],
        ),
        (
            "fig11",
            [
                0x5749_1bc7_f74e_c672,
                0x5749_1bc7_f74e_c672,
                0x5749_1bc7_f74e_c672,
            ],
            [
                0xe26a_a7a2_8d38_04a1,
                0xe26a_a7a2_8d38_04a1,
                0xe26a_a7a2_8d38_04a1,
            ],
        ),
        (
            "fig13",
            [
                0xf8a8_5b94_a9e1_9f5d,
                0xff9e_9831_933c_5d35,
                0x1126_a0b7_304f_474d,
            ],
            [
                0xb578_4674_d2c5_6abe,
                0x2875_a081_8f70_6034,
                0x7323_0eaf_93f5_e5c9,
            ],
        ),
        (
            "fig14",
            [
                0x9e67_3499_ce47_5eab,
                0x2f3a_67ef_4263_b336,
                0xea79_f0f8_9059_edac,
            ],
            [
                0xce7c_4487_5c4b_8348,
                0x73ff_595c_35ab_a53e,
                0xc3a5_1cfb_a321_5f53,
            ],
        ),
        (
            "fig15",
            [
                0x83ee_5543_9ab4_5ad2,
                0x83ee_5543_9ab4_5ad2,
                0x83ee_5543_9ab4_5ad2,
            ],
            [
                0xd8b3_440f_0606_faf2,
                0xd8b3_440f_0606_faf2,
                0xd8b3_440f_0606_faf2,
            ],
        ),
        (
            "table1",
            [
                0x6498_fcb9_2831_fffb,
                0x1580_7b2c_6b3d_4e8b,
                0x2907_8bd0_4aa6_5eee,
            ],
            [
                0x383c_9863_ee18_1e81,
                0x1f0e_98bd_48e4_df3c,
                0xc32b_1228_c80a_a24b,
            ],
        ),
        (
            "table2",
            [
                0xf0aa_2fa2_e709_442c,
                0xf0aa_2fa2_e709_442c,
                0xf0aa_2fa2_e709_442c,
            ],
            [
                0xfd0d_a449_e66a_c58f,
                0xfd0d_a449_e66a_c58f,
                0xfd0d_a449_e66a_c58f,
            ],
        ),
        (
            "table3",
            [
                0xb81f_1ee4_1ad1_e7b0,
                0xb81f_1ee4_1ad1_e7b0,
                0xb81f_1ee4_1ad1_e7b0,
            ],
            [
                0x596d_3a14_7599_3367,
                0x596d_3a14_7599_3367,
                0x596d_3a14_7599_3367,
            ],
        ),
        (
            "table4",
            [
                0x12ac_0723_8b7c_ddab,
                0x3413_2d33_ca7f_78e8,
                0x12ac_0723_8b7c_ddab,
            ],
            [
                0xb4b1_4291_8829_4739,
                0x90cd_c215_890e_8d22,
                0x0b85_b429_4ea8_9d97,
            ],
        ),
        (
            "table5",
            [
                0x946c_2837_d36d_2709,
                0x946c_2837_d36d_2709,
                0x946c_2837_d36d_2709,
            ],
            [
                0x99d2_a09f_f88b_38ae,
                0x99d2_a09f_f88b_38ae,
                0x99d2_a09f_f88b_38ae,
            ],
        ),
        (
            "table6",
            [
                0x26ac_c77a_9338_fad1,
                0x26ac_c77a_9338_fad1,
                0x26ac_c77a_9338_fad1,
            ],
            [
                0x5fa7_7896_5d86_83fe,
                0x5fa7_7896_5d86_83fe,
                0x5fa7_7896_5d86_83fe,
            ],
        ),
        (
            "table7",
            [
                0x2b02_4ad6_d5df_a70a,
                0x2b02_4ad6_d5df_a70a,
                0x2b02_4ad6_d5df_a70a,
            ],
            [
                0xa032_429f_3c56_485f,
                0xa032_429f_3c56_485f,
                0xa032_429f_3c56_485f,
            ],
        ),
        (
            "ablation_defenses",
            [
                0x4b4e_10af_e9d3_c55e,
                0xad18_f3c4_cc0f_d15d,
                0x909d_3ba5_e891_ac75,
            ],
            [
                0x07f0_87df_f5d8_e6b8,
                0x1f1c_40c9_b741_aad5,
                0x9674_0c94_ebbc_2f6b,
            ],
        ),
        (
            "ablation_multiset",
            [
                0x1794_5449_bc6b_66bd,
                0x1794_5449_bc6b_66bd,
                0x1794_5449_bc6b_66bd,
            ],
            [
                0x8292_9086_f71e_3361,
                0x8292_9086_f71e_3361,
                0x8292_9086_f71e_3361,
            ],
        ),
        (
            "ablation_prefetcher",
            [
                0x871e_a3be_d8b1_1bf7,
                0x18cc_7d5c_f26e_1467,
                0xb11c_f7cc_c437_86df,
            ],
            [
                0xac3d_4083_37f1_df69,
                0x8c38_a018_1dd1_5fa7,
                0x979b_5a77_c18c_3a7b,
            ],
        ),
        (
            "ablation_noise_ber",
            [
                0x6670_79db_1438_af53,
                0x222f_7c11_b490_c2f6,
                0x0e03_c281_e69d_2453,
            ],
            [
                0x7aa9_77b9_7dcc_4bf3,
                0x495c_0581_a3c3_5ca2,
                0x2fa2_2b02_e5f5_8871,
            ],
        ),
        (
            "ablation_noise_capacity",
            [
                0x0d40_0adf_5366_0a11,
                0xd059_f99d_2184_1f3d,
                0xe056_1942_4854_0f2c,
            ],
            [
                0x0ad7_cfb7_af8c_99ed,
                0x94bc_5567_abcc_ab7e,
                0x2037_a142_6f2c_ea9f,
            ],
        ),
        (
            "ablation_noise_grid",
            [
                0xd925_43a8_2c20_d719,
                0xd925_43a8_2c20_d719,
                0xd925_43a8_2c20_d719,
            ],
            [
                0xb307_d6b0_ff99_06ed,
                0xb307_d6b0_ff99_06ed,
                0xb307_d6b0_ff99_06ed,
            ],
        ),
        (
            "l2_lru_channel",
            [
                0x4365_a16b_855f_b9bf,
                0x4365_a16b_855f_b9bf,
                0x4365_a16b_855f_b9bf,
            ],
            [
                0x543a_4f43_90d5_2370,
                0x543a_4f43_90d5_2370,
                0x543a_4f43_90d5_2370,
            ],
        ),
        (
            "l2_inclusion_victim",
            [
                0xd2f4_f2e6_bfc2_dd5f,
                0xd2f4_f2e6_bfc2_dd5f,
                0xd2f4_f2e6_bfc2_dd5f,
            ],
            [
                0xd8cb_381a_5653_5ade,
                0xd8cb_381a_5653_5ade,
                0xd8cb_381a_5653_5ade,
            ],
        ),
    ]
}

#[test]
fn every_artifact_is_in_the_corpus() {
    let ids: Vec<&str> = corpus().iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, registry::ids(), "corpus and registry disagree");
    let ids: Vec<&str> = rendering_corpus().iter().map(|(id, ..)| *id).collect();
    assert_eq!(
        ids,
        registry::ids(),
        "rendering corpus and registry disagree"
    );
}

/// One run per artifact and seed pins all three renderings of it: the
/// `--json` stdout, the text report and the CSV.
#[test]
fn every_artifact_reproduces_its_pinned_bytes() {
    let mut drift = Vec::new();
    for ((id, hashes), (_, text_hashes, csv_hashes)) in corpus().into_iter().zip(rendering_corpus())
    {
        let artifact = registry::get(id).expect("corpus ids come from the registry");
        for (i, seed) in CORPUS_SEEDS.into_iter().enumerate() {
            let opts = RunOpts {
                trials: Some(1),
                seed,
            };
            let report = artifact.run(&opts);
            let renderings = [
                ("json", format!("{}\n", report.metrics.pretty()), hashes[i]),
                ("text", report.text, text_hashes[i]),
                ("csv", fmt::summary_to_csv(&report.metrics), csv_hashes[i]),
            ];
            for (what, bytes, want) in renderings {
                let got = content_hash64(bytes.as_bytes());
                if got != want {
                    drift.push(format!(
                        "{id} {what} seed {seed}: got {got:#018x}, pinned {want:#018x}"
                    ));
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "artifact bytes drifted:\n{}",
        drift.join("\n")
    );
}

/// Per registry artifact, in registry order, the hash of its
/// default-options grid's [`ResultCache::key`]s, one key per line.
fn cache_key_pins() -> Vec<(&'static str, u64)> {
    vec![
        ("fig3", 0x2f2b_668a_dbb4_4903),
        ("fig4", 0xd000_a09e_8191_e02d),
        ("fig5", 0x8f97_5e09_2180_c5be),
        ("fig6", 0x191f_c2e7_29ab_0fb3),
        ("fig7", 0xca80_0d4c_764b_ecaa),
        ("fig8", 0x5b5e_1655_5cd9_3135),
        ("fig9", 0xfdc9_6a95_abc8_5495),
        ("fig11", 0x9811_be2e_748d_a580),
        ("fig13", 0x8b3d_a668_4388_cead),
        ("fig14", 0x85b4_ce86_f329_d536),
        ("fig15", 0x3d2c_1e4e_3927_1d75),
        ("table1", 0x57a1_4e37_6888_af21),
        ("table2", 0x9e37_1d37_935c_1012),
        ("table3", 0x2687_ca9f_2d66_5498),
        ("table4", 0x5d52_c723_9ef9_af4f),
        ("table5", 0x324e_20b7_9a24_b665),
        ("table6", 0xcb9f_5d77_1e11_18f1),
        ("table7", 0x1b5d_6c04_fba0_0a58),
        ("ablation_defenses", 0xe21d_e3ea_ecda_3808),
        ("ablation_multiset", 0x0af1_5acf_bd57_b2ee),
        ("ablation_prefetcher", 0xae97_e8fc_8424_dab0),
        ("ablation_noise_ber", 0xec0c_4bdb_5be1_e7f5),
        ("ablation_noise_capacity", 0x14a8_4fc8_0522_3f3d),
        ("ablation_noise_grid", 0x9a0c_43e2_b570_006f),
        ("l2_lru_channel", 0x48a4_ea06_5005_3ad4),
        ("l2_inclusion_victim", 0x7928_3741_9dcd_ebd0),
    ]
}

#[test]
fn every_artifact_is_in_the_cache_key_pins() {
    let ids: Vec<&str> = cache_key_pins().iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, registry::ids(), "cache-key pins and registry disagree");
}

#[test]
fn every_artifact_keeps_its_pinned_cache_keys() {
    let mut drift = Vec::new();
    for (id, want) in cache_key_pins() {
        let artifact = registry::get(id).expect("pinned ids come from the registry");
        let keys: String = artifact
            .scenarios(&RunOpts::default())
            .iter()
            .map(|sc| ResultCache::key(sc) + "\n")
            .collect();
        let got = content_hash64(keys.as_bytes());
        if got != want {
            drift.push(format!("{id}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "cache keys drifted:\n{}",
        drift.join("\n")
    );
}

/// Per [`CORPUS_SEEDS`] seed, the hash of `lru-leak run fig9 --trials
/// 20000 --seed <seed> --json` stdout. The corpus runs fig9 at one
/// measured access per policy, which leaves its cache lanes nearly
/// idle; 20,000 accesses (plus 10,000 of warm-up) per benchmark and
/// policy fill the L1 and drive every policy's victim search.
const FIG9_20K_PINS: [u64; 3] = [
    0x45c9_9e12_6d3b_c7cd,
    0x8312_5cee_18ec_4527,
    0x5f9c_8207_0d66_7b70,
];

#[test]
fn fig9_at_twenty_thousand_accesses_reproduces_its_pinned_bytes() {
    let artifact = registry::get("fig9").expect("fig9 is registered");
    let mut drift = Vec::new();
    for (seed, want) in CORPUS_SEEDS.into_iter().zip(FIG9_20K_PINS) {
        let opts = RunOpts {
            trials: Some(20_000),
            seed,
        };
        let stdout = format!("{}\n", artifact.run(&opts).metrics.pretty());
        let got = content_hash64(stdout.as_bytes());
        if got != want {
            drift.push(format!("seed {seed}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "fig9 bytes drifted:\n{}",
        drift.join("\n")
    );
}
