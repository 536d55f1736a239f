//! Pins the Table I study (`lru_channel::plru_study`) and the
//! one-set kernel it runs on (`cache_sim::one_set::OneSet`).
//!
//! * **Kernel ≡ `Cache`.** Random access/probe sequences over lines
//!   0–9 drive a `OneSet` and a one-set 8-way `Cache` of the same
//!   policy and seed, for all six policies; every step must agree
//!   on hit/miss and probe results, and after every step both must
//!   hold the same lines in the same ways. Random is also pinned at
//!   non-zero set indices of a 64-set `Cache`, since its generator
//!   is seeded per set.
//! * **Golden curves.** The `to_bits` of every probability of
//!   `eviction_curve`, for 6 policies × 2 sequences × 2 initial
//!   conditions at two seeds, folded into one fingerprint per curve.
//!   The fingerprints were captured while the study still ran every
//!   trial through a general one-set `Cache`; the registry's Table I
//!   only covers three of the policies, so this is what pins the
//!   other three.

use lru_leak::cache_sim::addr::PhysAddr;
use lru_leak::cache_sim::cache::Cache;
use lru_leak::cache_sim::geometry::CacheGeometry;
use lru_leak::cache_sim::one_set::{OneSet, WAYS};
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::lru_channel::plru_study::{eviction_curve, InitCond, SequenceKind};
use proptest::prelude::*;

/// Lines the study touches: 0–7, x (8) and one stranger (9).
const LINES: u64 = 10;

/// Replays `ops` (`(line, probe?)`) on a kernel for set `set` and on
/// set `set` of a `sets`-set 8-way `Cache` of the same policy and
/// seed (line `l` at tag `l`), asserting they agree after every step.
fn kernel_matches_cache(kind: PolicyKind, seed: u64, sets: u64, set: u64, ops: &[(u64, bool)]) {
    let geom = CacheGeometry::new(64, sets, WAYS).expect("8-way geometry");
    let mut cache = Cache::new(geom, kind, seed);
    let mut one = OneSet::new(kind, seed, set);
    let pa = |line: u64| PhysAddr::new((line * sets + set) * 64);
    for (step, &(line, probe)) in ops.iter().enumerate() {
        if probe {
            assert_eq!(
                one.probe(line),
                cache.probe(pa(line)),
                "{kind} seed {seed} set {set}: probe of line {line} at step {step}"
            );
        } else {
            assert_eq!(
                one.access(line),
                cache.access(pa(line)).hit,
                "{kind} seed {seed} set {set}: access to line {line} at step {step}"
            );
        }
        for l in 0..LINES {
            assert_eq!(
                one.way_of(l),
                cache.way_of(pa(l)),
                "{kind} seed {seed} set {set}: residency of line {l} after step {step}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_set_kernel_matches_a_one_set_cache(
        kind_idx in 0usize..6,
        seed in 0u64..u64::MAX,
        ops in collection::vec((0u64..LINES, any::<bool>()), 1..400),
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        kernel_matches_cache(kind, seed, 1, 0, &ops);
    }
}

#[test]
fn every_policy_is_pinned_against_the_cache() {
    // The property samples policies at random; this sweep makes sure
    // each one runs a long mixed sequence at least once.
    let mut x = 0x1234_5678u64;
    let ops: Vec<(u64, bool)> = (0..2_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % LINES, (x >> 13) & 3 == 0)
        })
        .collect();
    for kind in PolicyKind::ALL {
        for seed in [0, 7, u64::MAX] {
            kernel_matches_cache(kind, seed, 1, 0, &ops);
        }
    }
}

#[test]
fn random_kernel_is_seeded_like_its_set_of_a_cache() {
    // Random's victim stream is per set: the kernel for set k must
    // draw what set k of a multi-set cache draws, not set 0's.
    let mut x = 0x9e37_79b9u64;
    let ops: Vec<(u64, bool)> = (0..500)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % LINES, false)
        })
        .collect();
    for set in [1, 37, 63] {
        for seed in [0, 7, u64::MAX] {
            kernel_matches_cache(PolicyKind::Random, seed, 64, set, &ops);
        }
    }
}

const ITERATIONS: usize = 10;
const TRIALS: usize = 300;
const SEEDS: [u64; 2] = [1, 0x5eed_cafe];

/// `(seed/policy/sequence/init, fingerprint)` of every golden curve.
const GOLDEN: [(&str, u64); 48] = [
    ("0x1/LRU/Seq1/Random", 0x80ff02b66069c045),
    ("0x1/LRU/Seq1/Sequential", 0x80ff02b66069c045),
    ("0x1/LRU/Seq2/Random", 0x80ff02b66069c045),
    ("0x1/LRU/Seq2/Sequential", 0x80ff02b66069c045),
    ("0x1/Tree-PLRU/Seq1/Random", 0x2cd4ec2aa7cb12c5),
    ("0x1/Tree-PLRU/Seq1/Sequential", 0xb4c718f3c54980a7),
    ("0x1/Tree-PLRU/Seq2/Random", 0xbae2a4aacf72fd88),
    ("0x1/Tree-PLRU/Seq2/Sequential", 0xebcda980ae2f3530),
    ("0x1/Bit-PLRU/Seq1/Random", 0x92ae55945d8119c0),
    ("0x1/Bit-PLRU/Seq1/Sequential", 0x80ff02b66069c045),
    ("0x1/Bit-PLRU/Seq2/Random", 0xfd61fc6366732bb1),
    ("0x1/Bit-PLRU/Seq2/Sequential", 0xfbfc8648280b3860),
    ("0x1/FIFO/Seq1/Random", 0x4cc071c3543d3a42),
    ("0x1/FIFO/Seq1/Sequential", 0xe8a2ccdba2835f47),
    ("0x1/FIFO/Seq2/Random", 0xa0231f4eb79258c6),
    ("0x1/FIFO/Seq2/Sequential", 0xeab8b05ee2b22524),
    ("0x1/Random/Seq1/Random", 0x70e698cdeaeef83d),
    ("0x1/Random/Seq1/Sequential", 0x28826466dc8d231b),
    ("0x1/Random/Seq2/Random", 0x5f1a30d837522ca6),
    ("0x1/Random/Seq2/Sequential", 0x1e27a462c70fde34),
    ("0x1/Partitioned-Tree-PLRU/Seq1/Random", 0x5b59e1f10335f85e),
    (
        "0x1/Partitioned-Tree-PLRU/Seq1/Sequential",
        0x80ff02b66069c045,
    ),
    ("0x1/Partitioned-Tree-PLRU/Seq2/Random", 0x6d83ee739158ad10),
    (
        "0x1/Partitioned-Tree-PLRU/Seq2/Sequential",
        0xa3e97a10ba65f871,
    ),
    ("0x5eedcafe/LRU/Seq1/Random", 0x80ff02b66069c045),
    ("0x5eedcafe/LRU/Seq1/Sequential", 0x80ff02b66069c045),
    ("0x5eedcafe/LRU/Seq2/Random", 0x80ff02b66069c045),
    ("0x5eedcafe/LRU/Seq2/Sequential", 0x80ff02b66069c045),
    ("0x5eedcafe/Tree-PLRU/Seq1/Random", 0x180840c87d7e4ec6),
    ("0x5eedcafe/Tree-PLRU/Seq1/Sequential", 0x5135b139c8d9d13c),
    ("0x5eedcafe/Tree-PLRU/Seq2/Random", 0x5ec30f81f45caa33),
    ("0x5eedcafe/Tree-PLRU/Seq2/Sequential", 0xc3dee8ea70862771),
    ("0x5eedcafe/Bit-PLRU/Seq1/Random", 0xf019398c261d5857),
    ("0x5eedcafe/Bit-PLRU/Seq1/Sequential", 0x80ff02b66069c045),
    ("0x5eedcafe/Bit-PLRU/Seq2/Random", 0xcfa6c1a0c72517e1),
    ("0x5eedcafe/Bit-PLRU/Seq2/Sequential", 0x555f337df445c6f0),
    ("0x5eedcafe/FIFO/Seq1/Random", 0x6bd92152256a548a),
    ("0x5eedcafe/FIFO/Seq1/Sequential", 0x0297f01b7db4d7d3),
    ("0x5eedcafe/FIFO/Seq2/Random", 0xdfc649bd3a2186f4),
    ("0x5eedcafe/FIFO/Seq2/Sequential", 0xbf2baef2919089dc),
    ("0x5eedcafe/Random/Seq1/Random", 0x7d8136b6ce8a76e2),
    ("0x5eedcafe/Random/Seq1/Sequential", 0xbc3b0c2258f98d4e),
    ("0x5eedcafe/Random/Seq2/Random", 0x49e0a06206e52c19),
    ("0x5eedcafe/Random/Seq2/Sequential", 0x8f41fb8c3632eb42),
    (
        "0x5eedcafe/Partitioned-Tree-PLRU/Seq1/Random",
        0xc1b6142956b65c70,
    ),
    (
        "0x5eedcafe/Partitioned-Tree-PLRU/Seq1/Sequential",
        0x80ff02b66069c045,
    ),
    (
        "0x5eedcafe/Partitioned-Tree-PLRU/Seq2/Random",
        0xbdba9bfb4fc5b179,
    ),
    (
        "0x5eedcafe/Partitioned-Tree-PLRU/Seq2/Sequential",
        0xab068bde7613518f,
    ),
];

/// FNV-1a over the `to_bits` of every probability of one curve.
fn fingerprint(probabilities: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in probabilities {
        for b in p.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn eviction_curves_match_the_cache_backed_golden_bits() {
    let mut golden = GOLDEN.iter();
    for seed in SEEDS {
        for policy in PolicyKind::ALL {
            for sequence in [SequenceKind::Seq1, SequenceKind::Seq2] {
                for init in [InitCond::Random, InitCond::Sequential] {
                    let curve = eviction_curve(policy, sequence, init, ITERATIONS, TRIALS, seed);
                    let label = format!("{seed:#x}/{policy}/{sequence:?}/{init:?}");
                    let &(want_label, want) = golden.next().expect("one golden entry per curve");
                    assert_eq!(label, want_label, "golden table order");
                    assert_eq!(
                        fingerprint(&curve.probabilities),
                        want,
                        "{label}: curve bits changed: {:?}",
                        curve.probabilities
                    );
                }
            }
        }
    }
    assert!(golden.next().is_none(), "every golden entry is checked");
}
