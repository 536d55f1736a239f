//! Pins the Fig. 9 lane kernel (`cache_sim::two_level::TwoLevel`)
//! and the one-stream study built on it.
//!
//! * **Kernel ≡ `CacheHierarchy`.** Random load sequences drive a
//!   `TwoLevel` and the hierarchy `MicroArch::build_hierarchy` builds
//!   for the Fig. 9 GEM5 configuration, with the same L1D policy and
//!   seed, for all six policies at three seeds. The lines crowd a few
//!   L1 and L2 sets, so both levels evict; every step must cost the
//!   same cycles and leave the same counters.
//! * **One stream ≡ one run per policy.** `fig9_row`, which generates
//!   a benchmark's address stream once and steps three lanes over
//!   it, must equal the per-policy reference (`oracle/cpi.rs`: a
//!   fresh `Machine` per policy, each generating its own stream) for
//!   all 16 benchmarks × 3 policies × 3 seeds.

#[path = "oracle/cpi.rs"]
mod cpi_oracle;

use cpi_oracle::measure_benchmark;
use lru_leak::cache_sim::addr::{PhysAddr, VirtAddr};
use lru_leak::cache_sim::counters::PerfCounters;
use lru_leak::cache_sim::profiles::MicroArch;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::cache_sim::two_level::TwoLevel;
use lru_leak::defense::policy_eval::fig9_row;
use lru_leak::workloads::spec_like::SUITE;
use proptest::prelude::*;

const SEEDS: [u64; 3] = [1, 7, 123_456_789];

/// L2 sets the loads land in. The L1 has 128 sets, so L2 sets 0 and
/// 128 share L1 set 0.
const L2_SETS: [u64; 4] = [0, 1, 128, 2047];

/// Distinct tags per L2 set: more than the L2's 16 ways.
const TAGS: u64 = 40;

/// The byte address of load `(set, tag, byte)` on the Fig. 9 L2
/// (2048 sets of 64-byte lines).
fn addr(set: usize, tag: u64, byte: u64) -> PhysAddr {
    PhysAddr::new((tag * 2048 + L2_SETS[set]) * 64 + byte)
}

/// Replays `ops` on a kernel and on the hierarchy of the same policy
/// and seed, asserting they agree after every step.
fn kernel_matches_hierarchy(kind: PolicyKind, seed: u64, ops: &[(usize, u64, u64)]) {
    let arch = MicroArch::gem5_fig9();
    let mut lane = TwoLevel::new(&arch, kind, seed);
    let mut hierarchy = arch.build_hierarchy(kind, seed);
    let (mut lane_counters, mut want_counters) = (PerfCounters::new(), PerfCounters::new());
    for (step, &(set, tag, byte)) in ops.iter().enumerate() {
        let pa = addr(set, tag, byte);
        let want = hierarchy
            .access(VirtAddr::new(pa.raw()), pa, &mut want_counters)
            .cycles;
        assert_eq!(
            lane.access(pa, &mut lane_counters),
            want,
            "{kind} seed {seed}: cycles of the load of {pa} at step {step}"
        );
        assert_eq!(
            lane_counters, want_counters,
            "{kind} seed {seed}: counters after step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_level_kernel_matches_the_hierarchy(
        kind_idx in 0usize..6,
        seed_idx in 0usize..3,
        ops in collection::vec((0usize..L2_SETS.len(), 0u64..TAGS, 0u64..64), 1..2000),
    ) {
        kernel_matches_hierarchy(PolicyKind::ALL[kind_idx], SEEDS[seed_idx], &ops);
    }
}

#[test]
fn every_policy_and_seed_is_pinned_against_the_hierarchy() {
    // The property samples policies and seeds at random; this sweep
    // runs every pair over one long sequence.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let ops: Vec<(usize, u64, u64)> = (0..20_000)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 24;
            ((r % 4) as usize, (r >> 2) % TAGS, (r >> 10) % 64)
        })
        .collect();
    for kind in PolicyKind::ALL {
        for seed in SEEDS {
            kernel_matches_hierarchy(kind, seed, &ops);
        }
    }
}

#[test]
fn fig9_rows_match_one_reference_run_per_policy() {
    let arch = MicroArch::gem5_fig9();
    // One access per policy (the corpus count) and an odd count whose
    // warm-up and measurement both end mid-block.
    for accesses in [1, 3_001] {
        for bench in SUITE {
            for seed in SEEDS {
                let row = fig9_row(bench, &arch, accesses, seed);
                for (got, policy) in row.results.iter().zip(PolicyKind::FIG9) {
                    assert_eq!(
                        *got,
                        measure_benchmark(bench, &arch, policy, accesses, seed),
                        "{} {policy} seed {seed} at {accesses} accesses",
                        bench.name
                    );
                }
            }
        }
    }
}
