//! Pins the multi-core `CacheHierarchy` (`with_core` / `access_from`).
//!
//! * **Two cores ≡ the reference.** Random two-core streams of loads,
//!   self-evictions (one core drops its own L1 copy), `clflush`es and
//!   clears drive a two-core hierarchy and the two-core reference in
//!   `oracle/two_core.rs`, built with the cross-core artifacts' seeds,
//!   under every `Inclusion` and Tree-PLRU, LRU and Random L1s. The L1
//!   and L2 are small enough that both evict. After every step each
//!   load must have the same outcome, and for every line both cores'
//!   probe levels, every cache's placement and every set's replacement
//!   state must agree.
//! * **An idle core changes nothing.** A hierarchy with an extra core
//!   that never loads gives core-0 streams the same outcomes,
//!   `PerfCounters` and probe levels as a one-core hierarchy, with an
//!   LLC, the next-line prefetcher and the µtag way predictor attached.

#[path = "oracle/two_core.rs"]
mod two_core;

use lru_leak::cache_sim::addr::{PhysAddr, VirtAddr};
use lru_leak::cache_sim::cache::Cache;
use lru_leak::cache_sim::counters::PerfCounters;
use lru_leak::cache_sim::geometry::CacheGeometry;
use lru_leak::cache_sim::hierarchy::{CacheHierarchy, Inclusion, Latencies};
use lru_leak::cache_sim::prefetcher::Prefetcher;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::cache_sim::way_predictor::WayPredictor;
use proptest::prelude::*;
use two_core::TwoCoreReference;

const INCLUSIONS: [Inclusion; 3] = [
    Inclusion::Inclusive,
    Inclusion::NonInclusive,
    Inclusion::BackInvalidate,
];

const L1_POLICIES: [PolicyKind; 3] = [PolicyKind::TreePlru, PolicyKind::Lru, PolicyKind::Random];

const SEEDS: [u64; 3] = [1, 7, 123_456_789];

/// Distinct lines the streams touch: 6 per L1 set (4 sets of 4
/// ways) and 3 per L2 set (8 sets of 2 ways), so both levels evict.
const LINES: u64 = 24;

fn l1_geom() -> CacheGeometry {
    CacheGeometry::new(64, 4, 4).unwrap()
}

fn l2_geom() -> CacheGeometry {
    CacheGeometry::new(64, 8, 2).unwrap()
}

fn line(i: u64) -> PhysAddr {
    PhysAddr::new(i * 64)
}

/// One step of a two-core stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A demand load by `core`.
    Load(usize, PhysAddr),
    /// `core` drops its own L1 copy (the L2 and the other core keep
    /// theirs).
    SelfEvict(usize, PhysAddr),
    /// `clflush` of the line everywhere.
    Flush(PhysAddr),
    /// Empty every cache.
    Clear,
}

/// Decodes a generated `(kind, core, line)` triple: mostly loads,
/// some self-evictions and flushes, a rare clear.
fn op((kind, core, l): (u8, usize, u64)) -> Op {
    match kind {
        0..=10 => Op::Load(core, line(l)),
        11..=13 => Op::SelfEvict(core, line(l)),
        14 => Op::Flush(line(l)),
        _ => Op::Clear,
    }
}

/// Every set's replacement-state words.
fn repl_state(cache: &Cache) -> Vec<Vec<u64>> {
    (0..cache.geometry().num_sets() as usize)
        .map(|s| cache.set(s).repl_words())
        .collect()
}

/// Replays `ops` on a two-core hierarchy and on the reference with
/// the same configuration, asserting they agree after every step.
fn two_cores_match_the_reference(
    inclusion: Inclusion,
    policy: PolicyKind,
    lat: Latencies,
    seed: u64,
    ops: &[Op],
) {
    let l1 = |salt| Cache::new(l1_geom(), policy, seed ^ salt);
    let l2 = Cache::new(l2_geom(), PolicyKind::Lru, seed ^ 0xaaaa);
    let mut model = CacheHierarchy::new(l1(0x1111), l2, None, lat)
        .with_inclusion(inclusion)
        .with_core(l1(0x2222));
    let mut reference = TwoCoreReference::new(
        l1_geom(),
        policy,
        l2_geom(),
        PolicyKind::Lru,
        lat,
        inclusion,
        seed,
    );
    assert_eq!(model.inclusion(), reference.inclusion());
    let mut counters = PerfCounters::new();
    let ctx =
        |step: usize, op: Op| format!("{inclusion:?} {policy} seed {seed}: {op:?} at step {step}");
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Load(core, pa) => {
                let got = model.access_from(core, VirtAddr::new(pa.raw()), pa, &mut counters);
                assert_eq!(got, reference.access(core, pa), "{}", ctx(step, op));
            }
            Op::SelfEvict(core, pa) => {
                let got = model.core_l1_mut(core).flush_line(pa);
                assert_eq!(
                    got,
                    reference.l1_mut(core).flush_line(pa),
                    "{}",
                    ctx(step, op)
                );
            }
            Op::Flush(pa) => {
                model.flush(pa);
                reference.flush(pa);
            }
            Op::Clear => {
                model.clear();
                reference.clear();
            }
        }
        for core in 0..2 {
            for pa in (0..LINES).map(line) {
                assert_eq!(
                    model.probe_level_from(core, pa),
                    reference.probe_level(core, pa),
                    "{}: core {core}'s probe of {pa}",
                    ctx(step, op)
                );
                assert_eq!(
                    model.core_l1_mut(core).way_of(pa),
                    reference.l1(core).way_of(pa),
                    "{}: core {core}'s L1 way of {pa}",
                    ctx(step, op)
                );
            }
            assert_eq!(
                repl_state(model.core_l1_mut(core)),
                repl_state(reference.l1(core)),
                "{}: core {core}'s L1 replacement state",
                ctx(step, op)
            );
        }
        for pa in (0..LINES).map(line) {
            assert_eq!(
                model.l2().way_of(pa),
                reference.l2().way_of(pa),
                "{}: L2 way of {pa}",
                ctx(step, op)
            );
        }
        assert_eq!(
            repl_state(model.l2()),
            repl_state(reference.l2()),
            "{}: L2 replacement state",
            ctx(step, op)
        );
    }
}

/// The paper L1 over a small L2 and LLC, so all three levels evict.
fn one_core(inclusion: Inclusion, policy: PolicyKind, extras: u8, seed: u64) -> CacheHierarchy {
    let l1 = Cache::new(CacheGeometry::l1d_paper(), policy, seed);
    let l2 = Cache::new(
        CacheGeometry::new(64, 16, 4).unwrap(),
        PolicyKind::Lru,
        seed ^ 1,
    );
    let llc = Cache::new(
        CacheGeometry::new(64, 32, 4).unwrap(),
        PolicyKind::Lru,
        seed ^ 2,
    );
    let mut h =
        CacheHierarchy::new(l1, l2, Some(llc), Latencies::sandy_bridge()).with_inclusion(inclusion);
    if extras & 1 != 0 {
        h = h.with_prefetcher(Prefetcher::next_line());
    }
    if extras & 2 != 0 {
        h = h.with_way_predictor(WayPredictor::new());
    }
    h
}

/// Replays core-0 `ops` (`(kind, page, line)`: a load of `line`
/// through linear page `page`, or a flush or clear) on a one-core
/// hierarchy and on the same hierarchy with an idle extra core.
fn an_idle_core_changes_nothing(
    inclusion: Inclusion,
    policy: PolicyKind,
    extras: u8,
    seed: u64,
    ops: &[(u8, u64, u64)],
) {
    let mut alone = one_core(inclusion, policy, extras, seed);
    let idle_l1 = Cache::new(CacheGeometry::l1d_paper(), policy, seed ^ 3);
    let mut paired = one_core(inclusion, policy, extras, seed).with_core(idle_l1);
    let (mut want, mut got) = (PerfCounters::new(), PerfCounters::new());
    // Lines 4 KiB apart share their L1, L2 and LLC sets: 12 lines
    // in each of 4 sets overflow every level.
    let pa = |l: u64| PhysAddr::new((l % 4) * 64 + (l / 4) * 4096);
    for (step, &(kind, page, l)) in ops.iter().enumerate() {
        let ctx = format!("{inclusion:?} {policy} extras {extras} seed {seed}: step {step}");
        match kind {
            0..=13 => {
                let va = VirtAddr::from_page(0x7000 + page, pa(l).raw() % 4096);
                assert_eq!(
                    paired.access(va, pa(l), &mut got),
                    alone.access(va, pa(l), &mut want),
                    "{ctx}"
                );
            }
            14 => {
                paired.flush(pa(l));
                alone.flush(pa(l));
            }
            _ => {
                paired.clear();
                alone.clear();
            }
        }
        assert_eq!(got, want, "{ctx}: counters");
        for l in 0..48 {
            assert_eq!(
                paired.probe_level(pa(l)),
                alone.probe_level(pa(l)),
                "{ctx}: probe of line {l}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_core_streams_match_the_reference(
        inclusion_idx in 0usize..3,
        policy_idx in 0usize..3,
        seed_idx in 0usize..3,
        ops in collection::vec((0u8..16, 0usize..2, 0u64..LINES), 1..400),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(op).collect();
        two_cores_match_the_reference(
            INCLUSIONS[inclusion_idx],
            L1_POLICIES[policy_idx],
            Latencies::sandy_bridge(),
            SEEDS[seed_idx],
            &ops,
        );
    }

    #[test]
    fn an_idle_extra_core_leaves_core_zero_unchanged(
        inclusion_idx in 0usize..3,
        policy_idx in 0usize..3,
        extras in 0u8..4,
        ops in collection::vec((0u8..16, 0u64..3, 0u64..48), 1..400),
    ) {
        an_idle_core_changes_nothing(
            INCLUSIONS[inclusion_idx],
            L1_POLICIES[policy_idx],
            extras,
            SEEDS[0],
            &ops,
        );
    }
}

#[test]
fn every_inclusion_and_policy_is_pinned_against_the_reference() {
    // The property samples configurations at random; this sweep runs
    // every one over one long stream, on both latency profiles the
    // artifacts' platforms and the GEM5 configuration use.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let ops: Vec<Op> = (0..3_000)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 24;
            op(((r % 16) as u8, ((r >> 4) % 2) as usize, (r >> 5) % LINES))
        })
        .collect();
    for inclusion in INCLUSIONS {
        for policy in L1_POLICIES {
            for lat in [Latencies::sandy_bridge(), Latencies::gem5_fig9()] {
                for seed in SEEDS {
                    two_cores_match_the_reference(inclusion, policy, lat, seed, &ops);
                }
            }
        }
    }
}
