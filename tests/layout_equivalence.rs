//! Backend-conformance harness: every cache model behind the
//! [`Backend`] trait — the flat SoA [`Cache`], the `test-support`
//! crate's AoS oracle [`RefCache`], both [`PlCache`] designs, and the
//! three two-level [`HierarchyBackend`] inclusion models — is run
//! through one generic suite as a policy × backend matrix:
//!
//! * **Oracle equivalence** — a backend whose observable level must
//!   match the AoS reference (hit/miss, chosen way, evicted line,
//!   statistics, final state) replays long mixed operation streams
//!   against it, failing with the exact step number on divergence.
//!   The SoA-vs-AoS golden traces this suite originally pinned are
//!   one instance; unlocked PL caches and the quiet (inclusive /
//!   non-inclusive) hierarchies are the new ones.
//! * **Determinism** — two instances of any backend built with the
//!   same parameters and fed the same stream must produce identical
//!   outcome streams and identical final state. This is the contract
//!   the trait documents and every experiment relies on.
//! * **Structural invariants** — resident-after-access, flush
//!   removal, demand-stats accounting, per-set capacity, and a clean
//!   slate after `clear()`, checked on every backend including the
//!   back-invalidating hierarchy (which has no single-level oracle).
//!
//! Plugging in a new backend means adding one factory line to
//! [`conformance_backends`]; the matrix does the rest.

use lru_leak::cache_sim::addr::PhysAddr;
use lru_leak::cache_sim::backend::{Backend, HierarchyBackend};
use lru_leak::cache_sim::cache::{AccessOutcome, Cache};
use lru_leak::cache_sim::geometry::CacheGeometry;
use lru_leak::cache_sim::hierarchy::Inclusion;
use lru_leak::cache_sim::line::LineMeta;
use lru_leak::cache_sim::plcache::{PlCache, PlDesign};
use lru_leak::cache_sim::replacement::PolicyKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use test_support::RefCache;

/// One operation of a conformance stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(PhysAddr),
    Prefetch(PhysAddr),
    Flush(PhysAddr),
    Probe(PhysAddr),
}

/// What applying an [`Op`] produced — totally ordered so streams
/// from two backends can be compared step by step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Access(AccessOutcome),
    Prefetch(Option<PhysAddr>),
    Flush(bool),
    Probe(bool, Option<usize>),
}

fn apply(b: &mut dyn Backend, op: Op) -> Observed {
    match op {
        Op::Access(pa) => Observed::Access(b.access(pa)),
        Op::Prefetch(pa) => Observed::Prefetch(b.prefetch_fill(pa)),
        Op::Flush(pa) => Observed::Flush(b.flush_line(pa)),
        Op::Probe(pa) => Observed::Probe(b.probe(pa), b.way_of(pa)),
    }
}

/// A deterministic mixed stream: demand accesses dominate (as in the
/// experiments), spiced with prefetch fills, flushes and read-only
/// probes. The address universe is ~4× the observable capacity so
/// streams mix hits, misses and evictions.
fn stream(geom: CacheGeometry, seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1ace);
    let universe = geom.size_bytes() * 4;
    (0..steps)
        .map(|_| {
            let pa = PhysAddr::new(rng.gen_range(0..universe) & !(geom.line_size() - 1));
            match rng.gen_range(0..10u32) {
                0..=6 => Op::Access(pa),
                7 => Op::Prefetch(pa),
                8 => Op::Flush(pa),
                _ => Op::Probe(pa),
            }
        })
        .collect()
}

/// The observable level's full final state: every set × way line plus
/// the packed replacement words (when the layout exposes them) and
/// the statistics counters.
type Snapshot = (Vec<Option<LineMeta>>, Vec<Option<Vec<u64>>>, String);

fn snapshot(b: &dyn Backend) -> Snapshot {
    let geom = b.geometry();
    let mut lines = Vec::new();
    let mut words = Vec::new();
    for s in 0..geom.num_sets() as usize {
        for w in 0..geom.ways() {
            lines.push(b.line(s, w));
        }
        words.push(b.repl_words(s));
    }
    (lines, words, format!("{:?}", b.stats()))
}

/// Replays one stream through `candidate` and `oracle`, comparing
/// every outcome, the running statistics, and the final state. The
/// replacement words are compared only when both layouts expose them.
fn replay_against_oracle(
    candidate: &mut dyn Backend,
    oracle: &mut dyn Backend,
    ops: &[Op],
    kind: PolicyKind,
) {
    let label = candidate.label();
    for (step, &op) in ops.iter().enumerate() {
        let a = apply(candidate, op);
        let b = apply(oracle, op);
        assert_eq!(a, b, "{label}/{kind}: diverged at step {step} ({op:?})");
        assert_eq!(
            candidate.stats(),
            oracle.stats(),
            "{label}/{kind}: stats diverged at step {step}"
        );
    }
    let geom = candidate.geometry();
    for s in 0..geom.num_sets() as usize {
        for w in 0..geom.ways() {
            assert_eq!(
                candidate.line(s, w),
                oracle.line(s, w),
                "{label}/{kind}: set {s} way {w} differs after replay"
            );
        }
        if let (Some(a), Some(b)) = (candidate.repl_words(s), oracle.repl_words(s)) {
            assert_eq!(a, b, "{label}/{kind}: repl words of set {s} differ");
        }
    }
}

/// Factory type for the conformance matrix: given geometry, policy
/// and seed, build a fresh backend instance.
type Factory = fn(CacheGeometry, PolicyKind, u64) -> Box<dyn Backend>;

/// Every registered backend. A new backend joins the whole matrix by
/// adding one line here.
fn conformance_backends() -> Vec<Factory> {
    vec![
        |g, k, s| Box::new(Cache::new(g, k, s)),
        |g, k, s| Box::new(RefCache::new(g, k, s)),
        |g, k, s| Box::new(PlCache::new(g, k, PlDesign::Original, s)),
        |g, k, s| Box::new(PlCache::new(g, k, PlDesign::Fixed, s)),
        |g, k, s| Box::new(HierarchyBackend::new(g, k, Inclusion::Inclusive, s)),
        |g, k, s| Box::new(HierarchyBackend::new(g, k, Inclusion::NonInclusive, s)),
        |g, k, s| Box::new(HierarchyBackend::new(g, k, Inclusion::BackInvalidate, s)),
    ]
}

/// Backends that must be observationally identical to the AoS oracle
/// at their observable level: the SoA layout (the original golden
/// trace), unlocked PL caches (no lock requests ⇒ base policy), and
/// the quiet hierarchies (their L1 sees exactly the same operations;
/// inclusive L2 evictions are silent and the non-inclusive L2 only
/// absorbs L1 victims).
fn oracle_matched_backends() -> Vec<Factory> {
    vec![
        |g, k, s| Box::new(Cache::new(g, k, s)),
        |g, k, s| Box::new(PlCache::new(g, k, PlDesign::Original, s)),
        |g, k, s| Box::new(PlCache::new(g, k, PlDesign::Fixed, s)),
        |g, k, s| Box::new(HierarchyBackend::new(g, k, Inclusion::Inclusive, s)),
        |g, k, s| Box::new(HierarchyBackend::new(g, k, Inclusion::NonInclusive, s)),
    ]
}

#[test]
fn oracle_equivalence_matrix_on_the_paper_l1() {
    for factory in oracle_matched_backends() {
        for kind in PolicyKind::ALL {
            let geom = CacheGeometry::l1d_paper();
            let ops = stream(geom, 0xdead_beef, 20_000);
            let mut candidate = factory(geom, kind, 0xdead_beef);
            let mut oracle = RefCache::new(geom, kind, 0xdead_beef);
            replay_against_oracle(candidate.as_mut(), &mut oracle, &ops, kind);
        }
    }
}

#[test]
fn oracle_equivalence_matrix_on_small_and_wide_geometries() {
    // 2-way and 16-way stress the tree walks and mask edges.
    for (sets, ways) in [(4u64, 2usize), (16, 16), (8, 4)] {
        let geom = CacheGeometry::new(64, sets, ways).unwrap();
        for factory in oracle_matched_backends() {
            for kind in PolicyKind::ALL {
                let seed = 0xc0de ^ sets ^ ways as u64;
                let ops = stream(geom, seed, 6_000);
                let mut candidate = factory(geom, kind, seed);
                let mut oracle = RefCache::new(geom, kind, seed);
                replay_against_oracle(candidate.as_mut(), &mut oracle, &ops, kind);
            }
        }
    }
}

#[test]
fn random_policy_streams_are_bit_identical_across_seeds() {
    // The Random policy is the only seed-consuming one: pin the
    // per-set seed derivation across several master seeds, for every
    // oracle-matched backend.
    for seed in [0u64, 1, 42, u64::MAX] {
        let geom = CacheGeometry::l1d_paper();
        let ops = stream(geom, seed, 8_000);
        for factory in oracle_matched_backends() {
            let mut candidate = factory(geom, PolicyKind::Random, seed);
            let mut oracle = RefCache::new(geom, PolicyKind::Random, seed);
            replay_against_oracle(candidate.as_mut(), &mut oracle, &ops, PolicyKind::Random);
        }
    }
}

#[test]
fn every_backend_is_deterministic() {
    // The trait's core contract: same parameters + same stream ⇒
    // identical outcomes and identical final state. This is the only
    // equivalence statement available to the back-invalidating
    // hierarchy, which deliberately has no single-level oracle.
    let geom = CacheGeometry::l1d_paper();
    for factory in conformance_backends() {
        for kind in PolicyKind::ALL {
            let ops = stream(geom, 0xf00d, 6_000);
            let mut one = factory(geom, kind, 0xf00d);
            let mut two = factory(geom, kind, 0xf00d);
            let label = one.label();
            for (step, &op) in ops.iter().enumerate() {
                let a = apply(one.as_mut(), op);
                let b = apply(two.as_mut(), op);
                assert_eq!(a, b, "{label}/{kind}: nondeterministic at step {step}");
            }
            assert_eq!(
                snapshot(one.as_ref()),
                snapshot(two.as_ref()),
                "{label}/{kind}: final state differs between identical replays"
            );
        }
    }
}

#[test]
fn every_backend_upholds_structural_invariants() {
    let geom = CacheGeometry::l1d_paper();
    for factory in conformance_backends() {
        for kind in PolicyKind::ALL {
            let ops = stream(geom, 0xbead, 4_000);
            let mut b = factory(geom, kind, 0xbead);
            let label = b.label();
            assert_eq!(b.geometry(), geom, "{label}: geometry passthrough");
            assert_eq!(b.policy_kind(), kind, "{label}: policy passthrough");
            let (mut demanded, mut missed) = (0u64, 0u64);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Access(pa) => {
                        let out = b.access(pa);
                        demanded += 1;
                        missed += u64::from(!out.hit);
                        // Resident-after-access: the line is present,
                        // in the reported way, with the right tag.
                        assert!(b.probe(pa), "{label}/{kind}: absent after access {step}");
                        assert_eq!(
                            b.way_of(pa),
                            Some(out.way),
                            "{label}/{kind}: way mismatch at step {step}"
                        );
                        let meta = b
                            .line(out.set, out.way)
                            .unwrap_or_else(|| panic!("{label}/{kind}: no line meta at {step}"));
                        assert_eq!(
                            meta.tag,
                            geom.tag(pa.raw()),
                            "{label}/{kind}: wrong tag at step {step}"
                        );
                    }
                    Op::Prefetch(pa) => {
                        b.prefetch_fill(pa);
                        assert!(b.probe(pa), "{label}/{kind}: absent after prefetch {step}");
                    }
                    Op::Flush(pa) => {
                        b.flush_line(pa);
                        assert!(!b.probe(pa), "{label}/{kind}: present after flush {step}");
                        assert_eq!(b.way_of(pa), None, "{label}/{kind}: way after flush");
                    }
                    Op::Probe(pa) => {
                        // Read-only: probing twice must agree.
                        assert_eq!(b.probe(pa), b.probe(pa), "{label}/{kind}: unstable probe");
                    }
                }
            }
            // Demand-stats accounting: the observable level counts
            // exactly the demand accesses the stream issued.
            let stats = b.stats();
            assert_eq!(stats.accesses, demanded, "{label}/{kind}: access count");
            assert_eq!(stats.misses, missed, "{label}/{kind}: miss count");
            // Capacity: line() is total over set × way and nothing
            // else — walking it must not panic and each valid line's
            // tag round-trips into a unique address per set.
            for s in 0..geom.num_sets() as usize {
                let valid: Vec<LineMeta> = (0..geom.ways()).filter_map(|w| b.line(s, w)).collect();
                assert!(
                    valid.len() <= geom.ways(),
                    "{label}/{kind}: overfull set {s}"
                );
                let mut tags: Vec<u64> = valid.iter().map(|l| l.tag).collect();
                tags.sort_unstable();
                tags.dedup();
                assert_eq!(
                    tags.len(),
                    valid.len(),
                    "{label}/{kind}: duplicate tags in set {s}"
                );
            }
            // A cleared backend is empty with zeroed stats.
            b.clear();
            for s in 0..geom.num_sets() as usize {
                for w in 0..geom.ways() {
                    assert_eq!(b.line(s, w), None, "{label}/{kind}: line after clear");
                }
            }
            assert_eq!(b.stats().accesses, 0, "{label}/{kind}: stats after clear");
        }
    }
}

#[test]
fn capability_bit_is_exclusive_to_back_invalidation() {
    let geom = CacheGeometry::l1d_paper();
    for factory in conformance_backends() {
        let b = factory(geom, PolicyKind::Lru, 1);
        let expected = b.label() != "hierarchy-back-invalidate";
        assert_eq!(
            b.quantum_ff_safe(),
            expected,
            "{}: wrong quantum_ff_safe capability bit",
            b.label()
        );
    }
}

#[test]
fn clear_preserves_equivalence() {
    let geom = CacheGeometry::l1d_paper();
    let mut soa = Cache::new(geom, PolicyKind::TreePlru, 7);
    let mut aos = RefCache::new(geom, PolicyKind::TreePlru, 7);
    for i in 0..500u64 {
        let pa = PhysAddr::new(i * 64 * 3);
        assert_eq!(Backend::access(&mut soa, pa), Backend::access(&mut aos, pa));
    }
    Backend::clear(&mut soa);
    Backend::clear(&mut aos);
    for i in 0..500u64 {
        let pa = PhysAddr::new(i * 64 * 5);
        assert_eq!(
            Backend::access(&mut soa, pa),
            Backend::access(&mut aos, pa),
            "diverged after clear"
        );
    }
}
