//! The pluggable cache-backend abstraction.
//!
//! Every single-level-*observable* cache model in this crate — the
//! flat SoA [`Cache`], the Partition-Locked [`PlCache`], and the
//! two-level [`HierarchyBackend`] models built on [`CacheHierarchy`]
//! — exposes the same surface: lookup, touch, fill, evict, flush,
//! plus geometry and replacement introspection. [`Backend`] names
//! that surface so the backend-conformance harness
//! (`tests/layout_equivalence.rs`) and the repository benchmark's
//! access sweep are generic over the model; the `test-support`
//! crate's array-of-structs oracle `RefCache` implements it too. The
//! experiments do not go through it: they drive a concrete model.
//!
//! The one semantic flag a backend carries beyond its cache
//! behaviour is [`Backend::quantum_ff_safe`]: whether an access can
//! only change state inside the accessed line's own set(s). The
//! conformance harness checks it against the model's inclusion; the
//! execution engine consults the same bit on the machine's
//! [`CacheHierarchy::quantum_ff_safe`] (not through this trait) next
//! to a program's declared footprint before granting a quantum
//! fast-forward, so a back-invalidating hierarchy is demoted to block
//! execution.

use crate::addr::PhysAddr;
use crate::cache::{AccessOutcome, Cache, CacheStats};
use crate::geometry::CacheGeometry;
use crate::hierarchy::{CacheHierarchy, Inclusion, Latencies};
use crate::line::LineMeta;
use crate::plcache::{PlCache, PlRequest};
use crate::replacement::PolicyKind;

/// A set-associative cache model observable through its first level.
///
/// Each model has one demand path, [`Backend::access`], which every
/// implementation provides by forwarding to its own `access` (or, for
/// the PL cache, to a plain [`PlRequest::Access`] request).
///
/// Implementations must be deterministic: two instances constructed
/// with the same parameters and fed the same operation stream must
/// produce identical outcome streams and identical final state. The
/// conformance harness enforces this along with the structural
/// invariants (resident-after-access, capacity, stats accounting).
pub trait Backend {
    /// Short stable name for diagnostics and test labels.
    fn label(&self) -> &'static str;

    /// Geometry of the observable (first) level.
    fn geometry(&self) -> CacheGeometry;

    /// Replacement policy of the observable level.
    fn policy_kind(&self) -> PolicyKind;

    /// Demand access; installs on miss. The outcome describes the
    /// observable level (hit there, the way the line now occupies,
    /// and the line it displaced).
    fn access(&mut self, pa: PhysAddr) -> AccessOutcome;

    /// Installs `pa`'s line without demand accounting; returns the
    /// displaced line, if any. Present lines are left untouched.
    fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr>;

    /// Whether `pa`'s line is present at the observable level (no
    /// state change).
    fn probe(&self, pa: PhysAddr) -> bool;

    /// The way holding `pa`'s line at the observable level, if
    /// present (no state change).
    fn way_of(&self, pa: PhysAddr) -> Option<usize>;

    /// Invalidates `pa`'s line everywhere; returns whether the
    /// observable level held it.
    fn flush_line(&mut self, pa: PhysAddr) -> bool;

    /// Metadata of the line in `way` of `set` at the observable
    /// level, if valid — the normalized introspection every layout
    /// (SoA, AoS, hierarchy) can answer.
    fn line(&self, set: usize, way: usize) -> Option<LineMeta>;

    /// Packed replacement-state words of `set`, when the layout
    /// exposes them (`None` for layouts that keep replacement state
    /// in unpacked form).
    fn repl_words(&self, set: usize) -> Option<Vec<u64>> {
        let _ = set;
        None
    }

    /// Accumulated statistics of the observable level.
    fn stats(&self) -> CacheStats;

    /// Empties the backend and resets stats.
    fn clear(&mut self);

    /// Capability bit: `true` iff an access can only change cache
    /// state in the accessed line's own set(s). Backends with
    /// back-invalidation return `false`, which bars the execution
    /// engine's quantum fast-forward (the footprint-disjointness
    /// proof does not hold for them).
    fn quantum_ff_safe(&self) -> bool {
        true
    }
}

impl Backend for Cache {
    fn label(&self) -> &'static str {
        "soa"
    }

    fn geometry(&self) -> CacheGeometry {
        Cache::geometry(self)
    }

    fn policy_kind(&self) -> PolicyKind {
        Cache::policy_kind(self)
    }

    fn access(&mut self, pa: PhysAddr) -> AccessOutcome {
        Cache::access(self, pa)
    }

    fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr> {
        Cache::prefetch_fill(self, pa)
    }

    fn probe(&self, pa: PhysAddr) -> bool {
        Cache::probe(self, pa)
    }

    fn way_of(&self, pa: PhysAddr) -> Option<usize> {
        Cache::way_of(self, pa)
    }

    fn flush_line(&mut self, pa: PhysAddr) -> bool {
        Cache::flush_line(self, pa)
    }

    fn line(&self, set: usize, way: usize) -> Option<LineMeta> {
        self.set(set).line(way)
    }

    fn repl_words(&self, set: usize) -> Option<Vec<u64>> {
        Some(self.set(set).repl_words())
    }

    fn stats(&self) -> CacheStats {
        Cache::stats(self)
    }

    fn clear(&mut self) {
        Cache::clear(self)
    }
}

impl Backend for PlCache {
    fn label(&self) -> &'static str {
        "pl-cache"
    }

    fn geometry(&self) -> CacheGeometry {
        PlCache::geometry(self)
    }

    fn policy_kind(&self) -> PolicyKind {
        PlCache::policy_kind(self)
    }

    fn access(&mut self, pa: PhysAddr) -> AccessOutcome {
        let set = self.geometry().set_index(pa.raw());
        let out = self.request(pa, PlRequest::Access);
        // An uncached miss (locked victim) leaves the line absent;
        // report the victim way it would have used as way 0 to keep
        // the outcome shape total. Access-only streams never lock,
        // so the conformance replay never takes this branch.
        let way = PlCache::way_of(self, pa).unwrap_or(0);
        AccessOutcome {
            hit: out.hit,
            set,
            way,
            evicted: out.evicted,
        }
    }

    fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr> {
        PlCache::prefetch_fill(self, pa)
    }

    fn probe(&self, pa: PhysAddr) -> bool {
        PlCache::probe(self, pa)
    }

    fn way_of(&self, pa: PhysAddr) -> Option<usize> {
        PlCache::way_of(self, pa)
    }

    fn flush_line(&mut self, pa: PhysAddr) -> bool {
        PlCache::flush_line(self, pa)
    }

    fn line(&self, set: usize, way: usize) -> Option<LineMeta> {
        self.set(set).line(way)
    }

    fn repl_words(&self, set: usize) -> Option<Vec<u64>> {
        Some(self.set(set).repl_words())
    }

    fn stats(&self) -> CacheStats {
        PlCache::stats(self)
    }

    fn clear(&mut self) {
        PlCache::clear(self)
    }
}

/// A two-level hierarchy observed through its L1 — the adapter that
/// lets the non-inclusive and back-invalidating models run through
/// the same conformance harness as the single-level layouts.
///
/// Accesses drive [`CacheHierarchy::access`]; the reported
/// [`AccessOutcome`] describes the L1 (hit iff served by the L1).
/// [`Backend::quantum_ff_safe`] reflects the hierarchy's inclusion
/// policy.
#[derive(Debug, Clone)]
pub struct HierarchyBackend {
    h: CacheHierarchy,
    counters: crate::counters::PerfCounters,
}

impl HierarchyBackend {
    /// An L1 of `geom`/`kind` over an 8× larger LRU L2, with the
    /// given inclusion policy. The L2 keeps the L1's line size and
    /// associativity so any L1 geometry the conformance matrix picks
    /// stays valid.
    pub fn new(geom: CacheGeometry, kind: PolicyKind, inclusion: Inclusion, seed: u64) -> Self {
        let l2_geom = CacheGeometry::new(geom.line_size(), geom.num_sets() * 8, geom.ways())
            .expect("L2 geometry scales from a valid L1 geometry");
        let l1 = Cache::new(geom, kind, seed);
        let l2 = Cache::new(l2_geom, PolicyKind::Lru, seed ^ 0xaaaa);
        Self {
            h: CacheHierarchy::new(l1, l2, None, Latencies::gem5_fig9()).with_inclusion(inclusion),
            counters: crate::counters::PerfCounters::new(),
        }
    }

    /// The wrapped hierarchy.
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.h
    }
}

impl Backend for HierarchyBackend {
    fn label(&self) -> &'static str {
        match self.h.inclusion() {
            Inclusion::Inclusive => "hierarchy-inclusive",
            Inclusion::NonInclusive => "hierarchy-non-inclusive",
            Inclusion::BackInvalidate => "hierarchy-back-invalidate",
        }
    }

    fn geometry(&self) -> CacheGeometry {
        self.h.l1().geometry()
    }

    fn policy_kind(&self) -> PolicyKind {
        self.h.l1().policy_kind()
    }

    fn access(&mut self, pa: PhysAddr) -> AccessOutcome {
        let geom = self.h.l1().geometry();
        let out = self
            .h
            .access(crate::addr::VirtAddr::new(pa.raw()), pa, &mut self.counters);
        let hit = out.level == crate::hierarchy::HitLevel::L1;
        // The L1 holds the line after any demand access — except
        // when a back-invalidation triggered by this very fill
        // removed it again, which cannot happen for the line just
        // installed (the L2 installs it too). way_of is therefore
        // total here.
        let way = self.h.l1().way_of(pa).unwrap_or(0);
        AccessOutcome {
            hit,
            set: geom.set_index(pa.raw()),
            way,
            evicted: out.l1_evicted,
        }
    }

    fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr> {
        self.h.l1_mut().prefetch_fill(pa)
    }

    fn probe(&self, pa: PhysAddr) -> bool {
        self.h.l1().probe(pa)
    }

    fn way_of(&self, pa: PhysAddr) -> Option<usize> {
        self.h.l1().way_of(pa)
    }

    fn flush_line(&mut self, pa: PhysAddr) -> bool {
        let present = self.h.l1().probe(pa);
        self.h.flush(pa);
        present
    }

    fn line(&self, set: usize, way: usize) -> Option<LineMeta> {
        self.h.l1().set(set).line(way)
    }

    fn repl_words(&self, set: usize) -> Option<Vec<u64>> {
        Some(self.h.l1().set(set).repl_words())
    }

    fn stats(&self) -> CacheStats {
        self.h.l1().stats()
    }

    fn clear(&mut self) {
        self.h.clear();
        self.counters = crate::counters::PerfCounters::new();
    }

    fn quantum_ff_safe(&self) -> bool {
        self.h.quantum_ff_safe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(b: &mut dyn Backend) -> Vec<AccessOutcome> {
        (0..32u64)
            .map(|i| b.access(PhysAddr::new((i % 12) * 0x1000)))
            .collect()
    }

    #[test]
    fn hierarchy_backend_reports_l1_hits() {
        let geom = CacheGeometry::l1d_paper();
        let mut b = HierarchyBackend::new(geom, PolicyKind::TreePlru, Inclusion::Inclusive, 3);
        let pa = PhysAddr::new(0x40);
        assert!(!Backend::access(&mut b, pa).hit);
        assert!(Backend::access(&mut b, pa).hit);
        assert!(Backend::probe(&b, pa));
        assert!(b.quantum_ff_safe());
    }

    #[test]
    fn back_invalidating_backend_loses_the_capability_bit() {
        let geom = CacheGeometry::l1d_paper();
        let b = HierarchyBackend::new(geom, PolicyKind::Lru, Inclusion::BackInvalidate, 3);
        assert!(!b.quantum_ff_safe());
        let b = HierarchyBackend::new(geom, PolicyKind::Lru, Inclusion::NonInclusive, 3);
        assert!(b.quantum_ff_safe());
    }

    #[test]
    fn pl_cache_backend_matches_soa_on_demand_streams() {
        let geom = CacheGeometry::l1d_paper();
        let mut pl = PlCache::new(geom, PolicyKind::Lru, crate::plcache::PlDesign::Fixed, 5);
        let mut soa = Cache::new(geom, PolicyKind::Lru, 5);
        assert_eq!(ops(&mut pl), ops(&mut soa));
    }
}
