//! Array-of-structs reference cache: the original storage layout,
//! retained as the oracle for the flat [`cache_sim::cache::Cache`] and
//! as the performance baseline of the `bench_perf_smoke` benchmark.
//!
//! [`RefCache`] is byte-for-byte the pre-refactor implementation:
//! each set is a heap-allocated [`CacheSet`] holding
//! `Vec<Option<LineMeta>>` lines and a per-set [`Policy`] with its
//! own allocations. Behaviour — hit/miss, chosen way, evictions,
//! statistics, and the Random policy's victim stream — must match
//! the SoA layout exactly; the `layout_equivalence` integration
//! suite replays long random traces through both and asserts it.

use crate::replacement::Policy;
use crate::set::CacheSet;
use crate::set_seed;
use cache_sim::addr::PhysAddr;
use cache_sim::cache::{AccessOutcome, CacheStats};
use cache_sim::geometry::CacheGeometry;
use cache_sim::line::LineMeta;
use cache_sim::replacement::{PolicyKind, WayMask};
use cache_sim::Backend;

/// The original array-of-structs cache.
#[derive(Debug, Clone)]
pub struct RefCache {
    geom: CacheGeometry,
    sets: Vec<CacheSet>,
    kind: PolicyKind,
    stats: CacheStats,
}

impl RefCache {
    /// Creates an empty reference cache (same seed derivation as
    /// [`cache_sim::cache::Cache::new`], so randomized policies produce
    /// identical victim streams).
    pub fn new(geom: CacheGeometry, kind: PolicyKind, seed: u64) -> Self {
        let sets = (0..geom.num_sets())
            .map(|s| CacheSet::new(Policy::new(kind, geom.ways(), set_seed(seed, s))))
            .collect();
        Self {
            geom,
            sets,
            kind,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The replacement policy in use.
    pub fn policy_kind(&self) -> PolicyKind {
        self.kind
    }

    /// Demand access, as in [`cache_sim::cache::Cache::access`].
    pub fn access(&mut self, pa: PhysAddr) -> AccessOutcome {
        let (set_idx, tag) = self.locate(pa);
        self.stats.accesses += 1;
        let ways = self.geom.ways();
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.find_way(tag) {
            set.record_access(way);
            return AccessOutcome {
                hit: true,
                set: set_idx,
                way,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        self.stats.fills += 1;
        let way = set.choose_fill_way(WayMask::all(ways));
        let evicted = set.install(way, LineMeta::new(tag));
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        set.record_fill(way);
        AccessOutcome {
            hit: false,
            set: set_idx,
            way,
            evicted: evicted.map(|m| PhysAddr::new(self.geom.line_addr(m.tag, set_idx))),
        }
    }

    /// Prefetch fill (no demand-access accounting), as in
    /// [`cache_sim::cache::Cache::prefetch_fill`].
    pub fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr> {
        let (set_idx, tag) = self.locate(pa);
        let ways = self.geom.ways();
        let set = &mut self.sets[set_idx];
        if set.find_way(tag).is_some() {
            return None;
        }
        self.stats.fills += 1;
        let way = set.choose_fill_way(WayMask::all(ways));
        let evicted = set.install(way, LineMeta::new(tag));
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        set.record_fill(way);
        evicted.map(|m| PhysAddr::new(self.geom.line_addr(m.tag, set_idx)))
    }

    /// Whether the line containing `pa` is present (no state change).
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set_idx, tag) = self.locate(pa);
        self.sets[set_idx].find_way(tag).is_some()
    }

    /// The way holding `pa`'s line, if present.
    pub fn way_of(&self, pa: PhysAddr) -> Option<usize> {
        let (set_idx, tag) = self.locate(pa);
        self.sets[set_idx].find_way(tag)
    }

    /// Invalidates the line containing `pa`.
    pub fn flush_line(&mut self, pa: PhysAddr) -> bool {
        let (set_idx, tag) = self.locate(pa);
        let set = &mut self.sets[set_idx];
        match set.find_way(tag) {
            Some(way) => {
                set.invalidate(way);
                true
            }
            None => false,
        }
    }

    /// Borrow of a set.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_sets`.
    pub fn set(&self, idx: usize) -> &CacheSet {
        &self.sets[idx]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and resets all replacement state and stats.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats = CacheStats::default();
    }

    fn locate(&self, pa: PhysAddr) -> (usize, u64) {
        // Division-based address slicing exactly as the seed
        // implemented it. The flat layout's geometry now slices with
        // shifts; keeping the original arithmetic here keeps this
        // baseline faithful to the pre-refactor hot path (the values
        // are identical — all fields are powers of two).
        let line = self.geom.line_size();
        let sets = self.geom.num_sets();
        (
            ((pa.raw() / line) % sets) as usize,
            pa.raw() / (line * sets),
        )
    }
}

impl Backend for RefCache {
    fn label(&self) -> &'static str {
        "aos-reference"
    }

    fn geometry(&self) -> CacheGeometry {
        RefCache::geometry(self)
    }

    fn policy_kind(&self) -> PolicyKind {
        RefCache::policy_kind(self)
    }

    fn access(&mut self, pa: PhysAddr) -> AccessOutcome {
        RefCache::access(self, pa)
    }

    fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr> {
        RefCache::prefetch_fill(self, pa)
    }

    fn probe(&self, pa: PhysAddr) -> bool {
        RefCache::probe(self, pa)
    }

    fn way_of(&self, pa: PhysAddr) -> Option<usize> {
        RefCache::way_of(self, pa)
    }

    fn flush_line(&mut self, pa: PhysAddr) -> bool {
        RefCache::flush_line(self, pa)
    }

    fn line(&self, set: usize, way: usize) -> Option<LineMeta> {
        self.set(set).line(way).copied()
    }

    fn stats(&self) -> CacheStats {
        RefCache::stats(self)
    }

    fn clear(&mut self) {
        RefCache::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_behaves_like_a_cache() {
        let mut c = RefCache::new(CacheGeometry::l1d_paper(), PolicyKind::Lru, 1);
        let a = PhysAddr::new(0x1040);
        assert!(!c.access(a).hit);
        assert!(c.access(a).hit);
        assert!(c.probe(a));
        assert_eq!(c.stats().misses, 1);
        assert!(c.flush_line(a));
        assert!(!c.probe(a));
        c.clear();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn lru_eviction_order_matches_paper_sequence() {
        let mut c = RefCache::new(CacheGeometry::l1d_paper(), PolicyKind::Lru, 1);
        let g = c.geometry();
        for i in 0..8u64 {
            c.access(PhysAddr::new(i * g.set_stride()));
        }
        let out = c.access(PhysAddr::new(8 * g.set_stride()));
        assert_eq!(out.evicted, Some(PhysAddr::new(0)));
    }
}
