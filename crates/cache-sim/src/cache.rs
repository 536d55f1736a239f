//! A single-level, physically tagged, set-associative cache.
//!
//! Storage is structure-of-arrays (the private `storage` module): one
//! contiguous tag array for the whole cache, per-set validity/lock
//! bitmask words, and packed replacement state — so the
//! [`Cache::access`] hot path is a branch-light tag compare over one
//! or two host cache lines. The original array-of-structs layout is
//! preserved in [`crate::reference`] as the equivalence oracle and
//! performance baseline.

use crate::addr::PhysAddr;
use crate::geometry::CacheGeometry;
use crate::line::LineMeta;
use crate::replacement::{PolicyKind, WayMask};
use crate::storage::SoaStore;

use std::fmt;

/// Result of one access to a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// Set index of the access.
    pub set: usize,
    /// Way the line now occupies.
    pub way: usize,
    /// Line-base physical address evicted to make room, if any.
    pub evicted: Option<PhysAddr>,
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines installed (demand + prefetch).
    pub fills: u64,
    /// Valid lines evicted by replacement.
    pub evictions: u64,
}

/// A set-associative cache level.
///
/// Addresses are physical; the cache is oblivious to virtual
/// addresses except for the µtag field that
/// [`crate::way_predictor::WayPredictor`] maintains through
/// [`Cache::set_utag`].
///
/// ```
/// use cache_sim::{Cache, CacheGeometry, PolicyKind, PhysAddr};
/// let mut c = Cache::new(CacheGeometry::l1d_paper(), PolicyKind::Lru, 0);
/// assert!(!c.access(PhysAddr::new(0)).hit);
/// assert!(c.access(PhysAddr::new(0)).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    store: SoaStore,
    kind: PolicyKind,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// `seed` parameterizes randomized policies; each set derives its
    /// own stream from it.
    ///
    /// # Panics
    ///
    /// Panics if `kind` requires a power-of-two way count and the
    /// geometry's is not (see [`crate::replacement::Policy::new`]).
    pub fn new(geom: CacheGeometry, kind: PolicyKind, seed: u64) -> Self {
        Self {
            geom,
            store: SoaStore::new(kind, geom.num_sets() as usize, geom.ways(), seed),
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

    /// Demand access: updates the replacement state on a hit, and on
    /// a miss installs the line in the lowest invalid way, else in
    /// the policy's victim.
    #[inline]
    pub fn access(&mut self, pa: PhysAddr) -> AccessOutcome {
        let (set_idx, tag) = self.locate(pa);
        self.stats.accesses += 1;
        let out = self.store.demand_access(set_idx, tag);
        if !out.hit {
            self.stats.misses += 1;
            self.stats.fills += 1;
            if out.evicted_tag.is_some() {
                self.stats.evictions += 1;
            }
        }
        AccessOutcome {
            hit: out.hit,
            set: set_idx,
            way: out.way,
            evicted: out
                .evicted_tag
                .map(|t| PhysAddr::new(self.geom.line_addr(t, set_idx))),
        }
    }

    /// Fast-forward accounting hook: records `n` demand hits that an
    /// execution engine proved observationally identical to replaying
    /// the previous access (same line, idempotent replacement-state
    /// touch) and therefore skipped. Only the demand-access count
    /// moves — hits change no storage, replacement or victim state
    /// under an idempotent policy, which is exactly the condition the
    /// caller must have established.
    pub fn record_skipped_hits(&mut self, n: u64) {
        self.stats.accesses += n;
    }

    /// Installs the line for `pa` without counting a demand access
    /// (prefetch fill). A line already present is left untouched —
    /// in particular its replacement state is *not* refreshed.
    ///
    /// Returns the evicted line base, if the fill displaced one.
    pub fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr> {
        let (set_idx, tag) = self.locate(pa);
        if self.store.find_way(set_idx, tag).is_some() {
            return None;
        }
        self.stats.fills += 1;
        let ways = self.store.ways();
        let way = self.store.choose_fill_way(set_idx, WayMask::all(ways));
        let evicted = self.store.install(set_idx, way, LineMeta::new(tag));
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        self.store.record_fill(set_idx, way);
        evicted.map(|m| PhysAddr::new(self.geom.line_addr(m.tag, set_idx)))
    }

    /// Whether the line containing `pa` is present (no state change).
    #[inline]
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set_idx, tag) = self.locate(pa);
        self.store.find_way(set_idx, tag).is_some()
    }

    /// The way holding `pa`'s line, if present (no state change).
    #[inline]
    pub fn way_of(&self, pa: PhysAddr) -> Option<usize> {
        let (set_idx, tag) = self.locate(pa);
        self.store.find_way(set_idx, tag)
    }

    /// Invalidates the line containing `pa` (a `clflush` at this
    /// level). Returns whether a line was removed.
    pub fn flush_line(&mut self, pa: PhysAddr) -> bool {
        let (set_idx, tag) = self.locate(pa);
        match self.store.find_way(set_idx, tag) {
            Some(way) => {
                self.store.invalidate(set_idx, way);
                true
            }
            None => false,
        }
    }

    /// Metadata of `pa`'s line, if present (assembled from the flat
    /// storage).
    pub fn line_meta(&self, pa: PhysAddr) -> Option<LineMeta> {
        let (set_idx, tag) = self.locate(pa);
        self.store
            .find_way(set_idx, tag)
            .and_then(|w| self.store.line_meta(set_idx, w))
    }

    /// µtag of the line in `way` of `set`, if trained — the
    /// positional variant callers use when an [`AccessOutcome`]
    /// already names the line, avoiding a second tag search.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn utag_at(&self, set: usize, way: usize) -> Option<u16> {
        self.check_position(set, way);
        self.store.utag(set, way)
    }

    /// Trains (or clears) the µtag of `pa`'s line; a no-op when the
    /// line is absent.
    #[inline]
    pub fn set_utag(&mut self, pa: PhysAddr, utag: Option<u16>) {
        let (set_idx, tag) = self.locate(pa);
        if let Some(w) = self.store.find_way(set_idx, tag) {
            self.store.set_utag(set_idx, w, utag);
        }
    }

    /// Trains (or clears) the µtag of the line in `way` of `set` —
    /// positional variant of [`Cache::set_utag`].
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn set_utag_at(&mut self, set: usize, way: usize, utag: Option<u16>) {
        self.check_position(set, way);
        self.store.set_utag(set, way, utag);
    }

    /// Bounds check backing the positional accessors' documented
    /// panics (a bad `way` would otherwise index a neighboring
    /// set's slot in the flat arrays).
    #[inline]
    fn check_position(&self, set: usize, way: usize) {
        assert!(
            (set as u64) < self.geom.num_sets(),
            "set index {set} out of range"
        );
        assert!(way < self.store.ways(), "way index {way} out of range");
    }

    /// Read-only view of a set (for inspection in tests and
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_sets`.
    pub fn set(&self, idx: usize) -> SetView<'_> {
        assert!(
            (idx as u64) < self.geom.num_sets(),
            "set index {idx} out of range"
        );
        SetView {
            store: &self.store,
            idx,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and resets all replacement state and stats.
    pub fn clear(&mut self) {
        self.store.clear();
        self.stats = CacheStats::default();
    }

    #[inline]
    fn locate(&self, pa: PhysAddr) -> (usize, u64) {
        (self.geom.set_index(pa.raw()), self.geom.tag(pa.raw()))
    }
}

/// Read-only view of one cache set over the flat storage.
///
/// The `Debug` output covers the complete observable state of the
/// set — per-way line metadata plus the packed replacement-state
/// words — so "state unchanged" assertions can compare two formatted
/// views.
#[derive(Clone, Copy)]
pub struct SetView<'a> {
    store: &'a SoaStore,
    idx: usize,
}

impl<'a> SetView<'a> {
    /// View of set `idx` of `store` (shared with
    /// [`crate::plcache::PlCache`]).
    pub(crate) fn over(store: &'a SoaStore, idx: usize) -> Self {
        Self { store, idx }
    }

    /// Associativity of the set.
    pub fn ways(&self) -> usize {
        self.store.ways()
    }

    /// Number of valid lines.
    pub fn valid_count(&self) -> usize {
        self.store.valid_count(self.idx)
    }

    /// Finds the way holding `tag`, if present.
    pub fn find_way(&self, tag: u64) -> Option<usize> {
        self.store.find_way(self.idx, tag)
    }

    /// Metadata of the line in `way`, if valid.
    pub fn line(&self, way: usize) -> Option<LineMeta> {
        self.store.line_meta(self.idx, way)
    }

    /// Mask of ways holding locked lines (PL cache).
    pub fn locked_mask(&self) -> WayMask {
        self.store.locked_mask(self.idx)
    }

    /// Packed replacement-state words of the set (policy-specific;
    /// see [`crate::replacement`]).
    pub fn repl_words(&self) -> Vec<u64> {
        self.store.repl_words(self.idx)
    }
}

impl fmt::Debug for SetView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lines: Vec<Option<LineMeta>> = (0..self.ways()).map(|w| self.line(w)).collect();
        f.debug_struct("SetView")
            .field("set", &self.idx)
            .field("lines", &lines)
            .field("repl", &self.repl_words())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l1(kind: PolicyKind) -> Cache {
        Cache::new(CacheGeometry::l1d_paper(), kind, 1)
    }

    /// Addresses `line 0..=N` of the paper: same set, different tags.
    fn line(geom: CacheGeometry, set: usize, i: u64) -> PhysAddr {
        PhysAddr::new(i * geom.set_stride() + set as u64 * geom.line_size())
    }

    #[test]
    fn miss_then_hit() {
        let mut c = l1(PolicyKind::Lru);
        let a = PhysAddr::new(0x1040);
        assert!(!c.access(a).hit);
        assert!(c.access(a).hit);
        // Same line, different byte.
        assert!(c.access(PhysAddr::new(0x1078)).hit);
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ninth_line_evicts_lru_victim() {
        let mut c = l1(PolicyKind::Lru);
        let g = c.geometry();
        for i in 0..8 {
            c.access(line(g, 5, i));
        }
        let out = c.access(line(g, 5, 8));
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(line(g, 5, 0)));
        assert!(!c.probe(line(g, 5, 0)));
        assert!(c.probe(line(g, 5, 8)));
    }

    #[test]
    fn accesses_to_other_sets_do_not_interfere() {
        let mut c = l1(PolicyKind::TreePlru);
        let g = c.geometry();
        for i in 0..8 {
            c.access(line(g, 0, i));
        }
        for i in 0..100 {
            c.access(line(g, 1, i % 8));
        }
        for i in 0..8 {
            assert!(c.probe(line(g, 0, i)), "set 0 line {i} was disturbed");
        }
    }

    #[test]
    fn flush_removes_line() {
        let mut c = l1(PolicyKind::Lru);
        let a = PhysAddr::new(0x40);
        c.access(a);
        assert!(c.flush_line(a));
        assert!(!c.probe(a));
        assert!(!c.flush_line(a));
    }

    #[test]
    fn prefetch_fill_does_not_count_demand_access() {
        let mut c = l1(PolicyKind::Lru);
        let a = PhysAddr::new(0x40);
        assert_eq!(c.prefetch_fill(a), None);
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().fills, 1);
        assert!(c.probe(a));
        // Prefetching an already-present line changes nothing.
        assert_eq!(c.prefetch_fill(a), None);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn prefetch_fill_can_evict() {
        let mut c = l1(PolicyKind::Lru);
        let g = c.geometry();
        for i in 0..8 {
            c.access(line(g, 3, i));
        }
        let evicted = c.prefetch_fill(line(g, 3, 8));
        assert_eq!(evicted, Some(line(g, 3, 0)));
    }

    #[test]
    fn fifo_hits_do_not_protect_lines() {
        // The §IX-A defense property at cache level: under FIFO, a
        // line that keeps hitting is still evicted in install order.
        let mut c = l1(PolicyKind::Fifo);
        let g = c.geometry();
        for i in 0..8 {
            c.access(line(g, 0, i));
        }
        for _ in 0..50 {
            c.access(line(g, 0, 0)); // hammer line 0 with hits
        }
        let out = c.access(line(g, 0, 8));
        assert_eq!(
            out.evicted,
            Some(line(g, 0, 0)),
            "FIFO must evict the first-installed line despite hits"
        );
    }

    #[test]
    fn way_of_reports_location() {
        let mut c = l1(PolicyKind::Lru);
        let a = PhysAddr::new(0x40);
        assert_eq!(c.way_of(a), None);
        let out = c.access(a);
        assert_eq!(c.way_of(a), Some(out.way));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = l1(PolicyKind::Lru);
        c.access(PhysAddr::new(0));
        c.clear();
        assert!(!c.probe(PhysAddr::new(0)));
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn utag_round_trips_through_line() {
        let mut c = l1(PolicyKind::Lru);
        let a = PhysAddr::new(0x40);
        c.access(a);
        assert_eq!(c.line_meta(a).unwrap().utag, None);
        c.set_utag(a, Some(0x5a));
        assert_eq!(c.line_meta(a).unwrap().utag, Some(0x5a));
        // Absent line: silently ignored.
        c.set_utag(PhysAddr::new(0x9_0000), Some(1));
        assert_eq!(c.line_meta(PhysAddr::new(0x9_0000)), None);
    }

    #[test]
    fn set_view_reports_state() {
        let mut c = l1(PolicyKind::TreePlru);
        let g = c.geometry();
        c.access(line(g, 2, 7));
        let v = c.set(2);
        assert_eq!(v.ways(), 8);
        assert_eq!(v.valid_count(), 1);
        assert_eq!(v.find_way(7), Some(0));
        assert_eq!(v.line(0).unwrap().tag, 7);
        assert_eq!(v.locked_mask(), WayMask::EMPTY);
        let dbg = format!("{v:?}");
        assert!(
            dbg.contains("repl"),
            "debug must expose replacement state: {dbg}"
        );
    }

    proptest! {
        /// No set ever holds more valid lines than it has ways, and
        /// every access leaves the accessed line resident.
        #[test]
        fn capacity_invariant(
            addrs in proptest::collection::vec(0u64..1 << 20, 1..300),
            kind_idx in 0usize..5,
        ) {
            let kind = [
                PolicyKind::Lru,
                PolicyKind::TreePlru,
                PolicyKind::BitPlru,
                PolicyKind::Fifo,
                PolicyKind::Random,
            ][kind_idx];
            let mut c = l1(kind);
            for &raw in &addrs {
                let a = PhysAddr::new(raw);
                c.access(a);
                prop_assert!(c.probe(a), "accessed line must be resident");
            }
            for s in 0..c.geometry().num_sets() as usize {
                prop_assert!(c.set(s).valid_count() <= c.geometry().ways());
            }
        }

        /// Total misses equals total fills for demand-only streams,
        /// and hits+misses = accesses.
        #[test]
        fn stats_consistency(addrs in proptest::collection::vec(0u64..1 << 16, 1..200)) {
            let mut c = l1(PolicyKind::TreePlru);
            let mut hits = 0u64;
            for &raw in &addrs {
                if c.access(PhysAddr::new(raw)).hit {
                    hits += 1;
                }
            }
            let st = c.stats();
            prop_assert_eq!(st.accesses, addrs.len() as u64);
            prop_assert_eq!(st.misses, st.fills);
            prop_assert_eq!(st.accesses - st.misses, hits);
        }
    }
}
