//! Partition-Locked (PL) cache (Wang & Lee 2007), as analysed and
//! fixed by the paper (§IX-B, Figs. 10 and 11).
//!
//! A PL cache extends each line with a *lock bit*. Locked lines are
//! never evicted: if the replacement policy chooses a locked victim,
//! the incoming line is handled *uncached* (no replacement happens).
//!
//! The paper's observation: in the **original** design, accesses to a
//! locked line still update the set's LRU state, so a sender can lock
//! its line and keep signalling through LRU updates (Fig. 11 top).
//! The **fixed** design also freezes the LRU state for accesses to
//! locked lines (the blue boxes of Fig. 10), closing the channel
//! (Fig. 11 bottom).
//!
//! Like [`crate::cache::Cache`], storage is the flat
//! structure-of-arrays layout shared with [`crate::cache::Cache`]; the lock bits
//! live in the per-set lock bitmask word, so the locked-victim check
//! is a single bit test.

use crate::addr::PhysAddr;
use crate::cache::{CacheStats, SetView};
use crate::geometry::CacheGeometry;
use crate::line::LineMeta;
use crate::replacement::{PolicyKind, WayMask};
use crate::storage::SoaStore;

/// Which PL-cache variant to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlDesign {
    /// Wang & Lee 2007: lock bits protect the *data*, but every
    /// access — including to locked lines — updates the replacement
    /// state. Vulnerable to the LRU channel.
    Original,
    /// The paper's fix: accesses to locked lines do not update the
    /// replacement state, and an uncached (locked-victim) miss also
    /// leaves the state untouched.
    Fixed,
}

/// A request to the PL cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlRequest {
    /// Ordinary load/store.
    Access,
    /// Load and set the lock bit.
    Lock,
    /// Load and clear the lock bit.
    Unlock,
}

/// Result of one PL-cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a miss was handled uncached because the chosen victim
    /// was locked (no line installed).
    pub uncached: bool,
    /// Line evicted to make room, if any.
    pub evicted: Option<PhysAddr>,
}

/// A single-level PL cache (the paper evaluates it as the L1D in
/// GEM5; higher levels are modelled by a fixed miss latency in the
/// defense experiments).
///
/// ```
/// use cache_sim::plcache::{PlCache, PlDesign, PlRequest};
/// use cache_sim::{CacheGeometry, PolicyKind, PhysAddr};
/// let geom = CacheGeometry::l1d_paper();
/// let mut pl = PlCache::new(geom, PolicyKind::TreePlru, PlDesign::Fixed, 0);
/// // Lock a line: it will survive any amount of contention.
/// pl.request(PhysAddr::new(0), PlRequest::Lock);
/// for i in 1..100u64 {
///     pl.request(PhysAddr::new(i * geom.set_stride()), PlRequest::Access);
/// }
/// assert!(pl.probe(PhysAddr::new(0)));
/// ```
#[derive(Debug, Clone)]
pub struct PlCache {
    geom: CacheGeometry,
    store: SoaStore,
    kind: PolicyKind,
    design: PlDesign,
    stats: CacheStats,
}

impl PlCache {
    /// Creates an empty PL cache.
    ///
    /// # Panics
    ///
    /// Panics if the policy requires a power-of-two way count and the
    /// geometry's is not (see [`crate::replacement::Policy::new`]).
    pub fn new(geom: CacheGeometry, kind: PolicyKind, design: PlDesign, seed: u64) -> Self {
        Self {
            geom,
            store: SoaStore::new(kind, geom.num_sets() as usize, geom.ways(), seed),
            kind,
            design,
            stats: CacheStats::default(),
        }
    }

    /// Which design variant this cache simulates.
    pub fn design(&self) -> PlDesign {
        self.design
    }

    /// The replacement policy in use.
    pub fn policy_kind(&self) -> PolicyKind {
        self.kind
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `pa`'s line is present (no state change).
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.locate(pa);
        self.store.find_way(set, tag).is_some()
    }

    /// Whether `pa`'s line is present *and locked*.
    pub fn is_locked(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.locate(pa);
        self.store
            .find_way(set, tag)
            .is_some_and(|w| self.store.is_locked(set, w))
    }

    /// Issues a request, implementing the Fig. 10 flow chart.
    pub fn request(&mut self, pa: PhysAddr, req: PlRequest) -> PlOutcome {
        let (set_idx, tag) = self.locate(pa);
        let design = self.design;
        let ways = self.store.ways();
        self.stats.accesses += 1;

        if let Some(way) = self.store.find_way(set_idx, tag) {
            // Cache hit.
            let locked = self.store.is_locked(set_idx, way);
            let update_state = match (design, locked) {
                // Original design: every hit updates LRU state —
                // the vulnerability.
                (PlDesign::Original, _) => true,
                // Fixed design: accesses to locked lines leave the
                // replacement state untouched.
                (PlDesign::Fixed, true) => false,
                (PlDesign::Fixed, false) => true,
            };
            if update_state {
                self.store.touch(set_idx, way);
            }
            match req {
                PlRequest::Lock => self.store.set_locked(set_idx, way, true),
                PlRequest::Unlock => self.store.set_locked(set_idx, way, false),
                PlRequest::Access => {}
            }
            return PlOutcome {
                hit: true,
                uncached: false,
                evicted: None,
            };
        }

        // Cache miss: choose victim based on replacement policy
        // (locks are checked *after* selection, per Fig. 10).
        self.stats.misses += 1;
        let way = self.store.choose_fill_way(set_idx, WayMask::all(ways));
        if self.store.is_locked(set_idx, way) {
            // Locked victim: handle the incoming line uncached; no
            // replacement occurs. The replacement state of the
            // victim is still updated (the "Update replacement state
            // of victim" box of Fig. 10) so the pointer rotates off
            // the locked way instead of freezing every future miss
            // of this set into the uncached path.
            self.store.touch(set_idx, way);
            return PlOutcome {
                hit: false,
                uncached: true,
                evicted: None,
            };
        }
        self.stats.fills += 1;
        let mut meta = LineMeta::new(tag);
        if req == PlRequest::Lock {
            meta.locked = true;
        }
        let evicted = self.store.install(set_idx, way, meta);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        self.store.record_fill(set_idx, way);
        PlOutcome {
            hit: false,
            uncached: false,
            evicted: evicted.map(|m| PhysAddr::new(self.geom.line_addr(m.tag, set_idx))),
        }
    }

    /// The way holding `pa`'s line, if present (no state change).
    pub fn way_of(&self, pa: PhysAddr) -> Option<usize> {
        let (set_idx, tag) = self.locate(pa);
        self.store.find_way(set_idx, tag)
    }

    /// Installs the line for `pa` without counting a demand access
    /// (prefetch fill), mirroring [`crate::cache::Cache::prefetch_fill`].
    /// A locked victim turns the fill into a no-op (uncached), and a
    /// line already present is left untouched.
    pub fn prefetch_fill(&mut self, pa: PhysAddr) -> Option<PhysAddr> {
        let (set_idx, tag) = self.locate(pa);
        if self.store.find_way(set_idx, tag).is_some() {
            return None;
        }
        let ways = self.store.ways();
        let way = self.store.choose_fill_way(set_idx, WayMask::all(ways));
        if self.store.is_locked(set_idx, way) {
            return None;
        }
        self.stats.fills += 1;
        let evicted = self.store.install(set_idx, way, LineMeta::new(tag));
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        self.store.record_fill(set_idx, way);
        evicted.map(|m| PhysAddr::new(self.geom.line_addr(m.tag, set_idx)))
    }

    /// Invalidates the line containing `pa` (its lock bit goes with
    /// it). Returns whether a line was removed.
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

    /// Empties the cache and resets all replacement/lock state and
    /// stats.
    pub fn clear(&mut self) {
        self.store.clear();
        self.stats = CacheStats::default();
    }

    /// Read-only view of a set (inspection).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_sets`.
    pub fn set(&self, idx: usize) -> SetView<'_> {
        assert!(
            (idx as u64) < self.geom.num_sets(),
            "set index {idx} out of range"
        );
        SetView::over(&self.store, idx)
    }

    fn locate(&self, pa: PhysAddr) -> (usize, u64) {
        (self.geom.set_index(pa.raw()), self.geom.tag(pa.raw()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(design: PlDesign) -> PlCache {
        PlCache::new(CacheGeometry::l1d_paper(), PolicyKind::TreePlru, design, 7)
    }

    fn line(geom: CacheGeometry, i: u64) -> PhysAddr {
        PhysAddr::new(i * geom.set_stride())
    }

    #[test]
    fn locked_lines_survive_contention() {
        for design in [PlDesign::Original, PlDesign::Fixed] {
            let mut c = pl(design);
            let g = c.geometry();
            c.request(line(g, 0), PlRequest::Lock);
            assert!(c.is_locked(line(g, 0)));
            for i in 1..64 {
                c.request(line(g, i), PlRequest::Access);
            }
            assert!(c.probe(line(g, 0)), "{design:?}: locked line was evicted");
        }
    }

    #[test]
    fn unlock_releases_line() {
        let mut c = pl(PlDesign::Fixed);
        let g = c.geometry();
        c.request(line(g, 0), PlRequest::Lock);
        c.request(line(g, 0), PlRequest::Unlock);
        assert!(!c.is_locked(line(g, 0)));
    }

    #[test]
    fn locked_victim_miss_is_uncached() {
        let mut c = pl(PlDesign::Fixed);
        let g = c.geometry();
        // Lock all 8 ways of set 0.
        for i in 0..8 {
            c.request(line(g, i), PlRequest::Lock);
        }
        let out = c.request(line(g, 8), PlRequest::Access);
        assert!(!out.hit);
        assert!(out.uncached);
        assert!(!c.probe(line(g, 8)));
        // All locked lines still present.
        for i in 0..8 {
            assert!(c.probe(line(g, i)));
        }
    }

    #[test]
    fn original_design_updates_lru_on_locked_hit() {
        // The vulnerability: hitting a locked line changes which way
        // the policy will victimize next.
        let mut c = pl(PlDesign::Original);
        let g = c.geometry();
        c.request(line(g, 8), PlRequest::Lock); // sender's locked line in way 0
        for i in 0..7 {
            c.request(line(g, i), PlRequest::Access); // fill other ways
        }
        let before = {
            let mut probe = c.clone();
            probe.request(line(g, 100), PlRequest::Access).evicted
        };
        // Sender hits its locked line...
        c.request(line(g, 8), PlRequest::Access);
        let after = c.request(line(g, 100), PlRequest::Access).evicted;
        assert_ne!(before, after, "locked-line hit must perturb the victim");
    }

    #[test]
    fn fixed_design_freezes_lru_on_locked_hit() {
        let mut c = pl(PlDesign::Fixed);
        let g = c.geometry();
        c.request(line(g, 8), PlRequest::Lock);
        for i in 0..7 {
            c.request(line(g, i), PlRequest::Access);
        }
        let mut without_hit = c.clone();
        // Sender hits its locked line in one world only.
        c.request(line(g, 8), PlRequest::Access);
        let evicted_with = c.request(line(g, 100), PlRequest::Access).evicted;
        let evicted_without = without_hit.request(line(g, 100), PlRequest::Access).evicted;
        assert_eq!(
            evicted_with, evicted_without,
            "fixed design must hide locked-line hits from the LRU state"
        );
    }

    #[test]
    fn lock_request_on_miss_installs_locked() {
        let mut c = pl(PlDesign::Fixed);
        let g = c.geometry();
        let out = c.request(line(g, 3), PlRequest::Lock);
        assert!(!out.hit);
        assert!(c.is_locked(line(g, 3)));
    }

    #[test]
    fn stats_track_uncached_misses() {
        let mut c = pl(PlDesign::Fixed);
        let g = c.geometry();
        for i in 0..8 {
            c.request(line(g, i), PlRequest::Lock);
        }
        let before = c.stats();
        c.request(line(g, 9), PlRequest::Access);
        let after = c.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.fills, before.fills, "uncached miss must not fill");
    }

    #[test]
    fn set_view_exposes_locked_mask() {
        let mut c = pl(PlDesign::Fixed);
        let g = c.geometry();
        c.request(line(g, 0), PlRequest::Lock);
        c.request(line(g, 1), PlRequest::Access);
        let v = c.set(0);
        assert_eq!(v.valid_count(), 2);
        assert_eq!(v.locked_mask().iter().collect::<Vec<_>>(), vec![0]);
    }
}
