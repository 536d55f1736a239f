//! Multi-level cache hierarchy with cycle-latency accounting.

use crate::addr::{PhysAddr, VirtAddr};
use crate::cache::Cache;
use crate::counters::PerfCounters;
use crate::prefetcher::Prefetcher;
use crate::way_predictor::{UtagCheck, WayPredictor};

/// Access latencies in CPU cycles (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// L1D hit latency.
    pub l1: u32,
    /// L2 hit latency (the "L1 miss" latency the receiver must
    /// distinguish from `l1`).
    pub l2: u32,
    /// LLC hit latency (when an LLC is modelled).
    pub llc: Option<u32>,
    /// Main-memory latency.
    pub mem: u32,
}

impl Latencies {
    /// Intel Sandy Bridge (Xeon E5-2690): L1 4, L2 12 (Table II).
    pub const fn sandy_bridge() -> Self {
        Latencies {
            l1: 4,
            l2: 12,
            llc: Some(40),
            mem: 200,
        }
    }

    /// Intel Skylake (Xeon E3-1245 v5): L1 4, L2 12 (Table II).
    pub const fn skylake() -> Self {
        Latencies {
            l1: 4,
            l2: 12,
            llc: Some(44),
            mem: 210,
        }
    }

    /// AMD Zen (EPYC 7571): L1 4, L2 17 (Table II).
    pub const fn zen() -> Self {
        Latencies {
            l1: 4,
            l2: 17,
            llc: Some(40),
            mem: 250,
        }
    }

    /// The GEM5 configuration of the Fig. 9 defense study: L1D
    /// latency 4, L2 latency 8, 50 ns memory (~100 cycles at 2 GHz).
    pub const fn gem5_fig9() -> Self {
        Latencies {
            l1: 4,
            l2: 8,
            llc: None,
            mem: 100,
        }
    }
}

/// L1↔L2 inclusion policy of a hierarchy.
///
/// [`Inclusion::Inclusive`] is the historical behaviour: a miss
/// installs the line at every level, and L2 evictions are *silent*
/// (a stale L1 copy may outlive its L2 line — the usual simulator
/// simplification). The two other modes are genuinely different
/// backends:
///
/// * [`Inclusion::NonInclusive`] — demand misses fill L1 only; the
///   L2 is populated by L1 victims (a victim-buffer organisation, as
///   on recent AMD and some RISC-V parts).
/// * [`Inclusion::BackInvalidate`] — inclusive, and an L2 eviction
///   **back-invalidates** the L1 copy. This makes one party's fills
///   reach into another party's L1 (the classic inclusion-victim
///   cross-core channel) and deliberately violates the quantum
///   fast-forward soundness condition: a thread's quantum can now
///   change state outside its declared footprint, so the execution
///   engine must demote such hierarchies to block execution (see
///   [`CacheHierarchy::quantum_ff_safe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Inclusion {
    /// Fill every level on a miss; L2 evictions are silent.
    #[default]
    Inclusive,
    /// Fill L1 only on a miss; the L2 holds L1 victims.
    NonInclusive,
    /// Inclusive, with L2 evictions invalidating the L1 copy.
    BackInvalidate,
}

/// The level an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the L2 cache (an "L1 miss" in the paper's channel).
    L2,
    /// Served by the last-level cache.
    Llc,
    /// Served by main memory.
    Mem,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Where the data came from.
    pub level: HitLevel,
    /// Cycles the load took (including way-mispredict penalty).
    pub cycles: u32,
    /// Line evicted from L1 by this access, if any.
    pub l1_evicted: Option<PhysAddr>,
    /// Whether the AMD µtag way predictor mispredicted (L1 data was
    /// present but an L1-miss latency was observed, paper §VI-B).
    pub utag_mispredict: bool,
}

/// An L1D / L2 / optional-LLC hierarchy.
///
/// Fills are inclusive (a miss installs the line at every level).
/// An optional [`Prefetcher`] reacts to L1 demand misses and an
/// optional [`WayPredictor`] models the AMD µtag behaviour.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    llc: Option<Cache>,
    lat: Latencies,
    inclusion: Inclusion,
    prefetcher: Option<Prefetcher>,
    way_predictor: Option<WayPredictor>,
}

impl CacheHierarchy {
    /// Assembles a hierarchy from prebuilt levels.
    pub fn new(l1: Cache, l2: Cache, llc: Option<Cache>, lat: Latencies) -> Self {
        Self {
            l1,
            l2,
            llc,
            lat,
            inclusion: Inclusion::Inclusive,
            prefetcher: None,
            way_predictor: None,
        }
    }

    /// Attaches a prefetcher reacting to L1 demand misses.
    #[must_use]
    pub fn with_prefetcher(mut self, p: Prefetcher) -> Self {
        self.prefetcher = Some(p);
        self
    }

    /// Selects the L1↔L2 inclusion policy.
    #[must_use]
    pub fn with_inclusion(mut self, inclusion: Inclusion) -> Self {
        self.inclusion = inclusion;
        self
    }

    /// The configured inclusion policy.
    pub fn inclusion(&self) -> Inclusion {
        self.inclusion
    }

    /// Whether L2 evictions reach into the L1
    /// ([`Inclusion::BackInvalidate`]).
    pub fn has_back_invalidation(&self) -> bool {
        self.inclusion == Inclusion::BackInvalidate
    }

    /// The capability bit the execution engine consults next to a
    /// program's `Footprint` declaration: `true` iff an access can
    /// only change cache state inside the accessed line's own sets.
    /// Back-invalidation breaks this — an L2 fill may invalidate an
    /// unrelated L1 line — so such hierarchies must never be quantum
    /// fast-forwarded.
    pub fn quantum_ff_safe(&self) -> bool {
        !self.has_back_invalidation()
    }

    /// Attaches the AMD µtag way predictor.
    #[must_use]
    pub fn with_way_predictor(mut self, wp: WayPredictor) -> Self {
        self.way_predictor = Some(wp);
        self
    }

    /// The configured latencies.
    pub fn latencies(&self) -> Latencies {
        self.lat
    }

    /// Whether a prefetcher is attached (prefetch fills can install
    /// lines into sets the demand stream never touched, which rules
    /// out footprint-based fast-forwarding).
    pub fn has_prefetcher(&self) -> bool {
        self.prefetcher.is_some()
    }

    /// The L1 data cache.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Mutable L1 (experiments poke replacement state directly).
    pub fn l1_mut(&mut self) -> &mut Cache {
        &mut self.l1
    }

    /// The L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The LLC, when modelled.
    pub fn llc(&self) -> Option<&Cache> {
        self.llc.as_ref()
    }

    /// Performs a demand load.
    ///
    /// `va` is the linear address issuing the load (only consulted by
    /// the way predictor); `pa` is the translated physical address.
    /// Counter updates land in `counters`.
    pub fn access(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        counters: &mut PerfCounters,
    ) -> HierarchyOutcome {
        counters.l1d_accesses += 1;
        let l1_out = self.l1.access(pa);
        if l1_out.hit {
            let mut cycles = self.lat.l1;
            let mut mispredict = false;
            if let Some(wp) = self.way_predictor {
                // The hit outcome already names the line — use the
                // positional µtag accessors instead of re-running
                // the tag search.
                let (set, way) = (l1_out.set, l1_out.way);
                match wp.check(self.l1.utag_at(set, way), va) {
                    UtagCheck::Match => {}
                    UtagCheck::Trained => self.l1.set_utag_at(set, way, Some(wp.utag(va))),
                    UtagCheck::Mismatch => {
                        // Data is in L1 but the µtag belongs to a
                        // different linear address: pay an L1-miss
                        // latency and retrain (§VI-B).
                        self.l1.set_utag_at(set, way, Some(wp.utag(va)));
                        cycles = self.lat.l2;
                        mispredict = true;
                    }
                }
            }
            return HierarchyOutcome {
                level: HitLevel::L1,
                cycles,
                l1_evicted: None,
                utag_mispredict: mispredict,
            };
        }

        counters.l1d_misses += 1;
        counters.l2_accesses += 1;
        let l2_hit = match self.inclusion {
            Inclusion::Inclusive | Inclusion::BackInvalidate => {
                let l2_out = self.l2.access(pa);
                if self.inclusion == Inclusion::BackInvalidate {
                    if let Some(victim) = l2_out.evicted {
                        // Inclusion enforcement: the L2 victim may
                        // not outlive its L2 line in the L1.
                        self.l1.flush_line(victim);
                    }
                }
                l2_out.hit
            }
            Inclusion::NonInclusive => {
                // Demand misses do not allocate in the L2; only L1
                // victims do (below), so touch the L2 line when it
                // is already resident and otherwise leave it alone.
                if self.l2.probe(pa) {
                    self.l2.access(pa).hit
                } else {
                    false
                }
            }
        };
        let (level, cycles) = if l2_hit {
            (HitLevel::L2, self.lat.l2)
        } else {
            counters.l2_misses += 1;
            match (&mut self.llc, self.lat.llc) {
                (Some(llc), Some(llc_lat)) => {
                    counters.llc_accesses += 1;
                    if llc.access(pa).hit {
                        (HitLevel::Llc, llc_lat)
                    } else {
                        counters.llc_misses += 1;
                        (HitLevel::Mem, self.lat.mem)
                    }
                }
                _ => (HitLevel::Mem, self.lat.mem),
            }
        };
        if self.inclusion == Inclusion::NonInclusive {
            if let Some(victim) = l1_out.evicted {
                // Victim allocation: the line the miss pushed out of
                // the L1 moves to the L2.
                self.l2.access(victim);
            }
        }

        if let Some(wp) = self.way_predictor {
            // The miss installed the line at (l1_out.set, l1_out.way).
            self.l1
                .set_utag_at(l1_out.set, l1_out.way, Some(wp.utag(va)));
        }

        let mut prefetched = Vec::new();
        if let Some(pf) = &mut self.prefetcher {
            prefetched = pf.on_miss(pa, self.l1.geometry().line_size());
        }
        for addr in prefetched {
            counters.prefetch_fills += 1;
            self.l1.prefetch_fill(addr);
            match self.inclusion {
                Inclusion::Inclusive => {
                    self.l2.prefetch_fill(addr);
                }
                Inclusion::BackInvalidate => {
                    if let Some(victim) = self.l2.prefetch_fill(addr) {
                        self.l1.flush_line(victim);
                    }
                }
                // Non-inclusive prefetches allocate in the L1 only.
                Inclusion::NonInclusive => {}
            }
        }

        HierarchyOutcome {
            level,
            cycles,
            l1_evicted: l1_out.evicted,
            utag_mispredict: false,
        }
    }

    /// Read-only classification of where `pa` would hit right now.
    pub fn probe_level(&self, pa: PhysAddr) -> HitLevel {
        if self.l1.probe(pa) {
            HitLevel::L1
        } else if self.l2.probe(pa) {
            HitLevel::L2
        } else if self.llc.as_ref().is_some_and(|c| c.probe(pa)) {
            HitLevel::Llc
        } else {
            HitLevel::Mem
        }
    }

    /// `clflush`: invalidates the line at every level (so the next
    /// access goes to memory, as in Flush+Reload-from-memory).
    pub fn flush(&mut self, pa: PhysAddr) {
        self.l1.flush_line(pa);
        self.l2.flush_line(pa);
        if let Some(llc) = &mut self.llc {
            llc.flush_line(pa);
        }
    }

    /// Empties every level.
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        if let Some(llc) = &mut self.llc {
            llc.clear();
        }
    }
}

/// Two cores with private L1s over one shared L2 — the cross-core
/// setting the paper's single-L1 channel cannot express.
///
/// Each party runs on its own core: its loads see only its private
/// L1, and the *only* shared state is the L2 (tags **and**
/// replacement bits). Under [`Inclusion::BackInvalidate`] an L2
/// eviction caused by one core invalidates the other core's L1 copy,
/// which is what makes the inclusion-victim readout work; under
/// [`Inclusion::NonInclusive`] the L2 holds L1 victims and the
/// cross-core signal survives only in the L2 replacement state.
#[derive(Debug, Clone)]
pub struct DualCore {
    l1: [Cache; 2],
    l2: Cache,
    lat: Latencies,
    inclusion: Inclusion,
}

impl DualCore {
    /// Builds two identical private L1s (policy `l1_policy`) over a
    /// shared LRU L2. Seeds are derived per level so the cores'
    /// Random-policy streams stay independent.
    pub fn new(
        l1_geom: crate::geometry::CacheGeometry,
        l1_policy: crate::replacement::PolicyKind,
        l2_geom: crate::geometry::CacheGeometry,
        l2_policy: crate::replacement::PolicyKind,
        lat: Latencies,
        inclusion: Inclusion,
        seed: u64,
    ) -> Self {
        Self {
            l1: [
                Cache::new(l1_geom, l1_policy, seed ^ 0x1111),
                Cache::new(l1_geom, l1_policy, seed ^ 0x2222),
            ],
            l2: Cache::new(l2_geom, l2_policy, seed ^ 0xaaaa),
            lat,
            inclusion,
        }
    }

    /// The configured inclusion policy.
    pub fn inclusion(&self) -> Inclusion {
        self.inclusion
    }

    /// A core's private L1.
    pub fn l1(&self, core: usize) -> &Cache {
        &self.l1[core]
    }

    /// Mutable access to a core's private L1, for modeling local
    /// events that bypass the shared L2 — e.g. a sender evicting its
    /// own copy so a later reload is forced to touch the L2's
    /// replacement state (the cross-core LRU channel's encode step).
    pub fn l1_mut(&mut self, core: usize) -> &mut Cache {
        &mut self.l1[core]
    }

    /// The shared L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// A demand load issued by `core` (0 or 1). Returns where the
    /// line was served from and the cycles it cost that core.
    pub fn access(&mut self, core: usize, pa: PhysAddr) -> HierarchyOutcome {
        let l1_out = self.l1[core].access(pa);
        if l1_out.hit {
            return HierarchyOutcome {
                level: HitLevel::L1,
                cycles: self.lat.l1,
                l1_evicted: None,
                utag_mispredict: false,
            };
        }
        let l2_hit = match self.inclusion {
            Inclusion::Inclusive | Inclusion::BackInvalidate => {
                let l2_out = self.l2.access(pa);
                if self.inclusion == Inclusion::BackInvalidate {
                    if let Some(victim) = l2_out.evicted {
                        // Back-invalidation reaches *both* cores.
                        self.l1[0].flush_line(victim);
                        self.l1[1].flush_line(victim);
                    }
                }
                l2_out.hit
            }
            Inclusion::NonInclusive => {
                if self.l2.probe(pa) {
                    self.l2.access(pa).hit
                } else {
                    false
                }
            }
        };
        if self.inclusion == Inclusion::NonInclusive {
            if let Some(victim) = l1_out.evicted {
                self.l2.access(victim);
            }
        }
        let (level, cycles) = if l2_hit {
            (HitLevel::L2, self.lat.l2)
        } else {
            (HitLevel::Mem, self.lat.mem)
        };
        HierarchyOutcome {
            level,
            cycles,
            l1_evicted: l1_out.evicted,
            utag_mispredict: false,
        }
    }

    /// Read-only classification of where `core`'s load would hit.
    pub fn probe_level(&self, core: usize, pa: PhysAddr) -> HitLevel {
        if self.l1[core].probe(pa) {
            HitLevel::L1
        } else if self.l2.probe(pa) {
            HitLevel::L2
        } else {
            HitLevel::Mem
        }
    }

    /// `clflush` semantics: coherent across both cores and the L2.
    pub fn flush(&mut self, pa: PhysAddr) {
        self.l1[0].flush_line(pa);
        self.l1[1].flush_line(pa);
        self.l2.flush_line(pa);
    }

    /// Empties every cache.
    pub fn clear(&mut self) {
        self.l1[0].clear();
        self.l1[1].clear();
        self.l2.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;
    use crate::replacement::PolicyKind;

    fn small_hierarchy() -> CacheHierarchy {
        let l1 = Cache::new(CacheGeometry::l1d_paper(), PolicyKind::TreePlru, 1);
        let l2 = Cache::new(CacheGeometry::new(64, 512, 8).unwrap(), PolicyKind::Lru, 2);
        let llc = Cache::new(
            CacheGeometry::new(64, 4096, 16).unwrap(),
            PolicyKind::Lru,
            3,
        );
        CacheHierarchy::new(l1, l2, Some(llc), Latencies::sandy_bridge())
    }

    fn a(raw: u64) -> (VirtAddr, PhysAddr) {
        (VirtAddr::new(raw), PhysAddr::new(raw))
    }

    #[test]
    fn first_access_misses_to_memory() {
        let mut h = small_hierarchy();
        let mut c = PerfCounters::new();
        let (va, pa) = a(0x4000);
        let out = h.access(va, pa, &mut c);
        assert_eq!(out.level, HitLevel::Mem);
        assert_eq!(out.cycles, 200);
        assert_eq!(c.l1d_misses, 1);
        assert_eq!(c.l2_misses, 1);
        assert_eq!(c.llc_misses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = small_hierarchy();
        let mut c = PerfCounters::new();
        let (va, pa) = a(0x4000);
        h.access(va, pa, &mut c);
        let out = h.access(va, pa, &mut c);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.cycles, 4);
    }

    #[test]
    fn l1_eviction_leaves_l2_hit() {
        let mut h = small_hierarchy();
        let mut c = PerfCounters::new();
        let stride = h.l1().geometry().set_stride();
        // Fill one L1 set with 9 lines: line 0 falls to L2.
        for i in 0..9u64 {
            let (va, pa) = a(i * stride);
            h.access(va, pa, &mut c);
        }
        let (va, pa) = a(0);
        let out = h.access(va, pa, &mut c);
        assert_eq!(out.level, HitLevel::L2, "evicted L1 line must hit in L2");
        assert_eq!(out.cycles, 12);
    }

    #[test]
    fn probe_level_is_read_only() {
        let mut h = small_hierarchy();
        let mut c = PerfCounters::new();
        let (va, pa) = a(0x80);
        h.access(va, pa, &mut c);
        let before = c;
        assert_eq!(h.probe_level(pa), HitLevel::L1);
        assert_eq!(c, before);
    }

    #[test]
    fn flush_goes_to_memory() {
        let mut h = small_hierarchy();
        let mut c = PerfCounters::new();
        let (va, pa) = a(0xc0);
        h.access(va, pa, &mut c);
        h.flush(pa);
        let out = h.access(va, pa, &mut c);
        assert_eq!(out.level, HitLevel::Mem);
    }

    #[test]
    fn way_predictor_penalizes_foreign_linear_address() {
        let mut h = small_hierarchy().with_way_predictor(WayPredictor::new());
        let mut c = PerfCounters::new();
        let pa = PhysAddr::new(0x2040);
        let va_sender = VirtAddr::from_page(0x7001, 0x40);
        let va_receiver = VirtAddr::from_page(0x5009, 0x40);
        h.access(va_sender, pa, &mut c);
        h.access(va_sender, pa, &mut c); // trains sender utag
        let out = h.access(va_receiver, pa, &mut c);
        assert_eq!(out.level, HitLevel::L1, "data is in L1");
        assert!(out.utag_mispredict);
        assert_eq!(
            out.cycles,
            Latencies::sandy_bridge().l2,
            "observes miss latency"
        );
        // And the receiver retrained it: sender now mispredicts.
        let out = h.access(va_sender, pa, &mut c);
        assert!(out.utag_mispredict);
    }

    #[test]
    fn same_linear_address_keeps_fast_hits() {
        let mut h = small_hierarchy().with_way_predictor(WayPredictor::new());
        let mut c = PerfCounters::new();
        let (va, pa) = a(0x2040);
        h.access(va, pa, &mut c);
        for _ in 0..5 {
            let out = h.access(va, pa, &mut c);
            assert!(!out.utag_mispredict);
            assert_eq!(out.cycles, 4);
        }
    }

    #[test]
    fn next_line_prefetcher_pollutes_neighbour() {
        let mut h = small_hierarchy().with_prefetcher(Prefetcher::next_line());
        let mut c = PerfCounters::new();
        let (va, pa) = a(0x4000);
        h.access(va, pa, &mut c);
        assert_eq!(c.prefetch_fills, 1);
        assert_eq!(h.probe_level(PhysAddr::new(0x4040)), HitLevel::L1);
    }

    #[test]
    fn gem5_profile_has_two_levels() {
        let lat = Latencies::gem5_fig9();
        assert_eq!(lat.llc, None);
    }

    /// A tiny L2 (one set, 2 ways) over the paper L1 so L2 pressure
    /// is easy to generate.
    fn tiny_l2_hierarchy(inclusion: Inclusion) -> CacheHierarchy {
        let l1 = Cache::new(CacheGeometry::l1d_paper(), PolicyKind::TreePlru, 1);
        let l2 = Cache::new(CacheGeometry::new(64, 1, 2).unwrap(), PolicyKind::Lru, 2);
        CacheHierarchy::new(l1, l2, None, Latencies::gem5_fig9()).with_inclusion(inclusion)
    }

    #[test]
    fn back_invalidation_evicts_the_l1_copy() {
        let mut h = tiny_l2_hierarchy(Inclusion::BackInvalidate);
        let mut c = PerfCounters::new();
        // Three distinct L1 sets, so the L1 never self-evicts; the
        // 2-way L2's second fill after `x` pushes `x` out.
        let x = PhysAddr::new(0);
        h.access(VirtAddr::new(0), x, &mut c);
        assert_eq!(h.probe_level(x), HitLevel::L1);
        h.access(VirtAddr::new(0x40), PhysAddr::new(0x40), &mut c);
        h.access(VirtAddr::new(0x80), PhysAddr::new(0x80), &mut c);
        assert_eq!(
            h.probe_level(x),
            HitLevel::Mem,
            "LRU L2 evicted x; back-invalidation must remove it from L1 too"
        );
        // The silent-inclusive baseline keeps the stale L1 copy.
        let mut h = tiny_l2_hierarchy(Inclusion::Inclusive);
        h.access(VirtAddr::new(0), x, &mut c);
        h.access(VirtAddr::new(0x40), PhysAddr::new(0x40), &mut c);
        h.access(VirtAddr::new(0x80), PhysAddr::new(0x80), &mut c);
        assert_eq!(h.probe_level(x), HitLevel::L1);
    }

    #[test]
    fn non_inclusive_l2_holds_l1_victims_only() {
        let mut h = tiny_l2_hierarchy(Inclusion::NonInclusive);
        let mut c = PerfCounters::new();
        let stride = h.l1().geometry().set_stride();
        let first = PhysAddr::new(0);
        // A demand miss fills L1 but not L2.
        h.access(VirtAddr::new(0), first, &mut c);
        assert!(h.l1().probe(first));
        assert!(!h.l2().probe(first));
        // Overflow the 8-way L1 set: the victim moves into the L2.
        for i in 1..9u64 {
            h.access(VirtAddr::new(i * stride), PhysAddr::new(i * stride), &mut c);
        }
        assert!(!h.l1().probe(first), "line 0 must be the Tree-PLRU victim");
        assert_eq!(h.probe_level(first), HitLevel::L2);
    }

    #[test]
    fn ff_capability_bit_tracks_inclusion() {
        assert!(tiny_l2_hierarchy(Inclusion::Inclusive).quantum_ff_safe());
        assert!(tiny_l2_hierarchy(Inclusion::NonInclusive).quantum_ff_safe());
        let h = tiny_l2_hierarchy(Inclusion::BackInvalidate);
        assert!(h.has_back_invalidation());
        assert!(!h.quantum_ff_safe());
    }

    #[test]
    fn dual_core_inclusion_victim_crosses_cores() {
        let l1_geom = CacheGeometry::l1d_paper();
        let l2_geom = CacheGeometry::new(64, 1, 2).unwrap();
        let mut d = DualCore::new(
            l1_geom,
            PolicyKind::TreePlru,
            l2_geom,
            PolicyKind::Lru,
            Latencies::gem5_fig9(),
            Inclusion::BackInvalidate,
            7,
        );
        let x = PhysAddr::new(0);
        d.access(0, x);
        assert_eq!(d.probe_level(0, x), HitLevel::L1);
        // Core 1 cycles the 2-way shared L2: x is evicted there and
        // back-invalidated out of core 0's private L1.
        d.access(1, PhysAddr::new(0x40));
        d.access(1, PhysAddr::new(0x80));
        assert_eq!(
            d.probe_level(0, x),
            HitLevel::Mem,
            "core 1's L2 pressure must reach core 0's L1"
        );
    }

    #[test]
    fn dual_core_l1s_are_private() {
        let mut d = DualCore::new(
            CacheGeometry::l1d_paper(),
            PolicyKind::TreePlru,
            CacheGeometry::new(64, 512, 8).unwrap(),
            PolicyKind::Lru,
            Latencies::sandy_bridge(),
            Inclusion::Inclusive,
            7,
        );
        let pa = PhysAddr::new(0x1000);
        d.access(0, pa);
        assert_eq!(d.probe_level(0, pa), HitLevel::L1);
        // The other core sees it only at the shared level.
        assert_eq!(d.probe_level(1, pa), HitLevel::L2);
        assert_eq!(d.access(1, pa).level, HitLevel::L2);
    }
}
