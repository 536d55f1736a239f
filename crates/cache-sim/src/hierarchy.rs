//! Multi-level cache hierarchy with cycle-latency accounting: the one
//! model of the three L1↔L2 [`Inclusion`] policies, for one core or
//! for several cores with private L1s over shared levels.

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
/// Fills follow the [`Inclusion`] policy (inclusive by default: a
/// miss installs the line at every level). An optional
/// [`Prefetcher`] reacts to L1 demand misses and an optional
/// [`WayPredictor`] models the AMD µtag behaviour.
///
/// Core 0's L1 is the one [`access`](Self::access), [`l1`](Self::l1)
/// and [`probe_level`](Self::probe_level) address. Cores added with
/// [`with_core`](Self::with_core) load through
/// [`access_from`](Self::access_from): each sees only its private L1
/// and shares the L2 (tags **and** replacement bits) and the LLC.
/// Under [`Inclusion::BackInvalidate`] an L2 eviction caused by one
/// core invalidates every core's L1 copy — the cross-core
/// inclusion-victim channel. Methods taking a `core` panic if the
/// hierarchy has no such core.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    /// Private L1s of cores 1, 2, …; empty on a one-core hierarchy.
    /// Core 0's L1 stays a plain field so its hot path never indexes.
    core_l1s: Vec<Cache>,
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
            core_l1s: Vec::new(),
            l2,
            llc,
            lat,
            inclusion: Inclusion::Inclusive,
            prefetcher: None,
            way_predictor: None,
        }
    }

    /// Adds one core with private L1 `l1` over the shared levels; the
    /// first call adds core 1, the next core 2, and so on.
    #[must_use]
    pub fn with_core(mut self, l1: Cache) -> Self {
        self.core_l1s.push(l1);
        self
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

    /// A core's private L1 (core 0's is [`l1_mut`](Self::l1_mut)),
    /// for local events that bypass the shared levels — e.g. a sender
    /// evicting its own copy so its next load must reach the L2.
    #[inline(always)]
    pub fn core_l1_mut(&mut self, core: usize) -> &mut Cache {
        match core {
            0 => &mut self.l1,
            _ => &mut self.core_l1s[core - 1],
        }
    }

    /// Performs a demand load on core 0.
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
        self.access_from(0, va, pa, counters)
    }

    /// Performs a demand load on `core`, which sees its private L1
    /// and the shared levels. The way predictor's µtags and the
    /// prefetcher's fills land in that core's L1.
    // Always inlined, so `access` folds `core == 0` and core 0's hot
    // path reads its L1 field with no index.
    #[inline(always)]
    pub fn access_from(
        &mut self,
        core: usize,
        va: VirtAddr,
        pa: PhysAddr,
        counters: &mut PerfCounters,
    ) -> HierarchyOutcome {
        counters.l1d_accesses += 1;
        let l1_out = self.core_l1_mut(core).access(pa);
        if l1_out.hit {
            let mut cycles = self.lat.l1;
            let mut mispredict = false;
            if let Some(wp) = self.way_predictor {
                // The hit outcome already names the line — use the
                // positional µtag accessors instead of re-running
                // the tag search.
                let (set, way) = (l1_out.set, l1_out.way);
                let l1 = self.core_l1_mut(core);
                match wp.check(l1.utag_at(set, way), va) {
                    UtagCheck::Match => {}
                    UtagCheck::Trained => l1.set_utag_at(set, way, Some(wp.utag(va))),
                    UtagCheck::Mismatch => {
                        // Data is in L1 but the µtag belongs to a
                        // different linear address: pay an L1-miss
                        // latency and retrain (§VI-B).
                        l1.set_utag_at(set, way, Some(wp.utag(va)));
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
                        // not outlive its L2 line in any L1.
                        self.back_invalidate(victim);
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
            self.core_l1_mut(core)
                .set_utag_at(l1_out.set, l1_out.way, Some(wp.utag(va)));
        }

        let mut prefetched = Vec::new();
        if let Some(pf) = &mut self.prefetcher {
            prefetched = pf.on_miss(pa, self.l1.geometry().line_size());
        }
        for addr in prefetched {
            counters.prefetch_fills += 1;
            self.core_l1_mut(core).prefetch_fill(addr);
            match self.inclusion {
                Inclusion::Inclusive => {
                    self.l2.prefetch_fill(addr);
                }
                Inclusion::BackInvalidate => {
                    if let Some(victim) = self.l2.prefetch_fill(addr) {
                        self.back_invalidate(victim);
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

    /// Invalidates `pa` in every core's L1.
    fn back_invalidate(&mut self, pa: PhysAddr) {
        self.l1.flush_line(pa);
        for l1 in &mut self.core_l1s {
            l1.flush_line(pa);
        }
    }

    /// Read-only classification of where a core-0 load of `pa` would
    /// hit right now.
    pub fn probe_level(&self, pa: PhysAddr) -> HitLevel {
        self.probe_level_from(0, pa)
    }

    /// Read-only classification of where a load of `pa` by `core`
    /// would hit right now.
    pub fn probe_level_from(&self, core: usize, pa: PhysAddr) -> HitLevel {
        let l1 = match core {
            0 => &self.l1,
            _ => &self.core_l1s[core - 1],
        };
        if l1.probe(pa) {
            HitLevel::L1
        } else if self.l2.probe(pa) {
            HitLevel::L2
        } else if self.llc.as_ref().is_some_and(|c| c.probe(pa)) {
            HitLevel::Llc
        } else {
            HitLevel::Mem
        }
    }

    /// `clflush`: invalidates the line at every level and in every
    /// core's L1 (so the next access goes to memory, as in
    /// Flush+Reload-from-memory).
    pub fn flush(&mut self, pa: PhysAddr) {
        self.back_invalidate(pa);
        self.l2.flush_line(pa);
        if let Some(llc) = &mut self.llc {
            llc.flush_line(pa);
        }
    }

    /// Empties every level and every core's L1.
    pub fn clear(&mut self) {
        self.l1.clear();
        for l1 in &mut self.core_l1s {
            l1.clear();
        }
        self.l2.clear();
        if let Some(llc) = &mut self.llc {
            llc.clear();
        }
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

    /// Two cores over `l2_geom` (LRU): each core's private L1 is the
    /// paper's Tree-PLRU L1D.
    fn two_cores(l2_geom: CacheGeometry, lat: Latencies, inclusion: Inclusion) -> CacheHierarchy {
        let l1 = |seed| Cache::new(CacheGeometry::l1d_paper(), PolicyKind::TreePlru, seed);
        CacheHierarchy::new(l1(1), Cache::new(l2_geom, PolicyKind::Lru, 2), None, lat)
            .with_inclusion(inclusion)
            .with_core(l1(3))
    }

    fn load(h: &mut CacheHierarchy, core: usize, pa: PhysAddr) -> HierarchyOutcome {
        h.access_from(core, VirtAddr::new(pa.raw()), pa, &mut PerfCounters::new())
    }

    #[test]
    fn dual_core_inclusion_victim_crosses_cores() {
        let mut h = two_cores(
            CacheGeometry::new(64, 1, 2).unwrap(),
            Latencies::gem5_fig9(),
            Inclusion::BackInvalidate,
        );
        let x = PhysAddr::new(0);
        load(&mut h, 0, x);
        assert_eq!(h.probe_level_from(0, x), HitLevel::L1);
        // Core 1 cycles the 2-way shared L2: x is evicted there and
        // back-invalidated out of core 0's private L1.
        load(&mut h, 1, PhysAddr::new(0x40));
        load(&mut h, 1, PhysAddr::new(0x80));
        assert_eq!(
            h.probe_level_from(0, x),
            HitLevel::Mem,
            "core 1's L2 pressure must reach core 0's L1"
        );
    }

    #[test]
    fn dual_core_l1s_are_private() {
        let mut h = two_cores(
            CacheGeometry::new(64, 512, 8).unwrap(),
            Latencies::sandy_bridge(),
            Inclusion::Inclusive,
        );
        let pa = PhysAddr::new(0x1000);
        load(&mut h, 0, pa);
        assert_eq!(h.probe_level_from(0, pa), HitLevel::L1);
        // The other core sees it only at the shared level.
        assert_eq!(h.probe_level_from(1, pa), HitLevel::L2);
        assert_eq!(load(&mut h, 1, pa).level, HitLevel::L2);
    }
}
