//! The reference two-core hierarchy: two private L1s over one shared
//! L2, no LLC, prefetcher or way predictor, with the three inclusion
//! policies written out for exactly two cores. This is the model the
//! cross-core artifacts (`l2_lru_channel`, `l2_inclusion_victim`)
//! ran on before they moved to `CacheHierarchy::with_core`, which
//! must match it step for step.

use lru_leak::cache_sim::addr::PhysAddr;
use lru_leak::cache_sim::cache::Cache;
use lru_leak::cache_sim::geometry::CacheGeometry;
use lru_leak::cache_sim::hierarchy::{HierarchyOutcome, HitLevel, Inclusion, Latencies};
use lru_leak::cache_sim::replacement::PolicyKind;

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
pub struct TwoCoreReference {
    l1: [Cache; 2],
    l2: Cache,
    lat: Latencies,
    inclusion: Inclusion,
}

impl TwoCoreReference {
    /// Builds two identical private L1s (policy `l1_policy`) over a
    /// shared LRU L2. Seeds are derived per level so the cores'
    /// Random-policy streams stay independent.
    pub fn new(
        l1_geom: CacheGeometry,
        l1_policy: PolicyKind,
        l2_geom: CacheGeometry,
        l2_policy: PolicyKind,
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
