//! A fixed-geometry L1+L2 kernel for trace-driven studies that replay
//! one address stream under several L1 replacement policies.
//!
//! [`TwoLevel`] is the inclusive two-level
//! [`CacheHierarchy`](crate::hierarchy::CacheHierarchy) that
//! [`MicroArch::build_hierarchy`] builds for the Fig. 9 GEM5
//! configuration — an 8-way L1D under the policy being studied over
//! a 16-way true-LRU L2, no LLC, no way predictor, no prefetcher —
//! with everything else taken out. Each level is a flat array of set
//! rows laid out exactly like a row of the cache's flat storage
//! (`[tags | valid mask | repl words]`), and a demand access runs the
//! same tag search (`storage::find_in_row`), the same fused row
//! access (`storage::row_access`) and the same packed `ReplPolicy`
//! logic as `Cache::access`, with the same per-set Random generators
//! (`random_streams`). So there is no second copy of any policy's
//! semantics: the kernel differs from the hierarchy only in what it
//! leaves out. The way counts are constants, so the tag compares and
//! the victim searches unroll.
//!
//! The Fig. 9 study (`workloads::cpi::measure_policies`) generates
//! each benchmark's address stream once and steps one kernel per
//! policy over it; the workspace `two_level_kernel` suite pins the
//! kernel against a `CacheHierarchy` for every L1 policy.

use crate::addr::PhysAddr;
use crate::counters::PerfCounters;
use crate::geometry::CacheGeometry;
use crate::hierarchy::Latencies;
use crate::profiles::MicroArch;
use crate::replacement::packed::{random_streams, ReplPolicy};
use crate::replacement::PolicyKind;
use crate::storage::{find_in_row, row_access};
use rand::rngs::SmallRng;

/// L1D associativity a [`TwoLevel`] models.
const L1_WAYS: usize = 8;

/// L2 associativity a [`TwoLevel`] models.
const L2_WAYS: usize = 16;

/// One level: `sets` rows of `ROW` words for a `W`-way cache. `ROW`
/// covers `W` tags, the valid word and the level's replacement
/// state; policies with fewer state words leave the tail at zero.
#[derive(Debug, Clone)]
struct Level<const W: usize, const ROW: usize> {
    geom: CacheGeometry,
    rows: Vec<[u64; ROW]>,
    policy: ReplPolicy,
    /// Per-set Random generators (empty for every other policy).
    rngs: Vec<SmallRng>,
}

impl<const W: usize, const ROW: usize> Level<W, ROW> {
    fn new(geom: CacheGeometry, kind: PolicyKind, seed: u64) -> Self {
        assert_eq!(geom.ways(), W, "level must be {W}-way");
        assert!(
            W + 1 + ReplPolicy::words_per_set(kind, W) <= ROW,
            "{kind} state does not fit a {ROW}-word row"
        );
        let sets = geom.num_sets() as usize;
        Self {
            geom,
            rows: vec![[0; ROW]; sets],
            policy: ReplPolicy::new(kind, W),
            rngs: random_streams(kind, sets, seed),
        }
    }

    /// Demand access to the line holding `pa`; returns whether it
    /// hit. Exactly `Cache::access` on the same cache, minus the
    /// outcome bookkeeping.
    #[inline(always)]
    fn access(&mut self, pa: u64) -> bool {
        let set = self.geom.set_index(pa);
        let tag = self.geom.tag(pa);
        let row = &mut self.rows[set];
        let found = find_in_row(&row[..W], row[W], tag);
        row_access(&self.policy, self.rngs.get_mut(set), row, W, tag, found).hit
    }
}

/// The Fig. 9 two-level hierarchy as a fixed-geometry value.
///
/// Behaves exactly like the [`CacheHierarchy`] that
/// [`MicroArch::build_hierarchy`] builds from the same arch, policy
/// and seed: the same latencies, the same counter updates, the same
/// lines in the same ways.
///
/// ```
/// use cache_sim::two_level::TwoLevel;
/// use cache_sim::{MicroArch, PerfCounters, PhysAddr, PolicyKind};
/// let mut lane = TwoLevel::new(&MicroArch::gem5_fig9(), PolicyKind::Fifo, 1);
/// let mut c = PerfCounters::new();
/// let pa = PhysAddr::new(0x1000);
/// assert_eq!(lane.access(pa, &mut c), 100); // memory
/// assert_eq!(lane.access(pa, &mut c), 4); // L1 hit
/// assert_eq!((c.l1d_accesses, c.l1d_misses, c.l2_misses), (2, 1, 1));
/// ```
///
/// [`CacheHierarchy`]: crate::hierarchy::CacheHierarchy
#[derive(Debug, Clone)]
pub struct TwoLevel {
    /// 8-way L1D; rows hold the largest 8-way state (LRU/FIFO: a
    /// clock plus one stamp per way).
    l1: Level<L1_WAYS, { L1_WAYS + 1 + 1 + L1_WAYS }>,
    /// 16-way LRU L2.
    l2: Level<L2_WAYS, { L2_WAYS + 1 + 1 + L2_WAYS }>,
    lat: Latencies,
}

impl TwoLevel {
    /// The hierarchy of `arch` with L1D policy `l1_policy`, seeded as
    /// [`MicroArch::build_hierarchy`] seeds it (L1 `seed`, L2
    /// `seed ^ 0xaaaa`).
    ///
    /// # Panics
    ///
    /// Panics unless `arch` has an 8-way L1D, a 16-way L2, no LLC and
    /// no way predictor (a `MicroArch` never attaches a prefetcher).
    /// There is no general fallback: callers with other shapes use
    /// the `CacheHierarchy`.
    pub fn new(arch: &MicroArch, l1_policy: PolicyKind, seed: u64) -> Self {
        assert_eq!(arch.l1d.ways(), L1_WAYS, "{}: L1D must be 8-way", arch.name);
        assert_eq!(arch.l2.ways(), L2_WAYS, "{}: L2 must be 16-way", arch.name);
        assert!(arch.llc.is_none(), "{}: no LLC expected", arch.name);
        assert!(
            !arch.has_way_predictor,
            "{}: no way predictor expected",
            arch.name
        );
        Self {
            l1: Level::new(arch.l1d, l1_policy, seed),
            l2: Level::new(arch.l2, PolicyKind::Lru, seed ^ 0xaaaa),
            lat: arch.latencies,
        }
    }

    /// Performs a demand load of `pa` and returns the cycles it took;
    /// counter updates land in `counters`, as in
    /// [`CacheHierarchy::access`](crate::hierarchy::CacheHierarchy::access).
    #[inline]
    pub fn access(&mut self, pa: PhysAddr, counters: &mut PerfCounters) -> u32 {
        counters.l1d_accesses += 1;
        if self.l1.access(pa.raw()) {
            return self.lat.l1;
        }
        counters.l1d_misses += 1;
        counters.l2_accesses += 1;
        // Inclusive fill with silent L2 evictions: the L2 sees every
        // L1 miss and nothing else.
        if self.l2.access(pa.raw()) {
            self.lat.l2
        } else {
            counters.l2_misses += 1;
            self.lat.mem
        }
    }
}
