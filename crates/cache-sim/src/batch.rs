//! Lane-batched cache storage for lockstep trial execution.
//!
//! [`BatchCache`] holds `K` independent instances of the same cache
//! level — identical geometry and policy kind, per-lane seeds — in a
//! *lane-major* structure-of-arrays:
//!
//! ```text
//! data: [lane 0, set 0: ways tags | valid mask | repl row]
//!       [lane 0, set 1: ...] .. [lane 1, set 0: ...] ..
//! ```
//!
//! The layout exists for the lockstep trial driver
//! (`lru_channel::lockstep`): N trials of the same scenario differ
//! only in their seeds, so they share one allocation, one batched
//! construction and one batched warmup ([`BatchCache::access_all`])
//! instead of K machine builds. Lane-major means every lane's sets
//! sit side by side, and each set is one contiguous *record* — tag
//! row, valid word and packed replacement row together. That shape
//! is deliberate: per-trial jitter makes the trials' thread
//! interleavings diverge, so the hot phase steps each lane's own
//! loop, and one access then reads exactly one record — a host cache
//! line or two — instead of striding three parallel arrays (or, in a
//! lane-minor layout, `ways` distinct lines per tag compare). Every
//! policy update goes through the exact same packed `ReplPolicy`
//! logic (`crate::replacement::packed`) as the scalar
//! [`Cache`](crate::cache::Cache) — including the per-set `SmallRng`
//! streams of the Random policy — which is what keeps every lane
//! bit-identical to a scalar cache with the same seed (pinned by the
//! in-module equivalence tests and the workspace
//! `lockstep_equivalence` suite).
//!
//! PL locks and way-predictor µtags are deliberately not modelled:
//! the lockstep driver only runs scenarios whose hierarchies use
//! neither (its eligibility check excludes way-predictor platforms,
//! and locked lines only arise through `PlCache`).

use crate::addr::PhysAddr;
use crate::cache::{AccessOutcome, CacheStats};
use crate::geometry::CacheGeometry;
use crate::replacement::packed::{random_streams, ReplPolicy};
use crate::replacement::{Domain, PolicyKind};
use crate::storage::{find_in_row, row_access};
use rand::rngs::SmallRng;

/// `K` independent caches of one level in lane-major SoA form.
///
/// Every lane behaves exactly like a
/// [`Cache`](crate::cache::Cache) built with the same geometry,
/// policy kind and that lane's seed; lanes never interact.
///
/// ```
/// use cache_sim::batch::BatchCache;
/// use cache_sim::{CacheGeometry, PhysAddr, PolicyKind};
/// let mut b = BatchCache::new(CacheGeometry::l1d_paper(), PolicyKind::TreePlru, &[1, 2]);
/// assert!(!b.access_lane(0, PhysAddr::new(0)).hit);
/// assert!(b.access_lane(0, PhysAddr::new(0)).hit);
/// // Lane 1 is untouched by lane 0's accesses.
/// assert!(!b.access_lane(1, PhysAddr::new(0)).hit);
/// ```
#[derive(Debug, Clone)]
pub struct BatchCache {
    geom: CacheGeometry,
    kind: PolicyKind,
    lanes: usize,
    ways: usize,
    sets: usize,
    /// Words per `(lane, set)` record: `ways` tags + 1 valid word +
    /// the policy's replacement-state words.
    rec: usize,
    /// Lane-major records: `data[(lane * sets + set) * rec ..][..rec]`
    /// is `[tags 0..ways | valid | repl row]`.
    data: Vec<u64>,
    /// Policy logic, shared by every lane.
    policy: ReplPolicy,
    /// Random's per-`(lane, set)` generators, lane-major and seeded
    /// exactly like a scalar cache with the lane's seed (empty for
    /// every other policy).
    rngs: Vec<SmallRng>,
    stats: Vec<CacheStats>,
}

impl BatchCache {
    /// Creates `lane_seeds.len()` empty caches with identical shape.
    ///
    /// # Panics
    ///
    /// Panics if `lane_seeds` is empty, or under the same policy/
    /// geometry conditions as [`Cache::new`](crate::cache::Cache::new).
    pub fn new(geom: CacheGeometry, kind: PolicyKind, lane_seeds: &[u64]) -> Self {
        assert!(!lane_seeds.is_empty(), "at least one lane required");
        let lanes = lane_seeds.len();
        let sets = geom.num_sets() as usize;
        let ways = geom.ways();
        assert!(ways <= 64, "way masks support at most 64 ways");
        let rw = ReplPolicy::words_per_set(kind, ways);
        let rec = ways + 1 + rw;
        Self {
            geom,
            kind,
            lanes,
            ways,
            sets,
            rec,
            data: vec![0; lanes * sets * rec],
            policy: ReplPolicy::new(kind, ways),
            rngs: lane_seeds
                .iter()
                .flat_map(|&seed| random_streams(kind, sets, seed))
                .collect(),
            stats: vec![CacheStats::default(); lanes],
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The shared replacement policy kind.
    pub fn policy_kind(&self) -> PolicyKind {
        self.kind
    }

    /// Demand access on one lane in the primary domain.
    #[inline]
    pub fn access_lane(&mut self, lane: usize, pa: PhysAddr) -> AccessOutcome {
        self.access_lane_in_domain(lane, pa, Domain::PRIMARY)
    }

    /// Demand access on one lane on behalf of `domain` — the lockstep
    /// hot path, semantically identical to
    /// [`Cache::access_in_domain`](crate::cache::Cache::access_in_domain)
    /// on the lane's scalar twin.
    #[inline]
    pub fn access_lane_in_domain(
        &mut self,
        lane: usize,
        pa: PhysAddr,
        domain: Domain,
    ) -> AccessOutcome {
        debug_assert!(lane < self.lanes, "lane {lane} out of range");
        let (set, tag) = self.locate(pa);
        // One record read covers the whole access: tags, valid mask
        // and replacement row travel together.
        let idx = lane * self.sets + set;
        let rec = &mut self.data[idx * self.rec..(idx + 1) * self.rec];
        let found = find_in_row(&rec[..self.ways], rec[self.ways], tag);
        let out = row_access(
            &self.policy,
            self.rngs.get_mut(idx),
            rec,
            self.ways,
            tag,
            found,
            domain,
        );
        let st = &mut self.stats[lane];
        st.accesses += 1;
        if !out.hit {
            st.misses += 1;
            st.fills += 1;
            if out.evicted_tag.is_some() {
                st.evictions += 1;
            }
        }
        AccessOutcome {
            hit: out.hit,
            set,
            way: out.way,
            evicted: out
                .evicted_tag
                .map(|t| PhysAddr::new(self.geom.line_addr(t, set))),
        }
    }

    /// One demand access per lane, batched — the warmup shape, where
    /// every trial touches the same address sequence before the
    /// jittered interleavings diverge. Per-lane state (policy bits,
    /// Random streams) makes the resolution inherently lane-serial;
    /// the batching here is the shared locate and the lane-major
    /// walk, which visits the lanes' rows in allocation order.
    ///
    /// # Panics
    ///
    /// Panics if `pas.len()` differs from the lane count.
    pub fn access_all(&mut self, pas: &[PhysAddr], domain: Domain) -> Vec<AccessOutcome> {
        assert_eq!(pas.len(), self.lanes, "one address per lane");
        (0..self.lanes)
            .map(|lane| self.access_lane_in_domain(lane, pas[lane], domain))
            .collect()
    }

    /// Whether `pa`'s line is present in `lane` (no state change).
    #[inline]
    pub fn probe_lane(&self, lane: usize, pa: PhysAddr) -> bool {
        self.way_of_lane(lane, pa).is_some()
    }

    /// The way of `lane` holding `pa`'s line, if present.
    #[inline]
    pub fn way_of_lane(&self, lane: usize, pa: PhysAddr) -> Option<usize> {
        let (set, tag) = self.locate(pa);
        let base = (lane * self.sets + set) * self.rec;
        find_in_row(
            &self.data[base..base + self.ways],
            self.data[base + self.ways],
            tag,
        )
    }

    /// Invalidates `pa`'s line in `lane` (a `clflush` at this level).
    /// Returns whether a line was removed.
    pub fn flush_line_lane(&mut self, lane: usize, pa: PhysAddr) -> bool {
        let (set, _) = self.locate(pa);
        match self.way_of_lane(lane, pa) {
            Some(way) => {
                self.data[(lane * self.sets + set) * self.rec + self.ways] &= !(1u64 << way);
                true
            }
            None => false,
        }
    }

    /// Accumulated statistics of one lane.
    pub fn stats_lane(&self, lane: usize) -> CacheStats {
        self.stats[lane]
    }

    /// Empties every lane and resets all replacement state and stats
    /// (Random generators keep their streams, like
    /// [`Cache::clear`](crate::cache::Cache::clear)).
    pub fn clear(&mut self) {
        self.data.fill(0);
        self.stats.fill(CacheStats::default());
    }

    #[inline]
    fn locate(&self, pa: PhysAddr) -> (usize, u64) {
        (self.geom.set_index(pa.raw()), self.geom.tag(pa.raw()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;

    const SEEDS: [u64; 5] = [3, 17, 0, 0xdead_beef, 42];

    fn geoms() -> Vec<CacheGeometry> {
        vec![
            CacheGeometry::l1d_paper(),
            CacheGeometry::new(64, 512, 8).unwrap(),
            CacheGeometry::new(64, 16, 4).unwrap(),
        ]
    }

    /// Deterministic per-lane address stream.
    fn addr(x: &mut u64, lane: usize) -> PhysAddr {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1 + lane as u64);
        PhysAddr::new((*x >> 24) & 0xf_ffff)
    }

    /// Every lane of a `BatchCache` must match a scalar `Cache` with
    /// the same seed over long divergent random streams — outcomes,
    /// stats and probes.
    #[test]
    fn lanes_match_scalar_caches_divergent_streams() {
        for kind in PolicyKind::ALL {
            for geom in geoms() {
                if matches!(kind, PolicyKind::TreePlru | PolicyKind::PartitionedTreePlru)
                    && !geom.ways().is_power_of_two()
                {
                    continue;
                }
                let mut batch = BatchCache::new(geom, kind, &SEEDS);
                let mut scalars: Vec<Cache> =
                    SEEDS.iter().map(|&s| Cache::new(geom, kind, s)).collect();
                let mut x = 0x1234u64;
                for step in 0..3000 {
                    let lane = step % SEEDS.len();
                    let pa = addr(&mut x, lane);
                    let domain = if kind == PolicyKind::PartitionedTreePlru && step % 3 == 0 {
                        Domain::SECONDARY
                    } else {
                        Domain::PRIMARY
                    };
                    let got = batch.access_lane_in_domain(lane, pa, domain);
                    let want = scalars[lane].access_in_domain(pa, domain);
                    assert_eq!(got, want, "{kind} lane {lane} diverged at step {step}");
                    assert_eq!(batch.probe_lane(lane, pa), scalars[lane].probe(pa));
                }
                for (lane, scalar) in scalars.iter().enumerate() {
                    assert_eq!(batch.stats_lane(lane), scalar.stats(), "{kind} stats");
                }
            }
        }
    }

    /// The batched uniform-address path must equal per-lane scalar
    /// accesses (warmup shape: all lanes touch the same line).
    #[test]
    fn access_all_uniform_matches_scalar() {
        for kind in PolicyKind::ALL {
            let geom = CacheGeometry::l1d_paper();
            let mut batch = BatchCache::new(geom, kind, &SEEDS);
            let mut scalars: Vec<Cache> =
                SEEDS.iter().map(|&s| Cache::new(geom, kind, s)).collect();
            let mut x = 0x77u64;
            // Diverge the lanes first so the uniform sweep starts
            // from genuinely different states.
            for step in 0..200 {
                let lane = step % SEEDS.len();
                let pa = addr(&mut x, lane);
                batch.access_lane(lane, pa);
                scalars[lane].access(pa);
            }
            for _ in 0..500 {
                let pa = addr(&mut x, 0);
                let got = batch.access_all(&vec![pa; SEEDS.len()], Domain::PRIMARY);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    assert_eq!(got[lane], scalar.access(pa), "{kind} lane {lane}");
                }
            }
            for (lane, scalar) in scalars.iter().enumerate() {
                assert_eq!(batch.stats_lane(lane), scalar.stats(), "{kind} stats");
            }
        }
    }

    /// The batched divergent-address fallback must also match.
    #[test]
    fn access_all_divergent_matches_scalar() {
        let geom = CacheGeometry::l1d_paper();
        let mut batch = BatchCache::new(geom, PolicyKind::TreePlru, &SEEDS);
        let mut scalars: Vec<Cache> = SEEDS
            .iter()
            .map(|&s| Cache::new(geom, PolicyKind::TreePlru, s))
            .collect();
        let mut x = 0x9u64;
        for _ in 0..400 {
            let pas: Vec<PhysAddr> = (0..SEEDS.len()).map(|l| addr(&mut x, l)).collect();
            let got = batch.access_all(&pas, Domain::PRIMARY);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(got[lane], scalar.access(pas[lane]));
            }
        }
    }

    #[test]
    fn flush_matches_scalar() {
        let geom = CacheGeometry::l1d_paper();
        let mut batch = BatchCache::new(geom, PolicyKind::Lru, &[5, 6]);
        let mut scalars = [
            Cache::new(geom, PolicyKind::Lru, 5),
            Cache::new(geom, PolicyKind::Lru, 6),
        ];
        let a = PhysAddr::new(0x40);
        batch.access_lane(0, a);
        scalars[0].access(a);
        assert_eq!(batch.flush_line_lane(0, a), scalars[0].flush_line(a));
        assert_eq!(batch.flush_line_lane(0, a), scalars[0].flush_line(a));
        // Lane 1 never held the line.
        assert_eq!(batch.flush_line_lane(1, a), scalars[1].flush_line(a));
        // Post-flush replacement behavior stays aligned.
        for i in 0..32u64 {
            let pa = PhysAddr::new(i * geom.set_stride());
            assert_eq!(batch.access_lane(0, pa), scalars[0].access(pa));
        }
    }

    #[test]
    fn clear_resets_lanes() {
        let mut b = BatchCache::new(CacheGeometry::l1d_paper(), PolicyKind::Lru, &[1, 2]);
        b.access_lane(0, PhysAddr::new(0));
        b.clear();
        assert!(!b.probe_lane(0, PhysAddr::new(0)));
        assert_eq!(b.stats_lane(0), CacheStats::default());
    }

    #[test]
    #[should_panic(expected = "one address per lane")]
    fn access_all_checks_length() {
        let mut b = BatchCache::new(CacheGeometry::l1d_paper(), PolicyKind::Lru, &[1, 2]);
        let _ = b.access_all(&[PhysAddr::new(0)], Domain::PRIMARY);
    }
}
