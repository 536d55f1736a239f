//! Packed replacement-policy logic for the structure-of-arrays
//! cache storage.
//!
//! The per-set [`super::Policy`] enum keeps each policy's state in
//! its own heap allocations (`Vec<bool>`, `Vec<u64>` per set), which
//! is what the paper experiments were prototyped against — and what
//! made `Cache::access` memory-bound: a single access chased the
//! `sets` vector, the per-set `lines` vector and the per-set policy
//! vectors. In the flat layout ([`crate::storage`]) the replacement
//! state of a set lives in a handful of words *inside the set's own
//! storage row*, directly after its tags and valid word:
//!
//! * Tree-PLRU / Bit-PLRU / partitioned Tree-PLRU — one word (the
//!   8-way trees of the paper need 7 bits; a word keeps every
//!   geometry up to 64 ways representable);
//! * true LRU and FIFO — one clock word followed by `ways` stamp
//!   words;
//! * Random — no words at all (the owner keeps one generator per
//!   set, built by [`random_streams`] and seeded exactly like the
//!   per-set [`super::RandomRepl`] so victim streams are
//!   bit-identical to the reference layout, and lends it to the
//!   victim search).
//!
//! [`ReplPolicy`] holds the policy *logic* plus the read-only tables
//! shared by every cache of a width (Tree-PLRU touch masks and victim
//! table, computed at compile time); it allocates nothing and is
//! `Copy`. Every update and victim search mirrors the corresponding
//! [`super::SetReplacement`] implementation exactly.
//! The `layout_equivalence` suite replays long random traces through
//! both layouts and asserts identical outcomes.

use super::{PolicyKind, WayMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Derives the per-set seed for randomized policies.
///
/// Uses `wrapping_mul` so the derivation is identical on every
/// target width (the old expression multiplied in `usize` and could
/// overflow on 32-bit hosts).
#[inline]
pub(crate) fn set_seed(seed: u64, set: u64) -> u64 {
    seed ^ set.wrapping_mul(0x9e37_79b9)
}

/// Tree-PLRU root-path update masks for `W` ways: touching way `w`
/// becomes `tree = (tree & !masks[w][0]) | masks[w][1]`. The pair is
/// stored adjacently so one touch reads one cache line.
const fn tree_touch_masks<const W: usize>() -> [[u64; 2]; W] {
    let mut masks = [[0u64; 2]; W];
    let mut w = 0;
    while w < W {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut size = W;
        while size > 1 {
            let half = size / 2;
            masks[w][0] |= 1 << node;
            if w < lo + half {
                // Accessed way in the left subtree: point the node
                // right.
                masks[w][1] |= 1 << node;
                node = 2 * node + 1;
            } else {
                node = 2 * node + 2;
                lo += half;
            }
            size = half;
        }
        w += 1;
    }
    masks
}

/// Victim of every possible tree state of a `W`-way tree (`N` =
/// `2^(W-1)` states).
const fn tree_victim_table<const W: usize, const N: usize>() -> [u8; N] {
    let mut tbl = [0u8; N];
    let mut tree = 0;
    while tree < N {
        tbl[tree] = tree_walk(tree as u64, W) as u8;
        tree += 1;
    }
    tbl
}

/// The touch masks of a power-of-two way count, computed at compile
/// time for every supported width.
fn touch_masks(ways: usize) -> &'static [[u64; 2]] {
    macro_rules! by_ways {
        ($($w:literal)*) => {
            match ways {
                $($w => {
                    static MASKS: [[u64; 2]; $w] = tree_touch_masks::<$w>();
                    &MASKS
                })*
                _ => unreachable!("Tree-PLRU way count {ways} is not a power of two <= 64"),
            }
        };
    }
    by_ways!(1 2 4 8 16 32 64)
}

/// The victim table of a power-of-two way count: one entry per tree
/// state for `ways <= 8` (at most 128), empty above — the walk is
/// used instead.
fn victim_table(ways: usize) -> &'static [u8] {
    static V1: [u8; 1] = tree_victim_table::<1, 1>();
    static V2: [u8; 2] = tree_victim_table::<2, 2>();
    static V4: [u8; 8] = tree_victim_table::<4, 8>();
    static V8: [u8; 128] = tree_victim_table::<8, 128>();
    match ways {
        1 => &V1,
        2 => &V2,
        4 => &V4,
        8 => &V8,
        _ => &[],
    }
}

/// Precomputed Tree-PLRU root-path update masks (a compile-time
/// table shared by every cache of the same width).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeTouch {
    /// `[clear, set]` word pair per way.
    masks: &'static [[u64; 2]],
}

impl TreeTouch {
    fn new(ways: usize) -> Self {
        Self {
            masks: touch_masks(ways),
        }
    }

    /// Applies the touch of `way` to a tree word.
    #[inline]
    fn apply(&self, tree: u64, way: usize) -> u64 {
        let [clear, set] = self.masks[way];
        (tree & !clear) | set
    }
}

/// The read-only Tree-PLRU victim walk with every way allowed.
#[inline]
const fn tree_walk(tree: u64, ways: usize) -> usize {
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut size = ways;
    while size > 1 {
        let half = size / 2;
        if (tree >> node) & 1 == 1 {
            node = 2 * node + 2;
            lo += half;
        } else {
            node = 2 * node + 1;
        }
        size = half;
    }
    lo
}

/// The per-set Random generators of `sets` sets (empty for every
/// other policy): set `s` draws from `set_seed(seed, s)`.
pub(crate) fn random_streams(kind: PolicyKind, sets: usize, seed: u64) -> Vec<SmallRng> {
    if kind != PolicyKind::Random {
        return Vec::new();
    }
    (0..sets)
        .map(|s| SmallRng::seed_from_u64(set_seed(seed, s as u64)))
        .collect()
}

/// Replacement-policy logic over per-set state words.
///
/// The state words themselves live in the owner's set rows and are
/// passed in as `repl` slices; see the module docs for the per-policy
/// word layout. Random's victim searches draw from the set's
/// generator, which the owner passes in as `rng`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReplPolicy {
    /// True LRU: `repl = [clock, age(way 0), .., age(way N-1)]`.
    Lru,
    /// Tree-PLRU: `repl = [tree bits]`.
    TreePlru {
        /// Per-way root-path touch masks.
        touch: TreeTouch,
        /// `victim_tbl[tree]` = victim way, for `ways <= 8`
        /// (empty otherwise — the walk is used instead).
        victim_tbl: &'static [u8],
    },
    /// Bit-PLRU: `repl = [MRU bits]`.
    BitPlru,
    /// FIFO: `repl = [clock, stamp(way 0), .., stamp(way N-1)]`.
    Fifo,
    /// Random: no state words; the owner lends the set's generator.
    Random,
    /// DAWG-style partitioned Tree-PLRU: `repl = [packed half
    /// trees]` (the lower half's tree in the low 32 bits, the upper
    /// half's in the high 32).
    PartitionedTreePlru {
        /// Touch masks for one half-tree (both halves share them).
        touch: TreeTouch,
    },
}

impl ReplPolicy {
    /// Builds the policy logic for sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the per-set policies:
    /// `ways` must be in `1..=64`, and the Tree-PLRU variants need a
    /// power of two (the partitioned variant additionally needs
    /// `ways >= 2`).
    pub(crate) fn new(kind: PolicyKind, ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        match kind {
            PolicyKind::Lru => ReplPolicy::Lru,
            PolicyKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "Tree-PLRU requires a power-of-two way count <= 64, got {ways}"
                );
                ReplPolicy::TreePlru {
                    touch: TreeTouch::new(ways),
                    victim_tbl: victim_table(ways),
                }
            }
            PolicyKind::BitPlru => ReplPolicy::BitPlru,
            PolicyKind::Fifo => ReplPolicy::Fifo,
            PolicyKind::Random => ReplPolicy::Random,
            PolicyKind::PartitionedTreePlru => {
                assert!(
                    ways >= 2 && ways.is_power_of_two(),
                    "partitioned Tree-PLRU requires a power-of-two way count >= 2, got {ways}"
                );
                ReplPolicy::PartitionedTreePlru {
                    touch: TreeTouch::new(ways / 2),
                }
            }
        }
    }

    /// Words of per-set replacement state this policy keeps in each
    /// storage row.
    pub(crate) fn words_per_set(kind: PolicyKind, ways: usize) -> usize {
        match kind {
            PolicyKind::Lru | PolicyKind::Fifo => 1 + ways,
            PolicyKind::TreePlru | PolicyKind::BitPlru | PolicyKind::PartitionedTreePlru => 1,
            PolicyKind::Random => 0,
        }
    }

    /// Records a hit on `way` (`repl` = this set's state words).
    #[inline(always)]
    pub(crate) fn on_access(&self, repl: &mut [u64], ways: usize, full_mask: u64, way: usize) {
        debug_assert!(way < ways, "way {way} out of range");
        match self {
            ReplPolicy::Lru => {
                repl[0] += 1;
                repl[1 + way] = repl[0];
            }
            ReplPolicy::TreePlru { touch, .. } => {
                repl[0] = touch.apply(repl[0], way);
            }
            ReplPolicy::BitPlru => {
                let mut mru = repl[0] | (1 << way);
                if mru == full_mask {
                    // Generation rollover, exactly as the paper words
                    // it: all MRU-bits reset to 0.
                    mru = 0;
                }
                repl[0] = mru;
            }
            // FIFO state only changes on fills; Random has no state.
            ReplPolicy::Fifo | ReplPolicy::Random => {}
            ReplPolicy::PartitionedTreePlru { touch } => {
                let half = ways / 2;
                let (shift, local) = if way < half {
                    (0, way)
                } else {
                    (32, way - half)
                };
                let tree = (repl[0] >> shift) & 0xffff_ffff;
                let tree = touch.apply(tree, local);
                repl[0] = (repl[0] & !(0xffff_ffffu64 << shift)) | (tree << shift);
            }
        }
    }

    /// Records that a new line was installed in `way`.
    #[inline(always)]
    pub(crate) fn on_fill(&self, repl: &mut [u64], ways: usize, full_mask: u64, way: usize) {
        match self {
            ReplPolicy::Fifo => {
                debug_assert!(way < ways, "way {way} out of range");
                repl[0] += 1;
                repl[1 + way] = repl[0];
            }
            ReplPolicy::Random => {}
            _ => self.on_access(repl, ways, full_mask, way),
        }
    }

    /// Chooses a victim way with every way allowed — the demand-miss
    /// fast path, skipping all mask handling.
    ///
    /// Equivalent to `victim_among` with a full mask; the partitioned
    /// policy still confines the victim to the lower half.
    ///
    /// # Panics
    ///
    /// Panics if the policy is Random and `rng` is `None`.
    #[inline(always)]
    pub(crate) fn victim_full(
        &self,
        rng: Option<&mut SmallRng>,
        repl: &[u64],
        ways: usize,
    ) -> usize {
        match self {
            ReplPolicy::Lru | ReplPolicy::Fifo => min_stamp_full(&repl[1..1 + ways]),
            ReplPolicy::TreePlru { victim_tbl, .. } => {
                if victim_tbl.is_empty() {
                    tree_walk(repl[0], ways)
                } else {
                    // One table load for the paper's <= 8-way caches.
                    victim_tbl[repl[0] as usize] as usize
                }
            }
            ReplPolicy::BitPlru => {
                // The rollover invariant guarantees a clear bit.
                (!repl[0] & WayMask::all(ways).bits()).trailing_zeros() as usize
            }
            ReplPolicy::Random => random_stream(rng).gen_range(0..ways),
            ReplPolicy::PartitionedTreePlru { .. } => {
                self.victim_among(rng, repl, ways, WayMask::all(ways))
            }
        }
    }

    /// Chooses a victim way from `allowed`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` contains no way below `ways` — mirroring
    /// [`super::assert_valid_victim_request`] — or if the policy is
    /// Random and `rng` is `None`.
    #[inline]
    pub(crate) fn victim_among(
        &self,
        rng: Option<&mut SmallRng>,
        repl: &[u64],
        ways: usize,
        allowed: WayMask,
    ) -> usize {
        super::assert_valid_victim_request(ways, allowed);
        let usable = allowed.intersect(WayMask::all(ways));
        match self {
            ReplPolicy::Lru | ReplPolicy::Fifo => min_stamp_way(&repl[1..1 + ways], usable),
            ReplPolicy::TreePlru { .. } => tree_victim(repl[0], ways, usable),
            ReplPolicy::BitPlru => {
                // Lowest allowed way with a clear MRU bit, falling
                // back to the lowest allowed way when every allowed
                // way is marked.
                let clear = !repl[0] & usable.bits();
                if clear != 0 {
                    clear.trailing_zeros() as usize
                } else {
                    usable.first().expect("mask checked non-empty")
                }
            }
            ReplPolicy::Random => {
                let k = random_stream(rng).gen_range(0..usable.count());
                nth_way(usable, k)
            }
            ReplPolicy::PartitionedTreePlru { .. } => {
                let half = ways / 2;
                let own = usable.intersect(WayMask::all(half));
                if own.is_empty() {
                    // No allowed way in the lower half: fall back to
                    // the lowest allowed way without consulting the
                    // upper half's tree.
                    return usable.first().expect("mask checked non-empty");
                }
                tree_victim(repl[0] & 0xffff_ffff, half, own)
            }
        }
    }
}

/// The set generator a Random victim search draws from.
#[inline]
fn random_stream(rng: Option<&mut SmallRng>) -> &mut SmallRng {
    rng.expect("the Random policy draws from its set's generator")
}

/// Follows the LRU pointers from the root, detouring around subtrees
/// with no allowed way. Read-only, exactly like
/// [`super::TreePlru::peek_victim`].
#[inline]
fn tree_victim(tree: u64, ways: usize, allowed: WayMask) -> usize {
    let mask = allowed.bits();
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut size = ways;
    while size > 1 {
        let half = size / 2;
        let left = mask & (((1u64 << half) - 1) << lo);
        let right = mask & (((1u64 << half) - 1) << (lo + half));
        let go_right = match (left != 0, right != 0) {
            (true, true) => (tree >> node) & 1 == 1,
            (false, true) => true,
            (true, false) => false,
            (false, false) => unreachable!("mask checked non-empty"),
        };
        if go_right {
            node = 2 * node + 2;
            lo += half;
        } else {
            node = 2 * node + 1;
        }
        size = half;
    }
    lo
}

/// Way with the smallest `(stamp, way)` key among the allowed ways.
#[inline]
fn min_stamp_way(stamps: &[u64], allowed: WayMask) -> usize {
    let mut m = allowed.bits();
    let mut best_way = usize::MAX;
    let mut best_stamp = u64::MAX;
    while m != 0 {
        let w = m.trailing_zeros() as usize;
        m &= m - 1;
        // Strict `<` keeps the lowest way on ties, because ways are
        // visited in ascending order.
        if stamps[w] < best_stamp {
            best_stamp = stamps[w];
            best_way = w;
        }
    }
    debug_assert_ne!(best_way, usize::MAX, "mask checked non-empty");
    best_way
}

/// Way with the smallest `(stamp, way)` key over a full set slice.
#[inline]
fn min_stamp_full(stamps: &[u64]) -> usize {
    let mut best = 0usize;
    let mut best_val = stamps[0];
    for (w, &s) in stamps.iter().enumerate().skip(1) {
        // Strict `<` keeps the lowest way on ties.
        if s < best_val {
            best_val = s;
            best = w;
        }
    }
    best
}

/// `k`-th lowest way in the mask.
#[inline]
fn nth_way(mask: WayMask, k: usize) -> usize {
    let mut m = mask.bits();
    for _ in 0..k {
        m &= m - 1;
    }
    debug_assert_ne!(m, 0, "nth_way out of range");
    m.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::super::{Policy, SetReplacement};
    use super::*;

    /// Drives a `ReplPolicy` with its own state words, like the
    /// storage rows do.
    struct Harness {
        policy: ReplPolicy,
        rngs: Vec<SmallRng>,
        words: Vec<Vec<u64>>,
        ways: usize,
        full_mask: u64,
    }

    impl Harness {
        fn new(kind: PolicyKind, sets: usize, ways: usize, seed: u64) -> Self {
            Self {
                policy: ReplPolicy::new(kind, ways),
                rngs: random_streams(kind, sets, seed),
                words: vec![vec![0; ReplPolicy::words_per_set(kind, ways)]; sets],
                ways,
                full_mask: WayMask::all(ways).bits(),
            }
        }

        fn touch(&mut self, set: usize, way: usize) {
            self.policy
                .on_access(&mut self.words[set], self.ways, self.full_mask, way);
        }

        fn fill(&mut self, set: usize, way: usize) {
            self.policy
                .on_fill(&mut self.words[set], self.ways, self.full_mask, way);
        }

        fn victim(&mut self, set: usize, mask: WayMask) -> usize {
            self.policy
                .victim_among(self.rngs.get_mut(set), &self.words[set], self.ways, mask)
        }

        fn victim_full(&mut self, set: usize) -> usize {
            self.policy
                .victim_full(self.rngs.get_mut(set), &self.words[set], self.ways)
        }
    }

    /// Packed state must agree with the per-set reference policies
    /// on a mixed access/fill/victim schedule.
    #[test]
    fn packed_matches_reference_policies() {
        for kind in PolicyKind::ALL {
            let ways = 8;
            let sets = 4;
            let seed = 0xfeed;
            let mut packed = Harness::new(kind, sets, ways, seed);
            let mut reference: Vec<Policy> = (0..sets)
                .map(|s| Policy::new(kind, ways, set_seed(seed, s as u64)))
                .collect();
            let mut x = 123u64;
            for step in 0..4000 {
                // Cheap deterministic schedule driver.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let set = (x >> 33) as usize % sets;
                let way = (x >> 21) as usize % ways;
                match step % 3 {
                    0 => {
                        packed.touch(set, way);
                        reference[set].touch(way);
                    }
                    1 => {
                        packed.fill(set, way);
                        reference[set].fill(way);
                    }
                    _ => {
                        let mask_bits = 1 | ((x >> 5) & WayMask::all(ways).bits());
                        let mask = WayMask::from_bits(mask_bits);
                        assert_eq!(
                            packed.victim(set, mask),
                            reference[set].victim_among(mask),
                            "{kind} diverged at step {step} (set {set}, mask {mask})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn victim_full_matches_victim_among_full_mask() {
        for kind in PolicyKind::ALL {
            if kind == PolicyKind::Random {
                // The two draw differently-shaped samples from the
                // same stream; covered by the dedicated test below.
                continue;
            }
            let ways = 8;
            let mut h = Harness::new(kind, 1, ways, 3);
            let mut x = 77u64;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.touch(0, (x >> 40) as usize % ways);
                h.fill(0, (x >> 20) as usize % ways);
                let via_mask = h.victim(0, WayMask::all(ways));
                let fast = h.victim_full(0);
                assert_eq!(fast, via_mask, "{kind}: fast path diverged");
            }
        }
    }

    #[test]
    fn random_victim_full_matches_reference_stream() {
        // The fast path must draw exactly like RandomRepl with a
        // full mask so the RNG streams stay aligned.
        let ways = 8;
        let mut h = Harness::new(PolicyKind::Random, 2, ways, 9);
        let mut reference: Vec<Policy> = (0..2)
            .map(|s| Policy::new(PolicyKind::Random, ways, set_seed(9, s as u64)))
            .collect();
        for i in 0..200 {
            let set = i % 2;
            let fast = h.victim_full(set);
            let refv = reference[set].victim_among(WayMask::all(ways));
            assert_eq!(fast, refv, "draw {i} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "empty way mask")]
    fn empty_mask_panics() {
        let mut h = Harness::new(PolicyKind::Lru, 1, 8, 0);
        let _ = h.victim(0, WayMask::EMPTY);
    }

    #[test]
    fn sixty_four_way_masks_do_not_overflow() {
        let mut h = Harness::new(PolicyKind::BitPlru, 1, 64, 0);
        for w in 0..63 {
            h.touch(0, w);
        }
        assert_eq!(h.victim(0, WayMask::all(64)), 63);
        // 64th access rolls the generation over.
        h.touch(0, 63);
        assert_eq!(h.victim(0, WayMask::all(64)), 0);
    }

    #[test]
    fn compile_time_tree_tables_cover_every_width() {
        for ways in [1usize, 2, 4, 8, 16, 32, 64] {
            let masks = touch_masks(ways);
            assert_eq!(masks.len(), ways);
            let tbl = victim_table(ways);
            if ways <= 8 {
                assert_eq!(tbl.len(), 1 << (ways - 1));
                for (tree, &v) in tbl.iter().enumerate() {
                    assert_eq!(usize::from(v), tree_walk(tree as u64, ways));
                }
            } else {
                assert!(tbl.is_empty(), "{ways} ways walk the tree instead");
            }
            // A touched way is never the next victim (the defining
            // Tree-PLRU property), from any starting tree.
            if ways > 1 {
                let touch = TreeTouch::new(ways);
                for start in [0u64, u64::MAX >> (65 - ways), 0x5555_5555_5555_5555] {
                    for w in 0..ways {
                        assert_ne!(tree_walk(touch.apply(start, w), ways), w, "{ways}-way");
                    }
                }
            }
        }
    }

    #[test]
    fn words_per_set_layout() {
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::Lru, 8), 9);
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::Fifo, 8), 9);
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::TreePlru, 8), 1);
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::BitPlru, 8), 1);
        assert_eq!(
            ReplPolicy::words_per_set(PolicyKind::PartitionedTreePlru, 8),
            1
        );
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::Random, 8), 0);
    }
}
