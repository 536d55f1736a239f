//! True LRU: full recency ordering via per-way age counters.

use super::{assert_valid_victim_request, SetReplacement, WayMask};

/// True LRU replacement state for one set.
///
/// Keeps a logical timestamp per way; the victim is the way with the
/// smallest timestamp. This is the "expensive" exact policy the paper
/// contrasts Tree-PLRU and Bit-PLRU against (§II-B): with true LRU,
/// `line 0` in the paper's Sequences 1 and 2 is *always* evicted
/// (Table I, LRU column = 100%).
///
/// ```
/// use test_support::replacement::{Lru, SetReplacement};
/// let mut lru = Lru::new(4);
/// for w in [0, 1, 2, 3, 0] {
///     lru.touch(w);
/// }
/// // Way 1 is now the least recently used.
/// assert_eq!(lru.victim(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lru {
    ages: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates LRU state for `ways` ways, all untouched (age 0).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds 64.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        Self {
            ages: vec![0; ways],
            clock: 0,
        }
    }

    /// Recency rank of `way`: 0 = least recently used.
    ///
    /// Ties (untouched ways) are broken by way index.
    pub fn recency_rank(&self, way: usize) -> usize {
        let key = (self.ages[way], way);
        self.ages
            .iter()
            .enumerate()
            .filter(|&(w, &a)| (a, w) < key)
            .count()
    }
}

impl SetReplacement for Lru {
    fn ways(&self) -> usize {
        self.ages.len()
    }

    fn touch(&mut self, way: usize) {
        self.clock += 1;
        self.ages[way] = self.clock;
    }

    fn victim_among(&mut self, allowed: WayMask) -> usize {
        assert_valid_victim_request(self.ways(), allowed);
        (0..self.ages.len())
            .filter(|&w| allowed.contains(w))
            .min_by_key(|&w| (self.ages[w], w))
            .expect("mask checked non-empty")
    }

    fn reset(&mut self) {
        self.ages.fill(0);
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn victim_is_least_recently_used() {
        let mut lru = Lru::new(8);
        for w in 0..8 {
            lru.touch(w);
        }
        assert_eq!(lru.victim(), 0);
        lru.touch(0);
        assert_eq!(lru.victim(), 1);
    }

    #[test]
    fn sequence_1_always_evicts_line_0_slot() {
        // Paper §IV-C: with true LRU, accessing 0..=7 in order then
        // looking for a victim always picks the slot of the first
        // access.
        let mut lru = Lru::new(8);
        for w in 0..8 {
            lru.touch(w);
        }
        assert_eq!(lru.victim(), 0);
    }

    #[test]
    fn masked_victim_skips_excluded_ways() {
        let mut lru = Lru::new(4);
        for w in 0..4 {
            lru.touch(w);
        }
        let v = lru.victim_among(WayMask::all(4).without(0));
        assert_eq!(v, 1);
    }

    #[test]
    fn untouched_ways_are_oldest() {
        let mut lru = Lru::new(4);
        lru.touch(3);
        assert_eq!(lru.victim(), 0);
        assert_eq!(lru.recency_rank(3), 3);
        assert_eq!(lru.recency_rank(0), 0);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut lru = Lru::new(4);
        lru.touch(0);
        lru.reset();
        assert_eq!(lru, Lru::new(4));
    }

    #[test]
    #[should_panic(expected = "empty way mask")]
    fn empty_mask_panics() {
        let mut lru = Lru::new(4);
        let _ = lru.victim_among(WayMask::EMPTY);
    }

    proptest! {
        /// The chosen victim was accessed no later than every other
        /// allowed way — the defining property of LRU.
        #[test]
        fn victim_minimizes_recency(accesses in proptest::collection::vec(0usize..8, 0..64)) {
            let mut lru = Lru::new(8);
            for &w in &accesses {
                lru.touch(w);
            }
            let v = lru.victim();
            let last_pos = |way: usize| accesses.iter().rposition(|&w| w == way);
            let v_pos = last_pos(v);
            for other in 0..8 {
                // None (never accessed) sorts before Some(_).
                prop_assert!(v_pos <= last_pos(other) || (v_pos.is_none()),
                    "victim {v} (last access {v_pos:?}) is newer than way {other} ({:?})",
                    last_pos(other));
            }
        }

        /// A masked victim is always inside the mask.
        #[test]
        fn masked_victim_in_mask(
            accesses in proptest::collection::vec(0usize..8, 0..32),
            mask_bits in 1u64..255,
        ) {
            let mut lru = Lru::new(8);
            for &w in &accesses {
                lru.touch(w);
            }
            let mut mask = WayMask::EMPTY;
            for w in 0..8 {
                if (mask_bits >> w) & 1 == 1 {
                    mask = mask.with(w);
                }
            }
            let v = lru.victim_among(mask);
            prop_assert!(mask.contains(v));
        }
    }
}
