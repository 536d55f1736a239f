//! FIFO (Round-Robin) replacement — one of the paper's proposed
//! defenses (§IX-A): its state changes only on *fills*, so cache hits
//! by a sender leave no trace in the replacement state.

use super::{assert_valid_victim_request, SetReplacement, WayMask};

/// FIFO replacement state: per-way fill timestamps.
///
/// The victim is the way whose line was *installed* earliest.
/// Crucially, [`touch`](SetReplacement::touch) is a no-op:
/// this is what removes the LRU channel, because the sender's cache
/// *hits* no longer modify any state the receiver can observe
/// (paper §IX-A — "the FIFO states are only updated when a new cache
/// line is brought into the cache on cache misses").
///
/// ```
/// use test_support::replacement::{Fifo, SetReplacement};
/// let mut f = Fifo::new(4);
/// for w in 0..4 {
///     f.fill(w);
/// }
/// f.touch(0); // a hit: changes nothing
/// assert_eq!(f.victim(), 0); // still the first-installed way
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fifo {
    filled_at: Vec<u64>,
    clock: u64,
}

impl Fifo {
    /// Creates FIFO state for `ways` ways with no fills recorded.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds 64.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        Self {
            filled_at: vec![0; ways],
            clock: 0,
        }
    }
}

impl SetReplacement for Fifo {
    fn ways(&self) -> usize {
        self.filled_at.len()
    }

    fn touch(&mut self, _way: usize) {
        // Hits do not update FIFO state — the whole point of the
        // defense.
    }

    fn fill(&mut self, way: usize) {
        assert!(way < self.filled_at.len(), "way {way} out of range");
        self.clock += 1;
        self.filled_at[way] = self.clock;
    }

    fn victim_among(&mut self, allowed: WayMask) -> usize {
        assert_valid_victim_request(self.ways(), allowed);
        (0..self.filled_at.len())
            .filter(|&w| allowed.contains(w))
            .min_by_key(|&w| (self.filled_at[w], w))
            .expect("mask checked non-empty")
    }

    fn reset(&mut self) {
        self.filled_at.fill(0);
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn victim_is_oldest_fill() {
        let mut f = Fifo::new(4);
        f.fill(2);
        f.fill(0);
        f.fill(1);
        f.fill(3);
        assert_eq!(f.victim(), 2);
    }

    #[test]
    fn hits_do_not_change_victim() {
        let mut f = Fifo::new(4);
        for w in 0..4 {
            f.fill(w);
        }
        for _ in 0..10 {
            f.touch(0);
        }
        assert_eq!(f.victim(), 0, "hit on way 0 must not protect it");
    }

    #[test]
    fn refill_moves_way_to_back() {
        let mut f = Fifo::new(4);
        for w in 0..4 {
            f.fill(w);
        }
        f.fill(0); // way 0 re-installed
        assert_eq!(f.victim(), 1);
    }

    #[test]
    fn masked_victim_respects_mask() {
        let mut f = Fifo::new(4);
        for w in 0..4 {
            f.fill(w);
        }
        assert_eq!(f.victim_among(WayMask::all(4).without(0)), 1);
    }

    proptest! {
        /// FIFO state is invariant under arbitrarily interleaved hits:
        /// only the subsequence of fills matters.
        #[test]
        fn hit_invariance(
            fills in proptest::collection::vec(0usize..8, 1..32),
            hits in proptest::collection::vec(0usize..8, 0..32),
        ) {
            let mut with_hits = Fifo::new(8);
            let mut without = Fifo::new(8);
            for &w in &fills {
                with_hits.fill(w);
                without.fill(w);
            }
            for &w in &hits {
                with_hits.touch(w);
            }
            prop_assert_eq!(with_hits.victim(), without.victim());
        }
    }
}
