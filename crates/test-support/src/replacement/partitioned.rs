//! DAWG-style partitioned Tree-PLRU (paper §IX-B).
//!
//! DAWG ("A defense against cache timing attacks in speculative
//! execution processors", MICRO'18) partitions both the cache ways
//! *and the Tree-PLRU state* between protection domains. The paper
//! singles it out as the only secure-cache design it is aware of that
//! partitions the LRU state — which is exactly what stops both of the
//! paper's channels.

use super::{assert_valid_victim_request, SetReplacement, TreePlru, WayMask};

/// Tree-PLRU state statically split between two halves of the ways.
///
/// Ways `0 .. ways/2` and `ways/2 .. ways` each keep an independent
/// Tree-PLRU; an access only updates the half that owns the accessed
/// way, and victims come from the lower half. There is **no shared
/// bit** (no shared tree root), so accesses to the upper half — the
/// other protection domain's ways — are invisible to the lower
/// half's replacement decisions, the property the LRU channels
/// violate in ordinary Tree-PLRU.
///
/// ```
/// use test_support::replacement::{PartitionedTreePlru, SetReplacement};
/// let mut p = PartitionedTreePlru::new(8);
/// let before = p.victim();
/// // The attacker hammers the upper half of the ways...
/// for w in 4..8 {
///     p.touch(w);
/// }
/// // ...but the next replacement decision is unchanged.
/// assert_eq!(p.victim(), before);
/// assert!(before < 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedTreePlru {
    halves: [TreePlru; 2],
    ways: usize,
}

impl PartitionedTreePlru {
    /// Creates partitioned state for `ways` ways (one tree per half).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not a power of two of at least 2 (each
    /// half must itself be a valid Tree-PLRU leaf count).
    pub fn new(ways: usize) -> Self {
        assert!(
            ways >= 2 && ways.is_power_of_two() && ways <= 64,
            "partitioned Tree-PLRU requires a power-of-two way count >= 2, got {ways}"
        );
        Self {
            halves: [TreePlru::new(ways / 2), TreePlru::new(ways / 2)],
            ways,
        }
    }
}

impl SetReplacement for PartitionedTreePlru {
    fn ways(&self) -> usize {
        self.ways
    }

    fn touch(&mut self, way: usize) {
        assert!(way < self.ways, "way {way} out of range");
        // State ownership follows the way: a touch rewrites only the
        // root path of its own half's tree.
        let half = self.ways / 2;
        if way < half {
            self.halves[0].touch(way);
        } else {
            self.halves[1].touch(way - half);
        }
    }

    fn victim_among(&mut self, allowed: WayMask) -> usize {
        assert_valid_victim_request(self.ways, allowed);
        let own = allowed.intersect(WayMask::all(self.ways / 2));
        if own.is_empty() {
            // No allowed way in the lower half (e.g. all of them are
            // locked): fall back to the lowest allowed way, without
            // consulting the upper half's state.
            return allowed
                .intersect(WayMask::all(self.ways))
                .first()
                .expect("mask checked non-empty");
        }
        self.halves[0].peek_victim(own)
    }

    fn reset(&mut self) {
        self.halves[0].reset();
        self.halves[1].reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn domains_are_isolated() {
        let mut p = PartitionedTreePlru::new(8);
        // Establish a lower-half state.
        p.touch(0);
        p.touch(1);
        let before = p.victim();
        // Touches to the upper half...
        for w in 4..8 {
            p.touch(w);
        }
        // ...do not change the lower half's decision.
        assert_eq!(p.victim(), before);
    }

    #[test]
    fn victims_stay_in_own_half() {
        let mut p = PartitionedTreePlru::new(8);
        assert!(p.victim() < 4);
    }

    #[test]
    fn fallback_when_own_half_fully_excluded() {
        let mut p = PartitionedTreePlru::new(4);
        // The lower half is {0,1}; exclude both.
        let allowed = WayMask::single(2).with(3);
        let v = p.victim_among(allowed);
        assert!(allowed.contains(v));
    }

    proptest! {
        /// Touches to ways `4..8` never change the lower-half victim
        /// — the DAWG security property.
        #[test]
        fn no_cross_domain_leak(
            lower in proptest::collection::vec(0usize..4, 0..32),
            upper in proptest::collection::vec(4usize..8, 0..32),
        ) {
            let mut quiet = PartitionedTreePlru::new(8);
            let mut noisy = PartitionedTreePlru::new(8);
            for &w in &lower {
                quiet.touch(w);
                noisy.touch(w);
            }
            for &w in &upper {
                noisy.touch(w);
            }
            prop_assert_eq!(quiet.victim(), noisy.victim());
        }
    }
}
