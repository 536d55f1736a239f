//! Tree-PLRU: the binary-tree pseudo-LRU used by the paper's L1
//! caches (§II-B).

use super::{assert_valid_victim_request, SetReplacement, WayMask};

/// Tree-PLRU replacement state for one set.
///
/// For `N` ways the state is `N - 1` tree bits. Each internal node
/// records which of its two subtrees was **less recently used**:
/// `false` points left, `true` points right. Victim search follows
/// the pointed-to child from the root; an access flips every node on
/// the accessed way's root path to point *away* from it.
///
/// Because only `N - 1` bits summarize the whole history, the victim
/// after a fixed access sequence still depends on the *prior* state —
/// that residue is exactly what Table I of the paper quantifies and
/// what makes the channels of §IV noisy under PLRU.
///
/// ```
/// use cache_sim::replacement::{TreePlru, SetReplacement};
/// let mut t = TreePlru::new(8);
/// for w in 0..8 {
///     t.touch(w);
/// }
/// // After touching 0..=7 in order from the all-zero state, the
/// // victim is way 0 (same answer as true LRU for this sequence).
/// assert_eq!(t.victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlru {
    /// Heap-ordered tree bits; node `i` has children `2i+1`, `2i+2`.
    /// `false` = left subtree is the LRU side, `true` = right.
    tree: Vec<bool>,
    ways: usize,
}

impl TreePlru {
    /// Creates Tree-PLRU state for `ways` ways with all bits zero.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not a power of two in `1..=64` (a binary
    /// tree needs a power-of-two leaf count; all caches in the paper
    /// qualify).
    pub fn new(ways: usize) -> Self {
        assert!(
            ways.is_power_of_two() && ways <= 64,
            "Tree-PLRU requires a power-of-two way count <= 64, got {ways}"
        );
        Self {
            tree: vec![false; ways - 1],
            ways,
        }
    }

    /// Raw tree bits, root first (for white-box tests and debugging).
    pub fn bits(&self) -> &[bool] {
        &self.tree
    }

    /// Sets the raw tree bits (for constructing known states in
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != ways - 1`.
    pub fn set_bits(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.tree.len(), "wrong number of tree bits");
        self.tree.copy_from_slice(bits);
    }

    /// The victim that would be selected right now, without mutating
    /// anything (Tree-PLRU victim search is read-only).
    pub fn peek_victim(&self, allowed: WayMask) -> usize {
        assert_valid_victim_request(self.ways, allowed);
        let mut node = 0usize; // heap index
        let mut lo = 0usize; // first way covered by `node`
        let mut size = self.ways;
        while size > 1 {
            let half = size / 2;
            let (left_ok, right_ok) = (
                allowed.any_in_range(lo, lo + half),
                allowed.any_in_range(lo + half, lo + size),
            );
            // Follow the LRU pointer unless that side has no
            // allowed way.
            let go_right = match (left_ok, right_ok) {
                (true, true) => self.tree[node],
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
}

impl SetReplacement for TreePlru {
    fn ways(&self) -> usize {
        self.ways
    }

    fn touch(&mut self, way: usize) {
        assert!(way < self.ways, "way {way} out of range");
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut size = self.ways;
        while size > 1 {
            let half = size / 2;
            if way < lo + half {
                // Accessed way is in the left subtree: the right
                // subtree is now the less recently used side.
                self.tree[node] = true;
                node = 2 * node + 1;
            } else {
                self.tree[node] = false;
                node = 2 * node + 2;
                lo += half;
            }
            size = half;
        }
    }

    fn victim_among(&mut self, allowed: WayMask) -> usize {
        self.peek_victim(allowed)
    }

    fn reset(&mut self) {
        self.tree.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hand_computed_4way_transitions() {
        // 4 ways, 3 bits: [root, left-node, right-node].
        let mut t = TreePlru::new(4);
        assert_eq!(t.bits(), &[false, false, false]);
        // Access way 0: root -> right (true), left node -> way 1 (true).
        t.touch(0);
        assert_eq!(t.bits(), &[true, true, false]);
        assert_eq!(t.peek_victim(WayMask::all(4)), 2);
        // Access way 2: root -> left, right node -> way 3.
        t.touch(2);
        assert_eq!(t.bits(), &[false, true, true]);
        assert_eq!(t.peek_victim(WayMask::all(4)), 1);
        // Access way 1: root -> right, left node -> way 0.
        t.touch(1);
        assert_eq!(t.bits(), &[true, false, true]);
        assert_eq!(t.peek_victim(WayMask::all(4)), 3);
    }

    #[test]
    fn sequential_fill_from_zero_state_victimizes_way_0() {
        let mut t = TreePlru::new(8);
        for w in 0..8 {
            t.touch(w);
        }
        assert_eq!(t.victim(), 0);
    }

    #[test]
    fn victim_is_never_the_just_accessed_way() {
        let mut t = TreePlru::new(8);
        for w in [3usize, 1, 4, 1, 5, 2, 6, 5, 3, 5] {
            t.touch(w);
            assert_ne!(t.victim(), w, "victim equals just-accessed way");
        }
    }

    #[test]
    fn masked_search_detours_around_excluded_subtree() {
        let mut t = TreePlru::new(4);
        t.touch(2);
        t.touch(3);
        // Victim would be on the left (ways 0-1); exclude both.
        let allowed = WayMask::all(4).without(0).without(1);
        let v = t.victim_among(allowed);
        assert!(allowed.contains(v));
    }

    #[test]
    fn one_way_tree_is_degenerate() {
        let mut t = TreePlru::new(1);
        t.touch(0);
        assert_eq!(t.victim(), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let _ = TreePlru::new(6);
    }

    #[test]
    fn set_bits_constructs_known_state() {
        let mut t = TreePlru::new(4);
        t.set_bits(&[true, false, true]);
        // root->right, right node bit=true -> way 3.
        assert_eq!(t.victim(), 3);
    }

    /// Reference model: map the access sequence through a true-LRU
    /// model and check the PLRU "never picks the most recently used
    /// half" guarantee.
    fn most_recent(accesses: &[usize]) -> Option<usize> {
        accesses.last().copied()
    }

    proptest! {
        #[test]
        fn victim_in_allowed_mask(
            accesses in proptest::collection::vec(0usize..8, 0..64),
            mask_bits in 1u64..255,
        ) {
            let mut t = TreePlru::new(8);
            for &w in &accesses {
                t.touch(w);
            }
            let mut mask = WayMask::EMPTY;
            for w in 0..8 {
                if (mask_bits >> w) & 1 == 1 {
                    mask = mask.with(w);
                }
            }
            let v = t.victim_among(mask);
            prop_assert!(mask.contains(v));
        }

        #[test]
        fn never_evicts_most_recently_used(
            accesses in proptest::collection::vec(0usize..8, 1..64),
        ) {
            let mut t = TreePlru::new(8);
            for &w in &accesses {
                t.touch(w);
            }
            let v = t.victim();
            prop_assert_ne!(Some(v), most_recent(&accesses));
        }

        /// Touch-then-victim from the all-zero state walks exactly one
        /// root path, so repeated victim queries are stable (search is
        /// pure).
        #[test]
        fn victim_query_is_pure(accesses in proptest::collection::vec(0usize..8, 0..32)) {
            let mut t = TreePlru::new(8);
            for &w in &accesses {
                t.touch(w);
            }
            let v1 = t.victim();
            let v2 = t.victim();
            prop_assert_eq!(v1, v2);
        }
    }
}
