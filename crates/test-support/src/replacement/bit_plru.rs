//! Bit-PLRU (MRU-bit) replacement, the second PLRU variant the paper
//! analyses (§II-B, Table I).

use super::{assert_valid_victim_request, SetReplacement, WayMask};

/// Bit-PLRU replacement state: one MRU-bit per way.
///
/// Accessing a way sets its MRU-bit. When the access would leave
/// *all* bits set, every other bit is cleared first (so the accessed
/// way is the only recently-used one). The victim is the
/// lowest-indexed way whose MRU-bit is clear — the "way with the
/// lowest index whose MRU-bit is 0" rule from the paper.
///
/// ```
/// use test_support::replacement::{BitPlru, SetReplacement};
/// let mut b = BitPlru::new(4);
/// b.touch(0);
/// b.touch(1);
/// assert_eq!(b.victim(), 2); // lowest way with MRU-bit 0
/// b.touch(2);
/// b.touch(3); // would set all bits => others reset
/// assert_eq!(b.victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlru {
    mru: Vec<bool>,
}

impl BitPlru {
    /// Creates Bit-PLRU state for `ways` ways, all MRU-bits clear.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds 64.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        Self {
            mru: vec![false; ways],
        }
    }

    /// The MRU-bits, one per way (for white-box tests).
    pub fn mru_bits(&self) -> &[bool] {
        &self.mru
    }
}

impl SetReplacement for BitPlru {
    fn ways(&self) -> usize {
        self.mru.len()
    }

    fn touch(&mut self, way: usize) {
        assert!(way < self.mru.len(), "way {way} out of range");
        self.mru[way] = true;
        if self.mru.iter().all(|&b| b) {
            // Generation rollover, exactly as the paper words it:
            // "Once all the ways have the MRU-bit set to 1, all the
            // MRU-bits are reset to 0."
            self.mru.fill(false);
        }
    }

    fn victim_among(&mut self, allowed: WayMask) -> usize {
        assert_valid_victim_request(self.ways(), allowed);
        // Lowest-indexed allowed way with MRU-bit clear; if every
        // allowed way is marked (possible under restrictive masks),
        // fall back to the lowest allowed way.
        (0..self.mru.len())
            .filter(|&w| allowed.contains(w))
            .find(|&w| !self.mru[w])
            .or_else(|| allowed.first())
            .expect("mask checked non-empty")
    }

    fn reset(&mut self) {
        self.mru.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rollover_resets_every_bit() {
        let mut b = BitPlru::new(4);
        for w in 0..4 {
            b.touch(w);
        }
        assert_eq!(b.mru_bits(), &[false, false, false, false]);
    }

    #[test]
    fn victim_is_lowest_clear_bit() {
        let mut b = BitPlru::new(8);
        b.touch(0);
        b.touch(3);
        assert_eq!(b.victim(), 1);
    }

    #[test]
    fn fresh_state_victimizes_way_0() {
        let mut b = BitPlru::new(8);
        assert_eq!(b.victim(), 0);
    }

    #[test]
    fn masked_fallback_when_all_allowed_marked() {
        let mut b = BitPlru::new(4);
        b.touch(1);
        b.touch(2);
        // Allowed = {1, 2}, both marked: falls back to lowest allowed.
        let v = b.victim_among(WayMask::single(1).with(2));
        assert_eq!(v, 1);
    }

    #[test]
    fn reset_clears_bits() {
        let mut b = BitPlru::new(4);
        b.touch(2);
        b.reset();
        assert_eq!(b, BitPlru::new(4));
    }

    proptest! {
        /// At least one MRU-bit is always clear after any access
        /// sequence (the rollover invariant), and if no rollover just
        /// happened the most recent access is still marked.
        #[test]
        fn rollover_invariant(accesses in proptest::collection::vec(0usize..8, 1..128)) {
            let mut b = BitPlru::new(8);
            for &w in &accesses {
                b.touch(w);
            }
            prop_assert!(b.mru_bits().iter().any(|&bit| !bit));
            let last = *accesses.last().unwrap();
            // Either the last access is marked, or the access caused
            // a generation rollover (paper semantics: all bits reset).
            let rolled_over = b.mru_bits().iter().all(|&bit| !bit);
            prop_assert!(b.mru_bits()[last] || rolled_over);
            if !rolled_over {
                prop_assert_ne!(b.victim(), last);
            }
        }

        #[test]
        fn victim_in_mask(
            accesses in proptest::collection::vec(0usize..8, 0..64),
            mask_bits in 1u64..255,
        ) {
            let mut b = BitPlru::new(8);
            for &w in &accesses {
                b.touch(w);
            }
            let mut mask = WayMask::EMPTY;
            for w in 0..8 {
                if (mask_bits >> w) & 1 == 1 {
                    mask = mask.with(w);
                }
            }
            prop_assert!(mask.contains(b.victim_among(mask)));
        }
    }
}
