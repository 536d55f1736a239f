//! Random replacement — the stateless defense of paper §IX-A.

use super::{assert_valid_victim_request, SetReplacement, WayMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random replacement: no history state at all.
///
/// Every victim request draws a uniformly random way from the allowed
/// mask. Because there is *no state*, neither hits nor misses by a
/// sender can be observed through replacement decisions — the
/// strongest (and simplest) of the paper's policy-substitution
/// defenses, at the cost of the miss-rate changes measured in Fig. 9.
///
/// The generator is seeded explicitly so simulations stay
/// reproducible.
#[derive(Debug, Clone)]
pub struct RandomRepl {
    ways: usize,
    rng: SmallRng,
}

impl RandomRepl {
    /// Creates random-replacement state for `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds 64.
    pub fn new(ways: usize, seed: u64) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        Self {
            ways,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl SetReplacement for RandomRepl {
    fn ways(&self) -> usize {
        self.ways
    }

    fn touch(&mut self, _way: usize) {
        // No state to update.
    }

    fn fill(&mut self, _way: usize) {
        // No state to update.
    }

    fn victim_among(&mut self, allowed: WayMask) -> usize {
        assert_valid_victim_request(self.ways, allowed);
        let usable = allowed.intersect(WayMask::all(self.ways));
        let k = self.rng.gen_range(0..usable.count());
        let way = usable.iter().nth(k).expect("mask checked non-empty");
        way
    }

    fn reset(&mut self) {
        // Stateless (the RNG stream is part of the simulation, not
        // of the cache state).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_uniformish() {
        let mut r = RandomRepl::new(8, 42);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[r.victim()] += 1;
        }
        for (w, &c) in counts.iter().enumerate() {
            assert!(
                (800..1200).contains(&c),
                "way {w} chosen {c} times out of 8000, far from uniform"
            );
        }
    }

    #[test]
    fn masked_victims_stay_in_mask() {
        let mut r = RandomRepl::new(8, 7);
        let mask = WayMask::single(1).with(5).with(6);
        for _ in 0..100 {
            assert!(mask.contains(r.victim_among(mask)));
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = RandomRepl::new(8, 9);
        let mut b = RandomRepl::new(8, 9);
        for _ in 0..64 {
            assert_eq!(a.victim(), b.victim());
        }
    }

    #[test]
    fn accesses_do_not_perturb_stream() {
        // Determinism of the victim stream must not depend on how
        // many hits occurred (no hidden state).
        let mut a = RandomRepl::new(8, 9);
        let mut b = RandomRepl::new(8, 9);
        for w in 0..8 {
            a.touch(w);
            a.fill(w);
        }
        for _ in 0..16 {
            assert_eq!(a.victim(), b.victim());
        }
    }
}
