//! The simulator's packed replacement policies against the
//! independently written object policies of the `test-support`
//! crate.
//!
//! `cache_sim::replacement::SetState` runs the same packed policy
//! logic as every set of a `Cache`, a `PlCache` and a `OneSet`; the
//! oracle's `Policy` is the per-set object form the experiments were
//! first built on. Both are driven through one mixed
//! touch / fill / masked-victim schedule and must agree step for
//! step, Random's victim stream included.

use lru_leak::cache_sim::replacement::{PolicyKind, SetState, WayMask};
use test_support::{set_seed, Policy, SetReplacement};

/// Packed state must agree with the per-set reference policies on a
/// mixed access/fill/victim schedule over several sets, each seeded
/// like the same set of a cache.
#[test]
fn packed_matches_reference_policies() {
    for kind in PolicyKind::ALL {
        let ways = 8;
        let sets = 4;
        let seed = 0xfeed;
        let mut packed: Vec<SetState> = (0..sets)
            .map(|s| SetState::new(kind, ways, set_seed(seed, s as u64)))
            .collect();
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
                    packed[set].touch(way);
                    reference[set].touch(way);
                }
                1 => {
                    packed[set].fill(way);
                    reference[set].fill(way);
                }
                _ => {
                    let mask_bits = 1 | ((x >> 5) & WayMask::all(ways).bits());
                    let mask = WayMask::from_bits(mask_bits);
                    assert_eq!(
                        packed[set].victim_among(mask),
                        reference[set].victim_among(mask),
                        "{kind} diverged at step {step} (set {set}, mask {mask})"
                    );
                }
            }
        }
    }
}

#[test]
fn random_victim_full_matches_reference_stream() {
    // The full-mask fast path must draw exactly like RandomRepl with
    // a full mask so the RNG streams stay aligned.
    let ways = 8;
    let mut packed: Vec<SetState> = (0..2)
        .map(|s| SetState::new(PolicyKind::Random, ways, set_seed(9, s as u64)))
        .collect();
    let mut reference: Vec<Policy> = (0..2)
        .map(|s| Policy::new(PolicyKind::Random, ways, set_seed(9, s as u64)))
        .collect();
    for i in 0..200 {
        let set = i % 2;
        let fast = packed[set].victim();
        let refv = reference[set].victim_among(WayMask::all(ways));
        assert_eq!(fast, refv, "draw {i} diverged");
    }
}
