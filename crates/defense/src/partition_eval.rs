//! Partitioning defenses (§IX-B): way-partitioning alone is not
//! enough — the replacement state must be partitioned too (DAWG).
//!
//! Most secure-cache proposals partition the *lines* between domains
//! but leave one Tree-PLRU per set. The tree's upper bits are shared
//! state: the attacker's accesses to its own ways flip the root-path
//! bits and steer which of the victim's ways gets evicted next —
//! observable exactly like the ordinary LRU channel. DAWG gives each
//! domain its own tree half, removing the shared bits.

use cache_sim::replacement::{PolicyKind, SetState, WayMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of one partitioning experiment: how often the receiver's
/// next victim (within its own ways) differs depending on a single
/// sender access to the sender's own ways.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionLeak {
    /// Fraction of trials where the sender's access changed the
    /// receiver's victim choice (0 = no channel).
    pub victim_flip_rate: f64,
    /// Trials run.
    pub trials: usize,
}

/// Measures the channel through a *way-partitioned* cache set that
/// still shares one Tree-PLRU (the vulnerable design): the receiver
/// owns the even ways, the sender the odd ways (way partitions in
/// real proposals follow allocation needs, not tree topology), and
/// victims are mask-restricted — but `touch` updates the shared
/// tree, so the sender's accesses steer the receiver's victims.
///
/// (A partition that happens to align with a whole subtree hides the
/// shared root bit from masked victim walks — aligning partitions to
/// subtrees *and* splitting the state is precisely what DAWG does.)
pub fn shared_plru_leak(trials: usize, seed: u64) -> PartitionLeak {
    let mut rng = SmallRng::seed_from_u64(seed);
    let receiver_ways = WayMask::single(0).with(2).with(4).with(6);
    let sender_ways = [1usize, 3, 5, 7];
    let mut flips = 0usize;
    for _ in 0..trials {
        let mut tree = SetState::new(PolicyKind::TreePlru, 8, 0);
        // Random prior history across all ways.
        for _ in 0..rng.gen_range(4..24) {
            let w = rng.gen_range(0..8);
            tree.touch(w);
        }
        let mut with_sender = tree.clone();
        // Receiver touches its ways in order (its init phase).
        for w in [0usize, 2, 4, 6] {
            tree.touch(w);
            with_sender.touch(w);
        }
        // Sender (its own way) touches once in one world only.
        with_sender.touch(sender_ways[rng.gen_range(0..4usize)]);
        let v_quiet = tree.victim_among(receiver_ways);
        let v_noisy = with_sender.victim_among(receiver_ways);
        if v_quiet != v_noisy {
            flips += 1;
        }
    }
    PartitionLeak {
        victim_flip_rate: flips as f64 / trials as f64,
        trials,
    }
}

/// The same experiment against DAWG-style partitioned state: the
/// sender's accesses touch only its own half-tree, so the receiver's
/// victim can never depend on them.
pub fn dawg_partitioned_leak(trials: usize, seed: u64) -> PartitionLeak {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut flips = 0usize;
    for _ in 0..trials {
        let mut state = SetState::new(PolicyKind::PartitionedTreePlru, 8, 0);
        for _ in 0..rng.gen_range(4..24) {
            state.touch(rng.gen_range(0..8));
        }
        let mut with_sender = state.clone();
        // Receiver (ways 0..4) touches its ways in order.
        for w in 0..4 {
            state.touch(w);
            with_sender.touch(w);
        }
        // Sender (ways 4..8) touches once in one world only.
        with_sender.touch(rng.gen_range(4..8));
        let v_quiet = state.victim();
        let v_noisy = with_sender.victim();
        if v_quiet != v_noisy {
            flips += 1;
        }
    }
    PartitionLeak {
        victim_flip_rate: flips as f64 / trials as f64,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_tree_leaks_through_way_partitioning() {
        let leak = shared_plru_leak(2_000, 1);
        assert!(
            leak.victim_flip_rate > 0.2,
            "way-partitioned shared-PLRU must leak, got {:.3}",
            leak.victim_flip_rate
        );
    }

    #[test]
    fn dawg_partitioned_state_does_not_leak() {
        let leak = dawg_partitioned_leak(2_000, 1);
        assert_eq!(
            leak.victim_flip_rate, 0.0,
            "DAWG-partitioned state must never flip the victim"
        );
    }

    #[test]
    fn experiments_are_deterministic() {
        assert_eq!(shared_plru_leak(500, 9), shared_plru_leak(500, 9));
        assert_eq!(dawg_partitioned_leak(500, 9), dawg_partitioned_leak(500, 9));
    }
}
