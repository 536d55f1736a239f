//! The Table I study: probability that `line 0` is evicted by the
//! receiver's access sequence under each replacement policy.
//!
//! PLRU policies keep less state than true LRU, so the victim after
//! a fixed access sequence still depends on history. The paper's
//! in-house simulator measures, over 10,000 trials, how often
//! `line 0` is actually evicted — i.e. how reliable the channels'
//! decode step is — as a function of policy, access sequence, initial
//! condition, and how many times the loop has already run.
//!
//! Every trial runs on a [`OneSet`]: one 8-way set held inline as a
//! fixed-size value, built once per trial, stepped through the same
//! packed replacement logic as `cache_sim::Cache` (which it matches
//! access for access), with lines named by their tags `0..=9`. A
//! trial allocates nothing. The generator draws — the warm-up's line
//! picks and shuffle, Sequence 2's insertion coin flips — happen in
//! the same order as they always have, and Random's per-trial seed is
//! still `seed ^ t·0x9e3779b9`, so the curves are bit-for-bit those
//! of a `Cache`-backed run.

use cache_sim::one_set::OneSet;
use cache_sim::replacement::PolicyKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which access sequence the loop body replays (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceKind {
    /// Sequence 1: `0 → 1 → … → 7 → 8` — the Algorithm 1 receiver's
    /// pattern when the sender sends `0`.
    Seq1,
    /// Sequence 2: `0 (→x) → 1 (→x) → … → 7`, each `x` inserted with
    /// probability 50%, at least one forced — the Algorithm 2
    /// pattern under hyper-threaded interleaving when the sender
    /// sends `1`.
    Seq2,
}

/// The state of the set before the measured loop starts (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitCond {
    /// Lines 0–7 (and possibly others) touched in random order.
    Random,
    /// Lines 0–7 previously accessed in order (Sequence 2 warm-up) —
    /// the condition the paper recommends the receiver to establish.
    Sequential,
}

/// One cell bundle of Table I: eviction probability of `line 0`
/// after each loop iteration.
#[derive(Debug, Clone)]
pub struct EvictionCurve {
    /// Policy measured.
    pub policy: PolicyKind,
    /// Sequence replayed by the loop.
    pub sequence: SequenceKind,
    /// Warm-up condition.
    pub init: InitCond,
    /// `probabilities[k]` = P(line 0 evicted) observed after loop
    /// iteration `k+1`.
    pub probabilities: Vec<f64>,
}

impl EvictionCurve {
    /// The paper's ">= 8" row: mean probability over iterations 8+.
    pub fn steady_state(&self) -> f64 {
        let tail: Vec<f64> = self.probabilities.iter().skip(7).copied().collect();
        if tail.is_empty() {
            *self.probabilities.last().unwrap_or(&0.0)
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

/// Number of trials the paper uses per configuration.
pub const PAPER_TRIALS: usize = 10_000;

/// Line "x" of Sequence 2: maps to the set, distinct from lines 0–7.
const LINE_X: u64 = 8;

fn run_sequence(set: &mut OneSet, seq: SequenceKind, rng: &mut SmallRng) {
    match seq {
        SequenceKind::Seq1 => {
            for i in 0..=8u64 {
                set.access(i);
            }
        }
        SequenceKind::Seq2 => {
            // Insert x after each of lines 0..=6 with p=0.5; force at
            // least one insertion (the paper assumes x is accessed at
            // least once).
            let mut inserts = [false; 7];
            for b in &mut inserts {
                *b = rng.gen_bool(0.5);
            }
            if inserts.iter().all(|&b| !b) {
                let k = rng.gen_range(0..inserts.len());
                inserts[k] = true;
            }
            for (i, insert) in inserts.into_iter().enumerate() {
                set.access(i as u64);
                if insert {
                    set.access(LINE_X);
                }
            }
            set.access(7);
        }
    }
}

fn warm_up(set: &mut OneSet, init: InitCond, rng: &mut SmallRng) {
    match init {
        InitCond::Random => {
            // Lines 0–7 and possibly other lines, random order.
            for _ in 0..64 {
                let i = rng.gen_range(0..10u64); // 0..=7, x, and one stranger
                set.access(i);
            }
            // Make sure every line 0–7 was touched at least once.
            let mut order: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for i in order {
                set.access(i);
            }
        }
        InitCond::Sequential => {
            // The paper warms up with Sequence 2 runs.
            for _ in 0..3 {
                run_sequence(set, SequenceKind::Seq2, rng);
            }
        }
    }
}

/// Measures the Table I eviction curve for one configuration.
///
/// Runs `trials` independent experiments; in each, the warm-up
/// establishes `init`, then the sequence is replayed `iterations`
/// times, recording after each iteration whether `line 0` is still
/// resident.
pub fn eviction_curve(
    policy: PolicyKind,
    sequence: SequenceKind,
    init: InitCond,
    iterations: usize,
    trials: usize,
    seed: u64,
) -> EvictionCurve {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut evicted_counts = vec![0u64; iterations];
    for t in 0..trials {
        let mut set = OneSet::new(policy, seed ^ (t as u64).wrapping_mul(0x9e37_79b9), 0);
        warm_up(&mut set, init, &mut rng);
        for count in evicted_counts.iter_mut() {
            run_sequence(&mut set, sequence, &mut rng);
            if !set.probe(0) {
                *count += 1;
            }
        }
    }
    EvictionCurve {
        policy,
        sequence,
        init,
        probabilities: evicted_counts
            .into_iter()
            .map(|c| c as f64 / trials as f64)
            .collect(),
    }
}

/// Runs the full Table I grid (3 policies × 2 sequences × 2 initial
/// conditions) with the given trial count.
pub fn table1(iterations: usize, trials: usize, seed: u64) -> Vec<EvictionCurve> {
    let mut out = Vec::new();
    for init in [InitCond::Random, InitCond::Sequential] {
        for policy in PolicyKind::TABLE1 {
            for sequence in [SequenceKind::Seq1, SequenceKind::Seq2] {
                out.push(eviction_curve(
                    policy, sequence, init, iterations, trials, seed,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIALS: usize = 400;

    #[test]
    fn true_lru_always_evicts_line_0() {
        // Table I: the LRU column is 100% everywhere.
        for seq in [SequenceKind::Seq1, SequenceKind::Seq2] {
            for init in [InitCond::Random, InitCond::Sequential] {
                let curve = eviction_curve(PolicyKind::Lru, seq, init, 3, TRIALS, 1);
                for (k, &p) in curve.probabilities.iter().enumerate() {
                    assert!(
                        (p - 1.0).abs() < f64::EPSILON,
                        "LRU {seq:?}/{init:?} iter {k}: {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn tree_plru_seq1_sequential_converges_to_certainty() {
        // Table I sequential/Seq1 for Tree-PLRU: 90.9% at iteration 1,
        // 100% from iteration 2.
        let curve = eviction_curve(
            PolicyKind::TreePlru,
            SequenceKind::Seq1,
            InitCond::Sequential,
            4,
            TRIALS,
            2,
        );
        assert!(
            curve.probabilities[0] > 0.6,
            "iter 1 should usually evict, got {}",
            curve.probabilities[0]
        );
        assert!(
            curve.probabilities[2] > 0.95,
            "by iter 3 eviction should be near-certain, got {}",
            curve.probabilities[2]
        );
    }

    #[test]
    fn tree_plru_random_init_is_unreliable_at_first() {
        // Table I random/Seq1 iteration 1 is ~50% for Tree-PLRU.
        let curve = eviction_curve(
            PolicyKind::TreePlru,
            SequenceKind::Seq1,
            InitCond::Random,
            1,
            TRIALS,
            3,
        );
        let p = curve.probabilities[0];
        assert!(
            (0.2..0.85).contains(&p),
            "random-init first-iteration eviction should be uncertain, got {p}"
        );
    }

    #[test]
    fn tree_plru_seq2_stays_noisy() {
        // Table I: Tree-PLRU Seq2 hovers around ~62% even at >= 8
        // iterations — the Algorithm 2 noise floor.
        let curve = eviction_curve(
            PolicyKind::TreePlru,
            SequenceKind::Seq2,
            InitCond::Sequential,
            12,
            TRIALS,
            4,
        );
        let steady = curve.steady_state();
        assert!(
            (0.35..0.9).contains(&steady),
            "Seq2 steady state should stay noticeably below 100%, got {steady}"
        );
    }

    #[test]
    fn bit_plru_seq1_converges_like_paper() {
        // Table I: Bit-PLRU Seq1 reaches 100% at >= 8 iterations.
        let curve = eviction_curve(
            PolicyKind::BitPlru,
            SequenceKind::Seq1,
            InitCond::Sequential,
            12,
            TRIALS,
            5,
        );
        assert!(
            curve.steady_state() > 0.95,
            "Bit-PLRU Seq1 steady state should approach 100%, got {}",
            curve.steady_state()
        );
    }

    #[test]
    fn table1_grid_has_12_cells() {
        let rows = table1(2, 50, 7);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = eviction_curve(
            PolicyKind::TreePlru,
            SequenceKind::Seq2,
            InitCond::Random,
            3,
            100,
            9,
        );
        let b = eviction_curve(
            PolicyKind::TreePlru,
            SequenceKind::Seq2,
            InitCond::Random,
            3,
            100,
            9,
        );
        assert_eq!(a.probabilities, b.probabilities);
    }
}
