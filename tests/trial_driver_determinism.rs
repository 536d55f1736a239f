//! The parallel trial driver must be bit-identical to sequential
//! execution: trial results depend only on the trial index (and the
//! seed derived from it), never on scheduling, worker count or
//! completion order.

use lru_leak::lru_channel::covert::{percent_ones, PercentOnesOpts, Variant};
use lru_leak::lru_channel::params::{ChannelParams, Platform};
use lru_leak::lru_channel::trials::{derive_seed, fold_chunk_size, run_trials_fold_ctrl, RunCtrl};

/// Every trial result in index order, under `ctrl`.
fn collect<T: Send>(ctrl: &RunCtrl, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    run_trials_fold_ctrl(
        ctrl,
        n,
        f,
        Vec::new,
        |acc, _i, v| acc.push(v),
        |acc, mut part| acc.append(&mut part),
    )
    .unwrap()
}

fn on(workers: usize) -> RunCtrl<'static> {
    RunCtrl::new().with_workers(workers)
}

/// A small but real grid of `(params, bit, seed)` points: every
/// point runs the full time-sliced channel simulation (machine,
/// scheduler, probe).
fn small_grid() -> Vec<(ChannelParams, bool, u64)> {
    let mut points = Vec::new();
    for bit in [false, true] {
        for d in [4usize, 8] {
            let tr = 2_000_000u64;
            let params = ChannelParams {
                d,
                target_set: 0,
                ts: tr,
                tr,
            };
            let seed = derive_seed(0xf1e6, (d as u64) << 1 | u64::from(bit));
            points.push((params, bit, seed));
        }
    }
    points
}

#[test]
fn parallel_grid_matches_sequential_grid() {
    let platform = Platform::e5_2690();
    let points = small_grid();
    let point = |i: usize| {
        let (params, bit, seed) = points[i];
        let opts = PercentOnesOpts::default();
        percent_ones(platform, params, Variant::SharedMemory, bit, 12, seed, opts).unwrap()
    };
    // Sequential oracle: map the same closure in index order on one
    // thread.
    let seq: Vec<f64> = (0..points.len()).map(point).collect();
    let par = collect(&on(4), points.len(), point);
    assert_eq!(
        seq, par,
        "parallel grid must be bit-identical to sequential"
    );
}

#[test]
fn worker_count_does_not_change_results() {
    let f = |i: usize| {
        // A deterministic but non-trivial per-trial computation.
        let mut acc = derive_seed(0xabc, i as u64);
        for _ in 0..1000 {
            acc = acc.rotate_left(7) ^ acc.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        acc
    };
    let one = collect(&on(1), 64, f);
    for workers in [2, 3, 4, 8, 64] {
        assert_eq!(collect(&on(workers), 64, f), one, "workers={workers}");
    }
}

#[test]
fn default_driver_matches_sequential() {
    let f = |i: usize| derive_seed(7, i as u64) % 1000;
    assert_eq!(collect(&RunCtrl::new(), 100, f), collect(&on(1), 100, f));
}

#[test]
fn per_trial_seeds_are_unique() {
    let mut seen = std::collections::HashSet::new();
    for i in 0..10_000u64 {
        assert!(seen.insert(derive_seed(0x1234, i)), "duplicate seed at {i}");
    }
}

#[test]
fn fold_pipeline_is_bit_identical_for_floating_point_reductions() {
    // A floating-point mean-of-error-rates shape: (a + b) + c differs
    // from a + (b + c) in the last ulp, so only a fixed combination
    // order reproduces. The fold driver pins chunk layout and merge
    // order as functions of n alone.
    let mean_on = |workers: usize, n: usize| {
        let sum = run_trials_fold_ctrl(
            &on(workers),
            n,
            |i| 1.0 / (derive_seed(0x44, i as u64) % 997 + 1) as f64,
            || 0.0f64,
            |acc, _i, x| *acc += x,
            |acc, part| *acc += part,
        )
        .unwrap();
        sum / n as f64
    };
    for n in [1usize, 63, 64, 65, 4096, 10_007] {
        let seq = mean_on(1, n);
        for workers in [2, 4, 8] {
            assert_eq!(
                seq.to_bits(),
                mean_on(workers, n).to_bits(),
                "n={n} workers={workers}"
            );
        }
    }
}

#[test]
fn fold_pipeline_matches_a_plain_sequential_fold_over_collected_results() {
    // Integer reduction: the chunked fold must agree exactly with
    // folding the collected per-trial results in index order.
    let trial = |i: usize| derive_seed(9, i as u64) % 100_000;
    let n = 5_000;
    let collected: u64 = collect(&on(1), n, trial).into_iter().sum();
    let streamed = run_trials_fold_ctrl(
        &on(4),
        n,
        trial,
        || 0u64,
        |acc, _i, v| *acc += v,
        |acc, part| *acc += part,
    )
    .unwrap();
    assert_eq!(collected, streamed);
}

#[test]
fn chunk_layout_is_a_function_of_n_alone() {
    // The invariant the worker-count determinism rests on: chunk
    // boundaries never depend on how many threads execute the sweep.
    for n in [0usize, 1, 100, 40_000, 1_000_000] {
        let c = fold_chunk_size(n);
        assert!((1..=64).contains(&c), "chunk {c} out of range for n={n}");
    }
    assert_eq!(fold_chunk_size(1_000_000), 64);
}
