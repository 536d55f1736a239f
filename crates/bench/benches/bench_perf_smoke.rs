//! `bench_perf_smoke` — the performance gate of the hot-path
//! refactor.
//!
//! Measures steady-state accesses/second on a two-level L1/L2
//! hierarchy driven by a random line-aligned address stream, for
//! both storage layouts:
//!
//! * **AoS baseline** — the retained array-of-structs reference
//!   cache ([`cache_sim::RefCache`]), wired into the same two-level
//!   demand logic the hierarchy uses;
//! * **SoA hot path** — the flat [`cache_sim::Cache`] behind
//!   [`cache_sim::CacheHierarchy`].
//!
//! It also times a small Fig. 6-style percent-of-ones grid through
//! the deterministic trial driver sequentially and on 4 workers,
//! asserting bit-identical results, and emits every number to
//! `BENCH_hotpath.json` so the perf trajectory is tracked from this
//! PR onward. Run with:
//!
//! ```text
//! cargo bench -p bench-harness --bench bench_perf_smoke
//! ```

use std::time::Instant;

use bench_harness::header;
use cache_sim::addr::{PhysAddr, VirtAddr};
use cache_sim::cache::Cache;
use cache_sim::counters::PerfCounters;
use cache_sim::geometry::CacheGeometry;
use cache_sim::hierarchy::{CacheHierarchy, Latencies};
use cache_sim::reference::RefCache;
use cache_sim::replacement::PolicyKind;
use lru_channel::covert::{percent_ones, PercentOnesOpts, Variant};
use lru_channel::params::{ChannelParams, Platform};
use lru_channel::trials::{derive_seed, run_trials_fold_ctrl, RunCtrl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Accesses per timed measurement.
const ACCESSES: usize = 2_000_000;

/// Samples per percent-ones grid point — the same count the
/// fig6/fig8/fig15 registry grids default to.
const GRID_SAMPLES: usize = 150;

/// Timed repetitions per configuration; the best is reported (the
/// shared CI hosts are noisy).
const REPS: usize = 3;

/// The two working-set tiers of the microbenchmark: L1-resident
/// (the shape of the covert-channel inner loops) and 4× the L2
/// capacity (real miss traffic at every level).
const TIERS: [(&str, u64); 2] = [("l1_resident", 16 * 1024), ("l2_spill", 1024 * 1024)];

/// L2 geometry of the microbenchmark (256 KiB, 8-way).
fn l2_geom() -> CacheGeometry {
    CacheGeometry::new(64, 512, 8).unwrap()
}

/// Pre-generated random line-aligned stream over `universe` bytes,
/// RNG excluded from the timed region.
fn address_stream(n: usize, universe: u64, seed: u64) -> Vec<PhysAddr> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| PhysAddr::new(rng.gen_range(0..universe) & !63))
        .collect()
}

/// The AoS two-level demand path: identical control flow to
/// [`CacheHierarchy::access`] (no LLC, no prefetcher, no way
/// predictor), over the reference layout.
fn aos_access(
    l1: &mut RefCache,
    l2: &mut RefCache,
    lat: &Latencies,
    pa: PhysAddr,
    counters: &mut PerfCounters,
) -> u32 {
    counters.l1d_accesses += 1;
    if l1.access(pa).hit {
        return lat.l1;
    }
    counters.l1d_misses += 1;
    counters.l2_accesses += 1;
    if l2.access(pa).hit {
        lat.l2
    } else {
        counters.l2_misses += 1;
        lat.mem
    }
}

struct LayoutResult {
    accesses_per_sec: f64,
    checksum: u64,
}

fn measure_aos(stream: &[PhysAddr], kind: PolicyKind) -> LayoutResult {
    let lat = Latencies::gem5_fig9();
    let mut l1 = RefCache::new(CacheGeometry::l1d_paper(), kind, 1);
    let mut l2 = RefCache::new(l2_geom(), PolicyKind::Lru, 2);
    let mut counters = PerfCounters::new();
    // Warm-up pass to reach steady state before timing.
    for &pa in &stream[..stream.len() / 8] {
        aos_access(&mut l1, &mut l2, &lat, pa, &mut counters);
    }
    let mut cycles = 0u64;
    let start = Instant::now();
    for &pa in stream {
        cycles += aos_access(&mut l1, &mut l2, &lat, pa, &mut counters) as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    LayoutResult {
        accesses_per_sec: stream.len() as f64 / secs,
        checksum: cycles ^ counters.l1d_misses ^ counters.l2_misses,
    }
}

fn measure_soa(stream: &[PhysAddr], kind: PolicyKind) -> LayoutResult {
    let lat = Latencies::gem5_fig9();
    let l1 = Cache::new(CacheGeometry::l1d_paper(), kind, 1);
    let l2 = Cache::new(l2_geom(), PolicyKind::Lru, 2);
    let mut h = CacheHierarchy::new(l1, l2, None, lat);
    let mut counters = PerfCounters::new();
    for &pa in &stream[..stream.len() / 8] {
        h.access(VirtAddr::new(pa.raw()), pa, &mut counters);
    }
    let mut cycles = 0u64;
    let start = Instant::now();
    for &pa in stream {
        cycles += h.access(VirtAddr::new(pa.raw()), pa, &mut counters).cycles as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    LayoutResult {
        accesses_per_sec: stream.len() as f64 / secs,
        checksum: cycles ^ counters.l1d_misses ^ counters.l2_misses,
    }
}

/// A Fig. 6-sized workload for the parallel-scaling measurement:
/// the full `d` sweep at the largest `Tr` of the paper's grid, both
/// bits, at the same sample count the fig6/fig8 benches use. Each
/// point is `(params, bit, seed)`.
fn scaling_grid() -> Vec<(ChannelParams, bool, u64)> {
    let mut points = Vec::new();
    for bit in [false, true] {
        for (i, &d) in [1usize, 2, 4, 7, 8].iter().enumerate() {
            let tr = 400_000_000u64;
            let params = ChannelParams {
                d,
                target_set: 0,
                ts: tr,
                tr,
            };
            let seed = derive_seed(0x57a6e, (i as u64) << 1 | u64::from(bit));
            points.push((params, bit, seed));
        }
    }
    points
}

fn run_grid_on(workers: usize, points: &[(ChannelParams, bool, u64)]) -> (f64, Vec<f64>) {
    let platform = Platform::e5_2690();
    let start = Instant::now();
    let fractions: Vec<f64> = run_trials_fold_ctrl(
        &RunCtrl::new().with_workers(workers),
        points.len(),
        |i| {
            let (params, bit, seed) = points[i];
            let opts = PercentOnesOpts::default();
            percent_ones(
                platform,
                params,
                Variant::SharedMemory,
                bit,
                GRID_SAMPLES,
                seed,
                opts,
            )
            .expect("valid parameters")
        },
        Vec::new,
        |acc, _i, v| acc.push(v),
        |acc, mut part| acc.append(&mut part),
    )
    .expect("plain run");
    (start.elapsed().as_secs_f64(), fractions)
}

fn main() {
    header(
        "bench_perf_smoke",
        "hot-path throughput gate",
        "accesses/sec on the random-access L1/L2 hierarchy: AoS baseline vs SoA, plus parallel trial scaling",
    );

    let mut rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    let mut max_speedup: f64 = 0.0;
    for (tier, universe) in TIERS {
        let stream = address_stream(ACCESSES, universe, 0xbe7c);
        for kind in [
            PolicyKind::TreePlru,
            PolicyKind::Lru,
            PolicyKind::BitPlru,
            PolicyKind::Fifo,
        ] {
            let mut aos_best = 0.0f64;
            let mut soa_best = 0.0f64;
            for _ in 0..REPS {
                let aos = measure_aos(&stream, kind);
                let soa = measure_soa(&stream, kind);
                assert_eq!(
                    aos.checksum, soa.checksum,
                    "{kind}: layouts disagreed on the benchmark stream"
                );
                aos_best = aos_best.max(aos.accesses_per_sec);
                soa_best = soa_best.max(soa.accesses_per_sec);
            }
            let speedup = soa_best / aos_best;
            min_speedup = min_speedup.min(speedup);
            max_speedup = max_speedup.max(speedup);
            println!(
                "{tier:<12} {kind:<22} AoS {aos_best:>12.0}/s   SoA {soa_best:>12.0}/s   speedup {speedup:>5.2}x",
            );
            rows.push((format!("{tier}/{kind}"), aos_best, soa_best, speedup));
        }
    }

    let points = scaling_grid();
    let (seq_secs, seq_fracs) = run_grid_on(1, &points);
    let (par_secs, par_fracs) = run_grid_on(4, &points);
    assert_eq!(seq_fracs, par_fracs, "parallel grid must be bit-identical");
    let grid_speedup = seq_secs / par_secs;
    println!(
        "\ntimesliced grid ({} points): sequential {seq_secs:.2}s, 4 workers {par_secs:.2}s, speedup {grid_speedup:.2}x (bit-identical)",
        points.len()
    );

    bench_harness::delta_line(
        "BENCH_hotpath.json",
        "min layout speedup",
        &["min_speedup"],
        min_speedup,
    );
    // This gate rewrites the whole file; carry the lockstep gate's
    // block over so the two trajectories coexist.
    let lockstep_block = bench_harness::bench_json_get("BENCH_hotpath.json", "lockstep");
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"accesses_per_measurement\": {ACCESSES},\n"));
    json.push_str(&format!("  \"reps_best_of\": {REPS},\n"));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"hierarchy\": \"L1 32KiB/8w + L2 256KiB/8w, random line-aligned streams (L1-resident and 4x-L2 tiers)\",\n");
    json.push_str("  \"baseline\": \"seed AoS layout (cache_sim::reference::RefCache, division-based slicing)\",\n");
    json.push_str("  \"layouts\": {\n");
    for (i, (key, aos, soa, speedup)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{key}\": {{ \"aos_accesses_per_sec\": {aos:.0}, \"soa_accesses_per_sec\": {soa:.0}, \"speedup\": {speedup:.3} }}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"min_speedup\": {min_speedup:.3},\n"));
    json.push_str(&format!("  \"max_speedup\": {max_speedup:.3},\n"));
    json.push_str("  \"trial_grid\": {\n");
    json.push_str(&format!("    \"points\": {},\n", points.len()));
    json.push_str(&format!("    \"sequential_secs\": {seq_secs:.3},\n"));
    json.push_str(&format!("    \"workers4_secs\": {par_secs:.3},\n"));
    json.push_str(&format!("    \"speedup\": {grid_speedup:.3},\n"));
    json.push_str("    \"bit_identical\": true\n");
    json.push_str("  }\n");
    json.push_str("}\n");
    // Tests and benches run with CWD = the package dir; anchor the
    // report at the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(out, &json).expect("write BENCH_hotpath.json");
    if let Some(block) = lockstep_block {
        bench_harness::bench_json_upsert("BENCH_hotpath.json", "lockstep", &block);
    }
    println!(
        "\nwrote BENCH_hotpath.json (layout speedup {min_speedup:.2}-{max_speedup:.2}x, host_threads {host_threads})"
    );
}
