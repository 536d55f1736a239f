//! The per-policy Fig. 9 reference: one benchmark under one L1D
//! policy, run through a fresh `Machine` and its general
//! `CacheHierarchy`, generating the address stream for this policy
//! alone. This is how `fig9_row` measured every policy before it
//! moved to one stream over three fixed-geometry lanes
//! (`workloads::cpi::measure_policies`), which must match it exactly.

use lru_leak::cache_sim::profiles::MicroArch;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::exec_sim::machine::Machine;
use lru_leak::workloads::cpi::{BenchmarkResult, CpiModel};
use lru_leak::workloads::spec_like::Benchmark;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `accesses` memory references of `bench` through a fresh
/// machine built from `arch` with the given L1D policy, and returns
/// miss rates plus modelled CPI.
pub fn measure_benchmark(
    bench: Benchmark,
    arch: &MicroArch,
    policy: PolicyKind,
    accesses: u64,
    seed: u64,
) -> BenchmarkResult {
    let mut machine = Machine::new(*arch, policy, seed);
    let pid = machine.create_process();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbe6c);

    // One private region per mix component, sized to its working
    // set. Patterns emit offsets; we add the region base.
    let mut mix = bench.patterns(seed);
    let total_weight: f64 = mix.iter().map(|(w, _)| *w).sum();
    let bases: Vec<_> = mix
        .iter()
        .map(|(_, p)| machine.alloc_pages(pid, p.extent().div_ceil(4096).max(1)))
        .collect();

    let l1_lat = arch.latencies.l1 as f64;
    let mut exposed_penalty = 0.0f64;
    // Warm-up half as long as the measurement, then measure in
    // steady state.
    let warmup = accesses / 2;
    for step in 0..warmup + accesses {
        if step == warmup {
            machine.reset_counters();
            exposed_penalty = 0.0;
        }
        // Weighted pick of a mix component.
        let mut pick = rng.gen_range(0.0..total_weight);
        let mut idx = 0;
        for (i, (w, _)) in mix.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= *w;
        }
        let off = mix[idx].1.next_offset();
        let out = machine.access(pid, bases[idx].add(off));
        exposed_penalty += (out.cycles as f64 - l1_lat).max(0.0);
    }

    let c = machine.counters(pid);
    let rates = c.miss_rates();
    let model = CpiModel::for_benchmark(&bench);
    BenchmarkResult {
        name: bench.name,
        policy,
        accesses,
        l1d_miss_rate: rates.l1d,
        l2_miss_rate: rates.l2,
        cpi: model.cpi(exposed_penalty / accesses as f64),
    }
}
