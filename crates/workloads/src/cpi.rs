//! Trace-driven timing model: L1D miss rate and CPI per benchmark
//! and replacement policy (the two panels of Fig. 9).
//!
//! [`measure_policies`] generates a benchmark's address stream once
//! and replays it, a block at a time, through one fixed-geometry
//! L1+L2 lane ([`cache_sim::two_level::TwoLevel`]) per L1D policy.
//! The lanes share nothing but the addresses, so each policy's miss
//! rates and CPI are exactly those of a run of that policy alone;
//! the workspace `two_level_kernel` suite pins them against a
//! per-policy reference run through a full `Machine`.

use cache_sim::addr::{PhysAddr, PAGE_SIZE};
use cache_sim::counters::PerfCounters;
use cache_sim::profiles::MicroArch;
use cache_sim::replacement::PolicyKind;
use cache_sim::two_level::TwoLevel;
use exec_sim::machine::Machine;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access_pattern::AccessPattern;
use crate::spec_like::{pick_component, Benchmark};

/// The timing model: out-of-order cores overlap much of a miss's
/// latency, so only `mlp_exposure` of the beyond-L1 cycles shows up
/// in CPI. This is what makes the Fig. 9 CPI deltas tiny even where
/// miss-rate deltas are visible ("an L1 miss can still hit in L2").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiModel {
    /// Cycles per instruction with a perfect L1.
    pub base_cpi: f64,
    /// Memory references per instruction.
    pub mem_per_instr: f64,
    /// Fraction of miss latency that stalls retirement.
    pub mlp_exposure: f64,
}

impl CpiModel {
    /// The model for a benchmark's published traits.
    pub fn for_benchmark(bench: &Benchmark) -> Self {
        let t = bench.traits();
        CpiModel {
            base_cpi: t.base_cpi,
            mem_per_instr: t.mem_per_instr,
            mlp_exposure: t.mlp_exposure,
        }
    }

    /// CPI given the average *exposed* memory penalty per access.
    pub fn cpi(&self, avg_penalty_per_access: f64) -> f64 {
        self.base_cpi + self.mem_per_instr * avg_penalty_per_access * self.mlp_exposure
    }
}

/// Result of running one benchmark under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: &'static str,
    /// L1D replacement policy used.
    pub policy: PolicyKind,
    /// Demand accesses simulated.
    pub accesses: u64,
    /// L1D miss rate.
    pub l1d_miss_rate: f64,
    /// L2 (local) miss rate.
    pub l2_miss_rate: f64,
    /// Modelled cycles per instruction.
    pub cpi: f64,
}

/// Runs `accesses` memory references of `bench` under each L1D
/// policy of `policies` and returns, in the same order, each
/// policy's miss rates plus modelled CPI.
///
/// The address stream does not depend on the policy, so it is
/// generated once, a block at a time, and every policy's
/// [`TwoLevel`] lane — the two-level hierarchy of `arch` with that
/// L1D policy — steps over each block in turn. Each lane keeps its
/// own counters and its own exposed-penalty sum, added in stream
/// order, so a lane's result is exactly that of a run of the policy
/// on its own.
///
/// # Panics
///
/// Panics if `arch` is not a shape [`TwoLevel::new`] accepts (the
/// Fig. 9 GEM5 configuration is).
pub fn measure_policies<const N: usize>(
    bench: Benchmark,
    arch: &MicroArch,
    policies: [PolicyKind; N],
    accesses: u64,
    seed: u64,
) -> [BenchmarkResult; N] {
    let mut stream = AddressStream::new(bench, arch, seed);
    let mut lanes = policies.map(|policy| Lane {
        policy,
        cache: TwoLevel::new(arch, policy, seed),
        counters: PerfCounters::new(),
        exposed_penalty: 0.0,
    });
    let l1_lat = arch.latencies.l1 as f64;
    // Warm-up half as long as the measurement, then measure in
    // steady state (SPEC results are steady-state too; without this
    // the compulsory misses of a cold cache dominate short runs).
    stream.feed(accesses / 2, &mut lanes, l1_lat);
    for lane in &mut lanes {
        lane.counters.reset();
        lane.exposed_penalty = 0.0;
    }
    stream.feed(accesses, &mut lanes, l1_lat);

    let model = CpiModel::for_benchmark(&bench);
    lanes.map(|lane| {
        let rates = lane.counters.miss_rates();
        BenchmarkResult {
            name: bench.name,
            policy: lane.policy,
            accesses,
            l1d_miss_rate: rates.l1d,
            l2_miss_rate: rates.l2,
            cpi: model.cpi(lane.exposed_penalty / accesses as f64),
        }
    })
}

/// One policy's cache and what it has counted so far.
struct Lane {
    policy: PolicyKind,
    cache: TwoLevel,
    counters: PerfCounters,
    /// Sum over accesses of the cycles beyond an L1 hit.
    exposed_penalty: f64,
}

/// Addresses generated per block; each block is generated once and
/// then replayed by every lane.
const BLOCK: usize = 1024;

/// A benchmark's address stream: a seeded weighted pick of a mix
/// component per access, then that component's next offset inside
/// its own physical region.
struct AddressStream {
    rng: SmallRng,
    mix: Vec<(f64, AccessPattern)>,
    total_weight: f64,
    /// Physical base address of each component's region.
    bases: Vec<u64>,
}

impl AddressStream {
    /// The stream of `bench` at `seed`. Each mix component gets a
    /// private region sized to its working set, mapped by a
    /// [`Machine`] of `arch` (whose caches stay unused): one process,
    /// one page run per component in mix order. Frames are handed
    /// out densely, so each region is physically contiguous —
    /// asserted page by page — and translating an access is one base
    /// add.
    fn new(bench: Benchmark, arch: &MicroArch, seed: u64) -> Self {
        let mut machine = Machine::new(*arch, PolicyKind::Lru, seed);
        let pid = machine.create_process();
        let mix = bench.patterns(seed);
        let bases = mix
            .iter()
            .map(|(_, p)| {
                let pages = p.extent().div_ceil(PAGE_SIZE).max(1);
                let va = machine.alloc_pages(pid, pages);
                let translate = |page: u64| {
                    machine
                        .translate(pid, va.add(page * PAGE_SIZE))
                        .expect("region was just mapped")
                        .raw()
                };
                let base = translate(0);
                for page in 1..pages {
                    assert_eq!(
                        translate(page),
                        base + page * PAGE_SIZE,
                        "{}: region frames are not contiguous",
                        bench.name
                    );
                }
                base
            })
            .collect();
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0xbe6c),
            total_weight: mix.iter().map(|(w, _)| *w).sum(),
            mix,
            bases,
        }
    }

    /// The next physical address of the stream.
    #[inline]
    fn next_addr(&mut self) -> PhysAddr {
        let pick = self.rng.gen_range(0.0..self.total_weight);
        let idx = pick_component(&self.mix, pick);
        let off = self.mix[idx].1.next_offset();
        PhysAddr::new(self.bases[idx] + off)
    }

    /// Steps every lane over the next `n` addresses of the stream.
    fn feed(&mut self, n: u64, lanes: &mut [Lane], l1_lat: f64) {
        let mut block = [PhysAddr::new(0); BLOCK];
        let mut left = n;
        while left > 0 {
            let len = left.min(BLOCK as u64) as usize;
            let block = &mut block[..len];
            for pa in block.iter_mut() {
                *pa = self.next_addr();
            }
            for lane in lanes.iter_mut() {
                for &pa in block.iter() {
                    let cycles = lane.cache.access(pa, &mut lane.counters);
                    lane.exposed_penalty += (cycles as f64 - l1_lat).max(0.0);
                }
            }
            left -= len as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_like::SUITE;

    const N: u64 = 20_000;

    /// One policy on its own: a single-lane [`measure_policies`].
    fn measure_one(
        bench: Benchmark,
        arch: &MicroArch,
        policy: PolicyKind,
        accesses: u64,
        seed: u64,
    ) -> BenchmarkResult {
        let [r] = measure_policies(bench, arch, [policy], accesses, seed);
        r
    }

    #[test]
    fn small_working_sets_mostly_hit() {
        let arch = MicroArch::gem5_fig9();
        let hmmer = Benchmark::by_name("hmmer").unwrap();
        let r = measure_one(hmmer, &arch, PolicyKind::TreePlru, N, 1);
        assert!(
            r.l1d_miss_rate < 0.15,
            "hmmer should be L1-friendly, got {:.3}",
            r.l1d_miss_rate
        );
    }

    #[test]
    fn mcf_misses_much_more_than_hmmer() {
        let arch = MicroArch::gem5_fig9();
        let mcf = measure_one(
            Benchmark::by_name("mcf").unwrap(),
            &arch,
            PolicyKind::TreePlru,
            N,
            2,
        );
        let hmmer = measure_one(
            Benchmark::by_name("hmmer").unwrap(),
            &arch,
            PolicyKind::TreePlru,
            N,
            2,
        );
        assert!(mcf.l1d_miss_rate > 3.0 * hmmer.l1d_miss_rate);
        assert!(mcf.cpi > hmmer.cpi);
    }

    #[test]
    fn policies_change_cpi_by_little() {
        // The Fig. 9 claim, on a sample of the suite: CPI varies by
        // a few percent across policies.
        let arch = MicroArch::gem5_fig9();
        for name in ["bzip2", "gcc", "hmmer"] {
            let b = Benchmark::by_name(name).unwrap();
            let base = measure_one(b, &arch, PolicyKind::TreePlru, N, 3);
            for policy in [PolicyKind::Fifo, PolicyKind::Random] {
                let alt = measure_one(b, &arch, policy, N, 3);
                let delta = (alt.cpi / base.cpi - 1.0).abs();
                assert!(
                    delta < 0.08,
                    "{name}/{policy}: CPI delta {delta:.3} too large"
                );
            }
        }
    }

    #[test]
    fn results_are_deterministic() {
        let arch = MicroArch::gem5_fig9();
        let b = Benchmark::by_name("astar").unwrap();
        let a = measure_one(b, &arch, PolicyKind::Random, 5_000, 7);
        let c = measure_one(b, &arch, PolicyKind::Random, 5_000, 7);
        assert_eq!(a, c);
    }

    #[test]
    fn cpi_model_is_monotone_in_penalty() {
        let m = CpiModel {
            base_cpi: 0.8,
            mem_per_instr: 0.3,
            mlp_exposure: 0.5,
        };
        assert!(m.cpi(2.0) > m.cpi(1.0));
        assert!((m.cpi(0.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn whole_suite_runs() {
        let arch = MicroArch::gem5_fig9();
        for b in SUITE.iter().take(4) {
            let r = measure_one(*b, &arch, PolicyKind::TreePlru, 2_000, 5);
            assert_eq!(r.accesses, 2_000);
            assert!(r.cpi > 0.0);
        }
    }
}
