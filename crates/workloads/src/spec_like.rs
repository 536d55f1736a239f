//! Sixteen named synthetic benchmarks standing in for the SPEC
//! CPU2006 int/float suites of the paper's Fig. 9.
//!
//! Each benchmark is a weighted mix of [`AccessPattern`]s chosen to
//! mimic the published locality class of its namesake (e.g. `mcf` is
//! a huge-footprint pointer chase, `libquantum` a pure stream,
//! `hmmer` a tight compute loop over a small table). Base CPI and
//! memory intensity come from the same published characterizations.
//! See DESIGN.md §2 for why this substitution preserves the Fig. 9
//! claim.

use crate::access_pattern::AccessPattern;

/// How often the benchmark touches memory, and how it behaves
/// between touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkTraits {
    /// Memory references per instruction (~0.2–0.45 for SPEC).
    pub mem_per_instr: f64,
    /// CPI with a perfect L1 (compute-boundedness).
    pub base_cpi: f64,
    /// Memory-level parallelism discount applied to miss latency
    /// (1.0 = fully exposed, 0.2 = well overlapped).
    pub mlp_exposure: f64,
}

/// A named synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Benchmark {
    /// SPEC-like name.
    pub name: &'static str,
    /// Whether the namesake is in the int (true) or fp (false) suite.
    pub int_suite: bool,
}

/// The benchmark suite plotted in Fig. 9 (12 int + 4 fp mixes).
pub const SUITE: [Benchmark; 16] = [
    Benchmark {
        name: "perlbench",
        int_suite: true,
    },
    Benchmark {
        name: "bzip2",
        int_suite: true,
    },
    Benchmark {
        name: "gcc",
        int_suite: true,
    },
    Benchmark {
        name: "mcf",
        int_suite: true,
    },
    Benchmark {
        name: "gobmk",
        int_suite: true,
    },
    Benchmark {
        name: "hmmer",
        int_suite: true,
    },
    Benchmark {
        name: "sjeng",
        int_suite: true,
    },
    Benchmark {
        name: "libquantum",
        int_suite: true,
    },
    Benchmark {
        name: "h264ref",
        int_suite: true,
    },
    Benchmark {
        name: "omnetpp",
        int_suite: true,
    },
    Benchmark {
        name: "astar",
        int_suite: true,
    },
    Benchmark {
        name: "xalancbmk",
        int_suite: true,
    },
    Benchmark {
        name: "milc",
        int_suite: false,
    },
    Benchmark {
        name: "namd",
        int_suite: false,
    },
    Benchmark {
        name: "soplex",
        int_suite: false,
    },
    Benchmark {
        name: "lbm",
        int_suite: false,
    },
];

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

impl Benchmark {
    /// Looks a benchmark up by name.
    pub fn by_name(name: &str) -> Option<Benchmark> {
        SUITE.iter().copied().find(|b| b.name == name)
    }

    /// The benchmark's timing traits.
    pub fn traits(&self) -> BenchmarkTraits {
        match self.name {
            "perlbench" => t(0.35, 0.75, 0.5),
            "bzip2" => t(0.30, 0.80, 0.4),
            "gcc" => t(0.33, 0.85, 0.5),
            "mcf" => t(0.40, 0.70, 0.9),
            "gobmk" => t(0.28, 0.95, 0.4),
            "hmmer" => t(0.42, 0.60, 0.2),
            "sjeng" => t(0.25, 0.90, 0.4),
            "libquantum" => t(0.30, 0.55, 0.3),
            "h264ref" => t(0.38, 0.65, 0.3),
            "omnetpp" => t(0.34, 0.80, 0.8),
            "astar" => t(0.31, 0.85, 0.7),
            "xalancbmk" => t(0.36, 0.80, 0.6),
            "milc" => t(0.37, 0.70, 0.5),
            "namd" => t(0.32, 0.60, 0.2),
            "soplex" => t(0.39, 0.75, 0.6),
            "lbm" => t(0.33, 0.60, 0.4),
            _ => t(0.33, 0.80, 0.5),
        }
    }

    /// The access-pattern mix: `(weight, pattern)` pairs; weights
    /// need not sum to 1 (they are normalized by the runner).
    ///
    /// Every mix also carries a hot stack/frame component (the
    /// register-spill and locals traffic that dominates real loads
    /// and keeps SPEC L1D miss rates in the single/low-double
    /// digits).
    pub fn patterns(&self, seed: u64) -> Vec<(f64, AccessPattern)> {
        let mut mix = self.data_patterns(seed);
        let data_weight: f64 = mix.iter().map(|(w, _)| *w).sum();
        mix.push((
            6.0 * data_weight,
            AccessPattern::zipfian(16 * KB, 0.95, 8 * KB, seed ^ 0xf7a3e),
        ));
        mix
    }

    fn data_patterns(&self, seed: u64) -> Vec<(f64, AccessPattern)> {
        match self.name {
            // Interpreter: stack-ish hot frames + a mid-sized heap.
            "perlbench" => vec![
                (0.7, AccessPattern::stack_like(512 * KB, 0.8, 16 * KB, seed)),
                (0.3, AccessPattern::random(2 * MB, seed ^ 1)),
            ],
            // Compression: streaming with a dictionary window.
            "bzip2" => vec![
                (0.6, AccessPattern::sequential(4 * MB)),
                (0.4, AccessPattern::zipfian(MB, 0.7, 64 * KB, seed)),
            ],
            // Compiler: pointer-rich IR over a large heap.
            "gcc" => vec![
                (0.5, AccessPattern::pointer_chase(4 * MB, seed)),
                (0.3, AccessPattern::zipfian(8 * MB, 0.6, 128 * KB, seed ^ 1)),
                (0.2, AccessPattern::sequential(MB)),
            ],
            // Sparse network simplex: huge random footprint.
            "mcf" => vec![
                (0.8, AccessPattern::pointer_chase(32 * MB, seed)),
                (0.2, AccessPattern::random(32 * MB, seed ^ 1)),
            ],
            // Go engine: game tree in a modest working set.
            "gobmk" => vec![
                (0.6, AccessPattern::stack_like(MB, 0.7, 32 * KB, seed)),
                (0.4, AccessPattern::random(4 * MB, seed ^ 1)),
            ],
            // Profile HMM: hot tables that fit in L1/L2.
            "hmmer" => vec![
                (0.95, AccessPattern::zipfian(48 * KB, 0.9, 16 * KB, seed)),
                (0.05, AccessPattern::sequential(256 * KB)),
            ],
            // Chess: transposition table + stack.
            "sjeng" => vec![
                (0.5, AccessPattern::random(8 * MB, seed)),
                (
                    0.5,
                    AccessPattern::stack_like(256 * KB, 0.8, 16 * KB, seed ^ 1),
                ),
            ],
            // Quantum simulation: pure streaming over a big vector.
            "libquantum" => vec![(1.0, AccessPattern::sequential(16 * MB))],
            // Video encoder: blocked 2-D frames + reference windows.
            "h264ref" => vec![
                (0.7, AccessPattern::blocked_2d(4096, 2048, 512)),
                (0.3, AccessPattern::zipfian(2 * MB, 0.7, 64 * KB, seed)),
            ],
            // Discrete-event sim: heap of events, poor locality.
            "omnetpp" => vec![
                (0.7, AccessPattern::pointer_chase(16 * MB, seed)),
                (0.3, AccessPattern::zipfian(2 * MB, 0.6, 64 * KB, seed ^ 1)),
            ],
            // Pathfinding: open list + tile map.
            "astar" => vec![
                (0.5, AccessPattern::random(16 * MB, seed)),
                (0.5, AccessPattern::zipfian(MB, 0.7, 48 * KB, seed ^ 1)),
            ],
            // XSLT: DOM pointer chasing + string streams.
            "xalancbmk" => vec![
                (0.6, AccessPattern::pointer_chase(8 * MB, seed)),
                (0.4, AccessPattern::sequential(2 * MB)),
            ],
            // Lattice QCD: strided sweeps of a large lattice.
            "milc" => vec![
                (0.8, AccessPattern::strided(16 * MB, 128)),
                (0.2, AccessPattern::random(MB, seed)),
            ],
            // Molecular dynamics: neighbor lists with good reuse.
            "namd" => vec![
                (0.9, AccessPattern::zipfian(128 * KB, 0.85, 32 * KB, seed)),
                (0.1, AccessPattern::sequential(4 * MB)),
            ],
            // LP solver: sparse matrix rows + dense vectors.
            "soplex" => vec![
                (0.5, AccessPattern::random(16 * MB, seed)),
                (0.5, AccessPattern::sequential(2 * MB)),
            ],
            // Lattice Boltzmann: two big streamed grids.
            "lbm" => vec![
                (0.9, AccessPattern::sequential(32 * MB)),
                (0.1, AccessPattern::random(32 * MB, seed)),
            ],
            _ => vec![(1.0, AccessPattern::random(MB, seed))],
        }
    }
}

/// The component of a [`Benchmark::patterns`] mix that a weighted
/// draw selects: `pick`, uniform in `0..` the mix's total weight,
/// falls in the first component whose cumulative weight exceeds it
/// (component 0 when rounding leaves it past the last).
#[inline]
pub(crate) fn pick_component(mix: &[(f64, AccessPattern)], mut pick: f64) -> usize {
    for (i, (w, _)) in mix.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= *w;
    }
    0
}

fn t(mem_per_instr: f64, base_cpi: f64, mlp_exposure: f64) -> BenchmarkTraits {
    BenchmarkTraits {
        mem_per_instr,
        base_cpi,
        mlp_exposure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique() {
        let mut names: Vec<&str> = SUITE.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SUITE.len());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Benchmark::by_name("mcf").unwrap().name, "mcf");
        assert!(Benchmark::by_name("nope").is_none());
    }

    #[test]
    fn every_benchmark_has_patterns_and_traits() {
        for b in SUITE {
            let pats = b.patterns(1);
            assert!(!pats.is_empty(), "{}", b.name);
            let tr = b.traits();
            assert!(tr.mem_per_instr > 0.0 && tr.mem_per_instr < 1.0);
            assert!(tr.base_cpi > 0.0);
            assert!((0.0..=1.0).contains(&tr.mlp_exposure));
        }
    }

    #[test]
    fn weights_are_positive() {
        for b in SUITE {
            for (w, _) in b.patterns(2) {
                assert!(w > 0.0, "{}", b.name);
            }
        }
    }

    #[test]
    fn every_offset_stays_inside_its_pattern_extent() {
        // The Fig. 9 stream maps each pattern onto `extent()` bytes
        // of pages and translates with one base add.
        for b in SUITE {
            for (_, mut p) in b.patterns(3) {
                let extent = p.extent();
                for _ in 0..5_000 {
                    let off = p.next_offset();
                    assert!(off < extent, "{}: offset {off} >= extent {extent}", b.name);
                }
            }
        }
    }
}
