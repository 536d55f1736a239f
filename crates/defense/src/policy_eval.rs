//! Fig. 9: the performance price of replacing Tree-PLRU with FIFO or
//! Random in the L1D.

use cache_sim::profiles::MicroArch;
use cache_sim::replacement::PolicyKind;
use workloads::cpi::{measure_benchmark, BenchmarkResult};
use workloads::spec_like::Benchmark;

/// One benchmark's Fig. 9 data: results for Tree-PLRU, FIFO and
/// Random, plus the normalizations the figure plots.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Per-policy results, in [`PolicyKind::FIG9`] order
    /// (Tree-PLRU, FIFO, Random).
    pub results: [BenchmarkResult; 3],
}

impl Fig9Row {
    /// L1D miss rate of each policy divided by Tree-PLRU's (the top
    /// panel of Fig. 9).
    pub fn normalized_miss_rates(&self) -> [f64; 3] {
        let base = self.results[0].l1d_miss_rate.max(1e-9);
        [
            1.0,
            self.results[1].l1d_miss_rate / base,
            self.results[2].l1d_miss_rate / base,
        ]
    }

    /// CPI of each policy divided by Tree-PLRU's (the bottom panel).
    pub fn normalized_cpi(&self) -> [f64; 3] {
        let base = self.results[0].cpi.max(1e-9);
        [1.0, self.results[1].cpi / base, self.results[2].cpi / base]
    }
}

/// One benchmark of the Fig. 9 study.
pub fn fig9_row(bench: Benchmark, arch: &MicroArch, accesses: u64, seed: u64) -> Fig9Row {
    let results =
        PolicyKind::FIG9.map(|policy| measure_benchmark(bench, arch, policy, accesses, seed));
    Fig9Row {
        name: bench.name,
        results,
    }
}

/// Geometric-mean normalized CPI across rows per policy — the
/// summary number behind the paper's "<2%" claim.
pub fn geomean_normalized_cpi(rows: &[Fig9Row]) -> [f64; 3] {
    let mut acc = [0.0f64; 3];
    for row in rows {
        let n = row.normalized_cpi();
        for k in 0..3 {
            acc[k] += n[k].max(1e-12).ln();
        }
    }
    acc.map(|a| (a / rows.len().max(1) as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 15_000;

    #[test]
    fn cpi_cost_of_defense_policies_is_small() {
        // The Fig. 9 bottom-panel claim: overall CPI change < 2%
        // (we allow 4% for the shorter synthetic runs).
        let rows: Vec<Fig9Row> = ["bzip2", "gcc", "hmmer", "libquantum", "namd"]
            .iter()
            .map(|n| {
                fig9_row(
                    Benchmark::by_name(n).unwrap(),
                    &MicroArch::gem5_fig9(),
                    N,
                    3,
                )
            })
            .collect();
        let geo = geomean_normalized_cpi(&rows);
        assert!((geo[0] - 1.0).abs() < 1e-9);
        for (k, label) in [(1, "FIFO"), (2, "Random")] {
            assert!(
                (geo[k] - 1.0).abs() < 0.04,
                "{label} geomean CPI delta too large: {:.4}",
                geo[k]
            );
        }
    }

    #[test]
    fn miss_rate_deltas_are_modest() {
        // Fig. 9 top panel: FIFO/Random miss-rate changes are small
        // overall (some benchmarks better, some worse).
        let row = fig9_row(
            Benchmark::by_name("gcc").unwrap(),
            &MicroArch::gem5_fig9(),
            N,
            4,
        );
        let n = row.normalized_miss_rates();
        for k in [1, 2] {
            assert!(
                (0.5..2.0).contains(&n[k]),
                "policy {k} miss-rate ratio out of band: {:.3}",
                n[k]
            );
        }
    }

    #[test]
    fn rows_carry_all_three_policies() {
        let row = fig9_row(
            Benchmark::by_name("hmmer").unwrap(),
            &MicroArch::gem5_fig9(),
            4_000,
            5,
        );
        assert_eq!(row.results[0].policy, PolicyKind::TreePlru);
        assert_eq!(row.results[1].policy, PolicyKind::Fifo);
        assert_eq!(row.results[2].policy, PolicyKind::Random);
    }
}
