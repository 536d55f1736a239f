//! Micro-architecture presets for the CPUs evaluated in the paper
//! (Table III) plus the GEM5 configuration of the defense study
//! (Fig. 9).

use crate::cache::Cache;
use crate::geometry::CacheGeometry;
use crate::hierarchy::{CacheHierarchy, Latencies};
use crate::replacement::PolicyKind;
use crate::way_predictor::WayPredictor;

/// A complete description of one evaluated platform.
///
/// Geometry and latency values follow the paper's Tables II/III; the
/// timestamp-counter fields parameterize the timer models in
/// `exec-sim` (Intel: fine-grained, AMD: coarse — §VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroArch {
    /// Micro-architecture name (e.g. "Sandy Bridge").
    pub name: &'static str,
    /// CPU model string (e.g. "Intel Xeon E5-2690").
    pub model: &'static str,
    /// Nominal frequency in GHz (Table III).
    pub freq_ghz: f64,
    /// L1D geometry.
    pub l1d: CacheGeometry,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// LLC geometry, when a third level is modelled.
    pub llc: Option<CacheGeometry>,
    /// Access latencies (Table II).
    pub latencies: Latencies,
    /// Whether the L1D has the AMD µtag way predictor (§VI-B).
    pub has_way_predictor: bool,
    /// Observable timestamp-counter granularity in cycles (Intel ~1;
    /// AMD much coarser, §VI-A).
    pub tsc_granularity: u32,
    /// Mean overhead of a serialized `rdtscp` measurement pair.
    pub tsc_overhead: u32,
    /// Peak-to-peak measurement jitter in cycles.
    pub tsc_jitter: u32,
}

impl MicroArch {
    /// Intel Xeon E5-2690 (Sandy Bridge), the paper's primary Intel
    /// platform.
    pub fn sandy_bridge_e5_2690() -> Self {
        MicroArch {
            name: "Sandy Bridge",
            model: "Intel Xeon E5-2690",
            freq_ghz: 3.8,
            l1d: CacheGeometry::l1d_paper(),
            l2: geom(256 * 1024, 8),
            // The real E5-2690 LLC is 20 MiB / 20-way; the model
            // rounds to the nearest power-of-two shape (the tables
            // only depend on relative miss rates, not LLC capacity).
            llc: Some(geom(16 * 1024 * 1024, 16)),
            latencies: Latencies::sandy_bridge(),
            has_way_predictor: false,
            tsc_granularity: 1,
            tsc_overhead: 30,
            tsc_jitter: 4,
        }
    }

    /// Intel Xeon E3-1245 v5 (Skylake), the paper's second Intel
    /// platform (Appendix B).
    pub fn skylake_e3_1245v5() -> Self {
        MicroArch {
            name: "Skylake",
            model: "Intel Xeon E3-1245 v5",
            freq_ghz: 3.9,
            l1d: CacheGeometry::l1d_paper(),
            l2: geom(256 * 1024, 4),
            llc: Some(geom(8 * 1024 * 1024, 16)),
            latencies: Latencies::skylake(),
            has_way_predictor: false,
            tsc_granularity: 1,
            tsc_overhead: 32,
            tsc_jitter: 4,
        }
    }

    /// AMD EPYC 7571 (Zen) as leased on EC2 (§VI): µtag way
    /// predictor present, coarse timestamp counter.
    pub fn zen_epyc_7571() -> Self {
        MicroArch {
            name: "Zen",
            model: "AMD EPYC 7571",
            freq_ghz: 2.5,
            l1d: CacheGeometry::l1d_paper(),
            l2: geom(512 * 1024, 8),
            llc: Some(geom(8 * 1024 * 1024, 16)),
            latencies: Latencies::zen(),
            has_way_predictor: true,
            // §VI-A: "the latency measured ... on AMD processor has
            // coarser granularity" — the readout advances in large
            // steps, so single measurements cannot separate L1 from
            // L2 and the receiver must average.
            tsc_granularity: 25,
            tsc_overhead: 60,
            tsc_jitter: 20,
        }
    }

    /// The GEM5 system simulated for the Fig. 9 policy study: 64 KiB
    /// 8-way L1D (latency 4), 2 MiB 16-way L2 (latency 8), 50 ns
    /// memory.
    pub fn gem5_fig9() -> Self {
        MicroArch {
            name: "GEM5 (Fig. 9)",
            model: "gem5 single OoO core",
            freq_ghz: 2.0,
            l1d: geom(64 * 1024, 8),
            l2: geom(2 * 1024 * 1024, 16),
            llc: None,
            latencies: Latencies::gem5_fig9(),
            has_way_predictor: false,
            tsc_granularity: 1,
            tsc_overhead: 30,
            tsc_jitter: 4,
        }
    }

    /// The three hardware platforms of the paper's evaluation.
    pub fn all_hardware() -> [MicroArch; 3] {
        [
            Self::sandy_bridge_e5_2690(),
            Self::skylake_e3_1245v5(),
            Self::zen_epyc_7571(),
        ]
    }

    /// Builds the cache hierarchy for this platform with the given
    /// L1D replacement policy (L2/LLC use true LRU; the paper's
    /// channels and defenses all target the L1D policy).
    pub fn build_hierarchy(&self, l1_policy: PolicyKind, seed: u64) -> CacheHierarchy {
        let l1 = Cache::new(self.l1d, l1_policy, seed);
        let l2 = Cache::new(self.l2, PolicyKind::Lru, seed ^ 0xaaaa);
        let llc = self
            .llc
            .map(|g| Cache::new(g, PolicyKind::Lru, seed ^ 0x5555));
        let mut h = CacheHierarchy::new(l1, l2, llc, self.latencies);
        if self.has_way_predictor {
            h = h.with_way_predictor(WayPredictor::new());
        }
        h
    }

    /// Converts a cycle count on this platform to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }
}

fn geom(size: u64, ways: usize) -> CacheGeometry {
    CacheGeometry::from_size(size, 64, ways).expect("preset geometry is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_l1d_shapes() {
        for m in MicroArch::all_hardware() {
            assert_eq!(m.l1d.size_bytes(), 32 * 1024, "{}", m.model);
            assert_eq!(m.l1d.ways(), 8);
            assert_eq!(m.l1d.num_sets(), 64);
        }
    }

    #[test]
    fn table_ii_latencies() {
        let snb = MicroArch::sandy_bridge_e5_2690();
        assert_eq!((snb.latencies.l1, snb.latencies.l2), (4, 12));
        let zen = MicroArch::zen_epyc_7571();
        assert_eq!((zen.latencies.l1, zen.latencies.l2), (4, 17));
        assert!(zen.has_way_predictor);
        assert!(!snb.has_way_predictor);
    }

    #[test]
    fn amd_timer_is_coarser_than_intel() {
        let zen = MicroArch::zen_epyc_7571();
        let snb = MicroArch::sandy_bridge_e5_2690();
        assert!(zen.tsc_granularity > 10 * snb.tsc_granularity);
    }

    #[test]
    fn build_hierarchy_applies_policy_and_predictor() {
        let zen = MicroArch::zen_epyc_7571();
        let h = zen.build_hierarchy(PolicyKind::TreePlru, 0);
        assert_eq!(h.l1().policy_kind(), PolicyKind::TreePlru);
        assert_eq!(h.latencies().l2, 17);
    }

    #[test]
    fn gem5_profile_matches_fig9_text() {
        let g = MicroArch::gem5_fig9();
        assert_eq!(g.l1d.size_bytes(), 64 * 1024);
        assert_eq!(g.l1d.ways(), 8);
        assert_eq!(g.l2.size_bytes(), 2 * 1024 * 1024);
        assert_eq!(g.l2.ways(), 16);
        assert_eq!(g.latencies.l1, 4);
        assert_eq!(g.latencies.l2, 8);
        assert!(g.llc.is_none());
    }

    #[test]
    fn cycle_conversion() {
        let snb = MicroArch::sandy_bridge_e5_2690();
        let secs = snb.cycles_to_seconds(3_800_000_000);
        assert!((secs - 1.0).abs() < 1e-9);
    }
}
