//! Cross-crate property tests: invariants that must hold for any
//! access sequence, message, or configuration.

use lru_leak::cache_sim::addr::PhysAddr;
use lru_leak::cache_sim::cache::Cache;
use lru_leak::cache_sim::counters::PerfCounters;
use lru_leak::cache_sim::geometry::CacheGeometry;
use lru_leak::cache_sim::hierarchy::HitLevel;
use lru_leak::cache_sim::profiles::MicroArch;
use lru_leak::cache_sim::replacement::{Domain, PolicyKind};
use lru_leak::exec_sim::machine::Machine;
use lru_leak::exec_sim::program::{Op, Script};
use lru_leak::exec_sim::sched::{HyperThreaded, ThreadHandle, TimeSliced};
use lru_leak::lru_channel::analysis::Histogram;
use lru_leak::lru_channel::decode::{self, BitConvention};
use lru_leak::lru_channel::protocol::Sample;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full hierarchy serves every repeated access from L1, for
    /// any address stream and policy.
    #[test]
    fn second_access_always_hits_l1(
        addrs in proptest::collection::vec(0u64..1 << 18, 1..60),
        policy_idx in 0usize..5,
    ) {
        let policy = [
            PolicyKind::Lru,
            PolicyKind::TreePlru,
            PolicyKind::BitPlru,
            PolicyKind::Fifo,
            PolicyKind::Random,
        ][policy_idx];
        let mut h = MicroArch::sandy_bridge_e5_2690().build_hierarchy(policy, 1);
        let mut c = PerfCounters::new();
        for &raw in &addrs {
            let va = lru_leak::cache_sim::addr::VirtAddr::new(raw);
            let pa = PhysAddr::new(raw);
            h.access(va, pa, &mut c, Domain::PRIMARY);
            let again = h.access(va, pa, &mut c, Domain::PRIMARY);
            prop_assert_eq!(again.level, HitLevel::L1);
        }
    }

    /// Counter consistency at the hierarchy level: L2 accesses equal
    /// L1 misses; LLC accesses equal L2 misses.
    #[test]
    fn counter_chain_is_consistent(
        addrs in proptest::collection::vec(0u64..1 << 20, 1..200),
    ) {
        let mut h = MicroArch::sandy_bridge_e5_2690()
            .build_hierarchy(PolicyKind::TreePlru, 2);
        let mut c = PerfCounters::new();
        for &raw in &addrs {
            let va = lru_leak::cache_sim::addr::VirtAddr::new(raw);
            h.access(va, PhysAddr::new(raw), &mut c, Domain::PRIMARY);
        }
        prop_assert_eq!(c.l2_accesses, c.l1d_misses);
        prop_assert_eq!(c.llc_accesses, c.l2_misses);
        prop_assert!(c.llc_misses <= c.llc_accesses);
    }

    /// A flushed line is gone from every level, whatever happened
    /// before.
    #[test]
    fn flush_is_total(
        addrs in proptest::collection::vec(0u64..1 << 16, 1..80),
        victim_idx in 0usize..80,
    ) {
        let mut h = MicroArch::skylake_e3_1245v5()
            .build_hierarchy(PolicyKind::TreePlru, 3);
        let mut c = PerfCounters::new();
        for &raw in &addrs {
            let va = lru_leak::cache_sim::addr::VirtAddr::new(raw);
            h.access(va, PhysAddr::new(raw), &mut c, Domain::PRIMARY);
        }
        let victim = PhysAddr::new(addrs[victim_idx % addrs.len()]);
        h.flush(victim);
        prop_assert_eq!(h.probe_level(victim), HitLevel::Mem);
    }

    /// Scheduler conservation: every op of every script is executed
    /// exactly once, under both sharing modes, whatever the op mix.
    #[test]
    fn schedulers_execute_every_op(
        a_ops in 1usize..40,
        b_ops in 1usize..40,
        time_sliced in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut m = Machine::new(
            MicroArch::sandy_bridge_e5_2690(),
            PolicyKind::TreePlru,
            seed,
        );
        let pa = m.create_process();
        let pb = m.create_process();
        let va_a = m.alloc_pages(pa, 1);
        let va_b = m.alloc_pages(pb, 1);
        let mut sa = Script::new(
            (0..a_ops)
                .map(|i| if i % 3 == 0 { Op::Compute(7) } else { Op::Access(va_a) })
                .collect(),
        );
        let mut sb = Script::new(
            (0..b_ops)
                .map(|i| if i % 4 == 0 { Op::Flush(va_b) } else { Op::Access(va_b) })
                .collect(),
        );
        let mut threads = [ThreadHandle::new(pa, &mut sa), ThreadHandle::new(pb, &mut sb)];
        let report = if time_sliced {
            TimeSliced {
                quantum: 500,
                quantum_jitter: 100,
                switch_cost: 20,
                ..TimeSliced::new(seed)
            }
            .run(&mut m, &mut threads, u64::MAX / 4)
        } else {
            HyperThreaded::new(seed).run(&mut m, &mut threads, u64::MAX / 4)
        };
        prop_assert_eq!(report.ops_executed[0] as usize, a_ops);
        prop_assert_eq!(report.ops_executed[1] as usize, b_ops);
        prop_assert_eq!(sa.results.len(), a_ops);
    }

    /// Decoder sanity for arbitrary traces: output length covers the
    /// last window, percent_ones is a fraction, the moving average
    /// stays inside the data's range.
    #[test]
    fn decoders_are_well_behaved(
        raw in proptest::collection::vec((0u64..100_000, 20u32..80), 1..100),
        ts in 500u64..5000,
        threshold in 30u32..60,
        window in 1usize..20,
    ) {
        let mut samples: Vec<Sample> = raw
            .iter()
            .map(|&(at, measured)| Sample {
                at,
                measured,
                level: HitLevel::L1,
            })
            .collect();
        samples.sort_by_key(|s| s.at);
        let bits = decode::bits_by_window(&samples, ts, threshold, BitConvention::HitIsOne);
        let last_window = (samples.last().unwrap().at / ts) as usize;
        prop_assert_eq!(bits.len(), last_window + 1);

        let p = decode::percent_ones(&samples, threshold, BitConvention::MissIsOne);
        prop_assert!((0.0..=1.0).contains(&p));

        let avg = decode::moving_average(&samples, window);
        prop_assert_eq!(avg.len(), samples.len());
        let lo = samples.iter().map(|s| s.measured).min().unwrap() as f64;
        let hi = samples.iter().map(|s| s.measured).max().unwrap() as f64;
        for &v in &avg {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// The two bit conventions are exact complements of each other on
    /// any trace with samples in every window.
    #[test]
    fn conventions_are_complementary(
        measured in proptest::collection::vec(20u32..80, 1..60),
        threshold in 30u32..60,
    ) {
        let samples: Vec<Sample> = measured
            .iter()
            .enumerate()
            .map(|(i, &m)| Sample {
                at: i as u64 * 100,
                measured: m,
                level: HitLevel::L1,
            })
            .collect();
        // One sample per window => no carried bits; majority of one.
        let hit1 = decode::bits_by_window(&samples, 100, threshold, BitConvention::HitIsOne);
        let miss1 = decode::bits_by_window(&samples, 100, threshold, BitConvention::MissIsOne);
        for (a, b) in hit1.iter().zip(&miss1) {
            prop_assert_ne!(a, b);
        }
    }

    /// Histogram frequencies sum to 1 and overlap is symmetric.
    #[test]
    fn histogram_axioms(
        a in proptest::collection::vec(0u32..50, 1..100),
        b in proptest::collection::vec(0u32..50, 1..100),
    ) {
        let ha: Histogram = a.iter().copied().collect();
        let hb: Histogram = b.iter().copied().collect();
        let total: f64 = ha.rows().iter().map(|(_, f)| f).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!((ha.overlap(&hb) - hb.overlap(&ha)).abs() < 1e-9);
        prop_assert!((ha.overlap(&ha) - 1.0).abs() < 1e-9);
    }

    /// PL cache invariant: a locked line survives any request
    /// sequence that does not unlock it.
    #[test]
    fn locked_lines_are_immortal(
        requests in proptest::collection::vec(0u64..12, 1..200),
        design_fixed in any::<bool>(),
    ) {
        use lru_leak::cache_sim::plcache::{PlCache, PlDesign, PlRequest};
        let geom = CacheGeometry::l1d_paper();
        let design = if design_fixed { PlDesign::Fixed } else { PlDesign::Original };
        let mut pl = PlCache::new(geom, PolicyKind::TreePlru, design, 1);
        let locked = PhysAddr::new(99 * geom.set_stride());
        pl.request(locked, PlRequest::Lock);
        for &i in &requests {
            pl.request(PhysAddr::new(i * geom.set_stride()), PlRequest::Access);
        }
        prop_assert!(pl.probe(locked));
        prop_assert!(pl.is_locked(locked));
    }

    /// Cache clear really empties: after clear, every previously
    /// accessed line misses.
    #[test]
    fn clear_forgets_everything(
        addrs in proptest::collection::vec(0u64..1 << 14, 1..50),
    ) {
        let mut c = Cache::new(CacheGeometry::l1d_paper(), PolicyKind::TreePlru, 4);
        for &a in &addrs {
            c.access(PhysAddr::new(a));
        }
        c.clear();
        for &a in &addrs {
            prop_assert!(!c.probe(PhysAddr::new(a)));
        }
    }
}
