//! Cross-crate consistency: the substrates agree with each other and
//! with the paper's configuration tables.

use lru_leak::cache_sim::hierarchy::HitLevel;
use lru_leak::cache_sim::profiles::MicroArch;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::exec_sim::machine::Machine;
use lru_leak::exec_sim::measure::{rdtscp_single, LatencyProbe};
use lru_leak::exec_sim::tsc::TscModel;
use lru_leak::lru_channel::params::Platform;
use lru_leak::lru_channel::plru_study::{eviction_curve, InitCond, SequenceKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn platform_thresholds_separate_real_probe_readouts() {
    // The threshold computed from the model must separate actual
    // hit/miss measurements on every fine-grained platform.
    for platform in [Platform::e5_2690(), Platform::e3_1245v5()] {
        let mut m = Machine::new(platform.arch, PolicyKind::TreePlru, 50);
        let pid = m.create_process();
        let mut rng = SmallRng::seed_from_u64(50);
        let probe = LatencyProbe::new(&mut m, pid, platform.tsc, 63);
        let target = m.alloc_pages(pid, 1);
        m.access(pid, target);
        let hit = probe.measure(&mut m, pid, target, &mut rng);
        assert_eq!(hit.level, HitLevel::L1);
        assert!(hit.measured <= platform.hit_threshold());

        for _ in 0..8 {
            let page = m.alloc_pages(pid, 1);
            m.access(pid, page);
        }
        probe.warm(&mut m, pid);
        let miss = probe.measure(&mut m, pid, target, &mut rng);
        assert_eq!(miss.level, HitLevel::L2);
        assert!(miss.measured > platform.hit_threshold());
    }
}

#[test]
fn rdtscp_single_is_useless_but_pointer_chase_works() {
    // Appendix A vs §IV-D, run through the whole machine stack.
    let platform = Platform::e5_2690();
    let mut m = Machine::new(platform.arch, PolicyKind::TreePlru, 51);
    let pid = m.create_process();
    let mut rng = SmallRng::seed_from_u64(51);
    let tsc = TscModel::from_arch(&platform.arch);

    let mut single_gap = 0.0;
    let mut chase_gap = 0.0;
    let probe = LatencyProbe::new(&mut m, pid, tsc, 63);
    for _ in 0..50 {
        let target = m.alloc_pages(pid, 1);
        m.access(pid, target);
        let h_single = rdtscp_single(&mut m, pid, target, &tsc, &mut rng).measured as f64;
        m.access(pid, target);
        let h_chase = probe.measure(&mut m, pid, target, &mut rng).measured as f64;
        for _ in 0..8 {
            let page = m.alloc_pages(pid, 1);
            m.access(pid, page);
        }
        let m_single = rdtscp_single(&mut m, pid, target, &tsc, &mut rng).measured as f64;
        for _ in 0..8 {
            let page = m.alloc_pages(pid, 1);
            m.access(pid, page);
        }
        probe.warm(&mut m, pid);
        let m_chase = probe.measure(&mut m, pid, target, &mut rng).measured as f64;
        single_gap += m_single - h_single;
        chase_gap += m_chase - h_chase;
    }
    single_gap /= 50.0;
    chase_gap /= 50.0;
    assert!(
        single_gap.abs() < 3.0,
        "rdtscp must not separate L1 from L2 (gap {single_gap:.2})"
    );
    assert!(
        chase_gap > 5.0,
        "pointer chase must separate them (gap {chase_gap:.2})"
    );
}

#[test]
fn table1_predicts_channel_noise_ordering() {
    // The Table I study and the live channel agree: Seq1 (Alg.1
    // decode pattern) is more reliable than Seq2 (Alg.2 pattern)
    // under Tree-PLRU.
    let seq1 = eviction_curve(
        PolicyKind::TreePlru,
        SequenceKind::Seq1,
        InitCond::Sequential,
        10,
        2_000,
        52,
    );
    let seq2 = eviction_curve(
        PolicyKind::TreePlru,
        SequenceKind::Seq2,
        InitCond::Sequential,
        10,
        2_000,
        52,
    );
    assert!(seq1.steady_state() > seq2.steady_state() + 0.2);
}

#[test]
fn all_policies_drive_a_full_hierarchy() {
    // Smoke: every policy kind works as the L1D policy of every
    // platform profile.
    for arch in MicroArch::all_hardware() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::TreePlru,
            PolicyKind::BitPlru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::PartitionedTreePlru,
        ] {
            let mut m = Machine::new(arch, kind, 53);
            let pid = m.create_process();
            let base = m.alloc_pages(pid, 16);
            for i in 0..2_000u64 {
                m.access(pid, base.add((i * 64) % (16 * 4096)));
            }
            assert!(m.counters(pid).l1d_accesses == 2_000);
        }
    }
}

#[test]
fn shared_pages_have_one_physical_identity_across_the_stack() {
    let mut m = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 54);
    let a = m.create_process();
    let b = m.create_process();
    let (va_a, va_b) = m.map_shared_page(a, b);
    // ASLR stand-in: the two processes see different linear
    // addresses...
    assert_ne!(va_a, va_b);
    // ...for one physical page.
    assert_eq!(m.translate(a, va_a).unwrap(), m.translate(b, va_b).unwrap());
    // Cache state is shared: A's load, B's hit.
    m.access(a, va_a.add(0x80));
    assert_eq!(m.access(b, va_b.add(0x80)).level, HitLevel::L1);
}

#[test]
fn l1_hits_never_touch_lower_level_replacement_state() {
    // §III footnote: "the sender's accesses to L1 or L2 caches will
    // not change the replacement state in the LLC" — in this model,
    // an access served by the L1 leaves the L2 (and LLC) completely
    // untouched, which is why the paper focuses the channel on L1.
    let mut m = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 70);
    let pid = m.create_process();
    let va = m.alloc_pages(pid, 1);
    m.access(pid, va); // miss: reaches L2/LLC once
    let l2_before = m.hierarchy().l2().stats();
    for _ in 0..100 {
        let out = m.access(pid, va);
        assert_eq!(out.level, HitLevel::L1);
    }
    let l2_after = m.hierarchy().l2().stats();
    assert_eq!(
        l2_before, l2_after,
        "100 L1 hits must leave the L2 untouched"
    );
}

#[test]
fn side_channel_recovers_secret_through_full_stack() {
    use lru_leak::attacks::side_channel::{recover_table_index, SetMonitor, TableLookupVictim};
    let mut m = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 71);
    let victim = TableLookupVictim::new(&mut m, 42);
    let monitor = SetMonitor::new(&mut m, Platform::e5_2690());
    assert_eq!(recover_table_index(&mut m, &victim, &monitor, 5, 71), 42);
}

#[test]
fn channel_generalizes_to_a_16_way_cache() {
    // The protocols are parameterized by associativity, not
    // hard-coded to the paper's 8-way parts: build a hypothetical
    // 16-way/32-set L1D and run Algorithm 1 end to end.
    use lru_leak::cache_sim::geometry::CacheGeometry;
    use lru_leak::exec_sim::sched::Engine;
    use lru_leak::lru_channel::covert::{CovertConfig, Sharing, Variant};
    use lru_leak::lru_channel::decode::{self, BitConvention};
    use lru_leak::lru_channel::params::ChannelParams;

    let mut arch = MicroArch::sandy_bridge_e5_2690();
    arch.l1d = CacheGeometry::new(64, 32, 16).unwrap();
    let platform = lru_leak::lru_channel::params::Platform {
        arch,
        tsc: TscModel::from_arch(&arch),
    };
    let params = ChannelParams {
        d: 16,
        target_set: 0,
        ts: 9_000,
        tr: 900,
    };
    let message = vec![true, false, false, true, true, false];
    let mut machine = Machine::new(arch, PolicyKind::TreePlru, 80);
    let run = CovertConfig {
        platform,
        params,
        variant: Variant::SharedMemory,
        sharing: Sharing::HyperThreaded,
        message: message.clone(),
        seed: 80,
        engine: Engine::FastForward,
    }
    .run_on(&mut machine)
    .unwrap();
    let bits = decode::bits_by_window(
        &run.samples,
        params.ts,
        run.hit_threshold,
        BitConvention::HitIsOne,
    );
    assert_eq!(&bits[..message.len()], &message[..]);
}
