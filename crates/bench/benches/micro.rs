//! Criterion micro-benchmarks of the simulation substrate itself:
//! how fast the cache model, replacement policies, measurement
//! machinery and decoders run. These are the only benches that
//! measure *this library's* performance rather than regenerating a
//! paper artifact.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cache_sim::addr::PhysAddr;
use cache_sim::cache::Cache;
use cache_sim::geometry::CacheGeometry;
use cache_sim::replacement::{Policy, PolicyKind, SetReplacement};
use exec_sim::machine::Machine;
use exec_sim::measure::LatencyProbe;
use exec_sim::tsc::TscModel;
use lru_channel::edit_distance::edit_distance;
use lru_channel::params::Platform;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("replacement_policy_update");
    for kind in [
        PolicyKind::Lru,
        PolicyKind::TreePlru,
        PolicyKind::BitPlru,
        PolicyKind::Fifo,
        PolicyKind::Random,
    ] {
        group.bench_function(format!("{kind}"), |b| {
            let mut policy = Policy::new(kind, 8, 1);
            let mut i = 0usize;
            b.iter(|| {
                policy.touch(i % 8);
                i += 1;
                black_box(policy.victim())
            });
        });
    }
    group.finish();
}

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("l1_cache_access");
    for kind in [PolicyKind::TreePlru, PolicyKind::Random] {
        group.bench_function(format!("{kind}"), |b| {
            let mut cache = Cache::new(CacheGeometry::l1d_paper(), kind, 1);
            let mut rng = SmallRng::seed_from_u64(2);
            b.iter(|| {
                let addr = PhysAddr::new(rng.gen_range(0..1u64 << 16) & !63);
                black_box(cache.access(addr))
            });
        });
    }
    group.finish();
}

fn bench_pointer_chase(c: &mut Criterion) {
    c.bench_function("pointer_chase_measurement", |b| {
        let platform = Platform::e5_2690();
        let mut m = Machine::new(platform.arch, PolicyKind::TreePlru, 3);
        let pid = m.create_process();
        let probe = LatencyProbe::new(&mut m, pid, TscModel::intel(), 63);
        let target = m.alloc_pages(pid, 1);
        let mut rng = SmallRng::seed_from_u64(4);
        b.iter(|| black_box(probe.measure(&mut m, pid, target, &mut rng)));
    });
}

fn bench_edit_distance(c: &mut Criterion) {
    c.bench_function("edit_distance_128", |b| {
        let mut rng = SmallRng::seed_from_u64(5);
        let a: Vec<bool> = (0..128).map(|_| rng.gen_bool(0.5)).collect();
        let bvec: Vec<bool> = (0..128).map(|_| rng.gen_bool(0.5)).collect();
        b.iter(|| black_box(edit_distance(&a, &bvec)));
    });
}

fn bench_covert_bit(c: &mut Criterion) {
    use exec_sim::sched::Engine;
    use lru_channel::covert::{CovertConfig, Sharing, Variant};
    use lru_channel::params::ChannelParams;
    c.bench_function("covert_channel_8bits_ht", |b| {
        b.iter_batched(
            || CovertConfig {
                platform: Platform::e5_2690(),
                params: ChannelParams::paper_alg1_default(),
                variant: Variant::SharedMemory,
                sharing: Sharing::HyperThreaded,
                message: vec![true, false, true, true, false, false, true, false],
                seed: 6,
                engine: Engine::FastForward,
            },
            |cfg| black_box(cfg.run().unwrap()),
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_policies, bench_cache_access, bench_pointer_chase,
              bench_edit_distance, bench_covert_bit
}
criterion_main!(benches);
