//! Full Spectre-v1 integration across the crates: victim model from
//! `exec-sim`, primitives from `attacks`, caches from `cache-sim`.

use lru_leak::attacks::primitive::{
    DisclosurePrimitive, FlushReloadPrimitive, LruAlg1Primitive, LruAlg2Primitive,
};
use lru_leak::attacks::spectre::{decode_symbols, encode_symbols, SpectreAttack};
use lru_leak::cache_sim::prefetcher::Prefetcher;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::exec_sim::machine::Machine;
use lru_leak::exec_sim::sched::Engine;
use lru_leak::exec_sim::speculation::{build_victim, SpecMode};
use lru_leak::lru_channel::params::Platform;
use lru_leak::scenario::spec::Channel;
use lru_leak::scenario::{ExperimentKind, MessageSource, Scenario, Value};

const SECRET: &str = "open sesame 42";

fn recover_with<F, P>(build: F, seed: u64) -> String
where
    P: DisclosurePrimitive,
    F: FnOnce(
        &mut Machine,
        lru_leak::exec_sim::machine::Pid,
        lru_leak::cache_sim::addr::VirtAddr,
    ) -> P,
{
    let platform = Platform::e5_2690();
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, seed);
    let symbols = encode_symbols(SECRET);
    let (mut victim, off) = build_victim(&mut machine, &symbols, 8);
    let mut prim = build(&mut machine, victim.pid, victim.array2);
    let got = SpectreAttack {
        seed,
        ..SpectreAttack::default()
    }
    .recover(&mut machine, &mut victim, &mut prim, off, symbols.len());
    decode_symbols(&got)
}

#[test]
fn all_three_primitives_recover_the_secret() {
    let platform = Platform::e5_2690();
    assert_eq!(
        recover_with(
            |_m, pid, a2| FlushReloadPrimitive::new(pid, a2, platform),
            10
        ),
        SECRET
    );
    assert_eq!(
        recover_with(|m, pid, a2| LruAlg1Primitive::new(m, pid, a2, platform), 11),
        SECRET
    );
    assert_eq!(
        recover_with(|m, pid, a2| LruAlg2Primitive::new(m, pid, a2, platform), 12),
        SECRET
    );
}

#[test]
fn secret_recovery_works_on_skylake_model_too() {
    let platform = Platform::e3_1245v5();
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, 13);
    let symbols = encode_symbols("skl");
    let (mut victim, off) = build_victim(&mut machine, &symbols, 8);
    let mut prim = LruAlg1Primitive::new(&mut machine, victim.pid, victim.array2, platform);
    let got = SpectreAttack::default().recover(&mut machine, &mut victim, &mut prim, off, 3);
    assert_eq!(decode_symbols(&got), "skl");
}

#[test]
fn lru_attack_survives_bit_plru_l1() {
    // Table I: Bit-PLRU converges to certain eviction too, so the
    // channel works on an MRU-based L1 as well.
    let platform = Platform::e5_2690();
    let mut machine = Machine::new(platform.arch, PolicyKind::BitPlru, 14);
    let symbols = encode_symbols("mru");
    let (mut victim, off) = build_victim(&mut machine, &symbols, 8);
    let mut prim = LruAlg2Primitive::new(&mut machine, victim.pid, victim.array2, platform);
    let got = SpectreAttack {
        rounds: 9,
        ..SpectreAttack::default()
    }
    .recover(&mut machine, &mut victim, &mut prim, off, 3);
    let correct = decode_symbols(&got)
        .bytes()
        .zip("mru".bytes())
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        correct >= 2,
        "Bit-PLRU recovery too weak: {:?}",
        decode_symbols(&got)
    );
}

#[test]
fn invisible_speculation_blocks_every_primitive() {
    let platform = Platform::e5_2690();
    for seed in [20u64, 21, 22] {
        let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, seed);
        let symbols = encode_symbols("xyz");
        let (mut victim, off) = build_victim(&mut machine, &symbols, 8);
        let mut prim = LruAlg1Primitive::new(&mut machine, victim.pid, victim.array2, platform);
        let got = SpectreAttack {
            mode: SpecMode::Invisible,
            seed,
            ..SpectreAttack::default()
        }
        .recover(&mut machine, &mut victim, &mut prim, off, 3);
        assert_ne!(decode_symbols(&got), "xyz");
    }
}

#[test]
fn prefetcher_noise_is_survivable_with_rounds() {
    let platform = Platform::e5_2690();
    let mut machine = Machine::with_hierarchy(
        platform.arch,
        platform
            .arch
            .build_hierarchy(PolicyKind::TreePlru, 30)
            .with_prefetcher(Prefetcher::next_line()),
    );
    let symbols = encode_symbols("noisy");
    let (mut victim, off) = build_victim(&mut machine, &symbols, 8);
    let mut prim = LruAlg2Primitive::new(&mut machine, victim.pid, victim.array2, platform);
    let got = SpectreAttack {
        rounds: 11,
        seed: 30,
        ..SpectreAttack::default()
    }
    .recover(&mut machine, &mut victim, &mut prim, off, symbols.len());
    let correct = decode_symbols(&got)
        .bytes()
        .zip("noisy".bytes())
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        correct >= 4,
        "Appendix-C mitigation too weak under prefetch noise: {:?}",
        decode_symbols(&got)
    );
}

#[test]
fn small_speculation_window_still_fits_the_lru_channel() {
    // §VIII: the LRU disclosure needs only the gadget's two loads.
    let platform = Platform::e5_2690();
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, 31);
    let symbols = encode_symbols("w");
    let (mut victim, off) = build_victim(&mut machine, &symbols, 2); // minimal window
    let mut prim = LruAlg1Primitive::new(&mut machine, victim.pid, victim.array2, platform);
    let got = SpectreAttack::default().recover(&mut machine, &mut victim, &mut prim, off, 1);
    assert_eq!(decode_symbols(&got), "w");
}

/// Both Flush+Reload flavours disclose through the one `clflush`
/// primitive: a Spectre trial and a Table VII trial through `fr-l1`
/// produce the metrics of `fr-mem`, apart from the echoed channel.
#[test]
fn both_flush_reload_flavours_disclose_through_one_primitive() {
    let without_channel = |metrics: Value| match metrics {
        Value::Obj(pairs) => {
            Value::Obj(pairs.into_iter().filter(|(k, _)| k != "channel").collect())
        }
        other => other,
    };
    let kinds = |channel| {
        [
            ExperimentKind::Spectre {
                channel,
                rounds: 2,
                prefetcher: false,
            },
            ExperimentKind::SpectreMissRates { channel },
        ]
    };
    for seed in [1, 2, 3] {
        let run = |kind| {
            let sc = Scenario::builder()
                .message(MessageSource::Text("Hi".into()))
                .kind(kind)
                .seed(seed)
                .build()
                .unwrap();
            without_channel(sc.run_trial(seed, Engine::FastForward))
        };
        for (mem, l1) in kinds(Channel::FlushReload)
            .into_iter()
            .zip(kinds(Channel::FlushReloadL1))
        {
            let tag = mem.tag();
            assert_eq!(run(mem), run(l1), "{tag} seed {seed}: fr-l1 != fr-mem");
        }
    }
}
