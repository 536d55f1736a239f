//! Tables VI and VII: the performance-counter footprint of the
//! channels.
//!
//! The paper's stealth argument (§VII): an LRU-channel *sender* runs
//! almost entirely from cache hits, so miss-based detectors cannot
//! tell it from a process sharing the core with any benign workload;
//! Flush+Reload's sender, by contrast, must miss in the target level
//! on every encode (F+R (mem): ~60% L2 / ~90% LLC miss rates).

use cache_sim::counters::{MissRates, PerfCounters};
use cache_sim::replacement::PolicyKind;
use exec_sim::machine::Machine;
use exec_sim::measure::LatencyProbe;
use exec_sim::sched::{Engine, HyperThreaded, ThreadHandle};
use exec_sim::speculation::build_victim;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::background::BenignCoRunner;

use lru_channel::params::{ChannelParams, Platform};
use lru_channel::protocol::{LruReceiver, LruSender};
use lru_channel::setup;

use crate::flush_reload::{EvictionMethod, FlushReloadReceiver};
use crate::primitive::{FlushReloadPrimitive, LruAlg1Primitive, LruAlg2Primitive};
use crate::spectre::{encode_symbols, SpectreAttack};

/// One row of Table VI or VII.
#[derive(Debug, Clone)]
pub struct MissRateRow {
    /// Configuration label (as in the paper's table).
    pub label: &'static str,
    /// Miss rates at the three levels.
    pub rates: MissRates,
    /// Raw counters behind the rates.
    pub counters: PerfCounters,
}

/// The Table VI configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderScenario {
    /// Sender + Flush+Reload(mem) receiver.
    FlushReloadMem,
    /// Sender + Flush+Reload(L1) receiver.
    FlushReloadL1,
    /// Sender + LRU Algorithm 1 receiver.
    LruAlg1,
    /// Sender + LRU Algorithm 2 receiver.
    LruAlg2,
    /// Sender sharing the core with a benign gcc-like workload.
    SenderAndGcc,
    /// Sender alone on the core.
    SenderOnly,
}

impl SenderScenario {
    /// All rows of Table VI, in paper order.
    pub const ALL: [SenderScenario; 6] = [
        SenderScenario::FlushReloadMem,
        SenderScenario::FlushReloadL1,
        SenderScenario::LruAlg1,
        SenderScenario::LruAlg2,
        SenderScenario::SenderAndGcc,
        SenderScenario::SenderOnly,
    ];

    /// Table row label.
    pub fn label(&self) -> &'static str {
        match self {
            SenderScenario::FlushReloadMem => "F+R (mem)",
            SenderScenario::FlushReloadL1 => "F+R (L1)",
            SenderScenario::LruAlg1 => "L1 LRU Alg.1",
            SenderScenario::LruAlg2 => "L1 LRU Alg.2",
            SenderScenario::SenderAndGcc => "sender & gcc",
            SenderScenario::SenderOnly => "sender only",
        }
    }
}

/// Measures the *sender process's* miss rates in one Table VI
/// scenario: the sender transmits random bits for `bits` periods of
/// `Ts = 6000` cycles while the scenario's co-runner does its thing,
/// hyper-threaded on `engine`.
pub fn sender_miss_rates(
    platform: Platform,
    scenario: SenderScenario,
    bits: usize,
    seed: u64,
    engine: Engine,
) -> MissRateRow {
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, seed);
    let sender_pid = machine.create_process();
    let receiver_pid = machine.create_process();
    let params = ChannelParams::paper_alg1_default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xb175);
    let message: Vec<bool> = (0..bits).map(|_| rng.gen_bool(0.5)).collect();

    let endpoints = match scenario {
        SenderScenario::LruAlg2 => {
            setup::alg2(&mut machine, sender_pid, receiver_pid, params.target_set)
        }
        _ => setup::alg1(&mut machine, sender_pid, receiver_pid, params.target_set),
    };
    let mut sender = LruSender::new(endpoints.sender_line, message.clone(), params.ts);
    machine.access(sender_pid, endpoints.sender_line);
    // Steady-state measurement, as `perf` over a long-running
    // sender: don't let the one cold compulsory miss dominate.
    machine.reset_counters();
    let limit = (bits as u64 + 1) * params.ts;
    let sched = HyperThreaded::new(seed).with_engine(engine);

    // Build the co-runner and run. Each arm keeps its program alive
    // on the stack for the scheduler borrow.
    match scenario {
        SenderScenario::FlushReloadMem | SenderScenario::FlushReloadL1 => {
            let eviction = if scenario == SenderScenario::FlushReloadMem {
                EvictionMethod::Clflush
            } else {
                EvictionMethod::L1EvictionSet(endpoints.receiver_lines[1..9].to_vec())
            };
            let mut recv =
                FlushReloadReceiver::new(endpoints.receiver_lines[0], eviction, params.tr);
            let probe = LatencyProbe::new(&mut machine, receiver_pid, platform.tsc, 63);
            sched.run(
                &mut machine,
                &mut [
                    ThreadHandle::new(sender_pid, &mut sender),
                    ThreadHandle::with_probe(receiver_pid, &mut recv, probe),
                ],
                limit,
            );
        }
        SenderScenario::LruAlg1 | SenderScenario::LruAlg2 => {
            let mut recv = LruReceiver::new(endpoints.receiver_lines.clone(), params.d, params.tr);
            let probe = LatencyProbe::new(&mut machine, receiver_pid, platform.tsc, 63);
            sched.run(
                &mut machine,
                &mut [
                    ThreadHandle::new(sender_pid, &mut sender),
                    ThreadHandle::with_probe(receiver_pid, &mut recv, probe),
                ],
                limit,
            );
        }
        SenderScenario::SenderAndGcc => {
            let mut gcc = BenignCoRunner::gcc(&mut machine, receiver_pid, seed ^ 0x6cc);
            sched.run(
                &mut machine,
                &mut [
                    ThreadHandle::new(sender_pid, &mut sender),
                    ThreadHandle::new(receiver_pid, &mut gcc),
                ],
                limit,
            );
        }
        SenderScenario::SenderOnly => {
            sched.run(
                &mut machine,
                &mut [ThreadHandle::new(sender_pid, &mut sender)],
                limit,
            );
        }
    }

    let counters = *machine.counters(sender_pid);
    MissRateRow {
        label: scenario.label(),
        rates: counters.miss_rates(),
        counters,
    }
}

/// The full Table VI for one platform.
pub fn table6(platform: Platform, bits: usize, seed: u64, engine: Engine) -> Vec<MissRateRow> {
    SenderScenario::ALL
        .iter()
        .map(|&s| sender_miss_rates(platform, s, bits, seed, engine))
        .collect()
}

/// The Spectre channels compared by Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectreChannel {
    /// Flush+Reload disclosure.
    FlushReloadMem,
    /// LRU Algorithm 1 disclosure.
    LruAlg1,
    /// LRU Algorithm 2 disclosure.
    LruAlg2,
}

impl SpectreChannel {
    /// All rows of Table VII.
    pub const ALL: [SpectreChannel; 3] = [
        SpectreChannel::FlushReloadMem,
        SpectreChannel::LruAlg1,
        SpectreChannel::LruAlg2,
    ];
}

/// Measures the combined (victim + attacker) miss rates during a
/// Spectre-v1 run recovering `secret` via the given channel
/// (Table VII).
pub fn spectre_miss_rates(
    platform: Platform,
    channel: SpectreChannel,
    secret: &str,
    seed: u64,
) -> MissRateRow {
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, seed);
    let symbols = encode_symbols(secret);
    let (mut victim, off) = build_victim(&mut machine, &symbols, 8);
    let pid = victim.pid;
    let attack = SpectreAttack {
        seed,
        ..SpectreAttack::default()
    };

    // Warm-up: recover the first symbol once untimed so compulsory
    // misses of the attack's own data structures don't dominate the
    // rates, then measure the full run.
    let label = match channel {
        SpectreChannel::FlushReloadMem => {
            let mut prim = FlushReloadPrimitive::new(pid, victim.array2, platform);
            attack.recover(&mut machine, &mut victim, &mut prim, off, 1);
            machine.reset_counters();
            attack.recover(&mut machine, &mut victim, &mut prim, off, symbols.len());
            "F+R (mem)"
        }
        SpectreChannel::LruAlg1 => {
            let mut prim = LruAlg1Primitive::new(&mut machine, pid, victim.array2, platform);
            attack.recover(&mut machine, &mut victim, &mut prim, off, 1);
            machine.reset_counters();
            attack.recover(&mut machine, &mut victim, &mut prim, off, symbols.len());
            "L1 LRU Alg.1"
        }
        SpectreChannel::LruAlg2 => {
            let mut prim = LruAlg2Primitive::new(&mut machine, pid, victim.array2, platform);
            attack.recover(&mut machine, &mut victim, &mut prim, off, 1);
            machine.reset_counters();
            attack.recover(&mut machine, &mut victim, &mut prim, off, symbols.len());
            "L1 LRU Alg.2"
        }
    };

    let counters = *machine.counters(pid);
    MissRateRow {
        label,
        rates: counters.miss_rates(),
        counters,
    }
}

/// The full Table VII for one platform.
pub fn table7(platform: Platform, secret: &str, seed: u64) -> Vec<MissRateRow> {
    SpectreChannel::ALL
        .iter()
        .map(|&c| spectre_miss_rates(platform, c, secret, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BITS: usize = 200;

    /// One Table VI row on the paper's Xeon, on the default engine.
    fn sender_row(scenario: SenderScenario, seed: u64) -> MissRateRow {
        sender_miss_rates(
            Platform::e5_2690(),
            scenario,
            BITS,
            seed,
            Engine::FastForward,
        )
    }

    #[test]
    fn lru_sender_l1_miss_rate_is_tiny() {
        let row = sender_row(SenderScenario::LruAlg1, 1);
        assert!(
            row.rates.l1d < 0.02,
            "LRU Alg.1 sender must mostly hit L1, got {:.4}",
            row.rates.l1d
        );
    }

    #[test]
    fn fr_mem_sender_misses_much_more_beyond_l2() {
        let fr = sender_row(SenderScenario::FlushReloadMem, 2);
        let lru = sender_row(SenderScenario::LruAlg1, 2);
        // Table VI shape: F+R(mem) has order-of-magnitude worse L2
        // and LLC rates than the LRU sender.
        assert!(
            fr.rates.l2 > 2.0 * lru.rates.l2,
            "F+R(mem) L2 {:.3} vs LRU {:.3}",
            fr.rates.l2,
            lru.rates.l2
        );
        assert!(
            fr.rates.llc > 5.0 * lru.rates.llc.max(0.001),
            "F+R(mem) LLC {:.3} vs LRU {:.3}",
            fr.rates.llc,
            lru.rates.llc
        );
    }

    #[test]
    fn lru_sender_resembles_benign_cosched() {
        // The stealth claim: the LRU sender's L1D profile is within
        // the range spanned by benign co-scheduling.
        let lru = sender_row(SenderScenario::LruAlg1, 3);
        let gcc = sender_row(SenderScenario::SenderAndGcc, 3);
        assert!(
            lru.rates.l1d <= gcc.rates.l1d + 0.02,
            "LRU sender L1D {:.4} should not exceed benign-cosched {:.4} meaningfully",
            lru.rates.l1d,
            gcc.rates.l1d
        );
    }

    #[test]
    fn sender_only_has_lowest_l1_missrate() {
        let only = sender_row(SenderScenario::SenderOnly, 4);
        for s in [
            SenderScenario::FlushReloadMem,
            SenderScenario::LruAlg1,
            SenderScenario::SenderAndGcc,
        ] {
            let row = sender_row(s, 4);
            assert!(
                only.rates.l1d <= row.rates.l1d + 1e-9,
                "sender-only should be the floor ({:?}: {:.4} vs {:.4})",
                s,
                only.rates.l1d,
                row.rates.l1d
            );
        }
    }

    #[test]
    fn spectre_fr_mem_has_huge_llc_miss_rate() {
        let fr = spectre_miss_rates(Platform::e5_2690(), SpectreChannel::FlushReloadMem, "ab", 5);
        let lru = spectre_miss_rates(Platform::e5_2690(), SpectreChannel::LruAlg1, "ab", 5);
        // Table VII shape: F+R(mem) ~90%+ LLC misses; the LRU
        // channels stay low.
        assert!(
            fr.rates.llc > 0.5,
            "F+R Spectre must hammer the LLC, got {:.3}",
            fr.rates.llc
        );
        assert!(
            lru.rates.llc < 0.2,
            "LRU Spectre must not, got {:.3}",
            lru.rates.llc
        );
    }

    #[test]
    fn table6_has_all_rows() {
        let rows = table6(Platform::e5_2690(), 50, 6, Engine::FastForward);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].label, "F+R (mem)");
        assert_eq!(rows[5].label, "sender only");
    }
}
