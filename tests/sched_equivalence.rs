//! The fast-forwarding execution engine's contract: observationally
//! identical to the op-at-a-time interpreter.
//!
//! `exec_sim::sched` now runs two engines over the same schedule —
//! the batched/fast-forwarding default and the original interpreter
//! retained as `sched::reference`. This suite pins them against each
//! other at three levels:
//!
//! * **registry artifacts** — every artifact (in particular all
//!   time-sliced and hyper-threaded covert/percent-ones grids)
//!   renders byte-identical `Report { text, metrics }` under both
//!   engines;
//! * **natural-parameter percent-ones runs** — fig6-style cells at
//!   `Tr = 1e8`, clean and under both disjoint-footprint noise
//!   (exercising the analytic quantum fast-forward) and overlapping
//!   noise (exercising the tight-loop path);
//! * **property tests** — random short programs on 1–3 threads,
//!   random scheduler timings: identical `SchedulerReport`, machine
//!   counters and per-op results under `reference` and the fast
//!   engine, for both sharing models, including fast-forward-eligible
//!   paced co-runners.
//!
//! Every run names its engine, which travels with the scheduler
//! value, so these tests share no state and run in parallel.

mod oracle;

use lru_leak::cache_sim::profiles::MicroArch;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::exec_sim::machine::Machine;
use lru_leak::exec_sim::noise::RandomTouches;
use lru_leak::exec_sim::program::{Op, Script};
use lru_leak::exec_sim::sched::{Engine, HyperThreaded, SchedulerReport, ThreadHandle, TimeSliced};
use lru_leak::exec_sim::LatencyProbe;
use lru_leak::exec_sim::TscModel;
use lru_leak::lru_channel::covert::{percent_ones, CoRunner, PercentOnesOpts, Variant};
use lru_leak::lru_channel::noise::NoiseModel;
use lru_leak::lru_channel::params::{ChannelParams, Platform};
use lru_leak::scenario::registry::{self, RunOpts};
use proptest::prelude::*;

/// Runs `f` on each engine and returns (fast, reference) results.
fn on_both_engines<T>(f: impl Fn(Engine) -> T) -> (T, T) {
    (f(Engine::FastForward), f(Engine::Reference))
}

#[test]
fn every_registry_artifact_is_engine_invariant() {
    let opts = RunOpts {
        trials: Some(1),
        seed: 0xe4e4_5eed,
    };
    for id in registry::ids() {
        let artifact = registry::get(id).unwrap();
        // The buffered oracle is sequential, so the comparison is
        // pure engine behaviour, independent of the worker pool.
        let (fast, refr) = on_both_engines(|engine| oracle::run_artifact(artifact, &opts, engine));
        assert_eq!(
            fast.text, refr.text,
            "{id}: fast-forward text differs from the reference interpreter"
        );
        assert_eq!(
            fast.metrics.to_string(),
            refr.metrics.to_string(),
            "{id}: fast-forward metrics differ from the reference interpreter"
        );
    }
}

/// Fig. 6-shaped cells at the paper's 1e8-cycle periods: the exact
/// workload the fast-forward engine was built for.
#[test]
fn timesliced_percent_ones_is_engine_invariant_at_natural_periods() {
    let platform = Platform::e5_2690();
    for (target_set, bit, seed) in [(0usize, false, 5u64), (0, true, 5), (32, true, 9)] {
        let params = ChannelParams {
            d: 8,
            target_set,
            ts: 100_000_000,
            tr: 100_000_000,
        };
        let (fast, refr) = on_both_engines(|engine| {
            let opts = PercentOnesOpts {
                engine,
                ..PercentOnesOpts::default()
            };
            percent_ones(platform, params, Variant::SharedMemory, bit, 25, seed, opts).unwrap()
        });
        assert_eq!(
            fast, refr,
            "percent_ones(set={target_set}, bit={bit}) diverged between engines"
        );
    }
}

/// Noise co-runners: a buffer clear of the target and probe sets is
/// analytically fast-forwarded, an overlapping one runs through the
/// tight loop — both must reproduce the interpreter exactly.
#[test]
fn noisy_percent_ones_is_engine_invariant() {
    let platform = Platform::e5_2690();
    let params = ChannelParams {
        d: 8,
        target_set: 32,
        ts: 100_000_000,
        tr: 100_000_000,
    };
    for noise in [
        // Sets 0..16: disjoint from target set 32 and probe set 63 —
        // the analytic fast-forward fires.
        NoiseModel::RandomEviction {
            lines: 16,
            gap_cycles: 60_000,
        },
        // Sets 0..64 at 8-way pressure: overlaps the channel — every
        // touch is simulated.
        NoiseModel::RandomEviction {
            lines: 512,
            gap_cycles: 60_000,
        },
        NoiseModel::PeriodicBurst {
            period_cycles: 1_000_000,
            burst_lines: 64,
        },
        NoiseModel::Bernoulli { p: 0.6, lines: 4 },
    ] {
        for bit in [false, true] {
            let (fast, refr) = on_both_engines(|engine| {
                let opts = PercentOnesOpts {
                    co_runner: CoRunner::Model(noise),
                    engine,
                    ..PercentOnesOpts::default()
                };
                percent_ones(platform, params, Variant::SharedMemory, bit, 20, 11, opts).unwrap()
            });
            assert_eq!(
                fast,
                refr,
                "noisy percent_ones diverged between engines ({}, bit={bit})",
                noise.label()
            );
        }
    }
}

// ---- property tests: random short programs, random timings ----

/// Everything two engine runs must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    report: SchedulerReport,
    counters: Vec<lru_leak::cache_sim::counters::PerfCounters>,
    results: Vec<Vec<lru_leak::exec_sim::OpResult>>,
}

/// Scheduler configuration under test.
#[derive(Debug, Clone)]
enum SchedCfg {
    Ts(TimeSliced),
    Ht(HyperThreaded),
}

impl SchedCfg {
    /// Runs the configured scheduler on `engine`.
    fn run(
        &self,
        engine: Engine,
        machine: &mut Machine,
        handles: &mut [ThreadHandle<'_>],
        limit: u64,
    ) -> SchedulerReport {
        match self.clone() {
            SchedCfg::Ts(cfg) => cfg.with_engine(engine).run(machine, handles, limit),
            SchedCfg::Ht(cfg) => cfg.with_engine(engine).run(machine, handles, limit),
        }
    }
}

/// Builds a machine plus per-thread scripts from op blueprints, runs
/// one engine over them and returns the observables. Processes are
/// created deterministically, thread 0 carries a probe (so
/// `TimedAccess` is exercised); op addresses index into a per-thread
/// 4-page arena.
fn observe_scripts(
    blueprints: &[Vec<(u8, u32)>],
    sched_cfg: &SchedCfg,
    limit: u64,
    engine: Engine,
) -> Observed {
    let mut machine = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 77);
    let mut pids = Vec::new();
    let mut arenas = Vec::new();
    for _ in blueprints {
        let pid = machine.create_process();
        let arena = machine.alloc_pages(pid, 4);
        pids.push(pid);
        arenas.push(arena);
    }
    let probe = LatencyProbe::new(&mut machine, pids[0], TscModel::intel(), 63);
    let mut programs: Vec<Script> = blueprints
        .iter()
        .enumerate()
        .map(|(t, ops)| {
            Script::new(
                ops.iter()
                    .map(|&(kind, x)| {
                        let line = u64::from(x) % (4 * 64);
                        let va = arenas[t].add(line * 64);
                        match kind {
                            0 => Op::Access(va),
                            1 => Op::Compute(x % 500),
                            2 => Op::SpinUntil(u64::from(x) % (2 * limit)),
                            3 => Op::Flush(va),
                            _ if t == 0 => Op::TimedAccess(va),
                            _ => Op::Access(va),
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    let report = {
        let mut handles: Vec<ThreadHandle<'_>> = programs
            .iter_mut()
            .enumerate()
            .map(|(t, p)| {
                if t == 0 {
                    ThreadHandle::with_probe(pids[0], p, probe.clone())
                } else {
                    ThreadHandle::new(pids[t], p)
                }
            })
            .collect();
        sched_cfg.run(engine, &mut machine, &mut handles, limit)
    };
    Observed {
        report,
        counters: pids.iter().map(|&p| *machine.counters(p)).collect(),
        results: programs.into_iter().map(|p| p.results).collect(),
    }
}

/// Paced co-runners (the fast-forward-eligible shape): each thread
/// is a `RandomTouches` over its own line range of a private page.
fn observe_paced(
    threads: &[(u64, u64, u32)], // (first_line, lines, gap)
    sched_cfg: &SchedCfg,
    limit: u64,
    engine: Engine,
) -> (
    SchedulerReport,
    Vec<lru_leak::cache_sim::counters::PerfCounters>,
) {
    let mut machine = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 3);
    let mut pids = Vec::new();
    let mut programs = Vec::new();
    for (i, &(first_line, lines, gap)) in threads.iter().enumerate() {
        let pid = machine.create_process();
        let arena = machine.alloc_pages(pid, 1);
        pids.push(pid);
        programs.push(RandomTouches::new(
            arena.add(first_line * 64),
            lines,
            64,
            gap,
            i as u64 + 1,
        ));
    }
    let report = {
        let mut handles: Vec<ThreadHandle<'_>> = programs
            .iter_mut()
            .enumerate()
            .map(|(t, p)| ThreadHandle::new(pids[t], p))
            .collect();
        sched_cfg.run(engine, &mut machine, &mut handles, limit)
    };
    (report, pids.iter().map(|&p| *machine.counters(p)).collect())
}

/// Strategy: one short random program as (op kind, payload) pairs.
fn blueprint() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..5, 0u32..=u32::MAX), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random short programs, 1–3 threads, random valid time-sliced
    /// timing: identical reports, counters and per-op results.
    #[test]
    fn time_sliced_engines_agree_on_random_programs(
        blueprints in proptest::collection::vec(blueprint(), 1..=3),
        quantum in 200u64..5_000,
        jitter_frac in 0u64..=200,
        switch_cost in 0u64..100,
        seed in 0u64..=u64::MAX,
    ) {
        let cfg = SchedCfg::Ts(TimeSliced::with_timing(
            quantum,
            quantum * jitter_frac / 100,
            switch_cost,
            seed,
        ).expect("valid timing"));
        let limit = 60_000;
        let fast = observe_scripts(&blueprints, &cfg, limit, Engine::FastForward);
        let refr = observe_scripts(&blueprints, &cfg, limit, Engine::Reference);
        prop_assert_eq!(fast, refr);
    }

    /// The same under hyper-threading (per-op jitter, per-op
    /// interleaving).
    #[test]
    fn hyper_threaded_engines_agree_on_random_programs(
        blueprints in proptest::collection::vec(blueprint(), 1..=3),
        jitter in 0u32..4,
        seed in 0u64..=u64::MAX,
    ) {
        let cfg = SchedCfg::Ht(HyperThreaded {
            jitter,
            ..HyperThreaded::new(seed)
        });
        let limit = 60_000;
        let fast = observe_scripts(&blueprints, &cfg, limit, Engine::FastForward);
        let refr = observe_scripts(&blueprints, &cfg, limit, Engine::Reference);
        prop_assert_eq!(fast, refr);
    }

    /// Paced co-runners with random (possibly overlapping, possibly
    /// disjoint) footprints: the analytic fast-forward and the tight
    /// loop must both reproduce the interpreter, for gaps above and
    /// below the hit cost.
    #[test]
    fn fast_forward_eligible_corunners_agree(
        shapes in proptest::collection::vec(
            (0u64..48, 1u64..16, 1u32..40_000), 1..=3),
        quantum in 2_000u64..40_000,
        switch_cost in 0u64..200,
        seed in 0u64..=u64::MAX,
    ) {
        let cfg = SchedCfg::Ts(TimeSliced::with_timing(
            quantum, quantum / 2, switch_cost, seed,
        ).expect("valid timing"));
        // Clamp ranges into the 64-line page.
        let shapes: Vec<(u64, u64, u32)> = shapes
            .into_iter()
            .map(|(first, lines, gap)| (first.min(63), lines.min(64 - first.min(63)), gap))
            .collect();
        let limit = 400_000;
        let fast = observe_paced(&shapes, &cfg, limit, Engine::FastForward);
        let refr = observe_paced(&shapes, &cfg, limit, Engine::Reference);
        prop_assert_eq!(fast, refr);
    }
}
