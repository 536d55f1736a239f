//! Back-invalidation vs. the fast-forwarding engine.
//!
//! The back-invalidating hierarchy deliberately violates the quantum
//! fast-forward soundness condition: a co-runner's L2 eviction can
//! reach *another* thread's L1 lines, so a thread's quantum can no
//! longer be summarised from its own footprint alone. The engine
//! consults `CacheHierarchy::quantum_ff_safe()` next to
//! `Program::footprint` and demotes every thread to block execution
//! on such a machine — which must leave it byte-identical to the
//! op-at-a-time interpreter retained as `sched::reference`.
//!
//! This suite pins that demotion:
//!
//! * fixed covert-channel cells (`percent_ones` with an `inclusion`) are
//!   engine-invariant under all three inclusion models;
//! * property tests run random short programs with a `RandomTouches`
//!   co-runner on the back-invalidating machine and require identical
//!   `SchedulerReport`s, per-process counters and per-op results
//!   under both engines and both sharing models.

use lru_leak::cache_sim::hierarchy::Inclusion;
use lru_leak::cache_sim::profiles::MicroArch;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::exec_sim::machine::Machine;
use lru_leak::exec_sim::noise::RandomTouches;
use lru_leak::exec_sim::program::{Op, Script};
use lru_leak::exec_sim::sched::{Engine, HyperThreaded, SchedulerReport, ThreadHandle, TimeSliced};
use lru_leak::exec_sim::LatencyProbe;
use lru_leak::exec_sim::TscModel;
use lru_leak::lru_channel::covert::{percent_ones, PercentOnesOpts, Variant};
use lru_leak::lru_channel::params::{ChannelParams, Platform};
use proptest::prelude::*;

/// A machine built around a hierarchy under `inclusion`.
fn machine_with(inclusion: Inclusion, seed: u64) -> Machine {
    let arch = MicroArch::sandy_bridge_e5_2690();
    Machine::with_hierarchy(
        arch,
        arch.build_hierarchy(PolicyKind::TreePlru, seed)
            .with_inclusion(inclusion),
    )
}

#[test]
fn covert_cells_are_engine_invariant_under_every_inclusion() {
    let platform = Platform::e5_2690();
    let params = ChannelParams {
        d: 8,
        target_set: 32,
        ts: 100_000_000,
        tr: 100_000_000,
    };
    for inclusion in [
        Inclusion::Inclusive,
        Inclusion::NonInclusive,
        Inclusion::BackInvalidate,
    ] {
        for bit in [false, true] {
            let run = |engine| {
                let opts = PercentOnesOpts {
                    inclusion,
                    engine,
                    ..PercentOnesOpts::default()
                };
                percent_ones(platform, params, Variant::SharedMemory, bit, 20, 13, opts).unwrap()
            };
            let (fast, refr) = (run(Engine::FastForward), run(Engine::Reference));
            assert_eq!(
                fast, refr,
                "percent_ones({inclusion:?}, bit={bit}) diverged between engines"
            );
        }
    }
}

// ---- property tests: random programs on the unsafe hierarchy ----

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

/// Runs `cfg` on `engine`.
fn run_cfg(
    cfg: &SchedCfg,
    machine: &mut Machine,
    handles: &mut [ThreadHandle<'_>],
    limit: u64,
    engine: Engine,
) -> SchedulerReport {
    match cfg.clone() {
        SchedCfg::Ts(cfg) => cfg.with_engine(engine).run(machine, handles, limit),
        SchedCfg::Ht(cfg) => cfg.with_engine(engine).run(machine, handles, limit),
    }
}

/// Thread 0 runs a random script (with a latency probe so
/// `TimedAccess` is exercised); one more process runs a
/// `RandomTouches` co-runner — the fast-forward-eligible shape that
/// the capability bit must veto on a back-invalidating machine.
fn observe_mixed(
    blueprint: &[(u8, u32)],
    touches: (u64, u64, u32), // (first_line, lines, gap)
    inclusion: Inclusion,
    sched_cfg: &SchedCfg,
    limit: u64,
    engine: Engine,
) -> Observed {
    let mut machine = machine_with(inclusion, 77);
    let script_pid = machine.create_process();
    let script_arena = machine.alloc_pages(script_pid, 4);
    let touch_pid = machine.create_process();
    let touch_arena = machine.alloc_pages(touch_pid, 1);
    let probe = LatencyProbe::new(&mut machine, script_pid, TscModel::intel(), 63);
    let mut script = Script::new(
        blueprint
            .iter()
            .map(|&(kind, x)| {
                let line = u64::from(x) % (4 * 64);
                let va = script_arena.add(line * 64);
                match kind {
                    0 => Op::Access(va),
                    1 => Op::Compute(x % 500),
                    2 => Op::SpinUntil(u64::from(x) % (2 * limit)),
                    3 => Op::Flush(va),
                    _ => Op::TimedAccess(va),
                }
            })
            .collect(),
    );
    let (first_line, lines, gap) = touches;
    let mut co_runner = RandomTouches::new(touch_arena.add(first_line * 64), lines, 64, gap, 2);
    let report = {
        let mut handles = vec![
            ThreadHandle::with_probe(script_pid, &mut script, probe),
            ThreadHandle::new(touch_pid, &mut co_runner),
        ];
        run_cfg(sched_cfg, &mut machine, &mut handles, limit, engine)
    };
    Observed {
        report,
        counters: [script_pid, touch_pid]
            .iter()
            .map(|&p| *machine.counters(p))
            .collect(),
        results: vec![script.results],
    }
}

/// Strategy: one short random program as (op kind, payload) pairs.
fn blueprint() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..5, 0u32..=u32::MAX), 0..40)
}

/// Clamps a raw `RandomTouches` shape into its 64-line page.
fn clamp(shape: (u64, u64, u32)) -> (u64, u64, u32) {
    let (first, lines, gap) = shape;
    (first.min(63), lines.min(64 - first.min(63)), gap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random program + paced co-runner on the back-invalidating
    /// machine, time-sliced: the demoted fast engine must match the
    /// interpreter exactly.
    #[test]
    fn back_invalidation_pins_time_sliced_engines_together(
        bp in blueprint(),
        shape in (0u64..48, 1u64..16, 1u32..40_000),
        quantum in 2_000u64..40_000,
        switch_cost in 0u64..200,
        seed in 0u64..=u64::MAX,
    ) {
        let cfg = SchedCfg::Ts(
            TimeSliced::with_timing(quantum, quantum / 2, switch_cost, seed)
                .expect("valid timing"),
        );
        let limit = 200_000;
        let fast = observe_mixed(&bp, clamp(shape), Inclusion::BackInvalidate, &cfg, limit, Engine::FastForward);
        let refr = observe_mixed(&bp, clamp(shape), Inclusion::BackInvalidate, &cfg, limit, Engine::Reference);
        prop_assert_eq!(fast, refr);
    }

    /// The same under hyper-threading.
    #[test]
    fn back_invalidation_pins_hyper_threaded_engines_together(
        bp in blueprint(),
        shape in (0u64..48, 1u64..16, 1u32..40_000),
        jitter in 0u32..4,
        seed in 0u64..=u64::MAX,
    ) {
        let cfg = SchedCfg::Ht(HyperThreaded {
            jitter,
            ..HyperThreaded::new(seed)
        });
        let limit = 60_000;
        let fast = observe_mixed(&bp, clamp(shape), Inclusion::BackInvalidate, &cfg, limit, Engine::FastForward);
        let refr = observe_mixed(&bp, clamp(shape), Inclusion::BackInvalidate, &cfg, limit, Engine::Reference);
        prop_assert_eq!(fast, refr);
    }

    /// Control: the safe non-inclusive hierarchy (capability bit set)
    /// still agrees — the demotion is not the only reason the engines
    /// match.
    #[test]
    fn non_inclusive_hierarchy_keeps_engines_together(
        bp in blueprint(),
        shape in (0u64..48, 1u64..16, 1u32..40_000),
        quantum in 2_000u64..40_000,
        seed in 0u64..=u64::MAX,
    ) {
        let cfg = SchedCfg::Ts(
            TimeSliced::with_timing(quantum, quantum / 2, 50, seed).expect("valid timing"),
        );
        let limit = 200_000;
        let fast = observe_mixed(&bp, clamp(shape), Inclusion::NonInclusive, &cfg, limit, Engine::FastForward);
        let refr = observe_mixed(&bp, clamp(shape), Inclusion::NonInclusive, &cfg, limit, Engine::Reference);
        prop_assert_eq!(fast, refr);
    }
}
