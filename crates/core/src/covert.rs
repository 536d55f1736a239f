//! End-to-end covert-channel runs (paper §V, §VI).

use cache_sim::hierarchy::Inclusion;
use cache_sim::replacement::PolicyKind;
use exec_sim::machine::{Machine, Pid};
use exec_sim::measure::LatencyProbe;
use exec_sim::noise::RandomTouches;
use exec_sim::program::Program;
use exec_sim::sched::{Engine, HyperThreaded, SchedulerReport, ThreadHandle, TimeSliced};

use crate::decode::{self, BitConvention};
use crate::noise::NoiseModel;
use crate::params::{ChannelParams, ParamError, Platform};
use crate::protocol::{LruReceiver, LruSender, Sample};
use crate::setup::{self, Endpoints};

/// Which channel protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Algorithm 1: sender and receiver are separate processes with
    /// a shared page holding `line 0`.
    SharedMemory,
    /// Algorithm 1 between two threads of one address space (the AMD
    /// pthreads configuration of §VI-B — immune to the µtag way
    /// predictor because both parties use the same linear address).
    SharedMemoryThreads,
    /// Algorithm 2: fully separate processes, no shared memory.
    NoSharedMemory,
}

/// How the two parties share the physical core (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Two hyper-threads running in parallel (§V-A).
    HyperThreaded,
    /// Two processes time-slicing the core with CFS-like quanta
    /// (§V-B).
    TimeSliced,
}

/// Configuration of one covert-channel run.
#[derive(Debug, Clone)]
pub struct CovertConfig {
    /// The simulated CPU.
    pub platform: Platform,
    /// Channel parameters (`d`, target set, `Ts`, `Tr`).
    pub params: ChannelParams,
    /// Protocol variant.
    pub variant: Variant,
    /// Core-sharing setting.
    pub sharing: Sharing,
    /// Bits the sender transmits (once; repeat the slice yourself to
    /// send a string several times, as the paper's error evaluation
    /// does).
    pub message: Vec<bool>,
    /// Seed for every randomized component of the run.
    pub seed: u64,
    /// The scheduler's execution engine.
    pub engine: Engine,
}

/// The observable outcome of a covert-channel run.
#[derive(Debug, Clone)]
pub struct CovertRun {
    /// The receiver's timed observations, in order.
    pub samples: Vec<Sample>,
    /// Threshold separating hit from miss readouts on this platform.
    pub hit_threshold: u32,
    /// Nominal transmission rate in bits/second (`freq / Ts`).
    pub rate_bps: f64,
    /// Scheduler accounting for the run.
    pub report: SchedulerReport,
}

impl CovertConfig {
    /// Runs the channel and returns the receiver's trace.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the parameters do not fit the
    /// platform's L1 geometry.
    pub fn run(&self) -> Result<CovertRun, ParamError> {
        let mut machine = Machine::new(self.platform.arch, PolicyKind::TreePlru, self.seed);
        self.run_on(&mut machine)
    }

    /// Like [`CovertConfig::run`] but on a caller-supplied machine
    /// (used by the secure-cache ablations to swap the L1 policy).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the parameters do not fit the
    /// machine's L1 geometry.
    pub fn run_on(&self, machine: &mut Machine) -> Result<CovertRun, ParamError> {
        self.run_on_with_noise(machine, NoiseModel::None)
    }

    /// [`CovertConfig::run_on`] with an environmental [`NoiseModel`]
    /// injected as a third thread next to the sender and receiver.
    /// `NoiseModel::None` takes exactly the two-thread path, so
    /// noise-free runs stay byte-identical to the pre-noise code.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the parameters do not fit the
    /// machine's L1 geometry.
    pub fn run_on_with_noise(
        &self,
        machine: &mut Machine,
        noise: NoiseModel,
    ) -> Result<CovertRun, ParamError> {
        let (samples, report) = self.run_parties(machine, CoRunner::Model(noise), None)?;
        Ok(CovertRun {
            samples,
            hit_threshold: self.platform.hit_threshold(),
            rate_bps: self.platform.rate_bps(self.params.ts),
            report,
        })
    }

    /// The body every channel run shares: validate, wire the
    /// endpoints, attach `co_runner` right after them (so a run
    /// without one performs exactly the two-party allocation and
    /// access sequence), warm the channel lines and schedule the
    /// parties under `self.sharing` on `self.engine`.
    ///
    /// `sample_cap: None` sends the message once (scheduler seed
    /// `seed ^ 0x5eed`); `Some(n)` stops the receiver after `n`
    /// samples, with enough cycles for them plus scheduling slack
    /// per party sharing the quanta (scheduler seed `seed ^ 0x711c`).
    fn run_parties(
        &self,
        machine: &mut Machine,
        co_runner: CoRunner,
        sample_cap: Option<usize>,
    ) -> Result<(Vec<Sample>, SchedulerReport), ParamError> {
        let geom = machine.hierarchy().l1().geometry();
        self.params
            .validate(geom.ways(), geom.num_sets() as usize)?;

        let (endpoints, mut receiver_prog) = self.wire(machine);
        let mut sender_prog =
            LruSender::new(endpoints.sender_line, self.message.clone(), self.params.ts);
        if self.sharing == Sharing::TimeSliced {
            // Keep multi-second time-sliced runs tractable: the
            // sender touches its line every ~50k cycles instead of
            // every ~30 — still hundreds of touches per quantum, so
            // the channel semantics are unchanged.
            sender_prog = sender_prog.repeating().with_encode_calc(50_000);
        }
        if let Some(n) = sample_cap {
            receiver_prog = receiver_prog.with_max_samples(n);
        }

        // The interference party, if any: its own process, its own
        // buffer, its op stream derived only from the run seed.
        let mut co_runner = co_runner.spawn(machine, self.params.tr, self.seed);

        let probe_set = setup::reserved_probe_set(machine, self.params.target_set);
        let probe = LatencyProbe::new(
            machine,
            endpoints.receiver_pid,
            self.platform.tsc,
            probe_set,
        );

        // Warm the channel lines so the steady state (all lines in
        // L1/L2 rather than cold memory) is reached immediately, as
        // in the paper where the attack loops run continuously.
        for &va in &endpoints.receiver_lines {
            machine.access(endpoints.receiver_pid, va);
        }
        machine.access(endpoints.sender_pid, endpoints.sender_line);

        let parties = 2 + u64::from(co_runner.is_some());
        let (limit, sched_seed) = match sample_cap {
            None => (
                (self.message.len() as u64 + 1) * self.params.ts,
                self.seed ^ 0x5eed,
            ),
            Some(n) => (
                (n as u64 + 8) * (self.params.tr + 100_000) + parties * 400_000_000,
                self.seed ^ 0x711c,
            ),
        };
        let mut threads = vec![
            ThreadHandle::new(endpoints.sender_pid, &mut sender_prog),
            ThreadHandle::with_probe(endpoints.receiver_pid, &mut receiver_prog, probe),
        ];
        if let Some((pid, prog)) = co_runner.as_mut() {
            threads.push(ThreadHandle::new(*pid, &mut **prog));
        }
        let report = match self.sharing {
            Sharing::HyperThreaded => {
                let sched = HyperThreaded::new(sched_seed).with_engine(self.engine);
                sched.run(machine, &mut threads, limit)
            }
            Sharing::TimeSliced => {
                let sched = TimeSliced::new(sched_seed).with_engine(self.engine);
                sched.run(machine, &mut threads, limit)
            }
        };
        Ok((receiver_prog.into_samples(), report))
    }

    fn wire(&self, machine: &mut Machine) -> (Endpoints, LruReceiver) {
        let (sender_pid, receiver_pid) = match self.variant {
            Variant::SharedMemoryThreads => {
                let p = machine.create_process();
                (p, p)
            }
            _ => (machine.create_process(), machine.create_process()),
        };
        let endpoints = match self.variant {
            Variant::SharedMemory | Variant::SharedMemoryThreads => {
                setup::alg1(machine, sender_pid, receiver_pid, self.params.target_set)
            }
            Variant::NoSharedMemory => {
                setup::alg2(machine, sender_pid, receiver_pid, self.params.target_set)
            }
        };
        let receiver = LruReceiver::new(
            endpoints.receiver_lines.clone(),
            self.params.d,
            self.params.tr,
        );
        (endpoints, receiver)
    }
}

/// The third party sharing the core with a percent-ones channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum CoRunner {
    /// Sender and receiver alone.
    #[default]
    None,
    /// A parametric interference process ([`NoiseModel::spawn`]);
    /// `Model(NoiseModel::None)` spawns nothing, exactly like
    /// [`CoRunner::None`].
    Model(NoiseModel),
    /// A benign process touching random lines of a 256-line buffer,
    /// polluting every L1 set including the target (§V-B: "any other
    /// processes running during Tr could pollute the target set and
    /// introduce much noise" — the reason the paper could not
    /// observe time-sliced Algorithm 2 at all).
    Benign,
}

impl CoRunner {
    /// Creates the co-runner's process and program on `machine`,
    /// cadenced at the receiver period `tr`.
    fn spawn(self, machine: &mut Machine, tr: u64, seed: u64) -> Option<(Pid, Box<dyn Program>)> {
        match self {
            CoRunner::None => None,
            CoRunner::Model(noise) => noise
                .spawn(machine, tr.max(1), seed)
                .map(|(pid, prog)| (pid, Box::new(prog) as Box<dyn Program>)),
            CoRunner::Benign => {
                let pid = machine.create_process();
                let buffer = machine.alloc_pages(pid, 4);
                let touches = RandomTouches::new(buffer, 4 * 64, 64, 60_000, seed ^ 0x0153);
                Some((pid, Box::new(touches)))
            }
        }
    }
}

/// How a [`percent_ones`] run departs from the quiet default
/// machine. `PercentOnesOpts::default()` is the inclusive hierarchy,
/// no co-runner and the fast-forwarding engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PercentOnesOpts {
    /// The L1↔L2 inclusion model, swapped in before the run (the
    /// scenario layer's hierarchy axis). A back-invalidating
    /// hierarchy additionally demotes every thread to block
    /// execution because the quantum fast-forward soundness
    /// condition no longer holds.
    pub inclusion: Inclusion,
    /// The third party time-slicing the core, if any.
    pub co_runner: CoRunner,
    /// The scheduler's execution engine.
    pub engine: Engine,
}

/// The time-sliced constant-bit experiment behind Figs. 6, 8, 15:
/// the sender sends only `bit`, the receiver takes `n_samples`
/// measurements at period `tr`, and the result is the fraction of
/// measurements the receiver classifies as `1`.
///
/// # Errors
///
/// Returns [`ParamError`] if the parameters do not fit the
/// platform's L1 geometry.
pub fn percent_ones(
    platform: Platform,
    params: ChannelParams,
    variant: Variant,
    bit: bool,
    n_samples: usize,
    seed: u64,
    opts: PercentOnesOpts,
) -> Result<f64, ParamError> {
    let cfg = CovertConfig {
        platform,
        params,
        variant,
        sharing: Sharing::TimeSliced,
        message: vec![bit],
        seed,
        engine: opts.engine,
    };
    let mut machine = Machine::with_hierarchy(
        platform.arch,
        platform
            .arch
            .build_hierarchy(PolicyKind::TreePlru, seed)
            .with_inclusion(opts.inclusion),
    );
    let (samples, _) = cfg.run_parties(&mut machine, opts.co_runner, Some(n_samples))?;
    let convention = match variant {
        Variant::SharedMemory | Variant::SharedMemoryThreads => BitConvention::HitIsOne,
        Variant::NoSharedMemory => BitConvention::MissIsOne,
    };
    Ok(decode::percent_ones(
        &samples,
        platform.hit_threshold(),
        convention,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{self, BitConvention};
    use crate::edit_distance::error_rate;

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 2 == 1).collect()
    }

    #[test]
    fn alg1_hyperthreaded_transfers_alternating_bits() {
        let msg = alternating(20);
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg1_default(),
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: msg.clone(),
            seed: 1,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        assert!(run.samples.len() > 100, "receiver must sample densely");
        let bits = decode::bits_by_window(
            &run.samples,
            6_000,
            run.hit_threshold,
            BitConvention::HitIsOne,
        );
        let err = error_rate(&msg, &bits[..msg.len().min(bits.len())]);
        assert!(err < 0.15, "Alg1 HT error rate too high: {err}");
    }

    #[test]
    fn alg2_hyperthreaded_transfers_alternating_bits() {
        let msg = alternating(20);
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg2_default(),
            variant: Variant::NoSharedMemory,
            sharing: Sharing::HyperThreaded,
            message: msg.clone(),
            seed: 2,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        let bits = decode::bits_by_window_ratio(
            &run.samples,
            6_000,
            run.hit_threshold,
            BitConvention::MissIsOne,
            0.25,
        );
        let err = error_rate(&msg, &bits[..msg.len().min(bits.len())]);
        assert!(err < 0.2, "Alg2 HT error rate too high: {err}");
    }

    #[test]
    fn sending_all_zeros_keeps_line0_evicted_alg1() {
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg1_default(),
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: vec![false; 8],
            seed: 3,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        let misses = run
            .samples
            .iter()
            .filter(|s| s.measured > run.hit_threshold)
            .count();
        // m=0: receiver's 9 accesses into the 8-way set evict line 0
        // nearly every iteration (Table I sequential condition).
        assert!(
            misses as f64 / run.samples.len() as f64 > 0.8,
            "expected mostly misses, got {misses}/{}",
            run.samples.len()
        );
    }

    #[test]
    fn sending_all_ones_keeps_line0_hot_alg1() {
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg1_default(),
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: vec![true; 8],
            seed: 4,
            engine: Engine::FastForward,
        }
        .run()
        .unwrap();
        let hits = run
            .samples
            .iter()
            .filter(|s| s.measured <= run.hit_threshold)
            .count();
        assert!(
            hits as f64 / run.samples.len() as f64 > 0.8,
            "expected mostly hits, got {hits}/{}",
            run.samples.len()
        );
    }

    #[test]
    fn invalid_params_surface_as_errors() {
        let mut params = ChannelParams::paper_alg1_default();
        params.d = 0;
        let res = CovertConfig {
            platform: Platform::e5_2690(),
            params,
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: vec![true],
            seed: 0,
            engine: Engine::FastForward,
        }
        .run();
        assert!(res.is_err());
    }

    #[test]
    fn time_sliced_percent_ones_distinguishes_bits() {
        // A scaled-down Fig. 6 point: d=8, Tr=1e8.
        let platform = Platform::e5_2690();
        let params = ChannelParams {
            d: 8,
            target_set: 0,
            ts: 100_000_000,
            tr: 100_000_000,
        };
        let opts = PercentOnesOpts::default();
        let p0 = percent_ones(platform, params, Variant::SharedMemory, false, 60, 5, opts).unwrap();
        let p1 = percent_ones(platform, params, Variant::SharedMemory, true, 60, 5, opts).unwrap();
        assert!(
            p1 > p0 + 0.1,
            "sending 1 must yield more observed 1s (got p0={p0:.2}, p1={p1:.2})"
        );
        assert!(
            p0 < 0.1,
            "sending 0 should read as almost all 0s, got {p0:.2}"
        );
    }
}
