//! Executing scenarios: [`Scenario::run_trial`] and the trial drivers
//! built on it.
//!
//! A trial is a pure function of its seed: `run_trial(seed, engine)`
//! matches the scenario's [`ExperimentKind`] to one private
//! `run_<kind>` function, which builds every simulator object it needs
//! from scratch and returns a deterministic JSON metrics tree. Trials
//! therefore fan out over host cores through [`lru_channel::trials`]
//! with bit-identical results to a sequential sweep, and the numbers
//! are the same whether they end up in a bench table or in
//! `lru-leak … --json` output.

use attacks::encoding_time::{self, encoding_latency};
use attacks::flush_reload::{EvictionMethod, FlushReloadReceiver};
use attacks::miss_rates::{self, MissRateRow, SenderScenario};
use attacks::prime_probe::PrimeProbeReceiver;
use attacks::spectre::{decode_symbols, encode_symbols, symbols_correct, SpectreAttack};
use cache_sim::addr::PhysAddr;
use cache_sim::geometry::CacheGeometry;
use cache_sim::hierarchy::{DualCore, HitLevel};
use cache_sim::plcache::PlDesign;
use cache_sim::prefetcher::Prefetcher;
use cache_sim::profiles::MicroArch;
use cache_sim::replacement::PolicyKind;
use defense::delayed_update;
use defense::detection::detection_study;
use defense::partition_eval::{dawg_partitioned_leak, shared_plru_leak};
use defense::pl_cache_eval::pl_cache_alg2_trace;
use defense::policy_eval::fig9_row;
use defense::randomization::{index_randomization_defeats_eviction, random_fill_leak};
use exec_sim::machine::Machine;
use exec_sim::measure::{rdtscp_single, LatencyProbe};
use exec_sim::sched::{Engine, HyperThreaded, ThreadHandle};
use exec_sim::speculation::SpecMode;
use lru_channel::analysis::Histogram;
use lru_channel::covert::{
    percent_ones, CoRunner, CovertConfig, PercentOnesOpts, Sharing, Variant,
};
use lru_channel::decode::{self, BitConvention};
use lru_channel::edit_distance::error_rate;
use lru_channel::lockstep::{self, BatchSpec, LaneSpec};
use lru_channel::multiset::run_parallel_alg1;
use lru_channel::plru_study::eviction_curve;
use lru_channel::protocol::LruSender;
use lru_channel::setup;
use lru_channel::trials::{
    derive_seed, run_trials_fold_ctrl, run_trials_lockstep, FoldError, RunCtrl,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use workloads::spec_like::Benchmark;

use crate::aggregate::{CollectMetrics, Reducer};
use crate::json::Value;
use crate::spec::{
    DefenseId, ExperimentKind, Inclusion, MessageSource, Named, Scenario, WorkloadId,
};

impl Scenario {
    /// Runs one trial of this scenario on `seed`, scheduling every
    /// simulated thread on `engine`, and returns its metrics tree.
    ///
    /// This is the one per-trial dispatch: it matches the scenario's
    /// [`ExperimentKind`] to the function that runs that experiment.
    /// A trial derives everything from `seed`, so it is reproducible
    /// and safe to run on any worker. Both engines produce identical
    /// bytes; the run paths use [`Engine::FastForward`], and
    /// differential tests call this with each engine.
    pub fn run_trial(&self, seed: u64, engine: Engine) -> Value {
        match self.kind {
            ExperimentKind::Covert => run_covert(self, seed, engine),
            ExperimentKind::PercentOnes { .. } => run_percent_ones(self, seed, engine),
            ExperimentKind::PrimeProbe { .. } => run_prime_probe(self, seed, engine),
            ExperimentKind::FlushReload { .. } => run_flush_reload(self, seed, engine),
            ExperimentKind::Spectre { .. } => run_spectre(self, seed, engine),
            ExperimentKind::DefenseEval { .. } => run_defense_eval(self, seed, engine),
            ExperimentKind::PlruEviction { .. } => run_plru_eviction(self, seed, engine),
            ExperimentKind::LatencyCheck => run_latency_check(self, seed, engine),
            ExperimentKind::PlatformSpec => run_platform_spec(self, seed, engine),
            ExperimentKind::EncodingLatency { .. } => run_encoding_latency(self, seed, engine),
            ExperimentKind::SenderMissRates { .. } => run_sender_miss_rates(self, seed, engine),
            ExperimentKind::SpectreMissRates { .. } => run_spectre_miss_rates(self, seed, engine),
            ExperimentKind::ProbeHistogram { .. } => run_probe_histogram(self, seed, engine),
            ExperimentKind::PolicyPerf { .. } => run_policy_perf(self, seed, engine),
            ExperimentKind::MultiSet { .. } => run_multi_set(self, seed, engine),
            ExperimentKind::L2Channel { .. } => run_l2_channel(self, seed, engine),
            ExperimentKind::InclusionVictim { .. } => run_inclusion_victim(self, seed, engine),
        }
    }

    /// Runs the scenario's `trials` independent repetitions (seeded
    /// by [`derive_seed`] when `trials > 1`, the master seed
    /// directly when `trials == 1`) and returns the metrics — a
    /// single tree for one trial, an array for several.
    ///
    /// This is [`Scenario::run_ctrl`] under a default [`RunCtrl`];
    /// for large `trials`, prefer [`Scenario::run_reduced`] with a
    /// constant-memory [`Reducer`].
    ///
    /// # Panics
    ///
    /// Panics if a trial chunk panics on both its first run and its
    /// retry.
    pub fn run(&self) -> Value {
        self.run_ctrl(&RunCtrl::new())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Streams the scenario's trials through `reducer`. The result
    /// is bit-identical for any worker count, and
    /// the driver keeps only `O(workers)` live accumulators plus
    /// `O(workers × chunk)` in-flight trial results — so with a
    /// constant-size accumulator
    /// ([`ScalarStats`](crate::aggregate::ScalarStats),
    /// [`KeyHistogram`](crate::aggregate::KeyHistogram)) total memory
    /// is independent of the trial count. The bound covers the
    /// *number* of accumulators, not their size: a reducer whose
    /// accumulator grows per trial ([`CollectMetrics`]) still ends up
    /// `O(trials)`.
    ///
    /// `ctrl` supplies the worker count, the cancel token (polled at
    /// every chunk boundary) and the per-trial progress callback.
    /// Routing is a function of the scenario alone: scenarios with a
    /// [`Scenario::lockstep_spec`] run their trials in lockstep
    /// batches ([`lockstep::run_batch`]: one address layout per
    /// batch, one-set lanes), every other scenario takes the scalar
    /// per-trial path. The produced bytes equal the buffered
    /// per-trial oracle's either way (pinned by
    /// `tests/lockstep_equivalence.rs` and
    /// `tests/streaming_equivalence.rs`); only the wall clock differs.
    ///
    /// # Errors
    ///
    /// [`FoldError::Cancelled`] when the token fires before the sweep
    /// completes; [`FoldError::ChunkPanicked`] when a trial chunk
    /// panics twice (original run + deterministic retry).
    pub fn run_reduced<R: Reducer>(&self, reducer: &R, ctrl: &RunCtrl) -> Result<Value, FoldError> {
        if let Ok(spec) = self.lockstep_spec() {
            return self.run_reduced_lockstep(reducer, ctrl, &spec);
        }
        let acc = run_trials_fold_ctrl(
            ctrl,
            self.trials.max(1),
            |i| self.run_trial(self.trial_seed(i), Engine::FastForward),
            || reducer.init(),
            |acc, i, metrics| reducer.fold(acc, i, metrics),
            |acc, other| reducer.merge(acc, other),
        )?;
        Ok(reducer.finish(acc))
    }

    /// Seed of trial `i`: the master seed itself for a single-trial
    /// scenario, a [`derive_seed`] stream otherwise.
    fn trial_seed(&self, i: usize) -> u64 {
        if self.trials <= 1 {
            self.seed
        } else {
            derive_seed(self.seed, i as u64)
        }
    }

    /// The lockstep fold: one [`lockstep::run_batch`] call per
    /// scheduler chunk, all lanes of the chunk stepping together. The
    /// chunk layout, fold order and merge order are exactly those of
    /// the scalar driver, and each lane's `(samples, hit_threshold,
    /// rate_bps)` is bit-identical to the scalar interpreter's, so the
    /// reducer sees byte-identical input in byte-identical order.
    fn run_reduced_lockstep<R: Reducer>(
        &self,
        reducer: &R,
        ctrl: &RunCtrl,
        spec: &BatchSpec,
    ) -> Result<Value, FoldError> {
        let acc = run_trials_lockstep(
            ctrl,
            self.trials.max(1),
            |lo, hi| {
                let lanes: Vec<LaneSpec> = (lo..hi)
                    .map(|i| {
                        let seed = self.trial_seed(i);
                        LaneSpec {
                            message: self.message.bits(seed),
                            seed,
                        }
                    })
                    .collect();
                let runs = lockstep::run_batch(spec, &lanes).expect("validated at build");
                runs.into_iter()
                    .enumerate()
                    .map(|(k, r)| {
                        covert_metrics(
                            self,
                            self.trial_seed(lo + k),
                            &r.samples,
                            r.hit_threshold,
                            r.rate_bps,
                        )
                    })
                    .collect()
            },
            || reducer.init(),
            |acc, i, metrics| reducer.fold(acc, i, metrics),
            |acc, other| reducer.merge(acc, other),
        )?;
        Ok(reducer.finish(acc))
    }

    /// [`Scenario::run`] under an explicit [`RunCtrl`]: the same
    /// bytes (including the single-trial unwrapping), but cancellable
    /// and panic-isolated. This is the per-cell entry point of the
    /// [`crate::engine`] job layer, and what makes every grid cell's
    /// outcome safely cacheable — a faulted-then-retried cell
    /// reproduces the fault-free bytes exactly.
    ///
    /// # Errors
    ///
    /// See [`Scenario::run_reduced`].
    pub fn run_ctrl(&self, ctrl: &RunCtrl) -> Result<Value, FoldError> {
        let v = self.run_reduced(&CollectMetrics, ctrl)?;
        if self.trials <= 1 {
            // A single trial yields its bare metrics tree; unwrap the
            // one-element array the compatibility reducer builds.
            if let Value::Arr(mut items) = v {
                debug_assert_eq!(items.len(), 1);
                return Ok(items.remove(0));
            }
            unreachable!("CollectMetrics finishes with an array");
        }
        Ok(v)
    }

    /// The [`BatchSpec`] this scenario would run in lockstep, or the
    /// reason it cannot. This is the single eligibility oracle: the
    /// run drivers route by it, and the server and perfbench count
    /// lockstep cells with it.
    ///
    /// # Errors
    ///
    /// The first failing [`LockstepIneligible`] condition, checked in
    /// declaration order.
    pub fn lockstep_spec(&self) -> Result<BatchSpec, LockstepIneligible> {
        if !matches!(self.kind, ExperimentKind::Covert) {
            return Err(LockstepIneligible::Kind);
        }
        if self.sharing != Sharing::HyperThreaded {
            return Err(LockstepIneligible::Sharing);
        }
        if !self.noise.is_none() {
            return Err(LockstepIneligible::Noise);
        }
        if self.hierarchy != Inclusion::Inclusive {
            return Err(LockstepIneligible::Hierarchy(self.hierarchy));
        }
        let platform = self.platform.platform();
        if platform.arch.has_way_predictor {
            return Err(LockstepIneligible::WayPredictor);
        }
        Ok(BatchSpec {
            platform,
            policy: self.policy,
            params: self.params,
            variant: self.variant,
        })
    }
}

/// Why a scenario cannot run on the lockstep path (see
/// [`Scenario::lockstep_spec`]). Each variant names the first
/// condition that failed; [`std::fmt::Display`] renders it as a
/// structured message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockstepIneligible {
    /// Only end-to-end covert runs ([`ExperimentKind::Covert`]) have
    /// a batched interpreter.
    Kind,
    /// Time-sliced sharing interleaves scheduler quanta the batch
    /// world does not model.
    Sharing,
    /// An attached noise model spawns a third thread whose program
    /// needs machine-level allocation mid-wire.
    Noise,
    /// A non-default hierarchy backend is selected. The batch world
    /// interprets the single default L1; swapped inclusion models
    /// (and in particular back-invalidation, which also forfeits the
    /// quantum fast-forward capability bit) have no batched
    /// interpreter. Carries the backend so the rejection can name it.
    Hierarchy(Inclusion),
    /// The AMD µtag way predictor keys on per-process virtual
    /// addresses, which the batch world deliberately erases.
    WayPredictor,
}

impl std::fmt::Display for LockstepIneligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let why = match self {
            LockstepIneligible::Kind => {
                "only covert experiments have a batched interpreter".to_string()
            }
            LockstepIneligible::Sharing => {
                "requires hyper-threaded sharing (time-sliced quanta are not batched)".to_string()
            }
            LockstepIneligible::Noise => {
                "noise models spawn a third thread the batch world cannot wire".to_string()
            }
            LockstepIneligible::Hierarchy(h) => format!(
                "the {} hierarchy backend has no batched interpreter",
                h.name()
            ),
            LockstepIneligible::WayPredictor => {
                "the platform's way predictor keys on virtual addresses the batch world erases"
                    .to_string()
            }
        };
        write!(f, "scenario is not lockstep-eligible: {why}")
    }
}

fn bitstring(bits: &[bool], cap: usize) -> String {
    bits.iter()
        .take(cap)
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// Decode convention + window ratio for a protocol variant.
fn convention_for(variant: Variant) -> (BitConvention, f64) {
    match variant {
        Variant::NoSharedMemory => (BitConvention::MissIsOne, 0.25),
        _ => (BitConvention::HitIsOne, 0.5),
    }
}

/// An end-to-end covert run: transmit, decode, score.
fn run_covert(s: &Scenario, seed: u64, engine: Engine) -> Value {
    let platform = s.platform.platform();
    let message = s.message.bits(seed);
    let cfg = CovertConfig {
        platform,
        params: s.params,
        variant: s.variant,
        sharing: s.sharing,
        message,
        seed,
        engine,
    };
    let mut machine = Machine::with_hierarchy(
        platform.arch,
        platform
            .arch
            .build_hierarchy(s.policy, seed)
            .with_inclusion(s.hierarchy),
    );
    let run = cfg
        .run_on_with_noise(&mut machine, s.noise)
        .expect("validated at build");
    covert_metrics(s, seed, &run.samples, run.hit_threshold, run.rate_bps)
}

/// Decode + score + metrics of one covert trial, shared by the scalar
/// and lockstep paths — both feed it the receiver's sample trace and
/// the platform constants, so the produced metrics (and their JSON
/// bytes) are identical whenever the traces are.
fn covert_metrics(
    s: &Scenario,
    seed: u64,
    samples: &[lru_channel::Sample],
    hit_threshold: u32,
    rate_bps: f64,
) -> Value {
    let platform = s.platform.platform();
    let base = s.message.base_bits(seed);
    let message = s.message.bits(seed);
    let (conv, ratio) = convention_for(s.variant);
    let coarse = platform.tsc.granularity > 1;
    let (bits, avg) = if coarse {
        // The coarse AMD counter cannot be thresholded per
        // sample; average over one bit period (§VI-A, Fig. 7).
        let period = ((s.params.ts / s.params.tr.max(1)) as usize).max(3);
        let avg = decode::moving_average(samples, period);
        (decode::bits_from_moving_average(&avg, period, conv), avg)
    } else {
        (
            decode::bits_by_window_ratio(samples, s.params.ts, hit_threshold, conv, ratio),
            Vec::new(),
        )
    };

    // Error metric: mean per-repetition edit distance against
    // the base string (Fig. 4), which for one repetition is the
    // plain edit-distance error rate.
    let repeats = message.len() / base.len().max(1);
    let mut total = 0.0;
    for r in 0..repeats.max(1) {
        let lo = r * base.len();
        let hi = ((r + 1) * base.len()).min(bits.len());
        if lo >= hi {
            total += 1.0;
            continue;
        }
        total += error_rate(&base, &bits[lo..hi]);
    }
    let err = total / repeats.max(1) as f64;

    // Traces are for the trace-style artifacts (Figs. 5/7/14);
    // sweep-style grids with long messages (Fig. 4) skip them to
    // keep --json output compact.
    let trace: Vec<Value> = if message.len() <= 64 {
        samples
            .iter()
            .take(200)
            .map(|x| Value::from(x.measured))
            .collect()
    } else {
        Vec::new()
    };
    let mut metrics = Value::obj()
        .with("samples", samples.len())
        .with("hit_threshold", hit_threshold)
        .with("rate_bps", rate_bps)
        .with("error_rate", err)
        .with("effective_bps", rate_bps * (1.0 - err))
        .with("sent", bitstring(&message, 512))
        .with("decoded", bitstring(&bits, 512))
        .with("trace", Value::Arr(trace));
    if coarse {
        let avg_trace: Vec<Value> = avg.iter().take(160).map(|&v| Value::from(v)).collect();
        metrics = metrics.with("avg_trace", Value::Arr(avg_trace));
    }
    metrics
}

/// The time-sliced constant-bit fraction (Figs. 6/8/15).
fn run_percent_ones(s: &Scenario, seed: u64, engine: Engine) -> Value {
    let ExperimentKind::PercentOnes { samples } = s.kind else {
        unreachable!("kind checked at build");
    };
    let MessageSource::Constant { bit, .. } = s.message else {
        unreachable!("message checked at build");
    };
    // The benign co-runner, a noise model and a non-default
    // hierarchy are mutually exclusive by the quiet-machine
    // validation in `Scenario::build`.
    let co_runner = if s.workload == WorkloadId::BenignNoise {
        CoRunner::Benign
    } else {
        CoRunner::Model(s.noise)
    };
    let opts = PercentOnesOpts {
        inclusion: s.hierarchy,
        co_runner,
        engine,
    };
    let fraction = percent_ones(
        s.platform.platform(),
        s.params,
        s.variant,
        bit,
        samples,
        seed,
        opts,
    )
    .expect("validated at build");
    Value::obj()
        .with("bit", bit)
        .with("samples", samples)
        .with("fraction", fraction)
}

/// The shared L2 model the two cross-core experiments run on: a
/// 2-way LRU L2 behind the platform's private L1 geometry. Two ways
/// keep the replacement state trivially steerable (one touch decides
/// the victim), which is what makes the LRU readout protocol exact.
fn cross_core_l2() -> CacheGeometry {
    CacheGeometry::new(64, 512, 2).expect("static L2 geometry is valid")
}

/// The cross-core LRU channel through the shared L2 (`l2-channel`):
/// two cores with private L1s over one shared 2-way LRU L2. Per bit,
/// the sender parks a line in the target L2 set and the receiver
/// parks its own; the sender encodes a `1` by re-touching its line
/// (after a modeled self-eviction from its private L1 — an L2 *hit*
/// that flips the set's LRU order), so the receiver's subsequent
/// fill evicts the receiver's parked line instead of the sender's.
/// Only a back-invalidating hierarchy propagates that L2 eviction
/// into the receiver's private L1 where the reload can time it, so
/// the artifact grid contrasts hierarchy backends: error_rate ~0
/// under `back-invalidate`, and the sent fraction of ones under the
/// silent `inclusive` / `non-inclusive` backends (the receiver then
/// always reads 0).
fn run_l2_channel(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::L2Channel { samples } = s.kind else {
        unreachable!("kind checked at build");
    };
    let platform = s.platform.platform();
    let l2_geom = cross_core_l2();
    let mut cores = DualCore::new(
        platform.arch.l1d,
        s.policy,
        l2_geom,
        PolicyKind::Lru,
        platform.arch.latencies,
        s.hierarchy,
        seed,
    );
    let message = s.message.bits(seed);
    let sent: Vec<bool> = (0..samples).map(|i| message[i % message.len()]).collect();
    // Lines k=0,1,2 of L2 set `t` sit `set_stride` apart: same L2
    // set, distinct tags, and all in L1 set `t % 64` (the 8-way
    // L1 holds the receiver's two without evictions).
    let stride = l2_geom.set_stride();
    let mut decoded = Vec::with_capacity(samples);
    for (i, &bit) in sent.iter().enumerate() {
        let set = (i as u64) % l2_geom.num_sets();
        let sender_line = PhysAddr::new(set * 64);
        let parked = PhysAddr::new(set * 64 + stride);
        let filler = PhysAddr::new(set * 64 + 2 * stride);
        cores.clear();
        cores.access(1, sender_line); // sender installs its line
        cores.access(0, parked); // L2 LRU order: sender_line, then parked
        if bit {
            // Encode 1: self-evict from the private L1, reload —
            // the L2 hit promotes sender_line and demotes the
            // receiver's parked line to LRU victim.
            cores.l1_mut(1).flush_line(sender_line);
            cores.access(1, sender_line);
        }
        cores.access(0, filler); // the fill evicts the set's LRU line
        let reload = cores.access(0, parked);
        decoded.push(reload.level != HitLevel::L1);
    }
    let errors = sent.iter().zip(&decoded).filter(|(a, b)| a != b).count();
    Value::obj()
        .with("samples", samples)
        .with("hierarchy", s.hierarchy.name())
        .with("error_rate", errors as f64 / samples.max(1) as f64)
        .with("sent", bitstring(&sent, 512))
        .with("decoded", bitstring(&decoded, 512))
}

/// The inclusion-victim probe (`inclusion-victim`): the receiver
/// parks one line, the sender fills the line's 2-way shared-L2 set
/// from the other core, and the receiver reloads. Back-invalidation
/// turns the sender's L2 eviction into a flush of the receiver's
/// private L1 copy — the classic inclusion-victim interference — so
/// `signal_rate` (the fraction of trials whose reload missed L1) is
/// 1 under `back-invalidate` and 0 under the silent backends.
fn run_inclusion_victim(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::InclusionVictim { trials } = s.kind else {
        unreachable!("kind checked at build");
    };
    let platform = s.platform.platform();
    let l2_geom = cross_core_l2();
    let mut cores = DualCore::new(
        platform.arch.l1d,
        s.policy,
        l2_geom,
        PolicyKind::Lru,
        platform.arch.latencies,
        s.hierarchy,
        seed,
    );
    let stride = l2_geom.set_stride();
    let mut signals = 0usize;
    let mut reload_cycles = 0u64;
    for t in 0..trials {
        let set = (t as u64) % l2_geom.num_sets();
        let victim = PhysAddr::new(set * 64);
        cores.clear();
        cores.access(0, victim); // receiver parks its line
        cores.access(1, PhysAddr::new(set * 64 + stride));
        cores.access(1, PhysAddr::new(set * 64 + 2 * stride));
        let reload = cores.access(0, victim);
        if reload.level != HitLevel::L1 {
            signals += 1;
        }
        reload_cycles += u64::from(reload.cycles);
    }
    Value::obj()
        .with("trials", trials)
        .with("hierarchy", s.hierarchy.name())
        .with("signal_rate", signals as f64 / trials.max(1) as f64)
        .with(
            "reload_cycles_mean",
            reload_cycles as f64 / trials.max(1) as f64,
        )
}

/// The Prime+Probe baseline: receiver primes/probes the whole target
/// set while the LRU-style sender transmits.
fn run_prime_probe(s: &Scenario, seed: u64, engine: Engine) -> Value {
    let ExperimentKind::PrimeProbe { samples } = s.kind else {
        unreachable!("kind checked at build");
    };
    let platform = s.platform.platform();
    let message = s.message.bits(seed);
    let mut machine = Machine::new(platform.arch, s.policy, seed);
    let sender_pid = machine.create_process();
    let receiver_pid = machine.create_process();
    let endpoints = setup::alg2(&mut machine, sender_pid, receiver_pid, s.params.target_set);
    let ways = machine.hierarchy().l1().geometry().ways();
    let prime_lines: Vec<_> = endpoints
        .receiver_lines
        .iter()
        .copied()
        .take(ways)
        .collect();
    let mut sender = LruSender::new(endpoints.sender_line, message.clone(), s.params.ts);
    let mut receiver = PrimeProbeReceiver::new(prime_lines, s.params.tr).with_max_samples(samples);
    let probe = LatencyProbe::new(&mut machine, receiver_pid, platform.tsc, 63);
    let limit = (message.len() as u64 + 1) * s.params.ts;
    HyperThreaded::new(seed ^ 0x5eed).with_engine(engine).run(
        &mut machine,
        &mut [
            ThreadHandle::new(sender_pid, &mut sender),
            ThreadHandle::with_probe(receiver_pid, &mut receiver, probe),
        ],
        limit,
    );

    // A sweep that missed anywhere means someone displaced a
    // primed line: windows where that keeps happening carry a 1.
    let sweeps = receiver.into_samples();
    let windows = message.len();
    let mut hits = vec![0u32; windows];
    let mut totals = vec![0u32; windows];
    for sw in &sweeps {
        let w = (sw.at / s.params.ts) as usize;
        if w < windows {
            totals[w] += 1;
            if sw.misses > 0 {
                hits[w] += 1;
            }
        }
    }
    let bits: Vec<bool> = (0..windows)
        .map(|w| totals[w] > 0 && f64::from(hits[w]) / f64::from(totals[w]) >= 0.25)
        .collect();
    let err = error_rate(&message, &bits);
    let missy = sweeps.iter().filter(|x| x.misses > 0).count();
    Value::obj()
        .with("sweeps", sweeps.len())
        .with("timed_loads_per_observation", ways)
        .with(
            "miss_sweep_fraction",
            missy as f64 / sweeps.len().max(1) as f64,
        )
        .with("error_rate", err)
        .with("sent", bitstring(&message, 512))
        .with("decoded", bitstring(&bits, 512))
}

/// The Flush+Reload baseline, `clflush` or L1-eviction-set flavor.
fn run_flush_reload(s: &Scenario, seed: u64, engine: Engine) -> Value {
    let ExperimentKind::FlushReload { samples, to_mem } = s.kind else {
        unreachable!("kind checked at build");
    };
    let platform = s.platform.platform();
    let message = s.message.bits(seed);
    let mut machine = Machine::new(platform.arch, s.policy, seed);
    let sender_pid = machine.create_process();
    let receiver_pid = machine.create_process();
    // Flush+Reload needs the shared line of Algorithm 1's setup.
    let endpoints = setup::alg1(&mut machine, sender_pid, receiver_pid, s.params.target_set);
    let eviction = if to_mem {
        EvictionMethod::Clflush
    } else {
        EvictionMethod::L1EvictionSet(endpoints.receiver_lines[1..9].to_vec())
    };
    let mut sender = LruSender::new(endpoints.sender_line, message.clone(), s.params.ts);
    let mut receiver = FlushReloadReceiver::new(endpoints.receiver_lines[0], eviction, s.params.tr)
        .with_max_samples(samples);
    let probe = LatencyProbe::new(&mut machine, receiver_pid, platform.tsc, 63);
    let limit = (message.len() as u64 + 1) * s.params.ts;
    HyperThreaded::new(seed ^ 0x5eed).with_engine(engine).run(
        &mut machine,
        &mut [
            ThreadHandle::new(sender_pid, &mut sender),
            ThreadHandle::with_probe(receiver_pid, &mut receiver, probe),
        ],
        limit,
    );
    let observations = receiver.into_samples();
    let threshold = platform.hit_threshold();
    let bits = decode::bits_by_window(
        &observations,
        s.params.ts,
        threshold,
        BitConvention::HitIsOne,
    );
    let err = error_rate(&message, &bits[..message.len().min(bits.len())]);
    Value::obj()
        .with("samples", observations.len())
        .with("to_mem", to_mem)
        .with("error_rate", err)
        .with("sent", bitstring(&message, 512))
        .with("decoded", bitstring(&bits, 512))
}

/// Spectre-v1 secret recovery through a disclosure channel (§VIII,
/// Appendix C).
fn run_spectre(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::Spectre {
        channel,
        rounds,
        prefetcher,
    } = s.kind
    else {
        unreachable!("kind checked at build");
    };
    let secret = s.message.text().expect("checked at build");
    let platform = s.platform.platform();
    let mut hierarchy = platform.arch.build_hierarchy(s.policy, seed);
    if prefetcher {
        hierarchy = hierarchy.with_prefetcher(Prefetcher::next_line());
    }
    let mut machine = Machine::with_hierarchy(platform.arch, hierarchy);
    let attack = SpectreAttack {
        rounds,
        seed,
        ..SpectreAttack::default()
    };
    let (_, got) = attack.recover_secret(
        &mut machine,
        platform,
        channel,
        &encode_symbols(secret),
        true,
    );
    let text = decode_symbols(&got);
    let accuracy = symbols_correct(secret, &text) as f64 / secret.len().max(1) as f64;
    Value::obj()
        .with("channel", channel.name())
        .with("rounds", rounds)
        .with("prefetcher", prefetcher)
        .with("recovered", text)
        .with("accuracy", accuracy)
}

fn leak_metrics(label: &str, flip: f64) -> Value {
    Value::obj()
        .with("defense", label)
        .with("victim_flip_rate", flip)
}

/// Evaluates the scenario's `defense` axis (§IX).
fn run_defense_eval(s: &Scenario, seed: u64, engine: Engine) -> Value {
    let ExperimentKind::DefenseEval { trials } = s.kind else {
        unreachable!("kind checked at build");
    };
    let metrics = match s.defense {
        DefenseId::PlCacheOriginal | DefenseId::PlCacheFixed => {
            let design = if s.defense == DefenseId::PlCacheOriginal {
                PlDesign::Original
            } else {
                PlDesign::Fixed
            };
            let bits: Vec<bool> = (0..trials).map(|i| i % 2 == 1).collect();
            let run = pl_cache_alg2_trace(design, &bits, s.params.d, seed);
            let p = |bit: bool| {
                let of: Vec<_> = run.trace.iter().filter(|t| t.bit == bit).collect();
                of.iter().filter(|t| t.hit).count() as f64 / of.len().max(1) as f64
            };
            let trace: Vec<Value> = run
                .trace
                .iter()
                .take(160)
                .map(|t| Value::from(t.latency))
                .collect();
            Value::obj()
                .with("defense", s.defense.name())
                .with("iterations", trials)
                .with("trace", Value::Arr(trace))
                .with("p_hit_given_0", p(false))
                .with("p_hit_given_1", p(true))
                .with("distinguishability", run.distinguishability())
        }
        DefenseId::SharedPartition => leak_metrics(
            s.defense.name(),
            shared_plru_leak(trials, seed).victim_flip_rate,
        ),
        DefenseId::DawgPartition => leak_metrics(
            s.defense.name(),
            dawg_partitioned_leak(trials, seed).victim_flip_rate,
        ),
        DefenseId::RandomFill => {
            let r = random_fill_leak(trials, seed);
            Value::obj()
                .with("defense", s.defense.name())
                .with("hit_channel_flip_rate", r.hit_channel_flip_rate)
                .with("miss_channel_fill_rate", r.miss_channel_fill_rate)
        }
        DefenseId::IndexRandomization => {
            let r = index_randomization_defeats_eviction(trials, seed);
            Value::obj()
                .with("defense", s.defense.name())
                .with("baseline_eviction_rate", r.baseline_eviction_rate)
                .with("eviction_rate", r.eviction_rate)
        }
        DefenseId::InvisibleSpeculation => {
            let secret = s.message.text().expect("checked at build");
            let rows = delayed_update::ablation(secret, seed);
            let rows_json: Vec<Value> = rows
                .iter()
                .map(|r| {
                    Value::obj()
                        .with("channel", format!("{:?}", r.channel))
                        .with(
                            "mode",
                            if r.mode == SpecMode::Baseline {
                                "baseline"
                            } else {
                                "invisible"
                            },
                        )
                        .with("accuracy", r.accuracy)
                })
                .collect();
            Value::obj()
                .with("defense", s.defense.name())
                .with("rows", Value::Arr(rows_json))
        }
        DefenseId::MissRateDetector => {
            let verdicts = detection_study(s.platform.platform(), trials, seed, engine);
            let rows: Vec<Value> = verdicts
                .iter()
                .map(|v| {
                    Value::obj()
                        .with("label", v.label)
                        .with("flagged", v.flagged)
                        .with("l2_miss_rate", v.row.rates.l2)
                        .with("llc_miss_rate", v.row.rates.llc)
                })
                .collect();
            Value::obj()
                .with("defense", s.defense.name())
                .with("rows", Value::Arr(rows))
        }
        DefenseId::None => unreachable!("checked at build"),
    };
    metrics
}

/// The Table I eviction-probability study.
fn run_plru_eviction(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::PlruEviction {
        sequence,
        init,
        iterations,
        trials,
    } = s.kind
    else {
        unreachable!("kind checked at build");
    };
    let curve = eviction_curve(s.policy, sequence, init, iterations, trials, seed);
    let probs: Vec<Value> = curve
        .probabilities
        .iter()
        .map(|&p| Value::from(p))
        .collect();
    Value::obj()
        .with("policy", s.policy.name())
        .with("probabilities", Value::Arr(probs))
        .with("steady_state", curve.steady_state())
}

/// Table II: model vs measured L1/L2 latencies.
fn run_latency_check(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let platform = s.platform.platform();
    let mut m = Machine::new(platform.arch, s.policy, seed);
    let pid = m.create_process();
    let va = m.alloc_pages(pid, 1);
    m.access(pid, va); // now in L1
    let l1_meas = m.access(pid, va).cycles;
    // Evict from L1 only: fill the set with fresh lines.
    for _ in 0..m.hierarchy().l1().geometry().ways() {
        let page = m.alloc_pages(pid, 1);
        m.access(pid, page);
    }
    let out = m.access(pid, va);
    assert_eq!(out.level, HitLevel::L2, "eviction must stop at L2");
    Value::obj()
        .with("model", platform.arch.model)
        .with("l1_model", platform.arch.latencies.l1)
        .with("l2_model", platform.arch.latencies.l2)
        .with("l1_measured", l1_meas)
        .with("l2_measured", out.cycles)
}

/// Table III: the simulated platform's configuration.
fn run_platform_spec(s: &Scenario, _seed: u64, _engine: Engine) -> Value {
    let a = s.platform.platform().arch;
    let tsc = s.platform.platform().tsc;
    Value::obj()
        .with("model", a.model)
        .with("uarch", a.name)
        .with("freq_ghz", a.freq_ghz)
        .with("l1d_kb", a.l1d.size_bytes() / 1024)
        .with("ways", a.l1d.ways())
        .with("sets", a.l1d.num_sets())
        .with("way_predictor", a.has_way_predictor)
        .with("tsc_granularity", tsc.granularity)
}

/// Table V: encode latency of one channel.
fn run_encoding_latency(s: &Scenario, _seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::EncodingLatency { channel } = s.kind else {
        unreachable!("kind checked at build");
    };
    Value::obj()
        .with("label", encoding_time::row_label(channel))
        .with("cycles", encoding_latency(s.platform.platform(), channel))
}

fn miss_rate_row_metrics(row: &MissRateRow) -> Value {
    Value::obj()
        .with("label", row.label)
        .with("l1d_miss_rate", row.rates.l1d)
        .with("l2_miss_rate", row.rates.l2)
        .with("llc_miss_rate", row.rates.llc)
        .with("l1d_accesses", row.counters.l1d_accesses)
        .with("l2_accesses", row.counters.l2_accesses)
        .with("llc_accesses", row.counters.llc_accesses)
}

/// Table VI: sender-process miss rates in one co-run scenario.
fn run_sender_miss_rates(s: &Scenario, seed: u64, engine: Engine) -> Value {
    let ExperimentKind::SenderMissRates { sender, bits } = s.kind else {
        unreachable!("kind checked at build");
    };
    let row = miss_rates::sender_miss_rates(
        s.platform.platform(),
        SenderScenario::ALL[sender],
        bits,
        seed,
        engine,
    );
    miss_rate_row_metrics(&row)
}

/// Table VII: whole-attack miss rates through one channel.
fn run_spectre_miss_rates(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::SpectreMissRates { channel } = s.kind else {
        unreachable!("kind checked at build");
    };
    let row = miss_rates::spectre_miss_rates(
        s.platform.platform(),
        channel,
        s.message.text().expect("checked at build"),
        seed,
    );
    miss_rate_row_metrics(&row)
}

fn histogram_rows(h: &Histogram) -> Value {
    Value::Arr(
        h.rows()
            .into_iter()
            .map(|(v, f)| Value::Arr(vec![Value::from(v), Value::from(f)]))
            .collect(),
    )
}

/// Figs. 3/13: L1-hit vs L1-miss readout histograms.
fn run_probe_histogram(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::ProbeHistogram {
        samples,
        single_load,
    } = s.kind
    else {
        unreachable!("kind checked at build");
    };
    let platform = s.platform.platform();
    let mut m = Machine::new(platform.arch, s.policy, seed);
    let pid = m.create_process();
    let mut rng = SmallRng::seed_from_u64(seed);
    let probe = if single_load {
        None
    } else {
        Some(LatencyProbe::new(&mut m, pid, platform.tsc, 63))
    };

    // L1-resident target in the target set; an eviction gang for
    // the misses.
    let target = m.alloc_pages(pid, 1);
    let ways = m.hierarchy().l1().geometry().ways();
    let gang: Vec<_> = (0..ways).map(|_| m.alloc_pages(pid, 1)).collect();
    let mut hits = Histogram::new();
    let mut misses = Histogram::new();
    for i in 0..samples {
        if i % 2 == 0 {
            m.access(pid, target); // ensure L1 hit
            let measured = match &probe {
                Some(p) => p.measure(&mut m, pid, target, &mut rng).measured,
                None => rdtscp_single(&mut m, pid, target, &platform.tsc, &mut rng).measured,
            };
            hits.add(measured);
        } else {
            for &g in &gang {
                m.access(pid, g); // evict target to L2
            }
            let measured = match &probe {
                Some(p) => {
                    p.warm(&mut m, pid);
                    p.measure(&mut m, pid, target, &mut rng).measured
                }
                None => rdtscp_single(&mut m, pid, target, &platform.tsc, &mut rng).measured,
            };
            misses.add(measured);
        }
    }
    Value::obj()
        .with("single_load", single_load)
        .with("hit_rows", histogram_rows(&hits))
        .with("miss_rows", histogram_rows(&misses))
        .with("hit_mean", hits.mean())
        .with("miss_mean", misses.mean())
        .with("overlap", hits.overlap(&misses))
        .with("threshold", platform.hit_threshold())
}

/// Fig. 9: one benchmark under the Tree-PLRU / FIFO / Random family.
fn run_policy_perf(s: &Scenario, seed: u64, _engine: Engine) -> Value {
    let ExperimentKind::PolicyPerf { accesses } = s.kind else {
        unreachable!("kind checked at build");
    };
    let WorkloadId::Benchmark(name) = &s.workload else {
        unreachable!("workload checked at build");
    };
    let bench = Benchmark::by_name(name).expect("checked at build");
    let arch = MicroArch::gem5_fig9();
    let row = fig9_row(bench, &arch, accesses, seed);
    let floats = |xs: [f64; 3]| Value::Arr(xs.iter().map(|&x| Value::from(x)).collect());
    Value::obj()
        .with("benchmark", row.name)
        .with(
            "policies",
            Value::Arr(
                PolicyKind::FIG9
                    .iter()
                    .map(|&p| Value::from(p.name()))
                    .collect(),
            ),
        )
        .with(
            "l1d_miss_rates",
            floats([
                row.results[0].l1d_miss_rate,
                row.results[1].l1d_miss_rate,
                row.results[2].l1d_miss_rate,
            ]),
        )
        .with(
            "cpi",
            floats([row.results[0].cpi, row.results[1].cpi, row.results[2].cpi]),
        )
        .with("normalized_miss_rates", floats(row.normalized_miss_rates()))
        .with("normalized_cpi", floats(row.normalized_cpi()))
}

/// The §IV multi-set parallel channel.
fn run_multi_set(s: &Scenario, seed: u64, engine: Engine) -> Value {
    let ExperimentKind::MultiSet { sets, frames } = s.kind else {
        unreachable!("kind checked at build");
    };
    let platform = s.platform.platform();
    let target_sets: Vec<usize> = (0..sets).map(|i| i * 3).collect();
    // Text payloads ride one byte per frame, bit i on set i
    // (build() guarantees sets == 8 for text); otherwise send
    // seed-derived random frames.
    let frame_bits: Vec<Vec<bool>> = match &s.message {
        MessageSource::Text(payload) => payload
            .bytes()
            .map(|b| (0..8).map(|i| (b >> (7 - i)) & 1 == 1).collect())
            .collect(),
        _ => {
            use rand::Rng;
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..frames)
                .map(|_| (0..sets).map(|_| rng.gen_bool(0.5)).collect())
                .collect()
        }
    };
    let run = run_parallel_alg1(
        platform,
        &target_sets,
        s.params.d,
        s.params.ts,
        s.params.tr,
        frame_bits.clone(),
        seed,
        engine,
    )
    .expect("validated at build");
    let decoded = run.decode_frames(sets, s.params.ts, frame_bits.len());
    let total = frame_bits.len() * sets;
    let correct: usize = frame_bits
        .iter()
        .zip(&decoded)
        .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x == y).count())
        .sum();
    let mut metrics = Value::obj()
        .with("sets", sets)
        .with("frames", frame_bits.len())
        .with("samples", run.samples.len())
        .with("rate_bps", run.rate_bps)
        .with("accuracy", correct as f64 / total.max(1) as f64);
    if s.message.text().is_some() {
        let bytes: Vec<u8> = decoded
            .iter()
            .map(|f| f.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b)))
            .collect();
        metrics = metrics.with("decoded_text", String::from_utf8_lossy(&bytes).into_owned());
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{InitCond, PlatformId, SequenceKind};

    #[test]
    fn covert_default_recovers_alternating_bits() {
        let s = Scenario::builder()
            .message(MessageSource::Alternating { bits: 16 })
            .seed(1)
            .build()
            .unwrap();
        let m = s.run_trial(s.seed, Engine::FastForward);
        let err = m.get("error_rate").unwrap().as_f64().unwrap();
        assert!(err < 0.2, "headline channel should mostly work, got {err}");
        assert_eq!(m.get("sent").unwrap().as_str().unwrap().len(), 16);
    }

    #[test]
    fn outcomes_are_deterministic() {
        let s = Scenario::builder()
            .message(MessageSource::Random {
                bits: 24,
                repeats: 1,
            })
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(
            s.run_trial(9, Engine::FastForward),
            s.run_trial(9, Engine::FastForward)
        );
    }

    #[test]
    fn trials_fan_out_in_index_order() {
        let s = Scenario::builder()
            .kind(ExperimentKind::PlruEviction {
                sequence: SequenceKind::Seq1,
                init: InitCond::Random,
                iterations: 4,
                trials: 50,
            })
            .trials(3)
            .seed(5)
            .build()
            .unwrap();
        let all = s.run();
        let arr = all.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        // Same grid evaluated sequentially must agree (determinism
        // across worker counts is pinned by the trials driver).
        let again = s.run();
        assert_eq!(all, again);
    }

    #[test]
    fn percent_ones_distinguishes_constant_bits() {
        let mk = |bit| {
            Scenario::builder()
                .sharing(lru_channel::covert::Sharing::TimeSliced)
                .params(lru_channel::params::ChannelParams {
                    d: 8,
                    target_set: 0,
                    ts: 100_000_000,
                    tr: 100_000_000,
                })
                .message(MessageSource::Constant { bit, bits: 1 })
                .kind(ExperimentKind::PercentOnes { samples: 60 })
                .seed(5)
                .build()
                .unwrap()
        };
        let p0 = mk(false)
            .run_trial(5, Engine::FastForward)
            .get("fraction")
            .unwrap()
            .as_f64()
            .unwrap();
        let p1 = mk(true)
            .run_trial(5, Engine::FastForward)
            .get("fraction")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(p1 > p0 + 0.1, "got p0={p0:.2}, p1={p1:.2}");
    }

    #[test]
    fn l2_channel_reads_bits_only_through_back_invalidation() {
        let run = |h| {
            let s = Scenario::builder()
                .kind(ExperimentKind::L2Channel { samples: 64 })
                .message(MessageSource::Alternating { bits: 16 })
                .hierarchy(h)
                .seed(7)
                .build()
                .unwrap();
            let m = s.run_trial(7, Engine::FastForward);
            m.get("error_rate").unwrap().as_f64().unwrap()
        };
        // Back-invalidation propagates the L2 eviction into the
        // receiver's L1, so the LRU readout is exact; the silent
        // backends leave the receiver blind (it always decodes 0,
        // and an alternating message is half ones).
        assert_eq!(run(Inclusion::BackInvalidate), 0.0);
        assert_eq!(run(Inclusion::Inclusive), 0.5);
        assert_eq!(run(Inclusion::NonInclusive), 0.5);
    }

    #[test]
    fn inclusion_victim_signal_is_exclusive_to_back_invalidation() {
        let run = |h| {
            let s = Scenario::builder()
                .kind(ExperimentKind::InclusionVictim { trials: 32 })
                .hierarchy(h)
                .seed(3)
                .build()
                .unwrap();
            let m = s.run_trial(3, Engine::FastForward);
            m.get("signal_rate").unwrap().as_f64().unwrap()
        };
        assert_eq!(run(Inclusion::BackInvalidate), 1.0);
        assert_eq!(run(Inclusion::Inclusive), 0.0);
        assert_eq!(run(Inclusion::NonInclusive), 0.0);
    }

    #[test]
    fn non_default_hierarchy_is_lockstep_ineligible_and_names_the_backend() {
        for h in [Inclusion::NonInclusive, Inclusion::BackInvalidate] {
            let s = Scenario::builder().hierarchy(h).build().unwrap();
            let err = s.lockstep_spec().unwrap_err();
            assert_eq!(err, LockstepIneligible::Hierarchy(h));
            let msg = err.to_string();
            assert!(
                msg.contains(h.name()),
                "rejection must name the backend, got: {msg}"
            );
        }
        // The default hierarchy keeps the headline scenario eligible.
        let s = Scenario::builder().build().unwrap();
        assert!(s.lockstep_spec().is_ok());
    }

    #[test]
    fn covert_error_rate_survives_a_hierarchy_swap() {
        // The covert channel leaks through L1 replacement state, so
        // swapping the inclusion model must not break it — this pins
        // the machine-swap threading (and, for back-invalidate, the
        // engine demotion) end to end.
        for h in Inclusion::all() {
            let s = Scenario::builder()
                .message(MessageSource::Alternating { bits: 16 })
                .hierarchy(h)
                .seed(1)
                .build()
                .unwrap();
            let m = s.run_trial(1, Engine::FastForward);
            let err = m.get("error_rate").unwrap().as_f64().unwrap();
            assert!(err < 0.2, "{} hierarchy broke the channel: {err}", h.name());
        }
    }

    #[test]
    fn flush_reload_baseline_transfers_bits() {
        let s = Scenario::builder()
            .message(MessageSource::Alternating { bits: 12 })
            .kind(ExperimentKind::FlushReload {
                samples: 10_000,
                to_mem: true,
            })
            .seed(3)
            .build()
            .unwrap();
        let m = s.run_trial(3, Engine::FastForward);
        let err = m.get("error_rate").unwrap().as_f64().unwrap();
        assert!(err < 0.35, "F+R baseline should carry bits, got {err}");
    }

    #[test]
    fn prime_probe_baseline_produces_sweeps() {
        let s = Scenario::builder()
            .variant(Variant::NoSharedMemory)
            .params(lru_channel::params::ChannelParams {
                d: 8,
                target_set: 0,
                ts: 6_000,
                tr: 600,
            })
            .message(MessageSource::Alternating { bits: 12 })
            .kind(ExperimentKind::PrimeProbe { samples: 10_000 })
            .seed(4)
            .build()
            .unwrap();
        let m = s.run_trial(4, Engine::FastForward);
        assert!(m.get("sweeps").unwrap().as_u64().unwrap() > 20);
        assert!(
            m.get("miss_sweep_fraction").unwrap().as_f64().unwrap() > 0.0,
            "the sender must displace primed lines sometimes"
        );
    }

    #[test]
    fn platform_spec_reports_the_paper_geometry() {
        for p in PlatformId::all() {
            let s = Scenario::builder()
                .platform(p)
                .kind(ExperimentKind::PlatformSpec)
                .build()
                .unwrap();
            let m = s.run_trial(0, Engine::FastForward);
            assert_eq!(m.get("ways").unwrap().as_u64(), Some(8));
            assert_eq!(m.get("sets").unwrap().as_u64(), Some(64));
        }
    }
}
