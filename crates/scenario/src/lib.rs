//! # scenario — one declarative surface for every experiment
//!
//! The unified experiment API of the *"Leaking Information Through
//! Cache LRU States"* (HPCA 2020) reproduction. Instead of N bespoke
//! bench mains each re-wiring platforms, parameters and attacks, an
//! experiment is **described** as a [`spec::Scenario`] value —
//! platform × replacement policy × protocol variant × core sharing ×
//! defense × workload × message source × trial count × master seed —
//! and **executed** one trial at a time by
//! [`spec::Scenario::run_trial`], with every repetition fanned out
//! deterministically over the host's cores by [`lru_channel::trials`].
//!
//! * [`spec`] — the serializable [`spec::Scenario`] type, its
//!   validating builder (geometry violations reuse
//!   [`lru_channel::params::ParamError`]) and lossless JSON
//!   round-trip.
//! * [`experiment`] — `Scenario::run_trial(seed, engine) -> Value`,
//!   one `match` over the experiment kinds: covert runs, the
//!   time-sliced percent-of-ones study, the Prime+Probe and
//!   Flush+Reload baselines, the Spectre attack, the §IX defense
//!   evaluations, and the table/figure substrate checks.
//! * [`aggregate`] — streaming reduction of trial metrics: the
//!   [`aggregate::Reducer`] trait, constant-memory
//!   [`aggregate::ScalarStats`] / [`aggregate::KeyHistogram`]
//!   reducers, the [`aggregate::CollectMetrics`] reducer behind
//!   [`spec::Scenario::run`], and [`aggregate::Aggregate::for_kind`]
//!   defaults. Trials stream through the chunked work-stealing scheduler of
//!   [`lru_channel::trials`], so a million-trial sweep needs
//!   `O(workers × chunk)` memory, not `O(trials)`, and stays
//!   bit-identical across worker counts.
//! * [`capacity`] — Shannon channel-capacity estimates from measured
//!   bit-error rates (the binary-symmetric-channel bound), reported
//!   by the noise ablations and the [`aggregate::CapacityStats`]
//!   reducer.
//! * [`engine`] — the resilient job layer the CLI (and a future
//!   `lru-leak serve`) executes through: [`engine::Job`] grids run
//!   with chunk-level panic isolation and deterministic retry,
//!   cooperative cancellation and per-job deadlines
//!   ([`engine::CancelToken`]), a content-addressed on-disk result
//!   cache ([`engine::ResultCache`]) that makes interrupted batches
//!   resumable, and test-only fault injection
//!   ([`engine::FaultPlan`]).
//! * [`registry`] — paper artifact IDs (`fig3`…`fig15`,
//!   `table1`…`table7`, ablations — including the `ablation_noise_*`
//!   interference sweeps) resolved to scenario grids plus
//!   renderers; the `lru-leak` CLI and the experiment service run
//!   artifacts through [`engine::Engine::run_artifact`], and
//!   [`registry::Artifact::run`] is the same call on a plain engine.
//! * [`json`] — the dependency-free JSON tree both layers serialize
//!   through (deterministic writer, so `--json` output is
//!   bit-identical for a fixed seed), and the strict field reader
//!   every scenario and wire-request parse runs on.
//! * [`fmt`] — the table/sparkline text helpers the renderers and
//!   perf benches share.
//!
//! ## Quickstart
//!
//! ```
//! use scenario::spec::{MessageSource, Scenario};
//!
//! // Describe: the paper's headline configuration, 16 bits.
//! let s = Scenario::builder()
//!     .message(MessageSource::Alternating { bits: 16 })
//!     .seed(7)
//!     .build()?;
//! // Execute: one deterministic run.
//! let metrics = s.run();
//! let err = metrics.get("error_rate").unwrap().as_f64().unwrap();
//! assert!(err < 0.2);
//! // Every scenario serializes losslessly.
//! let same = Scenario::from_json_str(&s.to_json().to_string())?;
//! assert_eq!(same, s);
//! # Ok::<(), scenario::spec::ScenarioError>(())
//! ```
//!
//! ## Running a paper artifact
//!
//! ```no_run
//! use scenario::registry::{self, RunOpts};
//!
//! let report = registry::get("fig6").unwrap().run(&RunOpts::default());
//! print!("{}", report.text);           // the bench table
//! println!("{}", report.metrics);      // the same numbers as JSON
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod capacity;
pub mod engine;
pub mod experiment;
pub mod fmt;
pub mod json;
pub mod registry;
pub mod spec;

pub use aggregate::{Aggregate, CapacityStats, CollectMetrics, KeyHistogram, Reducer, ScalarStats};
pub use engine::{
    content_hash64, CacheStats, CancelToken, Engine, EngineError, FaultPlan, Job, JobProgress,
    JobStatus, ProgressFn, ResultCache,
};
pub use experiment::LockstepIneligible;
pub use fmt::BENCH_SEED;
pub use json::Value;
pub use registry::{Artifact, Report, RunOpts};
pub use spec::{
    ExperimentKind, Inclusion, MessageSource, Named, NoiseModel, PlatformId, Scenario,
    ScenarioError, MAX_COUNT,
};
