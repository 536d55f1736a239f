//! # lru-channel — timing channels through cache LRU states
//!
//! The core library of the reproduction of *"Leaking Information
//! Through Cache LRU States"* (Wenjie Xiong & Jakub Szefer, HPCA
//! 2020). Every access to a cache set — **hit or miss** — updates the
//! set's replacement state; a later replacement decision reveals it.
//! This crate implements the paper's two channel protocols and
//! everything needed to run and evaluate them on the simulated
//! platforms of [`cache_sim`]/[`exec_sim`]:
//!
//! * [`params`] — channel parameters (`d`, `Ts`, `Tr`, target set)
//!   and [`params::Platform`] bundles (CPU profile + timer model).
//! * [`setup`] — address-space wiring: building `line 0..N` for a
//!   target set, with ([`setup::alg1`]) and without
//!   ([`setup::alg2`]) shared memory.
//! * [`protocol`] — the sender and receiver [`exec_sim::Program`]s
//!   implementing Algorithms 1/2 inside the Algorithm 3 covert
//!   framing.
//! * [`covert`] — end-to-end covert-channel runs under
//!   hyper-threaded and time-sliced sharing, returning the
//!   receiver's observation trace.
//! * [`decode`] — turning latency traces back into bits: threshold
//!   classification, per-window majority vote, moving averages
//!   (AMD), percent-of-ones (time-sliced).
//! * [`edit_distance`] — Wagner–Fischer edit distance, the paper's
//!   error metric (§V-A).
//! * [`multiset`] — several target sets driven in parallel (§IV:
//!   "several sets can be used in parallel to increase the
//!   transmission rate").
//! * [`noise`] — deterministic environmental interference: the
//!   [`noise::NoiseModel`] spec (random eviction, periodic co-runner
//!   bursts, Bernoulli per-observation touches), run as a scheduled
//!   [`exec_sim::program::Program`] next to a covert run's sender and
//!   receiver.
//! * [`plru_study`] — the Table I eviction-probability study of
//!   Tree-PLRU / Bit-PLRU vs true LRU, one allocation-free
//!   [`cache_sim::one_set::OneSet`] per trial.
//! * [`analysis`] — latency histograms (Figs. 3, 13).
//! * [`trials`] — deterministic parallel trial driver: independent
//!   simulator runs fan out over all host cores with per-trial seeds,
//!   bit-identical to sequential execution.
//! * [`lockstep`] — batched execution of eligible covert trials: K
//!   seeds of one scenario shape share one address layout, and each
//!   lane runs on one [`cache_sim::one_set::OneSet`] (the channel's
//!   L1 target set), bit-identical to the scalar path but without
//!   per-trial machine construction or dynamic dispatch.
//!
//! ## Quickstart
//!
//! ```
//! use lru_channel::covert::{CovertConfig, Sharing, Variant};
//! use lru_channel::params::{ChannelParams, Platform};
//! use lru_channel::decode;
//! use exec_sim::sched::Engine;
//!
//! // Send 0-1-0-1... over the shared-memory LRU channel on the
//! // simulated Xeon E5-2690, hyper-threaded (paper Fig. 5 top).
//! let platform = Platform::e5_2690();
//! let params = ChannelParams { d: 8, target_set: 0, ts: 6_000, tr: 600 };
//! let message: Vec<bool> = (0..16).map(|i| i % 2 == 1).collect();
//! let run = CovertConfig {
//!     platform,
//!     params,
//!     variant: Variant::SharedMemory,
//!     sharing: Sharing::HyperThreaded,
//!     message: message.clone(),
//!     seed: 42,
//!     engine: Engine::FastForward,
//! }
//! .run()?;
//! let bits = decode::bits_by_window(
//!     &run.samples,
//!     params.ts,
//!     run.hit_threshold,
//!     decode::BitConvention::HitIsOne,
//! );
//! let err = lru_channel::edit_distance::error_rate(&message, &bits[..message.len()]);
//! assert!(err < 0.2, "channel should mostly work, got error rate {err}");
//! # Ok::<(), lru_channel::params::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod covert;
pub mod decode;
pub mod edit_distance;
pub mod lockstep;
pub mod multiset;
pub mod noise;
pub mod params;
pub mod plru_study;
pub mod protocol;
pub mod setup;
pub mod trials;

pub use covert::{CovertConfig, CovertRun, Sharing, Variant};
pub use noise::{NoiseError, NoiseModel};
pub use params::{ChannelParams, ParamError, Platform};
pub use protocol::{LruReceiver, LruSender, Sample};
