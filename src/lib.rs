//! # lru-leak — "Leaking Information Through Cache LRU States", reproduced in Rust
//!
//! A full reproduction of Xiong & Szefer's HPCA 2020 paper: cache
//! covert/side channels that leak through the **replacement state**
//! (LRU / Tree-PLRU / Bit-PLRU) of a cache set rather than through
//! line presence. Every access — *hit or miss* — updates that state;
//! a later replacement decision reveals it.
//!
//! ## The primary entry point: [`scenario`]
//!
//! Every experiment in the workspace — covert runs, the Prime+Probe
//! and Flush+Reload baselines, the Spectre attack, the §IX defense
//! evaluations, every figure and table — is described by one
//! declarative, serializable [`scenario::spec::Scenario`] value and
//! executed through the [`scenario::experiment::Experiment`] trait.
//! Paper artifacts are registered by ID in [`scenario::registry`]
//! (`fig3`…`fig15`, `table1`…`table7`, ablations); the `lru-leak`
//! CLI is a thin wrapper over that registry, so for a fixed seed
//! `lru-leak run fig6 --json` reports exactly the registry's numbers.
//!
//! ```
//! use lru_leak::scenario::spec::{MessageSource, Scenario};
//!
//! // Describe the paper's headline configuration (E5-2690,
//! // Tree-PLRU, shared-memory Algorithm 1, hyper-threaded)…
//! let s = Scenario::builder()
//!     .message(MessageSource::Alternating { bits: 16 })
//!     .seed(7)
//!     .build()?;
//! // …execute it, and read the decoded outcome.
//! let metrics = s.run();
//! assert!(metrics.get("error_rate").unwrap().as_f64().unwrap() < 0.2);
//! # Ok::<(), lru_leak::scenario::spec::ScenarioError>(())
//! ```
//!
//! ## The substrate crates
//!
//! | crate | contents |
//! |---|---|
//! | [`scenario`] | **the public API**: declarative scenarios, the `Experiment` trait, the paper-artifact registry, deterministic JSON |
//! | [`cache_sim`] | set-associative caches with observable replacement state, PL cache, AMD µtag way predictor, prefetchers, perf counters |
//! | [`exec_sim`] | processes/page tables, timestamp-counter models, pointer-chase measurement, SMT & time-sliced schedulers, Spectre-v1 speculation |
//! | [`lru_channel`] | **the paper's contribution**: Algorithms 1–3, decoders, the Table I PLRU study, Wagner–Fischer error analysis, the parallel trial driver, seed-derived noise models |
//! | [`attacks`] | Flush+Reload / Prime+Probe baselines, Spectre-v1 with pluggable disclosure primitives, Tables V–VII experiments |
//! | [`defense`] | §IX defenses: FIFO/Random substitution (Fig. 9), fixed PL cache (Fig. 11), DAWG-style partitioning, invisible speculation, detection |
//! | [`workloads`] | synthetic SPEC-like benchmark suite and CPI model for the defense study |
//!
//! Reaching below [`scenario`] into [`lru_channel`]'s
//! `CovertConfig`/`percent_ones` is still supported for programmatic
//! composition, but new experiments should be expressed as
//! scenarios so they serialize, register and run from the CLI.
//!
//! See `examples/` for runnable demonstrations (all driven through
//! the scenario API), `lru-leak run <id>` to regenerate one table or
//! figure of the paper and `lru-leak run-all` for every one of them,
//! and `cargo run --release -p lru-leak-cli -- list` for the registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use attacks;
pub use cache_sim;
pub use defense;
pub use exec_sim;
pub use lru_channel;
pub use scenario;
pub use workloads;
