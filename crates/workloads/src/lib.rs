//! # workloads — synthetic SPEC-like benchmarks and a CPI model
//!
//! The paper's defense study (Fig. 9) runs SPEC CPU2006 through GEM5
//! to show that replacing the L1D's Tree-PLRU with FIFO or Random
//! costs almost nothing (<2% CPI). SPEC binaries and GEM5 aren't
//! available to a library crate, so this substrate provides the
//! closest synthetic equivalent (see DESIGN.md §2):
//!
//! * [`access_pattern`] — parametric memory-access generators
//!   (sequential, strided, uniform/zipfian random, pointer chase,
//!   blocked 2-D, stack-like reuse);
//! * [`spec_like`] — sixteen named benchmark mixes whose locality
//!   classes mirror the SPEC int/float suites the paper plots;
//! * [`cpi`] — a trace-driven timing model (base CPI + MLP-discounted
//!   miss penalties) producing the L1D miss rate and normalized CPI
//!   series of Fig. 9: each benchmark's address stream is generated
//!   once and replayed through one fixed-geometry L1+L2 lane per
//!   policy;
//! * [`background`] — the benign "gcc" co-runner of Table VI.
//!
//! The *relative* claim of Fig. 9 (policies differ little because L1
//! misses mostly hit in L2) depends only on these locality classes,
//! not on the exact SPEC instruction streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access_pattern;
pub mod background;
pub mod cpi;
pub mod spec_like;

pub use access_pattern::AccessPattern;
pub use cpi::{measure_policies, BenchmarkResult, CpiModel};
pub use spec_like::{Benchmark, SUITE};
