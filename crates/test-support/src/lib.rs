//! # test-support — independent oracles for the cache substrate
//!
//! The simulator (`cache-sim`) runs one implementation of every
//! replacement policy: the packed `ReplPolicy` logic behind
//! `Cache`, `PlCache`, `OneSet` and `SetState`. This crate keeps a
//! second, independently written copy — the object form the paper
//! experiments were first built on — so the equivalence suites have
//! something to check the packed code against. It is never a
//! dependency of a shipped crate: only the workspace's tests and the
//! `bench-harness` benchmarks use it.
//!
//! * [`replacement`] — the object policies (true LRU, Tree-PLRU,
//!   Bit-PLRU, FIFO, Random, DAWG-style partitioned Tree-PLRU), each
//!   behind the [`SetReplacement`] trait, and the [`Policy`] enum
//!   that dispatches over them.
//! * [`set`] — [`CacheSet`]: one set as `Vec<Option<LineMeta>>` lines
//!   plus a [`Policy`].
//! * [`reference`](mod@reference) — [`RefCache`]: the original array-of-structs
//!   cache, the layout oracle of `tests/layout_equivalence.rs` and
//!   the baseline of `bench_perf_smoke`. It implements
//!   `cache_sim::Backend`, so the conformance harness drives it
//!   like every shipped backend.
//!
//! The crate derives per-set seeds ([`set_seed`]) and checks victim
//! requests with its own code rather than the simulator's, so a bug
//! in either copy shows up as a disagreement.
//!
//! [`LineMeta`]: cache_sim::line::LineMeta

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;
pub mod replacement;
pub mod set;

pub use reference::RefCache;
pub use replacement::{Policy, SetReplacement};
pub use set::CacheSet;

/// The seed of set `set`'s Random generator in a cache built with
/// `seed` — the derivation `cache_sim::cache::Cache::new` uses, so
/// [`RefCache`] draws the same victim stream per set.
pub fn set_seed(seed: u64, set: u64) -> u64 {
    seed ^ set.wrapping_mul(0x9e37_79b9)
}
