//! # cache-sim — set-associative cache substrate with observable replacement state
//!
//! This crate is the cache substrate for the reproduction of
//! *"Leaking Information Through Cache LRU States"* (Xiong & Szefer,
//! HPCA 2020). The paper's channels leak through the **replacement
//! state** (LRU / Tree-PLRU / Bit-PLRU bits) of a cache set, so this
//! simulator models that state explicitly and exactly:
//!
//! * [`replacement`] — the five replacement policies discussed by the
//!   paper (true LRU, Tree-PLRU, Bit-PLRU, FIFO, Random) plus a
//!   DAWG-style partitioned Tree-PLRU (an independent tree per half
//!   of the ways, victims from the lower half), each implemented once
//!   over packed per-set state words: `touch` on a hit, `fill` on an
//!   install, `victim_among` a way mask. [`replacement::SetState`]
//!   holds one set's state on its own.
//! * [`cache`] — a single-level set-associative [`cache::Cache`] with
//!   per-access outcomes (hit/miss, filled way, evicted line). Its
//!   storage is a flat structure-of-arrays hot path: one contiguous
//!   row of tags + valid word + packed replacement state per set.
//! * [`one_set`] — one set of that cache as an allocation-free value
//!   ([`one_set::OneSet`]), for runs that hammer a single set: the
//!   Table I study and the lockstep covert lanes.
//! * [`two_level`] — the Fig. 9 GEM5 hierarchy (8-way L1D over a
//!   16-way LRU L2, no LLC) as a fixed-geometry value
//!   ([`two_level::TwoLevel`]) over the same row layout and policy
//!   logic, for the Fig. 9 study, which generates each benchmark's
//!   address stream once and steps one such lane per L1D policy over
//!   it.
//! * [`plcache`] — Partition-Locked cache semantics (paper Fig. 10),
//!   in both the *original* (LRU state still updated on locked lines —
//!   vulnerable) and *fixed* (LRU state frozen for locked lines) forms.
//! * [`backend`] — the [`backend::Backend`] trait putting every cache
//!   model (flat SoA, PL cache, two-level hierarchies, and the
//!   `test-support` crate's array-of-structs oracle) behind one
//!   surface — a single demand `access`, prefetch fill, probe, flush
//!   and line introspection — with a `quantum_ff_safe` capability bit;
//!   the backend-conformance harness and the repository benchmark's
//!   access sweep are generic over it. The execution engine reads the
//!   bit from [`hierarchy::CacheHierarchy::quantum_ff_safe`] instead.
//! * [`hierarchy`] — an L1D/L2/(LLC) hierarchy with cycle latencies
//!   (paper Table II), optional next-line [`prefetcher`] (Appendix C
//!   noise source) and the AMD linear-address µtag
//!   [`way_predictor`] (paper §VI-B). It is the one model of the
//!   three L1↔L2 inclusion policies, and it takes extra cores with
//!   private L1s over the shared levels for the cross-core channels.
//! * [`counters`] — per-hardware-thread performance-counter model used
//!   to regenerate the miss-rate tables (paper Tables VI, VII).
//! * [`profiles`] — geometry/latency presets for the three evaluated
//!   micro-architectures (Sandy Bridge, Skylake, Zen) and the GEM5
//!   configuration of the defense study (paper Fig. 9).
//!
//! The simulator is fully deterministic: every randomized component
//! takes an explicit seed.
//!
//! ## Example
//!
//! ```
//! use cache_sim::geometry::CacheGeometry;
//! use cache_sim::replacement::PolicyKind;
//! use cache_sim::cache::Cache;
//! use cache_sim::addr::PhysAddr;
//!
//! // An 8-way 64-set L1D like the paper's test machines (Table III).
//! let geom = CacheGeometry::new(64, 64, 8)?;
//! let mut l1 = Cache::new(geom, PolicyKind::TreePlru, 1);
//!
//! // Fill one set with 8 lines, then a 9th address evicts the
//! // Tree-PLRU victim.
//! for i in 0..8u64 {
//!     l1.access(PhysAddr::new(i * geom.set_stride()));
//! }
//! let out = l1.access(PhysAddr::new(8 * geom.set_stride()));
//! assert!(!out.hit);
//! assert!(out.evicted.is_some());
//! # Ok::<(), cache_sim::geometry::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod backend;
pub mod cache;
pub mod counters;
pub mod geometry;
pub mod hierarchy;
pub mod line;
pub mod one_set;
pub mod plcache;
pub mod prefetcher;
pub mod profiles;
pub mod replacement;
mod storage;
pub mod two_level;
pub mod way_predictor;

pub use addr::{PhysAddr, VirtAddr};
pub use backend::{Backend, HierarchyBackend};
pub use cache::{AccessOutcome, Cache, SetView};
pub use counters::{MissRates, PerfCounters};
pub use geometry::CacheGeometry;
pub use hierarchy::{CacheHierarchy, HierarchyOutcome, HitLevel, Inclusion, Latencies};
pub use plcache::{PlCache, PlDesign, PlRequest};
pub use profiles::MicroArch;
pub use replacement::{PolicyKind, SetState, WayMask};
