//! # exec-sim — execution substrate: processes, timers, scheduling, speculation
//!
//! The second substrate of the *"Leaking Information Through Cache LRU
//! States"* (HPCA 2020) reproduction. Where [`cache_sim`] models the
//! *state* the channels leak through, this crate models everything
//! around it that the paper's evaluation depends on:
//!
//! * [`machine`] — a [`machine::Machine`]: one physical core's cache
//!   hierarchy plus processes (page tables, shared mappings), byte
//!   -addressable memory contents, and per-process performance
//!   counters.
//! * [`tsc`] — timestamp-counter models. A serialized `rdtscp` pair
//!   whose overhead hides the L1/L2 latency difference (paper
//!   Appendix A, Fig. 13) and the coarse-grained AMD readout
//!   (§VI-A).
//! * [`measure`] — the paper's pointer-chasing measurement (§IV-D,
//!   Figs. 2/3): seven dependent L1-resident loads plus the target
//!   make the L1-hit/L1-miss difference observable.
//! * [`program`] — the [`program::Program`] trait and [`program::Op`]
//!   vocabulary sender/receiver protocols are written in, plus the
//!   [`program::Footprint`] hint behind quantum fast-forwarding.
//! * [`block`] — the [`block::BlockCtx`] batched execution window:
//!   monomorphic access/compute loops, repeated-hit collapse and the
//!   closed-form paced advancement the fast engine runs on.
//! * [`sched`] — the two sharing settings of the evaluation:
//!   [`sched::HyperThreaded`] (fine-grained SMT interleaving, §V-A)
//!   and [`sched::TimeSliced`] (quantum scheduling, §V-B), each
//!   executable by the fast-forwarding engine or the retained
//!   [`sched::reference`] interpreter, picked per scheduler value by
//!   its [`sched::Engine`] field.
//! * [`speculation`] — a Spectre-v1 transient-execution model with a
//!   trainable branch predictor and a bounded speculative window
//!   (§VIII), plus the InvisiSpec-style invisible-speculation mode
//!   used by the defense study (§IX-B).
//! * [`noise`] — background "benign co-runner" programs (the `gcc`
//!   column of Table VI).
//!
//! Everything is deterministic given the seeds supplied by the
//! caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod machine;
pub mod measure;
pub mod noise;
pub mod program;
pub mod sched;
pub mod speculation;
pub mod tsc;

pub use block::{BlockCtx, PacedAdvance};
pub use machine::{Machine, Pid};
pub use measure::{LatencyProbe, Measurement};
pub use program::{Footprint, Op, OpResult, Program};
pub use sched::{Engine, HyperThreaded, SchedError, SchedulerReport, TimeSliced};
pub use tsc::TscModel;
