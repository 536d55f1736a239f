//! # attacks — baselines and transient-execution attacks
//!
//! The comparison half of the *"Leaking Information Through Cache LRU
//! States"* (HPCA 2020) reproduction: the classic cache channels the
//! paper measures against, the Spectre-v1 attack with the LRU channel
//! as disclosure primitive (§VIII), and the experiments behind
//! Tables V, VI and VII.
//!
//! * [`flush_reload`] — Flush+Reload, in the paper's two flavors:
//!   `clflush`-to-memory ("F+R (mem)") and L1-eviction-set
//!   ("F+R (L1)").
//! * [`prime_probe`] — Prime+Probe over one L1 set.
//! * [`primitive`] — the one [`Channel`] type (the two Flush+Reload
//!   flavours and LRU Algorithms 1 and 2, each with its table label)
//!   and the disclosure-primitive abstraction used by the Spectre
//!   harness. [`Channel::primitive`] is the one factory from a
//!   channel to its primitive.
//! * [`spectre`] — the end-to-end Spectre-v1 secret recovery over
//!   63 cache sets, with the Appendix-C random-order multi-round
//!   prefetcher-noise mitigation; [`SpectreAttack::recover_secret`]
//!   is the one path from a channel to a recovered secret.
//! * [`encoding_time`] — Table V: sender encoding latency per
//!   channel.
//! * [`miss_rates`] — Tables VI/VII: performance-counter footprints
//!   of the channel senders and of the full Spectre attack.
//! * [`side_channel`] — the §III *side-channel* framing: a benign
//!   victim's secret-indexed table lookup recovered by a set
//!   monitor (no cooperation, no framing protocol).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding_time;
pub mod flush_reload;
pub mod miss_rates;
pub mod prime_probe;
pub mod primitive;
pub mod side_channel;
pub mod spectre;

pub use primitive::{Channel, DisclosurePrimitive};
pub use spectre::SpectreAttack;
