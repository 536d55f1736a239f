//! The object replacement policies: one value per set, each policy
//! its own type with its own (heap-backed) state.
//!
//! This is the form the paper experiments were prototyped against,
//! kept as the independent oracle the simulator's packed policy
//! logic (`cache_sim::replacement::SetState` and the flat storage
//! rows) is checked against:
//!
//! * [`Lru`] — true LRU (per-way age counters),
//! * [`TreePlru`] — Tree-PLRU (binary tree of "less recently used"
//!   bits, paper §II-B),
//! * [`BitPlru`] — Bit-PLRU / MRU (one MRU-bit per way),
//! * [`Fifo`] — FIFO / Round-Robin (state changes only on fills —
//!   the paper's §IX-A defense),
//! * [`RandomRepl`] — stateless random victim (the other §IX-A
//!   defense),
//! * [`PartitionedTreePlru`] — DAWG-style Tree-PLRU whose state is
//!   split into two independent half-trees, one per half of the ways
//!   (paper §IX-B).
//!
//! All policies implement [`SetReplacement`], are deterministic given
//! their seed, and are `Clone` so whole caches can be snapshotted.

mod bit_plru;
mod fifo;
mod lru;
mod partitioned;
mod random_repl;
mod tree_plru;

pub use bit_plru::BitPlru;
pub use fifo::Fifo;
pub use lru::Lru;
pub use partitioned::PartitionedTreePlru;
pub use random_repl::RandomRepl;
pub use tree_plru::TreePlru;

use cache_sim::replacement::{PolicyKind, WayMask};

/// Replacement state of one cache set.
///
/// Implementations must uphold:
///
/// * [`victim_among`](SetReplacement::victim_among) returns a way in
///   the given mask whenever the mask is non-empty;
/// * state updates are a function only of the access sequence (and
///   the seed, for [`RandomRepl`]).
pub trait SetReplacement {
    /// Associativity this state tracks.
    fn ways(&self) -> usize;

    /// Records an access (hit) to `way`.
    fn touch(&mut self, way: usize);

    /// Records that a new line was installed in `way`.
    ///
    /// Defaults to the same update as a hit, which is correct for the
    /// LRU family; FIFO overrides both so that only fills matter.
    fn fill(&mut self, way: usize) {
        self.touch(way);
    }

    /// Chooses a victim way from `allowed`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `allowed` contains no way below
    /// [`ways`](SetReplacement::ways) (there is nothing to evict).
    fn victim_among(&mut self, allowed: WayMask) -> usize;

    /// Resets the state to its power-on value.
    fn reset(&mut self);

    /// Chooses a victim among all ways.
    fn victim(&mut self) -> usize
    where
        Self: Sized,
    {
        let all = WayMask::all(self.ways());
        self.victim_among(all)
    }
}

/// A concrete replacement policy, dispatching to one of the policy
/// implementations.
///
/// `Policy` is what [`CacheSet`](crate::set::CacheSet) stores; keeping
/// it an enum (rather than a trait object) keeps sets `Clone` and
/// avoids a heap allocation per set.
#[derive(Debug, Clone)]
pub enum Policy {
    /// True LRU.
    Lru(Lru),
    /// Tree-PLRU.
    TreePlru(TreePlru),
    /// Bit-PLRU.
    BitPlru(BitPlru),
    /// FIFO.
    Fifo(Fifo),
    /// Random replacement.
    Random(RandomRepl),
    /// DAWG-style partitioned Tree-PLRU.
    PartitionedTreePlru(PartitionedTreePlru),
}

impl Policy {
    /// Builds the policy `kind` for a set with `ways` ways.
    ///
    /// `seed` only matters for [`PolicyKind::Random`].
    ///
    /// # Panics
    ///
    /// Panics if `kind` requires a power-of-two way count
    /// (Tree-PLRU variants) and `ways` is not one.
    pub fn new(kind: PolicyKind, ways: usize, seed: u64) -> Policy {
        match kind {
            PolicyKind::Lru => Policy::Lru(Lru::new(ways)),
            PolicyKind::TreePlru => Policy::TreePlru(TreePlru::new(ways)),
            PolicyKind::BitPlru => Policy::BitPlru(BitPlru::new(ways)),
            PolicyKind::Fifo => Policy::Fifo(Fifo::new(ways)),
            PolicyKind::Random => Policy::Random(RandomRepl::new(ways, seed)),
            PolicyKind::PartitionedTreePlru => {
                Policy::PartitionedTreePlru(PartitionedTreePlru::new(ways))
            }
        }
    }

    /// Which kind of policy this is.
    pub fn kind(&self) -> PolicyKind {
        match self {
            Policy::Lru(_) => PolicyKind::Lru,
            Policy::TreePlru(_) => PolicyKind::TreePlru,
            Policy::BitPlru(_) => PolicyKind::BitPlru,
            Policy::Fifo(_) => PolicyKind::Fifo,
            Policy::Random(_) => PolicyKind::Random,
            Policy::PartitionedTreePlru(_) => PolicyKind::PartitionedTreePlru,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            Policy::Lru($inner) => $body,
            Policy::TreePlru($inner) => $body,
            Policy::BitPlru($inner) => $body,
            Policy::Fifo($inner) => $body,
            Policy::Random($inner) => $body,
            Policy::PartitionedTreePlru($inner) => $body,
        }
    };
}

impl SetReplacement for Policy {
    fn ways(&self) -> usize {
        dispatch!(self, p => p.ways())
    }

    fn touch(&mut self, way: usize) {
        dispatch!(self, p => p.touch(way));
    }

    fn fill(&mut self, way: usize) {
        dispatch!(self, p => p.fill(way));
    }

    fn victim_among(&mut self, allowed: WayMask) -> usize {
        dispatch!(self, p => p.victim_among(allowed))
    }

    fn reset(&mut self) {
        dispatch!(self, p => p.reset());
    }
}

pub(crate) fn assert_valid_victim_request(ways: usize, allowed: WayMask) {
    let usable = allowed.intersect(WayMask::all(ways));
    assert!(
        !usable.is_empty(),
        "victim requested from an empty way mask (ways={ways}, allowed={allowed})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_enum_round_trips_kind() {
        for kind in PolicyKind::ALL {
            let p = Policy::new(kind, 8, 7);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.ways(), 8);
        }
    }

    #[test]
    fn policy_enum_victim_in_mask() {
        for kind in PolicyKind::ALL {
            let mut p = Policy::new(kind, 8, 3);
            for w in 0..8 {
                p.fill(w);
            }
            let allowed = WayMask::all(8).without(2).without(5);
            let v = p.victim_among(allowed);
            assert!(allowed.contains(v), "{kind}: victim {v} not in mask");
        }
    }
}
