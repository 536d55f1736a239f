//! Cache replacement policies with fully observable state.
//!
//! The LRU channels (paper §IV) are a property of the *replacement
//! state* of a cache set: every access — hit or miss — updates that
//! state, and a later replacement decision reveals it. This module
//! implements the policies the paper analyses:
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
pub(crate) mod packed;
mod partitioned;
mod random_repl;
mod tree_plru;

pub use bit_plru::BitPlru;
pub use fifo::Fifo;
pub use lru::Lru;
pub use partitioned::PartitionedTreePlru;
pub use random_repl::RandomRepl;
pub use tree_plru::TreePlru;

use std::fmt;

/// A subset of the ways in one cache set, as a bitmask.
///
/// Victim selection is restricted to a mask so that locked lines
/// (PL cache) can be excluded.
///
/// ```
/// use cache_sim::replacement::WayMask;
/// let m = WayMask::all(8).without(3);
/// assert!(!m.contains(3));
/// assert_eq!(m.count(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(u64);

impl WayMask {
    /// Mask containing no ways.
    pub const EMPTY: WayMask = WayMask(0);

    /// Mask containing ways `0..ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`.
    pub fn all(ways: usize) -> Self {
        assert!(ways <= 64, "way masks support at most 64 ways");
        if ways == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// Mask containing exactly one way.
    pub fn single(way: usize) -> Self {
        assert!(way < 64, "way index out of range");
        WayMask(1u64 << way)
    }

    /// Mask from a raw bit pattern (bit `w` = way `w`).
    pub const fn from_bits(bits: u64) -> Self {
        WayMask(bits)
    }

    /// The raw bit pattern of the mask.
    pub const fn bits(&self) -> u64 {
        self.0
    }

    /// Whether `way` is in the mask.
    pub const fn contains(&self, way: usize) -> bool {
        way < 64 && (self.0 >> way) & 1 == 1
    }

    /// Returns the mask with `way` added.
    #[must_use]
    pub fn with(self, way: usize) -> Self {
        assert!(way < 64, "way index out of range");
        WayMask(self.0 | (1u64 << way))
    }

    /// Returns the mask with `way` removed.
    #[must_use]
    pub fn without(self, way: usize) -> Self {
        assert!(way < 64, "way index out of range");
        WayMask(self.0 & !(1u64 << way))
    }

    /// Set intersection of two masks.
    #[must_use]
    pub const fn intersect(self, other: WayMask) -> Self {
        WayMask(self.0 & other.0)
    }

    /// Number of ways in the mask.
    pub const fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the mask is empty.
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether any way in `lo..hi` is in the mask.
    pub fn any_in_range(&self, lo: usize, hi: usize) -> bool {
        if lo >= hi || lo >= 64 {
            return false;
        }
        let hi = hi.min(64);
        let span = hi - lo;
        let window = if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << lo
        };
        self.0 & window != 0
    }

    /// Iterates over the ways in the mask, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let w = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w)
        })
    }

    /// Lowest-indexed way in the mask, if any.
    pub fn first(&self) -> Option<usize> {
        if self.is_empty() {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// True LRU with full age ordering.
    Lru,
    /// Tree-PLRU (the common hardware variant, paper §II-B).
    TreePlru,
    /// Bit-PLRU / MRU-bit policy.
    BitPlru,
    /// FIFO / Round-Robin (defense, paper §IX-A).
    Fifo,
    /// Uniform random victim (defense, paper §IX-A).
    Random,
    /// DAWG-style statically partitioned Tree-PLRU (paper §IX-B).
    PartitionedTreePlru,
}

impl PolicyKind {
    /// All policy kinds, in presentation order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Lru,
        PolicyKind::TreePlru,
        PolicyKind::BitPlru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::PartitionedTreePlru,
    ];

    /// The three policies the Table I study compares.
    pub const TABLE1: [PolicyKind; 3] =
        [PolicyKind::Lru, PolicyKind::TreePlru, PolicyKind::BitPlru];

    /// The three policies the Fig. 9 performance study compares.
    pub const FIG9: [PolicyKind; 3] = [PolicyKind::TreePlru, PolicyKind::Fifo, PolicyKind::Random];

    /// Whether accesses that *hit* update the policy state.
    ///
    /// This is the crux of the paper: LRU-family state changes on
    /// hits (leaky); FIFO state changes only on fills and Random has
    /// no state, which is why §IX-A proposes them as defenses.
    pub const fn updates_on_hit(&self) -> bool {
        matches!(
            self,
            PolicyKind::Lru
                | PolicyKind::TreePlru
                | PolicyKind::BitPlru
                | PolicyKind::PartitionedTreePlru
        )
    }

    /// Whether touching the *same* way twice in a row leaves the
    /// policy state exactly as one touch would — the soundness
    /// condition for the execution engine's repeated-hit collapse.
    ///
    /// Tree-PLRU (plain and partitioned) rewrites the accessed way's
    /// root path, a pure function of the way; FIFO and Random ignore
    /// hits entirely. True LRU re-stamps the way from a global clock
    /// on every touch, and Bit-PLRU's generation rollover means the
    /// first and second touch of a way can differ — neither may be
    /// collapsed.
    pub const fn touch_is_idempotent(&self) -> bool {
        matches!(
            self,
            PolicyKind::TreePlru
                | PolicyKind::Fifo
                | PolicyKind::Random
                | PolicyKind::PartitionedTreePlru
        )
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::TreePlru => "Tree-PLRU",
            PolicyKind::BitPlru => "Bit-PLRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Random => "Random",
            PolicyKind::PartitionedTreePlru => "Partitioned-Tree-PLRU",
        };
        f.write_str(name)
    }
}

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
/// `Policy` is what [`crate::cache::Cache`] stores per set; keeping
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
    fn way_mask_basics() {
        let m = WayMask::all(8);
        assert_eq!(m.count(), 8);
        assert!(m.contains(0) && m.contains(7) && !m.contains(8));
        let m = m.without(0).without(7);
        assert_eq!(m.first(), Some(1));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
        assert!(m.any_in_range(0, 2));
        assert!(!m.any_in_range(7, 8));
        assert_eq!(WayMask::all(64).count(), 64);
        assert_eq!(WayMask::single(5).iter().collect::<Vec<_>>(), vec![5]);
        assert!(WayMask::EMPTY.is_empty());
        assert_eq!(WayMask::all(4).intersect(WayMask::single(2)).count(), 1);
    }

    #[test]
    fn policy_kind_hit_update_classification() {
        assert!(PolicyKind::Lru.updates_on_hit());
        assert!(PolicyKind::TreePlru.updates_on_hit());
        assert!(PolicyKind::BitPlru.updates_on_hit());
        assert!(PolicyKind::PartitionedTreePlru.updates_on_hit());
        assert!(!PolicyKind::Fifo.updates_on_hit());
        assert!(!PolicyKind::Random.updates_on_hit());
    }

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

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::TreePlru.to_string(), "Tree-PLRU");
        assert_eq!(WayMask::all(3).to_string(), "111");
    }
}
