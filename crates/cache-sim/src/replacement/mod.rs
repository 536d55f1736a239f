//! Cache replacement policies with fully observable state.
//!
//! The LRU channels (paper §IV) are a property of the *replacement
//! state* of a cache set: every access — hit or miss — updates that
//! state, and a later replacement decision reveals it. The policies
//! the paper analyses are named by [`PolicyKind`]:
//!
//! * true LRU (per-way age stamps),
//! * Tree-PLRU (binary tree of "less recently used" bits, paper
//!   §II-B),
//! * Bit-PLRU / MRU (one MRU-bit per way),
//! * FIFO / Round-Robin (state changes only on fills — the paper's
//!   §IX-A defense),
//! * Random (stateless random victim, the other §IX-A defense),
//! * DAWG-style partitioned Tree-PLRU, whose state is split into two
//!   independent half-trees, one per half of the ways (paper §IX-B).
//!
//! Each policy is implemented once, as packed per-set state words
//! plus the policy logic over them (the private `packed` module).
//! [`Cache`](crate::cache::Cache), [`PlCache`](crate::plcache::PlCache)
//! and [`OneSet`](crate::one_set::OneSet) keep those words inside
//! their set rows; [`SetState`] holds them for one set on its own,
//! for studies that need replacement decisions without lines. Every
//! policy is deterministic given its seed.

pub(crate) mod packed;

pub use packed::SetState;

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
    fn display_names() {
        assert_eq!(PolicyKind::TreePlru.to_string(), "Tree-PLRU");
        assert_eq!(WayMask::all(3).to_string(), "111");
    }
}
