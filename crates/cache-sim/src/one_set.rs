//! A one-set cache kernel for studies that replay short access
//! sequences against a single set many thousands of times.
//!
//! [`OneSet`] is one set of a [`Cache`](crate::cache::Cache) as a
//! fixed-size value: its tags, valid word and replacement-state words
//! sit inline in one array row, laid out exactly like a row of the
//! flat storage, and Random's generator sits beside it. Building one
//! allocates nothing. An access finds its line through a tag→way byte
//! index (lines are named by small tags, `0..MAX_TAG`) instead of a
//! tag compare, then runs the same fused row access
//! (`storage::row_access`) and the same packed `ReplPolicy` logic
//! that `Cache::access` runs — so there is no second copy of any
//! policy's semantics to keep in step.
//!
//! The Table I study (`lru_channel::plru_study`) builds one per
//! trial, and each lockstep covert lane (`lru_channel::lockstep`)
//! runs its channel's L1 target set on one; the workspace
//! `plru_kernel` suite pins it against a `Cache` for every policy.

use crate::replacement::packed::{set_seed, ReplPolicy};
use crate::replacement::PolicyKind;
use crate::storage::row_access;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Associativity of a [`OneSet`] (the paper's 8-way L1D).
pub const WAYS: usize = 8;

/// Lines a [`OneSet`] can name: tags `0..MAX_TAG`.
pub const MAX_TAG: u64 = 16;

/// Row words: `WAYS` tags, the valid word, and the largest
/// replacement state (LRU/FIFO: a clock plus one stamp per way).
const ROW: usize = WAYS + 1 + 1 + WAYS;

/// `way_of` entry of a line that is not resident.
const ABSENT: u8 = u8::MAX;

/// One 8-way cache set held inline: tags, validity and replacement
/// state.
///
/// Behaves exactly like set `set` of an 8-way
/// [`Cache`](crate::cache::Cache) built with the same policy and
/// seed, with line tags standing in for addresses. The way count is
/// a constant so the compiler unrolls the victim searches.
///
/// ```
/// use cache_sim::one_set::OneSet;
/// use cache_sim::PolicyKind;
/// let mut set = OneSet::new(PolicyKind::Lru, 0, 0);
/// for tag in 0..8 {
///     assert!(!set.access(tag));
/// }
/// assert!(set.access(0));
/// // A ninth line evicts the least recently used one, line 1.
/// assert!(!set.access(8));
/// assert!(!set.probe(1));
/// ```
#[derive(Debug, Clone)]
pub struct OneSet {
    /// `[tag(way 0) .. tag(way N-1) | valid mask | repl words]`.
    /// Policies with fewer state words leave the tail at zero, so
    /// the whole fixed-size row is passed on every access and the
    /// compiler sees constant slice bounds.
    row: [u64; ROW],
    /// `way_of[tag]` = the way holding line `tag`, or [`ABSENT`]:
    /// an index over the row's valid tags, updated on every fill.
    way_of: [u8; MAX_TAG as usize],
    policy: ReplPolicy,
    /// Random's generator, seeded like the same set of a `Cache`
    /// (`None` for every other policy).
    rng: Option<SmallRng>,
}

impl OneSet {
    /// An empty set under `kind`, standing for set index `set` of a
    /// cache built with `seed`: Random's generator is seeded exactly
    /// as [`Cache::new`](crate::cache::Cache::new) seeds that set.
    /// Every other policy ignores both.
    pub fn new(kind: PolicyKind, seed: u64, set: u64) -> Self {
        Self {
            row: [0; ROW],
            way_of: [ABSENT; MAX_TAG as usize],
            policy: ReplPolicy::new(kind, WAYS),
            rng: (kind == PolicyKind::Random).then(|| SmallRng::seed_from_u64(set_seed(seed, set))),
        }
    }

    /// Demand access to line `tag`; returns whether it hit. A miss
    /// installs the line, evicting the policy's victim when the set
    /// is full.
    ///
    /// # Panics
    ///
    /// Panics if `tag >= MAX_TAG`.
    #[inline(always)]
    pub fn access(&mut self, tag: u64) -> bool {
        let found = self.way_of(tag);
        let out = row_access(
            &self.policy,
            self.rng.as_mut(),
            &mut self.row,
            WAYS,
            tag,
            found,
        );
        if !out.hit {
            if let Some(old) = out.evicted_tag {
                self.way_of[old as usize] = ABSENT;
            }
            self.way_of[tag as usize] = out.way as u8;
        }
        out.hit
    }

    /// The way holding line `tag`, if resident (no state change).
    ///
    /// # Panics
    ///
    /// Panics if `tag >= MAX_TAG`.
    #[inline]
    pub fn way_of(&self, tag: u64) -> Option<usize> {
        match self.way_of[tag as usize] {
            ABSENT => None,
            w => Some(usize::from(w)),
        }
    }

    /// Whether line `tag` is resident (no state change).
    ///
    /// # Panics
    ///
    /// Panics if `tag >= MAX_TAG`.
    #[inline]
    pub fn probe(&self, tag: u64) -> bool {
        self.way_of(tag).is_some()
    }
}
