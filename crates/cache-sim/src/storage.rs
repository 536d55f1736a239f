//! Structure-of-arrays line storage shared by [`crate::cache::Cache`]
//! and [`crate::plcache::PlCache`].
//!
//! The original (array-of-structs) layout kept each set as a
//! heap-allocated `Vec<Option<LineMeta>>` plus a per-set policy with
//! its own allocations, so one `access` chased three pointer levels
//! and scanned 24-byte `Option`s for an 8-way tag compare. This
//! layout gives every set one contiguous row in a single flat array:
//!
//! ```text
//! row(set) = [ tag(way 0) .. tag(way N-1) | valid mask | repl words ]
//! ```
//!
//! For the paper's 8-way Tree-PLRU L1 a row is 10 words (80 bytes):
//! a whole lookup — tag compare, valid check, replacement update,
//! victim search — touches one or two host cache lines, and the tag
//! compare itself is a branchless sweep of one 64-byte line. PL-lock
//! and µtag-presence words live in cold side arrays that are skipped
//! entirely (one flag test) until a lock or µtag is first used.
//!
//! The old layout survives as [`crate::reference`], which the
//! `layout_equivalence` suite replays against this one.

use crate::line::LineMeta;
use crate::replacement::packed::{random_streams, ReplPolicy};
use crate::replacement::{PolicyKind, WayMask};
use rand::rngs::SmallRng;

/// Bitmask of ways whose stored tag equals `tag` (validity not yet
/// applied). The 8-way shape — every cache in the paper — compiles
/// to a fully unrolled, vectorizable compare of one 64-byte line.
#[inline(always)]
fn match_mask(tags: &[u64], tag: u64) -> u64 {
    if let Ok(t8) = <&[u64; 8]>::try_from(tags) {
        let mut eq = 0u64;
        for (w, &t) in t8.iter().enumerate() {
            eq |= u64::from(t == tag) << w;
        }
        eq
    } else {
        let mut eq = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            eq |= u64::from(t == tag) << w;
        }
        eq
    }
}

/// The way of a set row's `tags` holding `tag` among the `valid`
/// ways, if any.
///
/// Always inlined, so a caller whose `tags` slice has a constant
/// length (the two-level kernel's 16-way L2) gets the compare
/// unrolled too.
#[inline(always)]
pub(crate) fn find_in_row(tags: &[u64], valid: u64, tag: u64) -> Option<usize> {
    let m = match_mask(tags, tag) & valid;
    if m != 0 {
        Some(m.trailing_zeros() as usize)
    } else {
        None
    }
}

/// One fused demand access on a single set row
/// `[tag(way 0) .. tag(way N-1) | valid mask | repl words]`, given
/// `found`, the way already holding `tag` (if any): the replacement
/// update on a hit, and on a miss the lowest invalid way (else the
/// policy's full-mask victim) + install + `on_fill`.
///
/// Every row-based store — [`SoaStore`], [`crate::one_set::OneSet`]
/// and the levels of [`crate::two_level::TwoLevel`] — runs its
/// demand accesses through this one function; the flat store and the
/// two-level kernel find `found` with [`find_in_row`], the one-set
/// kernel with its tag index. `rng` is the set's Random generator
/// (`None` for every other policy).
///
/// Always inlined, so a caller with a constant way count (the
/// one-set and two-level kernels) gets the victim search unrolled.
#[inline(always)]
pub(crate) fn row_access(
    policy: &ReplPolicy,
    rng: Option<&mut SmallRng>,
    row: &mut [u64],
    ways: usize,
    tag: u64,
    found: Option<usize>,
) -> DemandOutcome {
    // `ways` is in 1..=64, so the shift never overflows.
    let full = u64::MAX >> (64 - ways);
    let (tags, rest) = row.split_at_mut(ways);
    let (valid_word, repl) = rest.split_first_mut().expect("row has a valid word");
    let valid = *valid_word;
    if let Some(w) = found {
        policy.on_access(repl, ways, full, w);
        return DemandOutcome {
            hit: true,
            way: w,
            evicted_tag: None,
        };
    }
    // Miss: lowest invalid way, else the policy's victim.
    let free = !valid & full;
    let (way, evicted_tag) = if free != 0 {
        (free.trailing_zeros() as usize, None)
    } else {
        let w = policy.victim_full(rng, repl, ways);
        (w, Some(tags[w]))
    };
    tags[way] = tag;
    *valid_word = valid | (1 << way);
    policy.on_fill(repl, ways, full, way);
    DemandOutcome {
        hit: false,
        way,
        evicted_tag,
    }
}

/// Result of one fused [`row_access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DemandOutcome {
    /// Whether the tag was already present.
    pub hit: bool,
    /// The way the line now occupies.
    pub way: usize,
    /// Tag evicted to make room, if a valid line was displaced.
    pub evicted_tag: Option<u64>,
}

/// Flat row-per-set storage for every line of one cache level.
#[derive(Debug, Clone)]
pub(crate) struct SoaStore {
    ways: usize,
    /// Words per set row: `ways` tags + 1 valid word + repl words.
    stride: usize,
    /// Bitmask of all ways (`WayMask::all(ways)`), precomputed.
    full_mask: u64,
    /// The set rows, `sets × stride` words.
    words: Vec<u64>,
    /// Cold side arrays: per-set PL-lock and µtag-presence masks,
    /// flat µtag values.
    locked: Vec<u64>,
    utagged: Vec<u64>,
    utags: Vec<u16>,
    /// Whether any lock bit was ever set — while false, all lock
    /// maintenance is a single flag test.
    uses_locks: bool,
    /// Same, for µtags (only way-predictor hierarchies train them).
    uses_utags: bool,
    repl: ReplPolicy,
    /// Per-set Random generators (empty for every other policy).
    rngs: Vec<SmallRng>,
}

impl SoaStore {
    /// Empty storage for `sets × ways` lines under `kind`.
    pub(crate) fn new(kind: PolicyKind, sets: usize, ways: usize, seed: u64) -> Self {
        assert!(ways <= 64, "way masks support at most 64 ways");
        let stride = ways + 1 + ReplPolicy::words_per_set(kind, ways);
        Self {
            ways,
            stride,
            full_mask: WayMask::all(ways).bits(),
            words: vec![0; sets * stride],
            locked: vec![0; sets],
            utagged: vec![0; sets],
            utags: vec![0; sets * ways],
            uses_locks: false,
            uses_utags: false,
            repl: ReplPolicy::new(kind, ways),
            rngs: random_streams(kind, sets, seed),
        }
    }

    /// Associativity.
    #[inline]
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// This set's row split into `(tags, valid-and-repl)`.
    #[inline]
    fn row(&self, set: usize) -> &[u64] {
        &self.words[set * self.stride..(set + 1) * self.stride]
    }

    /// Valid mask of `set`.
    #[inline]
    pub(crate) fn valid_bits(&self, set: usize) -> u64 {
        self.words[set * self.stride + self.ways]
    }

    /// One fused demand access ([`row_access`] on the set's row):
    /// exactly equivalent to `find_way` + `touch` /
    /// `choose_fill_way(WayMask::all(ways))` + `install` +
    /// `record_fill`, but the whole lookup+update works inside one
    /// contiguous row — this is the path the covert-channel
    /// experiments hammer millions of times per trial.
    #[inline]
    pub(crate) fn demand_access(&mut self, set: usize, tag: u64) -> DemandOutcome {
        let found = self.find_way(set, tag);
        let row = &mut self.words[set * self.stride..(set + 1) * self.stride];
        let out = row_access(
            &self.repl,
            self.rngs.get_mut(set),
            row,
            self.ways,
            tag,
            found,
        );
        if !out.hit {
            // The fill replaced the way's line: drop its lock and µtag.
            let bit = 1u64 << out.way;
            if self.uses_locks {
                self.locked[set] &= !bit;
            }
            if self.uses_utags {
                self.utagged[set] &= !bit;
            }
        }
        out
    }

    /// The way of `set` holding `tag`, if present.
    #[inline]
    pub(crate) fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let row = self.row(set);
        find_in_row(&row[..self.ways], row[self.ways], tag)
    }

    /// Lowest invalid way of `set`, if any.
    #[inline]
    pub(crate) fn first_invalid(&self, set: usize) -> Option<usize> {
        let free = !self.valid_bits(set) & self.full_mask;
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// Number of valid lines in `set`.
    #[inline]
    pub(crate) fn valid_count(&self, set: usize) -> usize {
        self.valid_bits(set).count_ones() as usize
    }

    /// Whether `way` of `set` holds a valid line.
    #[inline]
    pub(crate) fn is_valid(&self, set: usize, way: usize) -> bool {
        (self.valid_bits(set) >> way) & 1 == 1
    }

    /// Whether `way` of `set` holds a valid, PL-locked line.
    #[inline]
    pub(crate) fn is_locked(&self, set: usize, way: usize) -> bool {
        self.uses_locks && (self.locked[set] >> way) & 1 == 1
    }

    /// Sets or clears the PL-lock bit of a valid line.
    #[inline]
    pub(crate) fn set_locked(&mut self, set: usize, way: usize, locked: bool) {
        if locked {
            self.uses_locks = true;
            self.locked[set] |= 1 << way;
        } else if self.uses_locks {
            self.locked[set] &= !(1 << way);
        }
    }

    /// Mask of ways of `set` holding locked lines.
    #[inline]
    pub(crate) fn locked_mask(&self, set: usize) -> WayMask {
        WayMask::from_bits(self.locked[set])
    }

    /// Tag stored in `way` of `set` (meaningful only when valid).
    #[inline]
    pub(crate) fn tag(&self, set: usize, way: usize) -> u64 {
        self.words[set * self.stride + way]
    }

    /// µtag of the line in `way` of `set`, if one was trained.
    #[inline]
    pub(crate) fn utag(&self, set: usize, way: usize) -> Option<u16> {
        if self.uses_utags && (self.utagged[set] >> way) & 1 == 1 {
            Some(self.utags[set * self.ways + way])
        } else {
            None
        }
    }

    /// Trains or clears the µtag of a valid line.
    #[inline]
    pub(crate) fn set_utag(&mut self, set: usize, way: usize, utag: Option<u16>) {
        match utag {
            Some(t) => {
                self.uses_utags = true;
                self.utagged[set] |= 1 << way;
                self.utags[set * self.ways + way] = t;
            }
            None => {
                if self.uses_utags {
                    self.utagged[set] &= !(1 << way);
                }
            }
        }
    }

    /// Assembles the metadata of `way` of `set`, if valid.
    pub(crate) fn line_meta(&self, set: usize, way: usize) -> Option<LineMeta> {
        if !self.is_valid(set, way) {
            return None;
        }
        Some(LineMeta {
            tag: self.tag(set, way),
            locked: self.is_locked(set, way),
            utag: self.utag(set, way),
        })
    }

    /// Installs `meta` into `way` of `set`, returning the evicted
    /// occupant's metadata.
    #[inline]
    pub(crate) fn install(&mut self, set: usize, way: usize, meta: LineMeta) -> Option<LineMeta> {
        let old = self.line_meta(set, way);
        self.words[set * self.stride + way] = meta.tag;
        let vidx = set * self.stride + self.ways;
        self.words[vidx] |= 1 << way;
        self.set_locked(set, way, meta.locked);
        self.set_utag(set, way, meta.utag);
        old
    }

    /// Invalidates `way` of `set`, returning the evicted metadata.
    #[inline]
    pub(crate) fn invalidate(&mut self, set: usize, way: usize) -> Option<LineMeta> {
        let old = self.line_meta(set, way);
        let clear = !(1u64 << way);
        let vidx = set * self.stride + self.ways;
        self.words[vidx] &= clear;
        if self.uses_locks {
            self.locked[set] &= clear;
        }
        if self.uses_utags {
            self.utagged[set] &= clear;
        }
        old
    }

    /// Records a hit on `way` of `set` in the replacement state.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        let ways = self.ways;
        let full = self.full_mask;
        let repl = &mut self.words[set * self.stride + ways + 1..(set + 1) * self.stride];
        self.repl.on_access(repl, ways, full, way);
    }

    /// Records a fill of `way` of `set` in the replacement state.
    #[inline]
    pub(crate) fn record_fill(&mut self, set: usize, way: usize) {
        let ways = self.ways;
        let full = self.full_mask;
        let repl = &mut self.words[set * self.stride + ways + 1..(set + 1) * self.stride];
        self.repl.on_fill(repl, ways, full, way);
    }

    /// The way a new line of `set` should go to: the lowest allowed
    /// invalid way if one exists, otherwise the policy's victim.
    #[inline]
    pub(crate) fn choose_fill_way(&mut self, set: usize, allowed: WayMask) -> usize {
        match self.first_invalid(set) {
            // Mirror the reference semantics exactly: only the
            // *lowest* invalid way is considered, and only if the
            // mask allows it.
            Some(w) if allowed.contains(w) => w,
            _ => {
                let ways = self.ways;
                let repl = &self.words[set * self.stride + ways + 1..(set + 1) * self.stride];
                self.repl
                    .victim_among(self.rngs.get_mut(set), repl, ways, allowed)
            }
        }
    }

    /// Replacement-state words of `set` (for inspection).
    pub(crate) fn repl_words(&self, set: usize) -> Vec<u64> {
        self.words[set * self.stride + self.ways + 1..(set + 1) * self.stride].to_vec()
    }

    /// Clears every line and resets replacement state (the Random
    /// generators keep their streams: they are part of the
    /// simulation, not of the cache state).
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.locked.fill(0);
        self.utagged.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store8() -> SoaStore {
        SoaStore::new(PolicyKind::Lru, 4, 8, 0)
    }

    #[test]
    fn install_find_invalidate_round_trip() {
        let mut s = store8();
        assert_eq!(s.find_way(1, 42), None);
        assert_eq!(s.install(1, 3, LineMeta::new(42)), None);
        assert_eq!(s.find_way(1, 42), Some(3));
        assert_eq!(s.valid_count(1), 1);
        // Other sets unaffected.
        assert_eq!(s.find_way(0, 42), None);
        let old = s.invalidate(1, 3);
        assert_eq!(old, Some(LineMeta::new(42)));
        assert_eq!(s.find_way(1, 42), None);
    }

    #[test]
    fn install_preserves_lock_and_utag_flags() {
        let mut s = store8();
        s.install(0, 2, LineMeta::with_utag(7, 0xab));
        assert_eq!(s.utag(0, 2), Some(0xab));
        s.set_locked(0, 2, true);
        assert!(s.is_locked(0, 2));
        let old = s.install(0, 2, LineMeta::new(9));
        assert_eq!(
            old,
            Some(LineMeta {
                tag: 7,
                locked: true,
                utag: Some(0xab)
            })
        );
        // Fresh line: lock and µtag cleared.
        assert!(!s.is_locked(0, 2));
        assert_eq!(s.utag(0, 2), None);
    }

    #[test]
    fn fills_lowest_invalid_way_first() {
        let mut s = store8();
        for i in 0..8u64 {
            let w = s.choose_fill_way(2, WayMask::all(8));
            assert_eq!(w, i as usize);
            s.install(2, w, LineMeta::new(i));
            s.record_fill(2, w);
        }
        assert_eq!(s.first_invalid(2), None);
        // Full set defers to the policy (LRU: way 0 was filled first).
        assert_eq!(s.choose_fill_way(2, WayMask::all(8)), 0);
    }

    #[test]
    fn masked_fill_skips_disallowed_invalid_way() {
        // Reference semantics: only the lowest invalid way counts; if
        // the mask excludes it, the policy victim is used instead.
        let mut s = store8();
        s.install(0, 1, LineMeta::new(5));
        s.record_fill(0, 1);
        // Way 0 is the lowest invalid way but the mask excludes it.
        let w = s.choose_fill_way(0, WayMask::all(8).without(0));
        // LRU victim among ways 1..8 with way 1 stamped: ways 2.. are
        // age 0, lowest wins — but way 0 excluded, so 2.
        assert_eq!(w, 2);
    }

    #[test]
    fn demand_access_equals_compositional_path() {
        let mut fused = store8();
        let mut manual = store8();
        let mut x = 5u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let set = (x >> 50) as usize % 4;
            let tag = (x >> 20) % 32;
            let fast = fused.demand_access(set, tag);
            let slow = {
                if let Some(w) = manual.find_way(set, tag) {
                    manual.touch(set, w);
                    DemandOutcome {
                        hit: true,
                        way: w,
                        evicted_tag: None,
                    }
                } else {
                    let w = manual.choose_fill_way(set, WayMask::all(8));
                    let old = manual.install(set, w, LineMeta::new(tag));
                    manual.record_fill(set, w);
                    DemandOutcome {
                        hit: false,
                        way: w,
                        evicted_tag: old.map(|m| m.tag),
                    }
                }
            };
            assert_eq!(fast, slow);
            assert_eq!(fused.repl_words(set), manual.repl_words(set));
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = store8();
        s.install(0, 0, LineMeta::new(1));
        s.set_locked(0, 0, true);
        s.touch(0, 0);
        s.clear();
        assert_eq!(s.valid_count(0), 0);
        assert_eq!(s.locked_mask(0), WayMask::EMPTY);
        assert_eq!(
            s.repl_words(0),
            SoaStore::new(PolicyKind::Lru, 4, 8, 0).repl_words(0)
        );
    }
}
