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
//! and µtag words live in cold side arrays, allocated on first use.
//! Until the first lock is set, the lock array is empty: every lock
//! read answers "unlocked" and lock maintenance is one emptiness
//! test. The µtag arrays work the same way. Most caches never lock a
//! line or train a µtag, so they never allocate these arrays; on the
//! 16 MiB LLC they would take 768 KiB.
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
    /// Cold side array: per-set PL-lock masks. Empty until the first
    /// lock is set ([`SoaStore::set_locked`]); an empty array reads
    /// as all zeros.
    locked: Vec<u64>,
    /// Cold side arrays: per-set µtag-presence masks and flat µtag
    /// values. Both empty until the first µtag is trained
    /// ([`SoaStore::set_utag`]; only way-predictor hierarchies train
    /// them).
    utagged: Vec<u64>,
    utags: Vec<u16>,
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
            locked: Vec::new(),
            utagged: Vec::new(),
            utags: Vec::new(),
            repl: ReplPolicy::new(kind, ways),
            rngs: random_streams(kind, sets, seed),
        }
    }

    /// Associativity.
    #[inline]
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    #[inline]
    fn sets(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Whether a lock was ever set (the lock array is allocated).
    #[inline]
    fn uses_locks(&self) -> bool {
        !self.locked.is_empty()
    }

    /// Whether a µtag was ever trained (the µtag arrays are
    /// allocated).
    #[inline]
    fn uses_utags(&self) -> bool {
        !self.utagged.is_empty()
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
            if self.uses_locks() {
                self.locked[set] &= !bit;
            }
            if self.uses_utags() {
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
        self.uses_locks() && (self.locked[set] >> way) & 1 == 1
    }

    /// Sets or clears the PL-lock bit of a valid line. The first lock
    /// allocates the lock array.
    #[inline]
    pub(crate) fn set_locked(&mut self, set: usize, way: usize, locked: bool) {
        if locked {
            if !self.uses_locks() {
                self.locked = vec![0; self.sets()];
            }
            self.locked[set] |= 1 << way;
        } else if self.uses_locks() {
            self.locked[set] &= !(1 << way);
        }
    }

    /// Mask of ways of `set` holding locked lines.
    #[inline]
    pub(crate) fn locked_mask(&self, set: usize) -> WayMask {
        if self.uses_locks() {
            WayMask::from_bits(self.locked[set])
        } else {
            WayMask::EMPTY
        }
    }

    /// Tag stored in `way` of `set` (meaningful only when valid).
    #[inline]
    pub(crate) fn tag(&self, set: usize, way: usize) -> u64 {
        self.words[set * self.stride + way]
    }

    /// µtag of the line in `way` of `set`, if one was trained.
    #[inline]
    pub(crate) fn utag(&self, set: usize, way: usize) -> Option<u16> {
        if self.uses_utags() && (self.utagged[set] >> way) & 1 == 1 {
            Some(self.utags[set * self.ways + way])
        } else {
            None
        }
    }

    /// Trains or clears the µtag of a valid line. The first trained
    /// µtag allocates the µtag arrays.
    #[inline]
    pub(crate) fn set_utag(&mut self, set: usize, way: usize, utag: Option<u16>) {
        match utag {
            Some(t) => {
                if !self.uses_utags() {
                    let sets = self.sets();
                    self.utagged = vec![0; sets];
                    self.utags = vec![0; sets * self.ways];
                }
                self.utagged[set] |= 1 << way;
                self.utags[set * self.ways + way] = t;
            }
            None => {
                if self.uses_utags() {
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
        if self.uses_locks() {
            self.locked[set] &= clear;
        }
        if self.uses_utags() {
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
    /// simulation, not of the cache state). Side arrays already
    /// allocated stay allocated, zeroed.
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

    /// The side arrays' allocation state: (lock array, µtag arrays).
    fn allocated(s: &SoaStore) -> (bool, bool) {
        assert_eq!(s.utagged.is_empty(), s.utags.is_empty());
        (s.uses_locks(), s.uses_utags())
    }

    #[test]
    fn side_arrays_are_allocated_on_first_use() {
        let mut s = store8();
        assert_eq!(allocated(&s), (false, false));
        // Installs, clears, invalidations and fills that carry no
        // lock or µtag leave both arrays unallocated.
        s.install(1, 2, LineMeta::new(5));
        s.set_locked(1, 2, false);
        s.set_utag(1, 2, None);
        s.demand_access(3, 9);
        s.invalidate(1, 2);
        s.clear();
        assert_eq!(allocated(&s), (false, false));
        s.install(0, 1, LineMeta::new(7));
        s.set_locked(0, 1, true);
        assert_eq!(allocated(&s), (true, false));
        assert_eq!((s.locked.len(), s.locked_mask(0).bits()), (4, 0b10));
        s.set_utag(0, 1, Some(3));
        assert_eq!(allocated(&s), (true, true));
        assert_eq!((s.utagged.len(), s.utags.len()), (4, 32));
        // A µtag alone allocates only the µtag arrays.
        let mut u = store8();
        u.install(2, 0, LineMeta::with_utag(1, 0xcd));
        assert_eq!(allocated(&u), (false, true));
        // Once allocated, the arrays stay allocated (zeroed) across
        // `clear`.
        s.clear();
        assert_eq!(allocated(&s), (true, true));
        assert_eq!(s.locked_mask(0), WayMask::EMPTY);
    }

    #[test]
    fn lazy_side_arrays_answer_as_an_eager_store() {
        // An eager model of every way's metadata, replayed against the
        // store over a random mix of operations that crosses the
        // first lock and the first µtag: every read must agree at
        // every step, before the arrays exist and after.
        const SETS: usize = 4;
        let mut s = store8();
        let mut model = [[None::<LineMeta>; 8]; SETS];
        let mut x = 17u64;
        let mut crossed = (false, false);
        for step in 0..4000usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let set = (x >> 33) as usize % SETS;
            let way = (x >> 40) as usize % 8;
            let tag = (x >> 48) % 24;
            // Stay lock- and µtag-free for the first stretch, so the
            // unallocated reads are checked against a populated store.
            let op = if step < 400 {
                (x >> 20) % 4
            } else {
                (x >> 20) % 9
            };
            match op {
                0 => {
                    let old = s.install(set, way, LineMeta::new(tag));
                    assert_eq!(old, model[set][way]);
                    model[set][way] = Some(LineMeta::new(tag));
                }
                1 => {
                    assert_eq!(s.invalidate(set, way), model[set][way]);
                    model[set][way] = None;
                }
                2 => {
                    let out = s.demand_access(set, tag);
                    if !out.hit {
                        model[set][out.way] = Some(LineMeta::new(tag));
                    }
                }
                3 if step.is_multiple_of(97) => {
                    s.clear();
                    model = [[None; 8]; SETS];
                }
                4 | 5 => {
                    if let Some(m) = model[set][way].as_mut() {
                        let lock = op == 4;
                        s.set_locked(set, way, lock);
                        m.locked = lock;
                    }
                }
                6 | 7 => {
                    if let Some(m) = model[set][way].as_mut() {
                        let utag = (op == 6).then_some(tag as u16 ^ 0x5a);
                        s.set_utag(set, way, utag);
                        m.utag = utag;
                    }
                }
                8 => {
                    let meta = LineMeta {
                        tag,
                        locked: tag.is_multiple_of(2),
                        utag: tag.is_multiple_of(3).then_some(tag as u16),
                    };
                    assert_eq!(s.install(set, way, meta), model[set][way]);
                    model[set][way] = Some(meta);
                }
                _ => {}
            }
            let (locks, utags) = allocated(&s);
            crossed = (crossed.0 || locks, crossed.1 || utags);
            for (set, lines) in model.iter().enumerate() {
                let mut locked = WayMask::EMPTY;
                for (way, line) in lines.iter().enumerate() {
                    assert_eq!(s.line_meta(set, way), *line, "step {step}");
                    assert_eq!(s.utag(set, way), line.and_then(|m| m.utag));
                    if line.is_some_and(|m| m.locked) {
                        locked = locked.with(way);
                    }
                }
                assert_eq!(s.locked_mask(set), locked, "step {step}");
            }
        }
        assert_eq!(crossed, (true, true), "the run must allocate both");
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
