//! One cache set: ways plus replacement state.

use crate::replacement::{Policy, SetReplacement};
use cache_sim::line::LineMeta;
use cache_sim::replacement::WayMask;

/// A single cache set: `ways` line slots and the replacement state
/// that arbitrates between them.
#[derive(Debug, Clone)]
pub struct CacheSet {
    lines: Vec<Option<LineMeta>>,
    policy: Policy,
}

impl CacheSet {
    /// Creates an empty set with the given replacement policy.
    pub fn new(policy: Policy) -> Self {
        let ways = policy.ways();
        Self {
            lines: vec![None; ways],
            policy,
        }
    }

    /// Associativity of the set.
    pub fn ways(&self) -> usize {
        self.lines.len()
    }

    /// Finds the way holding `tag`, if present.
    pub fn find_way(&self, tag: u64) -> Option<usize> {
        self.lines
            .iter()
            .position(|l| l.map(|m| m.tag) == Some(tag))
    }

    /// Lowest-indexed invalid way, if any.
    pub fn first_invalid(&self) -> Option<usize> {
        self.lines.iter().position(Option::is_none)
    }

    /// Number of valid lines.
    pub fn valid_count(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }

    /// Metadata of the line in `way`, if valid.
    pub fn line(&self, way: usize) -> Option<&LineMeta> {
        self.lines[way].as_ref()
    }

    /// Mask of ways holding locked lines (PL cache).
    pub fn locked_mask(&self) -> WayMask {
        let mut mask = WayMask::EMPTY;
        for (w, l) in self.lines.iter().enumerate() {
            if l.map(|m| m.locked) == Some(true) {
                mask = mask.with(w);
            }
        }
        mask
    }

    /// Installs `meta` into `way`, returning the previous occupant.
    pub fn install(&mut self, way: usize, meta: LineMeta) -> Option<LineMeta> {
        self.lines[way].replace(meta)
    }

    /// Invalidates `way`, returning the evicted metadata.
    pub fn invalidate(&mut self, way: usize) -> Option<LineMeta> {
        self.lines[way].take()
    }

    /// The set's replacement state.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Records a hit on `way` in the replacement state.
    pub fn record_access(&mut self, way: usize) {
        self.policy.touch(way);
    }

    /// Records a fill of `way` in the replacement state.
    pub fn record_fill(&mut self, way: usize) {
        self.policy.fill(way);
    }

    /// Chooses the way a new line should go to: an invalid way if one
    /// exists, otherwise the policy's victim among `allowed`.
    pub fn choose_fill_way(&mut self, allowed: WayMask) -> usize {
        self.first_invalid()
            .filter(|&w| allowed.contains(w))
            .unwrap_or_else(|| self.policy.victim_among(allowed))
    }

    /// Clears all lines and resets the replacement state.
    pub fn clear(&mut self) {
        self.lines.fill(None);
        self.policy.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::replacement::PolicyKind;

    fn set8() -> CacheSet {
        CacheSet::new(Policy::new(PolicyKind::Lru, 8, 0))
    }

    #[test]
    fn fills_invalid_ways_first_in_order() {
        let mut s = set8();
        for tag in 0..8u64 {
            let w = s.choose_fill_way(WayMask::all(8));
            assert_eq!(w, tag as usize, "invalid ways fill lowest-first");
            assert_eq!(s.install(w, LineMeta::new(tag)), None);
            s.record_fill(w);
        }
        assert_eq!(s.valid_count(), 8);
        assert_eq!(s.first_invalid(), None);
    }

    #[test]
    fn find_way_locates_tags() {
        let mut s = set8();
        s.install(3, LineMeta::new(77));
        assert_eq!(s.find_way(77), Some(3));
        assert_eq!(s.find_way(78), None);
    }

    #[test]
    fn full_set_uses_policy_victim() {
        let mut s = set8();
        for tag in 0..8u64 {
            let w = s.choose_fill_way(WayMask::all(8));
            s.install(w, LineMeta::new(tag));
            s.record_fill(w);
        }
        // LRU: way 0 was filled first, so it is the victim.
        assert_eq!(s.choose_fill_way(WayMask::all(8)), 0);
    }

    #[test]
    fn locked_mask_reports_locked_ways() {
        let mut s = set8();
        s.install(
            2,
            LineMeta {
                locked: true,
                ..LineMeta::new(5)
            },
        );
        s.install(4, LineMeta::new(6));
        assert_eq!(s.locked_mask().iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn invalidate_returns_old_line() {
        let mut s = set8();
        s.install(1, LineMeta::new(9));
        assert_eq!(s.invalidate(1), Some(LineMeta::new(9)));
        assert_eq!(s.invalidate(1), None);
        assert_eq!(s.valid_count(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = set8();
        s.install(0, LineMeta::new(1));
        s.record_access(0);
        s.clear();
        assert_eq!(s.valid_count(), 0);
    }
}
