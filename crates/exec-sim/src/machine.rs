//! One physical core: cache hierarchy + processes + memory contents.

use cache_sim::addr::{PhysAddr, VirtAddr};
use cache_sim::counters::PerfCounters;
use cache_sim::hierarchy::{CacheHierarchy, HierarchyOutcome};
use cache_sim::profiles::MicroArch;
use cache_sim::replacement::PolicyKind;
use std::collections::BTreeMap;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

#[derive(Debug, Clone, Default)]
struct AddressSpace {
    /// First virtual page number of the process (its per-pid base).
    base_vpn: u64,
    /// The page table: `frames[i]` backs VPN `base_vpn + i`. Pages
    /// are handed out densely from the base, so a lookup is a bounds
    /// check and an index.
    frames: Vec<u64>,
}

impl AddressSpace {
    /// One past the last mapped VPN (the next one handed out).
    fn end_vpn(&self) -> u64 {
        self.base_vpn + self.frames.len() as u64
    }
}

/// A single physical core with its cache hierarchy, plus the set of
/// processes sharing it.
///
/// The machine is what both the sender's and the receiver's programs
/// run against; it is deliberately *one* core, matching the paper's
/// threat model (§III: the two parties are co-located on one core,
/// hyper-threaded or time-sliced).
///
/// A machine is built once around its hierarchy and keeps it: a run
/// on a non-default hierarchy passes it to [`Machine::with_hierarchy`]
/// rather than swapping it in later, so a run never holds two. On the
/// E5-2690 model the hierarchy is about 4.3 MiB, almost all LLC rows.
///
/// ```
/// use exec_sim::Machine;
/// use cache_sim::profiles::MicroArch;
/// use cache_sim::replacement::PolicyKind;
/// use cache_sim::hierarchy::HitLevel;
///
/// let mut m = Machine::new(
///     MicroArch::sandy_bridge_e5_2690(),
///     PolicyKind::TreePlru,
///     42,
/// );
/// let p = m.create_process();
/// let va = m.alloc_pages(p, 1);
/// assert_eq!(m.access(p, va).level, HitLevel::Mem);
/// assert_eq!(m.access(p, va).level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    arch: MicroArch,
    hierarchy: CacheHierarchy,
    spaces: Vec<AddressSpace>,
    counters: Vec<PerfCounters>,
    memory: BTreeMap<u64, u8>,
    next_frame: u64,
}

impl Machine {
    /// Builds a machine for `arch` with the given L1D replacement
    /// policy: [`Machine::with_hierarchy`] over
    /// `arch.build_hierarchy(l1_policy, seed)`.
    pub fn new(arch: MicroArch, l1_policy: PolicyKind, seed: u64) -> Self {
        Self::with_hierarchy(arch, arch.build_hierarchy(l1_policy, seed))
    }

    /// Builds a machine for `arch` around a hierarchy the caller has
    /// already configured (a prefetcher, a non-default inclusion
    /// model). This is the one way to run on a non-default
    /// hierarchy, so a run never holds a second hierarchy (a full
    /// LLC) alongside the one it uses.
    ///
    /// ```
    /// use exec_sim::Machine;
    /// use cache_sim::hierarchy::Inclusion;
    /// use cache_sim::profiles::MicroArch;
    /// use cache_sim::replacement::PolicyKind;
    ///
    /// let arch = MicroArch::sandy_bridge_e5_2690();
    /// let m = Machine::with_hierarchy(
    ///     arch,
    ///     arch.build_hierarchy(PolicyKind::TreePlru, 42)
    ///         .with_inclusion(Inclusion::NonInclusive),
    /// );
    /// assert_eq!(m.hierarchy().inclusion(), Inclusion::NonInclusive);
    /// ```
    pub fn with_hierarchy(arch: MicroArch, hierarchy: CacheHierarchy) -> Self {
        Self {
            arch,
            hierarchy,
            spaces: Vec::new(),
            counters: Vec::new(),
            memory: BTreeMap::new(),
            // Frame 0 is reserved so a zero PhysAddr is never handed
            // out (helps catch unmapped accesses in tests).
            next_frame: 1,
        }
    }

    /// The platform this machine models.
    pub fn arch(&self) -> &MicroArch {
        &self.arch
    }

    /// The cache hierarchy (for direct inspection in experiments).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Mutable hierarchy access for the block engine, which drives
    /// its accesses straight into the hierarchy. Crate-private: a run
    /// that wants a different hierarchy builds the machine around it
    /// with [`Machine::with_hierarchy`].
    pub(crate) fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// Creates a new process with an empty address space.
    ///
    /// Each process gets a distinct virtual base (an ASLR stand-in),
    /// `0x3571` pages (about 53 MB) above the previous pid's. That
    /// matters for the AMD µtag way predictor (§VI-B — the whole
    /// point is that the two parties use *different* linear addresses
    /// for one shared physical line). The ranges stay disjoint only
    /// while no process maps more pages than that spacing: a larger
    /// one runs into the next pid's base, which debug builds assert
    /// against. The bases are fixed because µtags hash virtual
    /// addresses, so every output depends on them.
    pub fn create_process(&mut self) -> Pid {
        let pid = self.spaces.len() as u64;
        let space = AddressSpace {
            base_vpn: 0x10_000 + pid * 0x3571,
            ..AddressSpace::default()
        };
        self.spaces.push(space);
        self.counters.push(PerfCounters::new());
        debug_assert!(self.spaces_disjoint(), "pid {pid}'s base is mapped");
        Pid(pid as u32)
    }

    /// Allocates `n` fresh private pages and returns the base virtual
    /// address of the region.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist or `n == 0`.
    pub fn alloc_pages(&mut self, pid: Pid, n: u64) -> VirtAddr {
        assert!(n > 0, "cannot allocate zero pages");
        let first = self.next_frame;
        self.next_frame += n;
        self.map_frames(pid, first..first + n)
    }

    /// Maps one *shared* page into two processes (the "shared library
    /// data page" of Algorithm 1). Returns the virtual base address
    /// in each process; the virtual addresses differ (each process
    /// picks its own slot) but both map to the same frame.
    pub fn map_shared_page(&mut self, a: Pid, b: Pid) -> (VirtAddr, VirtAddr) {
        let frame = self.next_frame;
        self.next_frame += 1;
        (self.map_frames(a, [frame]), self.map_frames(b, [frame]))
    }

    /// Translates a virtual address. Returns `None` for unmapped
    /// pages.
    #[inline]
    pub fn translate(&self, pid: Pid, va: VirtAddr) -> Option<PhysAddr> {
        let space = self.space(pid);
        let idx = va.page_number().checked_sub(space.base_vpn)?;
        let frame = *space.frames.get(usize::try_from(idx).ok()?)?;
        Some(PhysAddr::from_frame(frame, va.page_offset()))
    }

    /// Performs a demand load by `pid` at `va`.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped (programs in these experiments
    /// always allocate before touching; a page fault model would only
    /// add noise unrelated to the paper).
    pub fn access(&mut self, pid: Pid, va: VirtAddr) -> HierarchyOutcome {
        let pa = self
            .translate(pid, va)
            .unwrap_or_else(|| panic!("access to unmapped page by {pid:?} at {va}"));
        self.hierarchy
            .access(va, pa, &mut self.counters[pid.0 as usize])
    }

    /// `clflush` of the line containing `va` (requires a mapping).
    pub fn flush(&mut self, pid: Pid, va: VirtAddr) {
        if let Some(pa) = self.translate(pid, va) {
            self.hierarchy.flush(pa);
        }
    }

    /// Where `va` would hit right now (read-only; unmapped → `Mem`).
    pub fn probe_level(&self, pid: Pid, va: VirtAddr) -> cache_sim::hierarchy::HitLevel {
        match self.translate(pid, va) {
            Some(pa) => self.hierarchy.probe_level(pa),
            None => cache_sim::hierarchy::HitLevel::Mem,
        }
    }

    /// Reads the byte stored at `va` (0 if never written). Does not
    /// touch the caches — pair with [`Machine::access`] when the
    /// read should be architectural.
    pub fn read_byte(&self, pid: Pid, va: VirtAddr) -> u8 {
        self.translate(pid, va)
            .and_then(|pa| self.memory.get(&pa.raw()).copied())
            .unwrap_or(0)
    }

    /// Writes a byte at `va` (memory contents only; no cache
    /// traffic).
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped.
    pub fn write_byte(&mut self, pid: Pid, va: VirtAddr, value: u8) {
        let pa = self
            .translate(pid, va)
            .unwrap_or_else(|| panic!("write to unmapped page by {pid:?} at {va}"));
        self.memory.insert(pa.raw(), value);
    }

    /// Writes a byte slice starting at `va`.
    ///
    /// # Panics
    ///
    /// Panics if any touched page is unmapped.
    pub fn write_bytes(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.write_byte(pid, va.add(i as u64), b);
        }
    }

    /// Performance counters accumulated by `pid`.
    pub fn counters(&self, pid: Pid) -> &PerfCounters {
        &self.counters[pid.0 as usize]
    }

    /// Mutable counters (schedulers charge cycles/instructions).
    pub fn counters_mut(&mut self, pid: Pid) -> &mut PerfCounters {
        &mut self.counters[pid.0 as usize]
    }

    /// Resets the counters of every process.
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            c.reset();
        }
    }

    /// Maps `frames` at `pid`'s next free VPNs and returns the
    /// virtual address of the first.
    fn map_frames(&mut self, pid: Pid, frames: impl IntoIterator<Item = u64>) -> VirtAddr {
        let space = self.space_mut(pid);
        let vpn = space.end_vpn();
        space.frames.extend(frames);
        debug_assert!(self.spaces_disjoint(), "{pid:?} grew past a base");
        VirtAddr::from_page(vpn, 0)
    }

    /// The guarantee documented on [`Machine::create_process`]: every
    /// process's mapped range ends at or below the next pid's base.
    fn spaces_disjoint(&self) -> bool {
        self.spaces
            .windows(2)
            .all(|w| w[0].end_vpn() <= w[1].base_vpn)
    }

    fn space(&self, pid: Pid) -> &AddressSpace {
        &self.spaces[pid.0 as usize]
    }

    fn space_mut(&mut self, pid: Pid) -> &mut AddressSpace {
        &mut self.spaces[pid.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::addr::PAGE_SIZE;
    use cache_sim::hierarchy::HitLevel;

    fn machine() -> Machine {
        Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 1)
    }

    #[test]
    fn distinct_processes_get_distinct_frames() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va_a = m.alloc_pages(a, 1);
        let va_b = m.alloc_pages(b, 1);
        assert_ne!(m.translate(a, va_a), m.translate(b, va_b));
    }

    #[test]
    fn shared_page_aliases_one_frame() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let (va_a, va_b) = m.map_shared_page(a, b);
        assert_eq!(
            m.translate(a, va_a).unwrap().page_number(),
            m.translate(b, va_b).unwrap().page_number()
        );
        // A access by `a` makes `b`'s alias hit in L1 (no way
        // predictor on Intel).
        m.access(a, va_a);
        assert_eq!(m.access(b, va_b).level, HitLevel::L1);
    }

    #[test]
    fn page_offset_survives_translation() {
        let mut m = machine();
        let p = m.create_process();
        let base = m.alloc_pages(p, 1);
        let va = base.add(0x2c0);
        assert_eq!(m.translate(p, va).unwrap().page_offset(), 0x2c0);
    }

    #[test]
    fn counters_are_per_process() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va = m.alloc_pages(a, 1);
        m.access(a, va);
        assert_eq!(m.counters(a).l1d_accesses, 1);
        assert_eq!(m.counters(b).l1d_accesses, 0);
    }

    #[test]
    fn memory_contents_round_trip() {
        let mut m = machine();
        let p = m.create_process();
        let va = m.alloc_pages(p, 1);
        m.write_bytes(p, va, b"secret");
        assert_eq!(m.read_byte(p, va.add(2)), b'c');
        assert_eq!(m.read_byte(p, va.add(100)), 0);
    }

    #[test]
    fn shared_memory_contents_visible_to_both() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let (va_a, va_b) = m.map_shared_page(a, b);
        m.write_byte(a, va_a.add(5), 0xab);
        assert_eq!(m.read_byte(b, va_b.add(5)), 0xab);
    }

    #[test]
    fn flush_forces_memory_access() {
        let mut m = machine();
        let p = m.create_process();
        let va = m.alloc_pages(p, 1);
        m.access(p, va);
        m.flush(p, va);
        assert_eq!(m.access(p, va).level, HitLevel::Mem);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_access_panics() {
        let mut m = machine();
        let p = m.create_process();
        let _ = m.access(p, VirtAddr::from_page(999, 0));
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn access_one_page_past_the_mapping_panics() {
        let mut m = machine();
        let p = m.create_process();
        let va = m.alloc_pages(p, 2);
        let _ = m.access(p, va.add(2 * PAGE_SIZE));
    }

    #[test]
    fn translate_is_none_outside_the_mapped_range() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va = m.alloc_pages(a, 4);
        let (first, last) = (va.page_number(), va.page_number() + 3);
        assert_eq!(m.translate(a, VirtAddr::from_page(first - 1, 0xfff)), None);
        assert_eq!(m.translate(a, VirtAddr::from_page(last + 1, 0)), None);
        assert_eq!(m.translate(a, VirtAddr::new(0)), None);
        assert_eq!(m.translate(a, VirtAddr::new(u64::MAX)), None);
        assert!(m.translate(a, VirtAddr::from_page(last, 0xfff)).is_some());
        // `b` has mapped nothing, not even at its own base.
        assert_eq!(
            m.translate(b, VirtAddr::from_page(0x10_000 + 0x3571, 0)),
            None
        );
        assert_eq!(m.translate(b, va), None);
        assert_eq!(
            m.probe_level(a, VirtAddr::from_page(last + 1, 0)),
            HitLevel::Mem
        );
        assert_eq!(m.read_byte(a, VirtAddr::from_page(last + 1, 0)), 0);
    }

    /// The exact layout every experiment's addresses derive from: per-
    /// pid bases `0x3571` pages apart, VPNs handed out densely from
    /// each base, frames in call order from 1. µtags hash virtual
    /// addresses and caches index physical ones, so any change here
    /// changes output bytes.
    #[test]
    fn mixed_mappings_pin_every_address() {
        let mut m = machine();
        let (a, b, c) = (m.create_process(), m.create_process(), m.create_process());
        let a0 = m.alloc_pages(a, 2); // frames 1, 2
        let (a2, b0) = m.map_shared_page(a, b); // frame 3
        let c0 = m.alloc_pages(c, 1); // frame 4
        let (c1, c2) = m.map_shared_page(c, c); // frame 5, twice in `c`
        let b1 = m.alloc_pages(b, 3); // frames 6..=8
        let (b4, a3) = m.map_shared_page(b, a); // frame 9
        let returned = [a0, a2, b0, c0, c1, c2, b1, b4, a3].map(VirtAddr::raw);
        assert_eq!(
            returned,
            [
                0x1000_0000,
                0x1000_2000,
                0x1357_1000,
                0x16ae_2000,
                0x16ae_3000,
                0x16ae_4000,
                0x1357_2000,
                0x1357_5000,
                0x1000_3000,
            ]
        );
        let pins: [(Pid, u64, u64); 14] = [
            (a, 0x1000_0000, 0x1000),
            (a, 0x1000_1fff, 0x2fff),
            (a, 0x1000_22c0, 0x32c0),
            (a, 0x1000_3040, 0x9040),
            (b, 0x1357_1000, 0x3000),
            (b, 0x1357_2000, 0x6000),
            (b, 0x1357_3abc, 0x7abc),
            (b, 0x1357_4000, 0x8000),
            (b, 0x1357_5fc0, 0x9fc0),
            (c, 0x16ae_2000, 0x4000),
            (c, 0x16ae_3100, 0x5100),
            (c, 0x16ae_4100, 0x5100),
            (c, 0x16ae_4fff, 0x5fff),
            (c, 0x16ae_2040, 0x4040),
        ];
        for (pid, va, pa) in pins {
            let got = m.translate(pid, VirtAddr::new(va)).map(PhysAddr::raw);
            assert_eq!(got, Some(pa), "{pid:?} va {va:#x}");
        }
        for (pid, next) in [(a, 0x1000_4000), (b, 0x1357_6000), (c, 0x16ae_5000)] {
            assert_eq!(m.translate(pid, VirtAddr::new(next)), None, "{pid:?}");
        }
    }

    #[test]
    fn a_large_allocation_maps_consecutive_frames() {
        // mcf-sized: 64 MiB of pages in one call.
        let mut m = machine();
        let p = m.create_process();
        let head = m.alloc_pages(p, 1);
        let va = m.alloc_pages(p, 16_384);
        assert_eq!(va.page_number(), head.page_number() + 1);
        for i in 0..16_384 {
            let pa = m.translate(p, va.add(i * PAGE_SIZE + 8)).unwrap();
            assert_eq!(pa.raw(), ((2 + i) << 12) + 8, "page {i}");
        }
        assert_eq!(m.translate(p, va.add(16_384 * PAGE_SIZE)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "grew past a base")]
    fn growing_into_the_next_base_trips_the_debug_check() {
        let mut m = machine();
        let a = m.create_process();
        let _b = m.create_process();
        m.alloc_pages(a, 0x3571);
        m.alloc_pages(a, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "base is mapped")]
    fn a_base_inside_a_grown_process_trips_the_debug_check() {
        let mut m = machine();
        let a = m.create_process();
        m.alloc_pages(a, 16_384);
        m.create_process();
    }
}
