//! Disclosure primitives for transient-execution attacks (§VIII).
//!
//! A Spectre attack needs two halves: transient access to the secret
//! and a *disclosure primitive* that carries the transiently-touched
//! value to the attacker. The paper's observation is that its LRU
//! channels slot into exactly the same place as Flush+Reload — the
//! victim code is unchanged — while needing a much smaller
//! speculation window, because the transient probe access may be a
//! cache *hit*.
//!
//! All primitives here recover a 6-bit symbol `v ∈ 0..63`: the
//! paper's demonstration uses 63 of the 64 L1 sets (one is reserved
//! for the receiver's pointer-chase chain), with the probe array
//! indexed at 64-byte stride so the L1 set *is* the value.

use cache_sim::addr::VirtAddr;
use rand::rngs::SmallRng;
use rand::Rng;

use exec_sim::machine::{Machine, Pid};
use exec_sim::measure::{rdtscp_single, LatencyProbe};
use lru_channel::params::Platform;
use lru_channel::setup::alloc_set_lines;

/// Number of recoverable symbol values (63 usable sets).
pub const SYMBOL_VALUES: u8 = 63;

/// The channels the paper compares (Tables V–VII, §VIII): the two
/// Flush+Reload flavours and the two LRU algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Flush+Reload, `clflush` flavour (the line starts in memory).
    FlushReload,
    /// Flush+Reload, L1-eviction-set flavour (the line starts in L2).
    FlushReloadL1,
    /// LRU Algorithm 1.
    LruAlg1,
    /// LRU Algorithm 2.
    LruAlg2,
}

impl Channel {
    /// Paper table label.
    pub fn label(self) -> &'static str {
        match self {
            Channel::FlushReload => "F+R (mem)",
            Channel::FlushReloadL1 => "F+R (L1)",
            Channel::LruAlg1 => "L1 LRU Alg.1",
            Channel::LruAlg2 => "L1 LRU Alg.2",
        }
    }

    /// Builds this channel's disclosure primitive over the victim's
    /// probe array `array2`. Both Flush+Reload flavours disclose
    /// through the `clflush` [`FlushReloadPrimitive`]; the L1 flavour
    /// differs only in how a covert receiver evicts (Tables V, VI).
    pub fn primitive(
        self,
        machine: &mut Machine,
        pid: Pid,
        array2: VirtAddr,
        platform: Platform,
    ) -> Box<dyn DisclosurePrimitive> {
        match self {
            Channel::FlushReload | Channel::FlushReloadL1 => {
                Box::new(FlushReloadPrimitive::new(pid, array2, platform))
            }
            Channel::LruAlg1 => Box::new(LruAlg1Primitive::new(machine, pid, array2, platform)),
            Channel::LruAlg2 => Box::new(LruAlg2Primitive::new(machine, pid, array2, platform)),
        }
    }
}

/// A mechanism for recovering which probe line the victim touched
/// transiently.
pub trait DisclosurePrimitive {
    /// Establishes the pre-attack cache/LRU state. Called after
    /// predictor training, immediately before the victim's
    /// malicious invocation.
    fn prepare(&mut self, machine: &mut Machine);

    /// Reads the state back and returns **every** candidate value
    /// observed. `rng` drives the random scan order of Appendix C.
    ///
    /// Candidates are raw: the gadget's own `array1[x]` load and
    /// prefetcher shadows show up too. The attack driver cancels
    /// those with baseline (in-bounds) rounds and majority voting —
    /// see [`crate::spectre::SpectreAttack`].
    fn decode(&mut self, machine: &mut Machine, rng: &mut SmallRng) -> Vec<u8>;
}

/// Scan order helper: 0..SYMBOL_VALUES shuffled (Appendix C: "the
/// cache sets are accessed in a different random order" each round,
/// so prefetcher pollution decorrelates across rounds).
fn shuffled_values(rng: &mut SmallRng) -> Vec<u8> {
    let mut vals: Vec<u8> = (0..SYMBOL_VALUES).collect();
    for i in (1..vals.len()).rev() {
        vals.swap(i, rng.gen_range(0..=i));
    }
    vals
}

/// Flush+Reload as the disclosure primitive (the classic Spectre
/// PoC): flush all probe lines, let the victim run, reload each and
/// time it with `rdtscp` (memory vs. cached is visible even to the
/// naive timer).
#[derive(Debug, Clone)]
pub struct FlushReloadPrimitive {
    pid: Pid,
    array2: VirtAddr,
    platform: Platform,
}

impl FlushReloadPrimitive {
    /// Builds the primitive over the victim's probe array.
    pub fn new(pid: Pid, array2: VirtAddr, platform: Platform) -> Self {
        Self {
            pid,
            array2,
            platform,
        }
    }

    fn probe_line(&self, v: u8) -> VirtAddr {
        self.array2.add(v as u64 * 64)
    }
}

impl DisclosurePrimitive for FlushReloadPrimitive {
    fn prepare(&mut self, machine: &mut Machine) {
        for v in 0..SYMBOL_VALUES {
            machine.flush(self.pid, self.probe_line(v));
        }
    }

    fn decode(&mut self, machine: &mut Machine, rng: &mut SmallRng) -> Vec<u8> {
        // Anything measurably below a memory round trip is cached.
        let mem_floor = self.platform.tsc.overhead + self.platform.arch.latencies.mem / 2;
        let mut found = Vec::new();
        for v in shuffled_values(rng) {
            let meas = rdtscp_single(
                machine,
                self.pid,
                self.probe_line(v),
                &self.platform.tsc,
                rng,
            );
            if meas.measured < mem_floor {
                found.push(v);
            }
        }
        found
    }
}

/// LRU Algorithm 1 as the disclosure primitive: per candidate set,
/// `line 0` *is* the victim's probe line (same address space), kept
/// resident; the victim's transient access is an L1 **hit** that
/// only refreshes the LRU state — the stealthiest variant.
#[derive(Debug)]
pub struct LruAlg1Primitive {
    pid: Pid,
    /// `lines[v][0]` aliases `array2 + v*64`; `lines[v][1..=8]` are
    /// attacker-private lines of the same set.
    lines: Vec<Vec<VirtAddr>>,
    probe: LatencyProbe,
    threshold: u32,
}

impl LruAlg1Primitive {
    /// Allocates per-set line groups and the measurement chain.
    pub fn new(machine: &mut Machine, pid: Pid, array2: VirtAddr, platform: Platform) -> Self {
        let geom = machine.hierarchy().l1().geometry();
        let ways = geom.ways();
        let mut lines = Vec::with_capacity(SYMBOL_VALUES as usize);
        for v in 0..SYMBOL_VALUES {
            let target_set = geom.set_index(array2.add(v as u64 * 64).raw());
            let mut group = vec![array2.add(v as u64 * 64)];
            group.extend(alloc_set_lines(machine, pid, target_set, ways));
            lines.push(group);
        }
        let probe = LatencyProbe::new(machine, pid, platform.tsc, 63);
        Self {
            pid,
            lines,
            probe,
            threshold: platform.hit_threshold(),
        }
    }
}

impl DisclosurePrimitive for LruAlg1Primitive {
    fn prepare(&mut self, machine: &mut Machine) {
        // Initialization phase with d = 8: touch lines 0..7 of every
        // candidate set in order (line 0 resident and *oldest*).
        for group in &self.lines {
            for &va in &group[..8] {
                machine.access(self.pid, va);
            }
        }
    }

    fn decode(&mut self, machine: &mut Machine, rng: &mut SmallRng) -> Vec<u8> {
        let mut found = Vec::new();
        for v in shuffled_values(rng) {
            let group = &self.lines[v as usize];
            // Decoding phase: the 9th line forces a replacement...
            machine.access(self.pid, group[8]);
            // ...then the timed access to line 0 reveals whether the
            // victim's (transient, hitting) access protected it.
            let meas = self.probe.measure(machine, self.pid, group[0], rng);
            if meas.measured <= self.threshold {
                found.push(v);
            }
        }
        found
    }
}

/// LRU Algorithm 2 as the disclosure primitive: the attacker owns
/// all 8 lines of each candidate set; the victim's transient access
/// is a 9th line whose replacement evicts the attacker's `line 0`.
#[derive(Debug)]
pub struct LruAlg2Primitive {
    pid: Pid,
    lines: Vec<Vec<VirtAddr>>,
    probe: LatencyProbe,
    threshold: u32,
}

impl LruAlg2Primitive {
    /// Allocates per-set line groups and the measurement chain.
    pub fn new(machine: &mut Machine, pid: Pid, array2: VirtAddr, platform: Platform) -> Self {
        let geom = machine.hierarchy().l1().geometry();
        let ways = geom.ways();
        let mut lines = Vec::with_capacity(SYMBOL_VALUES as usize);
        for v in 0..SYMBOL_VALUES {
            let target_set = geom.set_index(array2.add(v as u64 * 64).raw());
            lines.push(alloc_set_lines(machine, pid, target_set, ways));
        }
        let probe = LatencyProbe::new(machine, pid, platform.tsc, 63);
        Self {
            pid,
            lines,
            probe,
            threshold: platform.hit_threshold(),
        }
    }
}

impl DisclosurePrimitive for LruAlg2Primitive {
    fn prepare(&mut self, machine: &mut Machine) {
        // Occupy every way of every candidate set, in order (the
        // sequential initial condition of Table I).
        for group in &self.lines {
            for &va in group {
                machine.access(self.pid, va);
            }
        }
    }

    fn decode(&mut self, machine: &mut Machine, rng: &mut SmallRng) -> Vec<u8> {
        let mut found = Vec::new();
        for v in shuffled_values(rng) {
            let group = &self.lines[v as usize];
            // If the victim touched this set, its fill evicted the
            // PLRU victim — which the sequential init made line 0 —
            // so a *slow* line 0 identifies the set.
            let meas = self.probe.measure(machine, self.pid, group[0], rng);
            if meas.measured > self.threshold {
                found.push(v);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::replacement::PolicyKind;
    use exec_sim::speculation::build_victim;
    use rand::SeedableRng;

    fn setup() -> (Machine, exec_sim::speculation::SpectreVictim, u64, Platform) {
        let platform = Platform::e5_2690();
        let mut m = Machine::new(platform.arch, PolicyKind::TreePlru, 5);
        let (victim, off) = build_victim(&mut m, &[42], 8);
        (m, victim, off, platform)
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut vals = shuffled_values(&mut rng);
        vals.sort_unstable();
        assert_eq!(vals, (0..SYMBOL_VALUES).collect::<Vec<_>>());
    }

    #[test]
    fn flush_reload_recovers_transient_value() {
        let (mut m, mut victim, off, platform) = setup();
        let mut prim = FlushReloadPrimitive::new(victim.pid, victim.array2, platform);
        let mut rng = SmallRng::seed_from_u64(2);
        victim.train(&mut m, 6);
        prim.prepare(&mut m);
        victim.call(&mut m, off, exec_sim::speculation::SpecMode::Baseline);
        assert!(prim.decode(&mut m, &mut rng).contains(&42));
    }

    #[test]
    fn alg1_recovers_transient_value_via_hit() {
        let (mut m, mut victim, off, platform) = setup();
        let mut prim = LruAlg1Primitive::new(&mut m, victim.pid, victim.array2, platform);
        let mut rng = SmallRng::seed_from_u64(3);
        victim.train(&mut m, 6);
        prim.prepare(&mut m);
        // The probe line is already resident: the victim's transient
        // access is a *hit* (the paper's §VIII stealth point).
        assert_eq!(
            m.probe_level(victim.pid, victim.array2.add(42 * 64)),
            cache_sim::hierarchy::HitLevel::L1
        );
        victim.call(&mut m, off, exec_sim::speculation::SpecMode::Baseline);
        assert!(prim.decode(&mut m, &mut rng).contains(&42));
    }

    #[test]
    fn alg2_recovers_transient_value_via_eviction() {
        let (mut m, mut victim, off, platform) = setup();
        let mut prim = LruAlg2Primitive::new(&mut m, victim.pid, victim.array2, platform);
        let mut rng = SmallRng::seed_from_u64(4);
        victim.train(&mut m, 6);
        prim.prepare(&mut m);
        victim.call(&mut m, off, exec_sim::speculation::SpecMode::Baseline);
        assert!(prim.decode(&mut m, &mut rng).contains(&42));
    }

    #[test]
    fn no_transient_access_decodes_to_nothing_or_wrong_rarely() {
        // Without a victim call, Alg1 should find no resident
        // line 0 surviving the decode sweep... except PLRU residue.
        let (mut m, _victim, _off, platform) = setup();
        let pid = exec_sim::machine::Pid(0);
        let mut prim = LruAlg2Primitive::new(&mut m, pid, VirtAddr::from_page(500, 0), platform);
        // array2 page 500 is unmapped for accesses — use the probe
        // lines themselves only.
        let mut rng = SmallRng::seed_from_u64(5);
        prim.prepare(&mut m);
        let got = prim.decode(&mut m, &mut rng);
        assert!(
            got.is_empty(),
            "quiet sets must decode to nothing, got {got:?}"
        );
    }
}
