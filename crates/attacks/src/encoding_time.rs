//! Table V: latency of the sender's encoding operation per channel.
//!
//! The sender's encode step is one memory access plus the address
//! arithmetic around it; what differs between channels is the cache
//! state that access finds. Flush+Reload (mem) finds its line
//! flushed to memory; Flush+Reload (L1) finds it evicted to L2; the
//! LRU channels find it *resident in L1* (the paper assumes "the
//! victim line is already in cache before the attack"), which is why
//! their encode is the cheapest and needs the smallest speculation
//! window.

use cache_sim::replacement::PolicyKind;
use exec_sim::machine::Machine;
use lru_channel::params::Platform;
use lru_channel::protocol::DEFAULT_ENCODE_CALC;
use lru_channel::setup::alloc_set_lines;

use crate::primitive::Channel;

/// Table V's row label for `channel`: the paper reports one number
/// for both LRU algorithms.
pub fn row_label(channel: Channel) -> &'static str {
    match channel {
        Channel::LruAlg1 | Channel::LruAlg2 => "L1 LRU (Alg.1&2)",
        flush_reload => flush_reload.label(),
    }
}

/// Measures the sender's encode latency in cycles on `platform` by
/// setting up the channel's pre-access cache state and executing the
/// access (address calculation included, as in the paper).
pub fn encoding_latency(platform: Platform, channel: Channel) -> u32 {
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, 1);
    let pid = machine.create_process();
    let lines = alloc_set_lines(&mut machine, pid, 0, 9);
    let target = lines[0];

    // Bring the line to the state the channel's receiver leaves it in.
    machine.access(pid, target); // resident everywhere
    match channel {
        Channel::FlushReload => machine.flush(pid, target),
        Channel::FlushReloadL1 => {
            // Evict from L1 only, by filling the set.
            for &va in &lines[1..9] {
                machine.access(pid, va);
            }
        }
        Channel::LruAlg1 | Channel::LruAlg2 => {
            // Keep it resident in L1 (re-touch to be sure).
            machine.access(pid, target);
        }
    }

    let out = machine.access(pid, target);
    DEFAULT_ENCODE_CALC + out.cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_encode_is_cheapest_fr_mem_most_expensive() {
        // The Table V ordering on every platform.
        for platform in Platform::all() {
            let mem = encoding_latency(platform, Channel::FlushReload);
            let l1 = encoding_latency(platform, Channel::FlushReloadL1);
            let lru = encoding_latency(platform, Channel::LruAlg1);
            assert!(
                lru < l1,
                "{}: LRU {lru} !< F+R(L1) {l1}",
                platform.arch.model
            );
            assert!(
                l1 < mem,
                "{}: F+R(L1) {l1} !< F+R(mem) {mem}",
                platform.arch.model
            );
        }
    }

    #[test]
    fn lru_encode_magnitude_matches_paper() {
        // Paper Table V: 31 cycles on the E5-2690.
        let lru = encoding_latency(Platform::e5_2690(), Channel::LruAlg1);
        assert!(
            (25..=45).contains(&lru),
            "LRU encode should be ~31 cycles, got {lru}"
        );
    }

    #[test]
    fn fr_mem_costs_a_memory_round_trip() {
        let mem = encoding_latency(Platform::e5_2690(), Channel::FlushReload);
        assert!(
            mem > 150,
            "F+R(mem) encode must include memory latency, got {mem}"
        );
    }
}
