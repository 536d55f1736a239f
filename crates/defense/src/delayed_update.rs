//! InvisiSpec-style invisible speculation (§IX-B): µ-architectural
//! state — including the replacement state — is only updated once a
//! load is no longer speculative. Squashed transient loads therefore
//! leave nothing for any disclosure primitive to read.

use attacks::primitive::Channel;
use attacks::spectre::{decode_symbols, encode_symbols, SpectreAttack};
use cache_sim::replacement::PolicyKind;
use exec_sim::machine::Machine;
use exec_sim::speculation::SpecMode;
use lru_channel::params::Platform;

/// Result of one Spectre-vs-defense run.
#[derive(Debug, Clone)]
pub struct SpectreDefenseResult {
    /// Channel attacked through.
    pub channel: Channel,
    /// Speculation mode (Baseline or Invisible).
    pub mode: SpecMode,
    /// Fraction of secret symbols recovered correctly.
    pub accuracy: f64,
    /// The recovered text (for the record).
    pub recovered: String,
}

/// Runs the Spectre attack over `secret` through `channel` with the
/// given speculation mode and reports recovery accuracy.
pub fn spectre_under_mode(
    channel: Channel,
    mode: SpecMode,
    secret: &str,
    seed: u64,
) -> SpectreDefenseResult {
    let platform = Platform::e5_2690();
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, seed);
    let symbols = encode_symbols(secret);
    let attack = SpectreAttack {
        mode,
        seed,
        ..SpectreAttack::default()
    };
    let (_, got) = attack.recover_secret(&mut machine, platform, channel, &symbols, false);
    let correct = got
        .iter()
        .zip(symbols.iter())
        .filter(|(a, b)| a == b)
        .count();
    SpectreDefenseResult {
        channel,
        mode,
        accuracy: correct as f64 / symbols.len().max(1) as f64,
        recovered: decode_symbols(&got),
    }
}

/// The full ablation: every channel, with and without the defense.
pub fn ablation(secret: &str, seed: u64) -> Vec<SpectreDefenseResult> {
    let mut out = Vec::new();
    for channel in [Channel::FlushReload, Channel::LruAlg1, Channel::LruAlg2] {
        for mode in [SpecMode::Baseline, SpecMode::Invisible] {
            out.push(spectre_under_mode(channel, mode, secret, seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_leaks_invisible_does_not() {
        for channel in [Channel::LruAlg1, Channel::LruAlg2] {
            let base = spectre_under_mode(channel, SpecMode::Baseline, "hi", 3);
            let inv = spectre_under_mode(channel, SpecMode::Invisible, "hi", 3);
            assert!(
                base.accuracy > 0.99,
                "{channel:?} baseline should recover the secret, got {}",
                base.recovered
            );
            assert!(
                inv.accuracy < 0.5,
                "{channel:?} must fail under invisible speculation, got {}",
                inv.recovered
            );
        }
    }

    #[test]
    fn invisible_speculation_also_stops_flush_reload() {
        let inv = spectre_under_mode(Channel::FlushReload, SpecMode::Invisible, "hi", 4);
        assert!(inv.accuracy < 0.5, "got {}", inv.recovered);
    }

    #[test]
    fn ablation_covers_the_grid() {
        let rows = ablation("z", 5);
        assert_eq!(rows.len(), 6);
    }
}
