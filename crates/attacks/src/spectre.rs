//! The end-to-end Spectre-v1 attack of §VIII: recover a secret
//! string through any [`DisclosurePrimitive`], with the Appendix-C
//! multi-round random-order mitigation against prefetcher noise.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use exec_sim::machine::{Machine, Pid};
use exec_sim::speculation::{build_victim, SpecMode, SpectreVictim};
use lru_channel::params::Platform;

use crate::primitive::{Channel, DisclosurePrimitive, SYMBOL_VALUES};

/// The 63-symbol alphabet used by the demos (the paper's setup
/// supports 63 distinct values — 63 usable cache sets).
pub const ALPHABET: &[u8; 63] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";

/// Encodes text into 6-bit symbols (`0..63`). Characters outside the
/// alphabet map to the space symbol.
pub fn encode_symbols(text: &str) -> Vec<u8> {
    text.bytes()
        .map(|b| {
            ALPHABET
                .iter()
                .position(|&a| a == b)
                .unwrap_or(ALPHABET.len() - 1) as u8
        })
        .collect()
}

/// Decodes 6-bit symbols back to text ('?' for out-of-range).
pub fn decode_symbols(symbols: &[u8]) -> String {
    symbols
        .iter()
        .map(|&s| {
            if (s as usize) < ALPHABET.len() {
                ALPHABET[s as usize] as char
            } else {
                '?'
            }
        })
        .collect()
}

/// How many characters of `recovered` match `secret` as the attack
/// transmits it. The reference is `decode_symbols(&encode_symbols(
/// secret))`, not `secret` itself: [`encode_symbols`] sends every
/// character outside [`ALPHABET`] as a space, so a perfect recovery of
/// `"Hi!"` reads `"Hi "` and scores 3 of 3.
pub fn symbols_correct(secret: &str, recovered: &str) -> usize {
    decode_symbols(&encode_symbols(secret))
        .bytes()
        .zip(recovered.bytes())
        .filter(|(a, b)| a == b)
        .count()
}

/// Configuration of one Spectre run.
#[derive(Debug, Clone, Copy)]
pub struct SpectreAttack {
    /// Attack rounds per secret symbol; each round scans the sets in
    /// a fresh random order and the rounds vote (Appendix C).
    pub rounds: usize,
    /// Predictor-training calls before each malicious invocation.
    pub train_calls: usize,
    /// Speculation behaviour of the machine (Baseline, or Invisible
    /// for the InvisiSpec defense ablation).
    pub mode: SpecMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpectreAttack {
    fn default() -> Self {
        Self {
            rounds: 7,
            train_calls: 5,
            mode: SpecMode::Baseline,
            seed: 0x5bec,
        }
    }
}

impl SpectreAttack {
    /// Plants the `secret` symbols in a fresh victim on `machine`,
    /// builds `channel`'s disclosure primitive over its probe array
    /// and recovers every symbol. With `warm`, one symbol is first
    /// recovered untimed and the counters reset, so the attack's own
    /// compulsory misses do not dominate a miss-rate readout.
    /// Returns the victim's pid and one recovered symbol per
    /// position (see [`SpectreAttack::recover`]).
    pub fn recover_secret(
        &self,
        machine: &mut Machine,
        platform: Platform,
        channel: Channel,
        secret: &[u8],
        warm: bool,
    ) -> (Pid, Vec<u8>) {
        let (mut victim, off) = build_victim(machine, secret, 8);
        let mut primitive = channel.primitive(machine, victim.pid, victim.array2, platform);
        if warm {
            self.recover(machine, &mut victim, primitive.as_mut(), off, 1);
            machine.reset_counters();
        }
        let got = self.recover(machine, &mut victim, primitive.as_mut(), off, secret.len());
        (victim.pid, got)
    }

    /// Recovers `len` secret symbols starting at `secret_offset`
    /// from `victim.array1`, using `primitive` as the disclosure
    /// channel. Returns one recovered symbol per position (255 when
    /// no round produced a candidate).
    ///
    /// Each symbol is measured differentially: `rounds` *attack*
    /// rounds (malicious out-of-bounds call) and `rounds` *baseline*
    /// rounds (benign in-bounds call). The gadget's own `array1[x]`
    /// load and any prefetcher shadows pollute both kinds of round
    /// identically, so subtracting the baseline votes isolates the
    /// secret-dependent probe access — the practical counterpart of
    /// the paper's Appendix-C averaging.
    pub fn recover(
        &self,
        machine: &mut Machine,
        victim: &mut SpectreVictim,
        primitive: &mut dyn DisclosurePrimitive,
        secret_offset: u64,
        len: usize,
    ) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let mut attack_votes: HashMap<u8, usize> = HashMap::new();
            let mut baseline_votes: HashMap<u8, usize> = HashMap::new();
            for r in 0..self.rounds {
                // Attack round: train toward taken, re-arm, one
                // malicious call, read back.
                victim.train(machine, self.train_calls);
                primitive.prepare(machine);
                victim.call(machine, secret_offset + i as u64, self.mode);
                for v in primitive.decode(machine, &mut rng) {
                    if v < SYMBOL_VALUES {
                        *attack_votes.entry(v).or_insert(0) += 1;
                    }
                }
                // Baseline round: identical, but the victim call is
                // in bounds (rotating x spreads the benign
                // array2[array1[x]] pollution thin).
                victim.train(machine, self.train_calls);
                primitive.prepare(machine);
                victim.call(machine, r as u64 % victim.array1_size, self.mode);
                for v in primitive.decode(machine, &mut rng) {
                    if v < SYMBOL_VALUES {
                        *baseline_votes.entry(v).or_insert(0) += 1;
                    }
                }
            }
            out.push(resolve_votes(&attack_votes, &baseline_votes, self.rounds));
        }
        out
    }
}

/// Differential vote resolution: score = attack votes − baseline
/// votes; the candidate with the highest positive score wins, except
/// that of two adjacent candidates with comparable scores the
/// *smaller* is chosen — a next-line prefetcher always shadows the
/// true access at `v + 1`, never below it. When nothing clears the
/// noise floor, fall back to the raw attack majority (covers the
/// corner where the secret value collides with the gadget's own set,
/// so subtraction cancels the true signal too).
fn resolve_votes(attack: &HashMap<u8, usize>, baseline: &HashMap<u8, usize>, rounds: usize) -> u8 {
    let mut ranked: Vec<(i64, std::cmp::Reverse<u8>, u8)> = attack
        .iter()
        .map(|(&v, &n)| {
            let b = baseline.get(&v).copied().unwrap_or(0);
            (n as i64 - b as i64, std::cmp::Reverse(v), v)
        })
        .collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    match ranked.as_slice() {
        [(score, _, v), rest @ ..] if *score as usize * 3 >= rounds.max(1) => {
            // Prefetch-shadow tiebreak: prefer v-1 when it scored
            // comparably (the shadow trails the true access).
            if let Some(&(s2, _, v2)) = rest.first() {
                if v2 + 1 == *v && s2 * 2 >= *score {
                    return v2;
                }
            }
            *v
        }
        _ => {
            // No differential winner: raw attack majority.
            let mut raw: Vec<(usize, std::cmp::Reverse<u8>, u8)> = attack
                .iter()
                .map(|(&v, &n)| (n, std::cmp::Reverse(v), v))
                .collect();
            raw.sort_unstable_by(|a, b| b.cmp(a));
            raw.first().map(|&(_, _, v)| v).unwrap_or(255)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::{FlushReloadPrimitive, LruAlg1Primitive, LruAlg2Primitive};
    use cache_sim::prefetcher::Prefetcher;
    use cache_sim::profiles::MicroArch;
    use cache_sim::replacement::PolicyKind;
    use exec_sim::speculation::build_victim;
    use lru_channel::params::Platform;

    const SECRET: &str = "Squeamish";

    fn machine() -> Machine {
        Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 7)
    }

    #[test]
    fn symbol_codec_round_trips() {
        let syms = encode_symbols(SECRET);
        assert!(syms.iter().all(|&s| s < SYMBOL_VALUES));
        assert_eq!(decode_symbols(&syms), SECRET);
        // Out-of-alphabet characters map to space.
        assert_eq!(decode_symbols(&encode_symbols("a!b")), "a b");
    }

    fn run_with<P, F>(build: F) -> String
    where
        P: DisclosurePrimitive,
        F: FnOnce(&mut Machine, exec_sim::machine::Pid, cache_sim::addr::VirtAddr) -> P,
    {
        let mut m = machine();
        let secret = encode_symbols(SECRET);
        let (mut victim, off) = build_victim(&mut m, &secret, 8);
        let mut prim = build(&mut m, victim.pid, victim.array2);
        let got =
            SpectreAttack::default().recover(&mut m, &mut victim, &mut prim, off, secret.len());
        decode_symbols(&got)
    }

    #[test]
    fn spectre_via_flush_reload_recovers_secret() {
        let got = run_with(|_m, pid, a2| FlushReloadPrimitive::new(pid, a2, Platform::e5_2690()));
        assert_eq!(got, SECRET);
    }

    #[test]
    fn spectre_via_lru_alg1_recovers_secret() {
        let got = run_with(|m, pid, a2| LruAlg1Primitive::new(m, pid, a2, Platform::e5_2690()));
        assert_eq!(got, SECRET);
    }

    #[test]
    fn spectre_via_lru_alg2_recovers_secret() {
        let got = run_with(|m, pid, a2| LruAlg2Primitive::new(m, pid, a2, Platform::e5_2690()));
        assert_eq!(got, SECRET);
    }

    #[test]
    fn invisible_speculation_defeats_the_lru_channel() {
        let mut m = machine();
        let secret = encode_symbols("K9");
        let (mut victim, off) = build_victim(&mut m, &secret, 8);
        let mut prim =
            LruAlg1Primitive::new(&mut m, victim.pid, victim.array2, Platform::e5_2690());
        let attack = SpectreAttack {
            mode: SpecMode::Invisible,
            ..SpectreAttack::default()
        };
        let got = attack.recover(&mut m, &mut victim, &mut prim, off, secret.len());
        assert_ne!(
            decode_symbols(&got),
            "K9",
            "InvisiSpec-style defense must stop the leak"
        );
    }

    #[test]
    fn prefetcher_noise_is_defeated_by_rounds_and_voting() {
        // Appendix C: attach a next-line prefetcher and check the
        // multi-round random-order attack still recovers the secret.
        let arch = MicroArch::sandy_bridge_e5_2690();
        let mut m = Machine::with_hierarchy(
            arch,
            arch.build_hierarchy(PolicyKind::TreePlru, 7)
                .with_prefetcher(Prefetcher::next_line()),
        );
        let secret = encode_symbols("magic");
        let (mut victim, off) = build_victim(&mut m, &secret, 8);
        let mut prim =
            LruAlg2Primitive::new(&mut m, victim.pid, victim.array2, Platform::e5_2690());
        let attack = SpectreAttack {
            rounds: 11,
            ..SpectreAttack::default()
        };
        let got = attack.recover(&mut m, &mut victim, &mut prim, off, secret.len());
        let text = decode_symbols(&got);
        let correct = text
            .bytes()
            .zip("magic".bytes())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            correct >= 4,
            "rounds+voting should recover most symbols under prefetch noise, got {text:?}"
        );
    }

    #[test]
    fn vote_resolution_subtracts_baseline() {
        let mut attack = HashMap::new();
        attack.insert(10u8, 7usize); // true signal
        attack.insert(0u8, 7usize); // gadget set (also in baseline)
        let mut baseline = HashMap::new();
        baseline.insert(0u8, 7usize);
        assert_eq!(resolve_votes(&attack, &baseline, 7), 10);
        // Secret colliding with the gadget set: subtraction cancels,
        // the raw-majority fallback still answers.
        let mut attack = HashMap::new();
        attack.insert(0u8, 7usize);
        let mut baseline = HashMap::new();
        baseline.insert(0u8, 7usize);
        assert_eq!(resolve_votes(&attack, &baseline, 7), 0);
        assert_eq!(resolve_votes(&HashMap::new(), &HashMap::new(), 7), 255);
    }
}
