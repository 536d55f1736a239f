//! Spectre v1 with the LRU channel as the disclosure primitive
//! (paper §VIII): recover a secret string the victim never
//! architecturally reads out of bounds — one spectre scenario per
//! disclosure channel, plus the Table VII miss-rate footprints.
//!
//! Run with `cargo run --release --example spectre_attack`.

use lru_leak::scenario::spec::{Channel, ExperimentKind, MessageSource, Scenario};
use lru_leak::scenario::Value;

const SECRET: &str = "The Magic Words are Squeamish Ossifrage";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("victim secret: {SECRET:?}\n");

    for channel in [Channel::FlushReload, Channel::LruAlg1, Channel::LruAlg2] {
        // Recovery through this channel…
        let recovery = Scenario::builder()
            .message(MessageSource::Text(SECRET.into()))
            .kind(ExperimentKind::Spectre {
                channel,
                rounds: 7,
                prefetcher: false,
            })
            .seed(0xfeed)
            .build()?
            .run();
        // …and the attack's performance-counter footprint over the
        // same secret (Table VII: what `perf` would see).
        let footprint = Scenario::builder()
            .message(MessageSource::Text(SECRET.into()))
            .kind(ExperimentKind::SpectreMissRates { channel })
            .seed(0xfeed)
            .build()?
            .run();

        let pct = |key: &str| footprint.get(key).and_then(Value::as_f64).unwrap() * 100.0;
        println!(
            "{:<12} recovered: {:?}",
            channel.label(),
            recovery.get("recovered").unwrap().as_str().unwrap()
        );
        println!(
            "{:<12} attack miss profile: L1D {:.2}% / L2 {:.2}% / LLC {:.2}%  ({} LLC accesses)\n",
            "",
            pct("l1d_miss_rate"),
            pct("l2_miss_rate"),
            pct("llc_miss_rate"),
            footprint.get("llc_accesses").unwrap().as_u64().unwrap()
        );
    }
    println!("note the Table VII shape: Flush+Reload misses beyond the L2 *constantly*");
    println!("(every probe reload comes from memory), while the LRU-channel attacks make");
    println!("almost no traffic beyond the L1 at all — their non-zero LLC percentages sit");
    println!("on a few dozen compulsory accesses, invisible to a rate-based detector.");
    Ok(())
}
