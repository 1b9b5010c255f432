//! Clickstream differential leg: the hand-written session-state model
//! from `caesar-clickstream` over seeded funnel streams, every workload
//! run through the standard engine mode matrix, the served loopback
//! legs, and the provenance sweep — all byte-identical to the reference
//! oracle.
//!
//! The random-model sweep (`differential_random.rs`) explores model
//! space; this leg pins the *fixed* model the clickstream substrate,
//! bench and docs all describe, and explores data space instead:
//! user-key population, Zipf skew, session mix, disorder, scattered
//! `u32` partition ids and replication (5–15 queries).
//!
//! Knobs mirror `differential_random.rs`:
//!
//! * `CAESAR_DIFF_CASES` — random workloads per sweep (default 25
//!   locally; CI sets 70).
//! * `CAESAR_DIFF_SEED_BASE` — base seed of the randomized sweep.
//! * `CAESAR_DIFF_SEEDS` — comma-separated explicit seeds (hex `0x..`
//!   or decimal); overrides the sweep.

use caesar_testkit::{
    check_workload, check_workload_provenance, check_workload_served,
    clickstream_workload_from_seed,
};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| parse_u64(&s))
        .unwrap_or(default)
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn explicit_seeds() -> Option<Vec<u64>> {
    let raw = std::env::var("CAESAR_DIFF_SEEDS").ok()?;
    let seeds: Vec<u64> = raw.split(',').filter_map(parse_u64).collect();
    (!seeds.is_empty()).then_some(seeds)
}

/// SplitMix64 — decorrelates consecutive sweep indices into seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn check_seed(seed: u64) {
    let workload = clickstream_workload_from_seed(seed);
    check_workload(&workload).unwrap_or_else(|failure| {
        panic!(
            "clickstream diverged from reference oracle\n\n{failure}\n\
             reproduce: CAESAR_DIFF_SEEDS={seed:#x} cargo test --test clickstream_differential"
        )
    });
}

/// Fixed seeds checked on every run; grown whenever a randomized run
/// finds a divergence.
const PINNED_SEEDS: &[u64] = &[
    0x0000_0000_0000_0000,
    0x0000_0000_0000_0007,
    0x0000_0000_c11c_0001,
    0x5eed_5eed_5eed_5eed,
    0xdead_beef_cafe_f00d,
    0xffff_ffff_ffff_ffff,
];

#[test]
fn pinned_seeds_match_oracle() {
    for &seed in PINNED_SEEDS {
        check_seed(seed);
    }
}

#[test]
fn random_sweep_matches_oracle() {
    if let Some(seeds) = explicit_seeds() {
        for seed in seeds {
            check_seed(seed);
        }
        return;
    }
    let cases = env_u64("CAESAR_DIFF_CASES", 25);
    let base = env_u64("CAESAR_DIFF_SEED_BASE", 0xC11C_57EA_4D00_0001);
    for i in 0..cases {
        check_seed(mix(base ^ i));
    }
}

/// The served legs: each workload round-tripped through a loopback
/// `caesar-server` instance (strict and speculative tenants) must also
/// reproduce the oracle byte-for-byte.
#[test]
fn served_sweep_matches_oracle() {
    let cases = env_u64("CAESAR_SERVED_CASES", 6).min(env_u64("CAESAR_DIFF_CASES", 25));
    let base = env_u64("CAESAR_DIFF_SEED_BASE", 0xC11C_57EA_4D00_0001) ^ 0x5e4d;
    for i in 0..cases {
        let seed = mix(base ^ i);
        let workload = clickstream_workload_from_seed(seed);
        if let Err(failure) = check_workload_served(&workload) {
            panic!(
                "served clickstream diverged from reference oracle\n\n{failure}\n\
                 reproduce: CAESAR_DIFF_SEEDS={seed:#x} cargo test --test clickstream_differential"
            );
        }
    }
}

/// The provenance sweep: timestamp-collecting mode must reproduce the
/// oracle's per-match provenance byte-for-byte (provenance is part of
/// each output's wire encoding).
#[test]
fn provenance_sweep_matches_oracle() {
    let cases = env_u64("CAESAR_DIFF_CASES", 25);
    let base = env_u64("CAESAR_DIFF_SEED_BASE", 0xC11C_57EA_4D00_0001) ^ 0x7047;
    for &seed in PINNED_SEEDS {
        let workload = clickstream_workload_from_seed(seed);
        if let Err(failure) = check_workload_provenance(&workload) {
            panic!("clickstream provenance diverged (pinned)\n\n{failure}");
        }
    }
    for i in 0..cases {
        let seed = mix(base ^ i);
        let workload = clickstream_workload_from_seed(seed);
        if let Err(failure) = check_workload_provenance(&workload) {
            panic!(
                "clickstream provenance diverged from reference oracle\n\n{failure}\n\
                 reproduce: CAESAR_DIFF_SEEDS={seed:#x} cargo test --test clickstream_differential"
            );
        }
    }
}
