//! Cooperative peer tier properties (PR 10's acceptance bar):
//!
//! * a peer's Bloom summary never false-negatives — every key a device
//!   registered is claimed by its summary, across 256 seeded cache
//!   contents;
//! * the measured false-positive rate on a large non-member probe
//!   sample stays within 2× of the analytic bound
//!   `(1 − e^(−kn/m))^k` (plus a documented sampling-noise allowance);
//! * at the fabric level, a consult for a key some peer actually holds
//!   is always a `Hit` (the exact-set verification makes summary false
//!   positives cost probes, never wrong answers), and a cell of size 1
//!   — the requester alone — serves nothing, the solo-baseline
//!   guarantee the frontend's bit-identity test builds on.

use std::collections::HashSet;

use proptest::prelude::*;

use pocket_cloudlets::core::peer::{BloomSummary, PeerConfig, PeerConsult, PeerFabric};
use pocket_cloudlets::mobsim::mix64;

/// splitmix64, the same mixer the summary hashes with — used here only
/// to derive deterministic, well-spread key sets from a proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

/// `count` distinct keys drawn from `seed`.
fn keyset(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    let mut seen = HashSet::with_capacity(count);
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let key = splitmix(&mut state);
        if seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Zero false negatives, ever; measured false positives within 2×
    /// of the analytic bound. The probe sample is finite (4096
    /// non-members), so the comparison allows 12 probes of Poisson
    /// sampling noise on top of the doubled bound — negligible where
    /// the bound is large, and exactly what keeps a one-in-thousands
    /// stray collision from failing a bound that rounds to zero.
    #[test]
    fn bloom_summary_fp_rate_is_within_twice_the_analytic_bound(
        seed in any::<u64>(),
        entries in 16usize..400,
        bits in 256usize..4096,
        hashes in 1u32..8,
    ) {
        let keys = keyset(seed, entries);
        let summary = BloomSummary::from_keys(&keys, bits, hashes);

        for &key in &keys {
            prop_assert!(summary.contains(key), "false negative on {key:#x}");
        }

        const PROBES: usize = 4096;
        let members: HashSet<u64> = keys.iter().copied().collect();
        let mut state = seed ^ 0xDEAD_BEEF_CAFE_F00D;
        let mut sampled = 0usize;
        let mut false_positives = 0usize;
        while sampled < PROBES {
            let probe = splitmix(&mut state);
            if members.contains(&probe) {
                continue;
            }
            sampled += 1;
            if summary.contains(probe) {
                false_positives += 1;
            }
        }
        let measured = false_positives as f64 / PROBES as f64;
        let analytic = summary.analytic_fp_rate();
        prop_assert!(
            measured <= 2.0 * analytic + 12.0 / PROBES as f64,
            "measured {measured} vs analytic {analytic} (n={entries}, m={bits}, k={hashes})"
        );
    }

    /// Fabric-level soundness: when any peer in the cell actually holds
    /// the key, `consult` returns a `Hit` from a true holder; when no
    /// peer holds it, the outcome is a `Miss` whose only cost is the
    /// false-positive probes the summaries charged for.
    #[test]
    fn consults_hit_exactly_when_a_peer_holds_the_key(
        seed in any::<u64>(),
        devices in 2usize..6,
        per_device in 1usize..40,
        queries in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let fabric = PeerFabric::new(PeerConfig::default());
        let mut inventories = Vec::new();
        for device in 0..devices as u64 {
            let keys = keyset(seed ^ device.wrapping_mul(0x9E37), per_device);
            fabric.register(device, &keys);
            inventories.push(keys.into_iter().collect::<HashSet<u64>>());
        }

        let requester = 0u64;
        for (i, &raw) in queries.iter().enumerate() {
            // Alternate guaranteed-held keys and random (almost surely
            // absent) ones so both branches are exercised every case.
            let key = if i % 2 == 0 {
                let peer = 1 + (raw % (devices as u64 - 1)) as usize;
                *inventories[peer].iter().next().expect("non-empty inventory")
            } else {
                raw
            };
            let held_by_peer = inventories
                .iter()
                .enumerate()
                .any(|(d, inv)| d as u64 != requester && inv.contains(&key));
            match fabric.consult(requester, key) {
                PeerConsult::Hit { peer, outcome, .. } => {
                    prop_assert!(held_by_peer, "hit on a key no peer holds");
                    prop_assert!(inventories[peer as usize].contains(&key));
                    prop_assert_eq!(outcome.radio_bytes, 0, "the radio slept");
                    prop_assert!(outcome.peer_bytes > 0, "the peer link was billed");
                }
                PeerConsult::Miss { .. } => {
                    prop_assert!(!held_by_peer, "miss despite a true holder");
                }
            }
        }
    }

    /// A cell of one — the requester alone — never serves anything:
    /// its own summary is excluded, so every consult is a radio
    /// fallback. This is the mechanism behind the frontend's
    /// "cell size 1 reproduces solo telemetry bit for bit" guarantee.
    #[test]
    fn a_requester_alone_in_its_cell_always_falls_back_to_the_radio(
        seed in any::<u64>(),
        entries in 1usize..64,
        queries in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let fabric = PeerFabric::new(PeerConfig::default());
        let keys = keyset(seed, entries);
        fabric.register(7, &keys);
        for (i, &q) in queries.iter().enumerate() {
            // Half the queries are keys the requester itself holds —
            // the fabric must still not "serve" them back to it.
            let key = if i % 2 == 0 { keys[i % keys.len()] } else { q };
            match fabric.consult(7, key) {
                PeerConsult::Miss {
                    false_positives,
                    wasted_bytes,
                    ..
                } => {
                    prop_assert_eq!(false_positives, 0);
                    prop_assert_eq!(wasted_bytes, 0);
                }
                PeerConsult::Hit { .. } => prop_assert!(false, "self-serve must not happen"),
            }
        }
        let stats = fabric.telemetry();
        prop_assert_eq!(stats.peer_hits, 0);
        prop_assert_eq!(stats.peer_bytes, 0);
        prop_assert_eq!(stats.radio_fallbacks, queries.len() as u64);
    }
}
