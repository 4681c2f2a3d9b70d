//! Seeded input generators. The benchmark hands the program only what
//! these produce; the same seed always yields the same inputs.

use netbw::graph::units::MB;
use netbw::graph::{CommGraph, Communication};
use netbw::prelude::{HplConfig, PlacementPolicy, WhatIfQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A transfer schedule: `(key, communication, start)` sorted by start.
pub type Schedule = Vec<(u64, Communication, f64)>;

/// A stateless 64-bit mix of `(seed, stream, index)`: lets concurrent
/// clients draw their inputs independently of thread interleaving.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What-if traffic: senders `0..SENDERS` talk to receivers
/// `SENDERS..SENDERS + RECEIVERS`, so every flow contends at a receiver.
pub mod whatif {
    use super::*;

    pub const SENDERS: u64 = 24;
    pub const RECEIVERS: u64 = 8;
    /// Background payload sizes (bytes).
    pub const SIZES: [u64; 3] = [262_144, 1_048_576, 4_194_304];
    /// Query payload sizes (bytes): small, so a query settles few events
    /// and its cost is the serving path (fork, re-base, dispatch) rather
    /// than model work. Few distinct sizes keep the `Tref` memo hot.
    pub const QUERY_SIZES: [u64; 3] = [16_384, 32_768, 65_536];
    /// Background transfers admitted before the clients start.
    pub const BACKGROUND: usize = 300;
    /// Spacing of the background starts (seconds).
    pub const BACKGROUND_GAP: f64 = 0.002;
    /// Clock position the warm service starts the loop at.
    pub const WARM_CLOCK: f64 = 0.45;

    const QUERY_STREAM: u64 = 16;

    fn query_flow(bits: u64) -> Communication {
        Communication::new(
            sender(bits),
            (SENDERS + (bits >> 8) % RECEIVERS) as u32,
            QUERY_SIZES[((bits >> 16) % QUERY_SIZES.len() as u64) as usize],
        )
    }

    fn sender(bits: u64) -> u32 {
        (bits % SENDERS) as u32
    }

    /// The `i`-th background transfer and its start time. Senders,
    /// receivers and sizes take turns, and the seed permutes the sender
    /// labels: every seed loads the fabric with the same shape (a seed
    /// that drew a lopsided background would leave a different number of
    /// flows in flight, and with it a different query cost).
    pub fn background(seed: u64, i: usize) -> (Communication, f64) {
        let mut senders: Vec<u32> = (0..SENDERS as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for j in (1..senders.len()).rev() {
            senders.swap(j, rng.random_range(0..=j));
        }
        let comm = Communication::new(
            senders[i % SENDERS as usize],
            (SENDERS + i as u64 % RECEIVERS) as u32,
            SIZES[i / RECEIVERS as usize % SIZES.len()],
        );
        (comm, i as f64 * BACKGROUND_GAP)
    }

    /// Query `i` of `client`: one flow, and every fourth query a second
    /// one, starting up to 4 ms from now.
    pub fn query(seed: u64, client: u64, i: u64) -> WhatIfQuery {
        let bits = mix(seed, QUERY_STREAM + client, i);
        let mut q = WhatIfQuery::flow(query_flow(bits), ((bits >> 24) % 5) as f64 * 0.001);
        if (bits >> 32).is_multiple_of(4) {
            q.flows.push((query_flow(bits >> 40), 0.0));
        }
        q
    }
}

/// The validation battery.
pub mod validate {
    use super::*;

    /// Random schemes added to the paper's ten.
    pub const RANDOM_SCHEMES: usize = 60;
    /// Payload of every battery scheme.
    pub const SCHEME_SIZE: u64 = 4 * MB;

    /// The paper's schemes plus seeded random bounded-degree schemes.
    pub fn battery(seed: u64) -> Vec<CommGraph> {
        let mut b = netbw::workloads::paper_battery(SCHEME_SIZE);
        b.extend(netbw::workloads::random_battery(
            RANDOM_SCHEMES,
            8,
            4,
            SCHEME_SIZE,
            seed,
        ));
        b
    }

    /// The HPL run replayed under each policy: a reduced Fig. 8/9 problem
    /// (the paper's N = 20500 takes seconds per replay) on 16 tasks.
    pub fn hpl() -> HplConfig {
        HplConfig {
            n: 2048,
            nb: 128,
            tasks: 16,
            ..HplConfig::paper()
        }
    }

    /// The three §VI.D placement policies; the random one draws from the seed.
    pub fn policies(seed: u64) -> [PlacementPolicy; 3] {
        [
            PlacementPolicy::RoundRobinNode,
            PlacementPolicy::RoundRobinProcessor,
            PlacementPolicy::Random(seed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_is_deterministic_in_its_seed() {
        let waves = |seed| netbw_bench::bridge_wave_churn(8, 16, 3, 25.0, seed);
        assert_eq!(waves(3), waves(3));
        assert_ne!(waves(3), waves(4));

        let bg = |seed| {
            (0..50)
                .map(|i| whatif::background(seed, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(bg(3), bg(3));
        assert_ne!(bg(3), bg(4));
        let qs = |seed, client| {
            (0..50)
                .map(|i| whatif::query(seed, client, i).flows)
                .collect::<Vec<_>>()
        };
        assert_eq!(qs(3, 0), qs(3, 0));
        assert_ne!(qs(3, 0), qs(4, 0));
        assert_ne!(qs(3, 0), qs(3, 1), "clients draw distinct streams");

        assert_eq!(validate::battery(3), validate::battery(3));
        assert_ne!(validate::battery(3), validate::battery(4));
        assert_eq!(validate::policies(3), validate::policies(3));
        assert_ne!(validate::policies(3), validate::policies(4));
    }

    #[test]
    fn whatif_background_has_the_same_shape_under_every_seed() {
        let shape = |seed| {
            let mut per_sender = [0usize; whatif::SENDERS as usize];
            for i in 0..whatif::BACKGROUND {
                per_sender[whatif::background(seed, i).0.src.0 as usize] += 1;
            }
            per_sender.sort_unstable();
            per_sender
        };
        assert_eq!(shape(3), shape(4));
        assert_eq!(shape(3).iter().sum::<usize>(), whatif::BACKGROUND);
    }

    #[test]
    fn whatif_traffic_stays_on_the_sender_receiver_split() {
        for i in 0..200 {
            let q = whatif::query(9, 1, i);
            assert!(!q.flows.is_empty() && q.flows.len() <= 2);
            for &(c, offset) in &q.flows {
                assert!(c.src.0 < whatif::SENDERS as u32);
                assert!(c.dst.0 >= whatif::SENDERS as u32);
                assert!((0.0..=0.004).contains(&offset));
            }
        }
    }
}
