//! Deterministic seed derivation for multi-row / multi-layer structures.
//!
//! Every sketch in this repository needs a *family* of seeds derived from a
//! single master: one xxHash seed per row, one sign seed per row, one seed
//! per UnivMon layer. Before this module each call site invented its own
//! offset scheme (`seed ^ 0x5EED`, `seed.wrapping_add(j * 0x9E37)`, ...),
//! which is both unprincipled (nearby masters can produce correlated
//! streams) and impossible to audit. [`SeedSequence`] centralizes the
//! derivation: stream `i` is the `i`-th output of the SplitMix64 sequence
//! seeded at the master, computed statelessly so callers can random-access
//! any stream.
//!
//! The derivation is *identical* to drawing seeds from
//! [`SplitMix64::new`](crate::SplitMix64::new)`(master)` one after another — which is exactly
//! how `CountMin`/`CountSketch`/`Kary` have always derived their per-row
//! seeds. That equivalence is load-bearing for the adversarial-traffic
//! work: an attacker who leaks the master seed can re-derive every row seed
//! with `SeedSequence::derive`, and the defense analysis must assume they
//! will (Kerckhoffs's principle). See `nitro-traffic`'s `adversarial`
//! module.

use crate::rng::SplitMix64;

const GAMMA: u64 = 0x9E3779B97F4A7C15;
const FORK_DOMAIN: u64 = 0x6A09E667F3BCC909;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A stateless splitmix-style seed derivation sequence.
///
/// `derive(i)` is the `i`-th output of `SplitMix64::new(master)`; `fork(d)`
/// opens a domain-separated child sequence (for nested structures such as
/// UnivMon's per-layer row seeds) whose streams are independent of the
/// parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// A sequence rooted at `master`. All masters are valid.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The master seed this sequence derives from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Stream `i` of the sequence — equal to the `(i+1)`-th call of
    /// [`SplitMix64::next_u64`] on a generator seeded at the master, but
    /// computed in O(1) so streams can be random-accessed.
    #[inline]
    pub fn derive(&self, stream: u64) -> u64 {
        mix(self
            .master
            .wrapping_add(stream.wrapping_add(1).wrapping_mul(GAMMA)))
    }

    /// The first `n` streams, in order — the row-seed vector shape used by
    /// the sketch constructors.
    pub fn derive_n(&self, n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| self.derive(i)).collect()
    }

    /// A domain-separated child sequence. `fork(d)` for distinct `d` gives
    /// sequences whose streams are mutually independent and independent of
    /// the parent's `derive` streams (the child master passes through an
    /// extra mix round under a distinct constant).
    pub fn fork(&self, domain: u64) -> SeedSequence {
        SeedSequence::new(mix(self.derive(domain) ^ FORK_DOMAIN))
    }

    /// A stateful generator positioned at stream 0 — when a caller wants to
    /// keep drawing rather than random-access.
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::new(self.master)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::MultiplyShift;

    #[test]
    fn derive_matches_splitmix_sequence() {
        // The contract the sketches and the adversarial generator both rely
        // on: derive(i) is the i-th SplitMix64 output for the same master.
        for master in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let seq = SeedSequence::new(master);
            let mut sm = SplitMix64::new(master);
            for i in 0..16u64 {
                assert_eq!(seq.derive(i), sm.next_u64(), "master {master} stream {i}");
            }
        }
    }

    #[test]
    fn streams_are_distinct() {
        let seq = SeedSequence::new(7);
        let seeds = seq.derive_n(256);
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
    }

    #[test]
    fn forks_are_domain_separated() {
        let seq = SeedSequence::new(9);
        let a = seq.fork(0);
        let b = seq.fork(1);
        assert_ne!(a.master(), b.master());
        // Child streams must not replay parent streams.
        let parent: std::collections::HashSet<_> = seq.derive_n(64).into_iter().collect();
        for i in 0..64u64 {
            assert!(!parent.contains(&a.derive(i)));
            assert!(!parent.contains(&b.derive(i)));
        }
    }

    #[test]
    fn derived_streams_hash_independently() {
        // Seed two pairwise hash functions from adjacent streams and check
        // their low bits are uncorrelated: P[bit_a == bit_b] ≈ 1/2.
        let seq = SeedSequence::new(1234);
        let ha = MultiplyShift::new(seq.derive(0));
        let hb = MultiplyShift::new(seq.derive(1));
        let n = 20_000u64;
        let agree = (0..n)
            .filter(|&x| (ha.hash(x) & 1) == (hb.hash(x) & 1))
            .count();
        let rate = agree as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "low-bit agreement rate {rate}");
    }

    #[test]
    fn adjacent_masters_decorrelate() {
        // Ad-hoc offset schemes (seed ^ const) break exactly here: nearby
        // masters must still give unrelated stream values.
        let a = SeedSequence::new(100);
        let b = SeedSequence::new(101);
        let n = 4_096u64;
        let agree = (0..n)
            .filter(|&i| (a.derive(i) & 1) == (b.derive(i) & 1))
            .count();
        let rate = agree as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "low-bit agreement rate {rate}");
    }
}
