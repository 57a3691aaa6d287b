//! Entropy estimation from a uniform packet sample — the estimator §8
//! proves cannot work.
//!
//! "Entropy does not admit any constant factor approximation [from a
//! uniform sample] even if p = 1/2!" (§8, citing McGregor et al. \[60\]).
//! This module implements the natural plug-in estimator over sampled
//! packets so the claim is *measurable*: on streams whose entropy is
//! carried by the tail (many small flows), the plug-in estimate is
//! biased far below the truth, while a sketch that sees every packet
//! (or NitroSketch in AlwaysCorrect mode before convergence) is not.

use nitro_hash::Xoshiro256StarStar;
use nitro_sketches::entropy::entropy_bits;
use nitro_sketches::{FlowKey, FlowKeyMap};

/// Plug-in entropy estimation over a uniform packet sample.
pub struct SampledEntropy {
    p: f64,
    rng: Xoshiro256StarStar,
    counts: FlowKeyMap<f64>,
    sampled: u64,
    seen: u64,
}

impl SampledEntropy {
    /// Sample packets with probability `p ∈ (0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0);
        Self {
            p,
            rng: Xoshiro256StarStar::new(seed),
            counts: FlowKeyMap::default(),
            sampled: 0,
            seen: 0,
        }
    }

    /// Process one packet.
    pub fn update(&mut self, key: FlowKey) {
        self.seen += 1;
        if self.rng.next_bool(self.p) {
            self.sampled += 1;
            *self.counts.entry(key).or_insert(0.0) += 1.0;
        }
    }

    /// The plug-in estimate: empirical entropy of the *sampled* counts.
    ///
    /// Biased: flows sampled 0 times vanish entirely and flows sampled
    /// once carry distorted probability mass — the effect the §8 lower
    /// bound formalizes.
    pub fn estimate_bits(&self) -> f64 {
        entropy_bits(self.counts.values().copied())
    }

    /// (seen, sampled).
    pub fn sample_stats(&self) -> (u64, u64) {
        (self.seen, self.sampled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_traffic::GroundTruth;

    /// A stream whose entropy lives in the tail: one elephant plus a sea
    /// of single-packet mice.
    fn tail_heavy_stream(n: usize) -> Vec<FlowKey> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i % 2 == 0 {
                out.push(1); // elephant: half the packets
            } else {
                out.push(1_000_000 + i as u64); // fresh mouse every time
            }
        }
        out
    }

    #[test]
    fn plug_in_estimator_collapses_on_tail_heavy_traffic() {
        let stream = tail_heavy_stream(400_000);
        let truth = GroundTruth::from_keys(stream.iter().copied());
        let h_true = truth.entropy_bits();
        // True entropy: 0.5·1 bit for the elephant split + 200k mice each
        // at p=1/400k contribute ~0.5·log2(400k) ≈ 9.3 bits ⇒ ~9.8 bits.
        assert!(h_true > 9.0, "workload not tail-heavy enough: {h_true}");

        // The uniform-sample plug-in at p = 1% sees ~2k of 200k mice.
        let mut se = SampledEntropy::new(0.01, 7);
        for &k in &stream {
            se.update(k);
        }
        let h_sampled = se.estimate_bits();
        let rel = (h_sampled - h_true).abs() / h_true;
        assert!(
            rel > 0.15,
            "plug-in should be badly biased here: {h_sampled} vs {h_true}"
        );

        // A structure that sees every packet does fine: exact per-flow
        // counting via a full-width sketch would be trivial; use the exact
        // truth of a 10%-of-stream *prefix* (an AlwaysCorrect-style
        // unsampled warm-up) to show prefix-exactness beats sampling.
        let prefix_truth = GroundTruth::from_keys(stream[..40_000].iter().copied());
        let h_prefix = prefix_truth.entropy_bits();
        let prefix_rel = (h_prefix - h_true).abs() / h_true;
        assert!(
            prefix_rel < rel,
            "unsampled prefix ({h_prefix}) should beat the plug-in ({h_sampled})"
        );
    }

    #[test]
    fn plug_in_fine_on_skewed_traffic() {
        // Where entropy is carried by big flows, sampling is fine — the
        // failure is specifically a tail phenomenon.
        let mut stream = Vec::new();
        for i in 0..100_000u64 {
            stream.push(i % 8); // uniform over 8 flows: H = 3 bits
        }
        let mut se = SampledEntropy::new(0.01, 9);
        for &k in &stream {
            se.update(k);
        }
        let h = se.estimate_bits();
        assert!((h - 3.0).abs() < 0.05, "estimate {h}");
    }

    #[test]
    fn p_one_is_exact() {
        let stream = tail_heavy_stream(50_000);
        let truth = GroundTruth::from_keys(stream.iter().copied());
        let mut se = SampledEntropy::new(1.0, 11);
        for &k in &stream {
            se.update(k);
        }
        assert!((se.estimate_bits() - truth.entropy_bits()).abs() < 1e-9);
        let (seen, sampled) = se.sample_stats();
        assert_eq!(seen, sampled);
    }
}
