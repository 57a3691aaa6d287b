//! ±1 sign hashes (`g_i` in Algorithm 1).
//!
//! Count Sketch and K-ary update counters by `g_i(x) ∈ {−1, +1}`; Count-Min
//! uses the constant `+1` (the paper phrases this as "g_i is either ±1
//! getting an L2 guarantee or +1 for an L1 guarantee"). This module provides
//! both behind one enum, so NitroSketch's generic update path does not branch
//! on the sketch type.

use crate::pairwise::{mod_mersenne61, mul_mod_mersenne61, PolyHash, MERSENNE61};

/// A sign function `g(x) ∈ {−1, +1}` (or constant `+1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignHash {
    /// Always `+1` — yields the L1 (Count-Min) style guarantee.
    AlwaysPlus,
    /// Pairwise-independent random sign — yields the L2 (Count Sketch)
    /// style guarantee. The low bit of `a1·x + a0` over GF(2^61 − 1)
    /// decides the sign; the coefficients are those of
    /// [`PolyHash::pairwise`], held inline so a sign costs one modular
    /// multiply-add and no pointer chase.
    Pairwise {
        /// Constant coefficient.
        a0: u64,
        /// Linear coefficient.
        a1: u64,
    },
}

impl SignHash {
    /// Constant `+1` signs.
    pub fn always_plus() -> Self {
        SignHash::AlwaysPlus
    }

    /// Random pairwise-independent signs seeded deterministically.
    pub fn pairwise(seed: u64) -> Self {
        let &[a0, a1] = PolyHash::pairwise(seed).coeffs() else {
            unreachable!("a pairwise PolyHash has two coefficients")
        };
        SignHash::Pairwise { a0, a1 }
    }

    /// `g(key)`'s IEEE sign bit: `1 << 63` for `−1`, `0` for `+1`.
    ///
    /// Kept as data rather than a `bool`: a `bool` lets the compiler
    /// lower `sign_f64` to a branch, which a random sign mispredicts half
    /// the time.
    #[inline(always)]
    fn sign_bit(&self, key: u64) -> u64 {
        match *self {
            SignHash::AlwaysPlus => 0,
            // `PolyHash::hash`'s Horner step for degree 1.
            SignHash::Pairwise { a0, a1 } => {
                let x = key % MERSENNE61;
                mod_mersenne61(mul_mod_mersenne61(a1, x) as u128 + a0 as u128) << 63
            }
        }
    }

    /// Evaluate the sign for a key: `+1` or `−1`.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        1 - 2 * (self.sign_bit(key) >> 63) as i64
    }

    /// Evaluate as `f64` (the Nitro update path scales by `p⁻¹ · g(x)`):
    /// `1.0` with `g(key)`'s sign bit.
    #[inline]
    pub fn sign_f64(&self, key: u64) -> f64 {
        f64::from_bits(1.0f64.to_bits() | self.sign_bit(key))
    }

    /// Whether this instance can provide an L2-style guarantee (random
    /// signs) as opposed to only L1 (constant `+1`).
    pub fn is_l2(&self) -> bool {
        matches!(self, SignHash::Pairwise { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_plus_is_one() {
        let g = SignHash::always_plus();
        for k in 0..100 {
            assert_eq!(g.sign(k), 1);
        }
        assert!(!g.is_l2());
    }

    #[test]
    fn pairwise_is_balanced() {
        let g = SignHash::pairwise(7);
        assert!(g.is_l2());
        let plus = (0..100_000u64).filter(|&k| g.sign(k) == 1).count();
        assert!((45_000..55_000).contains(&plus), "plus {plus}");
    }

    #[test]
    fn pairwise_is_deterministic() {
        let a = SignHash::pairwise(9);
        let b = SignHash::pairwise(9);
        for k in 0..1000 {
            assert_eq!(a.sign(k), b.sign(k));
            assert!(a.sign(k) == 1 || a.sign(k) == -1);
        }
    }

    #[test]
    fn sign_f64_matches_sign() {
        let g = SignHash::pairwise(11);
        for k in 0..1000 {
            assert_eq!(g.sign_f64(k), g.sign(k) as f64);
        }
    }

    /// The first 10 000 signs of three seeds, one bit each, hashed. The
    /// values were recorded from the `PolyHash`-backed evaluation; any
    /// change to how a sign is computed must reproduce them.
    #[test]
    fn sign_sequences_match_golden() {
        let digest = |seed: u64| {
            let g = SignHash::pairwise(seed);
            let bits: Vec<u8> = (0..10_000u64).map(|k| (g.sign(k) == 1) as u8).collect();
            crate::xxh64(&bits, 0)
        };
        let got = [digest(1), digest(0xDEAD_BEEF), digest(u64::MAX)];
        assert_eq!(
            got,
            [
                0x809c_3c3e_358e_5432,
                0x1444_4a8d_2cff_af38,
                0x0233_9993_aaf2_0b0b
            ],
            "{got:#018x?}"
        );
    }

    #[test]
    fn empirical_pairwise_independence() {
        // For two fixed distinct keys, the four sign combinations should be
        // roughly equally likely across independently seeded instances.
        let mut quad = [0usize; 4];
        for seed in 0..4000u64 {
            let g = SignHash::pairwise(seed);
            let a = (g.sign(123) == 1) as usize;
            let b = (g.sign(456) == 1) as usize;
            quad[a * 2 + b] += 1;
        }
        for &q in &quad {
            assert!((800..1200).contains(&q), "quadrant {q}");
        }
    }
}
