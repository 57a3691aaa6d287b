//! Pairwise- and k-wise-independent hash families.
//!
//! The analysis in §5 of the paper needs only *pairwise* independent row
//! hashes `h_i : [n] → [w]` and two-wise independent sign hashes `g_i`.
//! [`MultiplyShift`] provides the fastest such family in practice;
//! [`PolyHash`] provides arbitrary-degree (k-wise) independence via
//! polynomials over the Mersenne prime field GF(2^61 − 1), used where
//! four-wise independence is wanted (e.g. the L2 estimator's variance
//! argument in AMS-style sketches).

use crate::rng::SplitMix64;
use crate::KeyHasher;

/// A hash-family construction was given coefficients that collapse the
/// family (zero / all-equal draws). Constructors that *draw* coefficients
/// reject-and-resample these internally; constructors that *accept*
/// coefficients surface this error instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegenerateSeed(pub &'static str);

impl std::fmt::Display for DegenerateSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degenerate hash seed: {}", self.0)
    }
}

impl std::error::Error for DegenerateSeed {}

/// Dietzfelbinger's multiply-shift family: `h(x) = (a·x + b) >> (128 − 64)`
/// computed in 128-bit arithmetic with odd `a`.
///
/// Strongly universal (pairwise independent) on 64-bit keys, two multiplies
/// per hash. This is the family used on the simulator's hot paths when
/// xxHash-compatibility is not needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiplyShift {
    a: u128,
    b: u128,
}

impl MultiplyShift {
    /// Draw a random function from the family, seeded deterministically.
    /// Degenerate draws (`a` collapsing to the identity-ish `1`, or
    /// `a == b`) are rejected and redrawn from the continuing stream, so
    /// every seed yields a full-rank member of the family.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        loop {
            let a = ((sm.next_u64() as u128) << 64 | sm.next_u64() as u128) | 1;
            let b = (sm.next_u64() as u128) << 64 | sm.next_u64() as u128;
            if let Ok(h) = Self::from_coeffs(a, b) {
                return h;
            }
        }
    }

    /// Build from explicit coefficients, rejecting degenerate pairs:
    /// `a` must be odd and neither `1` (a zero draw forced odd) nor equal
    /// to `b`.
    pub fn from_coeffs(a: u128, b: u128) -> Result<Self, DegenerateSeed> {
        if a & 1 == 0 {
            return Err(DegenerateSeed("multiplier must be odd"));
        }
        if a == 1 {
            return Err(DegenerateSeed("zero multiplier draw"));
        }
        if a == b {
            return Err(DegenerateSeed("all-equal pairwise coefficients"));
        }
        Ok(Self { a, b })
    }

    /// Hash a 64-bit key to 64 bits.
    #[inline(always)]
    pub fn hash(&self, x: u64) -> u64 {
        (self.a.wrapping_mul(x as u128).wrapping_add(self.b) >> 64) as u64
    }
}

impl KeyHasher for MultiplyShift {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        // Fold arbitrary byte keys into 64 bits first (xxHash64 with seed 0),
        // then apply the pairwise map; for ≤ 8-byte keys this folding is a
        // bijection-like cheap load.
        let folded = if key.len() <= 8 {
            let mut buf = [0u8; 8];
            buf[..key.len()].copy_from_slice(key);
            u64::from_le_bytes(buf)
        } else {
            crate::xxhash::xxh64(key, 0)
        };
        self.hash(folded)
    }

    fn hash_u64(&self, key: u64) -> u64 {
        self.hash(key)
    }
}

/// The Mersenne prime 2^61 − 1 used as the field modulus for [`PolyHash`].
pub const MERSENNE61: u64 = (1 << 61) - 1;

#[inline(always)]
pub(crate) fn mod_mersenne61(x: u128) -> u64 {
    // x mod (2^61 - 1): fold the high bits down twice (the first fold can
    // produce up to ~2^62), then one conditional subtract.
    let lo = (x & MERSENNE61 as u128) as u64;
    let hi = (x >> 61) as u64;
    let s = lo as u128 + hi as u128;
    let mut s = (s & MERSENNE61 as u128) as u64 + (s >> 61) as u64;
    if s >= MERSENNE61 {
        s -= MERSENNE61;
    }
    s
}

#[inline(always)]
pub(crate) fn mul_mod_mersenne61(a: u64, b: u64) -> u64 {
    mod_mersenne61((a as u128) * (b as u128))
}

/// k-wise independent polynomial hashing over GF(2^61 − 1):
/// `h(x) = (a_{k-1} x^{k-1} + … + a_1 x + a_0) mod (2^61 − 1)`.
///
/// A degree-(k−1) polynomial with uniformly random coefficients is exactly
/// k-wise independent on keys below the modulus. Evaluation is Horner's rule:
/// k−1 modular multiply-adds.
#[derive(Clone, Debug)]
pub struct PolyHash {
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Draw a random k-wise independent function (`k` ≥ 1), deterministically
    /// from `seed`. Degenerate draws (zero polynomial, all-equal
    /// coefficients, vanishing leading coefficient) are rejected and
    /// redrawn from the continuing stream.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "independence degree must be at least 1");
        let mut sm = SplitMix64::new(seed);
        loop {
            let coeffs: Vec<u64> = (0..k).map(|_| sm.next_u64() % MERSENNE61).collect();
            if let Ok(h) = Self::from_coeffs(coeffs) {
                return h;
            }
        }
    }

    /// Build from explicit field coefficients (`a_0, …, a_{k-1}`), rejecting
    /// degenerate vectors: the zero polynomial, all-equal coefficients for
    /// `k ≥ 2` (which collapse toward a constant-heavy map), and a zero
    /// leading coefficient (which silently drops the independence degree).
    pub fn from_coeffs(coeffs: Vec<u64>) -> Result<Self, DegenerateSeed> {
        if coeffs.is_empty() {
            return Err(DegenerateSeed("empty coefficient vector"));
        }
        if coeffs.iter().any(|&c| c >= MERSENNE61) {
            return Err(DegenerateSeed("coefficient outside GF(2^61 - 1)"));
        }
        if coeffs.iter().all(|&c| c == 0) {
            return Err(DegenerateSeed("zero polynomial"));
        }
        if coeffs.len() >= 2 && coeffs.windows(2).all(|w| w[0] == w[1]) {
            return Err(DegenerateSeed("all-equal pairwise coefficients"));
        }
        if *coeffs.last().expect("non-empty") == 0 {
            return Err(DegenerateSeed("zero leading coefficient"));
        }
        Ok(Self { coeffs })
    }

    /// Convenience: a pairwise (2-wise) independent instance.
    pub fn pairwise(seed: u64) -> Self {
        Self::new(2, seed)
    }

    /// Convenience: a four-wise independent instance.
    pub fn fourwise(seed: u64) -> Self {
        Self::new(4, seed)
    }

    /// Evaluate the polynomial at `x` (keys are first reduced mod 2^61 − 1).
    /// The result is a field element, i.e. strictly below 2^61 − 1.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x = x % MERSENNE61;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = mod_mersenne61(mul_mod_mersenne61(acc, x) as u128 + c as u128);
        }
        acc
    }

    /// Evaluate and spread onto the full 64-bit range so that
    /// [`crate::reduce`] buckets uniformly: `h << 3` maps the 61-bit field
    /// element injectively onto 64 bits, and `reduce(h << 3, n)` equals the
    /// exact `⌊h·n / 2^61⌋` bucketing of the field element.
    #[inline]
    pub fn hash_spread(&self, x: u64) -> u64 {
        self.hash(x) << 3
    }

    /// The independence degree k of this instance.
    pub fn degree(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficients `a_0, …, a_{k-1}`.
    pub(crate) fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }
}

impl KeyHasher for PolyHash {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        let folded = if key.len() <= 8 {
            let mut buf = [0u8; 8];
            buf[..key.len()].copy_from_slice(key);
            u64::from_le_bytes(buf)
        } else {
            crate::xxhash::xxh64(key, 0)
        };
        self.hash_spread(folded)
    }

    fn hash_u64(&self, key: u64) -> u64 {
        self.hash_spread(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce;

    #[test]
    fn mersenne_mod_matches_naive() {
        for x in [
            0u128,
            1,
            MERSENNE61 as u128,
            MERSENNE61 as u128 + 1,
            u64::MAX as u128,
            u128::MAX >> 6,
        ] {
            assert_eq!(mod_mersenne61(x) as u128, x % MERSENNE61 as u128);
        }
    }

    #[test]
    fn mul_mod_matches_naive() {
        let mut sm = SplitMix64::new(9);
        for _ in 0..1000 {
            let a = sm.next_u64() % MERSENNE61;
            let b = sm.next_u64() % MERSENNE61;
            let expect = ((a as u128 * b as u128) % MERSENNE61 as u128) as u64;
            assert_eq!(mul_mod_mersenne61(a, b), expect);
        }
    }

    #[test]
    fn multiply_shift_deterministic_and_distinct() {
        let h1 = MultiplyShift::new(1);
        let h2 = MultiplyShift::new(2);
        assert_eq!(h1.hash(12345), h1.hash(12345));
        assert_ne!(h1.hash(12345), h2.hash(12345));
    }

    #[test]
    fn multiply_shift_spreads_buckets() {
        let h = MultiplyShift::new(3);
        let w = 64;
        let mut counts = vec![0usize; w];
        for x in 0..64_000u64 {
            counts[reduce(h.hash(x), w)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket {c}");
        }
    }

    #[test]
    fn poly_hash_is_polynomial() {
        // Degree-1 polynomial is a constant function of the single coeff.
        let h = PolyHash::new(1, 4);
        assert_eq!(h.hash(1), h.hash(999_999));
    }

    #[test]
    fn poly_hash_pairwise_collision_rate() {
        // Empirical collision probability over w buckets should be ≈ 1/w.
        let w = 128;
        let trials = 400;
        let mut collisions = 0usize;
        for seed in 0..trials {
            let h = PolyHash::pairwise(seed as u64);
            if reduce(h.hash_spread(17), w) == reduce(h.hash_spread(9999), w) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        assert!(rate < 4.0 / w as f64, "collision rate {rate} too high");
    }

    #[test]
    fn poly_hash_output_below_modulus() {
        let h = PolyHash::fourwise(5);
        let mut sm = SplitMix64::new(11);
        for _ in 0..10_000 {
            assert!(h.hash(sm.next_u64()) < MERSENNE61);
        }
    }

    #[test]
    fn multiply_shift_rejects_degenerate_coeffs() {
        assert_eq!(
            MultiplyShift::from_coeffs(1, 99),
            Err(DegenerateSeed("zero multiplier draw"))
        );
        assert_eq!(
            MultiplyShift::from_coeffs(7, 7),
            Err(DegenerateSeed("all-equal pairwise coefficients"))
        );
        assert_eq!(
            MultiplyShift::from_coeffs(4, 2),
            Err(DegenerateSeed("multiplier must be odd"))
        );
        assert!(MultiplyShift::from_coeffs(7, 9).is_ok());
    }

    #[test]
    fn poly_hash_rejects_degenerate_coeffs() {
        assert_eq!(
            PolyHash::from_coeffs(vec![]).err(),
            Some(DegenerateSeed("empty coefficient vector"))
        );
        assert!(PolyHash::from_coeffs(vec![0, 0]).is_err());
        assert!(PolyHash::from_coeffs(vec![5, 5]).is_err());
        assert!(PolyHash::from_coeffs(vec![5, 0]).is_err());
        assert!(PolyHash::from_coeffs(vec![MERSENNE61, 1]).is_err());
        assert!(PolyHash::from_coeffs(vec![5, 9]).is_ok());
    }

    #[test]
    fn every_seed_yields_nondegenerate_draw() {
        // Rejection sampling must terminate and produce distinct, working
        // instances for a sweep of seeds, including the adversarial zeros.
        for seed in (0..64).chain([u64::MAX, u64::MAX - 1]) {
            let m = MultiplyShift::new(seed);
            assert_eq!(m.hash(1), m.hash(1));
            let p = PolyHash::pairwise(seed);
            assert!(p.hash(17) < MERSENNE61);
        }
    }

    #[test]
    fn key_hasher_u64_consistency() {
        let h = MultiplyShift::new(8);
        for k in [0u64, 5, u64::MAX] {
            assert_eq!(h.hash_u64(k), h.hash_bytes(&k.to_le_bytes()));
        }
        let p = PolyHash::pairwise(8);
        for k in [0u64, 5, u64::MAX] {
            assert_eq!(p.hash_u64(k), p.hash_bytes(&k.to_le_bytes()));
        }
    }
}
