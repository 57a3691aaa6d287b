//! Count Sketch (Charikar, Chen & Farach-Colton, 2002).
//!
//! `d` rows × `w` counters with pairwise row hashes `h_r` and pairwise sign
//! hashes `g_r ∈ {−1, +1}`; an update adds `weight · g_r(key)` per row and a
//! query returns the median over rows of `C[r][h_r(key)] · g_r(key)`.
//! Guarantees `|f̂x − fx| ≤ εL2` with probability `1 − δ` for
//! `w = O(ε⁻²)`, `d = O(log δ⁻¹)`.
//!
//! The row-wise sum of squared counters is a `(1 ± ε)` estimator of the
//! stream's `L2²` (AMS) — exactly the quantity AlwaysCorrect NitroSketch
//! monitors to decide when sampling is statistically safe (Algorithm 1,
//! line 14).

use crate::checkpoint::DirtyLines;
use crate::traits::{FlowKey, RowSketch, Sketch, Slot, COUNTER_BYTES};
use nitro_hash::reduce;
use nitro_hash::sign::SignHash;
use nitro_hash::xxhash::xxh64_u64;

/// A Count Sketch with `f64` counters.
#[derive(Clone, Debug)]
pub struct CountSketch {
    depth: usize,
    width: usize,
    counters: Vec<f64>,
    seeds: Vec<u64>,
    signs: Vec<SignHash>,
    /// Incrementally maintained Σ C² per row (O(1) convergence checks).
    row_ss: Vec<f64>,
    /// Counter lines written since the last checkpoint took them (none
    /// tracked before the first take).
    dirty: DirtyLines,
}

impl CountSketch {
    /// Create a `depth × width` sketch; `seed` derives row and sign hashes.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(
            depth >= 1 && width >= 1,
            "CountSketch dimensions must be ≥ 1"
        );
        // Row seeds are streams 0..depth and sign seeds streams
        // depth..2·depth of the canonical SeedSequence (the same layout the
        // adversarial generator assumes for a leaked master seed).
        let seq = nitro_hash::SeedSequence::new(seed);
        let seeds: Vec<u64> = seq.derive_n(depth);
        let signs: Vec<SignHash> = (depth..2 * depth)
            .map(|i| SignHash::pairwise(seq.derive(i as u64)))
            .collect();
        Self {
            depth,
            width,
            counters: vec![0.0; depth * width],
            seeds,
            signs,
            row_ss: vec![0.0; depth],
            dirty: DirtyLines::default(),
        }
    }

    /// Dimension for an `(ε, δ)` L2 guarantee: `w = ⌈4/ε²⌉`,
    /// `d = ⌈log₂ δ⁻¹⌉` (odd, so the median is a single row value).
    pub fn with_error(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let width = (4.0 / (epsilon * epsilon)).ceil() as usize;
        let mut depth = (1.0 / delta).log2().ceil().max(1.0) as usize;
        if depth.is_multiple_of(2) {
            depth += 1;
        }
        Self::new(depth, width, seed)
    }

    /// Dimension from a paper-style memory budget (4-byte counters).
    pub fn with_memory(bytes: usize, depth: usize, seed: u64) -> Self {
        let width = (bytes / COUNTER_BYTES / depth).max(1);
        Self::new(depth, width, seed)
    }

    /// The `(1 ± ε)` AMS estimate of the stream's L2 norm (not squared).
    pub fn l2_estimate(&self) -> f64 {
        self.l2_squared_estimate().max(0.0).sqrt()
    }

    /// Merge another sketch built with identical parameters (linearity —
    /// the controller-side aggregation of per-switch sketches).
    ///
    /// # Panics
    /// Panics on parameter mismatch.
    pub fn merge(&mut self, other: &CountSketch) {
        assert_eq!(self.depth, other.depth, "depth mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.seeds, other.seeds, "hash seeds mismatch");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.dirty.mark_all();
        for r in 0..self.depth {
            self.row_ss[r] = self.counters[r * self.width..(r + 1) * self.width]
                .iter()
                .map(|c| c * c)
                .sum();
        }
    }
}

impl Sketch for CountSketch {
    fn update(&mut self, key: FlowKey, weight: f64) {
        for r in 0..self.depth {
            self.update_row(r, key, weight);
        }
    }

    fn estimate(&self, key: FlowKey) -> f64 {
        self.estimate_robust(key)
    }

    fn clear(&mut self) {
        self.counters.fill(0.0);
        self.row_ss.fill(0.0);
        self.dirty.mark_all();
    }

    fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<f64>()
    }
}

impl RowSketch for CountSketch {
    fn depth(&self) -> usize {
        self.depth
    }

    fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn slot(&self, row: usize, key: FlowKey) -> Slot {
        Slot {
            index: row * self.width + reduce(xxh64_u64(key, self.seeds[row]), self.width),
            sign: self.signs[row].sign_f64(key),
        }
    }

    #[inline]
    fn add_at(&mut self, row: usize, slots: impl IntoIterator<Item = Slot>, delta: f64) {
        // Σ C² in a register: the same sums in the same order, without a
        // reload after every counter and dirty-bit store.
        let mut ss = self.row_ss[row];
        for s in slots {
            let c = self.counters[s.index];
            let d = delta * s.sign;
            self.counters[s.index] = c + d;
            self.dirty.mark(s.index);
            ss += 2.0 * c * d + d * d;
        }
        self.row_ss[row] = ss;
    }

    #[inline]
    fn estimate_at(&self, slots: &[Slot]) -> f64 {
        crate::median_of(slots.iter().map(|s| self.counters[s.index] * s.sign))
    }

    fn row_sum_squares(&self, row: usize) -> f64 {
        self.row_ss[row]
    }

    fn clear_rows(&mut self) {
        self.clear();
    }

    fn row_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn row_max_abs(&self, row: usize) -> f64 {
        self.counters[row * self.width..(row + 1) * self.width]
            .iter()
            .fold(0.0, |m, c| m.max(c.abs()))
    }

    fn row_abs_total(&self, row: usize) -> f64 {
        self.counters[row * self.width..(row + 1) * self.width]
            .iter()
            .map(|c| c.abs())
            .sum()
    }

    fn row_signed_total(&self, row: usize) -> f64 {
        self.counters[row * self.width..(row + 1) * self.width]
            .iter()
            .sum()
    }
}

impl crate::traits::UnivLayer for CountSketch {
    fn layer_update(&mut self, key: FlowKey, weight: f64) -> bool {
        self.update(key, weight);
        true
    }

    fn layer_estimate(&self, key: FlowKey) -> f64 {
        self.estimate_robust(key)
    }

    fn layer_clear(&mut self) {
        self.clear();
    }

    fn layer_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// "CSSK" — Count Sketch checkpoint magic.
const CS_MAGIC: u32 = 0x4353_534B;

impl crate::checkpoint::Checkpoint for CountSketch {
    fn write_image(&self, out: &mut Vec<u8>, at: usize, dirty: Option<&DirtyLines>) {
        let mut e = crate::checkpoint::Encoder::at(out, at, CS_MAGIC);
        e.u32(self.depth as u32).u32(self.width as u32);
        // Sign hashes derive from the same seed chain as the row seeds, so
        // seed equality implies sign-hash equality — no need to serialize
        // the sign functions themselves.
        e.u64s(&self.seeds);
        e.counters(&self.counters, dirty);
    }

    fn take_dirty(&mut self, into: &mut DirtyLines) {
        self.dirty.take_into(into, self.counters.len());
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointError, Decoder};
        let mut d = Decoder::new(bytes, CS_MAGIC)?;
        if d.u32()? as usize != self.depth {
            return Err(CheckpointError::Mismatch("depth"));
        }
        if d.u32()? as usize != self.width {
            return Err(CheckpointError::Mismatch("width"));
        }
        if d.u64s(self.depth)? != self.seeds {
            return Err(CheckpointError::Mismatch("hash seeds"));
        }
        // Last fallible step, and all-or-nothing: from here on we commit.
        d.f64s_into(&mut self.counters)?;
        self.dirty.mark_all();
        for r in 0..self.depth {
            self.row_ss[r] = self.counters[r * self.width..(r + 1) * self.width]
                .iter()
                .map(|c| c * c)
                .sum();
        }
        Ok(())
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn merge_compatible(&self, other: &Self) -> Result<(), crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        if self.depth != other.depth {
            return Err(CheckpointError::Mismatch("depth"));
        }
        if self.width != other.width {
            return Err(CheckpointError::Mismatch("width"));
        }
        if self.seeds != other.seeds {
            return Err(CheckpointError::Mismatch("hash seeds"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn zipf_stream(n: usize, keys: u64, seed: u64) -> Vec<u64> {
        // Cheap skewed stream: key k with probability ∝ 1/(k+1).
        let mut rng = nitro_hash::Xoshiro256StarStar::new(seed);
        let weights: Vec<f64> = (0..keys).map(|k| 1.0 / (k + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        (0..n)
            .map(|_| {
                let mut t = rng.next_f64() * total;
                for (k, w) in weights.iter().enumerate() {
                    t -= w;
                    if t <= 0.0 {
                        return k as u64;
                    }
                }
                keys - 1
            })
            .collect()
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut cs = CountSketch::new(5, 4096, 1);
        cs.update(7, 10.0);
        assert_eq!(cs.estimate(7), 10.0);
        assert_eq!(cs.estimate(8), 0.0);
    }

    #[test]
    fn heavy_hitters_recovered_in_skewed_stream() {
        let mut cs = CountSketch::new(5, 1024, 2);
        let stream = zipf_stream(50_000, 1000, 3);
        let mut truth: HashMap<u64, f64> = HashMap::new();
        for &k in &stream {
            cs.update(k, 1.0);
            *truth.entry(k).or_insert(0.0) += 1.0;
        }
        // The top-5 flows must be estimated within 10%.
        let mut flows: Vec<(u64, f64)> = truth.iter().map(|(&k, &v)| (k, v)).collect();
        flows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(k, t) in flows.iter().take(5) {
            let e = cs.estimate(k);
            assert!((e - t).abs() / t < 0.10, "key {k}: est {e} truth {t}");
        }
    }

    #[test]
    fn estimate_is_unbiased_over_seeds() {
        // Average the estimate for one mid-size flow over many seeds: the
        // signed-collision noise must cancel.
        let mut sum = 0.0;
        let trials = 50;
        for seed in 0..trials {
            let mut cs = CountSketch::new(1, 64, seed);
            for k in 0..500u64 {
                cs.update(k, 1.0);
            }
            sum += cs.estimate_at(&[cs.slot(0, 42)]);
        }
        let mean = sum / trials as f64;
        assert!((mean - 1.0).abs() < 2.0, "mean {mean} should be ≈ 1");
    }

    #[test]
    fn l2_estimate_tracks_truth() {
        let mut cs = CountSketch::new(5, 2048, 4);
        let stream = zipf_stream(30_000, 500, 5);
        let mut truth: HashMap<u64, f64> = HashMap::new();
        for &k in &stream {
            cs.update(k, 1.0);
            *truth.entry(k).or_insert(0.0) += 1.0;
        }
        let l2_true: f64 = truth.values().map(|f| f * f).sum::<f64>().sqrt();
        let l2_est = cs.l2_estimate();
        assert!(
            (l2_est - l2_true).abs() / l2_true < 0.05,
            "L2 est {l2_est} vs true {l2_true}"
        );
    }

    #[test]
    fn row_updates_compose_to_full_update() {
        let mut full = CountSketch::new(5, 128, 6);
        let mut rows = CountSketch::new(5, 128, 6);
        full.update(33, 2.0);
        for r in 0..5 {
            rows.update_row(r, 33, 2.0);
        }
        assert_eq!(full.counters, rows.counters);
    }

    #[test]
    fn with_error_gives_odd_depth() {
        let cs = CountSketch::with_error(0.05, 0.01, 7);
        assert_eq!(cs.depth() % 2, 1);
        assert!(RowSketch::width(&cs) >= (4.0 / (0.05 * 0.05)) as usize);
    }

    #[test]
    fn negative_weights_supported_for_deletion() {
        let mut cs = CountSketch::new(3, 512, 8);
        cs.update(9, 5.0);
        cs.update(9, -5.0);
        assert_eq!(cs.estimate(9), 0.0);
    }

    #[test]
    fn memory_reports_actual_f64_footprint() {
        let cs = CountSketch::new(5, 1000, 9);
        assert_eq!(cs.memory_bytes(), 5 * 1000 * 8);
    }

    #[test]
    fn incremental_sum_squares_matches_scan() {
        let mut cs = CountSketch::new(4, 64, 30);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(31);
        for _ in 0..5000 {
            let k = rng.next_range(300);
            cs.update(k, 1.0);
            if rng.next_bool(0.1) {
                cs.update_row((rng.next_u64() % 4) as usize, k, 10.0);
            }
        }
        for r in 0..4 {
            let scan: f64 = cs.counters[r * cs.width..(r + 1) * cs.width]
                .iter()
                .map(|c| c * c)
                .sum();
            let inc = cs.row_sum_squares(r);
            assert!(
                (scan - inc).abs() < 1e-6 * scan.max(1.0),
                "row {r}: {inc} vs {scan}"
            );
        }
    }

    #[test]
    fn batch_update_matches_scalar() {
        let mut a = CountSketch::new(3, 128, 32);
        let mut b = CountSketch::new(3, 128, 32);
        let keys: Vec<u64> = (0..100).map(|i| i * 6131).collect();
        for &k in &keys {
            a.update_row(2, k, 4.0);
        }
        b.update_row_batch(2, &keys, 4.0);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = CountSketch::new(5, 512, 78);
        let mut b = CountSketch::new(5, 512, 78);
        let mut union = CountSketch::new(5, 512, 78);
        for k in 0..200u64 {
            a.update(k, 2.0);
            union.update(k, 2.0);
        }
        for k in 100..300u64 {
            b.update(k, 3.0);
            union.update(k, 3.0);
        }
        a.merge(&b);
        for k in 0..300u64 {
            assert_eq!(a.estimate(k), union.estimate(k), "key {k}");
        }
        assert!((a.l2_estimate() - union.l2_estimate()).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        use crate::checkpoint::Checkpoint;
        let mut cs = CountSketch::new(5, 512, 60);
        let stream = zipf_stream(20_000, 500, 61);
        for &k in &stream {
            cs.update(k, 1.0);
        }
        let snap = cs.snapshot();
        let mut fresh = CountSketch::new(5, 512, 60);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.counters, cs.counters);
        assert!((fresh.l2_estimate() - cs.l2_estimate()).abs() < 1e-9);
        for k in 0..500u64 {
            assert_eq!(fresh.estimate(k), cs.estimate(k));
        }
    }

    #[test]
    fn checkpoint_rejects_incompatible_receiver() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let snap = CountSketch::new(5, 512, 1).snapshot();
        let mut wrong = CountSketch::new(5, 512, 2);
        assert_eq!(
            wrong.restore(&snap).unwrap_err(),
            CheckpointError::Mismatch("hash seeds")
        );
        let mut wrong_depth = CountSketch::new(3, 512, 1);
        assert_eq!(
            wrong_depth.restore(&snap).unwrap_err(),
            CheckpointError::Mismatch("depth")
        );
    }
}
