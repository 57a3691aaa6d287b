//! K-ary sketch (Krishnamurthy, Sen, Zhang & Chen, IMC 2003).
//!
//! Structurally a `d × w` counter grid updated with `+weight` per row, but
//! queried with the *unbiased* per-row estimator
//! `v̂_r = (C[r][h_r(x)] − S_r/w) / (1 − 1/w)` where `S_r` is the row sum —
//! subtracting each row's mean removes the positive collision bias that
//! Count-Min suffers. The median across rows is reported.
//!
//! K-ary is the sketch of choice for *change detection*: subtracting two
//! epochs' sketches (they are linear) and querying the difference yields
//! per-flow traffic change estimates (see [`crate::change`]).

use crate::checkpoint::DirtyLines;
use crate::traits::{FlowKey, RowSketch, Sketch, Slot, COUNTER_BYTES};
use nitro_hash::reduce;
use nitro_hash::xxhash::xxh64_u64;

/// A K-ary sketch with `f64` counters.
#[derive(Clone, Debug)]
pub struct KarySketch {
    depth: usize,
    width: usize,
    counters: Vec<f64>,
    seeds: Vec<u64>,
    /// Exact running sum per row (maintained incrementally; identical to
    /// summing the row but O(1) to read).
    row_sums: Vec<f64>,
    /// Incrementally maintained Σ C² per row (O(1) convergence checks).
    row_ss: Vec<f64>,
    /// Counter lines written since the last checkpoint took them (none
    /// tracked before the first take).
    dirty: DirtyLines,
}

impl KarySketch {
    /// Create a `depth × width` sketch; `seed` derives the row hashes.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth >= 1 && width >= 2, "K-ary needs width ≥ 2");
        // Streams 0..depth of the canonical SeedSequence, as in CountMin.
        let seq = nitro_hash::SeedSequence::new(seed);
        Self {
            depth,
            width,
            counters: vec![0.0; depth * width],
            seeds: seq.derive_n(depth),
            row_sums: vec![0.0; depth],
            row_ss: vec![0.0; depth],
            dirty: DirtyLines::default(),
        }
    }

    /// Dimension from a paper-style memory budget (4-byte counters) — the
    /// paper's K-ary config is "2MB for 10 rows of 51200 counters".
    pub fn with_memory(bytes: usize, depth: usize, seed: u64) -> Self {
        let width = (bytes / COUNTER_BYTES / depth).max(2);
        Self::new(depth, width, seed)
    }

    /// Subtract another sketch (same dimensions and seeds) element-wise —
    /// the linearity that change detection exploits.
    ///
    /// # Panics
    /// Panics if the sketches were not created with identical parameters.
    pub fn subtract(&self, other: &KarySketch) -> KarySketch {
        assert_eq!(self.depth, other.depth, "depth mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(
            self.seeds, other.seeds,
            "hash seeds mismatch — sketches not compatible"
        );
        let mut out = self.clone();
        for (o, b) in out.counters.iter_mut().zip(&other.counters) {
            *o -= b;
        }
        out.dirty.mark_all();
        for (o, b) in out.row_sums.iter_mut().zip(&other.row_sums) {
            *o -= b;
        }
        // The subtracted grid's Σ C² cannot be derived incrementally;
        // recompute it by scanning once (subtraction is a control-plane
        // operation, not a per-packet one).
        for r in 0..out.depth {
            out.row_ss[r] = out.counters[r * out.width..(r + 1) * out.width]
                .iter()
                .map(|c| c * c)
                .sum();
        }
        out
    }

    /// Merge another sketch built with identical parameters (linearity).
    ///
    /// # Panics
    /// Panics on parameter mismatch.
    pub fn merge(&mut self, other: &KarySketch) {
        assert_eq!(self.depth, other.depth, "depth mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.seeds, other.seeds, "hash seeds mismatch");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.dirty.mark_all();
        for (a, b) in self.row_sums.iter_mut().zip(&other.row_sums) {
            *a += b;
        }
        for r in 0..self.depth {
            self.row_ss[r] = self.counters[r * self.width..(r + 1) * self.width]
                .iter()
                .map(|c| c * c)
                .sum();
        }
    }

    /// Estimate of the stream's total weight (average of exact row sums).
    pub fn total_estimate(&self) -> f64 {
        self.row_sums.iter().sum::<f64>() / self.depth as f64
    }

    /// The F2 (second moment) estimate from the K-ary grid:
    /// per row `(w/(w−1))·ΣC² − (1/(w−1))·S²`, median across rows.
    pub fn f2_estimate(&self) -> f64 {
        let w = self.width as f64;
        let mut vals: Vec<f64> = (0..self.depth)
            .map(|r| {
                let ss = self.row_sum_squares(r);
                let s = self.row_sums[r];
                (w / (w - 1.0)) * ss - (1.0 / (w - 1.0)) * s * s
            })
            .collect();
        crate::median_in_place(&mut vals)
    }
}

impl Sketch for KarySketch {
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
        self.row_sums.fill(0.0);
        self.row_ss.fill(0.0);
        self.dirty.mark_all();
    }

    fn memory_bytes(&self) -> usize {
        (self.counters.len() + self.row_sums.len()) * std::mem::size_of::<f64>()
    }
}

impl RowSketch for KarySketch {
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
            sign: 1.0,
        }
    }

    #[inline]
    fn add_at(&mut self, row: usize, slots: impl IntoIterator<Item = Slot>, delta: f64) {
        let mut n = 0usize;
        // Σ C² in a register: the same sums in the same order, without a
        // reload after every counter and dirty-bit store.
        let mut ss = self.row_ss[row];
        for s in slots {
            let c = self.counters[s.index];
            self.counters[s.index] = c + delta;
            self.dirty.mark(s.index);
            ss += 2.0 * c * delta + delta * delta;
            n += 1;
        }
        self.row_ss[row] = ss;
        self.row_sums[row] += n as f64 * delta;
    }

    /// Median over rows of the unbiased per-row estimate
    /// `(C[r][h_r(x)] − S_r/w) / (1 − 1/w)`.
    #[inline]
    fn estimate_at(&self, slots: &[Slot]) -> f64 {
        let w = self.width as f64;
        crate::median_of(
            slots
                .iter()
                .zip(&self.row_sums)
                .map(|(s, &sum)| (self.counters[s.index] - sum / w) / (1.0 - 1.0 / w)),
        )
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

    // row_signed_total: default NaN — K-ary counters are unsigned-style
    // (mean-corrected at query time), so sign bias is not a signal.
}

/// "KASK" — K-ary checkpoint magic.
const KA_MAGIC: u32 = 0x4B41_534B;

impl crate::checkpoint::Checkpoint for KarySketch {
    fn write_image(&self, out: &mut Vec<u8>, at: usize, dirty: Option<&DirtyLines>) {
        let mut e = crate::checkpoint::Encoder::at(out, at, KA_MAGIC);
        e.u32(self.depth as u32).u32(self.width as u32);
        e.u64s(&self.seeds);
        e.counters(&self.counters, dirty);
    }

    fn take_dirty(&mut self, into: &mut DirtyLines) {
        self.dirty.take_into(into, self.counters.len());
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointError, Decoder};
        let mut d = Decoder::new(bytes, KA_MAGIC)?;
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
        // Row sums and Σ C² are derived state — recompute by scan.
        for r in 0..self.depth {
            let row = &self.counters[r * self.width..(r + 1) * self.width];
            self.row_sums[r] = row.iter().sum();
            self.row_ss[r] = row.iter().map(|c| c * c).sum();
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

    #[test]
    fn exact_when_sparse() {
        let mut ks = KarySketch::new(5, 4096, 1);
        ks.update(3, 7.0);
        let e = ks.estimate(3);
        assert!((e - 7.0).abs() < 0.05, "estimate {e}");
    }

    #[test]
    fn unbiased_under_heavy_collisions() {
        // Narrow sketch, many flows: K-ary's mean-subtraction should keep
        // the average error near zero, unlike Count-Min's positive bias.
        let mut ks = KarySketch::new(5, 64, 2);
        let mut cm_bias = 0.0;
        let mut ka_bias = 0.0;
        let mut cm = crate::CountMin::new(5, 64, 2);
        let mut truth: HashMap<u64, f64> = HashMap::new();
        let mut rng = nitro_hash::Xoshiro256StarStar::new(3);
        for _ in 0..20_000 {
            let k = rng.next_range(1000);
            ks.update(k, 1.0);
            cm.update(k, 1.0);
            *truth.entry(k).or_insert(0.0) += 1.0;
        }
        for (&k, &t) in &truth {
            ka_bias += ks.estimate(k) - t;
            cm_bias += cm.estimate(k) - t;
        }
        ka_bias /= truth.len() as f64;
        cm_bias /= truth.len() as f64;
        assert!(ka_bias.abs() < 3.0, "K-ary bias {ka_bias}");
        assert!(
            cm_bias > 10.0 * ka_bias.abs(),
            "CM bias {cm_bias} vs K-ary {ka_bias}"
        );
    }

    #[test]
    fn subtract_detects_change() {
        let mut epoch1 = KarySketch::new(5, 1024, 4);
        let mut epoch2 = KarySketch::new(5, 1024, 4);
        for k in 0..100u64 {
            epoch1.update(k, 10.0);
            epoch2.update(k, 10.0);
        }
        epoch2.update(42, 500.0); // the changed flow
        let diff = epoch2.subtract(&epoch1);
        let e = diff.estimate(42);
        assert!((e - 500.0).abs() < 25.0, "change estimate {e}");
        let quiet = diff.estimate(7);
        assert!(quiet.abs() < 25.0, "quiet flow change {quiet}");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn subtract_rejects_incompatible() {
        let a = KarySketch::new(5, 1024, 1);
        let b = KarySketch::new(5, 1024, 2); // different seeds
        let _ = a.subtract(&b);
    }

    #[test]
    fn total_estimate_is_exact_sum() {
        let mut ks = KarySketch::new(3, 128, 5);
        for k in 0..50u64 {
            ks.update(k, 2.0);
        }
        assert_eq!(ks.total_estimate(), 100.0);
    }

    #[test]
    fn f2_estimate_tracks_truth() {
        let mut ks = KarySketch::new(7, 2048, 6);
        let mut truth: HashMap<u64, f64> = HashMap::new();
        let mut rng = nitro_hash::Xoshiro256StarStar::new(7);
        for _ in 0..30_000 {
            // Skewed: low keys much more frequent.
            let k = (rng.next_f64().powi(3) * 1000.0) as u64;
            ks.update(k, 1.0);
            *truth.entry(k).or_insert(0.0) += 1.0;
        }
        let f2_true: f64 = truth.values().map(|f| f * f).sum();
        let f2_est = ks.f2_estimate();
        assert!(
            (f2_est - f2_true).abs() / f2_true < 0.05,
            "F2 est {f2_est} vs {f2_true}"
        );
    }

    #[test]
    fn row_updates_compose_to_full_update() {
        let mut full = KarySketch::new(4, 64, 8);
        let mut rows = KarySketch::new(4, 64, 8);
        full.update(11, 3.0);
        for r in 0..4 {
            rows.update_row(r, 11, 3.0);
        }
        assert_eq!(full.counters, rows.counters);
        assert_eq!(full.row_sums, rows.row_sums);
    }

    #[test]
    fn clear_resets() {
        let mut ks = KarySketch::new(2, 32, 9);
        ks.update(1, 5.0);
        ks.clear();
        assert_eq!(ks.total_estimate(), 0.0);
        assert_eq!(ks.estimate(1), 0.0);
    }

    #[test]
    fn incremental_sum_squares_matches_scan() {
        let mut ks = KarySketch::new(4, 64, 40);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(41);
        for _ in 0..5000 {
            let k = rng.next_range(300);
            ks.update(k, 1.0);
            if rng.next_bool(0.1) {
                ks.update_row((rng.next_u64() % 4) as usize, k, 10.0);
            }
        }
        for r in 0..4 {
            let scan: f64 = ks.counters[r * ks.width..(r + 1) * ks.width]
                .iter()
                .map(|c| c * c)
                .sum();
            let inc = ks.row_sum_squares(r);
            assert!(
                (scan - inc).abs() < 1e-6 * scan.max(1.0),
                "row {r}: {inc} vs {scan}"
            );
        }
    }

    #[test]
    fn batch_update_matches_scalar() {
        let mut a = KarySketch::new(3, 128, 42);
        let mut b = KarySketch::new(3, 128, 42);
        let keys: Vec<u64> = (0..100).map(|i| i * 4261).collect();
        for &k in &keys {
            a.update_row(0, k, 3.0);
        }
        b.update_row_batch(0, &keys, 3.0);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.row_sums, b.row_sums);
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = KarySketch::new(5, 512, 79);
        let mut b = KarySketch::new(5, 512, 79);
        let mut union = KarySketch::new(5, 512, 79);
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
        assert_eq!(a.total_estimate(), union.total_estimate());
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        use crate::checkpoint::Checkpoint;
        let mut ks = KarySketch::new(5, 256, 70);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(71);
        for _ in 0..10_000 {
            ks.update(rng.next_range(600), 1.0);
        }
        let snap = ks.snapshot();
        let mut fresh = KarySketch::new(5, 256, 70);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.counters, ks.counters);
        assert_eq!(fresh.total_estimate(), ks.total_estimate());
        for r in 0..5 {
            assert!((fresh.row_sum_squares(r) - ks.row_sum_squares(r)).abs() < 1e-6);
        }
        for k in 0..600u64 {
            assert_eq!(fresh.estimate(k), ks.estimate(k));
        }
    }

    #[test]
    fn checkpoint_rejects_incompatible_receiver() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let snap = KarySketch::new(5, 256, 1).snapshot();
        let mut wrong = KarySketch::new(5, 256, 2);
        assert_eq!(
            wrong.restore(&snap).unwrap_err(),
            CheckpointError::Mismatch("hash seeds")
        );
        assert_eq!(
            KarySketch::new(5, 256, 1).restore(&snap[..4]).unwrap_err(),
            CheckpointError::Truncated { need: 5, got: 4 }
        );
    }
}
