//! Count-Min Sketch (Cormode & Muthukrishnan, 2005).
//!
//! `d` rows × `w` counters; each update adds the weight at one hashed position
//! per row; the point query returns the minimum over rows. Guarantees
//! `f̂x ≤ fx + εL1` with probability `1 − δ` for `w = ⌈e/ε⌉`, `d = ⌈ln δ⁻¹⌉`.
//!
//! Two estimators are exposed:
//! - [`Sketch::estimate`]: the classic minimum — correct for the vanilla
//!   (every-packet) update discipline.
//! - [`RowSketch::estimate_robust`]: the median — the `Query` of the paper's
//!   Algorithm 1, which stays unbiased when rows are *sampled* (the minimum
//!   would collapse to the unluckiest row under sampling).

use crate::checkpoint::{
    fold_rows, image_totals, open_image, patch_rows, CheckpointError, DirtyLines, Values,
};
use crate::traits::{FlowKey, RowSketch, RowTotals, Sketch, Slot, COUNTER_BYTES};
use nitro_hash::reduce;
use nitro_hash::xxhash::xxh64_u64;

/// A Count-Min Sketch with `f64` counters.
#[derive(Clone, Debug)]
pub struct CountMin {
    depth: usize,
    width: usize,
    /// Flat row-major counters: `counters[r * width + c]`.
    counters: Vec<f64>,
    /// Per-row xxHash seeds (independent hash functions, as in Fig. 1).
    seeds: Vec<u64>,
    /// Conservative update: only raise counters to the new minimum.
    conservative: bool,
    /// Incrementally maintained Σ C² per row, so the AlwaysCorrect
    /// convergence check (Alg. 1 line 14) is O(d) instead of O(d·w).
    row_ss: Vec<f64>,
    /// Total weight inserted (the stream's L1), used by derived statistics.
    total: f64,
    /// Counter lines written since the last checkpoint took them (none
    /// tracked before the first take).
    dirty: DirtyLines,
}

impl CountMin {
    /// Create a `depth × width` sketch; `seed` derives the row hashes.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth >= 1 && width >= 1, "CountMin dimensions must be ≥ 1");
        // Row seeds are streams 0..depth of the canonical SeedSequence — the
        // derivation an adversary with a leaked master seed would replay.
        let seq = nitro_hash::SeedSequence::new(seed);
        Self {
            depth,
            width,
            counters: vec![0.0; depth * width],
            seeds: seq.derive_n(depth),
            conservative: false,
            row_ss: vec![0.0; depth],
            total: 0.0,
            dirty: DirtyLines::default(),
        }
    }

    /// Dimension the sketch for an `(ε, δ)` L1 guarantee: `w = ⌈e/ε⌉`,
    /// `d = ⌈ln δ⁻¹⌉`.
    pub fn with_error(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::new(depth, width, seed)
    }

    /// Dimension from a paper-style memory budget (bytes, assuming the
    /// paper's 4-byte counters — see [`COUNTER_BYTES`]) and a row count.
    pub fn with_memory(bytes: usize, depth: usize, seed: u64) -> Self {
        let width = (bytes / COUNTER_BYTES / depth).max(1);
        Self::new(depth, width, seed)
    }

    /// Enable conservative update (only meaningful for vanilla updates —
    /// Nitro's sampled row updates bypass it by design).
    pub fn set_conservative(&mut self, on: bool) {
        self.conservative = on;
    }

    #[inline(always)]
    fn index(&self, row: usize, key: FlowKey) -> usize {
        row * self.width + reduce(xxh64_u64(key, self.seeds[row]), self.width)
    }

    /// Total weight inserted so far (exact L1 of the updates applied).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Estimate by the minimum rule regardless of update discipline.
    pub fn estimate_min(&self, key: FlowKey) -> f64 {
        (0..self.depth)
            .map(|r| self.counters[self.index(r, key)])
            .fold(f64::INFINITY, f64::min)
    }

    /// Iterate the raw counter values of one row (control-plane consumers
    /// such as ElasticSketch's light-part estimators).
    pub fn row_values(&self, row: usize) -> impl Iterator<Item = f64> + '_ {
        self.counters[row * self.width..(row + 1) * self.width]
            .iter()
            .copied()
    }

    /// Number of zero counters in a row (linear counting over the row).
    pub fn row_zero_count(&self, row: usize) -> usize {
        self.row_values(row).filter(|&c| c == 0.0).count()
    }

    /// Merge another sketch built with identical parameters (same seed,
    /// depth, width) — sketches are linear, so the merged counters answer
    /// queries over the union of both streams. This is how network-wide
    /// measurement aggregates per-switch sketches at the controller.
    ///
    /// # Panics
    /// Panics on parameter mismatch.
    pub fn merge(&mut self, other: &CountMin) {
        assert_eq!(self.depth, other.depth, "depth mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.seeds, other.seeds, "hash seeds mismatch");
        self.fold(Values::Counters(&other.counters), |a, b| a + b);
        self.total += other.total;
    }

    /// Fold `values` into the counters with `op`, keeping Σ C² and the
    /// dirty set.
    fn fold(&mut self, values: Values<'_>, op: impl Fn(f64, f64) -> f64) {
        let row_ss = &mut self.row_ss;
        fold_rows::<false>(&mut self.counters, self.width, values, op, |r, ss, _| {
            row_ss[r] = ss;
        });
        self.dirty.mark_all();
    }

    /// An image checked against this instance: its conservative flag,
    /// total weight and counter tail.
    fn open<'a>(&self, bytes: &'a [u8]) -> Result<(bool, f64, &'a [u8]), CheckpointError> {
        let mut d = open_image(bytes, CM_MAGIC, self.width, &self.seeds)?;
        let conservative = d.u8()? != 0;
        let total = d.f64()?;
        Ok((conservative, total, d.slice(self.counters.len() * 8)?))
    }
}

impl Sketch for CountMin {
    fn update(&mut self, key: FlowKey, weight: f64) {
        self.total += weight;
        if self.conservative {
            let est = self.estimate_min(key) + weight;
            for r in 0..self.depth {
                let i = self.index(r, key);
                let c = self.counters[i];
                if c < est {
                    self.counters[i] = est;
                    self.dirty.mark(i);
                    self.row_ss[r] += est * est - c * c;
                }
            }
        } else {
            for r in 0..self.depth {
                let i = self.index(r, key);
                let c = self.counters[i];
                self.counters[i] = c + weight;
                self.dirty.mark(i);
                self.row_ss[r] += 2.0 * c * weight + weight * weight;
            }
        }
    }

    fn estimate(&self, key: FlowKey) -> f64 {
        self.estimate_min(key)
    }

    fn clear(&mut self) {
        self.counters.fill(0.0);
        self.row_ss.fill(0.0);
        self.total = 0.0;
        self.dirty.mark_all();
    }

    fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<f64>()
    }
}

impl RowSketch for CountMin {
    fn depth(&self) -> usize {
        self.depth
    }

    fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn slot(&self, row: usize, key: FlowKey) -> Slot {
        Slot {
            index: self.index(row, key),
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
        self.total += n as f64 * delta / self.depth as f64;
    }

    #[inline]
    fn estimate_at(&self, slots: &[Slot]) -> f64 {
        crate::median_of(slots.iter().map(|s| self.counters[s.index]))
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

    // row_signed_total: default NaN — Count-Min counters carry no sign
    // information, so sign-bias drift is not a meaningful signal here.
}

/// "CMSK" — Count-Min checkpoint magic.
const CM_MAGIC: u32 = 0x434D_534B;

impl crate::checkpoint::Checkpoint for CountMin {
    fn write_image(&self, out: &mut Vec<u8>, at: usize, dirty: Option<&DirtyLines>) {
        let mut e = crate::checkpoint::Encoder::at(out, at, CM_MAGIC);
        e.u32(self.depth as u32).u32(self.width as u32);
        e.u64s(&self.seeds);
        e.u8(self.conservative as u8);
        e.f64(self.total);
        e.counters(&self.counters, dirty);
    }

    fn take_dirty(&mut self, into: &mut DirtyLines) {
        self.dirty.take_into(into, self.counters.len());
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let (conservative, total, image) = self.open(bytes)?;
        self.fold(Values::Image(image), |_, v| v);
        self.conservative = conservative;
        self.total = total;
        Ok(())
    }

    fn merge_image(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let (_, total, image) = self.open(bytes)?;
        self.fold(Values::Image(image), |a, b| a + b);
        self.total += total;
        Ok(())
    }

    fn patch_image(
        &mut self,
        template: &Self,
        bytes: &[u8],
        lines: &DirtyLines,
        changed: &mut DirtyLines,
    ) -> Result<bool, CheckpointError> {
        self.merge_compatible(template)?;
        let (_, total, image) = self.open(bytes)?;
        if lines.counters() != self.counters.len() || changed.counters() != lines.counters() {
            return Ok(false);
        }
        let row_ss = &mut self.row_ss;
        patch_rows(
            &mut self.counters,
            &template.counters,
            self.width,
            image,
            lines,
            changed,
            |r, ss| row_ss[r] = ss,
        );
        if self.dirty.lines() > 0 {
            self.dirty.union(lines);
        }
        self.total = template.total + total;
        Ok(true)
    }

    fn check_image(&self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.open(bytes).map(drop)
    }

    fn image_totals(&self, bytes: &[u8]) -> Result<Vec<RowTotals>, CheckpointError> {
        let (_, _, image) = self.open(bytes)?;
        Ok(image_totals(image, self.width, false))
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn merge_compatible(&self, other: &Self) -> Result<(), CheckpointError> {
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

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::new(4, 256, 1);
        for k in 0..1000u64 {
            for _ in 0..(k % 7 + 1) {
                cm.update(k, 1.0);
            }
        }
        for k in 0..1000u64 {
            let truth = (k % 7 + 1) as f64;
            assert!(cm.estimate(k) >= truth, "key {k} underestimated");
        }
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut cm = CountMin::new(3, 4096, 2);
        cm.update(7, 5.0);
        cm.update(9, 2.0);
        assert_eq!(cm.estimate(7), 5.0);
        assert_eq!(cm.estimate(9), 2.0);
        assert_eq!(cm.estimate(1234), 0.0);
    }

    #[test]
    fn error_within_l1_bound() {
        // w = e/ε with ε = 0.01, heavy stream of 100k updates: every
        // estimate must be within εL1 of truth (w.h.p. — deterministic here
        // because CMS only overestimates and the bound holds per row in
        // expectation; use a generous 3ε margin to avoid flakiness).
        let eps = 0.01;
        let mut cm = CountMin::with_error(eps, 0.01, 3);
        let mut truth = std::collections::HashMap::new();
        let mut rng = nitro_hash::SplitMix64::new(4);
        for _ in 0..100_000 {
            let k = rng.next_u64() % 5000;
            *truth.entry(k).or_insert(0.0) += 1.0;
            cm.update(k, 1.0);
        }
        let l1 = 100_000.0;
        for (&k, &t) in &truth {
            let e = cm.estimate(k);
            assert!(e >= t);
            assert!(e - t <= 3.0 * eps * l1, "key {k}: {e} vs {t}");
        }
    }

    #[test]
    fn conservative_update_is_tighter() {
        let mut plain = CountMin::new(3, 64, 5);
        let mut cons = CountMin::new(3, 64, 5);
        cons.set_conservative(true);
        let mut rng = nitro_hash::SplitMix64::new(6);
        let keys: Vec<u64> = (0..20_000).map(|_| rng.next_u64() % 2000).collect();
        for &k in &keys {
            plain.update(k, 1.0);
            cons.update(k, 1.0);
        }
        let total_plain: f64 = (0..2000u64).map(|k| plain.estimate(k)).sum();
        let total_cons: f64 = (0..2000u64).map(|k| cons.estimate(k)).sum();
        assert!(total_cons <= total_plain);
        // Conservative update still never underestimates.
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            *truth.entry(k).or_insert(0.0) += 1.0;
        }
        for (&k, &t) in &truth {
            assert!(cons.estimate(k) >= t);
        }
    }

    #[test]
    fn row_update_and_median_query() {
        let mut cm = CountMin::new(5, 1024, 7);
        // Simulate Nitro-style updates: each row gets ~1/5 of 1000 packets
        // scaled by 5.
        let mut rng = nitro_hash::SplitMix64::new(8);
        for _ in 0..1000 {
            let r = (rng.next_u64() % 5) as usize;
            cm.update_row(r, 99, 5.0);
        }
        let est = cm.estimate_robust(99);
        assert!((est - 1000.0).abs() < 350.0, "median estimate {est}");
    }

    #[test]
    fn with_memory_matches_paper_config() {
        // Paper: "200KB memory for 5 rows of 10000 counters".
        let cm = CountMin::with_memory(200 * 1000, 5, 1);
        assert_eq!(cm.depth(), 5);
        assert_eq!(RowSketch::width(&cm), 10_000);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cm = CountMin::new(2, 16, 9);
        cm.update(1, 3.0);
        cm.clear();
        assert_eq!(cm.estimate(1), 0.0);
        assert_eq!(cm.total(), 0.0);
    }

    #[test]
    fn row_sum_squares_counts_one_key() {
        let mut cm = CountMin::new(2, 128, 10);
        cm.update(5, 3.0);
        for r in 0..2 {
            assert_eq!(cm.row_sum_squares(r), 9.0);
        }
    }

    #[test]
    fn weighted_updates_accumulate() {
        let mut cm = CountMin::new(3, 512, 11);
        cm.update(5, 1.5);
        cm.update(5, 2.5);
        assert_eq!(cm.estimate(5), 4.0);
        assert_eq!(cm.total(), 4.0);
    }

    #[test]
    fn incremental_sum_squares_matches_scan() {
        let mut cm = CountMin::new(4, 64, 20);
        let mut cons = CountMin::new(4, 64, 21);
        cons.set_conservative(true);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(22);
        for _ in 0..5000 {
            let k = rng.next_range(300);
            cm.update(k, 1.0);
            cons.update(k, 1.0);
            if rng.next_bool(0.1) {
                cm.update_row((rng.next_u64() % 4) as usize, k, 10.0);
            }
        }
        for s in [&cm, &cons] {
            for r in 0..4 {
                let scan: f64 = s.counters[r * s.width..(r + 1) * s.width]
                    .iter()
                    .map(|c| c * c)
                    .sum();
                let inc = s.row_sum_squares(r);
                assert!(
                    (scan - inc).abs() < 1e-6 * scan.max(1.0),
                    "row {r}: {inc} vs {scan}"
                );
            }
        }
    }

    #[test]
    fn batch_update_matches_scalar() {
        let mut a = CountMin::new(3, 128, 23);
        let mut b = CountMin::new(3, 128, 23);
        let keys: Vec<u64> = (0..100).map(|i| i * 7919).collect();
        for &k in &keys {
            a.update_row(1, k, 2.5);
        }
        b.update_row_batch(1, &keys, 2.5);
        assert_eq!(a.counters, b.counters);
        assert!((a.row_sum_squares(1) - b.row_sum_squares(1)).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = CountMin::new(4, 512, 77);
        let mut b = CountMin::new(4, 512, 77);
        let mut union = CountMin::new(4, 512, 77);
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
        assert_eq!(a.total(), union.total());
        for r in 0..4 {
            assert!((a.row_sum_squares(r) - union.row_sum_squares(r)).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "seeds mismatch")]
    fn merge_rejects_different_seeds() {
        let mut a = CountMin::new(4, 512, 1);
        let b = CountMin::new(4, 512, 2);
        a.merge(&b);
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        use crate::checkpoint::Checkpoint;
        let mut cm = CountMin::new(4, 256, 55);
        cm.set_conservative(true);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(56);
        for _ in 0..10_000 {
            cm.update(rng.next_range(800), 1.5);
        }
        let snap = cm.snapshot();
        let mut fresh = CountMin::new(4, 256, 55);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.counters, cm.counters);
        assert_eq!(fresh.total(), cm.total());
        assert!(fresh.conservative);
        for r in 0..4 {
            assert!((fresh.row_sum_squares(r) - cm.row_sum_squares(r)).abs() < 1e-6);
        }
        for k in 0..800u64 {
            assert_eq!(fresh.estimate(k), cm.estimate(k));
        }
    }

    #[test]
    fn checkpoint_rejects_incompatible_receiver() {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let cm = CountMin::new(4, 256, 1);
        let snap = cm.snapshot();
        let mut wrong_seed = CountMin::new(4, 256, 2);
        assert_eq!(
            wrong_seed.restore(&snap).unwrap_err(),
            CheckpointError::Mismatch("hash seeds")
        );
        let mut wrong_width = CountMin::new(4, 128, 1);
        assert_eq!(
            wrong_width.restore(&snap).unwrap_err(),
            CheckpointError::Mismatch("width")
        );
        let mut truncated = CountMin::new(4, 256, 1);
        assert!(matches!(
            truncated.restore(&snap[..snap.len() - 4]).unwrap_err(),
            CheckpointError::Truncated { .. }
        ));
        // A failed restore must leave the receiver untouched.
        assert!(truncated.counters.iter().all(|&c| c == 0.0));
    }
}
