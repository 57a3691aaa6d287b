//! Core traits shared by all sketches and by the NitroSketch wrapper.

/// A flow identifier, pre-digested to 64 bits.
///
/// The paper keys sketches by the 5-tuple; `nitro-switch` extracts the
/// 5-tuple from raw packet bytes and folds it to a `u64` with xxHash64, so
/// the sketch layer never touches packet memory. Using a fixed-width key
/// keeps every per-row hash a two-instruction affair.
pub type FlowKey = u64;

/// Counter width assumed when translating the paper's memory budgets
/// (e.g. "200KB for 5 rows of 10000 counters") into row dimensions. The
/// paper's C implementation uses 4-byte counters; our counters are `f64`
/// (8 bytes) for exact ±p⁻¹ arithmetic, and [`Sketch::memory_bytes`] reports
/// the *actual* footprint. Configuration helpers use this constant so that
/// experiment parameters line up with the paper's tables.
pub const COUNTER_BYTES: usize = 4;

/// A streaming summary supporting weighted point updates and queries.
pub trait Sketch {
    /// Add `weight` (commonly 1.0 per packet, or the byte count) for `key`.
    fn update(&mut self, key: FlowKey, weight: f64);

    /// Estimate the total weight recorded for `key`.
    fn estimate(&self, key: FlowKey) -> f64;

    /// Reset all state for a new measurement epoch.
    fn clear(&mut self);

    /// Actual resident size of the counter state in bytes.
    fn memory_bytes(&self) -> usize;
}

/// Where a key lands in one row: the flat counter index (`r·w + h_r(key)`)
/// and the sign `g_r(key)` (`±1.0`; always `+1.0` for unsigned sketches).
///
/// A slot is the whole hashing cost of a row update, so a packet computes
/// each once for both [`RowSketch::add_at`] and [`RowSketch::estimate_at`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Slot {
    /// Index into the sketch's flat row-major counter array.
    pub index: usize,
    /// `g_r(key)`.
    pub sign: f64,
}

/// The canonical multi-row counter-array structure NitroSketch accelerates
/// (Fig. 1): `depth` rows of `width` counters, row `r` updated at position
/// `h_r(key)` by `delta · g_r(key)`.
///
/// Everything NitroSketch needs is expressed against this trait, so wrapping
/// a new sketch requires only implementing it (the paper's "generality"
/// claim, §4). A sketch states its index, sign and estimator once, in
/// [`Self::slot`], [`Self::add_at`] and [`Self::estimate_at`]; the per-key
/// operations are defaults over those.
pub trait RowSketch {
    /// Number of counter rows (`d`, typically `O(log δ⁻¹)`).
    fn depth(&self) -> usize;

    /// Counters per row (`w`).
    fn width(&self) -> usize;

    /// Where `key` lands in `row`.
    fn slot(&self, row: usize, key: FlowKey) -> Slot;

    /// Add `delta · slot.sign` at every slot of `slots` (all in `row`), in
    /// order, keeping the row's Σ C² current; row-level running totals
    /// advance once, by `n · delta` for `n` slots.
    ///
    /// `delta` is `weight` for vanilla operation and `weight · p⁻¹` under
    /// Nitro sampling, keeping every counter an unbiased estimator.
    fn add_at(&mut self, row: usize, slots: impl IntoIterator<Item = Slot>, delta: f64);

    /// The `Query` of Algorithm 1 (median across rows, with any per-row
    /// correction) over one key's slots, `slots[r]` being its slot in row `r`.
    fn estimate_at(&self, slots: &[Slot]) -> f64;

    /// Add `delta · g_r(key)` to `C[r][h_r(key)]`.
    fn update_row(&mut self, row: usize, key: FlowKey, delta: f64) {
        let slot = self.slot(row, key);
        self.add_at(row, [slot], delta);
    }

    /// [`Self::update_row`] for each of `keys` in turn.
    fn update_row_batch(&mut self, row: usize, keys: &[FlowKey], delta: f64) {
        for &k in keys {
            self.update_row(row, k, delta);
        }
    }

    /// [`Self::estimate_at`] over `key`'s slots.
    fn estimate_robust(&self, key: FlowKey) -> f64 {
        crate::on_stack((0..self.depth()).map(|r| self.slot(r, key)), |slots| {
            self.estimate_at(slots)
        })
    }

    /// Sum of squared counters in `row` — `Σ_y C²_{r,y}`, used by the
    /// AlwaysCorrect convergence test and the L2 estimator.
    fn row_sum_squares(&self, row: usize) -> f64;

    /// Median over rows of [`Self::row_sum_squares`] — the
    /// `(1 + ε√p)`-multiplicative estimator of `L2²` from §4.3.
    fn l2_squared_estimate(&self) -> f64 {
        let mut sums: Vec<f64> = (0..self.depth()).map(|r| self.row_sum_squares(r)).collect();
        crate::median_in_place(&mut sums)
    }

    /// Reset all counters.
    fn clear_rows(&mut self);

    /// Actual resident size of the counter state in bytes.
    fn row_memory_bytes(&self) -> usize;

    /// Largest absolute counter value in `row` — the collision-skew signal.
    ///
    /// Under honest traffic the largest cell is bounded by the heaviest
    /// flow (plus noise); a hash-collision flood concentrates many flows
    /// into one cell and drives this far above the balanced-load mean.
    /// Returns `NaN` when the sketch cannot expose per-cell state (the
    /// default), which disables skew detection for that implementation.
    fn row_max_abs(&self, _row: usize) -> f64 {
        f64::NAN
    }

    /// Sum of absolute counter values in `row` (`Σ_y |C_{r,y}|`) — the
    /// normalizer for the skew signal. `NaN` when unsupported.
    fn row_abs_total(&self, _row: usize) -> f64 {
        f64::NAN
    }

    /// Signed sum of counters in `row` (`Σ_y C_{r,y}`). For sign sketches
    /// this is ≈ 0 under honest traffic and drifts toward ±`row_abs_total`
    /// under a single-sign cover-up flood; for unsigned sketches it carries
    /// no anomaly information and implementations return `NaN`.
    fn row_signed_total(&self, _row: usize) -> f64 {
        f64::NAN
    }
}

/// One row's [`RowSketch::row_max_abs`], [`RowSketch::row_abs_total`] and
/// [`RowSketch::row_signed_total`]: what the collision-skew detector reads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowTotals {
    /// Largest absolute counter value.
    pub max_abs: f64,
    /// Sum of absolute counter values.
    pub abs_total: f64,
    /// Signed sum of counter values (`NaN` for unsigned sketches).
    pub signed_total: f64,
}

impl RowTotals {
    /// The totals of `sketch`'s row `row`.
    pub fn of<S: RowSketch + ?Sized>(sketch: &S, row: usize) -> Self {
        Self {
            max_abs: sketch.row_max_abs(row),
            abs_total: sketch.row_abs_total(row),
            signed_total: sketch.row_signed_total(row),
        }
    }
}

/// A per-level frequency oracle inside [`crate::UnivMon`].
///
/// Vanilla UnivMon instantiates this with [`crate::CountSketch`]; the
/// `nitro-core` crate instantiates it with `NitroSketch<CountSketch>`, which
/// is exactly the paper's "replace each Count Sketch instance in UnivMon"
/// construction (§8).
pub trait UnivLayer {
    /// Record `weight` for `key` at this level. Returns whether the oracle
    /// actually touched its counters: a sampling layer (NitroSketch) skips
    /// most packets, and UnivMon then skips the heap maintenance too —
    /// that is the paper's reduction of the `P` bottleneck (§3).
    fn layer_update(&mut self, key: FlowKey, weight: f64) -> bool;

    /// Estimate the weight of `key` at this level.
    fn layer_estimate(&self, key: FlowKey) -> f64;

    /// Reset for a new epoch.
    fn layer_clear(&mut self);

    /// Resident bytes.
    fn layer_memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountSketch;

    #[test]
    fn l2_squared_default_is_median_of_rows() {
        // Construct a Count Sketch, feed one heavy key, and check the
        // default method agrees with a hand computation.
        let mut cs = CountSketch::new(5, 64, 1);
        for _ in 0..100 {
            cs.update(42, 1.0);
        }
        let mut sums: Vec<f64> = (0..5).map(|r| cs.row_sum_squares(r)).collect();
        let expect = crate::median_in_place(&mut sums);
        assert_eq!(cs.l2_squared_estimate(), expect);
        // One key of weight 100 in each row → every row's Σ C² is 100² when
        // no collisions are possible (single key).
        assert_eq!(expect, 100.0 * 100.0);
    }
}
