//! Online collision-skew anomaly detection.
//!
//! A sketch whose per-row hash seed has leaked is an amplifier: an attacker
//! can synthesize keys that all land in one cell per row, inflating chosen
//! estimates (or, with sign control, deflating them) far beyond the honest
//! error bound. The counters themselves betray the attack, though — under
//! honest traffic the largest cell in a row is bounded by the heaviest
//! flow's share, while a collision flood concentrates an adversarial share
//! of the stream into a single cell. [`SkewEstimate`] measures that
//! concentration per row; [`SkewPolicy`] turns it into a trip decision the
//! sharded pipeline samples on every checkpoint rotation (epoch view) and,
//! when tripped for enough consecutive epochs, answers with an online seed
//! rotation.
//!
//! Two signals are measured:
//!
//! - **load factor** — `max_y |C[r][y]| / (Σ_y |C[r][y]| / w)`: how many
//!   times heavier the fullest cell is than the balanced-load mean. Honest
//!   Zipf traffic gives ≈ (top-flow share) · w; a flood steering an `α`
//!   fraction of traffic into one cell gives ≥ `α · w`.
//! - **sign bias** — `|Σ_y C[r][y]| / Σ_y |C[r][y]|`: for sign sketches
//!   (Count Sketch) the signed row total concentrates around 0 under honest
//!   traffic; a single-sign cover-up flood drags it toward ±1. Unsigned
//!   sketches report `NaN` and the signal is ignored.
//!
//! Both are scale-free, so one threshold works across epochs and traffic
//! volumes.

use nitro_sketches::{RowSketch, RowTotals};

/// Per-row skew measurements.
#[derive(Clone, Copy, Debug)]
pub struct RowSkew {
    /// Row index.
    pub row: usize,
    /// `max |cell|` relative to the balanced-load mean cell (`NaN` when the
    /// sketch exposes no per-cell state, 0 for an empty row).
    pub load_factor: f64,
    /// `|signed row total| / abs row total` in `[0, 1]` (`NaN` when the
    /// sketch carries no sign information).
    pub sign_bias: f64,
}

/// Collision-skew estimate over all rows of a sketch, sampled on checkpoint
/// rotation (never on the packet path).
#[derive(Clone, Debug)]
pub struct SkewEstimate {
    rows: Vec<RowSkew>,
}

impl SkewEstimate {
    /// Measure skew on a sketch — one O(w) scan per row.
    pub fn measure<S: RowSketch>(sketch: &S) -> Self {
        let totals: Vec<RowTotals> = (0..sketch.depth())
            .map(|row| RowTotals::of(sketch, row))
            .collect();
        Self::from_totals(sketch.width(), &totals)
    }

    /// Skew from each row's totals — [`RowTotals::of`] a sketch of width
    /// `width`, or `Checkpoint::image_totals` of an image of one.
    pub fn from_totals(width: usize, totals: &[RowTotals]) -> Self {
        let width = width as f64;
        let rows = totals
            .iter()
            .enumerate()
            .map(|(row, t)| {
                let RowTotals {
                    max_abs,
                    abs_total,
                    signed_total,
                } = *t;
                let load_factor = if abs_total.is_nan() || max_abs.is_nan() {
                    f64::NAN
                } else if abs_total <= 0.0 {
                    0.0
                } else {
                    max_abs / (abs_total / width)
                };
                let sign_bias = if signed_total.is_nan() || abs_total.is_nan() {
                    f64::NAN
                } else if abs_total <= 0.0 {
                    0.0
                } else {
                    (signed_total.abs() / abs_total).min(1.0)
                };
                RowSkew {
                    row,
                    load_factor,
                    sign_bias,
                }
            })
            .collect();
        Self { rows }
    }

    /// Per-row measurements.
    pub fn rows(&self) -> &[RowSkew] {
        &self.rows
    }

    /// The fleet-facing load-factor summary: the *minimum* over rows that
    /// produced a signal. A flood must collide in a cell of **every** row to
    /// defeat the median estimator, so the row least affected bounds what
    /// the attack achieves — and an honest heavy flow (which also loads one
    /// cell in every row) is the natural false-positive floor. `NaN` when no
    /// row produced a signal.
    pub fn load_factor(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.load_factor)
            .filter(|v| !v.is_nan())
            .fold(f64::NAN, |acc, v| if acc.is_nan() { v } else { acc.min(v) })
    }

    /// The fleet-facing sign-bias summary: the maximum signal over rows
    /// (`NaN` when the sketch carries no sign information).
    pub fn sign_bias(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.sign_bias)
            .filter(|v| !v.is_nan())
            .fold(f64::NAN, |acc, v| if acc.is_nan() { v } else { acc.max(v) })
    }
}

/// When to call collision skew anomalous, and what to do about it.
///
/// `load_factor` compares against the expected honest ceiling: with a
/// top flow carrying share `s` of traffic, honest load factor ≈ `s · w`,
/// so pick `max_load_factor` a few times above that (the examples use
/// `0.1 · w`-ish bounds for Zipf traffic on kilocell rows). A detector
/// trips only after `consecutive_epochs` epoch views in breach, so a
/// one-epoch burst (flash crowd) does not trigger a rotation.
#[derive(Clone, Copy, Debug)]
pub struct SkewPolicy {
    /// Trip when the load factor exceeds this for consecutive epochs.
    pub max_load_factor: f64,
    /// Trip when the sign bias exceeds this for consecutive epochs
    /// (ignored for sketches that report no sign signal).
    pub max_sign_bias: f64,
    /// Breaches must persist this many consecutive epoch views to trip.
    pub consecutive_epochs: u32,
    /// Whether the pipeline should rotate seeds automatically on trip
    /// (requires a reseed factory to be installed; see
    /// `ShardedPipeline::set_reseed`).
    pub auto_rotate: bool,
}

impl SkewPolicy {
    /// A conservative default: load factor 32× balanced load or sign bias
    /// 0.5, sustained for 2 epochs, detection only (no auto-rotation).
    pub fn detect_only() -> Self {
        Self {
            max_load_factor: 32.0,
            max_sign_bias: 0.5,
            consecutive_epochs: 2,
            auto_rotate: false,
        }
    }

    /// Same thresholds as [`Self::detect_only`] but with auto-rotation on.
    pub fn auto_rotate() -> Self {
        Self {
            auto_rotate: true,
            ..Self::detect_only()
        }
    }

    /// Whether one measurement breaches either bound. `NaN` signals never
    /// breach (missing measurement must not trip the detector).
    pub fn breached(&self, skew: &SkewEstimate) -> bool {
        let load = skew.load_factor();
        let bias = skew.sign_bias();
        (!load.is_nan() && load > self.max_load_factor)
            || (!bias.is_nan() && bias > self.max_sign_bias)
    }
}

/// Per-shard consecutive-breach tracker: feeds epoch-view measurements in,
/// reports when the policy trips.
#[derive(Clone, Copy, Debug, Default)]
pub struct SkewTracker {
    streak: u32,
}

impl SkewTracker {
    /// Record one epoch-view measurement; returns `true` when the streak
    /// reaches the policy's consecutive-epoch bound (and keeps returning
    /// `true` while the breach persists, so a missed trip is re-raised).
    pub fn observe(&mut self, policy: &SkewPolicy, skew: &SkewEstimate) -> bool {
        if policy.breached(skew) {
            self.streak = self.streak.saturating_add(1);
        } else {
            self.streak = 0;
        }
        self.streak >= policy.consecutive_epochs.max(1)
    }

    /// Consecutive breached epochs so far.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Reset after a mitigation (seed rotation installs fresh hash space).
    pub fn reset(&mut self) {
        self.streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_sketches::{CountMin, CountSketch, Sketch};

    #[test]
    fn honest_zipfish_traffic_stays_below_flood_skew() {
        let mut honest = CountMin::new(4, 1024, 7);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(1);
        for _ in 0..100_000 {
            // Zipf-ish: key = flows · u^4 (same shape the core tests use).
            let k = (4_000.0 * rng.next_f64().powi(4)) as u64;
            honest.update(k, 1.0);
        }
        let honest_skew = SkewEstimate::measure(&honest).load_factor();

        // Flood: half the traffic on keys that the sketch's own hash packs
        // into one cell per row — emulated here by hammering one key, the
        // in-sketch equivalent of a perfect collision set.
        let mut flooded = CountMin::new(4, 1024, 7);
        for i in 0..50_000u64 {
            let k = (4_000.0 * ((i % 1000) as f64 / 1000.0).powi(4)) as u64;
            flooded.update(k, 1.0);
        }
        flooded.update(0xDEAD, 50_000.0);
        let flood_skew = SkewEstimate::measure(&flooded).load_factor();

        assert!(
            flood_skew > 3.0 * honest_skew,
            "flood {flood_skew} vs honest {honest_skew}"
        );
    }

    #[test]
    fn sign_bias_nan_for_unsigned_and_bounded_for_signed() {
        let mut cm = CountMin::new(3, 256, 1);
        cm.update(5, 10.0);
        assert!(SkewEstimate::measure(&cm).sign_bias().is_nan());

        let mut cs = CountSketch::new(3, 256, 1);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(2);
        for _ in 0..50_000 {
            cs.update(rng.next_u64() % 10_000, 1.0);
        }
        let bias = SkewEstimate::measure(&cs).sign_bias();
        // Many flows with random signs: the signed total concentrates near 0.
        assert!((0.0..0.3).contains(&bias), "bias {bias}");
    }

    #[test]
    fn empty_sketch_has_zero_skew() {
        let cm = CountMin::new(3, 64, 9);
        let s = SkewEstimate::measure(&cm);
        assert_eq!(s.load_factor(), 0.0);
        assert_eq!(s.rows().len(), 3);
    }

    #[test]
    fn tracker_requires_consecutive_breaches() {
        let policy = SkewPolicy {
            max_load_factor: 10.0,
            max_sign_bias: 0.5,
            consecutive_epochs: 2,
            auto_rotate: false,
        };
        let mut quiet = CountMin::new(2, 64, 3);
        let mut rng = nitro_hash::Xoshiro256StarStar::new(3);
        for _ in 0..10_000 {
            quiet.update(rng.next_u64() % 500, 1.0);
        }
        let mut loud = quiet.clone();
        loud.update(42, 100_000.0);

        let calm = SkewEstimate::measure(&quiet);
        let breach = SkewEstimate::measure(&loud);
        assert!(!policy.breached(&calm));
        assert!(policy.breached(&breach));

        let mut t = SkewTracker::default();
        assert!(!t.observe(&policy, &breach), "one epoch must not trip");
        assert!(!t.observe(&policy, &calm), "streak broken");
        assert!(!t.observe(&policy, &breach));
        assert!(t.observe(&policy, &breach), "two consecutive epochs trip");
        t.reset();
        assert_eq!(t.streak(), 0);
    }
}
