//! Vanilla sketching algorithms — the structures NitroSketch accelerates.
//!
//! The paper's framework applies to "any sketch structure that follows a
//! canonical workflow of using multiple independent hashes and counter
//! arrays" (§1). This crate provides that zoo, unmodified (no sampling):
//!
//! - [`CountMin`] — Cormode–Muthukrishnan Count-Min Sketch, εL1 guarantee,
//!   optional conservative update.
//! - [`CountSketch`] — Charikar–Chen–Farach-Colton, εL2 guarantee, plus the
//!   AMS-style L2-norm estimator used by AlwaysCorrect convergence.
//! - [`KarySketch`] — Krishnamurthy et al. change-detection sketch with the
//!   unbiased per-row estimator.
//! - [`UnivMon`] — universal sketching over log-many sampled substreams;
//!   answers heavy hitters, entropy, distinct counting and L2 from one
//!   structure via recursive G-sum estimation.
//! - [`TopK`] — the indexed min-heap "top keys" store all of the above use
//!   for heavy-hitter key tracking (the `P` cost in the paper's bottleneck
//!   analysis).
//! - [`MisraGries`], [`SpaceSaving`] — deterministic counter summaries used
//!   by the SketchVisor and R-HHH baselines.
//! - [`LinearCounting`], [`HyperLogLog`] — distinct-flow estimators
//!   (ElasticSketch's light-part cardinality, and a robust baseline).
//! - [`entropy`] — entropy helpers shared by ground truth and estimators.
//! - [`change`] — epoch-over-epoch change detection driver.
//!
//! Flow keys are pre-digested `u64`s ([`FlowKey`]); the switch layer is
//! responsible for extracting and folding the 5-tuple (see `nitro-switch`).

#![warn(missing_docs)]

pub mod change;
pub mod checkpoint;
pub mod count_min;
pub mod count_sketch;
pub mod entropy;
pub mod fsd;
pub mod fxmap;
pub mod hyperloglog;
pub mod kary;
pub mod linear_counting;
pub mod misra_gries;
pub mod space_saving;
pub mod topk;
pub mod traits;
pub mod univmon;

pub use change::ChangeDetector;
pub use checkpoint::{Checkpoint, CheckpointError, DirtyLines, CHECKPOINT_VERSION};
pub use count_min::CountMin;
pub use count_sketch::CountSketch;
pub use fsd::FlowSizeArray;
pub use fxmap::{FlowKeyMap, FlowKeySet};
pub use hyperloglog::HyperLogLog;
pub use kary::KarySketch;
pub use linear_counting::LinearCounting;
pub use misra_gries::MisraGries;
pub use space_saving::SpaceSaving;
pub use topk::TopK;
pub use traits::{FlowKey, RowSketch, RowTotals, Sketch, Slot, UnivLayer, COUNTER_BYTES};
pub use univmon::UnivMon;

/// Median of a scratch slice (mutated in place). For even lengths returns
/// the lower-middle element, matching the paper's `median_{i∈[d]}` over an
/// odd row count in all recommended configurations.
pub fn median_in_place(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mid = (values.len() - 1) / 2;
    let (_, m, _) = values.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    *m
}

/// Run `f` over `items` gathered into a scratch slice: on the stack for up
/// to 16 items (every per-packet use), on the heap beyond.
pub(crate) fn on_stack<T: Copy + Default, R>(
    items: impl ExactSizeIterator<Item = T>,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    let n = items.len();
    if n > 16 {
        return f(&mut items.collect::<Vec<T>>());
    }
    let mut buf = [T::default(); 16];
    buf.iter_mut().zip(items).for_each(|(b, item)| *b = item);
    f(&mut buf[..n])
}

/// Median of the per-row values an `estimate_at` yields.
pub(crate) fn median_of(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    on_stack(values, median_in_place)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd() {
        let mut v = [3.0, 1.0, 2.0];
        assert_eq!(median_in_place(&mut v), 2.0);
    }

    #[test]
    fn median_even_takes_lower_middle() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median_in_place(&mut v), 2.0);
    }

    #[test]
    fn median_single() {
        let mut v = [7.5];
        assert_eq!(median_in_place(&mut v), 7.5);
    }

    #[test]
    fn median_handles_negatives() {
        let mut v = [-5.0, 10.0, -1.0, 2.0, 0.0];
        assert_eq!(median_in_place(&mut v), 0.0);
    }

    #[test]
    #[should_panic(expected = "median of empty")]
    fn median_empty_panics() {
        median_in_place(&mut []);
    }
}
