//! NitroSketch — the paper's contribution (§4, §5, Algorithm 1).
//!
//! NitroSketch wraps any multi-row sketch (anything implementing
//! `nitro_sketches::RowSketch`) and removes the three per-packet
//! bottlenecks identified in §3 — `d` hash computations (`H`), `d` counter
//! updates (`C`), and heavy-key heap maintenance (`P`) — without giving up
//! the sketch's worst-case accuracy guarantees:
//!
//! - **Idea A** — sample the *counter arrays*, not the packets: each row is
//!   updated independently with probability `p`, by `±p⁻¹`, so counters stay
//!   unbiased and the multi-row median stays robust.
//! - **Idea B** — replace the per-row coin flips with a single geometric
//!   skip drawn once per sampled update ([`nitro_hash::GeometricSampler`]).
//! - **Idea C** — adapt `p` at run time: [`Mode::AlwaysLineRate`] tracks the
//!   packet arrival rate; [`Mode::AlwaysCorrect`] runs unsampled until the
//!   stream's L2 provably justifies sampling (Alg. 1 line 14).
//! - **Idea D** — buffer sampled updates per packet batch and apply them
//!   with lane-batched hashing ([`NitroSketch::process_batch`]).
//!
//! The generic wrapper is [`NitroSketch`]; [`NitroUnivMon`] instantiates
//! UnivMon over Nitro-wrapped Count Sketches (§8). [`theory`] carries the
//! paper's parameter formulas (Theorems 1, 2, 5 and the Appendix B strawman
//! comparison); [`convergence`] the guaranteed-convergence calculations
//! behind Fig. 12(c).

#![warn(missing_docs)]

pub mod anomaly;
pub mod config;
pub mod convergence;
pub mod mode;
pub mod nitro;
pub mod rotator;
pub mod theory;
pub mod univ;

pub use anomaly::{SkewEstimate, SkewPolicy, SkewTracker};
pub use config::NitroConfig;
pub use mode::{Mode, ModeCheckpoint, ModeKind, ModeState};
pub use nitro::{NitroSketch, NitroStats};
pub use rotator::{EpochRotator, EpochSummary};
pub use univ::{NitroCountSketch, NitroUnivMon};
