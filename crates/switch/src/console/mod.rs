//! `nitro top` — the live operator console over the telemetry plane.
//!
//! The paper's robustness story is *dynamic*: sampling probability
//! downshifts under backpressure, convergence flips as traffic shifts,
//! breakers trip, failed shards promote. A point-in-time Prometheus scrape
//! cannot show any of that happening; this module renders the telemetry
//! plane as a terminal dashboard that can:
//!
//! - **live-attach** to an in-process [`crate::pipeline::ShardedPipeline`]
//!   ([`run_live`] ticks a scrape closure on a cadence),
//! - **replay** a recorded scrape stream
//!   ([`replay_recording`] over `nitro_metrics::scrape::ScrapeRecorder`
//!   NDJSON files), so chaos runs and CI soaks are watchable after the
//!   fact, and
//! - **render once** ([`render_recording_once`]) — a single plain-text
//!   frame with no TTY, no wall clock, and no ANSI, which is what the
//!   byte-identical golden-frame test in CI compares.
//!
//! The stack: [`framebuffer`] is an ANSI double-buffered cell grid with
//! diff-only redraw; [`widgets`] are pure data→string primitives
//! (sparklines, gauges, deterministic number formatting); [`app`] holds
//! the model — scrape-to-scrape rate deltas, per-shard sparkline
//! history, the journal tail — and composes each frame. Parsing scrape
//! documents into typed snapshots lives in `nitro_metrics::scrape`, on
//! top of the hand-rolled `nitro_metrics::json` reader (no serde, no
//! crates.io).

pub mod app;
pub mod framebuffer;
pub mod live;
pub mod replay;
pub mod widgets;

pub use app::{ConsoleApp, EVENT_TAIL, SPARK_WINDOW};
pub use framebuffer::{Cell, Color, Frame, Renderer, Style};
pub use live::{run_live, LiveOptions};
pub use replay::{render_frames_once, render_recording_once, replay_recording};
