//! Error metrics and result reporting (§7 "Sketches and metrics").
//!
//! The paper reports: *relative error* `|t − t_real| / t_real` (mean over
//! detected heavy flows, with median-of-10-runs plots), *recall* (true
//! instances found), and throughput/memory series. This crate computes the
//! metrics ([`errors`]) and renders aligned text tables and CSV rows
//! ([`table`]) that the bench harness prints for every figure.

#![warn(missing_docs)]

pub mod errors;
pub mod fleet;
pub mod health;
pub mod json;
pub mod schema;
pub mod scrape;
pub mod table;
pub mod telemetry;

pub use errors::{mean_relative_error, precision, recall, relative_error, ErrorSummary, MultiRun};
pub use fleet::FleetHealth;
pub use health::{CircuitBreaker, DaemonHealth};
pub use json::{Json, JsonError};
pub use scrape::{
    parse_recording, read_recording, ClusterSnapshot, HistSummary, RecordedFrame, ScrapeError,
    ScrapeRecorder, ScrapeSnapshot, ShardSnapshot,
};
pub use table::Table;
pub use telemetry::{
    escape_label, ClusterTelemetry, Event, EventJournal, LatencyHistogram, MeasurementGauges,
    NodeWatermark, SequencedEvent, ShardTelemetry, TelemetryCell, TelemetryRegistry,
};
