//! Typed scrape snapshots, and scrape recording/replay — the data layer
//! under the `nitro top` operator console.
//!
//! [`crate::TelemetryRegistry::render_json`] is a write-only endpoint: it
//! flattens the live telemetry plane into one JSON document per scrape.
//! This module closes the loop:
//!
//! - [`ScrapeSnapshot::parse`] reads one such document back into typed
//!   frames (fleet health, per-shard gauges and histograms, cluster
//!   state) through the hand-rolled [`crate::json`] reader — no serde.
//! - [`ScrapeRecorder`] appends timestamped `{ts_ms, events, scrape}`
//!   frames to an NDJSON file while a fleet runs, so any live session —
//!   a demo, a chaos run, a CI soak — becomes a replayable artifact.
//! - [`read_recording`] loads such a file back as ordered
//!   [`RecordedFrame`]s for `nitro top --replay` and the golden-frame
//!   tests.
//!
//! Parsing is deliberately *lenient about absence* (a missing `cluster`
//! section means "no aggregator", a missing gauge reads as its zero) but
//! *strict about shape*: a document whose `shards` is not an array, or a
//! recording line that is not a `{ts_ms, …}` object, is a typed error
//! carrying the offending line number, not a silent skip — a corrupt
//! recording should fail loudly in CI, not render an empty dashboard.

use crate::health::DaemonHealth;
use crate::json::{write_json_string, Json, JsonError};
use crate::schema::{
    read_json, read_members, section, Slot, CLUSTER_METRICS, NODE_METRICS, SHARD_METRICS,
};
use crate::telemetry::{NodeWatermark, TelemetryRegistry, HISTOGRAM_BUCKETS};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Summary of one latency histogram as rendered into a scrape document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Median (log2-bucket lower bound).
    pub p50: u64,
    /// 99th percentile (log2-bucket lower bound).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Per-bucket counts (bucket `i` holds `[2^i, 2^{i+1})`), which the
    /// Prometheus page exports. A JSON scrape carries only the summary
    /// above, so a parsed snapshot holds zeros here.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistSummary {
    /// Cumulative counts of [`HistSummary::buckets`] up to the last
    /// non-empty bucket, as `(upper_bound_exclusive, cumulative_count)`
    /// pairs.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let Some(last) = self.buckets.iter().rposition(|&c| c > 0) else {
            return Vec::new();
        };
        let mut cum = 0u64;
        (0..=last)
            .map(|i| {
                cum += self.buckets[i];
                (1u64 << (i + 1), cum)
            })
            .collect()
    }
}

impl Default for HistSummary {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            p50: 0,
            p99: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// One shard instance as it appeared in a scrape document, or as
/// [`crate::ShardTelemetry::snapshot`] read it off the live cells. Every
/// field but the identity is one row of [`crate::schema::SHARD_METRICS`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardSnapshot {
    /// Shard id (dispatcher index).
    pub shard: u32,
    /// Registry-unique incarnation.
    pub inst: u64,
    /// The shard's health counters at scrape time.
    pub health: DaemonHealth,
    /// Ring fill fraction in `[0, 1]` (`NaN` when the scrape held `null`).
    pub ring_occupancy: f64,
    /// Ring capacity in slots.
    pub ring_capacity: u64,
    /// Observations queued in the ring at scrape time.
    pub backlog: u64,
    /// Current sampling probability (`NaN` when `null`).
    pub sampling_p: f64,
    /// Sampling-mode discriminant (0 = Fixed, 1 = AlwaysLineRate,
    /// 2 = AlwaysCorrect).
    pub mode_code: u64,
    /// Whether the mode's guarantees held at scrape time.
    pub converged: bool,
    /// Heavy-key tracker occupancy.
    pub topk_len: u64,
    /// Whether the circuit breaker was latched open.
    pub breaker_open: bool,
    /// Whether the restart budget was spent.
    pub failed: bool,
    /// Fleet generation of this instance.
    pub generation: u64,
    /// Sequence band of this instance.
    pub seq_band: u64,
    /// Observations processed since the newest persisted checkpoint.
    pub persist_lag: u64,
    /// Collision-skew load factor (`NaN` when `null`).
    pub skew_load: f64,
    /// Sign-bias skew (`NaN` when `null`).
    pub sign_bias: f64,
    /// CRC frames appended to the durable log.
    pub frames_persisted: u64,
    /// Payload bytes appended to the durable log.
    pub bytes_persisted: u64,
    /// Per-batch processing latency.
    pub batch_ns: HistSummary,
    /// Durable persist latency.
    pub persist_ns: HistSummary,
}

/// The cluster section of a scrape, when an aggregator was live. Every
/// field but `nodes` is one row of [`crate::schema::CLUSTER_METRICS`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterSnapshot {
    /// Nodes currently connected.
    pub connected_nodes: u64,
    /// Nodes ever admitted.
    pub known_nodes: u64,
    /// Epochs currently served degraded.
    pub degraded_epochs: u64,
    /// Epochs sealed complete.
    pub epochs_sealed: u64,
    /// Node-loss declarations.
    pub node_losses: u64,
    /// Durable frames replayed by reconnecting nodes.
    pub backfill_frames: u64,
    /// Epoch frames accepted and merged.
    pub frames_received: u64,
    /// Epoch frames rejected.
    pub frames_rejected: u64,
    /// Seals received as deltas.
    pub delta_seals: u64,
    /// Wire bytes of the seals received.
    pub seal_bytes: u64,
    /// Heartbeats received.
    pub heartbeats: u64,
    /// Aggregation-log records appended durably.
    pub log_records: u64,
    /// Aggregation-log persist failures.
    pub log_persist_failures: u64,
    /// Epoch views rebuilt by the last recovery.
    pub recovered_epochs: u64,
    /// Log records replayed by the last recovery.
    pub recovered_records: u64,
    /// Jittered reconnect backoffs scheduled by agents.
    pub reconnect_backoffs: u64,
    /// Per-node epoch watermarks, ordered by node id.
    pub nodes: Vec<NodeWatermark>,
}

/// One parsed scrape document: the whole telemetry plane at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScrapeSnapshot {
    /// Journal events recorded so far.
    pub events_recorded: u64,
    /// Journal events dropped at a full ring.
    pub events_dropped: u64,
    /// Fleet-level promotion-duration histogram.
    pub promotion_ns: HistSummary,
    /// Fleet-wide health (live + retired).
    pub fleet: DaemonHealth,
    /// Cluster state, when an aggregator shared the registry.
    pub cluster: Option<ClusterSnapshot>,
    /// Live shard instances.
    pub shards: Vec<ShardSnapshot>,
    /// Retired shard instances.
    pub retired: Vec<ShardSnapshot>,
}

/// Why a scrape document or recording failed to load.
#[derive(Clone, Debug, PartialEq)]
pub enum ScrapeError {
    /// The document was not valid JSON.
    Json(JsonError),
    /// The document parsed but had the wrong shape.
    Shape(&'static str),
    /// A recording line failed (1-based line number, inner error).
    Frame(usize, Box<ScrapeError>),
    /// The recording file could not be read.
    Io(String),
}

impl fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScrapeError::Json(e) => write!(f, "scrape is not valid json: {e}"),
            ScrapeError::Shape(what) => write!(f, "scrape has the wrong shape: {what}"),
            ScrapeError::Frame(line, inner) => {
                write!(f, "recording frame on line {line}: {inner}")
            }
            ScrapeError::Io(e) => write!(f, "recording io error: {e}"),
        }
    }
}

impl std::error::Error for ScrapeError {}

impl From<JsonError> for ScrapeError {
    fn from(e: JsonError) -> Self {
        ScrapeError::Json(e)
    }
}

/// An identity or journal count outside the metric tables.
fn num_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn shard(v: &Json) -> ShardSnapshot {
    let mut s = ShardSnapshot {
        shard: num_u64(v, "shard") as u32,
        inst: num_u64(v, "inst"),
        ..ShardSnapshot::default()
    };
    read_json(v, SHARD_METRICS, &mut s);
    s
}

fn node(v: &Json) -> NodeWatermark {
    let mut n = NodeWatermark {
        node: num_u64(v, "node") as u32,
        ..NodeWatermark::default()
    };
    read_json(v, NODE_METRICS, &mut n);
    n
}

fn cluster(v: &Json) -> ClusterSnapshot {
    let mut c = ClusterSnapshot::default();
    read_json(v, CLUSTER_METRICS, &mut c);
    let nodes = v.get("nodes").and_then(Json::as_arr).unwrap_or(&[]);
    c.nodes = nodes.iter().map(node).collect();
    c
}

impl ScrapeSnapshot {
    /// Parse one scrape document produced by
    /// [`TelemetryRegistry::render_json`].
    pub fn parse(text: &str) -> Result<Self, ScrapeError> {
        Self::from_json(&Json::parse(text)?)
    }

    fn from_json(doc: &Json) -> Result<Self, ScrapeError> {
        if !matches!(doc, Json::Obj(_)) {
            return Err(ScrapeError::Shape("document is not an object"));
        }
        let shards = doc
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or(ScrapeError::Shape("missing shards array"))?;
        let retired = doc
            .get("retired")
            .and_then(Json::as_arr)
            .ok_or(ScrapeError::Shape("missing retired array"))?;
        let events = doc.get("events");
        let mut promotion_ns = HistSummary::default();
        Slot::Hist(&mut promotion_ns).read_json(doc.get("promotion_ns"));
        // The fleet object is the shard table's health section.
        let mut fleet = ShardSnapshot::default();
        read_members(
            doc.get("fleet"),
            section(SHARD_METRICS, "health"),
            &mut fleet,
        );
        Ok(Self {
            events_recorded: events.map_or(0, |e| num_u64(e, "recorded")),
            events_dropped: events.map_or(0, |e| num_u64(e, "dropped")),
            promotion_ns,
            fleet: fleet.health,
            cluster: doc.get("cluster").map(cluster),
            shards: shards.iter().map(shard).collect(),
            retired: retired.iter().map(shard).collect(),
        })
    }
}

/// One frame of a scrape recording.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedFrame {
    /// Recording timestamp, milliseconds since the recorder's epoch.
    pub ts_ms: u64,
    /// Journal events drained in this scrape interval (rendered text).
    pub events: Vec<String>,
    /// The parsed scrape.
    pub snapshot: ScrapeSnapshot,
}

/// Appends timestamped scrape frames to an NDJSON file:
/// one `{"ts_ms":…,"events":[…],"scrape":{…}}` object per line.
///
/// The scrape document is embedded verbatim — it is already JSON — so a
/// recording is greppable, diffable, and replayable with
/// `nitro top --replay FILE`. Frames are flushed per append: a crashed
/// recorder loses at most the line being written, and torn tails are
/// rejected by [`read_recording`] with the line number.
pub struct ScrapeRecorder {
    out: BufWriter<File>,
    frames: u64,
}

impl ScrapeRecorder {
    /// Create (truncate) a recording at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(File::create(path)?),
            frames: 0,
        })
    }

    /// Append one frame: `scrape_json` must be one JSON object (what
    /// [`TelemetryRegistry::render_json`] returns).
    pub fn append(
        &mut self,
        ts_ms: u64,
        scrape_json: &str,
        events: &[String],
    ) -> std::io::Result<()> {
        let mut line = String::with_capacity(scrape_json.len() + 64);
        line.push_str(&format!("{{\"ts_ms\":{ts_ms},\"events\":["));
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_string(&mut line, ev);
        }
        line.push_str("],\"scrape\":");
        line.push_str(scrape_json);
        line.push_str("}\n");
        self.out.write_all(line.as_bytes())?;
        self.out.flush()?;
        self.frames += 1;
        Ok(())
    }

    /// Scrape the registry and append the frame in one step: renders the
    /// JSON document, drains the shared journal, records both, and hands
    /// the drained events back so the caller (a live console, say) can
    /// display what it just recorded.
    pub fn record_registry(
        &mut self,
        ts_ms: u64,
        registry: &TelemetryRegistry,
    ) -> std::io::Result<Vec<String>> {
        let events: Vec<String> = registry
            .drain_events()
            .iter()
            .map(|e| e.to_string())
            .collect();
        self.append(ts_ms, &registry.render_json(), &events)?;
        Ok(events)
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

/// Load a recording written by [`ScrapeRecorder`], oldest frame first.
///
/// Every line must parse; the error names the 1-based line that did not.
/// A trailing blank line (or a torn final newline) is tolerated.
pub fn read_recording(path: impl AsRef<Path>) -> Result<Vec<RecordedFrame>, ScrapeError> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| ScrapeError::Io(e.to_string()))?;
    parse_recording(&text)
}

/// [`read_recording`] over an in-memory NDJSON string.
pub fn parse_recording(text: &str) -> Result<Vec<RecordedFrame>, ScrapeError> {
    let mut frames = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let frame = (|| -> Result<RecordedFrame, ScrapeError> {
            let doc = Json::parse(line)?;
            let ts_ms = doc
                .get("ts_ms")
                .and_then(Json::as_u64)
                .ok_or(ScrapeError::Shape("frame missing ts_ms"))?;
            let events = doc
                .get("events")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or(ScrapeError::Shape("frame events must be strings"))?;
            let scrape = doc
                .get("scrape")
                .ok_or(ScrapeError::Shape("frame missing scrape"))?;
            Ok(RecordedFrame {
                ts_ms,
                events,
                snapshot: ScrapeSnapshot::from_json(scrape)?,
            })
        })()
        .map_err(|e| ScrapeError::Frame(i + 1, Box::new(e)))?;
        frames.push(frame);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Event;

    #[test]
    fn recorder_round_trips_through_read_recording() {
        let dir = std::env::temp_dir().join(format!("nitro-scrape-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.ndjson");
        let reg = TelemetryRegistry::new();
        reg.register(0).processed.add(980);
        reg.record(Event::BreakerTrip { shard: 0, trips: 1 });
        {
            let mut rec = ScrapeRecorder::create(&path).expect("create");
            let events = rec.record_registry(1_000, &reg).expect("frame 0");
            assert_eq!(events.len(), 1, "the breaker trip was drained");
            assert!(events[0].contains("circuit breaker tripped"));
            reg.live_shards()[0].processed.add(20);
            let events = rec.record_registry(1_250, &reg).expect("frame 1");
            assert!(events.is_empty(), "journal already drained");
            assert_eq!(rec.frames(), 2);
        }
        let frames = read_recording(&path).expect("read back");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].ts_ms, 1_000);
        assert_eq!(frames[1].ts_ms, 1_250);
        assert_eq!(frames[0].events.len(), 1);
        assert_eq!(
            frames[1].snapshot.shards[0].health.processed,
            frames[0].snapshot.shards[0].health.processed + 20
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_recording_lines_fail_with_line_numbers() {
        let good = "{\"ts_ms\":1,\"events\":[],\"scrape\":{\"shards\":[],\"retired\":[]}}";
        let torn = format!("{good}\n{{\"ts_ms\":2,\"events\"");
        match parse_recording(&torn) {
            Err(ScrapeError::Frame(2, _)) => {}
            other => panic!("torn tail must name line 2, got {other:?}"),
        }
        let missing_ts = "{\"events\":[],\"scrape\":{\"shards\":[],\"retired\":[]}}";
        match parse_recording(missing_ts) {
            Err(ScrapeError::Frame(1, inner)) => {
                assert_eq!(*inner, ScrapeError::Shape("frame missing ts_ms"));
            }
            other => panic!("missing ts_ms must be a shape error, got {other:?}"),
        }
        assert_eq!(parse_recording("\n\n").unwrap().len(), 0);
        assert_eq!(parse_recording(good).unwrap().len(), 1);
    }
}
