//! The metric schema: one descriptor row per exported shard, cluster and
//! per-node metric, and the three loops that read it.
//!
//! A row names a metric once — Prometheus family, help text, kind, JSON
//! section and key — and holds one accessor into the plain-data snapshot
//! record ([`ShardSnapshot`], [`ClusterSnapshot`], [`NodeWatermark`]).
//! [`crate::TelemetryRegistry::render_prometheus`] and
//! [`crate::TelemetryRegistry::render_json`] read every value through that
//! accessor, and [`crate::ScrapeSnapshot::parse`] writes every value back
//! through it, so the two pages and the parser cannot disagree about a
//! metric's name, placement or type.
//!
//! Page layout follows from the tables:
//!
//! - **JSON**: rows render in table order; consecutive rows with the same
//!   non-empty `section` nest inside one object of that name.
//! - **Prometheus**: families render grouped by [`Kind`] (counters, then
//!   integer gauges, float gauges, histograms), in table order within a
//!   kind. Counters cover live and retired instances, everything else
//!   live instances only. Rows with an empty `family` are JSON-only.
//!
//! Adding a shard gauge therefore means: the cell on
//! [`crate::ShardTelemetry`], its field on [`ShardSnapshot`] and its read
//! in [`crate::ShardTelemetry::snapshot`], and one row here.

use crate::json::Json;
use crate::scrape::{ClusterSnapshot, HistSummary, ShardSnapshot};
use crate::telemetry::{NodeWatermark, HISTOGRAM_BUCKETS};
use std::fmt::{Display, Write};

/// How a metric is exported; the order of the variants is the order of
/// the kinds on the Prometheus page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count, summed over live and retired instances.
    Counter,
    /// An integer (or 0/1 flag) gauge over live instances.
    Gauge,
    /// A floating-point gauge over live instances.
    FloatGauge,
    /// A log2-bucketed latency histogram over live instances.
    Histogram,
}

impl Kind {
    fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::FloatGauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One metric's value inside a snapshot record: the renderers read
/// through it and the scrape parser writes through it.
#[derive(Debug)]
pub enum Slot<'a> {
    /// An integer counter or gauge.
    U64(&'a mut u64),
    /// A float gauge; JSON writes a non-finite value as `null`, which
    /// parses back as `NaN`.
    F64(&'a mut f64),
    /// A flag, written `0`/`1` on both pages.
    Flag(&'a mut bool),
    /// A latency histogram.
    Hist(&'a mut HistSummary),
    /// A value computed from other rows: rendered, never parsed.
    Derived(u64),
}

/// One exported metric of the records of type `T`.
#[derive(Debug)]
pub struct Metric<T: 'static> {
    /// Prometheus family name; empty for a JSON-only row.
    pub family: &'static str,
    /// Prometheus `# TYPE` and which instances the family covers.
    pub kind: Kind,
    /// JSON object the key sits in; empty for the record's own object.
    pub section: &'static str,
    /// JSON key.
    pub key: &'static str,
    /// Where the value lives in the record.
    pub slot: fn(&mut T) -> Slot<'_>,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

const fn m<T>(
    family: &'static str,
    kind: Kind,
    section: &'static str,
    key: &'static str,
    slot: fn(&mut T) -> Slot<'_>,
    help: &'static str,
) -> Metric<T> {
    Metric {
        family,
        kind,
        section,
        key,
        slot,
        help,
    }
}

use Kind::{Counter, FloatGauge, Gauge, Histogram};
use Slot::{Derived, Flag, Hist, F64, U64};

/// Every metric of one shard daemon instance. The `health` section is
/// also the JSON scrape's fleet-wide `fleet` object.
#[rustfmt::skip]
pub static SHARD_METRICS: &[Metric<ShardSnapshot>] = &[
    m("nitro_offered_total", Counter, "health", "offered", |s| U64(&mut s.health.offered),
      "Observations offered by the switch thread."),
    m("nitro_processed_total", Counter, "health", "processed", |s| U64(&mut s.health.processed),
      "Observations applied to the sketch."),
    m("nitro_dropped_total", Counter, "health", "dropped", |s| U64(&mut s.health.dropped),
      "Observations rejected at a full ring."),
    m("nitro_lost_in_crash_total", Counter, "health", "lost_in_crash",
      |s| U64(&mut s.health.lost_in_crash),
      "Observations popped but lost to a worker crash."),
    m("", Counter, "health", "unaccounted", |s| Derived(s.health.unaccounted()),
      "Offered observations neither processed, dropped nor lost."),
    m("nitro_restarts_total", Counter, "health", "restarts", |s| U64(&mut s.health.restarts),
      "Worker panic restarts."),
    m("nitro_stalls_total", Counter, "health", "stalls", |s| U64(&mut s.health.stalls),
      "Watchdog-detected stalls."),
    m("nitro_checkpoints_total", Counter, "health", "checkpoints",
      |s| U64(&mut s.health.checkpoints),
      "Checkpoints taken by the worker."),
    m("nitro_persisted_total", Counter, "health", "persisted", |s| U64(&mut s.health.persisted),
      "Checkpoints made durable."),
    m("nitro_restores_total", Counter, "health", "restores", |s| U64(&mut s.health.restores),
      "Checkpoints restored into replacement workers."),
    m("nitro_downshifts_total", Counter, "health", "downshifts",
      |s| U64(&mut s.health.downshifts),
      "Sampling downshifts applied under backpressure."),
    m("nitro_ring_occupancy", FloatGauge, "gauges", "ring_occupancy",
      |s| F64(&mut s.ring_occupancy),
      "Ring fill fraction in [0, 1]."),
    m("nitro_ring_capacity", Gauge, "gauges", "ring_capacity", |s| U64(&mut s.ring_capacity),
      "Ring capacity in slots."),
    m("nitro_backlog", Gauge, "gauges", "backlog", |s| U64(&mut s.backlog),
      "Observations queued in the ring at scrape time."),
    m("nitro_sampling_probability", FloatGauge, "gauges", "sampling_p",
      |s| F64(&mut s.sampling_p),
      "Current sampling probability p."),
    m("nitro_mode_code", Gauge, "gauges", "mode_code", |s| U64(&mut s.mode_code),
      "Sampling-mode discriminant (0 Fixed, 1 AlwaysLineRate, 2 AlwaysCorrect)."),
    m("nitro_converged", Gauge, "gauges", "converged", |s| Flag(&mut s.converged),
      "Whether the mode's guarantees currently hold (0/1)."),
    m("nitro_topk_len", Gauge, "gauges", "topk_len", |s| U64(&mut s.topk_len),
      "Heavy-key tracker occupancy."),
    m("nitro_breaker_open", Gauge, "gauges", "breaker_open", |s| Flag(&mut s.breaker_open),
      "Whether the shard's circuit breaker is latched open (0/1)."),
    m("nitro_failed", Gauge, "gauges", "failed", |s| Flag(&mut s.failed),
      "Whether the restart budget is spent (0/1)."),
    m("nitro_generation", Gauge, "gauges", "generation", |s| U64(&mut s.generation),
      "Fleet generation this instance writes durable frames under."),
    m("nitro_seq_band", Gauge, "gauges", "seq_band", |s| U64(&mut s.seq_band),
      "Sequence band this instance's frames are stamped into."),
    m("nitro_persist_lag", Gauge, "gauges", "persist_lag", |s| U64(&mut s.persist_lag),
      "Observations processed since the newest persisted checkpoint."),
    m("nitro_skew_load_factor", FloatGauge, "gauges", "skew_load", |s| F64(&mut s.skew_load),
      "Collision-skew load factor from the last epoch view."),
    m("nitro_sign_bias", FloatGauge, "gauges", "sign_bias", |s| F64(&mut s.sign_bias),
      "Sign-bias skew in [0, 1] (NaN for unsigned sketches)."),
    m("nitro_frames_persisted_total", Counter, "store", "frames",
      |s| U64(&mut s.frames_persisted),
      "CRC frames appended to the durable segment log."),
    m("nitro_bytes_persisted_total", Counter, "store", "bytes", |s| U64(&mut s.bytes_persisted),
      "Payload bytes appended to the durable segment log."),
    m("nitro_batch_ns", Histogram, "", "batch_ns", |s| Hist(&mut s.batch_ns),
      "Per-batch processing latency (pop to sketch-applied), nanoseconds."),
    m("nitro_persist_ns", Histogram, "", "persist_ns", |s| Hist(&mut s.persist_ns),
      "Durable checkpoint persist latency, nanoseconds."),
];

/// Every metric of a cluster aggregator (the scrape's `cluster` object).
#[rustfmt::skip]
pub static CLUSTER_METRICS: &[Metric<ClusterSnapshot>] = &[
    m("nitro_cluster_connected_nodes", Gauge, "", "connected_nodes",
      |c| U64(&mut c.connected_nodes),
      "Nodes currently holding a live connection."),
    m("nitro_cluster_known_nodes", Gauge, "", "known_nodes", |c| U64(&mut c.known_nodes),
      "Nodes the aggregator has ever admitted."),
    m("nitro_cluster_degraded_epochs", Gauge, "", "degraded_epochs",
      |c| U64(&mut c.degraded_epochs),
      "Epochs whose merged view is currently degraded."),
    m("nitro_cluster_epochs_sealed_total", Counter, "", "epochs_sealed",
      |c| U64(&mut c.epochs_sealed),
      "Cluster epochs sealed complete."),
    m("nitro_cluster_node_losses_total", Counter, "", "node_losses", |c| U64(&mut c.node_losses),
      "Node-loss declarations (dead connections or silent heartbeats)."),
    m("nitro_cluster_backfill_frames_total", Counter, "", "backfill_frames",
      |c| U64(&mut c.backfill_frames),
      "Durable frames replayed by reconnecting nodes."),
    m("nitro_cluster_frames_received_total", Counter, "", "frames_received",
      |c| U64(&mut c.frames_received),
      "Epoch frames accepted and merged."),
    m("nitro_cluster_frames_rejected_total", Counter, "", "frames_rejected",
      |c| U64(&mut c.frames_rejected),
      "Epoch frames rejected."),
    m("nitro_cluster_delta_seals_total", Counter, "", "delta_seals",
      |c| U64(&mut c.delta_seals),
      "Seals received as deltas (the rest arrive as keyframes)."),
    m("nitro_cluster_seal_bytes_total", Counter, "", "seal_bytes", |c| U64(&mut c.seal_bytes),
      "Wire bytes of the seals received, keyframes and deltas."),
    m("nitro_cluster_heartbeats_total", Counter, "", "heartbeats", |c| U64(&mut c.heartbeats),
      "Heartbeat messages received."),
    m("nitro_cluster_log_records_total", Counter, "", "log_records", |c| U64(&mut c.log_records),
      "Records appended durably to the aggregation log."),
    m("nitro_cluster_log_persist_failures_total", Counter, "", "log_persist_failures",
      |c| U64(&mut c.log_persist_failures),
      "Aggregation-log appends that failed."),
    m("nitro_cluster_recovered_epochs", Gauge, "", "recovered_epochs",
      |c| U64(&mut c.recovered_epochs),
      "Epoch views rebuilt from the log by the last recovery."),
    m("nitro_cluster_recovered_records", Gauge, "", "recovered_records",
      |c| U64(&mut c.recovered_records),
      "Log records replayed by the last recovery."),
    m("nitro_cluster_reconnect_backoffs_total", Counter, "", "reconnect_backoffs",
      |c| U64(&mut c.reconnect_backoffs),
      "Jittered reconnect backoffs scheduled by disconnected agents."),
];

/// Every per-node metric of the cluster section (one entry of `nodes`).
#[rustfmt::skip]
pub static NODE_METRICS: &[Metric<NodeWatermark>] = &[
    m("nitro_cluster_node_last_epoch", Gauge, "", "last_epoch", |n| U64(&mut n.last_epoch),
      "Newest epoch the aggregator holds a frame for, per node."),
    m("nitro_cluster_node_connected", Gauge, "", "connected", |n| Flag(&mut n.connected),
      "Whether the node currently holds a live connection (0/1)."),
];

impl Slot<'_> {
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            U64(v) => push(out, v),
            F64(v) if v.is_finite() => push(out, v),
            F64(_) => out.push_str("null"),
            Flag(v) => push(out, u8::from(**v)),
            Derived(v) => push(out, v),
            Hist(h) => {
                let _ = write!(
                    out,
                    "{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                    h.count, h.sum, h.p50, h.p99, h.max
                );
            }
        }
    }

    /// Write this value's sample line(s) of family `name`; `labels` is
    /// the inside of the label braces (empty: no braces).
    pub(crate) fn write_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        match self {
            U64(v) => sample(out, name, "", labels, v),
            F64(v) if v.is_nan() => sample(out, name, "", labels, "NaN"),
            F64(v) => sample(out, name, "", labels, v),
            Flag(v) => sample(out, name, "", labels, u8::from(**v)),
            Derived(v) => sample(out, name, "", labels, v),
            Hist(h) => {
                let sep = if labels.is_empty() { "" } else { "," };
                for (le, cum) in h.cumulative_buckets() {
                    // The last bucket clamps everything ≥ 2^(HISTOGRAM_BUCKETS-1),
                    // so its nominal finite upper bound would lie: only
                    // `+Inf` covers it.
                    if le != 1 << HISTOGRAM_BUCKETS {
                        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
                    }
                }
                let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
                sample(out, name, "_sum", labels, h.sum);
                sample(out, name, "_count", labels, h.count);
            }
        }
    }

    /// Store the JSON value `v` (absent: 0, `null` float: `NaN`).
    pub(crate) fn read_json(self, v: Option<&Json>) {
        let num = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
        match self {
            U64(x) => *x = num(v),
            F64(x) => {
                *x = match v {
                    Some(Json::Null) => f64::NAN,
                    Some(j) => j.as_f64().unwrap_or(0.0),
                    None => 0.0,
                }
            }
            Flag(x) => *x = num(v) != 0,
            Hist(h) => {
                let field = |key| num(v.and_then(|h| h.get(key)));
                h.count = field("count");
                h.sum = field("sum");
                h.p50 = field("p50");
                h.p99 = field("p99");
                h.max = field("max");
            }
            Derived(_) => {}
        }
    }
}

fn push(out: &mut String, v: impl Display) {
    let _ = write!(out, "{v}");
}

fn sample(out: &mut String, name: &str, suffix: &str, labels: &str, v: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name}{suffix} {v}")
    } else {
        writeln!(out, "{name}{suffix}{{{labels}}} {v}")
    };
}

/// Write a family's `# HELP` and `# TYPE` lines.
pub(crate) fn family(out: &mut String, name: &str, kind: Kind, help: &str) {
    let _ = writeln!(
        out,
        "# HELP {name} {help}\n# TYPE {name} {}",
        kind.type_name()
    );
}

/// Write every Prometheus family of `rows` over `recs`, whose first
/// `live` entries are live instances; `labels[i]` labels `recs[i]`.
pub(crate) fn write_prometheus<T>(
    out: &mut String,
    rows: &[Metric<T>],
    recs: &mut [T],
    labels: &[String],
    live: usize,
) {
    for kind in [Counter, Gauge, FloatGauge, Histogram] {
        for row in rows
            .iter()
            .filter(|r| r.kind == kind && !r.family.is_empty())
        {
            family(out, row.family, kind, row.help);
            let covered = if kind == Counter { recs.len() } else { live };
            for (rec, label) in recs[..covered].iter_mut().zip(labels) {
                (row.slot)(rec).write_prometheus(out, row.family, label);
            }
        }
    }
}

fn same_section<T>(a: &Metric<T>, b: &Metric<T>) -> bool {
    a.section == b.section
}

/// The rows of `rows` in JSON section `name`.
pub(crate) fn section<T>(rows: &'static [Metric<T>], name: &str) -> &'static [Metric<T>] {
    rows.chunk_by(same_section)
        .find(|group| group[0].section == name)
        .unwrap_or(&[])
}

/// Write `rec` as members of the JSON object open at the end of `out`.
pub(crate) fn write_json<T>(out: &mut String, rows: &[Metric<T>], rec: &mut T) {
    for group in rows.chunk_by(same_section) {
        match group[0].section {
            "" => write_members(out, group, rec),
            section => {
                json_key(out, section);
                out.push('{');
                write_members(out, group, rec);
                out.push('}');
            }
        }
    }
}

/// Write `rows` of `rec` as flat members, ignoring their section.
pub(crate) fn write_members<T>(out: &mut String, rows: &[Metric<T>], rec: &mut T) {
    for row in rows {
        json_key(out, row.key);
        (row.slot)(rec).write_json(out);
    }
}

/// Open member `key`, after a comma unless it is the object's first.
pub(crate) fn json_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{key}\":");
}

/// Read `rec` from the JSON object `obj` written by [`write_json`].
pub(crate) fn read_json<T>(obj: &Json, rows: &[Metric<T>], rec: &mut T) {
    for group in rows.chunk_by(same_section) {
        match group[0].section {
            "" => read_members(Some(obj), group, rec),
            section => read_members(obj.get(section), group, rec),
        }
    }
}

/// Read `rows` of `rec` as flat members of `obj`, ignoring their section.
pub(crate) fn read_members<T>(obj: Option<&Json>, rows: &[Metric<T>], rec: &mut T) {
    for row in rows {
        (row.slot)(rec).read_json(obj.and_then(|o| o.get(row.key)));
    }
}
