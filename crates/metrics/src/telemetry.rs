//! Lock-free live telemetry: per-shard counters/gauges, log2-bucketed
//! latency histograms, a structured event journal, and dependency-free
//! Prometheus/JSON exporters.
//!
//! The robustness stack (supervisor, durable store, failover) accounts
//! every observation *after the fact* through [`crate::DaemonHealth`];
//! this module makes the same numbers — plus live-only gauges like ring
//! occupancy and the current sampling probability — readable **while the
//! fleet runs**, without joining any thread and without a single lock on
//! the hot path.
//!
//! ## Memory-ordering contract
//!
//! Every counter and gauge in [`ShardTelemetry`] is a relaxed atomic: a
//! publish is one `fetch_add`/`store(Relaxed)` and a scrape is one
//! `load(Relaxed)` per cell. Consequences:
//!
//! - A scrape is **per-cell atomic but cross-cell racy**: it can observe
//!   `processed` ahead of `offered` mid-flight, so derived quantities
//!   saturate ([`DaemonHealth::unaccounted`]) or clamp
//!   ([`DaemonHealth::delivery_ratio`]) instead of underflowing.
//! - Once the publishing threads have quiesced (daemon joined), a scrape
//!   equals the final [`DaemonHealth`] exactly — the join's
//!   happens-before edge covers every relaxed write.
//! - The [`EventJournal`] is the one place with real ordering: each slot's
//!   sequence word is acquire/release, so a drained event's payload is
//!   fully visible to the consumer.
//!
//! ## Event-journal overflow semantics
//!
//! The journal is a fixed-capacity lock-free MPMC ring. When it is full,
//! [`EventJournal::record`] **drops the new event and increments the
//! overflow counter** — it never blocks and never overwrites undrained
//! events. Sequence numbers are assigned only to recorded events, in
//! enqueue order, so a drained stream is totally ordered and gaps are
//! measured by [`EventJournal::dropped`], not inferred.

use crate::health::DaemonHealth;
use crate::schema::{
    self, family, json_key, section, Kind, CLUSTER_METRICS, NODE_METRICS, SHARD_METRICS,
};
use crate::scrape::{ClusterSnapshot, HistSummary, ShardSnapshot};
use std::fmt::Write;
use std::sync::atomic::{
    AtomicU64, Ordering::AcqRel, Ordering::Acquire, Ordering::Relaxed, Ordering::Release,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of a registry's event journal (slots).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Log2 buckets in a [`LatencyHistogram`]: bucket `i` holds values in
/// `[2^i, 2^{i+1})` (bucket 0 also holds 0), covering up to ~1.6 days in
/// nanoseconds before the last bucket clamps.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// One `u64` counter or gauge on its own cache line.
///
/// The alignment keeps two cells written by different threads (e.g. the
/// tap's `offered` and the worker's `processed`) from false-sharing a
/// line. All operations are `Relaxed` — see the module-level ordering
/// contract.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct TelemetryCell(AtomicU64);

impl TelemetryCell {
    /// A cell holding `v`.
    pub fn new(v: u64) -> Self {
        Self(AtomicU64::new(v))
    }

    /// Add `n`, returning the previous value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Relaxed)
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Overwrite the value (gauge semantics).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Read the value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Store an `f64` gauge bit-for-bit (occupancy, sampling probability).
    #[inline]
    pub fn set_f64(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Read an `f64` gauge stored with [`TelemetryCell::set_f64`].
    #[inline]
    pub fn get_f64(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// An atomic log2-bucketed (HDR-style) latency histogram.
///
/// [`LatencyHistogram::record`] is three relaxed `fetch_add`s plus one
/// `fetch_max` — safe to call from any thread, including the worker's hot
/// loop. Quantile extraction walks the bucket array and returns the
/// **lower bound** of the bucket containing the requested rank, so a
/// quantile over values that are exact powers of two is exact.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((63 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one value (nanoseconds, by convention).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Recorded values so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the lower bound of the bucket
    /// holding the rank-`⌈q·count⌉` value; 0 when empty. Exact whenever
    /// the recorded values are powers of two (each bucket's lower bound).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Relaxed);
            if cum >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max()
    }

    /// Every statistic the scrape pages export.
    pub(crate) fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.p50(),
            p99: self.p99(),
            max: self.max(),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
        }
    }

    /// Median (bucket lower bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (bucket lower bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Cumulative bucket counts up to the last non-empty bucket, as
    /// `(upper_bound_exclusive, cumulative_count)` pairs — the shape a
    /// Prometheus `_bucket{le=…}` series needs.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        self.summary().cumulative_buckets()
    }
}

/// A typed, fixed-payload fleet event. `Copy` so the journal never
/// allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A shard's worker thread was restarted after a panic.
    Restart {
        /// Shard id.
        shard: u32,
        /// Cumulative restarts on that shard, including this one.
        restarts: u64,
    },
    /// A shard's watchdog detected a stall and forced a cooperative
    /// restart.
    Stall {
        /// Shard id.
        shard: u32,
        /// Cumulative stalls on that shard, including this one.
        stalls: u64,
    },
    /// A shard downshifted its sampling probability under backpressure.
    Downshift {
        /// Shard id.
        shard: u32,
        /// The new sampling probability.
        p: f64,
    },
    /// A shard's checkpoint reached its durable sink.
    CheckpointPersisted {
        /// Shard id.
        shard: u32,
        /// Checkpoint sequence number (worker-local, unbased).
        seq: u64,
        /// Observations the checkpoint covers.
        processed_at: u64,
    },
    /// A shard's circuit breaker latched open.
    BreakerTrip {
        /// Shard id.
        shard: u32,
        /// Lifetime trips of that breaker, including this one.
        trips: u64,
    },
    /// A failed shard was promoted: a successor restored from its latest
    /// checkpoint took over its flow slice.
    Promotion {
        /// Shard id.
        shard: u32,
        /// The fresh sequence band the promoted daemon writes into.
        band: u64,
        /// Wall-clock duration of the promotion (snapshot → re-steer).
        duration_ns: u64,
    },
    /// The fleet was resharded online.
    Rescale {
        /// Shard count before.
        from: u32,
        /// Shard count after.
        to: u32,
    },
    /// A fleet was rebuilt from its durable checkpoint directory.
    RecoveryReport {
        /// Shards in the recovered manifest.
        shards: u32,
        /// Shards that recovered durable state (the rest restart blank).
        recovered: u32,
        /// Corrupt frames rejected during the scan.
        corrupt: u64,
    },
    /// A shard's collision-skew detector tripped: its row load factor (or
    /// sign bias) stayed above the configured bound for consecutive epoch
    /// views — the signature of a hash-collision flood against leaked
    /// seeds.
    AnomalousSkew {
        /// Shard id.
        shard: u32,
        /// Load factor at trip time, in thousandths (`NaN` records as 0).
        load_milli: u64,
        /// Consecutive breached epoch views when the detector tripped.
        epochs: u32,
    },
    /// The fleet rotated its hash seeds online (collision-flood
    /// mitigation): every shard was rebuilt around a fresh seed, tracked
    /// heavy keys were folded across at their decoded estimates, and the
    /// router was re-steered with no downtime.
    SeedRotation {
        /// The fresh sequence band the rotated shards write into.
        band: u64,
        /// Wall-clock duration of the rotation (spawn → re-steer → drain).
        duration_ns: u64,
    },
    /// A cluster node completed the aggregator handshake (first connect
    /// or reconnect after a loss).
    NodeJoin {
        /// Operator-assigned node id.
        node: u32,
        /// The next epoch the node announced it will seal.
        epoch: u64,
    },
    /// A cluster node was declared lost: its connection died or its
    /// heartbeats went silent past the configured timeout.
    NodeLoss {
        /// Operator-assigned node id.
        node: u32,
        /// The newest epoch the aggregator holds a frame for from this
        /// node (0: none yet).
        last_epoch: u64,
    },
    /// A cluster epoch transitioned to complete: every member node's
    /// frame is merged into the global view.
    EpochSealed {
        /// The epoch that became complete.
        epoch: u64,
        /// Nodes whose frames the merged view covers.
        nodes: u32,
        /// Whether the epoch was previously served degraded (a reporting
        /// node was lost before its frame arrived via backfill).
        was_degraded: bool,
    },
    /// A reconnecting node replayed epochs from its durable segment log
    /// that the aggregator had missed (partition or crash repair).
    BackfillReplayed {
        /// Operator-assigned node id.
        node: u32,
        /// Durable frames replayed in this backfill.
        frames: u64,
    },
    /// An aggregator was rebuilt from its durable aggregation log: sealed
    /// epoch views and membership intervals were served from disk before
    /// any node reconnected.
    AggregatorRecovered {
        /// Epoch views rebuilt from the log.
        epochs: u32,
        /// Node membership records rebuilt from the log.
        nodes: u32,
        /// Log records replayed (node frames + membership snapshots).
        records: u64,
    },
    /// A disconnected cluster agent scheduled a jittered redial after a
    /// failed reconnect attempt.
    ReconnectBackoff {
        /// Operator-assigned node id.
        node: u32,
        /// Consecutive failed attempts so far (1-based).
        attempt: u32,
        /// Backoff chosen before the next redial, in milliseconds.
        delay_ms: u64,
    },
}

impl Event {
    fn encode(self) -> (u64, u64, u64, u64) {
        match self {
            Event::Restart { shard, restarts } => (0, shard as u64, restarts, 0),
            Event::Stall { shard, stalls } => (1, shard as u64, stalls, 0),
            Event::Downshift { shard, p } => (2, shard as u64, p.to_bits(), 0),
            Event::CheckpointPersisted {
                shard,
                seq,
                processed_at,
            } => (3, shard as u64, seq, processed_at),
            Event::BreakerTrip { shard, trips } => (4, shard as u64, trips, 0),
            Event::Promotion {
                shard,
                band,
                duration_ns,
            } => (5, shard as u64, band, duration_ns),
            Event::Rescale { from, to } => (6, from as u64, to as u64, 0),
            Event::RecoveryReport {
                shards,
                recovered,
                corrupt,
            } => (7, shards as u64, recovered as u64, corrupt),
            Event::AnomalousSkew {
                shard,
                load_milli,
                epochs,
            } => (8, shard as u64, load_milli, epochs as u64),
            Event::SeedRotation { band, duration_ns } => (9, band, duration_ns, 0),
            Event::NodeJoin { node, epoch } => (10, node as u64, epoch, 0),
            Event::NodeLoss { node, last_epoch } => (11, node as u64, last_epoch, 0),
            Event::EpochSealed {
                epoch,
                nodes,
                was_degraded,
            } => (12, epoch, nodes as u64, was_degraded as u64),
            Event::BackfillReplayed { node, frames } => (13, node as u64, frames, 0),
            Event::AggregatorRecovered {
                epochs,
                nodes,
                records,
            } => (14, epochs as u64, nodes as u64, records),
            Event::ReconnectBackoff {
                node,
                attempt,
                delay_ms,
            } => (15, node as u64, attempt as u64, delay_ms),
        }
    }

    fn decode(kind: u64, a: u64, b: u64, c: u64) -> Option<Event> {
        Some(match kind {
            0 => Event::Restart {
                shard: a as u32,
                restarts: b,
            },
            1 => Event::Stall {
                shard: a as u32,
                stalls: b,
            },
            2 => Event::Downshift {
                shard: a as u32,
                p: f64::from_bits(b),
            },
            3 => Event::CheckpointPersisted {
                shard: a as u32,
                seq: b,
                processed_at: c,
            },
            4 => Event::BreakerTrip {
                shard: a as u32,
                trips: b,
            },
            5 => Event::Promotion {
                shard: a as u32,
                band: b,
                duration_ns: c,
            },
            6 => Event::Rescale {
                from: a as u32,
                to: b as u32,
            },
            7 => Event::RecoveryReport {
                shards: a as u32,
                recovered: b as u32,
                corrupt: c,
            },
            8 => Event::AnomalousSkew {
                shard: a as u32,
                load_milli: b,
                epochs: c as u32,
            },
            9 => Event::SeedRotation {
                band: a,
                duration_ns: b,
            },
            10 => Event::NodeJoin {
                node: a as u32,
                epoch: b,
            },
            11 => Event::NodeLoss {
                node: a as u32,
                last_epoch: b,
            },
            12 => Event::EpochSealed {
                epoch: a,
                nodes: b as u32,
                was_degraded: c != 0,
            },
            13 => Event::BackfillReplayed {
                node: a as u32,
                frames: b,
            },
            14 => Event::AggregatorRecovered {
                epochs: a as u32,
                nodes: b as u32,
                records: c,
            },
            15 => Event::ReconnectBackoff {
                node: a as u32,
                attempt: b as u32,
                delay_ms: c,
            },
            _ => return None,
        })
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Event::Restart { shard, restarts } => {
                write!(f, "shard {shard}: worker restarted after panic (restart #{restarts})")
            }
            Event::Stall { shard, stalls } => {
                write!(f, "shard {shard}: watchdog stall, cooperative restart (stall #{stalls})")
            }
            Event::Downshift { shard, p } => {
                write!(f, "shard {shard}: backpressure downshifted sampling to p={p}")
            }
            Event::CheckpointPersisted {
                shard,
                seq,
                processed_at,
            } => write!(
                f,
                "shard {shard}: checkpoint seq={seq} persisted at processed={processed_at}"
            ),
            Event::BreakerTrip { shard, trips } => {
                write!(f, "shard {shard}: circuit breaker tripped (trip #{trips})")
            }
            Event::Promotion {
                shard,
                band,
                duration_ns,
            } => write!(
                f,
                "shard {shard}: standby promoted into band {band:#x} in {duration_ns} ns"
            ),
            Event::Rescale { from, to } => write!(f, "fleet rescaled from {from} to {to} shards"),
            Event::RecoveryReport {
                shards,
                recovered,
                corrupt,
            } => write!(
                f,
                "recovered {recovered}/{shards} shards from durable store ({corrupt} corrupt frames rejected)"
            ),
            Event::AnomalousSkew {
                shard,
                load_milli,
                epochs,
            } => write!(
                f,
                "shard {shard}: anomalous collision skew (load {:.3}x balanced, {epochs} consecutive epochs)",
                load_milli as f64 / 1000.0
            ),
            Event::SeedRotation { band, duration_ns } => write!(
                f,
                "fleet rotated hash seeds into band {band:#x} in {duration_ns} ns"
            ),
            Event::NodeJoin { node, epoch } => {
                write!(f, "node {node}: joined the cluster (next epoch {epoch})")
            }
            Event::NodeLoss { node, last_epoch } => write!(
                f,
                "node {node}: lost (connection dead or heartbeats silent; newest frame epoch {last_epoch})"
            ),
            Event::EpochSealed {
                epoch,
                nodes,
                was_degraded,
            } => write!(
                f,
                "epoch {epoch}: sealed complete over {nodes} nodes{}",
                if was_degraded {
                    " (repaired from degraded by backfill)"
                } else {
                    ""
                }
            ),
            Event::BackfillReplayed { node, frames } => write!(
                f,
                "node {node}: backfilled {frames} missed epoch frames from its durable log"
            ),
            Event::AggregatorRecovered {
                epochs,
                nodes,
                records,
            } => write!(
                f,
                "aggregator recovered from durable log: {epochs} epoch views and {nodes} node records rebuilt from {records} records"
            ),
            Event::ReconnectBackoff {
                node,
                attempt,
                delay_ms,
            } => write!(
                f,
                "node {node}: reconnect attempt {attempt} failed; redialing in {delay_ms} ms"
            ),
        }
    }
}

/// One drained journal entry: the event plus its order and timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SequencedEvent {
    /// Journal-global sequence number, assigned in enqueue order (dropped
    /// events consume no sequence number).
    pub seq: u64,
    /// Nanoseconds since the journal was created.
    pub at_ns: u64,
    /// The event.
    pub event: Event,
}

impl std::fmt::Display for SequencedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>6}] +{:>12}ns {}", self.seq, self.at_ns, self.event)
    }
}

/// One journal slot: a Vyukov-style turn word plus an all-atomic payload,
/// so the whole queue is lock-free *and* data-race-free without `unsafe`.
#[derive(Debug)]
struct Slot {
    /// Enqueue/dequeue turn (Vyukov bounded-MPMC discipline): equals the
    /// claiming position when empty, position+1 when full.
    turn: AtomicU64,
    at_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

/// A fixed-capacity, lock-free, multi-producer multi-consumer ring of
/// typed, sequence-numbered events.
///
/// Producers are every runtime thread (taps, workers, supervisors,
/// appliers, the coordinator); the consumer is whoever scrapes. A full
/// ring **drops** the new event (counted — see the module docs) instead
/// of blocking or overwriting.
#[derive(Debug)]
pub struct EventJournal {
    slots: Box<[Slot]>,
    mask: u64,
    enqueue_pos: AtomicU64,
    dequeue_pos: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// A journal with at least `capacity` slots (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                turn: AtomicU64::new(i as u64),
                at_ns: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
                c: AtomicU64::new(0),
            })
            .collect();
        Self {
            slots,
            mask: cap as u64 - 1,
            enqueue_pos: AtomicU64::new(0),
            dequeue_pos: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events successfully recorded so far (== the next sequence number).
    pub fn recorded(&self) -> u64 {
        self.enqueue_pos.load(Relaxed)
    }

    /// Events dropped at a full ring.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Record one event. Returns `false` (and counts the drop) when the
    /// ring is full; never blocks, never spins unboundedly.
    pub fn record(&self, event: Event) -> bool {
        let (kind, a, b, c) = event.encode();
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut pos = self.enqueue_pos.load(Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let turn = slot.turn.load(Acquire);
            match turn as i64 - pos as i64 {
                0 => {
                    match self
                        .enqueue_pos
                        .compare_exchange_weak(pos, pos + 1, Relaxed, Relaxed)
                    {
                        Ok(_) => {
                            slot.at_ns.store(at_ns, Relaxed);
                            slot.kind.store(kind, Relaxed);
                            slot.a.store(a, Relaxed);
                            slot.b.store(b, Relaxed);
                            slot.c.store(c, Relaxed);
                            slot.turn.store(pos + 1, Release);
                            return true;
                        }
                        Err(now) => pos = now,
                    }
                }
                diff if diff < 0 => {
                    // The slot a lap ahead is still unread: the ring is
                    // full. Count the loss and get out of the hot path.
                    self.dropped.fetch_add(1, Relaxed);
                    return false;
                }
                _ => pos = self.enqueue_pos.load(Relaxed),
            }
        }
    }

    /// Pop the oldest undrained event, if any.
    pub fn pop(&self) -> Option<SequencedEvent> {
        let mut pos = self.dequeue_pos.load(Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let turn = slot.turn.load(Acquire);
            match turn as i64 - (pos + 1) as i64 {
                0 => {
                    match self
                        .dequeue_pos
                        .compare_exchange_weak(pos, pos + 1, Relaxed, Relaxed)
                    {
                        Ok(_) => {
                            let at_ns = slot.at_ns.load(Relaxed);
                            let event = Event::decode(
                                slot.kind.load(Relaxed),
                                slot.a.load(Relaxed),
                                slot.b.load(Relaxed),
                                slot.c.load(Relaxed),
                            );
                            slot.turn.store(pos + self.mask + 1, Release);
                            // `decode` of what `record` encoded never
                            // fails; the branch keeps the codec honest.
                            return event.map(|event| SequencedEvent {
                                seq: pos,
                                at_ns,
                                event,
                            });
                        }
                        Err(now) => pos = now,
                    }
                }
                diff if diff < 0 => return None, // empty
                _ => pos = self.dequeue_pos.load(Relaxed),
            }
        }
    }

    /// Drain every currently-queued event, oldest first.
    pub fn drain(&self) -> Vec<SequencedEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        out
    }
}

/// Live gauges a measurement exposes to its shard's telemetry (see the
/// supervisor's `Recoverable::gauges` hook): the sampling controller's
/// state plus top-k occupancy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasurementGauges {
    /// Current sampling probability `p`.
    pub sampling_p: f64,
    /// Sampling-mode discriminant (0 = Fixed, 1 = AlwaysLineRate,
    /// 2 = AlwaysCorrect).
    pub mode_code: u64,
    /// Whether the mode's guarantees currently hold.
    pub converged: bool,
    /// Keys currently tracked by the heavy-key tracker (0 when disabled).
    pub topk_len: u64,
}

/// All live telemetry of one shard daemon instance: cache-line-padded
/// relaxed counters mirroring every [`DaemonHealth`] field, live gauges,
/// and per-shard latency histograms. Publishers are the tap, worker,
/// supervisor, and durable writer; readers are the exporters — no reader
/// ever blocks a publisher.
#[derive(Debug, Default)]
pub struct ShardTelemetry {
    /// Shard id (dispatcher index).
    pub shard: u32,
    /// Registry-unique instance number: a promoted or rescaled shard
    /// reuses the shard id but gets a fresh incarnation, so its counters
    /// restart without colliding with the retired instance's series.
    pub incarnation: u64,
    /// The journal this shard's components record events into (shared
    /// across the fleet when the shard was registered via
    /// [`TelemetryRegistry::register`]).
    pub journal: Arc<EventJournal>,

    /// Observations offered by the switch thread.
    pub offered: TelemetryCell,
    /// Observations applied to the sketch.
    pub processed: TelemetryCell,
    /// Observations rejected at a full ring.
    pub dropped: TelemetryCell,
    /// Observations taken off the ring (pre-processing);
    /// `popped - processed` is the crash-loss window.
    pub popped: TelemetryCell,
    /// Worker panic restarts.
    pub restarts: TelemetryCell,
    /// Watchdog stalls.
    pub stalls: TelemetryCell,
    /// Checkpoints taken.
    pub checkpoints: TelemetryCell,
    /// Checkpoints made durable.
    pub persisted: TelemetryCell,
    /// Checkpoints restored into replacement workers.
    pub restores: TelemetryCell,
    /// Sampling downshifts applied.
    pub downshifts: TelemetryCell,

    /// CRC frames appended to the durable segment log.
    pub frames_persisted: TelemetryCell,
    /// Payload bytes appended to the durable segment log.
    pub bytes_persisted: TelemetryCell,

    /// Ring fill fraction in `[0, 1]` (f64 bits; tap-sampled).
    pub ring_occupancy: TelemetryCell,
    /// Ring capacity in slots.
    pub ring_capacity: TelemetryCell,
    /// Observations queued in the ring (refreshed at scrape time).
    pub backlog: TelemetryCell,
    /// Current sampling probability `p` (f64 bits).
    pub sampling_p: TelemetryCell,
    /// Sampling-mode discriminant (see [`MeasurementGauges::mode_code`]).
    pub mode_code: TelemetryCell,
    /// Whether guarantees currently hold (0/1).
    pub converged: TelemetryCell,
    /// Heavy-key tracker occupancy.
    pub topk_len: TelemetryCell,
    /// Whether this shard's circuit breaker is latched open (0/1).
    pub breaker_open: TelemetryCell,
    /// Whether the restart budget is spent (0/1).
    pub failed: TelemetryCell,
    /// Fleet generation this instance writes durable frames under.
    pub generation: TelemetryCell,
    /// Sequence band this instance's frames are stamped into.
    pub seq_band: TelemetryCell,
    /// `processed` when the newest persisted checkpoint was taken; the
    /// base of [`ShardTelemetry::persist_lag`].
    pub persisted_at: TelemetryCell,
    /// Collision-skew load factor from the last epoch view — `max |cell|`
    /// over balanced mean, minimized across rows (f64 bits; see
    /// `nitro_core::anomaly`). 0 until the first epoch view.
    pub skew_load: TelemetryCell,
    /// Sign-bias skew from the last epoch view in `[0, 1]` (f64 bits;
    /// `NaN` for unsigned sketches, rendered as `null` in JSON).
    pub sign_bias: TelemetryCell,

    /// Per-batch processing latency (pop → sketch-applied), nanoseconds.
    pub batch_ns: LatencyHistogram,
    /// Durable checkpoint persist latency, nanoseconds (timed on the
    /// daemon's writer thread, off the sketch thread).
    pub persist_ns: LatencyHistogram,
}

impl ShardTelemetry {
    /// Telemetry for shard `shard`, instance `incarnation`, recording
    /// events into `journal`.
    pub fn new(shard: u32, incarnation: u64, journal: Arc<EventJournal>) -> Self {
        Self {
            shard,
            incarnation,
            journal,
            ..Self::default()
        }
    }

    /// Standalone telemetry with a private journal — what a supervised
    /// daemon gets when no registry was wired in.
    pub fn detached(shard: u32) -> Self {
        Self {
            shard,
            ..Self::default()
        }
    }

    /// Record an event into this shard's journal.
    pub fn event(&self, event: Event) -> bool {
        self.journal.record(event)
    }

    /// Publish a measurement's live gauges.
    pub fn publish_gauges(&self, g: &MeasurementGauges) {
        self.sampling_p.set_f64(g.sampling_p);
        self.mode_code.set(g.mode_code);
        self.converged.set(g.converged as u64);
        self.topk_len.set(g.topk_len);
    }

    /// Observations processed since the newest persisted checkpoint was
    /// taken: what a process crash right now would lose, besides the
    /// in-flight batch. Without a durable sink nothing is persisted and
    /// this equals `processed`.
    pub fn persist_lag(&self) -> u64 {
        self.processed.get().saturating_sub(self.persisted_at.get())
    }

    /// The instant-readable [`DaemonHealth`] equivalent. Mid-flight this
    /// is a racy-but-saturating snapshot; after the daemon joined it
    /// equals the final record exactly.
    pub fn health(&self) -> DaemonHealth {
        let popped = self.popped.get();
        let processed = self.processed.get();
        DaemonHealth {
            offered: self.offered.get(),
            processed,
            dropped: self.dropped.get(),
            lost_in_crash: popped.saturating_sub(processed),
            restarts: self.restarts.get(),
            stalls: self.stalls.get(),
            checkpoints: self.checkpoints.get(),
            persisted: self.persisted.get(),
            restores: self.restores.get(),
            downshifts: self.downshifts.get(),
        }
    }

    /// One relaxed read of every cell and histogram: the plain-data
    /// record both scrape pages render (see [`crate::schema`]).
    pub fn snapshot(&self) -> ShardSnapshot {
        let health = self.health();
        ShardSnapshot {
            shard: self.shard,
            inst: self.incarnation,
            ring_occupancy: self.ring_occupancy.get_f64(),
            ring_capacity: self.ring_capacity.get(),
            backlog: self.backlog.get(),
            sampling_p: self.sampling_p.get_f64(),
            mode_code: self.mode_code.get(),
            converged: self.converged.get() != 0,
            topk_len: self.topk_len.get(),
            breaker_open: self.breaker_open.get() != 0,
            failed: self.failed.get() != 0,
            generation: self.generation.get(),
            seq_band: self.seq_band.get(),
            persist_lag: health.processed.saturating_sub(self.persisted_at.get()),
            skew_load: self.skew_load.get_f64(),
            sign_bias: self.sign_bias.get_f64(),
            frames_persisted: self.frames_persisted.get(),
            bytes_persisted: self.bytes_persisted.get(),
            batch_ns: self.batch_ns.summary(),
            persist_ns: self.persist_ns.summary(),
            health,
        }
    }
}

/// One cluster node's epoch watermark as the aggregator sees it —
/// published as a batch snapshot into [`ClusterTelemetry::publish_nodes`]
/// so a scrape (and the `nitro top` per-node panel) can show who is
/// connected and how far each node's sealed epochs have reached.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeWatermark {
    /// Operator-assigned node id.
    pub node: u32,
    /// Newest epoch the aggregator holds a frame for from this node
    /// (0: none yet).
    pub last_epoch: u64,
    /// Whether the node currently holds a live connection.
    pub connected: bool,
}

/// Live counters and gauges of a cluster aggregator — the network-wide
/// measurement plane's control-side telemetry. Registered lazily via
/// [`TelemetryRegistry::cluster`]; a registry that never hosts an
/// aggregator renders no cluster families at all, so single-process
/// pipelines keep their exact scrape format.
#[derive(Debug, Default)]
pub struct ClusterTelemetry {
    /// Nodes currently holding a live connection (gauge).
    pub connected_nodes: TelemetryCell,
    /// Nodes the aggregator has ever admitted (gauge).
    pub known_nodes: TelemetryCell,
    /// Epochs whose merged view is currently degraded: a member node's
    /// frame is missing and that node is not connected (gauge).
    pub degraded_epochs: TelemetryCell,
    /// Epochs sealed complete (counter).
    pub epochs_sealed: TelemetryCell,
    /// Node-loss declarations: dead connections or silent heartbeats
    /// (counter).
    pub node_losses: TelemetryCell,
    /// Durable frames replayed by reconnecting nodes (counter).
    pub backfill_frames: TelemetryCell,
    /// Epoch frames accepted and merged (counter).
    pub frames_received: TelemetryCell,
    /// Epoch frames rejected — framing, checksum, version, restore, or
    /// merge-guard failure (counter).
    pub frames_rejected: TelemetryCell,
    /// Seals received as deltas against the connection's previous seal;
    /// every other seal arrives as a keyframe (counter).
    pub delta_seals: TelemetryCell,
    /// Wire bytes of every seal received, keyframes and deltas (counter).
    pub seal_bytes: TelemetryCell,
    /// Heartbeat messages received (counter).
    pub heartbeats: TelemetryCell,
    /// Records appended durably to the aggregation log (counter).
    pub log_records: TelemetryCell,
    /// Aggregation-log appends that failed — the in-memory merge keeps
    /// serving but a restart will rely on node backfill for the lost
    /// records (counter).
    pub log_persist_failures: TelemetryCell,
    /// Epoch views rebuilt from the aggregation log by the last recovery
    /// (gauge; 0 when the aggregator started fresh).
    pub recovered_epochs: TelemetryCell,
    /// Log records replayed by the last recovery (gauge).
    pub recovered_records: TelemetryCell,
    /// Jittered reconnect backoffs scheduled by disconnected agents
    /// (counter; agent-side, populated when agents share this registry).
    pub reconnect_backoffs: TelemetryCell,
    /// Per-node epoch watermarks, refreshed as a whole snapshot by the
    /// aggregator's session lock holder (control-plane cadence, never the
    /// hot path — hence the one mutex in this otherwise atomic struct).
    nodes: Mutex<Vec<NodeWatermark>>,
}

impl ClusterTelemetry {
    /// Replace the per-node watermark snapshot (aggregator-side).
    pub fn publish_nodes(&self, mut nodes: Vec<NodeWatermark>) {
        nodes.sort_by_key(|n| n.node);
        *self.nodes.lock().unwrap_or_else(|p| p.into_inner()) = nodes;
    }

    /// The current per-node watermark snapshot, ordered by node id.
    pub fn node_watermarks(&self) -> Vec<NodeWatermark> {
        self.nodes.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// One relaxed read of every cell plus the node watermarks: the
    /// plain-data record both scrape pages render.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            connected_nodes: self.connected_nodes.get(),
            known_nodes: self.known_nodes.get(),
            degraded_epochs: self.degraded_epochs.get(),
            epochs_sealed: self.epochs_sealed.get(),
            node_losses: self.node_losses.get(),
            backfill_frames: self.backfill_frames.get(),
            frames_received: self.frames_received.get(),
            frames_rejected: self.frames_rejected.get(),
            delta_seals: self.delta_seals.get(),
            seal_bytes: self.seal_bytes.get(),
            heartbeats: self.heartbeats.get(),
            log_records: self.log_records.get(),
            log_persist_failures: self.log_persist_failures.get(),
            recovered_epochs: self.recovered_epochs.get(),
            recovered_records: self.recovered_records.get(),
            reconnect_backoffs: self.reconnect_backoffs.get(),
            nodes: self.node_watermarks(),
        }
    }
}

/// The fleet-wide telemetry plane: every live and retired shard instance,
/// the shared event journal, and the promotion-duration histogram, with
/// Prometheus and JSON renderers.
///
/// Instances move from *live* to *retired* when their daemon is replaced
/// (promotion) or drained away (rescale); counter families sum both sets,
/// so fleet totals — like [`crate::FleetHealth`] — survive failover and
/// resharding.
#[derive(Debug)]
pub struct TelemetryRegistry {
    journal: Arc<EventJournal>,
    promotion_ns: LatencyHistogram,
    live: Mutex<Vec<Arc<ShardTelemetry>>>,
    retired: Mutex<Vec<Arc<ShardTelemetry>>>,
    next_incarnation: AtomicU64,
    cluster: Mutex<Option<Arc<ClusterTelemetry>>>,
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRegistry {
    /// A registry with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A registry whose journal holds `capacity` events.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self {
            journal: Arc::new(EventJournal::new(capacity)),
            promotion_ns: LatencyHistogram::new(),
            live: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            next_incarnation: AtomicU64::new(0),
            cluster: Mutex::new(None),
        }
    }

    /// The cluster aggregator's telemetry, created on first call. Once
    /// initialized, the cluster gauge/counter families join both scrape
    /// renderers.
    pub fn cluster(&self) -> Arc<ClusterTelemetry> {
        Arc::clone(
            self.cluster
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get_or_insert_with(Arc::default),
        )
    }

    /// The cluster telemetry if an aggregator initialized it.
    pub fn cluster_telemetry(&self) -> Option<Arc<ClusterTelemetry>> {
        self.cluster
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Register a fresh live instance for shard `shard`, wired to the
    /// shared journal and stamped with a registry-unique incarnation.
    pub fn register(&self, shard: u32) -> Arc<ShardTelemetry> {
        let inst = self.next_incarnation.fetch_add(1, AcqRel) + 1;
        let tel = Arc::new(ShardTelemetry::new(shard, inst, Arc::clone(&self.journal)));
        self.live
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&tel));
        tel
    }

    /// Move one instance from live to retired (promotion replaced it, or
    /// a rescale drained it). Its counters keep contributing to fleet
    /// totals; its gauges stop being exported.
    pub fn retire(&self, tel: &Arc<ShardTelemetry>) {
        let mut live = self.live.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(i) = live.iter().position(|t| Arc::ptr_eq(t, tel)) {
            let t = live.remove(i);
            drop(live);
            self.retired
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(t);
        }
    }

    /// The shared event journal.
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Record an event into the shared journal.
    pub fn record(&self, event: Event) -> bool {
        self.journal.record(event)
    }

    /// Drain every queued event, oldest first.
    pub fn drain_events(&self) -> Vec<SequencedEvent> {
        self.journal.drain()
    }

    /// Promotion-duration histogram (fleet-level).
    pub fn promotion_ns(&self) -> &LatencyHistogram {
        &self.promotion_ns
    }

    /// Snapshot of the live instances.
    pub fn live_shards(&self) -> Vec<Arc<ShardTelemetry>> {
        self.live.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Snapshot of the retired instances.
    pub fn retired_shards(&self) -> Vec<Arc<ShardTelemetry>> {
        self.retired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Fleet-wide health: the field-wise sum over live **and** retired
    /// instances, mirroring [`crate::FleetHealth::total`] so the
    /// accounting identity holds across promotions and rescales.
    pub fn fleet_health(&self) -> DaemonHealth {
        let mut total = DaemonHealth::new();
        for tel in self
            .live_shards()
            .iter()
            .chain(self.retired_shards().iter())
        {
            total.absorb(&tel.health());
        }
        total
    }

    /// Snapshots of the live instances, then the retired ones, and the
    /// number of live ones.
    fn snapshots(&self) -> (Vec<ShardSnapshot>, usize) {
        let live = self.live_shards();
        let mut snaps: Vec<ShardSnapshot> = live.iter().map(|t| t.snapshot()).collect();
        snaps.extend(self.retired_shards().iter().map(|t| t.snapshot()));
        (snaps, live.len())
    }

    /// Render the whole plane in Prometheus text exposition format: one
    /// `# HELP` + `# TYPE` pair per family, counters over live + retired
    /// instances, gauges over live only, histograms as
    /// `_bucket`/`_sum`/`_count` with cumulative log2 `le` bounds and a
    /// terminal `+Inf` bucket. The families are the rows of
    /// [`crate::schema`]'s tables, plus the fleet-level ones below.
    pub fn render_prometheus(&self) -> String {
        let (mut shards, live) = self.snapshots();
        let labels: Vec<String> = shards
            .iter()
            .map(|s| {
                format!(
                    "shard=\"{}\",inst=\"{}\"",
                    escape_label(&s.shard.to_string()),
                    s.inst
                )
            })
            .collect();
        let mut out = String::with_capacity(8 * 1024);
        schema::write_prometheus(&mut out, SHARD_METRICS, &mut shards, &labels, live);

        let promotion = "nitro_promotion_duration_ns";
        family(
            &mut out,
            promotion,
            Kind::Histogram,
            "Standby promotion duration (stop standby to re-steer), nanoseconds.",
        );
        schema::Slot::Hist(&mut self.promotion_ns.summary())
            .write_prometheus(&mut out, promotion, "");
        for (name, kind, help, mut value) in [
            (
                "nitro_shards_live",
                Kind::Gauge,
                "Live shard instances.",
                live as u64,
            ),
            (
                "nitro_shards_retired",
                Kind::Gauge,
                "Retired shard instances (promoted or drained away).",
                (shards.len() - live) as u64,
            ),
            (
                "nitro_events_recorded_total",
                Kind::Counter,
                "Journal events recorded.",
                self.journal.recorded(),
            ),
            (
                "nitro_events_dropped_total",
                Kind::Counter,
                "Journal events dropped at a full ring.",
                self.journal.dropped(),
            ),
        ] {
            family(&mut out, name, kind, help);
            schema::Slot::U64(&mut value).write_prometheus(&mut out, name, "");
        }

        if let Some(c) = self.cluster_telemetry() {
            let mut snap = c.snapshot();
            let mut nodes = std::mem::take(&mut snap.nodes);
            let one = std::slice::from_mut(&mut snap);
            schema::write_prometheus(&mut out, CLUSTER_METRICS, one, &[String::new()], 1);
            if !nodes.is_empty() {
                let labels: Vec<String> = nodes
                    .iter()
                    .map(|n| format!("node=\"{}\"", n.node))
                    .collect();
                schema::write_prometheus(&mut out, NODE_METRICS, &mut nodes, &labels, labels.len());
            }
        }
        out
    }

    /// Render a JSON snapshot of the whole plane (fleet totals, per-shard
    /// health + gauges + histogram summaries). Never emits `NaN` or
    /// `Infinity` — non-finite gauges render as `null`.
    pub fn render_json(&self) -> String {
        let (mut shards, live) = self.snapshots();
        let mut out = String::with_capacity(4 * 1024);
        let _ = write!(
            out,
            "{{\"events\":{{\"recorded\":{},\"dropped\":{}}},\"promotion_ns\":",
            self.journal.recorded(),
            self.journal.dropped()
        );
        schema::Slot::Hist(&mut self.promotion_ns.summary()).write_json(&mut out);
        // The fleet object is the shard table's health section over the
        // field-wise sum of every instance.
        let mut fleet = ShardSnapshot::default();
        for s in &shards {
            fleet.health.absorb(&s.health);
        }
        out.push_str(",\"fleet\":{");
        schema::write_members(&mut out, section(SHARD_METRICS, "health"), &mut fleet);
        out.push('}');
        if let Some(c) = self.cluster_telemetry() {
            let mut snap = c.snapshot();
            out.push_str(",\"cluster\":{");
            schema::write_json(&mut out, CLUSTER_METRICS, &mut snap);
            out.push_str(",\"nodes\":[");
            for (i, n) in snap.nodes.iter_mut().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"node\":{}", n.node);
                schema::write_json(&mut out, NODE_METRICS, n);
                out.push('}');
            }
            out.push_str("]}");
        }
        let (live, retired) = shards.split_at_mut(live);
        for (key, group) in [("shards", live), ("retired", retired)] {
            json_key(&mut out, key);
            out.push('[');
            for (i, s) in group.iter_mut().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"shard\":{},\"inst\":{}", s.shard, s.inst);
                schema::write_json(&mut out, SHARD_METRICS, s);
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Escape a Prometheus label **value**: backslash, double quote, and
/// newline per the text exposition format.
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_sit_on_their_own_cache_lines() {
        assert_eq!(std::mem::align_of::<TelemetryCell>(), 64);
        assert_eq!(std::mem::size_of::<TelemetryCell>(), 64);
    }

    #[test]
    fn histogram_p99_extraction_is_exact_on_synthetic_fills() {
        // Powers of two land on bucket lower bounds, so quantiles over
        // them are exact by construction.
        let h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record(16);
        }
        h.record(1024);
        h.record(1024);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 16, "rank 50 of 100 sits in the 16-bucket");
        assert_eq!(h.p99(), 1024, "rank 99 of 100 sits in the 1024-bucket");
        assert_eq!(h.quantile(0.98), 16, "rank 98 is still in the 16-bucket");
        assert_eq!(h.quantile(1.0), 1024);
        assert_eq!(h.max(), 1024, "max is tracked exactly");
        assert_eq!(h.sum(), 98 * 16 + 2 * 1024);

        let single = LatencyHistogram::new();
        for _ in 0..100 {
            single.record(4096);
        }
        assert_eq!(single.p50(), 4096);
        assert_eq!(single.p99(), 4096);
    }

    #[test]
    fn histogram_edge_values_and_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p99(), 0, "empty histogram quantiles are 0");
        assert_eq!(h.max(), 0);
        assert!(h.cumulative_buckets().is_empty());
        h.record(0);
        h.record(1);
        h.record(u64::MAX); // clamps into the last bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), u64::MAX);
        let cum = h.cumulative_buckets();
        assert_eq!(cum.len(), HISTOGRAM_BUCKETS, "last bucket is occupied");
        assert_eq!(cum.last().unwrap().1, 3, "cumulative reaches the count");
        // Monotone cumulative counts.
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn journal_overflow_increments_drop_counter_instead_of_blocking() {
        let j = EventJournal::new(8);
        assert_eq!(j.capacity(), 8);
        for i in 0..20u64 {
            j.record(Event::Restart {
                shard: 0,
                restarts: i,
            });
        }
        assert_eq!(j.recorded(), 8, "exactly the capacity was accepted");
        assert_eq!(j.dropped(), 12, "the overflow is counted, not silent");
        let drained = j.drain();
        assert_eq!(drained.len(), 8);
        for (i, ev) in drained.iter().enumerate() {
            assert_eq!(ev.seq, i as u64, "sequence numbers are dense, in order");
            assert_eq!(
                ev.event,
                Event::Restart {
                    shard: 0,
                    restarts: i as u64
                },
                "oldest events survive; the overflow dropped the newest"
            );
        }
        // Drained slots are reusable.
        assert!(j.record(Event::Rescale { from: 2, to: 4 }));
        let again = j.drain();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].seq, 8, "sequence continues across laps");
        assert_eq!(again[0].event, Event::Rescale { from: 2, to: 4 });
    }

    #[test]
    fn journal_roundtrips_every_event_kind() {
        let j = EventJournal::new(16);
        let events = [
            Event::Restart {
                shard: 1,
                restarts: 2,
            },
            Event::Stall {
                shard: 3,
                stalls: 4,
            },
            Event::Downshift { shard: 5, p: 0.25 },
            Event::CheckpointPersisted {
                shard: 6,
                seq: 7,
                processed_at: 8,
            },
            Event::BreakerTrip {
                shard: 9,
                trips: 10,
            },
            Event::Promotion {
                shard: 11,
                band: 1 << 32,
                duration_ns: 12,
            },
            Event::Rescale { from: 13, to: 14 },
            Event::RecoveryReport {
                shards: 15,
                recovered: 14,
                corrupt: 16,
            },
            Event::AnomalousSkew {
                shard: 17,
                load_milli: 64_250,
                epochs: 3,
            },
            Event::SeedRotation {
                band: 5 << 32,
                duration_ns: 18,
            },
            Event::NodeJoin {
                node: 19,
                epoch: 20,
            },
            Event::NodeLoss {
                node: 21,
                last_epoch: 22,
            },
            Event::EpochSealed {
                epoch: 23,
                nodes: 3,
                was_degraded: true,
            },
            Event::BackfillReplayed {
                node: 24,
                frames: 25,
            },
            Event::AggregatorRecovered {
                epochs: 26,
                nodes: 3,
                records: 27,
            },
            Event::ReconnectBackoff {
                node: 28,
                attempt: 4,
                delay_ms: 800,
            },
        ];
        for ev in events {
            assert!(j.record(ev));
        }
        let drained = j.drain();
        assert_eq!(
            drained.iter().map(|e| e.event).collect::<Vec<_>>(),
            events.to_vec()
        );
        for ev in &drained {
            // Narration renders without panicking and mentions something.
            assert!(!ev.to_string().is_empty());
        }
    }

    #[test]
    fn journal_concurrent_producers_lose_nothing_but_counted_drops() {
        let j = Arc::new(EventJournal::new(64));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let j = Arc::clone(&j);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    j.record(Event::Stall {
                        shard: t,
                        stalls: i,
                    });
                    if i % 32 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let drainer = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                let mut seqs = Vec::new();
                for _ in 0..10_000 {
                    for ev in j.drain() {
                        seqs.push(ev.seq);
                    }
                    std::thread::yield_now();
                }
                seqs
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let mut seqs = drainer.join().unwrap();
        for ev in j.drain() {
            seqs.push(ev.seq);
        }
        assert_eq!(
            seqs.len() as u64 + j.dropped(),
            2_000,
            "every event was either delivered or counted as dropped"
        );
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            seqs.len(),
            "no sequence number delivered twice"
        );
    }

    #[test]
    fn telemetry_health_mirrors_daemon_health_fields() {
        let tel = ShardTelemetry::detached(3);
        tel.offered.add(100);
        tel.popped.add(90);
        tel.processed.add(80);
        tel.dropped.add(10);
        tel.restarts.incr();
        tel.stalls.add(2);
        tel.checkpoints.add(3);
        tel.persisted.add(3);
        tel.restores.incr();
        tel.downshifts.add(4);
        let h = tel.health();
        assert_eq!(h.offered, 100);
        assert_eq!(h.processed, 80);
        assert_eq!(h.dropped, 10);
        assert_eq!(h.lost_in_crash, 10, "popped - processed");
        assert_eq!(h.restarts, 1);
        assert_eq!(h.stalls, 2);
        assert_eq!(h.checkpoints, 3);
        assert_eq!(h.persisted, 3);
        assert_eq!(h.restores, 1);
        assert_eq!(h.downshifts, 4);
        assert_eq!(h.unaccounted(), 0);
    }

    #[test]
    fn registry_fleet_health_sums_live_and_retired() {
        let reg = TelemetryRegistry::new();
        let a = reg.register(0);
        let b = reg.register(1);
        a.offered.add(60);
        a.processed.add(60);
        b.offered.add(40);
        b.processed.add(40);
        reg.retire(&a);
        let c = reg.register(0);
        assert_eq!(c.incarnation, 3, "incarnations are registry-unique");
        c.offered.add(5);
        c.processed.add(5);
        let total = reg.fleet_health();
        assert_eq!(total.offered, 105, "retired counters keep contributing");
        assert_eq!(total.processed, 105);
        assert_eq!(reg.live_shards().len(), 2);
        assert_eq!(reg.retired_shards().len(), 1);
    }

    #[test]
    fn escape_label_handles_quotes_backslashes_newlines() {
        assert_eq!(escape_label("plain-0"), "plain-0");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        assert_eq!(escape_label("\\\"\n"), "\\\\\\\"\\n");
    }

    mod histogram_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Quantiles report bucket lower bounds, so they are true
            /// lower bounds on the rank statistic; `max` is exact.
            #[test]
            fn quantiles_are_lower_bounds_and_max_exact(
                values in prop::collection::vec(0u64..u64::MAX, 0..256),
                q in 0.0f64..1.0,
            ) {
                let h = LatencyHistogram::new();
                for &v in &values {
                    h.record(v);
                }
                prop_assert_eq!(h.count(), values.len() as u64);
                prop_assert_eq!(h.max(), values.iter().copied().max().unwrap_or(0));

                let mut sorted = values.clone();
                sorted.sort_unstable();
                if sorted.is_empty() {
                    prop_assert_eq!(h.quantile(q), 0, "empty histogram quantiles are 0");
                    prop_assert_eq!(h.p50(), 0);
                    prop_assert_eq!(h.p99(), 0);
                } else {
                    for (quant, at) in [(h.quantile(q), q), (h.p50(), 0.50), (h.p99(), 0.99)] {
                        let rank = ((at * sorted.len() as f64).ceil() as usize).max(1);
                        let exact = sorted[rank - 1];
                        prop_assert!(
                            quant <= exact,
                            "q={} reported {} above the exact rank value {}",
                            at, quant, exact
                        );
                        // The lower bound is tight to within one log2
                        // bucket, except in the unbounded clamp bucket.
                        prop_assert!(
                            exact < (quant.max(1) << 1)
                                || quant == 1u64 << (HISTOGRAM_BUCKETS - 1),
                            "q={} reported {} more than a bucket below {}",
                            at, quant, exact
                        );
                    }
                }
            }

            /// Cumulative buckets always end at the total count and never
            /// decrease, for any insert batch.
            #[test]
            fn cumulative_buckets_reach_count(
                values in prop::collection::vec(0u64..u64::MAX, 1..256),
            ) {
                let h = LatencyHistogram::new();
                for &v in &values {
                    h.record(v);
                }
                let cum = h.cumulative_buckets();
                prop_assert!(!cum.is_empty());
                prop_assert_eq!(cum.last().unwrap().1, values.len() as u64);
                prop_assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1));
            }
        }
    }

    #[test]
    fn gauges_publish_through_measurement_gauges() {
        let tel = ShardTelemetry::detached(0);
        tel.publish_gauges(&MeasurementGauges {
            sampling_p: 0.125,
            mode_code: 2,
            converged: true,
            topk_len: 16,
        });
        assert_eq!(tel.sampling_p.get_f64(), 0.125);
        assert_eq!(tel.mode_code.get(), 2);
        assert_eq!(tel.converged.get(), 1);
        assert_eq!(tel.topk_len.get(), 16);
    }
}
