//! Hot-standby shard replication: continuous checkpoint-delta streaming
//! into a warm shadow sketch, the state-transfer half of zero-downtime
//! failover.
//!
//! PR 3's restart budget left one hard failure mode: a shard that exhausts
//! its budget goes permanently degraded and serves its last checkpoint
//! forever. *Distributed Recoverable Sketches* (PAPERS.md) observes that
//! sketch state is small and linear enough to replicate continuously
//! without weakening the error guarantee — a few hundred KB per shard buys
//! a standby that is never more than one checkpoint interval (plus one
//! in-flight persist) behind.
//!
//! **Wire format.** Every periodic checkpoint the primary publishes
//! (through its writer thread, which calls this sink) is also encoded as one `switch::store` CRC frame (magic,
//! version, shard, generation, based sequence, processed-at, payload,
//! xxHash64 trailer — `store::encode_frame`) and pushed onto a bounded
//! SPSC ring of owned buffers ([`crate::spsc::SpscBoxRing`]). The standby
//! applier validates each frame with exactly the rules recovery uses
//! (`store::decode_frame`) and `restore`s the payload into its shadow
//! measurement. Because every checkpoint is a *full* snapshot, a dropped
//! frame (full ring) costs nothing but latency: the next frame fully
//! refreshes the shadow.
//!
//! **Watermark.** The applier tracks the newest `(generation, seq)` it
//! applied. At promotion the coordinator compares this watermark against
//! the durable store's newest frame for the shard and replays the gap —
//! deltas that were persisted but lost from the ring — before spawning the
//! new primary around the shadow. The promoted shard's estimates are
//! therefore within the sketch epsilon plus at most one delta interval of
//! the truth.
//!
//! The sequence numbers in delta frames are *based* (`seq_base + seq`),
//! using the same band the shard's [`crate::store::ShardWriter`] stamps
//! into durable frames, so the watermark and the store order identically
//! across daemon incarnations.

use crate::spsc::SpscBoxRing;
use crate::store::{decode_frame, encode_frame, CheckpointSink, FrameParse, SinkHandle};
use crate::supervisor::Recoverable;
use nitro_metrics::telemetry::ShardTelemetry;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning for per-shard hot-standby replication.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Delta frames buffered between the primary's checkpoint path and the
    /// standby applier. A full ring drops the frame (counted as `lagged`);
    /// the next full-snapshot delta refreshes the shadow completely, so
    /// capacity only bounds latency, never correctness.
    pub delta_ring: usize,
    /// Consecutive unhealthy coordinator probes that trip a shard's
    /// circuit breaker ([`nitro_metrics::CircuitBreaker`]) and force a
    /// promotion even before the restart budget is formally spent.
    pub breaker_threshold: u32,
    /// Optional telemetry instance the delta path mirrors its counters
    /// into (`delta_streamed`/`lagged`/`applied`/`rejected`/`stale` plus
    /// the `delta_apply_ns` histogram).
    pub telemetry: Option<Arc<ShardTelemetry>>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            delta_ring: 64,
            breaker_threshold: 2,
            telemetry: None,
        }
    }
}

/// The newest delta the standby has applied, in store frame coordinates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaWatermark {
    /// Fleet generation of the newest applied frame.
    pub generation: u64,
    /// Based sequence number of the newest applied frame.
    pub seq: u64,
    /// Observations that frame's checkpoint covered.
    pub processed_at: u64,
}

/// Counters shared between the delta sink (primary side) and the applier
/// (standby side).
#[derive(Debug, Default)]
struct ReplicaShared {
    stop: AtomicBool,
    /// Frames pushed toward the standby.
    streamed: AtomicU64,
    /// Frames dropped at a full delta ring.
    lagged: AtomicU64,
    /// Frames applied into the shadow.
    applied: AtomicU64,
    /// Frames rejected (checksum, framing, version, or restore failure).
    rejected: AtomicU64,
    /// Frames skipped as not newer than the watermark.
    stale: AtomicU64,
    /// Watermark of the newest applied frame. Three separate atomics: a
    /// mid-update read can mix fields, which only ever *under*-reports the
    /// watermark; the authoritative read happens after the applier joined.
    wm_generation: AtomicU64,
    wm_seq: AtomicU64,
    wm_processed_at: AtomicU64,
    /// Optional mirror of the counters into the shard's live telemetry.
    telemetry: Option<Arc<ShardTelemetry>>,
}

impl ReplicaShared {
    fn tel(&self) -> Option<&ShardTelemetry> {
        self.telemetry.as_deref()
    }
}

/// The primary-side half: a [`CheckpointSink`] that forwards every
/// checkpoint to the optional durable sink first (durability before
/// replication, same ordering the supervisor uses for its in-memory slot)
/// and then streams it to the standby as a CRC delta frame.
pub struct ReplicaSink {
    durable: Option<SinkHandle>,
    ring: Arc<SpscBoxRing<Vec<u8>>>,
    shared: Arc<ReplicaShared>,
    shard: usize,
    generation: u64,
    seq_base: u64,
}

impl CheckpointSink for ReplicaSink {
    fn persist(&self, seq: u64, processed_at: u64, bytes: &[u8]) -> io::Result<()> {
        let result = match &self.durable {
            Some(sink) => sink.persist(seq, processed_at, bytes),
            // Without a durable store, replication alone acknowledges the
            // checkpoint: `persisted` then counts streamed deltas.
            None => Ok(()),
        };
        let frame = encode_frame(
            self.shard,
            self.generation,
            self.seq_base + seq,
            processed_at,
            bytes,
        );
        self.shared.streamed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.shared.tel() {
            t.delta_streamed.incr();
        }
        if self.ring.push(frame).is_err() {
            self.shared.lagged.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.shared.tel() {
                t.delta_lagged.incr();
            }
        }
        result
    }
}

/// Handle to a running warm standby: the applier thread continuously
/// folding delta frames into a shadow measurement.
pub struct StandbyHandle<M: Recoverable + Send + 'static> {
    handle: JoinHandle<M>,
    shared: Arc<ReplicaShared>,
}

impl<M: Recoverable + Send + 'static> StandbyHandle<M> {
    /// Frames streamed toward this standby so far.
    pub fn streamed(&self) -> u64 {
        self.shared.streamed.load(Ordering::Relaxed)
    }

    /// Frames dropped at a full delta ring (latency, not data loss: every
    /// delta is a full snapshot).
    pub fn lagged(&self) -> u64 {
        self.shared.lagged.load(Ordering::Relaxed)
    }

    /// Frames applied into the shadow so far.
    pub fn applied(&self) -> u64 {
        self.shared.applied.load(Ordering::Relaxed)
    }

    /// Frames rejected by framing, checksum, version, or restore checks.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Live view of the applier's watermark (may trail a concurrent apply;
    /// the post-[`StandbyHandle::stop`] value is authoritative).
    pub fn watermark(&self) -> ReplicaWatermark {
        ReplicaWatermark {
            generation: self.shared.wm_generation.load(Ordering::Acquire),
            seq: self.shared.wm_seq.load(Ordering::Acquire),
            processed_at: self.shared.wm_processed_at.load(Ordering::Acquire),
        }
    }

    /// Stop the applier: it drains every frame still queued in the delta
    /// ring, then hands back the shadow measurement and the final
    /// watermark — the promotion path's inputs.
    pub fn stop(self) -> (M, ReplicaWatermark) {
        self.shared.stop.store(true, Ordering::Release);
        let shadow = self
            .handle
            .join()
            .expect("standby applier never panics: every frame fate is counted");
        let watermark = ReplicaWatermark {
            generation: self.shared.wm_generation.load(Ordering::Acquire),
            seq: self.shared.wm_seq.load(Ordering::Acquire),
            processed_at: self.shared.wm_processed_at.load(Ordering::Acquire),
        };
        (shadow, watermark)
    }
}

/// Spawn a warm standby for one shard.
///
/// `shadow` is a blank, geometry-compatible instance the applier folds
/// deltas into. `generation` and `seq_base` must match what the shard's
/// durable writer stamps (see [`crate::store::CheckpointStore::
/// writer_from`]) so the watermark is comparable against the store.
/// `durable` is the shard's real durable sink, forwarded to before each
/// delta is streamed. Returns the combined sink (wire it into the shard's
/// `SupervisorConfig`) and the standby handle.
pub fn spawn_standby<M>(
    shadow: M,
    shard: usize,
    generation: u64,
    seq_base: u64,
    durable: Option<SinkHandle>,
    config: &ReplicaConfig,
) -> (SinkHandle, StandbyHandle<M>)
where
    M: Recoverable + Send + 'static,
{
    let ring = Arc::new(SpscBoxRing::new(config.delta_ring));
    let shared = Arc::new(ReplicaShared {
        telemetry: config.telemetry.clone(),
        ..Default::default()
    });
    let sink = ReplicaSink {
        durable,
        ring: Arc::clone(&ring),
        shared: Arc::clone(&shared),
        shard,
        generation,
        seq_base,
    };
    let handle = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_applier(shadow, shard, &ring, &shared))
    };
    (SinkHandle(Arc::new(sink)), StandbyHandle { handle, shared })
}

/// Applier thread body: pop delta frames, validate them with the store's
/// decode rules, and restore each one newer than the watermark into the
/// shadow. Drains the ring completely before honouring stop, so the last
/// delta a dying primary managed to stream is never left behind.
fn run_applier<M: Recoverable>(
    mut shadow: M,
    shard: usize,
    ring: &SpscBoxRing<Vec<u8>>,
    shared: &ReplicaShared,
) -> M {
    loop {
        match ring.pop() {
            Some(frame) => apply_frame(&mut shadow, &frame, shard, shared),
            None => {
                if shared.stop.load(Ordering::Acquire) && ring.is_empty() {
                    return shadow;
                }
                std::thread::yield_now();
            }
        }
    }
}

fn apply_frame<M: Recoverable>(shadow: &mut M, frame: &[u8], shard: usize, shared: &ReplicaShared) {
    let reject = || {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = shared.tel() {
            t.delta_rejected.incr();
        }
    };
    let started = Instant::now();
    let (decoded, consumed) = match decode_frame(frame, shard) {
        FrameParse::Frame(f, consumed) => (f, consumed),
        _ => {
            reject();
            return;
        }
    };
    if consumed != frame.len() {
        // Trailing garbage after a valid frame: not something the sink
        // produces — treat the whole buffer as untrustworthy.
        reject();
        return;
    }
    let wm = (
        shared.wm_generation.load(Ordering::Relaxed),
        shared.wm_seq.load(Ordering::Relaxed),
    );
    if shared.applied.load(Ordering::Relaxed) > 0 && (decoded.generation, decoded.seq) <= wm {
        shared.stale.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = shared.tel() {
            t.delta_stale.incr();
        }
        return;
    }
    match shadow.restore_bytes(&decoded.bytes) {
        Ok(()) => {
            shared
                .wm_generation
                .store(decoded.generation, Ordering::Release);
            shared.wm_seq.store(decoded.seq, Ordering::Release);
            shared
                .wm_processed_at
                .store(decoded.processed_at, Ordering::Release);
            shared.applied.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = shared.tel() {
                t.delta_applied.incr();
                t.delta_apply_ns.record(started.elapsed().as_nanos() as u64);
            }
        }
        Err(_) => reject(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Mode, NitroSketch};
    use nitro_sketches::CountMin;
    use std::time::{Duration, Instant};

    fn small_nitro() -> NitroSketch<CountMin> {
        NitroSketch::new(CountMin::new(4, 1024, 7), Mode::Fixed { p: 1.0 }, 5)
    }

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn standby_mirrors_the_primary_through_streamed_deltas() {
        let (sink, standby) =
            spawn_standby(small_nitro(), 0, 1, 0, None, &ReplicaConfig::default());
        let mut primary = small_nitro();
        for i in 0..5_000u64 {
            primary.process(i % 10, 1.0);
        }
        sink.persist(1, 5_000, &primary.snapshot()).unwrap();
        wait_for(|| standby.applied() >= 1, "first delta applied");
        for i in 0..5_000u64 {
            primary.process(i % 10, 1.0);
        }
        sink.persist(2, 10_000, &primary.snapshot()).unwrap();
        wait_for(|| standby.applied() >= 2, "second delta applied");
        assert_eq!(
            standby.watermark(),
            ReplicaWatermark {
                generation: 1,
                seq: 2,
                processed_at: 10_000
            }
        );
        let (shadow, wm) = standby.stop();
        assert_eq!(wm.seq, 2);
        for f in 0..10u64 {
            assert_eq!(
                shadow.estimate(f),
                primary.estimate(f),
                "flow {f}: a full-snapshot delta makes the shadow exact"
            );
        }
    }

    #[test]
    fn corrupt_and_stale_frames_never_reach_the_shadow() {
        let cfg = ReplicaConfig::default();
        let ring = Arc::new(SpscBoxRing::new(cfg.delta_ring));
        let shared = Arc::new(ReplicaShared::default());
        let handle = {
            let ring = Arc::clone(&ring);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_applier(small_nitro(), 0, &ring, &shared))
        };
        let standby = StandbyHandle {
            handle,
            shared: Arc::clone(&shared),
        };

        let mut primary = small_nitro();
        for _ in 0..1_000 {
            primary.process(42, 1.0);
        }
        let good = encode_frame(0, 1, 5, 1_000, &primary.snapshot());
        ring.push(good.clone()).unwrap();
        wait_for(|| standby.applied() == 1, "good frame applied");

        // One flipped payload bit: the CRC check must reject it.
        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        ring.push(corrupt).unwrap();
        // A replay of an older (or equal) sequence: skipped as stale.
        ring.push(good).unwrap();
        wait_for(
            || {
                shared.rejected.load(Ordering::Relaxed) == 1
                    && shared.stale.load(Ordering::Relaxed) == 1
            },
            "corrupt rejected and replay skipped",
        );
        let (shadow, wm) = standby.stop();
        assert_eq!(wm.seq, 5);
        assert_eq!(shadow.estimate(42), 1_000.0, "shadow state untouched");
    }

    #[test]
    fn full_delta_ring_counts_lag_and_next_delta_recovers() {
        // The applier starts only after the flood, so how many frames the
        // 2-slot ring drops is decided here, not by the scheduler.
        let ring = Arc::new(SpscBoxRing::new(2));
        let shared = Arc::new(ReplicaShared::default());
        let sink = ReplicaSink {
            durable: None,
            ring: Arc::clone(&ring),
            shared: Arc::clone(&shared),
            shard: 0,
            generation: 1,
            seq_base: 0,
        };
        let mut primary = small_nitro();
        for seq in 1..=50u64 {
            primary.process(7, 1.0);
            sink.persist(seq, seq, &primary.snapshot()).unwrap();
        }
        assert_eq!(
            shared.lagged.load(Ordering::Relaxed),
            48,
            "a 2-slot ring holds the first two of 50 frames"
        );
        let standby = StandbyHandle {
            handle: {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || run_applier(small_nitro(), 0, &ring, &shared))
            },
            shared,
        };
        wait_for(|| standby.applied() >= 1, "at least one delta applied");
        // The next snapshot that lands refreshes the shadow regardless of
        // how many were dropped; retry until one clears the full ring.
        let mut seq = 50;
        loop {
            let lag_before = standby.lagged();
            seq += 1;
            sink.persist(seq, seq, &primary.snapshot()).unwrap();
            if standby.lagged() == lag_before {
                break;
            }
            std::thread::yield_now();
        }
        wait_for(
            || standby.watermark().seq == seq,
            "final delta applied after lag",
        );
        let (shadow, _) = standby.stop();
        assert_eq!(shadow.estimate(7), primary.estimate(7));
    }

    #[test]
    fn delta_sequences_ride_in_the_writer_band() {
        let (sink, standby) = spawn_standby(
            small_nitro(),
            3,
            2,
            1 << 32,
            None,
            &ReplicaConfig::default(),
        );
        let primary = small_nitro();
        sink.persist(1, 0, &primary.snapshot()).unwrap();
        wait_for(|| standby.applied() >= 1, "based delta applied");
        let (_, wm) = standby.stop();
        assert_eq!(
            wm,
            ReplicaWatermark {
                generation: 2,
                seq: (1 << 32) + 1,
                processed_at: 0
            },
            "frames are stamped in the promoted writer's sequence band"
        );
    }
}
