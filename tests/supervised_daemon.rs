//! End-to-end tests of the supervised measurement daemon: crash recovery
//! from checkpoints, and backpressure-driven graceful degradation.
//!
//! The tests run the real separate-thread topology — a producer offering
//! observations through a [`SupervisedTap`] into the SPSC ring, a worker
//! thread draining into a measurement — with faults injected via the
//! switch crate's own [`ThreadFaultPlan`] hook. The last ones pin down how
//! checkpoint buffers circulate: which are recycled, how many images old a
//! recycled one is, and that it is only ever patched from its own image.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::prelude::*;
use nitrosketch::sketches::checkpoint::{CheckpointError, DirtyLines, LINE_COUNTERS};
use nitrosketch::switch::store::Written;
use nitrosketch::switch::{
    spawn_supervised, CheckpointSink, Measurement, Recoverable, SinkHandle, SupervisedDaemon,
    SupervisedTap, SupervisorConfig, ThreadFaultPlan,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Each test's daemon wants a core of its own: run side by side on a
/// two-core host, one starves another's worker into ring drops, which the
/// crash-recovery test's fault countdown never sees. One test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const HEAVY_FLOWS: u64 = 10;
const STREAM_LEN: u64 = 500_000;

/// A deterministic skewed stream: 2 of every 5 packets go to one of ten
/// heavy flows (20 000 packets each), the rest to a ~100 000-key tail.
/// Consecutive packets of one heavy flow are 50 apart, so any contiguous
/// crash window of W packets costs a heavy flow at most W/50 + 1 counts.
fn stream_key(i: u64) -> u64 {
    if i % 5 < 2 {
        (i / 5) % HEAVY_FLOWS
    } else {
        1_000 + (i.wrapping_mul(2_654_435_761) % 100_000)
    }
}

fn heavy_truth() -> f64 {
    (STREAM_LEN / 5 * 2 / HEAVY_FLOWS) as f64 // 20_000 per heavy flow
}

fn offer_stream(tap: &mut SupervisedTap, n: u64) {
    for i in 0..n {
        tap.offer(stream_key(i), i);
        if i % 512 == 0 {
            // Single-core host: the consumer only runs when the producer
            // yields its quantum.
            std::thread::yield_now();
        }
    }
}

/// Mid-stream consumer panic: the supervisor must restart the worker,
/// restore the latest checkpoint, keep the producer-side tap non-blocking
/// throughout, and end within one checkpoint interval of the fault-free
/// answer — with every observation's fate accounted.
#[test]
fn panic_recovery_restores_checkpoint_and_keeps_heavy_hitters() {
    let _serial = serial();
    const CHECKPOINT_EVERY: u64 = 20_000;
    let fresh = || {
        NitroSketch::new(CountSketch::new(5, 8192, 71), Mode::Fixed { p: 1.0 }, 73).with_topk(64)
    };
    let plan = ThreadFaultPlan::new();
    plan.panic_after(120_000);
    let (mut tap, daemon) = spawn_supervised(
        fresh(),
        fresh,
        SupervisorConfig {
            ring_capacity: 1 << 15,
            checkpoint_every: CHECKPOINT_EVERY,
            fault_plan: Some(plan.clone()),
            ..Default::default()
        },
    );

    offer_stream(&mut tap, STREAM_LEN);
    let (nitro, health) = daemon.finish().expect("supervisor must recover, not fail");

    // The fault fired and was recovered exactly once.
    assert_eq!(plan.fired(), 1, "fault plan should fire exactly once");
    assert_eq!(health.restarts, 1, "one panic, one restart: {health}");
    assert_eq!(health.restores, 1, "restart must restore a checkpoint");
    assert!(
        health.checkpoints >= 2,
        "initial + periodic checkpoints expected: {health}"
    );

    // Accounting: nothing vanished silently. Offers either reached the
    // sketch, were counted as ring drops, or fell in the crash window.
    assert_eq!(health.offered, STREAM_LEN);
    assert_eq!(health.unaccounted(), 0, "silent loss: {health}");
    assert!(
        health.lost_in_crash <= 64,
        "crash loss is bounded by one in-flight batch: {health}"
    );

    // Heavy-hitter recall after recovery: at least 9 of the 10 heavy
    // flows are still in the tracked top 10.
    let topk = nitro.topk().expect("top-k tracking configured");
    let tracked: Vec<u64> = topk
        .sorted_desc()
        .into_iter()
        .take(HEAVY_FLOWS as usize)
        .map(|(k, _)| k)
        .collect();
    let recalled = (0..HEAVY_FLOWS).filter(|f| tracked.contains(f)).count();
    assert!(
        recalled >= 9,
        "heavy-hitter recall {recalled}/10 after recovery; tracked {tracked:?}"
    );

    // Estimates are within one checkpoint interval (plus sketch noise and
    // ring drops) of the truth. A contiguous loss window of
    // `checkpoint_every + batch` stream slots contains at most
    // window/50 + 1 packets of any single heavy flow.
    let truth = heavy_truth();
    let window = (CHECKPOINT_EVERY + 64) as f64;
    let per_flow_window_loss = window / 50.0 + 1.0;
    let noise = 3_000.0; // >> observed CountSketch error at 5x8192
    for f in 0..HEAVY_FLOWS {
        let est = nitro.estimate(f);
        assert!(
            est >= truth - per_flow_window_loss - health.dropped as f64 - noise,
            "flow {f}: estimate {est} fell more than a checkpoint interval below {truth}"
        );
        assert!(
            est <= truth + noise,
            "flow {f}: estimate {est} overshoots truth {truth}"
        );
    }
}

/// Sustained overload on a tiny ring: the tap must cross the high-water
/// mark and request sampling downshifts, the worker must apply them (and
/// the probability drop must be visible in both the health record and
/// `NitroStats`), and the accounting identity must still hold exactly —
/// drops are counted, never silent.
#[test]
fn sustained_overload_downshifts_sampling_and_accounts_every_drop() {
    let _serial = serial();
    let fresh = || NitroSketch::new(CountSketch::new(4, 4096, 11), Mode::Fixed { p: 1.0 }, 13);
    let (mut tap, daemon) = spawn_supervised(
        fresh(),
        fresh,
        SupervisorConfig {
            ring_capacity: 1 << 8,
            high_water: 0.5,
            ..Default::default()
        },
    );

    // Flood without yielding: on this topology the ring saturates long
    // before the worker's next scheduler quantum.
    for i in 0..200_000u64 {
        tap.offer(i % 64, i);
    }
    assert!(
        tap.occupancy() <= 1.0,
        "occupancy is a fraction, got {}",
        tap.occupancy()
    );
    let (nitro, health) = daemon.finish().unwrap();

    // Degradation engaged: sampling probability stepped down the grid.
    assert!(
        health.downshifts >= 1,
        "no downshift under sustained overload: {health}"
    );
    assert_eq!(
        nitro.stats().downshifts,
        health.downshifts,
        "NitroStats and DaemonHealth must agree on downshifts"
    );
    assert!(
        nitro.p() < 1.0,
        "sampling probability still {} after overload",
        nitro.p()
    );

    // Exact accounting: offered == processed + dropped (+ crash loss,
    // which is zero here — no faults were injected).
    assert_eq!(health.offered, 200_000);
    assert_eq!(health.lost_in_crash, 0);
    assert_eq!(health.restarts, 0);
    assert_eq!(
        health.offered,
        health.processed + health.dropped,
        "unaccounted observations: {health}"
    );
    assert_eq!(health.unaccounted(), 0);
}

/// `(address after encoding, arrived without an allocation)` of every
/// buffer a [`Recycling`] checkpoint was encoded into.
type BufferLog = Arc<Mutex<Vec<(usize, bool)>>>;

/// Counts observations; its checkpoint is a page of bytes, and it logs
/// the buffer it was handed, so a test can see which allocations the
/// checkpoint path cycles through.
struct Recycling {
    seen: u64,
    buffers: BufferLog,
}
impl Measurement for Recycling {
    fn on_packet(&mut self, _key: FlowKey, _ts: u64, _w: f64) {
        self.seen += 1;
    }
}
impl Recoverable for Recycling {
    fn checkpoint_into(&self, out: &mut Vec<u8>, _dirty: Option<&DirtyLines>) {
        let fresh = out.capacity() == 0;
        out.clear();
        out.resize(4096, self.seen as u8);
        let mut log = self.buffers.lock().unwrap();
        log.push((out.as_ptr() as usize, fresh));
    }
    fn restore_bytes(&mut self, _bytes: &[u8]) -> Result<(), CheckpointError> {
        Ok(())
    }
}

fn offer_all(tap: &mut SupervisedTap, keys: impl Iterator<Item = u64>) {
    for (i, k) in keys.enumerate() {
        tap.offer(k, i as u64);
        if i % 512 == 0 {
            // Single-core host: give the worker air.
            std::thread::yield_now();
        }
    }
}

/// A [`Recycling`] daemon checkpointing every 16 observations — with
/// 64-observation batches, at most every 16 + 63.
fn spawn_recycling() -> (SupervisedTap, SupervisedDaemon<Recycling>, BufferLog) {
    let buffers = Arc::new(Mutex::new(Vec::new()));
    let make = {
        let buffers = Arc::clone(&buffers);
        move || Recycling {
            seen: 0,
            buffers: Arc::clone(&buffers),
        }
    };
    let (tap, daemon) = spawn_supervised(
        make(),
        make,
        SupervisorConfig {
            checkpoint_every: 16,
            ring_capacity: 1 << 14,
            high_water: 2.0,
            ..Default::default()
        },
    );
    (tap, daemon, buffers)
}

#[test]
fn periodic_checkpoints_cycle_two_buffers_when_nobody_reads() {
    let _serial = serial();
    let (mut tap, daemon, buffers) = spawn_recycling();
    offer_all(&mut tap, 0..8_000u64);
    let (_, health) = daemon.finish().unwrap();
    assert!(health.checkpoints >= 50, "too few checkpoints: {health}");
    let log = buffers.lock().unwrap();
    assert_eq!(log.len() as u64, health.checkpoints);
    assert!(
        log[2..].iter().all(|&(_, fresh)| !fresh),
        "after the pristine and the first periodic checkpoint every buffer is a recycled one"
    );
    let mut distinct: Vec<usize> = log.iter().map(|&(at, _)| at).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 2, "slot and spare are the only buffers");
}

#[test]
fn a_held_view_is_neither_blocked_on_nor_overwritten() {
    let _serial = serial();
    let (mut tap, daemon, buffers) = spawn_recycling();
    offer_all(&mut tap, 0..200u64);
    let wait_for_checkpoints = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.health().checkpoints < n {
            assert!(Instant::now() < deadline, "worker stopped checkpointing");
            std::thread::yield_now();
        }
    };
    wait_for_checkpoints(2);
    let held = daemon.latest_checkpoint().unwrap();
    let seen_by_reader = held.bytes.to_vec();
    // Three more publishes: with the reader holding the slot's buffer
    // the worker must take a fresh one, not wait and not reuse it.
    let before = daemon.health().checkpoints;
    offer_all(&mut tap, 0..400u64);
    wait_for_checkpoints(before + 3);
    // Nothing left to process: no checkpoint is encoded after this,
    // so `newer` below pins no buffer the log would see replaced.
    while daemon.processed() < 600 {
        std::thread::yield_now();
    }
    assert_eq!(*held.bytes, seen_by_reader, "a reader's bytes never change");
    let newer = daemon.latest_checkpoint().unwrap();
    assert!(newer.processed_at > held.processed_at);
    assert!(!Arc::ptr_eq(&newer.bytes, &held.bytes));
    assert_eq!(daemon.finish().unwrap().1.unaccounted(), 0);
    let fresh = buffers.lock().unwrap().iter().filter(|b| b.1).count();
    assert_eq!(
        fresh, 3,
        "one allocation replaces the one buffer the reader pins"
    );
}

/// Lines of a [`Generations`] measurement.
const LINES: u64 = 64;

/// `(image the buffer held, image written, lines it was told changed)` of
/// every patched [`Generations`] checkpoint.
type PatchLog = Arc<Mutex<Vec<(u64, u64, Vec<u64>)>>>;

/// Its image is the number of checkpoint intervals closed so far, and the
/// `k`-th interval writes exactly line `k mod LINES`. So every patched
/// checkpoint shows which image its buffer held (the first word) and which
/// intervals it was told to cover (the lines).
struct Generations {
    closed: u64,
    patches: PatchLog,
}
impl Measurement for Generations {
    fn on_packet(&mut self, _key: FlowKey, _ts: u64, _w: f64) {}
}
impl Recoverable for Generations {
    fn checkpoint_into(&self, out: &mut Vec<u8>, dirty: Option<&DirtyLines>) {
        if let Some(dirty) = dirty {
            let held = u64::from_le_bytes(out[..8].try_into().unwrap());
            let mut lines = Vec::new();
            dirty.for_each_run(LINES as usize * LINE_COUNTERS, |run| {
                lines.extend(
                    run.step_by(LINE_COUNTERS)
                        .map(|c| (c / LINE_COUNTERS) as u64),
                );
            });
            self.patches
                .lock()
                .unwrap()
                .push((held, self.closed, lines));
        }
        out.clear();
        out.extend_from_slice(&self.closed.to_le_bytes());
    }
    fn take_dirty(&mut self, into: &mut DirtyLines) {
        self.closed += 1;
        *into = DirtyLines::new(LINES as usize * LINE_COUNTERS);
        into.mark((self.closed % LINES) as usize * LINE_COUNTERS);
    }
    fn restore_bytes(&mut self, _bytes: &[u8]) -> Result<(), CheckpointError> {
        Ok(())
    }
}

/// A sink that acknowledges every checkpoint at once.
struct AlwaysOk;
impl CheckpointSink for AlwaysOk {
    fn persist(&self, _seq: u64, _at: u64, _bytes: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
}

/// Inline, the spare a worker encodes into is the image before last; with
/// a durable sink, the writer's publish hands back the one before that.
/// Either way a recycled buffer is patched with exactly the intervals
/// since the image it holds — never from another generation.
#[test]
fn a_recycled_buffer_is_patched_from_its_own_image() {
    let _serial = serial();
    for (sink, distance) in [(None, 2), (Some(SinkHandle(Arc::new(AlwaysOk))), 3)] {
        let patches = PatchLog::default();
        let make = {
            let patches = Arc::clone(&patches);
            move || Generations {
                closed: 0,
                patches: Arc::clone(&patches),
            }
        };
        let (mut tap, daemon) = spawn_supervised(
            make(),
            make,
            SupervisorConfig {
                checkpoint_every: 16,
                ring_capacity: 1 << 14,
                high_water: 2.0,
                sink,
                ..Default::default()
            },
        );
        // A worker never waits for the writer, so one that outruns it
        // takes fewer checkpoints: offer a batch per checkpoint.
        let deadline = Instant::now() + Duration::from_secs(30);
        for step in 0..40u64 {
            let published = daemon.health().checkpoints;
            offer_all(&mut tap, step * 32..(step + 1) * 32);
            while daemon.health().checkpoints == published {
                assert!(Instant::now() < deadline, "worker stopped checkpointing");
                std::thread::yield_now();
            }
        }
        let (_, health) = daemon.finish().unwrap();
        let patches = patches.lock().unwrap();
        // Encoded in full: the pristine image, the first periodic one into
        // a fresh buffer, and those into a buffer holding the pristine
        // image (not this worker's) or nothing yet (the writer's first).
        // A stall restart would start the worker's record afresh.
        if health.stalls == 0 {
            assert_eq!(
                patches.len() as u64 + distance + 1,
                health.checkpoints,
                "every later checkpoint is patched: {health}"
            );
        }
        assert!(!patches.is_empty(), "nothing was patched: {health}");
        for (held, written, lines) in patches.iter() {
            assert_eq!(written - held, distance, "patched {held} into {written}");
            let mut since: Vec<u64> = (held + 1..=*written).map(|k| k % LINES).collect();
            since.sort_unstable();
            assert_eq!(lines, &since, "patched {held} into {written}");
        }
    }
}

/// A sink that records, for every checkpoint, whether the supervisor
/// handed it a write history.
#[derive(Default)]
struct HistoryLog(Mutex<Vec<bool>>);
impl CheckpointSink for HistoryLog {
    fn persist(&self, _seq: u64, _at: u64, _bytes: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
    fn persist_written(
        &self,
        _seq: u64,
        _at: u64,
        _bytes: &[u8],
        written: Written<'_>,
    ) -> std::io::Result<()> {
        self.0.lock().unwrap().push(written.since.is_some());
        Ok(())
    }
}

/// Run `m` under a daemon persisting into a [`HistoryLog`] for 20
/// checkpoints, and return which of them carried a write history and
/// whether a final on-demand view did.
fn histories<M: Recoverable + Send + 'static>(
    m: M,
    make: impl Fn() -> M + Send + Sync + 'static,
) -> (Vec<bool>, bool) {
    let log = Arc::new(HistoryLog::default());
    let (mut tap, daemon) = spawn_supervised(
        m,
        make,
        SupervisorConfig {
            checkpoint_every: 16,
            ring_capacity: 1 << 14,
            high_water: 2.0,
            sink: Some(SinkHandle(Arc::clone(&log) as Arc<dyn CheckpointSink>)),
            ..Default::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    for step in 0..20u64 {
        let published = daemon.health().checkpoints;
        offer_all(&mut tap, step * 32..(step + 1) * 32);
        while daemon.health().checkpoints == published {
            assert!(Instant::now() < deadline, "worker stopped checkpointing");
            std::thread::yield_now();
        }
    }
    daemon.checkpoint_now(Duration::from_secs(5)).unwrap();
    let view = daemon.checkpoint_now(Duration::from_secs(5)).unwrap();
    daemon.finish().unwrap();
    let seen = log.0.lock().unwrap().clone();
    (seen, view.written.is_some())
}

/// Dirty lines are a checkpoint's write history only for a measurement
/// that declares them lines of a counter array ending its checkpoint.
/// [`Generations`] tracks 64 lines its 8-byte image does not hold: the sink
/// and the views never see them, so no store compares only those lines of
/// its images. A sketch's checkpoints carry them.
#[test]
fn only_a_measurement_whose_lines_end_its_checkpoint_hands_them_on() {
    let _serial = serial();
    let make = || Generations {
        closed: 0,
        patches: PatchLog::default(),
    };
    let (seen, view) = histories(make(), make);
    assert!(seen.len() >= 20, "{} checkpoints persisted", seen.len());
    assert!(
        seen.iter().all(|&h| !h) && !view,
        "lines that are not the checkpoint's were handed on"
    );

    let sketch = || NitroSketch::new(CountMin::new(3, 1000, 5), Mode::Fixed { p: 1.0 }, 6);
    let (seen, view) = histories(sketch(), sketch);
    assert!(
        seen.iter().filter(|&&h| h).count() >= 10 && view,
        "a sketch's checkpoints carry their write history: {seen:?}"
    );
}
