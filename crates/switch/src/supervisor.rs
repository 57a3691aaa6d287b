//! Supervised measurement daemon: panic recovery, checkpoint/restore, and
//! backpressure-driven graceful degradation.
//!
//! The paper's §6 separate-thread integration — the PMD thread pushes flow
//! keys into a shared SPSC ring, a dedicated sketch thread drains it — is
//! fragile as described: a panic in the sketch thread loses the whole
//! measurement epoch, and a consumer that cannot keep up silently sheds
//! load at the ring. Production software switches (the deployment target
//! of §1) need the monitoring plane to degrade gracefully instead. This
//! module is that integration, with the consumer wrapped in a supervisor
//! thread that:
//!
//! 1. **Recovers from panics.** The worker thread runs the sketch; the
//!    supervisor polls its liveness and, on a panic, rebuilds a fresh
//!    measurement from the caller's factory, restores the most recent
//!    checkpoint, and re-attaches the *same* ring — the producer-side tap
//!    never blocks and never reconnects. A panic in the durable sink (on
//!    the writer thread, below) fails the worker incarnation whose
//!    checkpoint it was persisting, and is recovered the same way.
//!    Recovery error — after a panic, or a process crash that leaves only
//!    what was persisted — is bounded by `checkpoint_every`, plus the
//!    updates made during one in-flight persist, plus one in-flight
//!    batch. (A persist that outlasts a
//!    checkpoint interval stretches that interval to its own length; the
//!    `persist_lag` gauge reports the live value.)
//! 2. **Checkpoints periodically, persists off the sketch thread.** Every
//!    `checkpoint_every` consumed observations the worker serialises the
//!    measurement (via [`Recoverable::checkpoint_into`], the byte codec
//!    from `nitro_sketches::checkpoint`) into a spare buffer. Without a
//!    sink it swaps that buffer into the shared slot itself. With a sink,
//!    it hands the buffer to the daemon's *writer* thread, which persists
//!    it and only then publishes it; the worker never waits on the disk.
//!    At most one checkpoint is in flight: one that comes due while the
//!    writer is busy is deferred, and the next one taken covers everything
//!    since, so a slow disk lowers the checkpoint rate instead of stopping
//!    measurement. Displaced buffers come back as spares (three circulate
//!    with a writer, two without), so the steady state allocates nothing.
//!    Readers share the slot by refcount. Each buffer is tagged with the
//!    sequence number of the image it holds, and the worker keeps the
//!    counter lines each recent checkpoint interval wrote, so a recycled
//!    buffer is brought up to date by rewriting only the lines written
//!    since its image — the same bytes as a full encode, for a fraction of
//!    the copy.
//! 3. **Detects stalls.** A watchdog observes the consumed-observation
//!    counter; if the ring is non-empty but consumption has not advanced
//!    within `stall_timeout`, the supervisor bumps a generation counter
//!    that asks the worker to exit at its next loop iteration, then
//!    respawns it. (A worker wedged *inside* the measurement callback can
//!    only be recovered cooperatively — the SPSC discipline forbids
//!    attaching a second consumer while the first may still touch the
//!    ring.)
//! 4. **Degrades instead of dropping.** The tap samples ring occupancy;
//!    above `high_water` it requests a sampling-probability downshift
//!    ([`Recoverable::downshift`] walks the paper's geometric grid
//!    toward `P_MIN`), trading accuracy for throughput instead of
//!    silently discarding observations.
//!
//! Every observation's fate is accounted: consumed, dropped at the ring,
//! or lost in a crash window — [`nitro_metrics::DaemonHealth::unaccounted`]
//! is zero after a clean shutdown.

use crate::clock::{Clock, SystemClock};
use crate::faults::ThreadFaultPlan;
use crate::ovs::Measurement;
use crate::spsc::SpscRing;
use crate::store::{self, Cut, SinkHandle};
use nitro_core::NitroSketch;
use nitro_metrics::telemetry::{Event, MeasurementGauges, ShardTelemetry};
use nitro_metrics::DaemonHealth;
use nitro_sketches::checkpoint::CheckpointError;
use nitro_sketches::{Checkpoint, DirtyLines, FlowKey, RowSketch};
use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A queued observation: flow key + trace timestamp.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// Flow key.
    pub key: FlowKey,
    /// Trace timestamp (ns).
    pub ts_ns: u64,
}

/// Extract the human-readable message from a `JoinHandle::join` panic
/// payload, when it is one of the two string types `panic!` produces.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
}

/// A measurement that can be checkpointed, restored, and downshifted —
/// everything the supervisor needs for crash recovery and graceful
/// degradation.
pub trait Recoverable: Measurement {
    /// Serialise the full measurement state (geometry + counters) into
    /// `out` as a self-describing byte checkpoint, replacing its contents
    /// and reusing its allocation.
    ///
    /// With `dirty == Some(lines)`, `out` holds this measurement's
    /// checkpoint from before the counter lines in `lines` were written
    /// (the union of [`Recoverable::take_dirty`] sets since), and only
    /// those need rewriting. The bytes must be the ones `None` writes.
    fn checkpoint_into(&self, out: &mut Vec<u8>, dirty: Option<&DirtyLines>);

    /// Move the counter lines written since the last call into `into`.
    /// The default keeps no such record and leaves `into` untouched: a set
    /// covering no lines, so the supervisor always encodes in full.
    fn take_dirty(&mut self, into: &mut DirtyLines) {
        let _ = into;
    }

    /// Whether the lines [`Recoverable::take_dirty`] hands over are lines
    /// of a counter array that ends the checkpoint, counted from the
    /// array's end as [`DirtyLines`] counts them, and the checkpoint
    /// changes nowhere else but in the bytes before that array. Only then
    /// do they travel with the checkpoint as its write history, for the
    /// writer's cut against the image before it ([`crate::store::cut`])
    /// and the epoch view to compare and fold only them. The default,
    /// `false`, keeps them to [`Recoverable::checkpoint_into`].
    fn dirty_lines_end_checkpoint(&self) -> bool {
        false
    }

    /// Replace this measurement's state with a checkpoint taken from a
    /// compatible instance. Must leave `self` untouched on error.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// Reduce the sampling probability one step under backpressure.
    /// Returns the new probability, or `None` when already at the floor
    /// (or when the measurement has no sampling knob).
    fn downshift(&mut self) -> Option<f64> {
        None
    }

    /// Live controller gauges for the telemetry plane, or `None` when the
    /// measurement has no sampling controller to report on.
    fn gauges(&self) -> Option<MeasurementGauges> {
        None
    }
}

impl<S: RowSketch + Checkpoint> Recoverable for NitroSketch<S> {
    fn checkpoint_into(&self, out: &mut Vec<u8>, dirty: Option<&DirtyLines>) {
        self.write_image(out, 0, dirty);
    }

    fn take_dirty(&mut self, into: &mut DirtyLines) {
        NitroSketch::take_dirty(self, into);
    }

    fn dirty_lines_end_checkpoint(&self) -> bool {
        true
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.restore(bytes)
    }

    fn downshift(&mut self) -> Option<f64> {
        NitroSketch::downshift(self)
    }

    fn gauges(&self) -> Option<MeasurementGauges> {
        Some(MeasurementGauges {
            sampling_p: self.p(),
            mode_code: self.mode_kind().code(),
            converged: self.converged(),
            topk_len: self.topk().map_or(0, |t| t.len() as u64),
        })
    }
}

/// Tuning for [`spawn_supervised`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// SPSC ring slots between the switch thread and the worker.
    pub ring_capacity: usize,
    /// Consumed observations between checkpoints.
    pub checkpoint_every: u64,
    /// Ring occupancy in `[0, 1]` above which the tap requests a sampling
    /// downshift instead of waiting for drops.
    pub high_water: f64,
    /// Supervisor poll cadence (liveness + stall watchdog).
    pub check_interval: Duration,
    /// No consumption progress while the ring is non-empty for this long
    /// counts as a stall and forces a cooperative worker restart.
    pub stall_timeout: Duration,
    /// Panic restarts beyond this budget mark the daemon permanently
    /// failed: the supervisor stops respawning workers, keeps draining the
    /// ring so the accounting identity holds, and [`SupervisedDaemon::
    /// finish`] returns [`SupervisorError::RestartBudgetExhausted`]. The
    /// last checkpoint stays readable throughout.
    pub max_restarts: u64,
    /// First-restart backoff; each further restart doubles it (an
    /// exponential schedule keeps a crash-looping worker from burning the
    /// core the datapath needs).
    pub base_backoff: Duration,
    /// Ceiling of the exponential backoff schedule.
    pub max_backoff: Duration,
    /// Optional durable checkpoint sink (a [`crate::store::ShardWriter`]
    /// in production): every checkpoint the worker takes is persisted
    /// through it, on the daemon's writer thread, before it is published
    /// in memory. A process crash then loses at most `checkpoint_every`,
    /// plus the updates made during one in-flight persist, plus one
    /// batch.
    pub sink: Option<SinkHandle>,
    /// Optional fault-injection plan armed into every worker incarnation
    /// (test hook; shares its one-shot trigger across incarnations).
    pub fault_plan: Option<ThreadFaultPlan>,
    /// Optional pre-registered telemetry instance (from a
    /// [`nitro_metrics::TelemetryRegistry`]); the daemon publishes every
    /// counter, gauge, histogram, and event into it. Without one, the
    /// daemon creates a detached instance readable via
    /// [`SupervisedDaemon::telemetry`].
    pub telemetry: Option<Arc<ShardTelemetry>>,
    /// Time source for the stall watchdog and its poll/backoff sleeps.
    /// Production uses [`SystemClock`]; deterministic tests inject a
    /// [`crate::SimClock`] so a ten-second virtual stall costs
    /// milliseconds of wall clock.
    pub clock: Arc<dyn Clock>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 1 << 14,
            checkpoint_every: 10_000,
            high_water: 0.75,
            check_interval: Duration::from_millis(1),
            stall_timeout: Duration::from_millis(500),
            max_restarts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(250),
            sink: None,
            fault_plan: None,
            telemetry: None,
            clock: Arc::new(SystemClock),
        }
    }
}

/// What the restart policy says to do after the `restarts`-th panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartDecision {
    /// Respawn the worker after waiting this long.
    Backoff(Duration),
    /// The budget is spent: stop respawning, mark the daemon failed.
    Fail,
}

/// Pure restart-budget policy: exponential backoff with a ceiling, then
/// permanent failure. Kept free of clocks and threads so tests can drive
/// the whole schedule deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restarts allowed before [`RestartDecision::Fail`].
    pub max_restarts: u64,
    /// Backoff before the first restart.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl RestartPolicy {
    /// Decide the fate of the `restarts`-th restart (1-based).
    pub fn decide(&self, restarts: u64) -> RestartDecision {
        if restarts > self.max_restarts {
            RestartDecision::Fail
        } else {
            RestartDecision::Backoff(self.backoff_for(restarts))
        }
    }

    /// `min(base · 2^(n−1), cap)` for the `n`-th restart.
    pub fn backoff_for(&self, restarts: u64) -> Duration {
        let doublings = restarts.saturating_sub(1).min(31) as u32;
        self.base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff)
    }
}

/// Why a supervised run could not hand its measurement back.
#[derive(Debug)]
pub enum SupervisorError {
    /// The worker panicked more times than `max_restarts` allows.
    RestartBudgetExhausted {
        /// Panic restarts attempted (including the one that exceeded the
        /// budget).
        restarts: u64,
        /// Message of the final panic, when it was a string.
        last_panic: Option<String>,
        /// Health counters at the moment the supervisor gave up.
        health: DaemonHealth,
    },
    /// The supervisor thread itself panicked — a bug, not a recoverable
    /// condition.
    SupervisorPanicked(Option<String>),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::RestartBudgetExhausted {
                restarts,
                last_panic,
                ..
            } => {
                write!(f, "restart budget exhausted after {restarts} panics")?;
                if let Some(msg) = last_panic {
                    write!(f, " (last: {msg})")?;
                }
                Ok(())
            }
            SupervisorError::SupervisorPanicked(Some(msg)) => {
                write!(f, "supervisor thread panicked: {msg}")
            }
            SupervisorError::SupervisorPanicked(None) => write!(f, "supervisor thread panicked"),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// State shared between the tap, the worker, and the supervisor.
struct Shared {
    ring: SpscRing<Observation>,
    stop: AtomicBool,
    /// Bumped by the stall watchdog; the worker exits when it no longer
    /// matches the generation it was spawned with.
    generation: AtomicU64,
    /// The single owner of every health counter (offered/processed/
    /// dropped/popped/restarts/stalls/checkpoints/persisted/restores/
    /// downshifts), the live gauges, and the latency histograms. Scraping
    /// it mid-run reads the same cells the hot path writes — there is no
    /// second set of counters to drift out of sync.
    tel: Arc<ShardTelemetry>,
    /// Set when the restart budget is spent: the supervisor stops
    /// respawning workers and only drains the ring for accounting.
    failed: AtomicBool,
    /// Tap-side requests; the worker acknowledges via `downshift_acks`
    /// whether or not a lower probability was available.
    downshift_requests: AtomicU64,
    downshift_acks: AtomicU64,
    /// Coordinator-side on-demand snapshot requests; the worker takes a
    /// fresh checkpoint, and whoever publishes it acknowledges via
    /// `snapshot_acks`.
    snapshot_requests: AtomicU64,
    snapshot_acks: AtomicU64,
    /// `processed` at the moment the stored checkpoint was taken — the
    /// basis of the query plane's per-shard staleness bound.
    checkpoint_processed: AtomicU64,
    /// The latest checkpoint and its write history. Readers clone the
    /// `Arc`, never the bytes; the publisher swaps whole buffers in (see
    /// `store_checkpoint`).
    checkpoint: Mutex<Option<Slot>>,
    /// The hand-off to the writer thread; `None` without a sink, when the
    /// worker publishes inline.
    writer: Option<Writer>,
    high_water: f64,
}

/// Sequence numbers of encoded images, unique in the process: across
/// worker incarnations, so a buffer from a dead incarnation never matches a
/// live worker's record of its own images, and across daemons, so a reader
/// that folded one daemon's image never takes another's for it.
static IMAGES: AtomicU64 = AtomicU64::new(0);

/// A checkpoint buffer, tagged with the sequence number of the image it
/// holds (`None`: a fresh buffer, holding none).
#[derive(Default)]
struct Image {
    bytes: Vec<u8>,
    seq: Option<u64>,
}

/// One checkpoint on its way to the slot.
struct Job {
    bytes: Vec<u8>,
    /// Image sequence number of `bytes`.
    seq: u64,
    /// The image this incarnation took before `bytes` (`None` for its
    /// first) and the counter lines written since: the write history the
    /// writer's cut and the slot use.
    since: Option<u64>,
    lines: DirtyLines,
    /// Observations processed when `bytes` was encoded.
    processed_at: u64,
    /// `snapshot_requests` read before encoding: every on-demand request
    /// up to this one is answered once the checkpoint is published.
    answers: u64,
}

/// The published checkpoint, with the lines written since the image a
/// view last took from the slot.
struct Slot {
    bytes: Arc<Vec<u8>>,
    /// Image sequence number of `bytes`.
    image: u64,
    /// The image [`SupervisedDaemon::checkpoint_now`] last handed out and
    /// the lines written from it to `image`, while every image published
    /// since named its predecessor; `None` once one did not.
    anchor: Option<u64>,
    written: DirtyLines,
}

impl Shared {
    fn new(
        ring_capacity: usize,
        high_water: f64,
        tel: Arc<ShardTelemetry>,
        writer: Option<Writer>,
    ) -> Self {
        tel.ring_capacity.set(ring_capacity as u64);
        Self {
            ring: SpscRing::new(ring_capacity),
            stop: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            tel,
            failed: AtomicBool::new(false),
            downshift_requests: AtomicU64::new(0),
            downshift_acks: AtomicU64::new(0),
            snapshot_requests: AtomicU64::new(0),
            snapshot_acks: AtomicU64::new(0),
            checkpoint_processed: AtomicU64::new(0),
            checkpoint: Mutex::new(None),
            writer,
            high_water,
        }
    }

    /// Whether the worker may take a checkpoint now: always without a
    /// writer, otherwise only while nothing is in flight.
    fn writer_idle(&self) -> bool {
        self.writer.as_ref().is_none_or(Writer::is_idle)
    }

    /// Persist a checkpoint through the durable sink (when one is
    /// configured), then publish it in the in-memory slot, then
    /// acknowledge the on-demand requests it answers. Durability comes
    /// first: a crash between the steps loses only the in-memory copy,
    /// which recovery rebuilds from disk anyway, and no reader or ack ever
    /// sees bytes whose persist has not returned. A sink error is counted
    /// by omission (`checkpoints - persisted`) and the next checkpoint
    /// retries. Returns the buffer the slot held before, to encode a later
    /// checkpoint into.
    ///
    /// The slot holds the checkpoint published before this one, handed to
    /// the sink under the sequence number before this one's, so the delta
    /// is cut here, against it: only the head and the lines written since
    /// are compared when the job follows that image. The sink appends the
    /// runs only if that checkpoint is its previous durable one.
    fn publish_checkpoint(&self, job: Job, sink: Option<&SinkHandle>) -> Image {
        if let Some(sink) = sink {
            let base_seq = self.tel.checkpoints.get();
            let seq = base_seq + 1;
            let started = Instant::now();
            let base = self.slot().as_ref().map(|s| {
                let lines =
                    (job.since == Some(s.image) && job.lines.is_sparse()).then_some(&job.lines);
                (Arc::clone(&s.bytes), lines)
            });
            let mut runs = Vec::new();
            let cut = base.as_ref().and_then(|(bytes, lines)| {
                store::cut(bytes, &job.bytes, *lines, false, &mut runs).then_some(Cut {
                    base_seq,
                    base_len: bytes.len(),
                    runs: &runs,
                })
            });
            let result = sink.persist_cut(seq, job.processed_at, &job.bytes, cut);
            // Release the base before the slot displaces it, so the buffer
            // comes back as a spare.
            drop(base);
            if result.is_ok() {
                self.tel
                    .persist_ns
                    .record(started.elapsed().as_nanos() as u64);
                self.tel.persisted.incr();
                self.tel.persisted_at.set(job.processed_at);
                self.tel.event(Event::CheckpointPersisted {
                    shard: self.tel.shard,
                    seq,
                    processed_at: job.processed_at,
                });
            }
        }
        let answers = job.answers;
        let spare = self.store_checkpoint(job);
        self.snapshot_acks.fetch_max(answers, Ordering::AcqRel);
        spare
    }

    /// Swap the job's image into the slot and hand back the displaced
    /// buffer, tagged — unless a reader still holds it, in which case the
    /// reader keeps its bytes unchanged and the caller gets a fresh, empty
    /// one. The image's lines join those written since the slot's anchor
    /// when it follows the image it replaces.
    fn store_checkpoint(&self, job: Job) -> Image {
        let mut slot = self.slot();
        let bytes = Arc::new(job.bytes);
        let displaced = match &mut *slot {
            Some(s) => {
                if job.since == Some(s.image) && s.anchor.is_some() {
                    s.written.union(&job.lines);
                } else {
                    s.anchor = None;
                }
                let displaced = (std::mem::replace(&mut s.bytes, bytes), s.image);
                s.image = job.seq;
                Some(displaced)
            }
            None => {
                *slot = Some(Slot {
                    bytes,
                    image: job.seq,
                    anchor: None,
                    written: DirtyLines::default(),
                });
                None
            }
        };
        self.checkpoint_processed
            .store(job.processed_at, Ordering::Release);
        self.tel.checkpoints.incr();
        drop(slot);
        displaced
            .and_then(|(shared, seq)| {
                Arc::try_unwrap(shared).ok().map(|bytes| Image {
                    bytes,
                    seq: Some(seq),
                })
            })
            .unwrap_or_default()
    }

    fn slot(&self) -> MutexGuard<'_, Option<Slot>> {
        self.checkpoint
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The next image sequence number.
    fn next_image(&self) -> u64 {
        IMAGES.fetch_add(1, Ordering::Relaxed)
    }

    fn load_checkpoint(&self) -> Option<Arc<Vec<u8>>> {
        self.slot().as_ref().map(|s| Arc::clone(&s.bytes))
    }

    /// Load the stored checkpoint as a view: its bytes, the `processed`
    /// count it was taken at (read under the same lock ordering: bytes
    /// first, then the release-published counter) and its write history.
    /// With `anchor`, the lines written from here on count from this
    /// image.
    fn load_view(&self, anchor: bool) -> Option<CheckpointView> {
        let mut slot = self.slot();
        let s = slot.as_mut()?;
        let view = CheckpointView {
            bytes: Arc::clone(&s.bytes),
            image: s.image,
            written: s.anchor.map(|since| (since, s.written.clone())),
            processed_at: self.checkpoint_processed.load(Ordering::Acquire),
            lag: 0,
            backlog: 0,
            fresh: false,
            degraded: false,
        };
        if anchor {
            s.anchor = Some(s.image);
            s.written.clear();
        }
        Some(view)
    }

    fn health(&self) -> DaemonHealth {
        self.tel.health()
    }
}

/// The worker → writer hand-off of a daemon with a durable sink. The
/// worker hands over a checkpoint only while the writer is idle, so at
/// most one is in flight, and it never waits: a checkpoint that comes due
/// while the writer is busy is simply taken later.
struct Writer {
    /// Set by [`Writer::hand_off`], cleared by [`Writer::done`] once the
    /// checkpoint is published. The clearing `Release` store comes after
    /// the writer stored the slot, the ack and the returned spare; the
    /// worker's `Acquire` load in [`Writer::is_idle`] pairs with it.
    busy: AtomicBool,
    mailbox: Mutex<Mailbox>,
    /// Signals a new job or stop to the writer, and the end of a job to
    /// [`Writer::wait_idle`].
    changed: Condvar,
}

#[derive(Default)]
struct Mailbox {
    /// The checkpoint handed over and not yet picked up by the writer.
    job: Option<Job>,
    /// The buffer the writer's last publish displaced from the slot: the
    /// worker's next spare.
    spare: Image,
    /// Set by [`SupervisedDaemon::finish`] once no worker can hand over
    /// anything more.
    stop: bool,
    /// Message of a sink panic the supervisor has not handled yet.
    sink_panic: Option<String>,
}

impl Writer {
    fn new() -> Self {
        Self {
            busy: AtomicBool::new(false),
            mailbox: Mutex::new(Mailbox::default()),
            changed: Condvar::new(),
        }
    }

    // Every mailbox update leaves it valid, so a poisoned lock is safe to
    // recover.
    fn mailbox(&self) -> MutexGuard<'_, Mailbox> {
        self.mailbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_idle(&self) -> bool {
        !self.busy.load(Ordering::Acquire)
    }

    /// Worker side, called only while idle: hand `job` to the writer and
    /// take back the buffer its previous publish displaced.
    fn hand_off(&self, job: Job) -> Image {
        let mut mailbox = self.mailbox();
        mailbox.job = Some(job);
        self.busy.store(true, Ordering::Release);
        let spare = std::mem::take(&mut mailbox.spare);
        drop(mailbox);
        self.changed.notify_all();
        spare
    }

    /// Writer side: the next checkpoint to persist, or `None` once stopped
    /// with nothing left.
    fn next_job(&self) -> Option<Job> {
        let mut mailbox = self.mailbox();
        loop {
            if let Some(job) = mailbox.job.take() {
                return Some(job);
            }
            if mailbox.stop {
                return None;
            }
            mailbox = self
                .changed
                .wait(mailbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Writer side: the job is over — published, with the buffer it
    /// displaced as `Ok`, or abandoned because the sink panicked, with the
    /// panic's message as `Err`.
    fn done(&self, outcome: Result<Image, String>) {
        let mut mailbox = self.mailbox();
        match outcome {
            Ok(spare) => mailbox.spare = spare,
            Err(msg) => mailbox.sink_panic = Some(msg),
        }
        self.busy.store(false, Ordering::Release);
        drop(mailbox);
        self.changed.notify_all();
    }

    /// Supervisor side: the message of a sink panic since the last call.
    fn take_panic(&self) -> Option<String> {
        self.mailbox().sink_panic.take()
    }

    /// Block until the checkpoint in flight, if any, is published.
    fn wait_idle(&self) {
        let mut mailbox = self.mailbox();
        while self.busy.load(Ordering::Acquire) {
            mailbox = self
                .changed
                .wait(mailbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn stop(&self) {
        self.mailbox().stop = true;
        self.changed.notify_all();
    }
}

/// Producer-side handle of the supervised daemon: lives in the switching
/// thread, never blocks, and signals backpressure instead of silently
/// shedding load.
pub struct SupervisedTap {
    shared: Arc<Shared>,
    offers: u64,
}

impl SupervisedTap {
    /// Offer one observation. A full ring counts a drop (the datapath is
    /// never stalled); every 64 offers the tap samples occupancy and,
    /// above the high-water mark, requests a sampling downshift from the
    /// worker.
    #[inline]
    pub fn offer(&mut self, key: FlowKey, ts_ns: u64) {
        self.shared.tel.offered.incr();
        if !self.shared.ring.push(Observation { key, ts_ns }) {
            self.shared.tel.dropped.incr();
        }
        self.offers += 1;
        if self.offers & 63 == 0 {
            let occupancy = self.shared.ring.occupancy();
            self.shared.tel.ring_occupancy.set_f64(occupancy);
            self.maybe_request_downshift(occupancy);
        }
    }

    /// Offer a whole burst at one timestamp.
    pub fn offer_batch(&mut self, keys: &[FlowKey], ts_ns: u64) {
        for &key in keys {
            self.offer(key, ts_ns);
        }
    }

    /// Observations lost to a full ring so far.
    pub fn dropped(&self) -> u64 {
        self.shared.tel.dropped.get()
    }

    /// Current ring fill fraction in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.shared.ring.occupancy()
    }

    fn maybe_request_downshift(&self, occupancy: f64) {
        if occupancy < self.shared.high_water {
            return;
        }
        // Only one request may be in flight: wait for the worker's ack
        // before asking again, so a long queue cannot slam the sampler
        // straight to the floor.
        let requests = self.shared.downshift_requests.load(Ordering::Acquire);
        let acks = self.shared.downshift_acks.load(Ordering::Acquire);
        if requests == acks {
            self.shared
                .downshift_requests
                .fetch_add(1, Ordering::Release);
        }
    }
}

impl Measurement for SupervisedTap {
    #[inline]
    fn on_packet(&mut self, key: FlowKey, ts_ns: u64, _weight: f64) {
        self.offer(key, ts_ns);
    }
}

/// A point-in-time view of a supervised daemon's checkpointed state, with
/// the numbers the epoch-merged query plane needs to bound its staleness.
#[derive(Clone, Debug)]
pub struct CheckpointView {
    /// The serialized measurement ([`Recoverable::checkpoint_into`]),
    /// shared with the daemon's slot by refcount: holding a view copies
    /// nothing and never blocks or is changed by the next checkpoint.
    pub bytes: Arc<Vec<u8>>,
    /// The image's sequence number, unique in the process.
    pub image: u64,
    /// The image [`SupervisedDaemon::checkpoint_now`] last handed out and
    /// the counter lines written from it to this one (lines of the
    /// counter array that ends the checkpoint, counted from its end), or
    /// `None` when a worker restart or a skipped publish broke the chain
    /// between them.
    pub written: Option<(u64, DirtyLines)>,
    /// Observations processed when this checkpoint was taken.
    pub processed_at: u64,
    /// Observations processed since the checkpoint — updates this view has
    /// not seen yet. With a fresh on-demand snapshot this is at most the
    /// worker's in-flight batch.
    pub lag: u64,
    /// Observations still queued in the ring at capture time.
    pub backlog: u64,
    /// Whether the on-demand request was answered in time. When `false`
    /// the view is the latest *periodic* checkpoint (the worker was
    /// crashed or mid-restart, or the sink had not returned from persisting
    /// the answer), and `lag` says how far behind it is.
    pub fresh: bool,
    /// The daemon's restart budget is spent: no worker will ever update
    /// this state again. The view is the shard's final word — still
    /// servable, with `lag + backlog` bounding what it will never see.
    pub degraded: bool,
}

impl CheckpointView {
    /// Upper bound on observations offered to this shard but absent from
    /// the view: processed-but-unsnapshotted plus still-queued.
    pub fn staleness_bound(&self) -> u64 {
        self.lag + self.backlog
    }
}

/// The running supervised daemon: owns the supervisor thread, which in
/// turn owns the current worker incarnation, and — with a sink — the
/// writer thread that persists the worker's checkpoints.
pub struct SupervisedDaemon<M: Recoverable + Send + 'static> {
    handle: JoinHandle<Result<M, (u64, Option<String>)>>,
    writer: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl<M: Recoverable + Send + 'static> SupervisedDaemon<M> {
    /// Observations applied to the measurement so far (across restarts).
    pub fn processed(&self) -> u64 {
        self.shared.tel.processed.get()
    }

    /// Live snapshot of the health counters.
    pub fn health(&self) -> DaemonHealth {
        self.shared.health()
    }

    /// This daemon's live telemetry instance — the very cells the hot
    /// path writes, readable at any instant without joining any thread.
    pub fn telemetry(&self) -> &Arc<ShardTelemetry> {
        &self.shared.tel
    }

    /// Observations currently queued in the ring.
    pub fn backlog(&self) -> u64 {
        self.shared.ring.len() as u64
    }

    /// Whether the restart budget is spent and the daemon is permanently
    /// failed. A failed daemon keeps draining (and accounting) the ring
    /// and keeps serving [`SupervisedDaemon::latest_checkpoint`]; only
    /// [`SupervisedDaemon::finish`] reports the failure as an error.
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::Acquire)
    }

    /// Checkpoints made durable through the configured sink.
    pub fn persisted(&self) -> u64 {
        self.shared.tel.persisted.get()
    }

    /// The most recent checkpoint without requesting a fresh one — stale
    /// by up to one checkpoint interval (with a sink, plus the updates made
    /// during one in-flight persist) plus the ring backlog. `None` only
    /// before [`spawn_supervised`] stored the pristine snapshot (i.e.
    /// never, for a daemon obtained from that constructor).
    pub fn latest_checkpoint(&self) -> Option<CheckpointView> {
        self.view(false)
    }

    /// The slot's checkpoint with its staleness, anchoring the write
    /// history there when `anchor`.
    fn view(&self, anchor: bool) -> Option<CheckpointView> {
        let view = self.shared.load_view(anchor)?;
        let processed = self.shared.tel.processed.get();
        Some(CheckpointView {
            lag: processed.saturating_sub(view.processed_at),
            backlog: self.backlog(),
            degraded: self.is_failed(),
            ..view
        })
    }

    /// Ask the worker for an on-demand checkpoint and wait up to `timeout`
    /// for it; falls back to the latest periodic checkpoint (with
    /// `fresh == false` and the correspondingly larger staleness numbers)
    /// when the worker does not acknowledge in time — a crashed shard still
    /// serves its last known-good state. The view's write history counts
    /// from the image the previous call handed out, and the next call's
    /// from this one: the epoch view folds only what changed between them.
    pub fn checkpoint_now(&self, timeout: Duration) -> Option<CheckpointView> {
        if self.is_failed() {
            // No worker will ever acknowledge: skip the wait and serve the
            // last durable state immediately, flagged as degraded.
            return self.view(true);
        }
        let target = self.shared.snapshot_requests.fetch_add(1, Ordering::AcqRel) + 1;
        let deadline = Instant::now() + timeout;
        let mut fresh = false;
        loop {
            if self.shared.snapshot_acks.load(Ordering::Acquire) >= target {
                fresh = true;
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        let mut view = self.view(true)?;
        view.fresh = fresh;
        Some(view)
    }

    /// Signal stop, let the worker drain the ring and the writer finish the
    /// checkpoint it holds, and return the final measurement together with
    /// the run's health record.
    pub fn finish(self) -> Result<(M, DaemonHealth), SupervisorError> {
        self.shared.stop.store(true, Ordering::Release);
        let supervised = self.handle.join();
        if let (Some(handle), Some(writer)) = (self.writer, &self.shared.writer) {
            // The last worker has exited, so nothing more is handed over.
            writer.stop();
            if let Err(payload) = handle.join() {
                let msg = panic_message(payload.as_ref()).unwrap_or_default();
                return Err(SupervisorError::SupervisorPanicked(Some(format!(
                    "checkpoint writer: {msg}"
                ))));
            }
        }
        match supervised {
            Ok(Ok(m)) => Ok((m, self.shared.health())),
            Ok(Err((restarts, last_panic))) => Err(SupervisorError::RestartBudgetExhausted {
                restarts,
                last_panic,
                health: self.shared.health(),
            }),
            Err(payload) => Err(SupervisorError::SupervisorPanicked(panic_message(
                payload.as_ref(),
            ))),
        }
    }
}

/// One worker incarnation: drain the ring into `m` until asked to stop
/// (clean shutdown) or until the supervisor bumps the generation (stall
/// restart). Returns the measurement so the supervisor can hand it to the
/// next incarnation or to the caller.
fn run_worker<M: Recoverable>(
    mut m: M,
    shared: &Shared,
    my_generation: u64,
    plan: Option<&ThreadFaultPlan>,
    checkpoint_every: u64,
) -> M {
    let mut buf = [Observation { key: 0, ts_ns: 0 }; 64];
    let mut idle_spins = 0u32;
    let mut since_checkpoint = 0u64;
    // The buffer the next checkpoint is encoded into; every publish hands
    // back the one the slot held, so the steady state allocates nothing.
    let mut spare = Image::default();
    // What this incarnation's recent checkpoints wrote, to patch a spare
    // holding one of its images.
    let mut intervals = Intervals::default();
    // A periodic checkpoint the writer has not published yet.
    let mut unpublished = false;
    publish_gauges(&m, &shared.tel);
    loop {
        if shared.generation.load(Ordering::Acquire) != my_generation {
            break;
        }
        let requests = shared.downshift_requests.load(Ordering::Acquire);
        let acks = shared.downshift_acks.load(Ordering::Acquire);
        if requests > acks {
            if let Some(p) = m.downshift() {
                shared.tel.downshifts.incr();
                shared.tel.sampling_p.set_f64(p);
                shared.tel.event(Event::Downshift {
                    shard: shared.tel.shard,
                    p,
                });
            }
            // Acknowledge even at the probability floor so the tap's
            // request slot frees up instead of wedging.
            shared.downshift_acks.fetch_add(1, Ordering::Release);
        }
        if shared.writer_idle() {
            if std::mem::take(&mut unpublished) {
                if let Some(plan) = plan {
                    // Fault-injection point for failover: the periodic
                    // checkpoint is published, so a panic here kills the
                    // primary right after it — a promotion restores this
                    // very checkpoint. Inline, the primary dies without
                    // processing another batch; with a writer, it dies
                    // having processed the batches it popped while the
                    // checkpoint was persisting.
                    plan.check_checkpoint();
                }
            }
            // An on-demand epoch snapshot serializes the current state so
            // the query plane's staleness collapses to the in-flight batch;
            // it also satisfies a due periodic checkpoint, and one
            // checkpoint answers every request queued so far.
            let requested = shared.snapshot_requests.load(Ordering::Acquire)
                > shared.snapshot_acks.load(Ordering::Acquire);
            let due = since_checkpoint >= checkpoint_every;
            if requested || due {
                since_checkpoint = 0;
                spare = take_checkpoint(&mut m, shared, &mut intervals, spare);
                if due {
                    // Periodic, whether or not a request also asked for
                    // it: the fault point sees every periodic checkpoint.
                    publish_gauges(&m, &shared.tel);
                    unpublished = true;
                }
                // Back to the top, which fires the fault point as soon as
                // the checkpoint is published — at once when it is inline.
                continue;
            }
        }
        let n = shared.ring.pop_batch(&mut buf);
        if n == 0 {
            if shared.stop.load(Ordering::Acquire) && shared.ring.is_empty() {
                break;
            }
            idle_spins += 1;
            if idle_spins > 16 {
                // On a single-core host a spinning consumer starves the
                // producer for a whole scheduler quantum; always yield.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        idle_spins = 0;
        let batch_started = Instant::now();
        shared.tel.popped.add(n as u64);
        if let Some(plan) = plan {
            // Fault-injection point: a panic here models a crash after the
            // batch left the ring but before it reached the sketch — the
            // worst window for accounting, covered by `lost_in_crash`.
            plan.check(n as u64);
        }
        for obs in &buf[..n] {
            m.on_packet(obs.key, obs.ts_ns, 1.0);
        }
        shared.tel.processed.add(n as u64);
        shared
            .tel
            .batch_ns
            .record(batch_started.elapsed().as_nanos() as u64);
        since_checkpoint += n as u64;
    }
    publish_gauges(&m, &shared.tel);
    m
}

/// Images whose checkpoint intervals a worker remembers: the writer's
/// spare is three images old (the slot holds the one before the image in
/// flight), and patching it needs the interval that closed its own image
/// as proof the image is this incarnation's.
const INTERVALS: usize = 4;

/// A worker incarnation's record of its recent checkpoints: per image, its
/// sequence number and the counter lines written in the interval it closed.
#[derive(Default)]
struct Intervals {
    /// Oldest first; consecutive images of this incarnation.
    ring: VecDeque<(u64, DirtyLines)>,
    /// Scratch union of the intervals since a spare's image.
    since: DirtyLines,
}

impl Intervals {
    /// Close the interval ending at image `seq`: take the lines `m` wrote
    /// since its previous image.
    fn close<M: Recoverable>(&mut self, m: &mut M, seq: u64) {
        let mut lines = match self.ring.len() {
            INTERVALS => self.ring.pop_front().map(|(_, lines)| lines),
            _ => None,
        }
        .unwrap_or_default();
        m.take_dirty(&mut lines);
        self.ring.push_back((seq, lines));
    }

    /// The image before the newest and the lines written since it: the
    /// newest image's write history (`None` for an incarnation's first,
    /// and for a measurement that tracks no lines).
    fn last(&self) -> (Option<u64>, DirtyLines) {
        let mut newest = self.ring.iter().rev();
        let lines = newest.next().map(|(_, lines)| lines.clone());
        let since = newest.next().map(|&(seq, _)| seq);
        let lines = lines.unwrap_or_default();
        (since.filter(|_| lines.lines() > 0), lines)
    }

    /// The lines written since image `held`, or `None` — encode in full —
    /// when the buffer is fresh, holds an image this record does not reach
    /// back to (older, or another incarnation's), when the measurement
    /// tracks no lines, or when so many lines changed that a straight copy
    /// beats the line-by-line patch.
    fn since(&mut self, held: Option<u64>) -> Option<&DirtyLines> {
        let held = held?;
        let at = self.ring.iter().position(|&(seq, _)| seq == held)?;
        let mut later = self.ring.iter().skip(at + 1).map(|(_, lines)| lines);
        self.since.clone_from(later.next()?);
        for lines in later {
            self.since.union(lines);
        }
        self.since.is_sparse().then_some(&self.since)
    }
}

/// Encode `m` into `spare` and publish it: inline without a sink; with
/// one, by handing it to the (idle) writer, which persists it first.
/// Returns the buffer to encode a later checkpoint into.
fn take_checkpoint<M: Recoverable>(
    m: &mut M,
    shared: &Shared,
    intervals: &mut Intervals,
    spare: Image,
) -> Image {
    let answers = shared.snapshot_requests.load(Ordering::Acquire);
    let seq = shared.next_image();
    let Image {
        mut bytes,
        seq: held,
    } = spare;
    intervals.close(m, seq);
    let (since, lines) = if m.dirty_lines_end_checkpoint() {
        intervals.last()
    } else {
        (None, DirtyLines::default())
    };
    let dirty = intervals.since(held);
    m.checkpoint_into(&mut bytes, dirty);
    if cfg!(debug_assertions) && dirty.is_some() {
        // The differential oracle: a patched image is a full encode. A
        // mismatch aborts the process: as a worker panic it would be
        // restarted from a checkpoint, and an intermittent one would pass.
        let mut full = Vec::new();
        m.checkpoint_into(&mut full, None);
        if bytes != full {
            eprintln!("image {seq} patched from image {held:?} differs from a full encode");
            std::process::abort();
        }
    }
    let job = Job {
        bytes,
        seq,
        since,
        lines,
        processed_at: shared.tel.processed.get(),
        answers,
    };
    match &shared.writer {
        Some(writer) => writer.hand_off(job),
        None => shared.publish_checkpoint(job, None),
    }
}

/// Writer thread body: persist and publish every checkpoint the worker
/// hands over, until [`SupervisedDaemon::finish`] stops it. A panicking
/// sink neither kills this thread nor leaves it busy: the checkpoint is
/// dropped unpublished and the supervisor fails the worker incarnation
/// that took it (see [`supervise`]).
fn run_writer(shared: &Shared, sink: &SinkHandle) {
    let writer = shared
        .writer
        .as_ref()
        .expect("a writer thread runs only for a daemon with a sink");
    while let Some(job) = writer.next_job() {
        let published = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shared.publish_checkpoint(job, Some(sink))
        }));
        writer.done(published.map_err(|payload| {
            let msg = panic_message(payload.as_ref()).unwrap_or_default();
            format!("checkpoint sink: {msg}")
        }));
    }
}

/// Push the measurement's controller gauges into the telemetry cells, when
/// it has any to report.
fn publish_gauges<M: Recoverable>(m: &M, tel: &ShardTelemetry) {
    if let Some(g) = m.gauges() {
        tel.publish_gauges(&g);
    }
}

/// Sink mode for a permanently-failed daemon: the supervisor thread itself
/// becomes the ring's consumer, popping observations so the producer never
/// wedges and counting each one as popped-but-never-processed — which
/// `DaemonHealth` reports as `lost_in_crash`, keeping
/// `offered == processed + dropped + lost` exact even after the budget is
/// spent. Returns once stop is signalled and the ring has drained.
fn drain_as_lost(shared: &Shared) {
    let mut buf = [Observation { key: 0, ts_ns: 0 }; 64];
    loop {
        let n = shared.ring.pop_batch(&mut buf);
        if n > 0 {
            shared.tel.popped.add(n as u64);
            continue;
        }
        if shared.stop.load(Ordering::Acquire) && shared.ring.is_empty() {
            return;
        }
        std::thread::yield_now();
    }
}

/// Spawn a supervised measurement daemon around `measurement`.
///
/// `factory` builds a blank, geometry-compatible replacement when a worker
/// incarnation panics; the supervisor restores the latest checkpoint into
/// it and re-attaches the existing ring, so the producer-side
/// [`SupervisedTap`] is oblivious to the crash. Returns the tap and the
/// daemon handle.
pub fn spawn_supervised<M, F>(
    measurement: M,
    factory: F,
    config: SupervisorConfig,
) -> (SupervisedTap, SupervisedDaemon<M>)
where
    M: Recoverable + Send + 'static,
    F: FnMut() -> M + Send + 'static,
{
    let tel = config
        .telemetry
        .clone()
        .unwrap_or_else(|| Arc::new(ShardTelemetry::detached(0)));
    let writer = config.sink.as_ref().map(|_| Writer::new());
    let shared = Arc::new(Shared::new(
        config.ring_capacity,
        config.high_water,
        tel,
        writer,
    ));
    // Checkpoint the pristine state up front: a panic before the first
    // periodic checkpoint restores to "empty but correctly configured"
    // rather than to nothing — and with a sink, a process crash before the
    // first periodic checkpoint recovers the same way from disk.
    let mut pristine = Vec::new();
    measurement.checkpoint_into(&mut pristine, None);
    let pristine = Job {
        bytes: pristine,
        seq: shared.next_image(),
        since: None,
        lines: DirtyLines::default(),
        processed_at: 0,
        answers: 0,
    };
    shared.publish_checkpoint(pristine, config.sink.as_ref());

    let writer = config.sink.clone().map(|sink| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_writer(&shared, &sink))
    });
    let handle = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || supervise(measurement, factory, config, &shared))
    };

    (
        SupervisedTap {
            shared: Arc::clone(&shared),
            offers: 0,
        },
        SupervisedDaemon {
            handle,
            writer,
            shared,
        },
    )
}

/// Supervisor thread body: spawn worker incarnations, poll their liveness,
/// restart on panic (restoring the latest checkpoint) or on stall (bumping
/// the generation), and return the final measurement after a clean drain.
fn supervise<M, F>(
    measurement: M,
    mut factory: F,
    config: SupervisorConfig,
    shared: &Arc<Shared>,
) -> Result<M, (u64, Option<String>)>
where
    M: Recoverable + Send + 'static,
    F: FnMut() -> M + Send + 'static,
{
    let policy = RestartPolicy {
        max_restarts: config.max_restarts,
        base_backoff: config.base_backoff,
        max_backoff: config.max_backoff,
    };
    let spawn_worker = |m: M, generation: u64| -> JoinHandle<M> {
        let shared = Arc::clone(shared);
        let plan = config.fault_plan.clone();
        let checkpoint_every = config.checkpoint_every;
        std::thread::spawn(move || {
            run_worker(m, &shared, generation, plan.as_ref(), checkpoint_every)
        })
    };

    let clock = Arc::clone(&config.clock);
    // A worker incarnation died (its panic message, when it was a string):
    // spawn its replacement from the latest checkpoint, or — budget spent —
    // fail the daemon.
    let mut restart = |last_panic: Option<String>| {
        if let Some(writer) = &shared.writer {
            // The dead worker's last checkpoint may still be persisting: a
            // restart must restore that one, not its predecessor, and a
            // failed daemon's slot must be no older than its newest durable
            // frame, since a promotion restores from the slot alone.
            writer.wait_idle();
        }
        let restarts = shared.tel.restarts.add(1) + 1;
        shared.tel.event(Event::Restart {
            shard: shared.tel.shard,
            restarts,
        });
        match policy.decide(restarts) {
            RestartDecision::Fail => {
                // Budget spent: no more workers. Mark the daemon failed so
                // readers switch to serving the last checkpoint as
                // degraded, then keep draining the ring — every
                // observation the tap keeps offering must still get a fate
                // (popped-but-never-processed = lost).
                shared.failed.store(true, Ordering::Release);
                shared.tel.failed.set(1);
                drain_as_lost(shared);
                return Err((restarts, last_panic));
            }
            RestartDecision::Backoff(wait) => {
                // Exponential backoff: a crash-looping worker must not
                // monopolise the core the datapath runs on.
                clock.sleep(wait);
            }
        }
        let mut replacement = factory();
        if let Some(bytes) = shared.load_checkpoint() {
            if replacement.restore_bytes(&bytes).is_ok() {
                shared.tel.restores.incr();
            }
        }
        // The dead worker is joined, so attaching the replacement to the
        // same ring preserves the single-consumer discipline.
        let generation = shared.generation.load(Ordering::Acquire);
        Ok(spawn_worker(replacement, generation))
    };

    let mut worker = spawn_worker(measurement, 0);
    let mut last_popped = 0u64;
    let mut last_progress = clock.now_ns();
    loop {
        let sink_panic = shared.writer.as_ref().and_then(Writer::take_panic);
        if sink_panic.is_some() || worker.is_finished() {
            let exit = match sink_panic {
                // A sink that panics fails the worker incarnation whose
                // checkpoint it was persisting, as it did when the worker
                // persisted inline: retire that worker (it exits at its
                // next loop iteration) and restart from the last
                // published checkpoint.
                Some(msg) => {
                    shared.generation.fetch_add(1, Ordering::AcqRel);
                    let _ = worker.join();
                    Err(Some(msg))
                }
                None => worker
                    .join()
                    .map_err(|payload| panic_message(payload.as_ref())),
            };
            match exit {
                Ok(m) if shared.stop.load(Ordering::Acquire) && shared.ring.is_empty() => {
                    // The last checkpoint may still be persisting; a sink
                    // panic there fails this incarnation like any other.
                    let sink_panic = shared.writer.as_ref().and_then(|writer| {
                        writer.wait_idle();
                        writer.take_panic()
                    });
                    match sink_panic {
                        None => return Ok(m),
                        Some(msg) => worker = restart(Some(msg))?,
                    }
                }
                Ok(m) => {
                    // Cooperative stall exit: the measurement survived, so
                    // re-attach it directly under the current generation.
                    let generation = shared.generation.load(Ordering::Acquire);
                    worker = spawn_worker(m, generation);
                }
                Err(last_panic) => worker = restart(last_panic)?,
            }
            last_progress = clock.now_ns();
            last_popped = shared.tel.popped.get();
            continue;
        }

        // The supervisor poll doubles as the backlog gauge's refresher:
        // a scrape between polls is at most one check interval stale.
        shared.tel.backlog.set(shared.ring.len() as u64);
        let popped = shared.tel.popped.get();
        let now = clock.now_ns();
        if popped != last_popped {
            last_popped = popped;
            last_progress = now;
        } else if !shared.ring.is_empty()
            && now.saturating_sub(last_progress) >= config.stall_timeout.as_nanos() as u64
        {
            let stalls = shared.tel.stalls.add(1) + 1;
            shared.tel.event(Event::Stall {
                shard: shared.tel.shard,
                stalls,
            });
            shared.generation.fetch_add(1, Ordering::AcqRel);
            last_progress = now;
        }
        clock.sleep(config.check_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::INJECTED_PANIC_MSG;
    use crate::store::CheckpointSink;
    use nitro_core::Mode;
    use nitro_sketches::CountMin;

    fn small_nitro() -> NitroSketch<CountMin> {
        NitroSketch::new(CountMin::new(4, 1024, 7), Mode::Fixed { p: 1.0 }, 5)
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

    #[test]
    fn clean_run_accounts_for_everything() {
        let (mut tap, daemon) = spawn_supervised(
            small_nitro(),
            small_nitro,
            SupervisorConfig {
                checkpoint_every: 5_000,
                // A clean run is one without backpressure: the ring holds
                // the whole stream and the downshift mark is out of reach,
                // however starved the worker is on a loaded host.
                ring_capacity: 1 << 15,
                high_water: 2.0,
                ..Default::default()
            },
        );
        offer_all(&mut tap, (0..20_000u64).map(|i| i % 10));
        let (nitro, health) = daemon.finish().unwrap();
        assert_eq!(health.offered, 20_000);
        assert_eq!(health.unaccounted(), 0);
        assert_eq!(health.restarts, 0);
        assert_eq!(health.lost_in_crash, 0);
        assert!(health.checkpoints >= 1, "initial checkpoint at minimum");
        assert_eq!(health.dropped, 0);
        for f in 0..10u64 {
            assert_eq!(nitro.estimate(f), 2_000.0, "flow {f}");
        }
    }

    #[test]
    fn panic_mid_stream_restarts_and_restores() {
        let plan = ThreadFaultPlan::new();
        plan.panic_after(4_000);
        let (mut tap, daemon) = spawn_supervised(
            small_nitro(),
            small_nitro,
            SupervisorConfig {
                checkpoint_every: 1_000,
                // Backpressure during the restart backoff window must not
                // downshift the sampler: this test's bound assumes exact
                // (p = 1) counting, and drops are already accounted.
                high_water: 1.1,
                fault_plan: Some(plan.clone()),
                ..Default::default()
            },
        );
        offer_all(&mut tap, (0..30_000u64).map(|i| i % 8));
        let (nitro, health) = daemon.finish().unwrap();
        assert_eq!(plan.fired(), 1, "fault fired exactly once");
        assert_eq!(health.restarts, 1);
        assert_eq!(health.restores, 1, "restored from a checkpoint");
        assert_eq!(health.stalls, 0);
        assert_eq!(health.unaccounted(), 0);
        // At most one checkpoint interval + one in-flight batch of updates
        // is missing beyond what the counters already account for (ring
        // drops during the restart backoff window are counted, not lost).
        let total: f64 = (0..8u64).map(|f| nitro.estimate(f)).sum();
        let lost_bound = 1_000.0 + 64.0;
        assert!(
            total >= 30_000.0 - health.lost_in_crash as f64 - health.dropped as f64 - lost_bound,
            "recovered total {total} lost more than a checkpoint interval: {health}"
        );
        assert!(total <= 30_000.0, "Count-Min total cannot exceed offered");
    }

    #[test]
    fn restart_budget_exhaustion_is_an_error_with_health() {
        let plan = ThreadFaultPlan::new();
        plan.panic_after(100);
        let (mut tap, daemon) = spawn_supervised(
            small_nitro(),
            small_nitro,
            SupervisorConfig {
                max_restarts: 0,
                fault_plan: Some(plan),
                ..Default::default()
            },
        );
        offer_all(&mut tap, 0..2_000u64);
        let err = daemon.finish().unwrap_err();
        match err {
            SupervisorError::RestartBudgetExhausted {
                restarts,
                last_panic,
                health,
            } => {
                assert_eq!(restarts, 1);
                assert_eq!(last_panic.as_deref(), Some(INJECTED_PANIC_MSG));
                assert!(health.restarts >= 1);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn stall_watchdog_forces_cooperative_restart() {
        /// A measurement that takes a scheduler-visible pause per packet,
        /// long enough for the watchdog to declare a stall while the ring
        /// still holds a backlog.
        struct Molasses {
            seen: u64,
        }
        impl Measurement for Molasses {
            fn on_packet(&mut self, _key: FlowKey, _ts: u64, _w: f64) {
                self.seen += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        impl Recoverable for Molasses {
            fn checkpoint_into(&self, out: &mut Vec<u8>, _dirty: Option<&DirtyLines>) {
                out.clear();
                out.extend_from_slice(&self.seen.to_le_bytes());
            }
            fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(bytes);
                self.seen = u64::from_le_bytes(raw);
                Ok(())
            }
        }
        let (mut tap, daemon) = spawn_supervised(
            Molasses { seen: 0 },
            || Molasses { seen: 0 },
            SupervisorConfig {
                ring_capacity: 1 << 10,
                stall_timeout: Duration::from_millis(40),
                check_interval: Duration::from_millis(2),
                ..Default::default()
            },
        );
        // A backlog of 150 keeps the ring non-empty across the first
        // 64-observation batch (~128 ms of processing), so the watchdog
        // sees a non-empty ring with a frozen progress counter.
        for i in 0..150u64 {
            tap.offer(i, i);
        }
        let (m, health) = daemon.finish().unwrap();
        assert!(health.stalls >= 1, "watchdog never fired: {health}");
        assert_eq!(health.restarts, 0, "a stall is not a panic restart");
        assert_eq!(m.seen, 150, "cooperative restart keeps the measurement");
        assert_eq!(health.unaccounted(), 0);
    }

    #[test]
    fn stall_watchdog_runs_on_virtual_time() {
        use crate::clock::SimClock;

        /// Blocks inside the first `on_packet` until released, freezing
        /// the progress counter while the ring still holds a backlog.
        struct Gate {
            rx: Option<std::sync::mpsc::Receiver<()>>,
            seen: u64,
        }
        impl Measurement for Gate {
            fn on_packet(&mut self, _key: FlowKey, _ts: u64, _w: f64) {
                if let Some(rx) = self.rx.take() {
                    let _ = rx.recv();
                }
                self.seen += 1;
            }
        }
        impl Recoverable for Gate {
            fn checkpoint_into(&self, out: &mut Vec<u8>, _dirty: Option<&DirtyLines>) {
                out.clear();
                out.extend_from_slice(&self.seen.to_le_bytes());
            }
            fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(bytes);
                self.seen = u64::from_le_bytes(raw);
                Ok(())
            }
        }

        let clock = Arc::new(SimClock::new());
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (mut tap, daemon) = spawn_supervised(
            Gate {
                rx: Some(gate),
                seen: 0,
            },
            || Gate { rx: None, seen: 0 },
            SupervisorConfig {
                ring_capacity: 256,
                // Ten *virtual* seconds: under the system clock this test
                // would take 10 s of wall time; under SimClock the
                // supervisor's own polling advances time, so the stall
                // fires in milliseconds.
                stall_timeout: Duration::from_secs(10),
                check_interval: Duration::from_millis(1),
                clock: clock.clone(),
                ..Default::default()
            },
        );
        for i in 0..100u64 {
            tap.offer(i, i);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.telemetry().health().stalls == 0 {
            assert!(
                Instant::now() < deadline,
                "virtual-time watchdog never fired"
            );
            std::thread::yield_now();
        }
        assert!(
            clock.now_ns() >= Duration::from_secs(10).as_nanos() as u64,
            "stall declared before the virtual timeout elapsed"
        );
        release.send(()).unwrap();
        let (m, health) = daemon.finish().unwrap();
        assert!(health.stalls >= 1);
        assert_eq!(health.restarts, 0, "a stall is not a panic restart");
        assert_eq!(m.seen, 100, "cooperative restart keeps the measurement");
        assert_eq!(health.unaccounted(), 0);
    }

    #[test]
    fn restart_backoff_schedule_is_exponential_with_cap() {
        // Pure policy + a mock clock: no threads, no sleeps, the whole
        // schedule checked deterministically.
        let policy = RestartPolicy {
            max_restarts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
        };
        let mut clock_ms = 0u64;
        let mut waits = Vec::new();
        let mut nth = 0u64;
        loop {
            nth += 1;
            match policy.decide(nth) {
                RestartDecision::Backoff(d) => {
                    clock_ms += d.as_millis() as u64;
                    waits.push(d.as_millis() as u64);
                }
                RestartDecision::Fail => break,
            }
        }
        assert_eq!(
            waits,
            vec![10, 20, 40, 80, 100, 100],
            "doubling from base, clamped at the cap"
        );
        assert_eq!(clock_ms, 350, "total mock-clock wall time of the schedule");
        assert_eq!(nth, 7, "the 7th panic exceeds a budget of 6");
        // Deep restart counts must not overflow the doubling.
        assert_eq!(policy.backoff_for(1_000), Duration::from_millis(100));
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
    }

    mod backoff_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Doubling never overflows `Duration` and always clamps to the
            /// cap, for restart counts far beyond any real budget (the
            /// mock-clock test above only walks the first few restarts).
            #[test]
            fn backoff_never_overflows_and_clamps(
                restarts in 0u64..u64::MAX,
                base_ms in 1u64..10_000,
                cap_ms in 1u64..600_000,
            ) {
                let policy = RestartPolicy {
                    max_restarts: 8,
                    base_backoff: Duration::from_millis(base_ms),
                    max_backoff: Duration::from_millis(cap_ms),
                };
                let d = policy.backoff_for(restarts);
                prop_assert!(
                    d <= policy.max_backoff,
                    "backoff {d:?} above cap {:?} at restarts={restarts}",
                    policy.max_backoff
                );
                if restarts >= 1 {
                    prop_assert!(
                        d >= policy.base_backoff.min(policy.max_backoff),
                        "backoff {d:?} below base at restarts={restarts}"
                    );
                }
                // Monotone in the restart count: more panics never wait less.
                prop_assert!(d <= policy.backoff_for(restarts.saturating_add(1)));
            }
        }
    }

    #[test]
    fn exhausted_budget_marks_failed_serves_degraded_and_keeps_accounting() {
        let plan = ThreadFaultPlan::new();
        plan.panic_after(2_000);
        let (mut tap, daemon) = spawn_supervised(
            small_nitro(),
            small_nitro,
            SupervisorConfig {
                checkpoint_every: 500,
                max_restarts: 0,
                fault_plan: Some(plan),
                ..Default::default()
            },
        );
        offer_all(&mut tap, (0..20_000u64).map(|i| i % 4));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !daemon.is_failed() {
            assert!(
                Instant::now() < deadline,
                "budget exhaustion never observed"
            );
            std::thread::yield_now();
        }
        // Read-side behaviour of a dead shard: the last checkpoint is
        // still served, immediately, flagged as degraded.
        let view = daemon
            .checkpoint_now(Duration::from_secs(1))
            .expect("failed daemon still serves its last checkpoint");
        assert!(view.degraded, "failure must be visible on the view");
        assert!(!view.fresh, "a dead worker cannot produce a fresh snapshot");
        // Producer-side behaviour: offers after the failure must neither
        // block nor vanish from the accounting.
        offer_all(&mut tap, (0..5_000u64).map(|i| i % 4));
        match daemon.finish().unwrap_err() {
            SupervisorError::RestartBudgetExhausted {
                restarts, health, ..
            } => {
                assert_eq!(restarts, 1);
                assert_eq!(health.offered, 25_000);
                assert_eq!(
                    health.unaccounted(),
                    0,
                    "failed-mode draining must keep the identity: {health}"
                );
                assert!(health.lost_in_crash > 0, "post-failure offers are lost");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn checkpoints_flow_through_the_durable_sink() {
        struct Recording(Mutex<Vec<(u64, u64, usize)>>);
        impl CheckpointSink for Recording {
            fn persist(&self, seq: u64, processed_at: u64, bytes: &[u8]) -> std::io::Result<()> {
                self.0
                    .lock()
                    .unwrap()
                    .push((seq, processed_at, bytes.len()));
                Ok(())
            }
        }

        let recorder = Arc::new(Recording(Mutex::new(Vec::new())));
        let (mut tap, daemon) = spawn_supervised(
            small_nitro(),
            small_nitro,
            SupervisorConfig {
                checkpoint_every: 1_000,
                sink: Some(SinkHandle(Arc::clone(&recorder) as Arc<dyn CheckpointSink>)),
                ..Default::default()
            },
        );
        offer_all(&mut tap, (0..10_000u64).map(|i| i % 8));
        let (_, health) = daemon.finish().unwrap();
        assert_eq!(
            health.persisted, health.checkpoints,
            "an always-ok sink persists every checkpoint"
        );
        let records = recorder.0.lock().unwrap();
        assert_eq!(records.len() as u64, health.persisted);
        assert_eq!(
            records[0],
            (1, 0, records[0].2),
            "pristine state persists first"
        );
        assert!(
            records.windows(2).all(|w| w[0].0 < w[1].0),
            "sequence numbers strictly increase"
        );
        assert!(
            records.windows(2).all(|w| w[0].1 <= w[1].1),
            "processed-at never goes backwards"
        );
    }

    /// A sink that acknowledges every checkpoint at once.
    struct AlwaysOk;
    impl CheckpointSink for AlwaysOk {
        fn persist(&self, _seq: u64, _at: u64, _bytes: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn an_on_demand_checkpoint_restarts_the_periodic_countdown() {
        // Inline (no sink) and through the writer: the same count.
        for sink in [None, Some(SinkHandle(Arc::new(AlwaysOk)))] {
            let with_writer = sink.is_some();
            let (mut tap, daemon) = spawn_supervised(
                small_nitro(),
                small_nitro,
                SupervisorConfig {
                    checkpoint_every: 1_000,
                    high_water: 2.0,
                    sink,
                    ..Default::default()
                },
            );
            let mut offered = 0u64;
            let mut offer_to = |tap: &mut SupervisedTap, total: u64| {
                for i in offered..total {
                    tap.offer(i % 8, i);
                }
                offered = total;
                wait_until("the worker to catch up", || daemon.processed() == total);
                // Whatever the worker handed over is published by now.
                wait_until("the writer to go idle", || daemon.shared.writer_idle());
            };
            offer_to(&mut tap, 960);
            let view = daemon.checkpoint_now(Duration::from_secs(30)).unwrap();
            assert!(view.fresh && view.processed_at == 960);
            assert_eq!(daemon.health().checkpoints, 2, "pristine + on demand");
            // 960 since the on-demand one: nothing is due yet. (Counting
            // from the pristine one, 1 920 would have been due at 1 000.)
            offer_to(&mut tap, 1_920);
            assert_eq!(
                daemon.health().checkpoints,
                2,
                "a redundant periodic checkpoint followed the on-demand one (writer: {with_writer})"
            );
            offer_to(&mut tap, 2_000);
            wait_until("the periodic checkpoint", || {
                daemon.health().checkpoints == 3
            });
            let (_, health) = daemon.finish().unwrap();
            assert_eq!(health.checkpoints, 3);
            assert_eq!(health.unaccounted(), 0);
        }
    }

    #[test]
    fn blocked_disk_never_stops_measurement() {
        use crate::faults::DiskFaultPlan;
        use crate::pipeline::{spawn_sharded, PipelineConfig};
        use crate::store::{CheckpointStore, StoreConfig};

        let dir = std::env::temp_dir().join(format!(
            "nitro-supervisor-blocked-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = DiskFaultPlan::new();
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default())
            .unwrap()
            .with_fault_plan(plan.clone());
        let snapshot_timeout = Duration::from_millis(100);
        let (mut tap, mut pipeline) = spawn_sharded(
            |_| small_nitro(),
            PipelineConfig {
                shards: 1,
                supervisor: SupervisorConfig {
                    checkpoint_every: 1_000,
                    // The ring holds the whole stream: nothing is dropped.
                    ring_capacity: 1 << 15,
                    high_water: 2.0,
                    ..Default::default()
                },
                snapshot_timeout,
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        let tel = Arc::clone(pipeline.shards()[0].telemetry());
        assert_eq!(
            tel.persisted.get(),
            1,
            "the pristine state persists at spawn"
        );

        // Twenty checkpoint intervals against a disk that never answers.
        plan.block_appends();
        let offered = 20_000u64;
        for i in 0..offered {
            tap.offer(i % 8, i);
            if i % 512 == 0 {
                std::thread::yield_now();
            }
        }
        wait_until("the worker to process every offer", || {
            pipeline.processed() == offered
        });
        let health = tel.health();
        assert_eq!(health.stalls, 0, "a slow disk is not a stalled worker");
        assert_eq!(health.persisted, 1, "nothing more became durable");
        assert_eq!(health.checkpoints, 1, "nothing is published unpersisted");
        assert_eq!(tel.persist_lag(), offered);

        // The query plane answers on time, from the last durable state,
        // and says how far behind that is.
        let asked = Instant::now();
        let view = pipeline.epoch_view().unwrap();
        assert!(
            asked.elapsed() < snapshot_timeout + Duration::from_secs(2),
            "epoch view waited on the disk: {:?}",
            asked.elapsed()
        );
        let stale = view.staleness()[0];
        assert!(!stale.fresh);
        assert_eq!(stale.processed_at, 0, "served from the pristine state");
        assert!(stale.bound() >= tel.persist_lag());
        assert_eq!(view.estimate(0), 0.0);

        // Released, the held checkpoint lands, then the one answering the
        // view's request covers everything.
        plan.release();
        wait_until("persist to catch up", || tel.persist_lag() == 0);
        assert!(tel.persisted.get() >= 2);
        let view = pipeline.epoch_view().unwrap();
        let stale = view.staleness()[0];
        assert!(stale.fresh);
        assert_eq!(stale.bound(), 0);
        assert_eq!(view.estimate(0), (offered / 8) as f64);
        drop(tap);
        let (_, fleet) = pipeline.finish().unwrap();
        assert_eq!(fleet.unaccounted(), 0);
        assert_eq!(fleet.total().stalls, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_checkpoint_is_visible_before_its_persist_returned() {
        /// Counts observations; every checkpoint carries a fresh serial.
        struct Serial {
            seen: u64,
            encoded: AtomicU64,
        }
        impl Measurement for Serial {
            fn on_packet(&mut self, _key: FlowKey, _ts: u64, _w: f64) {
                self.seen += 1;
            }
        }
        impl Recoverable for Serial {
            fn checkpoint_into(&self, out: &mut Vec<u8>, _dirty: Option<&DirtyLines>) {
                out.clear();
                let serial = self.encoded.fetch_add(1, Ordering::Relaxed) + 1;
                out.extend_from_slice(&serial.to_le_bytes());
                out.extend_from_slice(&self.seen.to_le_bytes());
            }
            fn restore_bytes(&mut self, _bytes: &[u8]) -> Result<(), CheckpointError> {
                Ok(())
            }
        }
        fn serial(bytes: &[u8]) -> u64 {
            u64::from_le_bytes(bytes[..8].try_into().unwrap())
        }
        /// Records a checkpoint's serial as its persist returns, after a
        /// pause that widens any window in which it could show early.
        struct Durable(Mutex<std::collections::HashSet<u64>>);
        impl CheckpointSink for Durable {
            fn persist(&self, _seq: u64, _at: u64, bytes: &[u8]) -> std::io::Result<()> {
                std::thread::sleep(Duration::from_micros(200));
                self.0.lock().unwrap().insert(serial(bytes));
                Ok(())
            }
        }

        let durable = Arc::new(Durable(Mutex::new(Default::default())));
        let blank = || Serial {
            seen: 0,
            encoded: AtomicU64::new(0),
        };
        let (mut tap, daemon) = spawn_supervised(
            blank(),
            blank,
            SupervisorConfig {
                checkpoint_every: 64,
                high_water: 2.0,
                sink: Some(SinkHandle(Arc::clone(&durable) as Arc<dyn CheckpointSink>)),
                ..Default::default()
            },
        );
        let is_durable =
            |view: &CheckpointView| durable.0.lock().unwrap().contains(&serial(&view.bytes));
        const OFFERS: u64 = 20_000;
        let producer = std::thread::spawn(move || {
            for i in 0..OFFERS {
                tap.offer(i, i);
                if i % 256 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut answered = 0;
        let drained = AtomicBool::new(false);
        std::thread::scope(|s| {
            // The slot, polled without pause: sees every publish.
            s.spawn(|| {
                while !drained.load(Ordering::Acquire) {
                    let latest = daemon.latest_checkpoint().unwrap();
                    assert!(
                        is_durable(&latest),
                        "the slot showed an unpersisted checkpoint"
                    );
                    std::thread::yield_now();
                }
            });
            // On-demand requests: an ack only ever follows the persist.
            while !producer.is_finished() || daemon.health().unaccounted() != 0 {
                let asked_at = daemon.processed();
                let view = daemon.checkpoint_now(Duration::from_millis(20)).unwrap();
                assert!(is_durable(&view), "a view showed an unpersisted checkpoint");
                if view.fresh {
                    assert!(view.processed_at >= asked_at, "acked with an older state");
                    answered += 1;
                }
            }
            drained.store(true, Ordering::Release);
        });
        producer.join().unwrap();
        let (_, health) = daemon.finish().unwrap();
        assert!(answered > 0, "no on-demand request was answered");
        assert_eq!(health.persisted, health.checkpoints);
        assert_eq!(health.unaccounted(), 0);
    }

    #[test]
    fn a_panicking_sink_fails_the_worker_incarnation() {
        /// Panics on its second persist: the first periodic checkpoint.
        struct Exploding(AtomicU64);
        impl CheckpointSink for Exploding {
            fn persist(&self, _seq: u64, _at: u64, _bytes: &[u8]) -> std::io::Result<()> {
                if self.0.fetch_add(1, Ordering::Relaxed) == 1 {
                    panic!("sink exploded");
                }
                Ok(())
            }
        }

        // A sink panic, then a worker panic: with a budget of one the
        // second spends it, with a budget of eight the daemon recovers.
        for max_restarts in [1, 8] {
            let plan = ThreadFaultPlan::new();
            let (mut tap, daemon) = spawn_supervised(
                small_nitro(),
                small_nitro,
                SupervisorConfig {
                    checkpoint_every: 1_000,
                    high_water: 2.0,
                    max_restarts,
                    sink: Some(SinkHandle(Arc::new(Exploding(AtomicU64::new(0))))),
                    fault_plan: Some(plan.clone()),
                    ..Default::default()
                },
            );
            offer_all(&mut tap, (0..1_500u64).map(|i| i % 8));
            wait_until("the sink panic to restart the worker", || {
                daemon.health().restores == 1
            });
            let health = daemon.health();
            assert_eq!(health.restarts, 1, "restarted from the pristine state");
            assert_eq!(health.persisted, 1);
            assert_eq!(
                health.checkpoints, 1,
                "the panicked checkpoint is unpublished"
            );

            plan.panic_after(100);
            offer_all(&mut tap, (0..500u64).map(|i| i % 8));
            // A writer left busy by the sink panic would hang the worker
            // panic's restart, and so this.
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || done.send(daemon.finish()).unwrap());
            let finished = finished
                .recv_timeout(Duration::from_secs(60))
                .expect("finish hung after a sink panic");
            let health = match (max_restarts, finished) {
                (8, Ok((_, health))) => {
                    assert_eq!(health.restores, 2);
                    health
                }
                (
                    1,
                    Err(SupervisorError::RestartBudgetExhausted {
                        restarts,
                        last_panic,
                        health,
                    }),
                ) => {
                    assert_eq!(restarts, 2);
                    assert_eq!(last_panic.as_deref(), Some(INJECTED_PANIC_MSG));
                    health
                }
                (_, Ok(_)) => panic!("budget {max_restarts}: finished cleanly"),
                (_, Err(other)) => panic!("budget {max_restarts}: {other}"),
            };
            assert_eq!(plan.fired(), 1);
            assert_eq!(health.restarts, 2, "the sink's panic and the worker's");
            assert_eq!(health.offered, 2_000);
            assert_eq!(health.unaccounted(), 0);
            assert_eq!(health.persisted, health.checkpoints);
        }
    }

    #[test]
    fn a_sink_panic_alone_can_spend_the_budget() {
        struct Exploding;
        impl CheckpointSink for Exploding {
            fn persist(&self, seq: u64, _at: u64, _bytes: &[u8]) -> std::io::Result<()> {
                assert!(seq == 1, "sink exploded");
                Ok(())
            }
        }
        let (mut tap, daemon) = spawn_supervised(
            small_nitro(),
            small_nitro,
            SupervisorConfig {
                checkpoint_every: 1_000,
                high_water: 2.0,
                max_restarts: 0,
                sink: Some(SinkHandle(Arc::new(Exploding))),
                ..Default::default()
            },
        );
        offer_all(&mut tap, (0..1_500u64).map(|i| i % 8));
        wait_until("the daemon to fail", || daemon.is_failed());
        let view = daemon.checkpoint_now(Duration::from_secs(1)).unwrap();
        assert!(view.degraded && view.processed_at == 0);
        match daemon.finish().unwrap_err() {
            SupervisorError::RestartBudgetExhausted {
                restarts,
                last_panic,
                health,
            } => {
                assert_eq!(restarts, 1);
                assert_eq!(
                    last_panic.as_deref(),
                    Some("checkpoint sink: sink exploded")
                );
                assert_eq!(health.unaccounted(), 0);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn backpressure_requests_downshift_instead_of_only_dropping() {
        // Tiny ring + Fixed mode: the tap must cross the high-water mark
        // and the worker must honour the request by lowering p.
        let nitro = || NitroSketch::new(CountMin::new(4, 1024, 7), Mode::Fixed { p: 1.0 }, 5);
        let (mut tap, daemon) = spawn_supervised(
            nitro(),
            nitro,
            SupervisorConfig {
                ring_capacity: 1 << 7,
                high_water: 0.5,
                ..Default::default()
            },
        );
        // Flood without yielding: the ring saturates, occupancy crosses
        // the mark, and the 64-offer cadence observes it.
        for i in 0..50_000u64 {
            tap.offer(i % 16, i);
        }
        let (nitro, health) = daemon.finish().unwrap();
        assert!(
            health.downshifts >= 1,
            "no downshift under sustained overload: {health}"
        );
        assert!(nitro.p() < 1.0, "sampling probability did not drop");
        assert_eq!(health.unaccounted(), 0, "every observation accounted");
        assert_eq!(
            health.offered,
            health.processed + health.dropped + health.lost_in_crash
        );
    }
}
