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
//!    never blocks and never reconnects. Recovery error is bounded by one
//!    checkpoint interval plus one in-flight batch.
//! 2. **Checkpoints periodically.** Every `checkpoint_every` consumed
//!    observations the worker serialises the measurement (via
//!    [`Recoverable::checkpoint_into`], the byte codec from
//!    `nitro_sketches::checkpoint`) into a spare buffer and swaps it with
//!    the shared slot; the displaced buffer is the next spare, so the
//!    steady state allocates nothing. Readers share the slot by refcount.
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
use crate::store::SinkHandle;
use nitro_core::NitroSketch;
use nitro_metrics::telemetry::{Event, MeasurementGauges, ShardTelemetry};
use nitro_metrics::DaemonHealth;
use nitro_sketches::checkpoint::CheckpointError;
use nitro_sketches::{Checkpoint, FlowKey, RowSketch};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    fn checkpoint_into(&self, out: &mut Vec<u8>);

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
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.snapshot_into(out);
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
    /// through it before it is published in memory.
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
    /// Coordinator-side on-demand snapshot requests; the worker stores a
    /// fresh checkpoint and acknowledges via `snapshot_acks`.
    snapshot_requests: AtomicU64,
    snapshot_acks: AtomicU64,
    /// `processed` at the moment the stored checkpoint was taken — the
    /// basis of the query plane's per-shard staleness bound.
    checkpoint_processed: AtomicU64,
    /// The latest checkpoint. Readers clone the `Arc`, never the bytes;
    /// the worker swaps whole buffers in (see `store_checkpoint`).
    checkpoint: Mutex<Option<Arc<Vec<u8>>>>,
    high_water: f64,
}

impl Shared {
    fn new(ring_capacity: usize, high_water: f64, tel: Arc<ShardTelemetry>) -> Self {
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
            high_water,
        }
    }

    /// Persist a checkpoint through the durable sink (when one is
    /// configured), then publish it in the in-memory slot. Durability
    /// comes first: a crash between the two steps loses only the
    /// in-memory copy, which recovery rebuilds from disk anyway. A sink
    /// error is counted by omission (`checkpoints - persisted`) and the
    /// worker simply retries at its next checkpoint. Returns the buffer
    /// the slot held before, for the caller to encode its next checkpoint
    /// into.
    fn publish_checkpoint(
        &self,
        bytes: Vec<u8>,
        processed_at: u64,
        sink: Option<&SinkHandle>,
    ) -> Vec<u8> {
        if let Some(sink) = sink {
            let seq = self.tel.checkpoints.get() + 1;
            let started = Instant::now();
            if sink.persist(seq, processed_at, &bytes).is_ok() {
                self.tel
                    .persist_ns
                    .record(started.elapsed().as_nanos() as u64);
                self.tel.persisted.incr();
                self.tel.event(Event::CheckpointPersisted {
                    shard: self.tel.shard,
                    seq,
                    processed_at,
                });
            }
        }
        self.store_checkpoint(bytes, processed_at)
    }

    /// Swap `bytes` into the slot and hand back the displaced buffer —
    /// unless a reader still holds it, in which case the reader keeps its
    /// bytes unchanged and the caller gets a fresh, empty one.
    fn store_checkpoint(&self, bytes: Vec<u8>, processed_at: u64) -> Vec<u8> {
        let mut slot = self
            .checkpoint
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let displaced = slot.replace(Arc::new(bytes));
        self.checkpoint_processed
            .store(processed_at, Ordering::Release);
        self.tel.checkpoints.incr();
        drop(slot);
        displaced
            .and_then(|shared| Arc::try_unwrap(shared).ok())
            .unwrap_or_default()
    }

    fn load_checkpoint(&self) -> Option<Arc<Vec<u8>>> {
        self.checkpoint
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Load the stored checkpoint together with the `processed` count it
    /// was taken at (read under the same lock ordering: bytes first, then
    /// the release-published counter).
    fn load_checkpoint_with_processed(&self) -> Option<(Arc<Vec<u8>>, u64)> {
        let slot = self
            .checkpoint
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        slot.clone()
            .map(|bytes| (bytes, self.checkpoint_processed.load(Ordering::Acquire)))
    }

    fn health(&self) -> DaemonHealth {
        self.tel.health()
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
    /// Observations processed when this checkpoint was taken.
    pub processed_at: u64,
    /// Observations processed since the checkpoint — updates this view has
    /// not seen yet. With a fresh on-demand snapshot this is at most the
    /// worker's in-flight batch.
    pub lag: u64,
    /// Observations still queued in the ring at capture time.
    pub backlog: u64,
    /// Whether the worker acknowledged the on-demand request in time. When
    /// `false` the view is the latest *periodic* checkpoint (the worker
    /// was crashed or mid-restart), bounded by one checkpoint interval.
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
/// turn owns the current worker incarnation.
pub struct SupervisedDaemon<M: Recoverable + Send + 'static> {
    handle: JoinHandle<Result<M, (u64, Option<String>)>>,
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
    /// by up to one checkpoint interval plus the ring backlog. `None` only
    /// before [`spawn_supervised`] stored the pristine snapshot (i.e.
    /// never, for a daemon obtained from that constructor).
    pub fn latest_checkpoint(&self) -> Option<CheckpointView> {
        let (bytes, processed_at) = self.shared.load_checkpoint_with_processed()?;
        let processed = self.shared.tel.processed.get();
        Some(CheckpointView {
            bytes,
            processed_at,
            lag: processed.saturating_sub(processed_at),
            backlog: self.backlog(),
            fresh: false,
            degraded: self.is_failed(),
        })
    }

    /// Ask the worker for an on-demand checkpoint and wait up to `timeout`
    /// for it; falls back to the latest periodic checkpoint (with
    /// `fresh == false` and the correspondingly larger staleness numbers)
    /// when the worker does not acknowledge in time — a crashed shard still
    /// serves its last known-good state.
    pub fn checkpoint_now(&self, timeout: Duration) -> Option<CheckpointView> {
        if self.is_failed() {
            // No worker will ever acknowledge: skip the wait and serve the
            // last durable state immediately, flagged as degraded.
            return self.latest_checkpoint();
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
        let mut view = self.latest_checkpoint()?;
        view.fresh = fresh;
        Some(view)
    }

    /// Signal stop, let the worker drain the ring, and return the final
    /// measurement together with the run's health record.
    pub fn finish(self) -> Result<(M, DaemonHealth), SupervisorError> {
        self.shared.stop.store(true, Ordering::Release);
        match self.handle.join() {
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
    sink: Option<&SinkHandle>,
) -> M {
    let mut buf = [Observation { key: 0, ts_ns: 0 }; 64];
    let mut idle_spins = 0u32;
    let mut since_checkpoint = 0u64;
    // The buffer the next checkpoint is encoded into; every publish swaps
    // it for the one the slot held, so two buffers circulate.
    let mut spare = Vec::new();
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
        let snap_requests = shared.snapshot_requests.load(Ordering::Acquire);
        let snap_acks = shared.snapshot_acks.load(Ordering::Acquire);
        if snap_requests > snap_acks {
            // On-demand epoch snapshot: serialize the current state so the
            // query plane's staleness collapses to the in-flight batch. One
            // checkpoint satisfies every request queued so far.
            m.checkpoint_into(&mut spare);
            spare = shared.publish_checkpoint(spare, shared.tel.processed.get(), sink);
            shared.snapshot_acks.store(snap_requests, Ordering::Release);
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
        if since_checkpoint >= checkpoint_every {
            since_checkpoint = 0;
            m.checkpoint_into(&mut spare);
            spare = shared.publish_checkpoint(spare, shared.tel.processed.get(), sink);
            publish_gauges(&m, &shared.tel);
            if let Some(plan) = plan {
                // Fault-injection point for replication: the checkpoint
                // (and, with a replica sink, the delta frame) is already
                // published, so a panic here kills the primary
                // mid-delta-stream — the standby holds this very delta
                // while the primary dies before processing anything more.
                plan.check_checkpoint();
            }
        }
    }
    publish_gauges(&m, &shared.tel);
    m
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
    let shared = Arc::new(Shared::new(config.ring_capacity, config.high_water, tel));
    // Checkpoint the pristine state up front: a panic before the first
    // periodic checkpoint restores to "empty but correctly configured"
    // rather than to nothing — and with a sink, a process crash before the
    // first periodic checkpoint recovers the same way from disk.
    let mut pristine = Vec::new();
    measurement.checkpoint_into(&mut pristine);
    shared.publish_checkpoint(pristine, 0, config.sink.as_ref());

    let handle = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || supervise(measurement, factory, config, &shared))
    };

    (
        SupervisedTap {
            shared: Arc::clone(&shared),
            offers: 0,
        },
        SupervisedDaemon { handle, shared },
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
        let sink = config.sink.clone();
        std::thread::spawn(move || {
            run_worker(
                m,
                &shared,
                generation,
                plan.as_ref(),
                checkpoint_every,
                sink.as_ref(),
            )
        })
    };

    let clock = Arc::clone(&config.clock);
    let mut worker = spawn_worker(measurement, 0);
    let mut last_popped = 0u64;
    let mut last_progress = clock.now_ns();
    loop {
        if worker.is_finished() {
            match worker.join() {
                Ok(m) => {
                    if shared.stop.load(Ordering::Acquire) && shared.ring.is_empty() {
                        return Ok(m);
                    }
                    // Cooperative stall exit: the measurement survived, so
                    // re-attach it directly under the current generation.
                    let generation = shared.generation.load(Ordering::Acquire);
                    worker = spawn_worker(m, generation);
                }
                Err(payload) => {
                    let last_panic = panic_message(payload.as_ref());
                    let restarts = shared.tel.restarts.add(1) + 1;
                    shared.tel.event(Event::Restart {
                        shard: shared.tel.shard,
                        restarts,
                    });
                    match policy.decide(restarts) {
                        RestartDecision::Fail => {
                            // Budget spent: no more workers. Mark the
                            // daemon failed so readers switch to serving
                            // the last checkpoint as degraded, then keep
                            // draining the ring — every observation the
                            // tap keeps offering must still get a fate
                            // (popped-but-never-processed = lost).
                            shared.failed.store(true, Ordering::Release);
                            shared.tel.failed.set(1);
                            drain_as_lost(shared);
                            return Err((restarts, last_panic));
                        }
                        RestartDecision::Backoff(wait) => {
                            // Exponential backoff: a crash-looping worker
                            // must not monopolise the core the datapath
                            // runs on.
                            clock.sleep(wait);
                        }
                    }
                    let mut replacement = factory();
                    if let Some(bytes) = shared.load_checkpoint() {
                        if replacement.restore_bytes(&bytes).is_ok() {
                            shared.tel.restores.incr();
                        }
                    }
                    // The panicked worker is dead, so attaching the
                    // replacement to the same ring preserves the
                    // single-consumer discipline.
                    let generation = shared.generation.load(Ordering::Acquire);
                    worker = spawn_worker(replacement, generation);
                }
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
            fn checkpoint_into(&self, out: &mut Vec<u8>) {
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
            fn checkpoint_into(&self, out: &mut Vec<u8>) {
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
        use crate::store::{CheckpointSink, SinkHandle};

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
        fn checkpoint_into(&self, out: &mut Vec<u8>) {
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
