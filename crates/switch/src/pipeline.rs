//! Sharded multi-core measurement pipeline with an epoch-merged query
//! plane, zero-downtime failover, and online resharding.
//!
//! The paper's headline results (§6, Figs. 8–10) run NitroSketch on
//! multi-core software switches where a single core cannot keep up with
//! 40 GbE line rate. This module is the missing scale-out layer over the
//! supervised daemon: an RSS-style dispatcher hashes every flow key
//! (xxHash64, the same family `nitro-hash` uses inside the sketches) onto
//! one of N worker shards. Each shard owns its own SPSC ring and its own
//! per-core [`NitroSketch`] consumer wrapped in the PR-1 supervisor, so a
//! crash on one shard recovers from *that shard's* checkpoint while its
//! siblings keep draining their rings untouched.
//!
//! **Query plane.** Counter-array sketches are linear, so the coordinator
//! answers global queries by merging per-shard state: at each epoch it
//! snapshots every shard through the checkpoint codec (on-demand, so the
//! staleness collapses to the in-flight batch) and folds each image
//! straight into one global sketch with [`NitroSketch::merge_image`] — one
//! pass over the counters per shard, no sketch restored — so point,
//! heavy-hitter, and L2 queries run on the merged view. Every view
//! carries a per-shard [`ShardStaleness`] record; the sum of the per-shard
//! bounds bounds the observations missing from the whole view.
//!
//! **Failover.** With [`PipelineConfig::failover`] set, when a shard's
//! restart budget is spent — or its health probe trips the per-shard
//! [`CircuitBreaker`] — the coordinator *promotes* the shard inside one
//! epoch rotation: it restores a fresh factory-built sketch from the state
//! an epoch view would merge for that shard (a failed daemon's last
//! published checkpoint, which its supervisor already holds), spawns a
//! supervised daemon around it, and atomically re-steers the dispatcher's
//! flow slice to the new ring. Queries keep answering with a bounded
//! [`ShardStaleness`] instead of a degraded flag: promotion costs at most
//! one checkpoint interval of state, never availability, and nothing runs
//! for it until a shard fails.
//!
//! **Online resharding.** [`ShardedPipeline::rescale`] rides the same
//! re-steering machinery to grow or shrink the fleet while it runs: new
//! shards spin up blank, the dispatcher re-routes whole flows at a version
//! boundary, and old shards drain epoch-by-epoch — their final sketches
//! fold into a retained *carryover* so no packet is dropped or counted
//! twice across the transition.
//!
//! **Why flow-level sharding keeps queries exact.** The dispatcher hashes
//! the flow key, so one flow's packets all land on one shard — no flow is
//! split across sketches. A globally heavy flow is therefore exactly as
//! heavy inside its own shard, its shard's top-k tracker sees it, and the
//! merged view re-scores it on the merged counters: recall matches the
//! unsharded sketch within the same ε, while each shard's collision noise
//! only *shrinks* (each sketch absorbs 1/N of the traffic).
//!
//! **Fleet accounting.** Each shard maintains `offered == processed +
//! dropped + lost_in_crash` over its slice; [`FleetHealth`] sums live and
//! retired records alike, so the identity holds fleet-wide — across
//! promotions, rescales, and seed rotations — and silent loss anywhere in
//! the fleet surfaces as a non-zero unaccounted count.
//!
//! **Adversarial hardening.** A leaked sketch seed lets an attacker craft
//! keys that collide in one cell per row, destroying the error bound
//! without tripping any throughput alarm. With
//! [`PipelineConfig::skew_policy`] set, every epoch rotation measures each
//! shard's per-row collision skew (`nitro_core::anomaly`), exports it as
//! the `nitro_skew_load_factor` / `nitro_sign_bias` gauges, and journals
//! an `AnomalousSkew` event when the policy trips.
//! [`ShardedPipeline::rotate_seeds`] answers online: the whole fleet is
//! respawned around fresh hash seeds (riding the rescale re-steer
//! machinery), tracked heavy keys carry across at their decoded estimates
//! — bit-exact counter merges are impossible between seed spaces — and
//! the old shards drain and fold the same way. With
//! `SkewPolicy::auto_rotate` and a reseed hook installed
//! ([`ShardedPipeline::set_reseed`]), detection triggers rotation with no
//! operator in the loop.

use crate::faults::ThreadFaultPlan;
use crate::ovs::Measurement;
use crate::shard::{Shard, ShardStaleness};
use crate::store::{CheckpointStore, RecoveryReport, SinkHandle, StoreConfig, StoreError};
use crate::supervisor::{
    spawn_supervised, CheckpointView, SupervisedTap, SupervisorConfig, SupervisorError,
};
use nitro_core::{NitroSketch, SkewPolicy, SkewTracker};
use nitro_hash::xxhash::xxh64_u64;
use nitro_metrics::telemetry::{Event, TelemetryRegistry};
use nitro_metrics::{CircuitBreaker, DaemonHealth, FleetHealth};
use nitro_sketches::{Checkpoint, CheckpointError, DirtyLines, FlowKey, RowSketch};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning for [`spawn_sharded`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Worker shards (one ring + one sketch thread + one supervisor each).
    pub shards: usize,
    /// Seed of the dispatcher's xxHash64 — decorrelated from the sketches'
    /// per-row seeds so shard placement and counter placement are
    /// independent hash events.
    pub hash_seed: u64,
    /// Per-shard supervisor tuning (ring size, checkpoint cadence, restart
    /// budget, …). A `fault_plan` set here arms *every* shard with the
    /// same shared one-shot plan — whichever shard crosses the trigger
    /// first panics, exactly once fleet-wide. Use
    /// [`PipelineConfig::fault_plans`] to target a specific shard.
    pub supervisor: SupervisorConfig,
    /// How long an epoch rotation waits for each shard's on-demand
    /// snapshot before falling back to that shard's latest periodic
    /// checkpoint.
    pub snapshot_timeout: Duration,
    /// Targeted fault injection: `(shard, plan)` pairs; a matching entry
    /// overrides `supervisor.fault_plan` for that shard (test hook).
    pub fault_plans: Vec<(usize, ThreadFaultPlan)>,
    /// Durable checkpoint store: when set, every shard's checkpoints are
    /// persisted to its per-shard segment log, and
    /// [`ShardedPipeline::recover_from`] can rebuild the fleet after full
    /// process death, losing per shard at most its `persist_lag` plus one
    /// batch (see [`ShardedPipeline::recover_from`]). Must be sized for
    /// exactly `shards` shards.
    pub store: Option<Arc<CheckpointStore>>,
    /// Failover: when set, the coordinator promotes a shard whose restart
    /// budget is spent or whose circuit breaker tripped — a successor
    /// daemon restored from the shard's latest checkpoint takes over its
    /// flow slice — instead of serving it degraded. Costs nothing until a
    /// shard fails.
    pub failover: bool,
    /// Collision-skew anomaly detection: when set, every epoch rotation
    /// measures each shard's per-row skew, publishes it to the shard's
    /// telemetry gauges, and journals an `AnomalousSkew` event once the
    /// policy trips. With [`nitro_core::SkewPolicy::auto_rotate`] and a
    /// reseed hook ([`ShardedPipeline::set_reseed`]) the trip also drives
    /// an automatic [`ShardedPipeline::rotate_seeds`].
    pub skew_policy: Option<SkewPolicy>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            hash_seed: 0x4E49_5452_4F53_4B45, // "NITROSKE"
            supervisor: SupervisorConfig::default(),
            snapshot_timeout: Duration::from_millis(250),
            fault_plans: Vec::new(),
            store: None,
            failover: false,
            skew_policy: None,
        }
    }
}

/// Why the pipeline could not produce a merged result.
#[derive(Debug)]
pub enum PipelineError {
    /// The pipeline was asked to run with zero shards (at spawn or via
    /// [`ShardedPipeline::rescale`]).
    EmptyFleet,
    /// One shard's supervisor gave up (restart budget exhausted or the
    /// supervisor itself panicked).
    Shard {
        /// Which shard failed.
        shard: usize,
        /// The underlying supervisor error (carries the shard's health).
        source: SupervisorError,
    },
    /// A shard's snapshot or final sketch could not be restored/merged —
    /// the factory produced parameter-incompatible instances.
    Merge {
        /// Which shard's state failed to fold in.
        shard: usize,
        /// The underlying checkpoint/merge error.
        source: CheckpointError,
    },
    /// The durable checkpoint store could not be opened or recovered.
    Store(StoreError),
    /// A seed rotation was rejected before touching the fleet (e.g. the
    /// reseed factory reproduced the old hash seeds, so rotating would
    /// change nothing).
    Rotation(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyFleet => write!(f, "a pipeline needs at least one shard"),
            PipelineError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            PipelineError::Merge { shard, source } => {
                write!(f, "merging shard {shard}: {source}")
            }
            PipelineError::Store(source) => write!(f, "durable store: {source}"),
            PipelineError::Rotation(reason) => write!(f, "seed rotation rejected: {reason}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::EmptyFleet => None,
            PipelineError::Shard { source, .. } => Some(source),
            PipelineError::Merge { source, .. } => Some(source),
            PipelineError::Store(source) => Some(source),
            PipelineError::Rotation(_) => None,
        }
    }
}

impl From<StoreError> for PipelineError {
    fn from(source: StoreError) -> Self {
        PipelineError::Store(source)
    }
}

/// Tag a checkpoint/merge failure with the shard whose state it was.
fn merge_error(shard: usize) -> impl Fn(CheckpointError) -> PipelineError {
    move |source| PipelineError::Merge { shard, source }
}

/// A live shard served no checkpoint. Unreachable for pipeline-spawned
/// shards (a pristine checkpoint exists from spawn), but keep the error
/// honest.
fn missing_checkpoint(shard: usize) -> PipelineError {
    merge_error(shard)(CheckpointError::Mismatch("missing checkpoint"))
}

/// A pending dispatcher re-steer, applied by the producer at the next
/// offer (or explicit [`ShardedTap::sync_routes`]).
enum RouteUpdate {
    /// Swap one shard's tap in place (failover promotion).
    Replace { shard: usize, tap: SupervisedTap },
    /// Replace the whole tap table (online rescale).
    Resize { taps: Vec<SupervisedTap> },
}

/// Coordinator ⇄ producer handshake for atomic re-steering.
///
/// The coordinator publishes updates under the mutex and bumps `version`;
/// the producer notices the bump on its next offer, applies every pending
/// update, and acknowledges by storing the version it reached. The
/// coordinator only *finishes* (drains and joins) a superseded shard once
/// `acked >= ` the version that re-steered away from it — the producer's
/// last push to the old ring happens-before its release-store of `acked`,
/// so no observation can race into a ring nobody will drain.
struct Router {
    version: AtomicU64,
    acked: AtomicU64,
    pending: Mutex<Vec<RouteUpdate>>,
}

impl Router {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Queue one update and return the version whose ack releases it.
    fn publish(&self, update: RouteUpdate) -> u64 {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        pending.push(update);
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }
}

/// Producer-side handle of the sharded pipeline: lives in the switching
/// thread, hashes each flow key onto its shard, and never blocks — a full
/// shard ring counts a drop on that shard while the others keep absorbing
/// their slices. Failover and rescale re-steer it through the shared
/// router: each offer first applies any pending route update, so a
/// promotion or rescale takes effect at a packet boundary.
pub struct ShardedTap {
    taps: Vec<SupervisedTap>,
    hash_seed: u64,
    router: Arc<Router>,
    seen_version: u64,
}

impl ShardedTap {
    /// Which shard `key` dispatches to. Flow-granular and stable between
    /// route changes, so one flow's packets never split across sketches
    /// within a routing epoch.
    #[inline]
    pub fn shard_of(&self, key: FlowKey) -> usize {
        (xxh64_u64(key, self.hash_seed) % self.taps.len() as u64) as usize
    }

    /// Offer one observation to its shard. Single-shard pipelines skip
    /// the dispatch hash entirely — there is only one place to go.
    #[inline]
    pub fn offer(&mut self, key: FlowKey, ts_ns: u64) {
        self.sync_routes();
        if self.taps.len() == 1 {
            self.taps[0].offer(key, ts_ns);
            return;
        }
        let s = self.shard_of(key);
        self.taps[s].offer(key, ts_ns);
    }

    /// Offer a whole burst at one timestamp. The route check runs once
    /// per batch, and the single-shard fast path skips per-key hashing.
    pub fn offer_batch(&mut self, keys: &[FlowKey], ts_ns: u64) {
        self.sync_routes();
        if self.taps.len() == 1 {
            let tap = &mut self.taps[0];
            for &key in keys {
                tap.offer(key, ts_ns);
            }
            return;
        }
        for &key in keys {
            let s = self.shard_of(key);
            self.taps[s].offer(key, ts_ns);
        }
    }

    /// Apply any pending route updates (promotion, rescale) and
    /// acknowledge them to the coordinator. Called implicitly by every
    /// offer; call it explicitly from an *idle* producer so a pending
    /// failover or rescale can complete without traffic.
    #[inline]
    pub fn sync_routes(&mut self) {
        if self.router.version.load(Ordering::Acquire) == self.seen_version {
            return;
        }
        self.apply_routes();
    }

    #[cold]
    fn apply_routes(&mut self) {
        let mut pending = self
            .router
            .pending
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        for update in pending.drain(..) {
            match update {
                RouteUpdate::Replace { shard, tap } => self.taps[shard] = tap,
                RouteUpdate::Resize { taps } => self.taps = taps,
            }
        }
        // Re-read under the lock: `publish` bumps the version while
        // holding it, so this is exactly the version whose updates we
        // just applied.
        let v = self.router.version.load(Ordering::Acquire);
        drop(pending);
        self.seen_version = v;
        self.router.acked.store(v, Ordering::Release);
    }

    /// Shards behind this tap.
    pub fn num_shards(&self) -> usize {
        self.taps.len()
    }

    /// Observations dropped at full rings, fleet-wide — counts the
    /// *current* routing table's taps (a finished shard's drops live on
    /// in its retired health record).
    pub fn dropped(&self) -> u64 {
        self.taps.iter().map(SupervisedTap::dropped).sum()
    }

    /// Worst ring fill fraction across shards — the fleet's backpressure
    /// signal (one hot shard is enough to warrant a downshift there).
    /// `NaN` when there are no taps to measure: "no signal" must not
    /// read as "0% full".
    pub fn max_occupancy(&self) -> f64 {
        self.taps
            .iter()
            .map(SupervisedTap::occupancy)
            .fold(f64::NAN, f64::max)
    }
}

impl Measurement for ShardedTap {
    #[inline]
    fn on_packet(&mut self, key: FlowKey, ts_ns: u64, _weight: f64) {
        self.offer(key, ts_ns);
    }
}

/// Ids of merged views, unique in the process.
static VIEWS: AtomicU64 = AtomicU64::new(0);

/// A merged, queryable snapshot of the whole fleet at one epoch.
///
/// The sketch is shared with the pipeline by refcount: once the caller
/// drops the view, the next [`ShardedPipeline::epoch_view`] recycles its
/// arena and, when the shard's image follows the one folded here, folds
/// only the lines written since.
#[derive(Clone, Debug)]
pub struct MergedView<S: RowSketch> {
    epoch: u64,
    sketch: Arc<NitroSketch<S>>,
    staleness: Vec<ShardStaleness>,
    id: u64,
    changed: Option<(u64, DirtyLines)>,
}

impl<S: RowSketch> MergedView<S> {
    /// Epoch sequence number (1-based: the first rotation is epoch 1).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Global point query on the merged counters.
    pub fn estimate(&self, key: FlowKey) -> f64 {
        self.sketch.estimate(key)
    }

    /// Global heavy hitters ≥ `threshold`, heaviest first: the union of
    /// the shards' tracked keys re-scored on the merged counters. Requires
    /// the shard factory to enable top-k tracking.
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(FlowKey, f64)> {
        self.sketch.heavy_hitters(threshold)
    }

    /// Global L2 norm estimate of the flow-size vector.
    pub fn l2(&self) -> f64 {
        self.sketch.inner().l2_squared_estimate().max(0.0).sqrt()
    }

    /// Per-shard staleness records: live shards first (indexed by shard
    /// id), then any still-draining rescaled-away shards (identified by
    /// their [`ShardStaleness::shard`] field).
    pub fn staleness(&self) -> &[ShardStaleness] {
        &self.staleness
    }

    /// Upper bound on observations dispatched to the fleet but missing
    /// from this view (sum of the per-shard bounds).
    pub fn staleness_bound(&self) -> u64 {
        self.staleness.iter().map(ShardStaleness::bound).sum()
    }

    /// The merged sketch behind the queries.
    pub fn sketch(&self) -> &NitroSketch<S> {
        &self.sketch
    }

    /// This view's id, unique in the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The view this one was patched from, by id, and the counter lines of
    /// the merged sketch whose counters changed since it: the two
    /// sketches' checkpoint images differ in their heads and in exactly
    /// these lines. `None` for a view folded whole.
    pub fn changed(&self) -> Option<(u64, &DirtyLines)> {
        self.changed.as_ref().map(|(since, lines)| (*since, lines))
    }

    /// Wrap a standalone sketch as a single-shard view (no staleness
    /// records) — for cluster agents and tests that seal epochs without a
    /// running sharded fleet behind them.
    pub fn from_sketch(epoch: u64, sketch: NitroSketch<S>) -> Self {
        Self::new(epoch, Arc::new(sketch), Vec::new(), None)
    }

    fn new(
        epoch: u64,
        sketch: Arc<NitroSketch<S>>,
        staleness: Vec<ShardStaleness>,
        changed: Option<(u64, DirtyLines)>,
    ) -> Self {
        Self {
            epoch,
            sketch,
            staleness,
            id: VIEWS.fetch_add(1, Ordering::Relaxed),
            changed,
        }
    }
}

impl<S: RowSketch + Clone> MergedView<S> {
    /// Unwrap into the merged sketch (a copy while the pipeline still
    /// holds it for the next view).
    pub fn into_sketch(self) -> NitroSketch<S> {
        Arc::try_unwrap(self.sketch).unwrap_or_else(|shared| NitroSketch::clone(&shared))
    }
}

/// The last view a one-shard fleet folded: its arena, to recycle, and the
/// image it folded, which the next image's write history must name.
struct LastView<S: RowSketch> {
    id: u64,
    sketch: Arc<NitroSketch<S>>,
    image: u64,
}

/// A freshly spawned fleet, index-aligned: dispatcher taps and shard
/// handles.
type Fleet<S> = (Vec<SupervisedTap>, Vec<Shard<NitroSketch<S>>>);

/// Consecutive unhealthy coordinator probes that trip a shard's circuit
/// breaker and, with failover on, force a promotion before the restart
/// budget is formally spent.
const BREAKER_THRESHOLD: u32 = 2;

/// Everything needed to (re)spawn one shard: the measurement factory, the
/// supervisor template, targeted fault plans, and the durable store.
/// Shared by initial spawn, promotion, and rescale.
struct ShardSpawner<S>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
{
    factory: Arc<dyn Fn(usize) -> NitroSketch<S> + Send + Sync>,
    supervisor: SupervisorConfig,
    fault_plans: Vec<(usize, ThreadFaultPlan)>,
    store: Option<Arc<CheckpointStore>>,
    /// The fleet's telemetry plane: every spawn registers a fresh live
    /// instance here, and every component of the shard (tap, worker,
    /// supervisor, durable writer) publishes into it.
    registry: Arc<TelemetryRegistry>,
}

impl<S> ShardSpawner<S>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
{
    /// Spawn shard `i` around `m`, stamping durable frames in sequence
    /// band `band`. Returns the tap and the shard handle.
    fn spawn(
        &self,
        i: usize,
        m: NitroSketch<S>,
        band: u64,
    ) -> (SupervisedTap, Shard<NitroSketch<S>>) {
        let mut sup = self.supervisor.clone();
        if let Some((_, plan)) = self.fault_plans.iter().rev().find(|(s, _)| *s == i) {
            sup.fault_plan = Some(plan.clone());
        }
        let tel = self.registry.register(i as u32);
        tel.generation
            .set(self.store.as_ref().map_or(0, |s| s.generation()));
        tel.seq_band.set(band);
        sup.telemetry = Some(Arc::clone(&tel));
        sup.sink = self.store.as_ref().map(|store| {
            SinkHandle(Arc::new(
                store.writer_from(i, band).with_telemetry(Arc::clone(&tel)),
            ))
        });
        let f = Arc::clone(&self.factory);
        let (tap, daemon) = spawn_supervised(m, move || f(i), sup);
        (tap, Shard::new(i, daemon))
    }

    /// Spawn shard `i` around `measurements[i]`, all in sequence band
    /// `band`.
    fn spawn_fleet(&self, measurements: Vec<NitroSketch<S>>, band: u64) -> Fleet<S> {
        measurements
            .into_iter()
            .enumerate()
            .map(|(i, m)| self.spawn(i, m, band))
            .unzip()
    }
}

fn breakers(n: usize) -> Vec<CircuitBreaker> {
    (0..n)
        .map(|_| CircuitBreaker::new(BREAKER_THRESHOLD))
        .collect()
}

/// What happens to a draining shard's final sketch when it is reaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DrainMode {
    /// Replaced primary: its promoted successor was restored from its
    /// state — merging its final sketch as well would double-count.
    Discard,
    /// Rescaled-away shard: its traffic lives nowhere else, so its final
    /// sketch bit-merges exactly into the carryover.
    MergeExact,
    /// Rotated-away shard: its counters live in the *old* hash seed space,
    /// so a bit-exact merge is impossible — its tracked heavy keys fold
    /// into the carryover at their decoded robust estimates instead
    /// (`NitroSketch::fold_decoded_from`).
    FoldDecoded,
}

impl DrainMode {
    /// Fold a drained shard's sketch `from` (final, or restored from one
    /// of its checkpoints) into `into` — the carryover, an epoch view, or
    /// the shutdown merge.
    fn fold<S: RowSketch + Checkpoint>(
        self,
        into: &mut NitroSketch<S>,
        from: &NitroSketch<S>,
    ) -> Result<(), CheckpointError> {
        match self {
            DrainMode::Discard => Ok(()),
            DrainMode::MergeExact => into.try_merge_from(from),
            DrainMode::FoldDecoded => into.fold_decoded_from(from).map(|_| ()),
        }
    }

    /// [`DrainMode::fold`] a drained shard's checkpoint `bytes`: folded
    /// straight in when it merges exactly, restored into its own
    /// `template` (its hash space) when only its decoded keys carry over.
    fn fold_image<S: RowSketch + Checkpoint + Clone>(
        self,
        into: &mut NitroSketch<S>,
        template: &NitroSketch<S>,
        bytes: &[u8],
    ) -> Result<(), CheckpointError> {
        match self {
            DrainMode::Discard => Ok(()),
            DrainMode::MergeExact => into.merge_image(bytes),
            DrainMode::FoldDecoded => {
                let mut restored = template.clone();
                restored.restore(bytes)?;
                self.fold(into, &restored)
            }
        }
    }
}

/// A shard re-steered away from (replaced primary, rescaled-away worker,
/// or rotated-away worker), still draining its ring until the producer
/// acknowledges the route change. At shutdown every live shard becomes one
/// too: nothing offers to it any more and its traffic lives nowhere else.
struct DrainingShard<S>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
{
    shard: Shard<NitroSketch<S>>,
    /// The router version whose ack proves no further offers can reach
    /// this shard's ring.
    drain_after: u64,
    /// How the final sketch folds into the carryover.
    mode: DrainMode,
    /// Blank geometry-defining instance this shard's checkpoints restore
    /// into. Captured at re-steer time: after a seed rotation the fleet
    /// template lives in a *different* hash space, and an old-seed
    /// checkpoint only restores into its own.
    template: Arc<NitroSketch<S>>,
}

impl<S> DrainingShard<S>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
{
    /// Stop the shard (the drain is bounded — nothing offers to its ring
    /// any more), join it, and fold its state into `into`: the final
    /// sketch after a clean drain, or — when the restart budget is spent —
    /// the last checkpoint, restored into the captured template. A
    /// replaced primary folds nothing and may be given no `into`.
    ///
    /// Returns the final health record — always, so the fleet accounting
    /// survives a failed fold — and how the shard ended: `Ok(None)` clean,
    /// `Ok(Some(_))` budget spent and served from its checkpoint, `Err`
    /// when the supervisor thread itself panicked or the state would not
    /// fold.
    fn settle(
        self,
        into: Option<&mut NitroSketch<S>>,
    ) -> (DaemonHealth, Result<Option<SupervisorError>, PipelineError>) {
        let DrainingShard {
            shard,
            mode,
            template,
            ..
        } = self;
        let index = shard.index();
        let telemetry = Arc::clone(shard.telemetry());
        // Captured before the join consumes the handle.
        let fallback = if mode != DrainMode::Discard && shard.is_failed() {
            shard.latest_checkpoint().map(|v| v.bytes)
        } else {
            None
        };
        let joined = shard.finish();
        // The daemon is joined: its cells are quiescent and this is the
        // record `finish` itself reports.
        let health = telemetry.health();
        // What the shard leaves behind: its final sketch after a clean
        // drain, its last checkpoint after a spent budget.
        let outcome = match joined {
            Ok((m, _)) => into
                .map_or(Ok(()), |into| mode.fold(into, &m))
                .map(|()| None)
                .map_err(merge_error(index)),
            Err(spent @ SupervisorError::RestartBudgetExhausted { .. }) => fallback
                .zip(into)
                .map_or(Ok(()), |(bytes, into)| {
                    mode.fold_image(into, &template, &bytes)
                })
                .map(|()| Some(spent))
                .map_err(merge_error(index)),
            Err(source) => Err(PipelineError::Shard {
                shard: index,
                source,
            }),
        };
        (health, outcome)
    }
}

/// The running fleet: N shards plus the epoch coordinator state.
pub struct ShardedPipeline<S>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
{
    shards: Vec<Shard<NitroSketch<S>>>,
    /// Whether a failed or breaker-tripped shard is promoted (see
    /// [`PipelineConfig::failover`]).
    failover: bool,
    /// Per-shard health probe memory: last seen (restarts, stalls).
    probes: Vec<(u64, u64)>,
    /// Per-shard circuit breakers over consecutive unhealthy probes.
    breakers: Vec<CircuitBreaker>,
    /// Shards re-steered away from, still draining toward retirement.
    draining: Vec<DrainingShard<S>>,
    /// Accumulated state of retired rescaled-away shards: merged into
    /// every view and into the final result, exactly once per shard.
    /// `None` until the first draining shard is reaped into it — merging
    /// a pristine carryover would cost every view a full pass over the
    /// counters for nothing.
    carryover: Option<NitroSketch<S>>,
    /// Final health records of retired daemons.
    retired: Vec<DaemonHealth>,
    /// Blank, geometry-defining instance of the live fleet's hash space.
    template: Arc<NitroSketch<S>>,
    epoch: u64,
    snapshot_timeout: Duration,
    spawner: ShardSpawner<S>,
    router: Arc<Router>,
    /// Next sequence band (multiples of 2^32): every promotion, rescale,
    /// or seed rotation moves the affected shards into a fresh, higher
    /// band so their new frames shadow any older frame in the same shard
    /// directory.
    next_band: u64,
    promotions: u64,
    /// Collision-skew detection policy (None = detection off).
    skew_policy: Option<SkewPolicy>,
    /// Per-shard consecutive-breach trackers, reset on rotation.
    skew_trackers: Vec<SkewTracker>,
    /// Per-shard "already journaled this trip" latch, so a persisting
    /// breach journals once per trip instead of once per epoch.
    skew_tripped: Vec<bool>,
    /// Reseed hook for automatic rotation: `(rotation ordinal, shard)` →
    /// fresh-seed measurement. Installed via
    /// [`ShardedPipeline::set_reseed`].
    #[allow(clippy::type_complexity)]
    reseed: Option<Arc<dyn Fn(u64, usize) -> NitroSketch<S> + Send + Sync>>,
    seed_rotations: u64,
    /// The previous view of a one-shard fleet with no carryover, the
    /// fleet whose views patch.
    last_view: Option<LastView<S>>,
}

impl<S> ShardedPipeline<S>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
{
    /// Shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (health, backlog, per-shard snapshots).
    pub fn shards(&self) -> &[Shard<NitroSketch<S>>] {
        &self.shards
    }

    /// Observations applied fleet-wide so far — live shards, draining
    /// shards, and retired daemons alike, so drain-wait loops survive
    /// promotions and rescales.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(Shard::processed).sum::<u64>()
            + self
                .draining
                .iter()
                .map(|d| d.shard.processed())
                .sum::<u64>()
            + self.retired.iter().map(|h| h.processed).sum::<u64>()
    }

    /// Per-shard health records (live, draining, and retired) with their
    /// fleet-wide sum.
    pub fn fleet_health(&self) -> FleetHealth {
        let mut fleet: FleetHealth = self.shards.iter().map(Shard::health).collect();
        for d in &self.draining {
            fleet.push_retired(d.shard.health());
        }
        for h in &self.retired {
            fleet.push_retired(*h);
        }
        fleet
    }

    /// The durable store backing this pipeline's checkpoints, when one was
    /// configured.
    pub fn store(&self) -> Option<&Arc<CheckpointStore>> {
        self.spawner.store.as_ref()
    }

    /// Shard ids whose restart budget is spent (served degraded — or
    /// promoted away at the next epoch when failover is on).
    pub fn failed_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.is_failed())
            .map(Shard::index)
            .collect()
    }

    /// Promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Online seed rotations performed so far (manual and automatic).
    pub fn seed_rotations(&self) -> u64 {
        self.seed_rotations
    }

    /// Shard ids whose skew detector is currently tripped (empty when
    /// detection is off or nothing tripped).
    pub fn skew_tripped(&self) -> Vec<usize> {
        self.skew_tripped
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| t.then_some(i))
            .collect()
    }

    /// Install the reseed hook automatic rotation uses: `hook(n, shard)`
    /// must build shard `shard`'s blank measurement for the `n`-th
    /// rotation, under hash seeds that differ from every earlier
    /// generation (derive them from a fresh entropy draw or an
    /// [`nitro_hash::SeedSequence`] stream keyed by `n`). Without a hook,
    /// a tripped [`SkewPolicy::auto_rotate`] policy only journals the
    /// anomaly.
    pub fn set_reseed<F>(&mut self, hook: F)
    where
        F: Fn(u64, usize) -> NitroSketch<S> + Send + Sync + 'static,
    {
        self.reseed = Some(Arc::new(hook));
    }

    /// The fleet's telemetry plane: live and retired shard instances, the
    /// shared event journal, and the promotion-duration histogram — all
    /// readable at any instant without joining a daemon.
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.spawner.registry
    }

    /// Render the whole telemetry plane in Prometheus text exposition
    /// format, refreshing the scrape-time gauges (ring backlog, failed
    /// flag, breaker state) first.
    pub fn scrape(&self) -> String {
        self.refresh_gauges();
        self.spawner.registry.render_prometheus()
    }

    /// Like [`ShardedPipeline::scrape`], rendered as a JSON document.
    pub fn scrape_json(&self) -> String {
        self.refresh_gauges();
        self.spawner.registry.render_json()
    }

    /// Push the coordinator-owned gauges (the ones no shard thread can
    /// see: breaker state, failed flag, instantaneous ring backlog) into
    /// each live shard's telemetry so a scrape reads current values.
    fn refresh_gauges(&self) {
        for shard in &self.shards {
            let tel = shard.telemetry();
            tel.backlog.set(shard.backlog());
            tel.failed.set(u64::from(shard.is_failed()));
            if let Some(b) = self.breakers.get(shard.index()) {
                tel.breaker_open.set(u64::from(b.is_open()));
            }
        }
    }

    fn alloc_band(&mut self) -> u64 {
        let band = self.next_band << 32;
        self.next_band += 1;
        band
    }

    /// Chaos-harness process kill: freeze the durable store — nothing
    /// after this instant reaches disk — then stop and **discard** every
    /// shard's in-memory state without merging anything. The only
    /// survivor is what was already durable; follow with
    /// [`ShardedPipeline::recover_from`] on the same directory to model a
    /// process restart. (A real `kill -9` also abandons the rings'
    /// contents; the harness reproduces that by dropping the tap first so
    /// undrained observations surface as `dropped`/`lost` in the next
    /// incarnation's offered stream instead of silently vanishing here.)
    pub fn simulate_crash(self) {
        if let Some(store) = &self.spawner.store {
            store.freeze();
        }
        for shard in self.shards {
            // Threads must still be joined — a detached spinning worker
            // would outlive the "dead" process and poison later timing —
            // but every result, clean or failed, is thrown away.
            let _ = shard.finish();
        }
        for d in self.draining {
            let _ = d.shard.finish();
        }
    }

    /// Rebuild a fleet from its durable checkpoint directory after full
    /// process death.
    ///
    /// Reads the manifest, scans every shard's segments (truncating torn
    /// tails, rejecting corrupt or future-version frames), restores each
    /// shard's newest valid checkpoint into a fresh factory-built
    /// measurement, and spawns the fleet around the reopened store under a
    /// bumped generation. `config.shards` is overridden by the manifest's
    /// shard count; `config.store` by the reopened store. Per-shard loss
    /// relative to the crashed process is what the shard had processed
    /// since its newest persisted checkpoint — the `persist_lag` gauge:
    /// at most `checkpoint_every` plus the updates made during one
    /// in-flight persist — plus that shard's in-flight batch and undrained
    /// ring.
    ///
    /// The returned [`RecoveryReport`] says what was repaired; health
    /// counters restart at zero for the new incarnation.
    pub fn recover_from<F>(
        dir: impl AsRef<Path>,
        factory: F,
        store_config: StoreConfig,
        mut config: PipelineConfig,
    ) -> Result<(ShardedTap, Self, RecoveryReport), PipelineError>
    where
        F: Fn(usize) -> NitroSketch<S> + Send + Sync + 'static,
    {
        let (store, report) = CheckpointStore::recover(dir, store_config)?;
        config.shards = store.num_shards();
        config.store = Some(store);
        let initial = report
            .recovered
            .iter()
            .map(|r| r.as_ref().map(|f| f.bytes.as_slice()))
            .collect();
        let (tap, pipeline) = spawn_with_initial(factory, config, initial)?;
        pipeline.spawner.registry.record(Event::RecoveryReport {
            shards: report.shards as u32,
            recovered: report.recovered.iter().filter(|r| r.is_some()).count() as u32,
            corrupt: report.corrupt_frames,
        });
        Ok((tap, pipeline, report))
    }

    /// Promote shard `shard`: spawn a successor daemon around the state an
    /// epoch view would merge for the shard, and re-steer the dispatcher
    /// to it at a packet boundary.
    ///
    /// The state comes from the old primary itself
    /// ([`Shard::epoch_snapshot`]): a failed primary serves its last
    /// published checkpoint at once, a live one whose breaker tripped
    /// answers on demand. No gap is replayed from the durable store: a
    /// checkpoint reaches the supervisor's slot only after its persist
    /// returned, and the supervisor waits out the persist in flight before
    /// it marks a daemon failed, so no frame of a failed primary is newer
    /// than its slot. The successor is restored from that checkpoint into
    /// a fresh factory-built sketch and spawned in a new sequence band (so
    /// its frames shadow the old primary's); the old primary moves to the
    /// draining list, where it keeps accounting every observation the
    /// producer sends it until the route change is acknowledged. Returns
    /// `false` when failover is off.
    pub fn promote(&mut self, shard: usize) -> Result<bool, PipelineError> {
        if !self.failover {
            return Ok(false);
        }
        let started = Instant::now();
        let (bytes, _) = self.shards[shard]
            .epoch_snapshot(self.snapshot_timeout)
            .ok_or_else(|| missing_checkpoint(shard))?;
        let mut successor = (self.spawner.factory)(shard);
        successor.restore(&bytes).map_err(merge_error(shard))?;
        let band = self.alloc_band();
        let (tap, new_shard) = self.spawner.spawn(shard, successor, band);
        let old = std::mem::replace(&mut self.shards[shard], new_shard);
        let version = self.router.publish(RouteUpdate::Replace { shard, tap });
        self.start_draining(old, version, DrainMode::Discard, Arc::clone(&self.template));
        self.breakers[shard].reset();
        self.probes[shard] = (0, 0);
        self.promotions += 1;
        let duration_ns = started.elapsed().as_nanos() as u64;
        self.spawner.registry.promotion_ns().record(duration_ns);
        self.spawner.registry.record(Event::Promotion {
            shard: shard as u32,
            band,
            duration_ns,
        });
        Ok(true)
    }

    /// Grow or shrink the fleet to `new_shards` shards while it runs.
    ///
    /// New shards spin up blank in a new sequence band; the dispatcher
    /// swaps to the new tap table at a packet boundary; every old shard
    /// moves to the draining list and is reaped — its final sketch folded
    /// exactly once into the retained carryover — once the producer
    /// acknowledges the new routes.
    /// Flow ownership migrates wholesale: a flow's pre-rescale packets
    /// live in the carryover, its post-rescale packets in its new shard,
    /// and the merged view sums the two — nothing dropped, nothing
    /// double-counted, so `offered == processed + dropped + lost` holds
    /// across the transition.
    ///
    /// With a durable store, the store is resized first so new shards get
    /// segment directories; note that a shrink leaves the carryover only
    /// in memory — take a fresh checkpoint cycle before relying on the
    /// store alone (see DESIGN.md).
    pub fn rescale(&mut self, new_shards: usize) -> Result<(), PipelineError> {
        if new_shards == 0 {
            return Err(PipelineError::EmptyFleet);
        }
        // Promote any failed primary first: its successor keeps the state
        // durable in its own band, where the drain path would fold it into
        // the memory-only carryover.
        self.probe_and_promote()?;
        let from = self.shards.len() as u32;
        if let Some(store) = &self.spawner.store {
            store.resize(new_shards)?;
        }
        self.respawn_fleet(
            new_shards,
            DrainMode::MergeExact,
            Arc::clone(&self.template),
        );
        self.spawner.registry.record(Event::Rescale {
            from,
            to: new_shards as u32,
        });
        Ok(())
    }

    /// Rotate the fleet onto fresh hash seeds while it runs — the online
    /// mitigation for a leaked-seed collision flood.
    ///
    /// `factory(i)` must build shard `i`'s blank measurement with the
    /// **same sketch geometry** (depth × width, same top-k setting) under
    /// **different hash seeds**; both are checked before any thread is
    /// touched and a violation is rejected as a typed error with the old
    /// fleet untouched. The rotation then rides the rescale machinery:
    /// fresh shards spin up blank in a new sequence band, the dispatcher
    /// re-steers at a packet boundary, and the old shards drain
    /// epoch-by-epoch. Counters cannot bit-merge across seed spaces,
    /// so state carries over at the *decoded* level: the old carryover's
    /// and each drained shard's tracked heavy keys re-insert into the new
    /// space at their robust estimates ([`NitroSketch::fold_decoded_from`])
    /// — heavy hitters survive the rotation, the small-flow noise floor
    /// resets, and the attacker's precomputed collision sets go stale.
    /// Queries keep answering throughout; the fleet accounting identity
    /// holds exactly because drained shards retire through the same
    /// acknowledged-route path as a rescale.
    pub fn rotate_seeds<F>(&mut self, factory: F) -> Result<(), PipelineError>
    where
        F: Fn(usize) -> NitroSketch<S> + Send + Sync + 'static,
    {
        // Promote any failed primary first: its successor keeps the state
        // durable in its own band, where the drain path would fold it into
        // the memory-only carryover.
        self.probe_and_promote()?;
        let started = Instant::now();
        let n = self.shards.len();
        let new_template = factory(0);
        // Geometry must carry over (the decoded fold needs equal
        // depth × width)…
        new_template
            .clone()
            .fold_decoded_from(&self.template)
            .map_err(|_| PipelineError::Rotation("factory changes the sketch geometry"))?;
        // …and the seeds must actually change: a factory whose blank
        // sketches bit-merge with the old template rotates nothing and
        // would leave the leaked seeds live.
        if new_template.clone().try_merge_from(&self.template).is_ok() {
            return Err(PipelineError::Rotation(
                "factory reproduces the old hash seeds",
            ));
        }
        // New spawns — shards, panic-rebuilds, and promoted successors
        // alike — must all come from the new-seed factory.
        self.spawner.factory = Arc::new(factory);
        // Carry the old carryover's tracked keys into the new seed space.
        self.carryover = self.carryover.as_ref().map(|old| {
            let mut carry = new_template.clone();
            carry
                .fold_decoded_from(old)
                .expect("geometry verified against the old template above");
            carry
        });
        let old_template = std::mem::replace(&mut self.template, Arc::new(new_template));
        // A shard already draining (from an in-flight rescale) holds
        // old-seed state too; its bit-exact merge target no longer exists,
        // so it folds decoded like the rotated-away shards.
        for d in &mut self.draining {
            if d.mode == DrainMode::MergeExact {
                d.mode = DrainMode::FoldDecoded;
            }
        }
        // The detector starts over in the fresh hash space.
        let band = self.respawn_fleet(n, DrainMode::FoldDecoded, old_template);
        self.seed_rotations += 1;
        let duration_ns = started.elapsed().as_nanos() as u64;
        self.spawner
            .registry
            .record(Event::SeedRotation { band, duration_ns });
        Ok(())
    }

    /// Respawn the whole fleet as `n` blank shards in a fresh sequence
    /// band and re-steer the dispatcher to them at a packet boundary — the
    /// shared body of [`ShardedPipeline::rescale`] and
    /// [`ShardedPipeline::rotate_seeds`]. Every old shard starts draining
    /// under `mode`, restoring into `old_template`. Per-shard probe,
    /// breaker, and skew state starts over. Returns the band.
    fn respawn_fleet(
        &mut self,
        n: usize,
        mode: DrainMode,
        old_template: Arc<NitroSketch<S>>,
    ) -> u64 {
        let band = self.alloc_band();
        let blanks = (0..n).map(|i| (self.spawner.factory)(i)).collect();
        let (taps, shards) = self.spawner.spawn_fleet(blanks, band);
        let old_shards = std::mem::replace(&mut self.shards, shards);
        self.last_view = None;
        self.probes = vec![(0, 0); n];
        self.breakers = breakers(n);
        self.skew_trackers = vec![SkewTracker::default(); n];
        self.skew_tripped = vec![false; n];
        let version = self.router.publish(RouteUpdate::Resize { taps });
        for old in old_shards {
            self.start_draining(old, version, mode, Arc::clone(&old_template));
        }
        band
    }

    /// Move a re-steered-away shard to the draining list. It stops being
    /// its id's live telemetry series the instant the replacement takes
    /// the id; its counters keep accumulating into the fleet totals from
    /// the retired set while it drains.
    fn start_draining(
        &mut self,
        shard: Shard<NitroSketch<S>>,
        drain_after: u64,
        mode: DrainMode,
        template: Arc<NitroSketch<S>>,
    ) {
        self.spawner.registry.retire(shard.telemetry());
        self.draining.push(DrainingShard {
            shard,
            drain_after,
            mode,
            template,
        });
    }

    /// Probe every live shard's health, feed the per-shard circuit
    /// breakers, and promote any shard that is formally failed or whose
    /// breaker latched open. Reaps acknowledged draining shards first.
    fn probe_and_promote(&mut self) -> Result<(), PipelineError> {
        self.reap_draining()?;
        for i in 0..self.shards.len() {
            let failed = self.shards[i].is_failed();
            let health = self.shards[i].health();
            let (restarts, stalls) = self.probes[i];
            let unhealthy = failed || health.restarts > restarts || health.stalls > stalls;
            self.probes[i] = (health.restarts, health.stalls);
            let was_open = self.breakers[i].is_open();
            let open = self.breakers[i].record(!unhealthy);
            self.shards[i].telemetry().breaker_open.set(u64::from(open));
            if open && !was_open {
                self.spawner.registry.record(Event::BreakerTrip {
                    shard: i as u32,
                    trips: self.breakers[i].trips(),
                });
            }
            if failed || open {
                self.promote(i)?;
            }
        }
        Ok(())
    }

    /// Retire every draining shard whose route change the producer has
    /// acknowledged: finish it (the drain is bounded — no new offers can
    /// reach its ring), fold its final sketch into the carryover when it
    /// owns its traffic (bit-exact for rescaled-away shards, decoded for
    /// rotated-away ones), and keep its health record.
    fn reap_draining(&mut self) -> Result<(), PipelineError> {
        let acked = self.router.acked();
        let mut pending = std::mem::take(&mut self.draining).into_iter();
        while let Some(d) = pending.next() {
            if acked < d.drain_after {
                self.draining.push(d);
                continue;
            }
            // A replaced primary's successor holds its state: reaping it
            // starts no carryover, which every view would fold.
            let template = &self.template;
            let carryover = (d.mode != DrainMode::Discard).then(|| {
                self.carryover
                    .get_or_insert_with(|| NitroSketch::clone(template))
            });
            let (health, outcome) = d.settle(carryover);
            self.retired.push(health);
            if let Err(e) = outcome {
                // The shards not visited yet stay on the list: dropping
                // them would detach their threads and lose their health
                // records from the fleet accounting.
                self.draining.extend(pending);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Rotate an epoch: promote any failed-or-tripped shard when failover
    /// is on, snapshot every live shard (on-demand, falling back to the
    /// latest periodic checkpoint for an unresponsive shard), and fold each
    /// image into one global sketch — a template copy that the carryover
    /// merged into first — with [`NitroSketch::merge_image`], in one pass
    /// per image: the bytes restoring each into a blank sketch and merging
    /// that give. Still-draining rescaled-away shards fold the same way;
    /// rotated-away ones are restored into their own template and fold
    /// decoded. The pipeline keeps running throughout — rotation never
    /// stalls a producer or a worker, and with failover enabled a view is
    /// never served degraded: failover happens *inside* the rotation.
    ///
    /// A fleet of one shard, with no carryover and no shard draining into
    /// the view, patches instead: when its caller has dropped the previous
    /// view and the shard's image names the image that view folded, the
    /// view's arena is recycled and only the lines written since fold
    /// ([`NitroSketch::patch_image`]), to the same bits. With more images,
    /// the fold offers each image's heavy keys at estimates over the
    /// images before it, which a patch of the final counters cannot
    /// reproduce, so those views fold whole.
    pub fn epoch_view(&mut self) -> Result<MergedView<S>, PipelineError> {
        self.probe_and_promote()?;
        self.epoch += 1;
        let mut staleness = Vec::with_capacity(self.shards.len() + self.draining.len());
        let mut images = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (image, stale) = shard
                .epoch_checkpoint(self.snapshot_timeout)
                .ok_or_else(|| missing_checkpoint(shard.index()))?;
            images.push(image);
            staleness.push(stale);
        }
        let lone = images.len() == 1
            && self.carryover.is_none()
            && self.draining.iter().all(|d| d.mode == DrainMode::Discard);
        let (sketch, changed) = match self.last_view.take() {
            Some(last) if lone => self.patch_view(&images[0], last)?,
            _ => (Arc::new(self.fold_view(&images, &mut staleness)?), None),
        };
        for (idx, image) in images.iter().enumerate() {
            self.observe_skew(idx, &image.bytes);
        }
        let view = MergedView::new(self.epoch, sketch, staleness, changed);
        if lone {
            self.last_view = Some(LastView {
                id: view.id,
                sketch: Arc::clone(&view.sketch),
                image: images[0].image,
            });
        }
        // A tripped auto-rotate policy rotates *after* the view is built:
        // this view is complete in the old space, the next one starts from
        // the fresh-seed fleet plus the decoded carryover.
        if let (Some(policy), Some(hook)) = (self.skew_policy, self.reseed.clone()) {
            if policy.auto_rotate && self.skew_tripped.iter().any(|&t| t) {
                let n = self.seed_rotations + 1;
                self.rotate_seeds(move |i| hook(n, i))?;
            }
        }
        Ok(view)
    }

    /// The view of a lone shard's `image`: `last`'s arena with the lines
    /// written since the image it folded folded again, when its caller
    /// has dropped it and `image` names that image; the whole fold
    /// otherwise.
    #[allow(clippy::type_complexity)]
    fn patch_view(
        &self,
        image: &CheckpointView,
        last: LastView<S>,
    ) -> Result<(Arc<NitroSketch<S>>, Option<(u64, DirtyLines)>), PipelineError> {
        let LastView {
            id,
            mut sketch,
            image: folded,
        } = last;
        let shard = self.shards[0].index();
        if let (Some((since, lines)), Some(arena)) = (&image.written, Arc::get_mut(&mut sketch)) {
            let mut changed = DirtyLines::new(lines.counters());
            if *since == folded
                && lines.is_sparse()
                && arena
                    .patch_image(&self.template, &image.bytes, lines, &mut changed)
                    .map_err(merge_error(shard))?
            {
                if cfg!(debug_assertions) {
                    // The differential oracle: a patched view is the whole
                    // fold, Σ C² included. A mismatch aborts, as a panic
                    // here would surface as one failed view.
                    let whole = self.fold_view(std::slice::from_ref(image), &mut Vec::new())?;
                    let rows = 0..whole.inner().depth();
                    if whole.snapshot() != sketch.snapshot()
                        || rows.into_iter().any(|r| {
                            whole.inner().row_sum_squares(r).to_bits()
                                != sketch.inner().row_sum_squares(r).to_bits()
                        })
                    {
                        eprintln!("a view patched from image {folded} differs from the whole fold");
                        std::process::abort();
                    }
                }
                return Ok((sketch, Some((id, changed))));
            }
        }
        let whole = self.fold_view(std::slice::from_ref(image), &mut Vec::new())?;
        Ok((Arc::new(whole), None))
    }

    /// The whole fold: a template copy, the carryover, every live shard's
    /// image and every draining shard that owns its traffic.
    fn fold_view(
        &self,
        images: &[CheckpointView],
        staleness: &mut Vec<ShardStaleness>,
    ) -> Result<NitroSketch<S>, PipelineError> {
        let mut merged = NitroSketch::clone(&self.template);
        if let Some(carryover) = &self.carryover {
            merged
                .try_merge_from(carryover)
                .expect("carryover is template-derived and always geometry-compatible");
        }
        for (shard, image) in self.shards.iter().zip(images) {
            merged
                .merge_image(&image.bytes)
                .map_err(merge_error(shard.index()))?;
        }
        // Still-draining rescaled- or rotated-away shards own their
        // traffic until reaped: snapshot and fold them too. (Replaced
        // primaries are skipped — their promoted successors already serve
        // their state.)
        for d in &self.draining {
            if d.mode == DrainMode::Discard {
                continue;
            }
            let Some((bytes, stale)) = d.shard.epoch_snapshot(self.snapshot_timeout) else {
                continue;
            };
            d.mode
                .fold_image(&mut merged, &d.template, &bytes)
                .map_err(merge_error(d.shard.index()))?;
            staleness.push(stale);
        }
        Ok(merged)
    }

    /// Measure one live shard's collision skew on its epoch snapshot,
    /// read off the image (the view just merged it), publish the gauges,
    /// and journal `AnomalousSkew` on the epoch the detector trips (once
    /// per trip, re-armed when the breach clears or the seeds rotate).
    fn observe_skew(&mut self, idx: usize, image: &[u8]) {
        let Some(policy) = self.skew_policy else {
            return;
        };
        let skew = self
            .template
            .image_skew(image)
            .expect("the view merged this image into a template copy");
        let load = skew.load_factor();
        let tel = self.shards[idx].telemetry();
        tel.skew_load.set_f64(load);
        tel.sign_bias.set_f64(skew.sign_bias());
        let tripped = self.skew_trackers[idx].observe(&policy, &skew);
        if tripped && !self.skew_tripped[idx] {
            self.spawner.registry.record(Event::AnomalousSkew {
                shard: self.shards[idx].index() as u32,
                load_milli: if load.is_finite() && load > 0.0 {
                    (load * 1000.0) as u64
                } else {
                    0
                },
                epochs: self.skew_trackers[idx].streak(),
            });
        }
        self.skew_tripped[idx] = tripped;
    }

    /// Stop every shard (live and draining), drain the rings, merge the
    /// final per-core sketches — plus the rescale carryover — into one
    /// global measurement, and return it with the fleet health record.
    /// Every shard is stopped even when one fails, so no worker thread
    /// outlives the error path. A draining *replaced* primary's spent
    /// restart budget is expected (that is why it was replaced) and folds
    /// into the retired health records instead of erroring; a *live*
    /// shard's spent budget is [`PipelineError::Shard`].
    pub fn finish(self) -> Result<(NitroSketch<S>, FleetHealth), PipelineError> {
        let (merged, fleet, spent) = self.shutdown()?;
        match spent.into_iter().next() {
            Some((shard, source)) => Err(PipelineError::Shard { shard, source }),
            None => Ok((merged, fleet)),
        }
    }

    /// Like [`ShardedPipeline::finish`], but a *live* shard whose restart
    /// budget is spent contributes its **last checkpoint** (restored into
    /// a template clone) instead of aborting the whole merge — the
    /// fallback when failover is off. Returns the merged sketch, the fleet
    /// health — whose accounting identity still holds, with the dead
    /// shard's unprocessed observations counted as dropped or lost — and
    /// the ids of the shards served degraded. Only a supervisor-thread
    /// panic (a bug, not a budget) still errors.
    pub fn finish_degraded(
        self,
    ) -> Result<(NitroSketch<S>, FleetHealth, Vec<usize>), PipelineError> {
        let (merged, fleet, spent) = self.shutdown()?;
        let degraded = spent.into_iter().map(|(shard, _)| shard).collect();
        Ok((merged, fleet, degraded))
    }

    /// The one shutdown path: settle every live and draining shard into
    /// the carryover-seeded merge. Returns the merge, the fleet health,
    /// and each live shard that ended on a spent restart budget (served
    /// from its last checkpoint) with the supervisor error that ended it.
    #[allow(clippy::type_complexity)]
    fn shutdown(
        self,
    ) -> Result<(NitroSketch<S>, FleetHealth, Vec<(usize, SupervisorError)>), PipelineError> {
        let ShardedPipeline {
            shards,
            draining,
            carryover,
            retired,
            template,
            ..
        } = self;
        let mut merged = NitroSketch::clone(&template);
        if let Some(carryover) = &carryover {
            merged
                .try_merge_from(carryover)
                .expect("carryover is template-derived and always geometry-compatible");
        }
        let mut fleet = FleetHealth::new();
        let mut spent = Vec::new();
        // Stop and join every shard before reporting anything: aborting on
        // the first error would leave sibling workers spinning on rings
        // nobody drains.
        let mut first_error = None;
        for shard in shards {
            let index = shard.index();
            let live = DrainingShard {
                shard,
                drain_after: 0,
                mode: DrainMode::MergeExact,
                template: Arc::clone(&template),
            };
            let (health, outcome) = live.settle(Some(&mut merged));
            fleet.push(health);
            match outcome {
                Ok(None) => {}
                Ok(Some(source)) => spent.push((index, source)),
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        for d in draining {
            let (health, outcome) = d.settle(Some(&mut merged));
            fleet.push_retired(health);
            if let Err(e) = outcome {
                first_error = first_error.or(Some(e));
            }
        }
        for h in retired {
            fleet.push_retired(h);
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok((merged, fleet, spent)),
        }
    }
}

/// Spawn a sharded measurement pipeline.
///
/// `factory(i)` builds shard *i*'s blank per-core measurement — and is
/// also what the shard's supervisor calls to rebuild after a panic, and
/// what a promotion restores a failed shard's checkpoint into. All instances **must wrap
/// geometry- and seed-identical sketches** (clone one configured
/// template, or construct with the same parameters); the per-shard
/// *sampler* seed is free to differ. A violation is caught at merge time
/// as [`PipelineError::Merge`], never folded silently.
///
/// Returns the dispatcher tap (for the switching thread) and the pipeline
/// handle (for the coordinator); [`PipelineError::EmptyFleet`] if
/// `config.shards == 0`.
pub fn spawn_sharded<S, F>(
    factory: F,
    config: PipelineConfig,
) -> Result<(ShardedTap, ShardedPipeline<S>), PipelineError>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
    F: Fn(usize) -> NitroSketch<S> + Send + Sync + 'static,
{
    let shards = config.shards;
    spawn_with_initial(factory, config, vec![None; shards])
}

/// Shared spawner behind [`spawn_sharded`] and
/// [`ShardedPipeline::recover_from`]: builds (and, for recovery, restores)
/// every shard's measurement *before* spawning any thread, so a
/// restore failure aborts with nothing running.
fn spawn_with_initial<S, F>(
    factory: F,
    config: PipelineConfig,
    initial: Vec<Option<&[u8]>>,
) -> Result<(ShardedTap, ShardedPipeline<S>), PipelineError>
where
    S: RowSketch + Checkpoint + Clone + Send + 'static,
    F: Fn(usize) -> NitroSketch<S> + Send + Sync + 'static,
{
    if config.shards == 0 {
        return Err(PipelineError::EmptyFleet);
    }
    assert_eq!(initial.len(), config.shards);
    if let Some(store) = &config.store {
        assert_eq!(
            store.num_shards(),
            config.shards,
            "durable store was created for a different fleet size"
        );
    }
    let spawner = ShardSpawner {
        factory: Arc::new(factory),
        supervisor: config.supervisor,
        fault_plans: config.fault_plans,
        store: config.store,
        registry: Arc::new(TelemetryRegistry::new()),
    };
    let template = Arc::new((spawner.factory)(0));
    let mut measurements = Vec::with_capacity(config.shards);
    for (i, recovered) in initial.into_iter().enumerate() {
        let mut m = (spawner.factory)(i);
        if let Some(bytes) = recovered {
            m.restore(bytes).map_err(merge_error(i))?;
        }
        measurements.push(m);
    }
    let (taps, shards) = spawner.spawn_fleet(measurements, 0);
    let router = Arc::new(Router::new());
    Ok((
        ShardedTap {
            taps,
            hash_seed: config.hash_seed,
            router: Arc::clone(&router),
            seen_version: 0,
        },
        ShardedPipeline {
            shards,
            failover: config.failover,
            probes: vec![(0, 0); config.shards],
            breakers: breakers(config.shards),
            draining: Vec::new(),
            carryover: None,
            retired: Vec::new(),
            template,
            epoch: 0,
            snapshot_timeout: config.snapshot_timeout,
            spawner,
            router,
            next_band: 1,
            promotions: 0,
            skew_policy: config.skew_policy,
            skew_trackers: vec![SkewTracker::default(); config.shards],
            skew_tripped: vec![false; config.shards],
            reseed: None,
            seed_rotations: 0,
            last_view: None,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::Mode;
    use nitro_sketches::CountMin;

    fn factory(i: usize) -> NitroSketch<CountMin> {
        // Identical sketch geometry/seeds across shards (required for the
        // merge); per-shard sampler seed keeps skip sequences independent.
        NitroSketch::new(
            CountMin::new(4, 2048, 7),
            Mode::Fixed { p: 1.0 },
            100 + i as u64,
        )
    }

    fn feed(tap: &mut ShardedTap, keys: impl Iterator<Item = u64>) {
        for (i, k) in keys.enumerate() {
            tap.offer(k, i as u64);
            if i % 512 == 0 {
                std::thread::yield_now(); // single-core CI: give workers air
            }
        }
    }

    fn drain(tap: &mut ShardedTap, pipeline: &ShardedPipeline<CountMin>, processed: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while pipeline.processed() < processed {
            tap.sync_routes();
            assert!(
                std::time::Instant::now() < deadline,
                "fleet never processed {processed} observations"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn dispatcher_is_stable_and_covers_all_shards() {
        let (tap, pipeline) = spawn_sharded(factory, PipelineConfig::default()).unwrap();
        let mut seen = vec![false; tap.num_shards()];
        for k in 0..1000u64 {
            let s = tap.shard_of(k);
            assert_eq!(s, tap.shard_of(k), "placement must be deterministic");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 keys must hit all 4 shards");
        let (_, fleet) = pipeline.finish().unwrap();
        assert_eq!(fleet.len(), 4);
    }

    #[test]
    fn zero_shards_is_a_typed_error_not_a_panic() {
        let result = spawn_sharded(
            factory,
            PipelineConfig {
                shards: 0,
                ..Default::default()
            },
        );
        assert!(matches!(result, Err(PipelineError::EmptyFleet)));

        let (_tap, mut pipeline) = spawn_sharded(
            factory,
            PipelineConfig {
                shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(
            pipeline.rescale(0),
            Err(PipelineError::EmptyFleet)
        ));
        pipeline.finish().unwrap();
    }

    #[test]
    fn max_occupancy_of_zero_taps_is_nan_not_zero() {
        let tap = ShardedTap {
            taps: Vec::new(),
            hash_seed: 0,
            router: Arc::new(Router::new()),
            seen_version: 0,
        };
        assert!(
            tap.max_occupancy().is_nan(),
            "no taps means no signal, not an idle (0.0) fleet"
        );
    }

    #[test]
    fn sharded_run_matches_exact_counts_at_p1() {
        let (mut tap, pipeline) = spawn_sharded(
            factory,
            PipelineConfig {
                shards: 3,
                ..Default::default()
            },
        )
        .unwrap();
        feed(&mut tap, (0..30_000u64).map(|i| i % 10));
        let (merged, fleet) = pipeline.finish().unwrap();
        assert_eq!(fleet.total().offered, 30_000);
        assert_eq!(fleet.unaccounted(), 0);
        assert_eq!(fleet.total().dropped, 0);
        for f in 0..10u64 {
            assert_eq!(merged.estimate(f), 3_000.0, "flow {f}");
        }
        assert_eq!(merged.stats().packets, 30_000);
    }

    #[test]
    fn epoch_view_serves_queries_while_running() {
        let (mut tap, mut pipeline) = spawn_sharded(factory, PipelineConfig::default()).unwrap();
        feed(&mut tap, (0..8_000u64).map(|i| i % 4));
        // Let the workers drain so the snapshot covers (nearly) everything.
        while pipeline.processed() < 8_000 {
            std::thread::yield_now();
        }
        let view = pipeline.epoch_view().unwrap();
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.staleness().len(), 4);
        // Fresh snapshots of a drained fleet: nothing may be missing.
        assert_eq!(view.staleness_bound(), 0);
        for f in 0..4u64 {
            assert_eq!(view.estimate(f), 2_000.0, "flow {f}");
        }
        // The pipeline keeps running after the rotation.
        feed(&mut tap, (0..4_000u64).map(|i| i % 4));
        let view2 = pipeline.epoch_view().unwrap();
        assert_eq!(view2.epoch(), 2);
        assert!(view2.estimate(0) >= view.estimate(0));
        let (_, fleet) = pipeline.finish().unwrap();
        assert_eq!(fleet.unaccounted(), 0);
    }

    #[test]
    fn incompatible_factory_surfaces_as_merge_error() {
        // Shard 1 builds a sketch with different hash seeds: the epoch
        // merge must fail loudly instead of folding garbage.
        let bad = |i: usize| {
            NitroSketch::new(
                CountMin::new(4, 2048, if i == 1 { 99 } else { 7 }),
                Mode::Fixed { p: 1.0 },
                100,
            )
        };
        let (mut tap, pipeline) = spawn_sharded(
            bad,
            PipelineConfig {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        feed(&mut tap, 0..100u64);
        let err = pipeline.finish().unwrap_err();
        match err {
            PipelineError::Merge { shard, source } => {
                assert_eq!(shard, 1);
                assert_eq!(source, CheckpointError::Mismatch("hash seeds"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn durable_pipeline_survives_simulated_process_death() {
        let dir = std::env::temp_dir().join(format!(
            "nitro-pipeline-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir, 3, StoreConfig::default()).unwrap();
        let config = PipelineConfig {
            shards: 3,
            supervisor: SupervisorConfig {
                checkpoint_every: 1_000,
                ..Default::default()
            },
            store: Some(store),
            ..Default::default()
        };
        let (mut tap, pipeline) = spawn_sharded(factory, config).unwrap();
        feed(&mut tap, (0..24_000u64).map(|i| i % 8));
        while pipeline.processed() < 24_000 {
            std::thread::yield_now();
        }
        let persisted = pipeline.fleet_health().total().persisted;
        assert!(
            persisted >= 3,
            "each shard persists at least its pristine state"
        );
        // What the crash may cost each shard: everything processed since
        // its newest persisted checkpoint, plus one in-flight batch.
        let bound: u64 = pipeline
            .shards()
            .iter()
            .map(|s| s.telemetry().persist_lag() + 64)
            .sum();
        drop(tap);
        pipeline.simulate_crash();

        let (mut tap, mut recovered, report) = ShardedPipeline::recover_from(
            &dir,
            factory,
            StoreConfig::default(),
            PipelineConfig {
                supervisor: SupervisorConfig {
                    checkpoint_every: 1_000,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.shards, 3);
        assert_eq!(report.generation, 2);
        // Count-Min never undercounts, so the recovered totals bracket the
        // truth from below by exactly that bound.
        let view = recovered.epoch_view().unwrap();
        let total: f64 = (0..8u64).map(|f| view.estimate(f)).sum();
        assert!(
            total >= 24_000.0 - bound as f64,
            "recovered total {total} lost more than the unpersisted {bound}"
        );
        assert!(total <= 24_000.0, "Count-Min cannot overshoot offered here");
        // The recovered fleet is live: new traffic lands on the restored
        // counters.
        feed(&mut tap, (0..8_000u64).map(|i| i % 8));
        let (merged, fleet) = recovered.finish().unwrap();
        assert_eq!(fleet.total().offered, 8_000);
        assert_eq!(fleet.unaccounted(), 0);
        let grand: f64 = (0..8u64).map(|f| merged.estimate(f)).sum();
        assert!(grand >= total + 8_000.0 - 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_shard_serves_degraded_views_instead_of_aborting_queries() {
        use crate::faults::ThreadFaultPlan;
        let plan = ThreadFaultPlan::new();
        plan.panic_after(1_000);
        let (mut tap, mut pipeline) = spawn_sharded(
            factory,
            PipelineConfig {
                shards: 2,
                supervisor: SupervisorConfig {
                    checkpoint_every: 500,
                    max_restarts: 0,
                    ..Default::default()
                },
                fault_plans: vec![(0, plan)],
                ..Default::default()
            },
        )
        .unwrap();
        feed(&mut tap, (0..20_000u64).map(|i| i % 16));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pipeline.failed_shards().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "shard 0 never exhausted its budget"
            );
            std::thread::yield_now();
        }
        assert_eq!(pipeline.failed_shards(), vec![0]);
        // Queries must keep working: the dead shard contributes its last
        // checkpoint, explicitly flagged, instead of erroring the epoch.
        let view = pipeline
            .epoch_view()
            .expect("a budget-exhausted shard must not abort queries");
        assert!(
            view.staleness()[0].degraded,
            "shard 0 must be marked degraded"
        );
        assert!(
            !view.staleness()[1].degraded,
            "healthy shard is not degraded"
        );
        assert!(
            view.staleness()[0].processed_at > 0,
            "degraded shard still serves real pre-crash state"
        );
        // Offers after the failure stay accounted (drained as lost).
        feed(&mut tap, (0..4_000u64).map(|i| i % 16));
        drop(tap);
        let (_, fleet, degraded) = pipeline.finish_degraded().unwrap();
        assert_eq!(degraded, vec![0]);
        assert_eq!(fleet.total().offered, 24_000);
        assert_eq!(fleet.unaccounted(), 0, "identity must survive shard death");
        assert!(fleet.shards()[0].lost_in_crash > 0);
    }

    /// A fleet whose counters no timing can perturb, however starved its
    /// workers are on a loaded single-core host: the ring holds a whole
    /// test run, so nothing drops; no occupancy reaches the downshift
    /// mark; no periodic checkpoint fits in the run; and the stall
    /// watchdog stays quiet.
    fn quiet(shards: usize) -> PipelineConfig {
        PipelineConfig {
            shards,
            supervisor: SupervisorConfig {
                ring_capacity: 1 << 16,
                high_water: 2.0,
                checkpoint_every: u64::MAX,
                stall_timeout: Duration::from_secs(60),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn finish_and_finish_degraded_agree_on_a_healthy_fleet() {
        let run = || {
            let (mut tap, pipeline) = spawn_sharded(factory, quiet(3)).unwrap();
            feed(&mut tap, (0..30_000u64).map(|i| i % 10));
            drain(&mut tap, &pipeline, 30_000);
            drop(tap);
            pipeline
        };
        let (strict, strict_fleet) = run().finish().unwrap();
        let (lenient, lenient_fleet, degraded) = run().finish_degraded().unwrap();
        assert!(degraded.is_empty());
        assert_eq!(strict.snapshot(), lenient.snapshot());
        assert_eq!(strict_fleet.shards(), lenient_fleet.shards());
        assert_eq!(strict_fleet.retired(), lenient_fleet.retired());
        assert_eq!(strict_fleet.total().offered, 30_000);
    }

    #[test]
    fn spent_budget_errors_finish_and_is_named_by_finish_degraded() {
        use crate::faults::ThreadFaultPlan;
        let run = || {
            let plan = ThreadFaultPlan::new();
            plan.panic_after(1_000);
            let (mut tap, pipeline) = spawn_sharded(
                factory,
                PipelineConfig {
                    shards: 2,
                    supervisor: SupervisorConfig {
                        checkpoint_every: 500,
                        max_restarts: 0,
                        ..Default::default()
                    },
                    fault_plans: vec![(1, plan)],
                    ..Default::default()
                },
            )
            .unwrap();
            feed(&mut tap, (0..20_000u64).map(|i| i % 16));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while pipeline.failed_shards().is_empty() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "shard 1 never exhausted its budget"
                );
                std::thread::yield_now();
            }
            drop(tap);
            pipeline
        };
        match run().finish() {
            Err(PipelineError::Shard {
                shard: 1,
                source: SupervisorError::RestartBudgetExhausted { .. },
            }) => {}
            other => panic!("expected shard 1's spent budget, got {:?}", other.err()),
        }
        let (_, fleet, degraded) = run().finish_degraded().unwrap();
        assert_eq!(degraded, vec![1]);
        assert_eq!(fleet.total().offered, 20_000);
        assert_eq!(fleet.unaccounted(), 0);
    }

    #[test]
    fn reap_error_keeps_unvisited_shards_draining_and_accounted() {
        // Old shard 1 lives in another seed space: its drain cannot fold.
        let bad = |i: usize| {
            NitroSketch::new(
                CountMin::new(4, 2048, if i == 1 { 99 } else { 7 }),
                Mode::Fixed { p: 1.0 },
                100,
            )
        };
        let (mut tap, mut pipeline) = spawn_sharded(bad, quiet(3)).unwrap();
        feed(&mut tap, (0..30_000u64).map(|i| i % 10));
        drain(&mut tap, &pipeline, 30_000);
        // Shrink to shard 0 alone, so the new fleet is merge-compatible.
        pipeline.rescale(1).unwrap();
        feed(&mut tap, (0..5_000u64).map(|i| i % 10));
        drain(&mut tap, &pipeline, 35_000);
        match pipeline.epoch_view() {
            Err(PipelineError::Merge { shard: 1, source }) => {
                assert_eq!(source, CheckpointError::Mismatch("hash seeds"));
            }
            other => panic!("expected shard 1's merge error, got {:?}", other.err()),
        }
        // Old shard 2 was behind shard 1 on the draining list: it must
        // still be there to be joined, and shard 1's record must not have
        // vanished with its sketch.
        drop(tap);
        let (_, fleet, degraded) = pipeline.finish_degraded().unwrap();
        assert!(degraded.is_empty());
        assert_eq!(fleet.retired().len(), 3);
        assert_eq!(fleet.total().offered, 35_000);
        assert_eq!(fleet.unaccounted(), 0);
    }

    #[test]
    fn single_shard_pipeline_degenerates_to_supervised_daemon() {
        let (mut tap, pipeline) = spawn_sharded(
            factory,
            PipelineConfig {
                shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        feed(&mut tap, (0..5_000u64).map(|i| i % 5));
        let (merged, fleet) = pipeline.finish().unwrap();
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.unaccounted(), 0);
        assert_eq!(merged.estimate(3), 1_000.0);
    }

    #[test]
    fn promotion_replaces_a_failed_primary_without_degraded_views() {
        use crate::faults::ThreadFaultPlan;
        let plan = ThreadFaultPlan::new();
        plan.panic_after(2_000);
        let (mut tap, mut pipeline) = spawn_sharded(
            factory,
            PipelineConfig {
                shards: 2,
                supervisor: SupervisorConfig {
                    checkpoint_every: 500,
                    max_restarts: 0,
                    ..Default::default()
                },
                fault_plans: vec![(0, plan)],
                failover: true,
                ..Default::default()
            },
        )
        .unwrap();
        feed(&mut tap, (0..20_000u64).map(|i| i % 16));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pipeline.failed_shards().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "shard 0 never exhausted its budget"
            );
            std::thread::yield_now();
        }
        // The successor is restored from the dead primary's last published
        // checkpoint, so what the primary processed after it (plus one
        // batch) is what the promotion may cost.
        let lag = pipeline.shards()[0].latest_checkpoint().unwrap().lag + 64;
        // The rotation promotes the shard in-line: no degraded view.
        let view = pipeline.epoch_view().unwrap();
        assert_eq!(pipeline.promotions(), 1);
        assert!(
            pipeline.failed_shards().is_empty(),
            "failed primary replaced"
        );
        assert!(
            view.staleness().iter().all(|s| !s.degraded),
            "failover must keep every view non-degraded"
        );
        // Traffic keeps flowing to the promoted daemon and stays accounted.
        feed(&mut tap, (0..8_000u64).map(|i| i % 16));
        drain(&mut tap, &pipeline, 0); // sync routes so draining can finish
        drop(tap);
        let (merged, fleet) = pipeline.finish().unwrap();
        assert_eq!(fleet.total().offered, 28_000);
        assert_eq!(fleet.unaccounted(), 0, "identity must survive promotion");
        assert!(
            !fleet.retired().is_empty(),
            "the replaced primary's record is retained"
        );
        // The checkpoint carried the state: estimates are within the dead
        // primary's uncheckpointed updates of the truth on the failed
        // shard, exact elsewhere.
        let total: f64 = (0..16u64).map(|f| merged.estimate(f)).sum();
        assert!(total <= 28_000.0);
        assert!(
            total >= 28_000.0 - lag as f64 - fleet.total().lost_in_crash as f64,
            "promotion may cost at most the {lag} uncheckpointed updates: {total}"
        );
    }

    #[test]
    fn rescale_migrates_flows_without_dropping_or_double_counting() {
        let (mut tap, mut pipeline) = spawn_sharded(
            factory,
            PipelineConfig {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        feed(&mut tap, (0..20_000u64).map(|i| i % 10));
        drain(&mut tap, &pipeline, 20_000);

        pipeline.rescale(4).unwrap();
        assert_eq!(pipeline.num_shards(), 4);
        feed(&mut tap, (0..10_000u64).map(|i| i % 10));
        drain(&mut tap, &pipeline, 30_000);
        let view = pipeline.epoch_view().unwrap();
        for f in 0..10u64 {
            assert_eq!(
                view.estimate(f),
                3_000.0,
                "flow {f} must be exact across the grow transition"
            );
        }

        pipeline.rescale(1).unwrap();
        assert_eq!(pipeline.num_shards(), 1);
        feed(&mut tap, (0..10_000u64).map(|i| i % 10));
        drain(&mut tap, &pipeline, 40_000);
        drop(tap);
        let (merged, fleet) = pipeline.finish().unwrap();
        assert_eq!(fleet.total().offered, 40_000);
        assert_eq!(fleet.total().dropped, 0);
        assert_eq!(
            fleet.unaccounted(),
            0,
            "identity must hold across 2 → 4 → 1"
        );
        assert_eq!(fleet.len(), 1, "one live shard after the shrink");
        assert_eq!(
            fleet.retired().len(),
            6,
            "2 + 4 drained shards retire with their records"
        );
        for f in 0..10u64 {
            assert_eq!(
                merged.estimate(f),
                4_000.0,
                "flow {f}: nothing dropped, nothing double-counted"
            );
        }
    }
}
