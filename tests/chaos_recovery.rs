//! Chaos harness for the durable checkpoint store: deterministic seeded
//! kill schedules (worker panics + simulated full-process death) and disk
//! fault injection (torn writes, bit flips, truncated segments), asserting
//! after *every* recovery that heavy-hitter recall and the L1/L2 error
//! stay within the theory-module bounds plus the documented recovery loss
//! — per shard per crash, at most what the shard processed since its
//! newest persisted checkpoint (its `persist_lag`: `checkpoint_every` plus
//! the updates made during one in-flight persist) + one in-flight batch,
//! with every observation's fate accounted in [`FleetHealth`]. Where the
//! test can read `persist_lag` just before the failure it asserts exactly
//! that per shard.
//!
//! A "process crash" here is [`ShardedPipeline::simulate_crash`]: the
//! store freezes (nothing after the crash instant reaches disk), all
//! in-memory sketch state is discarded, and the next incarnation is
//! rebuilt purely from the segment logs via
//! [`ShardedPipeline::recover_from`].

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::prelude::*;
use nitrosketch::switch::frame;
use nitrosketch::switch::store::LogHeader;
use nitrosketch::switch::{
    CheckpointStore, DiskFaultPlan, PipelineConfig, RecoveryReport, ShardedPipeline, ShardedTap,
    StoreConfig, SupervisorConfig, ThreadFaultPlan,
};
use std::path::PathBuf;
use std::sync::Arc;

const SHARDS: usize = 3;
const CHECKPOINT_EVERY: u64 = 5_000;
const WIDTH: usize = 1 << 14;
const BATCH: u64 = 64;

/// One checkpoint interval of updates plus one in-flight batch: the loss
/// allowance for a failure whose exposure the test cannot read at the
/// instant it strikes (a worker panic, a vandalised log).
const LOSS_PER_SHARD: f64 = (CHECKPOINT_EVERY + BATCH) as f64;

/// Bring every shard's unpersisted tail back within one checkpoint
/// interval. A slow disk defers checkpoints instead of stalling the
/// worker, so right after a burst the tail can be most of it: a crash then
/// loses exactly that (asserted against `persist_lag`), but heavy-hitter
/// recall over the stream could not survive it. A shard that is behind —
/// or whose panic restart already lost updates, which `persist_lag` keeps
/// counting — is flushed with an on-demand snapshot, which is persisted
/// before it is acknowledged; the others keep their tail for the crash.
fn settle(pipeline: &ShardedPipeline<CountSketch>) {
    for shard in pipeline.shards() {
        if shard.telemetry().persist_lag() > CHECKPOINT_EVERY {
            let (_, stale) = shard
                .epoch_snapshot(std::time::Duration::from_secs(60))
                .expect("a live shard serves a snapshot");
            assert!(stale.fresh, "shard {} never persisted", shard.index());
        }
    }
}

/// Per shard, `(processed, persist_lag)` read just before a failure: the
/// failure may cost that shard at most `persist_lag + BATCH` updates.
fn exposure(pipeline: &ShardedPipeline<CountSketch>) -> Vec<(u64, u64)> {
    pipeline
        .shards()
        .iter()
        .map(|s| (s.processed(), s.telemetry().persist_lag()))
        .collect()
}

/// Assert every shard recovered all but at most `persist_lag + BATCH` of
/// what it had processed when `exposure` was read, and return the summed
/// allowance for the bounds checks.
fn assert_recovered_within_lag(exposure: &[(u64, u64)], report: &RecoveryReport) -> f64 {
    let mut allowance = 0;
    for (shard, (&(processed, lag), frame)) in exposure.iter().zip(&report.recovered).enumerate() {
        let frame = frame.as_ref().expect("every shard had durable state");
        let loss = processed.saturating_sub(frame.processed_at);
        assert!(
            loss <= lag + BATCH,
            "shard {shard} lost {loss} updates, persist_lag was {lag}"
        );
        allowance += lag + BATCH;
    }
    allowance as f64
}

fn factory(i: usize) -> NitroSketch<CountSketch> {
    // Identical geometry/seeds on every shard (merge precondition); only
    // the sampler seed differs. p = 1 keeps counting exact so every
    // shortfall in the asserts below is attributable to a crash, never to
    // sampling noise.
    NitroSketch::new(
        CountSketch::new(5, WIDTH, 311),
        Mode::Fixed { p: 1.0 },
        900 + i as u64,
    )
    .with_topk(128)
}

fn sup_config() -> SupervisorConfig {
    SupervisorConfig {
        ring_capacity: 1 << 17,
        checkpoint_every: CHECKPOINT_EVERY,
        // Never downshift: the bounds assume exact counting.
        high_water: 1.1,
        ..Default::default()
    }
}

fn pipe_config(store: Option<Arc<CheckpointStore>>) -> PipelineConfig {
    PipelineConfig {
        shards: SHARDS,
        supervisor: sup_config(),
        store,
        ..Default::default()
    }
}

fn store_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nitro-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn zipf_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut z = nitrosketch::traffic::zipf::Zipf::new(20_000, 1.2, seed);
    (0..n).map(|_| z.sample()).collect()
}

fn offer_all(tap: &mut ShardedTap, keys: &[u64]) {
    for (i, &k) in keys.iter().enumerate() {
        tap.offer(k, i as u64);
        if i % 512 == 0 {
            std::thread::yield_now(); // single-core CI: give workers air
        }
    }
}

/// Wait until every observation offered so far is accounted for —
/// processed, dropped, or lost to a crash — i.e. the rings are empty and
/// all restart accounting has landed. Draining on the identity itself
/// (recomputed every iteration) stays sound when a worker panics *while*
/// we wait; a precomputed `processed` target would dangle forever the
/// moment a late panic converts in-flight items to `lost_in_crash`.
fn drain(pipeline: &ShardedPipeline<CountSketch>) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while pipeline.fleet_health().unaccounted() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "fleet failed to drain: {}",
            pipeline.fleet_health()
        );
        std::thread::yield_now();
    }
}

/// Deterministic schedule source (splitmix64): the kill points below are a
/// pure function of the seed, so a failure reproduces bit-identically.
struct Schedule(u64);

impl Schedule {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A chunk length in `[lo, hi)`.
    fn chunk(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }
}

/// CountSketch point-error scale: ε·L2 with ε = 3/√width (the same bound
/// `core::theory` sizes widths from, inverted for a fixed width).
fn eps_l2(truth: &GroundTruth) -> f64 {
    3.0 * truth.l2() / (WIDTH as f64).sqrt()
}

/// Point-estimate and L2 bounds only (no recall): the right check for a
/// *mid-stream* view where a crash's accounted losses may have emptied
/// individual flows entirely — their estimates stay within the loss
/// budget, but a fully-drained flow cannot be recalled until traffic
/// refills it.
fn assert_points_within(merged: &NitroSketch<CountSketch>, truth: &GroundTruth, allowed_loss: f64) {
    let eps = eps_l2(truth);
    for &(k, t) in truth.top_k(10).iter() {
        let est = merged.estimate(k);
        assert!(
            est >= t - allowed_loss - eps && est <= t + eps,
            "flow {k:#x}: estimate {est} vs truth {t} (eps {eps}, loss {allowed_loss})"
        );
    }
    let l2 = merged.inner().l2_squared_estimate().max(0.0).sqrt();
    assert!(
        l2 >= truth.l2() - allowed_loss - eps && l2 <= truth.l2() + eps,
        "L2 estimate {l2} vs truth {} (loss {allowed_loss})",
        truth.l2()
    );
}

/// Assert HH recall and point/L2 error on a merged sketch covering
/// `truth`, allowing `allowed_loss` observations lost to crashes (plus
/// drops, which callers fold in) on top of the sketch's own ε bound.
fn assert_within_bounds(merged: &NitroSketch<CountSketch>, truth: &GroundTruth, allowed_loss: f64) {
    let eps = eps_l2(truth);
    // Point estimates of the heaviest flows: within ε·L2 of the truth,
    // minus at most the crash loss (a lost update only ever shrinks a
    // p = 1 counter, never inflates it).
    for &(k, t) in truth.top_k(10).iter() {
        let est = merged.estimate(k);
        assert!(
            est >= t - allowed_loss - eps && est <= t + eps,
            "flow {k:#x}: estimate {est} vs truth {t} (eps {eps}, loss {allowed_loss})"
        );
    }
    // Heavy-hitter recall ≥ 90% at the 0.5% threshold; querying slightly
    // below threshold absorbs the crash-loss undercount.
    let hh_truth = truth.heavy_hitters(0.005);
    assert!(hh_truth.len() >= 8, "stream not skewed enough to test");
    let threshold = 0.005 * truth.l1();
    let found = merged.heavy_hitters(0.8 * threshold - allowed_loss.min(0.5 * threshold));
    let recalled = hh_truth
        .iter()
        .filter(|&&(k, _)| found.iter().any(|&(fk, _)| fk == k))
        .count();
    assert!(
        recalled * 10 >= hh_truth.len() * 9,
        "heavy-hitter recall {recalled}/{} after recovery",
        hh_truth.len()
    );
    // L2: the sketch's relative error plus the lost mass.
    let l2 = merged.inner().l2_squared_estimate().max(0.0).sqrt();
    assert!(
        l2 >= truth.l2() - allowed_loss - eps && l2 <= truth.l2() + eps,
        "L2 estimate {l2} vs truth {} (loss {allowed_loss})",
        truth.l2()
    );
}

/// The tentpole end-to-end: a seeded schedule kills the whole process
/// twice (plus one in-process worker panic between the kills); every
/// incarnation recovers purely from disk; bounds hold after each recovery
/// and at the end over the *entire* stream.
#[test]
fn seeded_kill_schedule_recovers_every_incarnation_within_bounds() {
    let dir = store_dir("schedule");
    let keys = zipf_stream(210_000, 4242);
    let mut sched = Schedule(0xC0FF_EE00_D15E_A5E5);
    let c1 = sched.chunk(50_000, 70_000);
    let c2 = sched.chunk(50_000, 70_000);
    let cuts = [c1, c1 + c2];

    let mut allowed_loss = 0.0f64;

    // Incarnation 1: fresh store, feed to the first kill point, die.
    let store = CheckpointStore::create(&dir, SHARDS, StoreConfig::default()).unwrap();
    let (mut tap, pipeline) =
        nitrosketch::switch::spawn_sharded(factory, pipe_config(Some(store))).expect("spawn");
    offer_all(&mut tap, &keys[..cuts[0]]);
    drain(&pipeline);
    allowed_loss += pipeline.fleet_health().total().dropped as f64;
    settle(&pipeline);
    let exposed = exposure(&pipeline);
    drop(tap);
    pipeline.simulate_crash();

    // Incarnation 2: recover from disk, check bounds over chunk 1, absorb
    // chunk 2 with a worker panic mid-way, die again.
    let panic_plan = ThreadFaultPlan::new();
    panic_plan.panic_after(10_000);
    let mut cfg = pipe_config(None);
    cfg.fault_plans = vec![(1, panic_plan.clone())];
    let (mut tap, pipeline, report) =
        ShardedPipeline::recover_from(&dir, factory, StoreConfig::default(), cfg).unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.shards, SHARDS);
    assert!(
        report.blank_shards().is_empty(),
        "all shards had durable state"
    );
    allowed_loss += assert_recovered_within_lag(&exposed, &report);
    {
        let truth1 = GroundTruth::from_keys(keys[..cuts[0]].iter().copied());
        let view = pipeline.shards().iter().fold(factory(0), |mut acc, s| {
            let v = s.latest_checkpoint().unwrap();
            let mut restored = factory(0);
            restored.restore(&v.bytes).unwrap();
            acc.try_merge_from(&restored).unwrap();
            acc
        });
        assert_within_bounds(&view, &truth1, allowed_loss);
    }
    offer_all(&mut tap, &keys[cuts[0]..cuts[1]]);
    drain(&pipeline);
    let h = pipeline.fleet_health();
    assert_eq!(panic_plan.fired(), 1, "the scheduled worker panic fired");
    assert_eq!(h.shards()[1].restarts, 1, "shard 1 restarted in-process");
    assert_eq!(h.unaccounted(), 0, "identity across panic recovery: {h}");
    // The in-process panic costs at most one interval + batch on shard 1;
    // the second process kill is checked against each shard's lag.
    allowed_loss += LOSS_PER_SHARD + (h.total().dropped + h.total().lost_in_crash) as f64;
    settle(&pipeline);
    let exposed = exposure(&pipeline);
    drop(tap);
    pipeline.simulate_crash();

    // Incarnation 3: recover, absorb the tail, finish cleanly, and check
    // the merged result against ground truth of the WHOLE stream.
    let (mut tap, pipeline, report) =
        ShardedPipeline::recover_from(&dir, factory, StoreConfig::default(), pipe_config(None))
            .unwrap();
    assert_eq!(report.generation, 3);
    allowed_loss += assert_recovered_within_lag(&exposed, &report);
    offer_all(&mut tap, &keys[cuts[1]..]);
    drop(tap);
    let (merged, fleet) = pipeline
        .finish()
        .expect("final incarnation shuts down clean");
    assert_eq!(fleet.unaccounted(), 0, "final identity: {fleet}");
    allowed_loss += fleet.total().dropped as f64;
    let truth = GroundTruth::from_keys(keys.iter().copied());
    assert_within_bounds(&merged, &truth, allowed_loss);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Torn-write injection: a checkpoint append is cut mid-frame and the
/// store freezes at that instant (a torn write IS the crash). Recovery
/// must truncate the torn tail, fall back to the previous durable frame,
/// and stay within one extra checkpoint interval of loss.
#[test]
fn torn_write_at_crash_instant_recovers_from_previous_frame() {
    let dir = store_dir("torn");
    let keys = zipf_stream(90_000, 77);
    let plan = DiskFaultPlan::new();
    let store = CheckpointStore::create(&dir, SHARDS, StoreConfig::default())
        .unwrap()
        .with_fault_plan(plan.clone());
    let (mut tap, pipeline) =
        nitrosketch::switch::spawn_sharded(factory, pipe_config(Some(store))).expect("spawn");

    // Phase 1: clean traffic, several durable checkpoints per shard.
    offer_all(&mut tap, &keys[..60_000]);
    drain(&pipeline);
    let clean_drops = pipeline.fleet_health().total().dropped;
    settle(&pipeline);
    // Every append from here on either lands or is the tear, so each
    // shard recovers at least what it had persisted by now.
    let exposed = exposure(&pipeline);

    // Phase 2: arm the torn write — the very next checkpoint append on any
    // shard is cut mid-frame and freezes the store — then keep feeding so
    // a checkpoint actually fires.
    plan.torn_write_after(0);
    offer_all(&mut tap, &keys[60_000..]);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while plan.fired() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint append happened after arming the torn write"
        );
        std::thread::yield_now();
    }
    drop(tap);
    pipeline.simulate_crash();

    let (_tap, pipeline, report) =
        ShardedPipeline::recover_from(&dir, factory, StoreConfig::default(), pipe_config(None))
            .unwrap();
    assert_eq!(
        report.torn_tails_truncated, 1,
        "exactly the injected torn frame is repaired: {report:?}"
    );
    assert!(report.frames_valid > 0, "pre-tear frames survive");
    // Everything from phase 1 minus each shard's lag at the end of it
    // must be recovered: the tear only costs the shard it hit its newest
    // frame, and the freeze caps every shard at its last pre-tear
    // checkpoint.
    let truth1 = GroundTruth::from_keys(keys[..60_000].iter().copied());
    let allowed = assert_recovered_within_lag(&exposed, &report) + clean_drops as f64;
    let (merged, fleet, degraded) = pipeline.finish_degraded().unwrap();
    assert!(degraded.is_empty(), "recovered fleet is healthy");
    assert_eq!(fleet.unaccounted(), 0);
    assert_within_bounds(&merged, &truth1, allowed);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Silent on-disk corruption after a clean shutdown: a flipped bit in one
/// shard's newest frame and a truncated tail on another. Recovery must
/// reject exactly the damaged frames via the checksum, repair the logs,
/// and serve the previous durable state of the damaged shards.
#[test]
fn bit_flips_and_truncated_segments_are_rejected_by_recovery() {
    let dir = store_dir("corrupt");
    let keys = zipf_stream(80_000, 99);
    let store = CheckpointStore::create(&dir, SHARDS, StoreConfig::default()).unwrap();
    let (mut tap, pipeline) =
        nitrosketch::switch::spawn_sharded(factory, pipe_config(Some(store))).expect("spawn");
    offer_all(&mut tap, &keys);
    drain(&pipeline);
    let drops = pipeline.fleet_health().total().dropped;
    settle(&pipeline);
    drop(tap);
    pipeline.simulate_crash();

    // Vandalise the logs: flip one payload bit in the middle frame of
    // shard 0's active log, chop 21 bytes off shard 1's. Shard 2 is left
    // pristine. The middle frame is the one the log's middle byte falls in
    // when every frame is a keyframe of one size; a delta log's frames
    // differ in size, so the frame is picked by index, not by byte.
    let flip = dir.join("shard-0000/active.log");
    let mut data = std::fs::read(&flip).unwrap();
    let mut frames = Vec::new();
    let mut at = 0;
    while at < data.len() {
        let len = frame::decode::<LogHeader>(&data[at..]).unwrap().len;
        frames.push(at..at + len);
        at += len;
    }
    let middle = &frames[frames.len() / 2];
    data[(middle.start + middle.end) / 2] ^= 0x04;
    std::fs::write(&flip, &data).unwrap();
    let chop = dir.join("shard-0001/active.log");
    let len = std::fs::metadata(&chop).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&chop).unwrap();
    f.set_len(len - 21).unwrap();
    drop(f);

    let (_tap, pipeline, report) =
        ShardedPipeline::recover_from(&dir, factory, StoreConfig::default(), pipe_config(None))
            .unwrap();
    assert!(
        report.corrupt_frames >= 1,
        "the bit flip must be caught by the frame checksum: {report:?}"
    );
    assert!(
        report.torn_tails_truncated >= 1,
        "the chopped tail must be repaired: {report:?}"
    );
    assert!(
        report.blank_shards().is_empty(),
        "every shard falls back to an older intact frame, none to blank"
    );
    // Damaged shards lose at most one extra checkpoint interval each (the
    // rejected newest frame), on top of the usual crash bound.
    let truth = GroundTruth::from_keys(keys.iter().copied());
    let allowed = SHARDS as f64 * LOSS_PER_SHARD + 2.0 * LOSS_PER_SHARD + drops as f64;
    let (merged, _, _) = pipeline.finish_degraded().unwrap();
    assert_within_bounds(&merged, &truth, allowed);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard whose restart budget is exhausted mid-stream: queries must keep
/// working (degraded, last-checkpoint state), the fleet identity must hold
/// to the last observation, and the surviving shards' flows must still
/// meet the bounds.
#[test]
fn budget_exhausted_shard_degrades_queries_without_aborting_them() {
    let dir = store_dir("budget");
    let keys = zipf_stream(120_000, 1234);
    let plan = ThreadFaultPlan::new();
    plan.panic_after(5_000);
    let store = CheckpointStore::create(&dir, SHARDS, StoreConfig::default()).unwrap();
    let mut cfg = pipe_config(Some(store));
    cfg.supervisor.max_restarts = 0; // first panic is fatal for the shard
    cfg.fault_plans = vec![(0, plan.clone())];
    let (mut tap, mut pipeline) = nitrosketch::switch::spawn_sharded(factory, cfg).expect("spawn");

    offer_all(&mut tap, &keys);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while pipeline.failed_shards().is_empty() {
        assert!(std::time::Instant::now() < deadline, "shard 0 never failed");
        std::thread::yield_now();
    }
    assert_eq!(pipeline.failed_shards(), vec![0]);

    // Queries survive the dead shard: no error, explicit degraded flag,
    // real pre-crash state from shard 0's last checkpoint.
    let view = pipeline
        .epoch_view()
        .expect("a budget-exhausted shard must not abort the query plane");
    assert!(view.staleness()[0].degraded);
    assert!(view.staleness().iter().skip(1).all(|s| !s.degraded));
    assert!(view.estimate(truth_heaviest(&keys)) > 0.0);

    // Partition the true heavy hitters by the dispatcher's placement while
    // the tap is still alive: flows on the dead shard are frozen at their
    // pre-crash counts, flows elsewhere must meet the full bound.
    let truth = GroundTruth::from_keys(keys.iter().copied());
    let hh_truth = truth.heavy_hitters(0.005);
    assert!(hh_truth.len() >= 8, "stream not skewed enough to test");
    let (dead_hh, live_hh): (Vec<_>, Vec<_>) =
        hh_truth.iter().partition(|&&(k, _)| tap.shard_of(k) == 0);
    assert!(
        !dead_hh.is_empty(),
        "no heavy flow landed on the dead shard"
    );
    drop(tap);
    let (merged, fleet, degraded) = pipeline.finish_degraded().unwrap();
    assert_eq!(degraded, vec![0]);
    assert_eq!(
        fleet.total().offered,
        keys.len() as u64,
        "every offer reached a shard"
    );
    assert_eq!(
        fleet.unaccounted(),
        0,
        "identity with a dead shard: {fleet}"
    );
    assert!(
        fleet.shards()[0].lost_in_crash > 0,
        "post-failure traffic to shard 0 is accounted as lost: {fleet}"
    );
    // Flows on surviving shards meet the ordinary sketch bound (their
    // shards never crashed; only ring drops apply). Flows on the dead
    // shard serve whatever the last checkpoint covered — present, never
    // inflated, possibly far behind the truth.
    let eps = eps_l2(&truth);
    let drops = fleet.total().dropped as f64;
    for &&(k, t) in &live_hh {
        let est = merged.estimate(k);
        assert!(
            est >= t - drops - eps && est <= t + eps,
            "surviving flow {k:#x}: estimate {est} vs truth {t}"
        );
    }
    let threshold = 0.005 * truth.l1();
    let found = merged.heavy_hitters(0.8 * threshold - drops.min(0.3 * threshold));
    let recalled = live_hh
        .iter()
        .filter(|&&&(k, _)| found.iter().any(|&(fk, _)| fk == k))
        .count();
    assert!(
        recalled * 10 >= live_hh.len() * 9,
        "recall {recalled}/{} among flows on surviving shards",
        live_hh.len()
    );
    for &&(k, t) in &dead_hh {
        let est = merged.estimate(k);
        assert!(
            est <= t + eps,
            "dead-shard flow {k:#x} inflated: {est} vs truth {t}"
        );
        assert!(est >= -eps, "dead-shard flow {k:#x} served garbage: {est}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn truth_heaviest(keys: &[u64]) -> u64 {
    GroundTruth::from_keys(keys.iter().copied()).top_k(1)[0].0
}

/// Drain variant for failover fleets: keeps applying pending route
/// updates on the producer side so a promotion or rescale can complete
/// while we wait for the accounting identity to close.
fn drain_synced(tap: &mut ShardedTap, pipeline: &ShardedPipeline<CountSketch>) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        tap.sync_routes();
        if pipeline.fleet_health().unaccounted() == 0 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fleet failed to drain: {}",
            pipeline.fleet_health()
        );
        std::thread::yield_now();
    }
}

/// The failover acceptance run: with failover enabled, a seeded kill that
/// exhausts a primary's restart budget yields **zero** degraded epochs —
/// the coordinator promotes the shard inside the rotation and every view
/// answers within the sketch ε plus one checkpoint interval — and
/// the fleet identity `offered == processed + dropped + lost` holds
/// across both the promotion and a rescale(3 → 5 → 2) sequence.
#[test]
fn replication_yields_zero_degraded_epochs_across_promotion_and_rescale() {
    let dir = store_dir("failover");
    let keys = zipf_stream(150_000, 2025);
    let plan = ThreadFaultPlan::new();
    plan.panic_after(5_000);
    let store = CheckpointStore::create(&dir, SHARDS, StoreConfig::default()).unwrap();
    let mut cfg = pipe_config(Some(store));
    cfg.supervisor.max_restarts = 0; // the scheduled panic spends the budget
    cfg.fault_plans = vec![(0, plan.clone())];
    cfg.failover = true;
    let (mut tap, mut pipeline) = nitrosketch::switch::spawn_sharded(factory, cfg).expect("spawn");

    // Phase 1: the kill lands inside this window and shard 0's budget is
    // spent (max_restarts = 0).
    offer_all(&mut tap, &keys[..60_000]);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while pipeline.failed_shards().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "shard 0 never exhausted its budget"
        );
        std::thread::yield_now();
    }
    assert_eq!(plan.fired(), 1);
    // The successor restores the dead primary's last checkpoint, which is
    // no older than its newest persisted one.
    let promotion_loss = (exposure(&pipeline)[0].1 + BATCH) as f64;

    // The rotation promotes the shard in-line: the view over a formally
    // dead shard is *not* degraded, and the estimates are within ε plus
    // the state the checkpoint had not yet seen.
    let view = pipeline
        .epoch_view()
        .expect("promotion inside the rotation");
    assert_eq!(pipeline.promotions(), 1, "the failed shard was promoted");
    assert!(
        pipeline.failed_shards().is_empty(),
        "no failed shard remains"
    );
    assert!(
        view.staleness().iter().all(|s| !s.degraded),
        "zero degraded epochs with failover enabled"
    );
    drain_synced(&mut tap, &pipeline);
    let h = pipeline.fleet_health();
    let mut allowed = promotion_loss + (h.total().dropped + h.total().lost_in_crash) as f64;
    let view = pipeline.epoch_view().expect("post-promotion rotation");
    assert!(view.staleness().iter().all(|s| !s.degraded));
    assert_points_within(
        view.sketch(),
        &GroundTruth::from_keys(keys[..60_000].iter().copied()),
        allowed,
    );

    // Phase 2: grow the fleet online, keep feeding, views stay clean.
    pipeline.rescale(5).expect("grow 3 -> 5");
    assert_eq!(pipeline.num_shards(), 5);
    offer_all(&mut tap, &keys[60_000..110_000]);
    drain_synced(&mut tap, &pipeline);
    let h = pipeline.fleet_health();
    allowed = promotion_loss + (h.total().dropped + h.total().lost_in_crash) as f64;
    let view = pipeline.epoch_view().expect("rotation after grow");
    assert!(view.staleness().iter().all(|s| !s.degraded));
    assert_points_within(
        view.sketch(),
        &GroundTruth::from_keys(keys[..110_000].iter().copied()),
        allowed,
    );

    // Phase 3: shrink below the original size, absorb the tail, finish
    // clean — no degraded merge path anywhere.
    pipeline.rescale(2).expect("shrink 5 -> 2");
    assert_eq!(pipeline.num_shards(), 2);
    offer_all(&mut tap, &keys[110_000..]);
    drain_synced(&mut tap, &pipeline);
    drop(tap);
    let (merged, fleet) = pipeline
        .finish()
        .expect("the failover fleet finishes the strict path");
    assert_eq!(
        fleet.total().offered,
        keys.len() as u64,
        "every offer reached a shard across promotion and rescale"
    );
    assert_eq!(
        fleet.unaccounted(),
        0,
        "identity across promotion + rescale(3 -> 5 -> 2): {fleet}"
    );
    assert_eq!(fleet.len(), 2, "two live shards after the shrink");
    assert_eq!(
        fleet.retired().len(),
        9,
        "1 replaced primary + 3 + 5 drained shards: {fleet}"
    );
    let allowed = promotion_loss + (fleet.total().dropped + fleet.total().lost_in_crash) as f64;
    assert_within_bounds(
        &merged,
        &GroundTruth::from_keys(keys.iter().copied()),
        allowed,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill the primary immediately after a periodic checkpoint publish and
/// verify the promoted successor's estimates stay within the theory ε
/// plus the updates the primary made after that checkpoint was taken. No
/// durable store: the supervisor's in-memory slot is the only surviving
/// state.
#[test]
fn promotion_after_a_checkpoint_panic_loses_at_most_the_lag() {
    let keys = zipf_stream(100_000, 31337);
    let plan = ThreadFaultPlan::new();
    // Die right after the 3rd periodic checkpoint is published.
    plan.panic_after_checkpoints(2);
    let mut cfg = pipe_config(None);
    cfg.supervisor.max_restarts = 0;
    cfg.fault_plans = vec![(1, plan.clone())];
    cfg.failover = true;
    let (mut tap, mut pipeline) = nitrosketch::switch::spawn_sharded(factory, cfg).expect("spawn");

    offer_all(&mut tap, &keys);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while pipeline.failed_shards().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "shard 1 never died after a checkpoint"
        );
        std::thread::yield_now();
    }
    assert_eq!(
        plan.fired(),
        1,
        "the checkpoint-synchronised kill fired once"
    );
    // Without a store nothing is persisted, so `persist_lag` would be all
    // of `processed`: the bound is the lag behind the checkpoint the
    // successor restores.
    let promotion_loss = (pipeline.shards()[1].latest_checkpoint().unwrap().lag + BATCH) as f64;

    let view = pipeline
        .epoch_view()
        .expect("promotion inside the rotation");
    assert_eq!(pipeline.promotions(), 1);
    assert!(
        view.staleness().iter().all(|s| !s.degraded),
        "the successor serves the dead shard's slice non-degraded"
    );

    drain_synced(&mut tap, &pipeline);
    drop(tap);
    let (merged, fleet) = pipeline.finish().expect("clean strict finish");
    assert_eq!(fleet.total().offered, keys.len() as u64);
    assert_eq!(
        fleet.unaccounted(),
        0,
        "identity across the promotion: {fleet}"
    );
    // The checkpoint the successor restored covered everything up to the
    // kill except what the primary processed after it was taken; that is
    // all the promotion may cost on top of the accounted drops/losses.
    let allowed = promotion_loss + (fleet.total().dropped + fleet.total().lost_in_crash) as f64;
    assert_within_bounds(
        &merged,
        &GroundTruth::from_keys(keys.iter().copied()),
        allowed,
    );
}

/// Keys at the end of a chunk offered after shard 0's kill is armed: the
/// shard dies on its first batch of them, and what it would have counted
/// of the rest is charged to `lost_in_crash`.
const KILL_TAIL: usize = 1_500;

/// Offer `keys` and let the fleet absorb all but their last `KILL_TAIL`,
/// then re-arm shard 0's one-shot `plan`, offer the tail, wait for the
/// shard to spend its budget, and let the next rotation promote it.
/// Returns what the promotion may cost: the dead primary's lag behind the
/// checkpoint its successor restores, plus one batch.
fn kill_and_promote(
    tap: &mut ShardedTap,
    pipeline: &mut ShardedPipeline<CountSketch>,
    plan: &ThreadFaultPlan,
    keys: &[u64],
) -> u64 {
    let (body, tail) = keys.split_at(keys.len() - KILL_TAIL);
    offer_all(tap, body);
    drain_synced(tap, pipeline);
    let fired = plan.fired();
    plan.panic_after(1);
    offer_all(tap, tail);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while pipeline.failed_shards().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "shard 0 never exhausted its budget"
        );
        std::thread::yield_now();
    }
    assert_eq!(plan.fired(), fired + 1);
    let cost = pipeline.shards()[0].latest_checkpoint().unwrap().lag + BATCH;
    let promotions = pipeline.promotions();
    let view = pipeline
        .epoch_view()
        .expect("promotion inside the rotation");
    assert_eq!(pipeline.promotions(), promotions + 1);
    assert!(
        view.staleness().iter().all(|s| !s.degraded),
        "the successor serves the dead shard's slice non-degraded"
    );
    cost
}

/// Fail shard 0 twice, promoting it each time, and check the fleet's
/// estimates against the truth of `keys` within ε plus both promotions'
/// costs, `carried` (losses before this fleet's incarnation) and this
/// fleet's accounted drops and crash losses.
fn fail_over_twice(
    mut tap: ShardedTap,
    mut pipeline: ShardedPipeline<CountSketch>,
    plan: &ThreadFaultPlan,
    keys: &[u64],
    from: usize,
    carried: u64,
) {
    let rest = &keys[from..];
    let half = rest.len() / 2;
    let mut loss = carried;
    loss += kill_and_promote(&mut tap, &mut pipeline, plan, &rest[..half]);
    loss += kill_and_promote(&mut tap, &mut pipeline, plan, &rest[half..]);
    assert_eq!(pipeline.promotions(), 2, "one promotion per failure");
    drain_synced(&mut tap, &pipeline);
    drop(tap);
    let (merged, fleet) = pipeline
        .finish()
        .expect("a twice-promoted fleet finishes the strict path");
    assert_eq!(
        fleet.unaccounted(),
        0,
        "identity across both promotions: {fleet}"
    );
    assert_eq!(fleet.retired().len(), 2, "both replaced primaries retired");
    let allowed = loss + fleet.total().dropped + fleet.total().lost_in_crash;
    assert_within_bounds(
        &merged,
        &GroundTruth::from_keys(keys.iter().copied()),
        allowed as f64,
    );
}

/// A promoted shard is a full primary: it fails over again from its own
/// checkpoint slot, and with a store its frames land in its new sequence
/// band, where crash recovery finds them.
#[test]
fn a_promoted_shard_fails_over_again_and_is_durable_in_its_band() {
    let keys = zipf_stream(120_000, 777);
    let config = |store| {
        let mut cfg = pipe_config(store);
        cfg.supervisor.max_restarts = 0;
        cfg.failover = true;
        cfg
    };

    // Without a store: two promotions of the same shard.
    let plan = ThreadFaultPlan::new();
    let mut cfg = config(None);
    cfg.fault_plans = vec![(0, plan.clone())];
    let (tap, pipeline) = nitrosketch::switch::spawn_sharded(factory, cfg).expect("spawn");
    fail_over_twice(tap, pipeline, &plan, &keys, 0, 0);

    // With a store: promote once, crash, and recover shard 0 from the
    // successor's band; the recovered fleet then fails over twice more.
    let dir = store_dir("promoted-durable");
    let plan = ThreadFaultPlan::new();
    let store = CheckpointStore::create(&dir, SHARDS, StoreConfig::default()).unwrap();
    let mut cfg = config(Some(store));
    cfg.fault_plans = vec![(0, plan.clone())];
    let (mut tap, mut pipeline) = nitrosketch::switch::spawn_sharded(factory, cfg).expect("spawn");
    let cut = keys.len() / 3;
    let mut carried = kill_and_promote(&mut tap, &mut pipeline, &plan, &keys[..cut]);
    drain_synced(&mut tap, &pipeline);
    let h = pipeline.fleet_health();
    carried += h.total().dropped + h.total().lost_in_crash;
    let exposed = exposure(&pipeline);
    drop(tap);
    pipeline.simulate_crash();

    let mut cfg = config(None);
    cfg.fault_plans = vec![(0, plan.clone())];
    let (tap, pipeline, report) =
        ShardedPipeline::recover_from(&dir, factory, StoreConfig::default(), cfg).unwrap();
    let frame = report.recovered[0]
        .as_ref()
        .expect("shard 0 had durable state");
    assert_eq!(
        frame.seq >> 32,
        1,
        "shard 0 recovers from its successor's band, not the dead primary's"
    );
    carried += assert_recovered_within_lag(&exposed, &report) as u64;
    fail_over_twice(tap, pipeline, &plan, &keys, cut, carried);
    std::fs::remove_dir_all(&dir).unwrap();
}
