//! End-to-end tests of the sharded multi-core pipeline: sketch linearity
//! across the dispatcher's flow partition, the epoch-merged query plane,
//! and single-shard crash recovery that never stalls siblings.
//!
//! All tests run the real topology — a producer thread hashing flow keys
//! through a [`ShardedTap`] onto per-shard SPSC rings, one supervised
//! worker per shard — on a single-core-safe schedule (periodic yields).

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::prelude::*;
use nitrosketch::switch::{
    spawn_sharded, PipelineConfig, ShardedTap, SupervisorConfig, ThreadFaultPlan,
};
use nitrosketch::traffic::zipf::Zipf;

fn factory(i: usize) -> NitroSketch<CountSketch> {
    // Identical sketch geometry and hash seeds on every shard — the merge
    // precondition; only the sampler seed differs per shard.
    NitroSketch::new(
        CountSketch::new(5, 1 << 15, 311),
        Mode::Fixed { p: 1.0 },
        900 + i as u64,
    )
    .with_topk(128)
}

fn zipf_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut z = Zipf::new(20_000, 1.2, seed);
    (0..n).map(|_| z.sample()).collect()
}

fn offer_all(tap: &mut ShardedTap, keys: &[u64]) {
    for (i, &k) in keys.iter().enumerate() {
        tap.offer(k, i as u64);
        if i % 512 == 0 {
            // Single-core host: consumers only run when the producer
            // yields its quantum.
            std::thread::yield_now();
        }
    }
}

/// Two shards fed the dispatcher's disjoint halves of a Zipf stream must
/// answer heavy-hitter and L2 queries within the same ε as one unsharded
/// sketch over the union. At p = 1 the merged counter arrays are *exactly*
/// the unsharded ones (linearity), so point estimates and L2 agree to the
/// bit and the heavy-hitter set matches ground truth identically.
#[test]
fn two_shards_match_unsharded_sketch_over_the_union() {
    let keys = zipf_stream(300_000, 41);
    let truth = GroundTruth::from_keys(keys.iter().copied());

    // Unsharded reference: same geometry, one sketch over the whole stream.
    let mut unsharded = factory(0);
    for (i, &k) in keys.iter().enumerate() {
        unsharded.process_ts(k, 1.0, i as u64);
    }

    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: 2,
            supervisor: SupervisorConfig {
                // Hold a whole shard's stream: the comparison needs zero
                // drops even when CI runs many test binaries on one core.
                ring_capacity: 1 << 19,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn");
    offer_all(&mut tap, &keys);
    let (merged, fleet) = pipeline.finish().expect("clean run");

    assert_eq!(fleet.total().offered, keys.len() as u64);
    assert_eq!(fleet.unaccounted(), 0, "silent loss: {fleet}");
    assert_eq!(
        fleet.total().dropped,
        0,
        "ring drops would skew the comparison"
    );

    // Sketch linearity at p = 1: merged counters == unsharded counters, so
    // every point estimate is bit-identical and the L2 moment agrees.
    let hh_truth = truth.heavy_hitters(0.005);
    assert!(hh_truth.len() >= 8, "stream not skewed enough to test");
    for &(k, _) in &hh_truth {
        assert_eq!(
            merged.estimate(k),
            unsharded.estimate(k),
            "flow {k:#x}: merged and unsharded disagree at p=1"
        );
    }
    let l2m = merged.inner().l2_squared_estimate();
    let l2u = unsharded.inner().l2_squared_estimate();
    assert!(
        (l2m - l2u).abs() <= 1e-6 * l2u.abs().max(1.0),
        "L2 moment: merged {l2m} vs unsharded {l2u}"
    );

    // The merged view answers heavy hitters within the same ε as the
    // unsharded sketch: point error bounded by ε·L2 (CountSketch at width
    // 2^15), recall and precision ≥ 90% against ground truth.
    let eps_l2 = 3.0 * l2u.max(0.0).sqrt() / ((1u64 << 15) as f64).sqrt();
    for &(k, t) in &hh_truth {
        let est = merged.estimate(k);
        assert!(
            (est - t).abs() <= 0.02 * t + eps_l2,
            "flow {k:#x}: merged estimate {est} vs truth {t} (bound {eps_l2})"
        );
    }
    let threshold = 0.005 * truth.l1();
    let merged_hh = merged.heavy_hitters(threshold);
    let recalled = hh_truth
        .iter()
        .filter(|&&(k, _)| merged_hh.iter().any(|&(hk, _)| hk == k))
        .count();
    assert!(
        recalled * 10 >= hh_truth.len() * 9,
        "heavy-hitter recall {recalled}/{}",
        hh_truth.len()
    );
    let precise = merged_hh
        .iter()
        .filter(|&&(k, _)| truth.count(k) >= 0.5 * threshold)
        .count();
    assert!(
        precise * 10 >= merged_hh.len() * 9,
        "heavy-hitter precision {precise}/{}",
        merged_hh.len()
    );
}

/// Killing one shard mid-stream must recover from *that shard's*
/// checkpoint only: exactly one restart/restore fleet-wide, on the armed
/// shard; siblings keep processing uninterrupted; and the fleet-level
/// accounting identity holds with crash loss bounded by one batch.
#[test]
fn killing_one_shard_recovers_locally_and_keeps_siblings_running() {
    const SHARDS: usize = 4;
    const VICTIM: usize = 2;
    let keys = zipf_stream(400_000, 43);

    let plan = ThreadFaultPlan::new();
    plan.panic_after(30_000); // victim sees ~100k of the 400k stream
    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: SHARDS,
            supervisor: SupervisorConfig {
                // One shard's whole slice of the stream fits in its ring,
                // so a sibling starved of CPU (four workers and the
                // producer on a two-core host) cannot drop and read as
                // degraded; only the victim's fault may degrade it.
                ring_capacity: 1 << 18,
                checkpoint_every: 10_000,
                ..Default::default()
            },
            fault_plans: vec![(VICTIM, plan.clone())],
            ..Default::default()
        },
    )
    .expect("spawn");

    offer_all(&mut tap, &keys);
    let (merged, fleet) = pipeline
        .finish()
        .expect("supervisor must recover the victim");

    assert_eq!(plan.fired(), 1, "the armed fault fires exactly once");
    let shards = fleet.shards();
    assert_eq!(shards.len(), SHARDS);
    assert_eq!(
        shards[VICTIM].restarts, 1,
        "victim must restart once: {fleet}"
    );
    assert_eq!(
        shards[VICTIM].restores, 1,
        "victim must restore its own checkpoint: {fleet}"
    );
    for (i, s) in shards.iter().enumerate() {
        if i != VICTIM {
            assert_eq!(s.restarts, 0, "sibling {i} restarted: {fleet}");
            assert_eq!(s.restores, 0, "sibling {i} restored: {fleet}");
            assert_eq!(s.lost_in_crash, 0, "sibling {i} lost updates: {fleet}");
            assert!(s.processed > 0, "sibling {i} stalled: {fleet}");
        }
    }
    assert_eq!(fleet.degraded_shards(), vec![VICTIM]);

    // Fleet-wide accounting: offered == processed + dropped + lost, and the
    // crash window costs at most one in-flight batch.
    assert_eq!(fleet.total().offered, keys.len() as u64);
    assert_eq!(fleet.unaccounted(), 0, "silent loss: {fleet}");
    assert!(
        fleet.total().lost_in_crash <= 64,
        "crash loss exceeds one batch: {fleet}"
    );

    // The merged measurement is still within a checkpoint interval of the
    // truth for the heaviest flows (the victim lost at most
    // checkpoint_every + one batch of *its own* updates).
    let truth = GroundTruth::from_keys(keys.iter().copied());
    let max_loss = (10_000 + 64 + fleet.total().dropped) as f64;
    for &(k, t) in truth.top_k(5).iter() {
        let est = merged.estimate(k);
        assert!(
            est >= t - max_loss - 0.05 * t && est <= t + 0.05 * t,
            "flow {k:#x}: estimate {est} vs truth {t} after recovery"
        );
    }
}

/// Epoch rotation mid-stream: the merged view answers queries while all
/// shards keep running, per-shard staleness is reported and bounded, and a
/// later epoch strictly covers more of the stream.
#[test]
fn epoch_views_are_monotone_and_staleness_bounded() {
    let keys = zipf_stream(200_000, 47);
    let (mut tap, mut pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            supervisor: SupervisorConfig {
                // No drops regardless of scheduling: the packet-count
                // asserts below need every observation in the view.
                ring_capacity: 1 << 18,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn");

    offer_all(&mut tap, &keys[..100_000]);
    while pipeline.processed() < 100_000 {
        std::thread::yield_now();
    }
    let v1 = pipeline.epoch_view().expect("epoch 1 merges");
    assert_eq!(v1.epoch(), 1);
    assert_eq!(v1.staleness().len(), 4);
    assert!(
        v1.staleness().iter().all(|s| s.fresh),
        "all workers alive: every snapshot must be fresh on demand"
    );
    assert_eq!(
        v1.staleness_bound(),
        0,
        "drained fleet: nothing may be missing from the view"
    );
    assert_eq!(v1.sketch().stats().packets, 100_000);

    offer_all(&mut tap, &keys[100_000..]);
    while pipeline.processed() < 200_000 {
        std::thread::yield_now();
    }
    let v2 = pipeline.epoch_view().expect("epoch 2 merges");
    assert_eq!(v2.epoch(), 2);
    assert_eq!(v2.sketch().stats().packets, 200_000);

    // Monotone coverage: every heavy flow's estimate can only grow between
    // epochs at p = 1 (counters only accumulate).
    let truth = GroundTruth::from_keys(keys.iter().copied());
    for &(k, _) in truth.top_k(10).iter() {
        assert!(
            v2.estimate(k) >= v1.estimate(k),
            "flow {k:#x} shrank between epochs"
        );
    }
    // L2 is monotone too, and the merged view serves it directly.
    assert!(v2.l2() >= v1.l2());

    let (_, fleet) = pipeline.finish().expect("clean shutdown after rotations");
    assert_eq!(fleet.unaccounted(), 0);
}

/// Without a rescale or rotation there is no carryover to fold into a
/// view: the view is the template plus the shards' snapshots, and its
/// bytes are the ones merging a pristine carryover as well gives.
#[test]
fn a_view_without_a_rescale_is_the_merge_of_its_shards() {
    let keys = zipf_stream(40_000, 43);
    let (mut tap, mut pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: 2,
            supervisor: SupervisorConfig {
                ring_capacity: 1 << 16,
                high_water: 2.0,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn");
    offer_all(&mut tap, &keys);
    while pipeline.processed() < keys.len() as u64 {
        std::thread::yield_now();
    }
    let view = pipeline.epoch_view().expect("epoch view");

    let mut expected = factory(0);
    expected.try_merge_from(&factory(0)).unwrap();
    for (shard, stale) in pipeline.shards().iter().zip(view.staleness()) {
        assert!(stale.fresh, "shard {} answered late", stale.shard);
        let latest = shard.latest_checkpoint().expect("a published checkpoint");
        assert_eq!(latest.processed_at, stale.processed_at);
        let mut restored = factory(0);
        restored.restore(&latest.bytes).unwrap();
        expected.try_merge_from(&restored).unwrap();
    }
    assert!(view.sketch().snapshot() == expected.snapshot());
    drop(tap);
    let (_, fleet) = pipeline.finish().expect("clean run");
    assert_eq!(fleet.unaccounted(), 0);
}
