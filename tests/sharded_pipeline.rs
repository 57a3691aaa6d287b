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
    spawn_sharded, MergedView, PipelineConfig, ShardedPipeline, ShardedTap, SupervisorConfig,
    ThreadFaultPlan,
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

/// A fleet that will not downshift and whose rings hold every test
/// stream whole.
fn exact_fleet(shards: usize) -> PipelineConfig {
    PipelineConfig {
        shards,
        supervisor: SupervisorConfig {
            ring_capacity: 1 << 16,
            high_water: 2.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn wait_processed(pipeline: &ShardedPipeline<CountSketch>, n: usize) {
    while pipeline.processed() < n as u64 {
        std::thread::yield_now();
    }
}

/// A view's reference, written out the way views were first built: each
/// checkpoint restored into a blank copy, then merged with
/// `try_merge_from` in the view's order — carryover, live shards,
/// draining shards.
fn merged_reference<'a>(
    carryover: &NitroSketch<CountSketch>,
    images: impl IntoIterator<Item = &'a [u8]>,
) -> NitroSketch<CountSketch> {
    let mut expected = factory(0);
    expected.try_merge_from(carryover).unwrap();
    for image in images {
        let mut restored = factory(0);
        restored.restore(image).unwrap();
        expected.try_merge_from(&restored).unwrap();
    }
    expected
}

/// The images the live shards answered the last view with.
fn view_images(
    pipeline: &ShardedPipeline<CountSketch>,
    view: &MergedView<CountSketch>,
) -> Vec<Vec<u8>> {
    pipeline
        .shards()
        .iter()
        .zip(view.staleness())
        .map(|(shard, stale)| {
            assert!(stale.fresh, "shard {} answered late", stale.shard);
            let latest = shard.latest_checkpoint().expect("a published checkpoint");
            assert_eq!(latest.processed_at, stale.processed_at);
            latest.bytes.to_vec()
        })
        .collect()
}

fn same_view(view: &NitroSketch<CountSketch>, expected: &NitroSketch<CountSketch>) {
    assert!(view.snapshot() == expected.snapshot());
    assert_eq!(
        view.inner().l2_squared_estimate().to_bits(),
        expected.inner().l2_squared_estimate().to_bits()
    );
    assert_eq!(view.heavy_hitters(50.0), expected.heavy_hitters(50.0));
}

/// Without a rescale or rotation there is no carryover to fold into a
/// view: the view is the template plus the shards' snapshots, and its
/// bytes are the ones merging a pristine carryover as well gives — for a
/// lone shard as for two.
#[test]
fn a_view_without_a_rescale_is_the_merge_of_its_shards() {
    for shards in [1, 2] {
        let keys = zipf_stream(40_000, 43);
        let (mut tap, mut pipeline) = spawn_sharded(factory, exact_fleet(shards)).expect("spawn");
        offer_all(&mut tap, &keys);
        wait_processed(&pipeline, keys.len());
        let view = pipeline.epoch_view().expect("epoch view");
        let images = view_images(&pipeline, &view);
        assert_eq!(images.len(), shards);
        let expected = merged_reference(&factory(0), images.iter().map(Vec::as_slice));
        same_view(view.sketch(), &expected);
        drop(tap);
        let (_, fleet) = pipeline.finish().expect("clean run");
        assert_eq!(fleet.unaccounted(), 0);
    }
}

/// After a 2 → 3 rescale the view folds the carryover (the reaped old
/// shards) and the new shards; a second rescale, 3 → 2, leaves the three
/// draining while the view is taken, so that view holds the carryover,
/// two blank live shards and three draining ones. Each is still the
/// restore-and-merge of the same checkpoints.
#[test]
fn a_rescaled_view_is_the_merge_of_its_carryover_and_shards() {
    let before = zipf_stream(30_000, 44);
    let after = zipf_stream(30_000, 45);
    let (mut tap, mut pipeline) = spawn_sharded(factory, exact_fleet(2)).expect("spawn");
    offer_all(&mut tap, &before);
    wait_processed(&pipeline, before.len());
    let view = pipeline.epoch_view().expect("view before the rescale");
    let old = view_images(&pipeline, &view);

    // Nothing reaches the old shards after the rescale: the tap moves
    // to the new routes on its next offer.
    pipeline.rescale(3).expect("rescale 2 -> 3");
    offer_all(&mut tap, &after);
    wait_processed(&pipeline, before.len() + after.len());
    let view = pipeline.epoch_view().expect("view after the rescale");
    assert_eq!(view.staleness().len(), 3, "the old shards are reaped");
    let carryover = merged_reference(&factory(0), old.iter().map(Vec::as_slice));
    let grown = view_images(&pipeline, &view);
    let expected = merged_reference(&carryover, grown.iter().map(Vec::as_slice));
    same_view(view.sketch(), &expected);

    // No offer follows this rescale, so the three stay draining.
    pipeline.rescale(2).expect("rescale 3 -> 2");
    let view = pipeline.epoch_view().expect("view while draining");
    assert_eq!(view.staleness().len(), 2 + 3, "two live, three draining");
    let live = pipeline.shards().iter().map(|shard| {
        shard
            .latest_checkpoint()
            .expect("a published checkpoint")
            .bytes
    });
    let live: Vec<Vec<u8>> = live.map(|bytes| bytes.to_vec()).collect();
    let expected = merged_reference(&carryover, live.iter().chain(&grown).map(Vec::as_slice));
    same_view(view.sketch(), &expected);

    drop(tap);
    let (_, fleet) = pipeline.finish().expect("clean run");
    assert_eq!(fleet.unaccounted(), 0);
    assert_eq!(fleet.total().offered, (before.len() + after.len()) as u64);
}

/// The blank measurement of a fleet sampling at `p`.
fn sampled(p: f64) -> impl Fn(usize) -> NitroSketch<CountSketch> + Send + Sync + 'static {
    move |i| {
        NitroSketch::new(
            CountSketch::new(5, 1 << 15, 311),
            Mode::Fixed { p },
            900 + i as u64,
        )
        .with_topk(128)
    }
}

/// A one-shard fleet at sampling probability `p`, with periodic
/// checkpoints between views and failover on.
fn lone_fleet(p: f64, plan: &ThreadFaultPlan) -> (ShardedTap, ShardedPipeline<CountSketch>) {
    spawn_sharded(
        sampled(p),
        PipelineConfig {
            failover: true,
            fault_plans: vec![(0, plan.clone())],
            supervisor: SupervisorConfig {
                checkpoint_every: 400,
                ..exact_fleet(1).supervisor
            },
            ..exact_fleet(1)
        },
    )
    .expect("spawn")
}

/// `view` against the whole fold of the carryover (the image of a
/// rescaled-away shard, if any) and the lone shard's image behind it, bit
/// for bit: image bytes (counters, statistics, heavy keys in the tracker's
/// order), every row's Σ C², the heavy-hitter answer. Returns the image.
fn is_whole_fold(
    p: f64,
    pipeline: &ShardedPipeline<CountSketch>,
    view: &MergedView<CountSketch>,
    carry: Option<&[u8]>,
) -> Vec<u8> {
    let image = view_images(pipeline, view).pop().expect("one shard");
    let mut expected = sampled(p)(0);
    for bytes in carry.into_iter().chain([&image[..]]) {
        let mut restored = sampled(p)(0);
        restored.restore(bytes).unwrap();
        expected.try_merge_from(&restored).unwrap();
    }
    same_view(view.sketch(), &expected);
    for r in 0..expected.inner().depth() {
        assert_eq!(
            view.sketch().inner().row_sum_squares(r).to_bits(),
            expected.inner().row_sum_squares(r).to_bits(),
            "row {r}'s sum of squares"
        );
    }
    image
}

/// Epochs of a Zipf stream offered to a lone shard, each closed by a view
/// checked against the whole fold. An epoch of 1 000 keys writes few
/// enough lines that the next view patches.
struct Epochs {
    p: f64,
    keys: Vec<u64>,
    offered: usize,
    /// The carryover's image, once a rescale folded the shard behind it.
    carry: Option<Vec<u8>>,
    /// The image behind the last view.
    image: Vec<u8>,
}

impl Epochs {
    fn view(
        &mut self,
        tap: &mut ShardedTap,
        pipeline: &mut ShardedPipeline<CountSketch>,
    ) -> MergedView<CountSketch> {
        let chunk = &self.keys[self.offered..self.offered + 1_000];
        offer_all(tap, chunk);
        self.offered += chunk.len();
        wait_processed(pipeline, self.offered);
        let view = pipeline.epoch_view().expect("epoch view");
        self.image = is_whole_fold(self.p, pipeline, &view, self.carry.as_deref());
        view
    }
}

/// A lone shard's views patch the lines written since the view before,
/// and every one, patched or folded whole, is the whole fold of its image
/// to the bit — across a worker restart, a promotion, a view the caller
/// still holds and a rescale that leaves a carryover, at p = 1, 0.1 and
/// 0.01. The chain breaks where it must: the first view after a restart
/// or a promotion, and one taken while the caller holds the last, fold
/// whole; with a carryover every view does.
#[test]
fn a_patched_view_is_the_whole_fold_of_its_image() {
    for p in [1.0, 0.1, 0.01] {
        let plan = ThreadFaultPlan::new();
        let (mut tap, mut pipeline) = lone_fleet(p, &plan);
        let mut epochs = Epochs {
            p,
            keys: zipf_stream(12 * 1_000, 46),
            offered: 0,
            carry: None,
            image: Vec::new(),
        };
        assert!(
            epochs.view(&mut tap, &mut pipeline).changed().is_none(),
            "p {p}: first view"
        );
        let view = epochs.view(&mut tap, &mut pipeline);
        let (since, lines) = view.changed().expect("a view after a sparse epoch patches");
        assert!(lines.count() < lines.lines(), "p {p}: only written lines");
        assert!(since < view.id());

        // Held by the caller, the last view's arena is not recycled.
        let held = view.sketch().snapshot();
        let after = epochs.view(&mut tap, &mut pipeline);
        assert!(
            after.changed().is_none(),
            "p {p}: the last view is still held"
        );
        assert!(
            view.sketch().snapshot() == held,
            "p {p}: a held view changed"
        );
        drop((view, after));
        assert!(epochs.view(&mut tap, &mut pipeline).changed().is_some());

        // A worker restart restores the last checkpoint and starts a new
        // write history.
        plan.panic_after_checkpoints(0);
        let view = epochs.view(&mut tap, &mut pipeline);
        assert_eq!(pipeline.fleet_health().total().restarts, 1);
        assert!(
            view.changed().is_none(),
            "p {p}: first view after a restart"
        );
        drop(view);
        assert!(epochs.view(&mut tap, &mut pipeline).changed().is_some());

        // A promotion replaces the daemon, and its images with it.
        assert!(pipeline.promote(0).expect("promote"));
        assert!(epochs.view(&mut tap, &mut pipeline).changed().is_none());
        assert!(epochs.view(&mut tap, &mut pipeline).changed().is_some());

        // A rescale folds the old shard, quiet since its last image, into
        // a carryover: every view folds whole.
        epochs.carry = Some(epochs.image.clone());
        pipeline.rescale(1).expect("rescale 1 -> 1");
        for _ in 0..2 {
            let view = epochs.view(&mut tap, &mut pipeline);
            assert!(view.changed().is_none(), "p {p}: a view with a carryover");
        }
        drop(tap);
        let (_, fleet) = pipeline.finish().expect("clean run");
        assert_eq!(fleet.unaccounted(), 0);
    }
}
