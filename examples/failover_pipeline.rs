//! Zero-downtime failover and online resharding over the sharded
//! pipeline.
//!
//! Every shard's supervisor keeps its latest checkpoint in memory (and,
//! here, persists it first). Mid-stream, an injected panic kills shard 1
//! with a zero-restart budget — the supervisor gives up on it — but the
//! next epoch rotation *promotes* the shard in place: a successor daemon
//! is restored from the dead primary's last checkpoint, the tap re-steers
//! that flow slice to the successor's ring, and the view is never
//! degraded. Afterwards the fleet rescales online (4 → 6 → 3) while
//! traffic keeps flowing, with the accounting identity `offered ==
//! processed + dropped + lost` intact across every transition.
//!
//! Run with: `cargo run --release --example failover_pipeline`

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::prelude::*;
use nitrosketch::switch::{
    spawn_sharded, CheckpointStore, PipelineConfig, StoreConfig, SupervisorConfig, ThreadFaultPlan,
};
use nitrosketch::traffic::take_records;

const SHARDS: usize = 4;
const CHECKPOINT_EVERY: u64 = 25_000;

fn factory(i: usize) -> NitroSketch<CountSketch> {
    NitroSketch::new(
        CountSketch::new(5, 1 << 15, 21),
        Mode::Fixed { p: 1.0 },
        22 + i as u64,
    )
    .with_topk(64)
}

fn main() {
    let packets = 1_000_000usize;
    let records = take_records(CaidaLike::new(7, 20_000).with_rate(40e6), packets);
    let truth = GroundTruth::from_records(&records);
    let dir = std::env::temp_dir().join(format!("nitro-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Shard 1 dies after ~60k of its own observations and its restart
    // budget is zero: without failover this shard would stay dead and
    // every epoch view would carry a degraded flag for it.
    let plan = ThreadFaultPlan::new();
    plan.panic_after(60_000);
    let store =
        CheckpointStore::create(&dir, SHARDS, StoreConfig::default()).expect("create store");
    let (mut tap, mut pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: SHARDS,
            supervisor: SupervisorConfig {
                ring_capacity: 1 << 18,
                checkpoint_every: CHECKPOINT_EVERY,
                max_restarts: 0,
                ..Default::default()
            },
            store: Some(store),
            fault_plans: vec![(1, plan.clone())],
            failover: true,
            ..Default::default()
        },
    )
    .expect("spawn fleet");

    // ── Phase 1: feed until the kill lands, then rotate an epoch. ──────
    let third = packets / 3;
    for r in &records[..third] {
        tap.offer(r.tuple.flow_key(), r.ts_ns);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while pipeline.failed_shards().is_empty() {
        assert!(std::time::Instant::now() < deadline, "shard 1 never died");
        std::thread::yield_now();
    }
    println!(
        "shard 1 exhausted its restart budget (injected panic fired: {})",
        plan.fired()
    );
    // The successor is restored from the dead primary's last checkpoint:
    // what the primary processed after it is what promotion costs.
    let uncheckpointed = pipeline.shards()[1]
        .latest_checkpoint()
        .expect("a pipeline shard always holds a checkpoint")
        .lag;

    let view = pipeline
        .epoch_view()
        .expect("rotation promotes the failed shard");
    println!(
        "epoch {}: shard 1 promoted in-line (promotions = {}), \
         degraded shards in view: {}",
        view.epoch(),
        pipeline.promotions(),
        view.staleness().iter().filter(|s| s.degraded).count()
    );
    assert!(
        view.staleness().iter().all(|s| !s.degraded),
        "failover must yield zero degraded epochs"
    );
    assert!(pipeline.failed_shards().is_empty());

    // ── Phase 2: grow the fleet online while traffic keeps flowing. ────
    pipeline.rescale(6).expect("grow 4 -> 6");
    println!("\nrescaled online: 4 -> {} shards", pipeline.num_shards());
    for r in &records[third..2 * third] {
        tap.offer(r.tuple.flow_key(), r.ts_ns);
    }

    // ── Phase 3: shrink below the original size, absorb the tail. ──────
    pipeline.rescale(3).expect("shrink 6 -> 3");
    println!("rescaled online: 6 -> {} shards", pipeline.num_shards());
    for r in &records[2 * third..] {
        tap.offer(r.tuple.flow_key(), r.ts_ns);
    }

    drop(tap);
    let (merged, fleet) = pipeline
        .finish()
        .expect("the fleet finishes the strict path: no degraded merge");
    println!("\n{fleet}");
    assert_eq!(fleet.total().offered, packets as u64);
    assert_eq!(
        fleet.unaccounted(),
        0,
        "identity across promotion + rescale(4 -> 6 -> 3)"
    );
    assert_eq!(fleet.len(), 3, "three live shards after the shrink");

    // The promotion cost at most the victim's uncheckpointed updates + one
    // batch; rescaling costs nothing (state is merged, not dropped).
    // Everything else is ordinary sketch error.
    let bound = (uncheckpointed + 64 + fleet.total().dropped + fleet.total().lost_in_crash) as f64;
    println!("{:>20} {:>10} {:>10} {:>8}", "flow", "true", "est", "err");
    let mut worst = 0.0f64;
    for &(k, t) in truth.top_k(5).iter() {
        let e = merged.estimate(k);
        worst = worst.max(t - e);
        println!(
            "{k:>20x} {t:>10.0} {e:>10.0} {:>7.2}%",
            100.0 * (e - t).abs() / t
        );
    }
    assert!(
        worst <= bound,
        "a flow lost {worst:.0} observations, beyond the failover bound {bound:.0}"
    );
    println!(
        "\nall top flows within the failover bound {bound:.0} \
         across one promotion and two rescales"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
