//! Crash-consistent durability: a sharded pipeline whose checkpoints live
//! in an append-only on-disk log, killed outright mid-stream and rebuilt
//! from that log alone.
//!
//! The fleet persists every periodic checkpoint as a CRC-framed record in
//! per-shard segment files. Half-way through the stream the whole
//! "process" dies — `simulate_crash` freezes the store (nothing after the
//! crash instant reaches disk) and discards all in-memory sketch state.
//! `ShardedPipeline::recover_from` then scans the segments, truncates any
//! torn tail, restores every shard's newest valid frame, and the second
//! incarnation finishes the stream on the recovered counters. The loss is
//! bounded per shard by what it processed since its newest persisted
//! checkpoint (its `persist_lag`) + one in-flight batch.
//!
//! Run with: `cargo run --release --example durable_pipeline`

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::prelude::*;
use nitrosketch::switch::{
    spawn_sharded, CheckpointStore, PipelineConfig, ShardedPipeline, StoreConfig, SupervisorConfig,
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

fn config(store: Option<std::sync::Arc<CheckpointStore>>) -> PipelineConfig {
    PipelineConfig {
        shards: SHARDS,
        supervisor: SupervisorConfig {
            ring_capacity: 1 << 18,
            checkpoint_every: CHECKPOINT_EVERY,
            ..Default::default()
        },
        store,
        ..Default::default()
    }
}

fn main() {
    let packets = 1_000_000usize;
    let records = take_records(CaidaLike::new(7, 20_000).with_rate(40e6), packets);
    let truth = GroundTruth::from_records(&records);
    let dir = std::env::temp_dir().join(format!("nitro-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── Incarnation 1: fresh store, feed half the stream, die. ─────────
    let store = CheckpointStore::create(&dir, SHARDS, StoreConfig::default())
        .expect("create checkpoint store");
    let (mut tap, pipeline) = spawn_sharded(factory, config(Some(store))).expect("spawn fleet");
    let half = packets / 2;
    for r in &records[..half] {
        tap.offer(r.tuple.flow_key(), r.ts_ns);
    }
    // Let the workers drain so the durable state trails by at most one
    // checkpoint interval, then pull the plug.
    while pipeline.processed() + pipeline.fleet_health().total().dropped < half as u64 {
        std::thread::yield_now();
    }
    let persisted = pipeline.fleet_health().total().persisted;
    println!(
        "incarnation 1: {half} packets offered, {} checkpoints made durable in {}",
        persisted,
        dir.display()
    );
    // What the kill can cost: each shard's updates since its newest
    // persisted checkpoint, plus one in-flight batch.
    let unpersisted: u64 = pipeline
        .shards()
        .iter()
        .map(|s| s.telemetry().persist_lag() + 64)
        .sum();
    drop(tap);
    pipeline.simulate_crash();
    println!("incarnation 1: killed (all in-memory sketch state discarded)\n");

    // ── Incarnation 2: rebuild the fleet from the segment logs. ────────
    let (mut tap, pipeline, report) =
        ShardedPipeline::recover_from(&dir, factory, StoreConfig::default(), config(None))
            .expect("recover fleet from disk");
    println!(
        "recovery: generation {}, {} valid frames scanned, {} corrupt, \
         {} torn tails truncated",
        report.generation, report.frames_valid, report.corrupt_frames, report.torn_tails_truncated
    );
    for (i, r) in report.recovered.iter().enumerate() {
        match r {
            Some(f) => println!(
                "  shard {i}: restored seq {} covering {} observations",
                f.seq, f.processed_at
            ),
            None => println!("  shard {i}: no durable state, restarted blank"),
        }
    }

    for r in &records[half..] {
        tap.offer(r.tuple.flow_key(), r.ts_ns);
    }
    drop(tap);
    let (merged, fleet) = pipeline.finish().expect("clean shutdown");
    assert_eq!(fleet.unaccounted(), 0, "every observation accounted for");
    println!("\n{fleet}");

    // The crash cost at most the unpersisted updates; everything else
    // survived the process boundary on disk.
    let bound = (unpersisted + fleet.total().dropped) as f64;
    println!(
        "crash-loss bound: {bound:.0} observations ({SHARDS} shards × (persist lag + batch 64) + drops)"
    );
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
        "a flow lost {worst:.0} observations, beyond the crash bound {bound:.0}"
    );
    println!("\nall top flows within the recovery bound after full process death");
    let _ = std::fs::remove_dir_all(&dir);
}
