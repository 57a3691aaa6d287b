//! Live telemetry plane under chaos: a scrape thread polls the fleet's
//! Prometheus endpoint every 100 ms while fault injection kills a shard
//! and the coordinator promotes it from its last checkpoint — with the
//! event journal narrating the whole failover afterwards.
//!
//! The pipeline is instrumented end to end: the tap publishes ring
//! occupancy, the workers publish batch latencies and sampling gauges,
//! the durable writer publishes persist latencies and frame counts, and
//! the coordinator stamps promotion events.
//! All of it is lock-free — the scrape loop below never blocks a worker.
//!
//! Every scrape is also appended to an NDJSON recording through
//! `ScrapeRecorder`, so the whole chaos run is replayable afterwards in
//! the operator console: the example prints the `nitro top --replay`
//! invocation for the file it left behind.
//!
//! Run with: `cargo run --release --example telemetry_pipeline`

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::metrics::scrape::{read_recording, ScrapeRecorder};
use nitrosketch::metrics::SequencedEvent;
use nitrosketch::prelude::*;
use nitrosketch::switch::{
    spawn_sharded, CheckpointStore, PipelineConfig, StoreConfig, SupervisorConfig, ThreadFaultPlan,
};
use nitrosketch::traffic::take_records;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const VICTIM: usize = 1;

fn factory(i: usize) -> NitroSketch<CountSketch> {
    NitroSketch::new(
        CountSketch::new(5, 1 << 14, 33),
        Mode::Fixed { p: 1.0 },
        77 + i as u64,
    )
    .with_topk(64)
}

fn main() {
    let packets = 600_000usize;
    let records = take_records(CaidaLike::new(11, 20_000).with_rate(40e6), packets);
    let dir = std::env::temp_dir().join(format!("nitro-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let plan = ThreadFaultPlan::new();
    plan.panic_after(40_000);
    let store =
        CheckpointStore::create(&dir, SHARDS, StoreConfig::default()).expect("create store");
    let (mut tap, mut pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: SHARDS,
            supervisor: SupervisorConfig {
                ring_capacity: 1 << 17,
                checkpoint_every: 20_000,
                max_restarts: 0,
                ..Default::default()
            },
            store: Some(store),
            fault_plans: vec![(VICTIM, plan)],
            failover: true,
            ..Default::default()
        },
    )
    .expect("spawn instrumented fleet");

    // ── Feed under a 100 ms scrape cadence. ────────────────────────────
    // A real deployment would serve `pipeline.scrape()` over HTTP; here
    // the coordinator thread interleaves scrapes with the offer loop so
    // the example stays single-process and deterministic to schedule.
    // Each scrape also lands in the NDJSON recording: JSON document plus
    // the journal entries drained since the previous frame (which we keep
    // for the post-run assertions — draining is destructive).
    let recording =
        std::env::temp_dir().join(format!("nitro-telemetry-{}.ndjson", std::process::id()));
    let mut recorder = ScrapeRecorder::create(&recording).expect("create scrape recording");
    let mut journal: Vec<SequencedEvent> = Vec::new();
    let started = Instant::now();
    let mut next_scrape = Instant::now();
    let mut scrapes = 0u64;
    let mut sample = String::new();
    let record_frame = |pipeline: &mut nitrosketch::switch::ShardedPipeline<CountSketch>,
                        journal: &mut Vec<SequencedEvent>,
                        recorder: &mut ScrapeRecorder,
                        at: Duration| {
        let drained = pipeline.telemetry().drain_events();
        let lines: Vec<String> = drained.iter().map(|e| e.event.to_string()).collect();
        journal.extend(drained);
        recorder
            .append(at.as_millis() as u64, &pipeline.scrape_json(), &lines)
            .expect("append scrape frame");
    };
    for (i, r) in records.iter().enumerate() {
        tap.offer(r.tuple.flow_key(), r.ts_ns);
        if i % 1024 == 0 {
            std::thread::yield_now();
        }
        if Instant::now() >= next_scrape {
            next_scrape += Duration::from_millis(100);
            scrapes += 1;
            let page = pipeline.scrape();
            record_frame(
                &mut pipeline,
                &mut journal,
                &mut recorder,
                started.elapsed(),
            );
            if sample.is_empty() && page.contains("nitro_restarts_total") {
                sample = page
                    .lines()
                    .filter(|l| {
                        l.starts_with("nitro_offered_total")
                            || l.starts_with("nitro_ring_occupancy")
                            || l.starts_with("nitro_sampling_probability")
                    })
                    .take(9)
                    .collect::<Vec<_>>()
                    .join("\n");
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while pipeline.failed_shards().is_empty() {
        assert!(Instant::now() < deadline, "the victim never died");
        std::thread::yield_now();
    }
    pipeline
        .epoch_view()
        .expect("rotation promotes the failed shard");
    assert_eq!(pipeline.promotions(), 1, "exactly one promotion expected");
    // One closing frame so the recording ends on the promoted fleet —
    // this is the frame `nitro top --once --replay` renders.
    record_frame(
        &mut pipeline,
        &mut journal,
        &mut recorder,
        started.elapsed(),
    );
    let frames = recorder.frames();
    drop(recorder);
    println!(
        "fed {packets} packets in {:.1?}, scraped the Prometheus endpoint {scrapes} times",
        started.elapsed()
    );
    println!("\nsampled mid-run series:\n{sample}\n");

    // ── The journal narrates what the fleet went through. ──────────────
    // (Accumulated across the recorder's per-frame drains: every event
    // is both in the NDJSON artifact and asserted on here.)
    let events = journal;
    println!("event journal ({} events, oldest first):", events.len());
    for e in &events {
        println!("  {e}");
    }
    let narrated_promotion = events.iter().any(|e| {
        matches!(
            e.event,
            nitrosketch::metrics::telemetry::Event::Promotion { shard, .. } if shard == VICTIM as u32
        )
    });
    assert!(narrated_promotion, "the journal must narrate the promotion");
    assert_eq!(
        pipeline.telemetry().journal().dropped(),
        0,
        "journal sized for the run: no overflow drops"
    );

    // ── Final scrape equals the joined fleet's health exactly. ─────────
    let registry = std::sync::Arc::clone(pipeline.telemetry());
    let p99_batch: Vec<u64> = registry
        .live_shards()
        .iter()
        .map(|t| t.batch_ns.p99())
        .collect();
    println!("\nper-shard batch p99 (ns, log2 lower bounds): {p99_batch:?}");
    drop(tap);
    let (_, fleet) = pipeline.finish().expect("promoted fleet finishes clean");
    let live = registry.fleet_health();
    assert_eq!(
        live,
        fleet.total(),
        "quiesced scrape must equal the final fleet health"
    );
    assert_eq!(live.unaccounted(), 0, "identity holds through the chaos");
    println!("{fleet}");
    println!("telemetry plane agreed with the joined fleet exactly");

    // ── The recording reads back as a replayable artifact. ─────────────
    let recorded = read_recording(&recording).expect("recording parses back");
    assert_eq!(recorded.len() as u64, frames, "every frame survived");
    assert!(
        recorded.last().expect("non-empty").snapshot.fleet.restarts >= 1,
        "the closing frame captured the chaos"
    );
    println!(
        "recorded {frames} scrape frames; watch the failover with:\n  \
         cargo run --release --bin nitro -- top --replay {}",
        recording.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
