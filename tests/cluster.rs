//! Loopback acceptance test for the distributed measurement plane: a
//! 3-node cluster (each node a 2-shard [`ShardedPipeline`] with a durable
//! checkpoint store, fronted by a [`NodeAgent`]) streams epoch-sealed
//! checkpoints over TCP to an [`Aggregator`], which answers network-wide
//! queries per epoch.
//!
//! The chaos arc, mirroring ISSUE acceptance:
//! - node 2 is partitioned (socket severed, no Goodbye) mid-epoch; its
//!   epoch-3 seal lands only in its durable agent log;
//! - the aggregator declares the node lost within **2 heartbeat
//!   intervals** and refuses to serve epoch 3 as complete while node 2's
//!   frames are missing;
//! - the node's whole process "dies" ([`ShardedPipeline::simulate_crash`])
//!   and is rebuilt purely from its segment logs, and the restarted agent
//!   **backfills** the missed epoch from its own durable store on
//!   reconnect, flipping epoch 3 from degraded to complete;
//! - network-wide heavy-hitter recall vs. exact ground truth of the whole
//!   offered stream stays ≥ 0.95, and per-node accounting (offered ==
//!   processed + dropped + lost) is exact via `FleetHealth::unaccounted`.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::metrics::telemetry::Event;
use nitrosketch::metrics::TelemetryRegistry;
use nitrosketch::sketches::{Checkpoint, CountMin};
use nitrosketch::switch::{
    Aggregator, AggregatorConfig, CheckpointStore, MergedView, NodeAgent, NodeAgentConfig,
    PipelineConfig, ReconnectPolicy, ShardedPipeline, ShardedTap, StoreConfig, SupervisorConfig,
};
use nitrosketch::traffic::GroundTruth;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{drain, fresh_dir, offer_all, pump, wait_complete, zipf_stream};

const NODES: usize = 3;
const SHARDS: usize = 2;
const EPOCHS: u64 = 4;
const CHUNK: usize = 30_000;
const WIDTH: usize = 2048;
/// Small checkpoint interval keeps the worst-case crash loss (one
/// interval + one in-flight batch per shard) tiny next to the heavy-
/// hitter threshold, so recall stays provably above the 0.95 floor.
const CHECKPOINT_EVERY: u64 = 256;
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(150);
/// Observations a shard worker pops and applies at once.
const BATCH: u64 = 64;

type Pipe = (ShardedTap, ShardedPipeline<CountMin>);

/// Identical rows/seeds everywhere (the merge + admission precondition);
/// only the sampler seed differs per node/shard. p = 1 keeps counting
/// exact so every recall shortfall is attributable to the crash.
fn factory_for(node: usize) -> impl Fn(usize) -> NitroSketch<CountMin> + Send + Sync + 'static {
    move |i| {
        NitroSketch::new(
            CountMin::new(4, WIDTH, 7),
            Mode::Fixed { p: 1.0 },
            (100 + node * 16 + i) as u64,
        )
        .with_topk(256)
    }
}

/// The aggregator's blank merge template: same inner geometry (its
/// fingerprint is the handshake admission check), its own sampler seed.
fn template() -> NitroSketch<CountMin> {
    NitroSketch::new(CountMin::new(4, WIDTH, 7), Mode::Fixed { p: 1.0 }, 1).with_topk(256)
}

fn pipe_config(store: Option<Arc<CheckpointStore>>) -> PipelineConfig {
    PipelineConfig {
        shards: SHARDS,
        supervisor: SupervisorConfig {
            ring_capacity: 1 << 15,
            checkpoint_every: CHECKPOINT_EVERY,
            // Never downshift: recall bounds assume exact counting.
            high_water: 1.1,
            ..Default::default()
        },
        store,
        ..Default::default()
    }
}

/// An epoch view in which every shard answered its on-demand snapshot. A
/// shard whose writer is still persisting (an fsync can stall for seconds
/// on a busy disk) misses the pipeline's snapshot timeout; the view then
/// serves it from an older checkpoint and reports what it has not seen
/// (`staleness_bound() > 0`), so ask again, pumping heartbeats meanwhile.
fn fresh_view(
    pipeline: &mut ShardedPipeline<CountMin>,
    agents: &mut [Option<NodeAgent>],
) -> MergedView<CountMin> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let view = pipeline.epoch_view().expect("epoch view");
        if view.staleness_bound() == 0 {
            return view;
        }
        assert!(
            Instant::now() < deadline,
            "views stay stale: {:?}; {}",
            view.staleness(),
            pipeline.fleet_health()
        );
        pump(agents);
    }
}

#[test]
fn three_node_cluster_survives_kill_and_backfills() {
    let registry = Arc::new(TelemetryRegistry::new());
    let agg: Aggregator<CountMin> = Aggregator::spawn(
        template(),
        "127.0.0.1:0",
        AggregatorConfig {
            heartbeat_timeout: HEARTBEAT_TIMEOUT,
            keep_epochs: 64,
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    )
    .expect("spawn aggregator");
    let addr = agg.local_addr();
    let fingerprint = template().inner().fingerprint();

    // Per-node offered traffic, pre-cut into epochs; the network-wide
    // ground truth is the union of all three streams.
    let streams: Vec<Vec<u64>> = (0..NODES)
        .map(|n| zipf_stream(EPOCHS as usize * CHUNK, 7_000 + n as u64))
        .collect();
    let truth = GroundTruth::from_keys(streams.iter().flatten().copied());

    let mut pipes: Vec<Option<Pipe>> = Vec::new();
    let mut agents: Vec<Option<NodeAgent>> = Vec::new();
    for n in 0..NODES {
        let store = CheckpointStore::create(
            fresh_dir(&format!("pipe{n}")),
            SHARDS,
            StoreConfig::default(),
        )
        .expect("create pipeline store");
        let pipe = nitrosketch::switch::spawn_sharded(factory_for(n), pipe_config(Some(store)))
            .expect("spawn node pipeline");
        let mut cfg = NodeAgentConfig::new(n as u32, fingerprint);
        if n == 2 {
            // Node 2 is severed for epoch 3 and must stay cut off until its
            // restart: a redial on its own backoff (50 ms by default) would
            // ship the severed seal live, or backfill it early. The
            // restarted agent reopens with the default policy.
            cfg.reconnect = ReconnectPolicy {
                base_backoff: Duration::from_secs(3600),
                max_backoff: Duration::from_secs(3600),
                ..Default::default()
            };
        }
        let mut agent = NodeAgent::open(fresh_dir(&format!("agent{n}")), cfg).expect("open agent");
        assert_eq!(
            agent.connect(addr).expect("handshake"),
            0,
            "nothing to backfill"
        );
        pipes.push(Some(pipe));
        agents.push(Some(agent));
    }

    let chunk = |node: usize, epoch: u64| {
        let at = (epoch - 1) as usize * CHUNK;
        &streams[node][at..at + CHUNK]
    };
    let hh_threshold = 0.005 * truth.l1();

    // Epochs 1-2: every node offers its chunk, drains, and seals. The
    // aggregator serves each epoch complete once all three frames land.
    for epoch in 1..=2u64 {
        for n in 0..NODES {
            let (tap, pipeline) = pipes[n].as_mut().unwrap();
            offer_all(tap, chunk(n, epoch), &mut agents);
            drain(pipeline, &mut agents);
            let view = pipeline.epoch_view().expect("epoch view");
            let out = agents[n]
                .as_mut()
                .unwrap()
                .seal_epoch(epoch, &view, hh_threshold)
                .expect("seal");
            assert!(out.delivered, "node {n} epoch {epoch} should deliver live");
        }
        wait_complete(&agg, &mut agents, epoch);
    }
    assert_eq!(agg.latest_complete(), Some(2));
    assert_eq!(agg.connected_nodes(), vec![0, 1, 2]);

    // Epoch 3: all nodes absorb their traffic, but node 2's link is
    // severed (partition, no Goodbye) before it can ship the seal. The
    // frame still lands in its durable agent log (persist-before-publish).
    for (n, pipe) in pipes.iter_mut().enumerate() {
        let (tap, pipeline) = pipe.as_mut().unwrap();
        offer_all(tap, chunk(n, 3), &mut agents);
        drain(pipeline, &mut agents);
    }
    let severed_at;
    {
        let agent2 = agents[2].as_mut().unwrap();
        agent2.sever();
        severed_at = Instant::now();
        let (_, pipeline) = pipes[2].as_mut().unwrap();
        let view = pipeline.epoch_view().expect("epoch view");
        let out = agent2.seal_epoch(3, &view, hh_threshold).expect("seal");
        assert!(!out.delivered, "severed seal must be durable-only");
    }
    for n in 0..2 {
        let (_, pipeline) = pipes[n].as_mut().unwrap();
        let view = pipeline.epoch_view().expect("epoch view");
        let out = agents[n]
            .as_mut()
            .unwrap()
            .seal_epoch(3, &view, hh_threshold)
            .expect("seal");
        assert!(out.delivered);
    }

    // Loss detection: within two heartbeat intervals the monitor must
    // journal NodeLoss and drop node 2 from the connected set. Nodes 0/1
    // keep heartbeating so only the silent node is blamed.
    let detect_deadline = severed_at + 2 * HEARTBEAT_TIMEOUT;
    while agg.connected_nodes() != vec![0, 1] {
        assert!(
            Instant::now() < detect_deadline,
            "node loss not detected within 2 heartbeat intervals"
        );
        for a in agents[..2].iter_mut().flatten() {
            a.heartbeat(0);
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // A delivered seal is written to the socket, not yet merged: wait for
    // the aggregator to ingest nodes 0/1's epoch-3 frames.
    let ingest_deadline = Instant::now() + Duration::from_secs(10);
    while agg.latest_epoch() < 3 {
        assert!(
            Instant::now() < ingest_deadline,
            "epoch-3 frames never ingested; status {:?}",
            agg.epoch_status(3)
        );
        for a in agents[..2].iter_mut().flatten() {
            a.heartbeat(0);
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // No epoch may be served complete while a reporting node's frames are
    // missing: epoch 3 has nodes 0/1 only, so it is degraded, and the
    // freshest complete epoch stays 2.
    assert!(
        !agg.epoch_status(3).is_complete(),
        "epoch 3 must not be complete"
    );
    assert_eq!(agg.latest_complete(), Some(2));
    assert_eq!(agg.latest_epoch(), 3);

    // Kill node 2's whole process: in-memory sketches are discarded; the
    // next incarnation is rebuilt purely from the pipeline segment logs.
    // The kill costs each shard at most what it processed since its newest
    // persisted checkpoint (`persist_lag`), plus one in-flight batch.
    let crash_loss;
    {
        let (tap, pipeline) = pipes[2].take().unwrap();
        drop(tap);
        crash_loss = pipeline
            .shards()
            .iter()
            .map(|s| s.telemetry().persist_lag() + BATCH)
            .sum::<u64>() as f64;
        pipeline.simulate_crash();
        drop(agents[2].take());
    }

    // Restart node 2: recover the pipeline from disk, reopen the agent on
    // its durable log (epoch numbering resumes), reconnect, and backfill
    // the seal the partition swallowed.
    let (tap, pipeline, report) = ShardedPipeline::recover_from(
        std::env::temp_dir().join(format!("nitro-cluster-pipe2-{}", std::process::id())),
        factory_for(2),
        StoreConfig::default(),
        pipe_config(None),
    )
    .expect("recover node 2");
    assert_eq!(report.shards, SHARDS);
    assert!(
        report.blank_shards().is_empty(),
        "all shards had durable state"
    );
    pipes[2] = Some((tap, pipeline));
    let mut agent2 = NodeAgent::open(
        std::env::temp_dir().join(format!("nitro-cluster-agent2-{}", std::process::id())),
        NodeAgentConfig::new(2, fingerprint),
    )
    .expect("reopen agent 2");
    assert_eq!(
        agent2.next_epoch(),
        4,
        "epoch numbering resumes from the log"
    );
    let replayed = agent2.connect(addr).expect("reconnect");
    assert_eq!(replayed, 1, "exactly the missed epoch-3 frame backfills");
    assert_eq!(agent2.backfilled(), 1);
    agents[2] = Some(agent2);

    // The backfilled frame flips epoch 3 from degraded to complete.
    wait_complete(&agg, &mut agents, 3);
    assert_eq!(agg.latest_complete(), Some(3));

    // Epoch 4: all three nodes (node 2 post-restart) seal live again,
    // each from a view that has seen everything its shards processed.
    for n in 0..NODES {
        let (tap, pipeline) = pipes[n].as_mut().unwrap();
        offer_all(tap, chunk(n, 4), &mut agents);
        drain(pipeline, &mut agents);
        let health = pipeline.fleet_health();
        assert_eq!(
            health.unaccounted(),
            0,
            "node {n} accounting identity must close exactly: {health}"
        );
        let view = fresh_view(pipeline, &mut agents);
        let out = agents[n]
            .as_mut()
            .unwrap()
            .seal_epoch(4, &view, hh_threshold)
            .expect("seal");
        assert!(out.delivered);
    }
    wait_complete(&agg, &mut agents, 4);
    assert_eq!(agg.latest_complete(), Some(4));
    assert_eq!(agg.connected_nodes(), vec![0, 1, 2]);

    // Network-wide heavy-hitter recall vs. exact ground truth of the
    // whole offered stream. Crash loss is bounded by node 2's persist lag
    // at the kill plus one in-flight batch per shard; querying slightly
    // below threshold absorbs that undercount.
    let hh_truth = truth.heavy_hitters(0.005);
    assert!(hh_truth.len() >= 10, "stream not skewed enough to test");
    let view = agg.view(4).expect("complete epoch view");
    assert!(view.status().is_complete());
    let found = view.heavy_hitters(0.8 * hh_threshold);
    let recalled = hh_truth
        .iter()
        .filter(|&&(k, _)| found.iter().any(|&(fk, _)| fk == k))
        .count();
    assert!(
        recalled as f64 >= 0.95 * hh_truth.len() as f64,
        "network-wide HH recall {recalled}/{}",
        hh_truth.len()
    );
    // Point estimates on the global top flows: CountMin at p = 1 never
    // undercounts except for the bounded crash loss.
    for &(k, t) in truth.top_k(5).iter() {
        let est = view.estimate(k);
        assert!(
            est >= t - crash_loss,
            "flow {k:#x}: estimate {est} vs truth {t} (crash loss {crash_loss})"
        );
    }

    // Change detection across the partition window: epochs 3-4 carried
    // half the stream, so the global top flow must surface.
    let changes = agg
        .change_between(2, 4, 0.25 * hh_threshold)
        .expect("change query");
    let top = truth.top_k(1)[0].0;
    assert!(
        changes.iter().any(|&(k, _)| k == top),
        "top flow missing from change_between(2, 4)"
    );

    // The failure/repair story is journaled and exported.
    let events: Vec<Event> = registry
        .drain_events()
        .into_iter()
        .map(|e| e.event)
        .collect();
    assert!(
        events
            .iter()
            .filter(|e| matches!(e, Event::NodeJoin { .. }))
            .count()
            >= 4,
        "3 initial joins + 1 rejoin"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::NodeLoss { node: 2, .. })),
        "NodeLoss journaled for node 2"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::BackfillReplayed { node: 2, frames: 1 })),
        "backfill journaled"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::EpochSealed {
                epoch: 3,
                was_degraded: true,
                ..
            }
        )),
        "epoch 3 sealed as repaired-degraded"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::EpochSealed {
                epoch: 4,
                was_degraded: false,
                ..
            }
        )),
        "epoch 4 sealed clean"
    );

    let prom = agg.scrape();
    for family in [
        "nitro_cluster_connected_nodes 3",
        "nitro_cluster_known_nodes 3",
        "nitro_cluster_node_losses_total 1",
        "nitro_cluster_backfill_frames_total 1",
        "nitro_cluster_epochs_sealed_total",
    ] {
        assert!(prom.contains(family), "scrape missing {family:?}:\n{prom}");
    }
    assert!(agg.scrape_json().contains("\"cluster\""));

    for a in agents.into_iter().flatten() {
        a.close();
    }
    agg.shutdown();
}
