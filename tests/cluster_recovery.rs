//! Aggregator crash-consistency acceptance test: kill the aggregator
//! mid-epoch with three live nodes behind per-node chaos proxies, then
//! prove the restarted aggregator serves everything it had already
//! sealed **from disk alone** and repairs the rest with delta-only
//! backfill.
//!
//! The arc, mirroring ISSUE acceptance:
//! - three nodes (each a 2-shard durable [`ShardedPipeline`] fronted by a
//!   [`NodeAgent`]) seal epochs 1-2 through forwarding [`ChaosProxy`]s;
//! - mid-epoch 3 — after node 0's seal but before nodes 1-2 deliver —
//!   the aggregator is killed and every proxy hard-partitions; the late
//!   seals land durable-only in the agents' own logs;
//! - [`Aggregator::recover`] on a **new port** serves epochs 1-2 complete
//!   before any node reconnects (zero backfill needed for them) and
//!   epoch 3 degraded with exactly node 0's frame;
//! - partitioned agents redial on the jittered [`ReconnectPolicy`]
//!   schedule (journaled as `ReconnectBackoff`), the proxies retarget to
//!   the new port and heal, and each lagging node backfills exactly the
//!   one epoch newer than the recovered `last_epoch` watermark;
//! - epoch 4 seals live on all three nodes, network-wide HH recall vs.
//!   exact ground truth stays ≥ 0.95, and per-node accounting
//!   (offered == processed + dropped + lost) closes exactly.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::metrics::telemetry::Event;
use nitrosketch::metrics::TelemetryRegistry;
use nitrosketch::sketches::{Checkpoint, CountMin};
use nitrosketch::switch::{
    Aggregator, AggregatorConfig, ChaosProxy, CheckpointStore, MergedView, NetFaultPlan, NodeAgent,
    NodeAgentConfig, PipelineConfig, ReconnectPolicy, ShardedPipeline, ShardedTap, StoreConfig,
    SupervisorConfig,
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
const CHECKPOINT_EVERY: u64 = 256;
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(150);

type Pipe = (ShardedTap, ShardedPipeline<CountMin>);

fn factory_for(node: usize) -> impl Fn(usize) -> NitroSketch<CountMin> + Send + Sync + 'static {
    move |i| {
        NitroSketch::new(
            CountMin::new(4, WIDTH, 7),
            Mode::Fixed { p: 1.0 },
            (200 + node * 16 + i) as u64,
        )
        .with_topk(256)
    }
}

fn template() -> NitroSketch<CountMin> {
    NitroSketch::new(CountMin::new(4, WIDTH, 7), Mode::Fixed { p: 1.0 }, 1).with_topk(256)
}

fn pipe_config(store: Option<Arc<CheckpointStore>>) -> PipelineConfig {
    PipelineConfig {
        shards: SHARDS,
        supervisor: SupervisorConfig {
            ring_capacity: 1 << 15,
            checkpoint_every: CHECKPOINT_EVERY,
            high_water: 1.1,
            ..Default::default()
        },
        store,
        ..Default::default()
    }
}

#[test]
fn aggregator_killed_mid_epoch_recovers_from_durable_log_behind_chaos_proxies() {
    let registry = Arc::new(TelemetryRegistry::new());
    let log_dir = fresh_dir("agglog");
    let agg_cfg = AggregatorConfig {
        heartbeat_timeout: HEARTBEAT_TIMEOUT,
        keep_epochs: 64,
        registry: Some(Arc::clone(&registry)),
        log_dir: Some(log_dir.clone()),
        ..Default::default()
    };
    let agg: Aggregator<CountMin> =
        Aggregator::spawn(template(), "127.0.0.1:0", agg_cfg.clone()).expect("spawn aggregator");
    let fingerprint = template().inner().fingerprint();

    // One chaos proxy per node: agents dial the proxy's stable address;
    // the aggregator can die and come back on any port behind it.
    let proxies: Vec<ChaosProxy> = (0..NODES)
        .map(|_| ChaosProxy::spawn(agg.local_addr(), NetFaultPlan::new()).expect("spawn proxy"))
        .collect();

    let streams: Vec<Vec<u64>> = (0..NODES)
        .map(|n| zipf_stream(EPOCHS as usize * CHUNK, 9_000 + n as u64))
        .collect();
    let truth = GroundTruth::from_keys(streams.iter().flatten().copied());

    let mut pipes: Vec<Pipe> = Vec::new();
    let mut agents: Vec<NodeAgent> = Vec::new();
    for (n, proxy) in proxies.iter().enumerate() {
        let store = CheckpointStore::create(
            fresh_dir(&format!("pipe{n}")),
            SHARDS,
            StoreConfig::default(),
        )
        .expect("create pipeline store");
        let pipe = nitrosketch::switch::spawn_sharded(factory_for(n), pipe_config(Some(store)))
            .expect("spawn node pipeline");
        let mut cfg = NodeAgentConfig::new(n as u32, fingerprint);
        // Fast, budget-rich redial so the test's heartbeat cadence walks
        // several failed attempts during the partition window.
        cfg.reconnect = ReconnectPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter: 0.25,
            max_attempts: 10_000,
            seed: 0,
        };
        cfg.registry = Some(Arc::clone(&registry));
        // The proxy accepts while its upstream is partitioned or dead, so
        // a redial waits out the whole handshake bound: keep it well under
        // the phase deadlines below.
        cfg.handshake_timeout = Duration::from_millis(250);
        let mut agent = NodeAgent::open(fresh_dir(&format!("agent{n}")), cfg).expect("open agent");
        assert_eq!(agent.connect(proxy.local_addr()).expect("handshake"), 0);
        pipes.push(pipe);
        agents.push(agent);
    }

    let chunk = |node: usize, epoch: u64| {
        let at = (epoch - 1) as usize * CHUNK;
        &streams[node][at..at + CHUNK]
    };
    let hh_threshold = 0.005 * truth.l1();

    // Epochs 1-2: sealed live through forwarding proxies.
    for epoch in 1..=2u64 {
        for n in 0..NODES {
            let (tap, pipeline) = &mut pipes[n];
            offer_all(tap, chunk(n, epoch), &mut agents);
            drain(pipeline, &mut agents);
            let view = pipeline.epoch_view().expect("epoch view");
            let out = agents[n]
                .seal_epoch(epoch, &view, hh_threshold)
                .expect("seal");
            assert!(out.delivered, "node {n} epoch {epoch} should deliver live");
        }
        wait_complete(&agg, &mut agents, epoch);
    }
    assert_eq!(agg.latest_complete(), Some(2));
    let view1_packets = agg.view(1).expect("view 1").packets();
    let view2_packets = agg.view(2).expect("view 2").packets();

    // Epoch 3, interrupted: every node absorbs its traffic; node 0 seals
    // and delivers; then the aggregator dies and every link partitions.
    for (n, (tap, pipeline)) in pipes.iter_mut().enumerate() {
        offer_all(tap, chunk(n, 3), &mut agents);
        drain(pipeline, &mut agents);
    }
    let view0 = pipes[0].1.epoch_view().expect("epoch view");
    assert!(
        agents[0]
            .seal_epoch(3, &view0, hh_threshold)
            .expect("seal")
            .delivered
    );
    // Give the frame time to be merged + logged before the kill.
    let logged_deadline = Instant::now() + Duration::from_secs(5);
    while !matches!(
        agg.epoch_status(3),
        nitrosketch::switch::EpochStatus::Pending { .. }
    ) && Instant::now() < logged_deadline
    {
        pump(&mut agents);
        std::thread::sleep(Duration::from_millis(5));
    }

    // The kill: in-memory views vanish; only the aggregation log survives.
    agg.shutdown();
    for p in &proxies {
        p.plan().partition();
    }
    // Let each agent discover the death organically: heartbeat writes to
    // the torn-down connection fail (TCP surfaces the reset on the second
    // write at the latest) and arm the redial schedule.
    for _ in 0..5 {
        pump(&mut agents);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(agents.iter().all(|a| !a.is_connected()));

    // Nodes 1-2 seal epoch 3 into their own durable logs; delivery is
    // impossible (dead aggregator, partitioned links).
    for n in 1..NODES {
        let view = pipes[n].1.epoch_view().expect("epoch view");
        let out = agents[n].seal_epoch(3, &view, hh_threshold).expect("seal");
        assert!(!out.delivered, "node {n} must degrade to local-durable");
    }

    // Walk the redial schedule against the partition for a few rounds so
    // jittered backoff is actually exercised (and journaled).
    let backoff_deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < backoff_deadline {
        pump(&mut agents);
        std::thread::sleep(Duration::from_millis(5));
    }

    // Recovery on a fresh port, before any node can reconnect: epochs 1-2
    // are served complete from disk with zero node backfill; epoch 3
    // holds exactly node 0's frame and is degraded (node 0's interval is
    // open and it is disconnected).
    let (agg, recovery) = Aggregator::recover(template(), "127.0.0.1:0", &log_dir, agg_cfg)
        .expect("recover aggregator");
    assert_eq!(recovery.epochs, 3, "epochs 1-3 rebuilt from the log");
    assert_eq!(recovery.nodes, NODES as u32);
    assert!(agg.epoch_status(1).is_complete());
    assert!(agg.epoch_status(2).is_complete());
    assert_eq!(agg.latest_complete(), Some(2));
    assert!(!agg.epoch_status(3).is_complete());
    assert_eq!(
        agg.view(1).expect("recovered view 1").packets(),
        view1_packets
    );
    assert_eq!(
        agg.view(2).expect("recovered view 2").packets(),
        view2_packets
    );
    assert!(agg.connected_nodes().is_empty());

    // Heal: retarget every proxy at the recovered aggregator's new port
    // and lift the partitions. The agents' own redial schedule does the
    // rest — no explicit connect() anywhere below.
    for p in &proxies {
        p.set_upstream(agg.local_addr());
        p.plan().heal();
    }
    wait_complete(&agg, &mut agents, 3);
    assert_eq!(agg.latest_complete(), Some(3));
    assert_eq!(
        agents[0].backfilled(),
        0,
        "node 0 was fully merged before the kill: delta-only means zero"
    );
    for (n, agent) in agents.iter().enumerate().skip(1) {
        assert_eq!(
            agent.backfilled(),
            1,
            "node {n} backfills exactly its epoch-3 frame"
        );
    }

    // Epoch 4: live again end to end, accounting identity exact.
    for n in 0..NODES {
        let (tap, pipeline) = &mut pipes[n];
        offer_all(tap, chunk(n, 4), &mut agents);
        drain(pipeline, &mut agents);
        let health = pipeline.fleet_health();
        assert_eq!(
            health.unaccounted(),
            0,
            "node {n} accounting identity must close exactly: {health}"
        );
        let view = pipeline.epoch_view().expect("epoch view");
        let out = agents[n].seal_epoch(4, &view, hh_threshold).expect("seal");
        assert!(out.delivered);
    }
    wait_complete(&agg, &mut agents, 4);
    assert_eq!(agg.connected_nodes(), vec![0, 1, 2]);

    // Network-wide heavy-hitter recall vs. exact ground truth. No node
    // lost a single observation (the kill was the aggregator's, not
    // theirs), so recall has no crash-loss excuse.
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
        "post-heal HH recall {recalled}/{}",
        hh_truth.len()
    );

    // The whole arc is journaled: recovery, jittered backoff, backfill.
    let events: Vec<Event> = registry
        .drain_events()
        .into_iter()
        .map(|e| e.event)
        .collect();
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::AggregatorRecovered {
                epochs: 3,
                nodes: 3,
                ..
            }
        )),
        "AggregatorRecovered journaled"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::ReconnectBackoff { .. })),
        "jittered redial backoff journaled during the partition"
    );
    assert!(
        events
            .iter()
            .filter(|e| matches!(e, Event::BackfillReplayed { .. }))
            .count()
            >= 2,
        "nodes 1-2 backfill journaled"
    );

    // And exported: recovery gauges + aggregation-log counters.
    let prom = agg.scrape();
    for family in [
        "nitro_cluster_recovered_epochs 3",
        "nitro_cluster_recovered_records",
        "nitro_cluster_log_records_total",
        "nitro_cluster_reconnect_backoffs_total",
    ] {
        assert!(prom.contains(family), "scrape missing {family:?}:\n{prom}");
    }
    assert!(prom.contains("nitro_cluster_log_persist_failures_total 0"));

    drop(pipes);
    for a in agents {
        a.close();
    }
    agg.shutdown();
    for p in proxies {
        p.shutdown();
    }
    let _ = std::fs::remove_dir_all(&log_dir);
}

/// Regression: a recovered aggregator hit by a *concurrent reconnect
/// storm* must never double-merge a backfilled frame.
///
/// The hazard: `connect()` writes backfill frames into the socket and
/// returns before the aggregator merges them. A node that severs and
/// redials immediately gets a `HelloAck` whose `last_epoch` watermark
/// predates its own in-flight frames, so it re-offers the same epoch —
/// and with several nodes slamming the listener at once the aggregator
/// sees the same frame many times over, across interleaved connections.
/// The reporting-set dedup must reject every duplicate; with p = 1
/// counters, a single double-merge doubles a point estimate and the
/// exact-equality assertions below catch it.
#[test]
fn recovered_aggregator_survives_reconnect_storm_without_double_merge() {
    const STORM_NODES: u32 = 4;
    const STORM_ROUNDS: usize = 8;
    // Distinct per-(node, epoch) loads so any duplicate merge is visible
    // in both the packet totals and the per-key estimates.
    let count_for = |node: u32, epoch: u64| 1_000 + 100 * u64::from(node) + epoch;
    let key_for = |node: u32| 0xFEED_0000 + u64::from(node);
    let seal_view = |node: u32, epoch: u64| {
        let mut s = template();
        for _ in 0..count_for(node, epoch) {
            s.process(key_for(node), 1.0);
        }
        MergedView::from_sketch(epoch, s)
    };
    let epoch_total = |epoch: u64| (0..STORM_NODES).map(|n| count_for(n, epoch)).sum::<u64>();

    let log_dir = fresh_dir("stormlog");
    let agg_cfg = AggregatorConfig {
        heartbeat_timeout: Duration::from_millis(500),
        keep_epochs: 64,
        log_dir: Some(log_dir.clone()),
        ..Default::default()
    };
    let agg: Aggregator<CountMin> =
        Aggregator::spawn(template(), "127.0.0.1:0", agg_cfg.clone()).expect("spawn aggregator");
    let fingerprint = template().inner().fingerprint();

    let mut agents: Vec<NodeAgent> = (0..STORM_NODES)
        .map(|n| {
            let mut cfg = NodeAgentConfig::new(n, fingerprint);
            cfg.reconnect = ReconnectPolicy {
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
                jitter: 0.25,
                max_attempts: 10_000,
                seed: u64::from(n),
            };
            let mut agent =
                NodeAgent::open(fresh_dir(&format!("storm{n}")), cfg).expect("open agent");
            assert_eq!(agent.connect(agg.local_addr()).expect("handshake"), 0);
            agent
        })
        .collect();

    // Epochs 1-2 seal live; the aggregator logs and merges each frame
    // exactly once.
    for epoch in 1..=2u64 {
        for (n, agent) in agents.iter_mut().enumerate() {
            let view = seal_view(n as u32, epoch);
            assert!(
                agent
                    .seal_epoch(epoch, &view, f64::MAX)
                    .expect("seal")
                    .delivered
            );
        }
        wait_complete(&agg, &mut agents, epoch);
        assert_eq!(
            agg.view(epoch).expect("live view").packets(),
            epoch_total(epoch)
        );
    }

    // Crash mid-epoch 3: connections drop, every node's epoch-3 seal
    // lands durable-only in its own log.
    for a in &mut agents {
        a.sever();
    }
    agg.shutdown();
    for (n, agent) in agents.iter_mut().enumerate() {
        let view = seal_view(n as u32, 3);
        let out = agent.seal_epoch(3, &view, f64::MAX).expect("seal");
        assert!(!out.delivered, "node {n} must degrade to local-durable");
    }

    let (agg, recovery) =
        Aggregator::recover(template(), "127.0.0.1:0", &log_dir, agg_cfg).expect("recover");
    assert_eq!(recovery.epochs, 2);
    assert!(agg.epoch_status(1).is_complete());
    assert!(agg.epoch_status(2).is_complete());
    assert!(!agg.epoch_status(3).is_complete());

    // The storm: every node redials the recovered aggregator at once,
    // severing right after each connect so in-flight backfill races the
    // next handshake's watermark. The final connect per node is retried
    // until it sticks.
    let addr = agg.local_addr();
    let handles: Vec<_> = agents
        .into_iter()
        .map(|mut agent| {
            std::thread::spawn(move || {
                for _ in 0..STORM_ROUNDS {
                    let _ = agent.connect(addr);
                    agent.sever();
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while agent.connect(addr).is_err() {
                    assert!(Instant::now() < deadline, "final reconnect never stuck");
                    std::thread::sleep(Duration::from_millis(5));
                }
                agent
            })
        })
        .collect();
    let mut agents: Vec<NodeAgent> = handles
        .into_iter()
        .map(|h| h.join().expect("storm thread"))
        .collect();

    wait_complete(&agg, &mut agents, 3);

    // Exactly-once accounting: every epoch's packet total and every
    // node's point estimate equal the single-delivery ground truth, no
    // matter how many times the storm re-offered a frame.
    for epoch in 1..=3u64 {
        let view = agg.view(epoch).expect("post-storm view");
        assert_eq!(
            view.packets(),
            epoch_total(epoch),
            "epoch {epoch} packets must reflect exactly-once merges"
        );
        for n in 0..STORM_NODES {
            assert_eq!(
                view.estimate(key_for(n)),
                count_for(n, epoch) as f64,
                "node {n} epoch {epoch} estimate inflated: a frame merged twice"
            );
        }
    }
    for (n, agent) in agents.iter().enumerate() {
        assert!(
            agent.backfilled() >= 1,
            "node {n} never replayed its epoch-3 frame — storm exercised nothing"
        );
    }

    for a in agents {
        a.close();
    }
    agg.shutdown();
    let _ = std::fs::remove_dir_all(&log_dir);
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Persist-before-serve, seen from outside: the instant an epoch reads
/// Complete, the aggregation log already holds the records that made it
/// so. A copy of the log taken at that instant recovers the epoch
/// Complete.
#[test]
fn an_epoch_served_complete_is_already_in_the_aggregation_log() {
    const SEALS: u64 = 6;
    let log_dir = fresh_dir("pbs-log");
    let cfg = AggregatorConfig {
        heartbeat_timeout: Duration::from_millis(400),
        log_dir: Some(log_dir.clone()),
        ..Default::default()
    };
    let agg = Aggregator::spawn(template(), ("127.0.0.1", 0), cfg.clone()).expect("spawn");
    let agent_dir = fresh_dir("pbs-agent");
    let fingerprint = template().inner().fingerprint();
    let mut agent =
        NodeAgent::open(&agent_dir, NodeAgentConfig::new(0, fingerprint)).expect("agent");
    agent.connect(agg.local_addr()).expect("connect");
    let mut copies = Vec::new();
    for epoch in 1..=SEALS {
        let mut sketch = template();
        for (i, k) in zipf_stream(2_000, epoch).into_iter().enumerate() {
            sketch.process(k, (1 + i % 3) as f64);
        }
        let view = MergedView::from_sketch(epoch, sketch);
        assert!(
            agent
                .seal_epoch(epoch, &view, 100.0)
                .expect("seal")
                .delivered
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while !agg.epoch_status(epoch).is_complete() {
            assert!(Instant::now() < deadline, "epoch {epoch} never completed");
            std::thread::yield_now();
        }
        let copy = fresh_dir(&format!("pbs-copy-{epoch}"));
        copy_dir(&log_dir, &copy);
        copies.push((epoch, copy));
    }
    agent.close();
    agg.shutdown();

    let mut unlogged = Vec::new();
    for (epoch, copy) in &copies {
        let (recovered, _) =
            Aggregator::recover(template(), ("127.0.0.1", 0), copy, cfg.clone()).expect("recover");
        if !recovered.epoch_status(*epoch).is_complete() {
            unlogged.push(*epoch);
        }
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(copy);
    }
    assert!(
        unlogged.is_empty(),
        "epochs served Complete before the log held them: {unlogged:?} of {SEALS}"
    );
    let _ = std::fs::remove_dir_all(&agent_dir);
    let _ = std::fs::remove_dir_all(&log_dir);
}
