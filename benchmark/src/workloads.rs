//! The four workloads: seeded inputs, one pass of each, and the output
//! checks that fail a run.
//!
//! Everything here drives the product crates through their public
//! functions only; `README.md` lists the ones the harness depends on.
//!
//! Common shape (see the README for why each choice was made): the sketch
//! under test is the paper's configuration, a 2 MiB five-row Count Sketch
//! with a 1024-entry top-k behind `NitroSketch` in `Mode::Fixed { p }`; a
//! pass feeds a 4 M-packet CAIDA-like trace once or twice; every 250 000
//! packets the result is queried ("sealed"); the load generator is the
//! harness's main thread and it is a *closed loop* — it never lets a ring
//! pass half full, so nothing is dropped and nothing downshifts.

use crate::spans::Tracer;
use nitro_core::{Mode, NitroSketch};
use nitro_metrics::{mean_relative_error, recall, FleetHealth};
use nitro_sketches::{Checkpoint, CountSketch, FlowKey};
use nitro_switch::cost::Stage;
use nitro_switch::nic::PacketRecord;
use nitro_switch::{
    spawn_sharded, Aggregator, AggregatorConfig, CheckpointStore, NodeAgent, NodeAgentConfig,
    OvsDatapath, PipelineConfig, StoreConfig,
};
use nitro_traffic::{CaidaLike, GroundTruth};
use std::path::Path;
use std::time::{Duration, Instant};

/// Counter memory of the sketch under test (the paper's 2 MB setting).
pub const SKETCH_BYTES: usize = 2 << 20;
/// Rows of the sketch under test.
pub const SKETCH_DEPTH: usize = 5;
/// Hash seed of the sketch under test; pass `i` uses `SKETCH_SEED + i`, so
/// the accuracy means average over hash functions as well as samplers (at
/// `p = 1` the sampler seed changes nothing).
pub const SKETCH_SEED: u64 = 311;
/// Heavy-key tracker slots.
pub const TOPK: usize = 1024;
/// Heavy-hitter threshold as a share of the packets seen.
pub const HH_FRACTION: f64 = 0.002;
/// Distinct flows of the CAIDA-like trace.
pub const TRACE_FLOWS: u64 = 200_000;
/// Packets in the trace (replayed `repeat` times per pass).
pub const TRACE_PACKETS: usize = 4_000_000;
/// Packets between two queries of the result.
pub const EPOCH_PACKETS: usize = 250_000;
/// `--smoke` divides trace and epoch length by this.
pub const SMOKE_DIVISOR: usize = 10;
/// Keys per `offer_batch` call (DPDK's customary burst).
pub const BURST: usize = 32;
/// The producer yields while any ring is at least this full: below the
/// supervisor's 0.75 downshift mark, so the closed loop stays closed.
pub const OCCUPANCY_LIMIT: f64 = 0.5;
/// Inter-arrival spacing of the min-size trace: 64 B frames on 10 GbE.
const MINSIZE_GAP_NS: u64 = 67; // 1e9 / 14.88e6
/// Lowest heavy-hitter recall a pass may report.
pub const RECALL_FLOOR: f64 = 0.85;

/// Which path through the system a workload takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `OvsDatapath::run_trace`, measurement inline on the switching core.
    Aio,
    /// `spawn_sharded` with one shard, no durable store.
    Fleet,
    /// One node end to end: durable store, agent, aggregator on loopback.
    Cluster,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Path through the system.
    pub kind: Kind,
    /// Sampling probability.
    pub p: f64,
    /// Replays of the trace per pass.
    pub repeat: usize,
    /// Rewrite every frame to 64 B at 14.88 Mpps pacing.
    pub minsize: bool,
}

/// The workloads of `BENCHMARK.json`, in its order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "aio_minsize_p01",
        kind: Kind::Aio,
        p: 0.01,
        repeat: 2,
        minsize: true,
    },
    Workload {
        name: "aio_caida_p100",
        kind: Kind::Aio,
        p: 1.0,
        repeat: 1,
        minsize: false,
    },
    Workload {
        name: "fleet_saturated_p10",
        kind: Kind::Fleet,
        p: 0.1,
        repeat: 2,
        minsize: false,
    },
    Workload {
        name: "cluster_durable_p01",
        kind: Kind::Cluster,
        p: 0.01,
        repeat: 1,
        minsize: false,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seeds of one pass: the geometric sampler's and the sketch's hashes.
#[derive(Clone, Copy, Debug)]
pub struct PassSeeds {
    /// Seed of the geometric skip sequence.
    pub sampler: u64,
    /// Seed of the sketch's row hashes.
    pub sketch: u64,
}

impl PassSeeds {
    /// Seeds of pass `pass` (0: the warm-up) of a run with input `seed`.
    pub fn of(seed: u64, pass: usize) -> Self {
        Self {
            sampler: seed * 1000 + pass as u64,
            sketch: SKETCH_SEED + pass as u64,
        }
    }
}

/// A blank sketch under test.
pub fn sketch(p: f64, seeds: PassSeeds) -> NitroSketch<CountSketch> {
    NitroSketch::new(
        CountSketch::with_memory(SKETCH_BYTES, SKETCH_DEPTH, seeds.sketch),
        Mode::Fixed { p },
        seeds.sampler,
    )
    .with_topk(TOPK)
}

/// Everything a pass consumes, generated from the seed before timing.
pub struct Inputs {
    /// The trace (AIO workloads only; empty otherwise).
    pub records: Vec<PacketRecord>,
    /// Its flow keys, in order.
    pub keys: Vec<FlowKey>,
    /// True heavy hitters of what one pass offers (`repeat` replays).
    pub true_hh: Vec<(FlowKey, f64)>,
    /// Packets one pass offers.
    pub offered: u64,
    /// Packets between two queries.
    pub epoch_len: usize,
}

/// The first `packets` keys of the CAIDA-like stream for `seed`.
pub fn caida_keys(seed: u64, packets: usize) -> Vec<FlowKey> {
    nitro_traffic::keys_of(CaidaLike::new(seed, TRACE_FLOWS))
        .take(packets)
        .collect()
}

/// Generate a workload's inputs. `divisor` shrinks trace and epoch
/// (`SMOKE_DIVISOR` for `--smoke`, 1 otherwise).
pub fn generate(w: &Workload, seed: u64, divisor: usize, tracer: &mut Tracer) -> Inputs {
    let span = tracer.enter("traffic.generate", 0);
    let packets = TRACE_PACKETS / divisor;
    let (records, keys) = if w.kind == Kind::Aio {
        let mut records = nitro_traffic::take_records(CaidaLike::new(seed, TRACE_FLOWS), packets);
        if w.minsize {
            for (i, r) in records.iter_mut().enumerate() {
                *r = PacketRecord::new(r.tuple, 64, i as u64 * MINSIZE_GAP_NS);
            }
        }
        let keys = records.iter().map(|r| r.tuple.flow_key()).collect();
        (records, keys)
    } else {
        (Vec::new(), caida_keys(seed, packets))
    };
    let truth = GroundTruth::from_keys(keys.iter().copied());
    let true_hh = truth
        .heavy_hitters(HH_FRACTION)
        .into_iter()
        .map(|(k, c)| (k, c * w.repeat as f64))
        .collect();
    tracer.exit_with(span, packets as u64);
    Inputs {
        records,
        keys,
        true_hh,
        offered: (packets * w.repeat) as u64,
        epoch_len: EPOCH_PACKETS / divisor,
    }
}

/// Counters read where the work happens, summed over passes; the in-situ
/// per-layer metrics are ratios of these.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// `CostReport` nanoseconds attributed to the measurement hook.
    pub ovs_measure_ns: f64,
    /// `CostReport` nanoseconds over all stages.
    pub ovs_total_ns: f64,
    /// EMC hits.
    pub emc_hits: u64,
    /// EMC hits + misses.
    pub emc_lookups: u64,
    /// Sum of the shard worker's per-batch busy time.
    pub worker_busy_ns: u64,
    /// Observations the worker applied.
    pub worker_processed: u64,
    /// Checkpoints the worker took.
    pub checkpoints: u64,
    /// Sampling downshifts (closed loop: must stay 0).
    pub downshifts: u64,
    /// Highest ring fill fraction the producer saw.
    pub ring_occupancy_max: f64,
    /// Producer time spent yielding for ring space (traced runs only).
    pub wait_ns: u64,
    /// Wall time of the passes `wait_ns` was measured over.
    pub wait_pass_ns: u64,
    /// Bytes the durable store acknowledged.
    pub store_bytes: u64,
    /// Packets behind `store_bytes`.
    pub store_packets: u64,
    /// `NodeAgent::seal_epoch` durations.
    pub agent_seal_ms: Vec<f64>,
    /// Waits for the aggregator to report an epoch `Complete`.
    pub complete_wait_ms: Vec<f64>,
}

impl LayerCounts {
    /// Fold another pass's counts into this one.
    pub fn absorb(&mut self, o: &LayerCounts) {
        self.ovs_measure_ns += o.ovs_measure_ns;
        self.ovs_total_ns += o.ovs_total_ns;
        self.emc_hits += o.emc_hits;
        self.emc_lookups += o.emc_lookups;
        self.worker_busy_ns += o.worker_busy_ns;
        self.worker_processed += o.worker_processed;
        self.checkpoints += o.checkpoints;
        self.downshifts += o.downshifts;
        self.ring_occupancy_max = self.ring_occupancy_max.max(o.ring_occupancy_max);
        self.wait_ns += o.wait_ns;
        self.wait_pass_ns += o.wait_pass_ns;
        self.store_bytes += o.store_bytes;
        self.store_packets += o.store_packets;
        self.agent_seal_ms.extend_from_slice(&o.agent_seal_ms);
        self.complete_wait_ms.extend_from_slice(&o.complete_wait_ms);
    }
}

/// What one pass did and found.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Packets offered.
    pub offered: u64,
    /// Packets applied to the sketch (`FleetHealth` / `SwitchStats`).
    pub processed: u64,
    /// Packets dropped at a full ring or by the switch.
    pub dropped: u64,
    /// Packets lost in a worker crash.
    pub lost: u64,
    /// `NitroStats::packets` of the final queryable result.
    pub sketch_packets: u64,
    /// Timed duration: `run_trace` reports plus exports (AIO; preloading
    /// frames is the harness's own work and outside it), first offer →
    /// `finish()` returned (fleet, cluster). Seal stalls count everywhere.
    pub wall_s: f64,
    /// From entering the pass (spawning its threads, opening its files) to
    /// its result being ready — everything but tearing it down.
    pub ready_s: f64,
    /// Query latencies, one per epoch.
    pub seal_ms: Vec<f64>,
    /// Timed duration of each epoch, seal included: its `run_trace` report
    /// plus export (AIO); first offer → seal returned (fleet, cluster).
    pub epoch_ms: Vec<f64>,
    /// Heavy-hitter recall of the final result.
    pub recall: f64,
    /// Mean relative error of `estimate()` over the true heavy hitters.
    pub are: f64,
    /// Output checks that failed (empty: the pass is correct).
    pub failures: Vec<String>,
    /// In-situ layer counters.
    pub layers: LayerCounts,
}

impl Pass {
    /// Throughput of the pass in Mpps: packets whose effect is in the final
    /// result over the timed duration.
    pub fn mpps(&self) -> f64 {
        self.sketch_packets as f64 / self.wall_s / 1e6
    }

    /// Score the final result against the ground truth and run the checks
    /// every workload shares.
    fn judge(
        &mut self,
        inputs: &Inputs,
        reported: &[(FlowKey, f64)],
        estimate: impl Fn(FlowKey) -> f64,
    ) {
        let truth_keys: Vec<FlowKey> = inputs.true_hh.iter().map(|&(k, _)| k).collect();
        let reported_keys: Vec<FlowKey> = reported.iter().map(|&(k, _)| k).collect();
        self.recall = recall(&reported_keys, &truth_keys);
        self.are = mean_relative_error(inputs.true_hh.iter().map(|&(k, c)| (estimate(k), c)));

        if self.offered != self.processed + self.dropped + self.lost {
            self.failures.push(format!(
                "accounting: offered {} != processed {} + dropped {} + lost {}",
                self.offered, self.processed, self.dropped, self.lost
            ));
        }
        if self.dropped != 0 || self.lost != 0 {
            self.failures.push(format!(
                "closed loop leaked: dropped {} lost {}",
                self.dropped, self.lost
            ));
        }
        if self.layers.downshifts != 0 {
            self.failures
                .push(format!("{} sampling downshifts", self.layers.downshifts));
        }
        if self.sketch_packets != self.offered {
            self.failures.push(format!(
                "NitroStats::packets {} != packets fed {}",
                self.sketch_packets, self.offered
            ));
        }
        if inputs.true_hh.is_empty() {
            self.failures.push("no true heavy hitters".to_string());
        }
        if self.recall < RECALL_FLOOR {
            self.failures
                .push(format!("hh_recall {:.3} < {RECALL_FLOOR}", self.recall));
        }
    }
}

/// All-in-one pass: the trace through `OvsDatapath::run_trace` one epoch at
/// a time; between epochs the inline sketch is exported the way a control
/// plane would take it — serialised, and its heavy hitters listed.
pub fn aio_pass(w: &Workload, inputs: &Inputs, seeds: PassSeeds, tracer: &mut Tracer) -> Pass {
    let entered = Instant::now();
    let mut pass = Pass::default();
    let mut dp = OvsDatapath::new(sketch(w.p, seeds));
    let mut wall_ns = 0u64;
    let mut epoch = 0u64;
    let mut fed = 0u64;
    let root = tracer.enter("pass", 0);
    let mut last_hh = Vec::new();
    for _ in 0..w.repeat {
        for chunk in inputs.records.chunks(inputs.epoch_len) {
            epoch += 1;
            let span = tracer.enter("ovs.run_trace", epoch);
            let report = dp.run_trace(chunk);
            tracer.exit_with(span, report.packets);
            fed += report.packets;

            let t = Instant::now();
            let span = tracer.enter("core.snapshot", epoch);
            let exported = dp.measurement().snapshot();
            tracer.exit_with(span, exported.len() as u64);
            let span = tracer.enter("view.heavy_hitters", epoch);
            last_hh = dp.measurement().heavy_hitters(HH_FRACTION * fed as f64);
            tracer.exit_with(span, last_hh.len() as u64);
            let seal_ns = t.elapsed().as_nanos() as u64;
            pass.seal_ms.push(seal_ns as f64 / 1e6);
            pass.epoch_ms.push((report.wall_ns + seal_ns) as f64 / 1e6);
            wall_ns += report.wall_ns + seal_ns;
        }
    }
    tracer.exit(root);

    let stats = dp.stats();
    pass.offered = fed;
    pass.dropped = stats.dropped;
    pass.lost = stats.rx - stats.tx - stats.dropped;
    pass.sketch_packets = dp.measurement().stats().packets;
    pass.processed = pass.sketch_packets;
    pass.wall_s = wall_ns as f64 / 1e9;
    pass.layers.ovs_measure_ns = dp.cost().ns(Stage::SketchHash);
    pass.layers.ovs_total_ns = dp.cost().total_ns();
    pass.layers.emc_hits = stats.emc_hits;
    pass.layers.emc_lookups = stats.emc_hits + stats.emc_misses;
    pass.layers.downshifts = dp.measurement().stats().downshifts;
    if stats.rx != inputs.offered {
        pass.failures.push(format!(
            "switch rx {} != offered {}",
            stats.rx, inputs.offered
        ));
    }
    let m = dp.measurement();
    pass.judge(inputs, &last_hh, |k| m.estimate(k));
    pass.ready_s = entered.elapsed().as_secs_f64();
    pass
}

/// The durable half of the cluster workload: store, agent and aggregator
/// under one directory, alive for one pass.
struct Cluster {
    agg: Aggregator<CountSketch>,
    agent: NodeAgent,
    store: std::sync::Arc<CheckpointStore>,
}

impl Cluster {
    fn open(dir: &Path, p: f64, seeds: PassSeeds) -> Result<Self, String> {
        let blank = sketch(p, seeds);
        let fingerprint = blank.inner().fingerprint();
        let agg = Aggregator::spawn(
            blank,
            "127.0.0.1:0",
            AggregatorConfig {
                log_dir: Some(dir.join("aggregator")),
                ..Default::default()
            },
        )
        .map_err(|e| format!("aggregator: {e}"))?;
        let mut agent = NodeAgent::open(dir.join("agent"), NodeAgentConfig::new(0, fingerprint))
            .map_err(|e| format!("agent: {e}"))?;
        agent
            .connect(agg.local_addr())
            .map_err(|e| format!("agent connect: {e}"))?;
        let store = CheckpointStore::create(dir.join("store"), 1, StoreConfig::default())
            .map_err(|e| format!("store: {e}"))?;
        Ok(Self { agg, agent, store })
    }
}

/// How long a seal may wait for the aggregator before the pass fails.
const COMPLETE_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll cadence while waiting for `Complete`: sleeping leaves the core to
/// the aggregator's reader thread.
const COMPLETE_POLL: Duration = Duration::from_micros(100);

/// Separate-thread pass: keys offered in bursts to a one-shard pipeline,
/// closed loop; an epoch view (and, with `dir`, a cluster seal) per epoch.
pub fn fleet_pass(
    w: &Workload,
    inputs: &Inputs,
    seeds: PassSeeds,
    dir: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let entered = Instant::now();
    let mut pass = Pass::default();
    let mut cluster = match dir {
        Some(d) => Some(Cluster::open(d, w.p, seeds)?),
        None => None,
    };
    let p = w.p;
    let (mut tap, mut pipe) = spawn_sharded(
        move |_| sketch(p, seeds),
        PipelineConfig {
            shards: 1,
            store: cluster.as_ref().map(|c| c.store.clone()),
            ..Default::default()
        },
    )
    .map_err(|e| format!("spawn_sharded: {e}"))?;
    let telemetry = pipe.shards()[0].telemetry().clone();

    let mut epoch = 0u64;
    let mut offered = 0u64;
    let epochs_total = (w.repeat * inputs.keys.len().div_ceil(inputs.epoch_len)) as u64;
    let mut node_view = None;
    let started = Instant::now();
    let root = tracer.enter("pass", 0);
    for _ in 0..w.repeat {
        for chunk in inputs.keys.chunks(inputs.epoch_len) {
            epoch += 1;
            let epoch_started = Instant::now();
            let span = tracer.enter("producer.offer", epoch);
            let (mut wait_ns, mut episodes, mut first_wait) = (0u64, 0u64, 0u64);
            for burst in chunk.chunks(BURST) {
                let mut occupancy = tap.max_occupancy();
                pass.layers.ring_occupancy_max = pass.layers.ring_occupancy_max.max(occupancy);
                if occupancy >= OCCUPANCY_LIMIT {
                    let w0 = tracer.clock_ns();
                    while occupancy >= OCCUPANCY_LIMIT {
                        std::thread::yield_now();
                        occupancy = tap.max_occupancy();
                    }
                    if episodes == 0 {
                        first_wait = w0;
                    }
                    episodes += 1;
                    wait_ns += tracer.clock_ns() - w0;
                }
                tap.offer_batch(burst, offered * 100);
                offered += burst.len() as u64;
            }
            tracer.coalesced(
                "producer.backpressure_wait",
                epoch,
                first_wait,
                wait_ns,
                episodes,
            );
            pass.layers.wait_ns += wait_ns;
            tracer.exit_with(span, chunk.len() as u64);

            if epoch == epochs_total {
                // The last view is the pass's queryable result: let the
                // worker catch up so it covers every packet offered.
                let span = tracer.enter("producer.drain", epoch);
                while pipe.processed() < offered {
                    std::thread::yield_now();
                }
                tracer.exit(span);
            }

            let sealed = Instant::now();
            let span = tracer.enter("pipeline.epoch_view", epoch);
            let view = pipe.epoch_view().map_err(|e| format!("epoch_view: {e}"))?;
            tracer.exit(span);
            let threshold = HH_FRACTION * offered as f64;
            match &mut cluster {
                None => {
                    let span = tracer.enter("view.heavy_hitters", epoch);
                    let hh = view.heavy_hitters(threshold);
                    tracer.exit_with(span, hh.len() as u64);
                }
                Some(c) => {
                    let span = tracer.enter("agent.seal_epoch", epoch);
                    let t = Instant::now();
                    let outcome = c
                        .agent
                        .seal_epoch(epoch, &view, threshold)
                        .map_err(|e| format!("seal_epoch {epoch}: {e}"))?;
                    pass.layers
                        .agent_seal_ms
                        .push(t.elapsed().as_secs_f64() * 1e3);
                    tracer.exit(span);
                    if !outcome.delivered {
                        pass.failures
                            .push(format!("epoch {epoch} sealed but not delivered"));
                    }
                    let span = tracer.enter("aggregator.wait_complete", epoch);
                    let t = Instant::now();
                    while !c.agg.epoch_status(epoch).is_complete() {
                        if t.elapsed() > COMPLETE_TIMEOUT {
                            return Err(format!(
                                "epoch {epoch} still {:?} after {COMPLETE_TIMEOUT:?}",
                                c.agg.epoch_status(epoch)
                            ));
                        }
                        std::thread::sleep(COMPLETE_POLL);
                    }
                    pass.layers
                        .complete_wait_ms
                        .push(t.elapsed().as_secs_f64() * 1e3);
                    tracer.exit(span);
                }
            }
            pass.seal_ms.push(sealed.elapsed().as_secs_f64() * 1e3);
            pass.epoch_ms
                .push(epoch_started.elapsed().as_secs_f64() * 1e3);
            if epoch == epochs_total {
                node_view = Some(view);
            }
        }
    }
    let node_view = node_view.expect("a pass has at least one epoch");

    // The network-wide view of the last epoch is the cluster's result; it
    // must agree with the node's own final merged sketch.
    let cluster_result = match &cluster {
        None => None,
        Some(c) => {
            let span = tracer.enter("aggregator.view", epoch);
            let cv = c.agg.view(epoch);
            tracer.exit(span);
            let cv = cv.ok_or_else(|| format!("aggregator has no view of epoch {epoch}"))?;
            if !cv.status().is_complete() {
                pass.failures
                    .push(format!("last epoch is {:?}", cv.status()));
            }
            Some(cv)
        }
    };

    let span = tracer.enter("pipeline.finish", 0);
    let (final_sketch, fleet): (NitroSketch<CountSketch>, FleetHealth) =
        pipe.finish().map_err(|e| format!("finish: {e}"))?;
    tracer.exit(span);
    tracer.exit(root);
    pass.wall_s = started.elapsed().as_secs_f64();

    let total = fleet.total();
    pass.offered = total.offered;
    pass.processed = total.processed;
    pass.dropped = total.dropped;
    pass.lost = total.lost_in_crash;
    pass.layers.downshifts = total.downshifts;
    pass.layers.checkpoints = total.checkpoints;
    pass.layers.worker_processed = total.processed;
    pass.layers.worker_busy_ns = telemetry.batch_ns.sum();
    pass.layers.wait_pass_ns = if tracer.enabled() {
        (pass.wall_s * 1e9) as u64
    } else {
        0
    };
    if fleet.unaccounted() != 0 {
        pass.failures
            .push(format!("{} observations unaccounted", fleet.unaccounted()));
    }
    if tap.dropped() != 0 {
        pass.failures.push(format!("tap dropped {}", tap.dropped()));
    }
    if total.offered != inputs.offered {
        pass.failures.push(format!(
            "fleet saw {} offers, harness made {}",
            total.offered, inputs.offered
        ));
    }

    match cluster_result {
        None => {
            pass.sketch_packets = final_sketch.stats().packets;
            let hh = final_sketch.heavy_hitters(HH_FRACTION * pass.offered as f64);
            pass.judge(inputs, &hh, |k| final_sketch.estimate(k));
        }
        Some(cv) => {
            pass.sketch_packets = cv.sketch().stats().packets;
            let disagree = inputs
                .true_hh
                .iter()
                .filter(|&&(k, _)| cv.estimate(k) != node_view.estimate(k))
                .count();
            if disagree != 0 {
                pass.failures.push(format!(
                    "aggregator and node disagree on {disagree} of {} heavy hitters",
                    inputs.true_hh.len()
                ));
            }
            if final_sketch.stats().packets != pass.offered {
                pass.failures.push(format!(
                    "node's final sketch holds {} packets of {}",
                    final_sketch.stats().packets,
                    pass.offered
                ));
            }
            let hh = cv.heavy_hitters(HH_FRACTION * pass.offered as f64);
            pass.judge(inputs, &hh, |k| cv.estimate(k));
        }
    }

    pass.ready_s = entered.elapsed().as_secs_f64();
    // Teardown is outside every clock: `Aggregator::shutdown` joins a
    // monitor thread that sleeps in 500 ms ticks.
    if let Some(c) = cluster {
        pass.layers.store_bytes = telemetry.bytes_persisted.get();
        pass.layers.store_packets = pass.offered;
        if c.store.persisted() == 0 {
            pass.failures
                .push("durable store persisted nothing".to_string());
        }
        c.agent.close();
        c.agg.shutdown();
    }
    Ok(pass)
}

/// Run one pass of `w`. Durable state goes under `state_dir` and is removed
/// before returning.
pub fn run_pass(
    w: &Workload,
    inputs: &Inputs,
    seeds: PassSeeds,
    state_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    match w.kind {
        Kind::Aio => Ok(aio_pass(w, inputs, seeds, tracer)),
        Kind::Fleet => fleet_pass(w, inputs, seeds, None, tracer),
        Kind::Cluster => {
            let dir = state_dir.join(format!("pass-{}", seeds.sampler));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let result = fleet_pass(w, inputs, seeds, Some(&dir), tracer);
            let _ = std::fs::remove_dir_all(&dir);
            result
        }
    }
}
