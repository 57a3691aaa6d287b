//! Isolated per-layer timings: each probe calls one layer's public function
//! in a loop, over the same sketch geometry and CAIDA-like keys the
//! workloads use, and reports the median of [`REPS`] repetitions.
//!
//! Layers are the repository's modules; a metric is named
//! `<crate>.<module>.<what>`. The in-situ counters (supervisor, store,
//! cluster waits, …) are read during workload passes instead — see
//! `workloads::LayerCounts`.

use crate::stats::{quartile_sorted, sorted};
use crate::workloads::{
    caida_keys, generate, sketch, workload, PassSeeds, BURST, HH_FRACTION, SKETCH_BYTES,
    SKETCH_DEPTH, SKETCH_SEED, SMOKE_DIVISOR, TOPK, TRACE_FLOWS, TRACE_PACKETS,
};
use nitro_core::univ::nitro_univmon;
use nitro_core::{Mode, NitroSketch};
use nitro_hash::batch::xxh64_u64_batch;
use nitro_hash::xxhash::xxh64_u64;
use nitro_hash::GeometricSampler;
use nitro_metrics::ScrapeSnapshot;
use nitro_sketches::{
    Checkpoint, CountMin, CountSketch, FlowKey, KarySketch, RowSketch, TopK, UnivMon,
};
use nitro_switch::cluster::wire::{decode_epoch_payload, encode_epoch_payload};
use nitro_switch::cluster::Message;
use nitro_switch::ovs::Measurement;
use nitro_switch::store::CheckpointSink;
use nitro_switch::{
    spawn_sharded, Aggregator, AggregatorConfig, CheckpointStore, EpochReport, MergedView,
    NodeAgent, NodeAgentConfig, NullMeasurement, OvsDatapath, PipelineConfig, SpscRing,
    StoreConfig, SupervisorConfig,
};
use nitro_traffic::CaidaLike;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Repetitions per probe; the median is reported.
pub const REPS: usize = 5;
/// Time `trace layers` gives each probe (all repetitions together).
pub const FULL_BUDGET: Duration = Duration::from_secs(1);
/// Keys per timed window: long enough to touch a realistic spread of
/// counters, short enough that a window fits any budget.
const WINDOW: usize = 1 << 15;
/// Seeds of the probes' sketches (`n` tells instances of one probe apart).
fn probe_seeds(n: u64) -> PassSeeds {
    PassSeeds {
        sampler: 7 + n,
        sketch: SKETCH_SEED,
    }
}
/// UnivMon levels and heap size of the probes (the paper's §7 setting).
const UNIV_LEVELS: usize = 14;
const UNIV_K: usize = 1000;

/// Median over [`REPS`] repetitions of the cost per operation, in
/// nanoseconds. A repetition calls `body` (which returns how many
/// operations it did) until its share of `budget` is spent — at least once.
fn ns_per_op(budget: Duration, mut body: impl FnMut() -> u64) -> f64 {
    let share = budget / REPS as u32;
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            let mut ops = 0u64;
            loop {
                ops += body();
                if started.elapsed() >= share {
                    break;
                }
            }
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    quartile_sorted(&sorted(&reps), 2)
}

/// The probe's slice of the key stream: window `i`, wrapping.
fn window<'a>(keys: &'a [FlowKey], i: &mut usize) -> &'a [FlowKey] {
    let windows = keys.len() / WINDOW;
    let at = (*i % windows) * WINDOW;
    *i += 1;
    &keys[at..at + WINDOW]
}

fn hash_layer(keys: &[FlowKey], budget: Duration, out: &mut Metrics) {
    let mut i = 0;
    out.insert(
        "hash.xxh64_u64_ns".into(),
        ns_per_op(budget, || {
            let w = window(keys, &mut i);
            let mut acc = 0u64;
            for &k in w {
                acc ^= xxh64_u64(k, SKETCH_SEED);
            }
            black_box(acc);
            w.len() as u64
        }),
    );
    let mut hashes = Vec::with_capacity(BURST);
    out.insert(
        "hash.xxh64_batch_ns_per_key".into(),
        ns_per_op(budget, || {
            let w = window(keys, &mut i);
            for burst in w.chunks(BURST) {
                hashes.clear();
                xxh64_u64_batch(burst, SKETCH_SEED, &mut hashes);
                black_box(&hashes);
            }
            w.len() as u64
        }),
    );
    let mut sampler = GeometricSampler::new(0.01, SKETCH_SEED);
    out.insert(
        "hash.geometric_draw_ns".into(),
        ns_per_op(budget, || {
            let mut acc = 0u64;
            for _ in 0..WINDOW {
                acc = acc.wrapping_add(sampler.next_skip());
            }
            black_box(acc);
            WINDOW as u64
        }),
    );
}

fn update_row_ns<S: RowSketch>(mut s: S, keys: &[FlowKey], budget: Duration) -> f64 {
    let mut i = 0;
    ns_per_op(budget, || {
        let w = window(keys, &mut i);
        for (n, &k) in w.iter().enumerate() {
            s.update_row(n % SKETCH_DEPTH, k, 1.0);
        }
        w.len() as u64
    })
}

fn sketches_layer(keys: &[FlowKey], budget: Duration, out: &mut Metrics) {
    let cs = || CountSketch::with_memory(SKETCH_BYTES, SKETCH_DEPTH, SKETCH_SEED);
    out.insert(
        "sketches.cs.update_row_ns".into(),
        update_row_ns(cs(), keys, budget),
    );
    out.insert(
        "sketches.cm.update_row_ns".into(),
        update_row_ns(
            CountMin::with_memory(SKETCH_BYTES, SKETCH_DEPTH, SKETCH_SEED),
            keys,
            budget,
        ),
    );
    out.insert(
        "sketches.kary.update_row_ns".into(),
        update_row_ns(
            KarySketch::with_memory(SKETCH_BYTES, SKETCH_DEPTH, SKETCH_SEED),
            keys,
            budget,
        ),
    );

    let mut i = 0;
    let mut batched = cs();
    out.insert(
        "sketches.cs.update_row_batch_ns_per_key".into(),
        ns_per_op(budget, || {
            let w = window(keys, &mut i);
            for (n, burst) in w.chunks(BURST).enumerate() {
                batched.update_row_batch(n % SKETCH_DEPTH, burst, 1.0);
            }
            w.len() as u64
        }),
    );

    let mut filled = cs();
    for &k in keys {
        for r in 0..SKETCH_DEPTH {
            filled.update_row(r, k, 1.0);
        }
    }
    out.insert(
        "sketches.cs.estimate_robust_ns".into(),
        ns_per_op(budget, || {
            let w = window(keys, &mut i);
            let mut acc = 0.0;
            for &k in w {
                acc += filled.estimate_robust(k);
            }
            black_box(acc);
            w.len() as u64
        }),
    );

    // Offers carry the estimates the sketch would hand the heap, computed
    // outside the timed loop.
    let offers: Vec<(FlowKey, f64)> = keys
        .iter()
        .map(|&k| (k, filled.estimate_robust(k)))
        .collect();
    let mut topk = TopK::new(TOPK);
    let mut at = 0;
    out.insert(
        "sketches.topk.offer_ns".into(),
        ns_per_op(budget, || {
            for _ in 0..WINDOW {
                let (k, e) = offers[at % offers.len()];
                topk.offer(k, e);
                at += 1;
            }
            WINDOW as u64
        }),
    );

    let mut univ = UnivMon::paper_config(UNIV_LEVELS, UNIV_K, SKETCH_SEED, 1.0);
    out.insert(
        "sketches.univmon.update_ns".into(),
        ns_per_op(budget, || {
            let w = window(keys, &mut i);
            for &k in w {
                univ.update(k, 1.0);
            }
            w.len() as u64
        }),
    );
}

/// `process` per key (`scalar`) or `process_batch` per 32-key burst
/// (`batch`), through the `Measurement` trait both paths share.
fn measurement_ns(
    m: &mut impl Measurement,
    batch: bool,
    keys: &[FlowKey],
    budget: Duration,
) -> f64 {
    let mut i = 0;
    let mut ts = 0u64;
    ns_per_op(budget, || {
        let w = window(keys, &mut i);
        if batch {
            for burst in w.chunks(BURST) {
                ts += 3200;
                m.on_batch(burst, ts, 1.0);
            }
        } else {
            for &k in w {
                ts += 100;
                m.on_packet(k, ts, 1.0);
            }
        }
        w.len() as u64
    })
}

const PROBABILITIES: [(&str, f64); 3] = [("p100", 1.0), ("p10", 0.1), ("p01", 0.01)];
const PATHS: [(&str, bool); 2] = [("scalar", false), ("batch", true)];

fn core_matrix_row<S: RowSketch>(
    name: &str,
    blank: impl Fn() -> S,
    keys: &[FlowKey],
    budget: Duration,
    out: &mut Metrics,
) {
    for (p_name, p) in PROBABILITIES {
        for (path, batch) in PATHS {
            let mut m = NitroSketch::new(blank(), Mode::Fixed { p }, 7).with_topk(TOPK);
            out.insert(
                format!("core.{name}.{path}.{p_name}.ns_per_pkt"),
                measurement_ns(&mut m, batch, keys, budget),
            );
        }
    }
}

fn core_layer(keys: &[FlowKey], budget: Duration, out: &mut Metrics) {
    core_matrix_row(
        "cm",
        || CountMin::with_memory(SKETCH_BYTES, SKETCH_DEPTH, SKETCH_SEED),
        keys,
        budget,
        out,
    );
    core_matrix_row(
        "cs",
        || CountSketch::with_memory(SKETCH_BYTES, SKETCH_DEPTH, SKETCH_SEED),
        keys,
        budget,
        out,
    );
    core_matrix_row(
        "kary",
        || KarySketch::with_memory(SKETCH_BYTES, SKETCH_DEPTH, SKETCH_SEED),
        keys,
        budget,
        out,
    );
    for (p_name, p) in PROBABILITIES {
        for (path, batch) in PATHS {
            let mut m = nitro_univmon(UNIV_LEVELS, UNIV_K, Mode::Fixed { p }, SKETCH_SEED, 1.0);
            out.insert(
                format!("core.univmon.{path}.{p_name}.ns_per_pkt"),
                measurement_ns(&mut m, batch, keys, budget),
            );
        }
    }

    let mut bare = NitroSketch::new(
        CountSketch::with_memory(SKETCH_BYTES, SKETCH_DEPTH, SKETCH_SEED),
        Mode::Fixed { p: 0.01 },
        7,
    );
    out.insert(
        "core.cs.batch.p01.notopk.ns_per_pkt".into(),
        measurement_ns(&mut bare, true, keys, budget),
    );

    // Exact operation counts over the whole key slice (they repeat for a
    // seed, so they compare two versions of the program without noise).
    let mut sampled = sketch(0.01, probe_seeds(0));
    let mut full = sketch(1.0, probe_seeds(0));
    for burst in keys.chunks(BURST) {
        sampled.process_batch(burst, 1.0);
        full.process_batch(burst, 1.0);
    }
    let (s, f) = (sampled.stats(), full.stats());
    out.insert(
        "core.cs.p01.row_updates_per_pkt".into(),
        s.row_updates as f64 / s.packets as f64,
    );
    out.insert(
        "core.cs.p01.sampled_frac".into(),
        s.sampled_packets as f64 / s.packets as f64,
    );
    out.insert(
        "core.cs.p100.heap_updates_per_pkt".into(),
        f.heap_updates as f64 / f.packets as f64,
    );

    // Control-plane operations on a populated sketch (each call is one op).
    let mut live = sketch(0.1, probe_seeds(0));
    for burst in keys.chunks(BURST) {
        live.process_batch(burst, 1.0);
    }
    let snapshot = live.snapshot();
    let threshold = HH_FRACTION * keys.len() as f64;
    let us = |ns: f64| ns / 1e3;
    out.insert(
        "core.snapshot_us".into(),
        us(ns_per_op(budget, || {
            black_box(live.snapshot());
            1
        })),
    );
    let mut target = sketch(0.1, probe_seeds(1));
    out.insert(
        "core.restore_us".into(),
        us(ns_per_op(budget, || {
            target.restore(&snapshot).expect("own snapshot restores");
            1
        })),
    );
    let mut merged = sketch(0.1, probe_seeds(2));
    out.insert(
        "core.merge_us".into(),
        us(ns_per_op(budget, || {
            merged.try_merge_from(&live).expect("same geometry merges");
            1
        })),
    );
    out.insert(
        "core.heavy_hitters_us".into(),
        us(ns_per_op(budget, || {
            black_box(live.heavy_hitters(threshold));
            1
        })),
    );
    out.insert("core.memory_bytes".into(), live.memory_bytes() as f64);
}

fn ovs_layer(seed: u64, budget: Duration, out: &mut Metrics) {
    let mut quiet = crate::spans::Tracer::new(false);
    for (suffix, name) in [("minsize", "aio_minsize_p01"), ("caida", "aio_caida_p100")] {
        let w = workload(name).expect("named in WORKLOADS");
        let inputs = generate(w, seed, SMOKE_DIVISOR, &mut quiet);
        let mut dp = OvsDatapath::new(NullMeasurement);
        // `run_trace` times the datapath only (frames are preloaded before
        // its clock starts), so the probe sums its reports.
        let (mut wall_ns, mut packets) = (0u64, 0u64);
        let started = Instant::now();
        for rep in 0.. {
            let report = dp.run_trace(&inputs.records);
            if rep > 0 {
                wall_ns += report.wall_ns;
                packets += report.packets;
            }
            if rep > 0 && started.elapsed() >= budget {
                break;
            }
        }
        out.insert(
            format!("switch.ovs.bare_ns_per_pkt.{suffix}"),
            wall_ns as f64 / packets as f64,
        );
    }
}

/// Keys one dispatch probe offers: the rings are sized to hold them all,
/// so the probe times the producer side alone.
const DISPATCH_KEYS: usize = 1 << 16;

fn pipeline_layer(keys: &[FlowKey], budget: Duration, out: &mut Metrics) -> Result<(), String> {
    for shards in [1usize, 2] {
        let (mut tap, mut pipe) = spawn_sharded(
            |_| sketch(0.1, probe_seeds(0)),
            PipelineConfig {
                shards,
                supervisor: SupervisorConfig {
                    ring_capacity: DISPATCH_KEYS * 4,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .map_err(|e| format!("spawn_sharded({shards}): {e}"))?;
        let mut offered = 0u64;
        let mut at = 0;
        let mut spent = Duration::ZERO;
        let mut reps = Vec::with_capacity(REPS);
        // Each repetition offers one ring-load, then lets the workers drain
        // it off the clock.
        while reps.len() < REPS || spent < budget {
            let slice = &keys[at..at + DISPATCH_KEYS];
            at = (at + DISPATCH_KEYS) % (keys.len() - DISPATCH_KEYS);
            let t = Instant::now();
            for burst in slice.chunks(BURST) {
                tap.offer_batch(burst, offered);
            }
            let took = t.elapsed();
            spent += took;
            reps.push(took.as_nanos() as f64 / DISPATCH_KEYS as f64);
            offered += DISPATCH_KEYS as u64;
            while pipe.processed() < offered {
                std::thread::yield_now();
            }
            if reps.len() >= 64 {
                break;
            }
        }
        out.insert(
            format!("switch.pipeline.dispatch_ns_per_pkt.s{shards}"),
            quartile_sorted(&sorted(&reps), 2),
        );
        let mut failed = None;
        let view_ns = ns_per_op(budget, || {
            if let Err(e) = pipe.epoch_view() {
                failed = Some(format!("epoch_view({shards}): {e}"));
            }
            1
        });
        if let Some(e) = failed {
            return Err(e);
        }
        out.insert(
            format!("switch.pipeline.epoch_view_ms.s{shards}"),
            view_ns / 1e6,
        );

        if shards == 2 {
            // A registry with two live shards behind it is what a scraper
            // of this fleet would render and parse.
            let registry = pipe.telemetry().clone();
            out.insert(
                "metrics.telemetry.render_prometheus_us".into(),
                ns_per_op(budget, || {
                    black_box(registry.render_prometheus());
                    1
                }) / 1e3,
            );
            out.insert(
                "metrics.telemetry.render_json_us".into(),
                ns_per_op(budget, || {
                    black_box(registry.render_json());
                    1
                }) / 1e3,
            );
            let doc = registry.render_json();
            ScrapeSnapshot::parse(&doc).map_err(|e| format!("scrape parse: {e}"))?;
            out.insert(
                "metrics.scrape.parse_us".into(),
                ns_per_op(budget, || {
                    black_box(ScrapeSnapshot::parse(&doc).is_ok());
                    1
                }) / 1e3,
            );
        }
        let (_, fleet) = pipe
            .finish()
            .map_err(|e| format!("finish({shards}): {e}"))?;
        if !fleet.is_clean() {
            return Err(format!(
                "dispatch probe ({shards} shards) lost observations"
            ));
        }
    }
    Ok(())
}

/// Items the cross-thread ring probe moves per repetition.
const XTHREAD_ITEMS: u64 = 1 << 20;

fn spsc_layer(budget: Duration, out: &mut Metrics) {
    let ring: SpscRing<u64> = SpscRing::new(1024);
    let mut buf = [0u64; 64];
    out.insert(
        "switch.spsc.push_pop_ns".into(),
        ns_per_op(budget, || {
            let mut moved = 0u64;
            for round in 0..64u64 {
                for j in 0..64 {
                    ring.push(round * 64 + j);
                }
                moved += ring.pop_batch(&mut buf) as u64;
                black_box(&buf);
            }
            moved
        }),
    );

    let ring: SpscRing<u64> = SpscRing::new(1 << 14);
    let xthread = ns_per_op(budget, || {
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut buf = [0u64; 64];
                let mut seen = 0u64;
                while seen < XTHREAD_ITEMS {
                    let n = ring.pop_batch(&mut buf);
                    if n == 0 {
                        std::thread::yield_now();
                    }
                    seen += n as u64;
                }
            });
            for item in 0..XTHREAD_ITEMS {
                while !ring.push(item) {
                    std::thread::yield_now();
                }
            }
            consumer.join().expect("consumer thread");
        });
        XTHREAD_ITEMS
    });
    out.insert("switch.spsc.xthread_ns_per_item".into(), xthread);
}

fn store_layer(
    dir: &Path,
    snapshot: &[u8],
    budget: Duration,
    out: &mut Metrics,
) -> Result<(), String> {
    let dir = dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig::default();
    let store =
        CheckpointStore::create(&dir, 1, cfg.clone()).map_err(|e| format!("probe store: {e}"))?;
    let writer = store.writer(0);
    let mut seq = 0u64;
    let mut failed = None;
    let persist_ns = ns_per_op(budget, || {
        seq += 1;
        if let Err(e) = writer.persist(seq, seq * 10_000, snapshot) {
            failed = Some(format!("persist: {e}"));
        }
        1
    });
    if let Some(e) = failed {
        return Err(e);
    }
    out.insert("switch.store.persist_us".into(), persist_ns / 1e3);
    drop(writer);
    drop(store);
    let recover_ns = ns_per_op(budget, || {
        if let Err(e) = CheckpointStore::recover(&dir, cfg.clone()) {
            failed = Some(format!("recover: {e}"));
        }
        1
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = failed {
        return Err(e);
    }
    out.insert("switch.store.recover_ms".into(), recover_ns / 1e6);
    Ok(())
}

fn cluster_layer(
    dir: &Path,
    live: &NitroSketch<CountSketch>,
    packets: u64,
    budget: Duration,
    out: &mut Metrics,
) -> Result<(), String> {
    let snapshot = live.snapshot();
    let report = EpochReport {
        switch_id: 0,
        epoch: 1,
        packets,
        heavy_hitters: live.heavy_hitters(HH_FRACTION * packets as f64),
        entropy_bits: f64::NAN,
        distinct: f64::NAN,
        l2: live.inner().l2_squared_estimate().max(0.0).sqrt(),
        memory_bytes: live.memory_bytes() as u64,
    };
    // The message body is the epoch payload; the node's durable frame adds
    // a fixed store header in front that only the crate itself can build.
    let message = Message::SealEpoch {
        node_id: 0,
        epoch: 1,
        backfill: false,
        frame: encode_epoch_payload(&report, &snapshot),
    };
    out.insert(
        "switch.cluster.wire.encode_us".into(),
        ns_per_op(budget, || {
            black_box(encode_epoch_payload(&report, &snapshot));
            black_box(message.to_bytes());
            1
        }) / 1e3,
    );
    let bytes = message.to_bytes();
    out.insert("switch.cluster.frame_bytes".into(), bytes.len() as f64);
    let mut failed = None;
    let decode_ns = ns_per_op(budget, || {
        match Message::decode(&bytes) {
            Ok((Message::SealEpoch { frame, .. }, _)) => {
                if decode_epoch_payload(&frame).is_err() {
                    failed = Some("epoch payload does not decode");
                }
            }
            _ => failed = Some("wire message does not decode"),
        }
        1
    });
    if let Some(e) = failed {
        return Err(e.to_string());
    }
    out.insert("switch.cluster.wire.decode_us".into(), decode_ns / 1e3);

    // One node, one sealed epoch, then time the aggregator's read API.
    let dir = dir.join("probe-agent");
    let _ = std::fs::remove_dir_all(&dir);
    let blank = sketch(0.1, probe_seeds(0));
    let fingerprint = blank.inner().fingerprint();
    let agg = Aggregator::spawn(blank, "127.0.0.1:0", AggregatorConfig::default())
        .map_err(|e| format!("probe aggregator: {e}"))?;
    let mut agent = NodeAgent::open(&dir, NodeAgentConfig::new(0, fingerprint))
        .map_err(|e| format!("probe agent: {e}"))?;
    agent
        .connect(agg.local_addr())
        .map_err(|e| format!("probe connect: {e}"))?;
    let view = MergedView::from_sketch(1, live.clone());
    agent
        .seal_epoch(1, &view, HH_FRACTION * packets as f64)
        .map_err(|e| format!("probe seal: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while !agg.epoch_status(1).is_complete() {
        if Instant::now() > deadline {
            return Err("probe epoch never completed".to_string());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    out.insert(
        "switch.cluster.aggregator.view_us".into(),
        ns_per_op(budget, || {
            black_box(agg.view(1).is_some());
            1
        }) / 1e3,
    );
    agent.close();
    agg.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Run every isolated probe. `budget` is the time each gets; `dir` is where
/// the store and agent probes keep their files.
pub fn isolated(seed: u64, budget: Duration, dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let packets = TRACE_PACKETS / SMOKE_DIVISOR;
    let keys = caida_keys(seed, packets);

    out.insert(
        "traffic.gen_ns_per_record".into(),
        ns_per_op(budget, || {
            let n = WINDOW;
            black_box(nitro_traffic::take_records(
                CaidaLike::new(seed, TRACE_FLOWS),
                n,
            ));
            n as u64
        }),
    );
    hash_layer(&keys, budget, out);
    sketches_layer(&keys, budget, out);
    core_layer(&keys, budget, out);
    ovs_layer(seed, budget, out);
    pipeline_layer(&keys, budget, out)?;
    spsc_layer(budget, out);

    let mut live = sketch(0.1, probe_seeds(0));
    for burst in keys.chunks(BURST) {
        live.process_batch(burst, 1.0);
    }
    store_layer(dir, &live.snapshot(), budget, out)?;
    cluster_layer(dir, &live, packets as u64, budget, out)?;
    Ok(())
}
