//! Sharded-pipeline scaling — aggregate update throughput vs shard count,
//! with merged-view accuracy checked against the unsharded sketch.
//!
//! Series: for shard counts 1, 2, 4, the aggregate consumer throughput
//! (observations applied per second of wall clock, producer dispatch and
//! ring drain included) of the sharded pipeline over one Zipf stream, plus
//! heavy-hitter recall/precision of the epoch-merged view against ground
//! truth side by side with the single unsharded sketch.
//!
//! The ≥ 2× scaling claim needs cores to scale onto: it is asserted only
//! when the host exposes enough parallelism (≥ 4 shards + 1 producer);
//! otherwise the table is reported and the assert is skipped with a note —
//! on a single-core host every shard count collapses onto one core and the
//! pipeline can only show its overhead, not its scaling.

use nitro_bench::scaled;
use nitro_core::{Mode, NitroSketch};
use nitro_metrics::scrape::ScrapeSnapshot;
use nitro_metrics::Table;
use nitro_sketches::CountSketch;
use nitro_switch::console::ConsoleApp;
use nitro_switch::pipeline::{spawn_sharded, PipelineConfig};
use nitro_switch::supervisor::SupervisorConfig;
use nitro_traffic::{GroundTruth, Zipf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const HH_FRACTION: f64 = 0.002;

fn factory(i: usize) -> NitroSketch<CountSketch> {
    // Top-k capacity is sized ~20× the expected heavy-hitter count: the
    // merged tracker is rebuilt from one offer per shard-tracked key, so
    // borderline flows need headroom against merge-order churn.
    NitroSketch::new(
        CountSketch::new(5, 1 << 15, 311),
        Mode::Fixed { p: 1.0 },
        900 + i as u64,
    )
    .with_topk(1024)
}

#[derive(Clone, Copy)]
struct Run {
    mpps: f64,
    recall: f64,
    precision: f64,
    dropped: u64,
    lost: u64,
}

fn run_sharded(keys: &[u64], shards: usize, truth: &GroundTruth) -> Run {
    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards,
            supervisor: SupervisorConfig {
                // Size rings so drops never bound the run: the producer
                // outpaces a cold consumer by design here, and the hash
                // split is not perfectly uniform — give each shard 2×
                // its fair share of the stream.
                ring_capacity: (2 * keys.len() / shards.max(1)).next_power_of_two(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn fleet");
    let start = std::time::Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        tap.offer(k, i as u64);
    }
    let (merged, fleet) = pipeline.finish().expect("clean run");
    let elapsed = start.elapsed().as_secs_f64();

    let (recall, precision) = hh_quality(&merged, truth);
    Run {
        mpps: fleet.total().processed as f64 / elapsed / 1e6,
        recall,
        precision,
        dropped: fleet.total().dropped,
        lost: fleet.total().lost_in_crash,
    }
}

fn hh_quality(sketch: &NitroSketch<CountSketch>, truth: &GroundTruth) -> (f64, f64) {
    let threshold = HH_FRACTION * truth.l1();
    let hh_truth = truth.heavy_hitters(HH_FRACTION);
    let reported = sketch.heavy_hitters(threshold);
    if hh_truth.is_empty() {
        return (1.0, 1.0);
    }
    let recalled = hh_truth
        .iter()
        .filter(|&&(k, _)| reported.iter().any(|&(rk, _)| rk == k))
        .count();
    let precise = reported
        .iter()
        .filter(|&&(k, _)| truth.count(k) >= 0.5 * threshold)
        .count();
    (
        recalled as f64 / hh_truth.len() as f64,
        if reported.is_empty() {
            1.0
        } else {
            precise as f64 / reported.len() as f64
        },
    )
}

/// Producer-side dispatch overhead: nanoseconds per `offer` on the
/// switching thread alone, comparing the single-shard fast path (no flow
/// hash, direct push) against hashed multi-shard dispatch. Rings are sized
/// to hold the whole stream so the measurement is pure dispatch + push —
/// consumer speed never backpressures the producer.
fn dispatch_ns_per_offer(keys: &[u64], shards: usize) -> f64 {
    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards,
            supervisor: SupervisorConfig {
                ring_capacity: (2 * keys.len() / shards.max(1)).next_power_of_two(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn fleet");
    let start = std::time::Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        tap.offer(k, i as u64);
    }
    let ns = start.elapsed().as_nanos() as f64 / keys.len() as f64;
    let _ = pipeline.finish().expect("clean run");
    ns
}

/// End-to-end fleet throughput (Mpps) with an optional telemetry scraper
/// hammering the lock-free registry from its own thread: every ~100 µs it
/// renders the full Prometheus page over the live shards. The scrape path
/// is pure relaxed loads — it must not perturb the workers' hot loop.
fn run_with_scraper(keys: &[u64], shards: usize, scrape: bool) -> (f64, u64) {
    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards,
            supervisor: SupervisorConfig {
                ring_capacity: (2 * keys.len() / shards.max(1)).next_power_of_two(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn fleet");
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = scrape.then(|| {
        let registry = Arc::clone(pipeline.telemetry());
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(registry.render_prometheus());
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            scrapes
        })
    });
    let start = std::time::Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        tap.offer(k, i as u64);
    }
    let (_, fleet) = pipeline.finish().expect("clean run");
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.map_or(0, |h| h.join().expect("scraper joins"));
    (fleet.total().processed as f64 / elapsed / 1e6, scrapes)
}

/// `nitro top`'s data path over one real scrape document: µs to parse a
/// `render_json` page into a typed `ScrapeSnapshot`, and µs for a full
/// console cycle (parse + rate-delta push + 100-column frame render).
/// Returns `(parse_us, cycle_us, doc_bytes, render_prom_us, render_json_us)`.
fn console_costs(keys: &[u64], shards: usize) -> (f64, f64, usize, f64, f64) {
    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards,
            supervisor: SupervisorConfig {
                ring_capacity: (2 * keys.len() / shards.max(1)).next_power_of_two(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn fleet");
    for (i, &k) in keys.iter().enumerate() {
        tap.offer(k, i as u64);
    }
    let registry = Arc::clone(pipeline.telemetry());
    let doc = pipeline.scrape_json();
    let iters = 200u32;
    let per_iter_us = |start: std::time::Instant| -> f64 {
        start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
    };
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(registry.render_prometheus());
    }
    let render_prom_us = per_iter_us(start);
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(registry.render_json());
    }
    let render_json_us = per_iter_us(start);
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(ScrapeSnapshot::parse(&doc).expect("scrape parses"));
    }
    let parse_us = per_iter_us(start);
    let mut app = ConsoleApp::new();
    let start = std::time::Instant::now();
    for i in 0..iters {
        let snap = ScrapeSnapshot::parse(&doc).expect("scrape parses");
        app.push(u64::from(i) * 200, snap, Vec::new());
        std::hint::black_box(app.draw(100).to_plain());
    }
    let cycle_us = per_iter_us(start);
    let _ = pipeline.finish().expect("clean run");
    (
        parse_us,
        cycle_us,
        doc.len(),
        render_prom_us,
        render_json_us,
    )
}

fn main() {
    let n = scaled(2_000_000);
    let mut z = Zipf::new(50_000, 1.2, 67);
    let keys: Vec<u64> = (0..n).map(|_| z.sample()).collect();
    let truth = GroundTruth::from_keys(keys.iter().copied());

    // Unsharded reference: the same sketch inline, no pipeline at all.
    let mut unsharded = factory(0);
    let start = std::time::Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        unsharded.process_ts(k, 1.0, i as u64);
    }
    let inline_mpps = n as f64 / start.elapsed().as_secs_f64() / 1e6;
    let (u_recall, u_precision) = hh_quality(&unsharded, &truth);

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut table = Table::new(
        &format!(
            "Sharded pipeline scaling ({n} Zipf obs, p = 1.0, {cores} core(s)): \
             aggregate update throughput and merged-view accuracy"
        ),
        &[
            "config",
            "Mpps",
            "speedup",
            "HH recall",
            "HH precision",
            "dropped",
            "lost",
        ],
    );
    table.row(&[
        "inline (no pipeline)".to_string(),
        format!("{inline_mpps:.2}"),
        "-".to_string(),
        format!("{u_recall:.3}"),
        format!("{u_precision:.3}"),
        "0".to_string(),
        "0".to_string(),
    ]);

    let baseline = run_sharded(&keys, 1, &truth);
    let mut four_shard_speedup = 0.0;
    for shards in [1usize, 2, 4] {
        let r = if shards == 1 {
            baseline
        } else {
            run_sharded(&keys, shards, &truth)
        };
        let speedup = r.mpps / baseline.mpps;
        if shards == 4 {
            four_shard_speedup = speedup;
        }
        table.row(&[
            format!("{shards} shard(s)"),
            format!("{:.2}", r.mpps),
            format!("{speedup:.2}x"),
            format!("{:.3}", r.recall),
            format!("{:.3}", r.precision),
            r.dropped.to_string(),
            r.lost.to_string(),
        ]);
        // Merged accuracy must match the unsharded sketch within ε at any
        // shard count — sharding trades no accuracy (sketch linearity).
        assert!(
            r.recall >= u_recall - 0.05,
            "{shards}-shard recall {} fell below unsharded {}",
            r.recall,
            u_recall
        );
        assert!(
            r.precision >= u_precision - 0.05,
            "{shards}-shard precision {} fell below unsharded {}",
            r.precision,
            u_precision
        );
    }
    println!("{}", table.render());

    // Dispatch micro-bench: the single-shard fast path skips the flow hash
    // and shard selection entirely, so its per-offer cost bounds the
    // dispatch overhead hashed routing adds on the switching thread.
    let probe: Vec<u64> = keys.iter().copied().take(scaled(500_000)).collect();
    let mut dispatch = Table::new(
        &format!(
            "Dispatch overhead ({} offers, producer-side only): \
             single-shard fast path vs hashed multi-shard routing",
            probe.len()
        ),
        &["config", "ns/offer", "vs fast path"],
    );
    let fast = dispatch_ns_per_offer(&probe, 1);
    dispatch.row(&[
        "1 shard (fast path)".to_string(),
        format!("{fast:.1}"),
        "-".to_string(),
    ]);
    for shards in [2usize, 4] {
        let hashed = dispatch_ns_per_offer(&probe, shards);
        dispatch.row(&[
            format!("{shards} shards (hashed)"),
            format!("{hashed:.1}"),
            format!("{:+.1} ns", hashed - fast),
        ]);
    }
    println!("{}", dispatch.render());

    // Scrape-overhead micro-bench: the same 2-shard workload with and
    // without a dedicated thread rendering the full Prometheus page every
    // ~100 µs. The telemetry plane is relaxed-atomic reads end to end, so
    // a scraper must cost the fleet (almost) nothing.
    let best = |scrape: bool| -> (f64, u64) {
        (0..3)
            .map(|_| run_with_scraper(&keys, 2, scrape))
            .fold((0.0f64, 0u64), |acc, r| (acc.0.max(r.0), acc.1.max(r.1)))
    };
    let (quiet_mpps, _) = best(false);
    let (scraped_mpps, scrapes) = best(true);
    let regression = 1.0 - scraped_mpps / quiet_mpps;
    let mut overhead = Table::new(
        &format!("Telemetry scrape overhead (2 shards, {n} obs, best of 3)"),
        &["config", "Mpps", "regression"],
    );
    overhead.row(&[
        "no scraper".to_string(),
        format!("{quiet_mpps:.2}"),
        "-".to_string(),
    ]);
    overhead.row(&[
        format!("scraper @ 100us ({scrapes} scrapes)"),
        format!("{scraped_mpps:.2}"),
        format!("{:.1}%", 100.0 * regression),
    ]);
    println!("{}", overhead.render());
    // Like the scaling claim below, the <3% bound needs the scraper to
    // have its own core — on a starved host it steals consumer cycles by
    // scheduling, not because the scrape path contends.
    if cores >= 5 {
        assert!(
            regression < 0.03,
            "telemetry scrape cost the fleet {:.1}% throughput (>= 3%)",
            100.0 * regression
        );
        println!(
            "scrape overhead check: {:.1}% < 3%  [PASS]",
            100.0 * regression
        );
    } else {
        println!(
            "scrape overhead check: skipped — {cores} core(s) available \
             (assertion requires >= 5 cores)"
        );
    }

    // Console data-path micro-bench: what one `nitro top` refresh costs
    // an operator box — scrape render, typed parse, and a full frame
    // composition. These are control-plane numbers (hundreds of µs are
    // fine at a 200 ms cadence) but they gate how cheap recording and
    // replay stay as the fleet grows.
    let (parse_us, cycle_us, doc_bytes, render_prom_us, render_json_us) = console_costs(&probe, 4);
    let mut console = Table::new(
        &format!("Console data path (4 shards, {doc_bytes}-byte scrape document, 200 iters)"),
        &["operation", "µs/op"],
    );
    console.row(&[
        "render Prometheus page".to_string(),
        format!("{render_prom_us:.1}"),
    ]);
    console.row(&[
        "render JSON scrape".to_string(),
        format!("{render_json_us:.1}"),
    ]);
    console.row(&[
        "parse → ScrapeSnapshot".to_string(),
        format!("{parse_us:.1}"),
    ]);
    console.row(&[
        "console cycle (parse+push+draw)".to_string(),
        format!("{cycle_us:.1}"),
    ]);
    println!("{}", console.render());

    // The scaling claim: 4 shards ≥ 2× the single-consumer daemon — only
    // meaningful when the host can actually run 4 consumers + 1 producer.
    if cores >= 5 {
        assert!(
            four_shard_speedup >= 2.0,
            "4-shard speedup {four_shard_speedup:.2}x < 2x on a {cores}-core host"
        );
        println!("scaling check: 4-shard speedup {four_shard_speedup:.2}x >= 2x  [PASS]");
    } else {
        println!(
            "scaling check: skipped — {cores} core(s) available, \
             4-shard speedup measured {four_shard_speedup:.2}x \
             (assertion requires >= 5 cores)"
        );
    }
}
