//! `nitro` — command-line front end for the NitroSketch reproduction.
//!
//! ```text
//! nitro gen       --workload caida --packets 1000000 --out trace.pcap
//! nitro run       --workload caida --packets 1000000 --sketch countsketch --p 0.01
//! nitro monitor   --epochs 3 --epoch-packets 500000 --workload ddos
//! nitro calibrate
//! ```
//!
//! Arguments are `--key value` pairs; unknown keys are rejected. Every
//! run is deterministic for a given `--seed` (default 42).

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::metrics::scrape::{ScrapeRecorder, ScrapeSnapshot};
use nitrosketch::prelude::*;
use nitrosketch::sketches::{KarySketch, RowSketch};
use nitrosketch::switch::console::{
    render_recording_once, replay_recording, run_live, ConsoleApp, LiveOptions,
};
use nitrosketch::switch::cost::CostModel;
use nitrosketch::switch::faults::FaultInjector;
use nitrosketch::switch::nic::{NicSim, PacketRecord};
use nitrosketch::switch::ovs::RunReport;
use nitrosketch::switch::{
    spawn_sharded, CheckpointStore, EpochReport, PipelineConfig, StoreConfig, SupervisorConfig,
    ThreadFaultPlan,
};
use nitrosketch::traffic::{pcap, take_records, UniformFlows};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         nitro gen       --workload <caida|dc|ddos|minsize|uniform> --packets N --out FILE.pcap [--seed S] [--flows F]\n  \
         nitro run       --workload ... --packets N [--sketch <countsketch|countmin|kary>] [--p P] [--topk K]\n                  [--drop-chance X] [--corrupt-chance X] [--seed S] [--flows F]\n  \
         nitro monitor   --epochs K --epoch-packets N [--workload ...] [--p P] [--seed S] [--flows F]\n  \
         nitro top       [--replay FILE] [--once] [--width N] [--speed X]\n                  \
         [--shards N] [--workload ...] [--packets N] [--p P] [--seed S] [--flows F]\n                  \
         [--refresh-ms MS] [--duration-s S] [--chaos] [--record FILE]\n  \
         nitro calibrate"
    );
    ExitCode::from(2)
}

/// Minimal `--key value` parser. A `--key` directly followed by another
/// `--key` (or the end of the line) is a bare flag and reads as `true`.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter().peekable();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got {k}"))?;
            let v = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), v);
        }
        Ok(Self(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    fn optional(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required --{key}"))
    }
}

fn workload(name: &str, seed: u64, flows: u64, n: usize) -> Result<Vec<PacketRecord>, String> {
    Ok(match name {
        "caida" => take_records(CaidaLike::new(seed, flows.max(1)), n),
        "dc" => take_records(DatacenterLike::new(seed, flows.max(1)), n),
        "ddos" => take_records(DdosAttack::new(seed, flows.max(1), 0.5), n),
        "minsize" => take_records(MinSized::new(seed, flows.max(1), 14.88e6), n),
        "uniform" => take_records(UniformFlows::new(seed, flows.max(1)), n),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let n: usize = args.get("packets", 100_000)?;
    let seed: u64 = args.get("seed", 42)?;
    let flows: u64 = args.get("flows", 100_000)?;
    let out = args.require("out")?;
    let records = workload(args.require("workload")?, seed, flows, n)?;
    let mut file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    pcap::dump_records(&mut file, &records).map_err(|e| e.to_string())?;
    println!("wrote {n} packets to {out}");
    Ok(())
}

fn print_report(report: &RunReport) {
    println!(
        "processed {} packets ({} MB) in {:.3} s — {:.2} Mpps / {:.2} Gbps",
        report.packets,
        report.bytes / 1_000_000,
        report.wall_ns as f64 / 1e9,
        report.mpps(),
        report.gbps()
    );
}

fn run_with_sketch<S: RowSketch>(
    records: &[PacketRecord],
    sketch: S,
    p: f64,
    topk: usize,
    faults: Option<FaultInjector>,
) -> Result<(), String> {
    let nitro = NitroSketch::new(sketch, Mode::Fixed { p }, 777).with_topk(topk.max(1));
    let mut dp = OvsDatapath::new(nitro);

    let report = match faults {
        None => dp.run_trace(records),
        Some(mut fi) => {
            // Manual loop so the injector sits between NIC and switch.
            let mut nic = NicSim::new(records);
            let mut batch = Vec::new();
            let mut keys = Vec::new();
            let start = std::time::Instant::now();
            let (mut packets, mut bytes) = (0u64, 0u64);
            while nic.rx_burst(&mut batch) > 0 {
                fi.apply(&mut batch);
                packets += batch.len() as u64;
                bytes += batch.iter().map(|p| p.len() as u64).sum::<u64>();
                dp.process_batch(&batch, &mut keys);
            }
            let r = RunReport {
                packets,
                bytes,
                wall_ns: start.elapsed().as_nanos() as u64,
            };
            let fs = fi.stats();
            println!(
                "faults: dropped {} corrupted {} shaped {} passed {}",
                fs.dropped, fs.corrupted, fs.shaped, fs.passed
            );
            r
        }
    };
    print_report(&report);
    let s = dp.stats();
    println!(
        "switch: rx {} tx {} drop {} emc-hit {:.1}% upcalls {}",
        s.rx,
        s.tx,
        s.dropped,
        100.0 * s.emc_hits as f64 / (s.emc_hits + s.emc_misses).max(1) as f64,
        s.upcalls
    );
    let m = dp.measurement();
    let st = m.stats();
    println!(
        "sketch: p {} | sampled {} / {} packets, {} row updates, {} heap ops",
        m.p(),
        st.sampled_packets,
        st.packets,
        st.row_updates,
        st.heap_updates
    );
    println!("top flows:");
    for (k, e) in m.heavy_hitters(0.0).iter().take(10) {
        println!("  {k:>18x}  ~{e:.0} packets");
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let n: usize = args.get("packets", 1_000_000)?;
    let seed: u64 = args.get("seed", 42)?;
    let flows: u64 = args.get("flows", 100_000)?;
    let p: f64 = args.get("p", 0.01)?;
    let topk: usize = args.get("topk", 64)?;
    let records = workload(args.require("workload")?, seed, flows, n)?;

    let drop: f64 = args.get("drop-chance", 0.0)?;
    let corrupt: f64 = args.get("corrupt-chance", 0.0)?;
    let faults = if drop > 0.0 || corrupt > 0.0 {
        Some(
            FaultInjector::new(seed ^ 0xFA)
                .with_drop_chance(drop)
                .with_corrupt_chance(corrupt),
        )
    } else {
        None
    };

    let sketch_name: String = args.get("sketch", "countsketch".to_string())?;
    match sketch_name.as_str() {
        "countsketch" => run_with_sketch(
            &records,
            CountSketch::with_memory(2 << 20, 5, seed),
            p,
            topk,
            faults,
        ),
        "countmin" => run_with_sketch(
            &records,
            CountMin::with_memory(200 << 10, 5, seed),
            p,
            topk,
            faults,
        ),
        "kary" => run_with_sketch(
            &records,
            KarySketch::with_memory(2 << 20, 10, seed),
            p,
            topk,
            faults,
        ),
        other => Err(format!("unknown sketch {other}")),
    }
}

fn cmd_monitor(args: &Args) -> Result<(), String> {
    let epochs: u64 = args.get("epochs", 3)?;
    let epoch_packets: usize = args.get("epoch-packets", 500_000)?;
    let seed: u64 = args.get("seed", 42)?;
    let flows: u64 = args.get("flows", 100_000)?;
    let p: f64 = args.get("p", 0.01)?;
    let wname: String = args.get("workload", "caida".to_string())?;

    let mut nitro = NitroSketch::new(
        CountSketch::with_memory(2 << 20, 5, seed),
        Mode::Fixed { p },
        seed ^ 1,
    )
    .with_topk(256);

    let mut report_bytes = 0;
    let mut last_hh = Vec::new();
    for epoch in 0..epochs {
        let records = workload(&wname, seed + epoch, flows, epoch_packets)?;
        let mut dp_keys = Vec::new();
        let mut nic = NicSim::new(&records);
        let mut batch = Vec::new();
        while nic.rx_burst(&mut batch) > 0 {
            dp_keys.clear();
            for pkt in &batch {
                if let Ok(t) = nitrosketch::switch::parse_five_tuple(&pkt.data) {
                    dp_keys.push(t.flow_key());
                }
            }
            nitro.process_batch(&dp_keys, 1.0);
        }
        let hh = nitro.heavy_hitters(0.001 * epoch_packets as f64);
        let report = EpochReport {
            switch_id: 1,
            epoch,
            packets: epoch_packets as u64,
            heavy_hitters: hh,
            entropy_bits: f64::NAN,
            distinct: f64::NAN,
            l2: nitro.inner().l2_estimate(),
            memory_bytes: nitro.memory_bytes() as u64,
        };
        let bytes = report.to_bytes().len();
        println!(
            "epoch {epoch}: {} heavy hitters, report {bytes} B",
            report.heavy_hitters.len()
        );
        report_bytes += bytes;
        last_hh = report.heavy_hitters;
        nitro.clear();
    }
    println!("\nexported: {epochs} reports, {report_bytes} bytes total");
    println!("top flows of the last epoch:");
    for (k, e) in last_hh.iter().take(10) {
        println!("  {k:>18x}  ~{e:.0} packets");
    }
    Ok(())
}

/// `nitro top` — the operator console. Three modes:
///
/// - `--replay FILE`: animate a recorded scrape stream (NDJSON from a
///   `ScrapeRecorder`); `--speed` scales the recorded pacing.
/// - `--replay FILE --once`: render the recording's final frame as plain
///   text and exit — no TTY, byte-identical (the golden-frame mode).
/// - no `--replay`: spin up an in-process sharded pipeline fed by a
///   workload generator and live-attach to its telemetry plane;
///   `--chaos` arms a mid-run shard panic so the failover is watchable,
///   `--record FILE` tees every scrape into a replayable recording.
fn cmd_top(args: &Args) -> Result<(), String> {
    let width: usize = args.get("width", 100)?;
    let once: bool = args.get("once", false)?;

    if let Some(path) = args.optional("replay") {
        if once {
            let frame = render_recording_once(path, width).map_err(|e| e.to_string())?;
            print!("{frame}");
            return Ok(());
        }
        let speed: f64 = args.get("speed", 1.0)?;
        let mut out = std::io::stdout();
        let frames = replay_recording(path, width, speed, &mut out).map_err(|e| e.to_string())?;
        println!();
        eprintln!("replayed {frames} frames from {path}");
        return Ok(());
    }

    // ── live mode: an in-process fleet under the console ───────────────
    let shards: usize = args.get("shards", 4)?;
    let seed: u64 = args.get("seed", 42)?;
    let flows: u64 = args.get("flows", 100_000)?;
    let p: f64 = args.get("p", 1.0)?;
    let packets: usize = args.get("packets", 400_000)?;
    let refresh_ms: u64 = args.get("refresh-ms", 200)?;
    let duration_s: u64 = args.get("duration-s", 0)?;
    let chaos: bool = args.get("chaos", false)?;
    let wname: String = args.get("workload", "caida".to_string())?;
    let records = workload(&wname, seed, flows, packets)?;

    let dir = std::env::temp_dir().join(format!("nitro-top-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        CheckpointStore::create(&dir, shards, StoreConfig::default()).map_err(|e| e.to_string())?;
    let mut config = PipelineConfig {
        shards,
        supervisor: SupervisorConfig {
            ring_capacity: 1 << 16,
            checkpoint_every: 20_000,
            ..Default::default()
        },
        store: Some(store),
        failover: true,
        ..Default::default()
    };
    if chaos {
        // Arm a mid-run panic on one shard; with failover on the
        // coordinator promotes it and the console shows the failover.
        config.supervisor.max_restarts = 0;
        let plan = ThreadFaultPlan::new();
        plan.panic_after(packets as u64 / shards as u64 / 2);
        config.fault_plans = vec![(1 % shards, plan)];
    }
    let factory = move |i: usize| {
        NitroSketch::new(
            CountSketch::new(5, 1 << 14, seed ^ 0x70),
            Mode::Fixed { p },
            seed + i as u64,
        )
        .with_topk(64)
    };
    let (mut tap, mut pipeline) = spawn_sharded(factory, config).map_err(|e| e.to_string())?;

    let started = Instant::now();
    let mut recorder = match args.optional("record") {
        Some(path) => Some(ScrapeRecorder::create(path).map_err(|e| e.to_string())?),
        None => None,
    };

    if once {
        // One-shot live frame: feed synchronously, let the fleet drain,
        // scrape twice so rates exist, render plain, exit.
        let mut app = ConsoleApp::new();
        let mut tick = |app: &mut ConsoleApp| -> Result<(), String> {
            let ts = started.elapsed().as_millis() as u64;
            let json = pipeline.scrape_json();
            let events: Vec<String> = pipeline
                .telemetry()
                .drain_events()
                .iter()
                .map(|e| e.to_string())
                .collect();
            if let Some(rec) = &mut recorder {
                rec.append(ts, &json, &events).map_err(|e| e.to_string())?;
            }
            app.push(
                ts,
                ScrapeSnapshot::parse(&json).map_err(|e| e.to_string())?,
                events,
            );
            Ok(())
        };
        tick(&mut app)?;
        for r in &records {
            tap.offer(r.tuple.flow_key(), r.ts_ns);
        }
        drop(tap);
        std::thread::sleep(Duration::from_millis(150));
        tick(&mut app)?;
        print!("{}", app.draw(width).to_plain());
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(());
    }

    // Feeder thread: cycle the workload through the dispatcher until the
    // console loop says stop.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let r = &records[i % records.len()];
                tap.offer(r.tuple.flow_key(), r.ts_ns);
                i += 1;
                if i.is_multiple_of(1024) {
                    std::thread::yield_now();
                }
            }
        })
    };

    let opts = LiveOptions {
        width,
        refresh: Duration::from_millis(refresh_ms.max(10)),
        duration: (duration_s > 0).then(|| Duration::from_secs(duration_s)),
    };
    let mut out = std::io::stdout();
    let live = run_live(
        || {
            // Coordinator duty: a failed shard is promoted at the next
            // epoch rotation — drive one so the
            // console shows the failover instead of a dead row.
            if !pipeline.failed_shards().is_empty() {
                let _ = pipeline.epoch_view();
            }
            let ts = started.elapsed().as_millis() as u64;
            let json = pipeline.scrape_json();
            let events: Vec<String> = pipeline
                .telemetry()
                .drain_events()
                .iter()
                .map(|e| e.to_string())
                .collect();
            if let Some(rec) = &mut recorder {
                rec.append(ts, &json, &events).map_err(|e| e.to_string())?;
            }
            Ok((ts, json, events))
        },
        opts,
        &mut out,
    );
    stop.store(true, Ordering::Relaxed);
    let _ = feeder.join();
    let frames = live.map_err(|e| e.to_string())?;
    println!();
    eprintln!(
        "drew {frames} frames over {:.1}s ({} promotions)",
        started.elapsed().as_secs_f64(),
        pipeline.promotions()
    );
    if let Some(rec) = &recorder {
        eprintln!("recorded {} scrape frames", rec.frames());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn cmd_calibrate() -> Result<(), String> {
    let m = CostModel::calibrate();
    println!("per-operation costs on this machine:");
    println!("  xxh64(u64)          {:>7.2} ns", m.hash_ns);
    println!("  counter update      {:>7.2} ns", m.counter_ns);
    println!("  top-k heap offer    {:>7.2} ns", m.heap_ns);
    println!("  miniflow extract    {:>7.2} ns", m.parse_ns);
    println!("  EMC probe           {:>7.2} ns", m.emc_ns);
    println!("  geometric draw      {:>7.2} ns", m.geo_ns);
    println!(
        "  AVX2 batch hashing  {}",
        if nitrosketch::hash::batch::avx2_available() {
            "available"
        } else {
            "not available (portable lanes in use)"
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "run" => cmd_run(&args),
        "monitor" => cmd_monitor(&args),
        "top" => cmd_top(&args),
        "calibrate" => cmd_calibrate(),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
