//! The separate-thread integration (§6): the switching thread pushes flow
//! keys into a lock-free SPSC ring; a dedicated NitroSketch daemon drains
//! it. The datapath's measurement cost collapses to one ring push per
//! packet (Fig. 10b's configuration).
//!
//! Run with: `cargo run --release --example separate_thread`

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::prelude::*;
use nitrosketch::switch::nic::NicSim;
use nitrosketch::switch::parse::parse_five_tuple;
use nitrosketch::switch::{spawn_supervised, SupervisorConfig};
use nitrosketch::traffic::take_records;

fn main() {
    let packets = 2_000_000usize;
    // Heavy-tailed traffic arriving at 40 Mpps of trace time: the 2M
    // packets span 50 ms, so use 10 ms adaptation epochs.
    let records = take_records(CaidaLike::new(7, 20_000).with_rate(40e6), packets);
    let truth = GroundTruth::from_records(&records);

    // The measurement daemon: Nitro Count Sketch, adaptive line-rate mode.
    let nitro = || {
        NitroSketch::new(
            CountSketch::new(5, 1 << 15, 21),
            Mode::AlwaysLineRate {
                ops_budget: 2_000_000.0,
                epoch_ns: 10_000_000,
            },
            22,
        )
        .with_topk(64)
    };
    // The paper prevents drops "by using a very large buffer"; size the
    // ring to absorb the p=1 warm-up burst before adaptation kicks in.
    let config = SupervisorConfig {
        ring_capacity: 1 << 22,
        ..Default::default()
    };
    let (mut tap, daemon) = spawn_supervised(nitro(), nitro, config);

    // The "switching thread": parse each frame, push the key to the ring.
    let mut nic = NicSim::new(&records);
    let mut burst = Vec::new();
    let start = std::time::Instant::now();
    while nic.rx_burst(&mut burst) > 0 {
        for p in &burst {
            if let Ok(t) = parse_five_tuple(&p.data) {
                tap.offer(t.flow_key(), p.ts_ns);
            }
        }
    }
    let switch_elapsed = start.elapsed();

    println!(
        "switching thread: {packets} packets in {switch_elapsed:?} \
         ({:.1} Mpps incl. parse + ring push)",
        packets as f64 / switch_elapsed.as_secs_f64() / 1e6
    );
    println!("ring drops      : {}", tap.dropped());

    // Tear down: the daemon drains the residue and hands the sketch back.
    let (nitro, _health) = daemon.finish().expect("daemon exited cleanly");
    let s = nitro.stats();
    println!(
        "daemon          : {} observations, {} row updates (p ended at {})",
        s.packets,
        s.row_updates,
        nitro.p()
    );

    // Accuracy spot check on the top flows.
    println!("\n{:>20} {:>10} {:>10} {:>8}", "flow", "true", "est", "err");
    for &(k, t) in truth.top_k(5).iter() {
        let e = nitro.estimate(k);
        println!(
            "{k:>20x} {t:>10.0} {e:>10.0} {:>7.2}%",
            100.0 * (e - t).abs() / t
        );
    }
}
