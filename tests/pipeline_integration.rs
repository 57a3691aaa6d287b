//! Platform integration: the same measurement over OVS-, VPP- and
//! BESS-style pipelines and over the AIO vs separate-thread deployments
//! must agree — the §6 "three platforms, one Sketching module" claim.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::prelude::*;
use nitrosketch::switch::bess::BessPipeline;
use nitrosketch::switch::vpp::VppGraph;
use nitrosketch::switch::{spawn_supervised, SupervisorConfig};
use nitrosketch::traffic::take_records;

fn nitro() -> NitroSketch<CountSketch> {
    NitroSketch::new(CountSketch::new(5, 8192, 41), Mode::Fixed { p: 1.0 }, 42)
}

#[test]
fn all_three_platforms_agree_at_p1() {
    let records = take_records(CaidaLike::new(31, 5_000), 100_000);
    let truth = GroundTruth::from_records(&records);

    let mut ovs = OvsDatapath::new(nitro());
    let mut vpp = VppGraph::new(nitro());
    let mut bess = BessPipeline::new(nitro());
    let r1 = ovs.run_trace(&records);
    let r2 = vpp.run_trace(&records);
    let r3 = bess.run_trace(&records);
    assert_eq!(r1.packets, 100_000);
    assert_eq!(r2.packets, 100_000);
    assert_eq!(r3.packets, 100_000);

    for &(k, t) in truth.top_k(20).iter() {
        let a = ovs.measurement().estimate(k);
        let b = vpp.measurement().estimate(k);
        let c = bess.measurement().estimate(k);
        assert_eq!(a, b, "ovs vs vpp on {k}");
        assert_eq!(b, c, "vpp vs bess on {k}");
        // Vanilla Count Sketch estimates carry collision noise; they must
        // be near-exact on top flows but not bit-equal to the truth.
        assert!((a - t).abs() / t < 0.01, "estimate {a} vs truth {t} on {k}");
    }
}

#[test]
fn separate_thread_agrees_with_inline_at_p1() {
    let records = take_records(DatacenterLike::new(37, 2_000), 200_000);
    let truth = GroundTruth::from_records(&records);

    // Inline.
    let mut inline_dp = OvsDatapath::new(nitro());
    inline_dp.run_trace(&records);

    // Separate thread through the SPSC ring.
    let config = SupervisorConfig {
        ring_capacity: 1 << 20,
        ..Default::default()
    };
    let (mut tap, daemon) = spawn_supervised(nitro(), nitro, config);
    for r in &records {
        tap.offer(r.tuple.flow_key(), r.ts_ns);
    }
    assert_eq!(tap.dropped(), 0);
    let (threaded, health) = daemon.finish().unwrap();
    assert_eq!(health.unaccounted(), 0);

    for &(k, _) in truth.top_k(20).iter() {
        assert_eq!(
            inline_dp.measurement().estimate(k),
            threaded.estimate(k),
            "key {k}"
        );
    }
}

#[test]
fn malformed_frames_dropped_not_counted() {
    use nitrosketch::switch::packet::Packet;
    let records = take_records(CaidaLike::new(43, 100), 32);
    let mut vpp = VppGraph::new(nitro());
    let mut nic = nitrosketch::switch::nic::NicSim::new(&records);
    let mut batch = Vec::new();
    nic.rx_burst(&mut batch);
    batch.push(Packet {
        data: bytes::Bytes::from_static(&[0xFFu8; 40]),
        ts_ns: 0,
    });
    let n = batch.len();
    vpp.process_batch(batch);
    let (tx, dropped) = vpp.counters();
    assert_eq!(tx as usize, n - 1);
    assert_eq!(dropped, 1);
}

#[test]
fn cost_reports_cover_the_pipeline() {
    use nitrosketch::switch::cost::Stage;
    let records = take_records(MinSized::new(47, 1000, 1e7), 50_000);
    let mut dp = OvsDatapath::new(nitro());
    dp.run_trace(&records);
    let cost = dp.cost();
    for stage in [Stage::Io, Stage::Parse, Stage::EmcLookup, Stage::SketchHash] {
        assert!(cost.ns(stage) > 0.0, "{stage:?} unattributed");
    }
    // Shares sum to 100%.
    let total: f64 = cost.rows().iter().map(|&(_, _, s)| s).sum();
    assert!((total - 100.0).abs() < 1e-6);
}

#[test]
fn fault_injection_degrades_gracefully() {
    use nitrosketch::switch::faults::FaultInjector;
    use nitrosketch::switch::nic::NicSim;
    // 15% drop + 15% corrupt (smoltcp's suggested starting point): the
    // pipeline must stay correct — corrupt frames either fail parsing or
    // count toward a (wrong) flow, never crash — and estimates for heavy
    // flows must track the *delivered* (post-drop) traffic.
    let records = take_records(DatacenterLike::new(71, 2_000), 200_000);
    let mut fi = FaultInjector::new(72)
        .with_drop_chance(0.15)
        .with_corrupt_chance(0.15);
    let mut dp = OvsDatapath::new(nitro());
    let mut nic = NicSim::new(&records);
    let (mut batch, mut keys) = (Vec::new(), Vec::new());
    let mut delivered = GroundTruth::new();
    while nic.rx_burst(&mut batch) > 0 {
        fi.apply(&mut batch);
        for p in &batch {
            if let Ok(t) = nitrosketch::switch::parse_five_tuple(&p.data) {
                delivered.push(t.flow_key());
            }
        }
        dp.process_batch(&batch, &mut keys);
    }
    let fs = fi.stats();
    assert!(fs.dropped > 20_000 && fs.corrupted > 20_000, "{fs:?}");
    // Heavy flows still estimated correctly over what was delivered (a
    // corrupt frame may land on a mutated key, which is at most a ±1-bit
    // neighbour — it never pollutes the original flow's counter by more
    // than the sketch's own noise).
    for &(k, t) in delivered.top_k(5).iter() {
        let e = dp.measurement().estimate(k);
        assert!((e - t).abs() / t < 0.05, "flow {k}: {e} vs delivered {t}");
    }
}
