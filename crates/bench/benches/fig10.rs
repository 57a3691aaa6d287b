//! Figure 10 — CPU usage of the all-in-one (AIO) and separate-thread
//! deployments.
//!
//! The paper's claim: with NitroSketch-AIO the switch reaches line rate
//! while the sketching work stays under ~20% of the core; in the
//! separate-thread deployment the sketch core runs well below 100% even
//! when the switching core saturates. We reproduce both panels with the
//! cost accounting: share of pipeline time spent in measurement (AIO), and
//! daemon busy fraction (separate-thread).

use nitro_bench::scaled;
use nitro_core::{Mode, NitroSketch};
use nitro_metrics::Table;
use nitro_sketches::{Checkpoint, CountMin, CountSketch, KarySketch, RowSketch};
use nitro_switch::cost::Stage;
use nitro_switch::ovs::{Measurement, OvsDatapath, VanillaMeasurement};
use nitro_switch::{spawn_supervised, SupervisorConfig};
use nitro_traffic::{take_records, CaidaLike};
use std::time::Instant;

const P: f64 = 0.01;

fn aio_measure_share<M: Measurement>(
    records: &[nitro_switch::nic::PacketRecord],
    m: M,
) -> (f64, f64) {
    let mut dp = OvsDatapath::new(m);
    let report = dp.run_trace(records);
    let cost = dp.cost();
    let measure_ns = cost.ns(Stage::SketchHash)
        + cost.ns(Stage::SketchCounter)
        + cost.ns(Stage::SketchHeap)
        + cost.ns(Stage::Sampling);
    (100.0 * measure_ns / cost.total_ns(), report.mpps())
}

fn main() {
    let n = scaled(1_000_000);
    let records = take_records(CaidaLike::new(3, 100_000), n);

    // --- Fig 10(a): AIO CPU share of measurement -------------------------
    let mut table = Table::new(
        "Figure 10a: AIO — measurement share of the switching core",
        &[
            "sketch",
            "vanilla share %",
            "vanilla mpps",
            "nitro share %",
            "nitro mpps",
        ],
    );
    #[allow(clippy::type_complexity)]
    let rows: Vec<(&str, (f64, f64), (f64, f64))> = vec![
        (
            "Count-Min",
            aio_measure_share(
                &records,
                VanillaMeasurement::with_topk(CountMin::with_memory(200 << 10, 5, 7), 100),
            ),
            aio_measure_share(
                &records,
                NitroSketch::new(
                    CountMin::with_memory(200 << 10, 5, 7),
                    Mode::Fixed { p: P },
                    8,
                )
                .with_topk(100),
            ),
        ),
        (
            "Count Sketch",
            aio_measure_share(
                &records,
                VanillaMeasurement::with_topk(CountSketch::with_memory(2 << 20, 5, 7), 100),
            ),
            aio_measure_share(
                &records,
                NitroSketch::new(
                    CountSketch::with_memory(2 << 20, 5, 7),
                    Mode::Fixed { p: P },
                    8,
                )
                .with_topk(100),
            ),
        ),
        (
            "K-ary",
            aio_measure_share(
                &records,
                VanillaMeasurement::with_topk(KarySketch::with_memory(2 << 20, 10, 7), 100),
            ),
            aio_measure_share(
                &records,
                NitroSketch::new(
                    KarySketch::with_memory(2 << 20, 10, 7),
                    Mode::Fixed { p: P },
                    8,
                )
                .with_topk(100),
            ),
        ),
    ];
    for (name, (vs, vm), (ns_, nm)) in rows {
        table.row(&[
            name.into(),
            format!("{vs:.1}"),
            format!("{vm:.2}"),
            format!("{ns_:.1}"),
            format!("{nm:.2}"),
        ]);
    }
    println!("{table}");

    // --- Fig 10(b): separate-thread — daemon busy fraction ---------------
    // Busy % = producer rate / standalone sketch rate: the share of a core
    // the daemon needs to keep up with the switching thread.
    fn separate_thread_row<S: RowSketch + Checkpoint + Clone + Send + 'static>(
        table: &mut Table,
        name: &str,
        keys: &[u64],
        make: impl Fn() -> NitroSketch<S> + Send + 'static,
    ) {
        // Standalone drain rate of the sketch alone.
        let mut solo = make();
        let t = Instant::now();
        for &k in keys {
            solo.process(k, 1.0);
        }
        let solo_mpps = keys.len() as f64 / t.elapsed().as_secs_f64() / 1e6;

        // Through the ring with a live daemon. The ring holds the whole
        // trace, and no periodic checkpoint fits inside it, so the figure
        // times the sketch thread rather than snapshot encoding.
        let config = SupervisorConfig {
            ring_capacity: 1 << 22,
            checkpoint_every: u64::MAX,
            ..Default::default()
        };
        let (mut tap, d) = spawn_supervised(make(), make, config);
        let t = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            tap.offer(k, i as u64 * 100);
        }
        let produce_mpps = keys.len() as f64 / t.elapsed().as_secs_f64() / 1e6;
        d.finish().expect("daemon exited cleanly");
        let busy = (100.0 * produce_mpps / solo_mpps).min(100.0);
        table.row(&[
            name.into(),
            format!("{produce_mpps:.2}"),
            format!("{busy:.0}"),
            format!("{}", tap.dropped()),
        ]);
    }

    let mut table = Table::new(
        "Figure 10b: separate thread — sketch-core utilization",
        &["sketch", "switch-side mpps", "daemon busy %", "ring drops"],
    );
    let keys: Vec<u64> = records.iter().map(|r| r.tuple.flow_key()).collect();
    separate_thread_row(&mut table, "Count-Min", &keys, || {
        NitroSketch::new(
            CountMin::with_memory(200 << 10, 5, 7),
            Mode::Fixed { p: P },
            9,
        )
    });
    separate_thread_row(&mut table, "Count Sketch", &keys, || {
        NitroSketch::new(
            CountSketch::with_memory(2 << 20, 5, 7),
            Mode::Fixed { p: P },
            9,
        )
    });
    separate_thread_row(&mut table, "K-ary", &keys, || {
        NitroSketch::new(
            KarySketch::with_memory(2 << 20, 10, 7),
            Mode::Fixed { p: P },
            9,
        )
    });
    println!("{table}");
    println!(
        "paper shape: vanilla sketches eat most of the core (switch rate\n\
         drops); Nitro keeps the measurement share small at full rate."
    );
}
