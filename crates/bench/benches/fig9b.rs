//! Figure 9(b) — throughput improvement breakdown as NitroSketch's
//! components are applied one at a time.
//!
//! Paper steps: vanilla UnivMon → +AVX2 hashing → +counter-array sampling
//! → +batched geometric → +reduced heap updates. Our mapping (on the
//! Count-Sketch core that dominates UnivMon):
//!
//! 0. vanilla: d hashes + d updates + per-packet heap query/offer;
//! 1. +batched updates: the same full updates applied row-at-a-time
//!    through `update_row_batch`;
//! 2. +counter-array sampling: per-row Bernoulli coin flips at p = 0.01
//!    (Idea A alone — one PRNG draw per row per packet);
//! 3. +geometric sampling: NitroSketch's skip schedule (Idea B), heap on
//!    sampled packets only (the paper's heap reduction rides along);
//! 4. +buffered batch: `process_batch` (Idea D).

use nitro_bench::{mpps_of, scaled, BernoulliRowSampling, VanillaWithHeap};
use nitro_core::{Mode, NitroSketch};
use nitro_metrics::Table;
use nitro_sketches::{CountSketch, FlowKey, RowSketch};
use nitro_traffic::{keys_of, MinSized};
use std::time::Instant;

const P: f64 = 0.01;

fn sketch(seed: u64) -> CountSketch {
    CountSketch::with_memory(2 << 20, 5, seed)
}

fn main() {
    let n = scaled(2_000_000);
    let keys: Vec<FlowKey> = keys_of(MinSized::new(2, 100_000, 59.53e6))
        .take(n)
        .collect();

    let mut table = Table::new(
        "Figure 9b: speedup breakdown (in-memory, Count Sketch core)",
        &["configuration", "mpps", "speedup"],
    );
    let mut base = 0.0f64;
    let mut push = |table: &mut Table, name: &str, mpps: f64| {
        if base == 0.0 {
            base = mpps;
        }
        table.row(&[
            name.into(),
            format!("{mpps:.2}"),
            format!("{:.1}x", mpps / base),
        ]);
    };

    // 0. Vanilla with per-packet heap.
    let mut v = VanillaWithHeap::new(sketch(7), 1000);
    let mpps = mpps_of(&keys, |k| v.process(k, 1.0));
    push(&mut table, "vanilla (d hashes + heap/pkt)", mpps);

    // 1. + batched (lane) hashing, still every packet, every row.
    let mut s = sketch(7);
    let start = Instant::now();
    for chunk in keys.chunks(32) {
        for r in 0..s.depth() {
            s.update_row_batch(r, chunk, 1.0);
        }
    }
    let mpps = keys.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
    push(&mut table, "+ row-batched updates", mpps);

    // 2. + counter-array sampling via per-row coin flips (Idea A alone).
    let mut b = BernoulliRowSampling::new(sketch(7), P, 9).with_topk(1000);
    let mpps = mpps_of(&keys, |k| b.process(k, 1.0));
    push(&mut table, "+ counter-array sampling (coin flips)", mpps);

    // 3. + geometric skips (Idea B) with heap on sampled packets.
    let mut nitro = NitroSketch::new(sketch(7), Mode::Fixed { p: P }, 10).with_topk(1000);
    let mpps = mpps_of(&keys, |k| {
        nitro.process(k, 1.0);
    });
    push(&mut table, "+ batched geometric + reduced heap", mpps);

    // 4. + buffered batch processing (Idea D).
    let mut nitro2 = NitroSketch::new(sketch(7), Mode::Fixed { p: P }, 10).with_topk(1000);
    let start = Instant::now();
    for chunk in keys.chunks(32) {
        nitro2.process_batch(chunk, 1.0);
    }
    let mpps = keys.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
    push(&mut table, "+ buffered batch updates", mpps);

    println!("{table}");
    println!(
        "paper shape: counter-array sampling is the biggest single step;\n\
         geometric sampling removes the residual per-packet PRNG cost."
    );
}
