//! The NitroSketch hot paths pinned to golden state.
//!
//! Every case feeds a fixed skewed stream through `process` (scalar) or
//! `process_batch` (bursts of 1, 7, 32 and 64) and compares an xxh64 of
//! `NitroSketch::snapshot()` — counters, mode, statistics and the top-k —
//! against a value recorded before the per-row slot refactor. Weights are
//! not dyadic, so a reordered floating-point add shows up as a different
//! hash, not just a different estimate.
//!
//! To regenerate after an intentional change of counter state, run
//! `cargo test --release --test hot_path_equivalence -- --nocapture` and
//! paste the printed table over `GOLDEN`.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::hash::{xxh64, Xoshiro256StarStar};
use nitrosketch::sketches::{Checkpoint, CountMin, CountSketch, KarySketch, RowSketch};

const PACKETS: usize = 30_000;
const FLOWS: u64 = 2_000;
const WIDTH: usize = 512;
const SKETCH_SEED: u64 = 0x5107;
const SAMPLER_SEED: u64 = 0x5A3D;
const TOPK: usize = 16;
const PROBABILITIES: [f64; 4] = [1.0, 0.5, 0.1, 0.01];
/// `0` is the scalar path; anything else is a `process_batch` burst size.
const BURSTS: [usize; 5] = [0, 1, 7, 32, 64];

fn stream() -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::new(0xC0FFEE);
    (0..PACKETS)
        .map(|_| ((FLOWS as f64) * rng.next_f64().powi(4)) as u64)
        .collect()
}

/// Packet `i`'s weight on the scalar path, burst `i`'s on the batch path.
fn weight(i: usize) -> f64 {
    1.0 + 0.1 * (i % 7) as f64
}

#[derive(Clone, Copy)]
enum Kind {
    Cm,
    Cs,
    Kary,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Cm, Kind::Cs, Kind::Kary];

    fn name(self) -> &'static str {
        match self {
            Kind::Cm => "cm",
            Kind::Cs => "cs",
            Kind::Kary => "kary",
        }
    }
}

/// How the stream is offered.
#[derive(Clone, Copy)]
enum Feed {
    /// Plain weights, no timestamps.
    Plain,
    /// Trace timestamps 100 ns apart (10 Mpps), for the line-rate mode.
    Timed,
    /// Plain, plus NaN/∞ weights and empty bursts mixed in.
    Hostile,
}

struct Case {
    kind: Kind,
    depth: usize,
    mode: Mode,
    burst: usize,
    topk: bool,
    feed: Feed,
}

impl Case {
    fn name(&self) -> String {
        let mode = match self.mode {
            Mode::Fixed { p } => format!("p{p}"),
            Mode::AlwaysLineRate { .. } => "linerate".into(),
            Mode::AlwaysCorrect { .. } => "correct".into(),
        };
        let path = match self.burst {
            0 => "scalar".to_string(),
            b => format!("batch{b}"),
        };
        let mut name = format!("{}/d{}/{mode}/{path}", self.kind.name(), self.depth);
        if !self.topk {
            name.push_str("/notopk");
        }
        match self.feed {
            Feed::Plain | Feed::Timed => {}
            Feed::Hostile => name.push_str("/hostile"),
        }
        name
    }

    fn run(&self, keys: &[u64]) -> u64 {
        match self.kind {
            Kind::Cm => self.drive(CountMin::new(self.depth, WIDTH, SKETCH_SEED), keys),
            Kind::Cs => self.drive(CountSketch::new(self.depth, WIDTH, SKETCH_SEED), keys),
            Kind::Kary => self.drive(KarySketch::new(self.depth, WIDTH, SKETCH_SEED), keys),
        }
    }

    fn drive<S: RowSketch + Checkpoint>(&self, sketch: S, keys: &[u64]) -> u64 {
        let mut n = NitroSketch::new(sketch, self.mode.clone(), SAMPLER_SEED);
        if self.topk {
            n = n.with_topk(TOPK);
        }
        if self.burst == 0 {
            for (i, &k) in keys.iter().enumerate() {
                match self.feed {
                    Feed::Plain => n.process(k, weight(i)),
                    Feed::Timed => n.process_ts(k, weight(i), i as u64 * 100),
                    Feed::Hostile => n.process(k, hostile_weight(i)),
                };
            }
        } else {
            for (b, chunk) in keys.chunks(self.burst).enumerate() {
                let ts = (b * self.burst) as u64 * 100;
                match self.feed {
                    Feed::Plain => n.process_batch(chunk, weight(b)),
                    Feed::Timed => n.process_batch_ts(chunk, weight(b), ts),
                    Feed::Hostile => {
                        n.process_batch(&[], weight(b));
                        n.process_batch(chunk, hostile_weight(b))
                    }
                };
            }
        }
        if !matches!(self.mode, Mode::Fixed { .. }) {
            assert!(n.p() < 1.0, "{}: the mode never reconfigured", self.name());
        }
        xxh64(&n.snapshot(), 0)
    }
}

fn hostile_weight(i: usize) -> f64 {
    match i % 13 {
        3 => f64::NAN,
        7 => f64::INFINITY,
        11 => f64::NEG_INFINITY,
        _ => weight(i),
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let case = |kind, depth, mode, burst, topk, feed| Case {
        kind,
        depth,
        mode,
        burst,
        topk,
        feed,
    };
    for kind in Kind::ALL {
        for p in PROBABILITIES {
            for burst in BURSTS {
                out.push(case(kind, 5, Mode::Fixed { p }, burst, true, Feed::Plain));
            }
        }
        for burst in [0, 32] {
            let p01 = Mode::Fixed { p: 0.1 };
            let half = Mode::Fixed { p: 0.5 };
            out.push(case(kind, 5, p01, burst, false, Feed::Plain));
            out.push(case(kind, 5, half.clone(), burst, true, Feed::Hostile));
            // Depth 1, and depth 17 (one row past the estimate's stack
            // buffer).
            out.push(case(kind, 1, half.clone(), burst, true, Feed::Plain));
            out.push(case(kind, 17, half, burst, true, Feed::Plain));
        }
    }
    // AlwaysLineRate at 10 Mpps against a 10⁶ row-updates/s budget, with
    // 0.5 ms rate epochs: `p` steps down several times over the stream.
    // The batch path sees one timestamp per burst, so its reconfigurations
    // land on burst boundaries.
    let line_rate = Mode::AlwaysLineRate {
        ops_budget: 1e6,
        epoch_ns: 500_000,
    };
    // AlwaysCorrect checks convergence every 100 packets: with bursts of 7
    // that decision, and the flush it forces, falls mid-burst, and the
    // switch to p = 0.25 happens inside a burst.
    let correct = Mode::AlwaysCorrect {
        epsilon: 0.5,
        q: 100,
        p_after: 0.25,
    };
    for burst in [0, 7, 32] {
        out.push(case(
            Kind::Cs,
            5,
            line_rate.clone(),
            burst,
            true,
            Feed::Timed,
        ));
        out.push(case(Kind::Cs, 5, correct.clone(), burst, true, Feed::Plain));
    }
    out
}

/// Recorded from the per-key hashing hot path (every row update and every
/// robust estimate re-hashing the key).
const GOLDEN: &[(&str, u64)] = &[
    ("cm/d5/p1/scalar", 0xb8263a0770ffe5c0),
    ("cm/d5/p1/batch1", 0xb8263a0770ffe5c0),
    ("cm/d5/p1/batch7", 0xf7ba95096275b928),
    ("cm/d5/p1/batch32", 0x3dbfc62ce4cabd59),
    ("cm/d5/p1/batch64", 0x9f9739d27c3b3bab),
    ("cm/d5/p0.5/scalar", 0x3bb08eb1158480d7),
    ("cm/d5/p0.5/batch1", 0x3bb08eb1158480d7),
    ("cm/d5/p0.5/batch7", 0x2a65d668da880566),
    ("cm/d5/p0.5/batch32", 0xc4c9909f5ce7b509),
    ("cm/d5/p0.5/batch64", 0xe6bcdb05edca0343),
    ("cm/d5/p0.1/scalar", 0xb88da573da579e97),
    ("cm/d5/p0.1/batch1", 0xb88da573da579e97),
    ("cm/d5/p0.1/batch7", 0xefd4790708fc2f4c),
    ("cm/d5/p0.1/batch32", 0x0badb13d36e9eb87),
    ("cm/d5/p0.1/batch64", 0xf1f5b49cd44e7b38),
    ("cm/d5/p0.01/scalar", 0x2e2eaff8669e0747),
    ("cm/d5/p0.01/batch1", 0x2e2eaff8669e0747),
    ("cm/d5/p0.01/batch7", 0x567268f6d623ae16),
    ("cm/d5/p0.01/batch32", 0xf71a0661e4c736a6),
    ("cm/d5/p0.01/batch64", 0x41eb909b06ab4620),
    ("cm/d5/p0.1/scalar/notopk", 0x0f5639657613455b),
    ("cm/d5/p0.5/scalar/hostile", 0x984f515db5543f1d),
    ("cm/d1/p0.5/scalar", 0x163082016c42da8e),
    ("cm/d17/p0.5/scalar", 0x0e060fa243e982fc),
    ("cm/d5/p0.1/batch32/notopk", 0x867a9c373d8e3d46),
    ("cm/d5/p0.5/batch32/hostile", 0xb4de311f0a67fbef),
    ("cm/d1/p0.5/batch32", 0xb35323cb50eba56a),
    ("cm/d17/p0.5/batch32", 0x34b73d02408f5a3f),
    ("cs/d5/p1/scalar", 0xa9da0349aa16102e),
    ("cs/d5/p1/batch1", 0xa9da0349aa16102e),
    ("cs/d5/p1/batch7", 0x373a750dadee061d),
    ("cs/d5/p1/batch32", 0x3a26952f5e7f4e6d),
    ("cs/d5/p1/batch64", 0xf580100de15577f9),
    ("cs/d5/p0.5/scalar", 0x41e0888c426797c0),
    ("cs/d5/p0.5/batch1", 0x41e0888c426797c0),
    ("cs/d5/p0.5/batch7", 0x468d3b615c33708d),
    ("cs/d5/p0.5/batch32", 0x3ef10d771ccf94a6),
    ("cs/d5/p0.5/batch64", 0xbe2d056b07b72a88),
    ("cs/d5/p0.1/scalar", 0xc84946ba3f8fd825),
    ("cs/d5/p0.1/batch1", 0xc84946ba3f8fd825),
    ("cs/d5/p0.1/batch7", 0x8945fffd2f08a596),
    ("cs/d5/p0.1/batch32", 0x0caf9ce57da7728a),
    ("cs/d5/p0.1/batch64", 0x9ca61b22bb2cfd36),
    ("cs/d5/p0.01/scalar", 0x3a50b15ba3bae19c),
    ("cs/d5/p0.01/batch1", 0x3a50b15ba3bae19c),
    ("cs/d5/p0.01/batch7", 0x7332bb1ab33f52ff),
    ("cs/d5/p0.01/batch32", 0xc2ca184958a98961),
    ("cs/d5/p0.01/batch64", 0x799b6d6bc35a88c6),
    ("cs/d5/p0.1/scalar/notopk", 0xb1bf8903d03ce5c2),
    ("cs/d5/p0.5/scalar/hostile", 0x089182740f9fab49),
    ("cs/d1/p0.5/scalar", 0x7a8f61b6b7da6c58),
    ("cs/d17/p0.5/scalar", 0x23afc27a1884fe3d),
    ("cs/d5/p0.1/batch32/notopk", 0xb8bc38674a65dc15),
    ("cs/d5/p0.5/batch32/hostile", 0x8a36dc8538cbd5ab),
    ("cs/d1/p0.5/batch32", 0x54726a27120ef540),
    ("cs/d17/p0.5/batch32", 0x173b4c0ff691b649),
    ("kary/d5/p1/scalar", 0x8fe67142fe7feb3c),
    ("kary/d5/p1/batch1", 0x8fe67142fe7feb3c),
    ("kary/d5/p1/batch7", 0xa17b70af1de95f0a),
    ("kary/d5/p1/batch32", 0xf1f389f7ad275eee),
    ("kary/d5/p1/batch64", 0xd6638c0bd7be0b51),
    ("kary/d5/p0.5/scalar", 0xff43d4eb40c49e6f),
    ("kary/d5/p0.5/batch1", 0xff43d4eb40c49e6f),
    ("kary/d5/p0.5/batch7", 0x3617ab47d0d50285),
    ("kary/d5/p0.5/batch32", 0xc02d70929a0a47f5),
    ("kary/d5/p0.5/batch64", 0xcedf9289827c86fc),
    ("kary/d5/p0.1/scalar", 0xc6ae2e96ac2005b7),
    ("kary/d5/p0.1/batch1", 0xc6ae2e96ac2005b7),
    ("kary/d5/p0.1/batch7", 0x53ecbfb85808a535),
    ("kary/d5/p0.1/batch32", 0xc074b04e9e3c2508),
    ("kary/d5/p0.1/batch64", 0x141f376f9fb58b74),
    ("kary/d5/p0.01/scalar", 0x7a658b9daf8fc6fb),
    ("kary/d5/p0.01/batch1", 0x7a658b9daf8fc6fb),
    ("kary/d5/p0.01/batch7", 0xb9655909d8885a09),
    ("kary/d5/p0.01/batch32", 0xf218c20c0136048c),
    ("kary/d5/p0.01/batch64", 0xe15cc030cfa93c90),
    ("kary/d5/p0.1/scalar/notopk", 0xf1419aa66d87fc1b),
    ("kary/d5/p0.5/scalar/hostile", 0x8c58565840710793),
    ("kary/d1/p0.5/scalar", 0x73289ba4b92478e6),
    ("kary/d17/p0.5/scalar", 0x53dee05d1fb47d2f),
    ("kary/d5/p0.1/batch32/notopk", 0xc1404bcda688336a),
    ("kary/d5/p0.5/batch32/hostile", 0x478b57ed962ded1e),
    ("kary/d1/p0.5/batch32", 0x54e2ab99094a31aa),
    ("kary/d17/p0.5/batch32", 0x1e808b0e65676d54),
    ("cs/d5/linerate/scalar", 0xc41ec54a20863150),
    ("cs/d5/correct/scalar", 0x50a381033ba35bf5),
    ("cs/d5/linerate/batch7", 0x732f16fc46330984),
    ("cs/d5/correct/batch7", 0xb1e337072f3d25e0),
    ("cs/d5/linerate/batch32", 0x0d6c91edd42e2d63),
    ("cs/d5/correct/batch32", 0xb49d44c8d9800bed),
];

#[test]
fn snapshots_match_the_recorded_hot_path() {
    let keys = stream();
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for case in cases() {
        let name = case.name();
        let got = case.run(&keys);
        table.push_str(&format!("    (\"{name}\", {got:#018x}),\n"));
        match GOLDEN.iter().find(|(n, _)| *n == name) {
            Some(&(_, want)) if want == got => {}
            Some(&(_, want)) => mismatches.push(format!("{name}: {got:#018x} != {want:#018x}")),
            None => mismatches.push(format!("{name}: no golden value")),
        }
    }
    println!("const GOLDEN: &[(&str, u64)] = &[\n{table}];");
    assert!(
        mismatches.is_empty(),
        "{} of {} cases differ:\n{}",
        mismatches.len(),
        cases().len(),
        mismatches.join("\n")
    );
}

#[test]
fn every_golden_value_names_a_case() {
    let names: Vec<String> = cases().iter().map(Case::name).collect();
    for (name, _) in GOLDEN {
        assert!(names.iter().any(|n| n == name), "stale golden {name}");
    }
}

/// At fixed `p` the batch path lands exactly the scalar path's counters:
/// per cell the adds happen in the same key order. (Row aggregates such as
/// Count-Min's running total are summed per burst, so whole snapshots
/// differ; the golden hashes pin those.)
#[test]
fn batch_counters_equal_scalar_counters_at_fixed_p() {
    let keys = stream();
    for p in PROBABILITIES {
        for burst in [1, 7, 32, 64] {
            let mode = Mode::Fixed { p };
            let mut scalar = NitroSketch::new(
                CountSketch::new(5, WIDTH, SKETCH_SEED),
                mode.clone(),
                SAMPLER_SEED,
            );
            let mut batched =
                NitroSketch::new(CountSketch::new(5, WIDTH, SKETCH_SEED), mode, SAMPLER_SEED);
            for &k in &keys {
                scalar.process(k, 1.5);
            }
            for chunk in keys.chunks(burst) {
                batched.process_batch(chunk, 1.5);
            }
            assert_eq!(
                scalar.inner().snapshot(),
                batched.inner().snapshot(),
                "p {p} burst {burst}"
            );
            let (s, b) = (scalar.stats(), batched.stats());
            assert_eq!(s.row_updates, b.row_updates);
            assert_eq!(s.sampled_packets, b.sampled_packets);
        }
    }
}
