//! Deterministic cluster simulation: seeded fault-schedule exploration.
//!
//! Each seed derives a fault schedule (node crashes/restarts, aggregator
//! kill + log recovery, partitions, clock skew, torn writes) and a stream
//! of per-message network fates (delay/reorder, duplication, corruption,
//! connection breaks), runs the whole cluster — sans-io protocol cores,
//! real durable stores, virtual time — on one thread, and checks five
//! invariant oracles. `NITRO_SIM_SEEDS` overrides the sweep width
//! (default 200).

use nitro_switch::sim::{explore, run, shrink, Oracle, Schedule, SimConfig};
use std::collections::{BTreeMap, BTreeSet};

fn seed_count() -> u64 {
    std::env::var("NITRO_SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// The headline sweep: every seed's generated fault schedule must pass
/// all five oracles — accounting identity, persist-before-publish,
/// epoch-status monotonicity, post-heal convergence, heavy-hitter
/// recall.
#[test]
fn seed_sweep_all_oracles_green() {
    let cfg = SimConfig::default();
    let n = seed_count();
    let rep = explore(&cfg, 0..n);
    assert_eq!(rep.runs, n);
    assert!(
        rep.failures.is_empty(),
        "{} of {} seeds violated an oracle: {:?}",
        rep.failures.len(),
        rep.runs,
        rep.failures
    );
}

/// The debugging contract: the same seed and schedule replay to a
/// byte-identical event journal.
#[test]
fn same_seed_replays_byte_identical_journal() {
    let cfg = SimConfig::default();
    let schedule = Schedule::generate(&cfg, 1729);
    let a = run(&cfg, 1729, &schedule);
    let b = run(&cfg, 1729, &schedule);
    assert!(!a.journal.is_empty());
    assert_eq!(a.journal, b.journal);
    assert_ne!(
        a.journal,
        run(&cfg, 1730, &Schedule::generate(&cfg, 1730)).journal,
        "different seeds should produce different histories"
    );
}

/// The fault vocabulary is actually exercised: across a modest sweep,
/// schedules apply faults, nodes lose their connections mid-run, and the
/// aggregator upgrades degraded epochs via backfill — the reconnect
/// storm + kill/recover + partition-heal regression surface.
#[test]
fn fault_sweep_exercises_backfill_and_recovery() {
    let cfg = SimConfig::default();
    let mut backfills = 0;
    let mut faults = 0;
    for seed in 0..40 {
        let schedule = Schedule::generate(&cfg, seed);
        let rep = run(&cfg, seed, &schedule);
        assert!(
            rep.violation.is_none(),
            "seed {seed}: {:?}\n{}",
            rep.violation,
            rep.journal.join("\n")
        );
        backfills += rep.backfills;
        faults += rep.faults_applied;
    }
    assert!(faults > 0, "generated schedules never applied a fault");
    assert!(
        backfills > 0,
        "40 seeds of crashes and partitions never triggered a backfill"
    );
}

/// Harness self-test: break a real invariant (disable the aggregator's
/// frame dedup so duplicated deliveries double-merge), and the explorer
/// must catch it, shrink the schedule to a minimal artifact (≤ 10
/// events), and the artifact must replay to the same oracle failure
/// after a spec round-trip.
#[test]
fn broken_dedup_is_caught_shrunk_and_replayable() {
    let cfg = SimConfig {
        mutate_no_dedup: true,
        ..Default::default()
    };
    let mut found = None;
    for seed in 0..50 {
        let schedule = Schedule::generate(&cfg, seed);
        let rep = run(&cfg, seed, &schedule);
        if let Some(v) = rep.violation {
            found = Some((seed, schedule, v));
            break;
        }
    }
    let (seed, schedule, violation) =
        found.expect("a disabled dedup must be caught within 50 seeds");
    assert_eq!(violation.oracle, Oracle::Accounting, "{violation:?}");

    let shrunk = shrink(&cfg, seed, &schedule, violation.oracle);
    assert!(
        shrunk.events.len() <= 10,
        "shrinking stalled at {} events:\n{}",
        shrunk.events.len(),
        shrunk.to_spec()
    );

    // The minimal artifact round-trips through its spec and still
    // reproduces the same failure.
    let replayed = Schedule::from_spec(&shrunk.to_spec()).unwrap();
    assert_eq!(replayed, shrunk);
    let rep = run(&cfg, seed, &replayed);
    assert_eq!(
        rep.violation
            .expect("shrunk schedule must still fail")
            .oracle,
        violation.oracle
    );

    // And the un-mutated aggregator passes the identical schedule.
    let honest = SimConfig::default();
    let rep = run(&honest, seed, &replayed);
    assert!(rep.violation.is_none(), "{:?}", rep.violation);
}

/// The router's fates reach delta seals: across a sweep, deltas are
/// duplicated (the aggregator ignores the copy), corrupted (it refuses
/// and closes) and lost with their connection, every run stays green,
/// and every connection's first fresh seal is a keyframe.
#[test]
fn network_fates_hit_delta_seals() {
    let cfg = SimConfig::default();
    let mut fates = BTreeSet::new();
    let mut deltas = 0;
    for seed in 0..40 {
        let rep = run(&cfg, seed, &Schedule::generate(&cfg, seed));
        assert!(rep.violation.is_none(), "seed {seed}: {:?}", rep.violation);
        // Per node: whether its current connection shipped a fresh seal.
        let mut shipped: BTreeMap<&str, bool> = BTreeMap::new();
        for line in &rep.journal {
            let words: Vec<&str> = line.split_whitespace().skip(1).collect();
            match words[..] {
                [node, "dialed", _] | ["convergence", "dial", node, _] => {
                    shipped.insert(node, false);
                }
                [node, "ships", epoch, "as", kind] => {
                    if !shipped.insert(node, true).unwrap_or(true) {
                        assert_eq!(kind, "SealEpoch", "seed {seed}: {node} {epoch}");
                    }
                    deltas += usize::from(kind == "SealDelta");
                }
                ["net", fate, _, "SealDelta"] | ["net", fate, _, "(dropped", "SealDelta)"] => {
                    fates.insert(fate.to_string());
                }
                _ => {}
            }
        }
    }
    assert!(deltas > 0);
    assert_eq!(Vec::from_iter(fates), ["break", "corrupt", "dup"]);
}
