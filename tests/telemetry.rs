//! End-to-end tests of the live telemetry plane: mid-flight scrapes that
//! converge to the final health records, the event journal narrating a
//! chaos failover, and the dependency-free Prometheus/JSON exporters
//! holding their format contract while a real fleet runs underneath.
//!
//! The exporter contract itself is pinned here too: both pages of a
//! registry whose every cell is distinct match checked-in goldens
//! byte-for-byte, every row of the metric tables survives render → parse,
//! and the exposition and JSON shape rules hold.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::metrics::schema::{
    Kind, Metric, Slot, CLUSTER_METRICS, NODE_METRICS, SHARD_METRICS,
};
use nitrosketch::metrics::scrape::{HistSummary, ScrapeError, ScrapeSnapshot};
use nitrosketch::metrics::telemetry::{
    Event, MeasurementGauges, NodeWatermark, ShardTelemetry, TelemetryRegistry,
};
use nitrosketch::prelude::*;
use nitrosketch::switch::{
    spawn_sharded, PipelineConfig, ShardedPipeline, ShardedTap, SupervisorConfig, ThreadFaultPlan,
};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Set every cell and histogram of `tel` from `base`, so that within one
/// instance no two exported values coincide (flags excepted: they are
/// 0/1, and `flags` gives each instance its own pattern). `dropped` and
/// the derived values sit below `base`: `lost_in_crash` = popped −
/// processed, `persist_lag` = processed − persisted_at, and `unaccounted`.
fn fill_shard(tel: &ShardTelemetry, base: u64, flags: [bool; 3]) {
    let k = base / 10_000;
    tel.offered.set(base + 9_000);
    tel.processed.set(base + 5_000);
    tel.dropped.set(700 + k);
    tel.popped.set(base + 5_000 + 30 + k);
    tel.persisted_at.set(base + 4_000 - k);
    let plain = [
        &tel.restarts,
        &tel.stalls,
        &tel.checkpoints,
        &tel.persisted,
        &tel.restores,
        &tel.downshifts,
        &tel.frames_persisted,
        &tel.bytes_persisted,
        &tel.ring_capacity,
        &tel.backlog,
        &tel.mode_code,
        &tel.topk_len,
        &tel.generation,
        &tel.seq_band,
    ];
    for (i, cell) in plain.into_iter().enumerate() {
        // Offsets 7..=11 held cells that no longer exist; skipping them
        // keeps every remaining value, and so the goldens, as they were.
        let i = if i < 6 { i } else { i + 5 };
        cell.set(base + 1 + i as u64);
    }
    tel.ring_occupancy.set_f64(0.25 + k as f64 / 1024.0);
    tel.sampling_p.set_f64(0.5 + k as f64 / 1024.0);
    tel.skew_load.set_f64(1.75 + k as f64 / 1024.0);
    tel.sign_bias.set_f64(0.125 + k as f64 / 1024.0);
    tel.converged.set(u64::from(flags[0]));
    tel.breaker_open.set(u64::from(flags[1]));
    tel.failed.set(u64::from(flags[2]));
    tel.batch_ns.record(512 * k);
    tel.batch_ns.record(2_048 * k);
    tel.persist_ns.record((1 << 20) + k);
}

/// A registry in which every exported cell holds a distinct value: two
/// live instances and one retired, a NaN gauge, an overflowed journal, a
/// promotion histogram, and a cluster section with two nodes.
fn distinct_registry() -> TelemetryRegistry {
    let reg = TelemetryRegistry::with_journal_capacity(4);
    let retired = reg.register(0);
    fill_shard(&retired, 10_000, [false, false, true]);
    reg.retire(&retired);
    let a = reg.register(0);
    fill_shard(&a, 20_000, [true, false, true]);
    let b = reg.register(1);
    fill_shard(&b, 30_000, [false, true, true]);
    b.sign_bias.set_f64(f64::NAN);
    for trips in 1..=5 {
        reg.record(Event::BreakerTrip { shard: 1, trips });
    }
    reg.promotion_ns().record(1 << 20);
    reg.promotion_ns().record(3_000);
    let c = reg.cluster();
    let cells = [
        &c.connected_nodes,
        &c.known_nodes,
        &c.degraded_epochs,
        &c.epochs_sealed,
        &c.node_losses,
        &c.backfill_frames,
        &c.frames_received,
        &c.frames_rejected,
        &c.heartbeats,
        &c.log_records,
        &c.log_persist_failures,
        &c.recovered_epochs,
        &c.recovered_records,
        &c.reconnect_backoffs,
        &c.delta_seals,
        &c.seal_bytes,
    ];
    for (i, cell) in cells.into_iter().enumerate() {
        cell.set(501 + i as u64);
    }
    c.publish_nodes(vec![
        NodeWatermark {
            node: 2,
            last_epoch: 9,
            connected: false,
        },
        NodeWatermark {
            node: 1,
            last_epoch: 11,
            connected: true,
        },
    ]);
    reg
}

/// Both scrape pages of [`distinct_registry`] (plus a `u64::MAX` record
/// in the clamp bucket) are pinned byte-for-byte. Regenerate after an
/// intentional format change with `NITRO_REGEN_GOLDEN=1 cargo test --test
/// telemetry` and review the diff.
#[test]
fn scrape_pages_match_their_goldens() {
    let reg = distinct_registry();
    reg.live_shards()[0].batch_ns.record(u64::MAX);
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, page) in [
        ("telemetry_golden.prom", reg.render_prometheus()),
        ("telemetry_golden.json", reg.render_json()),
    ] {
        let path = fixtures.join(file);
        if std::env::var_os("NITRO_REGEN_GOLDEN").is_some() {
            std::fs::write(&path, &page).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            page, golden,
            "{file} drifted; rerun with NITRO_REGEN_GOLDEN=1 and review the diff"
        );
    }
}

fn factory(i: usize) -> NitroSketch<CountMin> {
    NitroSketch::new(
        CountMin::new(4, 2048, 7),
        Mode::Fixed { p: 1.0 },
        500 + i as u64,
    )
    .with_topk(32)
}

fn feed(tap: &mut ShardedTap, keys: impl Iterator<Item = u64>) {
    for (i, k) in keys.enumerate() {
        tap.offer(k, i as u64);
        if i % 512 == 0 {
            std::thread::yield_now(); // single-core CI: give workers air
        }
    }
}

fn drain(tap: &mut ShardedTap, pipeline: &ShardedPipeline<CountMin>, processed: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while pipeline.processed() < processed {
        tap.sync_routes();
        assert!(
            std::time::Instant::now() < deadline,
            "fleet never processed {processed} observations"
        );
        std::thread::yield_now();
    }
}

/// A scrape taken while the producer is mid-stream must be internally
/// consistent (saturating identity, clamped ratio), and once the fleet has
/// quiesced the registry's fleet health must equal the joined daemons'
/// final records field for field.
#[test]
fn telemetry_live_scrape_matches_final_health_once_quiesced() {
    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: 2,
            supervisor: SupervisorConfig {
                ring_capacity: 1 << 16,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn");
    let registry = Arc::clone(pipeline.telemetry());

    feed(&mut tap, (0..10_000u64).map(|i| i % 64));
    // Mid-flight: the scrape races the workers, but every derived quantity
    // must stay well-formed — no underflow, no ratio above one.
    let mid = registry.fleet_health();
    assert!(mid.offered <= 20_000);
    assert!(mid.unaccounted() <= mid.offered);
    assert!((0.0..=1.0).contains(&mid.delivery_ratio()));
    let page = pipeline.scrape();
    assert!(
        page.contains("nitro_offered_total"),
        "scrape serves counters mid-run"
    );

    feed(&mut tap, (0..10_000u64).map(|i| i % 64));
    drain(&mut tap, &pipeline, 20_000);
    drop(tap);
    let (_, fleet) = pipeline.finish().expect("clean run");

    // Quiesced: the join's happens-before edge makes every relaxed counter
    // final, so the live registry and the returned records agree exactly.
    let live = registry.fleet_health();
    assert_eq!(
        live,
        fleet.total(),
        "live scrape diverged from final health"
    );
    assert_eq!(live.offered, 20_000);
    assert_eq!(live.unaccounted(), 0);
}

/// Chaos failover: kill shard 0's worker with a spent restart budget, let
/// the rotation promote it from its last checkpoint, and require
/// the journal to narrate it — a `Restart` on the victim followed by a
/// `Promotion` carrying the right shard id and the first fresh sequence
/// band (`1 << 32`).
#[test]
fn telemetry_journal_narrates_promotion_after_chaos_failover() {
    let plan = ThreadFaultPlan::new();
    plan.panic_after(2_000);
    let (mut tap, mut pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: 2,
            supervisor: SupervisorConfig {
                checkpoint_every: 500,
                max_restarts: 0,
                ..Default::default()
            },
            fault_plans: vec![(0, plan)],
            failover: true,
            ..Default::default()
        },
    )
    .expect("spawn");
    feed(&mut tap, (0..20_000u64).map(|i| i % 16));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pipeline.failed_shards().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "shard 0 never exhausted its budget"
        );
        std::thread::yield_now();
    }
    pipeline.epoch_view().expect("rotation promotes in-line");
    assert_eq!(pipeline.promotions(), 1);

    let events: Vec<Event> = pipeline
        .telemetry()
        .drain_events()
        .into_iter()
        .map(|e| e.event)
        .collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Restart { shard: 0, .. })),
        "missing the victim's Restart event: {events:?}"
    );
    let promotion = events
        .iter()
        .find_map(|e| match *e {
            Event::Promotion {
                shard,
                band,
                duration_ns,
            } => Some((shard, band, duration_ns)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no Promotion event in {events:?}"));
    assert_eq!(promotion.0, 0, "promotion must name the failed shard");
    assert_eq!(
        promotion.1,
        1 << 32,
        "first promotion writes into band 1<<32"
    );
    assert_eq!(pipeline.telemetry().promotion_ns().count(), 1);

    // The registry reflects the handover: the replaced primary's instance
    // is retired, and the shard id is now served by a fresh incarnation
    // stamped with the new band.
    let retired = pipeline.telemetry().retired_shards();
    assert_eq!(retired.len(), 1);
    assert_eq!(retired[0].shard, 0);
    let successor = pipeline
        .telemetry()
        .live_shards()
        .into_iter()
        .find(|t| t.shard == 0)
        .expect("shard 0 has a live instance");
    assert!(successor.incarnation > retired[0].incarnation);
    assert_eq!(successor.seq_band.get(), 1 << 32);

    drain(&mut tap, &pipeline, 0); // sync routes so draining can finish
    drop(tap);
    let (_, fleet) = pipeline.finish().expect("promoted fleet finishes clean");
    assert_eq!(fleet.unaccounted(), 0, "identity must survive promotion");
}

/// The Prometheus page scraped off a live fleet must hold the exposition
/// contract: exactly one `# TYPE` line per family, every sample belonging
/// to a declared family, and per-shard series carrying `shard`/`inst`
/// labels. The JSON sibling must be structurally balanced and NaN-free.
#[test]
fn telemetry_prometheus_scrape_parses_while_fleet_runs() {
    let (mut tap, pipeline) = spawn_sharded(
        factory,
        PipelineConfig {
            shards: 3,
            ..Default::default()
        },
    )
    .expect("spawn");
    feed(&mut tap, (0..6_000u64).map(|i| i % 32));
    drain(&mut tap, &pipeline, 6_000);

    let page = pipeline.scrape();
    let mut typed = HashSet::new();
    for line in page.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line
            .split_whitespace()
            .nth(2)
            .expect("TYPE line has a name");
        assert!(
            typed.insert(name.to_string()),
            "duplicate # TYPE for {name}"
        );
    }
    for line in page
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let name = line
            .split(['{', ' '])
            .next()
            .expect("sample line has a name");
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name);
        assert!(
            typed.contains(family),
            "sample {name} has no # TYPE declaration"
        );
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
    }
    for shard in 0..3 {
        assert!(
            page.contains(&format!("shard=\"{shard}\"")),
            "missing per-shard series for shard {shard}"
        );
    }
    assert!(
        page.contains("inst=\""),
        "series must carry the incarnation label"
    );
    assert!(
        page.contains("nitro_batch_ns_bucket"),
        "histograms must export buckets"
    );

    let json = pipeline.scrape_json();
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON scrape");
    assert!(
        !json.contains("NaN"),
        "JSON must render non-finite gauges as null"
    );

    drop(tap);
    pipeline.finish().expect("clean shutdown");
}

/// One row's value in two records: asserts they agree (a `NaN` matches a
/// `NaN`) and returns the value as text, empty for a flag.
fn same_value(key: &str, want: Slot<'_>, got: Slot<'_>) -> String {
    let summary = |h: &HistSummary| (h.count, h.sum, h.p50, h.p99, h.max);
    match (want, got) {
        (Slot::U64(w), Slot::U64(g)) => {
            assert_eq!(w, g, "{key}");
            w.to_string()
        }
        (Slot::Derived(w), Slot::Derived(g)) => {
            assert_eq!(w, g, "{key}");
            w.to_string()
        }
        (Slot::F64(w), Slot::F64(g)) => {
            assert!(w == g || (w.is_nan() && g.is_nan()), "{key}: {w} vs {g}");
            format!("{w:?}")
        }
        (Slot::Flag(w), Slot::Flag(g)) => {
            assert_eq!(w, g, "{key}");
            String::new()
        }
        (Slot::Hist(w), Slot::Hist(g)) => {
            assert_eq!(summary(w), summary(g), "{key}");
            format!("{:?}", summary(w))
        }
        _ => panic!("{key}: the two records hold different slot kinds"),
    }
}

/// Every row of `rows` agrees between `want` and `got`, declares a kind
/// that matches its slot, and (flags aside) holds a value no other row
/// of `want` holds — so two swapped accessors cannot pass unnoticed.
fn assert_rows_match<T>(rows: &[Metric<T>], want: &mut T, got: &mut T) {
    let mut seen = HashSet::new();
    for row in rows {
        let slot = (row.slot)(want);
        assert!(
            matches!(
                (row.kind, &slot),
                (Kind::FloatGauge, Slot::F64(_))
                    | (Kind::Histogram, Slot::Hist(_))
                    | (
                        Kind::Counter | Kind::Gauge,
                        Slot::U64(_) | Slot::Flag(_) | Slot::Derived(_)
                    )
            ),
            "{}: kind {:?} does not fit its slot",
            row.key,
            row.kind
        );
        let value = same_value(row.key, slot, (row.slot)(got));
        assert!(
            value.is_empty() || seen.insert(value.clone()),
            "{}: value {value} repeats another row's",
            row.key
        );
    }
}

/// `render_json` → `ScrapeSnapshot::parse` returns what `snapshot()` read,
/// row for row, for every shard, cluster and node row — `NaN` included,
/// via `null`.
#[test]
fn json_scrape_round_trips_every_table_row() {
    let reg = distinct_registry();
    let parsed = ScrapeSnapshot::parse(&reg.render_json()).expect("scrape parses");
    assert_eq!((parsed.shards.len(), parsed.retired.len()), (2, 1));
    let instances = reg.live_shards().into_iter().chain(reg.retired_shards());
    for (tel, mut got) in instances.zip(parsed.shards.into_iter().chain(parsed.retired)) {
        let mut want = tel.snapshot();
        assert_eq!((want.shard, want.inst), (got.shard, got.inst));
        assert_rows_match(SHARD_METRICS, &mut want, &mut got);
    }
    let mut want = reg.cluster().snapshot();
    let mut got = parsed.cluster.expect("cluster section present");
    assert_rows_match(CLUSTER_METRICS, &mut want, &mut got);
    assert_eq!(want.nodes.len(), 2);
    for (w, g) in want.nodes.iter_mut().zip(&mut got.nodes) {
        assert_eq!(w.node, g.node);
        assert_rows_match(NODE_METRICS, w, g);
    }
    assert_eq!(parsed.fleet, reg.fleet_health());
    assert_eq!((parsed.events_recorded, parsed.events_dropped), (4, 1));
}

fn populated_registry() -> TelemetryRegistry {
    let reg = TelemetryRegistry::new();
    let a = reg.register(0);
    a.offered.add(1_000);
    a.popped.add(990);
    a.processed.add(980);
    a.dropped.add(10);
    a.persisted_at.set(900);
    a.ring_capacity.set(1 << 16);
    a.ring_occupancy.set_f64(0.25);
    a.backlog.set(123);
    a.publish_gauges(&MeasurementGauges {
        sampling_p: 0.5,
        mode_code: 1,
        converged: true,
        topk_len: 32,
    });
    a.batch_ns.record(512);
    a.batch_ns.record(2048);
    let b = reg.register(1);
    b.offered.add(500);
    b.processed.add(500);
    b.sign_bias.set_f64(f64::NAN);
    reg.record(Event::BreakerTrip { shard: 0, trips: 1 });
    reg
}

#[test]
fn prometheus_output_parses_with_unique_type_lines() {
    let reg = TelemetryRegistry::new();
    let a = reg.register(0);
    let b = reg.register(1);
    a.offered.add(10);
    a.processed.add(10);
    a.batch_ns.record(512);
    b.offered.add(7);
    reg.promotion_ns().record(1 << 20);
    let text = reg.render_prometheus();

    let mut declared = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric kind {kind}"
            );
            declared.push(name.to_string());
        }
    }
    let mut unique = declared.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        declared.len(),
        "metric families declared once"
    );

    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // name{labels} value  |  name value
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "NaN",
            "unparseable sample value {value:?} in {line:?}"
        );
        let name = match name_and_labels.split_once('{') {
            Some((n, rest)) => {
                assert!(rest.ends_with('}'), "unclosed label set in {line:?}");
                n
            }
            None => name_and_labels,
        };
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| declared.contains(&b.to_string()))
            .unwrap_or(name);
        assert!(
            declared.contains(&base.to_string()),
            "sample {name} has no # TYPE declaration"
        );
    }
    assert!(text.contains("nitro_offered_total{shard=\"0\",inst=\"1\"} 10"));
    assert!(text.contains("nitro_offered_total{shard=\"1\",inst=\"2\"} 7"));
    assert!(text.contains("nitro_promotion_duration_ns_bucket{le=\"+Inf\"} 1"));
}

#[test]
fn prometheus_exposition_conformance() {
    let reg = TelemetryRegistry::new();
    let cluster = reg.cluster();
    cluster.publish_nodes(vec![
        NodeWatermark {
            node: 2,
            last_epoch: 9,
            connected: false,
        },
        NodeWatermark {
            node: 1,
            last_epoch: 11,
            connected: true,
        },
    ]);
    let a = reg.register(0);
    a.offered.add(10);
    a.batch_ns.record(512);
    a.batch_ns.record(u64::MAX); // lands in the clamp bucket
    reg.promotion_ns().record(7);
    let text = reg.render_prometheus();

    // Every family carries exactly one HELP and one TYPE line, HELP
    // first, and every sample belongs to a declared family.
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap().to_string();
            assert!(
                rest.len() > name.len() + 1,
                "HELP line for {name} has no text"
            );
            assert!(!helped.contains(&name), "duplicate HELP for {name}");
            helped.push(name);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap().to_string();
            assert_eq!(
                helped.last(),
                Some(&name),
                "TYPE for {name} must directly follow its HELP"
            );
            typed.push(name);
        }
    }
    assert_eq!(helped, typed, "every family has both HELP and TYPE");
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name_and_labels = line.rsplit_once(' ').unwrap().0;
        let name = name_and_labels
            .split_once('{')
            .map_or(name_and_labels, |(n, _)| n);
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.contains(&b.to_string()))
            .unwrap_or(name);
        assert!(
            typed.contains(&base.to_string()),
            "undeclared family {name}"
        );
    }

    // Histogram buckets are cumulative with strictly increasing finite
    // `le` bounds, the terminal bucket is `+Inf`, and `+Inf == _count`.
    let labels = "{shard=\"0\",inst=\"1\"";
    let mut les: Vec<(f64, u64)> = Vec::new();
    let mut count = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("nitro_batch_ns_bucket") {
            if !rest.starts_with(labels) {
                continue;
            }
            let le = rest
                .split("le=\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap();
            let cum: u64 = rest.rsplit_once(' ').unwrap().1.parse().unwrap();
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap()
            };
            les.push((le, cum));
        } else if let Some(rest) = line.strip_prefix("nitro_batch_ns_count") {
            if rest.starts_with(labels) {
                count = Some(rest.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap());
            }
        }
    }
    assert!(les.len() >= 2, "at least one finite bucket plus +Inf");
    assert!(
        les.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
        "le bounds strictly increase and counts are cumulative: {les:?}"
    );
    let (last_le, last_cum) = *les.last().unwrap();
    assert!(last_le.is_infinite(), "terminal bucket is +Inf");
    assert_eq!(Some(last_cum), count, "+Inf bucket equals _count");
    // The clamp bucket holds u64::MAX, so no finite le may claim it:
    // the largest finite bound must undercount the +Inf bucket.
    let biggest_finite = les[les.len() - 2];
    assert!(
        biggest_finite.1 < last_cum,
        "clamped overflow values must only appear under +Inf: {les:?}"
    );
    assert!(
        text.contains("nitro_batch_ns_sum{shard=\"0\",inst=\"1\"}"),
        "_sum series present"
    );

    // Per-node watermark families render sorted by node id.
    let epochs: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("nitro_cluster_node_last_epoch{"))
        .collect();
    assert_eq!(
        epochs,
        vec![
            "nitro_cluster_node_last_epoch{node=\"1\"} 11",
            "nitro_cluster_node_last_epoch{node=\"2\"} 9",
        ]
    );
    assert!(text.contains("nitro_cluster_node_connected{node=\"1\"} 1"));
    assert!(text.contains("nitro_cluster_node_connected{node=\"2\"} 0"));
}

#[test]
fn json_snapshot_is_well_formed_and_nan_free() {
    let reg = TelemetryRegistry::new();
    let a = reg.register(0);
    a.offered.add(3);
    a.processed.add(3);
    // sampling_p never set: reads as f64 0.0; occupancy set to NaN
    // must render as null, not break the JSON.
    a.ring_occupancy.set_f64(f64::NAN);
    let json = reg.render_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(
        !json.contains("NaN"),
        "non-finite gauges must render as null"
    );
    assert!(json.contains("\"ring_occupancy\":null"));
    assert!(json.contains("\"offered\":3"));
    assert!(json.contains("\"shards\":["));
    assert!(json.contains("\"retired\":[]"));
    // Balanced braces/brackets — cheap structural sanity for a
    // renderer with no serializer behind it.
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0);
}

#[test]
fn snapshot_parses_live_registry_render() {
    let reg = populated_registry();
    let snap = ScrapeSnapshot::parse(&reg.render_json()).expect("parse");
    assert_eq!(snap.shards.len(), 2);
    assert_eq!(snap.retired.len(), 0);
    assert_eq!(snap.events_recorded, 1);
    assert!(snap.cluster.is_none(), "no aggregator, no cluster section");
    let s0 = &snap.shards[0];
    assert_eq!(s0.shard, 0);
    assert_eq!(s0.inst, 1);
    assert_eq!(s0.health.offered, 1_000);
    assert_eq!(s0.health.processed, 980);
    assert_eq!(s0.health.lost_in_crash, 10, "popped - processed");
    assert_eq!(s0.ring_capacity, 1 << 16);
    assert_eq!(s0.backlog, 123);
    assert_eq!(s0.persist_lag, 80, "processed 980, persisted at 900");
    assert_eq!(s0.ring_occupancy, 0.25);
    assert_eq!(s0.sampling_p, 0.5);
    assert_eq!(s0.mode_code, 1);
    assert!(s0.converged);
    assert_eq!(s0.topk_len, 32);
    assert_eq!(s0.batch_ns.count, 2);
    assert_eq!(s0.batch_ns.max, 2048);
    let s1 = &snap.shards[1];
    assert!(s1.sign_bias.is_nan(), "null gauge reads back as NaN");
    assert_eq!(snap.fleet.offered, 1_500);
}

#[test]
fn snapshot_parses_cluster_section_with_watermarks() {
    let reg = populated_registry();
    let c = reg.cluster();
    c.connected_nodes.set(2);
    c.known_nodes.set(3);
    c.epochs_sealed.add(7);
    c.publish_nodes(vec![
        NodeWatermark {
            node: 1,
            last_epoch: 9,
            connected: true,
        },
        NodeWatermark {
            node: 2,
            last_epoch: 7,
            connected: false,
        },
    ]);
    let snap = ScrapeSnapshot::parse(&reg.render_json()).expect("parse");
    let cl = snap.cluster.expect("cluster section present");
    assert_eq!(cl.connected_nodes, 2);
    assert_eq!(cl.known_nodes, 3);
    assert_eq!(cl.epochs_sealed, 7);
    assert_eq!(
        cl.nodes,
        vec![
            NodeWatermark {
                node: 1,
                last_epoch: 9,
                connected: true
            },
            NodeWatermark {
                node: 2,
                last_epoch: 7,
                connected: false
            },
        ]
    );
}

#[test]
fn snapshot_rejects_wrong_shapes() {
    assert!(matches!(
        ScrapeSnapshot::parse("[]"),
        Err(ScrapeError::Shape("document is not an object"))
    ));
    assert!(matches!(
        ScrapeSnapshot::parse("{\"shards\":3,\"retired\":[]}"),
        Err(ScrapeError::Shape("missing shards array"))
    ));
    assert!(matches!(
        ScrapeSnapshot::parse("not json at all"),
        Err(ScrapeError::Json(_))
    ));
}
