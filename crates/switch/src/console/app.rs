//! The dashboard itself: a [`ConsoleApp`] consumes timestamped
//! [`ScrapeSnapshot`]s and composes one [`Frame`] per refresh.
//!
//! Rates are *scrape-to-scrape deltas*: the telemetry plane exports only
//! monotonic counters, so the console keeps the previous snapshot per
//! shard and divides the processed-counter delta by the timestamp delta.
//! A counter that moved backwards (or an incarnation change) means the
//! shard restarted — the delta restarts from the new counter value
//! instead of going negative. The last [`SPARK_WINDOW`] per-interval
//! rates feed each shard's sparkline.
//!
//! Everything is computed from pushed frames alone — no wall clock, no
//! TTY — so the same `ConsoleApp` drives live mode, `--replay`, and the
//! byte-identical `--once` golden frames.

use super::framebuffer::{Color, Frame, Style};
use super::widgets::{fmt_count, fmt_ns, fmt_si, gauge, mode_name, pad_left, pad_right, sparkline};
use nitro_metrics::scrape::{HistSummary, ScrapeSnapshot, ShardSnapshot};
use std::collections::{BTreeMap, VecDeque};

/// Sparkline width: how many scrape intervals of history each shard row
/// shows.
pub const SPARK_WINDOW: usize = 16;

/// Journal-tail length: how many recent events the bottom panel shows.
pub const EVENT_TAIL: usize = 8;

#[derive(Debug, Default)]
struct ShardHistory {
    /// `(incarnation, processed)` at the previous scrape.
    prev: Option<(u64, u64)>,
    /// Per-interval throughput samples, oldest first.
    rates: VecDeque<f64>,
    /// Newest computed rate (observations per second).
    current: f64,
}

impl ShardHistory {
    fn advance(&mut self, inst: u64, processed: u64, dt_ms: Option<u64>) {
        if let (Some((prev_inst, prev_processed)), Some(dt)) = (self.prev, dt_ms) {
            if dt > 0 {
                let delta = if inst == prev_inst && processed >= prev_processed {
                    processed - prev_processed
                } else {
                    // Restarted incarnation: its counters begin again.
                    processed
                };
                self.current = delta as f64 * 1000.0 / dt as f64;
                self.rates.push_back(self.current);
                while self.rates.len() > SPARK_WINDOW {
                    self.rates.pop_front();
                }
            }
        }
        self.prev = Some((inst, processed));
    }
}

/// The operator console's model: pushed scrape frames in, drawn
/// [`Frame`]s out.
#[derive(Debug, Default)]
pub struct ConsoleApp {
    frames: u64,
    first_ts: Option<u64>,
    last_ts: Option<u64>,
    snapshot: Option<ScrapeSnapshot>,
    shard_hist: BTreeMap<u32, ShardHistory>,
    fleet: ShardHistory,
    events: VecDeque<String>,
}

impl ConsoleApp {
    /// A console with no frames pushed yet.
    pub fn new() -> Self {
        ConsoleApp::default()
    }

    /// Frames pushed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Ingest one scrape frame: update rate histories and the journal
    /// tail. `ts_ms` must be monotonic (recording timestamps are).
    pub fn push(&mut self, ts_ms: u64, snapshot: ScrapeSnapshot, events: Vec<String>) {
        let dt_ms = self.last_ts.map(|t| ts_ms.saturating_sub(t));
        for shard in &snapshot.shards {
            self.shard_hist.entry(shard.shard).or_default().advance(
                shard.inst,
                shard.health.processed,
                dt_ms,
            );
        }
        // Fleet totals aggregate live + retired, so the fleet counter is
        // monotonic across restarts; incarnation 0 keeps the same-inst
        // delta path.
        self.fleet.advance(0, snapshot.fleet.processed, dt_ms);
        for ev in events {
            self.events.push_back(ev);
            while self.events.len() > EVENT_TAIL {
                self.events.pop_front();
            }
        }
        self.frames += 1;
        self.first_ts.get_or_insert(ts_ms);
        self.last_ts = Some(ts_ms);
        self.snapshot = Some(snapshot);
    }

    /// Rows the next [`ConsoleApp::draw`] will need at the current state.
    fn rows_needed(&self) -> usize {
        let Some(snap) = &self.snapshot else { return 3 };
        // The cluster line, the seals line, then three nodes a row.
        let cluster_rows = snap
            .cluster
            .as_ref()
            .map_or(0, |c| 2 + c.nodes.len().div_ceil(3));
        // header + fleet + rule + table header
        4 + snap.shards.len().max(1)
            + 2 // latency + promotions
            + cluster_rows
            + 1 // journal rule
            + self.events.len().max(1)
    }

    /// Compose the current state into a frame `width` columns wide. The
    /// height is whatever the content needs.
    pub fn draw(&self, width: usize) -> Frame {
        let width = width.max(60);
        let mut f = Frame::new(width, self.rows_needed());
        let Some(snap) = &self.snapshot else {
            f.print(1, 1, "waiting for first scrape …", Style::fg(Color::Gray));
            return f;
        };

        let chrome = Style::fg(Color::Gray);
        let label = Style::fg(Color::Cyan);

        // ── header ──────────────────────────────────────────────────
        let elapsed = (self.last_ts.unwrap_or(0) - self.first_ts.unwrap_or(0)) as f64 / 1000.0;
        let mut x = f.print(1, 0, "nitro top", Style::bold(Color::Cyan));
        x = f.print(x, 0, &format!("  frame {}", self.frames), Style::PLAIN);
        x = f.print(x, 0, &format!("  t+{elapsed:.2}s"), Style::PLAIN);
        x = f.print(
            x,
            0,
            &format!(
                "  shards {} live / {} retired",
                snap.shards.len(),
                snap.retired.len()
            ),
            Style::PLAIN,
        );
        f.print(
            x,
            0,
            &format!(
                "  events {} ({} dropped)",
                fmt_count(snap.events_recorded),
                snap.events_dropped
            ),
            Style::PLAIN,
        );

        // ── fleet health ────────────────────────────────────────────
        let h = &snap.fleet;
        let mut x = f.print(1, 1, "fleet ", label);
        x = f.print(
            x,
            1,
            &format!("{}/s  ", fmt_si(self.fleet.current)),
            Style::bold(Color::Default),
        );
        f.print(
            x,
            1,
            &format!(
                "off {}  proc {}  drop {}  lost {}  rst {}  stall {}  ckpt {}  down {}",
                fmt_count(h.offered),
                fmt_count(h.processed),
                fmt_count(h.dropped),
                fmt_count(h.lost_in_crash),
                h.restarts,
                h.stalls,
                fmt_count(h.persisted),
                h.downshifts
            ),
            Style::PLAIN,
        );

        f.hline(2, '─', chrome);

        // ── shard table ─────────────────────────────────────────────
        let header = format!(
            " {} {} {}  {} {} {} {} {} {} {}",
            pad_left("id", 3),
            pad_left("thr/s", 8),
            pad_left("trend", SPARK_WINDOW),
            pad_right("ring", 15),
            pad_left("backlog", 7),
            pad_left("p", 6),
            pad_left("mode", 4),
            pad_left("conv", 4),
            pad_left("brk", 4),
            "state",
        );
        f.print(0, 3, &header, chrome);
        let mut shards: Vec<&ShardSnapshot> = snap.shards.iter().collect();
        shards.sort_by_key(|s| (s.shard, s.inst));
        for (i, s) in shards.iter().enumerate() {
            let y = 4 + i;
            let hist = self.shard_hist.get(&s.shard);
            let rate = hist.map_or(0.0, |h| h.current);
            let empty = VecDeque::new();
            let rates = hist.map_or(&empty, |h| &h.rates);
            let spark: Vec<f64> = rates.iter().copied().collect();
            let occupancy = if s.ring_occupancy.is_finite() {
                s.ring_occupancy
            } else {
                0.0
            };
            let mut x = f.print(
                0,
                y,
                &format!(" {}", pad_left(&s.shard.to_string(), 3)),
                label,
            );
            x = f.print(
                x,
                y,
                &format!(" {}", pad_left(&format!("{}/s", fmt_si(rate)), 8)),
                Style::PLAIN,
            );
            x = f.print(
                x,
                y,
                &format!(" {}", sparkline(&spark, SPARK_WINDOW)),
                Style::fg(Color::Green),
            );
            x = f.print(
                x,
                y,
                &format!(
                    "  {} {}",
                    gauge(occupancy, 10),
                    pad_left(&format!("{:.0}%", occupancy * 100.0), 4)
                ),
                Style::PLAIN,
            );
            x = f.print(
                x,
                y,
                &format!(" {}", pad_left(&fmt_count(s.backlog), 7)),
                Style::PLAIN,
            );
            let p = if s.sampling_p.is_finite() {
                format!("{:.3}", s.sampling_p)
            } else {
                "-".to_string()
            };
            x = f.print(x, y, &format!(" {}", pad_left(&p, 6)), Style::PLAIN);
            let mode_style = match s.mode_code {
                2 => Style::fg(Color::Green),
                1 => Style::fg(Color::Yellow),
                _ => Style::PLAIN,
            };
            x = f.print(
                x,
                y,
                &format!(" {}", pad_left(mode_name(s.mode_code), 4)),
                mode_style,
            );
            let (conv, conv_style) = if s.converged {
                ("yes", Style::fg(Color::Green))
            } else {
                ("no", Style::fg(Color::Yellow))
            };
            x = f.print(x, y, &format!(" {}", pad_left(conv, 4)), conv_style);
            let (brk, brk_style) = if s.breaker_open {
                ("OPEN", Style::bold(Color::Red))
            } else {
                ("-", chrome)
            };
            x = f.print(x, y, &format!(" {}", pad_left(brk, 4)), brk_style);
            let (state, state_style) = if s.failed {
                ("FAILED", Style::bold(Color::Red))
            } else if s.health.restarts > 0 || s.health.stalls > 0 {
                ("shaky", Style::fg(Color::Yellow))
            } else {
                ("ok", Style::fg(Color::Green))
            };
            f.print(x, y, &format!(" {state}"), state_style);
        }
        if shards.is_empty() {
            f.print(1, 4, "(no live shards)", chrome);
        }

        // ── latency ─────────────────────────────────────────────────
        let lat_y = 4 + shards.len().max(1);
        let hist_cell = |name: &str, h: &HistSummary| {
            if h.count == 0 {
                format!("{name} -")
            } else {
                format!(
                    "{name} p50 {} p99 {} max {}",
                    fmt_ns(h.p50),
                    fmt_ns(h.p99),
                    fmt_ns(h.max)
                )
            }
        };
        let (batch, persist) = snap.shards.iter().fold(
            (HistSummary::default(), HistSummary::default()),
            |(b, p), s| (merge_hist(b, s.batch_ns), merge_hist(p, s.persist_ns)),
        );
        let mut x = f.print(1, lat_y, "latency ", label);
        f.print(
            x,
            lat_y,
            &format!(
                "{}   {}",
                hist_cell("batch", &batch),
                hist_cell("persist", &persist)
            ),
            Style::PLAIN,
        );
        x = f.print(1, lat_y + 1, "fleet   ", label);
        f.print(
            x,
            lat_y + 1,
            &format!(
                "{}   checkpoints {}   restores {}",
                hist_cell("promotion", &snap.promotion_ns),
                fmt_count(h.checkpoints),
                fmt_count(h.restores)
            ),
            Style::PLAIN,
        );

        // ── cluster panel ───────────────────────────────────────────
        let mut y = lat_y + 2;
        if let Some(c) = &snap.cluster {
            let mut x = f.print(1, y, "cluster ", label);
            let up_style = if c.connected_nodes == c.known_nodes {
                Style::fg(Color::Green)
            } else {
                Style::bold(Color::Yellow)
            };
            x = f.print(
                x,
                y,
                &format!("{}/{} up", c.connected_nodes, c.known_nodes),
                up_style,
            );
            let degraded_style = if c.degraded_epochs > 0 {
                Style::bold(Color::Yellow)
            } else {
                Style::PLAIN
            };
            x = f.print(
                x,
                y,
                &format!("  sealed {}", fmt_count(c.epochs_sealed)),
                Style::PLAIN,
            );
            x = f.print(
                x,
                y,
                &format!("  degraded {}", c.degraded_epochs),
                degraded_style,
            );
            f.print(
                x,
                y,
                &format!(
                    "  losses {}  backfill {}  frames {}/{} rej  log {} ({} fail)",
                    c.node_losses,
                    fmt_count(c.backfill_frames),
                    fmt_count(c.frames_received),
                    c.frames_rejected,
                    fmt_count(c.log_records),
                    c.log_persist_failures
                ),
                Style::PLAIN,
            );
            y += 1;
            // A run of keyframes (every delta refused) shows as deltas
            // stalling while frames climb.
            let x = f.print(1, y, "seals   ", label);
            f.print(
                x,
                y,
                &format!(
                    "{} as deltas  {}B received",
                    fmt_count(c.delta_seals),
                    fmt_count(c.seal_bytes)
                ),
                Style::PLAIN,
            );
            y += 1;
            for (i, n) in c.nodes.iter().enumerate() {
                let col = 1 + (i % 3) * (width / 3);
                let row = y + i / 3;
                let mut x = f.print(col, row, &format!("node {} ", n.node), label);
                x = f.print(x, row, &format!("e{} ", n.last_epoch), Style::PLAIN);
                if n.connected {
                    f.print(x, row, "up", Style::fg(Color::Green));
                } else {
                    f.print(x, row, "DOWN", Style::bold(Color::Red));
                }
            }
            y += c.nodes.len().div_ceil(3);
        }

        // ── journal tail ────────────────────────────────────────────
        f.hline(y, '─', chrome);
        f.print(1, y, " journal ", label);
        y += 1;
        if self.events.is_empty() {
            f.print(1, y, "(no events yet)", chrome);
        }
        for (i, ev) in self.events.iter().enumerate() {
            f.print(1, y + i, ev, Style::PLAIN);
        }
        f
    }
}

/// Pool two histogram summaries the way the dashboard needs: counts and
/// sums add; p50/p99 keep the worst (largest) shard's value, because a
/// fleet-wide "one shard is slow" must not be averaged away; max is max.
fn merge_hist(a: HistSummary, b: HistSummary) -> HistSummary {
    HistSummary {
        count: a.count + b.count,
        sum: a.sum + b.sum,
        p50: a.p50.max(b.p50),
        p99: a.p99.max(b.p99),
        max: a.max.max(b.max),
        ..HistSummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_metrics::scrape::ScrapeSnapshot;
    use nitro_metrics::{MeasurementGauges, TelemetryRegistry};

    fn scrape_of(reg: &TelemetryRegistry) -> ScrapeSnapshot {
        ScrapeSnapshot::parse(&reg.render_json()).expect("registry renders parseable json")
    }

    #[test]
    fn rates_come_from_counter_deltas() {
        let reg = TelemetryRegistry::new();
        let t = reg.register(0);
        t.publish_gauges(&MeasurementGauges {
            sampling_p: 1.0,
            mode_code: 1,
            converged: true,
            topk_len: 0,
        });
        let mut app = ConsoleApp::new();

        t.offered.add(1_000);
        t.popped.add(1_000);
        t.processed.add(1_000);
        app.push(0, scrape_of(&reg), vec![]);
        t.offered.add(500);
        t.popped.add(500);
        t.processed.add(500);
        app.push(250, scrape_of(&reg), vec![]);

        let hist = app.shard_hist.get(&0).expect("shard 0 tracked");
        assert_eq!(hist.current, 2_000.0, "500 obs over 250ms = 2k/s");
        assert_eq!(hist.rates.len(), 1, "first frame seeds, second rates");
        let plain = app.draw(100).to_plain();
        assert!(plain.contains("2.0k/s"), "rate rendered: {plain}");
    }

    #[test]
    fn restart_resets_the_delta_instead_of_going_negative() {
        let mut h = ShardHistory::default();
        h.advance(1, 10_000, None);
        h.advance(1, 11_000, Some(1_000));
        assert_eq!(h.current, 1_000.0);
        // New incarnation: counter restarted from 400.
        h.advance(2, 400, Some(1_000));
        assert_eq!(h.current, 400.0, "reset counts from the new value");
        // Same incarnation but counter moved backwards (shouldn't
        // happen, but a replayed stale frame must not underflow).
        h.advance(2, 100, Some(1_000));
        assert_eq!(h.current, 100.0);
    }

    #[test]
    fn draw_before_any_frame_is_a_placeholder() {
        let app = ConsoleApp::new();
        let plain = app.draw(80).to_plain();
        assert!(plain.contains("waiting for first scrape"));
    }

    #[test]
    fn draw_renders_every_panel() {
        let reg = TelemetryRegistry::new();
        for shard in 0..4 {
            let t = reg.register(shard);
            t.offered.add(100 * (shard as u64 + 1));
            t.popped.add(100 * (shard as u64 + 1));
            t.processed.add(100 * (shard as u64 + 1));
            t.ring_capacity.set(1024);
            t.ring_occupancy.set_f64(0.25 * shard as f64);
            t.publish_gauges(&MeasurementGauges {
                sampling_p: 0.5,
                mode_code: shard as u64 % 3,
                converged: shard % 2 == 0,
                topk_len: 8,
            });
            t.batch_ns.record(512 << shard);
        }
        let c = reg.cluster();
        c.connected_nodes.set(2);
        c.known_nodes.set(3);
        c.publish_nodes(vec![
            nitro_metrics::NodeWatermark {
                node: 1,
                last_epoch: 4,
                connected: true,
            },
            nitro_metrics::NodeWatermark {
                node: 2,
                last_epoch: 4,
                connected: true,
            },
            nitro_metrics::NodeWatermark {
                node: 3,
                last_epoch: 2,
                connected: false,
            },
        ]);

        let mut app = ConsoleApp::new();
        app.push(
            100,
            scrape_of(&reg),
            vec!["shard 1: something happened".into()],
        );
        app.push(350, scrape_of(&reg), vec![]);
        let frame = app.draw(100);
        let plain = frame.to_plain();
        assert_eq!(frame.width(), 100);
        assert!(plain.contains("nitro top"));
        assert!(plain.contains("frame 2"));
        assert!(plain.contains("t+0.25s"));
        assert!(plain.contains("shards 4 live / 0 retired"));
        for shard in 0..4 {
            assert!(
                plain.contains(&format!("\n   {shard} ")),
                "row for shard {shard}"
            );
        }
        assert!(plain.contains("ALR"), "mode cell");
        assert!(plain.contains("batch p50"), "latency panel");
        assert!(plain.contains("cluster 2/3 up"), "cluster panel");
        assert!(plain.contains("node 3 e2 DOWN"), "watermark panel");
        assert!(
            plain.contains("shard 1: something happened"),
            "journal tail"
        );
        for line in plain.lines() {
            assert!(
                line.chars().count() <= 100,
                "line wider than the frame: {line:?}"
            );
        }
    }

    #[test]
    fn journal_tail_keeps_only_the_newest_events() {
        let reg = TelemetryRegistry::new();
        reg.register(0);
        let mut app = ConsoleApp::new();
        let events: Vec<String> = (0..20).map(|i| format!("event number {i}")).collect();
        app.push(0, scrape_of(&reg), events);
        assert_eq!(app.events.len(), EVENT_TAIL);
        let plain = app.draw(100).to_plain();
        assert!(!plain.contains("event number 11"));
        assert!(plain.contains("event number 12"), "oldest kept event");
        assert!(plain.contains("event number 19"), "newest event");
    }
}
