//! Operational health counters for the supervised measurement daemon.
//!
//! The robustness layer (supervisor, checkpointing, backpressure) reports
//! what happened to every observation the switch offered: consumed into the
//! sketch, dropped at a full ring, or lost to a crash window. The invariant
//! `offered == processed + dropped + lost` makes silent loss impossible —
//! any unaccounted observation shows up in [`DaemonHealth::unaccounted`].

use crate::table::Table;

/// Counters describing one supervised daemon run.
///
/// All counters are cumulative over the daemon's lifetime, across restarts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonHealth {
    /// Observations the switch thread offered to the ring.
    pub offered: u64,
    /// Observations consumed into the sketch (across all worker incarnations).
    pub processed: u64,
    /// Observations rejected at a full ring (counted, never blocking).
    pub dropped: u64,
    /// Observations popped from the ring but lost when a worker crashed
    /// before its progress counter covered them (bounded by one batch).
    pub lost_in_crash: u64,
    /// Worker thread restarts after a panic.
    pub restarts: u64,
    /// Watchdog-detected stalls (no progress within the stall timeout).
    pub stalls: u64,
    /// Checkpoints taken by the worker.
    pub checkpoints: u64,
    /// Checkpoints made durable through the configured sink (zero when the
    /// daemon runs without a durable store).
    pub persisted: u64,
    /// Checkpoints restored into a replacement worker.
    pub restores: u64,
    /// Sampling-probability downshifts applied under backpressure.
    pub downshifts: u64,
}

impl DaemonHealth {
    /// Fresh all-zero health record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Field-wise accumulate another daemon's counters into this record —
    /// the building block of fleet-level aggregation: summing per-shard
    /// records preserves the accounting identity, because each shard
    /// maintains `offered == processed + dropped + lost_in_crash` on its
    /// own slice of the traffic.
    pub fn absorb(&mut self, other: &DaemonHealth) {
        self.offered += other.offered;
        self.processed += other.processed;
        self.dropped += other.dropped;
        self.lost_in_crash += other.lost_in_crash;
        self.restarts += other.restarts;
        self.stalls += other.stalls;
        self.checkpoints += other.checkpoints;
        self.persisted += other.persisted;
        self.restores += other.restores;
        self.downshifts += other.downshifts;
    }

    /// Observations with no recorded fate: `offered − processed − dropped −
    /// lost_in_crash`. Zero in a correct run; saturates rather than
    /// underflowing when counters are read mid-flight.
    pub fn unaccounted(&self) -> u64 {
        self.offered
            .saturating_sub(self.processed)
            .saturating_sub(self.dropped)
            .saturating_sub(self.lost_in_crash)
    }

    /// Fraction of offered observations that reached the sketch (1.0 when
    /// nothing was offered). Clamped to `[0, 1]`: a mid-flight read can
    /// observe `processed` ahead of `offered`, and a ratio above one is
    /// never meaningful.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.processed as f64 / self.offered as f64).min(1.0)
        }
    }

    /// True when the run needed no recovery action: no restarts, stalls,
    /// drops, or crash losses.
    pub fn is_clean(&self) -> bool {
        self.restarts == 0 && self.stalls == 0 && self.dropped == 0 && self.lost_in_crash == 0
    }

    /// Render as a two-column counter table for the experiment harness.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new("daemon health", &["counter", "value"]);
        for (name, v) in [
            ("offered", self.offered),
            ("processed", self.processed),
            ("dropped", self.dropped),
            ("lost_in_crash", self.lost_in_crash),
            ("unaccounted", self.unaccounted()),
            ("restarts", self.restarts),
            ("stalls", self.stalls),
            ("checkpoints", self.checkpoints),
            ("persisted", self.persisted),
            ("restores", self.restores),
            ("downshifts", self.downshifts),
        ] {
            t.row(&[name.to_string(), v.to_string()]);
        }
        t
    }
}

impl std::fmt::Display for DaemonHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_table().render())
    }
}

/// Per-shard circuit breaker over health probes.
///
/// The failover coordinator probes each shard's health on every epoch and
/// feeds the verdict into a breaker; `threshold` consecutive unhealthy
/// probes latch the breaker *open*, which the coordinator treats as "stop
/// routing to this primary, promote a successor". The breaker stays open
/// until [`CircuitBreaker::reset`] — promotion is the only way to close
/// it, so a flapping shard cannot oscillate traffic back and forth.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive_failures: u32,
    open: bool,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker that trips after `threshold` consecutive unhealthy
    /// probes (`threshold >= 1`).
    pub fn new(threshold: u32) -> Self {
        assert!(threshold >= 1, "a breaker needs at least one strike");
        Self {
            threshold,
            consecutive_failures: 0,
            open: false,
            trips: 0,
        }
    }

    /// Feed one probe verdict. A healthy probe clears the strike count; an
    /// unhealthy one increments it and latches the breaker open at the
    /// threshold. Returns whether the breaker is open after this probe.
    pub fn record(&mut self, healthy: bool) -> bool {
        if self.open {
            return true; // latched: only reset() closes it
        }
        if healthy {
            self.consecutive_failures = 0;
        } else {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.threshold {
                self.open = true;
                self.trips += 1;
            }
        }
        self.open
    }

    /// Whether the breaker is latched open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Times this breaker has tripped over its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Close the breaker and clear the strike count — called after the
    /// failed primary was replaced (promotion or respawn).
    pub fn reset(&mut self) {
        self.open = false;
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identity() {
        let h = DaemonHealth {
            offered: 100,
            processed: 80,
            dropped: 15,
            lost_in_crash: 5,
            ..Default::default()
        };
        assert_eq!(h.unaccounted(), 0);
        assert!((h.delivery_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unaccounted_surfaces_silent_loss() {
        let h = DaemonHealth {
            offered: 100,
            processed: 90,
            ..Default::default()
        };
        assert_eq!(h.unaccounted(), 10);
        assert!(
            h.is_clean(),
            "loss without a recorded cause is still clean-flagged only by unaccounted"
        );
    }

    #[test]
    fn unaccounted_never_underflows_mid_flight() {
        // A mid-flight read can observe `processed` ahead of `offered`
        // (producer counter not yet flushed); this must not wrap.
        let h = DaemonHealth {
            offered: 10,
            processed: 12,
            ..Default::default()
        };
        assert_eq!(h.unaccounted(), 0);
    }

    #[test]
    fn clean_run_detection() {
        let mut h = DaemonHealth {
            offered: 5,
            processed: 5,
            checkpoints: 3,
            downshifts: 1,
            ..Default::default()
        };
        assert!(h.is_clean(), "checkpoints and downshifts are not failures");
        h.restarts = 1;
        assert!(!h.is_clean());
    }

    #[test]
    fn empty_run_has_perfect_delivery() {
        assert_eq!(DaemonHealth::new().delivery_ratio(), 1.0);
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record(false));
        assert!(!b.record(false));
        assert!(!b.record(true), "a healthy probe clears the strikes");
        assert!(!b.record(false));
        assert!(!b.record(false));
        assert!(b.record(false), "third consecutive strike trips");
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn breaker_latches_until_reset() {
        let mut b = CircuitBreaker::new(1);
        assert!(b.record(false));
        assert!(
            b.record(true),
            "healthy probes cannot close a latched breaker"
        );
        assert_eq!(b.trips(), 1);
        b.reset();
        assert!(!b.is_open());
        assert!(!b.record(true));
        assert!(b.record(false), "trips again after reset");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn delivery_ratio_clamps_mid_flight_overshoot() {
        let h = DaemonHealth {
            offered: 10,
            processed: 12,
            ..Default::default()
        };
        assert_eq!(h.delivery_ratio(), 1.0);
    }

    mod health_properties {
        use super::*;
        use proptest::prelude::*;

        /// A record satisfying the accounting identity by construction:
        /// `offered = processed + dropped + lost + slack`. Bounds keep
        /// sums far from u64 overflow so `absorb` never wraps.
        fn accounted(parts: (u64, u64, u64, u64)) -> DaemonHealth {
            let (processed, dropped, lost_in_crash, slack) = parts;
            DaemonHealth {
                offered: processed + dropped + lost_in_crash + slack,
                processed,
                dropped,
                lost_in_crash,
                ..Default::default()
            }
        }

        fn identity(h: &DaemonHealth) -> u64 {
            h.processed + h.dropped + h.lost_in_crash + h.unaccounted()
        }

        proptest! {
            #[test]
            fn absorb_preserves_accounting_identity(
                a in ((0u64..1 << 60, 0u64..1 << 60), (0u64..1 << 60, 0u64..1 << 60)),
                b in ((0u64..1 << 60, 0u64..1 << 60), (0u64..1 << 60, 0u64..1 << 60)),
            ) {
                let a = accounted((a.0 .0, a.0 .1, a.1 .0, a.1 .1));
                let b = accounted((b.0 .0, b.0 .1, b.1 .0, b.1 .1));
                prop_assert_eq!(identity(&a), a.offered);
                prop_assert_eq!(identity(&b), b.offered);
                let mut sum = a;
                sum.absorb(&b);
                prop_assert_eq!(
                    identity(&sum), sum.offered,
                    "fleet aggregation must preserve the accounting identity"
                );
                prop_assert_eq!(sum.offered, a.offered + b.offered);
            }

            #[test]
            fn delivery_ratio_always_in_unit_interval(
                offered in 0u64..1 << 62,
                processed in 0u64..1 << 62,
            ) {
                // Arbitrary counters, including mid-flight overshoot where
                // processed races ahead of offered.
                let h = DaemonHealth { offered, processed, ..Default::default() };
                let r = h.delivery_ratio();
                prop_assert!((0.0..=1.0).contains(&r), "ratio {} out of [0,1]", r);
            }

            #[test]
            fn unaccounted_never_exceeds_offered(
                counts in ((0u64..1 << 62, 0u64..1 << 62), (0u64..1 << 62, 0u64..1 << 62)),
            ) {
                let h = DaemonHealth {
                    offered: counts.0 .0,
                    processed: counts.0 .1,
                    dropped: counts.1 .0,
                    lost_in_crash: counts.1 .1,
                    ..Default::default()
                };
                prop_assert!(h.unaccounted() <= h.offered);
            }
        }
    }

    #[test]
    fn table_lists_every_counter() {
        let h = DaemonHealth {
            offered: 7,
            restarts: 2,
            ..Default::default()
        };
        let s = h.to_table().render();
        for name in [
            "offered",
            "processed",
            "dropped",
            "lost_in_crash",
            "unaccounted",
            "restarts",
            "stalls",
            "checkpoints",
            "persisted",
            "restores",
            "downshifts",
        ] {
            assert!(s.contains(name), "missing counter {name} in\n{s}");
        }
        assert_eq!(h.to_table().len(), 11);
    }
}
