//! One shard of the multi-core measurement pipeline.
//!
//! A shard is a supervised measurement daemon ([`crate::supervisor`]) plus
//! its position in the fleet: it owns one SPSC ring, one worker thread
//! updating a per-core sketch (the hot loop drains the ring with
//! [`crate::spsc::SpscRing::pop_batch`], one atomic round-trip per batch),
//! and one supervisor thread that recovers that worker from its own
//! checkpoint — a crash on shard *i* never stalls shard *j*.
//!
//! The shard's contribution to the epoch-merged query plane is
//! [`Shard::epoch_snapshot`]: an on-demand checkpoint of the per-core
//! sketch, tagged with the staleness numbers the coordinator folds into
//! the merged view's bound.

use crate::supervisor::{CheckpointView, Recoverable, SupervisedDaemon, SupervisorError};
use nitro_metrics::telemetry::ShardTelemetry;
use nitro_metrics::DaemonHealth;
use std::sync::Arc;
use std::time::Duration;

/// How far one shard's contribution to a merged epoch view trails the
/// traffic actually dispatched to that shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardStaleness {
    /// Shard id (dispatcher index).
    pub shard: usize,
    /// Observations the snapshot covers.
    pub processed_at: u64,
    /// Observations processed by the shard but after the snapshot.
    pub lag: u64,
    /// Observations still queued in the shard's ring at capture time.
    pub backlog: u64,
    /// Whether the worker served a fresh on-demand snapshot (`false`: the
    /// worker was crashed or mid-restart and the latest periodic
    /// checkpoint was used instead).
    pub fresh: bool,
    /// The shard's restart budget is spent: this snapshot is the shard's
    /// final state and `lag + backlog` bounds what it will never absorb.
    /// The merged view still includes it — degraded, not absent.
    pub degraded: bool,
}

impl ShardStaleness {
    /// Upper bound on this shard's observations missing from the merged
    /// view: processed-but-unsnapshotted plus still-queued.
    pub fn bound(&self) -> u64 {
        self.lag + self.backlog
    }
}

/// A running pipeline shard: one supervised daemon plus its fleet index.
pub struct Shard<M: Recoverable + Send + 'static> {
    index: usize,
    daemon: SupervisedDaemon<M>,
}

impl<M: Recoverable + Send + 'static> Shard<M> {
    pub(crate) fn new(index: usize, daemon: SupervisedDaemon<M>) -> Self {
        Self { index, daemon }
    }

    /// This shard's dispatcher index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Observations applied to this shard's sketch so far.
    pub fn processed(&self) -> u64 {
        self.daemon.processed()
    }

    /// Observations queued in this shard's ring right now.
    pub fn backlog(&self) -> u64 {
        self.daemon.backlog()
    }

    /// Live health counters for this shard.
    pub fn health(&self) -> DaemonHealth {
        self.daemon.health()
    }

    /// This shard daemon's live telemetry instance — every counter and
    /// gauge is readable mid-flight without joining the worker.
    pub fn telemetry(&self) -> &Arc<ShardTelemetry> {
        self.daemon.telemetry()
    }

    /// Whether this shard's restart budget is spent. A failed shard keeps
    /// serving its last checkpoint (flagged degraded) and keeps accounting
    /// every observation the dispatcher sends it.
    pub fn is_failed(&self) -> bool {
        self.daemon.is_failed()
    }

    /// The shard's most recent checkpoint without waking the worker —
    /// what a degraded merge falls back to.
    pub fn latest_checkpoint(&self) -> Option<CheckpointView> {
        self.daemon.latest_checkpoint()
    }

    /// Capture this shard's state for an epoch merge: request an on-demand
    /// checkpoint from the worker (waiting up to `timeout`), fall back to
    /// the latest periodic checkpoint if the worker is unresponsive, and
    /// report the staleness either way. `None` never happens for shards
    /// spawned through the pipeline (a pristine checkpoint is stored at
    /// spawn), but the type is honest about the empty slot.
    pub fn epoch_snapshot(&self, timeout: Duration) -> Option<(Arc<Vec<u8>>, ShardStaleness)> {
        self.epoch_checkpoint(timeout)
            .map(|(view, staleness)| (view.bytes, staleness))
    }

    /// [`Shard::epoch_snapshot`] with the checkpoint's write history: the
    /// lines written since the image the previous call handed out.
    pub(crate) fn epoch_checkpoint(
        &self,
        timeout: Duration,
    ) -> Option<(CheckpointView, ShardStaleness)> {
        let view = self.daemon.checkpoint_now(timeout)?;
        let staleness = ShardStaleness {
            shard: self.index,
            processed_at: view.processed_at,
            lag: view.lag,
            backlog: view.backlog,
            fresh: view.fresh,
            degraded: view.degraded,
        };
        Some((view, staleness))
    }

    /// Stop this shard, drain its ring, and hand back the final per-core
    /// measurement with the shard's health record.
    pub fn finish(self) -> Result<(M, DaemonHealth), SupervisorError> {
        self.daemon.finish()
    }
}
