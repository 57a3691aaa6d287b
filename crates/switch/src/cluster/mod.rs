//! The distributed measurement plane: N pipeline nodes, one aggregator,
//! recoverable network-wide queries.
//!
//! Nitrosketch's evaluation targets a single software switch, but the
//! measurement tasks it serves — heavy hitters, L2 norms, change
//! detection — are *network-wide* questions. Because the sketches are
//! linear, the global answer is just the merge of per-node sketches,
//! and *Distributed Recoverable Sketches* (Cohen, Friedman & Shahout)
//! shows the merge can be made crash-recoverable by anchoring it in each
//! node's durable checkpoint log. This module builds that plane on top of
//! everything below it:
//!
//! - [`NodeAgent`] runs next to a `ShardedPipeline` on each node. At every
//!   epoch boundary it seals the merged epoch view into an epoch frame —
//!   an [`crate::EpochReport`] summary plus the full sketch checkpoint,
//!   wrapped in the store's CRC framing — persists it to its own
//!   [`crate::CheckpointStore`] (**persist-before-publish**), then ships
//!   the same bytes over the [`wire`] protocol.
//! - [`Aggregator`] admits nodes whose blank-template fingerprint matches
//!   (geometry + hash seeds — the cross-node merge guard), maintains a
//!   per-epoch global merged sketch behind an epoch-versioned read API
//!   ([`Aggregator::view`], [`Aggregator::change_between`]), and marks
//!   each epoch [`EpochStatus::Complete`] only when **every member
//!   node's** frame is merged.
//! - Failure domains: a node crash or partition is detected by heartbeat
//!   silence or a dead connection within the configured timeout; the
//!   epochs it sealed but never delivered are *not lost* — on reconnect
//!   the agent replays them from its segment log (backfill), upgrading
//!   degraded epochs to complete. `NodeJoin`/`NodeLoss`/`EpochSealed`/
//!   `BackfillReplayed` events flow through the telemetry journal and the
//!   aggregator's gauges ride the Prometheus/JSON scrape path.
//! - The aggregator itself is crash-consistent: every merged node frame
//!   and membership change is appended to its own CRC-framed aggregation
//!   log (**persist-before-serve**), so [`Aggregator::recover`] rebuilds
//!   all sealed epoch views and per-node `last_epoch` watermarks from
//!   disk before a single node reconnects — backfill after an aggregator
//!   restart is delta-only, never a full replay.
//! - Partition tolerance on the agent side: a [`ReconnectPolicy`]
//!   (exponential backoff + deterministic jitter, budget-capped) drives
//!   automatic redial inside `seal_epoch`/`heartbeat`, and the seal path
//!   carries a write timeout so a hung aggregator degrades the agent to
//!   local-durable sealing instead of blocking the epoch loop.
//!
//! The hot path is untouched: nodes ship checkpoints the pipeline already
//! produces, at epoch cadence, over a control-plane socket.

pub mod agent;
pub mod aggregator;
pub mod proto;
pub mod reconnect;
pub mod wire;

pub use agent::{NodeAgent, NodeAgentConfig, SealOutcome};
pub use aggregator::{AggLog, Aggregator, AggregatorConfig};
pub use proto::{
    AgentOutput, AgentSession, AggEvent, AggOutput, AggRecovery, AggregatorSession, ClusterSketch,
    ClusterView, ConnId, EpochStatus, LogAppend,
};
pub use reconnect::{ReconnectDecision, ReconnectPolicy};
pub use wire::{EpochReport, Message};

use crate::frame::FrameError;
use crate::store::StoreError;
use nitro_sketches::checkpoint::CheckpointError;
use std::fmt;
use std::io;

/// Why a cluster operation failed.
#[derive(Debug)]
pub enum ClusterError {
    /// A frame or payload that does not decode, or a transport failure.
    Frame(FrameError),
    /// The node's durable epoch log failed.
    Store(StoreError),
    /// A checkpoint could not be restored or merged.
    Checkpoint(CheckpointError),
    /// The aggregator refused the handshake.
    Rejected(&'static str),
    /// The agent holds no live connection for an operation that needs one.
    NotConnected,
    /// Epoch numbers must advance: a node tried to seal an epoch at or
    /// below one it already sealed.
    EpochNotMonotonic {
        /// The epoch the caller asked to seal.
        requested: u64,
        /// The next epoch the agent will accept.
        next: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Frame(e) => write!(f, "cluster frame error: {e}"),
            ClusterError::Store(e) => write!(f, "cluster store error: {e}"),
            ClusterError::Checkpoint(e) => write!(f, "cluster checkpoint error: {e}"),
            ClusterError::Rejected(why) => write!(f, "aggregator rejected handshake: {why}"),
            ClusterError::NotConnected => write!(f, "agent is not connected to an aggregator"),
            ClusterError::EpochNotMonotonic { requested, next } => write!(
                f,
                "epoch {requested} already sealed (next acceptable epoch is {next})"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<FrameError> for ClusterError {
    fn from(e: FrameError) -> Self {
        ClusterError::Frame(e)
    }
}

impl From<StoreError> for ClusterError {
    fn from(e: StoreError) -> Self {
        ClusterError::Store(e)
    }
}

impl From<CheckpointError> for ClusterError {
    fn from(e: CheckpointError) -> Self {
        ClusterError::Checkpoint(e)
    }
}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        ClusterError::Frame(e.into())
    }
}
