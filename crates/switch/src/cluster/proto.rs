//! Sans-io protocol cores for the cluster plane.
//!
//! [`AgentSession`] and [`AggregatorSession`] are the *entire* protocol
//! logic of the node agent and the aggregator — handshake, seal and
//! backfill sequencing, membership intervals, epoch completeness,
//! heartbeat-silence loss, redial budgets — expressed as pure state
//! machines. They consume [`Message`]s and timer ticks and emit
//! [`AgentOutput`]/[`AggOutput`] lists; they never touch a socket, a
//! thread, or a real clock. The TCP paths in [`super::agent`] and
//! [`super::aggregator`] are thin drivers that shuttle bytes and map
//! outputs onto telemetry; the deterministic simulator ([`crate::sim`])
//! drives the *same* state machines single-threaded under virtual time,
//! which is what makes cluster failure schedules replayable.
//!
//! Timestamps are [`Nanos`] from a [`crate::Clock`]: only differences
//! matter, so the sessions work identically under `SystemClock` and
//! `SimClock`.

use super::reconnect::{ReconnectDecision, ReconnectPolicy};
use super::wire::{decode_epoch_payload, Message};
use super::ClusterError;
use crate::clock::Nanos;
use crate::frame::{FrameError, Reader};
use crate::store::{self, diff_lines, encode_delta, Cut, Image, RecoveredFrame};
use nitro_core::NitroSketch;
use nitro_metrics::NodeWatermark;
use nitro_sketches::checkpoint::{Checkpoint, DirtyLines};
use nitro_sketches::{FlowKey, RowSketch};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Agent session
// ---------------------------------------------------------------------------

/// One instruction from [`AgentSession`] to its driver. Outputs are
/// queued in order and collected with [`AgentSession::drain`]; a driver
/// that executes them in order reproduces the agent's wire behaviour
/// exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum AgentOutput {
    /// Open a transport to the aggregator target. The driver reports the
    /// outcome with [`AgentSession::transport_connected`] or
    /// [`AgentSession::dial_failed`]; no second `Dial` is emitted until
    /// one of those arrives.
    Dial,
    /// Write this message to the live transport. A write failure must be
    /// reported via [`AgentSession::connection_lost`].
    Send(Message),
    /// The handshake succeeded and the aggregator's newest epoch for this
    /// node is `after`: the driver should walk the durable epoch log and
    /// feed every frame to [`AgentSession::offer_backfill`], which turns
    /// the ones the aggregator is missing into `Send`s.
    Backfill {
        /// Newest epoch the aggregator already holds from this node.
        after: u64,
    },
    /// An automatic redial failed; the next attempt is scheduled after
    /// `delay`. Drivers map this to `ReconnectBackoff` telemetry.
    Backoff {
        /// Consecutive failed automatic redials so far (1-based).
        attempt: u64,
        /// Jittered wait before the next redial may fire.
        delay: Duration,
    },
    /// The redial budget is spent: no further `Dial` until an explicit
    /// [`AgentSession::connect`] resets the schedule.
    GaveUp,
}

/// Where the agent's connection stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AgentPhase {
    /// No transport (never dialed, dial failed, or connection lost).
    Disconnected,
    /// Transport is up and `Hello` was sent; waiting for `HelloAck`.
    AwaitAck,
    /// Handshake accepted; seals, backfill, and heartbeats may flow.
    Established,
}

/// The node agent's protocol core: everything
/// [`NodeAgent`](super::NodeAgent) decides — when to dial, what to send,
/// which durable epochs to backfill, how long to back off — with the
/// transport and the clock abstracted away.
///
/// The driver contract, in order of a connection's life:
/// 1. [`AgentSession::connect`] (operator intent) or a due
///    [`AgentSession::tick`] emits [`AgentOutput::Dial`].
/// 2. The driver dials and reports
///    [`AgentSession::transport_connected`] (→ `Send(Hello)`) or
///    [`AgentSession::dial_failed`] (→ backoff bookkeeping).
/// 3. The `HelloAck` goes to [`AgentSession::on_message`]; acceptance
///    emits [`AgentOutput::Backfill`] and the driver replays the log via
///    [`AgentSession::offer_backfill`].
/// 4. Seals are two-phase: [`AgentSession::begin_seal`] checks epoch
///    monotonicity *before* the driver persists, then
///    [`AgentSession::finish_seal`] advances the epoch cursor and emits
///    the `Send` — persist-before-publish lives in the split. The first
///    fresh seal on a connection is a [`Message::SealEpoch`] keyframe;
///    later ones are [`Message::SealDelta`]s against the one before. A
///    driver with an epoch log cuts the payload once in between
///    (`AgentSession::cut`), and the log and the wire share the runs.
/// 5. Any transport death is [`AgentSession::connection_lost`], which
///    arms the redial schedule exactly like a failed dial.
#[derive(Debug)]
pub struct AgentSession {
    node_id: u32,
    fingerprint: u64,
    /// Store generation stamped into `Hello`.
    generation: u64,
    next_epoch: u64,
    acked_epoch: u64,
    cluster_epoch: u64,
    backfilled: u64,
    reconnect: ReconnectPolicy,
    phase: AgentPhase,
    /// A `Dial` is in flight: suppress further dials until its outcome.
    dialing: bool,
    /// An explicit `connect` supplied a target at least once.
    has_target: bool,
    /// The in-flight dial came from an explicit `connect` (its failure
    /// arms the schedule silently instead of counting an attempt).
    explicit: bool,
    /// Consecutive failed automatic redials since the connection dropped.
    attempts: u64,
    /// Earliest virtual instant the next automatic redial may fire.
    retry_at: Option<Nanos>,
    /// The redial budget is spent; only an explicit `connect` resets it.
    gave_up: bool,
    /// Newest epoch the aggregator held at handshake — the backfill
    /// low-water mark for this connection.
    backfill_after: u64,
    /// Epoch of the newest fresh seal emitted on this connection: the
    /// aggregator holds its payload, so a seal cut against it may ship as
    /// a delta. `None` before the connection's first fresh seal and after
    /// a backfill.
    base_epoch: Option<u64>,
    /// Epoch of the newest sealed payload, whether it was sent or not, and
    /// its bytes: what the next seal is cut against.
    prev: Option<u64>,
    prev_bytes: Vec<u8>,
    /// The line runs of the payload being sealed that differ from
    /// `prev_bytes`, once [`AgentSession::cut`] cut them for this seal, and
    /// whether a delta of them is smaller than the payload.
    runs: Vec<Range<usize>>,
    cut: Option<bool>,
    out: Vec<AgentOutput>,
}

impl AgentSession {
    /// A fresh session for `node_id`. `generation` is the durable store's
    /// generation; `next_epoch` resumes where the durable log ends.
    pub fn new(
        node_id: u32,
        fingerprint: u64,
        generation: u64,
        next_epoch: u64,
        reconnect: ReconnectPolicy,
    ) -> Self {
        Self {
            node_id,
            fingerprint,
            generation,
            next_epoch,
            acked_epoch: 0,
            cluster_epoch: 0,
            backfilled: 0,
            reconnect,
            phase: AgentPhase::Disconnected,
            dialing: false,
            has_target: false,
            explicit: false,
            attempts: 0,
            retry_at: None,
            gave_up: false,
            backfill_after: 0,
            base_epoch: None,
            prev: None,
            prev_bytes: Vec::new(),
            runs: Vec::new(),
            cut: None,
            out: Vec::new(),
        }
    }

    /// Operator intent to connect: resets the whole redial schedule
    /// (attempt counter, pending backoff, spent budget) and emits a
    /// [`AgentOutput::Dial`].
    pub fn connect(&mut self) {
        self.has_target = true;
        self.attempts = 0;
        self.retry_at = None;
        self.gave_up = false;
        self.explicit = true;
        self.dialing = true;
        self.phase = AgentPhase::Disconnected;
        self.out.push(AgentOutput::Dial);
    }

    /// Walk the redial schedule: emit [`AgentOutput::Dial`] iff the
    /// session is disconnected, has a target, has budget left, no dial is
    /// already in flight, and the backoff deadline has passed. Drivers
    /// call this from their seal/heartbeat cadence so partition repair
    /// needs no extra loop.
    pub fn tick(&mut self, now: Nanos) {
        if self.phase != AgentPhase::Disconnected
            || self.dialing
            || !self.has_target
            || self.gave_up
        {
            return;
        }
        let Some(at) = self.retry_at else { return };
        if now < at {
            return;
        }
        self.dialing = true;
        self.out.push(AgentOutput::Dial);
    }

    /// The driver's dial succeeded: move to the handshake and emit
    /// `Send(Hello)`. The new connection holds no seal to cut a delta
    /// against.
    pub fn transport_connected(&mut self) {
        self.dialing = false;
        self.phase = AgentPhase::AwaitAck;
        self.base_epoch = None;
        self.out.push(AgentOutput::Send(Message::Hello {
            node_id: self.node_id,
            generation: self.generation,
            next_epoch: self.next_epoch,
            fingerprint: self.fingerprint,
        }));
    }

    /// The dial (or anything up to and including the handshake/backfill
    /// exchange) failed. An explicit connect's failure arms the schedule
    /// silently — the first retry waits a full backoff, and no attempt is
    /// counted, matching the stampede-avoidance rationale in
    /// [`ReconnectPolicy`]. An automatic redial's failure counts an
    /// attempt and emits [`AgentOutput::Backoff`] or
    /// [`AgentOutput::GaveUp`].
    pub fn dial_failed(&mut self, now: Nanos) {
        self.dialing = false;
        self.phase = AgentPhase::Disconnected;
        if self.explicit {
            self.explicit = false;
            self.arm_initial(now);
            return;
        }
        self.attempts += 1;
        match self.reconnect.decide(self.attempts + 1) {
            ReconnectDecision::Retry(delay) => {
                self.retry_at = Some(now + delay.as_nanos() as Nanos);
                self.out.push(AgentOutput::Backoff {
                    attempt: self.attempts,
                    delay,
                });
            }
            ReconnectDecision::GiveUp => {
                self.gave_up = true;
                self.retry_at = None;
                self.out.push(AgentOutput::GaveUp);
            }
        }
    }

    /// The live transport died (write failure, EOF, or a deliberate
    /// sever). Arms the redial schedule exactly like a failed explicit
    /// dial: one full backoff before the first retry, no attempt counted,
    /// no output.
    pub fn connection_lost(&mut self, now: Nanos) {
        self.phase = AgentPhase::Disconnected;
        self.dialing = false;
        self.arm_initial(now);
    }

    /// Arm the first redial after a drop: `decide(1)` → wait or give up.
    fn arm_initial(&mut self, now: Nanos) {
        if self.gave_up || !self.has_target {
            return;
        }
        match self.reconnect.decide(1) {
            ReconnectDecision::Retry(delay) => {
                self.retry_at = Some(now + delay.as_nanos() as Nanos)
            }
            ReconnectDecision::GiveUp => self.gave_up = true,
        }
    }

    /// Feed a message from the aggregator. During the handshake this is
    /// the `HelloAck`; acceptance establishes the session, resets the
    /// redial budget, and emits [`AgentOutput::Backfill`]. Rejection and
    /// protocol violations are typed errors — the driver should drop the
    /// transport and call [`AgentSession::dial_failed`].
    pub fn on_message(&mut self, msg: Message, _now: Nanos) -> Result<(), ClusterError> {
        if self.phase != AgentPhase::AwaitAck {
            // Nothing aggregator-bound is expected post-handshake.
            return Ok(());
        }
        let Message::HelloAck {
            accepted,
            last_epoch,
            cluster_epoch,
        } = msg
        else {
            self.phase = AgentPhase::Disconnected;
            return Err(FrameError::Malformed("expected HelloAck").into());
        };
        if !accepted {
            self.phase = AgentPhase::Disconnected;
            return Err(ClusterError::Rejected(
                "fingerprint mismatch (geometry or hash seeds differ)",
            ));
        }
        self.acked_epoch = last_epoch;
        self.cluster_epoch = cluster_epoch;
        self.backfill_after = last_epoch;
        self.phase = AgentPhase::Established;
        self.explicit = false;
        self.attempts = 0;
        self.retry_at = None;
        self.gave_up = false;
        self.out.push(AgentOutput::Backfill { after: last_epoch });
        Ok(())
    }

    /// Offer one durable frame for backfill. Frames the aggregator
    /// already holds (`seq <= after` from the handshake) or from the
    /// future (`seq >= next_epoch` — another incarnation's leftovers) are
    /// skipped. An accepted frame's payload is emitted as it is, as a
    /// backfill `Send`, after which the next fresh seal is a keyframe
    /// again (the aggregator drops its base on a backfill); returns
    /// whether the frame was emitted.
    pub fn offer_backfill(&mut self, f: RecoveredFrame) -> bool {
        if self.phase != AgentPhase::Established
            || f.seq <= self.backfill_after
            || f.seq >= self.next_epoch
        {
            return false;
        }
        self.out.push(AgentOutput::Send(Message::SealEpoch {
            node_id: self.node_id,
            epoch: f.seq,
            backfill: true,
            frame: f.bytes,
        }));
        self.base_epoch = None;
        self.acked_epoch = self.acked_epoch.max(f.seq);
        self.backfilled += 1;
        true
    }

    /// First half of a seal: epoch numbers must advance strictly. Checked
    /// *before* the driver persists so a stale epoch never reaches disk.
    pub fn begin_seal(&mut self, epoch: u64) -> Result<(), ClusterError> {
        if epoch < self.next_epoch {
            return Err(ClusterError::EpochNotMonotonic {
                requested: epoch,
                next: self.next_epoch,
            });
        }
        self.cut = None;
        Ok(())
    }

    /// Cut the payload being sealed against the previous sealed payload,
    /// once, between [`AgentSession::begin_seal`] and
    /// [`AgentSession::finish_seal`]: the driver's epoch log appends the
    /// runs (a log's sequence number is its epoch) and `finish_seal` ships
    /// them. `None` when there is no previous payload or a delta of the
    /// runs would be no smaller than the payload.
    ///
    /// `changed`, when the driver knows them, are the counter lines whose
    /// values differ from the previous payload's ([`MergedView::changed`]
    /// of consecutive views): only the head is compared, for the same
    /// runs.
    ///
    /// [`MergedView::changed`]: crate::pipeline::MergedView::changed
    pub(crate) fn cut(&mut self, payload: &[u8], changed: Option<&DirtyLines>) -> Option<Cut<'_>> {
        let smaller = self.prev.is_some()
            && store::cut(&self.prev_bytes, payload, changed, true, &mut self.runs);
        self.cut = Some(smaller);
        Some(Cut {
            base_seq: self.prev?,
            base_len: self.prev_bytes.len(),
            runs: &self.runs,
        })
        .filter(|_| smaller)
    }

    /// Second half of a seal, called after the payload is durable:
    /// advance the epoch cursor and, when established, emit the fresh
    /// seal. Returns whether a `Send` was emitted (`false` means
    /// local-durable only — the frame waits for backfill).
    ///
    /// The seal is a [`Message::SealDelta`] of the runs
    /// `AgentSession::cut` cut (cut here if the driver did not) when the
    /// connection's previous fresh seal is the payload they were cut
    /// against, or a [`Message::SealEpoch`] keyframe of the payload when
    /// there is none or the delta would be no smaller. Either way the
    /// session keeps `payload` as the next seal's base by swapping
    /// buffers: `payload` comes back holding an older payload, for the
    /// driver to encode the next seal over.
    pub fn finish_seal(&mut self, epoch: u64, payload: &mut Vec<u8>) -> bool {
        self.next_epoch = epoch + 1;
        let smaller = match self.cut.take() {
            None => {
                self.cut(payload, None);
                self.cut.take() == Some(true)
            }
            Some(smaller) => {
                if cfg!(debug_assertions) {
                    // The differential oracle: runs cut once and reused by
                    // the log and the wire are a fresh cut. A mismatch
                    // aborts: a panic here would be caught and retried.
                    let mut fresh = Vec::new();
                    let again =
                        self.prev.is_some() && diff_lines(&self.prev_bytes, payload, &mut fresh);
                    if again != smaller || (smaller && fresh != self.runs) {
                        eprintln!("epoch {epoch}'s reused runs differ from a fresh cut");
                        std::process::abort();
                    }
                }
                smaller
            }
        };
        let established = self.phase == AgentPhase::Established;
        if established {
            let msg = match (self.base_epoch, self.prev) {
                (Some(base_epoch), Some(prev)) if base_epoch == prev && smaller => {
                    let size = 8 + self.runs.iter().map(|r| 8 + r.len()).sum::<usize>();
                    let mut delta = Vec::with_capacity(size);
                    encode_delta(&mut delta, self.prev_bytes.len(), payload, &self.runs);
                    Message::SealDelta {
                        node_id: self.node_id,
                        epoch,
                        base_epoch,
                        delta,
                    }
                }
                _ => Message::SealEpoch {
                    node_id: self.node_id,
                    epoch,
                    backfill: false,
                    frame: payload.clone(),
                },
            };
            self.base_epoch = Some(epoch);
            self.out.push(AgentOutput::Send(msg));
        }
        std::mem::swap(&mut self.prev_bytes, payload);
        self.prev = Some(epoch);
        established
    }

    /// The driver's write of epoch `epoch`'s fresh seal succeeded: the
    /// aggregator now holds it.
    pub fn note_sent(&mut self, epoch: u64) {
        self.acked_epoch = self.acked_epoch.max(epoch);
    }

    /// Emit a liveness heartbeat when established; returns whether one
    /// was emitted.
    pub fn heartbeat(&mut self, processed: u64) -> bool {
        if self.phase != AgentPhase::Established {
            return false;
        }
        self.out.push(AgentOutput::Send(Message::Heartbeat {
            node_id: self.node_id,
            epoch: self.next_epoch,
            processed,
        }));
        true
    }

    /// Emit a clean-departure `Goodbye` when established; returns whether
    /// one was emitted.
    pub fn goodbye(&mut self) -> bool {
        if self.phase != AgentPhase::Established {
            return false;
        }
        self.out.push(AgentOutput::Send(Message::Goodbye {
            node_id: self.node_id,
        }));
        true
    }

    /// Take the queued outputs, in emission order.
    pub fn drain(&mut self) -> Vec<AgentOutput> {
        std::mem::take(&mut self.out)
    }

    /// Whether the handshake has completed on a live transport.
    pub fn is_established(&self) -> bool {
        self.phase == AgentPhase::Established
    }

    /// Whether a `Dial` is in flight awaiting its outcome.
    pub fn is_dialing(&self) -> bool {
        self.dialing
    }

    /// The next epoch this session will accept a seal for.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Newest epoch the aggregator acknowledged holding from this node.
    pub fn acked_epoch(&self) -> u64 {
        self.acked_epoch
    }

    /// Cluster-wide newest epoch per the last handshake (0 before one).
    pub fn cluster_epoch(&self) -> u64 {
        self.cluster_epoch
    }

    /// Durable frames replayed as backfill over this session's lifetime.
    pub fn backfilled(&self) -> u64 {
        self.backfilled
    }

    /// Consecutive failed automatic redials since the connection dropped.
    pub fn reconnect_attempts(&self) -> u64 {
        self.attempts
    }

    /// Earliest virtual instant the next automatic redial may fire.
    pub fn retry_at(&self) -> Option<Nanos> {
        self.retry_at
    }

    /// Whether the redial budget is spent.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// This node's id.
    pub fn node_id(&self) -> u32 {
        self.node_id
    }
}

// ---------------------------------------------------------------------------
// Shared read-model types (moved here from `aggregator` so both the TCP
// driver and the simulator speak in the same vocabulary).
// ---------------------------------------------------------------------------

/// What recovery rebuilt from the aggregation log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggRecovery {
    /// Epoch views rebuilt (after `keep_epochs` eviction).
    pub epochs: u32,
    /// Node membership records rebuilt.
    pub nodes: u32,
    /// Log records replayed (node frames + membership snapshots).
    pub records: u64,
}

/// Where one epoch stands, as served by the epoch-versioned read API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochStatus {
    /// No frame for this epoch has arrived from any node.
    Unknown,
    /// Some members' frames are missing but every missing node is
    /// connected — their seals are expected to arrive.
    Pending {
        /// Members whose frames are merged.
        reporting: u32,
        /// Total members required for completeness.
        members: u32,
    },
    /// A missing member is lost or departed uncleanly: the epoch cannot
    /// complete until that node reconnects and backfills.
    Degraded {
        /// The member nodes whose frames are missing.
        missing: Vec<u32>,
    },
    /// Every member node's frame is merged into the global view.
    Complete {
        /// Nodes the merged view covers.
        nodes: u32,
    },
}

impl EpochStatus {
    /// Whether the epoch is complete.
    pub fn is_complete(&self) -> bool {
        matches!(self, EpochStatus::Complete { .. })
    }
}

/// Bounds every sketch type must satisfy to be cluster-aggregated: it is
/// restored and merged (`Checkpoint`), cloned per epoch, and shared with
/// connection-handler threads.
pub trait ClusterSketch: RowSketch + Checkpoint + Clone + Send + Sync + 'static {}
impl<S: RowSketch + Checkpoint + Clone + Send + Sync + 'static> ClusterSketch for S {}

/// A queryable snapshot of one epoch's network-wide merged view.
pub struct ClusterView<S: RowSketch> {
    epoch: u64,
    status: EpochStatus,
    sketch: NitroSketch<S>,
    packets: u64,
    report_hh: Vec<(FlowKey, f64)>,
}

impl<S: RowSketch> ClusterView<S> {
    /// The epoch this view covers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Completeness of the view at snapshot time.
    pub fn status(&self) -> &EpochStatus {
        &self.status
    }

    /// Network-wide point query on the merged counters.
    pub fn estimate(&self, key: FlowKey) -> f64 {
        self.sketch.estimate(key)
    }

    /// Network-wide heavy hitters ≥ `threshold` from the merged sketch,
    /// heaviest first.
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(FlowKey, f64)> {
        self.sketch.heavy_hitters(threshold)
    }

    /// Network-wide L2 norm estimate.
    pub fn l2(&self) -> f64 {
        self.sketch.inner().l2_squared_estimate().max(0.0).sqrt()
    }

    /// Total packets reported by the covered nodes.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Report-level heavy hitters (per-node report sums, collector
    /// semantics), heaviest first.
    pub fn report_heavy_hitters(&self) -> Vec<(FlowKey, f64)> {
        let mut v = self.report_hh.clone();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The merged sketch itself.
    pub fn sketch(&self) -> &NitroSketch<S> {
        &self.sketch
    }
}

// ---------------------------------------------------------------------------
// Aggregation-log record codecs (shared by the TCP driver's durable log
// and the simulator's persistence oracle).
// ---------------------------------------------------------------------------

/// Aggregation-log record tags (first payload byte). Format 1 logs hold
/// whole frames and membership snapshots; format 2 adds delta records.
pub(crate) const REC_FRAME: u8 = 1;
pub(crate) const REC_MEMBERSHIP: u8 = 2;
pub(crate) const REC_DELTA: u8 = 3;

/// One decoded aggregation-log record.
pub(crate) enum LogRecord<'a> {
    /// A validated node epoch frame's inner payload (report + snapshot),
    /// exactly as merged. Frame records are commutative — replay order
    /// within an epoch does not matter.
    Frame {
        /// Reporting node.
        node: u32,
        /// Epoch the frame covers.
        epoch: u64,
        /// `encode_epoch_payload` bytes (report + snapshot).
        payload: &'a [u8],
    },
    /// A node's epoch payload as the delta its seal arrived as, against
    /// the payload of the node's record before it (its chain).
    Delta {
        /// Reporting node.
        node: u32,
        /// Epoch the payload covers.
        epoch: u64,
        /// Epoch of the payload the delta was cut against.
        base_epoch: u64,
        /// The store's delta encoding of the payload against that one.
        delta: &'a [u8],
    },
    /// Full snapshot of one node's membership state, written at every
    /// join and `Goodbye` in mutation order; replay is last-writer-wins
    /// per node.
    Membership {
        /// The node whose membership changed.
        node: u32,
        /// Newest epoch a frame was merged for.
        last_epoch: u64,
        /// Open membership interval start, if the node is a member now.
        open_from: Option<u64>,
        /// Closed membership intervals, ended by clean `Goodbye`s.
        intervals: Vec<(u64, u64)>,
    },
}

/// The bytes of a frame record before its payload.
pub(crate) fn frame_record_head(node: u32, epoch: u64) -> [u8; 13] {
    let mut head = [REC_FRAME; 13];
    head[1..5].copy_from_slice(&node.to_le_bytes());
    head[5..].copy_from_slice(&epoch.to_le_bytes());
    head
}

/// The bytes of a delta record before its delta.
pub(crate) fn delta_record_head(node: u32, epoch: u64, base_epoch: u64) -> [u8; 21] {
    let mut head = [REC_DELTA; 21];
    head[1..5].copy_from_slice(&node.to_le_bytes());
    head[5..13].copy_from_slice(&epoch.to_le_bytes());
    head[13..].copy_from_slice(&base_epoch.to_le_bytes());
    head
}

#[cfg(test)]
pub(crate) fn encode_frame_record(node: u32, epoch: u64, payload: &[u8]) -> Vec<u8> {
    [&frame_record_head(node, epoch)[..], payload].concat()
}

fn encode_membership_record(node: u32, rec: &NodeRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(26 + 16 * rec.intervals.len());
    out.push(REC_MEMBERSHIP);
    out.extend_from_slice(&node.to_le_bytes());
    out.extend_from_slice(&rec.last_epoch.to_le_bytes());
    out.push(rec.open_from.is_some() as u8);
    out.extend_from_slice(&rec.open_from.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(rec.intervals.len() as u32).to_le_bytes());
    for &(s, t) in &rec.intervals {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

pub(crate) fn decode_log_record(bytes: &[u8]) -> Result<LogRecord<'_>, FrameError> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        REC_FRAME => Ok(LogRecord::Frame {
            node: r.u32()?,
            epoch: r.u64()?,
            payload: r.rest(),
        }),
        REC_DELTA => Ok(LogRecord::Delta {
            node: r.u32()?,
            epoch: r.u64()?,
            base_epoch: r.u64()?,
            delta: r.rest(),
        }),
        REC_MEMBERSHIP => {
            let node = r.u32()?;
            let last_epoch = r.u64()?;
            let has_open = r.u8()? != 0;
            let open_from = r.u64()?;
            let n = r.u32()? as usize;
            let mut pairs = Reader::new(r.take(n.saturating_mul(16))?);
            r.done()?;
            let intervals = (0..n)
                .map(|_| Ok((pairs.u64()?, pairs.u64()?)))
                .collect::<Result<_, FrameError>>()?;
            Ok(LogRecord::Membership {
                node,
                last_epoch,
                open_from: has_open.then_some(open_from),
                intervals,
            })
        }
        other => Err(FrameError::UnknownType(other)),
    }
}

// ---------------------------------------------------------------------------
// Aggregator session
// ---------------------------------------------------------------------------

/// Identifier of one accepted transport connection, allocated by
/// [`AggregatorSession::conn_open`]. Monotonic within a session — it
/// doubles as the connection generation: a loss declared against an old
/// connection can never flip the state a newer connection established.
pub type ConnId = u64;

/// A journal-worthy state transition inside [`AggregatorSession`]. The
/// TCP driver maps these onto telemetry counters and events; the
/// simulator writes them to its deterministic run journal.
#[derive(Clone, Debug, PartialEq)]
pub enum AggEvent {
    /// A node completed the handshake on a new connection.
    NodeJoin {
        /// The admitted node.
        node: u32,
        /// The next epoch it announced.
        epoch: u64,
    },
    /// A connected node was declared lost (dead transport, protocol
    /// violation, or heartbeat silence).
    NodeLoss {
        /// The lost node.
        node: u32,
        /// Newest epoch a frame was merged for.
        last_epoch: u64,
    },
    /// One epoch frame was validated and merged.
    FrameMerged {
        /// Reporting node.
        node: u32,
        /// Epoch the frame covers.
        epoch: u64,
        /// Whether it arrived as backfill replay.
        backfill: bool,
    },
    /// A frame or stream failed validation and was rejected.
    FrameRejected {
        /// The node bound to the offending connection.
        node: u32,
    },
    /// A liveness heartbeat arrived.
    Heartbeat {
        /// The reporting node.
        node: u32,
    },
    /// An epoch transitioned into completeness.
    EpochSealed {
        /// The completed epoch.
        epoch: u64,
        /// Nodes the merged view covers.
        nodes: u32,
        /// Whether the epoch was observed degraded before completing.
        was_degraded: bool,
    },
}

/// One instruction from [`AggregatorSession`] to its driver, in emission
/// order via [`AggregatorSession::drain`].
#[derive(Clone, Debug, PartialEq)]
pub enum AggOutput {
    /// Write `msg` to connection `conn`.
    Send {
        /// Target connection.
        conn: ConnId,
        /// The message to write.
        msg: Message,
    },
    /// Close connection `conn`. The session has already unbound it;
    /// no further messages for it will be accepted.
    Close {
        /// The connection to close.
        conn: ConnId,
    },
    /// Append this record to the durable aggregation log with
    /// [`AggLog::append`](super::AggLog::append), before the state that
    /// depends on it becomes queryable (persist-before-serve) and before
    /// the session is fed its connection's next message (a seal's record
    /// reads the payload the connection keeps).
    Append(LogAppend),
    /// Journal this state transition.
    Event(AggEvent),
}

/// One record for the durable aggregation log, as [`AggOutput::Append`]
/// hands it to the driver's [`AggLog`](super::AggLog).
#[derive(Clone, Debug, PartialEq)]
pub struct LogAppend(pub(crate) Record);

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Record {
    /// A membership snapshot, encoded.
    Membership(Vec<u8>),
    /// A backfilled seal's payload, which nothing else keeps.
    Whole {
        node: u32,
        epoch: u64,
        payload: Image,
    },
    /// A fresh seal, whose payload `conn` keeps as its delta base until
    /// its next seal, with the wire delta (and its base epoch) it was
    /// rebuilt from, if it came as one.
    Live {
        conn: ConnId,
        node: u32,
        epoch: u64,
        delta: Option<(u64, Vec<u8>)>,
    },
}

/// One admitted node's membership record.
///
/// Membership is interval-based so a node that cleanly departs and later
/// rejoins is not blamed for the gap: epoch `e` requires this node iff
/// `e` falls in a closed `[start, end]` interval (joined → `Goodbye`) or
/// at/after the open interval's start (joined, not departed). A node lost
/// *without* a `Goodbye` keeps its interval open — exactly the epochs
/// that must stay degraded until it reconnects and backfills.
#[derive(Debug)]
struct NodeRecord {
    /// Closed membership intervals, ended by clean `Goodbye`s.
    intervals: Vec<(u64, u64)>,
    /// Start of the current membership interval: the min over the epochs
    /// this incarnation announced at handshake or reported frames for.
    open_from: Option<u64>,
    /// Newest epoch a frame was merged for.
    last_epoch: u64,
    connected: bool,
    /// The node's current connection; a stale connection (superseded by
    /// a reconnect) fails this check before declaring a loss or reviving.
    conn: Option<ConnId>,
    last_heard: Nanos,
    /// Observations the node last reported via heartbeat.
    processed: u64,
}

impl NodeRecord {
    fn blank() -> Self {
        Self {
            intervals: Vec::new(),
            open_from: None,
            last_epoch: 0,
            connected: false,
            conn: None,
            last_heard: 0,
            processed: 0,
        }
    }

    fn is_member_of(&self, e: u64) -> bool {
        self.intervals.iter().any(|&(s, t)| s <= e && e <= t)
            || self.open_from.is_some_and(|s| s <= e)
    }

    /// Extend the open membership interval to include `e`.
    fn expect_from(&mut self, e: u64) {
        self.open_from = Some(self.open_from.map_or(e, |s| s.min(e)));
    }
}

/// One accepted transport connection.
#[derive(Default)]
struct Conn {
    /// The node bound at handshake (`None` before).
    node: Option<u32>,
    /// The epoch and payload of the newest fresh seal received on this
    /// connection: what the node's next [`Message::SealDelta`] is applied
    /// to. Every seal takes it; an accepted fresh seal's payload, a
    /// keyframe's moved in or a delta's rebuilt in place, becomes it.
    base: Option<(u64, Image)>,
}

/// One epoch's merged state.
struct EpochRecord<S: RowSketch> {
    merged: NitroSketch<S>,
    reporting: BTreeSet<u32>,
    /// Sum of member reports' packet counts.
    packets: u64,
    /// Report-level heavy hitters summed across nodes (collector
    /// semantics: duplicate keys merge).
    report_hh: HashMap<FlowKey, f64>,
    /// Whether `EpochSealed` was journaled for this epoch.
    sealed: bool,
    /// Whether the epoch was observed degraded before completing.
    was_degraded: bool,
}

/// The aggregator's protocol core: admission, per-epoch merging,
/// membership intervals, heartbeat-silence loss, and the epoch-versioned
/// read model — with sockets, threads, the durable log, and telemetry
/// abstracted into [`AggOutput`]s.
///
/// The driver contract per connection: [`AggregatorSession::conn_open`]
/// at accept, [`AggregatorSession::on_message`] per decoded message,
/// [`AggregatorSession::conn_corrupt`] on an undecodable stream,
/// [`AggregatorSession::conn_closed`] when the transport dies, and
/// [`AggregatorSession::tick`] on the heartbeat-monitor cadence. All
/// methods are synchronous and single-writer; the TCP driver serializes
/// them behind one mutex, the simulator calls them from its event loop.
pub struct AggregatorSession<S: ClusterSketch> {
    /// Blank instance every node's sketch is built like: the admission
    /// fingerprint, the check every frame's image passes before it is
    /// logged, and the copy each epoch's record starts from. Images fold
    /// into that record directly (`NitroSketch::merge_image`).
    template: NitroSketch<S>,
    fingerprint: u64,
    /// Epoch records kept (0: no bound); older ones are evicted.
    keep_epochs: usize,
    /// Silence bound before a connected node is declared lost.
    heartbeat_timeout: Nanos,
    nodes: BTreeMap<u32, NodeRecord>,
    epochs: BTreeMap<u64, EpochRecord<S>>,
    /// Live connections.
    conns: BTreeMap<ConnId, Conn>,
    next_conn: ConnId,
    /// Mutation hook (see [`AggregatorSession::set_dedup_disabled`]).
    dedup_disabled: bool,
    out: Vec<AggOutput>,
}

impl<S: ClusterSketch> AggregatorSession<S> {
    /// A fresh session. `template` must be a **blank** sketch built
    /// exactly like every node's — its fingerprint is the admission
    /// check, its clones become the per-epoch merge targets.
    pub fn new(template: NitroSketch<S>, keep_epochs: usize, heartbeat_timeout: Duration) -> Self {
        let fingerprint = template.inner().fingerprint();
        Self {
            template,
            fingerprint,
            keep_epochs,
            heartbeat_timeout: heartbeat_timeout.as_nanos() as Nanos,
            nodes: BTreeMap::new(),
            epochs: BTreeMap::new(),
            conns: BTreeMap::new(),
            next_conn: 1,
            dedup_disabled: false,
            out: Vec::new(),
        }
    }

    /// Merge one replayed frame of `node` for `epoch`, the way merging
    /// does: deduplicated per (epoch, node) in `replayed` (kept past the
    /// window that evicts their records), and re-deriving membership.
    /// Returns whether the frame was new and valid.
    fn replay_frame(
        &mut self,
        replayed: &mut BTreeSet<(u64, u32)>,
        node: u32,
        epoch: u64,
        payload: &[u8],
    ) -> bool {
        let Ok((report, snapshot)) = decode_epoch_payload(payload) else {
            return false;
        };
        if report.switch_id != node || report.epoch != epoch {
            return false;
        }
        if self.template.check_image(snapshot).is_err() || !replayed.insert((epoch, node)) {
            return false;
        }
        // An epoch below a full window keeps no record: only its
        // membership is replayed.
        if let Some(rec) = self.epoch_record(epoch) {
            if rec.merged.merge_image(snapshot).is_err() {
                return false;
            }
            rec.reporting.insert(node);
            rec.packets += report.packets;
            for &(k, e) in &report.heavy_hitters {
                *rec.report_hh.entry(k).or_insert(0.0) += e;
            }
        }
        let n = self.nodes.entry(node).or_insert_with(NodeRecord::blank);
        if !n.is_member_of(epoch) {
            n.expect_from(epoch);
        }
        n.last_epoch = n.last_epoch.max(epoch);
        true
    }

    /// A replayed record says `node` sealed `epoch`, but its payload
    /// cannot be rebuilt: the node is a member of the epoch and the epoch
    /// is known, so it is served Degraded, and the node's watermark stays
    /// where it was, so its backfill may still repair it.
    fn replay_missing(&mut self, replayed: &BTreeSet<(u64, u32)>, node: u32, epoch: u64) {
        if replayed.contains(&(epoch, node)) {
            return;
        }
        self.epoch_record(epoch);
        let n = self.nodes.entry(node).or_insert_with(NodeRecord::blank);
        if !n.is_member_of(epoch) {
            n.expect_from(epoch);
        }
    }

    /// Register a freshly accepted transport connection and get its id.
    pub fn conn_open(&mut self) -> ConnId {
        let conn = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(conn, Conn::default());
        conn
    }

    /// Feed one decoded message from connection `conn` at virtual time
    /// `now`. Unknown (already-closed) connections are ignored. The
    /// session handles handshake, seals, heartbeats, and departures
    /// entirely through its output queue.
    pub fn on_message(&mut self, conn: ConnId, msg: Message, now: Nanos) {
        let Some(c) = self.conns.get(&conn) else {
            return;
        };
        match c.node {
            None => self.handshake(conn, msg, now),
            Some(node) => self.pump(conn, node, msg, now),
        }
    }

    /// The first complete message on a connection must be an acceptable
    /// `Hello`; anything else closes silently (pre-handshake peers have
    /// no standing to affect cluster state).
    fn handshake(&mut self, conn: ConnId, msg: Message, now: Nanos) {
        let Message::Hello {
            node_id,
            next_epoch,
            fingerprint,
            ..
        } = msg
        else {
            self.conns.remove(&conn);
            self.out.push(AggOutput::Close { conn });
            return;
        };
        if fingerprint != self.fingerprint {
            self.conns.remove(&conn);
            self.out.push(AggOutput::Send {
                conn,
                msg: Message::HelloAck {
                    accepted: false,
                    last_epoch: 0,
                    cluster_epoch: 0,
                },
            });
            self.out.push(AggOutput::Close { conn });
            return;
        }
        let rec = self.nodes.entry(node_id).or_insert_with(NodeRecord::blank);
        rec.conn = Some(conn);
        rec.connected = true;
        // Membership (re)opens at the epoch the node announced: from here
        // on, epochs cannot complete without it.
        rec.expect_from(next_epoch);
        rec.last_heard = now;
        let last_epoch = rec.last_epoch;
        // Membership mutations are order-sensitive (a later Goodbye must
        // replay after this join), so the record is appended in mutation
        // order, before the ack that makes the join visible.
        let record = Record::Membership(encode_membership_record(node_id, rec));
        self.conns.entry(conn).or_default().node = Some(node_id);
        self.out.push(AggOutput::Append(LogAppend(record)));
        self.out.push(AggOutput::Event(AggEvent::NodeJoin {
            node: node_id,
            epoch: next_epoch,
        }));
        self.out.push(AggOutput::Send {
            conn,
            msg: Message::HelloAck {
                accepted: true,
                last_epoch,
                cluster_epoch: self.cluster_epoch(),
            },
        });
    }

    /// Post-handshake message pump for connection `conn` bound to `node`.
    fn pump(&mut self, conn: ConnId, node: u32, msg: Message, now: Nanos) {
        match msg {
            // Handshake already done / agent-bound only: protocol
            // violations, close with a loss.
            Message::Hello { .. } | Message::HelloAck { .. } => self.close_loss(conn),
            // Either seal resolves to an epoch payload: a keyframe's is its
            // own bytes, a delta's is rebuilt on the connection's base.
            // Whatever cannot be resolved or ingested is refused and
            // closes the connection; the redial's keyframe and backfill
            // repair the node.
            msg @ (Message::SealEpoch { .. } | Message::SealDelta { .. }) => {
                // Any seal takes the base: a keyframe replaces it, a delta
                // is applied to it.
                let base = self.conns.get_mut(&conn).and_then(|c| c.base.take());
                let (epoch, backfill, payload, delta) = match msg {
                    Message::SealEpoch {
                        node_id,
                        epoch,
                        backfill,
                        frame,
                    } if node_id == node => (epoch, backfill, Some(Image::new(frame)), None),
                    Message::SealDelta {
                        node_id,
                        epoch,
                        base_epoch,
                        delta,
                    } if node_id == node => match base {
                        Some((based, payload)) if based == epoch => {
                            if !self.dedup_disabled {
                                // A redelivery of the delta that built the
                                // base: its payload is merged already.
                                self.set_base(conn, based, payload);
                                return;
                            }
                            (epoch, false, Some(payload), None)
                        }
                        Some((based, mut payload)) if based == base_epoch => {
                            let payload = payload.apply(&delta).ok().map(|()| payload);
                            (epoch, false, payload, Some((base_epoch, delta)))
                        }
                        // Cut against a payload this connection does not
                        // hold: stale, from another connection, or after a
                        // backfill dropped the base.
                        _ => (epoch, false, None, None),
                    },
                    // A seal from another node.
                    _ => return self.refuse(conn, node),
                };
                let Some(payload) = payload else {
                    return self.refuse(conn, node);
                };
                if self
                    .ingest_payload(node, conn, epoch, backfill, payload.as_slice(), now)
                    .is_err()
                {
                    return self.refuse(conn, node);
                }
                // Persist-before-serve: the driver appends the record
                // before any reader sees what it merged.
                let record = if backfill {
                    Record::Whole {
                        node,
                        epoch,
                        payload,
                    }
                } else {
                    self.set_base(conn, epoch, payload);
                    Record::Live {
                        conn,
                        node,
                        epoch,
                        delta,
                    }
                };
                self.out.push(AggOutput::Append(LogAppend(record)));
            }
            Message::Heartbeat {
                node_id, processed, ..
            } => {
                if node_id != node {
                    self.close_loss(conn);
                    return;
                }
                self.out
                    .push(AggOutput::Event(AggEvent::Heartbeat { node }));
                if let Some(rec) = self.nodes.get_mut(&node) {
                    rec.last_heard = now;
                    rec.processed = processed;
                    // A heartbeat on the current connection revives a node
                    // the monitor gave up on during a stall.
                    if rec.conn == Some(conn) && !rec.connected {
                        rec.connected = true;
                    }
                }
            }
            Message::Goodbye { node_id } => {
                if node_id != node {
                    self.close_loss(conn);
                    return;
                }
                if let Some(rec) = self.nodes.get_mut(&node) {
                    rec.connected = false;
                    rec.conn = None;
                    // Close the membership interval at the last merged
                    // epoch: later epochs no longer require this node.
                    if let Some(start) = rec.open_from.take() {
                        if start <= rec.last_epoch {
                            rec.intervals.push((start, rec.last_epoch));
                        }
                    }
                    let record = Record::Membership(encode_membership_record(node, rec));
                    self.out.push(AggOutput::Append(LogAppend(record)));
                }
                self.conns.remove(&conn);
                self.out.push(AggOutput::Close { conn });
            }
        }
    }

    /// Keep `payload`, epoch `epoch`'s, as `conn`'s delta base.
    fn set_base(&mut self, conn: ConnId, epoch: u64, payload: Image) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.base = Some((epoch, payload));
        }
    }

    /// The payload of epoch `epoch`'s seal, if connection `conn` keeps it
    /// as its delta base: what the aggregation log writes whole when a
    /// seal cannot be logged as its delta.
    pub(crate) fn seal_payload(&self, conn: ConnId, epoch: u64) -> Option<&[u8]> {
        match &self.conns.get(&conn)?.base {
            Some((based, payload)) if *based == epoch => Some(payload.as_slice()),
            _ => None,
        }
    }

    /// Reject a seal that leaves `conn` out of step with its node, and
    /// close it with a loss.
    fn refuse(&mut self, conn: ConnId, node: u32) {
        self.out
            .push(AggOutput::Event(AggEvent::FrameRejected { node }));
        self.close_loss(conn);
    }

    /// The transport delivered undecodable bytes on `conn`: nothing after
    /// this point can be trusted. A bound connection counts a rejection
    /// and declares the node lost; a pre-handshake connection closes
    /// silently.
    pub fn conn_corrupt(&mut self, conn: ConnId) {
        if let Some(node) = self.conns.get(&conn).and_then(|c| c.node) {
            self.out
                .push(AggOutput::Event(AggEvent::FrameRejected { node }));
        }
        self.close_loss(conn);
    }

    /// The transport for `conn` died (EOF, write failure, or the driver
    /// is shutting down). With `declare` the bound node — if this is
    /// still its current connection — is declared lost; without,
    /// the connection is merely unbound (an aggregator shutting down does
    /// not blame its nodes). Idempotent: unknown connections are ignored.
    pub fn conn_closed(&mut self, conn: ConnId, declare: bool) {
        if declare {
            self.close_loss(conn);
        } else {
            self.conns.remove(&conn);
        }
    }

    /// Close `conn` and declare its node lost if this is still the
    /// node's current connection (a reconnect supersedes stale closures).
    fn close_loss(&mut self, conn: ConnId) {
        let Some(c) = self.conns.remove(&conn) else {
            self.out.push(AggOutput::Close { conn });
            return;
        };
        if let Some(node) = c.node {
            if let Some(rec) = self.nodes.get_mut(&node) {
                if rec.conn == Some(conn) && rec.connected {
                    rec.connected = false;
                    let last_epoch = rec.last_epoch;
                    self.out
                        .push(AggOutput::Event(AggEvent::NodeLoss { node, last_epoch }));
                }
            }
        }
        self.out.push(AggOutput::Close { conn });
    }

    /// Heartbeat-silence sweep at virtual time `now`: every connected
    /// node silent for longer than the heartbeat timeout is declared
    /// lost. The connection binding is kept — a frame or heartbeat
    /// arriving later on the same connection revives the node (a stall is
    /// provisional, not a death certificate).
    pub fn tick(&mut self, now: Nanos) {
        let timeout = self.heartbeat_timeout;
        let silent: Vec<(u32, u64)> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.connected && now.saturating_sub(n.last_heard) > timeout)
            .map(|(&id, n)| (id, n.last_epoch))
            .collect();
        for (node, last_epoch) in silent {
            self.nodes.get_mut(&node).expect("just listed").connected = false;
            self.out
                .push(AggOutput::Event(AggEvent::NodeLoss { node, last_epoch }));
        }
    }

    /// Merge one epoch payload from `node` on connection `conn`, a
    /// keyframe's or one rebuilt from a delta: payload structure (no byte
    /// past the snapshot), report identity (this node, this epoch),
    /// checkpoint image and merge compatibility are checked before
    /// anything is merged, and the caller logs what passed. A duplicate
    /// (the idempotent replay below) wastes a record, which replay dedups
    /// the same way.
    fn ingest_payload(
        &mut self,
        node: u32,
        conn: ConnId,
        epoch: u64,
        backfill: bool,
        payload: &[u8],
        now: Nanos,
    ) -> Result<(), ClusterError> {
        let (report, snapshot) = decode_epoch_payload(payload)?;
        if report.switch_id != node || report.epoch != epoch {
            return Err(FrameError::Malformed("report identity != frame identity").into());
        }
        self.template.check_image(snapshot)?;

        let status_before = self.status_of(epoch);
        let dedup = !self.dedup_disabled;
        // A frame of an epoch below a full window merges nowhere: its
        // record would be the one evicted.
        if let Some(rec) = self.epoch_record(epoch) {
            if matches!(status_before, EpochStatus::Degraded { .. }) {
                rec.was_degraded = true;
            }
            if rec.reporting.contains(&node) && dedup {
                // Idempotent replay (e.g. a backfill raced a delivered
                // seal): the frame is already merged; merging again would
                // double the node's counters.
                return Ok(());
            }
            rec.merged.merge_image(snapshot)?;
            rec.reporting.insert(node);
            rec.packets += report.packets;
            for &(k, e) in &report.heavy_hitters {
                *rec.report_hh.entry(k).or_insert(0.0) += e;
            }
        }
        if let Some(n) = self.nodes.get_mut(&node) {
            if !n.is_member_of(epoch) {
                n.expect_from(epoch);
            }
            n.last_epoch = n.last_epoch.max(epoch);
            // A frame arriving on the node's *current* connection revives
            // it: a heartbeat-timeout loss declared during a long stall is
            // provisional, not a death certificate. A stale connection
            // (superseded by a reconnect) must not flip the new state.
            n.last_heard = now;
            if n.conn == Some(conn) {
                n.connected = true;
            }
        }
        self.out.push(AggOutput::Event(AggEvent::FrameMerged {
            node,
            epoch,
            backfill,
        }));
        // Seal on the transition into completeness.
        if let EpochStatus::Complete { nodes } = self.status_of(epoch) {
            let rec = self
                .epochs
                .get_mut(&epoch)
                .expect("a complete epoch has a record");
            if !rec.sealed {
                rec.sealed = true;
                let was_degraded = rec.was_degraded;
                self.out.push(AggOutput::Event(AggEvent::EpochSealed {
                    epoch,
                    nodes,
                    was_degraded,
                }));
            }
        }
        Ok(())
    }

    /// The record `epoch`'s frames merge into, created from the template
    /// on its first frame. At most `keep_epochs` records are kept (0: no
    /// bound): a new epoch evicts the oldest to make room, and an epoch
    /// older than every kept one in a full window gets none (`None`) — its
    /// record would be the one evicted. Live frames and recovery replay
    /// both go through here, so a replay never holds more than the window.
    fn epoch_record(&mut self, epoch: u64) -> Option<&mut EpochRecord<S>> {
        if self.keep_epochs > 0
            && self.epochs.len() >= self.keep_epochs
            && !self.epochs.contains_key(&epoch)
        {
            if self
                .epochs
                .first_key_value()
                .is_some_and(|(&oldest, _)| epoch < oldest)
            {
                return None;
            }
            while self.epochs.len() >= self.keep_epochs {
                self.epochs.pop_first();
            }
        }
        let template = &self.template;
        Some(self.epochs.entry(epoch).or_insert_with(|| EpochRecord {
            merged: template.clone(),
            reporting: BTreeSet::new(),
            packets: 0,
            report_hh: HashMap::new(),
            sealed: false,
            was_degraded: false,
        }))
    }

    /// Take the queued outputs, in emission order.
    pub fn drain(&mut self) -> Vec<AggOutput> {
        std::mem::take(&mut self.out)
    }

    /// Member nodes required for epoch `e` to be complete.
    pub fn members_of(&self, e: u64) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.is_member_of(e))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Status of one epoch.
    pub fn status_of(&self, e: u64) -> EpochStatus {
        let Some(rec) = self.epochs.get(&e) else {
            return EpochStatus::Unknown;
        };
        let members = self.members_of(e);
        let missing: Vec<u32> = members
            .iter()
            .copied()
            .filter(|id| !rec.reporting.contains(id))
            .collect();
        if missing.is_empty() {
            EpochStatus::Complete {
                nodes: rec.reporting.len() as u32,
            }
        } else if missing
            .iter()
            .all(|id| self.nodes.get(id).is_some_and(|n| n.connected))
        {
            EpochStatus::Pending {
                reporting: rec.reporting.len() as u32,
                members: members.len() as u32,
            }
        } else {
            EpochStatus::Degraded { missing }
        }
    }

    /// Newest epoch any node has reported (0: none).
    pub fn cluster_epoch(&self) -> u64 {
        self.epochs.keys().next_back().copied().unwrap_or(0)
    }

    /// Newest epoch served complete, if any.
    pub fn latest_complete(&self) -> Option<u64> {
        self.epochs
            .keys()
            .rev()
            .find(|&&e| self.status_of(e).is_complete())
            .copied()
    }

    /// Epoch-versioned read: the merged view of `epoch` with its
    /// completeness status stamped in. `None` when no node has reported
    /// the epoch (or it was evicted).
    pub fn view(&self, epoch: u64) -> Option<ClusterView<S>> {
        let rec = self.epochs.get(&epoch)?;
        Some(ClusterView {
            epoch,
            status: self.status_of(epoch),
            sketch: rec.merged.clone(),
            packets: rec.packets,
            report_hh: rec.report_hh.iter().map(|(&k, &v)| (k, v)).collect(),
        })
    }

    /// Change detection between two epochs: per-flow estimate deltas
    /// (`to − from`) over the union of both views' tracked heavy keys,
    /// filtered to `|delta| >= threshold`, largest magnitude first.
    /// `None` when either epoch has no view.
    pub fn change_between(
        &self,
        from: u64,
        to: u64,
        threshold: f64,
    ) -> Option<Vec<(FlowKey, f64)>> {
        let a = &self.epochs.get(&from)?.merged;
        let b = &self.epochs.get(&to)?.merged;
        let mut keys: BTreeSet<FlowKey> = BTreeSet::new();
        for (k, _) in a.heavy_hitters(f64::NEG_INFINITY) {
            keys.insert(k);
        }
        for (k, _) in b.heavy_hitters(f64::NEG_INFINITY) {
            keys.insert(k);
        }
        let mut out: Vec<(FlowKey, f64)> = keys
            .into_iter()
            .map(|k| (k, b.estimate(k) - a.estimate(k)))
            .filter(|&(_, d)| d.abs() >= threshold)
            .collect();
        out.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()).then(x.0.cmp(&y.0)));
        Some(out)
    }

    /// Node ids currently holding a live connection.
    pub fn connected_nodes(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.connected)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Every node id the session has ever admitted.
    pub fn known_nodes(&self) -> Vec<u32> {
        self.nodes.keys().copied().collect()
    }

    /// Gauge snapshot: (connected nodes, known nodes, degraded epochs).
    pub fn gauges(&self) -> (u64, u64, u64) {
        let connected = self.nodes.values().filter(|n| n.connected).count() as u64;
        let known = self.nodes.len() as u64;
        let degraded = self
            .epochs
            .keys()
            .filter(|&&e| matches!(self.status_of(e), EpochStatus::Degraded { .. }))
            .count() as u64;
        (connected, known, degraded)
    }

    /// Every epoch currently holding a merged view, oldest first.
    pub fn epochs(&self) -> Vec<u64> {
        self.epochs.keys().copied().collect()
    }

    /// The set of nodes whose frames are merged into `epoch`, if any
    /// frame has arrived for it.
    pub fn reporting_of(&self, epoch: u64) -> Option<BTreeSet<u32>> {
        Some(self.epochs.get(&epoch)?.reporting.clone())
    }

    /// Sum of member reports' packet counts for `epoch`, if known.
    pub fn packets_of(&self, epoch: u64) -> Option<u64> {
        Some(self.epochs.get(&epoch)?.packets)
    }

    /// Newest epoch a frame was merged for from `node` (its backfill
    /// watermark), if the node is known.
    pub fn node_watermark(&self, node: u32) -> Option<u64> {
        Some(self.nodes.get(&node)?.last_epoch)
    }

    /// Per-node watermark snapshot over every admitted node, sorted by
    /// node id — the telemetry plane's per-node panel.
    pub fn node_watermarks(&self) -> Vec<NodeWatermark> {
        self.nodes
            .iter()
            .map(|(&id, n)| NodeWatermark {
                node: id,
                last_epoch: n.last_epoch,
                connected: n.connected,
            })
            .collect()
    }

    /// Mutation hook for the simulator's oracle self-test: disable the
    /// per-(epoch, node) duplicate-frame guard so a duplicated or
    /// backfill-raced frame double-merges. Exists to prove the invariant
    /// oracles *catch* the bug and the shrinker minimizes it — never use
    /// outside tests.
    #[doc(hidden)]
    pub fn set_dedup_disabled(&mut self, disabled: bool) {
        self.dedup_disabled = disabled;
    }
}

/// Rebuilds an [`AggregatorSession`] from aggregation-log records fed in
/// append order, one at a time, so a recovery holds one payload per node
/// and the epoch window however long the log is.
///
/// Replay mirrors the live paths exactly: frame replay dedups per
/// (epoch, node) and re-derives membership the way merging does;
/// membership snapshots overwrite (last-writer-wins per node). A delta
/// record applies to the payload of its node's record before it (the
/// node's chain) iff that payload is of the delta's base epoch; one that
/// cannot be applied is skipped and its epoch served Degraded, never
/// misapplied. Records that fail any validation the live path would have
/// enforced are skipped, never fatal — a recovery must salvage everything
/// salvageable. Recovered nodes start disconnected (their transports died
/// with the old process); epochs that were complete stay complete and are
/// marked sealed so redundant backfill cannot re-journal `EpochSealed`.
pub(crate) struct Replay<S: ClusterSketch> {
    session: AggregatorSession<S>,
    /// The (epoch, node) frames replayed.
    replayed: BTreeSet<(u64, u32)>,
    /// Each node's chain: the epoch and payload of its newest frame or
    /// delta record.
    chains: BTreeMap<u32, (u64, Image)>,
    records: u64,
}

impl<S: ClusterSketch> Replay<S> {
    /// A replay into a fresh session built like [`AggregatorSession::new`].
    pub(crate) fn new(
        template: NitroSketch<S>,
        keep_epochs: usize,
        heartbeat_timeout: Duration,
    ) -> Self {
        Self {
            session: AggregatorSession::new(template, keep_epochs, heartbeat_timeout),
            replayed: BTreeSet::new(),
            chains: BTreeMap::new(),
            records: 0,
        }
    }

    /// Replay the next record of the log.
    pub(crate) fn record(&mut self, bytes: &[u8]) {
        let Self {
            session,
            replayed,
            chains,
            records,
        } = self;
        match decode_log_record(bytes) {
            Ok(LogRecord::Frame {
                node,
                epoch,
                payload,
            }) => {
                let (held, image) = chains.entry(node).or_default();
                *held = epoch;
                image.set(payload);
                if session.replay_frame(replayed, node, epoch, payload) {
                    *records += 1;
                }
            }
            Ok(LogRecord::Delta {
                node,
                epoch,
                base_epoch,
                delta,
            }) => {
                let applied = match chains.get_mut(&node) {
                    Some((held, image)) if *held == base_epoch => {
                        let applied = image.apply(delta).is_ok();
                        *held = epoch;
                        applied
                    }
                    _ => false,
                };
                if !applied {
                    // A half-rewritten image is no base for anything.
                    chains.remove(&node);
                    session.replay_missing(replayed, node, epoch);
                } else if session.replay_frame(replayed, node, epoch, chains[&node].1.as_slice()) {
                    *records += 1;
                }
            }
            Ok(LogRecord::Membership {
                node,
                last_epoch,
                open_from,
                intervals,
            }) => {
                let n = session.nodes.entry(node).or_insert_with(NodeRecord::blank);
                n.intervals = intervals;
                n.open_from = open_from;
                n.last_epoch = n.last_epoch.max(last_epoch);
                *records += 1;
            }
            Err(_) => {}
        }
    }

    /// Replay `frames`' records, in order.
    #[cfg(test)]
    pub(crate) fn of(
        template: NitroSketch<S>,
        keep_epochs: usize,
        heartbeat_timeout: Duration,
        frames: &[RecoveredFrame],
    ) -> (AggregatorSession<S>, AggRecovery) {
        let mut replay = Self::new(template, keep_epochs, heartbeat_timeout);
        for f in frames {
            replay.record(&f.bytes);
        }
        replay.finish()
    }

    /// The rebuilt session, and what was rebuilt.
    pub(crate) fn finish(self) -> (AggregatorSession<S>, AggRecovery) {
        let mut session = self.session;
        // Epochs already complete must not re-journal `EpochSealed` when
        // a node's redundant backfill replays their frames.
        let complete: Vec<u64> = session
            .epochs
            .keys()
            .copied()
            .filter(|&e| session.status_of(e).is_complete())
            .collect();
        for e in complete {
            session.epochs.get_mut(&e).expect("just listed").sealed = true;
        }
        let recovery = AggRecovery {
            epochs: session.epochs.len() as u32,
            nodes: session.nodes.len() as u32,
            records: self.records,
        };
        (session, recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Aggregation-log records keep the bytes the log has always held, so
    /// an aggregator recovers a log written by an older build; a delta
    /// record puts its base epoch between its epoch and its delta.
    #[test]
    fn log_records_keep_their_bytes_and_round_trip() {
        let frame = encode_frame_record(3, 5, b"payload");
        assert_eq!(hex(&frame), "010300000005000000000000007061796c6f6164");
        let delta = [&delta_record_head(3, 6, 5)[..], b"delta"].concat();
        assert_eq!(
            hex(&delta),
            "03030000000600000000000000050000000000000064656c7461"
        );
        match decode_log_record(&delta) {
            Ok(LogRecord::Delta {
                node: 3,
                epoch: 6,
                base_epoch: 5,
                delta,
            }) => assert_eq!(delta, b"delta"),
            _ => panic!("delta record does not decode"),
        }
        for cut in 0..21 {
            assert!(decode_log_record(&delta[..cut]).is_err(), "cut {cut}");
        }
        let mut rec = NodeRecord::blank();
        rec.last_epoch = 9;
        rec.open_from = Some(7);
        rec.intervals = vec![(1, 2), (4, 6)];
        let membership = encode_membership_record(3, &rec);
        assert_eq!(
            hex(&membership),
            "02030000000900000000000000010700000000000000020000000100000000000000020000000000000004000000000000000600000000000000"
        );

        match decode_log_record(&frame) {
            Ok(LogRecord::Frame {
                node: 3,
                epoch: 5,
                payload,
            }) => assert_eq!(payload, b"payload"),
            _ => panic!("frame record does not decode"),
        }
        match decode_log_record(&membership) {
            Ok(LogRecord::Membership {
                node: 3,
                last_epoch: 9,
                open_from: Some(7),
                intervals,
            }) => assert_eq!(intervals, vec![(1, 2), (4, 6)]),
            _ => panic!("membership record does not decode"),
        }
        for cut in 0..membership.len() {
            assert!(decode_log_record(&membership[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Recovery evicts as it replays, and serves exactly what replaying
    /// the whole log and then evicting down to the window serves: the
    /// same kept epochs, views, statuses, membership and counts — late
    /// and duplicate frames of evicted epochs included.
    #[test]
    fn a_bounded_replay_serves_what_replay_then_evict_serves() {
        use super::super::wire::{encode_epoch_payload, EpochReport};
        use nitro_core::Mode;
        use nitro_sketches::CountSketch;

        let template =
            || NitroSketch::new(CountSketch::new(3, 64, 5), Mode::Fixed { p: 1.0 }, 9).with_topk(4);
        let frame = |node: u32, epoch: u64| {
            let salt = (u64::from(node) << 8) ^ epoch;
            let mut sketch = template();
            for i in 0..40 {
                sketch.process((salt ^ (i * 7)) % 23, 1.0 + (i % 3) as f64);
            }
            let report = EpochReport {
                switch_id: node,
                epoch,
                packets: 40 + salt,
                heavy_hitters: vec![(salt % 5, 2.0)],
                entropy_bits: f64::NAN,
                distinct: f64::NAN,
                l2: 0.0,
                memory_bytes: 0,
            };
            encode_frame_record(
                node,
                epoch,
                &encode_epoch_payload(&report, &sketch.snapshot()),
            )
        };
        // Two nodes seal epochs 1..=12, node 2 skipping 5 and 9; then late
        // frames of evicted epochs, twice, a duplicate of a kept one, a
        // frame of node 3 for an evicted epoch only, and a membership
        // snapshot.
        let mut log = Vec::new();
        for epoch in 1..=12 {
            log.push(frame(1, epoch));
            if epoch != 5 && epoch != 9 {
                log.push(frame(2, epoch));
            }
        }
        log.extend([frame(2, 5), frame(2, 5), frame(2, 9), frame(2, 11)]);
        log.push(frame(3, 2));
        let mut member = NodeRecord::blank();
        member.open_from = Some(1);
        member.intervals = vec![(1, 3)];
        log.push(encode_membership_record(2, &member));
        log.push(frame(1, 12));
        let frames: Vec<RecoveredFrame> = log
            .into_iter()
            .enumerate()
            .map(|(seq, bytes)| RecoveredFrame {
                generation: 1,
                seq: seq as u64,
                processed_at: 0,
                bytes,
            })
            .collect();

        let timeout = Duration::from_secs(2);
        for keep in [1, 4, 11] {
            let (bounded, got) = Replay::of(template(), keep, timeout, &frames);
            // Replay then evict: the whole log unbounded, then the oldest
            // records dropped and complete epochs marked sealed.
            let (mut all, whole) = Replay::of(template(), 0, timeout, &frames);
            while all.epochs.len() > keep {
                all.epochs.pop_first();
            }
            assert_eq!(bounded.epochs(), all.epochs(), "keep {keep}");
            assert_eq!(
                (got.epochs, got.nodes, got.records),
                (keep as u32, whole.nodes, whole.records),
                "keep {keep}"
            );
            for e in 0..=13 {
                assert_eq!(
                    bounded.status_of(e),
                    all.status_of(e),
                    "keep {keep}, epoch {e}"
                );
                assert_eq!(bounded.members_of(e), all.members_of(e));
                let (Some(got), Some(want)) = (bounded.view(e), all.view(e)) else {
                    assert!(bounded.view(e).is_none() && all.view(e).is_none());
                    continue;
                };
                assert!(
                    got.sketch().snapshot() == want.sketch().snapshot(),
                    "epoch {e}"
                );
                assert_eq!(got.packets(), want.packets());
                assert_eq!(got.report_heavy_hitters(), want.report_heavy_hitters());
                assert_eq!(bounded.reporting_of(e), all.reporting_of(e));
                let sealed = |s: &AggregatorSession<CountSketch>| s.epochs[&e].sealed;
                assert_eq!(sealed(&bounded), sealed(&all));
            }
            assert_eq!(bounded.node_watermarks(), all.node_watermarks());
            assert_eq!(bounded.latest_complete(), all.latest_complete());
            assert_eq!(bounded.gauges(), all.gauges());
        }
    }
}
