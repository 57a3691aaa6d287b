//! The per-node cluster agent: seals epoch views into durable frames and
//! streams them to the aggregator, surviving partitions by replaying from
//! its own segment log.
//!
//! The agent owns a single-shard [`CheckpointStore`] — its *epoch log* —
//! whose frame sequence number IS the epoch number. Sealing is
//! **persist-before-publish**: the frame becomes durable locally before a
//! single byte reaches the network, so a send failure (partition,
//! aggregator restart, process kill between persist and send) degrades to
//! "the aggregator is missing an epoch I still hold", which the next
//! successful handshake repairs via backfill. Nothing ever needs to be
//! recomputed: backfill re-sends the epoch payloads the log replays.
//!
//! All protocol decisions live in the sans-io
//! [`AgentSession`]; this type is the TCP
//! driver — it dials, shuttles bytes, persists frames, and maps session
//! outputs onto telemetry. The deterministic simulator drives the same
//! session without any of this.

use super::proto::{AgentOutput, AgentSession};
use super::reconnect::ReconnectPolicy;
use super::wire::{encode_epoch_payload_into, EpochReport, Message};
use super::ClusterError;
use crate::clock::{Clock, SystemClock};
use crate::pipeline::MergedView;
use crate::store::{CheckpointSink, CheckpointStore, StoreConfig, StoreError};
use nitro_hash::xxhash::xxh64_u64;
use nitro_metrics::telemetry::{ClusterTelemetry, Event, TelemetryRegistry};
use nitro_sketches::checkpoint::Checkpoint;
use nitro_sketches::RowSketch;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one node's agent.
#[derive(Clone, Debug)]
pub struct NodeAgentConfig {
    /// Operator-assigned node id.
    pub node_id: u32,
    /// Blank-template configuration fingerprint
    /// (`Checkpoint::fingerprint` on the *inner* sketch of an unused
    /// template) — compared against the aggregator's at handshake.
    pub fingerprint: u64,
    /// Durability tuning for the epoch log. The default keeps more sealed
    /// segments than the pipeline store does: history here is backfill
    /// range, not just redundancy.
    pub store: StoreConfig,
    /// Redial schedule after a lost connection. The policy's jitter seed
    /// is mixed with the node id so a fleet severed by one partition does
    /// not redial in lockstep.
    pub reconnect: ReconnectPolicy,
    /// Bound on each dial attempt (per resolved address).
    pub connect_timeout: Duration,
    /// Bound on the handshake round-trip. Scoped to the handshake only:
    /// it is cleared from the read side afterwards so long idle gaps
    /// between heartbeats never surface as spurious errors.
    pub handshake_timeout: Duration,
    /// Write timeout kept on the stream after the handshake, so a hung or
    /// partitioned aggregator degrades a seal to local-durable instead of
    /// blocking the epoch loop.
    pub write_timeout: Duration,
    /// Telemetry registry `ReconnectBackoff` events and counters flow
    /// through; `None` disables agent-side telemetry.
    pub registry: Option<Arc<TelemetryRegistry>>,
    /// Time source for the redial schedule. [`SystemClock`] in
    /// production; tests substitute a `SimClock` to walk backoff
    /// deadlines without real sleeps.
    pub clock: Arc<dyn Clock>,
}

impl NodeAgentConfig {
    /// Config for `node_id` with fingerprint `fingerprint` and an epoch
    /// log retaining ~64 epochs of backfill range.
    pub fn new(node_id: u32, fingerprint: u64) -> Self {
        Self {
            node_id,
            fingerprint,
            store: StoreConfig {
                rotate_after: 8,
                keep_segments: 8,
                fsync: true,
            },
            reconnect: ReconnectPolicy::default(),
            connect_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(2),
            registry: None,
            clock: Arc::new(SystemClock),
        }
    }
}

/// What [`NodeAgent::seal_epoch`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealOutcome {
    /// The epoch that was sealed.
    pub epoch: u64,
    /// Whether the frame reached the aggregator connection. `false` means
    /// it is durable locally and will be backfilled on the next connect.
    pub delivered: bool,
}

/// The node-side half of the distributed measurement plane.
///
/// Lifecycle: [`NodeAgent::open`] (create or recover the epoch log) →
/// [`NodeAgent::connect`] (handshake + backfill) → a loop of
/// [`NodeAgent::seal_epoch`] / [`NodeAgent::heartbeat`] →
/// [`NodeAgent::close`]. After a crash, `open` on the same directory
/// resumes exactly where the durable log ends.
pub struct NodeAgent {
    session: AgentSession,
    store: Arc<CheckpointStore>,
    stream: Option<TcpStream>,
    clock: Arc<dyn Clock>,
    connect_timeout: Duration,
    handshake_timeout: Duration,
    write_timeout: Duration,
    registry: Option<Arc<TelemetryRegistry>>,
    cluster: Option<Arc<ClusterTelemetry>>,
    /// Resolved aggregator addresses from the last explicit
    /// [`NodeAgent::connect`] — the redial target.
    target: Option<Vec<SocketAddr>>,
    /// The epoch payload being sealed, recycled across seals: the report
    /// and the sketch checkpoint are written straight into it. A seal the
    /// session sends trades it for the session's previous delta base.
    payload: Vec<u8>,
    /// The view the session's previous payload encodes, by id.
    sealed: Option<u64>,
}

impl NodeAgent {
    /// Open (or recover) the agent's epoch log in `dir`. No network I/O:
    /// a node can seal epochs durably before — or without ever — reaching
    /// an aggregator.
    pub fn open(dir: impl AsRef<Path>, cfg: NodeAgentConfig) -> Result<Self, ClusterError> {
        let store = match CheckpointStore::create(&dir, 1, cfg.store.clone()) {
            Ok(s) => s,
            Err(StoreError::AlreadyExists) => CheckpointStore::recover(&dir, cfg.store.clone())?.0,
            Err(e) => return Err(e.into()),
        };
        let next_epoch = store.newest_frame(0).map_or(1, |f| f.seq + 1);
        // Mix the node id into the jitter seed so agents sharing a default
        // policy still spread their redials across a partition heal.
        let reconnect = ReconnectPolicy {
            seed: cfg.reconnect.seed ^ xxh64_u64(cfg.node_id as u64, 0x9e37_79b9_7f4a_7c15),
            ..cfg.reconnect
        };
        let cluster = cfg.registry.as_ref().map(|r| r.cluster());
        let session = AgentSession::new(
            cfg.node_id,
            cfg.fingerprint,
            store.generation(),
            next_epoch,
            reconnect,
        );
        Ok(Self {
            session,
            store,
            stream: None,
            clock: cfg.clock,
            connect_timeout: cfg.connect_timeout,
            handshake_timeout: cfg.handshake_timeout,
            write_timeout: cfg.write_timeout,
            registry: cfg.registry,
            cluster,
            target: None,
            payload: Vec::new(),
            sealed: None,
        })
    }

    /// Connect (or reconnect) to the aggregator: dial, handshake, then
    /// replay every durable epoch the aggregator is missing. Returns the
    /// number of frames backfilled.
    ///
    /// The resolved addresses become the agent's redial target: if the
    /// connection later drops, [`NodeAgent::seal_epoch`] and
    /// [`NodeAgent::heartbeat`] redial it automatically on the
    /// [`ReconnectPolicy`] schedule. An explicit `connect` always resets
    /// that schedule (attempt counter, backoff, spent budget).
    pub fn connect(&mut self, addr: impl ToSocketAddrs) -> Result<u64, ClusterError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::from(std::io::ErrorKind::AddrNotAvailable).into());
        }
        self.target = Some(addrs);
        self.session.connect();
        // Consume the Dial the explicit connect just emitted.
        self.session.drain();
        self.try_establish()
    }

    /// Execute one dial + handshake + backfill sequence against the
    /// stored target, reporting the outcome to the session (which arms
    /// the redial schedule on failure).
    fn try_establish(&mut self) -> Result<u64, ClusterError> {
        match self.establish_inner() {
            Ok(replayed) => Ok(replayed),
            Err(e) => {
                self.stream = None;
                self.session.dial_failed(self.clock.now_ns());
                self.map_outputs();
                Err(e)
            }
        }
    }

    /// Dial the stored target, handshake, backfill. Timeout discipline:
    /// the handshake deadline covers both directions but is *scoped to
    /// the handshake* — afterwards the read side is cleared (idle gaps
    /// between heartbeats are normal) and the write side drops to the
    /// configured seal-path timeout.
    fn establish_inner(&mut self) -> Result<u64, ClusterError> {
        self.stream = None;
        let addrs = self.target.clone().ok_or(ClusterError::NotConnected)?;
        let mut stream = None;
        let mut last_err: std::io::Error = std::io::ErrorKind::AddrNotAvailable.into();
        for a in &addrs {
            match TcpStream::connect_timeout(a, self.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        let Some(mut stream) = stream else {
            return Err(last_err.into());
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.handshake_timeout))?;
        stream.set_write_timeout(Some(self.handshake_timeout))?;
        self.session.transport_connected();
        for out in self.session.drain() {
            if let AgentOutput::Send(msg) = out {
                msg.write_to(&mut stream)?;
            }
        }
        let ack = Message::read_from(&mut stream)?;
        self.session.on_message(ack, self.clock.now_ns())?;
        // Backfill: replay durable frames the aggregator never saw, in
        // epoch order. Each ships its payload as a keyframe, which the
        // aggregator checks exactly like a fresh seal's.
        let mut replayed = 0u64;
        let backfilling = self
            .session
            .drain()
            .iter()
            .any(|o| matches!(o, AgentOutput::Backfill { .. }));
        if backfilling {
            for f in self.store.frames(0) {
                if self.session.offer_backfill(f) {
                    for out in self.session.drain() {
                        if let AgentOutput::Send(msg) = out {
                            msg.write_to(&mut stream)?;
                        }
                    }
                    replayed += 1;
                }
            }
        }
        stream.set_read_timeout(None)?;
        stream.set_write_timeout(Some(self.write_timeout))?;
        self.stream = Some(stream);
        Ok(replayed)
    }

    /// Map queued session outputs onto telemetry (`Backoff` →
    /// `ReconnectBackoff` event + counter; `GaveUp` is silent, matching
    /// the policy's "operator intervenes" contract).
    fn map_outputs(&mut self) {
        for out in self.session.drain() {
            match out {
                AgentOutput::Backoff { attempt, delay } => {
                    if let Some(reg) = &self.registry {
                        reg.record(Event::ReconnectBackoff {
                            node: self.session.node_id(),
                            attempt: attempt.min(u32::MAX as u64) as u32,
                            delay_ms: delay.as_millis() as u64,
                        });
                    }
                    if let Some(c) = &self.cluster {
                        c.reconnect_backoffs.incr();
                    }
                }
                AgentOutput::GaveUp
                | AgentOutput::Dial
                | AgentOutput::Send(_)
                | AgentOutput::Backfill { .. } => {}
            }
        }
    }

    /// Redial if disconnected, armed, and due. Called from the seal and
    /// heartbeat paths so partition repair needs no extra operator loop.
    fn pump(&mut self) {
        if self.stream.is_some() {
            return;
        }
        self.session.tick(self.clock.now_ns());
        let dial = self
            .session
            .drain()
            .iter()
            .any(|o| matches!(o, AgentOutput::Dial));
        if dial {
            let _ = self.try_establish();
        }
    }

    /// Write every queued `Send` to the live stream. A failure (including
    /// a write timeout against a hung aggregator) drops the connection
    /// and arms the redial schedule — the durable log keeps the data.
    fn flush_sends(&mut self) -> bool {
        let outs = self.session.drain();
        let Some(stream) = &mut self.stream else {
            return false;
        };
        for out in outs {
            if let AgentOutput::Send(msg) = out {
                if msg.write_to(stream).is_err() {
                    self.stream = None;
                    self.session.connection_lost(self.clock.now_ns());
                    return false;
                }
            }
        }
        true
    }

    /// Seal `epoch` from the pipeline's merged epoch view: build the
    /// report, persist report + full checkpoint as one durable frame
    /// (persist-before-publish), then ship it. Epoch numbers come from
    /// the operator's cadence driver so all nodes seal the same windows;
    /// they must advance strictly.
    ///
    /// A dead or absent connection is not an error: the outcome reports
    /// `delivered: false` and the frame waits in the log for the next
    /// [`NodeAgent::connect`] to backfill.
    pub fn seal_epoch<S>(
        &mut self,
        epoch: u64,
        view: &MergedView<S>,
        hh_threshold: f64,
    ) -> Result<SealOutcome, ClusterError>
    where
        S: RowSketch + Checkpoint + Clone,
    {
        self.session.begin_seal(epoch)?;
        // Redial *before* persisting: a successful redial backfills older
        // epochs first, then this epoch ships fresh on the live stream.
        self.pump();
        let sketch = view.sketch();
        let report = EpochReport {
            switch_id: self.session.node_id(),
            epoch,
            packets: sketch.stats().packets,
            heavy_hitters: sketch.heavy_hitters(hh_threshold),
            // Entropy/distinct estimators are not part of the cluster
            // seal path; the aggregator derives what it needs from the
            // merged sketch itself.
            entropy_bits: f64::NAN,
            distinct: f64::NAN,
            l2: view.l2(),
            memory_bytes: sketch.memory_bytes() as u64,
        };
        encode_epoch_payload_into(&mut self.payload, &report, |out| sketch.snapshot_into(out));
        // One cut against the previous epoch's payload serves the epoch log
        // (whose sequence numbers are epochs) and the wire. When that
        // payload holds the view this one was patched from, the view names
        // the lines that changed, and only the head is compared.
        let changed = view
            .changed()
            .filter(|&(since, _)| self.sealed == Some(since))
            .map(|(_, lines)| lines);
        let cut = self.session.cut(&self.payload, changed);
        self.store
            .writer(0)
            .persist_cut(epoch, report.packets, &self.payload, cut)?;
        let emitted = self.session.finish_seal(epoch, &mut self.payload);
        self.sealed = Some(view.id());
        let delivered = emitted && self.flush_sends();
        if delivered {
            self.session.note_sent(epoch);
        }
        Ok(SealOutcome { epoch, delivered })
    }

    /// Send a liveness heartbeat carrying the epoch currently
    /// accumulating and the observations processed so far. Returns whether
    /// the connection is still alive. Doubles as the redial pump: a
    /// disconnected agent uses the heartbeat cadence to walk its
    /// [`ReconnectPolicy`] schedule.
    pub fn heartbeat(&mut self, processed: u64) -> bool {
        self.pump();
        if !self.session.heartbeat(processed) {
            return false;
        }
        self.flush_sends()
    }

    /// Drop the connection without a `Goodbye` — the test hook for
    /// simulating a network partition or abrupt process death: the
    /// aggregator must discover the silence on its own. The redial
    /// schedule arms exactly as for an organically dropped connection.
    pub fn sever(&mut self) {
        self.stream = None;
        self.session.connection_lost(self.clock.now_ns());
    }

    /// Clean shutdown: announce departure so the aggregator stops
    /// expecting this node in future epochs.
    pub fn close(mut self) {
        if self.session.goodbye() {
            self.flush_sends();
        }
        self.stream = None;
    }

    /// Whether a connection is currently held (it may still be found dead
    /// on the next send).
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// The next epoch this agent will accept a seal for.
    pub fn next_epoch(&self) -> u64 {
        self.session.next_epoch()
    }

    /// Newest epoch the aggregator acknowledged holding from this node.
    pub fn acked_epoch(&self) -> u64 {
        self.session.acked_epoch()
    }

    /// Cluster-wide newest epoch per the last handshake (0 before one).
    pub fn cluster_epoch(&self) -> u64 {
        self.session.cluster_epoch()
    }

    /// Durable frames replayed across all connects of this instance.
    pub fn backfilled(&self) -> u64 {
        self.session.backfilled()
    }

    /// Consecutive failed automatic redials since the connection dropped.
    pub fn reconnect_attempts(&self) -> u64 {
        self.session.reconnect_attempts()
    }

    /// Whether the redial budget is spent (an explicit
    /// [`NodeAgent::connect`] resets it).
    pub fn gave_up(&self) -> bool {
        self.session.gave_up()
    }

    /// This node's id.
    pub fn node_id(&self) -> u32 {
        self.session.node_id()
    }

    /// The underlying epoch log (tests inspect durability through it).
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CheckpointSink;
    use nitro_core::{Mode, NitroSketch};
    use nitro_sketches::CountMin;
    use std::time::Instant;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nitro-agent-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fingerprint() -> u64 {
        CountMin::new(4, 256, 7).fingerprint()
    }

    #[test]
    fn open_resumes_epoch_numbering_from_durable_log() {
        let dir = tmp_dir("resume");
        let cfg = NodeAgentConfig::new(3, fingerprint());
        {
            let agent = NodeAgent::open(&dir, cfg.clone()).unwrap();
            assert_eq!(agent.next_epoch(), 1);
            // Persist two epoch frames directly through the log.
            agent.store().writer(0).persist(1, 10, b"one").unwrap();
            agent.store().writer(0).persist(2, 20, b"two").unwrap();
        }
        let agent = NodeAgent::open(&dir, cfg).unwrap();
        assert_eq!(agent.next_epoch(), 3);
        assert!(!agent.is_connected());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sever_arms_backoff_but_never_redials_instantly() {
        let dir = tmp_dir("sever-backoff");
        let mut cfg = NodeAgentConfig::new(1, fingerprint());
        cfg.reconnect = crate::cluster::ReconnectPolicy {
            base_backoff: Duration::from_secs(60),
            ..Default::default()
        };
        let mut agent = NodeAgent::open(&dir, cfg).unwrap();
        // No target yet: sever is a no-op on the schedule.
        agent.sever();
        assert!(!agent.gave_up());
        assert_eq!(agent.reconnect_attempts(), 0);
        // With a (dead) target armed via a failed connect, the heartbeat
        // path must respect the 60 s backoff rather than dialing in a hot
        // loop — the call returns immediately and stays disconnected.
        assert!(agent.connect("127.0.0.1:1").is_err());
        assert!(
            agent.session.retry_at().is_some(),
            "failed connect arms the redial"
        );
        let t = Instant::now();
        assert!(!agent.heartbeat(0));
        assert!(t.elapsed() < Duration::from_secs(1));
        assert!(!agent.is_connected());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_without_connection_is_durable_not_lost() {
        let dir = tmp_dir("offline");
        let mut agent = NodeAgent::open(&dir, NodeAgentConfig::new(1, fingerprint())).unwrap();
        let mut sketch = NitroSketch::new(CountMin::new(4, 256, 7), Mode::Fixed { p: 1.0 }, 16);
        for _ in 0..100 {
            sketch.process(42, 1.0);
        }
        let view = MergedView::from_sketch(1, sketch);
        let out = agent.seal_epoch(1, &view, 50.0).unwrap();
        assert_eq!(
            out,
            SealOutcome {
                epoch: 1,
                delivered: false
            }
        );
        let frame = agent.store().newest_frame(0).expect("durable frame");
        assert_eq!(frame.seq, 1);
        // Sealing the same epoch again must be refused.
        let view2 = MergedView::from_sketch(
            1,
            NitroSketch::new(CountMin::new(4, 256, 7), Mode::Fixed { p: 1.0 }, 16),
        );
        assert!(matches!(
            agent.seal_epoch(1, &view2, 50.0),
            Err(ClusterError::EpochNotMonotonic { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
