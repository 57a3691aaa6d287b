//! The aggregator: admits nodes, merges their epoch frames into per-epoch
//! global sketches, and serves network-wide queries behind an
//! epoch-versioned read API.
//!
//! ## Epoch lifecycle
//!
//! An epoch's *member set* is every node that has ever reported an epoch
//! `<= e` and had not said `Goodbye` before `e`. The epoch is
//! [`EpochStatus::Complete`] only when every member's frame is merged;
//! until then it is [`EpochStatus::Pending`] (the missing nodes are
//! connected and expected to seal) or [`EpochStatus::Degraded`] (a
//! missing node is lost — its frame can only arrive via backfill after a
//! reconnect). **No epoch is ever served complete while a reporting
//! node's frames are missing** — that is the plane's core honesty
//! guarantee.
//!
//! ## Failure detection and repair
//!
//! Each connection runs a buffered read loop: complete messages are
//! peeled off the front of a byte buffer ([`Message::decode`]), so a read
//! timeout can never tear a frame mid-stream. A dead socket, a corrupt
//! stream, or heartbeat silence past [`AggregatorConfig::heartbeat_timeout`]
//! declares the node lost (`NodeLoss` journal event). Repair is entirely
//! node-driven: the reconnect handshake tells the agent the newest epoch
//! the aggregator holds, and the agent backfills everything newer from
//! its durable segment log — each replayed frame is validated by the same
//! CRC/version/geometry gauntlet as a fresh seal.
//!
//! All of that logic lives in the sans-io
//! [`AggregatorSession`]; this type is
//! the TCP driver — accept loop, per-connection byte pumps, the durable
//! [`AggLog`], the heartbeat monitor thread, and the mapping from session
//! events onto telemetry. The deterministic simulator drives the same
//! session with none of this machinery.

use super::proto::{
    delta_record_head, frame_record_head, AggEvent, AggOutput, AggregatorSession, ConnId,
    LogAppend, Record, Replay,
};
pub use super::proto::{AggRecovery, ClusterSketch, ClusterView, EpochStatus};
use super::wire::Message;
use super::ClusterError;
use crate::clock::{Clock, Nanos, SystemClock};
use crate::frame::FrameError;
use crate::store::{CheckpointStore, StoreConfig, StoreError};
use nitro_core::NitroSketch;
use nitro_metrics::telemetry::{ClusterTelemetry, Event, TelemetryRegistry};
use nitro_sketches::FlowKey;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Aggregator tuning.
#[derive(Clone, Debug)]
pub struct AggregatorConfig {
    /// Silence bound: a connected node with no message (seal, heartbeat,
    /// anything) for this long is declared lost.
    pub heartbeat_timeout: Duration,
    /// Merged epochs retained (oldest evicted first; 0 = unbounded).
    pub keep_epochs: usize,
    /// Telemetry registry to journal events and export gauges through; a
    /// fresh private registry is created when absent.
    pub registry: Option<Arc<TelemetryRegistry>>,
    /// Directory for the durable aggregation log. `None` keeps the
    /// aggregator memory-only (a restart loses every merged view);
    /// `Some(dir)` persists every merged node frame and membership change
    /// so [`Aggregator::recover`] can rebuild the plane from disk.
    pub log_dir: Option<PathBuf>,
    /// Durability tuning for the aggregation log. Unlike the pipeline
    /// store — where the newest frame holds the whole state and history is
    /// mere redundancy — each aggregation-log record is one node-epoch
    /// frame or membership change, and recovery replays them all, so
    /// retention must cover the whole epoch window being served: the
    /// default keeps 64 sealed segments of 128 records. A seal that
    /// arrived as a delta is logged as that delta, chained to its node's
    /// record before it; every segment opens each node's chain with a
    /// whole record ([`AggLog`]).
    pub log_store: StoreConfig,
    /// Time source for the heartbeat monitor. [`SystemClock`] in
    /// production; tests substitute a `SimClock` to walk silence
    /// deadlines without real waits.
    pub clock: Arc<dyn Clock>,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(2),
            keep_epochs: 256,
            registry: None,
            log_dir: None,
            log_store: StoreConfig {
                rotate_after: 128,
                keep_segments: 64,
                fsync: true,
            },
            clock: Arc::new(SystemClock),
        }
    }
}

/// The durable aggregation log: a single-shard [`CheckpointStore`] whose
/// frames are aggregation-log records under a monotonic sequence, written
/// whole (the records carry their own deltas). Reuses the pipeline store's
/// CRC framing, fsync discipline, and torn-tail truncation wholesale. The
/// TCP [`Aggregator`] and the deterministic simulator both write it, and
/// both read it back with [`AggLog::recover`].
///
/// A seal is logged as it arrived: a keyframe as a whole frame record, a
/// delta as a delta record of the wire delta, chained to its node's
/// record before it. Every segment opens each node's chain with a whole
/// record — a delta whose node has no record of its base in the active
/// segment, on the connection the delta came on, is written whole, from
/// the payload the session rebuilt — so deleting whole segments never
/// orphans a delta.
pub struct AggLog {
    store: Arc<CheckpointStore>,
    /// Sequence number of the next record. It restarts under every
    /// generation the store opens with, so `(generation, seq)` still
    /// grows record by record.
    seq: u64,
    /// The active segment the chains below are in.
    segment: u64,
    /// Each node's chain in the active segment: the connection and epoch
    /// of its newest seal record there.
    chains: BTreeMap<u32, (Option<ConnId>, u64)>,
}

impl AggLog {
    /// Create the log in `dir`, or reopen an existing one under a new
    /// generation.
    pub fn open(dir: impl AsRef<Path>, cfg: &StoreConfig) -> Result<Self, ClusterError> {
        let dir = dir.as_ref();
        let store = match CheckpointStore::create(dir, 1, cfg.clone()) {
            Ok(s) => s,
            Err(StoreError::AlreadyExists) => CheckpointStore::recover(dir, cfg.clone())?.0,
            Err(e) => return Err(e.into()),
        };
        Ok(Self::new(store))
    }

    fn new(store: Arc<CheckpointStore>) -> Self {
        Self {
            store,
            seq: 1,
            segment: u64::MAX,
            chains: BTreeMap::new(),
        }
    }

    /// Append one record `session` emitted, before `session` is fed
    /// anything else. A persist failure leaves the record missing from a
    /// future recovery, and the next seal of every node whole.
    pub fn append<S: ClusterSketch>(
        &mut self,
        record: LogAppend,
        session: &AggregatorSession<S>,
    ) -> std::io::Result<()> {
        let segment = self.store.active_segment(0);
        if segment != self.segment {
            self.segment = segment;
            self.chains.clear();
        }
        let seq = self.seq;
        self.seq += 1;
        let w = self.store.writer(0);
        let written = match record.0 {
            Record::Membership(bytes) => w.persist_whole(seq, 0, &[&bytes]),
            Record::Whole {
                node,
                epoch,
                payload,
            } => {
                self.chains.insert(node, (None, epoch));
                let head = frame_record_head(node, epoch);
                w.persist_whole(seq, 0, &[&head, payload.as_slice()])
            }
            Record::Live {
                conn,
                node,
                epoch,
                delta,
            } => {
                let chain = self.chains.insert(node, (Some(conn), epoch));
                match delta {
                    Some((base_epoch, delta)) if chain == Some((Some(conn), base_epoch)) => {
                        let head = delta_record_head(node, epoch, base_epoch);
                        w.persist_whole(seq, 0, &[&head, &delta])
                    }
                    _ => match session.seal_payload(conn, epoch) {
                        Some(payload) => {
                            let head = frame_record_head(node, epoch);
                            w.persist_whole(seq, 0, &[&head, payload])
                        }
                        None => {
                            self.chains.remove(&node);
                            Err(std::io::Error::other("seal payload no longer held"))
                        }
                    },
                }
            }
        };
        if written.is_err() {
            self.chains.clear();
        }
        written
    }

    /// Rebuild a session from every record of the log, streamed in append
    /// order: `template`, `keep_epochs` and `heartbeat_timeout` as for
    /// [`AggregatorSession::new`]. The records that session emits open
    /// new chains: its connections are new.
    pub fn recover<S: ClusterSketch>(
        &mut self,
        template: NitroSketch<S>,
        keep_epochs: usize,
        heartbeat_timeout: Duration,
    ) -> (AggregatorSession<S>, AggRecovery) {
        self.chains.clear();
        let mut replay = Replay::new(template, keep_epochs, heartbeat_timeout);
        self.store
            .for_each_frame(0, |_, bytes| replay.record(bytes));
        replay.finish()
    }

    /// The store the records live in.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }
}

struct AggShared<S: ClusterSketch> {
    session: Mutex<AggregatorSession<S>>,
    registry: Arc<TelemetryRegistry>,
    cluster: Arc<ClusterTelemetry>,
    shutdown: AtomicBool,
    handlers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// The durable aggregation log, when [`AggregatorConfig::log_dir`] is
    /// set. Appended to under the session lock only.
    log: Option<Mutex<AggLog>>,
    clock: Arc<dyn Clock>,
    /// Clock time the session lock has been held for log appends, which
    /// [`AggShared::now`] leaves out of every node's silence.
    log_ns: AtomicU64,
}

impl<S: ClusterSketch> AggShared<S> {
    /// Run `f` against the session under its lock, then execute its
    /// output queue: `Append`s reach the durable log before the lock is
    /// released (persist-before-serve: no reader sees state the log does
    /// not hold yet), `Event`s become telemetry, gauges refresh from
    /// session state, and the remaining socket operations (`Send`/`Close`)
    /// are returned for the calling connection handler to execute outside
    /// the lock.
    fn with_session<R>(
        &self,
        f: impl FnOnce(&mut AggregatorSession<S>) -> R,
    ) -> (R, Vec<AggOutput>) {
        let mut session = self.session.lock().unwrap_or_else(|p| p.into_inner());
        let r = f(&mut session);
        let mut outs = Vec::new();
        let mut log_start = None;
        for out in session.drain() {
            match out {
                AggOutput::Append(record) => {
                    log_start.get_or_insert_with(|| self.clock.now_ns());
                    self.log_append(record, &session);
                }
                out => outs.push(out),
            }
        }
        if let Some(start) = log_start {
            let spent = self.clock.now_ns().saturating_sub(start);
            self.log_ns.fetch_add(spent, Ordering::Relaxed);
        }
        let (connected, known, degraded) = session.gauges();
        let watermarks = session.node_watermarks();
        drop(session);
        let mut ops = Vec::new();
        for out in outs {
            match out {
                AggOutput::Event(ev) => self.record_event(ev),
                op => ops.push(op),
            }
        }
        self.cluster.connected_nodes.set(connected);
        self.cluster.known_nodes.set(known);
        self.cluster.degraded_epochs.set(degraded);
        self.cluster.publish_nodes(watermarks);
        (r, ops)
    }

    /// The session's time: the clock less the time spent appending to the
    /// log under the session lock. A disk stall holds every connection's
    /// messages behind that lock, so it must not count as the nodes'
    /// silence; the price is that a node that really dies during a stall
    /// is declared lost that much later. Read it only under the session
    /// lock (inside a [`AggShared::with_session`] closure), where no append
    /// is under way.
    fn now(&self) -> Nanos {
        self.clock
            .now_ns()
            .saturating_sub(self.log_ns.load(Ordering::Relaxed))
    }

    /// Map one session event onto the telemetry journal and counters.
    fn record_event(&self, ev: AggEvent) {
        match ev {
            AggEvent::NodeJoin { node, epoch } => {
                self.registry.record(Event::NodeJoin { node, epoch });
            }
            AggEvent::NodeLoss { node, last_epoch } => {
                self.registry.record(Event::NodeLoss { node, last_epoch });
                self.cluster.node_losses.incr();
            }
            AggEvent::FrameMerged { node, backfill, .. } => {
                self.cluster.frames_received.incr();
                if backfill {
                    self.cluster.backfill_frames.incr();
                    self.registry
                        .record(Event::BackfillReplayed { node, frames: 1 });
                }
            }
            AggEvent::FrameRejected { .. } => self.cluster.frames_rejected.incr(),
            AggEvent::Heartbeat { .. } => self.cluster.heartbeats.incr(),
            AggEvent::EpochSealed {
                epoch,
                nodes,
                was_degraded,
            } => {
                self.cluster.epochs_sealed.incr();
                self.registry.record(Event::EpochSealed {
                    epoch,
                    nodes,
                    was_degraded,
                });
            }
        }
    }

    /// Append one record to the aggregation log, counting the outcome. A
    /// persist failure degrades durability (the record will be missing
    /// from a future recovery) but never refuses service.
    fn log_append(&self, record: LogAppend, session: &AggregatorSession<S>) {
        let Some(log) = &self.log else { return };
        let mut log = log.lock().unwrap_or_else(|p| p.into_inner());
        match log.append(record, session) {
            Ok(()) => self.cluster.log_records.incr(),
            Err(_) => self.cluster.log_persist_failures.incr(),
        }
    }
}

/// Per-connection loop: register the connection with the session, then
/// pump decoded messages into it and execute the socket operations it
/// emits.
///
/// The socket reads straight into one buffer that lives as long as the
/// connection: `buf[start..end]` holds the bytes not yet decoded. A
/// message cut short tells the reader its whole length once its header is
/// in, and the buffer grows to hold it, so a seal is read into place and
/// never copied through a smaller chunk.
fn handle_conn<S: ClusterSketch>(shared: Arc<AggShared<S>>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    // Short poll so shutdown and heartbeat checks stay responsive; the
    // buffer below makes a timeout mid-frame harmless.
    if stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .is_err()
    {
        return;
    }
    let (conn, _) = shared.with_session(|s| s.conn_open());
    let mut buf = vec![0u8; READ_CHUNK];
    let (mut start, mut end) = (0, 0);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            // The whole aggregator is going away: unbind without blaming
            // the node.
            shared.with_session(|s| s.conn_closed(conn, false));
            return;
        }
        let need = loop {
            match Message::decode(&buf[start..end]) {
                Ok((msg, used)) => {
                    start += used;
                    if matches!(msg, Message::SealEpoch { .. } | Message::SealDelta { .. }) {
                        shared.cluster.seal_bytes.add(used as u64);
                    }
                    if matches!(msg, Message::SealDelta { .. }) {
                        shared.cluster.delta_seals.incr();
                    }
                    let ((), ops) = shared.with_session(|s| s.on_message(conn, msg, shared.now()));
                    for op in ops {
                        match op {
                            AggOutput::Send { msg, .. } => {
                                if msg.write_to(&mut stream).is_err() {
                                    shared.with_session(|s| s.conn_closed(conn, true));
                                    return;
                                }
                            }
                            AggOutput::Close { .. } => return,
                            AggOutput::Append(_) | AggOutput::Event(_) => {}
                        }
                    }
                }
                // A prefix of a message: `need` is its whole length once
                // the header is in, the header's length before.
                Err(FrameError::Truncated { need, .. }) => break need,
                Err(_) => {
                    // Corrupt stream: nothing after this point can be
                    // trusted.
                    shared.with_session(|s| s.conn_corrupt(conn));
                    return;
                }
            }
        };
        // Move the undecoded prefix to the front and make room for the
        // rest of its message.
        if start > 0 {
            buf.copy_within(start..end, 0);
            end -= start;
            start = 0;
        }
        let want = need.max(end + READ_CHUNK);
        if buf.len() < want {
            buf.resize(want, 0);
        }
        match stream.read(&mut buf[end..]) {
            Ok(0) => {
                shared.with_session(|s| s.conn_closed(conn, true));
                return;
            }
            Ok(n) => end += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                shared.with_session(|s| s.conn_closed(conn, true));
                return;
            }
        }
    }
}

/// Least free space a connection's read buffer offers each read.
const READ_CHUNK: usize = 16 * 1024;

/// The control-plane aggregation server.
pub struct Aggregator<S: ClusterSketch> {
    shared: Arc<AggShared<S>>,
    addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
    monitor_thread: Option<thread::JoinHandle<()>>,
}

impl<S: ClusterSketch> Aggregator<S> {
    /// Start serving on `addr` (use port 0 for an ephemeral port; see
    /// [`Aggregator::local_addr`]). `template` must be a **blank** sketch
    /// built exactly like every node's — its fingerprint is the admission
    /// check, its clones become the per-epoch merge targets.
    ///
    /// With [`AggregatorConfig::log_dir`] set, every merged frame and
    /// membership change is persisted to the aggregation log as it
    /// happens — but `spawn` starts from *empty* in-memory state even if
    /// the log already has records (they remain valid: a later
    /// [`Aggregator::recover`] on the same directory replays everything).
    /// To restart *from* the log, use `recover`.
    pub fn spawn(
        template: NitroSketch<S>,
        addr: impl ToSocketAddrs,
        cfg: AggregatorConfig,
    ) -> Result<Self, ClusterError> {
        let log = match &cfg.log_dir {
            Some(dir) => Some(AggLog::open(dir, &cfg.log_store)?),
            None => None,
        };
        let session = AggregatorSession::new(template, cfg.keep_epochs, cfg.heartbeat_timeout);
        Self::spawn_inner(addr, cfg, session, log, None)
    }

    /// Rebuild the aggregator from the aggregation log in `dir`, then
    /// start serving on `addr`. Every epoch view whose frames reached the
    /// log is answerable — [`Aggregator::view`], [`Aggregator::latest_complete`],
    /// [`Aggregator::epoch_status`] — *before a single node reconnects*,
    /// and each reconnecting node's `HelloAck` carries the recovered
    /// `last_epoch` watermark, so backfill is delta-only: exactly the
    /// epochs the dead aggregator never merged.
    ///
    /// Recovered nodes start disconnected (their sockets died with the
    /// old process); epochs that were complete stay complete, epochs
    /// missing a node's frames are served degraded until that node
    /// redials and backfills.
    pub fn recover(
        template: NitroSketch<S>,
        addr: impl ToSocketAddrs,
        dir: impl AsRef<Path>,
        mut cfg: AggregatorConfig,
    ) -> Result<(Self, AggRecovery), ClusterError> {
        cfg.log_dir = Some(dir.as_ref().to_path_buf());
        let mut log = AggLog::open(dir.as_ref(), &cfg.log_store)?;
        let (session, recovery) = log.recover(template, cfg.keep_epochs, cfg.heartbeat_timeout);
        let agg = Self::spawn_inner(addr, cfg, session, Some(log), Some(recovery))?;
        Ok((agg, recovery))
    }

    fn spawn_inner(
        addr: impl ToSocketAddrs,
        cfg: AggregatorConfig,
        session: AggregatorSession<S>,
        log: Option<AggLog>,
        recovery: Option<AggRecovery>,
    ) -> Result<Self, ClusterError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let registry = cfg
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(TelemetryRegistry::new()));
        let cluster = registry.cluster();
        let shared = Arc::new(AggShared {
            session: Mutex::new(session),
            registry,
            cluster,
            shutdown: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
            log: log.map(Mutex::new),
            clock: Arc::clone(&cfg.clock),
            log_ns: AtomicU64::new(0),
        });
        if let Some(r) = recovery {
            shared.registry.record(Event::AggregatorRecovered {
                epochs: r.epochs,
                nodes: r.nodes,
                records: r.records,
            });
            shared.cluster.recovered_epochs.set(r.epochs as u64);
            shared.cluster.recovered_records.set(r.records);
            shared.with_session(|_| ());
        }

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("nitro-agg-accept".into())
            .spawn(move || loop {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn_shared = Arc::clone(&accept_shared);
                        if let Ok(h) = thread::Builder::new()
                            .name("nitro-agg-conn".into())
                            .spawn(move || handle_conn(conn_shared, stream))
                        {
                            accept_shared
                                .handlers
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .push(h);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            })
            .expect("spawn aggregator accept thread");

        let monitor_shared = Arc::clone(&shared);
        let tick = (cfg.heartbeat_timeout / 4).max(Duration::from_millis(5));
        let monitor_thread = thread::Builder::new()
            .name("nitro-agg-monitor".into())
            .spawn(move || loop {
                monitor_shared.clock.sleep(tick);
                if monitor_shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                monitor_shared.with_session(|s| s.tick(monitor_shared.now()));
            })
            .expect("spawn aggregator monitor thread");

        Ok(Self {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            monitor_thread: Some(monitor_thread),
        })
    }

    /// The bound listen address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The telemetry registry events and gauges flow through.
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.shared.registry
    }

    fn session(&self) -> std::sync::MutexGuard<'_, AggregatorSession<S>> {
        self.shared
            .session
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Status of one epoch.
    pub fn epoch_status(&self, epoch: u64) -> EpochStatus {
        self.session().status_of(epoch)
    }

    /// Newest epoch any node has reported (0: none).
    pub fn latest_epoch(&self) -> u64 {
        self.session().cluster_epoch()
    }

    /// Newest epoch served complete, if any.
    pub fn latest_complete(&self) -> Option<u64> {
        self.session().latest_complete()
    }

    /// Epoch-versioned read: the merged view of `epoch` with its
    /// completeness status stamped in. `None` when no node has reported
    /// the epoch (or it was evicted).
    pub fn view(&self, epoch: u64) -> Option<ClusterView<S>> {
        self.session().view(epoch)
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
        self.session().change_between(from, to, threshold)
    }

    /// Node ids currently holding a live connection.
    pub fn connected_nodes(&self) -> Vec<u32> {
        self.session().connected_nodes()
    }

    /// Every node id the aggregator has ever admitted.
    pub fn known_nodes(&self) -> Vec<u32> {
        self.session().known_nodes()
    }

    /// Prometheus scrape (gauges refreshed first).
    pub fn scrape(&self) -> String {
        self.shared.with_session(|_| ());
        self.shared.registry.render_prometheus()
    }

    /// JSON scrape (gauges refreshed first).
    pub fn scrape_json(&self) -> String {
        self.shared.with_session(|_| ());
        self.shared.registry.render_json()
    }

    /// Stop serving: close the listener, join every thread. Merged state
    /// stays queryable through the returned handle? No — shutdown consumes
    /// the aggregator; take the views you need first.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor_thread.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(
            &mut *self
                .shared
                .handlers
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl<S: ClusterSketch> Drop for Aggregator<S> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::agent::{NodeAgent, NodeAgentConfig};
    use crate::faults::DiskFaultPlan;
    use crate::pipeline::MergedView;
    use nitro_core::{Mode, NitroSketch};
    use nitro_sketches::checkpoint::Checkpoint;
    use nitro_sketches::CountMin;
    use std::time::Instant;

    fn template() -> NitroSketch<CountMin> {
        NitroSketch::new(CountMin::new(4, 512, 7), Mode::Fixed { p: 1.0 }, 32)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nitro-agg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn loopback_seal_merge_and_query() {
        let agg = Aggregator::spawn(
            template(),
            ("127.0.0.1", 0),
            AggregatorConfig {
                heartbeat_timeout: Duration::from_millis(500),
                ..Default::default()
            },
        )
        .unwrap();
        let fp = template().inner().fingerprint();
        let mut agents = Vec::new();
        for id in 0..2u32 {
            let dir = tmp_dir(&format!("loop{id}"));
            let mut a = NodeAgent::open(&dir, NodeAgentConfig::new(id, fp)).unwrap();
            a.connect(agg.local_addr()).unwrap();
            agents.push((a, dir));
        }
        for (id, (agent, _dir)) in agents.iter_mut().enumerate() {
            let mut sketch = template();
            for _ in 0..100 * (id + 1) {
                sketch.process(7, 1.0);
            }
            let view = MergedView::from_sketch(1, sketch);
            let out = agent.seal_epoch(1, &view, 10.0).unwrap();
            assert!(out.delivered);
        }
        assert!(wait_until(Duration::from_secs(5), || agg
            .epoch_status(1)
            .is_complete()));
        let view = agg.view(1).unwrap();
        assert_eq!(view.estimate(7), 300.0); // 100 + 200, p = 1 exact
        assert_eq!(agg.latest_complete(), Some(1));
        for (a, dir) in agents {
            a.close();
            let _ = std::fs::remove_dir_all(&dir);
        }
        agg.shutdown();
    }

    #[test]
    fn recover_serves_sealed_epochs_before_any_reconnect() {
        let log_dir = tmp_dir("recover-log");
        let registry = Arc::new(TelemetryRegistry::new());
        let cfg = AggregatorConfig {
            heartbeat_timeout: Duration::from_millis(500),
            registry: Some(Arc::clone(&registry)),
            log_dir: Some(log_dir.clone()),
            ..Default::default()
        };
        let agg = Aggregator::spawn(template(), ("127.0.0.1", 0), cfg.clone()).unwrap();
        let fp = template().inner().fingerprint();
        let mut agents = Vec::new();
        for id in 0..2u32 {
            let dir = tmp_dir(&format!("recover-agent{id}"));
            let mut a = NodeAgent::open(&dir, NodeAgentConfig::new(id, fp)).unwrap();
            a.connect(agg.local_addr()).unwrap();
            agents.push((a, dir));
        }
        for epoch in 1..=2u64 {
            for (id, (agent, _)) in agents.iter_mut().enumerate() {
                let mut sketch = template();
                for _ in 0..50 * (id as u64 + 1) * epoch {
                    sketch.process(9, 1.0);
                }
                let view = MergedView::from_sketch(epoch, sketch);
                assert!(agent.seal_epoch(epoch, &view, 10.0).unwrap().delivered);
            }
            assert!(wait_until(Duration::from_secs(5), || agg
                .epoch_status(epoch)
                .is_complete()));
        }
        let expect_1 = agg.view(1).unwrap().estimate(9);
        let expect_2 = agg.view(2).unwrap().estimate(9);
        agg.shutdown(); // the "crash": all in-memory views are gone

        // Recovery, before any node reconnects: sealed epochs are served
        // from disk alone.
        let (agg, recovery) =
            Aggregator::recover(template(), ("127.0.0.1", 0), &log_dir, cfg).unwrap();
        assert_eq!(recovery.epochs, 2);
        assert_eq!(recovery.nodes, 2);
        assert!(recovery.records >= 4, "4 frames + membership records");
        assert_eq!(agg.latest_complete(), Some(2));
        assert!(agg.epoch_status(1).is_complete());
        assert!(agg.epoch_status(2).is_complete());
        assert_eq!(agg.view(1).unwrap().estimate(9), expect_1);
        assert_eq!(agg.view(2).unwrap().estimate(9), expect_2);
        assert!(agg.connected_nodes().is_empty());

        // The recovered last_epoch watermark makes reconnect delta-only:
        // the agent has nothing the aggregator is missing.
        let (agent, _) = &mut agents[0];
        assert_eq!(agent.connect(agg.local_addr()).unwrap(), 0);

        let events = registry.drain_events();
        assert!(events.iter().any(|e| matches!(
            e.event,
            Event::AggregatorRecovered {
                epochs: 2,
                nodes: 2,
                ..
            }
        )));
        for (a, dir) in agents {
            a.close();
            let _ = std::fs::remove_dir_all(&dir);
        }
        agg.shutdown();
        let _ = std::fs::remove_dir_all(&log_dir);
    }

    #[test]
    fn spawn_on_existing_log_then_recover_replays_both_incarnations() {
        // spawn (not recover) on a dir that already has records must not
        // clobber them: a later recover sees frames from both lives.
        let log_dir = tmp_dir("two-lives");
        let cfg = AggregatorConfig {
            log_dir: Some(log_dir.clone()),
            ..Default::default()
        };
        let fp = template().inner().fingerprint();
        let adir = tmp_dir("two-lives-agent");
        let mut agent = NodeAgent::open(&adir, NodeAgentConfig::new(7, fp)).unwrap();
        for epoch in 1..=2u64 {
            let agg = Aggregator::spawn(template(), ("127.0.0.1", 0), cfg.clone()).unwrap();
            agent.connect(agg.local_addr()).unwrap();
            let mut sketch = template();
            for _ in 0..100 {
                sketch.process(3, 1.0);
            }
            let view = MergedView::from_sketch(epoch, sketch);
            assert!(agent.seal_epoch(epoch, &view, 10.0).unwrap().delivered);
            assert!(wait_until(Duration::from_secs(5), || {
                agg.epoch_status(epoch).is_complete()
            }));
            agent.sever();
            agg.shutdown();
        }
        let (agg, recovery) =
            Aggregator::recover(template(), ("127.0.0.1", 0), &log_dir, cfg).unwrap();
        assert_eq!(recovery.epochs, 2);
        assert_eq!(agg.view(1).unwrap().estimate(3), 100.0);
        assert_eq!(agg.view(2).unwrap().estimate(3), 100.0);
        agg.shutdown();
        let _ = std::fs::remove_dir_all(&adir);
        let _ = std::fs::remove_dir_all(&log_dir);
    }

    #[test]
    fn mismatched_fingerprint_is_rejected_at_handshake() {
        let agg =
            Aggregator::spawn(template(), ("127.0.0.1", 0), AggregatorConfig::default()).unwrap();
        // Different row seed → different fingerprint → rejected.
        let wrong_fp = CountMin::new(4, 512, 9).fingerprint();
        let dir = tmp_dir("reject");
        let mut a = NodeAgent::open(&dir, NodeAgentConfig::new(5, wrong_fp)).unwrap();
        assert!(matches!(
            a.connect(agg.local_addr()),
            Err(ClusterError::Rejected(_))
        ));
        assert!(agg.known_nodes().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        agg.shutdown();
    }

    mod torn_tail {
        use super::*;
        use crate::cluster::proto::{decode_log_record, encode_frame_record, LogRecord, Replay};
        use crate::cluster::wire::{decode_epoch_payload, encode_epoch_payload, EpochReport};
        use crate::store::CheckpointSink;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// Independent straight-line re-merge of whatever frame records
        /// survive in the log: restore each, merge per epoch, dedup by
        /// (epoch, node) in append order — no membership logic, no
        /// eviction. The ground truth session recovery must agree with.
        fn independent_merge(
            template: &NitroSketch<CountMin>,
            frames: &[crate::store::RecoveredFrame],
        ) -> BTreeMap<u64, (NitroSketch<CountMin>, BTreeSet<u32>, u64)> {
            let mut epochs = BTreeMap::new();
            for f in frames {
                let Ok(LogRecord::Frame {
                    node,
                    epoch,
                    payload,
                }) = decode_log_record(&f.bytes)
                else {
                    continue;
                };
                let Ok((report, snapshot)) = decode_epoch_payload(payload) else {
                    continue;
                };
                let mut restored = template.clone();
                if restored.restore(snapshot).is_err() {
                    continue;
                }
                let (merged, reporting, packets) = epochs
                    .entry(epoch)
                    .or_insert_with(|| (template.clone(), BTreeSet::new(), 0u64));
                if reporting.contains(&node) {
                    continue;
                }
                if merged.try_merge_from(&restored).is_err() {
                    continue;
                }
                reporting.insert(node);
                *packets += report.packets;
            }
            epochs
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Recovery of a torn-tail aggregation log never yields an
            /// epoch view that disagrees with the surviving node frames:
            /// for any write pattern and any tail truncation, every epoch
            /// the recovered session rebuilds matches an independent
            /// re-merge of the frames the store salvages — same reporting
            /// sets, same packet totals, identical point estimates.
            #[test]
            fn recovery_agrees_with_surviving_frames(
                case in 0u64..1_000_000,
                nodes in 1u32..4,
                epochs in 1u64..5,
                cut in 0usize..200,
            ) {
                let dir = std::env::temp_dir().join(format!(
                    "nitro-agg-torn-{}-{case}-{nodes}-{epochs}-{cut}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let store_cfg = StoreConfig {
                    rotate_after: 3, // force sealed segments mid-run
                    keep_segments: 64,
                    fsync: false,
                };
                let log = AggLog::open(&dir, &store_cfg).unwrap();
                let mut seq = 0;
                for epoch in 1..=epochs {
                    for node in 0..nodes {
                        let mut sketch = template();
                        for i in 0..32 {
                            let key = (case ^ (node as u64) << 8 ^ epoch << 16) % 40 + i % 3;
                            sketch.process(key, 1.0);
                        }
                        let report = EpochReport {
                            switch_id: node,
                            epoch,
                            packets: 32,
                            heavy_hitters: vec![],
                            entropy_bits: f64::NAN,
                            distinct: f64::NAN,
                            l2: 0.0,
                            memory_bytes: 0,
                        };
                        let payload = encode_epoch_payload(&report, &sketch.snapshot());
                        seq += 1;
                        let record = encode_frame_record(node, epoch, &payload);
                        log.store().writer(0).persist(seq, 0, &record).unwrap();
                    }
                }
                drop(log);

                // Tear the tail: chop `cut` bytes off the active segment,
                // exactly what a crash mid-write leaves behind. (The
                // active segment may not exist when the last append
                // landed exactly on a rotation boundary — nothing to
                // tear, the log is all sealed segments.)
                let active = dir.join("shard-0000").join("active.log");
                if let Ok(meta) = std::fs::metadata(&active) {
                    let file =
                        std::fs::OpenOptions::new().write(true).open(&active).unwrap();
                    file.set_len(meta.len().saturating_sub(cut as u64)).unwrap();
                }

                let store = CheckpointStore::recover(&dir, store_cfg).unwrap().0;
                let surviving = store.frames(0);
                let truth = independent_merge(&template(), &surviving);
                let (session, recovery) =
                    Replay::of(template(), 0, Duration::from_secs(2), &surviving);

                prop_assert_eq!(session.epochs().len(), truth.len());
                for epoch in session.epochs() {
                    let (t_merged, t_reporting, t_packets) =
                        truth.get(&epoch).expect("epoch in truth");
                    prop_assert_eq!(&session.reporting_of(epoch).unwrap(), t_reporting);
                    prop_assert_eq!(session.packets_of(epoch).unwrap(), *t_packets);
                    let view = session.view(epoch).unwrap();
                    for key in 0..45u64 {
                        prop_assert_eq!(
                            view.estimate(key),
                            t_merged.estimate(key),
                            "epoch {} key {} diverged",
                            epoch,
                            key
                        );
                    }
                }
                prop_assert!(recovery.records as usize <= epochs as usize * nodes as usize);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn a_stalled_log_append_is_not_counted_as_the_nodes_silence() {
        // The log stalls three heartbeat timeouts long while holding the
        // session lock, so nothing either node sends is heard meanwhile.
        let timeout = Duration::from_millis(800);
        let log_dir = tmp_dir("stall-log");
        let plan = DiskFaultPlan::new();
        let cfg = AggregatorConfig {
            heartbeat_timeout: timeout,
            registry: Some(Arc::new(TelemetryRegistry::new())),
            log_dir: Some(log_dir.clone()),
            log_store: StoreConfig {
                fsync: false,
                ..AggregatorConfig::default().log_store
            },
            ..Default::default()
        };
        let log = AggLog::new(
            CheckpointStore::create(&log_dir, 1, cfg.log_store.clone())
                .unwrap()
                .with_fault_plan(plan.clone()),
        );
        let registry = Arc::clone(cfg.registry.as_ref().unwrap());
        let session = AggregatorSession::new(template(), cfg.keep_epochs, timeout);
        let agg = Aggregator::spawn_inner(("127.0.0.1", 0), cfg, session, Some(log), None).unwrap();
        let fp = template().inner().fingerprint();
        let mut agents = Vec::new();
        for id in 0..2u32 {
            let dir = tmp_dir(&format!("stall-agent{id}"));
            let mut cfg = NodeAgentConfig::new(id, fp);
            cfg.store.fsync = false;
            let mut a = NodeAgent::open(&dir, cfg).unwrap();
            a.connect(agg.local_addr()).unwrap();
            agents.push((a, dir));
        }
        assert_eq!(agg.connected_nodes(), vec![0, 1]);

        plan.block_appends();
        let view = MergedView::from_sketch(1, template());
        assert!(agents[0].0.seal_epoch(1, &view, 10.0).unwrap().delivered);
        assert!(wait_until(Duration::from_secs(10), || plan.fired() > 0));
        thread::sleep(timeout * 3);
        plan.release();
        // Both nodes stay quiet for two monitor ticks after the stall: a
        // monitor counting the stall would declare them lost meanwhile.
        thread::sleep(timeout / 2);
        for _ in 0..8 {
            for (a, _) in agents.iter_mut() {
                assert!(a.heartbeat(0));
            }
            thread::sleep(timeout / 8);
        }
        assert!(wait_until(Duration::from_secs(5), || agg.latest_epoch() == 1));
        let losses: Vec<_> = registry
            .drain_events()
            .into_iter()
            .filter(|e| matches!(e.event, Event::NodeLoss { .. }))
            .collect();
        assert!(losses.is_empty(), "{losses:?}");
        assert_eq!(agg.connected_nodes(), vec![0, 1]);
        for (a, dir) in agents {
            a.close();
            let _ = std::fs::remove_dir_all(&dir);
        }
        agg.shutdown();
        let _ = std::fs::remove_dir_all(&log_dir);
    }

    #[test]
    fn silent_node_is_declared_lost_by_heartbeat_timeout() {
        let registry = Arc::new(TelemetryRegistry::new());
        let agg = Aggregator::spawn(
            template(),
            ("127.0.0.1", 0),
            AggregatorConfig {
                heartbeat_timeout: Duration::from_millis(120),
                keep_epochs: 16,
                registry: Some(Arc::clone(&registry)),
                ..Default::default()
            },
        )
        .unwrap();
        let fp = template().inner().fingerprint();
        let dir = tmp_dir("silent");
        let mut a = NodeAgent::open(&dir, NodeAgentConfig::new(1, fp)).unwrap();
        a.connect(agg.local_addr()).unwrap();
        assert_eq!(agg.connected_nodes(), vec![1]);
        // Keep the socket open but go silent: only the heartbeat monitor
        // can catch this (no EOF ever arrives).
        assert!(wait_until(Duration::from_millis(600), || agg
            .connected_nodes()
            .is_empty()));
        let events = registry.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::NodeLoss { node: 1, .. })));
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
        agg.shutdown();
    }
}
