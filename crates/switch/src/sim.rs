//! Deterministic cluster simulation: virtual time, a seeded fault-injecting
//! network, and invariant oracles over the sans-io protocol cores.
//!
//! The TCP cluster tests can only sample the failure space — every run
//! threads, sockets, and the OS scheduler pick one interleaving, and a
//! failure that needs a partition *during* backfill plus an aggregator
//! kill one heartbeat later may simply never occur on a laptop. This
//! module takes the FoundationDB route instead: because the entire
//! protocol lives in [`AgentSession`] and [`AggregatorSession`] (pure
//! state machines consuming messages and timer ticks), a whole cluster —
//! N agents, one aggregator, their durable stores, and the network
//! between them — runs on **one thread** under a virtual clock, with
//! every source of nondeterminism drawn from a single seeded RNG:
//!
//! - **Virtual time** ([`crate::clock::SimClock`]): an event-loop heap of
//!   `(nanos, seq)`-ordered events. A 2-second heartbeat timeout fires in
//!   microseconds of real time, identically on every run.
//! - **Simulated network** ([`run`]'s internal message router): every
//!   message independently drawn a fate — deliver after a random delay
//!   (which yields reordering), deliver twice, corrupt in flight, or
//!   break the connection — plus per-node partitions. The fates hit delta
//!   seals too: a duplicate is ignored, a corrupt one closes the
//!   connection, and a redial opens with a keyframe.
//! - **Seeded fault schedules** ([`Schedule::generate`]): node crashes
//!   and restarts, aggregator kill + log recovery, partitions and heals,
//!   per-node clock skew, torn writes that chop bytes off a node's
//!   durable log tail.
//! - **Invariant oracles** ([`Oracle`]): checked during and after every
//!   run; any violation fails the seed with a journal to replay it.
//! - **Shrinking** ([`shrink`]): a failing schedule is minimized by
//!   greedy event elision — rerun without each event, keep the removal
//!   when the same oracle still fails — down to a minimal replayable
//!   artifact ([`Schedule::to_spec`] / [`Schedule::from_spec`]).
//!
//! Same seed, same config ⇒ byte-identical event [`SimReport::journal`].
//! That is the debugging contract: a CI failure at seed 1729 reproduces
//! locally, line for line.

use crate::clock::{Clock, Nanos, SimClock};
use crate::cluster::proto::{AgentOutput, AgentSession, AggEvent, AggOutput, AggregatorSession};
use crate::cluster::wire::{encode_epoch_payload, EpochReport, Message};
use crate::cluster::AggLog;
use crate::cluster::ReconnectPolicy;
use crate::store::{CheckpointStore, StoreConfig};
use nitro_core::{Mode, NitroSketch};
use nitro_hash::xxhash::xxh64_u64;
use nitro_hash::{SplitMix64, Xoshiro256StarStar};
use nitro_sketches::checkpoint::Checkpoint;
use nitro_sketches::CountMin;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Simulation shape: cluster size, epoch cadence, and oracle thresholds.
/// The defaults are what the seed-sweep suite runs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of pipeline nodes.
    pub nodes: u32,
    /// Epochs each node seals before the run drains.
    pub epochs: u64,
    /// Virtual time between a node's epoch seals.
    pub epoch_interval: Duration,
    /// Virtual cadence of the shared tick (agent redial checks,
    /// heartbeats, aggregator silence sweep).
    pub tick_interval: Duration,
    /// Aggregator heartbeat-silence bound (virtual).
    pub heartbeat_timeout: Duration,
    /// Global heavy-hitter threshold the recall oracle queries at.
    pub hh_threshold: f64,
    /// Mutation hook for testing the harness itself: disable the
    /// aggregator's per-epoch frame dedup, so a duplicated or replayed
    /// frame double-merges. A correct harness must catch this with the
    /// accounting oracle and shrink the failure.
    pub mutate_no_dedup: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            nodes: 3,
            epochs: 8,
            epoch_interval: Duration::from_millis(100),
            tick_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(200),
            hh_threshold: 40.0,
            mutate_no_dedup: false,
        }
    }
}

/// One injectable fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill a node: its session and open store vanish; its durable
    /// directory survives for [`FaultKind::RestartNode`].
    CrashNode(u32),
    /// Bring a crashed node back: recover its store, rebuild its sketch
    /// from the durable watermark, redial.
    RestartNode(u32),
    /// Kill the aggregator: in-memory epoch views vanish, every
    /// connection breaks; the aggregation log survives.
    KillAggregator,
    /// Restart the aggregator from its log
    /// ([`AggLog::recover`]).
    RecoverAggregator,
    /// Partition one node from the aggregator: its connection breaks and
    /// every dial fails until [`FaultKind::Heal`].
    Partition(u32),
    /// Heal a node's partition.
    Heal(u32),
    /// Skew a node's clock by a signed nanosecond offset (cumulative).
    ClockSkew(u32, i64),
    /// Crash a node *and* chop this many bytes off its active durable
    /// segment — a torn write that may erase an epoch the node already
    /// acknowledged (and possibly published). Recovery must repair the
    /// tail and the node must re-seal deterministically.
    TornWrite(u32, u32),
}

impl FaultKind {
    fn spec(&self) -> String {
        match self {
            FaultKind::CrashNode(n) => format!("crash {n}"),
            FaultKind::RestartNode(n) => format!("restart {n}"),
            FaultKind::KillAggregator => "kill-agg".to_string(),
            FaultKind::RecoverAggregator => "recover-agg".to_string(),
            FaultKind::Partition(n) => format!("partition {n}"),
            FaultKind::Heal(n) => format!("heal {n}"),
            FaultKind::ClockSkew(n, d) => format!("skew {n} {d}"),
            FaultKind::TornWrite(n, c) => format!("torn {n} {c}"),
        }
    }
}

/// A fault at a virtual instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual nanosecond the fault fires at.
    pub at: Nanos,
    /// What happens.
    pub kind: FaultKind,
}

/// A full fault schedule: the only input (besides the seed-derived
/// network fates) distinguishing one simulated history from another.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Faults in firing order.
    pub events: Vec<FaultEvent>,
}

impl Schedule {
    /// Derive a fault schedule from a seed: a handful of crash/restart,
    /// partition/heal, aggregator kill/recover, clock-skew, and
    /// torn-write pairs at random virtual instants inside the run's
    /// horizon. Paired repairs (restart, heal, recover) land a bounded
    /// delay after their fault; the post-run convergence phase repairs
    /// anything still broken.
    pub fn generate(cfg: &SimConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xa5a5_5a5a_d00d_feed);
        let horizon = cfg.epoch_interval.as_nanos() as u64 * cfg.epochs
            + cfg.heartbeat_timeout.as_nanos() as u64;
        let count = 2 + (rng.next_u64() % 7) as usize;
        let mut events = Vec::new();
        for _ in 0..count {
            let at = rng.next_u64() % horizon.max(1);
            let node = (rng.next_u64() % cfg.nodes.max(1) as u64) as u32;
            let repair = at + 30_000_000 + rng.next_u64() % 400_000_000;
            match rng.next_u64() % 7 {
                0 | 1 => {
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::CrashNode(node),
                    });
                    events.push(FaultEvent {
                        at: repair,
                        kind: FaultKind::RestartNode(node),
                    });
                }
                2 => {
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::Partition(node),
                    });
                    events.push(FaultEvent {
                        at: repair,
                        kind: FaultKind::Heal(node),
                    });
                }
                3 => {
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::KillAggregator,
                    });
                    events.push(FaultEvent {
                        at: repair,
                        kind: FaultKind::RecoverAggregator,
                    });
                }
                4 => {
                    let delta = (rng.next_u64() % 200_000_000) as i64 - 100_000_000;
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::ClockSkew(node, delta),
                    });
                }
                _ => {
                    let cut = 1 + (rng.next_u64() % 80) as u32;
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::TornWrite(node, cut),
                    });
                    events.push(FaultEvent {
                        at: repair,
                        kind: FaultKind::RestartNode(node),
                    });
                }
            }
        }
        events.sort_by_key(|e| e.at);
        Self { events }
    }

    /// Render the schedule as a line-oriented replayable spec:
    /// `<at_ns> <kind> [args…]` per event.
    pub fn to_spec(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&format!("{} {}\n", e.at, e.kind.spec()));
        }
        s
    }

    /// Parse a spec produced by [`Schedule::to_spec`].
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (ln, line) in spec.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let err = |what: &str| format!("line {}: {what}: {line:?}", ln + 1);
            let at: Nanos = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("bad timestamp"))?;
            let kind = it.next().ok_or_else(|| err("missing kind"))?;
            let mut arg = |what: &str| -> Result<u64, String> {
                it.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(what))
            };
            let kind = match kind {
                "crash" => FaultKind::CrashNode(arg("missing node")? as u32),
                "restart" => FaultKind::RestartNode(arg("missing node")? as u32),
                "kill-agg" => FaultKind::KillAggregator,
                "recover-agg" => FaultKind::RecoverAggregator,
                "partition" => FaultKind::Partition(arg("missing node")? as u32),
                "heal" => FaultKind::Heal(arg("missing node")? as u32),
                "skew" => {
                    let n = arg("missing node")? as u32;
                    let d: i64 = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("missing skew delta"))?;
                    FaultKind::ClockSkew(n, d)
                }
                "torn" => {
                    let n = arg("missing node")? as u32;
                    FaultKind::TornWrite(n, arg("missing cut")? as u32)
                }
                _ => return Err(err("unknown kind")),
            };
            events.push(FaultEvent { at, kind });
        }
        Ok(Self { events })
    }
}

/// The invariants every simulated history is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// For every epoch the aggregator holds, its packet total equals the
    /// sum of the packet counts its reporting nodes sealed for that
    /// epoch — duplicated frames, backfill replays, and recoveries never
    /// double-merge.
    Accounting,
    /// A frame is merged by the aggregator only after the sealing node
    /// durably persisted it (persist-before-publish).
    PersistBeforePublish,
    /// [`crate::EpochStatus::Complete`] never regresses — not across
    /// aggregator kill + log recovery, not ever.
    StatusMonotonic,
    /// After every partition heals, every node restarts, and the
    /// aggregator recovers, every epoch converges to complete.
    Convergence,
    /// On the final converged epoch, the merged view finds ≥95% of the
    /// true heavy hitters and never undercounts them (p = 1 merge is
    /// overcount-only).
    HeavyHitterRecall,
}

/// A failed invariant: which oracle, and a human-readable detail line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The oracle that failed.
    pub oracle: Oracle,
    /// What exactly diverged.
    pub detail: String,
}

/// The outcome of one simulated history.
#[derive(Debug)]
pub struct SimReport {
    /// The deterministic event journal: byte-identical across runs of the
    /// same config, seed, and schedule.
    pub journal: Vec<String>,
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
    /// Epoch frames nodes durably sealed.
    pub frames_sealed: u64,
    /// Frames the aggregator merged (deduplicated).
    pub frames_merged: u64,
    /// Merged frames that arrived via backfill.
    pub backfills: u64,
    /// Scheduled faults that were applicable when they fired.
    pub faults_applied: u64,
}

/// The outcome of a seed sweep.
#[derive(Debug)]
pub struct ExploreReport {
    /// Seeds run.
    pub runs: u64,
    /// Seeds whose history violated an oracle, with the violation.
    pub failures: Vec<(u64, Violation)>,
}

/// Run one seed's generated schedule per seed in `seeds`, collecting
/// every oracle violation.
pub fn explore(cfg: &SimConfig, seeds: impl IntoIterator<Item = u64>) -> ExploreReport {
    let mut runs = 0;
    let mut failures = Vec::new();
    for seed in seeds {
        let schedule = Schedule::generate(cfg, seed);
        let report = run(cfg, seed, &schedule);
        runs += 1;
        if let Some(v) = report.violation {
            failures.push((seed, v));
        }
    }
    ExploreReport { runs, failures }
}

/// Minimize a failing schedule by greedy event elision: repeatedly rerun
/// the simulation without each event and keep the removal whenever the
/// same oracle still fails, until no single removal preserves the
/// failure. The result replays to the same violation via [`run`].
pub fn shrink(cfg: &SimConfig, seed: u64, schedule: &Schedule, target: Oracle) -> Schedule {
    let mut cur = schedule.clone();
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < cur.events.len() {
            let mut cand = cur.clone();
            cand.events.remove(i);
            let rep = run(cfg, seed, &cand);
            if rep.violation.as_ref().map(|v| v.oracle) == Some(target) {
                cur = cand;
                removed_any = true;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            return cur;
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum EvKind {
    /// Shared cadence: aggregator silence sweep, agent redial checks,
    /// heartbeats.
    Tick,
    /// A node's next epoch boundary.
    Seal(u32),
    /// A node's dial reaches the aggregator (or fails there).
    DialArrive { node: u32, gen: u64 },
    /// An agent→aggregator message arrives.
    ToAgg {
        node: u32,
        gen: u64,
        msg: Message,
        corrupt: bool,
    },
    /// An aggregator→agent message arrives.
    ToNode {
        node: u32,
        gen: u64,
        msg: Message,
        corrupt: bool,
    },
    /// A scheduled fault fires.
    Fault(FaultKind),
}

#[derive(Debug)]
struct Ev {
    at: Nanos,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Ev {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(o.at, o.seq))
    }
}

fn template() -> NitroSketch<CountMin> {
    // `.with_topk` is load-bearing: the HH-recall oracle queries tracked
    // candidates, and a tracker-less view reports nothing at all.
    NitroSketch::new(CountMin::new(2, 256, 7), Mode::Fixed { p: 1.0 }, 64).with_topk(64)
}

fn store_cfg() -> StoreConfig {
    StoreConfig {
        rotate_after: 4,
        keep_segments: 1024,
        fsync: false,
    }
}

/// Deterministic per-(seed, node, epoch) workload stream. Crucially a
/// pure function of its arguments: a node that re-seals an epoch after a
/// torn write reproduces the *identical* frame, so an aggregator that
/// merged the pre-tear copy stays consistent.
fn workload_rng(seed: u64, node: u32, epoch: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ xxh64_u64(((node as u64) << 32) | epoch, 0x5eed_f00d_0bad_cafe))
}

struct SimNode {
    id: u32,
    dir: PathBuf,
    store: Option<Arc<CheckpointStore>>,
    session: Option<AgentSession>,
    sketch: NitroSketch<CountMin>,
    /// Exact cumulative per-flow counts (the HH oracle's ground truth).
    exact: BTreeMap<u64, f64>,
    packets: u64,
    /// Next epoch to seal.
    epoch: u64,
    up: bool,
    partitioned: bool,
    /// Aggregator-side id of the live (or connecting) link.
    link: Option<u64>,
    /// Bumped on every link break; in-flight events carrying an older
    /// generation are stale and dropped on arrival.
    link_gen: u64,
    /// FIFO floors: a connection is an ordered byte stream, so a message
    /// never overtakes an earlier one on the same link direction. Random
    /// per-message delays still reorder *across* links and interleave
    /// with duplicates; within a link, delivery order is send order.
    fifo_up: Nanos,
    fifo_down: Nanos,
    /// Cumulative clock skew (signed nanoseconds).
    skew: i64,
}

impl SimNode {
    fn now(&self, now: Nanos) -> Nanos {
        (now as i128 + self.skew as i128).clamp(0, u64::MAX as i128) as u64
    }
}

struct Sim<'a> {
    cfg: &'a SimConfig,
    seed: u64,
    clock: SimClock,
    rng: Xoshiro256StarStar,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    nodes: Vec<SimNode>,
    agg: Option<AggregatorSession<CountMin>>,
    agg_log: AggLog,
    conn_owner: HashMap<u64, u32>,
    fingerprint: u64,
    /// Fault-free synchronous delivery (the convergence phase).
    reliable: bool,
    tick_no: u64,
    journal: Vec<String>,
    violation: Option<Violation>,
    persisted: BTreeSet<(u32, u64)>,
    sealed_packets: BTreeMap<(u32, u64), u64>,
    /// Epoch → member-set size when `EpochSealed` was journaled. A later
    /// `Pending` status is only a monotonicity violation if the member
    /// set has not grown since: a first-time joiner announcing historical
    /// membership legitimately demotes old complete epochs until its
    /// backfill lands.
    complete_seen: BTreeMap<u64, u64>,
    frames_sealed: u64,
    frames_merged: u64,
    backfills: u64,
    faults_applied: u64,
}

/// Execute one simulated history: seed-derived network fates, the given
/// fault schedule, then a convergence phase (heal, restart, recover,
/// drain) and the full oracle battery.
pub fn run(cfg: &SimConfig, seed: u64, schedule: &Schedule) -> SimReport {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let base = std::env::temp_dir().join(format!(
        "nitro-sim-{}-{}-{}",
        std::process::id(),
        seed,
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&base);

    let agg_log = match AggLog::open(base.join("agg-log"), &store_cfg()) {
        Ok(log) => log,
        Err(e) => panic!("sim agg log create: {e}"),
    };
    let fingerprint = template().inner().fingerprint();
    let mut sim = Sim {
        cfg,
        seed,
        clock: SimClock::new(),
        rng: Xoshiro256StarStar::new(seed ^ 0x00de_ad00_beef_0bad),
        heap: BinaryHeap::new(),
        seq: 0,
        nodes: Vec::new(),
        agg: Some(AggregatorSession::new(template(), 0, cfg.heartbeat_timeout)),
        agg_log,
        conn_owner: HashMap::new(),
        fingerprint,
        reliable: false,
        tick_no: 0,
        journal: Vec::new(),
        violation: None,
        persisted: BTreeSet::new(),
        sealed_packets: BTreeMap::new(),
        complete_seen: BTreeMap::new(),
        frames_sealed: 0,
        frames_merged: 0,
        backfills: 0,
        faults_applied: 0,
    };
    if cfg.mutate_no_dedup {
        sim.agg
            .as_mut()
            .expect("agg alive")
            .set_dedup_disabled(true);
    }

    for id in 0..cfg.nodes {
        let dir = base.join(format!("node-{id}"));
        let store = match CheckpointStore::create(&dir, 1, store_cfg()) {
            Ok(s) => s,
            Err(e) => panic!("sim node store create: {e}"),
        };
        let mut session = AgentSession::new(id, fingerprint, store.generation(), 1, sim.policy(id));
        session.connect();
        sim.nodes.push(SimNode {
            id,
            dir,
            store: Some(store),
            session: Some(session),
            sketch: template(),
            exact: BTreeMap::new(),
            packets: 0,
            epoch: 1,
            up: true,
            partitioned: false,
            link: None,
            link_gen: 0,
            fifo_up: 0,
            fifo_down: 0,
            skew: 0,
        });
        sim.drain_node(id as usize);
        sim.schedule(cfg.epoch_interval.as_nanos() as u64, EvKind::Seal(id));
    }
    sim.schedule(cfg.tick_interval.as_nanos() as u64, EvKind::Tick);
    for e in &schedule.events {
        sim.schedule(e.at, EvKind::Fault(e.kind.clone()));
    }

    sim.event_loop();
    sim.converge();
    sim.check_final_oracles();

    let report = SimReport {
        journal: std::mem::take(&mut sim.journal),
        violation: sim.violation.take(),
        frames_sealed: sim.frames_sealed,
        frames_merged: sim.frames_merged,
        backfills: sim.backfills,
        faults_applied: sim.faults_applied,
    };
    drop(sim);
    let _ = std::fs::remove_dir_all(&base);
    report
}

impl Sim<'_> {
    fn policy(&self, node: u32) -> ReconnectPolicy {
        ReconnectPolicy {
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(300),
            jitter: 0.25,
            max_attempts: 64,
            seed: self.seed ^ xxh64_u64(node as u64, 0x9e37_79b9_7f4a_7c15),
        }
    }

    fn horizon(&self) -> Nanos {
        self.cfg.epoch_interval.as_nanos() as u64 * self.cfg.epochs
            + 4 * self.cfg.heartbeat_timeout.as_nanos() as u64
    }

    fn schedule(&mut self, at: Nanos, kind: EvKind) {
        self.seq += 1;
        self.heap.push(Reverse(Ev {
            at,
            seq: self.seq,
            kind,
        }));
    }

    fn log(&mut self, line: String) {
        self.journal.push(format!("{} {line}", self.clock.now_ns()));
    }

    fn fail(&mut self, oracle: Oracle, detail: String) {
        self.log(format!("VIOLATION {oracle:?}: {detail}"));
        if self.violation.is_none() {
            self.violation = Some(Violation { oracle, detail });
        }
    }

    fn event_loop(&mut self) {
        while let Some(Reverse(ev)) = self.heap.pop() {
            self.clock.set(ev.at);
            match ev.kind {
                EvKind::Tick => self.on_tick(),
                EvKind::Seal(n) => self.on_seal(n),
                EvKind::DialArrive { node, gen } => self.on_dial_arrive(node, gen),
                EvKind::ToAgg {
                    node,
                    gen,
                    msg,
                    corrupt,
                } => self.deliver_to_agg(node, gen, msg, corrupt),
                EvKind::ToNode {
                    node,
                    gen,
                    msg,
                    corrupt,
                } => self.deliver_to_node(node, gen, msg, corrupt),
                EvKind::Fault(kind) => self.on_fault(kind),
            }
        }
    }

    // -- network ----------------------------------------------------------

    fn send_to_agg(&mut self, node: u32, msg: Message) {
        let gen = self.nodes[node as usize].link_gen;
        if self.reliable {
            self.deliver_to_agg(node, gen, msg, false);
            return;
        }
        let now = self.clock.now_ns();
        let fate = self.rng.next_f64();
        let delay = 100_000 + self.rng.next_range(3_000_000);
        let at = (now + delay).max(self.nodes[node as usize].fifo_up);
        self.nodes[node as usize].fifo_up = at;
        if fate < 0.02 {
            self.log(format!("net break n{node} (dropped {})", msg_name(&msg)));
            self.break_link(node as usize, "net drop");
        } else if fate < 0.05 {
            self.log(format!("net corrupt n{node}->agg {}", msg_name(&msg)));
            self.schedule(
                at,
                EvKind::ToAgg {
                    node,
                    gen,
                    msg,
                    corrupt: true,
                },
            );
        } else if fate < 0.10 {
            let delay2 = 100_000 + self.rng.next_range(3_000_000);
            let at2 = (now + delay2).max(at);
            self.nodes[node as usize].fifo_up = at2;
            self.log(format!("net dup n{node}->agg {}", msg_name(&msg)));
            self.schedule(
                at,
                EvKind::ToAgg {
                    node,
                    gen,
                    msg: msg.clone(),
                    corrupt: false,
                },
            );
            self.schedule(
                at2,
                EvKind::ToAgg {
                    node,
                    gen,
                    msg,
                    corrupt: false,
                },
            );
        } else {
            self.schedule(
                at,
                EvKind::ToAgg {
                    node,
                    gen,
                    msg,
                    corrupt: false,
                },
            );
        }
    }

    fn send_to_node(&mut self, node: u32, msg: Message) {
        let gen = self.nodes[node as usize].link_gen;
        if self.reliable {
            self.deliver_to_node(node, gen, msg, false);
            return;
        }
        let now = self.clock.now_ns();
        let fate = self.rng.next_f64();
        let delay = 100_000 + self.rng.next_range(3_000_000);
        let at = (now + delay).max(self.nodes[node as usize].fifo_down);
        self.nodes[node as usize].fifo_down = at;
        if fate < 0.02 {
            self.log(format!("net break agg->n{node} ({})", msg_name(&msg)));
            self.break_link(node as usize, "net drop");
        } else if fate < 0.04 {
            self.log(format!("net corrupt agg->n{node} {}", msg_name(&msg)));
            self.schedule(
                at,
                EvKind::ToNode {
                    node,
                    gen,
                    msg,
                    corrupt: true,
                },
            );
        } else {
            self.schedule(
                at,
                EvKind::ToNode {
                    node,
                    gen,
                    msg,
                    corrupt: false,
                },
            );
        }
    }

    fn deliver_to_agg(&mut self, node: u32, gen: u64, msg: Message, corrupt: bool) {
        let i = node as usize;
        if self.nodes[i].link_gen != gen || self.agg.is_none() {
            return; // stale link or dead aggregator: the bytes die in flight
        }
        let Some(conn) = self.nodes[i].link else {
            return;
        };
        let now = self.clock.now_ns();
        let agg = self.agg.as_mut().expect("agg alive");
        if corrupt {
            agg.conn_corrupt(conn);
        } else {
            agg.on_message(conn, msg, now);
        }
        self.drain_agg();
    }

    fn deliver_to_node(&mut self, node: u32, gen: u64, msg: Message, corrupt: bool) {
        let i = node as usize;
        if self.nodes[i].link_gen != gen || !self.nodes[i].up {
            return;
        }
        if corrupt {
            // The agent can't parse the stream; it closes the socket.
            self.break_link(i, "corrupt downstream");
            return;
        }
        let nnow = self.nodes[i].now(self.clock.now_ns());
        let res = self.nodes[i]
            .session
            .as_mut()
            .expect("up node has session")
            .on_message(msg, nnow);
        if let Err(e) = res {
            self.log(format!("n{node} handshake error: {e}"));
            self.break_link(i, "handshake error");
            return;
        }
        self.drain_node(i);
    }

    /// Tear down node `i`'s link from both ends (TCP semantics: any
    /// unreadable or undeliverable stream kills the whole connection).
    fn break_link(&mut self, i: usize, why: &str) {
        let id = self.nodes[i].id;
        self.nodes[i].link_gen += 1;
        if let Some(conn) = self.nodes[i].link.take() {
            self.conn_owner.remove(&conn);
            if self.agg.is_some() {
                self.agg
                    .as_mut()
                    .expect("agg alive")
                    .conn_closed(conn, true);
                self.drain_agg();
            }
        }
        if self.nodes[i].up {
            let nnow = self.nodes[i].now(self.clock.now_ns());
            if let Some(s) = self.nodes[i].session.as_mut() {
                s.connection_lost(nnow);
            }
            self.drain_node(i);
        }
        self.log(format!("link n{id} broken ({why})"));
    }

    // -- session output drains --------------------------------------------

    fn drain_node(&mut self, i: usize) {
        loop {
            let Some(session) = self.nodes[i].session.as_mut() else {
                return;
            };
            let outs = session.drain();
            if outs.is_empty() {
                return;
            }
            for out in outs {
                let id = self.nodes[i].id;
                match out {
                    AgentOutput::Dial => {
                        if self.reliable {
                            continue; // convergence connects explicitly
                        }
                        let gen = self.nodes[i].link_gen;
                        let at = self.clock.now_ns() + 500_000 + self.rng.next_range(2_000_000);
                        self.schedule(at, EvKind::DialArrive { node: id, gen });
                    }
                    AgentOutput::Send(msg) => {
                        if let Message::SealEpoch {
                            epoch,
                            backfill: false,
                            ..
                        }
                        | Message::SealDelta { epoch, .. } = msg
                        {
                            self.log(format!("n{id} ships e{epoch} as {}", msg_name(&msg)));
                        }
                        self.send_to_agg(id, msg)
                    }
                    AgentOutput::Backfill { after } => {
                        let frames = self.nodes[i]
                            .store
                            .as_ref()
                            .expect("up node has store")
                            .frames(0);
                        let session = self.nodes[i].session.as_mut().expect("session");
                        let mut offered = 0u64;
                        for f in frames {
                            if session.offer_backfill(f) {
                                offered += 1;
                            }
                        }
                        self.log(format!("n{id} backfill after={after} offered={offered}"));
                    }
                    AgentOutput::Backoff { attempt, delay } => {
                        self.log(format!(
                            "n{id} backoff attempt={attempt} delay_ms={}",
                            delay.as_millis()
                        ));
                    }
                    AgentOutput::GaveUp => self.log(format!("n{id} gave up redialing")),
                }
            }
        }
    }

    fn drain_agg(&mut self) {
        loop {
            let Some(agg) = self.agg.as_mut() else { return };
            let outs = agg.drain();
            if outs.is_empty() {
                return;
            }
            for out in outs {
                match out {
                    AggOutput::Send { conn, msg } => {
                        let Some(&node) = self.conn_owner.get(&conn) else {
                            continue;
                        };
                        if self.nodes[node as usize].link == Some(conn) {
                            self.send_to_node(node, msg);
                        }
                    }
                    AggOutput::Close { conn } => {
                        let Some(&node) = self.conn_owner.get(&conn) else {
                            continue;
                        };
                        if self.nodes[node as usize].link == Some(conn) {
                            self.break_link(node as usize, "aggregator closed");
                        }
                    }
                    AggOutput::Append(record) => {
                        let agg = self.agg.as_ref().expect("agg alive");
                        if let Err(e) = self.agg_log.append(record, agg) {
                            self.log(format!("agg log persist failed: {e}"));
                        }
                    }
                    AggOutput::Event(ev) => self.on_agg_event(ev),
                }
            }
        }
    }

    fn on_agg_event(&mut self, ev: AggEvent) {
        self.log(format!("agg {ev:?}"));
        match ev {
            AggEvent::FrameMerged {
                node,
                epoch,
                backfill,
            } => {
                self.frames_merged += 1;
                if backfill {
                    self.backfills += 1;
                }
                if !self.persisted.contains(&(node, epoch)) {
                    self.fail(
                        Oracle::PersistBeforePublish,
                        format!("merged n{node} e{epoch} before the node persisted it"),
                    );
                }
            }
            AggEvent::EpochSealed { epoch, nodes, .. } => {
                let seen = self.complete_seen.entry(epoch).or_insert(0);
                *seen = (*seen).max(u64::from(nodes));
            }
            _ => {}
        }
    }

    // -- timers ------------------------------------------------------------

    fn on_tick(&mut self) {
        let now = self.clock.now_ns();
        self.tick_no += 1;
        if self.agg.is_some() {
            self.agg.as_mut().expect("agg alive").tick(now);
            self.drain_agg();
        }
        let heartbeat_due = self.tick_no.is_multiple_of(4);
        for i in 0..self.nodes.len() {
            if !self.nodes[i].up {
                continue;
            }
            let nnow = self.nodes[i].now(now);
            let packets = self.nodes[i].packets;
            let session = self.nodes[i].session.as_mut().expect("up node has session");
            session.tick(nnow);
            if heartbeat_due && session.is_established() {
                session.heartbeat(packets);
            }
            self.drain_node(i);
        }
        if now < self.horizon() {
            self.schedule(now + self.cfg.tick_interval.as_nanos() as u64, EvKind::Tick);
        }
    }

    fn on_dial_arrive(&mut self, node: u32, gen: u64) {
        let i = node as usize;
        if !self.nodes[i].up || self.nodes[i].link_gen != gen {
            return;
        }
        let nnow = self.nodes[i].now(self.clock.now_ns());
        if self.agg.is_none() || self.nodes[i].partitioned {
            self.nodes[i]
                .session
                .as_mut()
                .expect("session")
                .dial_failed(nnow);
            self.log(format!("n{node} dial failed"));
            self.drain_node(i);
            return;
        }
        let conn = self.agg.as_mut().expect("agg alive").conn_open();
        self.drain_agg();
        self.conn_owner.insert(conn, node);
        self.nodes[i].link = Some(conn);
        self.nodes[i]
            .session
            .as_mut()
            .expect("session")
            .transport_connected();
        self.log(format!("n{node} dialed conn={conn}"));
        self.drain_node(i);
    }

    fn on_seal(&mut self, node: u32) {
        let i = node as usize;
        if !self.nodes[i].up {
            return;
        }
        let epoch = self.nodes[i].epoch;
        if epoch > self.cfg.epochs {
            return;
        }
        self.seal_now(i);
        if self.nodes[i].epoch <= self.cfg.epochs {
            let at = self.clock.now_ns() + self.cfg.epoch_interval.as_nanos() as u64;
            self.schedule(at, EvKind::Seal(node));
        }
    }

    /// Process the epoch's deterministic workload, persist the frame
    /// (persist-before-publish), then publish if connected.
    fn seal_now(&mut self, i: usize) {
        let id = self.nodes[i].id;
        let epoch = self.nodes[i].epoch;
        let mut wl = workload_rng(self.seed, id, epoch);
        let pkts = 20 + wl.next_u64() % 30;
        for _ in 0..pkts {
            let key = wl.next_u64() % 40;
            self.nodes[i].sketch.process(key, 1.0);
            *self.nodes[i].exact.entry(key).or_insert(0.0) += 1.0;
        }
        self.nodes[i].packets += pkts;
        let packets = self.nodes[i].packets;

        let session = self.nodes[i].session.as_mut().expect("up node has session");
        if let Err(e) = session.begin_seal(epoch) {
            self.log(format!("n{id} begin_seal e{epoch} refused: {e}"));
            return;
        }
        let report = EpochReport {
            switch_id: id,
            epoch,
            packets,
            heavy_hitters: self.nodes[i].sketch.heavy_hitters(0.0),
            entropy_bits: f64::NAN,
            distinct: f64::NAN,
            l2: 0.0,
            memory_bytes: 0,
        };
        let mut payload = encode_epoch_payload(&report, &self.nodes[i].sketch.snapshot());
        let now = self.clock.now_ns();
        let node = &mut self.nodes[i];
        let session = node.session.as_mut().expect("up node has session");
        let store = node.store.as_ref().expect("up node has store");
        let cut = session.cut(&payload, None);
        if let Err(e) = store.writer(0).persist_cut(epoch, now, &payload, cut) {
            // Persist failed ⇒ nothing may be published for this epoch.
            self.log(format!("n{id} persist e{epoch} failed: {e}"));
            return;
        }
        self.persisted.insert((id, epoch));
        self.sealed_packets.insert((id, epoch), packets);
        self.frames_sealed += 1;
        self.log(format!("n{id} sealed e{epoch} packets={packets}"));

        let session = self.nodes[i].session.as_mut().expect("session");
        if session.finish_seal(epoch, &mut payload) {
            session.note_sent(epoch);
        }
        self.nodes[i].epoch = epoch + 1;
        self.drain_node(i);
    }

    // -- faults ------------------------------------------------------------

    fn on_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::CrashNode(n) => self.crash_node(n, "crash"),
            FaultKind::RestartNode(n) => self.restart_node(n),
            FaultKind::KillAggregator => self.kill_aggregator(),
            FaultKind::RecoverAggregator => self.recover_aggregator(),
            FaultKind::Partition(n) => {
                let i = n as usize % self.nodes.len();
                if !self.nodes[i].partitioned {
                    self.faults_applied += 1;
                    self.nodes[i].partitioned = true;
                    self.log(format!("fault partition n{}", self.nodes[i].id));
                    self.break_link(i, "partition");
                }
            }
            FaultKind::Heal(n) => {
                let i = n as usize % self.nodes.len();
                if self.nodes[i].partitioned {
                    self.faults_applied += 1;
                    self.nodes[i].partitioned = false;
                    self.log(format!("fault heal n{}", self.nodes[i].id));
                }
            }
            FaultKind::ClockSkew(n, d) => {
                let i = n as usize % self.nodes.len();
                self.faults_applied += 1;
                self.nodes[i].skew = (self.nodes[i].skew + d).clamp(-500_000_000, 500_000_000);
                self.log(format!(
                    "fault skew n{} now {}ns",
                    self.nodes[i].id, self.nodes[i].skew
                ));
            }
            FaultKind::TornWrite(n, cut) => {
                let i = n as usize % self.nodes.len();
                if self.nodes[i].up {
                    self.faults_applied += 1;
                    self.crash_node(self.nodes[i].id, "torn write");
                    let active = self.nodes[i].dir.join("shard-0000").join("active.log");
                    if let Ok(meta) = std::fs::metadata(&active) {
                        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&active) {
                            let len = meta.len().saturating_sub(cut as u64);
                            let _ = f.set_len(len);
                            self.log(format!(
                                "fault torn n{} cut {cut}B (active now {len}B)",
                                self.nodes[i].id
                            ));
                        }
                    }
                }
            }
        }
    }

    fn crash_node(&mut self, n: u32, why: &str) {
        let i = n as usize % self.nodes.len();
        if !self.nodes[i].up {
            return;
        }
        self.faults_applied += 1;
        self.log(format!("fault {why} n{}", self.nodes[i].id));
        self.nodes[i].up = false;
        self.nodes[i].session = None;
        self.nodes[i].store = None; // drops the handle, like a dead process
        self.nodes[i].link_gen += 1;
        if let Some(conn) = self.nodes[i].link.take() {
            self.conn_owner.remove(&conn);
            if self.agg.is_some() {
                self.agg
                    .as_mut()
                    .expect("agg alive")
                    .conn_closed(conn, true);
                self.drain_agg();
            }
        }
    }

    fn restart_node(&mut self, n: u32) {
        let i = n as usize % self.nodes.len();
        if self.nodes[i].up {
            return;
        }
        self.faults_applied += 1;
        let id = self.nodes[i].id;
        let (store, _report) = match CheckpointStore::recover(&self.nodes[i].dir, store_cfg()) {
            Ok(s) => s,
            Err(e) => panic!("sim node {id} store recover: {e}"),
        };
        let durable = store.newest_frame(0).map_or(0, |f| f.seq);
        // Rebuild volatile state from the durable watermark by replaying
        // the deterministic workload — what a real node does by restoring
        // its newest checkpoint.
        let mut sketch = template();
        let mut exact = BTreeMap::new();
        let mut packets = 0u64;
        for epoch in 1..=durable {
            let mut wl = workload_rng(self.seed, id, epoch);
            let pkts = 20 + wl.next_u64() % 30;
            for _ in 0..pkts {
                let key = wl.next_u64() % 40;
                sketch.process(key, 1.0);
                *exact.entry(key).or_insert(0.0) += 1.0;
            }
            packets += pkts;
        }
        let mut session = AgentSession::new(
            id,
            self.fingerprint,
            store.generation(),
            durable + 1,
            self.policy(id),
        );
        session.connect();
        self.log(format!(
            "fault restart n{id} durable_epoch={durable} generation={}",
            store.generation()
        ));
        self.nodes[i].store = Some(store);
        self.nodes[i].session = Some(session);
        self.nodes[i].sketch = sketch;
        self.nodes[i].exact = exact;
        self.nodes[i].packets = packets;
        self.nodes[i].epoch = durable + 1;
        self.nodes[i].up = true;
        self.drain_node(i);
        if self.nodes[i].epoch <= self.cfg.epochs {
            let at = self.clock.now_ns() + self.cfg.epoch_interval.as_nanos() as u64;
            self.schedule(at, EvKind::Seal(id));
        }
    }

    fn kill_aggregator(&mut self) {
        if self.agg.is_none() {
            return;
        }
        self.faults_applied += 1;
        self.log("fault kill aggregator".to_string());
        self.agg = None;
        self.conn_owner.clear();
        for i in 0..self.nodes.len() {
            self.nodes[i].link_gen += 1;
            if self.nodes[i].link.take().is_some() && self.nodes[i].up {
                let nnow = self.nodes[i].now(self.clock.now_ns());
                self.nodes[i]
                    .session
                    .as_mut()
                    .expect("up node has session")
                    .connection_lost(nnow);
                self.drain_node(i);
            }
        }
    }

    fn recover_aggregator(&mut self) {
        if self.agg.is_some() {
            return;
        }
        self.faults_applied += 1;
        let (mut session, recovery) =
            self.agg_log
                .recover(template(), 0, self.cfg.heartbeat_timeout);
        if self.cfg.mutate_no_dedup {
            session.set_dedup_disabled(true);
        }
        self.log(format!(
            "fault recover aggregator epochs={} nodes={} records={}",
            recovery.epochs, recovery.nodes, recovery.records
        ));
        self.agg = Some(session);
        self.check_status_monotonic("after aggregator recovery");
    }

    // -- oracles -----------------------------------------------------------

    fn check_status_monotonic(&mut self, when: &str) {
        let Some(agg) = self.agg.as_ref() else { return };
        // Regression is only a violation if the member set did not grow
        // since the seal: a first-time joiner announcing membership from
        // epoch 1 retroactively expands old epochs' member sets, honestly
        // demoting them to Pending until its backfill arrives.
        let regressed: Vec<(u64, u64, u64)> = self
            .complete_seen
            .iter()
            .filter(|(&e, _)| !agg.status_of(e).is_complete())
            .map(|(&e, &at_seal)| (e, at_seal, agg.members_of(e).len() as u64))
            .filter(|&(_, at_seal, members_now)| members_now <= at_seal)
            .collect();
        for (e, at_seal, members_now) in regressed {
            self.fail(
                Oracle::StatusMonotonic,
                format!(
                    "epoch {e} was Complete over {at_seal} nodes but regressed {when} \
                     (member set now {members_now}, not grown)"
                ),
            );
        }
    }

    /// Heal every fault, restart everything, and drain the cluster to the
    /// target epoch over a fault-free synchronous network.
    fn converge(&mut self) {
        self.log("convergence phase".to_string());
        self.reliable = true;
        for i in 0..self.nodes.len() {
            self.nodes[i].partitioned = false;
            self.nodes[i].skew = 0;
        }
        if self.agg.is_none() {
            self.recover_aggregator();
        }
        for n in 0..self.cfg.nodes {
            if !self.nodes[n as usize].up {
                self.restart_node(n);
            }
        }
        for i in 0..self.nodes.len() {
            // Reset any half-open state, then connect synchronously.
            let nnow = self.nodes[i].now(self.clock.now_ns());
            {
                let session = self.nodes[i].session.as_mut().expect("session");
                if !session.is_established() {
                    session.connection_lost(nnow);
                    session.drain();
                } else {
                    continue;
                }
            }
            let id = self.nodes[i].id;
            let conn = self.agg.as_mut().expect("agg alive").conn_open();
            self.drain_agg();
            self.conn_owner.insert(conn, id);
            self.nodes[i].link = Some(conn);
            self.nodes[i]
                .session
                .as_mut()
                .expect("session")
                .transport_connected();
            self.log(format!("convergence dial n{id} conn={conn}"));
            self.drain_node(i);
        }
        for i in 0..self.nodes.len() {
            while self.nodes[i].epoch <= self.cfg.epochs {
                self.clock.advance(Duration::from_millis(1));
                self.seal_now(i);
            }
        }
        // A few quiet ticks so heartbeat bookkeeping settles.
        for _ in 0..4 {
            self.clock.advance(self.cfg.tick_interval);
            self.on_tick_quiet();
        }
    }

    fn on_tick_quiet(&mut self) {
        let now = self.clock.now_ns();
        if self.agg.is_some() {
            self.agg.as_mut().expect("agg alive").tick(now);
            self.drain_agg();
        }
        for i in 0..self.nodes.len() {
            if !self.nodes[i].up {
                continue;
            }
            let packets = self.nodes[i].packets;
            let session = self.nodes[i].session.as_mut().expect("session");
            if session.is_established() {
                session.heartbeat(packets);
            }
            self.drain_node(i);
        }
    }

    fn check_final_oracles(&mut self) {
        self.check_status_monotonic("at end of run");

        // Convergence: after total repair, every epoch is complete.
        let statuses: Vec<(u64, bool)> = {
            let agg = self.agg.as_ref().expect("agg alive");
            (1..=self.cfg.epochs)
                .map(|e| (e, agg.status_of(e).is_complete()))
                .collect()
        };
        for (e, complete) in statuses {
            if !complete {
                let detail = {
                    let agg = self.agg.as_ref().expect("agg alive");
                    format!(
                        "epoch {e} not complete after convergence: {:?}",
                        agg.status_of(e)
                    )
                };
                self.fail(Oracle::Convergence, detail);
            }
        }

        // Accounting identity: merged packet totals equal the sum of what
        // the reporting nodes sealed.
        let epochs: Vec<u64> = self.agg.as_ref().expect("agg alive").epochs();
        for e in epochs {
            let (reporting, got) = {
                let agg = self.agg.as_ref().expect("agg alive");
                (
                    agg.reporting_of(e).unwrap_or_default(),
                    agg.packets_of(e).unwrap_or(0),
                )
            };
            let mut want = 0u64;
            let mut missing = None;
            for &n in &reporting {
                match self.sealed_packets.get(&(n, e)) {
                    Some(p) => want += p,
                    None => missing = Some(n),
                }
            }
            if let Some(n) = missing {
                self.fail(
                    Oracle::Accounting,
                    format!("epoch {e}: aggregator reports n{n} which never sealed it"),
                );
            } else if got != want {
                self.fail(
                    Oracle::Accounting,
                    format!(
                        "epoch {e}: aggregator packets={got}, sum of node seals={want} ({} reporting)",
                        reporting.len()
                    ),
                );
            }
        }

        // Heavy-hitter recall on the final epoch, vs the exact counts.
        let mut exact: BTreeMap<u64, f64> = BTreeMap::new();
        for node in &self.nodes {
            for (&k, &v) in &node.exact {
                *exact.entry(k).or_insert(0.0) += v;
            }
        }
        let view = self.agg.as_ref().expect("agg alive").view(self.cfg.epochs);
        let Some(view) = view else {
            self.fail(
                Oracle::HeavyHitterRecall,
                format!("no view for final epoch {}", self.cfg.epochs),
            );
            return;
        };
        let found: BTreeSet<u64> = view
            .heavy_hitters(self.cfg.hh_threshold)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let truth: Vec<u64> = exact
            .iter()
            .filter(|&(_, &v)| v >= self.cfg.hh_threshold)
            .map(|(&k, _)| k)
            .collect();
        if !truth.is_empty() {
            let hit = truth.iter().filter(|k| found.contains(k)).count();
            let recall = hit as f64 / truth.len() as f64;
            if recall < 0.95 {
                self.fail(
                    Oracle::HeavyHitterRecall,
                    format!(
                        "recall {recall:.2} ({hit}/{} true heavy hitters)",
                        truth.len()
                    ),
                );
            }
            let undercounts: Vec<String> = truth
                .iter()
                .filter(|&&k| view.estimate(k) < exact[&k] - 1e-6)
                .map(|&k| format!("key {k}: est {} < exact {}", view.estimate(k), exact[&k]))
                .collect();
            for u in undercounts {
                self.fail(
                    Oracle::HeavyHitterRecall,
                    format!("merged estimate undercounts ({u})"),
                );
            }
        }
        let (sealed, merged, backfills) = (self.frames_sealed, self.frames_merged, self.backfills);
        self.log(format!(
            "end sealed={sealed} merged={merged} backfills={backfills}"
        ));
    }
}

fn msg_name(m: &Message) -> &'static str {
    match m {
        Message::Hello { .. } => "Hello",
        Message::HelloAck { .. } => "HelloAck",
        Message::SealEpoch { .. } => "SealEpoch",
        Message::SealDelta { .. } => "SealDelta",
        Message::Heartbeat { .. } => "Heartbeat",
        Message::Goodbye { .. } => "Goodbye",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips() {
        let cfg = SimConfig::default();
        for seed in 0..20 {
            let s = Schedule::generate(&cfg, seed);
            let rt = Schedule::from_spec(&s.to_spec()).unwrap();
            assert_eq!(s, rt);
        }
    }

    #[test]
    fn schedule_generation_is_deterministic() {
        let cfg = SimConfig::default();
        assert_eq!(Schedule::generate(&cfg, 7), Schedule::generate(&cfg, 7));
        assert_ne!(Schedule::generate(&cfg, 7), Schedule::generate(&cfg, 8));
    }

    #[test]
    fn fault_free_run_is_clean_and_deterministic() {
        let cfg = SimConfig::default();
        let empty = Schedule::default();
        let a = run(&cfg, 42, &empty);
        assert!(a.violation.is_none(), "{:?}", a.violation);
        assert_eq!(a.frames_sealed, cfg.nodes as u64 * cfg.epochs);
        let b = run(&cfg, 42, &empty);
        assert_eq!(
            a.journal, b.journal,
            "same seed must replay byte-identically"
        );
    }

    #[test]
    fn generated_schedule_runs_green_and_exercises_faults() {
        let cfg = SimConfig::default();
        let mut any_backfill = false;
        for seed in 0..8 {
            let schedule = Schedule::generate(&cfg, seed);
            let rep = run(&cfg, seed, &schedule);
            assert!(
                rep.violation.is_none(),
                "seed {seed}: {:?}\n{}",
                rep.violation,
                rep.journal.join("\n")
            );
            any_backfill |= rep.backfills > 0;
        }
        assert!(any_backfill, "8 seeds of faults should trigger backfill");
    }
}
