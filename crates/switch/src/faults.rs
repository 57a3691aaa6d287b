//! Fault injection for the simulated link.
//!
//! Borrowed from smoltcp's example discipline: to demonstrate behaviour
//! under adverse conditions, the receive path can randomly drop packets,
//! corrupt one octet per packet, and rate-limit with a token bucket. The
//! measurement stack must stay *sane* under all of these (malformed frames
//! rejected by the parser, estimates degrading gracefully with loss) —
//! asserted by the integration tests.

use crate::packet::Packet;
use nitro_hash::Xoshiro256StarStar;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Token-bucket rate limiter over packets.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_pps: f64,
    burst: f64,
    tokens: f64,
    last_ns: Option<u64>,
}

impl TokenBucket {
    /// Allow `rate_pps` packets per second with a burst of `burst` packets.
    pub fn new(rate_pps: f64, burst: f64) -> Self {
        assert!(rate_pps > 0.0 && burst >= 1.0);
        Self {
            rate_pps,
            burst,
            tokens: burst,
            last_ns: None,
        }
    }

    /// Whether a packet arriving at `now_ns` passes.
    pub fn admit(&mut self, now_ns: u64) -> bool {
        if let Some(prev) = self.last_ns {
            let dt = now_ns.saturating_sub(prev) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.rate_pps).min(self.burst);
        }
        self.last_ns = Some(now_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Counters of what the injector did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets randomly dropped.
    pub dropped: u64,
    /// Packets with one octet mutated.
    pub corrupted: u64,
    /// Packets discarded by the rate limiter.
    pub shaped: u64,
    /// Packets passed through untouched.
    pub passed: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Adjacent pairs swapped by reordering.
    pub reordered: u64,
}

/// A configurable link fault injector.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    drop_chance: f64,
    corrupt_chance: f64,
    duplicate_chance: f64,
    reorder_chance: f64,
    limiter: Option<TokenBucket>,
    rng: Xoshiro256StarStar,
    stats: FaultStats,
}

impl FaultInjector {
    /// A transparent injector (no faults).
    pub fn new(seed: u64) -> Self {
        Self {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            reorder_chance: 0.0,
            limiter: None,
            rng: Xoshiro256StarStar::new(seed),
            stats: FaultStats::default(),
        }
    }

    /// Randomly drop packets with this probability.
    pub fn with_drop_chance(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.drop_chance = p;
        self
    }

    /// Randomly mutate one octet with this probability.
    pub fn with_corrupt_chance(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.corrupt_chance = p;
        self
    }

    /// Randomly deliver a packet twice with this probability (a retransmit
    /// or a switch-level mirror — sketches double-count it; trackers must
    /// not crash).
    pub fn with_duplicate_chance(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.duplicate_chance = p;
        self
    }

    /// Randomly swap a packet with its successor with this probability —
    /// the resulting non-monotonic timestamps exercise the measurement
    /// stack's clock-clamp path.
    pub fn with_reorder_chance(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.reorder_chance = p;
        self
    }

    /// Apply token-bucket shaping.
    pub fn with_rate_limit(mut self, rate_pps: f64, burst: f64) -> Self {
        self.limiter = Some(TokenBucket::new(rate_pps, burst));
        self
    }

    /// Filter a received burst in place.
    pub fn apply(&mut self, batch: &mut Vec<Packet>) {
        let mut out = Vec::with_capacity(batch.len());
        for mut p in batch.drain(..) {
            if let Some(l) = &mut self.limiter {
                if !l.admit(p.ts_ns) {
                    self.stats.shaped += 1;
                    continue;
                }
            }
            if self.drop_chance > 0.0 && self.rng.next_bool(self.drop_chance) {
                self.stats.dropped += 1;
                continue;
            }
            if self.corrupt_chance > 0.0 && self.rng.next_bool(self.corrupt_chance) {
                let mut bytes = p.data.to_vec();
                let at = self.rng.next_range(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << self.rng.next_range(8);
                p = Packet {
                    data: bytes.into(),
                    ts_ns: p.ts_ns,
                };
                self.stats.corrupted += 1;
            } else {
                self.stats.passed += 1;
            }
            if self.duplicate_chance > 0.0 && self.rng.next_bool(self.duplicate_chance) {
                out.push(p.clone());
                self.stats.duplicated += 1;
            }
            out.push(p);
        }
        if self.reorder_chance > 0.0 {
            // Swap adjacent survivors: keys and timestamps travel together,
            // so downstream sees genuinely out-of-order arrivals.
            let mut i = 0;
            while i + 1 < out.len() {
                if self.rng.next_bool(self.reorder_chance) {
                    out.swap(i, i + 1);
                    self.stats.reordered += 1;
                    i += 2; // don't re-swap the displaced packet
                } else {
                    i += 1;
                }
            }
        }
        *batch = out;
    }

    /// What happened so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Thread-level fault plan: inject a consumer-thread panic after a chosen
/// number of processed observations. Shared (`Arc`-cloneable) so a test
/// arms it from outside while the supervised worker calls
/// [`check`](ThreadFaultPlan::check) on its hot path.
///
/// The countdown is one-shot per arming: the panic fires exactly once when
/// the counter crosses the trigger, then the plan goes quiet until armed
/// again — so a supervisor's *restarted* thread is not immediately killed
/// by the same plan.
#[derive(Clone, Debug)]
pub struct ThreadFaultPlan {
    /// Observations remaining until the next injected panic; `u64::MAX`
    /// means disarmed.
    remaining: Arc<AtomicU64>,
    /// Published checkpoints remaining until the next injected panic —
    /// counted by [`ThreadFaultPlan::check_checkpoint`] on the worker's
    /// checkpoint path rather than per observation, so the kill lands
    /// *right after* a periodic checkpoint was published.
    checkpoint_remaining: Arc<AtomicU64>,
    /// Panics fired so far.
    fired: Arc<AtomicU64>,
}

// `derive(Default)` would zero-initialize `remaining`, which is an *armed*
// plan that panics on the first check; a default plan must be disarmed.
impl Default for ThreadFaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

/// The panic message [`ThreadFaultPlan::check`] fires with.
pub const INJECTED_PANIC_MSG: &str = "injected consumer fault";

impl ThreadFaultPlan {
    /// A disarmed plan (checks are free of panics until armed).
    pub fn new() -> Self {
        Self {
            remaining: Arc::new(AtomicU64::new(u64::MAX)),
            checkpoint_remaining: Arc::new(AtomicU64::new(u64::MAX)),
            fired: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Arm: panic after `n` more observations pass through
    /// [`check`](ThreadFaultPlan::check).
    pub fn panic_after(&self, n: u64) {
        self.remaining.store(n, Ordering::Release);
    }

    /// Arm: panic right after the worker's `n`-th periodic checkpoint from
    /// now (0-based) is published — in the supervisor's slot, and with a
    /// sink already persisted — so the state a promotion restores is as
    /// fresh as it gets. Without a sink no further observation reaches the
    /// primary; with one, the batches it popped while the writer persisted
    /// the checkpoint do. Fires via [`ThreadFaultPlan::check_checkpoint`],
    /// one-shot per arming.
    pub fn panic_after_checkpoints(&self, n: u64) {
        self.checkpoint_remaining.store(n, Ordering::Release);
    }

    /// Disarm without firing.
    pub fn disarm(&self) {
        self.remaining.store(u64::MAX, Ordering::Release);
        self.checkpoint_remaining.store(u64::MAX, Ordering::Release);
    }

    /// Injected panics fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// Account `n` observations; panics when the armed countdown crosses
    /// zero. Called by the supervised worker on its consume path.
    pub fn check(&self, n: u64) {
        let before = self.remaining.load(Ordering::Acquire);
        if before == u64::MAX {
            return;
        }
        if before <= n {
            self.remaining.store(u64::MAX, Ordering::Release);
            self.fired.fetch_add(1, Ordering::AcqRel);
            panic!("{INJECTED_PANIC_MSG}");
        }
        self.remaining.store(before - n, Ordering::Release);
    }

    /// Account one published checkpoint; panics when the armed
    /// [`panic_after_checkpoints`](ThreadFaultPlan::panic_after_checkpoints)
    /// countdown crosses zero. Called by the supervised worker once each
    /// periodic checkpoint is published: at once when it publishes inline,
    /// at its first loop iteration after the writer published otherwise.
    pub fn check_checkpoint(&self) {
        let before = self.checkpoint_remaining.load(Ordering::Acquire);
        if before == u64::MAX {
            return;
        }
        if before == 0 {
            self.checkpoint_remaining.store(u64::MAX, Ordering::Release);
            self.fired.fetch_add(1, Ordering::AcqRel);
            panic!("{INJECTED_PANIC_MSG}");
        }
        self.checkpoint_remaining
            .store(before - 1, Ordering::Release);
    }
}

/// What the durable checkpoint store should do with one append — the
/// disk-level counterpart of [`ThreadFaultPlan`]'s injected panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskAction {
    /// Write the frame normally.
    Pass,
    /// Write only a prefix of the frame and then freeze the store — models
    /// the process dying mid-`write(2)`, leaving a torn tail for recovery
    /// to truncate.
    TornWrite,
    /// Fail the append with an I/O error without touching the file — a
    /// transient `EIO`; the store stays usable and the next checkpoint
    /// retries durability.
    IoError,
    /// Write the frame with one payload bit flipped — silent media
    /// corruption, detectable only by the frame checksum at recovery.
    BitFlip,
    /// Hold the append until [`DiskFaultPlan::release`], then write the
    /// frame normally — a disk that has stopped answering, without
    /// depending on the real disk to be slow.
    Block,
}

/// Disk-level fault plan for the durable checkpoint store: deterministic,
/// `Arc`-cloneable countdowns over store appends, one-shot per arming like
/// [`ThreadFaultPlan`]. The chaos harness arms it from outside while the
/// store consults [`DiskFaultPlan::next_action`] on every frame append.
#[derive(Clone, Debug, Default)]
pub struct DiskFaultPlan {
    /// Appends remaining until a torn write; `u64::MAX` means disarmed.
    torn_after: Arc<AtomicU64>,
    /// Appends remaining until a transient I/O error.
    io_fail_after: Arc<AtomicU64>,
    /// Appends remaining until a silent bit flip.
    bit_flip_after: Arc<AtomicU64>,
    /// Faults fired so far (all kinds).
    fired: Arc<AtomicU64>,
    /// The [`DiskAction::Block`] latch: `true` while appends are held.
    blocked: Arc<(Mutex<bool>, Condvar)>,
}

impl DiskFaultPlan {
    /// A disarmed plan: every append passes.
    pub fn new() -> Self {
        Self {
            torn_after: Arc::new(AtomicU64::new(u64::MAX)),
            io_fail_after: Arc::new(AtomicU64::new(u64::MAX)),
            bit_flip_after: Arc::new(AtomicU64::new(u64::MAX)),
            fired: Arc::new(AtomicU64::new(0)),
            blocked: Arc::default(),
        }
    }

    /// Close the latch: every append from now on is a
    /// [`DiskAction::Block`] until [`DiskFaultPlan::release`].
    pub fn block_appends(&self) {
        *self.latch() = true;
    }

    /// Open the latch: held appends proceed and new ones pass.
    pub fn release(&self) {
        *self.latch() = false;
        self.blocked.1.notify_all();
    }

    /// Wait until the latch is open (the store's side of a
    /// [`DiskAction::Block`]).
    pub(crate) fn wait_released(&self) {
        let mut blocked = self.latch();
        while *blocked {
            blocked = self
                .blocked
                .1
                .wait(blocked)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    // A bool is valid after any update, so a poisoned lock is recoverable.
    fn latch(&self) -> MutexGuard<'_, bool> {
        self.blocked
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm a torn write: the `n`-th append from now (0-based) writes only
    /// a prefix of its frame and freezes the store.
    pub fn torn_write_after(&self, n: u64) {
        self.torn_after.store(n, Ordering::Release);
    }

    /// Arm a transient I/O failure on the `n`-th append from now.
    pub fn io_error_after(&self, n: u64) {
        self.io_fail_after.store(n, Ordering::Release);
    }

    /// Arm a silent single-bit payload corruption on the `n`-th append
    /// from now.
    pub fn bit_flip_after(&self, n: u64) {
        self.bit_flip_after.store(n, Ordering::Release);
    }

    /// Faults fired so far, all kinds combined.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// Account one append and decide its fate. While the latch is closed
    /// every append is a [`DiskAction::Block`] and the countdowns stand
    /// still. Otherwise each armed countdown decrements per call; a
    /// countdown crossing zero fires exactly once and disarms. When several
    /// fire simultaneously the most destructive wins (torn > io error >
    /// bit flip).
    pub fn next_action(&self) -> DiskAction {
        if *self.latch() {
            self.fired.fetch_add(1, Ordering::AcqRel);
            return DiskAction::Block;
        }
        let mut action = DiskAction::Pass;
        // Tick in reverse priority so the strongest simultaneous fault
        // overwrites the weaker ones.
        for (counter, fault) in [
            (&self.bit_flip_after, DiskAction::BitFlip),
            (&self.io_fail_after, DiskAction::IoError),
            (&self.torn_after, DiskAction::TornWrite),
        ] {
            let remaining = counter.load(Ordering::Acquire);
            if remaining == u64::MAX {
                continue;
            }
            if remaining == 0 {
                counter.store(u64::MAX, Ordering::Release);
                self.fired.fetch_add(1, Ordering::AcqRel);
                action = fault;
            } else {
                counter.store(remaining - 1, Ordering::Release);
            }
        }
        action
    }
}

/// In-process TCP chaos proxy for the distributed measurement plane.
///
/// Sits between cluster agents and the aggregator so tests can inject
/// the network's failure vocabulary — partition, half-open hang, delay,
/// byte corruption, abrupt reset — without leaving the process or
/// touching kernel netem. Agents dial the proxy's stable local address;
/// the proxy dials the (retargetable) upstream, which is how a test
/// "restarts the aggregator on a new port" without the agents noticing.
pub mod net {
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread;
    use std::time::Duration;

    /// What the link between agent and aggregator is doing.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum NetMode {
        /// Bytes flow both ways (subject to armed delay/corrupt/reset).
        Forward,
        /// Hard partition: established connections are torn down and new
        /// dials are accepted then immediately closed — the peer sees
        /// EOF/reset, never silence.
        Partition,
        /// Half-open hang: established connections stop forwarding but
        /// stay open, and new dials are accepted and held silently — the
        /// peer sees a socket that is "up" but never answers. Only
        /// timeouts can detect this.
        Hang,
    }

    const MODE_FORWARD: u8 = 0;
    const MODE_PARTITION: u8 = 1;
    const MODE_HANG: u8 = 2;

    /// Network fault plan: mode switch plus deterministic countdown-armed
    /// one-shot faults over forwarded chunks, `Arc`-cloneable like
    /// [`DiskFaultPlan`](super::DiskFaultPlan) so the chaos harness arms
    /// it from outside while the proxy's pump threads consult it inline.
    #[derive(Clone, Debug)]
    pub struct NetFaultPlan {
        mode: Arc<AtomicU8>,
        /// Added latency per forwarded chunk, in milliseconds.
        delay_ms: Arc<AtomicU64>,
        /// Forwarded chunks remaining until one byte is corrupted;
        /// `u64::MAX` means disarmed.
        corrupt_after: Arc<AtomicU64>,
        /// Forwarded chunks remaining until the connection is dropped
        /// abruptly (unflushed, so the peer sees a reset-like failure).
        reset_after: Arc<AtomicU64>,
        /// Faults fired so far (corruptions + resets).
        fired: Arc<AtomicU64>,
        /// Bumping this orphans every established pump: connections whose
        /// epoch no longer matches tear down on their next poll.
        conn_epoch: Arc<AtomicU64>,
    }

    impl Default for NetFaultPlan {
        fn default() -> Self {
            Self::new()
        }
    }

    impl NetFaultPlan {
        /// A disarmed plan: forward everything, instantly and verbatim.
        pub fn new() -> Self {
            Self {
                mode: Arc::new(AtomicU8::new(MODE_FORWARD)),
                delay_ms: Arc::new(AtomicU64::new(0)),
                corrupt_after: Arc::new(AtomicU64::new(u64::MAX)),
                reset_after: Arc::new(AtomicU64::new(u64::MAX)),
                fired: Arc::new(AtomicU64::new(0)),
                conn_epoch: Arc::new(AtomicU64::new(0)),
            }
        }

        /// Current link mode.
        pub fn mode(&self) -> NetMode {
            match self.mode.load(Ordering::Acquire) {
                MODE_PARTITION => NetMode::Partition,
                MODE_HANG => NetMode::Hang,
                _ => NetMode::Forward,
            }
        }

        /// Hard-partition the link (tears down established connections).
        pub fn partition(&self) {
            self.mode.store(MODE_PARTITION, Ordering::Release);
        }

        /// Half-open hang: the link goes silent without closing.
        pub fn hang(&self) {
            self.mode.store(MODE_HANG, Ordering::Release);
        }

        /// Heal the link back to forwarding. Connections parked by a hang
        /// are torn down (their pumps are stuck mid-silence); the peer is
        /// expected to redial.
        pub fn heal(&self) {
            self.mode.store(MODE_FORWARD, Ordering::Release);
            self.drop_connections();
        }

        /// Add `ms` of latency to every forwarded chunk.
        pub fn delay_ms(&self, ms: u64) {
            self.delay_ms.store(ms, Ordering::Release);
        }

        /// Arm a one-byte corruption on the `n`-th forwarded chunk from
        /// now (0-based), once.
        pub fn corrupt_after(&self, n: u64) {
            self.corrupt_after.store(n, Ordering::Release);
        }

        /// Arm an abrupt connection reset on the `n`-th forwarded chunk
        /// from now (0-based), once.
        pub fn reset_after(&self, n: u64) {
            self.reset_after.store(n, Ordering::Release);
        }

        /// Faults fired so far (corruptions + resets).
        pub fn fired(&self) -> u64 {
            self.fired.load(Ordering::Acquire)
        }

        /// Tear down every established connection (new dials are still
        /// served per the current mode).
        pub fn drop_connections(&self) {
            self.conn_epoch.fetch_add(1, Ordering::AcqRel);
        }

        /// Tick the per-chunk countdowns. Returns `(corrupt, reset)` for
        /// this chunk; each armed countdown fires exactly once.
        fn chunk_fate(&self) -> (bool, bool) {
            let mut fate = (false, false);
            for (counter, slot) in [(&self.corrupt_after, 0), (&self.reset_after, 1)] {
                let remaining = counter.load(Ordering::Acquire);
                if remaining == u64::MAX {
                    continue;
                }
                if remaining == 0 {
                    counter.store(u64::MAX, Ordering::Release);
                    self.fired.fetch_add(1, Ordering::AcqRel);
                    if slot == 0 {
                        fate.0 = true;
                    } else {
                        fate.1 = true;
                    }
                } else {
                    counter.store(remaining - 1, Ordering::Release);
                }
            }
            fate
        }
    }

    /// One directional byte pump. Exits (closing what it owns) when the
    /// proxy shuts down, the plan partitions, its connection epoch is
    /// orphaned, or either socket dies.
    fn pump(
        mut from: TcpStream,
        mut to: TcpStream,
        plan: NetFaultPlan,
        my_epoch: u64,
        shutdown: Arc<AtomicBool>,
    ) {
        if from
            .set_read_timeout(Some(Duration::from_millis(10)))
            .is_err()
        {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            if shutdown.load(Ordering::Acquire)
                || plan.conn_epoch.load(Ordering::Acquire) != my_epoch
            {
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            match plan.mode() {
                NetMode::Forward => {}
                NetMode::Partition => {
                    let _ = from.shutdown(Shutdown::Both);
                    let _ = to.shutdown(Shutdown::Both);
                    return;
                }
                NetMode::Hang => {
                    // Half-open: forward nothing, close nothing.
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
            }
            match from.read(&mut buf) {
                Ok(0) => {
                    let _ = to.shutdown(Shutdown::Both);
                    return;
                }
                Ok(n) => {
                    let (corrupt, reset) = plan.chunk_fate();
                    if reset {
                        // Abrupt, unflushed teardown: the peer's next
                        // read/write fails immediately.
                        let _ = from.shutdown(Shutdown::Both);
                        let _ = to.shutdown(Shutdown::Both);
                        return;
                    }
                    let chunk = &mut buf[..n];
                    if corrupt {
                        chunk[n / 2] ^= 0x20;
                    }
                    let delay = plan.delay_ms.load(Ordering::Acquire);
                    if delay > 0 {
                        thread::sleep(Duration::from_millis(delay));
                    }
                    if to.write_all(chunk).is_err() {
                        let _ = from.shutdown(Shutdown::Both);
                        return;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => {
                    let _ = to.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    }

    /// The proxy itself: a stable loopback listen address in front of a
    /// retargetable upstream.
    pub struct ChaosProxy {
        local: SocketAddr,
        upstream: Arc<Mutex<SocketAddr>>,
        plan: NetFaultPlan,
        shutdown: Arc<AtomicBool>,
        accept_thread: Option<thread::JoinHandle<()>>,
        pumps: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    }

    impl ChaosProxy {
        /// Start proxying an ephemeral loopback port to `upstream` under
        /// `plan`.
        pub fn spawn(upstream: SocketAddr, plan: NetFaultPlan) -> std::io::Result<Self> {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            listener.set_nonblocking(true)?;
            let local = listener.local_addr()?;
            let upstream = Arc::new(Mutex::new(upstream));
            let shutdown = Arc::new(AtomicBool::new(false));
            let pumps: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

            let a_plan = plan.clone();
            let a_upstream = Arc::clone(&upstream);
            let a_shutdown = Arc::clone(&shutdown);
            let a_pumps = Arc::clone(&pumps);
            let accept_thread = thread::Builder::new()
                .name("nitro-chaos-accept".into())
                .spawn(move || {
                    // Connections parked by Hang mode: held open, never
                    // answered, dropped (→ closed) on shutdown.
                    let mut parked: Vec<TcpStream> = Vec::new();
                    loop {
                        if a_shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        match listener.accept() {
                            Ok((client, _)) => match a_plan.mode() {
                                NetMode::Partition => drop(client),
                                NetMode::Hang => parked.push(client),
                                NetMode::Forward => {
                                    let target =
                                        *a_upstream.lock().unwrap_or_else(|p| p.into_inner());
                                    let Ok(server) =
                                        TcpStream::connect_timeout(&target, Duration::from_secs(1))
                                    else {
                                        drop(client);
                                        continue;
                                    };
                                    client.set_nodelay(true).ok();
                                    server.set_nodelay(true).ok();
                                    let epoch = a_plan.conn_epoch.load(Ordering::Acquire);
                                    let pairs = [
                                        (client.try_clone(), server.try_clone()),
                                        (Ok(server), Ok(client)),
                                    ];
                                    for (rx, tx) in pairs {
                                        let (Ok(rx), Ok(tx)) = (rx, tx) else { continue };
                                        let plan = a_plan.clone();
                                        let sd = Arc::clone(&a_shutdown);
                                        if let Ok(h) = thread::Builder::new()
                                            .name("nitro-chaos-pump".into())
                                            .spawn(move || pump(rx, tx, plan, epoch, sd))
                                        {
                                            a_pumps
                                                .lock()
                                                .unwrap_or_else(|p| p.into_inner())
                                                .push(h);
                                        }
                                    }
                                }
                            },
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => return,
                        }
                    }
                })?;

            Ok(Self {
                local,
                upstream,
                plan,
                shutdown,
                accept_thread: Some(accept_thread),
                pumps,
            })
        }

        /// The stable address agents should dial.
        pub fn local_addr(&self) -> SocketAddr {
            self.local
        }

        /// Retarget the upstream (e.g. an aggregator restarted on a new
        /// port). Affects new connections; established ones keep their
        /// old target until torn down.
        pub fn set_upstream(&self, addr: SocketAddr) {
            *self.upstream.lock().unwrap_or_else(|p| p.into_inner()) = addr;
        }

        /// The shared fault plan driving this proxy.
        pub fn plan(&self) -> &NetFaultPlan {
            &self.plan
        }

        /// Stop proxying and join every thread.
        pub fn shutdown(mut self) {
            self.shutdown.store(true, Ordering::Release);
            if let Some(h) = self.accept_thread.take() {
                let _ = h.join();
            }
            let pumps = std::mem::take(&mut *self.pumps.lock().unwrap_or_else(|p| p.into_inner()));
            for h in pumps {
                let _ = h.join();
            }
        }
    }

    impl Drop for ChaosProxy {
        fn drop(&mut self) {
            self.shutdown.store(true, Ordering::Release);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// A TCP echo server for proxy tests; returns (addr, shutdown fn).
        fn echo_server() -> (SocketAddr, Arc<AtomicBool>, thread::JoinHandle<()>) {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let t_stop = Arc::clone(&stop);
            let handle = thread::spawn(move || {
                let mut conns: Vec<TcpStream> = Vec::new();
                let mut buf = [0u8; 4096];
                loop {
                    if t_stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok((s, _)) = listener.accept() {
                        s.set_nonblocking(true).ok();
                        conns.push(s);
                    }
                    conns.retain_mut(|s| match s.read(&mut buf) {
                        Ok(0) => false,
                        Ok(n) => s.write_all(&buf[..n]).is_ok(),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
                        Err(_) => false,
                    });
                    thread::sleep(Duration::from_millis(1));
                }
            });
            (addr, stop, handle)
        }

        fn roundtrip(addr: SocketAddr, msg: &[u8]) -> std::io::Result<Vec<u8>> {
            let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
            s.set_read_timeout(Some(Duration::from_secs(1)))?;
            s.write_all(msg)?;
            let mut out = vec![0u8; msg.len()];
            s.read_exact(&mut out)?;
            Ok(out)
        }

        #[test]
        fn forwards_then_partitions_then_heals() {
            let (addr, stop, server) = echo_server();
            let plan = NetFaultPlan::new();
            let proxy = ChaosProxy::spawn(addr, plan.clone()).unwrap();
            assert_eq!(roundtrip(proxy.local_addr(), b"hello").unwrap(), b"hello");

            plan.partition();
            assert!(
                roundtrip(proxy.local_addr(), b"lost").is_err(),
                "partitioned proxy must not echo"
            );

            plan.heal();
            assert_eq!(roundtrip(proxy.local_addr(), b"back").unwrap(), b"back");

            proxy.shutdown();
            stop.store(true, Ordering::Release);
            server.join().unwrap();
        }

        #[test]
        fn hang_goes_silent_without_closing() {
            let (addr, stop, server) = echo_server();
            let plan = NetFaultPlan::new();
            let proxy = ChaosProxy::spawn(addr, plan.clone()).unwrap();
            plan.hang();
            let mut s =
                TcpStream::connect_timeout(&proxy.local_addr(), Duration::from_secs(1)).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            // The dial succeeds and the write is accepted (kernel buffer),
            // but no echo ever comes back — only the timeout notices.
            s.write_all(b"anyone?").unwrap();
            let mut buf = [0u8; 7];
            let err = s.read_exact(&mut buf).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "expected a timeout, got {err:?}"
            );
            proxy.shutdown();
            stop.store(true, Ordering::Release);
            server.join().unwrap();
        }

        #[test]
        fn corruption_countdown_fires_exactly_once() {
            let (addr, stop, server) = echo_server();
            let plan = NetFaultPlan::new();
            let proxy = ChaosProxy::spawn(addr, plan.clone()).unwrap();
            let mut s =
                TcpStream::connect_timeout(&proxy.local_addr(), Duration::from_secs(1)).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            // Arm: the next client→server chunk is corrupted. The echoed
            // bytes must differ; the chunk after passes verbatim.
            plan.corrupt_after(0);
            s.write_all(b"payload").unwrap();
            let mut out = [0u8; 7];
            s.read_exact(&mut out).unwrap();
            assert_ne!(&out, b"payload", "armed chunk must be corrupted");
            assert_eq!(plan.fired(), 1);
            s.write_all(b"payload").unwrap();
            s.read_exact(&mut out).unwrap();
            assert_eq!(&out, b"payload", "countdown is one-shot");
            assert_eq!(plan.fired(), 1);
            proxy.shutdown();
            stop.store(true, Ordering::Release);
            server.join().unwrap();
        }

        #[test]
        fn drop_connections_orphans_established_pumps() {
            let (addr, stop, server) = echo_server();
            let plan = NetFaultPlan::new();
            let proxy = ChaosProxy::spawn(addr, plan.clone()).unwrap();
            let mut s =
                TcpStream::connect_timeout(&proxy.local_addr(), Duration::from_secs(1)).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            s.write_all(b"ok").unwrap();
            let mut out = [0u8; 2];
            s.read_exact(&mut out).unwrap();
            plan.drop_connections();
            // The orphaned pump tears down within a few polls; the
            // connection dies even though the mode is still Forward.
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let died = loop {
                if s.write_all(b"??").is_err() {
                    break true;
                }
                let mut b = [0u8; 2];
                if s.read_exact(&mut b).is_err() {
                    break true;
                }
                if std::time::Instant::now() > deadline {
                    break false;
                }
                thread::sleep(Duration::from_millis(10));
            };
            assert!(died, "established connection must be torn down");
            // A fresh dial still works.
            assert_eq!(roundtrip(proxy.local_addr(), b"new").unwrap(), b"new");
            proxy.shutdown();
            stop.store(true, Ordering::Release);
            server.join().unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::five_tuple::FiveTuple;
    use crate::packet::build_packet;

    fn burst(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| build_packet(&FiveTuple::synthetic(i as u64 % 7), 64, i as u64 * 100))
            .collect()
    }

    #[test]
    fn transparent_by_default() {
        let mut fi = FaultInjector::new(1);
        let mut b = burst(100);
        fi.apply(&mut b);
        assert_eq!(b.len(), 100);
        assert_eq!(fi.stats().passed, 100);
    }

    #[test]
    fn drop_rate_respected() {
        let mut fi = FaultInjector::new(2).with_drop_chance(0.15);
        let mut total = 0usize;
        for _ in 0..200 {
            let mut b = burst(100);
            fi.apply(&mut b);
            total += b.len();
        }
        let kept = total as f64 / 20_000.0;
        assert!((kept - 0.85).abs() < 0.02, "kept {kept}");
    }

    #[test]
    fn corruption_mutates_exactly_one_bit() {
        let mut fi = FaultInjector::new(3).with_corrupt_chance(1.0);
        let orig = burst(50);
        let mut b = orig.clone();
        fi.apply(&mut b);
        assert_eq!(b.len(), 50);
        for (o, c) in orig.iter().zip(&b) {
            let diff: u32 = o
                .data
                .iter()
                .zip(c.data.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff, 1, "exactly one bit must differ");
        }
        assert_eq!(fi.stats().corrupted, 50);
    }

    #[test]
    fn rate_limiter_shapes_bursts() {
        // 1 Mpps limit, packets arriving at 10 Mpps → ~90% shaped.
        let mut fi = FaultInjector::new(4).with_rate_limit(1e6, 32.0);
        let mut kept = 0usize;
        for i in 0..100 {
            let mut b: Vec<Packet> = (0..100)
                .map(|j| {
                    build_packet(
                        &FiveTuple::synthetic(3),
                        64,
                        (i * 100 + j) as u64 * 100, // 100 ns spacing
                    )
                })
                .collect();
            fi.apply(&mut b);
            kept += b.len();
        }
        let frac = kept as f64 / 10_000.0;
        assert!((0.08..0.15).contains(&frac), "kept {frac}");
        assert!(fi.stats().shaped > 8_000);
    }

    #[test]
    fn duplication_injects_identical_copies() {
        let mut fi = FaultInjector::new(6).with_duplicate_chance(1.0);
        let mut b = burst(50);
        fi.apply(&mut b);
        assert_eq!(b.len(), 100);
        assert_eq!(fi.stats().duplicated, 50);
        for pair in b.chunks(2) {
            assert_eq!(pair[0].data, pair[1].data);
            assert_eq!(pair[0].ts_ns, pair[1].ts_ns);
        }
    }

    #[test]
    fn duplication_rate_respected() {
        let mut fi = FaultInjector::new(7).with_duplicate_chance(0.2);
        let mut total = 0usize;
        for _ in 0..100 {
            let mut b = burst(100);
            fi.apply(&mut b);
            total += b.len();
        }
        let factor = total as f64 / 10_000.0;
        assert!((factor - 1.2).abs() < 0.02, "duplication factor {factor}");
    }

    #[test]
    fn reordering_permutes_but_never_loses() {
        let mut fi = FaultInjector::new(8).with_reorder_chance(0.5);
        let mut b = burst(200);
        let before: Vec<u64> = b.iter().map(|p| p.ts_ns).collect();
        fi.apply(&mut b);
        assert_eq!(b.len(), 200, "reordering must not drop packets");
        let mut after: Vec<u64> = b.iter().map(|p| p.ts_ns).collect();
        assert!(
            after.windows(2).any(|w| w[0] > w[1]),
            "expected at least one inversion"
        );
        after.sort_unstable();
        assert_eq!(after, before, "same multiset of packets");
        assert!(fi.stats().reordered > 30);
    }

    #[test]
    fn thread_fault_plan_fires_once_per_arming() {
        let plan = ThreadFaultPlan::new();
        plan.check(1000); // disarmed: no panic
        plan.panic_after(100);
        let shared = plan.clone();
        let err = std::thread::spawn(move || {
            for _ in 0..100 {
                shared.check(64);
            }
        })
        .join()
        .unwrap_err();
        assert_eq!(
            crate::supervisor::panic_message(err.as_ref()).as_deref(),
            Some(INJECTED_PANIC_MSG)
        );
        assert_eq!(plan.fired(), 1);
        // Quiet after firing — a restarted worker survives.
        plan.check(u64::MAX - 1);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn default_thread_fault_plan_is_disarmed() {
        let plan = ThreadFaultPlan::default();
        plan.check(u64::MAX - 1); // would panic if `remaining` defaulted to 0
        plan.check_checkpoint();
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn panic_after_checkpoints_fires_on_checkpoint_countdown() {
        let plan = ThreadFaultPlan::new();
        plan.check_checkpoint(); // disarmed: no panic
        plan.panic_after_checkpoints(2);
        plan.check(u64::MAX - 1); // observation path stays disarmed
        let shared = plan.clone();
        let err = std::thread::spawn(move || {
            for _ in 0..10 {
                shared.check_checkpoint();
            }
        })
        .join()
        .unwrap_err();
        assert_eq!(
            crate::supervisor::panic_message(err.as_ref()).as_deref(),
            Some(INJECTED_PANIC_MSG)
        );
        assert_eq!(plan.fired(), 1);
        // One-shot: the restarted worker's checkpoints pass.
        plan.check_checkpoint();
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn disk_fault_plan_counts_down_and_fires_once() {
        let plan = DiskFaultPlan::new();
        assert_eq!(plan.next_action(), DiskAction::Pass, "disarmed passes");
        plan.torn_write_after(2);
        assert_eq!(plan.next_action(), DiskAction::Pass);
        assert_eq!(plan.next_action(), DiskAction::Pass);
        assert_eq!(plan.next_action(), DiskAction::TornWrite);
        assert_eq!(plan.next_action(), DiskAction::Pass, "one-shot");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn disk_fault_plan_priority_on_simultaneous_fire() {
        let plan = DiskFaultPlan::new();
        plan.torn_write_after(0);
        plan.io_error_after(0);
        plan.bit_flip_after(0);
        assert_eq!(plan.next_action(), DiskAction::TornWrite);
        assert_eq!(plan.fired(), 3, "all three armed countdowns fired");
        assert_eq!(plan.next_action(), DiskAction::Pass);
    }

    #[test]
    fn disk_block_latch_freezes_countdowns() {
        // Holding and releasing a real append is pinned end to end by
        // `supervisor::tests::blocked_disk_never_stops_measurement`.
        let plan = DiskFaultPlan::new();
        plan.torn_write_after(1);
        plan.block_appends();
        assert_eq!(plan.next_action(), DiskAction::Block);
        assert_eq!(plan.next_action(), DiskAction::Block);
        plan.release();
        plan.wait_released(); // an open latch never waits
        assert_eq!(plan.next_action(), DiskAction::Pass);
        assert_eq!(
            plan.next_action(),
            DiskAction::TornWrite,
            "blocked appends did not tick the countdown"
        );
    }

    #[test]
    fn corrupted_frames_mostly_fail_downstream_checks() {
        // A single flipped bit lands in the payload sometimes, but header
        // corruption must be caught by parse or change the tuple; the
        // pipeline-level test is in tests/pipeline_integration.rs — here
        // check the injector leaves length intact.
        let mut fi = FaultInjector::new(5).with_corrupt_chance(1.0);
        let mut b = burst(20);
        let lens: Vec<usize> = b.iter().map(|p| p.len()).collect();
        fi.apply(&mut b);
        for (p, l) in b.iter().zip(lens) {
            assert_eq!(p.len(), l);
        }
    }
}
