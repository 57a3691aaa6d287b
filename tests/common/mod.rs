//! Harness helpers shared by the cluster integration tests: temp
//! directories, a Zipf key stream, and the heartbeat-pumping offer, drain
//! and wait loops.

use nitrosketch::sketches::CountMin;
use nitrosketch::switch::{Aggregator, NodeAgent, ShardedPipeline, ShardedTap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One slot of a harness's agent table: a plain [`NodeAgent`], or an
/// `Option<NodeAgent>` for a test that kills agents by taking them out.
pub trait AgentSlot {
    /// The agent, when it is alive.
    fn live(&mut self) -> Option<&mut NodeAgent>;
}

impl AgentSlot for NodeAgent {
    fn live(&mut self) -> Option<&mut NodeAgent> {
        Some(self)
    }
}

impl AgentSlot for Option<NodeAgent> {
    fn live(&mut self) -> Option<&mut NodeAgent> {
        self.as_mut()
    }
}

/// A fresh, empty temp directory named after the test binary, `tag` and
/// the process id.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "nitro-{}-{tag}-{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

pub fn zipf_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut z = nitrosketch::traffic::zipf::Zipf::new(20_000, 1.2, seed);
    (0..n).map(|_| z.sample()).collect()
}

/// Send a liveness heartbeat on every live agent. The harness threads
/// this through all long-running phases: the test drives its agents from
/// one thread, so any stretch of silence longer than the (deliberately
/// tiny) heartbeat timeout would otherwise read as node death. A
/// heartbeat also walks a disconnected agent through its redial schedule.
pub fn pump<A: AgentSlot>(agents: &mut [A]) {
    for a in agents.iter_mut().filter_map(AgentSlot::live) {
        a.heartbeat(0);
    }
}

pub fn offer_all<A: AgentSlot>(tap: &mut ShardedTap, keys: &[u64], agents: &mut [A]) {
    for (i, &k) in keys.iter().enumerate() {
        tap.offer(k, i as u64);
        if i % 512 == 0 {
            std::thread::yield_now();
        }
        if i % 4096 == 0 {
            pump(agents);
        }
    }
}

/// Wait until the accounting identity closes: every offered observation
/// is processed, dropped, or charged to a crash.
pub fn drain<A: AgentSlot>(pipeline: &ShardedPipeline<CountMin>, agents: &mut [A]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while pipeline.fleet_health().unaccounted() != 0 {
        assert!(
            Instant::now() < deadline,
            "fleet failed to drain: {}",
            pipeline.fleet_health()
        );
        pump(agents);
        std::thread::yield_now();
    }
}

/// Poll until the aggregator marks `epoch` complete, pumping heartbeats
/// on every live agent so no node is falsely declared lost while we wait.
pub fn wait_complete<A: AgentSlot>(agg: &Aggregator<CountMin>, agents: &mut [A], epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !agg.epoch_status(epoch).is_complete() {
        assert!(
            Instant::now() < deadline,
            "epoch {epoch} never completed; status {:?}",
            agg.epoch_status(epoch)
        );
        pump(agents);
        std::thread::sleep(Duration::from_millis(5));
    }
}
