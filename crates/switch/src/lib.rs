//! Software-switch substrate — the testbed stand-in (§6, §7).
//!
//! The paper integrates NitroSketch with three virtual switches (OVS-DPDK,
//! FD.io-VPP, BESS) on a 40 GbE testbed. This crate reproduces the packet
//! path of each integration style in Rust, end to end, over real packet
//! bytes:
//!
//! - [`five_tuple`] / [`packet`] / [`parse`]: byte-level Ethernet/IPv4/
//!   TCP/UDP synthesis and zero-copy header parsing ("miniflow extract").
//! - [`emc`]: OVS's first-level Exact-Match Cache.
//! - [`classifier`]: the second-level Tuple-Space-Search classifier.
//! - [`ovs`]: the OVS-DPDK-style datapath with AIO (inline) measurement —
//!   the paper's "all-in-one" integration.
//! - [`vpp`]: a VPP-style packet-processing graph with a measurement node.
//! - [`bess`]: a BESS-style module pipeline.
//! - [`spsc`] / [`supervisor`]: the lock-free single-producer/single-
//!   consumer ring and the measurement thread of the "separate-thread"
//!   integration, supervised — panic recovery with checkpoint/restore,
//!   stall watchdog, and backpressure-driven sampling downshift.
//! - [`frame`]: the one checksummed frame codec (typed header, one
//!   reader, one error type) under the store, the manifest and the
//!   cluster wire.
//! - [`store`]: the crash-consistent durable checkpoint log — CRC-framed
//!   per-shard segments with atomic rotation, a generation-numbered fleet
//!   manifest, and torn-tail-repairing recovery.
//! - [`pipeline`] / [`shard`]: the RSS-style sharded multi-core pipeline —
//!   a dispatcher hashes flow keys onto N supervised shards and an
//!   epoch-merged query plane answers global queries over their union;
//!   with failover on, a failed shard is promoted from its own latest
//!   checkpoint, and the fleet reshards online.
//! - [`cluster`]: the control plane — per-epoch [`EpochReport`]s and full
//!   sketch checkpoints sealed persist-before-publish on each node and
//!   merged into network-wide views by a crash-recoverable aggregator.
//! - [`console`]: the `nitro top` operator dashboard — an ANSI
//!   diff-redraw framebuffer rendering live, replayed, or single-frame
//!   views of the telemetry plane.
//! - [`nic`]: the simulated PMD/NIC feeding 32-packet batches from traces.
//! - [`cost`]: calibrated per-operation cost accounting — the stand-in for
//!   VTune's per-function CPU shares (Table 2, Fig. 10).
//!
//! Throughput numbers from these pipelines are *measured wall-clock* Mpps
//! on the build machine; the paper's claims are about relative costs, which
//! survive the hardware substitution (see DESIGN.md).

#![warn(missing_docs)]

pub mod bess;
pub mod classifier;
pub mod clock;
pub mod cluster;
pub mod console;
pub mod cost;
pub mod emc;
pub mod faults;
pub mod five_tuple;
pub mod frame;
pub mod nic;
pub mod ovs;
pub mod packet;
pub mod parse;
pub mod pipeline;
pub mod shard;
pub mod sim;
pub mod spsc;
pub mod store;
pub mod supervisor;
pub mod vpp;

pub use clock::{Clock, Nanos, SimClock, SystemClock};
pub use cluster::{
    AggRecovery, Aggregator, AggregatorConfig, ClusterError, ClusterView, EpochReport, EpochStatus,
    NodeAgent, NodeAgentConfig, ReconnectDecision, ReconnectPolicy, SealOutcome,
};
pub use cost::{CostModel, CostReport, Stage};
pub use faults::net::{ChaosProxy, NetFaultPlan, NetMode};
pub use faults::{
    DiskAction, DiskFaultPlan, FaultInjector, FaultStats, ThreadFaultPlan, TokenBucket,
};
pub use five_tuple::FiveTuple;
pub use frame::FrameError;
pub use ovs::{Measurement, NullMeasurement, OvsDatapath};
pub use packet::{build_packet, Packet};
pub use parse::{parse_five_tuple, ParseError};
pub use pipeline::{
    spawn_sharded, MergedView, PipelineConfig, PipelineError, ShardedPipeline, ShardedTap,
};
pub use shard::{Shard, ShardStaleness};
pub use sim::{
    ExploreReport, FaultEvent, FaultKind, Oracle, Schedule, SimConfig, SimReport, Violation,
};
pub use spsc::SpscRing;
pub use store::{
    CheckpointSink, CheckpointStore, RecoveredFrame, RecoveryReport, ShardWriter, SinkHandle,
    StoreConfig, StoreError, STORE_VERSION,
};
pub use supervisor::{
    spawn_supervised, CheckpointView, Observation, Recoverable, RestartDecision, RestartPolicy,
    SupervisedDaemon, SupervisedTap, SupervisorConfig, SupervisorError,
};
