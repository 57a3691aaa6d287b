//! FD.io-VPP-style packet-processing graph.
//!
//! VPP moves whole vectors (batches) of packets from graph node to graph
//! node; we reproduce that shape: `ethernet-input → ip4-input → ip4-lookup
//! → nitro-measure → tx`, each node processing a `Vec<PacketMeta>` in one
//! call and charging its wall time to its own cost bucket. The measurement
//! node is placed "after the VPP IP stack … in a dedicated thread,
//! minimizing the impact on other VPP plugins" (§6) — the dedicated-thread
//! variant composes this graph with [`crate::supervisor`].

use crate::cost::{CostReport, Stage};
use crate::five_tuple::FiveTuple;
use crate::nic::{NicSim, PacketRecord};
use crate::ovs::{Measurement, RunReport};
use crate::packet::Packet;
use crate::parse::parse_five_tuple;
use nitro_sketches::FlowKey;
use std::time::Instant;

/// Per-packet metadata threaded through the graph.
#[derive(Clone, Debug)]
pub struct PacketMeta {
    /// The frame.
    pub packet: Packet,
    /// Parsed 5-tuple (set by `ip4-input`).
    pub tuple: Option<FiveTuple>,
    /// Flow key (set with the tuple).
    pub key: FlowKey,
    /// Output port chosen by `ip4-lookup`.
    pub out_port: Option<u16>,
    /// Marked for drop.
    pub drop: bool,
}

/// A VPP graph node.
pub trait GraphNode {
    /// Node name (for cost attribution and debugging).
    fn name(&self) -> &'static str;

    /// The cost bucket this node charges.
    fn stage(&self) -> Stage;

    /// Process a vector of packets in place.
    fn process(&mut self, batch: &mut Vec<PacketMeta>);
}

/// `ethernet-input`: validates the ethertype, drops non-IPv4.
#[derive(Default)]
pub struct EthernetInput;

impl GraphNode for EthernetInput {
    fn name(&self) -> &'static str {
        "ethernet-input"
    }

    fn stage(&self) -> Stage {
        Stage::Parse
    }

    fn process(&mut self, batch: &mut Vec<PacketMeta>) {
        for m in batch.iter_mut() {
            let d = &m.packet.data;
            if d.len() < 14 || d[12] != 0x08 || d[13] != 0x00 {
                m.drop = true;
            }
        }
    }
}

/// `ip4-input`: full header parse, extracts the 5-tuple and flow key.
#[derive(Default)]
pub struct Ip4Input;

impl GraphNode for Ip4Input {
    fn name(&self) -> &'static str {
        "ip4-input"
    }

    fn stage(&self) -> Stage {
        Stage::Parse
    }

    fn process(&mut self, batch: &mut Vec<PacketMeta>) {
        for m in batch.iter_mut() {
            if m.drop {
                continue;
            }
            match parse_five_tuple(&m.packet.data) {
                Ok(t) => {
                    m.key = t.flow_key();
                    m.tuple = Some(t);
                }
                Err(_) => m.drop = true,
            }
        }
    }
}

/// `ip4-lookup`: routes by destination-address hash over `n_ports`.
pub struct Ip4Lookup {
    n_ports: u16,
}

impl Ip4Lookup {
    /// A lookup node spreading flows over `n_ports` egress ports.
    pub fn new(n_ports: u16) -> Self {
        assert!(n_ports >= 1);
        Self { n_ports }
    }
}

impl GraphNode for Ip4Lookup {
    fn name(&self) -> &'static str {
        "ip4-lookup"
    }

    fn stage(&self) -> Stage {
        Stage::Classifier
    }

    fn process(&mut self, batch: &mut Vec<PacketMeta>) {
        for m in batch.iter_mut() {
            if m.drop {
                continue;
            }
            if let Some(t) = &m.tuple {
                let h = u32::from(t.dst_ip);
                m.out_port = Some((h % u32::from(self.n_ports)) as u16);
            }
        }
    }
}

/// The measurement plugin node.
pub struct MeasureNode<M: Measurement> {
    measurement: M,
    keys: Vec<FlowKey>,
}

impl<M: Measurement> MeasureNode<M> {
    /// Wrap a measurement module as a graph node.
    pub fn new(measurement: M) -> Self {
        Self {
            measurement,
            keys: Vec::new(),
        }
    }

    /// Access the wrapped module.
    pub fn inner(&self) -> &M {
        &self.measurement
    }
}

impl<M: Measurement> GraphNode for MeasureNode<M> {
    fn name(&self) -> &'static str {
        "nitro-measure"
    }

    fn stage(&self) -> Stage {
        Stage::SketchHash
    }

    fn process(&mut self, batch: &mut Vec<PacketMeta>) {
        self.keys.clear();
        let mut ts = 0;
        for m in batch.iter() {
            if !m.drop && m.tuple.is_some() {
                self.keys.push(m.key);
                ts = m.packet.ts_ns;
            }
        }
        self.measurement.on_batch(&self.keys, ts, 1.0);
    }
}

/// The assembled VPP graph.
pub struct VppGraph<M: Measurement> {
    eth: EthernetInput,
    ip4: Ip4Input,
    lookup: Ip4Lookup,
    measure: MeasureNode<M>,
    cost: CostReport,
    tx: u64,
    dropped: u64,
}

impl<M: Measurement> VppGraph<M> {
    /// Standard 4-node graph with a measurement plugin after the IP stack.
    pub fn new(measurement: M) -> Self {
        Self {
            eth: EthernetInput,
            ip4: Ip4Input,
            lookup: Ip4Lookup::new(2),
            measure: MeasureNode::new(measurement),
            cost: CostReport::new(),
            tx: 0,
            dropped: 0,
        }
    }

    fn run_node(cost: &mut CostReport, node: &mut dyn GraphNode, batch: &mut Vec<PacketMeta>) {
        let t = Instant::now();
        node.process(batch);
        cost.add(node.stage(), t.elapsed().as_nanos() as f64);
    }

    /// Push one burst through the whole graph.
    pub fn process_batch(&mut self, packets: Vec<Packet>) {
        let mut batch: Vec<PacketMeta> = packets
            .into_iter()
            .map(|packet| PacketMeta {
                packet,
                tuple: None,
                key: 0,
                out_port: None,
                drop: false,
            })
            .collect();
        Self::run_node(&mut self.cost, &mut self.eth, &mut batch);
        Self::run_node(&mut self.cost, &mut self.ip4, &mut batch);
        Self::run_node(&mut self.cost, &mut self.lookup, &mut batch);
        Self::run_node(&mut self.cost, &mut self.measure, &mut batch);
        for m in &batch {
            if m.drop {
                self.dropped += 1;
            } else {
                self.tx += 1;
            }
        }
    }

    /// Replay a trace through the graph.
    pub fn run_trace(&mut self, records: &[PacketRecord]) -> RunReport {
        let mut nic = NicSim::new(records);
        let mut burst = Vec::with_capacity(crate::nic::BATCH_SIZE);
        let start = Instant::now();
        let mut packets = 0u64;
        let mut bytes = 0u64;
        loop {
            let t_io = Instant::now();
            let n = nic.rx_burst(&mut burst);
            self.cost.add(Stage::Io, t_io.elapsed().as_nanos() as f64);
            if n == 0 {
                break;
            }
            packets += n as u64;
            bytes += burst.iter().map(|p| p.len() as u64).sum::<u64>();
            self.process_batch(std::mem::take(&mut burst));
        }
        RunReport {
            packets,
            bytes,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// (forwarded, dropped).
    pub fn counters(&self) -> (u64, u64) {
        (self.tx, self.dropped)
    }

    /// Stage cost report.
    pub fn cost(&self) -> &CostReport {
        &self.cost
    }

    /// The measurement module.
    pub fn measurement(&self) -> &M {
        self.measure.inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ovs::NullMeasurement;
    use nitro_core::{Mode, NitroSketch};
    use nitro_sketches::CountSketch;

    fn trace(flows: u64, packets: u64) -> Vec<PacketRecord> {
        (0..packets)
            .map(|i| PacketRecord::new(FiveTuple::synthetic(i % flows), 128, i * 50))
            .collect()
    }

    #[test]
    fn all_valid_packets_forwarded() {
        let mut g = VppGraph::new(NullMeasurement);
        let r = g.run_trace(&trace(8, 800));
        assert_eq!(r.packets, 800);
        assert_eq!(g.counters(), (800, 0));
    }

    #[test]
    fn measurement_node_sees_flows() {
        let nitro = NitroSketch::new(CountSketch::new(5, 2048, 1), Mode::Fixed { p: 1.0 }, 2);
        let mut g = VppGraph::new(nitro);
        g.run_trace(&trace(4, 2000));
        for f in 0..4u64 {
            let key = FiveTuple::synthetic(f).flow_key();
            assert_eq!(g.measurement().estimate(key), 500.0);
        }
    }

    #[test]
    fn node_costs_attributed() {
        let mut g = VppGraph::new(NullMeasurement);
        g.run_trace(&trace(8, 1600));
        assert!(g.cost().ns(Stage::Parse) > 0.0);
        assert!(g.cost().ns(Stage::Classifier) > 0.0);
        assert!(g.cost().ns(Stage::Io) > 0.0);
    }

    #[test]
    fn lookup_spreads_ports() {
        let mut g = VppGraph::new(NullMeasurement);
        let recs = trace(50, 50);
        let mut nic = NicSim::new(&recs);
        let mut burst = Vec::new();
        nic.rx_burst(&mut burst);
        let mut batch: Vec<PacketMeta> = burst
            .into_iter()
            .map(|packet| PacketMeta {
                packet,
                tuple: None,
                key: 0,
                out_port: None,
                drop: false,
            })
            .collect();
        g.eth.process(&mut batch);
        g.ip4.process(&mut batch);
        g.lookup.process(&mut batch);
        let ports: std::collections::HashSet<_> = batch.iter().filter_map(|m| m.out_port).collect();
        assert!(!ports.is_empty());
        assert!(ports.iter().all(|&p| p < 2));
    }
}
