//! The outside-in instrument: a [`Protocol`] wrapper that records every
//! delivery and, when traced, times every handler call by layer.
//!
//! Nothing inside the program is instrumented. A [`Probe`] sits between
//! the simulator's `ProtocolActor` and the real protocol, so each call
//! it forwards is a child span of the enclosing `run_ticks` call. Its
//! records live in the probe itself, one per process; the sharded
//! engine's worker threads therefore write into the nodes they own, and
//! reading the nodes back after a run collects every span of every
//! thread.

use std::time::Instant;

use diffuse_core::{
    Actions, AdaptiveBroadcast, BroadcastId, CoreError, Event, HeartbeatView, Message, Payload,
    Protocol, ProtocolAudit, ReferenceGossip,
};
use diffuse_model::ProcessId;
use diffuse_sim::SimTime;

use crate::clock;

/// The handler classes a span can belong to. The `adaptive.*` and
/// `gossip.*` metric names come from [`Layer::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Adaptive heartbeat receipt: view merge and evidence reconcile.
    HbRecv,
    /// Adaptive HEARTBEAT timer: delta or full view build and emission.
    HbEmit,
    /// Adaptive SUSPICION timer (Event 2 staleness scan).
    Suspicion,
    /// Adaptive SELF_TICK timer (Event 3 self-monitoring).
    SelfTick,
    /// Adaptive crash recovery (Event 4).
    Recovery,
    /// Adaptive data receipt: first-receipt delivery and `propagate`.
    DataRecv,
    /// Adaptive `broadcast`: MRT and waterfill planning at the origin.
    Broadcast,
    /// Gossip data receipt.
    GossipRecv,
    /// Gossip acknowledgement receipt.
    GossipAck,
    /// Gossip STEP timer: one forwarding round.
    GossipStep,
    /// Gossip `broadcast` at the origin.
    GossipBroadcast,
    /// Anything else (no workload produces it; kept so every call is
    /// timed somewhere).
    Other,
}

impl Layer {
    /// Every layer, in metric order.
    pub const ALL: [Layer; 12] = [
        Layer::HbRecv,
        Layer::HbEmit,
        Layer::Suspicion,
        Layer::SelfTick,
        Layer::Recovery,
        Layer::DataRecv,
        Layer::Broadcast,
        Layer::GossipRecv,
        Layer::GossipAck,
        Layer::GossipStep,
        Layer::GossipBroadcast,
        Layer::Other,
    ];

    /// The metric-name prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::HbRecv => "adaptive.hb_recv",
            Layer::HbEmit => "adaptive.hb_emit",
            Layer::Suspicion => "adaptive.suspicion",
            Layer::SelfTick => "adaptive.self_tick",
            Layer::Recovery => "adaptive.recovery",
            Layer::DataRecv => "adaptive.data_recv",
            Layer::Broadcast => "adaptive.broadcast",
            Layer::GossipRecv => "gossip.recv",
            Layer::GossipAck => "gossip.ack",
            Layer::GossipStep => "gossip.step",
            Layer::GossipBroadcast => "gossip.broadcast",
            Layer::Other => "other",
        }
    }

    /// `true` for the layers that handle one delivered network message
    /// each: their calls must add up to the kernel's delivered count.
    pub fn is_message(self) -> bool {
        matches!(
            self,
            Layer::HbRecv | Layer::DataRecv | Layer::GossipRecv | Layer::GossipAck
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A protocol the probe knows how to split into layers.
pub trait Layered: Protocol {
    /// The layer an event's handler call belongs to.
    fn layer_of(event: &Event) -> Layer;
    /// The layer of a `broadcast` call.
    const BROADCAST: Layer;
}

impl Layered for AdaptiveBroadcast {
    fn layer_of(event: &Event) -> Layer {
        match event {
            Event::Message {
                message: Message::Heartbeat(_),
                ..
            } => Layer::HbRecv,
            Event::Message {
                message: Message::Data(_),
                ..
            } => Layer::DataRecv,
            Event::Timer(AdaptiveBroadcast::HEARTBEAT) => Layer::HbEmit,
            Event::Timer(AdaptiveBroadcast::SUSPICION) => Layer::Suspicion,
            Event::Timer(AdaptiveBroadcast::SELF_TICK) => Layer::SelfTick,
            Event::Recovery { .. } => Layer::Recovery,
            _ => Layer::Other,
        }
    }
    const BROADCAST: Layer = Layer::Broadcast;
}

impl Layered for ReferenceGossip {
    fn layer_of(event: &Event) -> Layer {
        match event {
            Event::Message {
                message: Message::Gossip(_),
                ..
            } => Layer::GossipRecv,
            Event::Message {
                message: Message::Ack { .. },
                ..
            } => Layer::GossipAck,
            Event::Timer(ReferenceGossip::STEP) => Layer::GossipStep,
            _ => Layer::Other,
        }
    }
    const BROADCAST: Layer = Layer::GossipBroadcast;
}

/// Span totals of one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Handler calls.
    pub calls: u64,
    /// Summed call durations.
    pub busy_ns: u64,
    /// Calls that delivered a first receipt (for `broadcast`: calls
    /// that issued the broadcast).
    pub useful: u64,
    /// Messages the calls handed to the network.
    pub sends: u64,
    /// Every call's duration, for percentiles.
    pub samples_ns: Vec<u32>,
}

impl LayerStats {
    fn record(&mut self, ns: u64, useful: bool, sends: usize) {
        self.calls += 1;
        self.busy_ns += ns;
        self.useful += u64::from(useful);
        self.sends += sends as u64;
        self.samples_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    fn merge(&mut self, other: &LayerStats) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.useful += other.useful;
        self.sends += other.sends;
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }
}

/// Everything the traced probe of one process (or, merged, of a set of
/// processes) recorded.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-layer spans, indexed by [`Layer`].
    pub layers: Vec<LayerStats>,
    /// `broadcast` calls refused with `KnowledgeIncomplete`.
    pub retries: u64,
    /// Heartbeats emitted by HEARTBEAT timer calls.
    pub heartbeats: u64,
    /// Of those, heartbeats carrying a delta view.
    pub delta_heartbeats: u64,
    /// Summed approximate wire size of the emitted views.
    pub heartbeat_bytes: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            layers: vec![LayerStats::default(); Layer::ALL.len()],
            retries: 0,
            heartbeats: 0,
            delta_heartbeats: 0,
            heartbeat_bytes: 0,
        }
    }
}

impl Trace {
    /// The spans of one layer.
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer.index()]
    }

    /// Summed busy time of every layer.
    pub fn busy_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.busy_ns).sum()
    }

    /// Messages handed to the network by every call, `on_start`
    /// included.
    pub fn sends(&self) -> u64 {
        self.layers.iter().map(|l| l.sends).sum()
    }

    /// Every count the trace holds, timings left out. The simulation is
    /// deterministic, so these repeat exactly from one traced repetition
    /// of a workload to the next.
    pub fn counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self
            .layers
            .iter()
            .flat_map(|l| [l.calls, l.useful, l.sends])
            .collect();
        counts.extend([
            self.retries,
            self.heartbeats,
            self.delta_heartbeats,
            self.heartbeat_bytes,
        ]);
        counts
    }

    /// Adds another trace's records to this one.
    pub fn merge(&mut self, other: &Trace) {
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.merge(theirs);
        }
        self.retries += other.retries;
        self.heartbeats += other.heartbeats;
        self.delta_heartbeats += other.delta_heartbeats;
        self.heartbeat_bytes += other.heartbeat_bytes;
    }

    fn close_span(&mut self, layer: Layer, started: Instant, useful: bool, sends: usize) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.layers[layer.index()].record(ns, useful, sends);
    }

    fn count_heartbeats(&mut self, sends: &[(ProcessId, Message)]) {
        for (_, message) in sends {
            if let Message::Heartbeat(hb) = message {
                self.heartbeats += 1;
                let bytes = match &hb.view {
                    HeartbeatView::Full(view) => view.wire_size(),
                    HeartbeatView::Delta(delta) => {
                        self.delta_heartbeats += 1;
                        delta.wire_size()
                    }
                };
                self.heartbeat_bytes += bytes as u64;
            }
        }
    }
}

/// One delivery seen by a probe: when, which broadcast, what payload.
pub type Delivery = (SimTime, BroadcastId, Payload);

/// The wrapper: forwards every call to `inner`, records deliveries from
/// both `on_event` and `broadcast` (the origin delivers inside
/// `broadcast`), and times each call when traced.
#[derive(Debug)]
pub struct Probe<P> {
    inner: P,
    deliveries: Vec<Delivery>,
    trace: Option<Box<Trace>>,
}

impl<P: Layered> Probe<P> {
    /// Wraps `inner`; `traced` turns span timing on.
    pub fn new(inner: P, traced: bool) -> Self {
        Probe {
            inner,
            deliveries: Vec::new(),
            trace: traced.then(Box::default),
        }
    }

    /// The deliveries recorded so far, in order.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// The spans recorded so far (`None` when untraced).
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_deref()
    }

    fn record_deliveries(&mut self, now: SimTime, actions: &Actions, from: usize) {
        self.deliveries.extend(
            actions.deliveries()[from..]
                .iter()
                .map(|(id, payload)| (now, *id, payload.clone())),
        );
    }
}

impl<P: Layered> Protocol for Probe<P> {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
        let sends = actions.sends().len();
        self.inner.on_start(now, actions);
        if let Some(trace) = self.trace.as_deref_mut() {
            // Untimed, but its sends count towards the network's total.
            trace.layers[Layer::Other.index()].sends += (actions.sends().len() - sends) as u64;
        }
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        let before = actions.deliveries().len();
        match self.trace.as_deref_mut() {
            None => self.inner.on_event(now, event, actions),
            Some(trace) => {
                let layer = P::layer_of(&event);
                let sends = actions.sends().len();
                let started = clock::now();
                self.inner.on_event(now, event, actions);
                trace.close_span(
                    layer,
                    started,
                    actions.deliveries().len() > before,
                    actions.sends().len() - sends,
                );
                if layer == Layer::HbEmit {
                    trace.count_heartbeats(&actions.sends()[sends..]);
                }
            }
        }
        self.record_deliveries(now, actions, before);
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        let before = actions.deliveries().len();
        let result = match self.trace.as_deref_mut() {
            None => self.inner.broadcast(now, payload, actions),
            Some(trace) => {
                let sends = actions.sends().len();
                let started = clock::now();
                let result = self.inner.broadcast(now, payload, actions);
                trace.close_span(
                    P::BROADCAST,
                    started,
                    result.is_ok(),
                    actions.sends().len() - sends,
                );
                if matches!(result, Err(CoreError::KnowledgeIncomplete)) {
                    trace.retries += 1;
                }
                result
            }
        };
        self.record_deliveries(now, actions, before);
        result
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        self.inner.delivered()
    }

    fn audit(&self) -> ProtocolAudit {
        self.inner.audit()
    }
}
