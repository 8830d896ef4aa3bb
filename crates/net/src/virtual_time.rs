//! The virtual-time fabric: node threads that take their turns from the
//! simulation engine.
//!
//! A [`VirtualNode`] is a [`Protocol`] that stands in for one node
//! thread. Put it into the engine like any protocol — a
//! [`ScenarioSim`](diffuse_core::scenario::ScenarioSim) over one worker,
//! as [`run_scenario_on_fabric_virtual`](crate::run_scenario_on_fabric_virtual)
//! does — and the engine schedules it: crash transitions, in-flight
//! order, timers, loss, burst stagger, the message adversary and
//! fast-forward all come from the one tick in `diffuse_sim`.
//!
//! The proxy's handlers run no protocol logic. Each grants one *turn* to
//! its parked node thread, which runs the real node runtime loop over
//! the real protocol, and blocks until the turn is done:
//!
//! * the thread's sends reach a capture [`Transport`] as encoded frames,
//!   which the proxy decodes into the engine's [`Actions`] — each
//!   message crosses the codec once;
//! * the thread's timer operations go into the same [`Actions`];
//! * its deliveries are mirrored, so [`Protocol::delivered`] works.
//!
//! So the virtual fabric replays the engine's own schedule, and a run is
//! bit-identical to `Scenario::run_sim` by construction;
//! `tests/engine_golden.rs` pins that schedule to literal values. An
//! idle stretch grants no turn at all: the node thread is never woken,
//! which the idle-runtime test asserts as *zero* wakeups.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use diffuse_core::{
    Actions, BroadcastId, CoreError, Event, Payload, Protocol, ProtocolAudit, TimerOp,
};
use diffuse_model::ProcessId;
use diffuse_sim::SimTime;

use crate::codec::decode_message;
use crate::{lock, spawn_node_with_clock, Clock, NetError, NodeHandle, Transport};

/// One instruction handed to a parked node thread.
#[derive(Debug)]
pub(crate) enum Turn {
    /// Run the protocol's `on_start` handler.
    Start,
    /// Run the protocol's `on_event` handler.
    Event(Event),
    /// Attempt to issue a broadcast.
    Broadcast(Payload),
    /// Report the protocol's audit counters (runs no handler).
    Audit,
}

/// What a finished turn reports besides its sends.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// A handler ran.
    Ran,
    /// The result of a broadcast turn.
    Broadcast(Result<BroadcastId, CoreError>),
    /// The counters of an audit turn.
    Audit(ProtocolAudit),
}

/// A finished turn, as the node thread hands it back.
#[derive(Debug)]
struct Finished {
    frames: Vec<(ProcessId, Vec<u8>)>,
    timer_ops: Vec<TimerOp>,
    outcome: Outcome,
}

/// The turn handoff between a [`VirtualNode`] and its thread.
#[derive(Debug, Default)]
struct Slot {
    /// A granted turn awaiting pickup by the node thread.
    turn: Option<(SimTime, Turn)>,
    /// Frames the node thread sent during the current turn.
    frames: Vec<(ProcessId, Vec<u8>)>,
    /// Set by the node thread when the granted turn is done.
    finished: Option<Finished>,
    /// The node thread exited (shutdown, handle drop, or panic); no turn
    /// is granted from now on.
    retired: bool,
}

#[derive(Debug, Default)]
struct Handoff {
    slot: Mutex<Slot>,
    cv: Condvar,
}

impl Handoff {
    fn wait<'a>(&self, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner)
    }
}

/// The node thread's half of a [`VirtualNode`]'s turn handoff — the
/// [`Clock::Virtual`] payload. Only [`VirtualNode::spawn`] makes one.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    handoff: Arc<Handoff>,
}

impl VirtualClock {
    /// Parks until a turn is granted. Returns `None` on retirement — the
    /// runtime exits its loop.
    pub(crate) fn next_turn(&self) -> Option<(SimTime, Turn)> {
        let mut slot = lock(&self.handoff.slot);
        loop {
            if slot.retired {
                return None;
            }
            if let Some(turn) = slot.turn.take() {
                return Some(turn);
            }
            slot = self.handoff.wait(slot);
        }
    }

    /// Reports the granted turn as done, handing back the frames it sent
    /// and the timer operations it emitted, in emission order.
    pub(crate) fn complete_turn(&self, timer_ops: Vec<TimerOp>, outcome: Outcome) {
        let mut slot = lock(&self.handoff.slot);
        let frames = std::mem::take(&mut slot.frames);
        slot.finished = Some(Finished {
            frames,
            timer_ops,
            outcome,
        });
        self.handoff.cv.notify_all();
    }

    /// Permanently stops granting turns to this node (thread exit or
    /// handle drop). Idempotent.
    pub(crate) fn retire(&self) {
        lock(&self.handoff.slot).retired = true;
        self.handoff.cv.notify_all();
    }
}

/// The node thread's transport: captures every frame the turn sends.
struct Capture {
    id: ProcessId,
    handoff: Arc<Handoff>,
}

impl Transport for Capture {
    fn local_id(&self) -> ProcessId {
        self.id
    }

    fn send(&self, to: ProcessId, frame: &[u8]) -> Result<(), NetError> {
        lock(&self.handoff.slot).frames.push((to, frame.to_vec()));
        Ok(())
    }

    fn recv_timeout(
        &mut self,
        _timeout: Duration,
    ) -> Result<Option<(ProcessId, Vec<u8>)>, NetError> {
        Err(NetError::Unsupported(
            "a virtual-time node receives its messages as turns",
        ))
    }
}

/// A [`Protocol`] that stands in for one virtual-time node thread (see
/// the module docs).
///
/// Its handlers grant turns to the thread, which runs the wrapped
/// protocol under the real node runtime loop. A thread that exits — a
/// protocol panic included — retires the node: its handlers then do
/// nothing, and its broadcasts stay deferred.
pub struct VirtualNode {
    id: ProcessId,
    clock: VirtualClock,
    handle: NodeHandle,
    delivered: Vec<(BroadcastId, Payload)>,
}

impl fmt::Debug for VirtualNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualNode")
            .field("id", &self.id)
            .field("delivered", &self.delivered.len())
            .finish_non_exhaustive()
    }
}

impl VirtualNode {
    /// Spawns `protocol` on its own node thread, parked until its first
    /// turn.
    pub fn spawn<P: Protocol + Send + 'static>(protocol: P) -> Self {
        let id = protocol.id();
        let clock = VirtualClock {
            handoff: Arc::default(),
        };
        let capture = Capture {
            id,
            handoff: Arc::clone(&clock.handoff),
        };
        let handle = spawn_node_with_clock(protocol, capture, Clock::Virtual(clock.clone()));
        VirtualNode {
            id,
            clock,
            handle,
            delivered: Vec::new(),
        }
    }

    /// How many turns the node thread has taken (see
    /// [`NodeHandle::wakeups`]).
    pub fn wakeups(&self) -> u64 {
        self.handle.wakeups()
    }

    /// Grants `turn` and blocks until the node thread finished it.
    /// Returns `None`, granting nothing, once the thread has retired.
    fn grant(&self, now: SimTime, turn: Turn) -> Option<Finished> {
        let handoff = &self.clock.handoff;
        let mut slot = lock(&handoff.slot);
        if slot.retired {
            return None;
        }
        slot.turn = Some((now, turn));
        handoff.cv.notify_all();
        loop {
            if let Some(finished) = slot.finished.take() {
                return Some(finished);
            }
            if slot.retired {
                return None;
            }
            slot = handoff.wait(slot);
        }
    }

    /// Grants a handler turn and moves what it produced into `actions`.
    fn run(&mut self, now: SimTime, turn: Turn, actions: &mut Actions) -> Option<Outcome> {
        let finished = self.grant(now, turn)?;
        for (to, frame) in finished.frames {
            let message = decode_message(&frame).expect("a node's own frames decode");
            actions.send(to, message);
        }
        for (timer, op) in finished.timer_ops {
            match op {
                Some(at) => actions.set_timer(timer, at),
                None => actions.cancel_timer(timer),
            }
        }
        // The thread queued its deliveries before completing the turn.
        while let Ok(Some((id, payload))) = self.handle.next_delivery(Duration::ZERO) {
            actions.deliver(id, payload.clone());
            self.delivered.push((id, payload));
        }
        Some(finished.outcome)
    }
}

impl Protocol for VirtualNode {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
        self.run(now, Turn::Start, actions);
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        self.run(now, Turn::Event(event), actions);
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        match self.run(now, Turn::Broadcast(payload), actions) {
            Some(Outcome::Broadcast(result)) => result,
            // A retired node can never issue: the driver keeps retrying,
            // and reports the broadcast as failed when the run ends.
            _ => Err(CoreError::KnowledgeIncomplete),
        }
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        &self.delivered
    }

    fn audit(&self) -> ProtocolAudit {
        // An audit runs no handler, so the turn's time is never read.
        match self.grant(SimTime::ZERO, Turn::Audit) {
            Some(Finished {
                outcome: Outcome::Audit(audit),
                ..
            }) => audit,
            _ => ProtocolAudit::default(),
        }
    }
}
