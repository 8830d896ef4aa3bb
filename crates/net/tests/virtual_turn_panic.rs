//! A protocol that panics inside a virtual-time turn must fail only its
//! own node: the node thread retires on unwind, the run still reaches
//! its horizon, and every other node keeps delivering.

use std::sync::mpsc::channel;
use std::time::Duration;

use diffuse_core::scenario::{Scenario, Workload};
use diffuse_core::{
    Actions, BroadcastId, CoreError, Event, Payload, Protocol, ProtocolAudit, ReferenceGossip,
};
use diffuse_graph::generators;
use diffuse_model::{Probability, ProcessId};
use diffuse_net::run_scenario_on_fabric_virtual;
use diffuse_sim::SimTime;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Gossip that panics on the first message it is handed, if `faulty`.
struct PanicOnMessage {
    inner: ReferenceGossip,
    faulty: bool,
}

impl Protocol for PanicOnMessage {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
        self.inner.on_start(now, actions);
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        if self.faulty && matches!(event, Event::Message { .. }) {
            panic!("deliberate panic inside a virtual-time turn");
        }
        self.inner.on_event(now, event, actions);
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        self.inner.broadcast(now, payload, actions)
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        self.inner.delivered()
    }

    fn audit(&self) -> ProtocolAudit {
        self.inner.audit()
    }
}

#[test]
fn a_panicking_protocol_retires_its_node_and_the_run_reaches_its_horizon() {
    let topology = generators::circulant(8, 4).unwrap();
    let scenario = Scenario::builder(topology.clone())
        .uniform_loss(Probability::new(0.1).unwrap())
        .seed(0xBAD)
        .workload(
            Workload::new()
                .broadcast(SimTime::new(1), p(0), Payload::from("before"))
                .broadcast(SimTime::new(30), p(5), Payload::from("after")),
        )
        .build();

    // A deadlocked turn handoff would hang the run forever; run it on
    // its own thread so the test fails on a bound instead.
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let report = run_scenario_on_fabric_virtual(&scenario, 120, |id| PanicOnMessage {
            inner: ReferenceGossip::new(id, topology.neighbors(id).collect(), 12),
            faulty: id == p(3),
        });
        let _ = tx.send(report);
    });
    let report = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the run must end at its horizon, not deadlock on the dead node");

    assert_eq!(report.skipped_faults, 0);
    assert_eq!(report.failed_broadcasts, 0);
    assert_eq!(
        report.delivered[&p(3)],
        0,
        "the panicking node delivers nothing"
    );
    for (&id, &count) in &report.delivered {
        if id != p(3) {
            assert_eq!(
                count, 2,
                "{id} must still deliver both broadcasts: {report:?}"
            );
        }
    }
}
