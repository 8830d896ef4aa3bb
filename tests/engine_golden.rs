//! Absolute golden values for the simulation engine's frozen streams.
//!
//! The equivalence suites compare executors with each other; this file
//! pins three fixed-seed scenarios against literal numbers instead, so a
//! refactor of the tick engine that shifted every executor the same way
//! (a reordered phase, a changed draw order, a different merge key)
//! still fails here. Each scenario asserts the exact per-process
//! delivery counts and the wire-metric totals.

use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, ScenarioReport, Workload};
use diffuse::core::{
    AdaptiveBroadcast, AdaptiveParams, Adversary, CorruptionMode, Payload, ReferenceGossip,
};
use diffuse::graph::generators;
use diffuse::model::{Probability, ProcessId};
use diffuse::sim::{CrashModel, SimTime};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Per-process deliveries in id order.
fn delivered(report: &ScenarioReport) -> Vec<u64> {
    report.delivered.values().copied().collect()
}

/// `[sent, lost, delivered, dropped-down, invalid, suppressed]`.
fn totals(report: &ScenarioReport) -> [u64; 6] {
    let m = report
        .metrics
        .as_ref()
        .expect("simulated runs fill metrics");
    [
        m.sent_total(),
        m.lost_in_link(),
        m.delivered_total(),
        m.dropped_receiver_down(),
        m.dropped_invalid(),
        m.suppressed_by_adversary(),
    ]
}

/// Lying adaptive nodes on a lossy circulant graph with Markov crash
/// episodes and one scripted corruption window.
fn adversarial_adaptive_report() -> ScenarioReport {
    let topology = generators::circulant(8, 4).unwrap();
    let all: Vec<ProcessId> = topology.processes().collect();
    let scenario = Scenario::builder(topology.clone())
        .uniform_loss(Probability::new(0.1).unwrap())
        .crash_model(CrashModel::Markov {
            p: Probability::new(0.05).unwrap(),
            mean_downtime: 4.0,
        })
        .seed(0x601D)
        .workload(
            Workload::new()
                .broadcast(SimTime::new(150), p(1), Payload::from("a"))
                .broadcast(SimTime::new(220), p(5), Payload::from("b")),
        )
        .faults(FaultScript::new().at(
            SimTime::new(100),
            FaultAction::Corrupt {
                process: p(0),
                mode: CorruptionMode::UnderstateDistortion,
                window: 60,
            },
        ))
        .build();
    scenario.run_sim(300, |id| {
        Adversary::new(
            AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                AdaptiveParams::default(),
            ),
            0x601D,
        )
    })
}

/// Lossy gossip through a partition, a heal and a message-adversary
/// window, on `workers` engine workers (one worker through
/// [`Scenario::run_sim`]).
fn gossip_report(workers: usize) -> ScenarioReport {
    let topology = generators::circulant(12, 4).unwrap();
    let scenario = Scenario::builder(topology.clone())
        .uniform_loss(Probability::new(0.2).unwrap())
        .seed(0xD1FF)
        .link_delay(2)
        .workload(
            Workload::new()
                .broadcast(SimTime::ZERO, p(0), Payload::from("x"))
                .broadcast(SimTime::new(12), p(7), Payload::from("y"))
                .stream(p(4), SimTime::new(35), 5, 3),
        )
        .faults(
            FaultScript::new()
                .at(
                    SimTime::ZERO,
                    FaultAction::MessageAdversary { d: 1, window: 4 },
                )
                .at(
                    SimTime::new(8),
                    FaultAction::Partition {
                        island: vec![p(0), p(1), p(2)],
                    },
                )
                .at(SimTime::new(30), FaultAction::Heal)
                .at(
                    SimTime::new(45),
                    FaultAction::MessageAdversary { d: 0, window: 1 },
                ),
        )
        .build();
    let make = |id| ReferenceGossip::new(id, topology.neighbors(id).collect(), 14);
    if workers == 1 {
        scenario.run_sim(90, make)
    } else {
        scenario.run_sim_sharded(90, workers, make)
    }
}

#[test]
fn adversarial_adaptive_stream_is_frozen() {
    let report = adversarial_adaptive_report();
    assert_eq!(report.skipped_faults, 0);
    assert_eq!(delivered(&report), vec![2; 8]);
    assert_eq!(totals(&report), [9351, 931, 8097, 297, 0, 0]);
}

#[test]
fn lossy_gossip_stream_is_frozen() {
    let report = gossip_report(1);
    assert_eq!(report.skipped_faults, 0);
    assert_eq!(delivered(&report), [4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5]);
    assert_eq!(totals(&report), [1081, 277, 726, 0, 0, 78]);
}

#[test]
fn two_worker_gossip_stream_is_frozen() {
    let report = gossip_report(2);
    assert_eq!(report.skipped_faults, 0);
    assert_eq!(delivered(&report), [4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5]);
    assert_eq!(totals(&report), [1048, 243, 727, 0, 0, 78]);
}
