//! Absolute golden values for the simulation engine's frozen streams.
//!
//! The equivalence suites compare executors with each other; this file
//! pins four fixed-seed scenarios against literal numbers instead, so a
//! refactor of the tick engine that shifted every executor the same way
//! (a reordered phase, a changed draw order, a different merge key)
//! still fails here. Each scenario asserts the exact per-process
//! delivery counts and the wire-metric totals.

use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, ScenarioReport, Workload};
use diffuse::core::{
    AdaptiveBroadcast, AdaptiveParams, Adversary, CorruptionMode, NetworkKnowledge,
    OptimalBroadcast, Payload, ReferenceGossip,
};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId};
use diffuse::net::run_scenario_on_fabric_virtual;
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

/// Optimal broadcast under Bernoulli crashes with a three-tick link
/// delay: its per-link copy bursts are staggered one tick apart, a
/// `SetLoss` and a `DegradeAll` change the loss table mid-run, and a
/// scripted crash covers the arrival window of one broadcast's copies.
fn staggered_optimal_scenario() -> (Scenario, NetworkKnowledge) {
    let topology = generators::circulant(10, 4).unwrap();
    let config = Configuration::uniform(
        &topology,
        Probability::new(0.02).unwrap(),
        Probability::new(0.15).unwrap(),
    );
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
    let scenario = Scenario::builder(topology)
        .config(config)
        .crash_model(CrashModel::Bernoulli {
            p: Probability::new(0.02).unwrap(),
        })
        .seed(0x5A66)
        .link_delay(3)
        .workload(
            Workload::new()
                .broadcast(SimTime::new(2), p(0), Payload::from("first"))
                .broadcast(SimTime::new(10), p(3), Payload::from("into the crash"))
                .burst(SimTime::new(24), p(6), 2)
                .broadcast(SimTime::new(40), p(1), Payload::from("degraded")),
        )
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(5),
                    FaultAction::SetLoss {
                        link: LinkId::new(p(0), p(1)).unwrap(),
                        loss: Probability::new(0.6).unwrap(),
                    },
                )
                // p4 goes down just after p3's broadcast leaves, while
                // its copies are still in flight.
                .at(
                    SimTime::new(11),
                    FaultAction::Crash {
                        process: p(4),
                        down_ticks: 6,
                    },
                )
                .at(
                    SimTime::new(35),
                    FaultAction::DegradeAll {
                        loss: Probability::new(0.3).unwrap(),
                    },
                ),
        )
        .build();
    (scenario, knowledge)
}

#[test]
fn staggered_optimal_stream_is_frozen_on_the_engine_and_the_virtual_fabric() {
    let (scenario, knowledge) = staggered_optimal_scenario();
    let make = |id| OptimalBroadcast::new(id, knowledge.clone(), 0.999);
    let report = scenario.run_sim(80, make);
    assert_eq!(report.skipped_faults, 0);
    assert_eq!(delivered(&report), vec![5; 10]);
    assert_eq!(totals(&report), [255, 57, 196, 2, 0, 0]);
    let fabric = run_scenario_on_fabric_virtual(&scenario, 80, make);
    assert_eq!(fabric, report);
}
