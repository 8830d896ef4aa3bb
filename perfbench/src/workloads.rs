//! The four workloads and the inputs each one builds from its seed.
//!
//! Every workload is a `Scenario` run to a fixed horizon, with
//! broadcasts scripted at fixed ticks and a drain tail with no new
//! broadcast before the horizon. Why each workload exists, and which
//! layer metric should move which end-to-end metric, is written down
//! once, in `README.md` beside this crate.

use std::collections::BTreeSet;

use diffuse_core::{AdaptiveParams, FaultAction, FaultScript, Payload, Scenario, Workload};
use diffuse_graph::generators::erdos_renyi_connected_fast;
use diffuse_model::{Probability, ProcessId};
use diffuse_sim::{CrashModel, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "adaptive_dense",
    "adaptive_bcast",
    "gossip_flood",
    "gossip_flood_sharded",
];

/// Seed of every workload's graph. The graph is part of the workload,
/// like its size: a fixed graph keeps the work per tick, and with it the
/// host time, the same from seed to seed, while `--seed` draws
/// everything stochastic — the broadcast origins, the crashed process,
/// and the simulator's loss and crash streams.
const TOPOLOGY_SEED: u64 = 0x0D1F_F05E;

/// Full size for measurement; tiny for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few milliseconds per run, same code paths.
    Tiny,
}

/// Which executor runs the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `sim::kernel`, through `ScenarioSim`.
    Kernel,
    /// `sim::shard` with this many workers, through `ShardedScenarioSim`.
    Sharded(usize),
}

/// Which protocol every process runs.
#[derive(Debug, Clone)]
pub enum Proto {
    /// `core::adaptive`.
    Adaptive(AdaptiveParams),
    /// `core::gossip` with this many forwarding steps.
    Gossip(u32),
}

/// Scripted faults, placed relative to the broadcast stream.
#[derive(Debug, Clone, Copy)]
pub struct Faults {
    /// One process (chosen from the seed) is forced down at
    /// `crash_at` for `crash_ticks` ticks.
    pub crash_at: u64,
    /// Length of the scripted crash.
    pub crash_ticks: u64,
    /// Every link jumps to `spike_loss` at `spike_at` and heals
    /// `spike_ticks` later.
    pub spike_at: u64,
    /// Length of the loss spike.
    pub spike_ticks: u64,
    /// Loss probability during the spike.
    pub spike_loss: f64,
}

/// One workload at one size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Process count.
    pub n: u32,
    /// Edge probability `p` of the connected `G(n, p)` graph.
    pub density: f64,
    /// Uniform link loss.
    pub loss: f64,
    /// Stochastic crash model.
    pub crash: CrashModel,
    /// Scripted faults, if any.
    pub faults: Option<Faults>,
    /// The protocol.
    pub proto: Proto,
    /// The executor.
    pub engine: Engine,
    /// Tick of the first scripted broadcast.
    pub first: u64,
    /// Ticks between scripted broadcasts.
    pub period: u64,
    /// Ticks simulated.
    pub horizon: u64,
    /// Ticks at the end with no new broadcast.
    pub drain: u64,
}

/// One scripted broadcast.
#[derive(Debug, Clone)]
pub struct Scripted {
    /// The tick it is due.
    pub at: SimTime,
    /// Its origin.
    pub origin: ProcessId,
    /// Its payload, `b<index>:<origin>:<tick>`.
    pub payload: Payload,
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The scenario handed to the engine.
    pub scenario: Scenario,
    /// The broadcast script, indexed by the number in each payload.
    pub script: Vec<Scripted>,
    /// Tick boundaries of the run's phases: warm-up, stream, drain.
    /// Each phase is one timed `run_ticks` call.
    pub phases: Vec<u64>,
}

impl Spec {
    /// The workload `name` at `size`, or `None` for an unknown name.
    pub fn named(name: &str, size: Size) -> Option<Spec> {
        let tiny = size == Size::Tiny;
        let adaptive = |loss: f64| Spec {
            name: "",
            n: if tiny { 20 } else { 100 },
            density: if tiny { 0.2 } else { 0.05 },
            loss,
            crash: CrashModel::AlwaysUp,
            faults: None,
            proto: Proto::Adaptive(AdaptiveParams::default()),
            engine: Engine::Kernel,
            first: 50,
            period: 1,
            horizon: 0,
            drain: 0,
        };
        let gossip = |engine: Engine| {
            let n: u32 = if tiny { 200 } else { 4000 };
            Spec {
                name: "",
                n,
                density: 2.0 * f64::from(n).ln() / f64::from(n),
                loss: 0.05,
                crash: CrashModel::AlwaysUp,
                faults: None,
                proto: Proto::Gossip(8),
                engine,
                first: 0,
                period: 3,
                horizon: if tiny { 30 } else { 45 },
                drain: 20,
            }
        };
        let spec = match name {
            "adaptive_dense" => Spec {
                name: "adaptive_dense",
                crash: CrashModel::Markov {
                    p: Probability::new(0.01).expect("valid probability"),
                    mean_downtime: 3.0,
                },
                faults: Some(if tiny {
                    Faults {
                        crash_at: 55,
                        crash_ticks: 10,
                        spike_at: 65,
                        spike_ticks: 8,
                        spike_loss: 0.2,
                    }
                } else {
                    Faults {
                        crash_at: 70,
                        crash_ticks: 20,
                        spike_at: 90,
                        spike_ticks: 10,
                        spike_loss: 0.2,
                    }
                }),
                horizon: if tiny { 120 } else { 260 },
                drain: 40,
                ..adaptive(0.05)
            },
            "adaptive_bcast" => Spec {
                name: "adaptive_bcast",
                proto: Proto::Adaptive(
                    AdaptiveParams::default()
                        .with_heartbeat_period(5)
                        .with_self_tick_period(5),
                ),
                first: if tiny { 50 } else { 100 },
                horizon: if tiny { 90 } else { 220 },
                drain: 20,
                ..adaptive(0.02)
            },
            "gossip_flood" => Spec {
                name: "gossip_flood",
                ..gossip(Engine::Kernel)
            },
            "gossip_flood_sharded" => Spec {
                name: "gossip_flood_sharded",
                ..gossip(Engine::Sharded(2))
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Builds the run's inputs: the workload's fixed graph and, from
    /// `seed`, the broadcast script, the fault script and the simulator's
    /// seed. The same seed gives the same inputs.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let topology = erdos_renyi_connected_fast(
            self.n,
            self.density,
            1000,
            &mut StdRng::seed_from_u64(TOPOLOGY_SEED),
        )
        .expect("a connected graph within 1000 draws");
        let mut rng = StdRng::seed_from_u64(seed);

        let last = self.horizon - self.drain;
        let offset = rng.gen_range(0..self.n);
        let mut workload = Workload::new();
        let mut script = Vec::new();
        for (index, tick) in (self.first..last).step_by(self.period as usize).enumerate() {
            let origin = ProcessId::new((offset + 37 * index as u32) % self.n);
            let payload = Payload::from(format!("b{index}:{origin}:{tick}").into_bytes());
            let at = SimTime::new(tick);
            workload = workload.broadcast(at, origin, payload.clone());
            script.push(Scripted {
                at,
                origin,
                payload,
            });
        }

        let mut faults = FaultScript::new();
        if let Some(f) = self.faults {
            // The crash hits a relay, never an origin due while it is
            // down: a deferred broadcast would add its whole outage to
            // a hundred latencies at once.
            let window = f.crash_at..=f.crash_at + f.crash_ticks;
            let busy: BTreeSet<ProcessId> = script
                .iter()
                .filter(|s| window.contains(&s.at.ticks()))
                .map(|s| s.origin)
                .collect();
            let relays: Vec<ProcessId> = (0..self.n)
                .map(ProcessId::new)
                .filter(|p| !busy.contains(p))
                .collect();
            let process = relays[rng.gen_range(0..relays.len())];
            let spike = Probability::new(f.spike_loss).expect("valid probability");
            faults = faults
                .at(
                    SimTime::new(f.crash_at),
                    FaultAction::Crash {
                        process,
                        down_ticks: f.crash_ticks,
                    },
                )
                .at(
                    SimTime::new(f.spike_at),
                    FaultAction::DegradeAll { loss: spike },
                )
                .at(SimTime::new(f.spike_at + f.spike_ticks), FaultAction::Heal);
        }

        let scenario = Scenario::builder(topology)
            .uniform_loss(Probability::new(self.loss).expect("valid probability"))
            .crash_model(self.crash)
            .seed(rng.gen())
            .workload(workload)
            .faults(faults)
            .build();
        let stream_end = script.last().map_or(self.first, |s| s.at.ticks() + 1);
        Inputs {
            scenario,
            script,
            phases: vec![0, self.first, stream_end, self.horizon],
        }
    }
}
