//! One repetition of a workload: set up, run to the horizon in timed
//! phases, and read back the outputs and the probes' records. Or set up
//! only, to time set-up on its own.

use std::collections::BTreeMap;

use diffuse_core::{AdaptiveBroadcast, ProtocolActor, ReferenceGossip, ScenarioReport};
use diffuse_model::ProcessId;

use crate::clock;
use crate::outcome::Outcome;
use crate::probe::{Layered, Probe, Trace};
use crate::workloads::{Engine, Inputs, Proto, Spec};

/// The spans of one traced repetition, merged over every process.
#[derive(Debug, Clone)]
pub struct RepTrace {
    /// Every process's spans, merged.
    pub total: Trace,
    /// Summed handler busy time per sharded worker (one entry on the
    /// kernel).
    pub worker_busy_ns: Vec<u64>,
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host wall time from the first tick to the horizon.
    pub run_s: f64,
    /// CPU time from the first tick to the horizon: of the calling
    /// thread on the kernel, of the whole process on the sharded engine.
    pub run_cpu_s: f64,
    /// Summed duration of the `run_ticks` calls (the parent spans).
    pub spans_s: f64,
    /// The simulated outputs and their checks.
    pub outcome: Outcome,
    /// Handler spans, when traced.
    pub trace: Option<RepTrace>,
}

/// Runs `spec` once on the inputs of `seed`. Fails only if the host
/// clocks cannot be read.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Result<Rep, String> {
    Ok(go(spec, seed, Some(traced))?.expect("a run yields its repetition"))
}

/// Sets `spec` up on the inputs of `seed` as [`run`] does — topology,
/// scenario and protocol construction, up to the first tick — and tears
/// it down again without running it.
pub fn set_up(spec: &Spec, seed: u64) {
    go(spec, seed, None).expect("set-up reads no clock");
}

/// Sets up, then runs when `traced` is given.
fn go(spec: &Spec, seed: u64, traced: Option<bool>) -> Result<Option<Rep>, String> {
    let inputs = spec.inputs(seed);
    let topology = &inputs.scenario.topology;
    match &spec.proto {
        Proto::Adaptive(params) => {
            let all: Vec<ProcessId> = topology.processes().collect();
            let make = |id| {
                let neighbors = topology.neighbors(id).collect();
                AdaptiveBroadcast::new(id, all.clone(), neighbors, params.clone())
            };
            run_on(spec.engine, &inputs, traced, make)
        }
        Proto::Gossip(steps) => {
            let make = |id| ReferenceGossip::new(id, topology.neighbors(id).collect(), *steps);
            run_on(spec.engine, &inputs, traced, make)
        }
    }
}

fn run_on<P: Layered + Send>(
    engine: Engine,
    inputs: &Inputs,
    traced: Option<bool>,
    mut make: impl FnMut(ProcessId) -> P,
) -> Result<Option<Rep>, String> {
    let scenario = &inputs.scenario;
    let wrap = |id| Probe::new(make(id), traced == Some(true));
    match engine {
        Engine::Kernel => {
            let mut sim = scenario.sim(wrap);
            if traced.is_none() {
                return Ok(None);
            }
            let times = drive(&inputs.phases, clock::thread_cpu_s, |n| sim.run_ticks(n))?;
            let kernel = sim.sim();
            Ok(Some(finish(
                inputs,
                times,
                &sim.report(),
                kernel.busy_ticks(),
                kernel.nodes(),
                1,
            )))
        }
        Engine::Sharded(workers) => {
            let mut sim = scenario.sim_sharded(workers, wrap);
            if traced.is_none() {
                return Ok(None);
            }
            let times = drive(&inputs.phases, clock::cpu_s, |n| sim.run_ticks(n))?;
            let kernel = sim.sim();
            Ok(Some(finish(
                inputs,
                times,
                &sim.report(),
                kernel.busy_ticks(),
                kernel.nodes(),
                kernel.workers(),
            )))
        }
    }
}

/// The host times of one run: wall, CPU, and wall inside the
/// `run_ticks` calls.
struct RunTimes {
    wall_s: f64,
    cpu_s: f64,
    spans_s: f64,
}

/// Runs each phase as one timed `run_ticks` call. `cpu_s` is the CPU
/// clock of the threads the engine runs on.
fn drive(
    phases: &[u64],
    cpu_s: fn() -> Result<f64, String>,
    mut run_ticks: impl FnMut(u64),
) -> Result<RunTimes, String> {
    let cpu = cpu_s()?;
    let started = clock::now();
    let mut spans_s = 0.0;
    for pair in phases.windows(2) {
        let span = clock::now();
        run_ticks(pair[1] - pair[0]);
        spans_s += span.elapsed().as_secs_f64();
    }
    Ok(RunTimes {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: cpu_s()? - cpu,
        spans_s,
    })
}

fn finish<'a, P: Layered + 'a>(
    inputs: &Inputs,
    times: RunTimes,
    report: &ScenarioReport,
    busy_ticks: u64,
    nodes: impl Iterator<Item = (ProcessId, &'a ProtocolActor<Probe<P>>)>,
    workers: usize,
) -> Rep {
    let probes: BTreeMap<ProcessId, &Probe<P>> =
        nodes.map(|(id, actor)| (id, actor.protocol())).collect();
    let outcome = Outcome::assess(inputs, report, busy_ticks, &probes);
    let trace = probes
        .values()
        .next()
        .and_then(|p| p.trace())
        .map(|_| merge_traces(&probes, workers));
    Rep {
        run_s: times.wall_s,
        run_cpu_s: times.cpu_s,
        spans_s: times.spans_s,
        outcome,
        trace,
    }
}

/// Merges every probe's spans, and sums busy time per worker. The
/// sharded engine gives worker `k` the `k`-th contiguous block of
/// processes in id order, the first `n mod W` blocks one longer.
fn merge_traces<P: Layered>(probes: &BTreeMap<ProcessId, &Probe<P>>, workers: usize) -> RepTrace {
    let n = probes.len();
    let (base, extra) = (n / workers, n % workers);
    let mut total = Trace::default();
    let mut worker_busy_ns = vec![0; workers];
    let (mut worker, mut left) = (0, base + usize::from(extra > 0));
    for probe in probes.values() {
        while left == 0 {
            worker += 1;
            left = base + usize::from(worker < extra);
        }
        left -= 1;
        let trace = probe
            .trace()
            .expect("every probe of a traced run is traced");
        worker_busy_ns[worker] += trace.busy_ns();
        total.merge(trace);
    }
    RepTrace {
        total,
        worker_busy_ns,
    }
}
