//! Scenario benchmark for the diffuse workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! One process runs one workload (see [`workloads`]) on the inputs its
//! seed generates, in rounds until `--seconds` have passed: each round
//! times single set-ups, then sets up and runs the workload (two
//! repetitions side by side on the kernel, see [`round`]). It prints
//! robust averages. Host time is closed loop: the process simulates as
//! fast as it can. Run time is CPU time, so other work on the machine
//! does not inflate it; set-up time is the median wall time of single
//! set-ups. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced rounds and prints the
//! per-layer split (see `README.md`).
//! Every repetition's simulated outputs must be byte-identical, traced
//! or not, and pass the checks in [`outcome`]; the last line of standard
//! output is one JSON object with the verdict and the metrics.

#![forbid(unsafe_code)]

mod clock;
mod outcome;
mod probe;
mod runner;
mod workloads;

use std::process::ExitCode;

use probe::Layer;
use runner::Rep;
use workloads::{Engine, Size, Spec};

/// Repetitions of each kind a run makes at least, however long they take.
const MIN_REPS: usize = 3;
/// Repetitions a run makes at most.
const MAX_REPS: usize = 1000;
/// Set-ups an untraced run times before each round of repetitions.
const SETUPS_PER_ROUND: usize = 5;
/// Repetitions a round runs side by side on the kernel, one per core of
/// the 2-core machine the benchmark is sized for, as the sharded
/// workload runs two workers.
const KERNEL_SIDE_BY_SIDE: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("full or tiny")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.size) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };

    let started = clock::now();
    let mut setups_s: Vec<f64> = Vec::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = None;
    // A traced run alternates untraced and traced rounds, so the
    // tracing overhead is measured under the same machine conditions.
    loop {
        let enough_time = started.elapsed().as_secs_f64() >= args.seconds;
        let enough_reps = untraced.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if (enough_time && enough_reps) || untraced.len() + traced.len() >= MAX_REPS {
            break;
        }
        if !args.trace {
            setups_s.extend(time_setups(&spec, args.seed));
        }
        let trace_next = args.trace && traced.len() < untraced.len();
        let reps = match round(&spec, args.seed, trace_next) {
            Ok(reps) => reps,
            Err(message) => {
                eprintln!("perfbench: {message}");
                return ExitCode::FAILURE;
            }
        };
        // The peak of setting the workload up and simulating one round:
        // later rounds only add allocator fragmentation on top (every
        // thread that allocates takes its own malloc arena; with
        // `MALLOC_ARENA_MAX=1` the peak stays put).
        if peak_rss_mb.is_none() {
            match read_peak_rss_mb() {
                Ok(mb) => peak_rss_mb = Some(mb),
                Err(message) => {
                    eprintln!("perfbench: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if trace_next {
            traced.extend(reps);
        } else {
            untraced.extend(reps);
        }
    }

    let reference = &untraced[0].outcome;
    let mut errors = reference.errors.clone();
    for rep in untraced.iter().chain(&traced) {
        if rep.outcome != *reference {
            errors.push(format!(
                "simulated outputs differ between repetitions (digest {:016x} vs {:016x})",
                rep.outcome.digest, reference.digest
            ));
            break;
        }
    }

    let metrics = if args.trace {
        layer_metrics(&spec, &untraced, &traced, &mut errors)
    } else {
        let peak_rss_mb = peak_rss_mb.expect("read after the first round");
        end_to_end(&untraced, median(setups_s.into_iter()), peak_rss_mb)
    };

    let o = reference;
    println!(
        "workload {} seed {} size {:?}: {} untraced + {} traced repetitions in {:.1} s",
        spec.name,
        args.seed,
        args.size,
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "outputs digest {:016x}: {} broadcasts x {} processes, {} pairs delivered, {} broadcasts never issued, {} messages delivered",
        o.digest,
        o.broadcasts,
        o.processes,
        o.delivered_pairs,
        o.failed_broadcasts,
        o.delivered_msgs
    );
    let times = |reps: &[Rep], time: fn(&Rep) -> f64| {
        reps.iter()
            .map(|r| format!("{:.3}", time(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "run wall s: untraced [{}] traced [{}]",
        times(&untraced, |r| r.run_s),
        times(&traced, |r| r.run_s)
    );
    println!(
        "run cpu s: untraced [{}] traced [{}]",
        times(&untraced, |r| r.run_cpu_s),
        times(&traced, |r| r.run_cpu_s)
    );
    errors.sort();
    errors.dedup();
    for error in &errors {
        println!("check failed: {error}");
    }
    println!("{}", result_json(errors.is_empty(), o, &metrics));
    ExitCode::SUCCESS
}

/// One printed metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// Times [`SETUPS_PER_ROUND`] set-ups, each on its own, in wall time:
/// set-up runs on this thread and takes milliseconds, below the 10 ms
/// CPU clock. The run reports the median over all its rounds, which
/// drops the few set-ups that another process's time slice lands in.
fn time_setups(spec: &Spec, seed: u64) -> Vec<f64> {
    (0..SETUPS_PER_ROUND)
        .map(|_| {
            let started = clock::now();
            runner::set_up(spec, seed);
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// One round of repetitions. On the kernel, [`KERNEL_SIDE_BY_SIDE`]
/// repetitions run side by side, each timed by its own thread's CPU
/// clock, so that every round samples both cores: the cores are shared
/// with other tenants of the host and each slows on its own. The sharded
/// engine's workers already run on both cores, so its rounds are one
/// repetition.
fn round(spec: &Spec, seed: u64, traced: bool) -> Result<Vec<Rep>, String> {
    match spec.engine {
        Engine::Sharded(_) => Ok(vec![runner::run(spec, seed, traced)?]),
        Engine::Kernel => std::thread::scope(|scope| {
            let others: Vec<_> = (1..KERNEL_SIDE_BY_SIDE)
                .map(|_| scope.spawn(|| runner::run(spec, seed, traced)))
                .collect();
            let mut reps = vec![runner::run(spec, seed, traced)?];
            for other in others {
                reps.push(other.join().expect("a repetition thread panicked")?);
            }
            Ok(reps)
        }),
    }
}

fn end_to_end(reps: &[Rep], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let o = &reps[0].outcome;
    let run_cpu_s = interquartile_mean(reps.iter().map(|r| r.run_cpu_s));
    vec![
        metric("setup_s", setup_s, "s"),
        metric("run_cpu_s", run_cpu_s, "s"),
        metric(
            "sim_msgs_per_cpu_s",
            o.delivered_msgs as f64 / run_cpu_s,
            "msg/s",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("reach", o.reach(), "fraction"),
        metric("latency_ticks_p50", o.latency_quantile(0.50), "ticks"),
        metric("latency_ticks_p99", o.latency_quantile(0.99), "ticks"),
        metric("data_msgs_per_bcast", o.data_msgs_per_bcast(), "msg"),
    ]
}

/// The per-layer split: each traced repetition's metrics, then the
/// median of each over the repetitions. Also checks the probes' counts,
/// which are deterministic: they repeat exactly in every traced
/// repetition, and [`rep_layer_metrics`] matches them against the
/// engine's own counters.
fn layer_metrics(
    spec: &Spec,
    untraced: &[Rep],
    traced: &[Rep],
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let counts = |rep: &Rep| rep.trace.as_ref().map(|t| t.total.counts());
    if traced.iter().any(|rep| counts(rep) != counts(&traced[0])) {
        errors.push("probe counts differ between traced repetitions".to_owned());
    }
    let per_rep: Vec<Vec<Metric>> = traced
        .iter()
        .map(|rep| rep_layer_metrics(spec, rep, errors))
        .collect();
    let mut metrics: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            metric(name.clone(), median(per_rep.iter().map(|m| m[i].1)), unit)
        })
        .collect();
    let cpu_s = |reps: &[Rep]| interquartile_mean(reps.iter().map(|r| r.run_cpu_s));
    metrics.push(metric(
        "host.run_wall_s",
        median(untraced.iter().map(|r| r.run_s)),
        "s",
    ));
    metrics.push(metric(
        "trace.overhead",
        cpu_s(traced) / cpu_s(untraced) - 1.0,
        "fraction",
    ));
    metrics
}

fn rep_layer_metrics(spec: &Spec, rep: &Rep, errors: &mut Vec<String>) -> Vec<Metric> {
    let trace = rep.trace.as_ref().expect("traced repetition");
    let total = &trace.total;
    let o = &rep.outcome;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let mut out = Vec::new();

    let message_calls: u64 = Layer::ALL
        .iter()
        .filter(|l| l.is_message())
        .map(|&l| total.layer(l).calls)
        .sum();
    if message_calls != o.delivered_msgs {
        errors.push(format!(
            "{message_calls} message handler spans for {} delivered messages",
            o.delivered_msgs
        ));
    }
    if total.sends() != o.sent {
        errors.push(format!(
            "the probes saw {} sends, the network counted {}",
            total.sends(),
            o.sent
        ));
    }
    let issued: u64 = [Layer::Broadcast, Layer::GossipBroadcast]
        .iter()
        .map(|&l| total.layer(l).useful)
        .sum();
    if issued != o.broadcasts - o.failed_broadcasts {
        errors.push(format!(
            "{issued} broadcast calls issued, the scenario issued {}",
            o.broadcasts - o.failed_broadcasts
        ));
    }

    let full = [
        Layer::HbRecv,
        Layer::HbEmit,
        Layer::DataRecv,
        Layer::Broadcast,
    ];
    for layer in Layer::ALL {
        if layer == Layer::Other {
            continue;
        }
        let stats = total.layer(layer);
        let name = layer.name();
        out.push(metric(format!("{name}.calls"), stats.calls as f64, "count"));
        out.push(metric(format!("{name}.busy_s"), secs(stats.busy_ns), "s"));
        if full.contains(&layer) {
            let mut samples = stats.samples_ns.clone();
            out.push(metric(
                format!("{name}.p50_ns"),
                percentile(&mut samples, 0.50),
                "ns",
            ));
            out.push(metric(
                format!("{name}.p99_ns"),
                percentile(&mut samples, 0.99),
                "ns",
            ));
        }
        if matches!(layer, Layer::DataRecv | Layer::GossipRecv) {
            out.push(metric(
                format!("{name}.useful_share"),
                share(stats.useful, stats.calls),
                "fraction",
            ));
        }
    }
    out.push(metric(
        "adaptive.hb_emit.bytes_per_msg",
        share(total.heartbeat_bytes, total.heartbeats),
        "B",
    ));
    out.push(metric(
        "adaptive.hb_emit.delta_share",
        share(total.delta_heartbeats, total.heartbeats),
        "fraction",
    ));
    out.push(metric(
        "adaptive.broadcast.retries",
        total.retries as f64,
        "count",
    ));

    // The engine's self time is the residual of its parent spans beyond
    // the protocol's: for W workers, the span capacity is W × the span.
    // Layer self times therefore sum to W × the spans by definition.
    let workers = trace.worker_busy_ns.len();
    let engine_self_s = workers as f64 * rep.spans_s - secs(total.busy_ns());
    let per_msg_ns = |self_s: f64| self_s * 1e9 / o.sent.max(1) as f64;
    let (kernel_self_s, shard_self_s) = match spec.engine {
        Engine::Kernel => (engine_self_s, 0.0),
        Engine::Sharded(_) => (0.0, engine_self_s),
    };
    out.push(metric("kernel.self_s", kernel_self_s, "s"));
    out.push(metric("kernel.ns_per_msg", per_msg_ns(kernel_self_s), "ns"));
    out.push(metric("kernel.sent", o.sent as f64, "count"));
    out.push(metric("kernel.delivered", o.delivered_msgs as f64, "count"));
    out.push(metric(
        "kernel.lost_share",
        share(o.lost, o.sent),
        "fraction",
    ));
    out.push(metric(
        "kernel.dropped_down",
        o.dropped_down as f64,
        "count",
    ));
    out.push(metric("kernel.busy_ticks", o.busy_ticks as f64, "count"));

    let sharded = matches!(spec.engine, Engine::Sharded(_));
    let worker = |k: usize| {
        if sharded {
            trace.worker_busy_ns.get(k).map_or(0.0, |&ns| secs(ns))
        } else {
            0.0
        }
    };
    let imbalance = if sharded {
        let max = trace.worker_busy_ns.iter().copied().max().unwrap_or(0);
        share(max * workers as u64, total.busy_ns())
    } else {
        0.0
    };
    out.push(metric("shard.self_s", shard_self_s, "s"));
    out.push(metric("shard.worker_busy_s.0", worker(0), "s"));
    out.push(metric("shard.worker_busy_s.1", worker(1), "s"));
    out.push(metric("shard.imbalance", imbalance, "ratio"));
    let barriers = if sharded { 2 * o.busy_ticks } else { 0 };
    out.push(metric("shard.barriers", barriers as f64, "count"));
    out.push(metric("shard.ns_per_msg", per_msg_ns(shard_self_s), "ns"));
    out
}

/// Nearest-rank percentile of `samples` (reordered in place).
fn percentile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    f64::from(*value)
}

/// Mean of the values between the first and the third quartile: robust
/// to outliers like a median, and finer than the 10 ms CPU clock.
fn interquartile_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The result line: verdict, operation counts, metrics. An operation is
/// one scripted broadcast; it fails if it never issued by the horizon.
/// Undelivered (broadcast, process) pairs are the protocol's
/// reliability and show in `reach`.
fn result_json(correct: bool, o: &outcome::Outcome, metrics: &[Metric]) -> String {
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && all_finite,
        o.broadcasts,
        o.failed_broadcasts,
        body.join(", ")
    )
}
