//! The simulated outputs of one repetition, their checks, and the
//! digest that must repeat across every repetition of a workload.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use diffuse_core::{Protocol, ScenarioReport};
use diffuse_model::ProcessId;

use crate::probe::{Layered, Probe};
use crate::workloads::Inputs;

/// Simulated outputs: a pure function of the workload and its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Scripted broadcasts.
    pub broadcasts: u64,
    /// Processes.
    pub processes: u64,
    /// Scripted broadcasts that never issued (refused, or still
    /// deferred at the horizon).
    pub failed_broadcasts: u64,
    /// Delivered (broadcast, process) pairs.
    pub delivered_pairs: u64,
    /// Delivery latency in ticks, from the scripted tick, as a
    /// histogram.
    pub latency: BTreeMap<u64, u64>,
    /// `data`-kind copies sent.
    pub data_sent: u64,
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to running receivers.
    pub delivered_msgs: u64,
    /// Messages destroyed by link loss.
    pub lost: u64,
    /// Messages dropped because the receiver was down.
    pub dropped_down: u64,
    /// Ticks the engine executed (fast-forwarded ticks excluded).
    pub busy_ticks: u64,
    /// FNV-1a digest of the report and the full delivery record.
    pub digest: u64,
    /// Failed checks, empty on a correct run.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Reads the outputs back and checks them against the script:
    /// no skipped fault, every delivery recorded by the probe, each
    /// delivered payload equal to its scripted broadcast and from its
    /// scripted origin, no process delivering a broadcast twice.
    pub fn assess<P: Layered>(
        inputs: &Inputs,
        report: &ScenarioReport,
        busy_ticks: u64,
        probes: &BTreeMap<ProcessId, &Probe<P>>,
    ) -> Outcome {
        let metrics = report.metrics.clone().unwrap_or_default();
        let mut errors = Vec::new();
        if report.skipped_faults != 0 {
            errors.push(format!("{} scripted faults skipped", report.skipped_faults));
        }

        let mut latency = BTreeMap::new();
        let mut delivered_pairs = 0;
        let mut record = format!("{report:?}|busy{busy_ticks}");
        for (&id, probe) in probes {
            let deliveries = probe.deliveries();
            if deliveries.len() != probe.delivered().len() {
                errors.push(format!(
                    "{id}: probe saw {} deliveries, protocol reports {}",
                    deliveries.len(),
                    probe.delivered().len()
                ));
            }
            let mut seen = BTreeSet::new();
            for (at, bid, payload) in deliveries {
                let _ = write!(record, "|{id}@{}:{bid}", at.ticks());
                let Some(index) =
                    script_index(payload.as_bytes()).filter(|&i| i < inputs.script.len())
                else {
                    errors.push(format!("{id}: unscripted payload {payload:?}"));
                    continue;
                };
                let scripted = &inputs.script[index];
                if scripted.payload != *payload || scripted.origin != bid.origin {
                    errors.push(format!(
                        "{id}: {bid} does not match scripted broadcast {index}"
                    ));
                }
                if !seen.insert(index) {
                    errors.push(format!("{id}: broadcast {index} delivered twice"));
                }
                let Some(wait) = at.ticks().checked_sub(scripted.at.ticks()) else {
                    errors.push(format!(
                        "{id}: broadcast {index} delivered before it was due"
                    ));
                    continue;
                };
                *latency.entry(wait).or_insert(0) += 1;
                delivered_pairs += 1;
            }
        }

        Outcome {
            broadcasts: inputs.script.len() as u64,
            processes: probes.len() as u64,
            failed_broadcasts: report.failed_broadcasts,
            delivered_pairs,
            latency,
            data_sent: metrics.sent_of_kind("data"),
            sent: metrics.sent_total(),
            delivered_msgs: metrics.delivered_total(),
            lost: metrics.lost_in_link(),
            dropped_down: metrics.dropped_receiver_down(),
            busy_ticks,
            digest: fnv1a(record.as_bytes()),
            errors,
        }
    }

    /// Scripted (broadcast, process) pairs.
    pub fn pairs(&self) -> u64 {
        self.broadcasts * self.processes
    }

    /// Share of scripted pairs delivered by the horizon.
    pub fn reach(&self) -> f64 {
        self.delivered_pairs as f64 / self.pairs() as f64
    }

    /// The `q`-quantile of delivery latency in ticks, interpolated
    /// within its tick: latencies are whole ticks, so tick `t` stands
    /// for the interval `[t − ½, t + ½)` and the quantile is placed in
    /// it by the share of that tick's deliveries below it. This is the
    /// usual median of grouped data; it moves smoothly when the
    /// distribution shifts, where a whole-tick quantile jumps.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let total: u64 = self.latency.values().sum();
        let target = q * total as f64;
        let mut below = 0.0;
        for (&tick, &count) in &self.latency {
            let count = count as f64;
            if below + count >= target {
                return tick as f64 - 0.5 + (target - below) / count;
            }
            below += count;
        }
        self.latency
            .keys()
            .next_back()
            .map_or(0.0, |&t| t as f64 + 0.5)
    }

    /// `data`-kind sends per scripted broadcast.
    pub fn data_msgs_per_bcast(&self) -> f64 {
        self.data_sent as f64 / self.broadcasts as f64
    }
}

/// The script index in a payload `b<index>:…`.
fn script_index(payload: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(payload).ok()?;
    text.strip_prefix('b')?.split(':').next()?.parse().ok()
}

/// 64-bit FNV-1a: stable across builds and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
