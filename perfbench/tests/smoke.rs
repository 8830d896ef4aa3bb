//! Smoke test: every workload runs at its tiny size on a held-out seed,
//! untraced and traced, and must print every metric `BENCHMARK.json`
//! names, with its unit, pass every check, and simulate the same outputs
//! in both processes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A seed used by no tuning run of the benchmark.
const HELD_OUT_SEED: &str = "9176531";

#[test]
fn adaptive_dense_prints_every_metric_and_passes_its_checks() {
    smoke("adaptive_dense");
}

#[test]
fn adaptive_bcast_prints_every_metric_and_passes_its_checks() {
    smoke("adaptive_bcast");
}

#[test]
fn gossip_flood_prints_every_metric_and_passes_its_checks() {
    smoke("gossip_flood");
}

#[test]
fn gossip_flood_sharded_prints_every_metric_and_passes_its_checks() {
    smoke("gossip_flood_sharded");
}

#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}

fn smoke(workload: &str) {
    let contract = benchmark_json();
    assert!(
        contract["workloads"]
            .array()
            .iter()
            .any(|w| w["name"].str() == workload),
        "{workload} is not listed in BENCHMARK.json"
    );
    let mut digests = Vec::new();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected: BTreeMap<&str, &str> = contract[list]
            .array()
            .iter()
            .map(|m| (m["name"].str(), m["unit"].str()))
            .collect();
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload, "--seed", HELD_OUT_SEED])
            .args(["--seconds", "0.2", "--trace", trace, "--size", "tiny"])
            .output()
            .expect("run perfbench");
        let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
        assert!(
            output.status.success(),
            "{workload} --trace {trace}:\n{stdout}"
        );
        digests.extend(
            stdout
                .lines()
                .filter(|l| l.starts_with("outputs digest"))
                .map(str::to_owned),
        );
        let last = stdout.lines().last().expect("a result line");
        let result = Json::parse(last);
        let keys: Vec<&str> = result.object().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["attempted", "correct", "failed", "metrics"],
            "{last}"
        );
        assert_eq!(result["correct"], Json::Bool(true), "{stdout}");
        assert!(result["attempted"].num() >= 1.0, "{last}");
        assert_eq!(result["failed"].num(), 0.0, "{last}");
        let metrics = result["metrics"].object();
        let printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let wanted: Vec<&str> = expected.keys().copied().collect();
        assert_eq!(printed, wanted, "{workload} --trace {trace}");
        for (name, unit) in expected {
            let m = &metrics[name];
            assert_eq!(m["unit"].str(), unit, "{name}");
            assert!(m["value"].num().is_finite(), "{name}");
        }
    }
    // Two processes on one seed, one untraced and one traced, simulate
    // the same outputs.
    assert_eq!(digests.len(), 2, "{digests:?}");
    assert_eq!(digests[0], digests[1]);
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// The JSON subset `BENCHMARK.json` and the result line use: objects,
/// arrays, strings without escapes, numbers and booleans.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut rest = text.trim();
        let value = Json::value(&mut rest);
        assert!(rest.trim().is_empty(), "trailing text: {rest}");
        value
    }

    fn value(rest: &mut &str) -> Json {
        *rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('{') {
            *rest = after;
            let mut map = BTreeMap::new();
            while !Json::eat(rest, '}') {
                Json::eat(rest, ',');
                let Json::Str(key) = Json::value(rest) else {
                    panic!("object key expected at {rest}");
                };
                assert!(Json::eat(rest, ':'), "':' expected at {rest}");
                assert!(
                    map.insert(key, Json::value(rest)).is_none(),
                    "duplicate key"
                );
            }
            Json::Object(map)
        } else if let Some(after) = rest.strip_prefix('[') {
            *rest = after;
            let mut items = Vec::new();
            while !Json::eat(rest, ']') {
                Json::eat(rest, ',');
                items.push(Json::value(rest));
            }
            Json::Array(items)
        } else if let Some(after) = rest.strip_prefix('"') {
            let end = after.find('"').expect("closing quote");
            *rest = &after[end + 1..];
            Json::Str(after[..end].to_owned())
        } else if let Some(after) = rest.strip_prefix("true") {
            *rest = after;
            Json::Bool(true)
        } else if let Some(after) = rest.strip_prefix("false") {
            *rest = after;
            Json::Bool(false)
        } else {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            let number = rest[..end].parse().expect("a number");
            *rest = &rest[end..];
            Json::Num(number)
        }
    }

    fn eat(rest: &mut &str, c: char) -> bool {
        *rest = rest.trim_start();
        match rest.strip_prefix(c) {
            Some(after) => {
                *rest = after;
                true
            }
            None => false,
        }
    }

    fn object(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Object(map) => map,
            other => panic!("object expected, got {other:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("array expected, got {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("string expected, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("number expected, got {other:?}"),
        }
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.object()
            .get(key)
            .unwrap_or_else(|| panic!("missing key {key:?}"))
    }
}
