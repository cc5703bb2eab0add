//! AutoLearn continuum benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chaos|zoo --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --describe
//! ```
//!
//! A run sets the workload up, then repeats rounds of its operations (a
//! pipeline run or a model fit) for `--seconds`, on one thread. Every
//! operation's outputs are checked, and its digest must match the first
//! round's; a panic, a failed check or a changed digest counts as a failed
//! operation. With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` it also replays one round stage by stage under host-time
//! spans, checks that the replay reproduces the untraced outputs, prints
//! the per-layer metrics and writes the spans to
//! `perfbench/out/trace-<workload>-<seed>.json`. The last line of standard
//! output is one JSON object; the exit code is 1 when any check failed.
//! `--manifest` prints `BENCHMARK.json`; `--describe` prints every metric
//! with its layer and the end-to-end metric it should move.

mod host;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;

/// Seconds one run measures; the value `BENCHMARK.json` records.
pub const RUN_SECONDS: u64 = 45;

/// Metric values by name, plus the run's failure accounting.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Count one operation; `problem` marks it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: every metric of the selected table, in table order.
fn result_json(outcome: &Outcome, trace: bool) -> (String, bool) {
    let names: Vec<&str> = if trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut correct = outcome.failed == 0 && outcome.problems.is_empty();
    let mut fields = Vec::new();
    for name in names {
        let unit = metrics::unit_of(name).expect("table names have units");
        match outcome.values.get(name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            other => {
                eprintln!("perfbench: metric {name} is {other:?}");
                correct = false;
            }
        }
    }
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    (json, correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return;
    }
    if argv == ["--describe"] {
        print!("{}", metrics::describe());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <chaos|zoo> --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = workloads::run(&args.workload, args.seed, args.seconds, args.trace);
    for p in &outcome.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    let (json, correct) = result_json(&outcome, args.trace);
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject_bad_input() {
        let a = parse_args(&argv("--workload zoo --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("zoo", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload zoo")).is_err());
        assert!(parse_args(&argv("--workload zoo --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload zoo --seed 1 --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload zoo --seed")).is_err());
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut o = Outcome::default();
        for m in metrics::END_TO_END {
            o.set(m.name, 1.5);
        }
        o.op(None);
        let (json, correct) = result_json(&o, false);
        assert!(correct);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(json.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.set("wall_s", f64::NAN);
        assert!(!result_json(&o, false).1);
        o.set("wall_s", 1.0);
        o.op(Some("bad".into()));
        assert!(!result_json(&o, false).1);
        let (_, traced_ok) = result_json(&Outcome::default(), true);
        assert!(!traced_ok, "per-layer metrics missing");
    }
}
