//! The benchmark's metric ledger: every workload and metric with its unit
//! and direction, and for each per-layer metric the layer it belongs to and
//! the end-to-end metric, on which workload, it is expected to move.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`--manifest`); a test keeps the committed file in step with them.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "chaos",
        why: "the chaos suite's tiny lesson over a sweep of seeded fault plans: every layer from track to obs, with retries, faults and per-run fixed costs",
    },
    Workload {
        name: "zoo",
        why: "Trainer::fit of all six ModelKinds on one shared simulator dataset: nn-bound, so a simulator change moves only setup_s here",
    },
];

#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the continuum sees, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer, measured in the traced replay.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// The end-to-end metric and workload a change here should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    // Host seconds before the timed phase (median of repeated set-ups), at
    // the host-speed probe's reference speed (see host.rs).
    e2e("setup_s", "s", Lower, 0.25),
    // Host seconds of one round of the timed phase (mean over its rounds),
    // at the probe's reference speed: one plan sweep (chaos), six fits
    // (zoo).
    e2e("wall_s", "s", Lower, 0.25),
    // Simulated seconds: PipelineReport::total_time (median over runs); on
    // the zoo, modelled V100 training plus one evaluation lap per model.
    // Fixed for a seed; the bound covers its spread across seeds.
    e2e("sim_s", "s", Lower, 0.25),
    // Share of evaluation ticks on track (zoo: mean over the six kinds).
    e2e("autonomy", "ratio", Higher, 0.25),
    // Operations that passed every check, over operations attempted.
    e2e("ops_ok_ratio", "ratio", Higher, 0.01),
    // VmHWM of the benchmark process after the first round.
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

const SIM_WALL: &str = "wall_s on chaos, setup_s on zoo";
const NN_WALL: &str = "wall_s on zoo most, on chaos by its small nn share";
const CONTINUUM: &str = "sim_s and ops_ok_ratio on chaos";

pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "track.surface_at_ns",
        "ns",
        Lower,
        "track",
        "wall_s on chaos",
    ),
    layer(
        "track.project_ns",
        "ns",
        Lower,
        "track",
        "wall_s on chaos",
    ),
    layer("sim.render_us", "us", Lower, "sim", SIM_WALL),
    layer("sim.render_frames", "count", Higher, "sim", SIM_WALL),
    layer("sim.tick_us_p50", "us", Lower, "sim", SIM_WALL),
    layer("sim.tick_us_p99", "us", Lower, "sim", SIM_WALL),
    layer("sim.vehicle_step_ns", "ns", Lower, "sim", SIM_WALL),
    layer("sim.line_pilot_ns", "ns", Lower, "sim", SIM_WALL),
    layer(
        "core.collect_s",
        "s",
        Lower,
        "core",
        "wall_s on chaos, setup_s on zoo",
    ),
    layer(
        "core.dataset_s",
        "s",
        Lower,
        "core",
        "wall_s on chaos, setup_s on zoo",
    ),
    layer(
        "core.evaluate_s",
        "s",
        Lower,
        "core",
        "wall_s on chaos",
    ),
    layer(
        "core.model_pilot_us",
        "us",
        Lower,
        "core",
        "wall_s on chaos",
    ),
    layer(
        "core.pipeline_other_s",
        "s",
        Lower,
        "core",
        "wall_s on chaos most",
    ),
    layer(
        "tub.clean_s",
        "s",
        Lower,
        "tub",
        "wall_s on chaos (under 1%)",
    ),
    layer(
        "tub.clean_flagged",
        "count",
        Lower,
        "tub",
        "sim_s on chaos (fewer records to upload and train)",
    ),
    // Best validation loss (zoo: mean over the six kinds). Fixed for a seed
    // but spread too widely across seeds to carry an end-to-end bound.
    layer(
        "nn.best_val_loss",
        "loss",
        Lower,
        "nn",
        "none: any change for a seed is a behaviour change",
    ),
    layer("nn.fit_s", "s", Lower, "nn", NN_WALL),
    layer(
        "nn.fit_s.linear",
        "s",
        Lower,
        "nn",
        "wall_s on zoo and chaos",
    ),
    layer("nn.fit_s.memory", "s", Lower, "nn", "wall_s on zoo"),
    layer("nn.fit_s.3d", "s", Lower, "nn", "wall_s on zoo"),
    layer("nn.fit_s.categorical", "s", Lower, "nn", "wall_s on zoo"),
    layer("nn.fit_s.inferred", "s", Lower, "nn", "wall_s on zoo"),
    layer("nn.fit_s.rnn", "s", Lower, "nn", "wall_s on zoo"),
    layer("nn.examples_per_s", "1/s", Higher, "nn", NN_WALL),
    layer("nn.train_batch_ms_p50", "ms", Lower, "nn", NN_WALL),
    layer("nn.eval_batch_ms_p50", "ms", Lower, "nn", NN_WALL),
    layer("nn.gemm_gflops", "GFLOP/s", Higher, "nn", NN_WALL),
    layer(
        "nn.scratch_peak_bytes",
        "bytes",
        Lower,
        "nn",
        "peak_rss_mib on zoo",
    ),
    layer("pipeline.attempts", "count", Lower, "continuum", CONTINUUM),
    layer("pipeline.retries", "count", Lower, "continuum", CONTINUUM),
    layer(
        "pipeline.useful_attempt_ratio",
        "ratio",
        Higher,
        "continuum",
        CONTINUUM,
    ),
    layer("faults.injected.net", "count", Lower, "net", CONTINUUM),
    layer("faults.injected.cloud", "count", Lower, "cloud", CONTINUUM),
    layer("faults.injected.edge", "count", Lower, "edge", CONTINUUM),
    layer(
        "sim_stage_s.collect",
        "s",
        Lower,
        "core",
        "sim_s on chaos",
    ),
    layer(
        "sim_stage_s.clean",
        "s",
        Lower,
        "tub",
        "sim_s on chaos",
    ),
    layer("sim_stage_s.reserve", "s", Lower, "cloud", "sim_s on chaos"),
    layer(
        "sim_stage_s.provision_upload",
        "s",
        Lower,
        "net",
        "sim_s on chaos",
    ),
    layer(
        "sim_stage_s.train",
        "s",
        Lower,
        "cloud",
        "sim_s on chaos",
    ),
    layer(
        "sim_stage_s.deploy-model",
        "s",
        Lower,
        "edge",
        "sim_s on chaos",
    ),
    layer(
        "sim_stage_s.evaluate",
        "s",
        Lower,
        "sim",
        "sim_s on chaos",
    ),
    layer("obs.export_ms", "ms", Lower, "obs", "wall_s on chaos"),
    layer("obs.spans", "count", Lower, "obs", "wall_s on chaos"),
    // The raw host seconds behind wall_s, and the probe that scales them.
    layer(
        "host.wall_raw_s",
        "s",
        Lower,
        "host",
        "wall_s on chaos and zoo: wall_s is this at the reference speed",
    ),
    layer(
        "host.calib_ms",
        "ms",
        Lower,
        "host",
        "none: the host's speed, not the program's",
    ),
    layer(
        "trace_overhead_ratio",
        "ratio",
        Lower,
        "obs",
        "none: traced over untraced wall_s",
    ),
];

/// The manifest written to `BENCHMARK.json`: command, paths, workloads and metrics.
pub fn manifest(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The ledger as text: one line per metric with its unit, direction and,
/// for per-layer metrics, its layer and the end-to-end metric it moves.
pub fn describe() -> String {
    let mut out = String::new();
    for m in END_TO_END {
        out.push_str(&format!(
            "{}\t{}\t{}\tend-to-end\tbound {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    for m in PER_LAYER {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\tmoves {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.moves
        ));
    }
    out
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "bad name {n}");
            assert!(!names[..i].contains(n), "duplicate name {n}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER
            .iter()
            .all(|m| !m.layer.is_empty() && !m.moves.is_empty()));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(crate::RUN_SECONDS),
            "regenerate with --manifest"
        );
    }
}
