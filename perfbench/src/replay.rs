//! The traced run: one round replayed stage by stage, with host-time spans
//! around calls into each layer's public functions, then probes of single
//! layers on the replay's own inputs. The replay must reproduce the
//! untraced outputs, so the per-layer numbers describe the work behind
//! `wall_s`.

use crate::spans::Spans;
use crate::stats::{median, percentile, Digest, SplitMix};
use crate::workloads::{
    fit_op, pipeline_digest, zoo_collect_config, zoo_datasets, zoo_model_config, zoo_train_config,
    Op, Rounds, RunFacts, STAGES,
};
use crate::Outcome;
use autolearn::collect::{CollectConfig, CollectionPath};
use autolearn::dataset::records_to_dataset;
use autolearn::modelpilot::ModelPilot;
use autolearn::pipeline::Pipeline;
use autolearn_analyze::graph::LayerSpec;
use autolearn_nn::kernels::gemm;
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{Adam, Dataset, Trainer};
use autolearn_obs::Obs;
use autolearn_sim::{
    Camera, CameraConfig, CarConfig, Controls, DriveConfig, Frame, LinePilot, LinePilotConfig,
    Observation, Pilot, SessionResult, Simulation, Vehicle,
};
use autolearn_track::{Track, Vec2};
use autolearn_tub::{CleanConfig, DriveMode, Record, TubCleaner};
use autolearn_util::fault::FaultPlan;
use autolearn_util::RetryPolicy;
use std::hint::black_box;
use std::time::Instant;

/// Calls per track/vehicle probe.
const PROBE_CALLS: usize = 20_000;
/// Minibatches timed per model in the nn probe.
const PROBE_BATCHES: usize = 24;
/// Host seconds the GEMM probe runs at least.
const GEMM_PROBE_S: f64 = 0.2;

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// A pass-through [`Pilot`] that times every tick of the drive loop (from
/// one `control` call to the next) and every call into the wrapped pilot.
pub struct TimedPilot<P> {
    inner: P,
    last: Option<Instant>,
    pub tick_ns: Vec<f64>,
    pub control_ns: Vec<f64>,
}

impl<P: Pilot> TimedPilot<P> {
    pub fn new(inner: P) -> TimedPilot<P> {
        TimedPilot {
            inner,
            last: None,
            tick_ns: Vec::new(),
            control_ns: Vec::new(),
        }
    }
}

impl<P: Pilot> Pilot for TimedPilot<P> {
    fn control(&mut self, obs: &Observation<'_>) -> Controls {
        let start = Instant::now();
        if let Some(prev) = self.last {
            self.tick_ns.push((start - prev).as_nanos() as f64);
        }
        let controls = self.inner.control(obs);
        self.control_ns.push(ns_since(start));
        self.last = Some(start);
        controls
    }

    fn notify_reset(&mut self) {
        self.inner.notify_reset();
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

pub struct Collected {
    pub records: Vec<Record>,
    pub session: SessionResult,
    pub tick_ns: Vec<f64>,
    pub pilot_ns: Vec<f64>,
}

/// `collect_session` on the simulator path, with the line pilot timed.
pub fn collect(track: &Track, cfg: &CollectConfig) -> Collected {
    assert_eq!(
        cfg.path,
        CollectionPath::Simulator,
        "replay covers the simulator path"
    );
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig {
            seed: cfg.seed,
            ..CarConfig::default()
        },
        cfg.camera.clone(),
        DriveConfig {
            store_images: true,
            ..Default::default()
        },
    );
    let mut pilot = TimedPilot::new(LinePilot::new(LinePilotConfig {
        seed: cfg.seed,
        constant_throttle: cfg.constant_throttle,
        ..Default::default()
    }));
    let session = sim.run(&mut pilot, cfg.duration_s);
    let records = session
        .frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut r = Record::new(
                i as u64,
                f.controls.steering as f32,
                f.controls.throttle as f32,
                (f.t * 1000.0).round() as u64,
                f.image.clone().expect("collection stores images"),
            );
            r.mode = DriveMode::User;
            r.off_track = f.off_track;
            r.crashed = f.crashed;
            r
        })
        .collect();
    Collected {
        records,
        session,
        tick_ns: pilot.tick_ns,
        pilot_ns: pilot.control_ns,
    }
}

pub struct Evaluated {
    pub session: SessionResult,
    pub control_ns: Vec<f64>,
}

/// Autonomous laps with `model` on the clean simulator car, as the
/// pipeline's evaluate stage drives them, with every model call timed.
pub fn evaluate(
    track: &Track,
    camera: CameraConfig,
    model: CarModel,
    laps: usize,
    max_duration_s: f64,
) -> Evaluated {
    let mut sim = Simulation::new(
        track.clone(),
        CarConfig::default(),
        camera,
        DriveConfig {
            store_images: false,
            ..Default::default()
        },
    );
    let mut pilot = TimedPilot::new(ModelPilot::new(model));
    let session = sim.run_laps(&mut pilot, laps, max_duration_s);
    Evaluated {
        session,
        control_ns: pilot.control_ns,
    }
}

fn set_collect(out: &mut Outcome, collected: &Collected, collect_s: f64) {
    out.set("core.collect_s", collect_s);
    out.set(
        "sim.tick_us_p50",
        percentile(&collected.tick_ns, 50.0) / 1e3,
    );
    out.set(
        "sim.tick_us_p99",
        percentile(&collected.tick_ns, 99.0) / 1e3,
    );
    out.set("sim.line_pilot_ns", median(&collected.pilot_ns));
}

fn set_zero(out: &mut Outcome, names: &[&str]) {
    for name in names {
        out.set(name, 0.0);
    }
}

const CONTINUUM_METRICS: [&str; 6] = [
    "pipeline.attempts",
    "pipeline.retries",
    "pipeline.useful_attempt_ratio",
    "faults.injected.net",
    "faults.injected.cloud",
    "faults.injected.edge",
];

fn stage_metric(stage: &str) -> String {
    format!("sim_stage_s.{}", stage.replace('+', "_"))
}

/// The traced replay of a pipeline workload.
pub fn pipeline(
    out: &mut Outcome,
    label: &str,
    seed: u64,
    pipeline: &Pipeline,
    rounds: &Rounds<Option<RunFacts>>,
    plan: impl Fn(u64) -> FaultPlan,
) {
    let cfg = &pipeline.config;
    let track = &pipeline.track;
    let mut spans = Spans::new();
    let (replay, replay_s) = spans.time("replay", |spans| {
        let (collected, collect_s) = spans.time("collect", |_| collect(track, &cfg.collection));
        set_collect(out, &collected, collect_s);
        let Collected {
            records, session, ..
        } = collected;
        let collected_n = records.len();
        let (records, clean_s) = spans.time("clean", |_| {
            let mut records = records;
            if cfg.clean {
                let flagged = TubCleaner::new(CleanConfig::default())
                    .analyse(&records)
                    .flagged_ids();
                records.retain(|r| !flagged.contains(&r.id));
            }
            records
        });
        out.set("tub.clean_s", clean_s);
        out.set("tub.clean_flagged", (collected_n - records.len()) as f64);
        let ((mut model, data), dataset_s) = spans.time("dataset", |_| {
            let model = CarModel::build(cfg.model_kind, &cfg.model);
            let data = prepare_dataset(
                &records_to_dataset(&records, &cfg.model),
                model.input_spec(),
            );
            (model, data)
        });
        out.set("core.dataset_s", dataset_s);
        let (report, fit_s) = spans.time("fit", |_| {
            Trainer::new(cfg.train.clone()).fit(&mut model, &data)
        });
        let report = report.expect("the pipeline's model passed preflight");
        for kind in ModelKind::all() {
            let secs = if kind == cfg.model_kind { fit_s } else { 0.0 };
            out.set(&format!("nn.fit_s.{kind}"), secs);
        }
        out.set("nn.fit_s", fit_s);
        out.set("nn.examples_per_s", report.examples_seen as f64 / fit_s);
        out.set("nn.scratch_peak_bytes", report.scratch_peak_bytes as f64);
        let (eval, evaluate_s) = spans.time("evaluate", |_| {
            let camera = cfg.collection.camera.clone();
            evaluate(track, camera, model, cfg.eval_laps, cfg.eval_max_duration_s)
        });
        out.set("core.evaluate_s", evaluate_s);
        out.set("core.model_pilot_us", median(&eval.control_ns) / 1e3);
        let busy_s = collect_s + clean_s + dataset_s + fit_s + evaluate_s;
        let outputs = (
            collected_n,
            records.len(),
            report.best_val_loss.to_bits(),
            eval.session.autonomy().to_bits(),
        );
        (outputs, busy_s, session.frames, data)
    });
    let (outputs, busy_s, frames, data) = replay;

    // The compute stages ignore the fault plan, so every completed run of
    // the round must match the one replay.
    let differs = rounds.first.iter().position(|op| match &op.result {
        Ok(Some(want)) => {
            let want_outputs = (
                want.records_collected,
                want.records_cleaned,
                want.best_val_loss.to_bits(),
                want.autonomy.to_bits(),
            );
            want_outputs != outputs
        }
        _ => false,
    });
    out.op(differs.map(|i| format!("{label} replay differs from run {i}")));

    let per_run_s = rounds.raw_s() / rounds.first.len() as f64;
    out.set("core.pipeline_other_s", per_run_s - busy_s);
    out.set("trace_overhead_ratio", replay_s / per_run_s);

    let car = CarConfig {
        seed: cfg.collection.seed,
        ..CarConfig::default()
    };
    probe_sim(
        out,
        &mut spans,
        track,
        &cfg.collection.camera,
        &car,
        &frames,
        seed,
    );
    probe_nn(
        out,
        &mut spans,
        &[(cfg.model_kind, &cfg.model, &data)],
        cfg.train.batch_size,
    );
    continuum(out, &mut spans, label, pipeline, &rounds.first, plan);
    write_trace(out, &spans, label, seed);
}

/// Re-run every plan of the first round through `Pipeline::run_observed`:
/// its digest must match the untraced run, and its metrics registry gives
/// the continuum counters and the per-stage simulated time.
fn continuum(
    out: &mut Outcome,
    spans: &mut Spans,
    label: &str,
    pipeline: &Pipeline,
    first: &[Op<Option<RunFacts>>],
    plan: impl Fn(u64) -> FaultPlan,
) {
    let policy = RetryPolicy::default();
    let (mut attempts, mut retries) = (0u64, 0u64);
    let mut faults = [0u64; 3];
    let mut stage_s: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut export_ms = Vec::new();
    let mut span_counts = Vec::new();
    for (i, op) in first.iter().enumerate() {
        let mut obs = Obs::new();
        let (result, _) = spans.time("run_observed", |_| {
            pipeline.run_observed(&mut plan(i as u64), &policy, &mut obs)
        });
        let digest = pipeline_digest(&result);
        out.op((digest != op.digest).then(|| {
            format!(
                "{label} run_observed plan {i}: digest {digest} differs from {}",
                op.digest
            )
        }));
        let m = obs.metrics();
        attempts += m.counter("pipeline.attempts");
        retries += m.counter("pipeline.retries");
        for (n, site) in faults.iter_mut().zip(["net", "cloud", "edge"]) {
            *n += m.counter(&format!("{site}.faults"));
        }
        if result.is_ok() {
            for (s, stage) in stage_s.iter_mut().zip(STAGES) {
                s.push(m.gauge(&format!("pipeline.stage.{stage}_s")));
            }
        }
        let ((), secs) = spans.time("export", |_| {
            black_box(obs.export_chrome_trace());
            black_box(obs.export_summary());
        });
        export_ms.push(secs * 1e3);
        span_counts.push(obs.trace().spans().len() as f64);
    }
    out.set("pipeline.attempts", attempts as f64);
    out.set("pipeline.retries", retries as f64);
    out.set(
        "pipeline.useful_attempt_ratio",
        attempts.saturating_sub(retries) as f64 / attempts.max(1) as f64,
    );
    for (n, site) in faults.iter().zip(["net", "cloud", "edge"]) {
        out.set(&format!("faults.injected.{site}"), *n as f64);
    }
    for (s, stage) in stage_s.iter().zip(STAGES) {
        out.set(&stage_metric(stage), median(s));
    }
    out.set("obs.export_ms", median(&export_ms));
    out.set("obs.spans", median(&span_counts));
}

/// The traced replay of the zoo: the shared dataset's collection, then one
/// fit per kind, each of which must reproduce the untraced digest.
pub fn zoo(
    out: &mut Outcome,
    mut spans: Spans,
    seed: u64,
    track: &Track,
    records_n: usize,
    expected: &[Digest],
    round_s: f64,
) {
    let collect_cfg = zoo_collect_config(seed);
    let (collected, collect_s) = spans.time("collect", |_| collect(track, &collect_cfg));
    set_collect(out, &collected, collect_s);
    out.op((collected.records.len() != records_n).then(|| {
        format!(
            "zoo replay collected {} records, set-up {records_n}",
            collected.records.len()
        )
    }));
    let cfg = zoo_model_config(seed);
    let (datasets, dataset_s) = spans.time("dataset", |_| zoo_datasets(&collected.records, &cfg));
    out.set("core.dataset_s", dataset_s);
    let mut fit_s = 0.0;
    let mut examples = 0u64;
    let mut scratch = 0u64;
    for ((kind, data), want) in datasets.iter().zip(expected) {
        let (op, secs) = spans.time(&format!("fit {kind}"), |_| fit_op(*kind, seed, data));
        out.set(&format!("nn.fit_s.{kind}"), secs);
        fit_s += secs;
        let problem = match &op.result {
            Err(e) => Some(format!("zoo replay: {e}")),
            Ok(_) if op.digest != *want => Some(format!(
                "zoo replay {kind}: digest {} differs from {want}",
                op.digest
            )),
            Ok(f) => {
                examples += f.examples_seen;
                scratch = scratch.max(f.scratch_peak_bytes);
                None
            }
        };
        out.op(problem);
    }
    out.set("nn.fit_s", fit_s);
    out.set("nn.examples_per_s", examples as f64 / fit_s);
    out.set("nn.scratch_peak_bytes", scratch as f64);
    out.set("trace_overhead_ratio", fit_s / round_s);
    // Not exercised by the zoo: no pipeline, cleaning, continuum or Obs.
    set_zero(
        out,
        &["core.pipeline_other_s", "tub.clean_s", "tub.clean_flagged"],
    );
    set_zero(out, &CONTINUUM_METRICS);
    set_zero(out, &["obs.export_ms", "obs.spans"]);
    for stage in STAGES {
        out.set(&stage_metric(stage), 0.0);
    }

    let car = CarConfig {
        seed,
        ..CarConfig::default()
    };
    let frames = &collected.session.frames;
    probe_sim(
        out,
        &mut spans,
        track,
        &collect_cfg.camera,
        &car,
        frames,
        seed,
    );
    let models: Vec<(ModelKind, &ModelConfig, &Dataset)> = datasets
        .iter()
        .map(|(kind, data)| (*kind, &cfg, data))
        .collect();
    probe_nn(out, &mut spans, &models, zoo_train_config(seed).batch_size);
    write_trace(out, &spans, "zoo", seed);
}

/// Single-layer probes of the simulator and track on recorded poses.
fn probe_sim(
    out: &mut Outcome,
    spans: &mut Spans,
    track: &Track,
    camera_cfg: &CameraConfig,
    car: &CarConfig,
    frames: &[Frame],
    seed: u64,
) {
    // Camera::render replayed over the recorded states.
    let mut camera = Camera::new(camera_cfg.clone());
    let (render_ns, _) = spans.time("camera.render", |_| {
        frames
            .iter()
            .map(|f| {
                let start = Instant::now();
                black_box(camera.render(track, &f.state));
                ns_since(start)
            })
            .collect::<Vec<f64>>()
    });
    out.set("sim.render_us", median(&render_ns) / 1e3);
    out.set("sim.render_frames", frames.len() as f64);

    // Track::surface_at over seeded ground points inside the camera's
    // footprint from the recorded poses.
    let mut rng = SplitMix::new(seed ^ 0x5eed_9a0b);
    let half_fov = (camera_cfg.hfov / 2.0).tan();
    let points: Vec<Vec2> = (0..PROBE_CALLS)
        .map(|_| {
            let state = &frames[(rng.next_u64() % frames.len() as u64) as usize].state;
            let ahead = rng.uniform(0.1, camera_cfg.max_distance);
            let side = rng.uniform(-1.0, 1.0) * ahead * half_fov;
            let fwd = Vec2::from_angle(state.heading);
            state.pos + fwd * ahead + fwd.perp() * side
        })
        .collect();
    let ((), secs) = spans.time("track.surface_at", |_| {
        for p in &points {
            black_box(track.surface_at(*p));
        }
    });
    out.set("track.surface_at_ns", secs * 1e9 / points.len() as f64);

    // Track::project over the recorded poses, and Vehicle::step under the
    // recorded controls.
    let poses: Vec<Vec2> = frames
        .iter()
        .map(|f| f.state.pos)
        .cycle()
        .take(PROBE_CALLS)
        .collect();
    let ((), secs) = spans.time("track.project", |_| {
        for p in &poses {
            black_box(track.project(*p));
        }
    });
    out.set("track.project_ns", secs * 1e9 / poses.len() as f64);
    let controls: Vec<Controls> = frames
        .iter()
        .map(|f| f.controls)
        .cycle()
        .take(PROBE_CALLS)
        .collect();
    let mut vehicle = Vehicle::new(car.clone(), frames[0].state);
    let ((), secs) = spans.time("vehicle.step", |_| {
        for c in &controls {
            vehicle.step(c.steering, c.throttle, 0.05);
        }
        black_box(vehicle.state);
    });
    out.set("sim.vehicle_step_ns", secs * 1e9 / controls.len() as f64);
}

/// Minibatch forward+backward and forward-only times through
/// `DonkeyModel`, and the GEMM kernel's throughput at the models' shapes.
fn probe_nn(
    out: &mut Outcome,
    spans: &mut Spans,
    models: &[(ModelKind, &ModelConfig, &Dataset)],
    batch_size: usize,
) {
    let mut train_ms = Vec::new();
    let mut eval_ms = Vec::new();
    let mut shapes = Vec::new();
    for &(kind, cfg, data) in models {
        let mut model = CarModel::build(kind, cfg);
        let batches = data.batches(batch_size, false, 0);
        let batches = &batches[..batches.len().min(PROBE_BATCHES)];
        spans.time(&format!("eval_batch {kind}"), |_| {
            for b in batches {
                let start = Instant::now();
                black_box(model.eval_batch(b));
                eval_ms.push(ns_since(start) / 1e6);
            }
        });
        let mut opt = Adam::new(1e-3);
        spans.time(&format!("train_batch {kind}"), |_| {
            for b in batches {
                let start = Instant::now();
                black_box(model.train_batch(b, &mut opt));
                train_ms.push(ns_since(start) / 1e6);
            }
        });
        shapes.extend(gemm_shapes(kind, cfg, batch_size));
    }
    out.set("nn.train_batch_ms_p50", median(&train_ms));
    out.set("nn.eval_batch_ms_p50", median(&eval_ms));
    let (gflops, _) = spans.time("kernels.gemm", |_| gemm_gflops(&shapes));
    out.set("nn.gemm_gflops", gflops);
}

/// A GEMM `[m, k] · [k, n]` run `reps` times per minibatch.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GemmShape {
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
}

/// The forward-pass GEMMs of one minibatch through `kind`'s layer plan:
/// conv layers lower to one `filters × (c·k·k) · (c·k·k) × pixels` product
/// per example, dense layers to one `batch × in · in × out` product, and
/// an LSTM to an input and a recurrent product per time step.
fn gemm_shapes(kind: ModelKind, cfg: &ModelConfig, batch: usize) -> Vec<GemmShape> {
    let plan = CarModel::plan(kind, cfg);
    let mut shapes = Vec::new();
    let mut input = plan.input.clone();
    input[0] = 1;
    let trunk = walk(&plan.layers, input, batch, &mut shapes);
    let features: usize = trunk[1..].iter().product::<usize>() + plan.aux_width.unwrap_or(0);
    let merged = walk(&plan.merge, vec![1, features], batch, &mut shapes);
    for (_, head) in &plan.heads {
        walk(head, merged.clone(), batch, &mut shapes);
    }
    shapes
}

fn walk(
    layers: &[LayerSpec],
    mut shape: Vec<usize>,
    batch: usize,
    out: &mut Vec<GemmShape>,
) -> Vec<usize> {
    for layer in layers {
        match layer {
            LayerSpec::Chain(inner) => {
                shape = walk(inner, shape, batch, out);
                continue;
            }
            LayerSpec::TimeDistributed { inner } => {
                let steps = shape[1];
                let mut step = vec![1];
                step.extend_from_slice(&shape[2..]);
                let step_out = walk(std::slice::from_ref(inner), step, batch * steps, out);
                shape = [vec![1, steps], step_out[1..].to_vec()].concat();
                continue;
            }
            _ => {}
        }
        let next = layer.output_shape(&shape).expect("zoo plans validate");
        let gemm = match *layer {
            LayerSpec::Dense { input, output } => Some(GemmShape {
                m: batch,
                k: input,
                n: output,
                reps: 1,
            }),
            LayerSpec::Conv2D {
                in_channels,
                filters,
                kernel,
                ..
            } => Some(GemmShape {
                m: filters,
                k: in_channels * kernel * kernel,
                n: next[2] * next[3],
                reps: batch,
            }),
            LayerSpec::Conv3D {
                in_channels,
                filters,
                kernel_t,
                kernel,
                ..
            } => Some(GemmShape {
                m: filters,
                k: in_channels * kernel_t * kernel * kernel,
                n: next[2] * next[3] * next[4],
                reps: batch,
            }),
            LayerSpec::Lstm { input, hidden } => {
                out.push(GemmShape {
                    m: batch,
                    k: hidden,
                    n: 4 * hidden,
                    reps: shape[1],
                });
                Some(GemmShape {
                    m: batch,
                    k: input,
                    n: 4 * hidden,
                    reps: shape[1],
                })
            }
            _ => None,
        };
        out.extend(gemm);
        shape = next;
    }
    shape
}

/// Achieved GFLOP/s of `kernels::gemm` over `shapes`, repeated for at
/// least [`GEMM_PROBE_S`].
fn gemm_gflops(shapes: &[GemmShape]) -> f64 {
    let mut buffers: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = shapes
        .iter()
        .map(|s| {
            let fill = |len: usize| (0..len).map(|i| ((i % 17) as f32 - 8.0) / 16.0).collect();
            (fill(s.m * s.k), fill(s.k * s.n), vec![0.0; s.m * s.n])
        })
        .collect();
    let flops_per_pass: f64 = shapes
        .iter()
        .map(|s| 2.0 * (s.m * s.k * s.n * s.reps) as f64)
        .sum();
    let start = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || start.elapsed().as_secs_f64() < GEMM_PROBE_S {
        for (s, (a, b, c)) in shapes.iter().zip(buffers.iter_mut()) {
            for _ in 0..s.reps {
                gemm(c, false, a, false, b, false, s.m, s.k, s.n);
                black_box(&c);
            }
        }
        passes += 1;
    }
    flops_per_pass * f64::from(passes) / start.elapsed().as_secs_f64() / 1e9
}

/// Write the spans to `perfbench/out/trace-<label>-<seed>.json`.
fn write_trace(out: &mut Outcome, spans: &Spans, label: &str, seed: u64) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{label}-{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.chrome_trace()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => out
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_gemm_shapes_follow_its_plan() {
        let cfg = zoo_model_config(1);
        let shapes = gemm_shapes(ModelKind::Linear, &cfg, 32);
        let first = shapes[0];
        // The first conv sees one grayscale channel: k = kernel², and runs
        // once per example of the minibatch.
        assert_eq!(first.reps, 32);
        assert!(first.k >= 9 && first.k <= 25, "{first:?}");
        assert!(
            shapes.iter().any(|s| s.m == 32 && s.reps == 1),
            "a dense layer"
        );
        for s in &shapes {
            assert!(s.m * s.k * s.n * s.reps > 0, "{s:?}");
        }
    }

    #[test]
    fn every_zoo_kind_has_gemm_work() {
        let cfg = zoo_model_config(1);
        for kind in ModelKind::all() {
            assert!(!gemm_shapes(kind, &cfg, 8).is_empty(), "{kind}");
        }
        let rnn = gemm_shapes(ModelKind::Rnn, &cfg, 8);
        assert!(
            rnn.iter().any(|s| s.reps == 8 * cfg.seq_len),
            "per-step convs: {rnn:?}"
        );
    }
}
