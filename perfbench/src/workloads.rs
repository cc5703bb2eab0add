//! The two workloads: set-up, the timed rounds of operations, the output
//! checks on every operation, and the end-to-end metrics.

use crate::host::{at_reference_speed, calibrate};
use crate::replay;
use crate::stats::{mean, median, peak_rss_mib, Digest};
use crate::Outcome;
use autolearn::collect::{collect_session, CollectConfig, CollectionPath};
use autolearn::dataset::records_to_dataset;
use autolearn::pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineReport};
use autolearn_cloud::hardware::{ComputeDevice, GpuKind};
use autolearn_cloud::perf::{training_time, TrainingCostModel};
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{Dataset, TrainConfig, Trainer};
use autolearn_track::{circle_track, paper_oval, Track};
use autolearn_util::fault::{FaultConfig, FaultPlan};
use autolearn_util::RetryPolicy;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up samples per run: at least this many, for at least
/// [`SETUP_MIN_S`]; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 3.0;
/// A set-up shorter than this is timed in batches that last about this
/// long: the host's speed flips within milliseconds, so the median of
/// single sub-millisecond set-ups jumps between its fast and slow modes.
const SETUP_BATCH_S: f64 = 0.05;
/// Rounds per run at least: the second is the first replay of each seed.
const MIN_ROUNDS: usize = 2;
/// Fault plans in one chaos round.
const CHAOS_PLANS: u64 = 8;
/// Simulated seconds of driving behind the zoo's shared dataset.
const ZOO_COLLECT_S: f64 = 40.0;
const ZOO_EPOCHS: usize = 4;
/// The zoo's evaluation: one lap, capped at this many simulated seconds.
const ZOO_EVAL_S: f64 = 15.0;

pub const STAGES: [&str; 7] = [
    "collect",
    "clean",
    "reserve",
    "provision+upload",
    "train",
    "deploy-model",
    "evaluate",
];

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = match workload {
        "chaos" => chaos(seed, seconds, trace),
        "zoo" => zoo(seed, seconds, trace),
        other => unreachable!("parse_args accepted unknown workload {other}"),
    };
    let ok = out.attempted.saturating_sub(out.failed) as f64;
    out.set("ops_ok_ratio", ok / out.attempted.max(1) as f64);
    out
}

/// One operation's deterministic fingerprint and checked result.
pub struct Op<R> {
    pub digest: Digest,
    pub result: Result<R, String>,
}

/// Run one operation, turning a panic into a failed result.
fn run_op<R>(f: impl FnOnce() -> Op<R>) -> Op<R> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Op {
            digest: Digest::of("panic"),
            result: Err(format!("panicked: {msg}")),
        }
    })
}

/// Host seconds of the set-up `f` at the reference speed: the median of
/// at least [`SETUP_REPEATS`] samples taken for at least [`SETUP_MIN_S`],
/// each the mean of a batch of set-ups lasting about [`SETUP_BATCH_S`] (a
/// batch of one for a long set-up, whose first run is then a sample too),
/// scaled by the host-speed probe run right after it. Each set-up drops
/// the one before it first, so that one at a time is alive and the peak
/// RSS is that of the workload. Returns the last set-up and the time.
fn setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let begin = Instant::now();
    let mut value = Some(black_box(f()));
    let first = begin.elapsed().as_secs_f64();
    let batch = (SETUP_BATCH_S / first).ceil().max(1.0) as u32;
    let mut times = Vec::new();
    if batch == 1 {
        times.push(at_reference_speed(first, calibrate()));
    }
    while times.len() < SETUP_REPEATS || begin.elapsed().as_secs_f64() < SETUP_MIN_S {
        let start = Instant::now();
        for _ in 0..batch {
            drop(value.take());
            value = Some(black_box(f()));
        }
        let raw = start.elapsed().as_secs_f64() / f64::from(batch);
        times.push(at_reference_speed(raw, calibrate()));
    }
    (value.expect("set up at least once"), median(&times))
}

/// Runs a round's operations, adding up their host time and probing the
/// host's speed after each one (outside the operation's time).
#[derive(Default)]
pub struct OpClock {
    busy_s: f64,
    calib_s: Vec<f64>,
}

impl OpClock {
    pub fn run<R>(&mut self, f: impl FnOnce() -> Op<R>) -> Op<R> {
        let start = Instant::now();
        let op = run_op(f);
        self.busy_s += start.elapsed().as_secs_f64();
        self.calib_s.push(calibrate());
        op
    }
}

pub struct Rounds<R> {
    /// The first round's operations; later rounds must reproduce their
    /// digests.
    pub first: Vec<Op<R>>,
    /// Host seconds of each round: its operations' time, without the
    /// probes between them.
    pub round_s: Vec<f64>,
    /// Seconds of every host-speed probe of the timed phase.
    pub calib_s: Vec<f64>,
}

impl<R> Rounds<R> {
    /// Raw host seconds per round over the whole timed phase. The host's
    /// speed drifts rather than spiking now and then, so the mean of every
    /// round varies less from run to run than their median.
    pub fn raw_s(&self) -> f64 {
        mean(&self.round_s)
    }

    /// `wall_s`: [`Rounds::raw_s`] at the reference speed, scaled by the
    /// mean of the probes taken between the operations.
    pub fn wall_s(&self) -> f64 {
        at_reference_speed(self.raw_s(), mean(&self.calib_s))
    }

    /// The end-to-end `wall_s` and, for the traced run, the raw time and
    /// the probe behind it.
    fn set_metrics(&self, out: &mut Outcome) {
        out.set("wall_s", self.wall_s());
        out.set("host.wall_raw_s", self.raw_s());
        out.set("host.calib_ms", mean(&self.calib_s) * 1e3);
    }
}

/// Repeat `round` for about `seconds`, and at least [`MIN_ROUNDS`] times,
/// counting and printing every operation. A new round starts only while
/// it is due to end at most half a round past `seconds`, so a run measures
/// `seconds` give or take half a round. The peak RSS is read after
/// the first round, so that it does not depend on how many rounds the
/// host's speed allowed.
fn timed_rounds<R>(
    label: &str,
    seconds: f64,
    out: &mut Outcome,
    mut round: impl FnMut(&mut OpClock) -> Vec<Op<R>>,
) -> Rounds<R> {
    let start = Instant::now();
    let mut first: Option<Vec<Op<R>>> = None;
    let mut round_s = Vec::new();
    let mut clock = OpClock::default();
    while round_s.len() < MIN_ROUNDS
        || start.elapsed().as_secs_f64() + median(&round_s) / 2.0 < seconds
    {
        let busy_before = clock.busy_s;
        let ops = round(&mut clock);
        round_s.push(clock.busy_s - busy_before);
        let r = round_s.len() - 1;
        if r == 0 {
            out.set("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
        }
        for (j, op) in ops.iter().enumerate() {
            let problem = match (&op.result, first.as_ref().map(|f| f[j].digest)) {
                (Err(e), _) => Some(e.clone()),
                (Ok(_), Some(want)) if want != op.digest => Some(format!(
                    "digest {} differs from first round's {want}",
                    op.digest
                )),
                _ => None,
            };
            let status = if problem.is_some() { "FAILED" } else { "ok" };
            println!("{label} round {r} op {j} digest {} {status}", op.digest);
            out.op(problem.map(|p| format!("{label} round {r} op {j}: {p}")));
        }
        first.get_or_insert(ops);
    }
    eprintln!("perfbench: {label} rounds {round_s:?}");
    Rounds {
        first: first.expect("at least one round"),
        round_s,
        calib_s: clock.calib_s,
    }
}

/// What the metrics and the traced replay need from a pipeline run.
pub struct RunFacts {
    pub sim_s: f64,
    pub records_collected: usize,
    pub records_cleaned: usize,
    pub best_val_loss: f32,
    pub autonomy: f64,
}

/// The output checks every pipeline run must pass.
fn check_report(r: &PipelineReport) -> Result<(), String> {
    if let Some(stage) = STAGES.iter().find(|s| r.stage(s).is_none()) {
        return Err(format!("stage {stage} missing from the report"));
    }
    if r.records_cleaned > r.records_collected {
        return Err(format!(
            "{} records cleaned from {} collected",
            r.records_cleaned, r.records_collected
        ));
    }
    if !r.train_report.best_val_loss.is_finite() {
        return Err(format!("best_val_loss {}", r.train_report.best_val_loss));
    }
    if !(0.0..=1.0).contains(&r.eval_autonomy) {
        return Err(format!("autonomy {}", r.eval_autonomy));
    }
    Ok(())
}

/// Fingerprint of a run's sim-time outcome: stage timings, record counts,
/// training history, evaluation and the full attempt/fault log. Debug
/// formatting prints floats in shortest round-trip form, so equal digests
/// mean bit-equal values.
pub fn pipeline_digest(result: &Result<PipelineReport, PipelineError>) -> Digest {
    match result {
        Ok(r) => Digest::of(&format!(
            "{:?}|{}|{}|{:?}|{}|{:?}|{:?}|{}|{:?}",
            r.stages,
            r.records_collected,
            r.records_cleaned,
            r.train_report,
            r.eval_laps,
            r.eval_autonomy,
            r.eval_mean_speed,
            r.eval_crashes,
            r.run_log
        )),
        Err(e) => Digest::of(&format!("error|{e:?}")),
    }
}

/// A pipeline run as an operation. A typed `PipelineError` is a valid
/// outcome when `errors_valid` (chaos: it must then replay identically).
pub fn pipeline_op(
    result: Result<PipelineReport, PipelineError>,
    errors_valid: bool,
) -> Op<Option<RunFacts>> {
    let digest = pipeline_digest(&result);
    let result = match result {
        Ok(r) => check_report(&r).map(|()| {
            Some(RunFacts {
                sim_s: r.total_time().as_secs(),
                records_collected: r.records_collected,
                records_cleaned: r.records_cleaned,
                best_val_loss: r.train_report.best_val_loss,
                autonomy: r.eval_autonomy,
            })
        }),
        Err(_) if errors_valid => Ok(None),
        Err(e) => Err(format!("pipeline error: {e}")),
    };
    Op { digest, result }
}

fn pipeline_metrics(out: &mut Outcome, rounds: &Rounds<Option<RunFacts>>) {
    let facts: Vec<&RunFacts> = rounds
        .first
        .iter()
        .filter_map(|op| op.result.as_ref().ok().and_then(Option::as_ref))
        .collect();
    let pick = |f: fn(&RunFacts) -> f64| {
        if facts.is_empty() {
            f64::NAN
        } else {
            median(&facts.iter().map(|r| f(r)).collect::<Vec<_>>())
        }
    };
    rounds.set_metrics(out);
    out.set("sim_s", pick(|r| r.sim_s));
    out.set("nn.best_val_loss", pick(|r| f64::from(r.best_val_loss)));
    out.set("autonomy", pick(|r| r.autonomy));
}

/// The chaos suite's tiny config: the smallest lesson that still trains
/// and evaluates. Its seed is fixed, as in the suite; the workload seed
/// picks the fault plans.
fn chaos_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::lesson_default(77);
    cfg.collection.duration_s = 20.0;
    cfg.train.epochs = 2;
    cfg.eval_laps = 1;
    cfg.eval_max_duration_s = 10.0;
    cfg
}

fn chaos(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (pipeline, setup_s) = setup(|| Pipeline::new(circle_track(3.0, 0.8), chaos_config()));
    out.set("setup_s", setup_s);
    let plan = |i: u64| FaultPlan::from_seed(seed.wrapping_add(i), FaultConfig::chaos(0.35));
    let rounds = timed_rounds("chaos", seconds, &mut out, |clock| {
        (0..CHAOS_PLANS)
            .map(|i| {
                clock.run(|| {
                    pipeline_op(
                        pipeline.run_chaos(&mut plan(i), &RetryPolicy::default()),
                        true,
                    )
                })
            })
            .collect()
    });
    pipeline_metrics(&mut out, &rounds);
    if trace {
        replay::pipeline(&mut out, "chaos", seed, &pipeline, &rounds, plan);
    }
    out
}

pub fn zoo_model_config(seed: u64) -> ModelConfig {
    ModelConfig {
        height: 30,
        width: 40,
        channels: 1,
        seed,
        ..Default::default()
    }
}

pub fn zoo_train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: ZOO_EPOCHS,
        seed,
        ..Default::default()
    }
}

pub fn zoo_collect_config(seed: u64) -> CollectConfig {
    CollectConfig::new(CollectionPath::Simulator, ZOO_COLLECT_S, seed)
}

/// The zoo's per-kind training sets, built from one shared record set.
pub fn zoo_datasets(
    records: &[autolearn_tub::Record],
    cfg: &ModelConfig,
) -> Vec<(ModelKind, Dataset)> {
    let frames = records_to_dataset(records, cfg);
    ModelKind::all()
        .into_iter()
        .map(|kind| {
            (
                kind,
                prepare_dataset(&frames, CarModel::build(kind, cfg).input_spec()),
            )
        })
        .collect()
}

pub struct FitFacts {
    pub kind: ModelKind,
    pub model: CarModel,
    pub val_loss: f64,
    /// Modelled V100 training time, simulated seconds.
    pub sim_s: f64,
    pub examples_seen: u64,
    pub scratch_peak_bytes: u64,
}

/// One zoo fit as an operation: a fresh model of `kind` trained on `data`.
pub fn fit_op(kind: ModelKind, seed: u64, data: &Dataset) -> Op<FitFacts> {
    let train = zoo_train_config(seed);
    let mut model = CarModel::build(kind, &zoo_model_config(seed));
    match Trainer::new(train.clone()).fit(&mut model, data) {
        Ok(report) => {
            let digest = Digest::of(&format!("{kind}|{report:?}"));
            let cost = TrainingCostModel::new(
                model.flops_per_inference(),
                report.examples_seen,
                train.batch_size as u64,
            );
            let sim_s = training_time(&cost, &ComputeDevice::of_gpu(GpuKind::V100)).as_secs();
            let loss = report.best_val_loss;
            let result = if loss.is_finite() {
                Ok(FitFacts {
                    kind,
                    model,
                    val_loss: f64::from(loss),
                    sim_s,
                    examples_seen: report.examples_seen,
                    scratch_peak_bytes: report.scratch_peak_bytes,
                })
            } else {
                Err(format!("{kind}: best_val_loss {loss}"))
            };
            Op { digest, result }
        }
        Err(errs) => Op {
            digest: Digest::of(&format!("{kind}|rejected|{errs:?}")),
            result: Err(format!("{kind}: model graph rejected")),
        },
    }
}

fn zoo(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let model_cfg = zoo_model_config(seed);
    let ((track, records, datasets), setup_s) = setup(|| {
        let track: Track = paper_oval();
        let records = collect_session(&track, &zoo_collect_config(seed)).records;
        let datasets = zoo_datasets(&records, &model_cfg);
        (track, records, datasets)
    });
    out.set("setup_s", setup_s);
    let rounds = timed_rounds("zoo", seconds, &mut out, |clock| {
        datasets
            .iter()
            .map(|(kind, data)| clock.run(|| fit_op(*kind, seed, data)))
            .collect()
    });
    rounds.set_metrics(&mut out);
    let round_s = rounds.raw_s();
    let expected: Vec<Digest> = rounds.first.iter().map(|op| op.digest).collect();
    let fits: Vec<FitFacts> = rounds
        .first
        .into_iter()
        .filter_map(|op| op.result.ok())
        .collect();
    let complete = fits.len() == datasets.len();
    let losses: Vec<f64> = fits.iter().map(|f| f.val_loss).collect();
    out.set("nn.best_val_loss", mean(&losses));

    // One evaluation lap per model of the first round, outside the timed
    // phase. Simulated time is the modelled training plus these laps.
    let mut sim_s: f64 = fits.iter().map(|f| f.sim_s).sum();
    let mut spans = crate::spans::Spans::new();
    let mut autonomy = Vec::new();
    let mut eval_s = 0.0;
    let mut pilot_ns = Vec::new();
    for fit in fits {
        let camera = zoo_collect_config(seed).camera;
        let (eval, secs) = spans.time(&format!("evaluate {}", fit.kind), |_| {
            replay::evaluate(&track, camera, fit.model, 1, ZOO_EVAL_S)
        });
        let a = eval.session.autonomy();
        if !(0.0..=1.0).contains(&a) {
            out.problems.push(format!("zoo {}: autonomy {a}", fit.kind));
        }
        autonomy.push(a);
        sim_s += eval.session.duration_s;
        eval_s += secs;
        pilot_ns.extend(eval.control_ns);
    }
    out.set("sim_s", if complete { sim_s } else { f64::NAN });
    out.set(
        "autonomy",
        if complete { mean(&autonomy) } else { f64::NAN },
    );
    if trace {
        out.set("core.evaluate_s", eval_s);
        out.set("core.model_pilot_us", median(&pilot_ns) / 1e3);
        replay::zoo(
            &mut out,
            spans,
            seed,
            &track,
            records.len(),
            &expected,
            round_s,
        );
    }
    out
}
