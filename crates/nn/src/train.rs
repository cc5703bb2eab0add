//! Training loop with validation and early stopping.
//!
//! Mirrors the DonkeyCar `donkey train` behaviour the paper's students run:
//! Adam, shuffled minibatches, per-epoch validation, early stopping on the
//! validation loss with a small patience.

use crate::data::Dataset;
use crate::models::DonkeyModel;
use crate::optim::{Adam, Optimizer};
use crate::schedule::{LrSchedule, LrScheduler};
use autolearn_analyze::graph::{validate_model, GraphError};
use autolearn_obs::{AttrValue, Obs};
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// Stop after this many epochs without validation improvement
    /// (DonkeyCar default 5). `None` disables early stopping.
    pub patience: Option<usize>,
    /// Fraction of data used for training (rest validates).
    pub train_frac: f64,
    /// Learning-rate schedule applied over the run.
    pub lr_schedule: LrSchedule,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            learning_rate: 1e-3,
            patience: Some(5),
            train_frac: 0.8,
            lr_schedule: LrSchedule::Constant,
            seed: 0,
        }
    }
}

/// Per-epoch record.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochStats {
    pub epoch: usize,
    pub train_loss: f32,
    pub val_loss: f32,
}

/// Outcome of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    pub history: Vec<EpochStats>,
    pub best_val_loss: f32,
    pub best_epoch: usize,
    pub epochs_ran: usize,
    pub stopped_early: bool,
    /// Total examples processed (forward+backward), for the device-time
    /// model in `autolearn-cloud`.
    pub examples_seen: u64,
    /// Peak bytes held by the model's grow-only scratch arenas over the
    /// run (measured after training; the arenas never shrink, so the
    /// final footprint is the peak).
    pub scratch_peak_bytes: u64,
}

/// Trains a [`DonkeyModel`] on a prepared [`Dataset`].
pub struct Trainer {
    pub config: TrainConfig,
}

impl Trainer {
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config }
    }

    /// Fit `model` on `data` (already transformed to the model's input
    /// spec), observing into a throw-away [`Obs`]. See
    /// [`Trainer::fit_observed`].
    pub fn fit(
        &self,
        model: &mut dyn DonkeyModel,
        data: &Dataset,
    ) -> Result<TrainReport, Vec<GraphError>> {
        self.fit_observed(model, data, &mut Obs::new())
    }

    /// Fit `model` on `data` (already transformed to the model's input
    /// spec) with Adam on a seeded train/val split. Returns the training
    /// report; the model is left with the final-epoch weights. If the model
    /// publishes a graph spec (via [`DonkeyModel::graph_spec`]) it is
    /// statically validated first and a broken graph is rejected before any
    /// weight update happens.
    ///
    /// Telemetry: wraps the run in a `fit` span, emits one `epoch` event
    /// per epoch (train/val loss), feeds the `nn.epoch_train_loss` /
    /// `nn.epoch_val_loss` histograms, and tracks the peak scratch-arena
    /// footprint as the `nn.scratch_peak_bytes` gauge. Nothing on `obs`
    /// feeds back into the weight trajectory.
    pub fn fit_observed(
        &self,
        model: &mut dyn DonkeyModel,
        data: &Dataset,
        obs: &mut Obs,
    ) -> Result<TrainReport, Vec<GraphError>> {
        assert!(data.len() >= 2, "dataset too small to split");
        let cfg = &self.config;
        let (train, val) = data.split(cfg.train_frac, cfg.seed);
        let mut opt = Adam::new(cfg.learning_rate);
        self.fit_loop(model, &train, &val, &mut opt, obs)
    }

    fn fit_loop(
        &self,
        model: &mut dyn DonkeyModel,
        train: &Dataset,
        val: &Dataset,
        opt: &mut Adam,
        obs: &mut Obs,
    ) -> Result<TrainReport, Vec<GraphError>> {
        if let Some(spec) = model.graph_spec() {
            validate_model(&spec)?;
        }
        let fit_span = obs.begin_span("fit");
        let cfg = &self.config;
        let mut history = Vec::new();
        let mut best_val = f32::INFINITY;
        let mut best_epoch = 0usize;
        let mut since_best = 0usize;
        let mut examples_seen = 0u64;
        let mut stopped_early = false;
        let mut scheduler = LrScheduler::new(cfg.lr_schedule, cfg.learning_rate);
        let mut last_val = f32::INFINITY;

        for epoch in 0..cfg.epochs {
            opt.set_learning_rate(scheduler.lr_for_epoch(epoch, cfg.epochs, last_val));
            let mut train_loss = 0.0f32;
            let mut batches = 0usize;
            for batch in train.batches(cfg.batch_size, true, cfg.seed ^ epoch as u64) {
                train_loss += model.train_batch(&batch, opt);
                examples_seen += batch.len() as u64;
                batches += 1;
            }
            train_loss /= batches.max(1) as f32; // cast: batch count, exact in f32

            let val_loss = evaluate(model, val, cfg.batch_size);
            last_val = val_loss;
            history.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
            });
            obs.event(
                "epoch",
                vec![
                    ("epoch".to_string(), AttrValue::Int(epoch as i64)),
                    (
                        "train_loss".to_string(),
                        AttrValue::F64(f64::from(train_loss)),
                    ),
                    ("val_loss".to_string(), AttrValue::F64(f64::from(val_loss))),
                ],
            );
            obs.observe_with("nn.epoch_train_loss", LOSS_BUCKETS, f64::from(train_loss));
            obs.observe_with("nn.epoch_val_loss", LOSS_BUCKETS, f64::from(val_loss));
            obs.gauge_max("nn.scratch_peak_bytes", model.scratch_bytes() as f64);

            if val_loss < best_val {
                best_val = val_loss;
                best_epoch = epoch;
                since_best = 0;
            } else {
                since_best += 1;
                if let Some(patience) = cfg.patience {
                    if since_best >= patience {
                        stopped_early = true;
                        break;
                    }
                }
            }
        }

        let scratch_peak_bytes = model.scratch_bytes() as u64;
        if stopped_early {
            obs.event(
                "early-stop",
                vec![("best_epoch".to_string(), AttrValue::Int(best_epoch as i64))],
            );
        }
        obs.counter_add("nn.examples_seen", examples_seen);
        obs.gauge_max("nn.scratch_peak_bytes", scratch_peak_bytes as f64);
        obs.gauge_set("nn.best_val_loss", f64::from(best_val));
        obs.span_attr(fit_span, "epochs_ran", AttrValue::Int(history.len() as i64));
        obs.span_attr(fit_span, "examples_seen", AttrValue::UInt(examples_seen));
        obs.end_span(fit_span);
        Ok(TrainReport {
            epochs_ran: history.len(),
            history,
            best_val_loss: best_val,
            best_epoch,
            stopped_early,
            examples_seen,
            scratch_peak_bytes,
        })
    }
}

/// Histogram bounds for per-epoch losses (MSE-scale, unitless).
const LOSS_BUCKETS: &[f64] = &[0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];

/// Mean per-batch validation loss.
pub fn evaluate(model: &mut dyn DonkeyModel, data: &Dataset, batch_size: usize) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let batches = data.batches(batch_size, false, 0);
    let total: f32 = batches.iter().map(|b| model.eval_batch(b)).sum();
    total / batches.len() as f32 // cast: batch count, exact in f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{prepare_dataset, CarModel, ModelConfig, ModelKind};
    use crate::tensor::Tensor;
    use autolearn_util::rng::rng_from_seed;
    use rand::Rng;

    fn cfg() -> ModelConfig {
        ModelConfig {
            height: 24,
            width: 32,
            dropout: 0.0,
            ..Default::default()
        }
    }

    fn dataset(n: usize) -> Dataset {
        let c = cfg();
        let mut rng = rng_from_seed(5);
        let mut frames = Vec::new();
        let mut steer = Vec::new();
        let mut throt = Vec::new();
        for _ in 0..n {
            let s: f32 = rng.gen_range(-1.0..1.0);
            let band = (((s + 1.0) / 2.0) * (c.width as f32 - 1.0)) as usize;
            let mut img = vec![0.0f32; c.height * c.width];
            for y in 0..c.height {
                img[y * c.width + band] = 1.0;
            }
            frames.push(Tensor::from_vec(&[1, c.height, c.width], img));
            steer.push(s);
            throt.push(0.5);
        }
        Dataset::new(Tensor::stack(&frames), steer, throt)
    }

    #[test]
    fn fit_improves_validation_loss() {
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(100), model.input_spec());
        let trainer = Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 16,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data).expect("graph validates");
        assert_eq!(report.history.len(), report.epochs_ran);
        let first = report.history.first().unwrap().val_loss;
        assert!(report.best_val_loss < first);
        assert!(report.examples_seen > 0);
    }

    #[test]
    fn early_stopping_triggers_with_zero_patience() {
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(40), model.input_spec());
        // patience 0: stop at the first non-improving epoch.
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            batch_size: 8,
            patience: Some(0),
            learning_rate: 0.5, // absurd LR forces divergence quickly
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data).expect("graph validates");
        assert!(report.stopped_early);
        assert!(report.epochs_ran < 50);
    }

    #[test]
    fn no_early_stop_when_disabled() {
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(30), model.input_spec());
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 8,
            patience: None,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data).expect("graph validates");
        assert_eq!(report.epochs_ran, 3);
        assert!(!report.stopped_early);
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let empty = dataset(4).subset(&[]);
        assert_eq!(evaluate(&mut model, &empty, 8), 0.0);
    }

    #[test]
    fn cosine_schedule_trains_and_converges() {
        use crate::schedule::LrSchedule;
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(80), model.input_spec());
        let trainer = Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 16,
            lr_schedule: LrSchedule::Cosine { floor: 0.05 },
            patience: None,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data).expect("graph validates");
        let first = report.history.first().unwrap().val_loss;
        assert!(report.best_val_loss <= first);
    }

    #[test]
    fn plateau_schedule_reduces_lr_on_stall() {
        use crate::optim::Adam;
        use crate::schedule::LrSchedule;
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(40), model.input_spec());
        let (train, val) = data.split(0.8, 0);
        // Absurd LR so validation stalls immediately, triggering reductions.
        let mut opt = Adam::new(0.5);
        let trainer = Trainer::new(TrainConfig {
            epochs: 8,
            batch_size: 8,
            learning_rate: 0.5,
            lr_schedule: LrSchedule::ReduceOnPlateau { patience: 1 },
            patience: None,
            ..Default::default()
        });
        let _ = trainer.fit_loop(&mut model, &train, &val, &mut opt, &mut Obs::new());
        assert!(
            opt.learning_rate() < 0.5,
            "plateau schedule never reduced: {}",
            opt.learning_rate()
        );
    }

    #[test]
    fn scratch_arena_is_stable_across_epochs() {
        // Steady-state training must not grow any layer's scratch arena:
        // one epoch warms every (layer, batch-shape) buffer, after which
        // the footprint is pinned.
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(40), model.input_spec());
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 8,
            patience: None,
            ..Default::default()
        });
        trainer.fit(&mut model, &data).expect("graph validates");
        let warm = model.scratch_bytes();
        assert!(warm > 0, "conv/dense layers should report scratch");
        trainer.fit(&mut model, &data).expect("graph validates");
        trainer.fit(&mut model, &data).expect("graph validates");
        assert_eq!(
            model.scratch_bytes(),
            warm,
            "scratch must be allocated once per (layer, batch-shape)"
        );
    }

    #[test]
    fn observed_fit_reports_epochs() {
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(60), model.input_spec());
        let trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 16,
            patience: None,
            ..Default::default()
        });
        let mut obs = Obs::new();
        let observed = trainer
            .fit_observed(&mut model, &data, &mut obs)
            .expect("graph validates");
        assert!(observed.scratch_peak_bytes > 0);
        assert_eq!(
            observed.scratch_peak_bytes,
            obs.metrics().gauge("nn.scratch_peak_bytes") as u64
        );
        // One fit span, one epoch event per epoch, exact loss round-trip.
        assert_eq!(obs.trace().spans_named("fit").count(), 1);
        let epochs: Vec<&autolearn_obs::Event> = obs.trace().events_named("epoch").collect();
        assert_eq!(epochs.len(), observed.epochs_ran);
        let first_loss = autolearn_obs::attr(&epochs[0].attrs, "val_loss")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(first_loss, f64::from(observed.history[0].val_loss));
        assert_eq!(obs.metrics().counter("nn.examples_seen"), observed.examples_seen);
    }

    #[test]
    fn unobserved_fit_still_reports_scratch_peak() {
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(40), model.input_spec());
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 8,
            patience: None,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data).expect("graph validates");
        assert_eq!(report.scratch_peak_bytes, model.scratch_bytes() as u64);
        assert!(report.scratch_peak_bytes > 0);
    }

    #[test]
    fn best_epoch_tracks_minimum() {
        let mut model = CarModel::build(ModelKind::Linear, &cfg());
        let data = prepare_dataset(&dataset(60), model.input_spec());
        let trainer = Trainer::new(TrainConfig {
            epochs: 5,
            batch_size: 16,
            patience: None,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data).expect("graph validates");
        let min_epoch = report
            .history
            .iter()
            .min_by(|a, b| a.val_loss.partial_cmp(&b.val_loss).unwrap())
            .unwrap()
            .epoch;
        assert_eq!(report.best_epoch, min_epoch);
    }
}
