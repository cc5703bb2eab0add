//! Property tests: the symbolic zoo plan matches the real models.
//!
//! For every zoo architecture and randomized viable camera geometry, the
//! static plan ([`CarModel::plan`]) must agree *exactly* with the model
//! [`CarModel::build`] constructs: same input shape, same parameter count
//! (a parameter-count match across random shapes pins every inferred
//! intermediate shape), and a real forward pass on tub-shaped data must
//! succeed. The same plan must also clear the pipeline contract pass
//! ([`validate_pipeline`]) with the matching frame contract — and fail it
//! when the tub geometry disagrees.

use autolearn::dataset::records_to_dataset;
use autolearn_nn::models::{prepare_dataset, CarModel, DonkeyModel, ModelConfig, ModelKind};
use autolearn_nn::{
    standard_stages, validate_model, validate_pipeline, DType, FrameContract,
};
use autolearn_tub::Record;
use autolearn_util::Image;
use proptest::prelude::*;

fn model_cfg(c: usize, h: usize, w: usize, seq_len: usize, history: usize) -> ModelConfig {
    ModelConfig {
        channels: c,
        height: h,
        width: w,
        seq_len,
        history,
        ..Default::default()
    }
}

/// The input shape `CarModel::build` actually feeds the trunk, batch 1.
fn expected_input(kind: ModelKind, cfg: &ModelConfig) -> Vec<usize> {
    let (c, h, w, t) = (cfg.channels, cfg.height, cfg.width, cfg.seq_len);
    match kind {
        ModelKind::Rnn => vec![1, t, c, h, w],
        ModelKind::ThreeD => vec![1, c, t, h, w],
        _ => vec![1, c, h, w],
    }
}

fn frames(cfg: &ModelConfig) -> FrameContract {
    FrameContract {
        channels: cfg.channels,
        height: cfg.height,
        width: cfg.width,
        dtype: DType::F32,
    }
}

fn tub_records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut img = Image::new(16, 12, 3);
            img.data.fill((i * 17 % 251) as u8);
            Record::new(i as u64, ((i % 5) as f32 - 2.0) / 2.0, 0.5, i as u64 * 50, img)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Plan-inferred parameters and input shapes match the built model,
    /// and the contract pass accepts the matching frame geometry — for
    /// all six zoo kinds over random viable camera sizes.
    #[test]
    fn plan_matches_built_model_for_all_kinds(
        c in prop::sample::select(vec![1usize, 3]),
        h in 18usize..30,
        w in 18usize..40,
        seq_len in 3usize..6,
        history in 1usize..5,
    ) {
        let cfg = model_cfg(c, h, w, seq_len, history);
        for kind in ModelKind::all() {
            let spec = CarModel::plan(kind, &cfg);
            prop_assert_eq!(&spec.input, &expected_input(kind, &cfg), "{:?}", kind);

            let report = validate_model(&spec)
                .unwrap_or_else(|e| panic!("{kind:?}: plan failed validation: {e:?}"));
            let mut model = CarModel::build(kind, &cfg);
            prop_assert_eq!(
                report.total_params as usize,
                model.param_count(),
                "plan params diverge from built model for {:?} at {}x{}x{}",
                kind, c, h, w
            );

            // The same plan clears the full pipeline contract.
            let contract = validate_pipeline(
                &standard_stages(true),
                &spec,
                CarModel::frame_layout(kind),
                &frames(&cfg),
            )
            .unwrap_or_else(|e| panic!("{kind:?}: contract pass failed: {e:?}"));
            prop_assert_eq!(contract.total_params, report.total_params);
            prop_assert_eq!(contract.feature_dim, report.feature_dim);
        }
    }

    /// A real forward pass over tub-shaped data works for every kind at
    /// the planned shapes, and predictions stay in control range.
    #[test]
    fn forward_pass_agrees_with_plan(
        c in prop::sample::select(vec![1usize, 3]),
        h in 18usize..26,
        w in 18usize..30,
        seq_len in 3usize..5,
    ) {
        let cfg = model_cfg(c, h, w, seq_len, 2);
        let raw = records_to_dataset(&tub_records(12), &cfg);
        for kind in ModelKind::all() {
            let mut model = CarModel::build(kind, &cfg);
            let data = prepare_dataset(&raw, model.input_spec());
            let batches = data.batches(2, false, 0);
            prop_assert!(!batches.is_empty(), "{:?}: no batches", kind);
            let preds = model.predict(&batches[0].inputs);
            prop_assert_eq!(preds.len(), batches[0].len(), "{:?}", kind);
            for (s, t) in preds {
                prop_assert!((-1.0..=1.0).contains(&s), "{:?}: steering {}", kind, s);
                prop_assert!((0.0..=1.0).contains(&t), "{:?}: throttle {}", kind, t);
                prop_assert!(s.is_finite() && t.is_finite(), "{:?}", kind);
            }
        }
    }

    /// The contract pass rejects a tub whose frame geometry disagrees
    /// with the model plan, for every kind.
    #[test]
    fn contract_rejects_mismatched_tub_geometry(
        c in prop::sample::select(vec![1usize, 3]),
        h in 18usize..26,
        w in 18usize..30,
    ) {
        let cfg = model_cfg(c, h, w, 3, 2);
        for kind in ModelKind::all() {
            let spec = CarModel::plan(kind, &cfg);
            let mut wrong = frames(&cfg);
            wrong.width += 1;
            let errs = validate_pipeline(
                &standard_stages(true),
                &spec,
                CarModel::frame_layout(kind),
                &wrong,
            )
            .expect_err("geometry mismatch must be rejected");
            prop_assert!(
                errs.iter().any(|e| e.message.contains("shape mismatch")),
                "{:?}: {:?}", kind, errs
            );
        }
    }
}

/// FNV-1a-64 over the little-endian bits of every weight, in
/// `state_dict` order.
fn weights_digest(model: &mut CarModel) -> u64 {
    model
        .state_dict()
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A small three-channel camera with live dropout in the trunk (and the
/// Memory merge chain).
fn small_dropout_cfg() -> ModelConfig {
    ModelConfig {
        channels: 3,
        height: 20,
        width: 28,
        seq_len: 4,
        history: 3,
        dropout: 0.25,
        seed: 7,
        ..Default::default()
    }
}

/// Pins what `CarModel::build` produces for every kind, so a refactor of
/// how the zoo is constructed cannot move a single weight bit: the
/// parameter count and the initial-weights digest at two configs, plus,
/// at the dropout config, the weights after one Adam step on a fixed
/// batch — which also pins the dropout streams' seeds.
#[test]
fn built_weights_match_pinned_digests() {
    use autolearn_nn::Adam;

    // (kind, params, initial digest, digest after one step) per config.
    let pinned: [(ModelConfig, [(ModelKind, usize, u64, Option<u64>); 6]); 2] = [
        (
            small_dropout_cfg(),
            [
                (ModelKind::Linear, 10706, 0x30e7_4f20_8bd4_f15a, Some(0x79f7_8961_2220_0e66)),
                (ModelKind::Memory, 15250, 0x417c_9cfc_1a2c_d2f7, Some(0x7f03_d02d_031d_ed2d)),
                (ModelKind::ThreeD, 34442, 0x7d07_eb68_3941_6084, Some(0xba25_b52c_1c5f_55eb)),
                (ModelKind::Categorical, 12851, 0xc8d1_6422_5260_36a0, Some(0xe6dc_7af7_536b_5cd1)),
                (ModelKind::Inferred, 10641, 0xe4b3_5366_9ed3_1888, Some(0x4fd6_3029_9f68_7f34)),
                (ModelKind::Rnn, 23058, 0x1cf5_51b4_88ba_2aae, Some(0x3d8b_041a_5990_6c5f)),
            ],
        ),
        (
            ModelConfig::default(),
            [
                (ModelKind::Linear, 18498, 0xb09a_6969_6eaa_710d, None),
                (ModelKind::Memory, 23170, 0x72d1_a963_265b_e79b, None),
                (ModelKind::ThreeD, 52074, 0xa58e_870f_365f_ad7a, None),
                (ModelKind::Categorical, 20643, 0x4697_0f09_be88_3c77, None),
                (ModelKind::Inferred, 18433, 0xd788_dff4_c4c1_27b5, None),
                (ModelKind::Rnn, 30850, 0xb602_8e70_770d_061f, None),
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (cfg, kinds) in &pinned {
        let raw = records_to_dataset(&tub_records(12), cfg);
        for &(kind, params, initial, stepped) in kinds {
            let mut model = CarModel::build(kind, cfg);
            let got_params = model.param_count();
            let got_initial = weights_digest(&mut model);
            let got_stepped = stepped.map(|_| {
                let data = prepare_dataset(&raw, model.input_spec());
                let batch = &data.batches(4, false, 0)[0];
                model.train_batch(batch, &mut Adam::new(1e-2));
                weights_digest(&mut model)
            });
            if (got_params, got_initial, got_stepped) != (params, initial, stepped) {
                mismatches.push(format!(
                    "{kind:?} at {}x{}x{}: params {got_params}, initial {got_initial:016x}, \
                     stepped {got_stepped:016x?}; pinned {params}, {initial:016x}, {stepped:016x?}",
                    cfg.channels, cfg.height, cfg.width
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
