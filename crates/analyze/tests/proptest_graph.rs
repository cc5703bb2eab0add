//! Property tests for the static model-graph validator: random Sequential
//! chains that are consistent by construction must validate, and a single
//! corrupted dimension anywhere in the chain must be caught.

use autolearn_analyze::graph::{validate_model, LayerSpec, ModelSpec};
use proptest::prelude::*;

/// A dense chain threaded through `dims`, with deterministic "decoration"
/// (activation / dropout / batchnorm) between the matmuls so the chain
/// exercises the pass-through layers too.
fn dense_chain(dims: &[usize]) -> Vec<LayerSpec> {
    let mut layers = Vec::new();
    for (i, pair) in dims.windows(2).enumerate() {
        layers.push(LayerSpec::Dense {
            input: pair[0],
            output: pair[1],
        });
        match i % 3 {
            0 => layers.push(LayerSpec::Activation {
                kind: "relu".into(),
            }),
            1 => layers.push(LayerSpec::Dropout { rate: 0.25 }),
            _ => layers.push(LayerSpec::BatchNorm1d { features: pair[1] }),
        }
    }
    layers
}

fn model(input: Vec<usize>, layers: Vec<LayerSpec>, feat: usize) -> ModelSpec {
    ModelSpec {
        name: "prop".into(),
        input,
        layers,
        aux_width: None,
        merge: Vec::new(),
        heads: vec![(
            "steering".into(),
            vec![
                LayerSpec::Dense {
                    input: feat,
                    output: 1,
                },
                LayerSpec::Activation {
                    kind: "tanh".into(),
                },
            ],
        )],
        declared_feature_dim: Some(feat),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any dense chain whose dimensions agree by construction validates,
    /// and the report's feature dim is the chain's final width.
    #[test]
    fn consistent_chains_validate(dims in prop::collection::vec(1usize..64, 2..7), batch in 1usize..8) {
        let feat = *dims.last().unwrap();
        let spec = model(vec![batch, dims[0]], dense_chain(&dims), feat);
        let report = validate_model(&spec).expect("consistent chain must validate");
        prop_assert_eq!(report.feature_dim, feat);
        prop_assert_eq!(report.total_params, spec.total_params());
    }

    /// Corrupting any single Dense input width breaks validation — the
    /// validator may not silently accept a mismatched chain.
    #[test]
    fn corrupted_chains_are_rejected(
        dims in prop::collection::vec(1usize..64, 2..7),
        which in 0usize..5,
        bump in 1usize..17,
    ) {
        let feat = *dims.last().unwrap();
        let mut layers = dense_chain(&dims);
        // Pick the `which`-th Dense (wrapping) and widen its input.
        let dense_idxs: Vec<usize> = layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, LayerSpec::Dense { .. }))
            .map(|(i, _)| i)
            .collect();
        let target = dense_idxs[which % dense_idxs.len()];
        if let LayerSpec::Dense { input, .. } = &mut layers[target] {
            *input += bump;
        }
        let spec = model(vec![1, dims[0]], layers, feat);
        prop_assert!(validate_model(&spec).is_err());
    }

    /// A Chain wrapper propagates shapes exactly like its flattened layers.
    #[test]
    fn chain_is_transparent(dims in prop::collection::vec(1usize..32, 2..6)) {
        let layers = dense_chain(&dims);
        let input = vec![2usize, dims[0]];
        let folded = layers
            .iter()
            .try_fold(input.clone(), |s, l| l.output_shape(&s));
        let chained = LayerSpec::Chain(layers.clone()).output_shape(&input);
        prop_assert_eq!(folded, chained);
    }

    /// Conv stacks: geometry that fits validates; a kernel larger than the
    /// image it receives is always rejected.
    #[test]
    fn conv_geometry_is_checked(h in 1usize..40, w in 1usize..40, k in 1usize..8) {
        let layers = vec![
            LayerSpec::Conv2D { in_channels: 1, filters: 4, kernel: k, stride: 1 },
            LayerSpec::Flatten,
        ];
        let fits = h >= k && w >= k;
        let out = LayerSpec::Chain(layers).output_shape(&[1, 1, h, w]);
        prop_assert_eq!(out.is_ok(), fits, "h={} w={} k={} -> {:?}", h, w, k, out);
        if let Ok(shape) = out {
            prop_assert_eq!(shape, vec![1, 4 * (h - k + 1) * (w - k + 1)]);
        }
    }

    /// Parameter arithmetic is additive over chain composition.
    #[test]
    fn params_are_additive(dims in prop::collection::vec(1usize..32, 2..6)) {
        let layers = dense_chain(&dims);
        let by_sum: u64 = layers.iter().map(LayerSpec::param_count).sum();
        prop_assert_eq!(LayerSpec::Chain(layers).param_count(), by_sum);
    }
}
