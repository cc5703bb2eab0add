//! Sequential layer container.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// A straight chain of layers. The DonkeyCar models are built as a shared
/// `Sequential` trunk plus one `Sequential` per output head.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new() -> Sequential {
        Sequential { layers: Vec::new() }
    }

    /// Builder-style push.
    pub fn push(mut self, layer: impl Layer + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// One-line-per-layer summary with output shapes, like Keras'
    /// `model.summary()`.
    pub fn summary(&mut self, input_shape: &[usize]) -> String {
        let mut shape = input_shape.to_vec();
        let mut out = String::new();
        for layer in &mut self.layers {
            shape = layer.output_shape(&shape);
            out.push_str(&format!("{:<40} -> {:?}\n", layer.name(), shape));
        }
        out
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<Box<dyn Layer>> for Sequential {
    fn from_iter<I: IntoIterator<Item = Box<dyn Layer>>>(layers: I) -> Self {
        Sequential {
            layers: layers.into_iter().collect(),
        }
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        // First layer reads `x` directly (no entry clone); later layers
        // consume the previous layer's owned output.
        let mut iter = self.layers.iter_mut();
        let mut cur = match iter.next() {
            Some(first) => first.forward(x, train),
            None => return x.clone(),
        };
        for layer in iter {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut iter = self.layers.iter_mut().rev();
        let mut cur = match iter.next() {
            Some(last) => last.backward(grad_out),
            None => return grad_out.clone(),
        };
        for layer in iter {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }

    fn flops_per_example(&self, input_shape: &[usize]) -> u64 {
        let mut shape = input_shape.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.flops_per_example(&shape);
            shape = layer.output_shape(&shape);
        }
        total
    }

    fn scratch_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.scratch_bytes()).sum()
    }

    fn name(&self) -> String {
        format!("Sequential[{}]", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gradcheck, Activation, ActivationLayer, Conv2D, Dense, Flatten};
    use autolearn_util::rng::rng_from_seed;

    fn tiny_convnet(rng: &mut impl rand::Rng) -> Sequential {
        Sequential::new()
            .push(Conv2D::new(1, 2, 3, 2, rng))
            .push(ActivationLayer::new(Activation::Relu))
            .push(Flatten::new())
            .push(Dense::new(2 * 3 * 3, 4, rng))
            .push(ActivationLayer::new(Activation::Tanh))
    }

    #[test]
    fn forward_through_chain() {
        let mut rng = rng_from_seed(1);
        let mut net = tiny_convnet(&mut rng);
        let x = Tensor::randn(&[2, 1, 7, 7], 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4]);
        assert_eq!(net.output_shape(&[2, 1, 7, 7]), vec![2, 4]);
    }

    #[test]
    fn gradcheck_whole_network() {
        let mut rng = rng_from_seed(2);
        let mut net = tiny_convnet(&mut rng);
        let x = Tensor::randn(&[2, 1, 7, 7], 0.5, &mut rng);
        gradcheck::check_input_grad(&mut net, &x, 5e-2);
        gradcheck::check_param_grads(&mut net, &x, 5e-2);
    }

    #[test]
    fn params_flow_through() {
        let mut rng = rng_from_seed(3);
        let mut net = tiny_convnet(&mut rng);
        // conv w+b, dense w+b.
        assert_eq!(net.params_mut().len(), 4);
        assert!(net.param_count() > 0);
        net.zero_grads();
        for p in net.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn flops_accumulate() {
        let mut rng = rng_from_seed(4);
        let net = tiny_convnet(&mut rng);
        let f = net.flops_per_example(&[1, 1, 7, 7]);
        assert!(f > 0);
    }

    #[test]
    fn summary_lists_layers() {
        let mut rng = rng_from_seed(5);
        let mut net = tiny_convnet(&mut rng);
        let s = net.summary(&[1, 1, 7, 7]);
        assert!(s.contains("Conv2D"));
        assert!(s.contains("Dense"));
        assert_eq!(s.lines().count(), 5);
    }
}
