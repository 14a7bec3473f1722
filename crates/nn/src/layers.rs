//! Layers: linear maps and the multi-layer perceptrons every HaLk operator
//! is built from (Eq. 2, 7, 9, 12, 14 of the paper all say "MLP").

use crate::init;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::Rng;

/// Activation functions available between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Rectified linear unit (the default hidden activation).
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no non-linearity).
    None,
}

impl Act {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Act::Relu => tape.relu(x),
            Act::Tanh => tape.tanh(x),
            Act::Sigmoid => tape.sigmoid(x),
            Act::None => x,
        }
    }
}

/// A dense affine layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight parameter, `in_dim × out_dim`.
    pub w: ParamId,
    /// Bias parameter, `1 × out_dim`.
    pub b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = store.add(init::xavier_uniform(in_dim, out_dim, rng));
        let b = store.add(crate::tensor::Tensor::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// [`Linear::new`] with zeroed weights: registers the same shapes in
    /// the same order without paying the Xavier RNG draws. For loaders
    /// that immediately overwrite every value (snapshot `from_parts`),
    /// where the init would be allocated and thrown away.
    pub fn zeroed(store: &mut ParamStore, in_dim: usize, out_dim: usize) -> Self {
        let w = store.add(crate::tensor::Tensor::zeros(in_dim, out_dim));
        let b = store.add(crate::tensor::Tensor::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass for a `B × in_dim` input ([`Tape::affine`]: recorded
    /// for backward on a training tape, read in place on a forward-only
    /// one).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        tape.affine(store, x, self.w, self.b)
    }
}

/// A multi-layer perceptron: `n_hidden` hidden layers with a fixed hidden
/// width and activation, followed by a linear output layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    act: Act,
}

impl Mlp {
    /// Builds an MLP `in_dim → hidden (×n_hidden) → out_dim`.
    ///
    /// `n_hidden == 0` degenerates to a single linear layer.
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        n_hidden: usize,
        act: Act,
        rng: &mut impl Rng,
    ) -> Self {
        let mut layers = Vec::with_capacity(n_hidden + 1);
        let mut cur = in_dim;
        for _ in 0..n_hidden {
            layers.push(Linear::new(store, cur, hidden, rng));
            cur = hidden;
        }
        layers.push(Linear::new(store, cur, out_dim, rng));
        Self { layers, act }
    }

    /// [`Mlp::new`] with zeroed layers ([`Linear::zeroed`]): identical
    /// parameter registration order and shapes, no RNG cost. Only sound
    /// when every registered value is subsequently replaced.
    pub fn zeroed(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        n_hidden: usize,
        act: Act,
    ) -> Self {
        let mut layers = Vec::with_capacity(n_hidden + 1);
        let mut cur = in_dim;
        for _ in 0..n_hidden {
            layers.push(Linear::zeroed(store, cur, hidden));
            cur = hidden;
        }
        layers.push(Linear::zeroed(store, cur, out_dim));
        Self { layers, act }
    }

    /// Forward pass; the activation is applied after every layer except the
    /// last, which stays linear so downstream squashers (`g`, `σ`) control
    /// the output range.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, store, h);
            if i + 1 < self.layers.len() {
                h = self.act.apply(tape, h);
            }
        }
        h
    }

    /// Scales the final layer's weights and bias by `factor`. With a small
    /// factor the MLP starts as (approximately) the zero function — the
    /// right initialization when its output is a *residual correction* on
    /// top of a closed-form seed (rotation, complement), so training starts
    /// from the geometric prior instead of noise.
    pub fn scale_last_layer(&self, store: &mut ParamStore, factor: f32) {
        let last = self.layers.last().expect("mlp has at least one layer");
        store.value_mut(last.w).scale_assign(factor);
        store.value_mut(last.b).scale_assign(factor);
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers
            .last()
            .expect("mlp has at least one layer")
            .out_dim
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers
            .first()
            .expect("mlp has at least one layer")
            .in_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let l = Linear::new(&mut s, 3, 5, &mut rng);
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(4, 3));
        let y = l.forward(&mut t, &s, x);
        assert_eq!((t.value(y).rows, t.value(y).cols), (4, 5));
    }

    #[test]
    fn mlp_shapes_and_depth() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = ParamStore::new();
        let m = Mlp::new(&mut s, 4, 8, 2, 2, Act::Relu, &mut rng);
        assert_eq!(m.in_dim(), 4);
        assert_eq!(m.out_dim(), 2);
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(3, 4));
        let y = m.forward(&mut t, &s, x);
        assert_eq!((t.value(y).rows, t.value(y).cols), (3, 2));
        // 2 hidden + 1 output layer → 6 parameter tensors.
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn mlp_zero_hidden_is_linear() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = ParamStore::new();
        let m = Mlp::new(&mut s, 3, 99, 3, 0, Act::Relu, &mut rng);
        assert_eq!(s.len(), 2); // one weight + one bias
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(1, 3));
        let y = m.forward(&mut t, &s, x);
        assert_eq!(t.value(y).cols, 3);
    }

    #[test]
    fn mlp_can_fit_xor() {
        // The classic non-linear sanity check: a 2-2-1 MLP with tanh learns
        // XOR, proving gradients flow through the whole stack.
        let mut rng = StdRng::seed_from_u64(42);
        let mut s = ParamStore::new();
        let m = Mlp::new(&mut s, 2, 8, 1, 1, Act::Tanh, &mut rng);
        let xs = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut t = Tape::new();
            let x = t.input(xs.clone());
            let target = t.input(ys.clone());
            let logits = m.forward(&mut t, &s, x);
            let pred = t.sigmoid(logits);
            let diff = t.sub(pred, target);
            let sq = t.mul(diff, diff);
            let loss = t.mean_all(sq);
            final_loss = t.value(loss).item();
            s.zero_grads();
            t.backward(loss, &mut s);
            s.adam_step(0.05);
        }
        assert!(final_loss < 0.05, "xor loss stayed at {final_loss}");
    }

    #[test]
    fn activations_apply() {
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(1, 2, vec![-1.0, 1.0]));
        let r = Act::Relu.apply(&mut t, x);
        assert_eq!(t.value(r).data, vec![0.0, 1.0]);
        let th = Act::Tanh.apply(&mut t, x);
        assert!((t.value(th).data[1] - 1f32.tanh()).abs() < 1e-6);
        let sg = Act::Sigmoid.apply(&mut t, x);
        assert!(t.value(sg).data[0] < 0.5 && t.value(sg).data[1] > 0.5);
        let id = Act::None.apply(&mut t, x);
        assert_eq!(id, x);
    }
}
