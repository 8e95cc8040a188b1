//! Optimizers stepping on a [`Params`] store.

use crate::tape::{ParamId, Params};
use crate::tensor::Tensor;

/// Clip the global gradient norm to `max_norm` (no-op when under).
pub fn clip_grad_norm(params: &mut Params, max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for i in 0..params.len() {
        total += params.grad(ParamId(i)).norm_sq();
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for i in 0..params.len() {
            let g = params.grad_mut(ParamId(i));
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    norm
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// New optimizer.
    pub fn new(lr: f32, momentum: f32) -> Sgd {
        Sgd { lr, momentum, velocity: Vec::new() }
    }

    /// Apply one step using the accumulated gradients, then zero them.
    pub fn step(&mut self, params: &mut Params) {
        if self.velocity.len() != params.len() {
            self.velocity = (0..params.len())
                .map(|i| {
                    let v = params.value(ParamId(i));
                    Tensor::zeros(v.rows(), v.cols())
                })
                .collect();
        }
        for i in 0..params.len() {
            let g = params.grad(ParamId(i)).clone();
            let vel = &mut self.velocity[i];
            for (v, gv) in vel.data_mut().iter_mut().zip(g.data().iter()) {
                *v = self.momentum * *v + gv;
            }
            let lr = self.lr;
            let vel = self.velocity[i].clone();
            params.value_mut(ParamId(i)).axpy(-lr, &vel);
        }
        params.zero_grads();
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Decoupled weight decay (AdamW style; 0 disables).
    pub weight_decay: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Adam {
    /// Adam with standard betas.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Apply one step using the accumulated gradients, then zero them.
    pub fn step(&mut self, params: &mut Params) {
        if self.m.len() != params.len() {
            let mk = |params: &Params| {
                (0..params.len())
                    .map(|i| {
                        let v = params.value(ParamId(i));
                        Tensor::zeros(v.rows(), v.cols())
                    })
                    .collect::<Vec<_>>()
            };
            self.m = mk(params);
            self.v = mk(params);
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = params.grad(ParamId(i));
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mv, vv), gv) in
                m.data_mut().iter_mut().zip(v.data_mut().iter_mut()).zip(g.data().iter())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            let (lr, eps, wd) = (self.lr, self.eps, self.weight_decay);
            let val = params.value_mut(ParamId(i));
            for ((pv, mv), vv) in
                val.data_mut().iter_mut().zip(self.m[i].data().iter()).zip(self.v[i].data().iter())
            {
                let mhat = mv / bc1;
                let vhat = vv / bc2;
                *pv -= lr * (mhat / (vhat.sqrt() + eps) + wd * *pv);
            }
        }
        params.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn quadratic_loss(params: &Params, id: ParamId) -> (Tape, crate::tape::Var) {
        // loss = mean((p - 3)^2): minimum at p = 3.
        let mut tape = Tape::new();
        let p = tape.param(params, id);
        let target = Tensor::full(1, 2, 3.0);
        let loss = tape.mse_loss(p, &target);
        (tape, loss)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut params = Params::new();
        let id = params.add("p", Tensor::from_vec(1, 2, vec![0.0, 10.0]));
        let mut opt = Sgd::new(0.2, 0.5);
        for _ in 0..100 {
            let (mut tape, loss) = quadratic_loss(&params, id);
            tape.backward(loss, &mut params);
            opt.step(&mut params);
        }
        for &v in params.value(id).data() {
            assert!((v - 3.0).abs() < 1e-3, "{v}");
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = Params::new();
        let id = params.add("p", Tensor::from_vec(1, 2, vec![-5.0, 20.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            let (mut tape, loss) = quadratic_loss(&params, id);
            tape.backward(loss, &mut params);
            opt.step(&mut params);
        }
        for &v in params.value(id).data() {
            assert!((v - 3.0).abs() < 1e-2, "{v}");
        }
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut params = Params::new();
        let id = params.add("p", Tensor::full(1, 1, 1.0));
        let (mut tape, loss) = quadratic_loss_1(&params, id);
        tape.backward(loss, &mut params);
        assert!(params.grad(id).get(0, 0) != 0.0);
        Adam::new(0.01).step(&mut params);
        assert_eq!(params.grad(id).get(0, 0), 0.0);
    }

    fn quadratic_loss_1(params: &Params, id: ParamId) -> (Tape, crate::tape::Var) {
        let mut tape = Tape::new();
        let p = tape.param(params, id);
        let target = Tensor::full(1, 1, 3.0);
        let loss = tape.mse_loss(p, &target);
        (tape, loss)
    }

    #[test]
    fn clip_reduces_large_gradients() {
        let mut params = Params::new();
        let id = params.add("p", Tensor::full(1, 4, 100.0));
        let (mut tape, loss) = {
            let mut tape = Tape::new();
            let p = tape.param(&params, id);
            let target = Tensor::zeros(1, 4);
            let loss = tape.mse_loss(p, &target);
            (tape, loss)
        };
        tape.backward(loss, &mut params);
        let before = clip_grad_norm(&mut params, 1.0);
        assert!(before > 1.0);
        let after: f32 = params.grad(id).norm_sq().sqrt();
        assert!((after - 1.0).abs() < 1e-4, "{after}");
    }
}
