//! Adam optimizer with L2 penalty and step-decay learning rate —
//! matching the paper's DTGM training setup (Adam, initial lr 1e-3,
//! decay 0.1 every 20 epochs, L2 1e-5).

use crate::tensor::Tensor;

/// Adam state over a fixed set of parameters.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimizer for parameters with the given shapes.
    pub fn new(shapes: &[&[usize]], lr: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: shapes.iter().map(|s| Tensor::zeros(s)).collect(),
            v: shapes.iter().map(|s| Tensor::zeros(s)).collect(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Multiplies the learning rate by `factor` (step decay).
    pub fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }

    /// Applies one update step. `params[i]` and `grads[i]` must match the
    /// construction shapes; a `None` gradient leaves the parameter
    /// untouched.
    pub fn step(&mut self, params: &mut [Tensor], grads: &[Option<&Tensor>]) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let Some(g) = grads[i] else { continue };
            assert_eq!(g.shape(), params[i].shape(), "grad shape mismatch at {i}");
            let p = params[i].data_mut();
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            for j in 0..p.len() {
                let grad = g.data()[j] + self.weight_decay * p[j];
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * grad;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * grad * grad;
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                p[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;
    use aets_common::rng::Rng;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize |Wx - y| over W via the tape.
        let mut rng = Rng::new(21);
        let x = Tensor::rand_uniform(&mut rng, &[3, 8], 1.0);
        let w_true = Tensor::rand_uniform(&mut rng, &[2, 3], 1.0);
        let y = w_true.matmul(&x);

        let mut w = Tensor::rand_uniform(&mut rng, &[2, 3], 0.5);
        let mut opt = Adam::new(&[&[2, 3]], 0.05, 0.0);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let wv = tape.leaf(w.clone());
            let xv = tape.leaf(x.clone());
            let pred = tape.matmul(wv, xv);
            let loss = tape.mae_loss(pred, y.clone());
            last_loss = tape.value(loss).item();
            first_loss.get_or_insert(last_loss);
            let grads = tape.backward(loss);
            let mut params = [std::mem::replace(&mut w, Tensor::zeros(&[2, 3]))];
            opt.step(&mut params, &[grads.get(wv)]);
            w = params.into_iter().next().unwrap();
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.05,
            "loss should drop 20x: {first_loss:?} -> {last_loss}"
        );
    }

    #[test]
    fn lr_decay() {
        let mut opt = Adam::new(&[&[1]], 1e-3, 0.0);
        opt.decay_lr(0.1);
        assert!((opt.lr() - 1e-4).abs() < 1e-10);
    }

    #[test]
    fn weight_decay_shrinks_unused_params() {
        let mut opt = Adam::new(&[&[2]], 0.1, 0.5);
        let mut p = [Tensor::new(&[2], vec![1.0, -1.0])];
        let zero_grad = Tensor::zeros(&[2]);
        for _ in 0..100 {
            opt.step(&mut p, &[Some(&zero_grad)]);
        }
        assert!(p[0].data()[0].abs() < 0.5, "decay should shrink weights");
    }
}
