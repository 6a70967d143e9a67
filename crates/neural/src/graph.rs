//! Reverse-mode automatic differentiation on a tape.
//!
//! Small by design: exactly the operations DTGM needs — elementwise
//! arithmetic, 2-D matmul, activations, causal dilated 1-D convolution
//! over `[channels, nodes, time]` blocks, graph-convolution mixing over
//! the node dimension, dropout masks, and an MAE loss. Backward formulas
//! are hand-written per op and verified against finite differences in the
//! test suite.

use crate::tensor::Tensor;
use std::rc::Rc;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    Add(usize, usize),
    Mul(usize, usize),
    MatMul(usize, usize),
    Tanh(usize),
    Sigmoid(usize),
    Relu(usize),
    AddBias { x: usize, b: usize },
    Conv1d { x: usize, w: usize, dilation: usize },
    GcnMix { x: usize, w: usize, adj: Rc<Vec<Tensor>>, supports: Vec<Tensor> },
    SliceLastTime(usize),
    MaskMul { x: usize, mask: Tensor },
    MaeLoss { pred: usize, target: Tensor },
    Scale(usize, f32),
}

struct Node {
    value: Tensor,
    op: Op,
}

/// The autodiff tape. Build a computation per training step, call
/// [`Tape::backward`], read gradients, then drop the tape (parameters
/// live outside as plain tensors).
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Registers a leaf (input or parameter).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Elementwise addition of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.zip(&self.nodes[b.0].value, |x, y| x + y);
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.zip(&self.nodes[b.0].value, |x, y| x * y);
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// 2-D matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        self.push(v, Op::Tanh(a.0))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(v, Op::Relu(a.0))
    }

    /// Scales by a constant.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * k);
        self.push(v, Op::Scale(a.0, k))
    }

    /// Adds a per-channel bias `b: [C]` to `x: [C, ...]`.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let xv = &self.nodes[x.0].value;
        let bv = &self.nodes[b.0].value;
        let c = xv.shape()[0];
        assert_eq!(bv.shape(), &[c], "bias must be [C]");
        let inner: usize = xv.shape()[1..].iter().product();
        let mut out = xv.clone();
        for ci in 0..c {
            let bias = bv.data()[ci];
            for v in &mut out.data_mut()[ci * inner..(ci + 1) * inner] {
                *v += bias;
            }
        }
        self.push(out, Op::AddBias { x: x.0, b: b.0 })
    }

    /// Causal dilated 1-D convolution over time: `x: [C_in, N, T]`,
    /// `w: [C_out, C_in, K]` -> `[C_out, N, T]` (left zero padding).
    pub fn conv1d(&mut self, x: Var, w: Var, dilation: usize) -> Var {
        let xv = &self.nodes[x.0].value;
        let wv = &self.nodes[w.0].value;
        assert_eq!(xv.shape().len(), 3, "conv1d input must be [C,N,T]");
        assert_eq!(wv.shape().len(), 3, "conv1d weight must be [Cout,Cin,K]");
        let (cin, n, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
        let (cout, cin2, k) = (wv.shape()[0], wv.shape()[1], wv.shape()[2]);
        assert_eq!(cin, cin2, "conv1d channel mismatch");
        let mut out = Tensor::zeros(&[cout, n, t]);
        for o in 0..cout {
            for c in 0..cin {
                for kk in 0..k {
                    let wgt = wv.at3(o, c, kk);
                    if wgt == 0.0 {
                        continue;
                    }
                    let shift = dilation * (k - 1 - kk);
                    for ni in 0..n {
                        for ti in shift..t {
                            let idx = (o * n + ni) * t + ti;
                            out.data_mut()[idx] += wgt * xv.at3(c, ni, ti - shift);
                        }
                    }
                }
            }
        }
        self.push(out, Op::Conv1d { x: x.0, w: w.0, dilation })
    }

    /// Graph-convolution mixing (`Z = Σ_k C^k H W_k`): `x: [C, N, T]`
    /// mixed over nodes by each adjacency power, then linearly combined:
    /// `adj` holds `[A^0 (=I), A^1, ..., A^K]` as `[N, N]` matrices and
    /// `w: [(K+1)·C, C_out]`.
    pub fn gcn_mix(&mut self, x: Var, w: Var, adj: Rc<Vec<Tensor>>) -> Var {
        let xv = self.nodes[x.0].value.clone();
        let wv = &self.nodes[w.0].value;
        let (c, n, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
        let hops = adj.len();
        assert_eq!(wv.shape()[0], hops * c, "gcn weight rows must be (K+1)*C");
        let cout = wv.shape()[1];
        // supports[k][c,n,t] = sum_m A^k[n,m] x[c,m,t]
        let mut supports = Vec::with_capacity(hops);
        for a in adj.iter() {
            assert_eq!(a.shape(), &[n, n], "adjacency must be [N,N]");
            let mut s = Tensor::zeros(&[c, n, t]);
            for ci in 0..c {
                for ni in 0..n {
                    for mi in 0..n {
                        let av = a.at2(ni, mi);
                        if av == 0.0 {
                            continue;
                        }
                        for ti in 0..t {
                            let idx = (ci * n + ni) * t + ti;
                            s.data_mut()[idx] += av * xv.at3(ci, mi, ti);
                        }
                    }
                }
            }
            supports.push(s);
        }
        let mut out = Tensor::zeros(&[cout, n, t]);
        for (k, s) in supports.iter().enumerate() {
            for ci in 0..c {
                for o in 0..cout {
                    let wgt = wv.at2(k * c + ci, o);
                    if wgt == 0.0 {
                        continue;
                    }
                    for ni in 0..n {
                        for ti in 0..t {
                            let idx = (o * n + ni) * t + ti;
                            out.data_mut()[idx] += wgt * s.at3(ci, ni, ti);
                        }
                    }
                }
            }
        }
        self.push(out, Op::GcnMix { x: x.0, w: w.0, adj, supports })
    }

    /// Takes the last time step: `[C, N, T] -> [C, N]`.
    pub fn slice_last_time(&mut self, x: Var) -> Var {
        let xv = &self.nodes[x.0].value;
        let (c, n, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
        let mut out = Tensor::zeros(&[c, n]);
        for ci in 0..c {
            for ni in 0..n {
                out.data_mut()[ci * n + ni] = xv.at3(ci, ni, t - 1);
            }
        }
        self.push(out, Op::SliceLastTime(x.0))
    }

    /// Multiplies by a constant mask (inverted dropout: the mask holds
    /// `0` or `1/(1-p)`).
    pub fn mask_mul(&mut self, x: Var, mask: Tensor) -> Var {
        let v = self.nodes[x.0].value.zip(&mask, |a, m| a * m);
        self.push(v, Op::MaskMul { x: x.0, mask })
    }

    /// Mean absolute error against a constant target (the paper's
    /// training loss). Returns a scalar node.
    pub fn mae_loss(&mut self, pred: Var, target: Tensor) -> Var {
        let pv = &self.nodes[pred.0].value;
        assert_eq!(pv.shape(), target.shape(), "loss shape mismatch");
        let n = pv.len() as f32;
        let loss = pv.zip(&target, |p, y| (p - y).abs()).sum() / n;
        self.push(Tensor::scalar(loss), Op::MaeLoss { pred: pred.0, target })
    }

    /// Runs backpropagation from scalar node `root`; returns per-node
    /// gradients (index by `Var`).
    pub fn backward(&self, root: Var) -> Gradients {
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[root.0] = Some(Tensor::full(self.nodes[root.0].value.shape(), 1.0));
        for i in (0..=root.0).rev() {
            let Some(g) = grads[i].clone() else { continue };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, &g);
                }
                Op::Mul(a, b) => {
                    let ga = g.zip(&self.nodes[*b].value, |gv, bv| gv * bv);
                    let gb = g.zip(&self.nodes[*a].value, |gv, av| gv * av);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::MatMul(a, b) => {
                    let av = &self.nodes[*a].value;
                    let bv = &self.nodes[*b].value;
                    let ga = g.matmul(&bv.transpose2());
                    let gb = av.transpose2().matmul(&g);
                    accumulate(&mut grads, *a, &ga);
                    accumulate(&mut grads, *b, &gb);
                }
                Op::Tanh(a) => {
                    let out = &self.nodes[i].value;
                    let ga = g.zip(out, |gv, y| gv * (1.0 - y * y));
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Sigmoid(a) => {
                    let out = &self.nodes[i].value;
                    let ga = g.zip(out, |gv, y| gv * y * (1.0 - y));
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Relu(a) => {
                    let xin = &self.nodes[*a].value;
                    let ga = g.zip(xin, |gv, x| if x > 0.0 { gv } else { 0.0 });
                    accumulate(&mut grads, *a, &ga);
                }
                Op::Scale(a, k) => {
                    let ga = g.map(|gv| gv * k);
                    accumulate(&mut grads, *a, &ga);
                }
                Op::AddBias { x, b } => {
                    accumulate(&mut grads, *x, &g);
                    let xv = &self.nodes[*x].value;
                    let c = xv.shape()[0];
                    let inner: usize = xv.shape()[1..].iter().product();
                    let mut gb = Tensor::zeros(&[c]);
                    for ci in 0..c {
                        gb.data_mut()[ci] = g.data()[ci * inner..(ci + 1) * inner].iter().sum();
                    }
                    accumulate(&mut grads, *b, &gb);
                }
                Op::Conv1d { x, w, dilation } => {
                    let xv = &self.nodes[*x].value;
                    let wv = &self.nodes[*w].value;
                    let (cin, n, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
                    let (cout, _, k) = (wv.shape()[0], wv.shape()[1], wv.shape()[2]);
                    let mut gx = Tensor::zeros(xv.shape());
                    let mut gw = Tensor::zeros(wv.shape());
                    for o in 0..cout {
                        for c in 0..cin {
                            for kk in 0..k {
                                let shift = dilation * (k - 1 - kk);
                                let wgt = wv.at3(o, c, kk);
                                let mut wg = 0.0f32;
                                for ni in 0..n {
                                    for ti in shift..t {
                                        let gout = g.at3(o, ni, ti);
                                        if gout == 0.0 {
                                            continue;
                                        }
                                        wg += gout * xv.at3(c, ni, ti - shift);
                                        let idx = (c * n + ni) * t + (ti - shift);
                                        gx.data_mut()[idx] += gout * wgt;
                                    }
                                }
                                gw.data_mut()[(o * cin + c) * k + kk] += wg;
                            }
                        }
                    }
                    accumulate(&mut grads, *x, &gx);
                    accumulate(&mut grads, *w, &gw);
                }
                Op::GcnMix { x, w, adj, supports } => {
                    let xv = &self.nodes[*x].value;
                    let wv = &self.nodes[*w].value;
                    let (c, n, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
                    let cout = wv.shape()[1];
                    let mut gw = Tensor::zeros(wv.shape());
                    let mut gx = Tensor::zeros(xv.shape());
                    for (k, s) in supports.iter().enumerate() {
                        // u[c,n,t] = sum_o w[kC+c,o] g[o,n,t]
                        let mut u = Tensor::zeros(&[c, n, t]);
                        for ci in 0..c {
                            for o in 0..cout {
                                let wgt = wv.at2(k * c + ci, o);
                                // dW
                                let mut acc = 0.0f32;
                                for ni in 0..n {
                                    for ti in 0..t {
                                        let gout = g.at3(o, ni, ti);
                                        acc += gout * s.at3(ci, ni, ti);
                                        if wgt != 0.0 {
                                            let idx = (ci * n + ni) * t + ti;
                                            u.data_mut()[idx] += wgt * gout;
                                        }
                                    }
                                }
                                gw.data_mut()[(k * c + ci) * cout + o] += acc;
                            }
                        }
                        // dX += A^k^T applied to u over the node dim.
                        let a = &adj[k];
                        for ci in 0..c {
                            for ni in 0..n {
                                for mi in 0..n {
                                    let av = a.at2(ni, mi);
                                    if av == 0.0 {
                                        continue;
                                    }
                                    for ti in 0..t {
                                        let idx = (ci * n + mi) * t + ti;
                                        gx.data_mut()[idx] += av * u.at3(ci, ni, ti);
                                    }
                                }
                            }
                        }
                    }
                    accumulate(&mut grads, *x, &gx);
                    accumulate(&mut grads, *w, &gw);
                }
                Op::SliceLastTime(x) => {
                    let xv = &self.nodes[*x].value;
                    let (c, n, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
                    let mut gx = Tensor::zeros(xv.shape());
                    for ci in 0..c {
                        for ni in 0..n {
                            gx.data_mut()[(ci * n + ni) * t + (t - 1)] = g.at2(ci, ni);
                        }
                    }
                    accumulate(&mut grads, *x, &gx);
                }
                Op::MaskMul { x, mask } => {
                    let gx = g.zip(mask, |gv, m| gv * m);
                    accumulate(&mut grads, *x, &gx);
                }
                Op::MaeLoss { pred, target } => {
                    let pv = &self.nodes[*pred].value;
                    let n = pv.len() as f32;
                    let scale = g.item() / n;
                    let gp = pv.zip(target, |p, y| {
                        if p > y {
                            scale
                        } else if p < y {
                            -scale
                        } else {
                            0.0
                        }
                    });
                    accumulate(&mut grads, *pred, &gp);
                }
            }
        }
        Gradients { grads }
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Gradients produced by [`Tape::backward`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of `v`, if it participated in the graph.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::rng::Rng;

    /// Finite-difference check of dLoss/dparam for a scalar-loss graph
    /// builder. `build` must construct the same graph for given leaf
    /// values each call.
    fn finite_diff_check(param: Tensor, build: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut tape = Tape::new();
        let p = tape.leaf(param.clone());
        let loss = build(&mut tape, p);
        let grads = tape.backward(loss);
        let analytic = grads.get(p).expect("param must have a gradient").clone();

        let eps = 1e-2f32;
        for i in 0..param.len() {
            let mut plus = param.clone();
            plus.data_mut()[i] += eps;
            let mut minus = param.clone();
            minus.data_mut()[i] -= eps;
            let lp = {
                let mut t = Tape::new();
                let p = t.leaf(plus);
                let l = build(&mut t, p);
                t.value(l).item()
            };
            let lm = {
                let mut t = Tape::new();
                let p = t.leaf(minus);
                let l = build(&mut t, p);
                t.value(l).item()
            };
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn matmul_and_activation_gradients() {
        let mut rng = Rng::new(3);
        let w = Tensor::rand_uniform(&mut rng, &[3, 2], 0.8);
        let x = Tensor::rand_uniform(&mut rng, &[2, 4], 0.8);
        let target = Tensor::rand_uniform(&mut rng, &[3, 4], 0.8);
        finite_diff_check(
            w,
            move |t, p| {
                let xv = t.leaf(x.clone());
                let y = t.matmul(p, xv);
                let a = t.tanh(y);
                t.mae_loss(a, target.clone())
            },
            0.05,
        );
    }

    #[test]
    fn sigmoid_mul_gradients() {
        let mut rng = Rng::new(5);
        let a = Tensor::rand_uniform(&mut rng, &[6], 0.9);
        let b = Tensor::rand_uniform(&mut rng, &[6], 0.9);
        let target = Tensor::zeros(&[6]);
        finite_diff_check(
            a,
            move |t, p| {
                let bv = t.leaf(b.clone());
                let s = t.sigmoid(bv);
                let m = t.mul(p, s);
                t.mae_loss(m, target.clone())
            },
            0.05,
        );
    }

    #[test]
    fn conv1d_weight_gradient() {
        let mut rng = Rng::new(7);
        let w = Tensor::rand_uniform(&mut rng, &[2, 2, 2], 0.7);
        let x = Tensor::rand_uniform(&mut rng, &[2, 3, 5], 0.7);
        let target = Tensor::zeros(&[2, 3, 5]);
        finite_diff_check(
            w,
            move |t, p| {
                let xv = t.leaf(x.clone());
                let y = t.conv1d(xv, p, 2);
                t.mae_loss(y, target.clone())
            },
            0.05,
        );
    }

    #[test]
    fn conv1d_input_gradient() {
        let mut rng = Rng::new(9);
        let w = Tensor::rand_uniform(&mut rng, &[2, 2, 2], 0.7);
        let x = Tensor::rand_uniform(&mut rng, &[2, 2, 4], 0.7);
        let target = Tensor::zeros(&[2, 2, 4]);
        finite_diff_check(
            x,
            move |t, p| {
                let wv = t.leaf(w.clone());
                let y = t.conv1d(p, wv, 1);
                t.mae_loss(y, target.clone())
            },
            0.05,
        );
    }

    #[test]
    fn gcn_mix_gradients() {
        let mut rng = Rng::new(11);
        let n = 3;
        // Adjacency powers: identity + a random normalized matrix.
        let ident = {
            let mut t = Tensor::zeros(&[n, n]);
            for i in 0..n {
                t.data_mut()[i * n + i] = 1.0;
            }
            t
        };
        let a1 = Tensor::rand_uniform(&mut rng, &[n, n], 0.5).map(f32::abs);
        let adj = Rc::new(vec![ident, a1]);
        let w = Tensor::rand_uniform(&mut rng, &[2 * 2, 2], 0.6);
        let x = Tensor::rand_uniform(&mut rng, &[2, n, 3], 0.6);
        let target = Tensor::zeros(&[2, n, 3]);
        // Weight gradient.
        {
            let adj = adj.clone();
            let x = x.clone();
            let target = target.clone();
            finite_diff_check(
                w.clone(),
                move |t, p| {
                    let xv = t.leaf(x.clone());
                    let y = t.gcn_mix(xv, p, adj.clone());
                    t.mae_loss(y, target.clone())
                },
                0.05,
            );
        }
        // Input gradient.
        finite_diff_check(
            x,
            move |t, p| {
                let wv = t.leaf(w.clone());
                let y = t.gcn_mix(p, wv, adj.clone());
                t.mae_loss(y, target.clone())
            },
            0.05,
        );
    }

    #[test]
    fn bias_slice_and_mask_gradients() {
        let mut rng = Rng::new(13);
        let b = Tensor::rand_uniform(&mut rng, &[2], 0.5);
        let x = Tensor::rand_uniform(&mut rng, &[2, 2, 3], 0.5);
        let mask = Tensor::new(&[2, 2], vec![0.0, 2.0, 2.0, 0.0]);
        let target = Tensor::zeros(&[2, 2]);
        finite_diff_check(
            b,
            move |t, p| {
                let xv = t.leaf(x.clone());
                let y = t.add_bias(xv, p);
                let s = t.slice_last_time(y);
                let m = t.mask_mul(s, mask.clone());
                t.mae_loss(m, target.clone())
            },
            0.05,
        );
    }

    #[test]
    fn relu_and_scale_gradients() {
        let x = Tensor::new(&[4], vec![-1.0, 0.5, 2.0, -0.3]);
        let target = Tensor::zeros(&[4]);
        finite_diff_check(
            x,
            move |t, p| {
                let r = t.relu(p);
                let s = t.scale(r, 3.0);
                t.mae_loss(s, target.clone())
            },
            0.05,
        );
    }

    #[test]
    fn add_accumulates_gradients_for_shared_input() {
        // y = x + x  =>  dy/dx = 2.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new(&[2], vec![1.0, 5.0]));
        let y = tape.add(x, x);
        let loss = tape.mae_loss(y, Tensor::zeros(&[2]));
        let g = tape.backward(loss);
        let gx = g.get(x).unwrap();
        // d|2x|/dx = 2*sign(x)/2 (mean) = 1 per element.
        assert!((gx.data()[0] - 1.0).abs() < 1e-6);
    }
}
