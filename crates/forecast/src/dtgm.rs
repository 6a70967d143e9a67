//! DTGM — the Deep Temporal Graph Model of Section IV-A.
//!
//! Graph-WaveNet-style architecture (the paper cites Wu et al.'s Graph WaveNet):
//! stacked layers of a gated dilated temporal convolution
//! (`tanh(Θ₁*H+b₁) ⊙ σ(Θ₂*H+b₂)`) followed by a graph convolution over
//! the table-access graph (`Z = Σ_k C^k H W`), with residual and skip
//! connections, dropout, MAE loss, Adam with step decay — all matching
//! the paper's training setup (hidden 48, batch-of-windows, lr 1e-3,
//! decay 0.1 / 20 epochs, L2 1e-5, dropout 0.3).
//!
//! The `use_gcn: false` variant (adjacency powers reduced to the identity)
//! is the paper's Table IV ablation.

use crate::series::{Forecaster, RateSeries};
use aets_common::rng::Rng;
use aets_common::{Error, Result};
use aets_neural::{Adam, Tape, Tensor, Var};
use std::rc::Rc;

/// DTGM hyper-parameters.
#[derive(Debug, Clone)]
pub struct DtgmConfig {
    /// Hidden layer dimension (paper optimum: 48).
    pub hidden: usize,
    /// Number of gated-TCN + GCN layers (dilations 1, 2, 4, ...).
    pub layers: usize,
    /// Adjacency powers (K in `Σ_{k=0}^{K} C^k H W`).
    pub k_hops: usize,
    /// Include the GCN component (Table IV ablation switch).
    pub use_gcn: bool,
    /// Input window length.
    pub t_in: usize,
    /// Maximum forecast horizon (direct multi-output head).
    pub max_horizon: usize,
    /// Dropout probability (paper: 0.3).
    pub dropout: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Windows sampled per epoch (the paper's batch size 64 corresponds
    /// to a full pass; a sampled batch keeps CPU training fast).
    pub steps_per_epoch: usize,
    /// Initial learning rate (paper: 1e-3).
    pub lr: f32,
    /// L2 penalty (paper: 1e-5).
    pub weight_decay: f32,
    /// Learning-rate decay applied every `decay_every` epochs (paper:
    /// 0.1 every 20).
    pub lr_decay: f32,
    /// Epochs between decays.
    pub decay_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DtgmConfig {
    fn default() -> Self {
        Self {
            hidden: 48,
            layers: 2,
            k_hops: 2,
            use_gcn: true,
            t_in: 12,
            max_horizon: 15,
            dropout: 0.3,
            epochs: 40,
            steps_per_epoch: 8,
            lr: 1e-3,
            weight_decay: 1e-5,
            lr_decay: 0.1,
            decay_every: 20,
            seed: 7,
        }
    }
}

/// Builds the normalized adjacency powers `[I, Â, Â², ...]` for the
/// table-access graph (`edges` are undirected co-access pairs).
pub fn adjacency_powers(n: usize, edges: &[(usize, usize)], k_hops: usize) -> Rc<Vec<Tensor>> {
    let mut a = Tensor::zeros(&[n, n]);
    for &(i, j) in edges {
        assert!(i < n && j < n, "edge out of range");
        a.data_mut()[i * n + j] = 1.0;
        a.data_mut()[j * n + i] = 1.0;
    }
    // Self loops + row normalization (random-walk normalization).
    for i in 0..n {
        a.data_mut()[i * n + i] = 1.0;
    }
    for i in 0..n {
        let row_sum: f32 = (0..n).map(|j| a.at2(i, j)).sum();
        for j in 0..n {
            a.data_mut()[i * n + j] /= row_sum;
        }
    }
    let mut ident = Tensor::zeros(&[n, n]);
    for i in 0..n {
        ident.data_mut()[i * n + i] = 1.0;
    }
    let mut pows = vec![ident];
    let mut cur = a.clone();
    for _ in 0..k_hops {
        pows.push(cur.clone());
        cur = cur.matmul(&a);
    }
    Rc::new(pows)
}

/// Input channels: normalized rate + day-phase sine + cosine (Graph
/// WaveNet feeds time-of-day features the same way).
const IN_CHANNELS: usize = 3;

fn phase_channels(slot: usize) -> (f32, f32) {
    let day = aets_workloads::bustracker::DAY_SLOTS as f64;
    let ang =
        2.0 * std::f64::consts::PI * ((slot % aets_workloads::bustracker::DAY_SLOTS) as f64) / day;
    (ang.sin() as f32, ang.cos() as f32)
}

// Parameter layout indices.
struct Layout {
    proj_w: usize,
    // per layer: filt_w, filt_b, gate_w, gate_b, mix_w
    layer_base: usize,
    per_layer: usize,
    out_w: usize,
    out_b: usize,
}

/// The trained DTGM forecaster.
pub struct Dtgm {
    cfg: DtgmConfig,
    adj: Rc<Vec<Tensor>>,
    params: Vec<Tensor>,
    layout: Layout,
    /// Per-table normalization scale (training-split mean).
    scale: Vec<f64>,
    /// Final training loss (normalized MAE), for diagnostics.
    pub final_loss: f32,
}

impl Dtgm {
    fn build_params(cfg: &DtgmConfig, rng: &mut Rng, hops: usize) -> (Vec<Tensor>, Layout) {
        let h = cfg.hidden;
        let mut params = Vec::new();
        let init = |rng: &mut Rng, shape: &[usize]| {
            let fan_in = shape.iter().skip(1).product::<usize>().max(1) as f32;
            Tensor::rand_uniform(rng, shape, 1.0 / fan_in.sqrt())
        };
        params.push(init(rng, &[h, IN_CHANNELS, 1])); // proj_w
        let layer_base = params.len();
        for _ in 0..cfg.layers {
            params.push(init(rng, &[h, h, 2])); // filt_w
            params.push(Tensor::zeros(&[h])); // filt_b
            params.push(init(rng, &[h, h, 2])); // gate_w
            params.push(Tensor::zeros(&[h])); // gate_b
            params.push(init(rng, &[hops * h, h])); // mix_w
        }
        let out_w = params.len();
        params.push(init(rng, &[cfg.max_horizon, h]));
        let out_b = params.len();
        params.push(Tensor::zeros(&[cfg.max_horizon]));
        let layout = Layout { proj_w: 0, layer_base, per_layer: 5, out_w, out_b };
        (params, layout)
    }

    /// Forward pass. `x` is `[1, N, t_in]` normalized; returns
    /// `[max_horizon, N]`. `dropout_masks`: one mask per layer (training
    /// only).
    fn forward(
        &self,
        tape: &mut Tape,
        pvars: &[Var],
        x: Var,
        dropout_masks: Option<&[Tensor]>,
    ) -> Var {
        let l = &self.layout;
        let mut h = tape.conv1d(x, pvars[l.proj_w], 1);
        let mut skip: Option<Var> = None;
        for li in 0..self.cfg.layers {
            let base = l.layer_base + li * l.per_layer;
            let dilation = 1usize << li;
            let f_pre = tape.conv1d(h, pvars[base], dilation);
            let f_pre = tape.add_bias(f_pre, pvars[base + 1]);
            let f = tape.tanh(f_pre);
            let g_pre = tape.conv1d(h, pvars[base + 2], dilation);
            let g_pre = tape.add_bias(g_pre, pvars[base + 3]);
            let g = tape.sigmoid(g_pre);
            let mut z = tape.mul(f, g);
            if let Some(masks) = dropout_masks {
                z = tape.mask_mul(z, masks[li].clone());
            }
            let mixed = tape.gcn_mix(z, pvars[base + 4], self.adj.clone());
            h = tape.add(h, mixed); // residual
            skip = Some(match skip {
                Some(s) => tape.add(s, mixed),
                None => mixed,
            });
        }
        let s = skip.expect("at least one layer");
        let s = tape.relu(s);
        let last = tape.slice_last_time(s);
        let y = tape.matmul(pvars[l.out_w], last);
        tape.add_bias(y, pvars[l.out_b])
    }

    /// Trains DTGM on a series with the given access graph. Fails when
    /// the training series is too short to cut a single
    /// `t_in + max_horizon` window.
    pub fn fit(train: &RateSeries, edges: &[(usize, usize)], cfg: DtgmConfig) -> Result<Self> {
        let n = train.width();
        let hops = if cfg.use_gcn { cfg.k_hops + 1 } else { 1 };
        let adj = if cfg.use_gcn {
            adjacency_powers(n, edges, cfg.k_hops)
        } else {
            adjacency_powers(n, &[], 0) // identity only: "w/o gcn"
        };
        let mut rng = Rng::new(cfg.seed);
        let (params, layout) = Self::build_params(&cfg, &mut rng, hops);
        let shapes: Vec<Vec<usize>> = params.iter().map(|p| p.shape().to_vec()).collect();
        let shape_refs: Vec<&[usize]> = shapes.iter().map(|s| s.as_slice()).collect();
        let mut opt = Adam::new(&shape_refs, cfg.lr, cfg.weight_decay);
        // Per-table scale: tables' popularity spans orders of magnitude,
        // so a global scale would let the largest table dominate the loss.
        let scale: Vec<f64> = (0..n)
            .map(|j| {
                (train.values.iter().map(|r| r[j]).sum::<f64>() / train.len() as f64).max(1e-6)
            })
            .collect();
        let mut model = Self { cfg, adj, params, layout, scale, final_loss: f32::NAN };

        let windows = train.windows(model.cfg.t_in, model.cfg.max_horizon);
        if windows.is_empty() {
            return Err(Error::Config(format!(
                "training series of {} slots is too short for DTGM (needs t_in {} + horizon {})",
                train.len(),
                model.cfg.t_in,
                model.cfg.max_horizon
            )));
        }
        let mut order: Vec<usize> = (0..windows.len()).collect();
        for epoch in 0..model.cfg.epochs {
            if epoch > 0 && epoch % model.cfg.decay_every == 0 {
                opt.decay_lr(model.cfg.lr_decay);
            }
            rng.shuffle(&mut order);
            for &wi in order.iter().take(model.cfg.steps_per_epoch) {
                let (input, target) = &windows[wi];
                let mut tape = Tape::new();
                let pvars: Vec<Var> = model.params.iter().map(|p| tape.leaf(p.clone())).collect();
                let x = input_tensor(input, n, model.cfg.t_in, wi, &model.scale);
                let x = tape.leaf(x);
                // Inverted dropout masks per layer.
                let keep = 1.0 - model.cfg.dropout;
                let masks: Vec<Tensor> = (0..model.cfg.layers)
                    .map(|_| {
                        let len = model.cfg.hidden * n * model.cfg.t_in;
                        Tensor::new(
                            &[model.cfg.hidden, n, model.cfg.t_in],
                            (0..len)
                                .map(|_| if rng.unit_f32() < keep { 1.0 / keep } else { 0.0 })
                                .collect(),
                        )
                    })
                    .collect();
                let pred = model.forward(&mut tape, &pvars, x, Some(&masks));
                let tdata: Vec<f32> = target
                    .iter()
                    .flat_map(|row| {
                        row.iter().enumerate().map(|(j, v)| (*v / model.scale[j]) as f32)
                    })
                    .collect();
                let loss = tape.mae_loss(pred, Tensor::new(&[model.cfg.max_horizon, n], tdata));
                model.final_loss = tape.value(loss).item();
                let grads = tape.backward(loss);
                let grad_refs: Vec<Option<&Tensor>> = pvars.iter().map(|v| grads.get(*v)).collect();
                opt.step(&mut model.params, &grad_refs);
            }
        }
        Ok(model)
    }
}

/// Builds the `[IN_CHANNELS, N, t_in]` input block: normalized rates in
/// channel 0, day-phase sine/cosine of each slot in channels 1-2.
/// `window_start` is the absolute slot index of the window's first row.
fn input_tensor(
    window: &[Vec<f64>],
    n: usize,
    t_in: usize,
    window_start: usize,
    scale: &[f64],
) -> Tensor {
    assert_eq!(window.len(), t_in, "window length mismatch");
    let mut data = vec![0.0f32; IN_CHANNELS * n * t_in];
    for j in 0..n {
        for (ti, row) in window.iter().enumerate() {
            let (sin_p, cos_p) = phase_channels(window_start + ti);
            data[(j) * t_in + ti] = (row[j] / scale[j]) as f32;
            data[(n + j) * t_in + ti] = sin_p;
            data[(2 * n + j) * t_in + ti] = cos_p;
        }
    }
    Tensor::new(&[IN_CHANNELS, n, t_in], data)
}

impl Forecaster for Dtgm {
    fn name(&self) -> &'static str {
        if self.cfg.use_gcn {
            "DTGM"
        } else {
            "DTGM w/o gcn"
        }
    }

    fn forecast(&self, history: &[Vec<f64>], t_f: usize) -> Vec<Vec<f64>> {
        let n = history.last().map_or(0, Vec::len);
        let t_f = t_f.min(self.cfg.max_horizon);
        let window: Vec<Vec<f64>> = {
            let mut w = history[history.len().saturating_sub(self.cfg.t_in)..].to_vec();
            while w.len() < self.cfg.t_in {
                w.insert(0, w.first().expect("non-empty history").clone());
            }
            w
        };
        let mut tape = Tape::new();
        let pvars: Vec<Var> = self.params.iter().map(|p| tape.leaf(p.clone())).collect();
        let window_start = history.len().saturating_sub(self.cfg.t_in);
        let x = input_tensor(&window, n, self.cfg.t_in, window_start, &self.scale);
        let x = tape.leaf(x);
        let pred = self.forward(&mut tape, &pvars, x, None);
        let pv = tape.value(pred);
        (0..t_f)
            .map(|h| (0..n).map(|j| (pv.at2(h, j) as f64 * self.scale[j]).max(0.0)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::evaluate;
    use aets_workloads::bustracker;

    fn small_cfg() -> DtgmConfig {
        DtgmConfig {
            hidden: 12,
            layers: 2,
            epochs: 80,
            steps_per_epoch: 12,
            max_horizon: 5,
            t_in: 12,
            dropout: 0.1,
            lr: 5e-3,
            decay_every: 40,
            ..Default::default()
        }
    }

    #[test]
    fn adjacency_powers_are_row_stochastic() {
        let adj = adjacency_powers(4, &[(0, 1), (1, 2)], 2);
        assert_eq!(adj.len(), 3);
        // A^0 = I.
        assert_eq!(adj[0].at2(2, 2), 1.0);
        assert_eq!(adj[0].at2(0, 1), 0.0);
        for a in adj.iter().skip(1) {
            for i in 0..4 {
                let row: f32 = (0..4).map(|j| a.at2(i, j)).sum();
                assert!((row - 1.0).abs() < 1e-5, "row {i} sums to {row}");
            }
        }
    }

    #[test]
    fn dtgm_learns_the_series() {
        let full = RateSeries::bustracker_hot(120, 0.05, 5);
        let (train, _) = full.split(90);
        let model = Dtgm::fit(&train, &bustracker::access_graph(), small_cfg()).unwrap();
        assert!(model.final_loss.is_finite());
        let e = evaluate(&model, &full, 90, 5);
        // A trained DTGM must do clearly better than predicting the mean.
        let ha = crate::baselines::Ha { window: 60 };
        let e_ha = evaluate(&ha, &full, 90, 5);
        assert!(e < e_ha, "DTGM {e} should beat HA {e_ha}");
        assert!(e < 0.35, "DTGM MAPE {e}");
    }

    #[test]
    fn ablation_variant_runs() {
        let full = RateSeries::bustracker_hot(100, 0.05, 9);
        let (train, _) = full.split(80);
        let cfg = DtgmConfig { use_gcn: false, epochs: 10, ..small_cfg() };
        let model = Dtgm::fit(&train, &bustracker::access_graph(), cfg).unwrap();
        assert_eq!(model.name(), "DTGM w/o gcn");
        let e = evaluate(&model, &full, 80, 5);
        assert!(e.is_finite());
    }

    #[test]
    fn forecast_shape_and_positivity() {
        let full = RateSeries::bustracker_hot(100, 0.05, 5);
        let (train, _) = full.split(80);
        let model = Dtgm::fit(&train, &bustracker::access_graph(), small_cfg()).unwrap();
        let pred = model.forecast(&full.values[..10], 5);
        assert_eq!(pred.len(), 5);
        assert_eq!(pred[0].len(), 14);
        assert!(pred.iter().flatten().all(|v| *v >= 0.0 && v.is_finite()));
    }
}
