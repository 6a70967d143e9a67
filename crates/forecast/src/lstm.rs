//! A small LSTM forecaster — the recurrent member of the QB5000
//! ensemble. Univariate with weights shared across tables: each table's
//! window is normalized by its own mean, batched along the second tensor
//! dimension.

use crate::series::{Forecaster, RateSeries};
use aets_common::rng::Rng;
use aets_neural::{Adam, Tape, Tensor, Var};

const GATES: usize = 4; // input, forget, output, candidate

/// LSTM hyper-parameters.
#[derive(Debug, Clone)]
pub struct LstmConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Input window length.
    pub t_in: usize,
    /// Maximum forecast horizon (direct multi-output head).
    pub max_horizon: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Windows sampled per epoch.
    pub steps_per_epoch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            t_in: 12,
            max_horizon: 15,
            epochs: 30,
            steps_per_epoch: 8,
            lr: 5e-3,
            seed: 7,
        }
    }
}

/// Trained LSTM forecaster.
pub struct Lstm {
    cfg: LstmConfig,
    // Parameter layout: [wx;4] [wh;4] [b;4] [wo] [bo]
    params: Vec<Tensor>,
}

impl Lstm {
    fn param_shapes(cfg: &LstmConfig) -> Vec<Vec<usize>> {
        let h = cfg.hidden;
        let mut shapes = Vec::new();
        for _ in 0..GATES {
            shapes.push(vec![h, 1]);
        }
        for _ in 0..GATES {
            shapes.push(vec![h, h]);
        }
        for _ in 0..GATES {
            shapes.push(vec![h]);
        }
        shapes.push(vec![cfg.max_horizon, h]);
        shapes.push(vec![cfg.max_horizon]);
        shapes
    }

    /// Unrolls the LSTM over `xs` (each `[1, B]`) and returns the
    /// prediction `[max_horizon, B]`.
    fn forward(&self, tape: &mut Tape, pvars: &[Var], xs: &[Var], batch: usize) -> Var {
        let h = self.cfg.hidden;
        let mut hs = tape.leaf(Tensor::zeros(&[h, batch]));
        let mut cs = tape.leaf(Tensor::zeros(&[h, batch]));
        for &x in xs {
            let mut gates = Vec::with_capacity(GATES);
            for gi in 0..GATES {
                let wx = pvars[gi];
                let wh = pvars[GATES + gi];
                let b = pvars[2 * GATES + gi];
                let a = tape.matmul(wx, x);
                let r = tape.matmul(wh, hs);
                let s = tape.add(a, r);
                gates.push(tape.add_bias(s, b));
            }
            let i = tape.sigmoid(gates[0]);
            let f = tape.sigmoid(gates[1]);
            let o = tape.sigmoid(gates[2]);
            let g = tape.tanh(gates[3]);
            let fc = tape.mul(f, cs);
            let ig = tape.mul(i, g);
            cs = tape.add(fc, ig);
            let ct = tape.tanh(cs);
            hs = tape.mul(o, ct);
        }
        let wo = pvars[3 * GATES];
        let bo = pvars[3 * GATES + 1];
        let y = tape.matmul(wo, hs);
        tape.add_bias(y, bo)
    }

    /// Trains on the series' sliding windows.
    pub fn fit(train: &RateSeries, cfg: LstmConfig) -> Self {
        let mut rng = Rng::new(cfg.seed);
        let shapes = Self::param_shapes(&cfg);
        let params: Vec<Tensor> = shapes
            .iter()
            .map(|s| {
                let fan_in = s.iter().skip(1).product::<usize>().max(1) as f32;
                Tensor::rand_uniform(&mut rng, s, (1.0 / fan_in.sqrt()).min(0.5))
            })
            .collect();
        let shape_refs: Vec<&[usize]> = shapes.iter().map(|s| s.as_slice()).collect();
        let mut opt = Adam::new(&shape_refs, cfg.lr, 1e-5);
        let mut model = Self { cfg, params };

        let windows = train.windows(model.cfg.t_in, model.cfg.max_horizon);
        assert!(!windows.is_empty(), "training series too short for LSTM");
        let n = train.width();
        let mut order: Vec<usize> = (0..windows.len()).collect();
        for _ in 0..model.cfg.epochs {
            rng.shuffle(&mut order);
            for &wi in order.iter().take(model.cfg.steps_per_epoch) {
                let (input, target) = &windows[wi];
                let means: Vec<f64> = (0..n)
                    .map(|j| {
                        (input.iter().map(|r| r[j]).sum::<f64>() / input.len() as f64).max(1e-6)
                    })
                    .collect();
                let mut tape = Tape::new();
                let pvars: Vec<Var> = model.params.iter().map(|p| tape.leaf(p.clone())).collect();
                let xs: Vec<Var> = input
                    .iter()
                    .map(|row| {
                        let data: Vec<f32> =
                            row.iter().zip(&means).map(|(v, m)| (v / m) as f32).collect();
                        tape.leaf(Tensor::new(&[1, n], data))
                    })
                    .collect();
                let pred = model.forward(&mut tape, &pvars, &xs, n);
                let tgt: Vec<f32> = target
                    .iter()
                    .flat_map(|row| row.iter().zip(&means).map(|(v, m)| (v / m) as f32))
                    .collect();
                let loss = tape.mae_loss(pred, Tensor::new(&[model.cfg.max_horizon, n], tgt));
                let grads = tape.backward(loss);
                let grad_refs: Vec<Option<&Tensor>> = pvars.iter().map(|v| grads.get(*v)).collect();
                opt.step(&mut model.params, &grad_refs);
            }
        }
        model
    }
}

impl Forecaster for Lstm {
    fn name(&self) -> &'static str {
        "LSTM"
    }

    fn forecast(&self, history: &[Vec<f64>], t_f: usize) -> Vec<Vec<f64>> {
        let n = history.last().map_or(0, Vec::len);
        let t_f = t_f.min(self.cfg.max_horizon);
        let window = &history[history.len().saturating_sub(self.cfg.t_in)..];
        let means: Vec<f64> = (0..n)
            .map(|j| (window.iter().map(|r| r[j]).sum::<f64>() / window.len() as f64).max(1e-6))
            .collect();
        let mut tape = Tape::new();
        let pvars: Vec<Var> = self.params.iter().map(|p| tape.leaf(p.clone())).collect();
        let xs: Vec<Var> = window
            .iter()
            .map(|row| {
                let data: Vec<f32> = row.iter().zip(&means).map(|(v, m)| (v / m) as f32).collect();
                tape.leaf(Tensor::new(&[1, n], data))
            })
            .collect();
        let pred = self.forward(&mut tape, &pvars, &xs, n);
        let pv = tape.value(pred);
        (0..t_f)
            .map(|h| (0..n).map(|j| (pv.at2(h, j) as f64 * means[j]).max(0.0)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::evaluate;

    #[test]
    fn lstm_trains_and_predicts() {
        let full = RateSeries::bustracker_hot(120, 0.05, 3);
        let (train, _) = full.split(90);
        let cfg = LstmConfig {
            hidden: 8,
            epochs: 25,
            steps_per_epoch: 8,
            max_horizon: 5,
            t_in: 12,
            ..Default::default()
        };
        let lstm = Lstm::fit(&train, cfg);
        let e = evaluate(&lstm, &full, 90, 5);
        assert!(e.is_finite());
        assert!(e < 0.8, "LSTM MAPE {e} should be sane");
        let pred = lstm.forecast(&full.values[..20], 5);
        assert_eq!(pred.len(), 5);
        assert_eq!(pred[0].len(), 14);
        assert!(pred.iter().flatten().all(|v| v.is_finite() && *v >= 0.0));
    }
}
