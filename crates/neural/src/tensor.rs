//! Dense row-major `f32` tensors with the handful of shapes the DTGM
//! model needs (2-D matrices and 3-D `[channels, nodes, time]` blocks).

use aets_common::rng::Rng;
use std::fmt;

/// A dense tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}(", self.shape)?;
        let n = self.data.len().min(8);
        for v in &self.data[..n] {
            write!(f, "{v:.3}, ")?;
        }
        if self.data.len() > n {
            write!(f, "...")?;
        }
        write!(f, ")")
    }
}

impl Tensor {
    /// Creates a tensor from raw data. Panics if the element count does
    /// not match the shape.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match {} elements",
            data.len()
        );
        Self { shape: shape.to_vec(), data }
    }

    /// All-zero tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// All-`v` tensor.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Self { shape: shape.to_vec(), data: vec![v; shape.iter().product()] }
    }

    /// Scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Self { shape: vec![1], data: vec![v] }
    }

    /// Uniform random tensor in `[-bound, bound]` (Kaiming-ish init).
    pub fn rand_uniform(rng: &mut Rng, shape: &[usize], bound: f32) -> Self {
        let n = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: (0..n).map(|_| -bound + rng.unit_f32() * (2.0 * bound)).collect(),
        }
    }

    /// Shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Scalar value (panics unless single-element).
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar tensor");
        self.data[0]
    }

    /// 2-D indexing.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// 3-D indexing.
    #[inline]
    pub fn at3(&self, i: usize, j: usize, k: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        self.data[(i * self.shape[1] + j) * self.shape[2] + k]
    }

    /// Matrix product of 2-D tensors: `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &rhs.data[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, b) in dst.iter_mut().zip(row) {
                    *d += a * b;
                }
            }
        }
        Tensor::new(&[m, n], out)
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::new(&[n, m], out)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::new(&self.shape, self.data.iter().map(|v| f(*v)).collect())
    }

    /// Elementwise combination of same-shape tensors.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "zip shape mismatch");
        Tensor::new(&self.shape, self.data.iter().zip(&rhs.data).map(|(a, b)| f(*a, *b)).collect())
    }

    /// In-place accumulate `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at2(0, 2), 3.0);
        assert_eq!(t.at2(1, 0), 4.0);
        let t3 = Tensor::new(&[2, 2, 2], (0..8).map(|v| v as f32).collect());
        assert_eq!(t3.at3(1, 0, 1), 5.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn shape_mismatch_panics() {
        Tensor::new(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 6.0);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::new(&[2], vec![1., -2.]);
        let b = Tensor::new(&[2], vec![3., 4.]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[3., -8.]);
        assert_eq!(a.map(f32::abs).data(), &[1., 2.]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[4., 2.]);
        assert_eq!(b.sum(), 7.0);
    }

    #[test]
    fn rand_uniform_respects_bound() {
        let mut rng = Rng::new(1);
        let t = Tensor::rand_uniform(&mut rng, &[100], 0.5);
        assert!(t.data().iter().all(|v| v.abs() <= 0.5));
        assert!(t.norm() > 0.0);
    }
}
