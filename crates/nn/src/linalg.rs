//! Minimal dense linear algebra for the MLP.
//!
//! A deliberately small row-major `f64` matrix — the network is tiny
//! (tens of inputs, 64 hidden units), so clarity beats BLAS here.

use serde::Serialize;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data access (for the optimizer).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable data access.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }
}

/// Numerically stable two-class softmax: the max folds from −∞ and the
/// sum from the neutral element of `Iterator::sum`, as the `n`-class
/// form does.
pub fn softmax(x: [f64; 2]) -> [f64; 2] {
    let m = x.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let e = x.map(|v| (v - m).exp());
    let s: f64 = e.iter().sum();
    e.map(|v| v / s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_swaps_indices() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c + 1) as f64);
        let t = m.transpose();
        assert_eq!(t.row(2), &[3.0, 6.0]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax([1.0, 2.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_under_large_inputs() {
        let p = softmax([1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p[1] - 1.0 / (1.0 + (-1.0f64).exp())).abs() < 1e-12);
    }
}
