//! Minimal dense linear algebra for the MLP.
//!
//! A deliberately small row-major `f64` matrix — the network is tiny
//! (tens of inputs, 64 hidden units), so clarity beats BLAS here.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
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

    /// `y = W x` for a column vector `x` (len = cols).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(x)
                    .map(|(&w, &xi)| w * xi)
                    .sum()
            })
            .collect()
    }

    /// `y = Wᵀ x` for a column vector `x` (len = rows).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows);
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, yi) in y.iter_mut().enumerate() {
                *yi += self.get(r, c) * xr;
            }
        }
        y
    }
}

/// Numerically stable softmax.
pub fn softmax(x: &[f64]) -> Vec<f64> {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = x.iter().map(|&v| (v - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_rectangular() {
        // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c + 1) as f64);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        // transpose: [1,1] * M = [5,7,9]
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_under_large_inputs() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p[1] - 1.0 / (1.0 + (-1.0f64).exp())).abs() < 1e-12);
    }
}
