//! The Adam optimizer (Kingma & Ba \[23\]) with L2 regularization.
//!
//! Appendix A.2: learning rate 1e-3, L2 weight decay 2e-4, fixed
//! hyper-parameters throughout — "the NN algorithm performs well for a
//! wide range of hyper-parameter values".

use serde::Serialize;

/// Adam state for one parameter tensor (flat).
#[derive(Debug, Clone, Serialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    l2: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimizer with explicit learning rate and L2 decay.
    pub fn new(n: usize, lr: f64, l2: f64) -> Self {
        assert!(lr > 0.0 && l2 >= 0.0);
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            l2,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Applies one Adam step: `params -= lr * m̂ / (sqrt(v̂) + ε)`,
    /// with the L2 term folded into the gradient.
    ///
    /// # Panics
    /// Panics if `params`/`grads` lengths differ from the state size.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i] + self.l2 * params[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mh = self.m[i] / b1t;
            let vh = self.v[i] / b2t;
            params[i] -= self.lr * mh / (vh.sqrt() + self.eps);
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // minimize (x - 3)^2 → gradient 2(x - 3).
        let mut opt = Adam::new(1, 0.05, 0.0);
        let mut x = [0.0f64];
        for _ in 0..2000 {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn l2_shrinks_toward_zero() {
        // no data gradient, only weight decay: parameters shrink.
        let mut opt = Adam::new(1, 0.01, 0.1);
        let mut x = [5.0f64];
        for _ in 0..5000 {
            opt.step(&mut x, &[0.0]);
        }
        assert!(x[0].abs() < 0.5, "x = {}", x[0]);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Classic Adam property: the first step has magnitude ≈ lr.
        let mut opt = Adam::new(1, 1e-3, 0.0);
        let mut x = [1.0f64];
        opt.step(&mut x, &[123.0]);
        assert!((1.0 - x[0] - 1e-3).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "parameter count")]
    fn size_mismatch_panics() {
        let mut opt = Adam::new(2, 1e-3, 0.0);
        let mut x = [0.0f64];
        opt.step(&mut x, &[0.0]);
    }
}
