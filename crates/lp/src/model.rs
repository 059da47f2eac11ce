//! Linear-program modelling API.
//!
//! A [`LinearProgram`] is a minimization problem over continuous
//! variables with lower/upper bounds and sparse linear constraints.
//! Maximization is expressed by negating objective coefficients (the
//! TE formulations in the paper are all stated as minimizations of the
//! global loss `Φ`, Eqn (2)).

use serde::Serialize;

/// Index of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct VarId(pub usize);

impl VarId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Index of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ConstraintId(pub usize);

impl ConstraintId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Sense {
    /// `Σ a_j x_j <= b`
    Le,
    /// `Σ a_j x_j >= b`
    Ge,
    /// `Σ a_j x_j = b`
    Eq,
}

/// A sparse linear constraint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Constraint {
    /// `(variable, coefficient)` pairs; variables may repeat (they are
    /// summed during solving).
    pub terms: Vec<(VarId, f64)>,
    /// Constraint direction.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional label for diagnostics.
    pub name: Option<String>,
}

/// A variable's metadata.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Variable {
    /// Lower bound (finite; default 0).
    pub lower: f64,
    /// Upper bound (`f64::INFINITY` for unbounded above).
    pub upper: f64,
    /// Objective coefficient (minimized).
    pub objective: f64,
    /// Optional label for diagnostics.
    pub name: Option<String>,
}

/// A minimization linear program.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LinearProgram {
    vars: Vec<Variable>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lower, upper]` and the given
    /// objective coefficient.
    ///
    /// # Panics
    /// Panics if `lower` is not finite, `upper < lower`, or the
    /// objective coefficient is not finite.
    pub fn add_var(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(upper >= lower, "upper < lower ({upper} < {lower})");
        assert!(objective.is_finite(), "objective must be finite");
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            lower,
            upper,
            objective,
            name: None,
        });
        id
    }

    /// Adds a nonnegative variable (`[0, ∞)`) — the common TE column.
    pub fn var_nonneg(&mut self, objective: f64) -> VarId {
        self.add_var(0.0, f64::INFINITY, objective)
    }

    /// Adds a variable confined to `[0, 1]` (fractions, indicator
    /// relaxations).
    pub fn var_unit(&mut self, objective: f64) -> VarId {
        self.add_var(0.0, 1.0, objective)
    }

    /// Adds a variable with *finite* bounds `[lower, upper]`.
    ///
    /// This is the first-class way to state a box constraint: the
    /// sparse engine handles the bound natively in its ratio test (no
    /// extra row, the basis stays at the size of the genuine
    /// constraint set). Encoding the same bound as a singleton
    /// `x <= u` row is deprecated — use this instead.
    ///
    /// # Panics
    /// Panics if either bound is non-finite or `upper < lower`.
    pub fn var_bounded(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        assert!(
            upper.is_finite(),
            "var_bounded requires a finite upper bound"
        );
        self.add_var(lower, upper, objective)
    }

    /// Replaces the bounds of an existing variable with
    /// `[lower, upper]` (branch-and-bound states its branches this
    /// way).
    ///
    /// # Panics
    /// Panics if `lower` is not finite or `upper < lower`, like
    /// [`LinearProgram::add_var`].
    pub(crate) fn set_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(upper >= lower, "upper < lower ({upper} < {lower})");
        let var = &mut self.vars[v.index()];
        var.lower = lower;
        var.upper = upper;
    }

    /// Adds a named variable.
    pub fn add_named_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        let id = self.add_var(lower, upper, objective);
        self.vars[id.index()].name = Some(name.into());
        id
    }

    /// Adds a constraint `Σ terms {<=,>=,=} rhs`.
    ///
    /// # Panics
    /// Panics on unknown variables or non-finite numbers.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> ConstraintId {
        assert!(rhs.is_finite(), "rhs must be finite");
        for &(v, c) in &terms {
            assert!(v.index() < self.vars.len(), "unknown variable {v:?}");
            assert!(c.is_finite(), "coefficient must be finite");
        }
        let id = ConstraintId(self.constraints.len());
        self.constraints.push(Constraint {
            terms,
            sense,
            rhs,
            name: None,
        });
        id
    }

    /// Replaces the right-hand side of an existing constraint (used by
    /// iterative algorithms like Benders that re-solve with new RHS).
    pub fn set_rhs(&mut self, c: ConstraintId, rhs: f64) {
        assert!(rhs.is_finite());
        self.constraints[c.index()].rhs = rhs;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable metadata.
    pub fn var(&self, v: VarId) -> &Variable {
        &self.vars[v.index()]
    }

    /// All variables.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Constraint row.
    pub fn constraint(&self, c: ConstraintId) -> &Constraint {
        &self.constraints[c.index()]
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        self.vars
            .iter()
            .zip(x)
            .map(|(v, &xi)| v.objective * xi)
            .sum()
    }

    /// Checks primal feasibility of `x` within tolerance `tol`,
    /// returning the first violated constraint/bound description.
    pub fn check_feasible(&self, x: &[f64], tol: f64) -> Result<(), String> {
        assert_eq!(x.len(), self.vars.len());
        for (i, (v, &xi)) in self.vars.iter().zip(x).enumerate() {
            if xi < v.lower - tol || xi > v.upper + tol {
                return Err(format!(
                    "variable {} = {xi} outside [{}, {}]",
                    v.name.clone().unwrap_or_else(|| format!("x{i}")),
                    v.lower,
                    v.upper
                ));
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.index()]).sum();
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(format!(
                    "constraint {} violated: lhs = {lhs}, sense {:?}, rhs = {}",
                    c.name.clone().unwrap_or_else(|| format!("c{i}")),
                    c.sense,
                    c.rhs
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut lp = LinearProgram::new();
        let x = lp.add_named_var("x", 0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, 5.0, -2.0);
        let c = lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 10.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.var(x).name.as_deref(), Some("x"));
        assert_eq!(lp.constraint(c).rhs, 10.0);
        assert_eq!(lp.objective_value(&[3.0, 1.0]), 1.0);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 0.5);
        assert!(lp.check_feasible(&[0.7], 1e-9).is_ok());
        assert!(lp.check_feasible(&[0.2], 1e-9).is_err());
        assert!(lp.check_feasible(&[1.5], 1e-9).is_err());
    }

    #[test]
    fn rhs_update() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        let c = lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 1.0);
        lp.set_rhs(c, 4.0);
        assert_eq!(lp.constraint(c).rhs, 4.0);
    }

    #[test]
    #[should_panic(expected = "upper < lower")]
    fn inverted_bounds_rejected() {
        let mut lp = LinearProgram::new();
        lp.add_var(2.0, 1.0, 0.0);
    }

    #[test]
    fn bound_builders_set_expected_boxes() {
        let mut lp = LinearProgram::new();
        let a = lp.var_nonneg(1.0);
        let b = lp.var_unit(-2.0);
        let c = lp.var_bounded(-1.5, 4.0, 0.5);
        assert_eq!((lp.var(a).lower, lp.var(a).upper), (0.0, f64::INFINITY));
        assert_eq!((lp.var(b).lower, lp.var(b).upper), (0.0, 1.0));
        assert_eq!((lp.var(c).lower, lp.var(c).upper), (-1.5, 4.0));
    }

    #[test]
    #[should_panic(expected = "finite upper bound")]
    fn var_bounded_rejects_infinite_upper() {
        let mut lp = LinearProgram::new();
        lp.var_bounded(0.0, f64::INFINITY, 1.0);
    }

    #[test]
    fn set_bounds_replaces_the_box() {
        let mut lp = LinearProgram::new();
        let x = lp.var_unit(1.0);
        lp.set_bounds(x, 1.0, 1.0);
        assert_eq!((lp.var(x).lower, lp.var(x).upper), (1.0, 1.0));
        lp.set_bounds(x, -2.0, f64::INFINITY);
        assert_eq!((lp.var(x).lower, lp.var(x).upper), (-2.0, f64::INFINITY));
        assert_eq!(lp.num_constraints(), 0);
    }

    #[test]
    #[should_panic(expected = "upper < lower")]
    fn set_bounds_rejects_an_empty_box() {
        let mut lp = LinearProgram::new();
        let x = lp.var_unit(1.0);
        lp.set_bounds(x, 1.0, 0.0);
    }
}
