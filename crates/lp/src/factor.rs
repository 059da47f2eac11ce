//! Sparse basis factorization for the revised simplex engine.
//!
//! A simplex basis `B` (one column per row, drawn from the transformed
//! constraint matrix) is factorized as a pivot-ordered sparse LU:
//!
//! 1. **Triangular peel** — row and column singletons are eliminated
//!    iteratively. TE bases are near-triangular (slack/artificial
//!    columns are unit vectors and tunnel-path columns touch few rows),
//!    so the peel usually consumes the whole matrix and generates *no
//!    fill and no numeric updates*: a column-singleton pivot has
//!    nothing to eliminate, and a row-singleton pivot only zeroes
//!    entries of the pivot column itself.
//! 2. **Dense bump** — whatever small residual block survives the peel
//!    is gathered densely and factorized with partial pivoting.
//!
//! Both phases are recorded uniformly as a sequence of pivots, each
//! carrying its elimination multipliers (the `L` part, applied during
//! the forward pass) and its row at elimination time (the `U` part,
//! consumed by back-substitution). [`LuFactors::ftran`] solves
//! `B x = b`, [`LuFactors::btran`] solves `Bᵀ y = c`.
//!
//! Between refactorizations the basis evolves by one of two update
//! strategies, selected by [`crate::EtaUpdate`]:
//!
//! * **Product-form eta updates** ([`EtaFile`]): replacing basis slot
//!   `s` with entering column `q` appends the eta `(s, w)` where
//!   `w = B⁻¹ a_q`, and subsequent FTRAN/BTRAN apply the eta file
//!   after/before the LU solves. The eta file is truncated by periodic
//!   refactorization (every [`REFACTOR_INTERVAL`] pivots), which bounds
//!   both the solve cost and the accumulated round-off.
//! * **Forrest–Tomlin updates** ([`FtFactors`]): the LU factors
//!   themselves absorb each basis change. The entering column's L-pass
//!   image (the *spike*) replaces the leaving column of `U`, the
//!   leaving row is eliminated against the later rows (producing one
//!   new row-elimination operator appended to `L`), and the
//!   row/column permutation is cyclically shifted so `U` stays
//!   logically upper triangular. Refactorization is triggered by a
//!   numerical stability test on the new diagonal — not a fixed
//!   cadence — so FTRAN/BTRAN stay near the cold-factor cost across
//!   hundreds of pivots.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Refactorize after this many eta updates (product-form strategy
/// only). Chosen so eta application stays cheap relative to one LU
/// solve while refactorizations stay rare relative to pivots.
pub const REFACTOR_INTERVAL: usize = 64;

/// Forrest–Tomlin safety valve: refactorize after this many updates
/// even if every diagonal passed the stability test, bounding the
/// appended-operator memory and accumulated round-off. Long chains of
/// near-degenerate pivots (dual cold starts are full of them) drift
/// the factors far enough to endorse pivots that are singular in exact
/// arithmetic, so the valve sits at a couple of refactorization-free
/// hundreds-of-pivots stretches rather than the thousands the
/// stability test alone would allow — 2× the product-form cadence, at
/// a per-update cost that doesn't grow with chain length. A pivot the
/// drifted factors wrongly endorse is caught when the post-pivot
/// refactorization fails and the simplex rolls the basis change back,
/// so the valve only has to keep such events rare, not impossible.
const FT_MAX_UPDATES: usize = 128;

/// Forrest–Tomlin relative stability threshold: the new diagonal must
/// satisfy `|d| ≥ FT_STAB_REL · max|spike|` (and an absolute floor) or
/// the update is refused in favor of a refactorization.
const FT_STAB_REL: f64 = 1e-7;

/// Pivot magnitude below which a factorization is declared singular.
const SINGULAR_TOL: f64 = 1e-11;

/// The basis matrix could not be factorized (structurally or
/// numerically singular). Callers climb the recovery ladder: tighten
/// the peel tolerance, patch the offending column (when known), and
/// only then fall back to the dense backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FactorError {
    /// Basis slot whose pivot collapsed, when the factorization can
    /// attribute the failure to a single column — the
    /// `PatchSingularColumn` recovery rung replaces exactly this slot.
    /// `None` for structural failures with no single culprit.
    pub slot: Option<usize>,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slot {
            Some(s) => write!(f, "singular basis factorization (slot {s})"),
            None => write!(f, "singular basis factorization"),
        }
    }
}

impl std::error::Error for FactorError {}

/// One recorded elimination step.
#[derive(Debug, Clone)]
struct Pivot {
    /// Original row index of the pivot.
    row: usize,
    /// Basis slot (column of `B`) eliminated by this pivot.
    slot: usize,
    /// Diagonal value at elimination time.
    diag: f64,
    /// Elimination multipliers `(target_row, multiplier)`: during the
    /// forward pass, `b[target_row] -= multiplier * b[row]`.
    lcol: Vec<(usize, f64)>,
    /// Off-diagonal entries of the pivot row at elimination time,
    /// `(basis_slot, value)` — slots pivoted later in the order.
    urow: Vec<(usize, f64)>,
}

/// A pivot-ordered sparse LU factorization of a basis matrix.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    pivots: Vec<Pivot>,
    /// Nonzeros stored across `lcol`/`urow`/diagonals.
    nnz: usize,
}

impl LuFactors {
    /// Factorizes the `m × m` basis whose column for slot `s` is the
    /// sparse vector `cols[s]` (`(row, value)` pairs, rows unique),
    /// using the historical tolerances.
    #[cfg(test)]
    pub fn factorize(m: usize, cols: &[Vec<(usize, f64)>]) -> Result<Self, FactorError> {
        Self::factorize_with(m, cols, SINGULAR_TOL, SINGULAR_TOL)
    }

    /// Factorizes with explicit tolerances. `singular_tol` is the pivot
    /// magnitude below which the basis is declared singular;
    /// `peel_tol` is the Markowitz-style threshold below which a
    /// triangular-peel singleton pivot is *deferred* into the
    /// partial-pivoted dense bump instead of being accepted — raising
    /// it (the `TightenTolerance` recovery rung) trades fill-in for
    /// stability without changing which bases are factorizable.
    pub fn factorize_with(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        singular_tol: f64,
        peel_tol: f64,
    ) -> Result<Self, FactorError> {
        assert_eq!(cols.len(), m);
        if m == 0 {
            return Ok(Self { m, pivots: Vec::new(), nnz: 0 });
        }
        // Working copies with per-entry alive flags. Entries are
        // addressed as (slot, pos) pairs so rows and columns can share
        // them.
        let mut col_entries: Vec<Vec<(usize, f64, bool)>> = cols
            .iter()
            .map(|c| c.iter().map(|&(r, v)| (r, v, v != 0.0)).collect())
            .collect();
        let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m]; // (slot, pos)
        for (s, col) in col_entries.iter().enumerate() {
            for (p, &(r, _, alive)) in col.iter().enumerate() {
                if alive {
                    rows[r].push((s, p));
                }
            }
        }
        let mut row_count: Vec<usize> = rows.iter().map(Vec::len).collect();
        let mut col_count: Vec<usize> =
            col_entries.iter().map(|c| c.iter().filter(|e| e.2).count()).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        let mut pivots: Vec<Pivot> = Vec::with_capacity(m);
        let mut nnz = 0usize;

        // Pending singletons, encoded 2*c for columns and 2*r+1 for
        // rows, always taken lowest code first: that order decides
        // every pivot, so it is part of what the solver's bit-identity
        // tests pin. A simplex basis is mostly unit columns, so the
        // queue starts ≈ m long — a min-heap keeps one factorization at
        // O((nnz + m) log m) plus the dense bump.
        let mut queue: BinaryHeap<Reverse<usize>> = (0..2 * m)
            .filter(|&code| [&col_count, &row_count][code % 2][code / 2] == 1)
            .map(Reverse)
            .collect();

        let alive_entry = |col_entries: &[Vec<(usize, f64, bool)>], s: usize| {
            col_entries[s].iter().find(|e| e.2).map(|&(r, v, _)| (r, v))
        };

        while pivots.len() < m {
            let Some(Reverse(code)) = queue.pop() else {
                // No singletons left: factorize the residual bump densely.
                Self::bump(
                    m,
                    &col_entries,
                    &row_done,
                    &col_done,
                    &mut pivots,
                    &mut nnz,
                    singular_tol,
                )?;
                break;
            };
            if code % 2 == 0 {
                // Column singleton: pivot (r, s) with nothing to
                // eliminate; the pivot row's other live entries become
                // U entries resolved by later pivots.
                let s = code / 2;
                if col_done[s] || col_count[s] != 1 {
                    continue;
                }
                let Some((r, v)) = alive_entry(&col_entries, s) else {
                    return Err(FactorError { slot: Some(s) });
                };
                if v.abs() < peel_tol {
                    // Pivot too small for a no-elimination peel step:
                    // defer the column to the partial-pivoted bump.
                    continue;
                }
                let mut urow = Vec::new();
                for &(s2, p2) in &rows[r] {
                    if s2 == s || col_done[s2] {
                        continue;
                    }
                    let e = &mut col_entries[s2][p2];
                    if e.2 {
                        urow.push((s2, e.1));
                        e.2 = false;
                        col_count[s2] -= 1;
                        if col_count[s2] == 1 && !col_done[s2] {
                            queue.push(Reverse(2 * s2));
                        }
                    }
                }
                nnz += 1 + urow.len();
                pivots.push(Pivot { row: r, slot: s, diag: v, lcol: Vec::new(), urow });
                row_done[r] = true;
                col_done[s] = true;
                row_count[r] = 0;
                col_count[s] = 0;
            } else {
                // Row singleton: pivot (r, s); eliminate the other live
                // entries of column s (multipliers only — the pivot row
                // has a single entry so no other column changes).
                let r = code / 2;
                if row_done[r] || row_count[r] != 1 {
                    continue;
                }
                let Some(&(s, p)) = rows[r]
                    .iter()
                    .find(|&&(s2, p2)| !col_done[s2] && col_entries[s2][p2].2)
                else {
                    return Err(FactorError::default());
                };
                let v = col_entries[s][p].1;
                if v.abs() < peel_tol {
                    // Defer to the bump rather than eliminating with a
                    // huge multiplier.
                    continue;
                }
                let mut lcol = Vec::new();
                for e in col_entries[s].iter_mut() {
                    if e.2 && e.0 != r {
                        lcol.push((e.0, e.1 / v));
                        e.2 = false;
                        row_count[e.0] -= 1;
                        if row_count[e.0] == 1 && !row_done[e.0] {
                            queue.push(Reverse(2 * e.0 + 1));
                        }
                    }
                }
                nnz += 1 + lcol.len();
                pivots.push(Pivot { row: r, slot: s, diag: v, lcol, urow: Vec::new() });
                row_done[r] = true;
                col_done[s] = true;
                row_count[r] = 0;
                col_count[s] = 0;
            }
        }
        // Every pivot retires one row and one column, and the bump
        // either pivots on all that remain or fails.
        debug_assert_eq!(pivots.len(), m);
        Ok(Self { m, pivots, nnz })
    }

    /// Dense partial-pivoting LU on the residual block the peel could
    /// not reduce, recorded in the same pivot format.
    fn bump(
        m: usize,
        col_entries: &[Vec<(usize, f64, bool)>],
        row_done: &[bool],
        col_done: &[bool],
        pivots: &mut Vec<Pivot>,
        nnz: &mut usize,
        singular_tol: f64,
    ) -> Result<(), FactorError> {
        let brows: Vec<usize> = (0..m).filter(|&r| !row_done[r]).collect();
        let bcols: Vec<usize> = (0..m).filter(|&c| !col_done[c]).collect();
        let k = brows.len();
        if k != bcols.len() {
            return Err(FactorError::default());
        }
        let mut rpos = vec![usize::MAX; m];
        for (i, &r) in brows.iter().enumerate() {
            rpos[r] = i;
        }
        // Gather dense k×k block (row-major).
        let mut a = vec![0.0f64; k * k];
        for (j, &s) in bcols.iter().enumerate() {
            for e in &col_entries[s] {
                if e.2 {
                    a[rpos[e.0] * k + j] = e.1;
                }
            }
        }
        // rperm[i] = original bump-row position occupying dense row i.
        let mut rperm: Vec<usize> = (0..k).collect();
        for step in 0..k {
            // Partial pivoting: largest magnitude in column `step`.
            let mut best = step;
            let mut best_v = a[rperm[step] * k + step].abs();
            for (i, &rp) in rperm.iter().enumerate().skip(step + 1) {
                let v = a[rp * k + step].abs();
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            if best_v < singular_tol {
                // The offending slot: partial pivoting exhausted every
                // remaining row for this column.
                return Err(FactorError { slot: Some(bcols[step]) });
            }
            rperm.swap(step, best);
            let prow = rperm[step];
            let diag = a[prow * k + step];
            let mut lcol = Vec::new();
            for &rp in rperm.iter().skip(step + 1) {
                let f = a[rp * k + step] / diag;
                if f != 0.0 {
                    lcol.push((brows[rp], f));
                    for j in step..k {
                        a[rp * k + j] -= f * a[prow * k + j];
                    }
                    a[rp * k + step] = 0.0;
                }
            }
            let urow: Vec<(usize, f64)> = (step + 1..k)
                .filter(|&j| a[prow * k + j] != 0.0)
                .map(|j| (bcols[j], a[prow * k + j]))
                .collect();
            *nnz += 1 + lcol.len() + urow.len();
            pivots.push(Pivot {
                row: brows[prow],
                slot: bcols[step],
                diag,
                lcol,
                urow,
            });
        }
        Ok(())
    }

    /// Fill-in beyond the basis nonzero count (0 when the peel consumed
    /// everything).
    pub fn fill_in(&self, basis_nnz: usize) -> usize {
        self.nnz.saturating_sub(basis_nnz)
    }

    /// Solves `B x = b`. `b` is indexed by row; the result is indexed
    /// by basis slot.
    pub fn ftran(&self, b: &[f64]) -> Vec<f64> {
        debug_assert_eq!(b.len(), self.m);
        let mut w = b.to_vec();
        for p in &self.pivots {
            let wr = w[p.row];
            if wr != 0.0 {
                for &(i, f) in &p.lcol {
                    w[i] -= f * wr;
                }
            }
        }
        let mut x = vec![0.0f64; self.m];
        for p in self.pivots.iter().rev() {
            let mut s = w[p.row];
            for &(slot, v) in &p.urow {
                s -= v * x[slot];
            }
            x[p.slot] = s / p.diag;
        }
        x
    }

    /// Solves `Bᵀ y = c`. `c` is indexed by basis slot; the result is
    /// indexed by row.
    pub fn btran(&self, c: &[f64]) -> Vec<f64> {
        debug_assert_eq!(c.len(), self.m);
        // Solve Vᵀ z = c in pivot order (V holds the U rows), then
        // apply the transposed elimination ops in reverse.
        let mut acc = vec![0.0f64; self.m]; // indexed by pivot position
        let mut slot_pos = vec![usize::MAX; self.m];
        for (k, p) in self.pivots.iter().enumerate() {
            slot_pos[p.slot] = k;
        }
        let mut y = vec![0.0f64; self.m]; // indexed by row
        for (k, p) in self.pivots.iter().enumerate() {
            let z = (c[p.slot] - acc[k]) / p.diag;
            y[p.row] = z;
            if z != 0.0 {
                for &(slot, v) in &p.urow {
                    acc[slot_pos[slot]] += v * z;
                }
            }
        }
        for p in self.pivots.iter().rev() {
            let mut s = y[p.row];
            for &(i, f) in &p.lcol {
                s -= f * y[i];
            }
            y[p.row] = s;
        }
        y
    }
}

/// One recorded L-side operator of a [`FtFactors`] factorization, in
/// matrix-row space.
#[derive(Debug, Clone)]
enum Lop {
    /// Column eliminator from the cold factorization: with `t =
    /// w[row]`, applies `w[i] -= f · t` for every `(i, f)`.
    Col { row: usize, terms: Vec<(usize, f64)> },
    /// Row eliminator appended by a Forrest–Tomlin update: applies
    /// `w[row] -= Σ f · w[i]`.
    Row { row: usize, terms: Vec<(usize, f64)> },
}

/// Outcome of a [`FtFactors::update`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtUpdate {
    /// The factors absorbed the basis change.
    Applied,
    /// The new diagonal failed the stability test (or the safety valve
    /// tripped); the factors are unchanged and the caller must
    /// refactorize from the updated basis columns.
    NeedsRefactor,
}

/// A Forrest–Tomlin-updatable LU factorization.
///
/// Internally `B = L · U` where `L` is the composition of the recorded
/// [`Lop`]s (matrix-row space) and `U` is stored by *physical* row
/// index with a separate logical ordering: `order[l]` is the physical
/// index at logical position `l`, and `U` is upper triangular in that
/// ordering. Physical index `k` is tied to matrix row `row_of_phys[k]`
/// and basis slot `slot_of_phys[k]`; updates never re-tie these, they
/// only rewrite one column/row of `U` and cyclically shift the logical
/// order.
#[derive(Debug, Clone)]
pub struct FtFactors {
    m: usize,
    lops: Vec<Lop>,
    /// `U` diagonal, by physical index.
    diag: Vec<f64>,
    /// Off-diagonal `U` entries per physical row: `(phys_col, value)`,
    /// every entry logically after its row.
    urows: Vec<Vec<(usize, f64)>>,
    /// Reverse index: physical rows holding an entry in each physical
    /// column. May contain stale rows after updates (consumers
    /// re-check); rebuilt exactly for a column when it is replaced.
    ucols: Vec<Vec<usize>>,
    row_of_phys: Vec<usize>,
    slot_of_phys: Vec<usize>,
    phys_of_slot: Vec<usize>,
    /// Logical ordering of physical indices (`order[l]` = phys at
    /// logical position `l`) and its inverse.
    order: Vec<usize>,
    logpos: Vec<usize>,
    /// Updates absorbed since the cold factorization.
    updates: usize,
    /// Nonzeros across diag/urows/lops (monitoring only).
    nnz: usize,
    /// Singular-pivot floor for the update stability test (defaults to
    /// the historical [`SINGULAR_TOL`]).
    singular_tol: f64,
    /// Relative stability threshold for the update diagonal (defaults
    /// to the historical [`FT_STAB_REL`]).
    stab_rel: f64,
}

impl FtFactors {
    /// Converts a cold LU factorization into updatable form.
    pub fn from_lu(lu: &LuFactors) -> Self {
        let m = lu.m;
        let mut phys_of_slot = vec![0usize; m];
        for (k, p) in lu.pivots.iter().enumerate() {
            phys_of_slot[p.slot] = k;
        }
        let mut urows = Vec::with_capacity(m);
        let mut ucols: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (k, p) in lu.pivots.iter().enumerate() {
            let row: Vec<(usize, f64)> =
                p.urow.iter().map(|&(slot, v)| (phys_of_slot[slot], v)).collect();
            for &(c, _) in &row {
                ucols[c].push(k);
            }
            urows.push(row);
        }
        // Hoisting every elimination column into a single forward pass
        // is exactly what `LuFactors::ftran` does already: `lcol`
        // multipliers only target rows pivoted later, so applying them
        // in pivot order before any back-substitution is equivalent.
        let lops: Vec<Lop> = lu
            .pivots
            .iter()
            .filter(|p| !p.lcol.is_empty())
            .map(|p| Lop::Col { row: p.row, terms: p.lcol.clone() })
            .collect();
        Self {
            m,
            lops,
            diag: lu.pivots.iter().map(|p| p.diag).collect(),
            urows,
            ucols,
            row_of_phys: lu.pivots.iter().map(|p| p.row).collect(),
            slot_of_phys: lu.pivots.iter().map(|p| p.slot).collect(),
            phys_of_slot,
            order: (0..m).collect(),
            logpos: (0..m).collect(),
            updates: 0,
            nnz: lu.nnz,
            singular_tol: SINGULAR_TOL,
            stab_rel: FT_STAB_REL,
        }
    }

    /// Overrides the update stability tolerances (see
    /// [`crate::Tolerances::singular`] and
    /// [`crate::Tolerances::ft_stability`]).
    pub fn set_tolerances(&mut self, singular_tol: f64, stab_rel: f64) {
        self.singular_tol = singular_tol;
        self.stab_rel = stab_rel;
    }

    /// Applies the recorded L operators to a row-space vector.
    fn apply_lops(&self, w: &mut [f64]) {
        for lop in &self.lops {
            match lop {
                Lop::Col { row, terms } => {
                    let t = w[*row];
                    if t != 0.0 {
                        for &(i, f) in terms {
                            w[i] -= f * t;
                        }
                    }
                }
                Lop::Row { row, terms } => {
                    let mut s = w[*row];
                    for &(i, f) in terms {
                        s -= f * w[i];
                    }
                    w[*row] = s;
                }
            }
        }
    }

    /// Solves `B x = b`. `b` is indexed by row; the result is indexed
    /// by basis slot.
    pub fn ftran(&self, b: &[f64]) -> Vec<f64> {
        debug_assert_eq!(b.len(), self.m);
        let mut w = b.to_vec();
        self.apply_lops(&mut w);
        // Gather into physical indexing and back-substitute in reverse
        // logical order.
        let mut x = vec![0.0f64; self.m]; // by phys
        for l in (0..self.m).rev() {
            let k = self.order[l];
            let mut s = w[self.row_of_phys[k]];
            for &(c, v) in &self.urows[k] {
                s -= v * x[c];
            }
            x[k] = s / self.diag[k];
        }
        let mut out = vec![0.0f64; self.m];
        for k in 0..self.m {
            out[self.slot_of_phys[k]] = x[k];
        }
        out
    }

    /// Solves `Bᵀ y = c`. `c` is indexed by basis slot; the result is
    /// indexed by row.
    pub fn btran(&self, c: &[f64]) -> Vec<f64> {
        debug_assert_eq!(c.len(), self.m);
        // Solve Uᵀ z = c in forward logical order, pushing each solved
        // component's contributions to the later rows it appears under.
        let mut acc = vec![0.0f64; self.m]; // by phys
        let mut y = vec![0.0f64; self.m]; // by row
        for l in 0..self.m {
            let k = self.order[l];
            let z = (c[self.slot_of_phys[k]] - acc[k]) / self.diag[k];
            if z != 0.0 {
                for &(col, v) in &self.urows[k] {
                    acc[col] += v * z;
                }
            }
            y[self.row_of_phys[k]] = z;
        }
        // Transposed L operators in reverse.
        for lop in self.lops.iter().rev() {
            match lop {
                Lop::Col { row, terms } => {
                    let mut s = y[*row];
                    for &(i, f) in terms {
                        s -= f * y[i];
                    }
                    y[*row] = s;
                }
                Lop::Row { row, terms } => {
                    let t = y[*row];
                    if t != 0.0 {
                        for &(i, f) in terms {
                            y[i] -= f * t;
                        }
                    }
                }
            }
        }
        y
    }

    /// Absorbs the basis change replacing slot `s` with the column
    /// whose raw `(row, value)` entries are `col`. On
    /// [`FtUpdate::NeedsRefactor`] the factors are left unchanged (and
    /// stale): the caller must rebuild from the new basis columns.
    pub fn update(&mut self, s: usize, col: &[(usize, f64)]) -> FtUpdate {
        if self.updates >= FT_MAX_UPDATES {
            return FtUpdate::NeedsRefactor;
        }
        // Spike: the entering column pushed through L, in phys space.
        let mut w = vec![0.0f64; self.m];
        for &(r, v) in col {
            w[r] = v;
        }
        self.apply_lops(&mut w);
        let spike: Vec<f64> = (0..self.m).map(|k| w[self.row_of_phys[k]]).collect();

        let p = self.phys_of_slot[s];
        let lp = self.logpos[p];
        // Eliminate row p against the rows logically after it: with
        // column p replaced by the spike and shifted last, row p's old
        // off-diagonal entries are the only violations of upper
        // triangularity. Each elimination `row_p -= μ · row_c` zeroes
        // the entry at column c, spreads into row c's later columns,
        // and folds `-μ · spike[c]` into the new diagonal.
        let mut rowp = vec![0.0f64; self.m];
        for &(c, v) in &self.urows[p] {
            rowp[c] = v;
        }
        let mut d = spike[p];
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for l in lp + 1..self.m {
            let c = self.order[l];
            let val = rowp[c];
            if val == 0.0 {
                continue;
            }
            let mu = val / self.diag[c];
            rowp[c] = 0.0;
            for &(c2, u) in &self.urows[c] {
                if c2 != p {
                    rowp[c2] -= mu * u;
                }
            }
            d -= mu * spike[c];
            terms.push((c, mu));
        }
        let spike_max = spike.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if d.abs() < self.singular_tol.max(self.stab_rel * spike_max) {
            return FtUpdate::NeedsRefactor;
        }

        // Commit. Old column p disappears (its entries, wherever they
        // live, belong to the leaving basis column) …
        let cols_p = std::mem::take(&mut self.ucols[p]);
        for &k in &cols_p {
            if k != p {
                let before = self.urows[k].len();
                self.urows[k].retain(|&(c, _)| c != p);
                self.nnz = self.nnz.saturating_sub(before - self.urows[k].len());
            }
        }
        // … the spike becomes the new column p (every other row is
        // logically before p once p shifts last, so triangularity
        // holds) …
        self.nnz = self.nnz.saturating_sub(self.urows[p].len() + 1);
        for (k, &v) in spike.iter().enumerate() {
            if k != p && v != 0.0 {
                self.urows[k].push((p, v));
                self.ucols[p].push(k);
                self.nnz += 1;
            }
        }
        // … row p reduces to the lone diagonal `d`.
        self.urows[p].clear();
        self.diag[p] = d;
        self.nnz += 1;
        if !terms.is_empty() {
            self.nnz += terms.len();
            let row = self.row_of_phys[p];
            let terms: Vec<(usize, f64)> =
                terms.iter().map(|&(c, mu)| (self.row_of_phys[c], mu)).collect();
            self.lops.push(Lop::Row { row, terms });
        }
        // Cyclic shift: p moves to the last logical position.
        self.order.remove(lp);
        self.order.push(p);
        for (l, &k) in self.order.iter().enumerate().skip(lp) {
            self.logpos[k] = l;
        }
        self.updates += 1;
        FtUpdate::Applied
    }

    /// Updates absorbed since the cold factorization.
    #[cfg(test)]
    pub fn updates(&self) -> usize {
        self.updates
    }
}

/// One product-form update: basis slot `slot` was replaced by a column
/// whose FTRAN image (through the basis *before* the update) is the
/// sparse vector `col` with diagonal `diag = col[slot]`.
#[derive(Debug, Clone)]
struct Eta {
    slot: usize,
    diag: f64,
    /// Off-diagonal nonzeros `(slot, value)` of the FTRAN image.
    off: Vec<(usize, f64)>,
}

/// The eta file: product-form updates appended since the last
/// refactorization.
#[derive(Debug, Clone, Default)]
pub struct EtaFile {
    etas: Vec<Eta>,
}

impl EtaFile {
    /// Number of etas on file.
    pub fn len(&self) -> usize {
        self.etas.len()
    }

    /// Whether the file is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    /// Appends the update for slot `slot` with FTRAN image `w` (dense,
    /// indexed by slot). Returns `false` (refactorize instead) when the
    /// diagonal is too small to divide by safely.
    pub fn push(&mut self, slot: usize, w: &[f64]) -> bool {
        let diag = w[slot];
        if diag.abs() < 1e-9 {
            return false;
        }
        let off: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != slot && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta { slot, diag, off });
        true
    }

    /// Applies `E_t⁻¹ … E_1⁻¹` in place (the tail of an FTRAN).
    pub fn apply_ftran(&self, w: &mut [f64]) {
        for e in &self.etas {
            let ws = w[e.slot] / e.diag;
            w[e.slot] = ws;
            if ws != 0.0 {
                for &(i, v) in &e.off {
                    w[i] -= v * ws;
                }
            }
        }
    }

    /// Applies `E_1⁻ᵀ … E_t⁻ᵀ` in place (the head of a BTRAN).
    pub fn apply_btran(&self, c: &mut [f64]) {
        for e in self.etas.iter().rev() {
            let mut s = c[e.slot];
            for &(i, v) in &e.off {
                s -= v * c[i];
            }
            c[e.slot] = s / e.diag;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_to_cols(m: usize, a: &[f64]) -> Vec<Vec<(usize, f64)>> {
        (0..m)
            .map(|s| {
                (0..m)
                    .filter(|&r| a[r * m + s] != 0.0)
                    .map(|r| (r, a[r * m + s]))
                    .collect()
            })
            .collect()
    }

    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    fn mat_vec(m: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
        (0..m).map(|r| (0..m).map(|s| a[r * m + s] * x[s]).sum()).collect()
    }

    fn mat_t_vec(m: usize, a: &[f64], y: &[f64]) -> Vec<f64> {
        (0..m).map(|s| (0..m).map(|r| a[r * m + s] * y[r]).sum()).collect()
    }

    #[test]
    fn identity_factorizes() {
        let m = 4;
        let a: Vec<f64> =
            (0..m * m).map(|i| if i % (m + 1) == 0 { 1.0 } else { 0.0 }).collect();
        let f = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let b = vec![3.0, -1.0, 0.5, 2.0];
        assert_eq!(f.ftran(&b), b);
        assert_eq!(f.btran(&b), b);
        assert_eq!(f.fill_in(m), 0);
    }

    #[test]
    fn triangular_peels_completely() {
        // Lower-triangular: every step exposes a row singleton.
        let m = 3;
        let a = vec![2.0, 0.0, 0.0, 1.0, 3.0, 0.0, -1.0, 4.0, 5.0];
        let f = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = mat_vec(m, &a, &x_true);
        let x = f.ftran(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn dense_bump_round_trips() {
        // A fully dense matrix: the peel finds nothing, everything goes
        // through the bump.
        let m = 5;
        let mut a = vec![0.0f64; m * m];
        let mut bits = xorshift(12345);
        let mut next = move || (bits() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        for v in a.iter_mut() {
            *v = next() * 4.0;
        }
        // Diagonal dominance to stay well-conditioned.
        for i in 0..m {
            a[i * m + i] += 10.0;
        }
        let f = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let x_true: Vec<f64> = (0..m).map(|i| i as f64 - 1.5).collect();
        let b = mat_vec(m, &a, &x_true);
        for (xi, ti) in f.ftran(&b).iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
        let y_true: Vec<f64> = (0..m).map(|i| 0.3 * i as f64 - 0.7).collect();
        let c = mat_t_vec(m, &a, &y_true);
        for (yi, ti) in f.btran(&c).iter().zip(&y_true) {
            assert!((yi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn mixed_peel_and_bump() {
        // Block: identity columns mixed with a dense 3x3 core.
        let m = 6;
        let mut a = vec![0.0f64; m * m];
        for i in 0..3 {
            a[i * m + i] = 1.0;
            a[i * m + 4] = 0.5 * (i as f64 + 1.0); // couples into peel rows
        }
        let dense = [
            [4.0, 1.0, -1.0],
            [2.0, 5.0, 1.0],
            [-1.0, 1.0, 6.0],
        ];
        for (bi, row) in dense.iter().enumerate() {
            for (bj, &v) in row.iter().enumerate() {
                a[(3 + bi) * m + (3 + bj)] = v;
            }
        }
        let f = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let x_true = vec![1.0, 2.0, 3.0, -1.0, 0.5, 2.0];
        let b = mat_vec(m, &a, &x_true);
        for (xi, ti) in f.ftran(&b).iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{:?}", f.ftran(&b));
        }
        let y_true = vec![0.1, -0.2, 0.3, 1.0, -1.0, 0.5];
        let c = mat_t_vec(m, &a, &y_true);
        for (yi, ti) in f.btran(&c).iter().zip(&y_true) {
            assert!((yi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let m = 2;
        let a = vec![1.0, 2.0, 2.0, 4.0]; // rank 1
        assert!(LuFactors::factorize(m, &dense_to_cols(m, &a)).is_err());
        let zero_col = vec![1.0, 0.0, 0.0, 0.0];
        assert!(LuFactors::factorize(m, &dense_to_cols(m, &zero_col)).is_err());
    }

    #[test]
    fn eta_updates_track_column_replacement() {
        // B = I, replace slot 1 with column a = [1, 2, 1]^T: w = B^-1 a = a.
        let m = 3;
        let a: Vec<f64> =
            (0..m * m).map(|i| if i % (m + 1) == 0 { 1.0 } else { 0.0 }).collect();
        let f = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let newcol = vec![1.0, 2.0, 1.0];
        let mut etas = EtaFile::default();
        let w = f.ftran(&newcol);
        assert!(etas.push(1, &w));
        // New basis: columns e0, newcol, e2.
        let mut bnew = a.clone();
        for r in 0..m {
            bnew[r * m + 1] = newcol[r];
        }
        let x_true = vec![0.5, -1.0, 2.0];
        let b = mat_vec(m, &bnew, &x_true);
        let mut x = f.ftran(&b);
        etas.apply_ftran(&mut x);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
        let y_true = vec![1.0, 0.5, -0.5];
        let mut c = mat_t_vec(m, &bnew, &y_true);
        etas.apply_btran(&mut c);
        let y = f.btran(&c);
        for (yi, ti) in y.iter().zip(&y_true) {
            assert!((yi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn tiny_eta_diagonal_demands_refactorization() {
        let mut etas = EtaFile::default();
        let w = vec![0.0, 1e-12, 0.0];
        assert!(!etas.push(1, &w));
        assert!(etas.is_empty());
    }

    fn sparse_col(m: usize, a: &[f64], s: usize) -> Vec<(usize, f64)> {
        (0..m).filter(|&r| a[r * m + s] != 0.0).map(|r| (r, a[r * m + s])).collect()
    }

    fn assert_ft_matches(m: usize, a: &[f64], ft: &FtFactors, tol: f64) {
        let x_true: Vec<f64> = (0..m).map(|i| (i as f64) * 0.7 - 1.3).collect();
        let b = mat_vec(m, a, &x_true);
        for (xi, ti) in ft.ftran(&b).iter().zip(&x_true) {
            assert!((xi - ti).abs() < tol, "ftran {:?} vs {x_true:?}", ft.ftran(&b));
        }
        let y_true: Vec<f64> = (0..m).map(|i| 0.4 * i as f64 - 0.9).collect();
        let c = mat_t_vec(m, a, &y_true);
        for (yi, ti) in ft.btran(&c).iter().zip(&y_true) {
            assert!((yi - ti).abs() < tol, "btran {:?} vs {y_true:?}", ft.btran(&c));
        }
    }

    #[test]
    fn ft_conversion_reproduces_lu_solves() {
        let m = 5;
        let mut a = vec![0.0f64; m * m];
        let mut bits = xorshift(99);
        let mut next = move || (bits() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        for v in a.iter_mut() {
            *v = next() * 4.0;
        }
        for i in 0..m {
            a[i * m + i] += 10.0;
        }
        let lu = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let ft = FtFactors::from_lu(&lu);
        assert_ft_matches(m, &a, &ft, 1e-9);
    }

    #[test]
    fn ft_updates_track_column_replacements() {
        // Start from a mixed peel/bump matrix and replace several
        // columns in sequence, verifying the factors against the dense
        // ground truth after every update.
        let m = 6;
        let mut a = vec![0.0f64; m * m];
        for i in 0..3 {
            a[i * m + i] = 1.0;
            a[i * m + 4] = 0.5 * (i as f64 + 1.0);
        }
        let dense = [[4.0, 1.0, -1.0], [2.0, 5.0, 1.0], [-1.0, 1.0, 6.0]];
        for (bi, row) in dense.iter().enumerate() {
            for (bj, &v) in row.iter().enumerate() {
                a[(3 + bi) * m + (3 + bj)] = v;
            }
        }
        let lu = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let mut ft = FtFactors::from_lu(&lu);
        let replacements: &[(usize, [f64; 6])] = &[
            (1, [1.0, 3.0, 0.0, 1.0, 0.0, -1.0]),
            (4, [0.0, 1.0, 2.0, 0.0, 5.0, 1.0]),
            (1, [2.0, 7.0, 1.0, 0.0, 1.0, 0.0]),
            (0, [3.0, 0.5, 0.0, -1.0, 0.0, 2.0]),
            (5, [0.0, 0.0, 1.0, 1.0, 0.0, 4.0]),
        ];
        for &(s, newcol) in replacements {
            for (r, &v) in newcol.iter().enumerate() {
                a[r * m + s] = v;
            }
            assert_eq!(ft.update(s, &sparse_col(m, &a, s)), FtUpdate::Applied);
            assert_ft_matches(m, &a, &ft, 1e-8);
        }
        assert_eq!(ft.updates(), replacements.len());
    }

    #[test]
    fn raised_peel_tolerance_defers_to_bump() {
        // With the peel tolerance above every entry, the whole matrix
        // must route through the partial-pivoted bump — and still
        // round-trip exactly like the peel path.
        let m = 3;
        let a = vec![2.0, 0.0, 0.0, 1.0, 3.0, 0.0, -1.0, 4.0, 5.0];
        let cols = dense_to_cols(m, &a);
        let f = LuFactors::factorize_with(m, &cols, 1e-11, 10.0).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = mat_vec(m, &a, &x_true);
        for (xi, ti) in f.ftran(&b).iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
        let y_true = vec![0.3, -0.1, 0.8];
        let c = mat_t_vec(m, &a, &y_true);
        for (yi, ti) in f.btran(&c).iter().zip(&y_true) {
            assert!((yi - ti).abs() < 1e-12);
        }
        // Default tolerances reproduce the historical result on the
        // same matrix.
        assert!(LuFactors::factorize(m, &cols).is_ok());
    }

    #[test]
    fn singular_error_names_the_offending_slot() {
        // Column 1 duplicates column 0: partial pivoting exhausts the
        // second column of the bump.
        let m = 2;
        let a = vec![1.0, 2.0, 2.0, 4.0]; // rank 1
        let err = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap_err();
        assert!(err.slot.is_some(), "{err:?}");
        // A structurally empty column is attributed too.
        let zero_col = vec![1.0, 0.0, 0.0, 0.0];
        let err = LuFactors::factorize(m, &dense_to_cols(m, &zero_col)).unwrap_err();
        assert_eq!(err.slot, Some(1));
    }

    #[test]
    fn ft_singular_replacement_demands_refactorization() {
        // Replacing column 1 of the identity with e0 makes the basis
        // singular: the new diagonal is exactly 0.
        let m = 3;
        let a: Vec<f64> =
            (0..m * m).map(|i| if i % (m + 1) == 0 { 1.0 } else { 0.0 }).collect();
        let lu = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let mut ft = FtFactors::from_lu(&lu);
        assert_eq!(ft.update(1, &[(0, 1.0)]), FtUpdate::NeedsRefactor);
        // The factors are untouched: the identity still solves.
        assert_ft_matches(m, &a, &ft, 1e-12);
    }

    /// The peel as it was before the heap: singleton codes in a `Vec`
    /// re-sorted after every pivot, minimum taken. Test-only — it pins
    /// the elimination order `factorize_with` must reproduce. Counts
    /// and done flags are indexed by queue code (`2·c` / `2·r+1`).
    fn reference_factorize(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        singular_tol: f64,
        peel_tol: f64,
    ) -> Result<LuFactors, FactorError> {
        let mut ce: Vec<Vec<(usize, f64, bool)>> =
            cols.iter().map(|c| c.iter().map(|&(r, v)| (r, v, v != 0.0)).collect()).collect();
        let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m];
        let mut count = vec![0usize; 2 * m];
        for (s, col) in ce.iter().enumerate() {
            for (p, e) in col.iter().enumerate().filter(|(_, e)| e.2) {
                rows[e.0].push((s, p));
                count[2 * s] += 1;
                count[2 * e.0 + 1] += 1;
            }
        }
        let mut done = vec![false; 2 * m];
        let mut stack: Vec<usize> = (0..2 * m).filter(|&code| count[code] == 1).collect();
        let (mut pivots, mut nnz) = (Vec::new(), 0usize);
        while pivots.len() < m && !stack.is_empty() {
            let code = stack.remove(0);
            if done[code] || count[code] != 1 {
                continue;
            }
            let column = code.is_multiple_of(2);
            let found = if column {
                ce[code / 2].iter().find(|e| e.2).map(|&(r, v, _)| (r, code / 2, v))
            } else {
                let live = |&&(s, p): &&(usize, usize)| !done[2 * s] && ce[s][p].2;
                rows[code / 2].iter().find(live).map(|&(s, p)| (code / 2, s, ce[s][p].1))
            };
            let Some((r, s, v)) = found else {
                return Err(FactorError { slot: column.then_some(code / 2) });
            };
            if v.abs() < peel_tol {
                continue;
            }
            let (mut lcol, mut urow) = (Vec::new(), Vec::new());
            if column {
                for &(s2, p2) in rows[r].iter().filter(|&&(s2, _)| s2 != s && !done[2 * s2]) {
                    let e = &mut ce[s2][p2];
                    if e.2 {
                        urow.push((s2, e.1));
                        e.2 = false;
                        count[2 * s2] -= 1;
                        if count[2 * s2] == 1 {
                            stack.push(2 * s2);
                        }
                    }
                }
            } else {
                for e in ce[s].iter_mut().filter(|e| e.2 && e.0 != r) {
                    lcol.push((e.0, e.1 / v));
                    e.2 = false;
                    count[2 * e.0 + 1] -= 1;
                    if count[2 * e.0 + 1] == 1 && !done[2 * e.0 + 1] {
                        stack.push(2 * e.0 + 1);
                    }
                }
            }
            nnz += 1 + lcol.len() + urow.len();
            pivots.push(Pivot { row: r, slot: s, diag: v, lcol, urow });
            (done[2 * s], done[2 * r + 1], count[2 * s], count[2 * r + 1]) = (true, true, 0, 0);
            stack.sort_unstable();
            // Counts only fall, so a code reaches 1 — and the queue —
            // at most once: the old loop's `dedup` never removed
            // anything.
            assert!(stack.windows(2).all(|w| w[0] != w[1]), "code queued twice: {stack:?}");
        }
        if pivots.len() != m {
            let col_done: Vec<bool> = done.iter().copied().step_by(2).collect();
            let row_done: Vec<bool> = done.iter().copied().skip(1).step_by(2).collect();
            LuFactors::bump(m, &ce, &row_done, &col_done, &mut pivots, &mut nnz, singular_tol)?;
        }
        Ok(LuFactors { m, pivots, nnz })
    }

    /// A basis shaped like the TE programs': `slack_pct` % unit
    /// columns, the rest structurals with 2–6 entries of magnitude
    /// 0.5–20 (so a peel tolerance of 10 defers about half of them).
    /// Column `s` is anchored at row `perm[s]`, which keeps most draws
    /// nonsingular.
    fn te_like_basis(
        next: &mut impl FnMut() -> u64,
        m: usize,
        slack_pct: u64,
    ) -> Vec<Vec<(usize, f64)>> {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, next() as usize % (i + 1));
        }
        (0..m)
            .map(|s| {
                if next() % 100 < slack_pct {
                    return vec![(perm[s], if next().is_multiple_of(4) { -1.0 } else { 1.0 })];
                }
                let mut col: Vec<(usize, f64)> = Vec::new();
                for k in 0..2 + next() % 5 {
                    let r = if k == 0 { perm[s] } else { next() as usize % m };
                    if col.iter().all(|&(r2, _)| r2 != r) {
                        let v = 0.5 + 19.5 * ((next() >> 11) as f64 / (1u64 << 53) as f64);
                        col.push((r, if next().is_multiple_of(2) { v } else { -v }));
                    }
                }
                col
            })
            .collect()
    }

    /// Factorizes with both queues and demands the same answer bit for
    /// bit: every pivot field by field, or the same error. Returns the
    /// factors for the callers' coverage counts.
    fn assert_matches_reference(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        peel_tol: f64,
    ) -> Result<LuFactors, FactorError> {
        let got = LuFactors::factorize_with(m, cols, SINGULAR_TOL, peel_tol);
        let want = reference_factorize(m, cols, SINGULAR_TOL, peel_tol);
        let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
            v.iter().map(|&(i, x)| (i, x.to_bits())).collect()
        };
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!((g.m, g.nnz, g.pivots.len()), (w.m, w.nnz, w.pivots.len()));
                for (k, (p, q)) in g.pivots.iter().zip(&w.pivots).enumerate() {
                    assert_eq!(
                        (p.row, p.slot, p.diag.to_bits(), bits(&p.lcol), bits(&p.urow)),
                        (q.row, q.slot, q.diag.to_bits(), bits(&q.lcol), bits(&q.urow)),
                        "pivot {k} of {m}"
                    );
                }
            }
            (Err(g), Err(w)) => assert_eq!(g, w),
            _ => panic!("m = {m}: {:?} vs {:?}", got.as_ref().err(), want.as_ref().err()),
        }
        got
    }

    #[test]
    fn peel_order_matches_the_resorted_vec_reference() {
        let mut next = xorshift(0x5EED_FAC7);
        // (largest m, slack share, peel tolerance, cases): slack-heavy
        // TE shapes that peel almost completely, the same under a peel
        // tolerance that defers half the singletons, and structural-
        // heavy bases that end in a large dense bump.
        let families = [
            (500, 85, SINGULAR_TOL, 120),
            (300, 60, SINGULAR_TOL, 60),
            (300, 85, 10.0, 80),
            (120, 40, 10.0, 40),
            (90, 10, SINGULAR_TOL, 40),
        ];
        let (mut solved, mut singular, mut bumped, mut peeled, mut deferred) = (0, 0, 0, 0, 0);
        for (max_m, slack_pct, peel_tol, cases) in families {
            for _ in 0..cases {
                let m = 2 + next() as usize % (max_m - 1);
                let cols = te_like_basis(&mut next, m, slack_pct);
                match assert_matches_reference(m, &cols, peel_tol) {
                    Ok(f) => {
                        solved += 1;
                        // A pivot with both an L column and a U row
                        // can only come from the bump.
                        let bump = f.pivots.iter().any(|p| !p.lcol.is_empty() && !p.urow.is_empty());
                        bumped += usize::from(bump);
                        peeled += usize::from(f.fill_in(cols.iter().map(Vec::len).sum()) == 0);
                        deferred += usize::from(peel_tol > 1.0 && bump);
                    }
                    Err(_) => singular += 1,
                }
            }
        }
        // Every regime the queue order matters in is well represented.
        // (340 solved, 0 singular — `singular_inputs_fail_like_the_reference`
        // covers those — 226 through the bump, 137 with no fill-in, 113
        // through a bump the raised tolerance forced.)
        assert!(solved >= 300, "{solved} solved, {singular} singular");
        assert!(bumped >= 150 && peeled >= 100 && deferred >= 80, "{bumped} {peeled} {deferred}");
    }

    #[test]
    fn singular_inputs_fail_like_the_reference() {
        let mut next = xorshift(0x0DEA_DC01);
        let mut attributed = 0;
        for case in 0..60 {
            let m = 5 + next() as usize % 200;
            let mut cols = te_like_basis(&mut next, m, 80);
            let (a, b) = (next() as usize % m, next() as usize % m);
            match case % 3 {
                // A duplicated column, an empty one, and one whose only
                // entries are explicit zeros.
                0 if a != b => cols[a] = cols[b].clone(),
                1 => cols[a].clear(),
                _ => cols[a].iter_mut().for_each(|e| e.1 = 0.0),
            }
            let peel_tol = if case % 2 == 0 { SINGULAR_TOL } else { 10.0 };
            let err = assert_matches_reference(m, &cols, peel_tol);
            attributed += usize::from(matches!(err, Err(FactorError { slot: Some(_) })));
        }
        assert!(attributed >= 40, "{attributed} of 60 singular bases named a slot");
    }

    #[test]
    fn factorization_time_grows_with_nonzeros_not_rows_squared() {
        // Unit columns on the even slots, (s − 1, s) pairs on the odd
        // ones: like a simplex basis, every slot is a singleton when
        // its turn comes and the queue starts ≈ m long. Everything
        // peels, so the time is the queue's.
        let basis = |m: usize| -> Vec<Vec<(usize, f64)>> {
            (0..m)
                .map(|s| if s % 2 == 0 { vec![(s, 1.0)] } else { vec![(s - 1, 1.0), (s, 2.0)] })
                .collect()
        };
        let (small, large) = (basis(4_000), basis(32_000));
        let time = |cols: &[Vec<(usize, f64)>]| {
            let start = std::time::Instant::now();
            let f = LuFactors::factorize(cols.len(), cols).unwrap();
            let took = start.elapsed().as_secs_f64();
            assert_eq!(f.fill_in(cols.iter().map(Vec::len).sum()), 0);
            took
        };
        // Best of three, interleaved so a noisy stretch of the machine
        // hits both sizes; only the ratio is read, never a duration.
        // Linear is 8 and n log n ≈ 10. Measured 8.3–11.4 with the
        // heap (test and release profiles) and 62.2–66.7 with the
        // `Vec` that was re-sorted after every pivot.
        let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            t_small = t_small.min(time(&small));
            t_large = t_large.min(time(&large));
        }
        let ratio = t_large / t_small;
        assert!(ratio < 24.0, "8× the rows cost {ratio:.1}× the time");
    }
}
