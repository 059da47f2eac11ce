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
//! 2. **Bump** — whatever small residual block survives the peel is
//!    factorized with partial pivoting, over its nonzeros only.
//!
//! Both phases are recorded uniformly as a sequence of pivots, each
//! carrying its elimination multipliers (the `L` part, applied during
//! the forward pass) and its row at elimination time (the `U` part,
//! consumed by back-substitution), in flat arrays indexed by pivot
//! position: the nine in ten pivots of a peeled basis that eliminate
//! nothing cost a solve nothing. [`LuFactors::ftran`] solves
//! `B x = b` for a dense `b` and [`LuFactors::btran`] solves
//! `Bᵀ y = c`, both into the caller's vectors;
//! [`LuFactors::ftran_sparse`] solves for an entering column and
//! visits only the pivots its nonzeros can reach, handing back the
//! nonzero slots of the image ([`FtranImage`]) for the ratio test and
//! the updates to walk instead of all `m`.
//!
//! Between refactorizations the basis evolves by product-form eta
//! updates ([`EtaFile`]): replacing basis slot `s` with entering column
//! `q` appends the eta `(s, w)` where `w = B⁻¹ a_q`, and subsequent
//! FTRAN/BTRAN apply the eta file after/before the LU solves. The eta
//! file is truncated by periodic refactorization (every
//! [`REFACTOR_INTERVAL`] pivots), which bounds both the solve cost and
//! the accumulated round-off.

use crate::simplex::SINGULAR_TOL;
use std::collections::BinaryHeap;

/// Refactorize after this many eta updates. Chosen so eta application
/// stays cheap relative to one LU solve while refactorizations stay
/// rare relative to pivots.
pub const REFACTOR_INTERVAL: usize = 64;

/// The basis matrix could not be factorized (structurally or
/// numerically singular). A solve that meets it ends
/// [`crate::SolveStatus::NumericalFailure`], unless it was restoring a
/// saved basis, which is then dropped for a cold solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorError;

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular basis factorization")
    }
}

impl std::error::Error for FactorError {}

/// A pivot-ordered sparse LU factorization of a basis matrix, stored
/// as flat arrays indexed by pivot position `k` (the order the peel
/// and the bump eliminated in — see [`LuFactors::factorize_with`]).
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// Original row index of pivot `k`.
    row: Vec<usize>,
    /// Basis slot (column of `B`) eliminated by pivot `k`.
    slot: Vec<usize>,
    /// Diagonal value of pivot `k` at elimination time.
    diag: Vec<f64>,
    /// CSR `U`: the off-diagonal `(basis_slot, value)` entries of pivot
    /// `k`'s row at elimination time are `u[u_ptr[k]..u_ptr[k + 1]]`,
    /// every slot pivoted later in the order.
    u_ptr: Vec<usize>,
    u: Vec<(usize, f64)>,
    /// Transposed pattern of `U`: `ut[ut_ptr[k]..ut_ptr[k + 1]]` are
    /// the (earlier) pivot positions whose `U` row has an entry at
    /// `slot[k]` — whom a nonzero at pivot `k` reaches in a
    /// back-substitution.
    ut_ptr: Vec<usize>,
    ut: Vec<usize>,
    /// The pivot positions that have elimination multipliers,
    /// ascending (a peeled basis has them on a tenth of its pivots);
    /// the `i`-th one's `(target_row, multiplier)` pairs are
    /// `l[l_ptr[i]..l_ptr[i + 1]]`: during the forward pass,
    /// `b[target_row] -= multiplier * b[row]`.
    l_pos: Vec<usize>,
    l_ptr: Vec<usize>,
    l: Vec<(usize, f64)>,
    /// Pivot position of each matrix row.
    pos_of_row: Vec<usize>,
    /// Nonzeros stored across `l`/`u`/diagonals.
    nnz: usize,
}

/// The pending singletons of a peel, encoded `2·c` for column `c` and
/// `2·r + 1` for row `r`, always taken lowest code first: that order
/// decides every pivot, so it is part of what the solver's
/// bit-identity tests pin. A live count only falls, so a code reaches
/// 1 — and the queue — at most once; a set therefore pops in the order
/// a min-heap of codes would, and a two-level bitset pops in O(1).
#[derive(Debug, Default)]
struct SingletonQueue {
    /// Bit `code % 64` of `leaf[code / 64]` is set while `code` waits.
    leaf: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set while `leaf[w] != 0`.
    summary: Vec<u64>,
    /// No summary word below this one is nonzero.
    low: usize,
}

impl SingletonQueue {
    /// Empties the queue and sizes it for codes below `codes`.
    fn reset(&mut self, codes: usize) {
        self.leaf.clear();
        self.leaf.resize(codes.div_ceil(64), 0);
        self.summary.clear();
        self.summary.resize(self.leaf.len().div_ceil(64), 0);
        self.low = 0;
    }

    fn push(&mut self, code: usize) {
        let w = code / 64;
        self.leaf[w] |= 1 << (code % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.low = self.low.min(w / 64);
    }

    fn pop(&mut self) -> Option<usize> {
        while *self.summary.get(self.low)? == 0 {
            self.low += 1;
        }
        let w = 64 * self.low + self.summary[self.low].trailing_zeros() as usize;
        let code = 64 * w + self.leaf[w].trailing_zeros() as usize;
        self.leaf[w] &= self.leaf[w] - 1;
        if self.leaf[w] == 0 {
            self.summary[self.low] &= self.summary[self.low] - 1;
        }
        Some(code)
    }
}

/// The bump as a sparse matrix: one cell per position that was ever
/// nonzero, chained into its row's and its column's list
/// (`usize::MAX` ends a list; `head[i]` starts row `i`'s, `head[k + j]`
/// column `j`'s). A cell that cancels to zero stays where it is.
#[derive(Debug, Default)]
struct BumpCells {
    cells: Vec<Cell>,
    head: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    i: usize,
    j: usize,
    v: f64,
    next_in_row: usize,
    next_in_col: usize,
}

impl BumpCells {
    fn reset(&mut self, k: usize) {
        self.cells.clear();
        self.head.clear();
        self.head.resize(2 * k, usize::MAX);
    }

    fn link(&mut self, i: usize, j: usize, v: f64) {
        let (k, n) = (self.head.len() / 2, self.cells.len());
        self.cells.push(Cell { i, j, v, next_in_row: self.head[i], next_in_col: self.head[k + j] });
        (self.head[i], self.head[k + j]) = (n, n);
    }
}

/// The working set of [`LuFactors::factorize_with`], kept by the
/// caller so that a refactorization allocates its factors and nothing
/// else.
#[derive(Debug, Default)]
pub struct FactorWork {
    /// `(row, value, alive)` per basis entry, column after column:
    /// slot `s` owns `ent[col_ptr[s]..col_ptr[s + 1]]`.
    ent: Vec<(usize, f64, bool)>,
    col_ptr: Vec<usize>,
    /// `(slot, index into ent)` of the entries alive at the start, row
    /// after row, slots ascending: row `r` owns
    /// `row_ent[row_ptr[r]..row_ptr[r + 1]]`.
    row_ent: Vec<(usize, usize)>,
    row_ptr: Vec<usize>,
    /// Live entries and pivoted flag per queue code.
    count: Vec<usize>,
    done: Vec<bool>,
    queue: SingletonQueue,
    /// The bump's rows and slots, ascending, and the position of each
    /// such row among them (then in the bump's row permutation).
    brows: Vec<usize>,
    bcols: Vec<usize>,
    rpos: Vec<usize>,
    rperm: Vec<usize>,
    bump: BumpCells,
    /// `at[j]` is the cell of column `j` in the row under elimination,
    /// if `cells[at[j]]` says so itself; anything otherwise.
    at: Vec<usize>,
    /// One bump step's cells to eliminate, and its pivot row's
    /// `(column, value)` pairs.
    targets: Vec<usize>,
    prow: Vec<(usize, f64)>,
}

impl LuFactors {
    /// Factorizes the `m × m` basis whose column for slot `s` is the
    /// sparse vector `cols[s]` (`(row, value)` pairs, rows unique),
    /// using the historical tolerances.
    #[cfg(test)]
    pub fn factorize(m: usize, cols: &[Vec<(usize, f64)>]) -> Result<Self, FactorError> {
        let col = |s: usize| cols[s].as_slice();
        Self::factorize_with(m, col, crate::simplex::PEEL_TOL, &mut FactorWork::default())
    }

    /// Factorizes the `m × m` basis whose column for slot `s` is the
    /// sparse vector `col(s)` (`(row, value)` pairs, rows unique), in
    /// time proportional to its nonzeros plus `m` plus the bump's
    /// arithmetic. A pivot smaller than [`SINGULAR_TOL`] declares the
    /// basis singular; `peel_tol` is the Markowitz-style threshold
    /// below which a triangular-peel singleton pivot is *deferred* into
    /// the partial-pivoted bump instead of being accepted (the engine
    /// passes `PEEL_TOL`; the tests raise it to drive the bump). `work`
    /// is scratch: nothing in it carries over from one call to the next
    /// but its capacity.
    pub fn factorize_with<'a>(
        m: usize,
        col: impl Fn(usize) -> &'a [(usize, f64)],
        peel_tol: f64,
        work: &mut FactorWork,
    ) -> Result<Self, FactorError> {
        let FactorWork { ent, col_ptr, row_ent, row_ptr, count, done, queue, .. } = &mut *work;
        ent.clear();
        col_ptr.clear();
        col_ptr.push(0);
        count.clear();
        count.resize(2 * m, 0);
        for s in 0..m {
            for &(r, v) in col(s) {
                ent.push((r, v, v != 0.0));
                if v != 0.0 {
                    count[2 * s] += 1;
                    count[2 * r + 1] += 1;
                }
            }
            col_ptr.push(ent.len());
        }
        // Row `r` starts at `row_ptr[r + 1]` until the fill below has
        // advanced that cursor to the row's end — the next row's start.
        row_ptr.clear();
        row_ptr.resize(m + 2, 0);
        for r in 0..m {
            row_ptr[r + 2] = row_ptr[r + 1] + count[2 * r + 1];
        }
        row_ent.clear();
        row_ent.resize(row_ptr[m + 1], (0, 0));
        for s in 0..m {
            for p in col_ptr[s]..col_ptr[s + 1] {
                if ent[p].2 {
                    let at = &mut row_ptr[ent[p].0 + 1];
                    row_ent[*at] = (s, p);
                    *at += 1;
                }
            }
        }
        done.clear();
        done.resize(2 * m, false);
        queue.reset(2 * m);
        (0..2 * m).filter(|&code| count[code] == 1).for_each(|code| queue.push(code));

        // Without fill-in every live entry ends up a diagonal, a `U`
        // entry or a multiplier, so each array is sized once.
        let spare = row_ent.len().saturating_sub(m);
        let mut lu = Self {
            m,
            row: Vec::with_capacity(m),
            slot: Vec::with_capacity(m),
            diag: Vec::with_capacity(m),
            u_ptr: Vec::with_capacity(m + 1),
            u: Vec::with_capacity(spare),
            ut_ptr: Vec::new(),
            ut: Vec::new(),
            l_pos: Vec::with_capacity(spare.min(m)),
            l_ptr: Vec::with_capacity(spare.min(m) + 1),
            l: Vec::with_capacity(spare),
            pos_of_row: vec![usize::MAX; m],
            nnz: 0,
        };
        lu.u_ptr.push(0);
        lu.l_ptr.push(0);
        while lu.row.len() < m {
            let Some(code) = queue.pop() else {
                break;
            };
            if done[code] || count[code] != 1 {
                continue;
            }
            let (r, s, v) = if code % 2 == 0 {
                // Column singleton: pivot (r, s) with nothing to
                // eliminate; the pivot row's other live entries become
                // U entries resolved by later pivots.
                let s = code / 2;
                let Some(&(r, v, _)) = ent[col_ptr[s]..col_ptr[s + 1]].iter().find(|e| e.2) else {
                    return Err(FactorError);
                };
                if v.abs() < peel_tol {
                    // Pivot too small for a no-elimination peel step:
                    // defer the column to the partial-pivoted bump.
                    continue;
                }
                for &(s2, p2) in &row_ent[row_ptr[r]..row_ptr[r + 1]] {
                    let e = &mut ent[p2];
                    if s2 != s && !done[2 * s2] && e.2 {
                        lu.u.push((s2, e.1));
                        e.2 = false;
                        count[2 * s2] -= 1;
                        if count[2 * s2] == 1 {
                            queue.push(2 * s2);
                        }
                    }
                }
                (r, s, v)
            } else {
                // Row singleton: pivot (r, s); eliminate the other live
                // entries of column s (multipliers only — the pivot row
                // has a single entry so no other column changes).
                let r = code / 2;
                let Some(&(s, p)) = row_ent[row_ptr[r]..row_ptr[r + 1]]
                    .iter()
                    .find(|&&(s2, p2)| !done[2 * s2] && ent[p2].2)
                else {
                    return Err(FactorError);
                };
                let v = ent[p].1;
                if v.abs() < peel_tol {
                    // Defer to the bump rather than eliminating with a
                    // huge multiplier.
                    continue;
                }
                for e in ent[col_ptr[s]..col_ptr[s + 1]].iter_mut() {
                    if e.2 && e.0 != r {
                        lu.l.push((e.0, e.1 / v));
                        e.2 = false;
                        count[2 * e.0 + 1] -= 1;
                        if count[2 * e.0 + 1] == 1 && !done[2 * e.0 + 1] {
                            queue.push(2 * e.0 + 1);
                        }
                    }
                }
                (r, s, v)
            };
            lu.push_pivot(r, s, v);
            (done[2 * s], done[2 * r + 1], count[2 * s], count[2 * r + 1]) = (true, true, 0, 0);
        }
        if lu.row.len() < m {
            // No singletons left: the residual bump pivots on all the
            // rows and columns that remain, or fails.
            lu.bump(work)?;
        }
        debug_assert_eq!(lu.row.len(), m);
        lu.index();
        Ok(lu)
    }

    /// Closes pivot `(r, s)` with diagonal `diag` over the `U` and `L`
    /// entries pushed since the previous pivot.
    fn push_pivot(&mut self, r: usize, s: usize, diag: f64) {
        let k = self.row.len();
        let l_new = self.l.len() - self.l_ptr[self.l_pos.len()];
        self.nnz += 1 + (self.u.len() - self.u_ptr[k]) + l_new;
        self.u_ptr.push(self.u.len());
        if l_new > 0 {
            self.l_pos.push(k);
            self.l_ptr.push(self.l.len());
        }
        self.pos_of_row[r] = k;
        self.row.push(r);
        self.slot.push(s);
        self.diag.push(diag);
    }

    /// Builds the transposed `U` pattern once all pivots are known.
    fn index(&mut self) {
        let m = self.m;
        let mut pos_of_slot = vec![0usize; m];
        for (k, &s) in self.slot.iter().enumerate() {
            pos_of_slot[s] = k;
        }
        let mut ut_ptr = vec![0usize; m + 1];
        for &(s, _) in &self.u {
            ut_ptr[pos_of_slot[s] + 1] += 1;
        }
        for k in 0..m {
            ut_ptr[k + 1] += ut_ptr[k];
        }
        let mut next = ut_ptr.clone();
        let mut ut = vec![0usize; self.u.len()];
        for k in 0..m {
            for &(s, _) in &self.u[self.u_ptr[k]..self.u_ptr[k + 1]] {
                let p = pos_of_slot[s];
                ut[next[p]] = k;
                next[p] += 1;
            }
        }
        self.ut_ptr = ut_ptr;
        self.ut = ut;
    }

    /// Partial-pivoting LU on the residual block the peel could not
    /// reduce, recorded in the same pivot format: at each step the
    /// largest entry of the leading column, ties to the lowest position
    /// in the row permutation; multipliers in permuted order, `U`
    /// entries by ascending column. The block is held as [`BumpCells`]
    /// and only those are visited. What that skips of a dense sweep is
    /// `x − f·0`, so every stored value has the dense sweep's bits —
    /// short of an infinite `f`, which meets no `0` to make a NaN of.
    fn bump(&mut self, work: &mut FactorWork) -> Result<(), FactorError> {
        let m = self.m;
        let FactorWork { ent, col_ptr, done, brows, bcols, rpos, rperm, bump, at, targets, prow, .. } =
            work;
        brows.clear();
        brows.extend((0..m).filter(|&r| !done[2 * r + 1]));
        bcols.clear();
        bcols.extend((0..m).filter(|&c| !done[2 * c]));
        let k = brows.len();
        if k != bcols.len() {
            return Err(FactorError);
        }
        rpos.resize(m, 0);
        for (i, &r) in brows.iter().enumerate() {
            rpos[r] = i;
        }
        bump.reset(k);
        for (j, &s) in bcols.iter().enumerate() {
            for e in ent[col_ptr[s]..col_ptr[s + 1]].iter().filter(|e| e.2) {
                bump.link(rpos[e.0], j, e.1);
            }
        }
        // rperm[p] = bump row at permuted position p, rpos its inverse.
        rperm.clear();
        rperm.extend(0..k);
        rpos[..k].copy_from_slice(rperm);
        at.resize(k, 0);
        for step in 0..k {
            let (mut best, mut best_v) = (usize::MAX, 0.0);
            targets.clear();
            let mut n = bump.head[k + step];
            while let Some(&Cell { i, v, next_in_col, .. }) = bump.cells.get(n) {
                if rpos[i] >= step && v != 0.0 {
                    targets.push(n);
                    let lower = || rpos[i] < rpos[bump.cells[best].i];
                    if v.abs() > best_v || (v.abs() == best_v && lower()) {
                        (best, best_v) = (n, v.abs());
                    }
                }
                n = next_in_col;
            }
            if best_v < SINGULAR_TOL || best == usize::MAX {
                // Partial pivoting exhausted every remaining row for
                // this column.
                return Err(FactorError);
            }
            let Cell { i: pivot_row, v: diag, .. } = bump.cells[best];
            let swapped = rpos[pivot_row];
            rperm.swap(step, swapped);
            (rpos[rperm[step]], rpos[rperm[swapped]]) = (step, swapped);
            prow.clear();
            let mut n = bump.head[pivot_row];
            while let Some(&Cell { j, v, next_in_row, .. }) = bump.cells.get(n) {
                if j > step && v != 0.0 {
                    prow.push((j, v));
                }
                n = next_in_row;
            }
            prow.sort_unstable_by_key(|&(j, _)| j);
            targets.sort_unstable_by_key(|&t| rpos[bump.cells[t].i]);
            for &t in targets.iter().filter(|&&t| t != best) {
                let Cell { i, v, .. } = bump.cells[t];
                let f = v / diag;
                if f != 0.0 {
                    self.l.push((brows[i], f));
                    let mut n = bump.head[i];
                    while let Some(&Cell { j, next_in_row, .. }) = bump.cells.get(n) {
                        at[j] = n;
                        n = next_in_row;
                    }
                    for &(j, pv) in prow.iter() {
                        match bump.cells.get_mut(at[j]) {
                            Some(c) if (c.i, c.j) == (i, j) => c.v -= f * pv,
                            _ => bump.link(i, j, 0.0 - f * pv),
                        }
                    }
                }
            }
            self.u.extend(prow.iter().map(|&(j, v)| (bcols[j], v)));
            self.push_pivot(brows[pivot_row], bcols[step], diag);
        }
        Ok(())
    }

    /// Fill-in beyond the basis nonzero count (0 when the peel consumed
    /// everything).
    pub fn fill_in(&self, basis_nnz: usize) -> usize {
        self.nnz.saturating_sub(basis_nnz)
    }

    fn urow(&self, k: usize) -> &[(usize, f64)] {
        &self.u[self.u_ptr[k]..self.u_ptr[k + 1]]
    }

    /// Pivot row and multipliers of the `i`-th pivot that has any.
    fn lcol(&self, i: usize) -> (usize, &[(usize, f64)]) {
        (self.row[self.l_pos[i]], &self.l[self.l_ptr[i]..self.l_ptr[i + 1]])
    }

    /// Solves `B x = b` for a dense right-hand side. `b` is indexed by
    /// row and is consumed (the forward pass runs in it); `x`, indexed
    /// by basis slot, is overwritten in full.
    pub fn ftran(&self, b: &mut [f64], x: &mut [f64]) {
        debug_assert!(b.len() == self.m && x.len() == self.m);
        for i in 0..self.l_pos.len() {
            let (row, lcol) = self.lcol(i);
            let br = b[row];
            if br != 0.0 {
                for &(t, f) in lcol {
                    b[t] -= f * br;
                }
            }
        }
        // Every `U` entry names a slot pivoted later, so the reverse
        // walk writes each `x[slot]` before any row reads it.
        for k in (0..self.m).rev() {
            let mut s = b[self.row[k]];
            for &(slot, v) in self.urow(k) {
                s -= v * x[slot];
            }
            x[self.slot[k]] = s / self.diag[k];
        }
    }

    /// Solves `B x = a` for a sparse column `a` (`(row, value)` pairs,
    /// rows unique) into `img.w`, visiting only the pivots the
    /// right-hand side can reach: the rows the forward pass wrote seed
    /// a max-heap of pivot positions, and a pivot that solves to a
    /// nonzero pushes the earlier pivots whose `U` row reads it (the
    /// transposed pattern). Popping in descending position is the
    /// dense walk's order, and each visited pivot runs the dense
    /// walk's whole row dot, so every nonzero of `w` carries the dense
    /// solve's bits; a pivot never visited would have computed
    /// `±0 / diag` and stays `+0.0`. The caller finishes the image
    /// ([`EtaFile::apply_ftran_sparse`]).
    pub fn ftran_sparse(&self, a: &[(usize, f64)], img: &mut FtranImage) {
        img.begin(self.m);
        for &(r, v) in a {
            img.rows[r] = v;
            self.seed(img, r);
        }
        for i in 0..self.l_pos.len() {
            let (row, lcol) = self.lcol(i);
            let br = img.rows[row];
            if br != 0.0 {
                for &(t, f) in lcol {
                    img.rows[t] -= f * br;
                    self.seed(img, t);
                }
            }
        }
        while let Some(k) = img.heap.pop() {
            let mut s = img.rows[self.row[k]];
            for &(slot, v) in self.urow(k) {
                s -= v * img.w[slot];
            }
            let x = s / self.diag[k];
            img.w[self.slot[k]] = x;
            if x != 0.0 {
                for &k2 in &self.ut[self.ut_ptr[k]..self.ut_ptr[k + 1]] {
                    if img.mark(self.slot[k2]) {
                        img.heap.push(k2);
                    }
                }
            }
        }
        for &r in &img.touched {
            img.rows[r] = 0.0;
        }
        img.touched.clear();
    }

    /// Queues the pivot of a row the forward pass wrote.
    fn seed(&self, img: &mut FtranImage, r: usize) {
        let k = self.pos_of_row[r];
        if img.mark(self.slot[k]) {
            img.heap.push(k);
            img.touched.push(r);
        }
    }

    /// Solves `Bᵀ y = c`. `c` is indexed by basis slot, `y` (overwritten
    /// in full) by row; `acc` is slot-indexed scratch.
    pub fn btran(&self, c: &[f64], acc: &mut [f64], y: &mut [f64]) {
        debug_assert!(c.len() == self.m && acc.len() == self.m && y.len() == self.m);
        // Solve Vᵀ z = c in pivot order (V holds the U rows), then
        // apply the transposed elimination ops in reverse.
        acc.fill(0.0);
        for k in 0..self.m {
            let slot = self.slot[k];
            let z = (c[slot] - acc[slot]) / self.diag[k];
            y[self.row[k]] = z;
            if z != 0.0 {
                for &(later, v) in self.urow(k) {
                    acc[later] += v * z;
                }
            }
        }
        for i in (0..self.l_pos.len()).rev() {
            let (row, lcol) = self.lcol(i);
            let mut s = y[row];
            for &(t, f) in lcol {
                s -= f * y[t];
            }
            y[row] = s;
        }
    }
}

/// The FTRAN image `w = B⁻¹ a` of a sparse column, dense by basis slot
/// with the list of its nonzero slots, plus the scratch the
/// reach-limited solve keeps between calls so that one solve costs its
/// reach, not `m`.
#[derive(Debug, Default)]
pub struct FtranImage {
    /// `w` by basis slot; `±0.0` outside `nz`.
    pub w: Vec<f64>,
    /// The slots where `w` is nonzero, ascending.
    pub nz: Vec<usize>,
    /// Row-space right-hand side; all zeros between solves.
    rows: Vec<f64>,
    /// Rows of `rows` written by the solve under way.
    touched: Vec<usize>,
    /// Slots of `w` written since `begin` (a superset of `nz`).
    visited: Vec<usize>,
    /// `stamp[slot] == generation` marks a slot as visited; bumping
    /// the generation unmarks all of them.
    stamp: Vec<u32>,
    generation: u32,
    /// Reachable pivot positions not yet solved, largest first.
    heap: BinaryHeap<usize>,
}

impl FtranImage {
    /// Zeroes the previous image through its visited list and opens a
    /// new generation of marks.
    fn begin(&mut self, m: usize) {
        if self.w.len() != m {
            *self = Self {
                w: vec![0.0; m],
                rows: vec![0.0; m],
                stamp: vec![0; m],
                ..Self::default()
            };
        }
        for &s in &self.visited {
            self.w[s] = 0.0;
        }
        self.visited.clear();
        self.nz.clear();
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Marks `slot` visited; `false` when it already was.
    fn mark(&mut self, slot: usize) -> bool {
        let fresh = self.stamp[slot] != self.generation;
        if fresh {
            self.stamp[slot] = self.generation;
            self.visited.push(slot);
        }
        fresh
    }

    /// Collects the nonzero slots of the visited ones, ascending.
    fn finish(&mut self) {
        let w = &self.w;
        self.nz.extend(self.visited.iter().copied().filter(|&s| w[s] != 0.0));
        self.nz.sort_unstable();
    }
}

/// The eta file: product-form updates appended since the last
/// refactorization, in one flat store. Update `t` replaced basis slot
/// `slot[t]` by a column whose FTRAN image (through the basis *before*
/// the update) has diagonal `diag[t]` and the off-diagonal nonzeros
/// `(slot, value)` in `off[end[t − 1]..end[t]]`.
#[derive(Debug, Clone, Default)]
pub struct EtaFile {
    slot: Vec<usize>,
    diag: Vec<f64>,
    end: Vec<usize>,
    off: Vec<(usize, f64)>,
}

impl EtaFile {
    /// Number of etas on file.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Whether the file is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Empties the file, keeping its storage for the next etas.
    pub fn clear(&mut self) {
        self.slot.clear();
        self.diag.clear();
        self.end.clear();
        self.off.clear();
    }

    fn off(&self, t: usize) -> &[(usize, f64)] {
        &self.off[if t == 0 { 0 } else { self.end[t - 1] }..self.end[t]]
    }

    /// Appends the update for slot `slot` with FTRAN image `w` (dense,
    /// indexed by slot) whose nonzero slots are `nz`, ascending.
    /// Returns `false` (refactorize instead) when the diagonal is too
    /// small to divide by safely.
    pub fn push(&mut self, slot: usize, w: &[f64], nz: &[usize]) -> bool {
        let diag = w[slot];
        if diag.abs() < 1e-9 {
            return false;
        }
        self.off.extend(nz.iter().filter(|&&i| i != slot).map(|&i| (i, w[i])));
        self.slot.push(slot);
        self.diag.push(diag);
        self.end.push(self.off.len());
        true
    }

    /// Applies `E_t⁻¹ … E_1⁻¹` in place (the tail of an FTRAN).
    pub fn apply_ftran(&self, w: &mut [f64]) {
        for (t, (&slot, &diag)) in self.slot.iter().zip(&self.diag).enumerate() {
            let ws = w[slot] / diag;
            w[slot] = ws;
            if ws != 0.0 {
                for &(i, v) in self.off(t) {
                    w[i] -= v * ws;
                }
            }
        }
    }

    /// The same tail on a sparse image, marking the slots it fills in
    /// and closing the image's nonzero list. An eta whose slot holds a
    /// zero is skipped (the dense pass would store `±0 / diag` there
    /// and touch nothing else).
    pub fn apply_ftran_sparse(&self, img: &mut FtranImage) {
        for (t, (&slot, &diag)) in self.slot.iter().zip(&self.diag).enumerate() {
            if img.w[slot] == 0.0 {
                continue;
            }
            let ws = img.w[slot] / diag;
            img.w[slot] = ws;
            if ws != 0.0 {
                for &(i, v) in self.off(t) {
                    img.w[i] -= v * ws;
                    img.mark(i);
                }
            }
        }
        img.finish();
    }

    /// Applies `E_1⁻ᵀ … E_t⁻ᵀ` in place (the head of a BTRAN).
    pub fn apply_btran(&self, c: &mut [f64]) {
        for (t, (&slot, &diag)) in self.slot.iter().zip(&self.diag).enumerate().rev() {
            let mut s = c[slot];
            for &(i, v) in self.off(t) {
                s -= v * c[i];
            }
            c[slot] = s / diag;
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

    /// `factorize_with` over a slice of columns, in the one working set
    /// its thread keeps: whatever a test factorized before — a larger
    /// basis, one that failed half way — is what the next call finds.
    fn factorize_tol(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        peel_tol: f64,
    ) -> Result<LuFactors, FactorError> {
        thread_local!(static WORK: std::cell::RefCell<FactorWork> = Default::default());
        let col = |s: usize| cols[s].as_slice();
        WORK.with_borrow_mut(|w| LuFactors::factorize_with(m, col, peel_tol, w))
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

    fn nonzeros(w: &[f64]) -> Vec<usize> {
        (0..w.len()).filter(|&s| w[s] != 0.0).collect()
    }

    /// The dense solves with fresh vectors in and out.
    impl LuFactors {
        fn ftran_vec(&self, b: &[f64]) -> Vec<f64> {
            let mut x = vec![f64::NAN; self.m];
            self.ftran(&mut b.to_vec(), &mut x);
            x
        }

        fn btran_vec(&self, c: &[f64]) -> Vec<f64> {
            let mut y = vec![f64::NAN; self.m];
            self.btran(c, &mut vec![f64::NAN; self.m], &mut y);
            y
        }
    }

    #[test]
    fn identity_factorizes() {
        let m = 4;
        let a: Vec<f64> =
            (0..m * m).map(|i| if i % (m + 1) == 0 { 1.0 } else { 0.0 }).collect();
        let f = LuFactors::factorize(m, &dense_to_cols(m, &a)).unwrap();
        let b = vec![3.0, -1.0, 0.5, 2.0];
        assert_eq!(f.ftran_vec(&b), b);
        assert_eq!(f.btran_vec(&b), b);
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
        let x = f.ftran_vec(&b);
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
        for (xi, ti) in f.ftran_vec(&b).iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
        let y_true: Vec<f64> = (0..m).map(|i| 0.3 * i as f64 - 0.7).collect();
        let c = mat_t_vec(m, &a, &y_true);
        for (yi, ti) in f.btran_vec(&c).iter().zip(&y_true) {
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
        for (xi, ti) in f.ftran_vec(&b).iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{:?}", f.ftran_vec(&b));
        }
        let y_true = vec![0.1, -0.2, 0.3, 1.0, -1.0, 0.5];
        let c = mat_t_vec(m, &a, &y_true);
        for (yi, ti) in f.btran_vec(&c).iter().zip(&y_true) {
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
        let w = f.ftran_vec(&newcol);
        assert!(etas.push(1, &w, &nonzeros(&w)));
        // New basis: columns e0, newcol, e2.
        let mut bnew = a.clone();
        for r in 0..m {
            bnew[r * m + 1] = newcol[r];
        }
        let x_true = vec![0.5, -1.0, 2.0];
        let b = mat_vec(m, &bnew, &x_true);
        let mut x = f.ftran_vec(&b);
        etas.apply_ftran(&mut x);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
        let y_true = vec![1.0, 0.5, -0.5];
        let mut c = mat_t_vec(m, &bnew, &y_true);
        etas.apply_btran(&mut c);
        let y = f.btran_vec(&c);
        for (yi, ti) in y.iter().zip(&y_true) {
            assert!((yi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn tiny_eta_diagonal_demands_refactorization() {
        let mut etas = EtaFile::default();
        let w = vec![0.0, 1e-12, 0.0];
        assert!(!etas.push(1, &w, &nonzeros(&w)));
        assert!(etas.is_empty());
    }

    #[test]
    fn raised_peel_tolerance_defers_to_bump() {
        // With the peel tolerance above every entry, the whole matrix
        // must route through the partial-pivoted bump — and still
        // round-trip exactly like the peel path.
        let m = 3;
        let a = vec![2.0, 0.0, 0.0, 1.0, 3.0, 0.0, -1.0, 4.0, 5.0];
        let cols = dense_to_cols(m, &a);
        let f = factorize_tol(m, &cols, 10.0).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = mat_vec(m, &a, &x_true);
        for (xi, ti) in f.ftran_vec(&b).iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
        let y_true = vec![0.3, -0.1, 0.8];
        let c = mat_t_vec(m, &a, &y_true);
        for (yi, ti) in f.btran_vec(&c).iter().zip(&y_true) {
            assert!((yi - ti).abs() < 1e-12);
        }
        // Default tolerances reproduce the historical result on the
        // same matrix.
        assert!(LuFactors::factorize(m, &cols).is_ok());
    }

    /// One elimination step as `LuFactors` stored it before the flat
    /// layout. With [`RefLu`] and [`RefEtas`] — that layout's solves,
    /// kept word for word — it is the test-only oracle the flat kernels
    /// are held to, entry by entry.
    #[derive(Debug, Clone)]
    struct Pivot {
        row: usize,
        slot: usize,
        diag: f64,
        /// `(target_row, multiplier)`.
        lcol: Vec<(usize, f64)>,
        /// `(basis_slot, value)`, slots pivoted later.
        urow: Vec<(usize, f64)>,
    }

    struct RefLu {
        m: usize,
        pivots: Vec<Pivot>,
        nnz: usize,
    }

    impl RefLu {
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
                return Err(FactorError);
            }
            let mut rpos = vec![usize::MAX; m];
            for (i, &r) in brows.iter().enumerate() {
                rpos[r] = i;
            }
            let mut a = vec![0.0f64; k * k];
            for (j, &s) in bcols.iter().enumerate() {
                for e in &col_entries[s] {
                    if e.2 {
                        a[rpos[e.0] * k + j] = e.1;
                    }
                }
            }
            let mut rperm: Vec<usize> = (0..k).collect();
            for step in 0..k {
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
                    return Err(FactorError);
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
                pivots.push(Pivot { row: brows[prow], slot: bcols[step], diag, lcol, urow });
            }
            Ok(())
        }

        fn ftran(&self, b: &[f64]) -> Vec<f64> {
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

        fn btran(&self, c: &[f64]) -> Vec<f64> {
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

    /// One product-form update as the eta file stored it, pushed from
    /// a dense image.
    struct Eta {
        slot: usize,
        diag: f64,
        off: Vec<(usize, f64)>,
    }

    #[derive(Default)]
    struct RefEtas(Vec<Eta>);

    impl RefEtas {
        fn push(&mut self, slot: usize, w: &[f64]) -> bool {
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
            self.0.push(Eta { slot, diag, off });
            true
        }

        fn apply_ftran(&self, w: &mut [f64]) {
            for e in &self.0 {
                let ws = w[e.slot] / e.diag;
                w[e.slot] = ws;
                if ws != 0.0 {
                    for &(i, v) in &e.off {
                        w[i] -= v * ws;
                    }
                }
            }
        }

        fn apply_btran(&self, c: &mut [f64]) {
            for e in self.0.iter().rev() {
                let mut s = c[e.slot];
                for &(i, v) in &e.off {
                    s -= v * c[i];
                }
                c[e.slot] = s / e.diag;
            }
        }
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
    ) -> Result<RefLu, FactorError> {
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
                return Err(FactorError);
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
            RefLu::bump(m, &ce, &row_done, &col_done, &mut pivots, &mut nnz, singular_tol)?;
        }
        Ok(RefLu { m, pivots, nnz })
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

    /// Pivot `k` of the flat factors in the oracle's form.
    fn pivot_of(f: &LuFactors, k: usize) -> Pivot {
        let lcol = f.l_pos.binary_search(&k).map_or(Vec::new(), |i| f.lcol(i).1.to_vec());
        Pivot { row: f.row[k], slot: f.slot[k], diag: f.diag[k], lcol, urow: f.urow(k).to_vec() }
    }

    /// Factorizes with both queues and demands the same answer bit for
    /// bit: every pivot field by field, or the same error. Returns both
    /// sets of factors for the callers' coverage counts and solves.
    fn assert_matches_reference(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        peel_tol: f64,
    ) -> Result<(LuFactors, RefLu), FactorError> {
        let got = factorize_tol(m, cols, peel_tol);
        let want = reference_factorize(m, cols, SINGULAR_TOL, peel_tol);
        let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
            v.iter().map(|&(i, x)| (i, x.to_bits())).collect()
        };
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!((g.m, g.nnz, g.row.len()), (w.m, w.nnz, w.pivots.len()));
                for (k, q) in w.pivots.iter().enumerate() {
                    let p = pivot_of(&g, k);
                    assert_eq!(
                        (p.row, p.slot, p.diag.to_bits(), bits(&p.lcol), bits(&p.urow)),
                        (q.row, q.slot, q.diag.to_bits(), bits(&q.lcol), bits(&q.urow)),
                        "pivot {k} of {m}"
                    );
                }
                Ok((g, w))
            }
            (Err(g), Err(w)) => {
                assert_eq!(g, w);
                Err(g)
            }
            (g, w) => panic!("m = {m}: {:?} vs {:?}", g.err(), w.err()),
        }
    }

    /// The seeded bases both oracles run on, as `(m, columns, peel
    /// tolerance)`: slack-heavy TE shapes that peel almost completely,
    /// the same under a peel tolerance that defers half the
    /// singletons, and structural-heavy bases that end in a large
    /// dense bump.
    fn for_each_seeded_basis(mut case: impl FnMut(usize, &[Vec<(usize, f64)>], f64)) {
        let mut next = xorshift(0x5EED_FAC7);
        // (largest m, slack share, peel tolerance, cases)
        let families = [
            (500, 85, SINGULAR_TOL, 120),
            (300, 60, SINGULAR_TOL, 60),
            (300, 85, 10.0, 80),
            (120, 40, 10.0, 40),
            (90, 10, SINGULAR_TOL, 40),
        ];
        for (max_m, slack_pct, peel_tol, cases) in families {
            for _ in 0..cases {
                let m = 2 + next() as usize % (max_m - 1);
                let cols = te_like_basis(&mut next, m, slack_pct);
                case(m, &cols, peel_tol);
            }
        }
    }

    #[test]
    fn peel_order_matches_the_resorted_vec_reference() {
        let (mut solved, mut singular, mut bumped, mut peeled, mut deferred) = (0, 0, 0, 0, 0);
        for_each_seeded_basis(|m, cols, peel_tol| {
            let Ok((f, reference)) = assert_matches_reference(m, cols, peel_tol) else {
                singular += 1;
                return;
            };
            solved += 1;
            // A pivot with both an L column and a U row can only come
            // from the bump.
            let bump = reference.pivots.iter().any(|p| !p.lcol.is_empty() && !p.urow.is_empty());
            bumped += usize::from(bump);
            peeled += usize::from(f.fill_in(cols.iter().map(Vec::len).sum()) == 0);
            deferred += usize::from(peel_tol > 1.0 && bump);
        });
        // Every regime the queue order matters in is well represented.
        // (340 solved, 0 singular — `singular_inputs_fail_like_the_reference`
        // covers those — 226 through the bump, 137 with no fill-in, 113
        // through a bump the raised tolerance forced.)
        assert!(solved >= 300, "{solved} solved, {singular} singular");
        assert!(bumped >= 150 && peeled >= 100 && deferred >= 80, "{bumped} {peeled} {deferred}");
    }

    #[test]
    fn sparse_bump_matches_the_dense_sweep_reference() {
        // None of these has a singleton: the bump is the whole matrix.
        // Column 0 pivots on row 2 and swaps it with row 0; column 1
        // then ties at magnitude 1 on rows 1, 0 and 3 — permuted
        // positions 1, 2 and 3. The lowest *position* wins: not the
        // lowest row, nor the first or last one listed.
        let ties = [
            [1.0, 1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [2.0, 0.0, 1.0, 1.0],
            [0.0, -1.0, 1.0, 1.0],
        ];
        let (f, _) = assert_matches_reference(4, &dense_to_cols(4, &ties.concat()), SINGULAR_TOL)
            .expect("nonsingular");
        assert_eq!(f.row, [2, 1, 3, 0]);
        // Cell (1, 2) cancels to an exact zero under column 0, fills
        // again (−½) under column 1 and is eliminated, once, under
        // column 2.
        let refill = [
            [1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 0.0],
            [0.0, 2.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 2.0],
        ];
        let (f, _) = assert_matches_reference(4, &dense_to_cols(4, &refill.concat()), SINGULAR_TOL)
            .expect("nonsingular");
        assert_eq!(f.row, [0, 2, 3, 1]);
        assert_eq!(pivot_of(&f, 2).lcol, [(1, -0.5)]);
        // Columns 0 and 1 are equal: column 1 has nothing left to
        // pivot on, and both fail.
        let singular = [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [2.0, 2.0, 1.0]];
        let err = assert_matches_reference(3, &dense_to_cols(3, &singular.concat()), SINGULAR_TOL);
        assert_eq!(err.err(), Some(FactorError));
        // Every seeded basis again with half its structurals deferred:
        // bumps of tens to hundreds, in the working set the failure
        // above left behind.
        let (mut solved, mut bumped, mut largest) = (0, 0, 0);
        for_each_seeded_basis(|m, cols, _| {
            let Ok((_, reference)) = assert_matches_reference(m, cols, 10.0) else {
                return;
            };
            solved += 1;
            let bump =
                reference.pivots.iter().filter(|p| !p.lcol.is_empty() && !p.urow.is_empty()).count();
            bumped += usize::from(bump > 0);
            largest = largest.max(bump);
        });
        // (340 solved, 329 through a bump; the largest has 132 pivots
        // with both an L column and a U row.)
        assert!(solved >= 300 && bumped >= 250 && largest >= 100, "{solved} {bumped} {largest}");
    }

    /// Entry by entry: the oracle's bits wherever it is nonzero, a zero
    /// of either sign where it is zero.
    fn assert_same_entries(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = if *w != 0.0 { g.to_bits() == w.to_bits() } else { *g == 0.0 };
            assert!(same, "{what}[{i}] of {}: {g:e} vs {w:e}", want.len());
        }
    }

    /// Both representations of one basis with the updates pushed so
    /// far, and the image the reach-limited solves reuse.
    struct Kernels {
        flat: LuFactors,
        etas: EtaFile,
        oracle: RefLu,
        oracle_etas: RefEtas,
        img: FtranImage,
    }

    impl Kernels {
        fn new(flat: LuFactors, oracle: RefLu) -> Self {
            Self {
                flat,
                etas: EtaFile::default(),
                oracle,
                oracle_etas: RefEtas::default(),
                img: FtranImage::default(),
            }
        }

        /// FTRAN of sparse column `a` through the reach-limited path
        /// against the oracle's dense walk; returns the oracle's image.
        fn check_sparse(&mut self, a: &[(usize, f64)]) -> Vec<f64> {
            let mut dense = vec![0.0f64; self.oracle.m];
            for &(r, v) in a {
                dense[r] = v;
            }
            let mut want = self.oracle.ftran(&dense);
            self.oracle_etas.apply_ftran(&mut want);
            self.flat.ftran_sparse(a, &mut self.img);
            self.etas.apply_ftran_sparse(&mut self.img);
            assert_same_entries(&self.img.w, &want, "sparse ftran");
            assert_eq!(self.img.nz, nonzeros(&want), "nonzero list of {a:?}");
            assert!(self.img.rows.iter().all(|v| v.to_bits() == 0), "row scratch left dirty");
            want
        }

        fn check_dense(&self, b: &[f64]) {
            let mut want = self.oracle.ftran(b);
            self.oracle_etas.apply_ftran(&mut want);
            let mut got = self.flat.ftran_vec(b);
            self.etas.apply_ftran(&mut got);
            assert_same_entries(&got, &want, "dense ftran");
            let (mut c, mut want_c) = (b.to_vec(), b.to_vec());
            self.etas.apply_btran(&mut c);
            self.oracle_etas.apply_btran(&mut want_c);
            assert_same_entries(&c, &want_c, "eta btran");
            assert_same_entries(&self.flat.btran_vec(&c), &self.oracle.btran(&want_c), "btran");
        }
    }

    #[test]
    fn flat_solves_match_the_pivot_walk_oracle() {
        let mut next = xorshift(0x0F1A_7C0D);
        let mut value = {
            let mut bits = xorshift(0xBEEF);
            move || 8.0 * ((bits() >> 11) as f64 / (1u64 << 53) as f64) - 4.0
        };
        let (mut bases, mut updates, mut cancelled, mut emptied, mut filled) = (0, 0, 0, 0, 0);
        for_each_seeded_basis(|m, cols, peel_tol| {
            let Ok((flat, oracle)) = assert_matches_reference(m, cols, peel_tol) else {
                return;
            };
            bases += 1;
            let rounds = 1 + next() as usize % REFACTOR_INTERVAL;
            let mut k = Kernels::new(flat, oracle);
            for _ in 0..=rounds {
                // A dense right-hand side with a third of it exact zeros.
                let b: Vec<f64> =
                    (0..m).map(|_| if next().is_multiple_of(3) { 0.0 } else { value() }).collect();
                k.check_dense(&b);
                // The empty column, a basis column (its image cancels
                // to a unit vector until updates replace it) and a
                // random column of 1–5 entries.
                emptied += usize::from(k.check_sparse(&[]).iter().all(|&v| v == 0.0));
                let image = k.check_sparse(&cols[next() as usize % m]);
                cancelled += usize::from(nonzeros(&image).len() == 1);
                let mut a: Vec<(usize, f64)> = Vec::new();
                for _ in 0..1 + next() % 5 {
                    let r = next() as usize % m;
                    if a.iter().all(|&(r2, _)| r2 != r) {
                        a.push((r, value()));
                    }
                }
                let image = k.check_sparse(&a);
                filled += usize::from(image.iter().all(|&v| v != 0.0));
                // The column enters where its image is largest: one
                // more product-form update on both sides.
                let largest = |&s: &usize, &t: &usize| image[s].abs().total_cmp(&image[t].abs());
                let Some(slot) = k.img.nz.iter().copied().max_by(largest) else {
                    continue;
                };
                let pushed = k.oracle_etas.push(slot, &image);
                assert_eq!(k.etas.push(slot, &k.img.w, &k.img.nz), pushed);
                updates += usize::from(pushed);
            }
        });
        // A bidiagonal chain, `B = I + ½·superdiagonal`: the image of
        // the last unit vector fills every slot, and a column built to
        // cancel in the second-to-last row stops there.
        let m = 40;
        let chain: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|s| if s == 0 { vec![(0, 1.0)] } else { vec![(s - 1, 0.5), (s, 1.0)] })
            .collect();
        let (flat, oracle) = assert_matches_reference(m, &chain, SINGULAR_TOL).unwrap();
        let mut k = Kernels::new(flat, oracle);
        assert_eq!(nonzeros(&k.check_sparse(&[(m - 1, 1.0)])).len(), m);
        assert_eq!(nonzeros(&k.check_sparse(&[(m - 2, 0.5), (m - 1, 1.0)])), [m - 1]);
        assert_eq!(k.img.visited.len(), 2, "a row that cancels to zero reaches no further");
        // (340 bases, 11 530 updates; 8 631 basis columns whose image
        // is still a unit vector, 11 530 empty images, 1 357 random
        // columns that fill a whole — small, bump-heavy — basis.)
        assert!(bases >= 300 && updates >= 10_000, "{bases} bases, {updates} updates");
        assert!(cancelled >= 5_000 && emptied >= 10_000, "{cancelled} unit, {emptied} empty");
        assert!(filled >= 500, "{filled} images filled their basis");
    }

    #[test]
    fn sparse_ftran_time_follows_reach_not_rows() {
        // Bidiagonal blocks of 40 slots behind a unit ("slack") column
        // each: the image of a column inside the first block never
        // leaves it, whatever `m` is.
        let basis = |m: usize| -> Vec<Vec<(usize, f64)>> {
            (0..m)
                .map(|s| if s % 40 == 0 { vec![(s, 1.0)] } else { vec![(s - 1, 0.5), (s, 1.0)] })
                .collect()
        };
        let a = [(12, 1.0), (25, -2.0), (39, 3.0)];
        let factors = |m: usize| {
            let f = LuFactors::factorize(m, &basis(m)).unwrap();
            let mut img = FtranImage::default();
            f.ftran_sparse(&a, &mut img);
            EtaFile::default().apply_ftran_sparse(&mut img);
            assert_eq!(img.nz, (0..40).collect::<Vec<_>>(), "the image is the first block");
            (f, img)
        };
        let (mut small, mut large) = (factors(4_000), factors(32_000));
        let time = |(f, img): &mut (LuFactors, FtranImage)| {
            let etas = EtaFile::default();
            let start = std::time::Instant::now();
            for _ in 0..2_000 {
                f.ftran_sparse(std::hint::black_box(&a), img);
                etas.apply_ftran_sparse(img);
                std::hint::black_box(&img.w);
            }
            start.elapsed().as_secs_f64()
        };
        // Best of three, interleaved; only the ratio is read, never a
        // duration. A solve that costs its reach gives 1: measured
        // 0.94–1.03 (test and release profiles, ≈ 1 µs per solve at
        // either size). The dense back-substitution this replaced
        // walks all m pivots: 9.95–10.66 on the parent commit (32 µs
        // per solve at m = 4 000, 340 µs at 32 000).
        let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            t_small = t_small.min(time(&mut small));
            t_large = t_large.min(time(&mut large));
        }
        let ratio = t_large / t_small;
        assert!(ratio < 3.0, "8× the rows cost {ratio:.2}× the time for the same 40-slot image");
    }

    #[test]
    fn singular_inputs_fail_like_the_reference() {
        let mut next = xorshift(0x0DEA_DC01);
        let mut failed = 0;
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
            failed += usize::from(assert_matches_reference(m, &cols, peel_tol).is_err());
        }
        assert_eq!(failed, 60, "{failed} of 60 singular bases failed");
    }

    /// The smaller of `samples` interleaved timings of factorizing each
    /// of two bases (default tolerances, the thread's working set), so
    /// that a noisy stretch of the machine hits both sizes and a
    /// scheduler tick cannot decide either; callers read the ratio,
    /// never a duration.
    fn best_times(
        samples: usize,
        small: &[Vec<(usize, f64)>],
        large: &[Vec<(usize, f64)>],
        fill_in: impl Fn(usize) -> bool,
    ) -> (f64, f64) {
        let time = |cols: &[Vec<(usize, f64)>]| {
            let start = std::time::Instant::now();
            let f = factorize_tol(cols.len(), cols, SINGULAR_TOL).unwrap();
            let took = start.elapsed().as_secs_f64();
            assert!(fill_in(f.fill_in(cols.iter().map(Vec::len).sum())));
            took
        };
        let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..samples {
            t_small = t_small.min(time(small));
            t_large = t_large.min(time(large));
        }
        (t_small, t_large)
    }

    #[test]
    fn factorization_time_grows_with_nonzeros_not_rows_squared() {
        // Unit columns on the even slots, (s − 1, s) pairs on the odd
        // ones: like a simplex basis, every slot is a singleton when
        // its turn comes and the queue starts ≈ m long. Everything
        // peels, so the time is the queue's and the working set's.
        let basis = |m: usize| -> Vec<Vec<(usize, f64)>> {
            (0..m)
                .map(|s| if s % 2 == 0 { vec![(s, 1.0)] } else { vec![(s - 1, 1.0), (s, 2.0)] })
                .collect()
        };
        // Linear is 8. Measured 7.9–12.0 with the bitset queue and
        // the flat working set (test and release profiles; ≈ 2 ms at
        // the small size — at the 4 000 rows it had before, a
        // scheduler tick could decide the ratio), 8.3–11.4 with the
        // heap at an eighth of these sizes, and 62.2–66.7 there with
        // the `Vec` that was re-sorted after every pivot: quadratic,
        // so no better here.
        let (t_small, t_large) = best_times(5, &basis(32_000), &basis(256_000), |fill| fill == 0);
        let ratio = t_large / t_small;
        assert!(ratio < 24.0, "8× the rows cost {ratio:.1}× the time");
    }

    #[test]
    fn bump_time_follows_nonzeros_not_k_squared() {
        // Five diagonals of seeded values: no row or column is ever a
        // singleton, so the whole matrix is the bump, and partial
        // pivoting keeps its fill inside the band.
        let band = |k: usize| -> Vec<Vec<(usize, f64)>> {
            let mut next = xorshift(0xBA2D_ED00);
            (0..k)
                .map(|s| {
                    (s.saturating_sub(2)..(s + 3).min(k))
                        .map(|r| (r, 0.5 + (next() % 64) as f64 / 16.0))
                        .collect()
                })
                .collect()
        };
        // Equal bandwidth, 8× the order: 8× the nonzeros and the
        // arithmetic. Measured 8.5–8.8 over the bump's cells (test and
        // release profiles, 0.12 ms and 1.0 ms). The dense k × k sweep
        // this replaced scans 64× the cells with a stride of k:
        // 122–149 on the parent commit (0.6 ms and 83 ms).
        let (t_small, t_large) = best_times(7, &band(400), &band(3_200), |fill| fill > 0);
        let ratio = t_large / t_small;
        assert!(ratio < 16.0, "8× the band cost {ratio:.1}× the time");
    }
}
