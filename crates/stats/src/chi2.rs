//! Chi-square independence tests on contingency tables.
//!
//! §3.1 of the paper rejects the null hypothesis *"fiber cuts are not
//! related to fiber degradations"* with a chi-square test on a 2×2
//! contingency table of 15-minute epochs (Appendix A.1, Tables 6/7),
//! and §3.2 repeats the test per degradation feature after equal-width
//! binning (Table 1).

use crate::special::{chi2_ln_sf, chi2_sf};

/// A two-dimensional contingency table of observation counts.
///
/// Rows and columns are categories; `counts[r][c]` is the number of
/// observations falling in row-category `r` and column-category `c`.
/// Counts are `f64` because the paper reports *normalized* tables
/// (Table 6 contains fractional entries such as 2.6 epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    rows: usize,
    cols: usize,
    counts: Vec<f64>,
}

impl ContingencyTable {
    /// Creates an empty `rows × cols` table.
    ///
    /// # Panics
    /// Panics if either dimension is < 2 (a chi-square independence test
    /// needs at least two categories on each axis).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "need at least a 2x2 table");
        Self {
            rows,
            cols,
            counts: vec![0.0; rows * cols],
        }
    }

    /// Builds a table from nested slices; each inner slice is a row.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(rows.len() >= 2, "need at least 2 rows");
        let cols = rows[0].len();
        assert!(cols >= 2, "need at least 2 columns");
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let mut t = Self::new(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                t.set(r, c, v);
            }
        }
        t
    }

    /// Number of row categories.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of column categories.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the count in cell `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.counts[r * self.cols + c]
    }

    /// Sets the count in cell `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(v >= 0.0 && v.is_finite(), "counts must be finite and >= 0");
        self.counts[r * self.cols + c] = v;
    }

    /// Adds `v` observations to cell `(r, c)`.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        let cur = self.get(r, c);
        self.set(r, c, cur + v);
    }

    /// Increments cell `(r, c)` by one observation.
    pub fn observe(&mut self, r: usize, c: usize) {
        self.add(r, c, 1.0);
    }

    /// Sum of a row.
    pub fn row_total(&self, r: usize) -> f64 {
        (0..self.cols).map(|c| self.get(r, c)).sum()
    }

    /// Sum of a column.
    pub fn col_total(&self, c: usize) -> f64 {
        (0..self.rows).map(|r| self.get(r, c)).sum()
    }

    /// Grand total of all observations.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Expected count of cell `(r, c)` under independence.
    pub fn expected(&self, r: usize, c: usize) -> f64 {
        self.row_total(r) * self.col_total(c) / self.total()
    }
}

/// Result of a chi-square independence test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquareResult {
    /// The chi-square statistic `Σ (O - E)² / E`.
    pub statistic: f64,
    /// Degrees of freedom `(rows - 1)(cols - 1)`.
    pub df: usize,
    /// The p-value, clamped at `f64::MIN_POSITIVE` from below.
    pub p_value: f64,
    /// Natural log of the p-value; meaningful even when the p-value
    /// underflows (the paper reports p < 1e-50 for Table 6).
    pub ln_p_value: f64,
}

impl ChiSquareResult {
    /// `true` iff the null hypothesis (independence) is rejected at the
    /// given significance level (the paper uses 0.01 throughout).
    pub fn rejects_null_at(&self, alpha: f64) -> bool {
        self.ln_p_value < alpha.ln()
    }
}

/// Runs Pearson's chi-square test of independence on a contingency table.
///
/// # Panics
/// Panics if any expected cell count is zero (i.e. an empty row or
/// column) — drop empty categories before testing.
pub fn chi2_independence(table: &ContingencyTable) -> ChiSquareResult {
    let total = table.total();
    assert!(total > 0.0, "empty table");
    let mut stat = 0.0;
    for r in 0..table.rows() {
        for c in 0..table.cols() {
            let e = table.expected(r, c);
            assert!(
                e > 0.0,
                "expected count is zero at ({r},{c}); drop empty categories"
            );
            let o = table.get(r, c);
            stat += (o - e) * (o - e) / e;
        }
    }
    let df = (table.rows() - 1) * (table.cols() - 1);
    let p = chi2_sf(stat, df as f64).max(f64::MIN_POSITIVE);
    let ln_p = chi2_ln_sf(stat, df as f64);
    ChiSquareResult {
        statistic: stat,
        df,
        p_value: p,
        ln_p_value: ln_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_expected() {
        let t = ContingencyTable::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(t.row_total(0), 30.0);
        assert_eq!(t.col_total(1), 60.0);
        assert_eq!(t.total(), 100.0);
        // E(0,0) = 30 * 40 / 100 = 12
        assert!((t.expected(0, 0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn independent_table_has_high_p_value() {
        // Perfectly proportional rows → statistic 0, p = 1.
        let t = ContingencyTable::from_rows(&[&[10.0, 30.0], &[20.0, 60.0]]);
        let r = chi2_independence(&t);
        assert!(r.statistic < 1e-9);
        assert!(r.p_value > 0.999);
        assert!(!r.rejects_null_at(0.01));
    }

    #[test]
    fn dependent_table_rejects_null() {
        let t = ContingencyTable::from_rows(&[&[90.0, 10.0], &[10.0, 90.0]]);
        let r = chi2_independence(&t);
        assert!(r.statistic > 100.0);
        assert!(r.rejects_null_at(0.01));
    }

    #[test]
    fn paper_table6_rejects_null() {
        // Appendix A.1 Table 6: normalized epoch counts over one year.
        //               degradation   no degradation
        //   failure         1.0            2.6
        //   no failure      1.5          6516.7
        // Paper: p < 1e-50 → strongly rejected at 0.01.
        // (The table is normalized; scale back up to raw epoch counts so
        // the statistic reflects the year of 15-min epochs: the paper's
        // Table 7 shows a raw grand total of ~5.66M epochs for ~868
        // fiber-scenarios; the normalized table was divided by ~868.)
        let scale = 868.0;
        let t = ContingencyTable::from_rows(&[
            &[1.0 * scale, 2.6 * scale],
            &[1.5 * scale, 6516.7 * scale],
        ]);
        let r = chi2_independence(&t);
        assert!(r.rejects_null_at(0.01));
        assert!(
            r.ln_p_value < -50.0f64 * std::f64::consts::LN_10,
            "p ≥ 1e-50: ln p = {}",
            r.ln_p_value
        );
    }

    #[test]
    fn paper_table7_fails_to_reject() {
        // Appendix A.1 Table 7: the counterfactual table where the null
        // hypothesis *cannot* be rejected (co-occurrence 1.2 epochs).
        let t = ContingencyTable::from_rows(&[&[1.2, 3151.8], &[2144.8, 5_655_630.2]]);
        let r = chi2_independence(&t);
        assert!(!r.rejects_null_at(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn observe_accumulates() {
        let mut t = ContingencyTable::new(2, 2);
        for _ in 0..5 {
            t.observe(0, 1);
        }
        assert_eq!(t.get(0, 1), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn rejects_degenerate_dims() {
        let _ = ContingencyTable::new(1, 5);
    }
}
