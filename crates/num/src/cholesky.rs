//! Cholesky factorization of symmetric positive-definite real matrices.
//!
//! Capacitance and inductance matrices produced by the quasi-static BEM are
//! symmetric positive definite; Cholesky is both the cheapest solver for them
//! and a *validity check* — a failed factorization flags a non-physical
//! extraction. It also underpins the generalized symmetric-definite
//! eigensolver used for transmission-line modal analysis.

use crate::gemm::{self, GemmScalar, BLOCK, ROW_TILE};
use crate::{parallel, Matrix, SolveMatrixError, Vector};

/// Minimum multiply-accumulate count before a trailing update is fanned
/// out over worker threads (same rationale and value as the LU module).
const PAR_MIN_MACS: usize = 1 << 18;

/// A Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// # Examples
///
/// ```
/// use pdn_num::{CholeskyDecomposition, Matrix};
///
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = CholeskyDecomposition::new(&a)?;
/// let x = ch.solve(&[1.0, 1.0])?;
/// assert!((4.0 * x[0] + 2.0 * x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    l: Matrix<f64>,
}

impl CholeskyDecomposition {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so slight asymmetry from
    /// floating-point assembly noise is tolerated.
    ///
    /// The factorization is blocked like the LU: each [`BLOCK`]-wide panel
    /// is factored by the classical scalar recurrence (restricted to
    /// within-panel columns), and the lower triangle of the trailing
    /// symmetric update `A₂₂ -= L₂₁·L₂₁ᵀ` goes through the cache-tiled
    /// [`crate::gemm`] microkernel, fanned over [`parallel`] row tiles
    /// when large enough to pay for the threads. Tile sizes are
    /// fixed constants, so the factor is bit-identical for any
    /// `PDN_THREADS`; matrices up to one block (`n ≤ 64`) reproduce the
    /// historical scalar arithmetic exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::NotSquare`] for non-square input,
    /// [`SolveMatrixError::NonFinite`] when a lower-triangle entry is NaN
    /// or infinite, and [`SolveMatrixError::Singular`] when the matrix is
    /// not positive definite.
    pub fn new(a: &Matrix<f64>) -> Result<Self, SolveMatrixError> {
        if !a.is_square() {
            return Err(SolveMatrixError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = a[(i, j)];
                if !v.is_finite() {
                    return Err(SolveMatrixError::NonFinite { row: i, col: j });
                }
                l[(i, j)] = v;
            }
        }
        let data = l.as_mut_slice();
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + BLOCK).min(n);
            let kb = k1 - k0;
            // Panel: columns k0..k1, rows k0..n. Contributions from columns
            // before k0 were already applied by earlier trailing updates.
            for j in k0..k1 {
                let mut d = data[j * n + j];
                for k in k0..j {
                    d -= data[j * n + k] * data[j * n + k];
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(SolveMatrixError::Singular { column: j });
                }
                let djj = d.sqrt();
                data[j * n + j] = djj;
                for i in (j + 1)..n {
                    let mut s = data[i * n + j];
                    for k in k0..j {
                        s -= data[i * n + k] * data[j * n + k];
                    }
                    data[i * n + j] = s / djj;
                }
            }
            // Trailing symmetric update A22 -= L21·L21ᵀ through the GEMM
            // microkernel, restricted to the lower triangle: each row tile
            // updates the rectangle left of its diagonal block in one call
            // and the diagonal block row by row up to the diagonal. Every
            // element sees the same `gemm_sub` arithmetic as in a full
            // rectangular update, and nothing above the diagonal is written.
            if k1 < n {
                let nr = n - k1;
                let mut l21 = Vec::with_capacity(nr * kb);
                for r in 0..nr {
                    l21.extend_from_slice(&data[(k1 + r) * n + k0..(k1 + r) * n + k0 + kb]);
                }
                let mut l21t = vec![0.0f64; kb * nr];
                for k in 0..kb {
                    for j in 0..nr {
                        l21t[k * nr + j] = l21[j * kb + k];
                    }
                }
                let (_, bottom) = data.split_at_mut(k1 * n);
                let tile = |ci: usize, chunk: &mut [f64]| {
                    let rows = chunk.len() / n;
                    let r0 = ci * ROW_TILE;
                    let a = &l21[r0 * kb..];
                    f64::gemm_sub(&mut chunk[k1..], n, rows, r0, a, kb, &l21t, nr, kb);
                    for r in 0..rows {
                        f64::gemm_sub(
                            &mut chunk[r * n + k1 + r0..],
                            n,
                            1,
                            r + 1,
                            &a[r * kb..],
                            kb,
                            &l21t[r0..],
                            nr,
                            kb,
                        );
                    }
                };
                if nr * nr * kb / 2 >= PAR_MIN_MACS {
                    parallel::par_for_each_chunk_mut(bottom, ROW_TILE * n, tile);
                } else {
                    for (ci, chunk) in bottom.chunks_mut(ROW_TILE * n).enumerate() {
                        tile(ci, chunk);
                    }
                }
            }
            k0 = k1;
        }
        Ok(CholeskyDecomposition { l })
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix<f64> {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vector<f64>, SolveMatrixError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                s -= self.l[(i, k)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `L·y = b` (forward substitution only).
    ///
    /// Needed by the generalized eigensolver to form `L⁻¹ A L⁻ᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vector<f64>, SolveMatrixError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                s -= self.l[(i, k)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `L·Y = B` in place for a matrix of right-hand sides
    /// (forward substitution only): on return `x` holds `L⁻¹·B`.
    ///
    /// Blocked like [`LuDecomposition::solve_matrix`](crate::LuDecomposition::solve_matrix):
    /// each [`BLOCK`]-row diagonal block is solved by the non-unit
    /// lane-group kernel [`gemm::trsm_lower`], and the rows below it are
    /// updated by the [`crate::gemm`] microkernel over fixed [`ROW_TILE`]
    /// row tiles fanned out over [`parallel`] workers. Every column is
    /// solved with the same arithmetic whatever the column count, so the
    /// result is bit-identical for any `PDN_THREADS`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] when `x.nrows()`
    /// does not equal the system dimension.
    pub fn solve_lower_in_place(&self, x: &mut Matrix<f64>) -> Result<(), SolveMatrixError> {
        let n = self.dim();
        if x.nrows() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: x.nrows(),
            });
        }
        let nrhs = x.ncols();
        if n == 0 || nrhs == 0 {
            return Ok(());
        }
        let l = self.l.as_slice();
        let xd = x.as_mut_slice();
        for k0 in (0..n).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(n);
            let kb = k1 - k0;
            let mut l11 = vec![0.0f64; kb * kb];
            for r in 0..kb {
                l11[r * kb..r * kb + r + 1]
                    .copy_from_slice(&l[(k0 + r) * n + k0..=(k0 + r) * n + k0 + r]);
            }
            gemm::trsm_lower(&l11, kb, &mut xd[k0 * nrhs..k1 * nrhs], nrhs, nrhs);
            if k1 < n {
                let (head, tail) = xd.split_at_mut(k1 * nrhs);
                let solved = &head[k0 * nrhs..];
                let tile = |ci: usize, chunk: &mut [f64]| {
                    let rows = chunk.len() / nrhs;
                    let a = &l[(k1 + ci * ROW_TILE) * n + k0..];
                    f64::gemm_sub(chunk, nrhs, rows, nrhs, a, n, solved, nrhs, kb);
                };
                if (n - k1) * nrhs * kb >= PAR_MIN_MACS {
                    parallel::par_for_each_chunk_mut(tail, ROW_TILE * nrhs, tile);
                } else {
                    for (ci, chunk) in tail.chunks_mut(ROW_TILE * nrhs).enumerate() {
                        tile(ci, chunk);
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves `Lᵀ·x = b` (backward substitution only).
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vector<f64>, SolveMatrixError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Log-determinant of `A` (twice the log-sum of the diagonal of `L`).
    pub fn log_det(&self) -> f64 {
        2.0 * (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>()
    }
}

/// Returns `true` when the symmetric matrix is positive definite.
///
/// # Examples
///
/// ```
/// use pdn_num::Matrix;
/// let spd = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// assert!(pdn_num::cholesky::is_positive_definite(&spd));
/// let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// assert!(!pdn_num::cholesky::is_positive_definite(&indef));
/// ```
pub fn is_positive_definite(a: &Matrix<f64>) -> bool {
    CholeskyDecomposition::new(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    fn spd(n: usize) -> Matrix<f64> {
        // A = Mᵀ M + n·I is SPD for any M.
        let m = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd(6);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let back = ch.l().matmul(&ch.l().transpose());
        for i in 0..6 {
            for j in 0..6 {
                assert!(approx_eq(back[(i, j)], a[(i, j)], 1e-11));
            }
        }
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd(8);
        let b: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let x_ch = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(a, &b).unwrap();
        for i in 0..8 {
            assert!(approx_eq(x_ch[i], x_lu[i], 1e-10));
        }
    }

    #[test]
    fn indefinite_rejected() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(SolveMatrixError::Singular { .. })
        ));
    }

    #[test]
    fn triangular_solves_compose() {
        let a = spd(5);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let b: Vec<f64> = (0..5).map(|i| i as f64 + 1.0).collect();
        let y = ch.solve_lower(&b).unwrap();
        let x = ch.solve_upper(&y).unwrap();
        let direct = ch.solve(&b).unwrap();
        for i in 0..5 {
            assert!(approx_eq(x[i], direct[i], 1e-12));
        }
    }

    /// The pre-blocking scalar kernel, kept for equivalence testing.
    fn factor_scalar_reference(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        l
    }

    #[test]
    fn small_factor_bit_identical_to_scalar_reference() {
        for n in [1usize, 5, 33, 64] {
            let a = spd(n);
            let blocked = CholeskyDecomposition::new(&a).unwrap();
            let reference = factor_scalar_reference(&a);
            for i in 0..n {
                for j in 0..=i {
                    assert_eq!(
                        blocked.l()[(i, j)].to_bits(),
                        reference[(i, j)].to_bits(),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_factor_matches_scalar_reference_large() {
        let n = 150;
        let a = spd(n);
        let blocked = CholeskyDecomposition::new(&a).unwrap();
        let reference = factor_scalar_reference(&a);
        for i in 0..n {
            for j in 0..n {
                assert!(
                    approx_eq(blocked.l()[(i, j)], reference[(i, j)], 1e-10),
                    "({i},{j}): {} vs {}",
                    blocked.l()[(i, j)],
                    reference[(i, j)]
                );
            }
            // The strict upper triangle must be scrubbed clean.
            for j in (i + 1)..n {
                assert_eq!(blocked.l()[(i, j)], 0.0);
            }
        }
        let back = blocked.l().matmul(&blocked.l().transpose());
        for i in 0..n {
            for j in 0..n {
                assert!(approx_eq(back[(i, j)], a[(i, j)], 1e-9), "({i},{j})");
            }
        }
    }

    /// The trailing update as it ran before the lower-triangle
    /// restriction: full rectangular `gemm_sub` tiles over the trailing
    /// block, scratch above the diagonal scrubbed at the end. Kept to pin
    /// bit-identity of the restricted update.
    fn factor_full_rectangle_reference(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = a[(i, j)];
            }
        }
        let data = l.as_mut_slice();
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + BLOCK).min(n);
            let kb = k1 - k0;
            for j in k0..k1 {
                let mut d = data[j * n + j];
                for k in k0..j {
                    d -= data[j * n + k] * data[j * n + k];
                }
                let djj = d.sqrt();
                data[j * n + j] = djj;
                for i in (j + 1)..n {
                    let mut s = data[i * n + j];
                    for k in k0..j {
                        s -= data[i * n + k] * data[j * n + k];
                    }
                    data[i * n + j] = s / djj;
                }
            }
            if k1 < n {
                let nc = n - k1;
                let mut l21 = Vec::with_capacity(nc * kb);
                for r in 0..nc {
                    l21.extend_from_slice(&data[(k1 + r) * n + k0..(k1 + r) * n + k0 + kb]);
                }
                let mut l21t = vec![0.0f64; kb * nc];
                for k in 0..kb {
                    for j in 0..nc {
                        l21t[k * nc + j] = l21[j * kb + k];
                    }
                }
                let (_, bottom) = data.split_at_mut(k1 * n);
                for (ci, chunk) in bottom.chunks_mut(ROW_TILE * n).enumerate() {
                    let rows = chunk.len() / n;
                    f64::gemm_sub(
                        &mut chunk[k1..],
                        n,
                        rows,
                        nc,
                        &l21[ci * ROW_TILE * kb..],
                        kb,
                        &l21t,
                        nc,
                        kb,
                    );
                }
            }
            k0 = k1;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                data[i * n + j] = 0.0;
            }
        }
        l
    }

    #[test]
    fn lower_triangle_update_bit_identical_to_full_rectangle() {
        for n in [65usize, 150, 300] {
            let a = spd(n);
            let blocked = CholeskyDecomposition::new(&a).unwrap();
            let reference = factor_full_rectangle_reference(&a);
            for (idx, (x, r)) in blocked
                .l()
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .enumerate()
            {
                assert_eq!(x.to_bits(), r.to_bits(), "n={n} ({},{})", idx / n, idx % n);
            }
        }
    }

    #[test]
    fn non_finite_lower_entry_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = spd(5);
            a[(3, 1)] = bad;
            assert_eq!(
                CholeskyDecomposition::new(&a).unwrap_err(),
                SolveMatrixError::NonFinite { row: 3, col: 1 }
            );
            let mut a = spd(5);
            a[(4, 4)] = bad;
            assert_eq!(
                CholeskyDecomposition::new(&a).unwrap_err(),
                SolveMatrixError::NonFinite { row: 4, col: 4 }
            );
        }
        // The strict upper triangle is never read.
        let mut a = spd(5);
        a[(1, 3)] = f64::NAN;
        assert!(CholeskyDecomposition::new(&a).is_ok());
    }

    #[test]
    fn solve_lower_in_place_rejects_wrong_row_count() {
        let ch = CholeskyDecomposition::new(&spd(4)).unwrap();
        let mut x = Matrix::zeros(5, 2);
        assert_eq!(
            ch.solve_lower_in_place(&mut x).unwrap_err(),
            SolveMatrixError::DimensionMismatch {
                expected: 4,
                got: 5
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The blocked multi-RHS forward solve agrees with per-column
        /// `solve_lower` at shapes off the block and lane widths.
        #[test]
        fn blocked_forward_solve_matches_per_column(
            blocks in 0usize..4,
            rem in 1usize..BLOCK,
            groups in 0usize..4,
            tail in 1usize..crate::gemm::LANES,
            seed in any::<u64>(),
        ) {
            let n = blocks * BLOCK + rem;
            let nrhs = groups * crate::gemm::LANES + tail;
            let ch = CholeskyDecomposition::new(&spd(n)).unwrap();
            let mut state = seed | 1;
            let b = Matrix::from_fn(n, nrhs, |_, _| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            });
            let mut y = b.clone();
            ch.solve_lower_in_place(&mut y).unwrap();
            for j in 0..nrhs {
                let col = ch.solve_lower(&b.col(j)).unwrap();
                for i in 0..n {
                    prop_assert!(approx_eq(y[(i, j)], col[i], 1e-12), "({}, {})", i, j);
                }
            }
        }
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = spd(4);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let det = crate::LuDecomposition::new(a).unwrap().det();
        assert!(approx_eq(ch.log_det(), det.ln(), 1e-10));
    }
}
