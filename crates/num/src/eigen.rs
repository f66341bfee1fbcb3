//! Symmetric eigensolvers.
//!
//! The cyclic Jacobi method is used because the matrices that need
//! eigendecomposition in this toolkit (modal analysis of per-unit-length
//! `L·C` products, small macromodel checks) are dense, symmetric, and small
//! (tens of rows). Jacobi is simple, unconditionally convergent, and
//! delivers fully orthogonal eigenvectors.

use crate::{c64, CholeskyDecomposition, Matrix, SolveMatrixError};

/// Result of a symmetric eigendecomposition `A·v = λ·v`.
///
/// Eigenvalues are sorted ascending; `vectors.col(k)` is the eigenvector for
/// `values[k]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Column-wise orthonormal eigenvectors.
    pub vectors: Matrix<f64>,
}

/// Computes all eigenvalues/eigenvectors of a symmetric matrix with the
/// cyclic Jacobi method.
///
/// Only the symmetric part of `a` is used (entries are averaged).
///
/// # Errors
///
/// Returns [`SolveMatrixError::NotSquare`] for a non-square input.
///
/// # Examples
///
/// ```
/// use pdn_num::{symmetric_eigen, Matrix};
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let e = symmetric_eigen(&a)?;
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn symmetric_eigen(a: &Matrix<f64>) -> Result<SymmetricEigen, SolveMatrixError> {
    if !a.is_square() {
        return Err(SolveMatrixError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    let n = a.nrows();
    // Symmetrize defensively.
    let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut v = Matrix::identity(n);
    // Tolerance must scale with the matrix magnitude — physical matrices
    // here range from ~1e-17 (L·C products) to ~1e12 (potential
    // coefficients).
    let scale = m.max_abs();
    if scale == 0.0 {
        return Ok(SymmetricEigen {
            values: vec![0.0; n],
            vectors: v,
        });
    }
    let tol = 1e-14 * scale;
    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(m[(i, j)].abs());
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable rotation computation (Golub & Van Loan).
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation J(p,q,θ) on both sides of m and accumulate in v.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    // Collect and sort ascending.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).expect("NaN eigenvalue"));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    Ok(SymmetricEigen { values, vectors })
}

/// Solves the generalized symmetric-definite eigenproblem `A·v = λ·B·v`
/// with `B` symmetric positive definite.
///
/// This is the modal-analysis kernel: for multiconductor transmission lines
/// the propagation modes satisfy `L·C·v = (1/vₚ²)·v`, which is recast as a
/// generalized problem to stay in symmetric arithmetic. Internally the
/// problem is reduced with the Cholesky factor of `B`:
/// `L⁻¹ A L⁻ᵀ (Lᵀ v) = λ (Lᵀ v)`.
///
/// Returned eigenvectors are `B`-orthonormal: `vᵢᵀ B vⱼ = δᵢⱼ`.
///
/// # Errors
///
/// Returns an error when `B` is not positive definite or shapes mismatch.
///
/// # Examples
///
/// ```
/// use pdn_num::{generalized_symmetric_eigen, Matrix};
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]]);
/// let e = generalized_symmetric_eigen(&a, &b)?;
/// assert!((e.values[0] - 2.0).abs() < 1e-12);
/// assert!((e.values[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn generalized_symmetric_eigen(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> Result<SymmetricEigen, SolveMatrixError> {
    if a.shape() != b.shape() {
        return Err(SolveMatrixError::DimensionMismatch {
            expected: a.nrows(),
            got: b.nrows(),
        });
    }
    let n = a.nrows();
    let ch = CholeskyDecomposition::new(b)?;
    // Form C = L⁻¹ A L⁻ᵀ with two blocked forward solves:
    // first X = L⁻¹ A, then C = X L⁻ᵀ = (L⁻¹ Xᵀ)ᵀ.
    let mut x = a.clone();
    ch.solve_lower_in_place(&mut x)?;
    let mut c = x.transpose();
    ch.solve_lower_in_place(&mut c)?;
    let eig = symmetric_eigen(&c.transpose())?;
    // Back-transform eigenvectors: v = L⁻ᵀ w.
    let mut vectors = Matrix::zeros(n, n);
    for j in 0..n {
        let w = eig.vectors.col(j);
        let v = ch.solve_upper(&w)?;
        for i in 0..n {
            vectors[(i, j)] = v[i];
        }
    }
    Ok(SymmetricEigen {
        values: eig.values,
        vectors,
    })
}

/// Eigenvector of the smallest eigenvalue of a complex **Hermitian**
/// matrix `H`, via the real-symmetric embedding
/// `[[Re H, −Im H], [Im H, Re H]]` solved with [`symmetric_eigen`]: a
/// complex eigenpair `(λ, u + i·v)` of `H` maps to the real pairs
/// `(λ, (u; v))` and `(λ, (−v; u))`.
///
/// Only the Hermitian part of `h` is used (entries are averaged with
/// their conjugate transposes). The returned vector has unit Euclidean
/// norm but an arbitrary global phase — exactly what the barycentric
/// weight computation in [`crate::rational`] needs, since barycentric
/// interpolants are invariant under a global weight scaling.
///
/// # Errors
///
/// Returns [`SolveMatrixError::NotSquare`] for a non-square input.
///
/// # Examples
///
/// ```
/// use pdn_num::{c64, eigen::hermitian_smallest_eigenvector, Matrix};
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// // H = [[2, i], [−i, 2]] has eigenvalues 1 and 3.
/// let h = Matrix::from_rows(&[
///     &[c64::from_re(2.0), c64::from_im(1.0)],
///     &[c64::from_im(-1.0), c64::from_re(2.0)],
/// ]);
/// let w = hermitian_smallest_eigenvector(&h)?;
/// // Residual ‖H·w − 1·w‖ vanishes for the smallest eigenvalue 1.
/// let hw0 = h[(0, 0)] * w[0] + h[(0, 1)] * w[1];
/// assert!((hw0 - w[0]).norm() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn hermitian_smallest_eigenvector(h: &Matrix<c64>) -> Result<Vec<c64>, SolveMatrixError> {
    if !h.is_square() {
        return Err(SolveMatrixError::NotSquare {
            rows: h.nrows(),
            cols: h.ncols(),
        });
    }
    let n = h.nrows();
    let mut s = Matrix::<f64>::zeros(2 * n, 2 * n);
    for i in 0..n {
        for j in 0..n {
            let x = 0.5 * (h[(i, j)].re + h[(j, i)].re);
            let y = 0.5 * (h[(i, j)].im - h[(j, i)].im);
            s[(i, j)] = x;
            s[(i, j + n)] = -y;
            s[(i + n, j)] = y;
            s[(i + n, j + n)] = x;
        }
    }
    let eig = symmetric_eigen(&s)?;
    let v = eig.vectors.col(0);
    Ok((0..n).map(|i| c64::new(v[i], v[i + n])).collect())
}

/// The right singular vector for the **smallest** singular value of a
/// complex matrix `l` (any shape, at least one column), computed
/// without ever forming the Gram matrix `LᴴL`: a Householder QR
/// reduction to the triangular factor `R` followed by deterministic
/// inverse iteration with `R⁻¹R⁻ᴴ` (two triangular solves per step).
///
/// Forming `LᴴL` squares the condition number, which floors the
/// attainable null-space residual near `√ε` — around `1e-7` relative in
/// double precision. Working on `R` directly reaches `ε` level, which
/// the rational sweep engine in [`crate::rational`] needs to certify
/// tolerances tighter than `1e-7`.
///
/// The returned vector has unit Euclidean norm and an arbitrary global
/// phase (barycentric weights are scaling-invariant, so that is fine).
///
/// # Errors
///
/// Returns [`SolveMatrixError::NotSquare`] when `l` has no columns.
///
/// # Examples
///
/// ```
/// use pdn_num::{c64, eigen::smallest_singular_vector, Matrix};
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// // Columns are parallel: the null vector is (1, −1)/√2 up to phase.
/// let l = Matrix::from_rows(&[
///     &[c64::from_re(1.0), c64::from_re(1.0)],
///     &[c64::from_re(2.0), c64::from_re(2.0)],
/// ]);
/// let w = smallest_singular_vector(&l)?;
/// assert!((w[0] + w[1]).norm() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn smallest_singular_vector(l: &Matrix<c64>) -> Result<Vec<c64>, SolveMatrixError> {
    let m = l.ncols();
    if m == 0 {
        return Err(SolveMatrixError::NotSquare {
            rows: l.nrows(),
            cols: 0,
        });
    }
    // Pad short-and-wide inputs with zero rows so R is m×m.
    let rr = l.nrows().max(m);
    let mut a = Matrix::<c64>::zeros(rr, m);
    for i in 0..l.nrows() {
        for j in 0..m {
            a[(i, j)] = l[(i, j)];
        }
    }
    for k in 0..m {
        let xn2: f64 = (k..rr).map(|i| a[(i, k)].norm_sqr()).sum();
        let xn = xn2.sqrt();
        if xn == 0.0 {
            continue;
        }
        let akk = a[(k, k)];
        // β = −phase(aₖₖ)·‖x‖ keeps v₀ = aₖₖ − β free of cancellation.
        let phase = if akk.norm() > 0.0 {
            akk / c64::from_re(akk.norm())
        } else {
            c64::ONE
        };
        let beta = phase * (-xn);
        let mut v = vec![c64::ZERO; rr - k];
        v[0] = akk - beta;
        for i in k + 1..rr {
            v[i - k] = a[(i, k)];
        }
        let vn2 = 2.0 * xn * (xn + akk.norm());
        a[(k, k)] = beta;
        for i in k + 1..rr {
            a[(i, k)] = c64::ZERO;
        }
        for j in k + 1..m {
            let mut s = c64::ZERO;
            for i in k..rr {
                s += v[i - k].conj() * a[(i, j)];
            }
            let s = s * (2.0 / vn2);
            for i in k..rr {
                let upd = a[(i, j)] - v[i - k] * s;
                a[(i, j)] = upd;
            }
        }
    }
    // Inverse iteration with R⁻¹R⁻ᴴ converges to the smallest singular
    // direction; exact zeros on the diagonal are floored so a genuinely
    // rank-deficient R still yields its null vector.
    let dmax = (0..m).map(|j| a[(j, j)].norm()).fold(0.0, f64::max);
    let uniform = c64::from_re(1.0 / (m as f64).sqrt());
    if dmax == 0.0 {
        return Ok(vec![uniform; m]);
    }
    let floor = dmax * f64::EPSILON;
    let diag: Vec<c64> = (0..m)
        .map(|j| {
            let d = a[(j, j)];
            if d.norm() < floor {
                c64::from_re(floor)
            } else {
                d
            }
        })
        .collect();
    let mut x = vec![uniform; m];
    for _ in 0..32 {
        let mut y = vec![c64::ZERO; m];
        for i in 0..m {
            let mut s = x[i];
            for j in 0..i {
                s -= a[(j, i)].conj() * y[j];
            }
            y[i] = s / diag[i].conj();
        }
        let mut z = vec![c64::ZERO; m];
        for i in (0..m).rev() {
            let mut s = y[i];
            for j in i + 1..m {
                s -= a[(i, j)] * z[j];
            }
            z[i] = s / diag[i];
        }
        let nrm = z.iter().map(|zc| zc.norm_sqr()).sum::<f64>().sqrt();
        if !(nrm.is_finite() && nrm > 0.0) {
            break;
        }
        let inv = 1.0 / nrm;
        for (xi, zi) in x.iter_mut().zip(&z) {
            *xi = *zi * inv;
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn smallest_singular_vector_finds_a_near_null_direction() {
        // L = U·diag(3, 1e-9) in a rotated basis: the small singular
        // direction is (1, −2)/√5 and must be recovered to ~ε, which a
        // Gram-matrix (LᴴL) approach cannot do.
        let u = [
            [c64::from_re(0.6), c64::from_re(0.8)],
            [c64::from_re(-0.8), c64::from_re(0.6)],
        ];
        let vt = [
            [
                c64::from_re(2.0 / 5f64.sqrt()),
                c64::from_re(1.0 / 5f64.sqrt()),
            ],
            [
                c64::from_re(1.0 / 5f64.sqrt()),
                c64::from_re(-2.0 / 5f64.sqrt()),
            ],
        ];
        let s = [3.0, 1e-9];
        let l = Matrix::from_fn(2, 2, |i, j| {
            (0..2).fold(c64::ZERO, |acc, k| acc + u[i][k] * s[k] * vt[k][j])
        });
        let w = smallest_singular_vector(&l).unwrap();
        // Residual ‖L·w‖ must sit at the smallest singular value.
        let r0 = l[(0, 0)] * w[0] + l[(0, 1)] * w[1];
        let r1 = l[(1, 0)] * w[0] + l[(1, 1)] * w[1];
        let res = (r0.norm_sqr() + r1.norm_sqr()).sqrt();
        assert!(res < 2e-9, "residual {res:.3e}");
    }

    #[test]
    fn smallest_singular_vector_handles_tall_and_rank_deficient_input() {
        // Tall matrix with exactly dependent columns: exact null vector.
        let l = Matrix::from_rows(&[
            &[c64::from_re(1.0), c64::from_re(2.0)],
            &[c64::from_im(3.0), c64::from_im(6.0)],
            &[c64::new(1.0, -1.0), c64::new(2.0, -2.0)],
        ]);
        let w = smallest_singular_vector(&l).unwrap();
        let res: f64 = (0..3)
            .map(|i| (l[(i, 0)] * w[0] + l[(i, 1)] * w[1]).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-12, "residual {res:.3e}");
        let nrm: f64 = w.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        assert!((nrm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert!(approx_eq(e.values[0], -1.0, 1e-12));
        assert!(approx_eq(e.values[1], 2.0, 1e-12));
        assert!(approx_eq(e.values[2], 3.0, 1e-12));
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.25], &[0.5, -0.25, 5.0]]);
        let e = symmetric_eigen(&a).unwrap();
        for k in 0..3 {
            let v = e.vectors.col(k);
            let av = a.matvec(&v);
            for i in 0..3 {
                assert!(approx_eq(av[i], e.values[k] * v[i], 1e-10), "pair {k}");
            }
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(5, 5, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = symmetric_eigen(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        for i in 0..5 {
            for j in 0..5 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(vtv[(i, j)], expect, 1e-10));
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_fn(6, 6, |i, j| ((i + j) as f64).cos());
        let e = symmetric_eigen(&a).unwrap();
        let tr: f64 = (0..6).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!(approx_eq(tr, sum, 1e-10));
    }

    #[test]
    fn generalized_reduces_to_standard_for_identity_b() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::identity(2);
        let e = generalized_symmetric_eigen(&a, &b).unwrap();
        assert!(approx_eq(e.values[0], 1.0, 1e-12));
        assert!(approx_eq(e.values[1], 3.0, 1e-12));
    }

    #[test]
    fn generalized_eigen_satisfies_definition() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let e = generalized_symmetric_eigen(&a, &b).unwrap();
        for k in 0..2 {
            let v = e.vectors.col(k);
            let av = a.matvec(&v);
            let bv = b.matvec(&v);
            for i in 0..2 {
                assert!(approx_eq(av[i], e.values[k] * bv[i], 1e-10));
            }
        }
        // B-orthonormality.
        for i in 0..2 {
            for j in 0..2 {
                let vi = e.vectors.col(i);
                let bvj = b.matvec(&e.vectors.col(j));
                let prod = crate::matrix::dot(&vi, &bvj);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(prod, expect, 1e-10));
            }
        }
    }

    #[test]
    fn generalized_rejects_indefinite_b() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(generalized_symmetric_eigen(&a, &b).is_err());
    }
}
