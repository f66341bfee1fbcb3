//! Preconditioners for the block-CG SPD solver in [`crate::cg`].
//!
//! The block-CG driver takes the preconditioner as a
//! [`Preconditioner`] trait object instead of a hardcoded Jacobi
//! diagonal, so callers with structure to exploit — the compressed BEM
//! kernels carry a geometric cluster tree — can supply a hierarchical
//! block-Jacobi preconditioner ([`BlockJacobiPreconditioner`]: exact
//! Cholesky factors over disjoint index clusters) while plain callers
//! keep the diagonal ([`JacobiPreconditioner`]).
//!
//! Every implementation applies `z = M⁻¹·r` with serial, fixed-order
//! arithmetic, so preconditioned solves stay bit-identical for any
//! `PDN_THREADS` setting.

use crate::cg::IterativeSolveError;
use crate::{CholeskyDecomposition, Matrix};

/// An SPD preconditioner `M ≈ A` applied as `z = M⁻¹·r`.
///
/// Implementations must be deterministic: the same `r` always produces
/// the bit-identical `z`, independent of thread count.
pub trait Preconditioner: Sync {
    /// Operator dimension.
    fn len(&self) -> usize;

    /// Whether the operator is zero-dimensional.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies `z = M⁻¹·r`. Both slices have length [`Self::len`].
    fn apply_into(&self, r: &[f64], z: &mut [f64]);

    /// Applies `z = M⁻¹·r` to every column of a panel. Implementations
    /// may reorder the (column, sub-block) sweep for locality, but every
    /// column's result must be bit-identical to a standalone
    /// [`Preconditioner::apply_into`] call.
    fn apply_panel_into(&self, rs: &[Vec<f64>], zs: &mut [Vec<f64>]) {
        for (r, z) in rs.iter().zip(zs.iter_mut()) {
            self.apply_into(r, z);
        }
    }

    /// Whether this is a plain Jacobi (diagonal) preconditioner — used
    /// by the solvers to hint at a hierarchical preconditioner in
    /// `NotConverged` diagnostics.
    fn is_jacobi(&self) -> bool {
        false
    }
}

/// The classic Jacobi preconditioner `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the matrix diagonal.
    ///
    /// # Errors
    ///
    /// A zero or negative diagonal entry contradicts the claimed SPD
    /// operator and returns [`IterativeSolveError::Breakdown`] carrying
    /// the offending index — it is never silently substituted.
    pub fn new(diag: &[f64]) -> Result<Self, IterativeSolveError> {
        if let Some(index) = diag.iter().position(|&d| d.is_nan() || d <= 0.0) {
            return Err(IterativeSolveError::Breakdown { index: Some(index) });
        }
        Ok(JacobiPreconditioner {
            inv: diag.iter().map(|d| 1.0 / d).collect(),
        })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn len(&self) -> usize {
        self.inv.len()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..self.inv.len() {
            z[i] = r[i] * self.inv[i];
        }
    }

    fn is_jacobi(&self) -> bool {
        true
    }
}

/// Hierarchical block-Jacobi preconditioner: exact Cholesky factors of
/// the operator's diagonal sub-blocks over a disjoint cluster partition
/// (in practice the leaves of a geometric cluster tree, optionally
/// coarsened to a size cap).
///
/// `M = blkdiag(A[c₁,c₁], A[c₂,c₂], …)` captures all near-field
/// coupling within each cluster — on the ill-conditioned fine-mesh BEM
/// kernels this cuts CG iteration counts well below the diagonal-only
/// Jacobi preconditioner (asserted by `tests/block_solver.rs`).
#[derive(Debug, Clone)]
pub struct BlockJacobiPreconditioner {
    n: usize,
    /// `(cluster indices, Cholesky factor of the cluster sub-block)`.
    blocks: Vec<(Vec<usize>, CholeskyDecomposition)>,
}

impl BlockJacobiPreconditioner {
    /// Builds the preconditioner from `(indices, sub_block)` pairs where
    /// `sub_block` is the dense restriction `A[indices, indices]`.
    ///
    /// The clusters must disjointly cover `0..n`.
    ///
    /// # Errors
    ///
    /// [`IterativeSolveError::BadShape`] when the clusters do not
    /// partition `0..n` or a sub-block dimension mismatches its index
    /// set; [`IterativeSolveError::Breakdown`] (with the offending
    /// global index) when a cluster sub-block is not positive definite.
    pub fn from_blocks(
        n: usize,
        clusters: Vec<(Vec<usize>, Matrix<f64>)>,
    ) -> Result<Self, IterativeSolveError> {
        let mut seen = vec![false; n];
        let mut blocks = Vec::with_capacity(clusters.len());
        for (indices, sub) in clusters {
            if sub.nrows() != indices.len() || sub.ncols() != indices.len() {
                return Err(IterativeSolveError::BadShape);
            }
            for &i in &indices {
                if i >= n || seen[i] {
                    return Err(IterativeSolveError::BadShape);
                }
                seen[i] = true;
            }
            if indices.is_empty() {
                continue;
            }
            let chol =
                CholeskyDecomposition::new(&sub).map_err(|_| IterativeSolveError::Breakdown {
                    index: Some(indices[0]),
                })?;
            blocks.push((indices, chol));
        }
        if seen.iter().any(|&s| !s) {
            return Err(IterativeSolveError::BadShape);
        }
        Ok(BlockJacobiPreconditioner { n, blocks })
    }

    /// Number of cluster blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Largest cluster size.
    pub fn max_block(&self) -> usize {
        self.blocks
            .iter()
            .map(|(ix, _)| ix.len())
            .max()
            .unwrap_or(0)
    }
}

impl Preconditioner for BlockJacobiPreconditioner {
    fn len(&self) -> usize {
        self.n
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        // Serial over blocks in fixed order — each gathered solve is
        // independent, so the result is deterministic by construction.
        for (indices, chol) in &self.blocks {
            let rb: Vec<f64> = indices.iter().map(|&i| r[i]).collect();
            let zb = chol
                .solve(&rb)
                .expect("factored cluster block stays solvable");
            for (k, &i) in indices.iter().enumerate() {
                z[i] = zb[k];
            }
        }
    }

    fn apply_panel_into(&self, rs: &[Vec<f64>], zs: &mut [Vec<f64>]) {
        // Blocks outer, columns inner: each cluster's Cholesky factor
        // stays cache-hot across the whole panel instead of the full
        // factor set streaming once per column. The per-column
        // gather/solve/scatter is exactly `apply_into`'s — the sweep
        // order only changes which factor is resident, never any
        // arithmetic.
        for (indices, chol) in &self.blocks {
            for (r, z) in rs.iter().zip(zs.iter_mut()) {
                let rb: Vec<f64> = indices.iter().map(|&i| r[i]).collect();
                let zb = chol
                    .solve(&rb)
                    .expect("factored cluster block stays solvable");
                for (k, &i) in indices.iter().enumerate() {
                    z[i] = zb[k];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix<f64> {
        let m = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn jacobi_rejects_non_positive_diagonal_with_index() {
        assert_eq!(
            JacobiPreconditioner::new(&[1.0, 2.0, 0.0, 3.0]).unwrap_err(),
            IterativeSolveError::Breakdown { index: Some(2) }
        );
        assert_eq!(
            JacobiPreconditioner::new(&[-1.0, 2.0]).unwrap_err(),
            IterativeSolveError::Breakdown { index: Some(0) }
        );
        assert_eq!(
            JacobiPreconditioner::new(&[1.0, f64::NAN]).unwrap_err(),
            IterativeSolveError::Breakdown { index: Some(1) }
        );
    }

    #[test]
    fn jacobi_applies_inverse_diagonal() {
        let pc = JacobiPreconditioner::new(&[2.0, 4.0]).unwrap();
        assert!(pc.is_jacobi());
        let mut z = [0.0; 2];
        pc.apply_into(&[1.0, 1.0], &mut z);
        assert_eq!(z, [0.5, 0.25]);
    }

    #[test]
    fn block_jacobi_with_full_block_is_exact_inverse() {
        let a = spd(6);
        let pc =
            BlockJacobiPreconditioner::from_blocks(6, vec![((0..6).collect(), a.clone())]).unwrap();
        assert!(!pc.is_jacobi());
        let b: Vec<f64> = (0..6).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut z = vec![0.0; 6];
        pc.apply_into(&b, &mut z);
        let back = a.matvec(&z);
        for i in 0..6 {
            assert!((back[i] - b[i]).abs() < 1e-10, "entry {i}");
        }
    }

    #[test]
    fn block_jacobi_respects_cluster_partition() {
        // Two decoupled 2x2 blocks: block-Jacobi over them is exact.
        let mut a = Matrix::zeros(4, 4);
        for (i, j, v) in [
            (0, 0, 4.0),
            (0, 2, 1.0),
            (2, 0, 1.0),
            (2, 2, 3.0),
            (1, 1, 5.0),
            (1, 3, 2.0),
            (3, 1, 2.0),
            (3, 3, 6.0),
        ] {
            a[(i, j)] = v;
        }
        let clusters = vec![
            (vec![0, 2], a.submatrix(&[0, 2], &[0, 2])),
            (vec![1, 3], a.submatrix(&[1, 3], &[1, 3])),
        ];
        let pc = BlockJacobiPreconditioner::from_blocks(4, clusters).unwrap();
        assert_eq!(pc.block_count(), 2);
        assert_eq!(pc.max_block(), 2);
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut z = vec![0.0; 4];
        pc.apply_into(&b, &mut z);
        let back = a.matvec(&z);
        for i in 0..4 {
            assert!((back[i] - b[i]).abs() < 1e-10, "entry {i}");
        }
    }

    #[test]
    fn block_jacobi_panel_apply_is_bit_identical_to_columns() {
        let a = spd(8);
        let clusters = vec![
            (vec![0, 3, 5], a.submatrix(&[0, 3, 5], &[0, 3, 5])),
            (vec![1, 2], a.submatrix(&[1, 2], &[1, 2])),
            (vec![4, 6, 7], a.submatrix(&[4, 6, 7], &[4, 6, 7])),
        ];
        let pc = BlockJacobiPreconditioner::from_blocks(8, clusters).unwrap();
        let rs: Vec<Vec<f64>> = (0..5)
            .map(|c| (0..8).map(|i| ((c * 8 + i) as f64 * 0.17).sin()).collect())
            .collect();
        let mut panel = vec![vec![0.0; 8]; rs.len()];
        pc.apply_panel_into(&rs, &mut panel);
        for (r, zp) in rs.iter().zip(&panel) {
            let mut z = vec![0.0; 8];
            pc.apply_into(r, &mut z);
            assert_eq!(&z, zp, "panel apply must match per-column apply bitwise");
        }
    }

    #[test]
    fn block_jacobi_rejects_bad_partitions() {
        let a2 = spd(2);
        // Overlapping index.
        assert_eq!(
            BlockJacobiPreconditioner::from_blocks(
                3,
                vec![(vec![0, 1], a2.clone()), (vec![1], spd(1))],
            )
            .unwrap_err(),
            IterativeSolveError::BadShape
        );
        // Uncovered index.
        assert_eq!(
            BlockJacobiPreconditioner::from_blocks(3, vec![(vec![0, 1], a2.clone())]).unwrap_err(),
            IterativeSolveError::BadShape
        );
        // Sub-block dimension mismatch.
        assert_eq!(
            BlockJacobiPreconditioner::from_blocks(2, vec![(vec![0, 1], spd(3))]).unwrap_err(),
            IterativeSolveError::BadShape
        );
    }

    #[test]
    fn block_jacobi_reports_indefinite_cluster() {
        let mut bad = Matrix::zeros(2, 2);
        bad[(0, 0)] = 1.0;
        bad[(1, 1)] = -1.0;
        assert_eq!(
            BlockJacobiPreconditioner::from_blocks(2, vec![(vec![0, 1], bad)]).unwrap_err(),
            IterativeSolveError::Breakdown { index: Some(0) }
        );
    }
}
