//! Kron (Schur-complement) reduction of nodal matrices.
//!
//! Eliminating internal nodes with no external injection from a nodal
//! system `M·V = J` leaves the Schur complement
//!
//! ```text
//! M_red = M_kk − M_ke · M_ee⁻¹ · M_ek
//! ```
//!
//! on the kept nodes. Applied separately to the reluctance `B`, the DC
//! conductance `G`, and the capacitance `C`, this is how the paper's
//! N-node macromodels are produced from the full BEM cell grid. (For `C`
//! the Schur complement corresponds exactly to leaving the eliminated
//! cells floating: it equals the inverse of the kept-block of the
//! potential-coefficient matrix.)

use pdn_num::{LuDecomposition, Matrix, Preconditioner, SolveMatrixError};

/// Reduces a symmetric nodal matrix onto the `keep` node set.
///
/// `keep` must be strictly increasing and in range; eliminated nodes are
/// everything else.
///
/// # Errors
///
/// Returns an error when the eliminated block is singular — typically a
/// floating island with no retained node.
///
/// # Panics
///
/// Panics if `m` is not square or `keep` is not strictly increasing and in
/// range.
///
/// # Examples
///
/// Eliminating the middle node of two series conductances `g1`, `g2`
/// leaves their series combination:
///
/// ```
/// use pdn_num::Matrix;
///
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let (g1, g2) = (2.0, 3.0);
/// // Nodes: 0 — g1 — 1 — g2 — 2 (Laplacian form).
/// let m = Matrix::from_rows(&[
///     &[g1, -g1, 0.0],
///     &[-g1, g1 + g2, -g2],
///     &[0.0, -g2, g2],
/// ]);
/// let r = pdn_extract::kron_reduce(&m, &[0, 2])?;
/// let series = g1 * g2 / (g1 + g2);
/// assert!((r[(0, 1)] + series).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn kron_reduce(m: &Matrix<f64>, keep: &[usize]) -> Result<Matrix<f64>, SolveMatrixError> {
    assert!(m.is_square(), "kron_reduce requires a square matrix");
    let n = m.nrows();
    for w in keep.windows(2) {
        assert!(w[0] < w[1], "keep indices must be strictly increasing");
    }
    if let Some(&last) = keep.last() {
        assert!(last < n, "keep index out of range");
    }
    let keep_set: Vec<bool> = {
        let mut s = vec![false; n];
        for &k in keep {
            s[k] = true;
        }
        s
    };
    let elim: Vec<usize> = (0..n).filter(|&i| !keep_set[i]).collect();
    if elim.is_empty() {
        return Ok(m.submatrix(keep, keep));
    }
    let m_kk = m.submatrix(keep, keep);
    let m_ke = m.submatrix(keep, &elim);
    let m_ek = m.submatrix(&elim, keep);
    let m_ee = m.submatrix(&elim, &elim);
    let lu = LuDecomposition::new(m_ee)?;
    let x = lu.solve_matrix(&m_ek)?; // M_ee⁻¹ M_ek
    let correction = m_ke.matmul(&x);
    Ok(&m_kk - &correction)
}

/// [`kron_reduce`] from pre-extracted blocks of a symmetric matrix whose
/// eliminated block is sparse, computed by a direct factorization:
/// returns `M_kk − M_ke · M_ee⁻¹ · M_keᵀ`. `m_ke[i]` lists the nonzeros
/// `(q, v)` of kept row `i` of the coupling block, and `M_ee` is given
/// by its diagonal `ee_diag` and its off-diagonal nonzeros `ee_off` as
/// `(i, j, v)` triples with `i < j`. Repeated entries are summed.
///
/// `M_ee` is factored by an envelope (profile) Cholesky — see
/// [`EnvelopeCholesky`] — whose arithmetic is that of a dense Cholesky
/// with the structural zeros skipped, so the reduction is accurate entry
/// by entry, down to the small far-pair couplings an iterative Schur
/// complement resolves only relative to the matrix norm. Columns are
/// solved independently over [`pdn_num::parallel`], so the result is
/// bit-identical for any thread count.
///
/// # Errors
///
/// Returns [`SolveMatrixError::Singular`] when `M_ee` is not numerically
/// positive definite — typically a floating island with no retained
/// node.
///
/// # Panics
///
/// Panics on inconsistent block dimensions or an index out of range.
pub(crate) fn kron_reduce_sparse(
    m_kk: &Matrix<f64>,
    m_ke: &[Vec<(usize, f64)>],
    ee_diag: &[f64],
    ee_off: &[(usize, usize, f64)],
) -> Result<Matrix<f64>, SolveMatrixError> {
    assert!(m_kk.is_square(), "kept block must be square");
    let k = m_kk.nrows();
    let e = ee_diag.len();
    assert_eq!(m_ke.len(), k, "coupling block row count");
    if e == 0 {
        return Ok(m_kk.clone());
    }
    let factor = EnvelopeCholesky::new(ee_diag, ee_off)?;
    let corrections: Vec<Vec<f64>> = pdn_num::parallel::par_map_indexed(k, |j| {
        let mut x = vec![0.0; e];
        for &(q, v) in &m_ke[j] {
            x[q] += v;
        }
        factor.solve_in_place(&mut x);
        m_ke.iter()
            .map(|row| row.iter().map(|&(q, v)| v * x[q]).sum())
            .collect()
    });
    let mut reduced = m_kk.clone();
    for (j, col) in corrections.iter().enumerate() {
        for (i, &c) in col.iter().enumerate() {
            reduced[(i, j)] -= c;
        }
    }
    symmetrize(&mut reduced);
    Ok(reduced)
}

/// Restores exact symmetry of a square matrix computed column by column
/// (each to a solver tolerance) by averaging mirrored entries.
pub(crate) fn symmetrize(a: &mut Matrix<f64>) {
    for i in 0..a.nrows() {
        for j in (i + 1)..a.ncols() {
            let avg = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = avg;
            a[(j, i)] = avg;
        }
    }
}

/// Cholesky factor `M = L·Lᵀ` of a sparse SPD matrix in envelope form:
/// row `i` of `L` is stored from its first structurally nonzero column
/// through the diagonal, and fill stays inside that envelope. A grid
/// Laplacian in row-major order costs `O(e·w²)` time and `O(e·w)`
/// memory for grid width `w`, never the dense `e²`.
pub(crate) struct EnvelopeCholesky {
    /// First stored column of each row.
    first: Vec<usize>,
    /// Offsets of each row's slice in `values` (one past the end last).
    start: Vec<usize>,
    values: Vec<f64>,
}

impl EnvelopeCholesky {
    /// Factors the symmetric matrix with diagonal `diag` and
    /// off-diagonal nonzeros `off` (`(i, j, v)`, `i < j`, summed).
    ///
    /// # Errors
    ///
    /// [`SolveMatrixError::Singular`] when a pivot falls to rounding
    /// level against its diagonal entry (a grounded Laplacian keeps every
    /// pivot a healthy fraction of it; a floating island does not).
    pub(crate) fn new(diag: &[f64], off: &[(usize, usize, f64)]) -> Result<Self, SolveMatrixError> {
        let e = diag.len();
        let mut first: Vec<usize> = (0..e).collect();
        for &(i, j, _) in off {
            assert!(i < j && j < e, "off-diagonal entry ({i}, {j}) out of range");
            first[j] = first[j].min(i);
        }
        let mut start = Vec::with_capacity(e + 1);
        let mut len = 0;
        for (i, &f) in first.iter().enumerate() {
            start.push(len);
            len += i - f + 1;
        }
        start.push(len);
        let mut values = vec![0.0; len];
        for (i, &d) in diag.iter().enumerate() {
            values[start[i + 1] - 1] = d;
        }
        for &(i, j, v) in off {
            values[start[j] + i - first[j]] += v;
        }
        for i in 0..e {
            let fi = first[i];
            let (done, rest) = values.split_at_mut(start[i]);
            let row = &mut rest[..=i - fi];
            for j in fi..i {
                let fj = first[j];
                let row_j = &done[start[j]..start[j + 1]];
                let mut s = row[j - fi];
                for c in fi.max(fj)..j {
                    s -= row[c - fi] * row_j[c - fj];
                }
                row[j - fi] = s / row_j[j - fj];
            }
            let mut d = row[i - fi];
            for &l in &row[..i - fi] {
                d -= l * l;
            }
            if !d.is_finite() || d <= 1e-12 * diag[i] {
                return Err(SolveMatrixError::Singular { column: i });
            }
            row[i - fi] = d.sqrt();
        }
        Ok(EnvelopeCholesky {
            first,
            start,
            values,
        })
    }

    /// Overwrites `x` with `M⁻¹·x`: forward substitution with `L`, then
    /// backward substitution with `Lᵀ`.
    pub(crate) fn solve_in_place(&self, x: &mut [f64]) {
        let e = self.first.len();
        for i in 0..e {
            let fi = self.first[i];
            let row = &self.values[self.start[i]..self.start[i + 1]];
            let mut s = x[i];
            for (c, &l) in row[..i - fi].iter().enumerate() {
                s -= l * x[fi + c];
            }
            x[i] = s / row[i - fi];
        }
        for i in (0..e).rev() {
            let fi = self.first[i];
            let row = &self.values[self.start[i]..self.start[i + 1]];
            let xi = x[i] / row[i - fi];
            x[i] = xi;
            for (c, &l) in row[..i - fi].iter().enumerate() {
                x[fi + c] -= l * xi;
            }
        }
    }
}

/// Orthogonal projector onto the link-current vectors with no net
/// injection at any eliminated cell, `P = I − A_e·(A_eᵀA_e)⁻¹·A_eᵀ`,
/// where `A_e` holds the signed link-incidence columns of the eliminated
/// cells. The unit-weight Laplacian `A_eᵀA_e` is factored once
/// ([`EnvelopeCholesky`]); it is nonsingular exactly when every
/// connected group of eliminated cells touches a kept cell.
pub(crate) struct EliminatedCellProjector<'a> {
    links: &'a [pdn_geom::Link],
    /// Eliminated index of each cell, `usize::MAX` for kept cells.
    elim_pos: &'a [usize],
    laplacian: EnvelopeCholesky,
}

impl<'a> EliminatedCellProjector<'a> {
    /// Builds the projector for `e` eliminated cells.
    ///
    /// # Errors
    ///
    /// [`SolveMatrixError::Singular`] when some group of eliminated cells
    /// is cut off from every kept cell.
    pub(crate) fn new(
        links: &'a [pdn_geom::Link],
        elim_pos: &'a [usize],
        e: usize,
    ) -> Result<Self, SolveMatrixError> {
        let mut diag = vec![0.0; e];
        let mut off = Vec::new();
        for link in links {
            let (pa, pb) = (elim_pos[link.a], elim_pos[link.b]);
            if pa != usize::MAX {
                diag[pa] += 1.0;
            }
            if pb != usize::MAX {
                diag[pb] += 1.0;
            }
            if pa != usize::MAX && pb != usize::MAX {
                off.push((pa.min(pb), pa.max(pb), -1.0));
            }
        }
        Ok(EliminatedCellProjector {
            links,
            elim_pos,
            laplacian: EnvelopeCholesky::new(&diag, &off)?,
        })
    }

    /// Overwrites the link vector `v` with `P·v`.
    pub(crate) fn project(&self, v: &mut [f64]) {
        let e = self.laplacian.first.len();
        if e == 0 {
            return;
        }
        let mut y = vec![0.0; e];
        for (link, &vl) in self.links.iter().zip(v.iter()) {
            let (pa, pb) = (self.elim_pos[link.a], self.elim_pos[link.b]);
            if pa != usize::MAX {
                y[pa] += vl;
            }
            if pb != usize::MAX {
                y[pb] -= vl;
            }
        }
        self.laplacian.solve_in_place(&mut y);
        for (link, vl) in self.links.iter().zip(v.iter_mut()) {
            let (pa, pb) = (self.elim_pos[link.a], self.elim_pos[link.b]);
            if pa != usize::MAX {
                *vl -= y[pa];
            }
            if pb != usize::MAX {
                *vl += y[pb];
            }
        }
    }

    /// Projects every column of a panel, one worker per column.
    pub(crate) fn project_panel(&self, cols: &mut [Vec<f64>]) {
        pdn_num::parallel::par_for_each_chunk_mut(cols, 1, |_, col| self.project(&mut col[0]));
    }

    /// The preconditioner `P·M⁻¹` for block CG on `P·A·P`: on residuals
    /// that already lie in the range of `P` it equals the symmetric
    /// `P·M⁻¹·P`.
    pub(crate) fn precondition<'p>(&'p self, inner: &'p dyn Preconditioner) -> Projected<'p> {
        Projected { inner, proj: self }
    }
}

/// A preconditioner followed by an [`EliminatedCellProjector`]; see
/// [`EliminatedCellProjector::precondition`].
pub(crate) struct Projected<'p> {
    inner: &'p dyn Preconditioner,
    proj: &'p EliminatedCellProjector<'p>,
}

impl Preconditioner for Projected<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.inner.apply_into(r, z);
        self.proj.project(z);
    }

    fn apply_panel_into(&self, rs: &[Vec<f64>], zs: &mut [Vec<f64>]) {
        self.inner.apply_panel_into(rs, zs);
        self.proj.project_panel(zs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_num::approx_eq;

    /// Laplacian of a chain of unit conductances with `n` nodes.
    fn chain_laplacian(n: usize, g: f64) -> Matrix<f64> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            m[(i, i)] += g;
            m[(i + 1, i + 1)] += g;
            m[(i, i + 1)] -= g;
            m[(i + 1, i)] -= g;
        }
        m
    }

    #[test]
    fn chain_reduces_to_single_branch() {
        // 5 nodes, unit conductances: end-to-end = 1/4.
        let m = chain_laplacian(5, 1.0);
        let r = kron_reduce(&m, &[0, 4]).unwrap();
        assert!(approx_eq(r[(0, 1)], -0.25, 1e-12));
        assert!(approx_eq(r[(0, 0)], 0.25, 1e-12));
        // Row sums still vanish (no connection to ground).
        assert!((r[(0, 0)] + r[(0, 1)]).abs() < 1e-12);
    }

    #[test]
    fn keep_all_is_identity_operation() {
        let m = chain_laplacian(4, 2.0);
        let r = kron_reduce(&m, &[0, 1, 2, 3]).unwrap();
        assert_eq!(r, m);
    }

    #[test]
    fn reduction_preserves_symmetry() {
        let mut m = chain_laplacian(6, 1.0);
        // Add some cross branches and grounding.
        m[(0, 3)] -= 0.5;
        m[(3, 0)] -= 0.5;
        m[(0, 0)] += 0.5;
        m[(3, 3)] += 0.5;
        m[(2, 2)] += 0.1; // shunt to ground at node 2
        let r = kron_reduce(&m, &[0, 5]).unwrap();
        assert!(r.symmetry_defect() < 1e-12);
    }

    #[test]
    fn grounded_network_keeps_ground_coupling() {
        // Node 1 has a shunt to ground; reducing it onto node 0 must leave
        // a positive diagonal (path to ground survives).
        let mut m = chain_laplacian(2, 1.0);
        m[(1, 1)] += 3.0;
        let r = kron_reduce(&m, &[0]).unwrap();
        // Series 1 Ω and 1/3 Ω to ground: g = 1·3/(1+3) = 0.75.
        assert!(approx_eq(r[(0, 0)], 0.75, 1e-12));
    }

    #[test]
    fn floating_island_is_singular() {
        // Two disconnected chains; keep only nodes of the first: the
        // second chain's block is a floating Laplacian — singular.
        let mut m = Matrix::zeros(4, 4);
        for (a, b) in [(0usize, 1usize), (2, 3)] {
            m[(a, a)] += 1.0;
            m[(b, b)] += 1.0;
            m[(a, b)] -= 1.0;
            m[(b, a)] -= 1.0;
        }
        assert!(kron_reduce(&m, &[0, 1]).is_err());
    }

    #[test]
    fn schur_equals_inverse_of_kept_block_inverse() {
        // For SPD M: Schur(M, keep) = (M⁻¹[keep,keep])⁻¹.
        let m = {
            let base = Matrix::from_fn(5, 5, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
            let mut s = base.transpose().matmul(&base);
            for i in 0..5 {
                s[(i, i)] += 1.0;
            }
            s
        };
        let keep = [1usize, 3];
        let red = kron_reduce(&m, &keep).unwrap();
        let m_inv = pdn_num::lu::invert(m).unwrap();
        let block = m_inv.submatrix(&keep, &keep);
        let back = pdn_num::lu::invert(block).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx_eq(red[(i, j)], back[(i, j)], 1e-9));
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_keep_panics() {
        let m = chain_laplacian(3, 1.0);
        let _ = kron_reduce(&m, &[2, 0]);
    }

    /// Laplacian of a `w × h` grid of unit conductances, each node also
    /// tied to ground through `g0` (so every block is SPD), with the
    /// nonzero off-diagonal conductances `1 + 0.1·(i + j mod 3)`.
    fn grounded_grid(w: usize, h: usize, g0: f64) -> Matrix<f64> {
        let n = w * h;
        let mut m = Matrix::zeros(n, n);
        let mut stamp = |i: usize, j: usize| {
            let g = 1.0 + 0.1 * ((i + j) % 3) as f64;
            m[(i, i)] += g;
            m[(j, j)] += g;
            m[(i, j)] -= g;
            m[(j, i)] -= g;
        };
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    stamp(i, i + 1);
                }
                if y + 1 < h {
                    stamp(i, i + w);
                }
            }
        }
        for i in 0..n {
            m[(i, i)] += g0;
        }
        m
    }

    /// The kept/coupling/eliminated blocks of `m` in the sparse form
    /// [`kron_reduce_sparse`] takes.
    #[allow(clippy::type_complexity)]
    fn sparse_blocks(
        m: &Matrix<f64>,
        keep: &[usize],
    ) -> (
        Matrix<f64>,
        Vec<Vec<(usize, f64)>>,
        Vec<f64>,
        Vec<(usize, usize, f64)>,
    ) {
        let elim: Vec<usize> = (0..m.nrows()).filter(|i| !keep.contains(i)).collect();
        let m_ke = keep
            .iter()
            .map(|&i| {
                elim.iter()
                    .enumerate()
                    .filter(|&(_, &j)| m[(i, j)] != 0.0)
                    .map(|(q, &j)| (q, m[(i, j)]))
                    .collect()
            })
            .collect();
        let diag = elim.iter().map(|&i| m[(i, i)]).collect();
        let mut off = Vec::new();
        for (p, &i) in elim.iter().enumerate() {
            for (q, &j) in elim.iter().enumerate().skip(p + 1) {
                if m[(i, j)] != 0.0 {
                    off.push((p, q, m[(i, j)]));
                }
            }
        }
        (m.submatrix(keep, keep), m_ke, diag, off)
    }

    #[test]
    fn sparse_form_matches_dense_reduction_entrywise() {
        // Grounding decays far couplings by orders of magnitude; the
        // direct factorization must resolve each entry, not just the norm.
        let m = grounded_grid(7, 6, 4.0);
        let keep: Vec<usize> = (0..m.nrows()).filter(|i| i % 5 == 0).collect();
        let dense = kron_reduce(&m, &keep).unwrap();
        let (m_kk, m_ke, diag, off) = sparse_blocks(&m, &keep);
        let sparse = kron_reduce_sparse(&m_kk, &m_ke, &diag, &off).unwrap();
        let mut smallest = f64::INFINITY;
        for i in 0..keep.len() {
            for j in 0..keep.len() {
                let d = dense[(i, j)];
                smallest = smallest.min(d.abs());
                assert!(
                    (sparse[(i, j)] - d).abs() <= 1e-12 * d.abs(),
                    "({i}, {j}): {} vs {d}",
                    sparse[(i, j)]
                );
                assert_eq!(sparse[(i, j)].to_bits(), sparse[(j, i)].to_bits());
            }
        }
        assert!(smallest < 1e-4 * dense.max_abs(), "test needs tiny entries");
    }

    #[test]
    fn sparse_form_with_empty_elimination_is_kept_block() {
        let m = chain_laplacian(3, 1.0);
        let r = kron_reduce_sparse(&m, &[Vec::new(), Vec::new(), Vec::new()], &[], &[]).unwrap();
        assert_eq!(r, m);
    }

    #[test]
    fn sparse_form_rejects_floating_island() {
        // Nodes 0 — 1 kept/eliminated; 2 — 3 an eliminated island.
        let mut m = chain_laplacian(4, 1.0);
        for (i, j) in [(1, 2), (2, 1)] {
            m[(i, j)] = 0.0;
        }
        m[(1, 1)] = 1.0;
        m[(2, 2)] = 1.0;
        let (m_kk, m_ke, diag, off) = sparse_blocks(&m, &[0]);
        match kron_reduce_sparse(&m_kk, &m_ke, &diag, &off) {
            Err(SolveMatrixError::Singular { .. }) => {}
            other => panic!("expected a singular eliminated block, got {other:?}"),
        }
    }

    #[test]
    fn envelope_cholesky_solves_like_dense() {
        let m = grounded_grid(5, 4, 0.1);
        let all: Vec<usize> = (0..m.nrows()).collect();
        let (_, _, diag, off) = sparse_blocks(&m, &[]);
        let f = EnvelopeCholesky::new(&diag, &off).unwrap();
        let b: Vec<f64> = all.iter().map(|&i| (i as f64 * 0.7).sin()).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let r = m.matvec(&x);
        for i in all {
            assert!((r[i] - b[i]).abs() < 1e-12, "row {i}: {} vs {}", r[i], b[i]);
        }
    }

    /// A 4×3-cell plane mesh, its links, and the eliminated index of
    /// every cell when every third cell is kept.
    fn small_mesh() -> (pdn_geom::PlaneMesh, Vec<usize>, usize) {
        let mesh =
            pdn_geom::PlaneMesh::build(&pdn_geom::Polygon::rectangle(0.04, 0.03), 0.01).unwrap();
        let mut elim_pos = vec![usize::MAX; mesh.cell_count()];
        let mut e = 0;
        for (i, pos) in elim_pos.iter_mut().enumerate() {
            if i % 3 != 0 {
                *pos = e;
                e += 1;
            }
        }
        (mesh, elim_pos, e)
    }

    #[test]
    fn projector_is_orthogonal_onto_injection_free_currents() {
        let (mesh, elim_pos, e) = small_mesh();
        let links = mesh.links();
        let proj = EliminatedCellProjector::new(links, &elim_pos, e).unwrap();
        let u: Vec<f64> = (0..links.len()).map(|l| (l as f64 * 1.3).cos()).collect();
        let v: Vec<f64> = (0..links.len()).map(|l| (l as f64 * 0.4).sin()).collect();
        let (mut pu, mut pv) = (u.clone(), v.clone());
        proj.project(&mut pu);
        proj.project(&mut pv);
        // No net injection at any eliminated cell.
        let mut inj = vec![0.0; mesh.cell_count()];
        for (link, &x) in links.iter().zip(&pu) {
            inj[link.a] += x;
            inj[link.b] -= x;
        }
        for (i, &q) in inj.iter().enumerate() {
            if elim_pos[i] != usize::MAX {
                assert!(q.abs() < 1e-12, "cell {i} injects {q}");
            }
        }
        // Idempotent and symmetric.
        let mut ppu = pu.clone();
        proj.project(&mut ppu);
        for (a, b) in ppu.iter().zip(&pu) {
            assert!((a - b).abs() < 1e-12);
        }
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        assert!((dot(&pu, &v) - dot(&u, &pv)).abs() < 1e-12);
    }

    #[test]
    fn constrained_solves_give_the_schur_complement() {
        use pdn_num::cg::solve_spd_block;
        use pdn_num::JacobiPreconditioner;
        // Dense SPD link operator: diagonally dominant mutual couplings.
        let (mesh, elim_pos, e) = small_mesh();
        let links = mesh.links();
        let m = links.len();
        let l_op = Matrix::from_fn(m, m, |i, j| {
            if i == j {
                2.0 + 0.1 * i as f64
            } else {
                0.3 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let a = Matrix::from_fn(m, mesh.cell_count(), |l, c| {
            if links[l].a == c {
                1.0
            } else if links[l].b == c {
                -1.0
            } else {
                0.0
            }
        });
        // Reference: dense B = AᵀL⁻¹A, then Kron onto the kept cells.
        let keep: Vec<usize> = (0..mesh.cell_count())
            .filter(|&i| elim_pos[i] == usize::MAX)
            .collect();
        let b_full = a.transpose().matmul(
            &LuDecomposition::new(l_op.clone())
                .unwrap()
                .solve_matrix(&a)
                .unwrap(),
        );
        let reference = kron_reduce(&b_full, &keep).unwrap();
        // Constrained block CG on P·L·P, one column per kept cell.
        let proj = EliminatedCellProjector::new(links, &elim_pos, e).unwrap();
        let diag: Vec<f64> = (0..m).map(|i| l_op[(i, i)]).collect();
        let jacobi = JacobiPreconditioner::new(&diag).unwrap();
        let pc = proj.precondition(&jacobi);
        let apply = |cols: &[Vec<f64>]| -> Vec<Vec<f64>> {
            let mut out: Vec<Vec<f64>> = cols.iter().map(|c| l_op.matvec(c)).collect();
            proj.project_panel(&mut out);
            out
        };
        let rhs: Vec<Vec<f64>> = keep
            .iter()
            .map(|&c| {
                let mut col: Vec<f64> = (0..m).map(|l| a[(l, c)]).collect();
                proj.project(&mut col);
                col
            })
            .collect();
        let xs = solve_spd_block(m, &apply, &pc, &rhs, 1e-13, 10 * m).unwrap();
        for (j, x) in xs.iter().enumerate() {
            for (i, &c) in keep.iter().enumerate() {
                let v: f64 = (0..m).map(|l| a[(l, c)] * x[l]).sum();
                assert!(
                    (v - reference[(i, j)]).abs() < 1e-10 * reference.max_abs(),
                    "({i}, {j}): {v} vs {}",
                    reference[(i, j)]
                );
            }
        }
    }
}
