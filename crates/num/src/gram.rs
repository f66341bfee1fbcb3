//! Symmetric Gram product `G = YᵀY` of a dense real matrix.
//!
//! This is the closing step of every congruence `AᵀL⁻¹A` computed through
//! a Cholesky factor `L = Lc·Lcᵀ`: with `Y = Lc⁻¹A` from
//! [`CholeskyDecomposition::solve_lower_in_place`](crate::CholeskyDecomposition::solve_lower_in_place),
//! `AᵀL⁻¹A = YᵀY`. Only the lower triangle is computed; it is then
//! mirrored, so the result is exactly symmetric bit for bit.
//!
//! Every entry is a single accumulator summing `Y[k][i]·Y[k][j]` in
//! ascending `k` order — exactly the plain dot-product loop — however the
//! rows are tiled, the columns grouped into lanes, or the `k` range
//! chunked. Row tiles are fixed [`ROW_TILE`] constants fanned over
//! [`parallel`] workers, so the product is bit-identical for any
//! `PDN_THREADS`.

use crate::gemm::{LANES, ROW_TILE};
use crate::{parallel, Matrix};

/// `k`-chunk length: one staged `KC×LANES` slab of `Y` (16 KiB) stays in
/// L1 while every register block of the row tile streams over it.
const KC: usize = 256;

/// Rows per register block: `MR×LANES` accumulators fit the vector
/// register file.
const MR: usize = 4;

/// Minimum multiply-accumulate count before the row tiles are fanned out
/// over worker threads (same value as the factorizations).
const PAR_MIN_MACS: usize = 1 << 18;

/// Returns `YᵀY` for an `m×n` matrix `Y`.
///
/// # Examples
///
/// ```
/// use pdn_num::Matrix;
///
/// let y = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
/// let g = pdn_num::gram(&y);
/// assert_eq!(g, y.transpose().matmul(&y));
/// ```
pub fn gram(y: &Matrix<f64>) -> Matrix<f64> {
    let (m, n) = y.shape();
    let mut g = Matrix::zeros(n, n);
    if m == 0 || n == 0 {
        return g;
    }
    let yd = y.as_slice();
    let tile = |ci: usize, out: &mut [f64]| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected at runtime.
            unsafe { gram_tile_avx2(yd, m, n, ci * ROW_TILE, out) };
            return;
        }
        gram_tile_body(yd, m, n, ci * ROW_TILE, out);
    };
    let gd = g.as_mut_slice();
    if n * n * m / 2 >= PAR_MIN_MACS {
        parallel::par_for_each_chunk_mut(gd, ROW_TILE * n, tile);
    } else {
        for (ci, chunk) in gd.chunks_mut(ROW_TILE * n).enumerate() {
            tile(ci, chunk);
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            gd[i * n + j] = gd[j * n + i];
        }
    }
    g
}

/// Fills rows `i0..i0 + out.len()/n` of `YᵀY` at and left of the diagonal
/// (plus scratch right of it inside the diagonal lane groups, which the
/// mirror overwrites with identical values). `out` starts zeroed.
#[inline(always)]
fn gram_tile_body(y: &[f64], m: usize, n: usize, i0: usize, out: &mut [f64]) {
    let rows = out.len() / n;
    let i1 = i0 + rows;
    // This tile's Yᵀ rows for the current k-chunk, k-major, zero-held
    // past `rows`; and one staged lane group of Y. Lanes past `w` and rows
    // past `rows` only feed accumulators that are never stored.
    let mut pk = vec![0.0f64; KC * ROW_TILE];
    let mut ys = vec![[0.0f64; LANES]; KC];
    for k0 in (0..m).step_by(KC) {
        let kc = (m - k0).min(KC);
        for k in 0..kc {
            let src = &y[(k0 + k) * n + i0..(k0 + k) * n + i1];
            pk[k * ROW_TILE..k * ROW_TILE + rows].copy_from_slice(src);
        }
        for jb in (0..i1).step_by(LANES) {
            let w = (i1 - jb).min(LANES);
            for (k, lane) in ys[..kc].iter_mut().enumerate() {
                lane[..w].copy_from_slice(&y[(k0 + k) * n + jb..(k0 + k) * n + jb + w]);
            }
            for r0 in (0..rows).step_by(MR) {
                let rb = (rows - r0).min(MR);
                if jb >= i0 + r0 + rb {
                    // The whole lane group lies right of this block's diagonal.
                    continue;
                }
                // Accumulators resume from the partial sums of earlier
                // chunks, so each entry is one ascending-k running sum.
                let mut acc = [[0.0f64; LANES]; MR];
                for (r, a) in acc.iter_mut().enumerate().take(rb) {
                    a[..w].copy_from_slice(&out[(r0 + r) * n + jb..(r0 + r) * n + jb + w]);
                }
                for (k, yl) in ys[..kc].iter().enumerate() {
                    let p = &pk[k * ROW_TILE + r0..k * ROW_TILE + r0 + MR];
                    for r in 0..MR {
                        for q in 0..LANES {
                            acc[r][q] += p[r] * yl[q];
                        }
                    }
                }
                for (r, a) in acc.iter().enumerate().take(rb) {
                    out[(r0 + r) * n + jb..(r0 + r) * n + jb + w].copy_from_slice(&a[..w]);
                }
            }
        }
    }
}

/// The same body, compiled for 256-bit registers — bit-identical output
/// (`fma` is not enabled, so no contraction changes rounding).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gram_tile_avx2(y: &[f64], m: usize, n: usize, i0: usize, out: &mut [f64]) {
    gram_tile_body(y, m, n, i0, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_matrix(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn bit_identical_to_ascending_dot_products() {
        // Odd shapes: rows past one k-chunk, columns past one row tile and
        // off the lane width.
        for &(m, n) in &[(1, 1), (3, 5), (9, 33), (300, 37), (517, 70)] {
            let y = lcg_matrix(m, n, (m * 31 + n) as u64);
            let g = gram(&y);
            for i in 0..n {
                for j in 0..n {
                    let mut s = 0.0f64;
                    for k in 0..m {
                        s += y[(k, i)] * y[(k, j)];
                    }
                    assert_eq!(g[(i, j)].to_bits(), s.to_bits(), "{m}x{n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn empty_shapes() {
        assert_eq!(gram(&Matrix::zeros(0, 3)), Matrix::zeros(3, 3));
        assert_eq!(gram(&Matrix::zeros(4, 0)).shape(), (0, 0));
    }
}
