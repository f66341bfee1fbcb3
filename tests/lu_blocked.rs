//! Thread-count invariance and tail-lane coverage for the blocked LU.
//!
//! The blocked factorization fans its trailing GEMM update over
//! `pdn_num::parallel` row tiles; tile boundaries are fixed constants, so
//! factors, solves, inverses, and determinants must be **bit-identical**
//! for every `PDN_THREADS`. These tests pin the thread count to 1, 2, and
//! the machine's available parallelism and `assert_eq!` raw bits.
//!
//! The odd-sized systems double as the tier-1 smoke test of the
//! microkernel's zero-held tail lanes: `cargo test` keeps
//! `debug_assertions` on, so the operand-shape checks inside
//! `pdn_num::gemm` fire on every tile, including ragged row tiles and
//! partial lane groups.

use pdn_num::{c64, CholeskyDecomposition, LuDecomposition, Matrix};

mod common;
use common::with_thread_counts;

fn rng_f64(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

fn real_system(n: usize, seed: u64) -> Matrix<f64> {
    let mut s = seed | 1;
    Matrix::from_fn(n, n, |i, j| {
        rng_f64(&mut s) + if i == j { 5.0 } else { 0.0 }
    })
}

fn complex_system(n: usize, seed: u64) -> Matrix<c64> {
    let mut s = seed | 1;
    Matrix::from_fn(n, n, |i, j| {
        let d = if i == j { 5.0 } else { 0.0 };
        c64::new(rng_f64(&mut s) + d, rng_f64(&mut s))
    })
}

#[test]
fn real_factor_solve_inverse_thread_count_invariant() {
    // 201 is odd and spans four panels: ragged panel, ragged row tiles,
    // and partial lane groups all get exercised.
    let n = 201;
    let a = real_system(n, 0xBEEF);
    let b: Vec<f64> = {
        let mut s = 7u64;
        (0..n).map(|_| rng_f64(&mut s)).collect()
    };
    let bm = Matrix::from_fn(n, 5, |i, j| (i as f64 * 0.37 - j as f64).sin());

    let mut x_ref: Option<Vec<f64>> = None;
    let mut xm_ref: Option<Vec<u64>> = None;
    let mut inv_ref: Option<Vec<u64>> = None;
    let mut det_ref: Option<u64> = None;
    with_thread_counts(|workers| {
        let lu = LuDecomposition::new(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        let xm = lu.solve_matrix(&bm).unwrap();
        let inv = lu.inverse().unwrap();
        let det = lu.det();
        let xm_bits: Vec<u64> = xm.as_slice().iter().map(|v| v.to_bits()).collect();
        let inv_bits: Vec<u64> = inv.as_slice().iter().map(|v| v.to_bits()).collect();
        match (&x_ref, &xm_ref, &inv_ref, det_ref) {
            (None, ..) => {
                x_ref = Some(x);
                xm_ref = Some(xm_bits);
                inv_ref = Some(inv_bits);
                det_ref = Some(det.to_bits());
            }
            (Some(xr), Some(xmr), Some(invr), Some(detr)) => {
                assert_eq!(&x, xr, "solve, {workers} workers");
                assert_eq!(&xm_bits, xmr, "solve_matrix, {workers} workers");
                assert_eq!(&inv_bits, invr, "inverse, {workers} workers");
                assert_eq!(det.to_bits(), detr, "det, {workers} workers");
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn complex_factor_solve_thread_count_invariant() {
    let n = 163;
    let a = complex_system(n, 0xF00D);
    let bm = Matrix::from_fn(n, 7, |i, j| {
        c64::new((i as f64 + 1.0).ln(), 0.1 * j as f64 - 0.3)
    });
    let mut ref_bits: Option<Vec<(u64, u64)>> = None;
    let mut det_ref: Option<(u64, u64)> = None;
    with_thread_counts(|workers| {
        let lu = LuDecomposition::new(a.clone()).unwrap();
        let xm = lu.solve_matrix(&bm).unwrap();
        let det = lu.det();
        let bits: Vec<(u64, u64)> = xm
            .as_slice()
            .iter()
            .map(|v| (v.re.to_bits(), v.im.to_bits()))
            .collect();
        let det_bits = (det.re.to_bits(), det.im.to_bits());
        match (&ref_bits, det_ref) {
            (None, _) => {
                ref_bits = Some(bits);
                det_ref = Some(det_bits);
            }
            (Some(r), Some(d)) => {
                assert_eq!(&bits, r, "complex solve_matrix, {workers} workers");
                assert_eq!(det_bits, d, "complex det, {workers} workers");
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn cholesky_factor_thread_count_invariant() {
    // SPD matrix spanning several panels so the blocked trailing update
    // (and its parallel fan) is actually exercised.
    let n = 170;
    let m = real_system(n, 0xCAFE);
    let mut a = m.transpose().matmul(&m);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    // Odd right-hand-side count: ragged lane group in the forward solve
    // and the Gram product, several row tiles in both.
    let rhs = Matrix::from_fn(n, 77, |i, j| ((i * 3 + j * 5) as f64 * 0.013).sin());
    let bits = |m: &Matrix<f64>| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    let mut ref_bits: Option<[Vec<u64>; 3]> = None;
    with_thread_counts(|workers| {
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let mut y = rhs.clone();
        ch.solve_lower_in_place(&mut y).unwrap();
        let g = pdn_num::gram(&y);
        let got = [bits(ch.l()), bits(&y), bits(&g)];
        match &ref_bits {
            None => ref_bits = Some(got),
            Some(r) => {
                assert_eq!(got[0], r[0], "cholesky, {workers} workers");
                assert_eq!(got[1], r[1], "forward solve, {workers} workers");
                assert_eq!(got[2], r[2], "gram, {workers} workers");
            }
        }
    });
}

#[test]
fn tail_lane_smoke_odd_shapes() {
    // Deliberately awkward shapes: every dimension leaves a partial lane
    // group and a ragged row tile. With debug assertions on (the tier-1
    // profile), the microkernel's operand checks run on every tile.
    for &(n, nrhs) in &[(65usize, 5usize), (97, 3), (129, 11), (66, 1)] {
        let a = real_system(n, n as u64);
        let lu = LuDecomposition::new(a.clone()).unwrap();
        let b = Matrix::from_fn(n, nrhs, |i, j| ((i + 2 * j) as f64 * 0.11).cos());
        let x = lu.solve_matrix(&b).unwrap();
        let back = a.matmul(&x);
        for i in 0..n {
            for j in 0..nrhs {
                assert!(
                    (back[(i, j)] - b[(i, j)]).abs() < 1e-8,
                    "n={n} nrhs={nrhs} ({i},{j})"
                );
            }
        }
        let c = complex_system(n, (n + 1) as u64);
        let clu = LuDecomposition::new(c.clone()).unwrap();
        let cb = Matrix::from_fn(n, nrhs, |i, j| c64::new(0.2 * i as f64, -0.1 * j as f64));
        let cx = clu.solve_matrix(&cb).unwrap();
        let cback = c.matmul(&cx);
        for i in 0..n {
            for j in 0..nrhs {
                assert!(
                    (cback[(i, j)] - cb[(i, j)]).norm() < 1e-8,
                    "c64 n={n} nrhs={nrhs} ({i},{j})"
                );
            }
        }
    }
}
