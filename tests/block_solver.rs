//! Block-CG iterative extraction with hierarchical preconditioning.
//!
//! Three angles:
//!
//! * property-based agreement — over random SPD operators and
//!   right-hand-side panels, [`pdn_num::cg::solve_spd_block`] must agree
//!   with a direct Cholesky solve to the solver tolerance;
//! * preconditioner quality — on an ill-conditioned fine-mesh plane
//!   kernel, the hierarchical block-Jacobi preconditioner built from the
//!   ACA cluster tree must converge in strictly fewer CG iterations than
//!   the plain Jacobi diagonal;
//! * bit-identity across `PDN_THREADS` — the full block-solver
//!   extraction pipeline (panelled constrained block solves for `B`,
//!   direct sparse reduction of `G`) fans columns in fixed index order,
//!   so the macromodel sweep must not depend on the worker count.

use pdn::bem::assemble_compressed;
use pdn::prelude::*;
use pdn_greens::SurfaceImpedance as Zs;
use pdn_num::cg::solve_spd_block;
use pdn_num::{CholeskyDecomposition, JacobiPreconditioner, Matrix};
use proptest::prelude::*;
use std::cell::Cell;

mod common;
use common::with_thread_counts;

/// Deterministic SPD matrix `MᵀM + δ·I` seeded from proptest inputs.
fn random_spd(n: usize, seed: u64, delta: f64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut next = || {
        // LCG; the constants are the usual Knuth MMIX pair.
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let m = Matrix::from_fn(n, n, |_, _| next());
    let mut s = m.transpose().matmul(&m);
    for i in 0..n {
        s[(i, i)] += delta;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Block CG (Jacobi preconditioner) against a direct Cholesky solve
    /// on random SPD operators: the block iterate sits within `tol` of
    /// the true solution in the operator norm sense, so the two agree to
    /// that tolerance.
    #[test]
    fn block_cg_agrees_with_dense_cholesky(
        n in 4usize..24,
        rhs in 1usize..6,
        seed in any::<u64>(),
        delta_exp in 0u32..3,
    ) {
        let delta = 10f64.powi(delta_exp as i32);
        let a = random_spd(n, seed, delta);
        let tol = 1e-11;
        let max_iter = 20 * n + 200;
        let b: Vec<Vec<f64>> = (0..rhs)
            .map(|c| (0..n).map(|i| ((i * 3 + c * 7 + 1) as f64).cos()).collect())
            .collect();
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let pc = JacobiPreconditioner::new(&diag).unwrap();
        let apply = |cols: &[Vec<f64>]| -> Vec<Vec<f64>> {
            cols.iter().map(|c| a.matvec(c)).collect()
        };
        let xs = solve_spd_block(n, &apply, &pc, &b, tol, max_iter).unwrap();
        let scale = (0..n).map(|i| a[(i, i)]).fold(0.0f64, f64::max);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        for (c, col) in b.iter().enumerate() {
            let x_ref = ch.solve(col).unwrap();
            for i in 0..n {
                let d = (xs[c][i] - x_ref[i]).abs();
                // The iterate sits within tol·‖b‖ residual of the exact
                // solution; its error is bounded by that (scaled) ball.
                prop_assert!(
                    d <= 1e-7 * (1.0 + x_ref[i].abs()) * (scale / delta).max(1.0),
                    "col {c} entry {i}: block {} vs direct {} (diff {d:.3e})",
                    xs[c][i],
                    x_ref[i]
                );
            }
        }
    }
}

#[test]
fn hierarchical_preconditioner_beats_jacobi_on_fine_mesh() {
    // Fine-pitch plane: the potential kernel's condition number grows
    // with refinement, which is exactly where the cluster-tree
    // block-Cholesky preconditioner pays off. Iterations of a one-column
    // block solve are counted by wrapping the operator application.
    let mut mesh =
        PlaneMesh::build(&Polygon::rectangle(mm(32.0), mm(14.0)), mm(0.8)).expect("meshable");
    mesh.bind_port("P1", Point::new(mm(8.0), mm(7.0)))
        .expect("bindable");
    let pair = PlanePair::new(0.3e-3, 4.5).unwrap();
    let zs = Zs::from_sheet_resistance(4e-3);
    let spec = CompressionSpec {
        leaf_size: 16,
        ..CompressionSpec::default()
    };
    let (ck, _) = assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
    let n = ck.p.len();
    let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
    let tol = 1e-10;
    let max_iter = 10 * n + 100;

    let run = |pc: &dyn pdn_num::Preconditioner| -> usize {
        let iters = Cell::new(0usize);
        let apply = |cols: &[Vec<f64>]| {
            iters.set(iters.get() + 1);
            ck.p.matvec_block(cols)
        };
        solve_spd_block(n, &apply, pc, std::slice::from_ref(&b), tol, max_iter).unwrap();
        iters.get()
    };

    let jacobi = JacobiPreconditioner::new(ck.p.diag()).unwrap();
    let hier = ck.p.block_jacobi(false).unwrap();
    let it_jacobi = run(&jacobi);
    let it_hier = run(&hier);
    assert!(
        it_hier < it_jacobi,
        "hierarchical {it_hier} iterations vs Jacobi {it_jacobi}: must be strictly fewer"
    );
}

#[test]
fn block_solver_extraction_is_thread_count_invariant() {
    // Full pipeline: compressed assembly → panelled block-CG extraction
    // with hierarchical preconditioners and constrained B solves → macromodel
    // sweep, bit-identical for any worker count.
    let spec = PlaneSpec::rectangle(mm(24.0), mm(12.0), 0.3e-3, 4.5)
        .unwrap()
        .with_sheet_resistance(3e-3)
        .with_cell_size(mm(1.0))
        .with_port("P1", mm(3.0), mm(6.0))
        .with_port("P2", mm(21.0), mm(6.0))
        .with_compression(CompressionSpec::default());
    let freqs: Vec<f64> = (1..=10).map(|k| k as f64 * 200e6).collect();
    let mut z_ref: Option<Vec<pdn_num::Matrix<pdn_num::c64>>> = None;
    with_thread_counts(|n| {
        let extracted = spec
            .clone()
            .extract(&NodeSelection::PortsAndGrid { stride: 3 })
            .unwrap();
        assert!(extracted.bem().is_compressed());
        let z = extracted.equivalent().impedance_sweep(&freqs).unwrap();
        match &z_ref {
            None => z_ref = Some(z),
            // Bit-identical: serial panels in fixed order, per-column
            // matvec fan-out, serial Schur chunks.
            Some(zr) => assert_eq!(&z, zr, "sweep with {n} workers"),
        }
    });
}

#[test]
fn block_extraction_tracks_dense_within_certified_tol() {
    // End-to-end accuracy gate: block-solver compressed extraction vs
    // the dense reference on the same plane, impedance sweep deviation
    // bounded by the certified compression tolerance with margin.
    let base = PlaneSpec::rectangle(mm(24.0), mm(12.0), 0.3e-3, 4.5)
        .unwrap()
        .with_sheet_resistance(3e-3)
        .with_cell_size(mm(1.0))
        .with_port("P1", mm(3.0), mm(6.0))
        .with_port("P2", mm(21.0), mm(6.0));
    let sel = NodeSelection::PortsAndGrid { stride: 3 };
    let dense = base.clone().extract(&sel).unwrap();
    let block = base
        .with_compression(CompressionSpec::default())
        .extract(&sel)
        .unwrap();
    let freqs: Vec<f64> = (1..=10).map(|k| k as f64 * 200e6).collect();
    let zd = dense.equivalent().impedance_sweep(&freqs).unwrap();
    let zb = block.equivalent().impedance_sweep(&freqs).unwrap();
    for (f, (a, b)) in freqs.iter().zip(zd.iter().zip(&zb)) {
        let scale = a.max_abs();
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let d = (a[(i, j)] - b[(i, j)]).norm();
                assert!(
                    d <= 1e-4 * scale,
                    "f={f}: ({i},{j}) rel deviation {:.3e}",
                    d / scale
                );
            }
        }
    }
}
