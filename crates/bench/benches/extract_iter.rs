//! Block-CG compressed extraction on the SSN-study board, against the
//! retired scalar-CG route as an inlined old-code baseline.
//!
//! The library's compressed path solves right-hand sides in panels by
//! block CG under hierarchical block-Jacobi preconditioners: one
//! constrained `L` solve per kept node for the reduced `B`, one `P`
//! solve per kept node for `C`, and a direct sparse reduction of `G`.
//! Its baseline is the per-column scalar Jacobi-CG route the library
//! used to ship (one `L` solve per cell, dense kept/eliminated blocks,
//! LU Kron reduction): that route is no longer in the library, so this
//! file keeps a **bench-local copy** of it (the "Bench-local baseline"
//! section below), built only on the compressed kernels' public
//! `matvec` and `diag()`, with the same arithmetic as the removed code:
//!
//! * at ~4.5k cells the **full macromodel extraction** runs through
//!   both routes, head to head;
//! * at ~17.9k cells the full scalar route is infeasible on the bench
//!   budget (its dense `B_ee` alone is ~2.2 GB at stride 4), so the two
//!   CG drivers solve the **same 256-column sample** of plain
//!   `B = AᵀL⁻¹A` column solves — the scalar route's dominant cost —
//!   and both totals are extrapolated per column (labelled in the JSON;
//!   everything outside the sampled L-solves is excluded from both
//!   sides). This compares the solvers column for column; the library
//!   route solves only the kept columns, so its full-route advantage is
//!   larger than the sample shows.
//!
//! Acceptance bar (the `docs/COMPRESSION.md` contract): at both sizes
//! the block route must be ≥ 2× faster wall-clock with strictly fewer
//! kernel matvecs, and at 4.5k the two routes' port-impedance sweeps
//! must agree well inside the certified tolerance. A machine-readable
//! summary is written to `BENCH_extract.json` in the crate directory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdn_bem::{kernel_matvec_count, BLOCK_CG_COARSEN, BLOCK_CG_PANEL};
use pdn_core::prelude::*;
use pdn_extract::EquivalentCircuit;
use pdn_num::cg::cg_iteration_count;
use pdn_num::{parallel, JacobiPreconditioner, LuDecomposition, Preconditioner};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const TOL: f64 = 1e-6;
const SAMPLE_COLS: usize = 256;
fn board_mesh(cell: f64) -> PlaneMesh {
    let mut mesh =
        PlaneMesh::build(&Polygon::rectangle(inch(10.0), inch(7.0)), cell).expect("meshable");
    mesh.bind_port("VRM", Point::new(inch(0.5), inch(0.5)))
        .expect("bindable");
    mesh.bind_port("U1", Point::new(inch(5.0), inch(3.5)))
        .expect("bindable");
    mesh
}

fn pair() -> PlanePair {
    PlanePair::new(mil(30.0), 4.5).expect("valid pair")
}

fn zs() -> SurfaceImpedance {
    SurfaceImpedance::from_sheet_resistance(2.0 * 0.6e-3)
}

fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(run());
    (t0.elapsed().as_secs_f64(), out)
}

/// Process high-water-mark RSS in bytes (Linux), `None` elsewhere.
fn vm_hwm_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Worst relative port-impedance deviation between two macromodels over
/// the bench frequency grid.
fn sweep_deviation(a: &EquivalentCircuit, b: &EquivalentCircuit) -> f64 {
    let freqs: Vec<f64> = (1..=8).map(|k| k as f64 * 12.5e6).collect();
    let za = a.impedance_sweep(&freqs).expect("solvable");
    let zb = b.impedance_sweep(&freqs).expect("solvable");
    let mut dev = 0.0f64;
    for (ma, mb) in za.iter().zip(&zb) {
        let scale = ma.max_abs();
        for i in 0..ma.nrows() {
            for j in 0..ma.ncols() {
                dev = dev.max((ma[(i, j)] - mb[(i, j)]).norm() / scale);
            }
        }
    }
    dev
}

/// The signed link-incidence column of cell `j` (the RHS of one
/// `B = AᵀL⁻¹A` column solve).
fn a_column(links: &[pdn_geom::Link], m: usize, j: usize) -> Vec<f64> {
    let mut a_col = vec![0.0; m];
    for (l, link) in links.iter().enumerate() {
        if link.a == j {
            a_col[l] += 1.0;
        }
        if link.b == j {
            a_col[l] -= 1.0;
        }
    }
    a_col
}

struct RouteCost {
    seconds: f64,
    matvecs: usize,
    iters: usize,
    extrapolated: bool,
}

fn extract_iter_bench(c: &mut Criterion) {
    let p = pair();
    let z = zs();
    let opts = BemOptions::default().with_compression(CompressionSpec::with_tol(TOL));

    println!(
        "--- block-CG vs scalar-CG compressed extraction: 10x7 in plane, tol = {TOL:.0e} \
         (target >= 2x) ---"
    );
    let mut json = String::from("[\n");

    // --- Full head-to-head extraction at ~4.5k cells --------------------
    // 0.125 in pitch → 80x56 = 4480 cells; stride-2 macromodel.
    {
        let mesh = board_mesh(inch(0.125));
        let (n, m) = (mesh.cell_count(), mesh.link_count());
        let stride = 2usize;
        let sel = NodeSelection::PortsAndGrid { stride };

        // One assembly serves both routes (the kernels are
        // solver-agnostic). Block route first so the RSS high-water mark
        // reflects its peak (and not the scalar route's dense blocks).
        let sys = BemSystem::assemble(mesh, &p, &z, &opts).expect("assemblable");
        let (mv0, it0) = (kernel_matvec_count(), cg_iteration_count());
        let (t_block, (eq_block, keep)) =
            timed(|| EquivalentCircuit::from_bem_detailed(&sys, &sel).expect("extractable"));
        let mv_block = kernel_matvec_count() - mv0;
        let it_block = cg_iteration_count() - it0;
        let peak_block = vm_hwm_bytes();

        let (mv1, it1) = (kernel_matvec_count(), scalar_iteration_count());
        let (t_scalar, eq_scalar) = timed(|| scalar_extract(&sys, &keep, &eq_block));
        let mv_scalar = kernel_matvec_count() - mv1;
        let it_scalar = scalar_iteration_count() - it1;
        drop(sys);
        let dev = sweep_deviation(&eq_block, &eq_scalar);

        report(
            &mut json,
            n,
            m,
            stride,
            "full",
            &RouteCost {
                seconds: t_block,
                matvecs: mv_block,
                iters: it_block,
                extrapolated: false,
            },
            &RouteCost {
                seconds: t_scalar,
                matvecs: mv_scalar,
                iters: it_scalar,
                extrapolated: false,
            },
            peak_block,
            Some(dev),
        );
        assert!(dev <= 1e-4, "block-vs-scalar sweep deviation {dev:.3e}");
    }

    // --- Same-sample L-solve comparison at ~17.9k cells ------------------
    // 0.0625 in pitch → 160x112 = 17920 cells. One assembly serves both
    // routes (the kernels are solver-agnostic); both routes solve the
    // same 256 tree-ordered B columns and are extrapolated per column.
    {
        let mesh = board_mesh(inch(0.0625));
        let (n, m) = (mesh.cell_count(), mesh.link_count());
        let stride = 4usize;
        let links = mesh.links().to_vec();
        let sys = BemSystem::assemble(mesh, &p, &z, &opts).expect("assemblable");
        let ck = sys.compressed().expect("compressed system");
        let cg_tol = (TOL * 1e-2).max(1e-14);
        let max_iter = 10 * m.max(10) + 100;

        // A geometrically coherent tree-ordered sample — exactly the
        // panel order the block extraction uses.
        let cols: Vec<usize> =
            ck.p.leaf_clusters(false)
                .into_iter()
                .flatten()
                .take(SAMPLE_COLS)
                .collect();
        assert_eq!(cols.len(), SAMPLE_COLS);
        let scale = n as f64 / cols.len() as f64;

        // Block route: hierarchical preconditioner, panels of `BLOCK_CG_PANEL`.
        let l_pc = ck.l.block_jacobi(BLOCK_CG_COARSEN).expect("preconditioner");
        let (mv0, it0) = (kernel_matvec_count(), cg_iteration_count());
        let (t_block, ()) = timed(|| {
            for chunk in cols.chunks(BLOCK_CG_PANEL) {
                let rhs: Vec<Vec<f64>> = chunk.iter().map(|&j| a_column(&links, m, j)).collect();
                black_box(
                    ck.l.solve_block(&rhs, &l_pc, cg_tol, max_iter)
                        .expect("solvable"),
                );
            }
        });
        let mv_block = kernel_matvec_count() - mv0;
        let it_block = cg_iteration_count() - it0;
        let peak_block = vm_hwm_bytes();

        // Scalar route: the same columns, one Jacobi-CG solve each.
        let (mv1, it1) = (kernel_matvec_count(), scalar_iteration_count());
        let (t_scalar, ()) = timed(|| {
            for &j in &cols {
                let a_col = a_column(&links, m, j);
                black_box(scalar_cg(
                    &|x| ck.l.matvec(x),
                    ck.l.diag(),
                    &a_col,
                    cg_tol,
                    max_iter,
                ));
            }
        });
        let mv_scalar = kernel_matvec_count() - mv1;
        let it_scalar = scalar_iteration_count() - it1;

        report(
            &mut json,
            n,
            m,
            stride,
            "sampled-L-solves",
            &RouteCost {
                seconds: t_block * scale,
                matvecs: (mv_block as f64 * scale) as usize,
                iters: (it_block as f64 * scale) as usize,
                extrapolated: true,
            },
            &RouteCost {
                seconds: t_scalar * scale,
                matvecs: (mv_scalar as f64 * scale) as usize,
                iters: (it_scalar as f64 * scale) as usize,
                extrapolated: true,
            },
            peak_block,
            None,
        );
    }

    json.truncate(json.trim_end().trim_end_matches(',').len());
    json.push_str("\n]\n");
    std::fs::write("BENCH_extract.json", json).expect("writable BENCH_extract.json");

    // Criterion timings at the 1120-cell size, where both routes run in
    // seconds.
    let mesh = board_mesh(inch(0.25));
    let sel = NodeSelection::PortsAndGrid { stride: 2 };
    let sys = BemSystem::assemble(mesh, &p, &z, &opts).expect("assemblable");
    let (eq_ref, keep) = EquivalentCircuit::from_bem_detailed(&sys, &sel).expect("extractable");
    let mut g = c.benchmark_group("extract_iter");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("extract", "scalar"), &(), |b, ()| {
        b.iter(|| scalar_extract(black_box(&sys), &keep, &eq_ref));
    });
    g.bench_with_input(BenchmarkId::new("extract", "block"), &(), |b, ()| {
        b.iter(|| EquivalentCircuit::from_bem(black_box(&sys), &sel).expect("extractable"));
    });
    g.finish();
}

/// Prints one comparison line, appends the JSON record, and asserts the
/// speedup and matvec bars.
#[allow(clippy::too_many_arguments)]
fn report(
    json: &mut String,
    n: usize,
    m: usize,
    stride: usize,
    measured: &str,
    block: &RouteCost,
    scalar: &RouteCost,
    peak_block: Option<usize>,
    dev: Option<f64>,
) {
    let speedup = scalar.seconds / block.seconds;
    println!(
        "  n={n:6} m={m:6} stride={stride} [{measured}]: block {:8.1} ms / {:8} matvecs / \
         {:6} iters vs scalar {:8.1} ms / {:8} matvecs / {:6} iters ({speedup:4.1}x){}{}{}",
        block.seconds * 1e3,
        block.matvecs,
        block.iters,
        scalar.seconds * 1e3,
        scalar.matvecs,
        scalar.iters,
        if block.extrapolated {
            " [extrapolated]"
        } else {
            ""
        },
        peak_block.map_or(String::new(), |b| format!(
            ", block peak RSS {:6.1} MB",
            b as f64 / 1e6
        )),
        dev.map_or(String::new(), |d| format!(", sweep deviation {d:.2e}")),
    );
    writeln!(
        json,
        "  {{\"cells\": {n}, \"links\": {m}, \"stride\": {stride}, \"tol\": {TOL:e}, \
         \"measured\": \"{measured}\", \
         \"block_seconds\": {:.6}, \"block_matvecs\": {}, \"block_iters\": {}, \
         \"block_extrapolated\": {}, \
         \"scalar_seconds\": {:.6}, \"scalar_matvecs\": {}, \"scalar_iters\": {}, \
         \"scalar_extrapolated\": {}, \
         \"speedup\": {speedup:.2}, \"block_peak_rss_bytes\": {}, \"sweep_deviation\": {}}},",
        block.seconds,
        block.matvecs,
        block.iters,
        block.extrapolated,
        scalar.seconds,
        scalar.matvecs,
        scalar.iters,
        scalar.extrapolated,
        peak_block.map_or("null".to_string(), |b| b.to_string()),
        dev.map_or("null".to_string(), |d| format!("{d:.3e}")),
    )
    .unwrap();
    assert!(
        speedup >= 2.0,
        "n={n}: block-CG extraction speedup {speedup:.2}x below the 2x bar"
    );
    assert!(
        block.matvecs < scalar.matvecs,
        "n={n}: block route used {} kernel matvecs, scalar {} — must be strictly fewer",
        block.matvecs,
        scalar.matvecs
    );
}

// ---------------------------------------------------------------------------
// Bench-local baseline: the retired scalar Jacobi-CG compressed route.
// Everything below reproduces the removed library code's arithmetic on
// the compressed kernels' public `matvec`/`diag()`.
// ---------------------------------------------------------------------------

/// Iterations of the bench-local scalar CG (the library's
/// `cg_iteration_count` only counts library solves).
static SCALAR_ITERS: AtomicUsize = AtomicUsize::new(0);

fn scalar_iteration_count() -> usize {
    SCALAR_ITERS.load(Ordering::Relaxed)
}

/// Jacobi-preconditioned scalar CG on an SPD operator given by `apply`
/// and its diagonal: stops at residual `tol · ‖b‖`.
///
/// # Panics
///
/// On a non-positive diagonal, breakdown, or `max_iter` exhausted.
fn scalar_cg(
    apply: &dyn Fn(&[f64]) -> Vec<f64>,
    diag: &[f64],
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Vec<f64> {
    let n = b.len();
    let pc = JacobiPreconditioner::new(diag).expect("positive diagonal");
    let b_norm = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if b_norm == 0.0 {
        return vec![0.0; n];
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    pc.apply_into(&r, &mut z);
    let mut p = z.clone();
    let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
    for _ in 0..max_iter {
        SCALAR_ITERS.fetch_add(1, Ordering::Relaxed);
        let ap = apply(&p);
        let p_ap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        assert!(p_ap > 0.0, "scalar CG breakdown: operator is not SPD");
        let alpha = rz / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let r_norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if r_norm <= tol * b_norm {
            return x;
        }
        pc.apply_into(&r, &mut z);
        let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    panic!("scalar CG did not converge in {max_iter} iterations");
}

/// `M_kk − M_ke · M_ee⁻¹ · M_keᵀ` from dense blocks by LU.
fn kron_reduce_blocks(m_kk: &Matrix<f64>, m_ke: &Matrix<f64>, m_ee: Matrix<f64>) -> Matrix<f64> {
    if m_ee.nrows() == 0 {
        return m_kk.clone();
    }
    let m_ek = m_ke.transpose();
    let lu = LuDecomposition::new(m_ee).expect("non-singular eliminated block");
    let x = lu.solve_matrix(&m_ek).expect("solvable");
    let correction = m_ke.matmul(&x);
    m_kk - &correction
}

/// Nearest retained node (same net) of every cell — the capacitance
/// aggregation clusters of the extraction.
fn capacitance_clusters(mesh: &PlaneMesh, keep: &[usize]) -> Vec<usize> {
    (0..mesh.cell_count())
        .map(|i| {
            let ci = mesh.cell_center(i);
            let net = mesh.cell_net(i);
            keep.iter()
                .enumerate()
                .filter(|&(_, &kcell)| mesh.cell_net(kcell) == net)
                .min_by(|a, b| {
                    let da = mesh.cell_center(*a.1).distance_sq(ci);
                    let db = mesh.cell_center(*b.1).distance_sq(ci);
                    da.partial_cmp(&db).expect("finite distances")
                })
                .map(|(pos, _)| pos)
                .expect("every net keeps a node")
        })
        .collect()
}

/// Symmetrizes the square matrix `a` in place by averaging mirrored
/// entries.
fn symmetrize(a: &mut Matrix<f64>) {
    for i in 0..a.nrows() {
        for j in (i + 1)..a.ncols() {
            let v = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
}

/// The retired scalar compressed extraction over the kept cells `keep`:
/// one Jacobi-CG solve per `B = AᵀL⁻¹A` column and per capacitance
/// cluster, fanned across workers in index-ordered batches; `B` and `G`
/// assembled in dense kept/eliminated blocks and reduced by LU. Node
/// names and ports are taken from `like` (an extraction over the same
/// `keep`).
fn scalar_extract(sys: &BemSystem, keep: &[usize], like: &EquivalentCircuit) -> EquivalentCircuit {
    let ck = sys.compressed().expect("compressed system");
    let mesh = sys.mesh();
    let n = mesh.cell_count();
    let links = mesh.links();
    let m = links.len();
    let k = keep.len();
    let cg_tol = (ck.spec.tol * 1e-2).max(1e-14);
    let max_iter_l = 10 * m.max(10) + 100;
    let max_iter_p = 10 * n.max(10) + 100;

    let mut kept_pos = vec![usize::MAX; n];
    for (p, &cell) in keep.iter().enumerate() {
        kept_pos[cell] = p;
    }
    let elim: Vec<usize> = (0..n).filter(|&i| kept_pos[i] == usize::MAX).collect();
    let mut elim_pos = vec![usize::MAX; n];
    for (p, &cell) in elim.iter().enumerate() {
        elim_pos[cell] = p;
    }
    let e = elim.len();

    // B = AᵀL⁻¹A, one compressed-L solve per cell column, scattered
    // straight into the kept/eliminated blocks.
    let mut b_kk = Matrix::zeros(k, k);
    let mut b_ke = Matrix::zeros(k, e);
    let mut b_ek = Matrix::zeros(e, k);
    let mut b_ee = Matrix::zeros(e, e);
    let batch = (parallel::worker_count() * 4).max(16);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + batch).min(n);
        let cols: Vec<Vec<f64>> = parallel::par_map_indexed(j1 - j0, |t| {
            let a_col = a_column(links, m, j0 + t);
            let x = scalar_cg(&|v| ck.l.matvec(v), ck.l.diag(), &a_col, cg_tol, max_iter_l);
            let mut y = vec![0.0; n];
            for (l, link) in links.iter().enumerate() {
                y[link.a] += x[l];
                y[link.b] -= x[l];
            }
            y
        });
        for (t, y) in cols.iter().enumerate() {
            let j = j0 + t;
            let jk = kept_pos[j];
            for (i, &v) in y.iter().enumerate() {
                match (kept_pos[i], jk) {
                    (ik, jk) if ik != usize::MAX && jk != usize::MAX => b_kk[(ik, jk)] = v,
                    (ik, _) if ik != usize::MAX => b_ke[(ik, elim_pos[j])] = v,
                    (_, jk) if jk != usize::MAX => b_ek[(elim_pos[i], jk)] = v,
                    _ => b_ee[(elim_pos[i], elim_pos[j])] = v,
                }
            }
        }
        j0 = j1;
    }
    symmetrize(&mut b_kk);
    symmetrize(&mut b_ee);
    for a in 0..k {
        for bcol in 0..e {
            b_ke[(a, bcol)] = 0.5 * (b_ke[(a, bcol)] + b_ek[(bcol, a)]);
        }
    }
    drop(b_ek);
    let b = kron_reduce_blocks(&b_kk, &b_ke, b_ee);
    drop(b_kk);
    drop(b_ke);

    // G: the sparse DC Laplacian stamped directly into blocks.
    let mut g_kk = Matrix::zeros(k, k);
    let mut g_ke = Matrix::zeros(k, e);
    let mut g_ee = Matrix::zeros(e, e);
    let mut has_g = false;
    {
        let mut stamp = |i: usize, j: usize, v: f64| match (kept_pos[i], kept_pos[j]) {
            (ik, jk) if ik != usize::MAX && jk != usize::MAX => g_kk[(ik, jk)] += v,
            (ik, _) if ik != usize::MAX => g_ke[(ik, elim_pos[j])] += v,
            (_, jk) if jk != usize::MAX => {} // transpose of a (keep, elim) stamp
            _ => g_ee[(elim_pos[i], elim_pos[j])] += v,
        };
        for (l, link) in links.iter().enumerate() {
            let r = sys.link_resistances()[l];
            if r > 0.0 {
                has_g = true;
                let g = 1.0 / r;
                stamp(link.a, link.a, g);
                stamp(link.b, link.b, g);
                stamp(link.a, link.b, -g);
                stamp(link.b, link.a, -g);
            }
        }
    }
    let g = if has_g {
        kron_reduce_blocks(&g_kk, &g_ke, g_ee)
    } else {
        Matrix::zeros(k, k)
    };

    // C = Sᵀ P⁻¹ S, one compressed-P solve per retained node.
    let cluster = capacitance_clusters(mesh, keep);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &cl) in cluster.iter().enumerate() {
        members[cl].push(i);
    }
    let c_cols: Vec<Vec<f64>> = parallel::par_map_indexed(k, |q| {
        let mut s = vec![0.0; n];
        for &i in &members[q] {
            s[i] = 1.0;
        }
        let z = scalar_cg(&|v| ck.p.matvec(v), ck.p.diag(), &s, cg_tol, max_iter_p);
        (0..k)
            .map(|r| members[r].iter().map(|&i| z[i]).sum::<f64>())
            .collect()
    });
    let mut c = Matrix::zeros(k, k);
    for (q, col) in c_cols.iter().enumerate() {
        for r in 0..k {
            c[(r, q)] = col[r];
        }
    }
    symmetrize(&mut c);

    let ports = (0..like.port_count()).map(|p| like.port_node(p)).collect();
    EquivalentCircuit::from_parts(
        like.node_names().to_vec(),
        ports,
        b,
        g,
        c,
        sys.pair().loss_tangent,
    )
    .expect("consistent macromodel")
}

criterion_group!(benches, extract_iter_bench);
criterion_main!(benches);
