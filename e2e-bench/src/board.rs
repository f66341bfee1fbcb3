//! `board_1120`: the study-A plane (VRM + U1 ports, `PortsOnly`) extracted
//! twice from one mesh — the dense default route, whose column solves in
//! `EquivalentCircuit::from_bem` are the measured hotspot, and the
//! certified ACA + block-CG route that bypasses them.

use crate::adapter::{self, Res};
use crate::{layer_p50, passes, stats, timed_setup, trace, Ctx, Metric, Outcome};
use pdn_core::prelude::{inch, NodeSelection, PlaneMesh, PlaneSpec};
use std::time::Instant;

/// 0.25 in cells: 40 × 28 = 1120 cells on the 10 × 7 in plane.
const CELL_INCH: f64 = 0.25;
/// Kernel tolerance of the compressed route.
const ACA_TOL: f64 = 1e-6;
/// Largest relative port-impedance deviation the compressed model may
/// show against the dense one (the block-solver bound of `extract_iter`).
const Z_TOL: f64 = 1e-4;
/// The 8 comparison frequencies (Hz), through the first plane modes.
const FREQS: [f64; 8] = [10e6, 50e6, 100e6, 200e6, 300e6, 450e6, 600e6, 800e6];

struct Inputs {
    spec: PlaneSpec,
    mesh: PlaneMesh,
}

fn setup(seed: u64) -> Res<Inputs> {
    // The seed moves U1 by whole cells (−2…+2) along x.
    let shift = ((seed % 5) as f64 - 2.0) * inch(CELL_INCH);
    let spec = adapter::study_a_plane(CELL_INCH, shift)?;
    let mesh = adapter::mesh_plane(&spec)?;
    Ok(Inputs { spec, mesh })
}

#[derive(Default)]
struct Tally {
    dense_s: Vec<f64>,
    aca_s: Vec<f64>,
    bytes_dense: usize,
    bytes_aca: usize,
    matvecs: usize,
    cg_iterations: usize,
    worst_dev: f64,
    cells: usize,
}

fn one_pass(inp: &Inputs, t: &mut Tally) -> Res<()> {
    let sel = NodeSelection::PortsOnly;
    let start = Instant::now();
    let bem = adapter::assemble_dense(&inp.spec, &inp.mesh)?;
    let dense = adapter::from_bem_dense(&bem, &sel)?;
    t.dense_s.push(start.elapsed().as_secs_f64());
    t.bytes_dense = adapter::kernel_bytes(&bem);
    drop(bem);

    let (mv0, cg0) = (adapter::kernel_matvecs(), adapter::cg_iterations());
    let start = Instant::now();
    let bem = adapter::assemble_aca(&inp.spec, &inp.mesh, ACA_TOL)?;
    let aca = adapter::from_bem_aca(&bem, &sel)?;
    t.aca_s.push(start.elapsed().as_secs_f64());
    t.bytes_aca = adapter::kernel_bytes(&bem);
    t.matvecs += adapter::kernel_matvecs() - mv0;
    t.cg_iterations += adapter::cg_iterations() - cg0;
    t.cells = inp.mesh.cell_count();
    drop(bem);

    let zd = adapter::impedance_sweep(&dense, &FREQS)?;
    let za = adapter::impedance_sweep(&aca, &FREQS)?;
    for (d, a) in zd.iter().zip(&za) {
        let (n, m) = d.shape();
        let scale = (0..n)
            .flat_map(|i| (0..m).map(move |j| (i, j)))
            .map(|(i, j)| d[(i, j)].norm())
            .fold(0.0, f64::max);
        for i in 0..n {
            for j in 0..m {
                let dev = (d[(i, j)] - a[(i, j)]).norm() / scale;
                t.worst_dev = t
                    .worst_dev
                    .max(if dev.is_nan() { f64::INFINITY } else { dev });
            }
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (inp, setup_times) = timed_setup(|| setup(ctx.seed))?;
    out.setup = setup_times;
    let mut t = Tally::default();
    passes(ctx.seconds, &mut out, || one_pass(&inp, &mut t))?;
    let n = out.passes.len();
    // Two extractions and two 8-point impedance sweeps per pass.
    out.ops = 2 * n + 2 * n * FREQS.len();
    out.metrics = vec![
        Metric::new("dense_model_s", stats::median(&t.dense_s), "s", n),
        Metric::new("aca_model_s", stats::median(&t.aca_s), "s", n),
        Metric::new("mesh_cells", t.cells as f64, "count", 1),
    ];
    out.checks.check(t.worst_dev <= Z_TOL, || {
        format!(
            "compressed port impedance deviates {:e} from dense (tolerance {Z_TOL:e})",
            t.worst_dev
        )
    });
    println!(
        "check: worst dense/compressed |Z| deviation {:e} at 8 frequencies",
        t.worst_dev
    );

    if ctx.traced {
        let l = trace::layers(&trace::spans());
        let from_bem = layer_p50(&l, "extract.from_bem.dense", "extract.from_bem.dense_s");
        println!(
            "share: extract.from_bem.dense_s / dense_model_s = {}",
            from_bem.value / stats::median(&t.dense_s)
        );
        out.layers = vec![
            layer_p50(&l, "bem.assemble.dense", "bem.assemble.dense_s"),
            from_bem,
            layer_p50(&l, "bem.assemble.aca", "bem.assemble.aca_s"),
            layer_p50(&l, "extract.from_bem.aca", "extract.from_bem.aca_s"),
            Metric::new("bem.kernel_matvecs", (t.matvecs / n) as f64, "count", n),
            Metric::new(
                "num.cg_iterations",
                (t.cg_iterations / n) as f64,
                "count",
                n,
            ),
            Metric::new("bem.kernel_bytes.dense", t.bytes_dense as f64, "bytes", 1),
            Metric::new("bem.kernel_bytes.aca", t.bytes_aca as f64, "bytes", 1),
        ];
    }
    Ok(out)
}
