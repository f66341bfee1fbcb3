//! `study_a_flow`: paper §6.2 study A as `examples/ssn_decoupling.rs`
//! runs it — the library path a designer takes, re-extracting the plane
//! for every build.

use crate::adapter::{self, Res};
use crate::{layer_p50, layer_total, passes, timed_setup, trace, Ctx, Metric, Outcome};
use pdn_core::prelude::{BoardSpec, NodeSelection};

const CELL_INCH: f64 = 0.5;
const T_STOP: f64 = 25e-9;
const DT: f64 = 0.05e-9;
const COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const RINGS: [usize; 3] = [2, 4, 8];
const SWEEP: [usize; 2] = [1, 16];

struct Inputs {
    board: BoardSpec,
    rings: Vec<BoardSpec>,
    sel: NodeSelection,
}

/// Peak noise figures of one pass, compared bit for bit across passes.
#[derive(PartialEq, Debug)]
struct PassResult {
    partition: usize,
    /// `(drivers, die-rail peak, plane peak)` of the individual builds.
    switching: Vec<(usize, f64, f64)>,
    /// Plane noise with 0 and then each ring of decaps, 16 drivers.
    decap_plane: Vec<f64>,
    sweep: Vec<(usize, f64)>,
}

fn setup(seed: u64) -> Res<Inputs> {
    let board = adapter::study_a_board(CELL_INCH)?;
    // The seed rotates every decap ring by a fraction of its pitch.
    let turn = (seed % 8) as f64 / 8.0;
    let rings = RINGS
        .iter()
        .map(|&n| adapter::study_a_decaps(&board, n, turn))
        .collect();
    Ok(Inputs {
        board,
        rings,
        sel: NodeSelection::PortsAndGrid { stride: 4 },
    })
}

fn one_pass(inp: &Inputs, ops: &mut usize) -> Res<PassResult> {
    let build_run = |board: &BoardSpec, n: usize, ops: &mut usize| {
        *ops += 2;
        let model = adapter::extract_model(board, &inp.sel)?;
        let system = adapter::wire(board, &model, n)?;
        adapter::transient(&system, T_STOP, DT)
    };
    *ops += 1;
    let model = adapter::extract_model(&inp.board, &inp.sel)?;
    let partition = adapter::partition_size(&adapter::wire(&inp.board, &model, 16)?);
    let mut switching = Vec::new();
    for n in COUNTS {
        let out = build_run(&inp.board, n, ops)?;
        switching.push((n, out.peak_noise, out.plane_noise_peak));
    }
    let mut decap_plane = vec![build_run(&inp.board, 16, ops)?.plane_noise_peak];
    for ring in &inp.rings {
        decap_plane.push(build_run(ring, 16, ops)?.plane_noise_peak);
    }
    *ops += 1;
    let sweep = adapter::switching_sweep(&inp.board, &inp.sel, &SWEEP, T_STOP, DT)?;
    Ok(PassResult {
        partition,
        switching,
        decap_plane,
        sweep,
    })
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (inp, setup_times) = timed_setup(|| setup(ctx.seed))?;
    out.setup = setup_times;
    let mut results = Vec::new();
    let mut ops = 0;
    passes(ctx.seconds, &mut out, || {
        results.push(one_pass(&inp, &mut ops)?);
        Ok(())
    })?;
    out.ops = ops;

    let c = &mut out.checks;
    for r in &results {
        // The batched sweep must reproduce the individually built runs
        // exactly (the scenario-batch equivalence contract).
        for &(n, peak) in &r.sweep {
            let single = r.switching.iter().find(|s| s.0 == n).map(|s| s.1);
            c.check(single.map(f64::to_bits) == Some(peak.to_bits()), || {
                format!("sweep row for {n} drivers ({peak:e} V) differs from the built run ({single:?})")
            });
        }
        let (first, last) = (r.switching[0].1, r.switching[COUNTS.len() - 1].1);
        c.check(last > first, || {
            format!("die-rail noise does not grow from 1 to 16 drivers: {first:e} -> {last:e} V")
        });
        c.check(*r == results[0], || {
            "a later pass differs from the first".into()
        });
    }

    if ctx.traced {
        let l = trace::layers(&trace::spans());
        let n = out.passes.len();
        // The switching sweep extracts once inside the library.
        let calls = l.get("core.extract_model").map_or(0, |s| s.durations.len()) / n.max(1);
        out.layers = vec![
            Metric::new("core.extract_model.calls", (calls + 1) as f64, "count", n),
            layer_p50(&l, "core.extract_model", "core.extract_model.p50_s"),
            layer_total(&l, "core.wire", "core.wire.total_s", n),
            layer_p50(&l, "circuit.transient", "circuit.transient.p50_s"),
            layer_total(
                &l,
                "core.switching_sweep",
                "core.switching_sweep.total_s",
                n,
            ),
        ];
    }
    Ok(out)
}
