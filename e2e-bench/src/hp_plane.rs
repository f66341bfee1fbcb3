//! `hp_plane_sweep`: paper Figs. 6–8 as `examples/test_plane.rs` runs
//! them — the only workload dominated by the frequency sweep (one complex
//! LU per point) and the FDTD reference rather than by extraction.

use crate::adapter::{self, Res};
use crate::{layer_total, passes, stats, timed_setup, trace, Ctx, Metric, Outcome};
use pdn_core::prelude::{NodeSelection, PlaneSpec};
use std::time::Instant;

/// Exact BEM sweep: 16 points on a 0.875 GHz pitch up to 14 GHz.
const SWEEP_POINTS: usize = 16;
const SWEEP_PITCH: f64 = 0.875e9;
/// Fig. 7 macromodel / FDTD grid: 28 points on a 0.5 GHz pitch.
const S21_POINTS: usize = 28;
const FDTD_FMAX: f64 = 16e9;
/// Fig. 8 transient: 5 ns at 2 ps.
const T_STOP: f64 = 5e-9;
const DT: f64 = 2e-12;
/// Golden tolerances of `tests/golden_figures.rs`.
const TOL_DB: f64 = 1e-6;
const TOL_V: f64 = 1e-6;

const FIG7_GOLDEN: &str = include_str!("../../tests/golden/fig7_s21.csv");
const FIG8_GOLDEN: &str = include_str!("../../tests/golden/fig8_transient.csv");

struct Inputs {
    spec: PlaneSpec,
    sel: NodeSelection,
    sweep_freqs: Vec<f64>,
    s21_freqs: Vec<f64>,
}

fn setup(seed: u64) -> Res<Inputs> {
    let spec = adapter::hp_test_plane()?;
    // The paper's 42-node macromodel.
    let stride = adapter::stride_for_nodes(&spec, 42)?;
    // The seed slides the exact-sweep grid down by up to half a pitch.
    let offset = (seed % 8) as f64 / 16.0 * SWEEP_PITCH;
    Ok(Inputs {
        spec,
        sel: NodeSelection::PortsAndGrid { stride },
        sweep_freqs: (1..=SWEEP_POINTS)
            .map(|k| k as f64 * SWEEP_PITCH - offset)
            .collect(),
        s21_freqs: (1..=S21_POINTS).map(|k| k as f64 * 0.5e9).collect(),
    })
}

/// Everything one pass computes, compared bit for bit across passes.
#[derive(PartialEq)]
struct PassResult {
    z: Vec<Vec<u64>>,
    s_eq: Vec<f64>,
    s_fd: Vec<f64>,
    transient: (Vec<f64>, Vec<f64>, Vec<f64>),
}

fn one_pass(inp: &Inputs, sweep_s: &mut Vec<f64>) -> Res<PassResult> {
    let ex = adapter::plane_extract(&inp.spec, &inp.sel)?;
    let start = Instant::now();
    let z = adapter::bem_impedance_sweep(ex.bem(), &inp.sweep_freqs)?;
    sweep_s.push(start.elapsed().as_secs_f64());
    let s_eq = adapter::s21_db(ex.equivalent(), 0, 1, &inp.s21_freqs, 50.0)?;
    let s_fd = adapter::fdtd_s21_db(&inp.spec, &inp.s21_freqs, 50.0, FDTD_FMAX)?;
    let transient = adapter::transient_comparison(&inp.spec, &ex, T_STOP, DT)?;
    let z = z
        .iter()
        .map(|m| {
            let (n, k) = m.shape();
            (0..n * k)
                .flat_map(|i| {
                    let v = m[(i / k, i % k)];
                    [v.re.to_bits(), v.im.to_bits()]
                })
                .collect()
        })
        .collect();
    Ok(PassResult {
        z,
        s_eq,
        s_fd,
        transient,
    })
}

/// Parses a golden CSV: `#` comments and the header skipped.
fn golden(text: &str) -> Vec<Vec<f64>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with(char::is_alphabetic))
        .map(|l| l.split(',').filter_map(|v| v.trim().parse().ok()).collect())
        .collect()
}

/// Recomputes Figures 7 and 8 on the 2 mm plane and compares them with
/// the committed golden vectors.
fn golden_checks(out: &mut Outcome) -> Res<()> {
    let coarse = adapter::hp_plane_coarse()?;
    let ex = adapter::plane_extract(&coarse, &NodeSelection::PortsAndGrid { stride: 2 })?;
    let fig7 = golden(FIG7_GOLDEN);
    let freqs: Vec<f64> = (1..=20).map(|k| k as f64 * 0.25e9).collect();
    let s21 = adapter::s21_db(ex.equivalent(), 0, 1, &freqs, 50.0)?;
    let worst7 = fig7
        .iter()
        .zip(freqs.iter().zip(&s21))
        .map(|(g, (f, db))| {
            if g[0] == *f {
                (db - g[1]).abs()
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max);
    out.checks
        .check(fig7.len() == s21.len() && worst7 <= TOL_DB, || {
            format!("Fig. 7 |S21| drifts {worst7:e} dB from tests/golden (tolerance {TOL_DB:e})")
        });

    let fig8 = golden(FIG8_GOLDEN);
    let (t, c, f) = adapter::transient_comparison(&coarse, &ex, T_STOP, DT)?;
    let fresh: Vec<(f64, f64, f64)> = (0..t.len())
        .step_by(25)
        .map(|k| (t[k], c[k], f[k]))
        .collect();
    let worst8 = fig8
        .iter()
        .zip(&fresh)
        .map(|(g, &(t, c, f))| {
            if g[0] == t {
                (c - g[1]).abs().max((f - g[2]).abs())
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max);
    out.checks
        .check(fig8.len() == fresh.len() && worst8 <= TOL_V, || {
            format!("Fig. 8 transient drifts {worst8:e} V from tests/golden (tolerance {TOL_V:e})")
        });
    println!("check: golden drift Fig. 7 {worst7:e} dB, Fig. 8 {worst8:e} V");
    Ok(())
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (inp, setup_times) = timed_setup(|| setup(ctx.seed))?;
    out.setup = setup_times;
    let mut sweep_s = Vec::new();
    let mut results = Vec::new();
    passes(ctx.seconds, &mut out, || {
        results.push(one_pass(&inp, &mut sweep_s)?);
        Ok(())
    })?;
    let n = out.passes.len();
    // Per pass: one extraction, the exact and macromodel sweep points,
    // the FDTD |S21| run and the transient comparison.
    out.ops = n * (1 + SWEEP_POINTS + S21_POINTS + 2);
    out.metrics = vec![Metric::new(
        "sweep_points_per_s",
        SWEEP_POINTS as f64 / stats::median(&sweep_s),
        "1/s",
        n,
    )];
    for r in &results[1..] {
        out.checks.check(*r == results[0], || {
            "a later pass differs from the first".into()
        });
    }
    golden_checks(&mut out)?;

    if ctx.traced {
        let l = trace::layers(&trace::spans());
        let points = l.get("bem.sweep").map_or(0, |s| s.durations.len()) * SWEEP_POINTS / n;
        out.layers = vec![
            layer_total(&l, "core.extract", "core.extract.total_s", n),
            layer_total(&l, "bem.sweep", "bem.sweep.total_s", n),
            Metric::new("bem.sweep.points", points as f64, "count", n),
            layer_total(&l, "extract.sweep", "extract.sweep.total_s", n),
            layer_total(&l, "verify.fdtd", "verify.fdtd.total_s", n),
            layer_total(&l, "verify.transient", "verify.transient.total_s", n),
        ];
    }
    Ok(out)
}
