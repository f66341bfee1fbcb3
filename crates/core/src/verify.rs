//! Verification experiments: equivalent circuit vs. independent
//! references (paper Section 6.1).
//!
//! The paper validates its extracted circuits against measurements and a
//! 2-D FDTD simulation. Measured data for the HP test plane is not
//! available, so the FDTD engine (and the analytic cavity model) plays the
//! measurement's role here — it shares no code path with the BEM/circuit
//! flow and discretizes different equations, making it a genuinely
//! independent reference (see `DESIGN.md` for the substitution record).

use crate::flow::{ExtractedPlane, PlaneSpec};
use pdn_circuit::{Circuit, NodeId, TransientSpec, Waveform};
use pdn_extract::EquivalentCircuit;
use pdn_fdtd::PlaneFdtd;
use pdn_num::{c64, fft, next_pow2};
use std::error::Error;

/// `|S21|` (dB) of the extracted macromodel between two ports over a
/// frequency list, reference impedance `z0` — the simulation curve of the
/// paper's Figure 7.
///
/// # Errors
///
/// Propagates solve failures.
pub fn circuit_s21_db(
    eq: &EquivalentCircuit,
    p_in: usize,
    p_out: usize,
    freqs: &[f64],
    z0: f64,
) -> Result<Vec<f64>, Box<dyn Error>> {
    let sweep = eq.s_parameter_sweep(freqs, z0)?;
    Ok(sweep.iter().map(|s| s[(p_out, p_in)].db()).collect())
}

/// `|S21|` (dB) between two ports computed by the FDTD reference: a short
/// pulse through a `z0` source at `p_in`, all ports terminated with `z0`,
/// spectra ratioed per `S21(f) = 2·V₂(f)/V_s(f)`.
///
/// `f_max` sets the pulse bandwidth; the returned values are interpolated
/// onto `freqs`.
///
/// # Errors
///
/// Returns an error when the spec holds more than one shape or FDTD setup
/// fails.
pub fn fdtd_s21_db(
    spec: &PlaneSpec,
    p_in: usize,
    p_out: usize,
    freqs: &[f64],
    z0: f64,
    f_max: f64,
) -> Result<Vec<f64>, Box<dyn Error>> {
    let shape = spec.single_shape()?;
    let mut sim = PlaneFdtd::new(shape, spec.pair(), spec.cell_size())?
        .with_loss(2.0 * spec.sheet_resistance());
    let mut port_ids = Vec::new();
    for (name, p) in spec.ports() {
        port_ids.push(sim.add_port(name.clone(), *p, z0)?);
    }
    // Pulse with energy out to f_max: rise ≈ 0.35/f_max.
    let rise = 0.35 / f_max;
    let stim = Waveform::pulse(0.0, 1.0, 0.0, rise, rise, rise);
    sim.drive_port(port_ids[p_in], stim.clone());
    // Run long enough for the (lossy) plane to ring down.
    let res = sim.run(60e-9);
    let dt = sim.dt();
    let n = next_pow2(res.time.len());
    let spectrum = |w: &[f64]| -> Vec<c64> {
        let mut buf: Vec<c64> = w.iter().map(|&x| c64::from_re(x)).collect();
        buf.resize(n, c64::ZERO);
        fft(&mut buf);
        buf
    };
    let v_out = spectrum(&res.port_voltages[p_out]);
    let src: Vec<f64> = res.time.iter().map(|&t| stim.eval(t)).collect();
    let v_src = spectrum(&src);
    let df = 1.0 / (n as f64 * dt);
    let s21_bin = |f: f64| -> f64 {
        let k = (f / df).round() as usize;
        let k = k.clamp(1, n / 2 - 1);
        (2.0 * v_out[k] / v_src[k]).db()
    };
    Ok(freqs.iter().map(|&f| s21_bin(f)).collect())
}

/// Resonant frequencies seen by the FDTD reference: ring-down spectrum
/// peaks of the port voltage, ascending, within `[f_start, f_stop]`.
///
/// # Errors
///
/// Returns an error when FDTD setup fails.
pub fn fdtd_resonances(
    spec: &PlaneSpec,
    port: usize,
    f_start: f64,
    f_stop: f64,
) -> Result<Vec<f64>, Box<dyn Error>> {
    let shape = spec.single_shape()?;
    let mut sim = PlaneFdtd::new(shape, spec.pair(), spec.cell_size() * 0.5)?
        .with_loss(2.0 * spec.sheet_resistance());
    let mut ids = Vec::new();
    for (name, p) in spec.ports() {
        // Nearly open terminations keep the cavity high-Q.
        ids.push(sim.add_port(name.clone(), *p, 1e6)?);
    }
    let rise = 0.2 / f_stop;
    sim.drive_port(
        ids[port],
        Waveform::pulse(0.0, 1.0, 0.0, rise, rise, 0.5 * rise),
    );
    let res = sim.run(40e-9);
    let (freqs, mags) = pdn_num::real_fft_magnitude(&res.port_voltages[port], sim.dt());
    // Local maxima within the window.
    let mut peaks = Vec::new();
    for k in 1..freqs.len() - 1 {
        if freqs[k] >= f_start
            && freqs[k] <= f_stop
            && mags[k] > mags[k - 1]
            && mags[k] > mags[k + 1]
        {
            peaks.push((freqs[k], mags[k]));
        }
    }
    // Keep peaks at least 10 % of the strongest to suppress FFT ripple.
    let max_mag = peaks.iter().map(|p| p.1).fold(0.0, f64::max);
    Ok(peaks
        .into_iter()
        .filter(|p| p.1 > 0.1 * max_mag)
        .map(|p| p.0)
        .collect())
}

/// Frequency of the strongest input-impedance peak of the macromodel in
/// `[f_start, f_stop]`, with its magnitude.
///
/// Matching engines by their *strongest* mode is robust against small
/// scan-ripple peaks that plain peak lists pick up.
///
/// # Errors
///
/// Propagates solve failures; errors if no peak exists in the window.
pub fn circuit_strongest_peak(
    eq: &EquivalentCircuit,
    port: usize,
    f_start: f64,
    f_stop: f64,
    points: usize,
) -> Result<(f64, f64), Box<dyn Error>> {
    let freqs: Vec<f64> = (0..points)
        .map(|k| f_start + (f_stop - f_start) * k as f64 / (points - 1) as f64)
        .collect();
    let z = eq.impedance_sweep(&freqs)?;
    let mags: Vec<f64> = z.iter().map(|zk| zk[(port, port)].norm()).collect();
    let mut best: Option<(f64, f64)> = None;
    for k in 1..points.saturating_sub(1) {
        if mags[k] > mags[k - 1] && mags[k] > mags[k + 1] && best.is_none_or(|m| mags[k] > m.1) {
            best = Some((freqs[k], mags[k]));
        }
    }
    best.ok_or_else(|| "no impedance peak in the scan window".into())
}

/// Frequency of the strongest FDTD ring-down spectral peak in the window.
///
/// # Errors
///
/// Errors when FDTD setup fails or no peak exists in the window.
pub fn fdtd_strongest_peak(
    spec: &PlaneSpec,
    port: usize,
    f_start: f64,
    f_stop: f64,
) -> Result<f64, Box<dyn Error>> {
    let shape = spec.single_shape()?;
    let mut sim = PlaneFdtd::new(shape, spec.pair(), spec.cell_size() * 0.5)?
        .with_loss(2.0 * spec.sheet_resistance());
    let mut ids = Vec::new();
    for (name, p) in spec.ports() {
        ids.push(sim.add_port(name.clone(), *p, 1e6)?);
    }
    let rise = 0.2 / f_stop;
    sim.drive_port(
        ids[port],
        Waveform::pulse(0.0, 1.0, 0.0, rise, rise, 0.5 * rise),
    );
    let res = sim.run(40e-9);
    let (freqs, mags) = pdn_num::real_fft_magnitude(&res.port_voltages[port], sim.dt());
    let mut best: Option<(f64, f64)> = None;
    for k in 1..freqs.len() - 1 {
        if freqs[k] >= f_start
            && freqs[k] <= f_stop
            && mags[k] > mags[k - 1]
            && mags[k] > mags[k + 1]
            && best.is_none_or(|(_, m)| mags[k] > m)
        {
            best = Some((freqs[k], mags[k]));
        }
    }
    best.map(|(f, _)| f)
        .ok_or_else(|| "no spectral peak in the window".into())
}

/// Overlaid transient waveforms at a watch port: extracted circuit vs.
/// FDTD — the paper's Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct TransientComparison {
    /// Common sample times (s).
    pub time: Vec<f64>,
    /// Equivalent-RLC-circuit waveform (V).
    pub circuit: Vec<f64>,
    /// FDTD waveform (V), linearly resampled onto `time`.
    pub fdtd: Vec<f64>,
}

impl TransientComparison {
    /// RMS difference between the two waveforms.
    pub fn rms_difference(&self) -> f64 {
        let n = self.time.len().max(1);
        (self
            .circuit
            .iter()
            .zip(&self.fdtd)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n as f64)
            .sqrt()
    }

    /// Peak magnitude of the circuit waveform.
    pub fn circuit_peak(&self) -> f64 {
        self.circuit.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Peak magnitude of the FDTD waveform.
    pub fn fdtd_peak(&self) -> f64 {
        self.fdtd.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

/// Runs the Figure 8 experiment: `stimulus` behind `r_term` at
/// `drive_port`, every port terminated with `r_term`, watching
/// `watch_port`, with both the extracted macromodel and the FDTD
/// reference.
///
/// # Errors
///
/// Propagates extraction, circuit, and FDTD failures.
#[allow(clippy::too_many_arguments)]
pub fn transient_comparison(
    spec: &PlaneSpec,
    extracted: &ExtractedPlane,
    drive_port: usize,
    watch_port: usize,
    stimulus: Waveform,
    r_term: f64,
    t_stop: f64,
    dt: f64,
) -> Result<TransientComparison, Box<dyn Error>> {
    // --- circuit side ----------------------------------------------------
    // The standalone verification netlist uses the Exact realization (the
    // full reluctance matrix including negative Kron residues): with only
    // resistive terminations attached it is stable, and it reproduces the
    // macromodel's frequency response to machine precision.
    let eq = extracted.equivalent();
    let mut ckt = Circuit::new();
    let nodes = eq.to_circuit_with(&mut ckt, "pg_", 0.0, pdn_extract::Realization::Exact);
    let port_nodes: Vec<NodeId> = (0..eq.port_count())
        .map(|p| nodes[eq.port_node(p)])
        .collect();
    for (p, &node) in port_nodes.iter().enumerate() {
        if p == drive_port {
            let src = ckt.node("stim");
            ckt.voltage_source(src, Circuit::GND, stimulus.clone());
            ckt.resistor(src, node, r_term);
        } else {
            ckt.resistor(node, Circuit::GND, r_term);
        }
    }
    let res = ckt.transient(&TransientSpec::new(t_stop, dt))?;
    let time: Vec<f64> = res.time().to_vec();
    let circuit: Vec<f64> = res.voltage(port_nodes[watch_port]).to_vec();

    // --- FDTD side ---------------------------------------------------------
    let shape = spec.single_shape()?;
    let mut sim = PlaneFdtd::new(shape, spec.pair(), spec.cell_size())?
        .with_loss(2.0 * spec.sheet_resistance());
    let mut ids = Vec::new();
    for (name, p) in spec.ports() {
        ids.push(sim.add_port(name.clone(), *p, r_term)?);
    }
    sim.drive_port(ids[drive_port], stimulus);
    let fres = sim.run(t_stop);
    // Resample FDTD onto the circuit time base.
    let f_dt = sim.dt();
    let fv = &fres.port_voltages[watch_port];
    let fdtd: Vec<f64> = time
        .iter()
        .map(|&t| {
            let pos = t / f_dt - 1.0;
            if pos <= 0.0 {
                return fv.first().copied().unwrap_or(0.0);
            }
            let i0 = pos.floor() as usize;
            let frac = pos - i0 as f64;
            let a = fv.get(i0).copied().unwrap_or(0.0);
            let b = fv.get(i0 + 1).copied().unwrap_or(a);
            a + frac * (b - a)
        })
        .collect();
    Ok(TransientComparison {
        time,
        circuit,
        fdtd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_extract::NodeSelection;
    use pdn_geom::units::mm;

    fn small_plane() -> PlaneSpec {
        PlaneSpec::rectangle(mm(20.0), mm(20.0), 0.5e-3, 4.5)
            .unwrap()
            .with_sheet_resistance(2e-3)
            .with_cell_size(mm(2.0))
            .with_port("P1", mm(2.0), mm(2.0))
            .with_port("P2", mm(18.0), mm(18.0))
    }

    #[test]
    fn fig8_style_transient_agrees() {
        let spec = small_plane();
        let extracted = spec
            .extract(&NodeSelection::PortsAndGrid { stride: 2 })
            .unwrap();
        let stim = Waveform::pulse(0.0, 5.0, 0.1e-9, 0.2e-9, 0.2e-9, 1.0e-9);
        let cmp = transient_comparison(&spec, &extracted, 0, 1, stim, 50.0, 4e-9, 2e-12).unwrap();
        assert!(cmp.circuit_peak() > 0.05, "signal couples across the plane");
        assert!(cmp.fdtd_peak() > 0.05);
        // The two independent engines agree in amplitude class and shape.
        let rel = cmp.rms_difference() / cmp.fdtd_peak();
        assert!(rel < 0.35, "rms/peak = {rel}");
        let peak_ratio = cmp.circuit_peak() / cmp.fdtd_peak();
        assert!(
            peak_ratio > 0.6 && peak_ratio < 1.6,
            "peak ratio {peak_ratio}"
        );
    }

    #[test]
    fn s21_curves_track_below_resonance() {
        let spec = small_plane();
        let extracted = spec
            .extract(&NodeSelection::PortsAndGrid { stride: 2 })
            .unwrap();
        let f10 = spec.pair().cavity_resonance(mm(20.0), mm(20.0), 1, 0);
        let freqs: Vec<f64> = (1..=8).map(|k| k as f64 * 0.1 * f10).collect();
        let s_eq = circuit_s21_db(extracted.equivalent(), 0, 1, &freqs, 50.0).unwrap();
        let s_fd = fdtd_s21_db(&spec, 0, 1, &freqs, 50.0, 2.0 * f10).unwrap();
        for ((f, a), b) in freqs.iter().zip(&s_eq).zip(&s_fd) {
            assert!(
                (a - b).abs() < 4.0,
                "f = {f:.3e}: circuit {a:.2} dB vs FDTD {b:.2} dB"
            );
        }
    }

    #[test]
    fn resonances_agree_between_engines() {
        let spec = small_plane();
        let extracted = spec
            .extract(&NodeSelection::PortsAndGrid { stride: 2 })
            .unwrap();
        let f10 = spec.pair().cavity_resonance(mm(20.0), mm(20.0), 1, 0);
        let eq_peaks = extracted
            .equivalent()
            .find_resonances(0, 0.5 * f10, 1.5 * f10, 41)
            .unwrap();
        let fd_peaks = fdtd_resonances(&spec, 0, 0.5 * f10, 1.5 * f10).unwrap();
        assert!(!eq_peaks.is_empty() && !fd_peaks.is_empty());
        let rel = (eq_peaks[0] - fd_peaks[0]).abs() / fd_peaks[0];
        assert!(
            rel < 0.1,
            "eq {:.3e} vs fdtd {:.3e}",
            eq_peaks[0],
            fd_peaks[0]
        );
    }
}
