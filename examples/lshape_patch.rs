//! Example 1 of the paper: resonant modes of an L-shaped microstrip patch
//! from the extracted equivalent circuit, checked against the independent
//! FDTD reference.
//!
//! The paper reports f0 = 1.02 GHz / f1 = 1.65 GHz from its equivalent
//! circuit vs 0.997 / 1.56 GHz full-wave — i.e. the quasi-static circuit
//! reads a few percent high. The same signature should appear here.
//!
//! Run with `cargo run --release --example lshape_patch`.

use pdn::prelude::*;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    println!("== paper Example 1: L-shaped microstrip patch resonances ==\n");
    let spec = boards::lshape_patch()?;
    println!("patch: L-shape 90 x 90 mm (45 x 45 notch), h = 0.787 mm, eps_r = 2.33");
    println!("port A at the inner corner\n");

    let extracted = spec.extract(&NodeSelection::PortsAndGrid { stride: 2 })?;
    let eq = extracted.equivalent();
    println!(
        "extracted equivalent circuit: {} nodes ({} mesh cells)",
        eq.node_count(),
        extracted.bem().mesh().cell_count()
    );

    // Scan the input impedance for resonant modes. Engines are matched on
    // their DOMINANT mode: small scan-ripple peaks make index-wise pairing
    // meaningless.
    let (f_lo, f_hi) = (0.5e9, 2.5e9);
    let eq_peaks = eq.find_resonances(0, f_lo, f_hi, 96)?;
    let fd_peaks = verify::fdtd_resonances(&spec, 0, f_lo, f_hi)?;
    println!(
        "\nall impedance peaks (GHz): circuit {:?}",
        eq_peaks
            .iter()
            .map(|f| (f / 1e7).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "ring-down spectral peaks (GHz): FDTD {:?}",
        fd_peaks
            .iter()
            .map(|f| (f / 1e7).round() / 100.0)
            .collect::<Vec<_>>()
    );
    let (f_eq, _) = verify::circuit_strongest_peak(eq, 0, f_lo, f_hi, 96)?;
    let f_fd = verify::fdtd_strongest_peak(&spec, 0, f_lo, f_hi)?;
    println!(
        "\ndominant mode: circuit {:.3} GHz vs FDTD {:.3} GHz ({:+.1}%)",
        f_eq / 1e9,
        f_fd / 1e9,
        100.0 * (f_eq - f_fd) / f_fd
    );
    println!("paper's comparison: f0 = 1.02 vs 0.997 GHz (+2.3%), f1 = 1.65 vs 1.56 GHz (+5.8%)");
    println!("expected: a few percent deviation between the circuit and the reference");
    println!("(sign differs here: the confined-FDTD reference has no fringing, so it");
    println!("biases high where the paper's full-wave reference biased low; DESIGN.md).");

    // Impedance profile around the dominant mode.
    {
        let f0 = f_eq;
        println!("\n|Z(A,A)| near the first mode:");
        println!("  f [GHz]    |Z| [Ohm]");
        for k in 0..=10 {
            let f = f0 * (0.7 + 0.06 * k as f64);
            let z = eq.impedance(f)?[(0, 0)].norm();
            println!("  {:>7.3} {:>11.2}", f / 1e9, z);
        }
    }
    Ok(())
}
