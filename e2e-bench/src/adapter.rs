//! Every call the benchmark makes into the library, one function per
//! layer call, each wrapped in the span that names its layer.
//!
//! Workloads and checks reach the library only through this file. An API
//! change (a sweep-shape collapse, memoization moving into `pdn-core`,
//! block CG as the only iterative route) edits call sites here and leaves
//! the timing, counters and checks in the workload files unchanged.

use crate::trace::span;
use pdn_bem::{BemSystem, CompressionSpec};
use pdn_circuit::Waveform;
use pdn_core::prelude::{
    boards, inch, mm, verify, BoardSpec, BoardSystem, DecapSpec, DecapValue, ExtractedModel,
    ExtractedPlane, NodeSelection, PlaneMesh, PlaneSpec, Point, Scenario, ScenarioBatch,
    SsnOutcome, SurfaceImpedance,
};
use pdn_extract::EquivalentCircuit;
use pdn_num::{c64, Matrix};
use pdn_service::{
    AnalysisRequest, AnalysisResult, CacheOutcome, CacheStats, ExtractionCache, JobEvent, JobQueue,
};
use std::path::Path;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Library errors rendered to text, so results can cross threads.
pub type Res<T> = Result<T, String>;

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---- inputs (set-up; not spans) -------------------------------------------

/// The paper §6.2 study-A board at `cell_inch` mesh density.
pub fn study_a_board(cell_inch: f64) -> Res<BoardSpec> {
    boards::ssn_study_a_board(cell_inch).map_err(msg)
}

/// The study-A decap ring of `n` capacitors, rotated by `turn` of the
/// ring pitch.
pub fn study_a_decaps(board: &BoardSpec, n: usize, turn: f64) -> BoardSpec {
    let mut out = board.clone();
    for d in boards::ssn_study_a_decaps(n) {
        out = out.with_decap(rotate_about_chip(d, n, turn));
    }
    out
}

fn rotate_about_chip(mut d: DecapSpec, n: usize, turn: f64) -> DecapSpec {
    let c = Point::new(inch(5.0), inch(3.5));
    let ang = turn * 2.0 * std::f64::consts::PI / n.max(1) as f64;
    let (dx, dy) = (d.location.x - c.x, d.location.y - c.y);
    d.location = Point::new(
        c.x + dx * ang.cos() - dy * ang.sin(),
        c.y + dx * ang.sin() + dy * ang.cos(),
    );
    d
}

/// A study-A board with declared decap mounting sites (service pool).
pub fn with_sites(board: &BoardSpec, sites: &[Point]) -> BoardSpec {
    sites
        .iter()
        .fold(board.clone(), |b, &p| b.with_decap_site(p))
}

/// The study-A plane with the VRM and U1 power ports, U1 shifted by
/// `shift` (m) in x.
pub fn study_a_plane(cell_inch: f64, shift: f64) -> Res<PlaneSpec> {
    let board = study_a_board(cell_inch)?;
    let vrm = Point::new(inch(0.5), inch(0.5));
    let u1 = Point::new(inch(5.0) + shift, inch(3.5));
    Ok(board
        .plane
        .clone()
        .with_port("VRM", vrm.x, vrm.y)
        .with_port("U1_vcc", u1.x, u1.y))
}

/// Meshes a single-shape plane and binds its ports.
pub fn mesh_plane(spec: &PlaneSpec) -> Res<PlaneMesh> {
    let mut mesh =
        PlaneMesh::build(spec.single_shape().map_err(msg)?, spec.cell_size()).map_err(msg)?;
    for (name, p) in spec.ports() {
        mesh.bind_port(name.clone(), *p).map_err(msg)?;
    }
    Ok(mesh)
}

/// The HP Labs 5-port test plane of paper Fig. 6 at 1 mm cells.
pub fn hp_test_plane() -> Res<PlaneSpec> {
    boards::hp_test_plane().map_err(msg)
}

/// The same plane at the 2 mm density of the golden Figure 7/8 vectors,
/// built exactly as `tests/common` builds it.
pub fn hp_plane_coarse() -> Res<PlaneSpec> {
    let mut spec = PlaneSpec::rectangle(mm(40.0), mm(16.0), 280e-6, 9.6)
        .map_err(msg)?
        .with_sheet_resistance(6e-3)
        .with_cell_size(mm(2.0));
    for k in 0..5 {
        spec = spec.with_port(format!("P{}", k + 1), mm(4.0 + 8.0 * k as f64), mm(8.0));
    }
    Ok(spec)
}

/// Grid stride giving the paper's `budget`-node macromodel.
pub fn stride_for_nodes(spec: &PlaneSpec, budget: usize) -> Res<usize> {
    let mesh =
        PlaneMesh::build(spec.single_shape().map_err(msg)?, spec.cell_size()).map_err(msg)?;
    Ok(pdn_extract::circuit::stride_for_node_budget(&mesh, budget))
}

/// The Fig. 8 stimulus: 5 V / 0.2 ns edges / 1 ns pulse.
fn fig8_stimulus() -> Waveform {
    Waveform::pulse(0.0, 5.0, 0.1e-9, 0.2e-9, 0.2e-9, 1.0e-9)
}

// ---- pdn-core: board flow -------------------------------------------------

/// `BoardSpec::extract_model`: mesh → BEM → reduction for one board.
pub fn extract_model(board: &BoardSpec, sel: &NodeSelection) -> Res<ExtractedModel> {
    span("core.extract_model", || {
        board.extract_model(sel).map_err(msg)
    })
}

/// `BoardSpec::wire`: stamps the system netlist around a model.
pub fn wire(board: &BoardSpec, model: &ExtractedModel, switching: usize) -> Res<BoardSystem> {
    span("core.wire", || board.wire(model, switching).map_err(msg))
}

/// `BoardSystem::run`: the MNA transient of `pdn-circuit`.
pub fn transient(system: &BoardSystem, t_stop: f64, dt: f64) -> Res<SsnOutcome> {
    span("circuit.transient", || system.run(t_stop, dt).map_err(msg))
}

/// Four-subsystem partition size (devices + packages + nets + PDN nodes).
pub fn partition_size(system: &BoardSystem) -> usize {
    let p = system.partition();
    p.devices + p.packages + p.signal_nets + p.pdn_nodes
}

/// `pdn_core::cosim::ssn_switching_sweep`.
pub fn switching_sweep(
    board: &BoardSpec,
    sel: &NodeSelection,
    counts: &[usize],
    t_stop: f64,
    dt: f64,
) -> Res<Vec<(usize, f64)>> {
    span("core.switching_sweep", || {
        pdn_core::cosim::ssn_switching_sweep(board, sel, counts, t_stop, dt).map_err(msg)
    })
}

/// Cold references for service jobs: one fresh `ScenarioBatch` per
/// board, run over each scenario list.
pub fn batch_runs(
    board: &BoardSpec,
    sel: &NodeSelection,
    lists: &[Vec<Scenario>],
    t_stop: f64,
    dt: f64,
) -> Res<Vec<Vec<SsnOutcome>>> {
    let batch = ScenarioBatch::new(board, sel).map_err(msg)?;
    lists
        .iter()
        .map(|l| batch.run(l, t_stop, dt).map_err(msg))
        .collect()
}

/// A scenario with `switching` drivers and a 100 nF ceramic on each of
/// the first `populated` sites.
pub fn decap_scenario(switching: usize, populated: usize) -> Scenario {
    Scenario::switching(switching).with_decaps(
        (0..populated)
            .map(|k| (k, DecapValue::ceramic_100nf()))
            .collect(),
    )
}

// ---- pdn-bem / pdn-extract: dense and compressed extraction ---------------

fn loop_impedance(spec: &PlaneSpec) -> SurfaceImpedance {
    // Current leaves on one plane and returns on the other.
    SurfaceImpedance::from_sheet_resistance(2.0 * spec.sheet_resistance())
}

/// Dense `BemSystem::assemble` (the default route).
pub fn assemble_dense(spec: &PlaneSpec, mesh: &PlaneMesh) -> Res<BemSystem> {
    span("bem.assemble.dense", || {
        BemSystem::assemble(
            mesh.clone(),
            spec.pair(),
            &loop_impedance(spec),
            spec.options(),
        )
        .map_err(msg)
    })
}

/// Dense `EquivalentCircuit::from_bem`.
pub fn from_bem_dense(bem: &BemSystem, sel: &NodeSelection) -> Res<EquivalentCircuit> {
    span("extract.from_bem.dense", || {
        EquivalentCircuit::from_bem(bem, sel).map_err(msg)
    })
}

/// `BemSystem::assemble` with certified ACA kernels and the block-CG
/// solver (`CompressionSpec::with_tol(tol).with_block_solver()`).
pub fn assemble_aca(spec: &PlaneSpec, mesh: &PlaneMesh, tol: f64) -> Res<BemSystem> {
    let spec = spec
        .clone()
        .with_compression(CompressionSpec::with_tol(tol).with_block_solver());
    span("bem.assemble.aca", || {
        BemSystem::assemble(
            mesh.clone(),
            spec.pair(),
            &loop_impedance(&spec),
            spec.options(),
        )
        .map_err(msg)
    })
}

/// `EquivalentCircuit::from_bem` on a compressed system (iterative route).
pub fn from_bem_aca(bem: &BemSystem, sel: &NodeSelection) -> Res<EquivalentCircuit> {
    span("extract.from_bem.aca", || {
        EquivalentCircuit::from_bem(bem, sel).map_err(msg)
    })
}

/// Kernel storage of a system in bytes: dense P and L, or the stored
/// low-rank blocks of a compressed one.
pub fn kernel_bytes(bem: &BemSystem) -> usize {
    match bem.compressed() {
        Some(k) => k.stored_bytes(),
        None => {
            let (p, l) = (bem.potential_coefficients(), bem.inductance());
            8 * (p.nrows() * p.ncols() + l.nrows() * l.ncols())
        }
    }
}

/// `pdn_bem::kernel_matvec_count` (monotone between resets).
pub fn kernel_matvecs() -> usize {
    pdn_bem::kernel_matvec_count()
}

/// `pdn_num::cg::cg_iteration_count` (monotone over the process).
pub fn cg_iterations() -> usize {
    pdn_num::cg::cg_iteration_count()
}

/// `EquivalentCircuit::impedance_sweep`: port impedance matrices.
pub fn impedance_sweep(eq: &EquivalentCircuit, freqs: &[f64]) -> Res<Vec<Matrix<c64>>> {
    span("extract.sweep", || eq.impedance_sweep(freqs).map_err(msg))
}

// ---- HP plane: extraction, sweeps, FDTD reference -------------------------

/// `PlaneSpec::extract`: mesh → BEM → macromodel.
pub fn plane_extract(spec: &PlaneSpec, sel: &NodeSelection) -> Res<ExtractedPlane> {
    span("core.extract", || spec.extract(sel).map_err(msg))
}

/// Exact `BemSystem::impedance_sweep` (one complex LU per point).
pub fn bem_impedance_sweep(bem: &BemSystem, freqs: &[f64]) -> Res<Vec<Matrix<c64>>> {
    span("bem.sweep", || bem.impedance_sweep(freqs).map_err(msg))
}

/// `EquivalentCircuit::s_parameter_sweep`, reduced to |S(p_out, p_in)| dB.
pub fn s21_db(
    eq: &EquivalentCircuit,
    p_in: usize,
    p_out: usize,
    freqs: &[f64],
    z0: f64,
) -> Res<Vec<f64>> {
    span("extract.sweep", || {
        let s = eq.s_parameter_sweep(freqs, z0).map_err(msg)?;
        Ok(s.iter().map(|m| m[(p_out, p_in)].db()).collect())
    })
}

/// `verify::fdtd_s21_db`: the `pdn-fdtd` reference |S21|.
pub fn fdtd_s21_db(spec: &PlaneSpec, freqs: &[f64], z0: f64, f_max: f64) -> Res<Vec<f64>> {
    span("verify.fdtd", || {
        verify::fdtd_s21_db(spec, 0, 1, freqs, z0, f_max).map_err(msg)
    })
}

/// `verify::transient_comparison`: circuit vs FDTD at port 2 (Fig. 8).
/// Returns `(time, circuit, fdtd)` samples.
pub fn transient_comparison(
    spec: &PlaneSpec,
    extracted: &ExtractedPlane,
    t_stop: f64,
    dt: f64,
) -> Res<(Vec<f64>, Vec<f64>, Vec<f64>)> {
    span("verify.transient", || {
        let cmp =
            verify::transient_comparison(spec, extracted, 0, 1, fig8_stimulus(), 50.0, t_stop, dt)
                .map_err(msg)?;
        Ok((cmp.time, cmp.circuit, cmp.fdtd))
    })
}

// ---- pdn-service ------------------------------------------------------------

/// A fresh on-disk extraction cache with `capacity` models in memory.
pub fn cache_at(dir: &Path, capacity: usize) -> Arc<ExtractionCache> {
    Arc::new(ExtractionCache::at(dir, capacity))
}

/// A job queue with `workers` worker threads.
pub fn job_queue(cache: Arc<ExtractionCache>, workers: usize) -> JobQueue {
    JobQueue::with_workers(cache, workers)
}

/// `ExtractionCache::stats`.
pub fn cache_stats(queue: &JobQueue) -> CacheStats {
    queue.cache().stats()
}

/// A `Transient` job request.
pub fn transient_request(
    board: &BoardSpec,
    sel: NodeSelection,
    switching: usize,
    t_stop: f64,
    dt: f64,
) -> AnalysisRequest {
    AnalysisRequest::Transient {
        board: board.clone(),
        selection: sel,
        switching,
        t_stop,
        dt,
    }
}

/// A `Scenarios` job request.
pub fn scenarios_request(
    board: &BoardSpec,
    sel: NodeSelection,
    scenarios: Vec<Scenario>,
    t_stop: f64,
    dt: f64,
) -> AnalysisRequest {
    AnalysisRequest::Scenarios {
        board: board.clone(),
        selection: sel,
        scenarios,
        t_stop,
        dt,
    }
}

/// `JobQueue::submit`; returns the job id and its event stream.
pub fn submit(
    queue: &JobQueue,
    client: &str,
    req: AnalysisRequest,
) -> Res<(u64, Receiver<JobEvent>)> {
    let (id, rx) = queue.submit(client, req).map_err(msg)?;
    Ok((id.0, rx))
}

/// What the client saw of one job, in event order.
pub enum JobStep {
    /// The model is ready; names the layer that served it: a cache tier
    /// (`service.model.{memory,disk,coalesced}`) or an extraction
    /// (`service.model.miss`).
    Model(&'static str),
    /// Finished with these outcomes.
    Done(Vec<SsnOutcome>),
    /// Finished with an error.
    Failed(String),
    /// Queued or progress: nothing to record.
    Other,
}

/// Classifies one streamed job event.
pub fn job_step(event: JobEvent) -> JobStep {
    match event {
        JobEvent::ExtractionCacheMiss { .. } => JobStep::Model("service.model.miss"),
        JobEvent::ExtractionCacheHit { tier, .. } => JobStep::Model(match tier {
            CacheOutcome::MemoryHit => "service.model.memory",
            CacheOutcome::DiskHit => "service.model.disk",
            CacheOutcome::Coalesced => "service.model.coalesced",
            CacheOutcome::Extracted => "service.model.miss",
        }),
        JobEvent::Done { result, .. } => JobStep::Done(match result {
            AnalysisResult::Transient(out) => vec![*out],
            AnalysisResult::Scenarios(outs) => outs,
            other => return JobStep::Failed(format!("unexpected result {other:?}")),
        }),
        JobEvent::Failed { error, .. } => JobStep::Failed(error),
        JobEvent::Queued { .. } | JobEvent::Progress { .. } => JobStep::Other,
    }
}
