//! End-to-end PDN benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <study_a_flow|board_1120|hp_plane_sweep|service_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed (set-up, timed apart),
//! then runs whole passes of the workload until the next pass would
//! overrun `--seconds`, then checks its outputs untimed. Every metric is
//! printed as a `metric` line with its unit and sample count; the last
//! line of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A failed check
//! or library call makes the command exit with code 1.

mod adapter;
mod board;
mod hp_plane;
mod service;
mod stats;
mod study_a;
mod trace;

use adapter::Res;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// How many times each workload builds its inputs; `setup_s` is the median.
const SETUP_REPS: usize = 101;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Output checks: each one counts as an attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What a workload hands back to the harness.
#[derive(Default)]
pub struct Outcome {
    /// Durations of each input build (s).
    pub setup: Vec<f64>,
    /// Durations of each measured pass (s).
    pub passes: Vec<f64>,
    /// Library operations attempted and failed in the measured passes.
    pub ops: usize,
    pub ops_failed: usize,
    /// The workload's own end-to-end metrics.
    pub metrics: Vec<Metric>,
    /// The workload's per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub checks: Checks,
    /// Peak resident set (MiB) after set-up and the first timed pass.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Records the resident-set peak (VmHWM) of set-up and one pass:
    /// later passes re-use freed pages unevenly, and the untimed checks
    /// allocate their own references.
    pub fn mark_peak_memory(&mut self) {
        self.peak_rss_mb = peak_rss_mb();
    }
}

/// Command-line settings shared by all workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Builds a workload's inputs `SETUP_REPS` times, returning the last
/// build and every duration.
pub fn timed_setup<T>(mut build: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let v = build()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Runs whole passes until the next one would overrun `seconds` (at
/// least one), recording their durations in `out.passes` and the memory
/// peak after the first one. Each pass is one root span when traced.
pub fn passes(seconds: f64, out: &mut Outcome, mut pass: impl FnMut() -> Res<()>) -> Res<()> {
    let mut total = 0.0;
    loop {
        trace::set_recording(true);
        let t = Instant::now();
        let r = trace::span("pass", &mut pass);
        let d = t.elapsed().as_secs_f64();
        trace::set_recording(false);
        r?;
        if out.passes.is_empty() {
            out.mark_peak_memory();
        }
        out.passes.push(d);
        total += d;
        if total + d > seconds {
            return Ok(());
        }
    }
}

/// Median duration of the spans named `span`, as metric `name`.
pub fn layer_p50(layers: &trace::Layers, span: &str, name: &str) -> Metric {
    let d = layers.get(span).map_or(&[][..], |l| &l.durations[..]);
    Metric::new(name, stats::median(d), "s", d.len())
}

/// Total duration per pass of the spans named `span`, as metric `name`.
pub fn layer_total(layers: &trace::Layers, span: &str, name: &str, passes: usize) -> Metric {
    let d = layers.get(span).map_or(&[][..], |l| &l.durations[..]);
    Metric::new(
        name,
        d.iter().sum::<f64>() / passes.max(1) as f64,
        "s",
        d.len(),
    )
}

/// Where traces and the last untraced wall time are written.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const WORKLOADS: [&str; 4] = [
    "study_a_flow",
    "board_1120",
    "hp_plane_sweep",
    "service_fleet",
];

/// Layer classes of the per-layer summary that every workload reports:
/// the extraction chain (kernel fill, factorization, reduction) and the
/// analyses run on its result (transient, sweeps, FDTD reference).
fn layer_class(span: &str) -> Option<&'static str> {
    match span {
        "core.extract_model"
        | "core.extract"
        | "bem.assemble.dense"
        | "bem.assemble.aca"
        | "extract.from_bem.dense"
        | "extract.from_bem.aca"
        | "service.model.miss" => Some("extract"),
        "circuit.transient"
        | "core.switching_sweep"
        | "bem.sweep"
        | "extract.sweep"
        | "verify.fdtd"
        | "verify.transient"
        | "service.simulate" => Some("simulate"),
        _ => None,
    }
}

/// The per-layer metrics the JSON line carries in traced runs: per pass,
/// the calls into each layer class and their self time. Each class's
/// share of all traced self time (concurrent service clients each add
/// their own) is printed beside them.
fn class_metrics(spans: &[trace::Span], passes: usize) -> Vec<Metric> {
    let n = passes.max(1) as f64;
    let layers = trace::layers(spans);
    let traced: f64 = layers.values().map(|l| l.self_s).sum();
    let mut out = Vec::new();
    for class in ["extract", "simulate"] {
        let (mut calls, mut self_s) = (0usize, 0.0);
        for (name, l) in &layers {
            if layer_class(name) == Some(class) {
                calls += l.durations.len();
                self_s += l.self_s;
            }
        }
        out.push(Metric::new(
            format!("{class}.calls"),
            calls as f64 / n,
            "count",
            passes,
        ));
        out.push(Metric::new(
            format!("{class}.self_s"),
            self_s / n,
            "s",
            passes,
        ));
        println!(
            "share: {class} layers {} of traced self time",
            self_s / traced
        );
    }
    out
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        args.insert(key, value);
    }
    let get = |k: &str| args.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok((
        workload,
        Ctx {
            seed,
            seconds,
            traced,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if ctx.traced {
        trace::enable();
    }
    let result = match workload.as_str() {
        "study_a_flow" => study_a::run(&ctx),
        "board_1120" => board::run(&ctx),
        "hp_plane_sweep" => hp_plane::run(&ctx),
        _ => service::run(&ctx),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e-bench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    report(&workload, &ctx, out)
}

fn report(workload: &str, ctx: &Ctx, out: Outcome) -> ExitCode {
    let wall = stats::median(&out.passes);
    let attempted = out.ops + out.checks.attempted;
    let failed = out.ops_failed + out.checks.failures.len();
    let e2e = [
        Metric::new("setup_s", stats::median(&out.setup), "s", out.setup.len()),
        Metric::new("wall_s", wall, "s", out.passes.len()),
        Metric::new("peak_rss_mb", out.peak_rss_mb, "MiB", 1),
    ];
    let extra = out.metrics;
    println!(
        "workload {workload} seed {} traced {} pass_s {:?}",
        ctx.seed, ctx.traced, out.passes
    );
    println!(
        "metric failed_ratio = {} ratio (n={attempted}: {} operations + {} checks)",
        failed as f64 / attempted.max(1) as f64,
        out.ops,
        out.checks.attempted
    );
    for m in e2e.iter().chain(&extra) {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let wall_file = out_dir().join(format!("{workload}.untraced_wall_s"));
    let mut json_metrics: Vec<&Metric> = Vec::new();
    let class;
    if ctx.traced {
        let spans = trace::spans();
        class = class_metrics(&spans, out.passes.len());
        for m in out.layers.iter().chain(&class) {
            println!(
                "layer {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        match std::fs::read_to_string(&wall_file)
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
        {
            Some(untraced) => println!(
                "tracing overhead: traced wall_s {wall} - untraced wall_s {untraced} = {} s",
                wall - untraced
            ),
            None => println!("tracing overhead: no untraced run of {workload} recorded yet"),
        }
        let path = out_dir().join(format!("trace-{workload}-{}.json", ctx.seed));
        match std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, trace::to_json(workload, ctx.seed, &spans)))
        {
            Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("e2e-bench: could not write {}: {e}", path.display()),
        }
        json_metrics.extend(class.iter());
    } else {
        if std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&wall_file, format!("{wall}\n")))
            .is_err()
        {
            eprintln!("e2e-bench: could not record {}", wall_file.display());
        }
        json_metrics.extend(e2e.iter());
    }
    for f in &out.checks.failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "{}",
        json_line(failed == 0, attempted.max(1), failed, &json_metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
