//! `service_fleet`: a `pdn-service` job queue (2 workers, one thread
//! each) behind two closed-loop clients drawing study-A boards from a
//! pool of six, through a fresh on-disk extraction cache whose memory
//! tier holds two models — so one run writes on every miss, reads back
//! from disk with checksum, and serves memory hits.

use crate::adapter::{self, JobStep, Res};
use crate::stats::{self, Rng};
use crate::{layer_p50, out_dir, timed_setup, trace, Ctx, Metric, Outcome};
use pdn_core::prelude::{inch, BoardSpec, NodeSelection, Point, Scenario, SsnOutcome};
use pdn_service::JobQueue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const CELL_INCH: f64 = 0.5;
const BOARDS: usize = 6;
const SITES: usize = 4;
const WORKERS: usize = 2;
const MEMORY_MODELS: usize = 2;
/// The job kind and count of each client: a fleet of 104 jobs, 3
/// `Transient` to 1 `Scenarios`. One client sends every `Scenarios` job,
/// so two of them never run at once and the fleet's memory peak does not
/// depend on how the seed happens to align the clients.
const CLIENT_JOBS: [(Kind, usize); 2] = [(Kind::Transient, 78), (Kind::Scenarios, 26)];
const DRIVERS: usize = 16;
const T_STOP: f64 = 25e-9;
const DT: f64 = 0.05e-9;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Transient,
    Scenarios,
}

/// The 4 decap what-ifs of a `Scenarios` job: 0, 1, 2 and 4 of the
/// board's sites populated.
fn what_ifs() -> Vec<Scenario> {
    [0, 1, 2, 4]
        .iter()
        .map(|&k| adapter::decap_scenario(DRIVERS, k))
        .collect()
}

fn scenarios_of(kind: Kind) -> Vec<Scenario> {
    match kind {
        Kind::Transient => vec![Scenario::switching(DRIVERS)],
        Kind::Scenarios => what_ifs(),
    }
}

struct Inputs {
    boards: Vec<BoardSpec>,
    plan: Vec<Vec<(usize, Kind)>>,
    queue: JobQueue,
    dir: PathBuf,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        self.queue.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(seed: u64, rep: &mut usize) -> Res<Inputs> {
    let base = adapter::study_a_board(CELL_INCH)?;
    // Six distinct decap-site plans: 4-site rings of growing radius,
    // each turned a further 15 degrees.
    let boards = (0..BOARDS)
        .map(|b| {
            let sites: Vec<Point> = (0..SITES)
                .map(|k| {
                    let ang = (k as f64 * 90.0 + b as f64 * 15.0).to_radians();
                    let r = inch(0.6 + 0.1 * b as f64);
                    Point::new(inch(5.0) + r * ang.cos(), inch(3.5) + r * ang.sin())
                })
                .collect();
            adapter::with_sites(&base, &sites)
        })
        .collect();
    // Each client's first 3 jobs cover a seed-shuffled half of the pool,
    // so every fleet extracts each board once, two at a time, before the
    // clients draw uniformly by seed.
    let mut rng = Rng::new(seed);
    let mut deck: Vec<usize> = (0..BOARDS).collect();
    for i in (1..BOARDS).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    let first = BOARDS / CLIENT_JOBS.len();
    let plan = CLIENT_JOBS
        .iter()
        .enumerate()
        .map(|(c, &(kind, jobs))| {
            (0..jobs)
                .map(|i| {
                    let board = if i < first {
                        deck[c * first + i]
                    } else {
                        rng.below(BOARDS)
                    };
                    (board, kind)
                })
                .collect()
        })
        .collect();
    *rep += 1;
    let dir = out_dir().join(format!("cache-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
    let queue = adapter::job_queue(adapter::cache_at(&dir, MEMORY_MODELS), WORKERS);
    Ok(Inputs {
        boards,
        plan,
        queue,
        dir,
    })
}

/// What one client saw of one job.
struct JobRecord {
    board: usize,
    kind: Kind,
    /// The layer that served the model (see `adapter::JobStep::Model`).
    tier: Option<&'static str>,
    latency: f64,
    result: Result<Vec<SsnOutcome>, String>,
}

/// One closed-loop client: submits its next job only after the previous
/// one finished.
fn client(inp: &Inputs, c: usize, sel: NodeSelection) -> Res<Vec<JobRecord>> {
    let name = format!("client{c}");
    let mut records = Vec::new();
    for &(board, kind) in &inp.plan[c] {
        let b = &inp.boards[board];
        let req = match kind {
            Kind::Transient => adapter::transient_request(b, sel, DRIVERS, T_STOP, DT),
            Kind::Scenarios => adapter::scenarios_request(b, sel, what_ifs(), T_STOP, DT),
        };
        let submitted = Instant::now();
        let (id, events) = adapter::submit(&inp.queue, &name, req)?;
        let (mut tier, mut modeled) = (None, submitted);
        let mut result = Err("event stream ended without Done".to_string());
        for event in events {
            match adapter::job_step(event) {
                JobStep::Model(layer) => (tier, modeled) = (Some(layer), Instant::now()),
                JobStep::Done(outs) => {
                    result = Ok(outs);
                    break;
                }
                JobStep::Failed(e) => {
                    result = Err(e);
                    break;
                }
                JobStep::Other => {}
            }
        }
        let done = Instant::now();
        let root = trace::record("service.job", submitted, done, None, id);
        if let Some(layer) = tier {
            trace::record(layer, submitted, modeled, root, id);
        }
        trace::record("service.simulate", modeled, done, root, id);
        records.push(JobRecord {
            board,
            kind,
            tier,
            latency: (done - submitted).as_secs_f64(),
            result,
        });
    }
    Ok(records)
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    // One thread per worker keeps the fleet within 2 busy threads.
    std::env::set_var("PDN_THREADS", "1");
    let sel = NodeSelection::PortsAndGrid { stride: 4 };
    let mut out = Outcome::default();
    let mut rep = 0;
    let (inp, setup_times) = timed_setup(|| setup(ctx.seed, &mut rep))?;
    out.setup = setup_times;

    trace::set_recording(true);
    let start = Instant::now();
    let per_client: Vec<Res<Vec<JobRecord>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_JOBS.len())
            .map(|c| {
                let inp = &inp;
                s.spawn(move || client(inp, c, sel))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    trace::set_recording(false);
    out.mark_peak_memory();
    let cache = adapter::cache_stats(&inp.queue);
    let records: Vec<JobRecord> = per_client
        .into_iter()
        .collect::<Res<Vec<_>>>()?
        .into_iter()
        .flatten()
        .collect();
    out.passes = vec![wall];
    out.ops = records.len();
    out.ops_failed = records.iter().filter(|r| r.result.is_err()).count();
    let done: Vec<f64> = records
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.latency)
        .collect();
    out.metrics = vec![
        Metric::new("job_p50_s", stats::median(&done), "s", done.len()),
        Metric::new("job_p90_s", stats::quantile(&done, 0.9), "s", done.len()),
        Metric::new("jobs_per_s", done.len() as f64 / wall, "1/s", done.len()),
    ];

    // Cold references, computed after the fleet with default threading:
    // results are bit-identical for any PDN_THREADS.
    std::env::remove_var("PDN_THREADS");
    let mut seen: BTreeMap<usize, Vec<Kind>> = BTreeMap::new();
    for r in &records {
        let kinds = seen.entry(r.board).or_default();
        if !kinds.contains(&r.kind) {
            kinds.push(r.kind);
        }
    }
    let mut cold: BTreeMap<(usize, Kind), Vec<SsnOutcome>> = BTreeMap::new();
    for (&b, kinds) in &seen {
        let lists: Vec<Vec<Scenario>> = kinds.iter().map(|&k| scenarios_of(k)).collect();
        let outs = adapter::batch_runs(&inp.boards[b], &sel, &lists, T_STOP, DT)?;
        for (&k, o) in kinds.iter().zip(outs) {
            cold.insert((b, k), o);
        }
    }
    for r in &records {
        match &r.result {
            Ok(outs) => out
                .checks
                .check(Some(outs) == cold.get(&(r.board, r.kind)), || {
                    format!(
                        "result for board {} ({:?}, model from {:?}) differs from the cold result",
                        r.board, r.kind, r.tier
                    )
                }),
            Err(e) => println!("job failed: {e}"),
        }
    }
    out.checks.check(cache.load_failures == 0, || {
        format!("{} cache files failed to load", cache.load_failures)
    });

    if ctx.traced {
        let l = trace::layers(&trace::spans());
        let hits = cache.memory_hits + cache.disk_hits + cache.coalesced;
        let lookups = hits + cache.extractions;
        println!("service.cache.hit_ratio base: {hits} hits of {lookups} lookups");
        out.layers = vec![
            layer_p50(&l, "service.model.memory", "service.model.memory.p50_s"),
            layer_p50(&l, "service.model.disk", "service.model.disk.p50_s"),
            layer_p50(&l, "service.model.miss", "service.model.miss.p50_s"),
            layer_p50(&l, "service.simulate", "service.simulate.p50_s"),
            Metric::new(
                "service.cache.memory_hits",
                cache.memory_hits as f64,
                "count",
                1,
            ),
            Metric::new(
                "service.cache.disk_hits",
                cache.disk_hits as f64,
                "count",
                1,
            ),
            Metric::new(
                "service.cache.extractions",
                cache.extractions as f64,
                "count",
                1,
            ),
            Metric::new(
                "service.cache.coalesced",
                cache.coalesced as f64,
                "count",
                1,
            ),
            Metric::new(
                "service.cache.load_failures",
                cache.load_failures as f64,
                "count",
                1,
            ),
            Metric::new(
                "service.cache.hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
                lookups,
            ),
        ];
    }
    Ok(out)
}
