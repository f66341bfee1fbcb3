//! Line-delimited TCP frontend to a [`JobQueue`].
//!
//! The wire format is deliberately primitive — one ASCII line per
//! request, one per event — so `nc` is a sufficient client and no
//! serialization of [`pdn_core::BoardSpec`] ever crosses the network.
//! Boards are referenced by the *named seed geometries* in
//! [`pdn_core::boards`] plus a mesh pitch; anything fancier should use
//! the in-process [`JobQueue`] API directly.
//!
//! ```text
//! → SWEEP <board> <cell_inch> <selection> <count,count,...> <t_stop> <dt>
//! → TRANSIENT <board> <cell_inch> <selection> <switching> <t_stop> <dt>
//! → STATS
//! → QUIT
//! ← JOB <id>                          (submission accepted)
//! ← EVENT <id> QUEUED <client>
//! ← EVENT <id> CACHE_HIT <tier>  |  EVENT <id> CACHE_MISS
//! ← EVENT <id> PROGRESS <stage>
//! ← EVENT <id> DONE <payload>
//! ← EVENT <id> FAILED <message>
//! ← STATS <counters>
//! ← ERR <message>                     (request never became a job)
//! ```
//!
//! `<board>` ∈ `ssn_study_a` | `post_layout_study_b`; `<selection>` ∈
//! `ports` | `grid:<stride>` | `all`. A `SWEEP` `DONE` payload is
//! `count:peak_noise` pairs. Each connection is one fair-queueing client
//! (keyed by peer address), so a busy neighbor cannot starve you.
//!
//! A request line longer than 4096 bytes is answered with
//! `ERR request line exceeds 4096 bytes` and closes the connection.

use crate::queue::{AnalysisRequest, JobEvent, JobQueue};
use crate::store::CacheOutcome;
use pdn_core::{boards, BoardSpec};
use pdn_extract::NodeSelection;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// A listening analysis server. Dropping it stops accepting connections
/// (jobs already queued still drain through the [`JobQueue`]).
pub struct PdnServer {
    queue: Arc<JobQueue>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl PdnServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections, each served by its own thread against `queue`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, queue: Arc<JobQueue>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("pdn-service-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let queue = Arc::clone(&queue);
                        let _ = thread::Builder::new()
                            .name("pdn-service-conn".into())
                            .spawn(move || serve_connection(stream, &queue));
                    }
                })?
        };
        Ok(PdnServer {
            queue,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The queue this server feeds.
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }
}

impl Drop for PdnServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Longest request line accepted, in bytes, newline excluded. Bounds
/// what one client can make the server buffer.
const MAX_REQUEST_LINE: usize = 4096;

/// A request line longer than [`MAX_REQUEST_LINE`] bytes.
#[derive(Debug, PartialEq)]
struct LineTooLong;

/// Reads one `\n`-terminated line, consuming at most
/// `MAX_REQUEST_LINE + 1` bytes. `Ok(None)` means the connection is done:
/// end of stream, a read error, or a line that is not UTF-8.
fn read_request_line(reader: &mut impl BufRead) -> Result<Option<String>, LineTooLong> {
    let mut buf = Vec::new();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
        Ok(0) | Err(_) => return Ok(None),
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_REQUEST_LINE {
        return Err(LineTooLong);
    }
    Ok(String::from_utf8(buf).ok())
}

/// Errors rendered to the client as `ERR <message>`.
fn parse_board(name: &str, cell_inch: f64) -> Result<BoardSpec, String> {
    match name {
        "ssn_study_a" => boards::ssn_study_a_board(cell_inch)
            .map_err(|e| format!("ssn_study_a at cell {cell_inch}in: {e}")),
        "post_layout_study_b" => boards::post_layout_study_b_board(cell_inch)
            .map_err(|e| format!("post_layout_study_b at cell {cell_inch}in: {e}")),
        other => Err(format!(
            "unknown board '{other}' (expected ssn_study_a or post_layout_study_b)"
        )),
    }
}

fn parse_selection(s: &str) -> Result<NodeSelection, String> {
    match s {
        "ports" => Ok(NodeSelection::PortsOnly),
        "all" => Ok(NodeSelection::All),
        _ => match s.strip_prefix("grid:") {
            Some(stride) => stride
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(|stride| NodeSelection::PortsAndGrid { stride })
                .ok_or_else(|| format!("bad grid stride in '{s}'")),
            None => Err(format!(
                "unknown selection '{s}' (expected ports, grid:<stride>, or all)"
            )),
        },
    }
}

fn parse_f64(what: &str, s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("bad {what} '{s}'"))
}

/// Parses one request line into an [`AnalysisRequest`].
fn parse_request(line: &str) -> Result<AnalysisRequest, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["SWEEP", board, cell, selection, counts, t_stop, dt] => {
            let cell_inch = parse_f64("cell size", cell)?;
            let counts = counts
                .split(',')
                .filter(|c| !c.is_empty())
                .map(|c| c.parse::<usize>().map_err(|_| format!("bad count '{c}'")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(AnalysisRequest::SwitchingSweep {
                board: parse_board(board, cell_inch)?,
                selection: parse_selection(selection)?,
                counts,
                t_stop: parse_f64("t_stop", t_stop)?,
                dt: parse_f64("dt", dt)?,
            })
        }
        ["TRANSIENT", board, cell, selection, switching, t_stop, dt] => {
            let cell_inch = parse_f64("cell size", cell)?;
            Ok(AnalysisRequest::Transient {
                board: parse_board(board, cell_inch)?,
                selection: parse_selection(selection)?,
                switching: switching
                    .parse()
                    .map_err(|_| format!("bad switching count '{switching}'"))?,
                t_stop: parse_f64("t_stop", t_stop)?,
                dt: parse_f64("dt", dt)?,
            })
        }
        [] => Err("empty request".into()),
        [verb, ..] => Err(format!(
            "unknown request '{verb}' (expected SWEEP, TRANSIENT, STATS, or QUIT)"
        )),
    }
}

fn render_event(event: &JobEvent) -> String {
    match event {
        JobEvent::Queued { job, client } => format!("EVENT {} QUEUED {client}", job.0),
        JobEvent::ExtractionCacheHit { job, tier } => {
            let tier = match tier {
                CacheOutcome::MemoryHit => "memory",
                CacheOutcome::DiskHit => "disk",
                CacheOutcome::Coalesced => "coalesced",
                CacheOutcome::Extracted => "extracted",
            };
            format!("EVENT {} CACHE_HIT {tier}", job.0)
        }
        JobEvent::ExtractionCacheMiss { job } => format!("EVENT {} CACHE_MISS", job.0),
        JobEvent::Progress { job, stage } => format!("EVENT {} PROGRESS {stage}", job.0),
        JobEvent::Done { job, result } => {
            let payload = match result {
                crate::queue::AnalysisResult::Sweep(rows) => rows
                    .iter()
                    .map(|(n, v)| format!("{n}:{v:.6e}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                crate::queue::AnalysisResult::Transient(out) => {
                    format!("peak_noise {:.6e}", out.peak_noise)
                }
                crate::queue::AnalysisResult::Scenarios(outs) => outs
                    .iter()
                    .map(|o| format!("{:.6e}", o.peak_noise))
                    .collect::<Vec<_>>()
                    .join(" "),
                crate::queue::AnalysisResult::Decaps(plan) => format!(
                    "placed {} final_noise {:.6e}",
                    plan.chosen.len(),
                    plan.final_noise()
                ),
            };
            format!("EVENT {} DONE {payload}", job.0)
        }
        JobEvent::Failed { job, error } => {
            format!("EVENT {} FAILED {}", job.0, error.replace('\n', " "))
        }
    }
}

fn serve_connection(stream: TcpStream, queue: &Arc<JobQueue>) {
    let client = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    // Event-forwarding threads interleave with command responses, one
    // line at a time.
    let writer = Arc::new(Mutex::new(stream));
    let write_line = |w: &Arc<Mutex<TcpStream>>, line: &str| {
        let mut w = w.lock().unwrap();
        let _ = writeln!(w, "{line}");
    };
    loop {
        let line = match read_request_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(LineTooLong) => {
                let msg = format!("ERR request line exceeds {MAX_REQUEST_LINE} bytes");
                write_line(&writer, &msg);
                break;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "QUIT" {
            break;
        }
        if trimmed == "STATS" {
            let s = queue.cache().stats();
            write_line(
                &writer,
                &format!(
                    "STATS memory_hits {} disk_hits {} extractions {} coalesced {} \
                     load_failures {}",
                    s.memory_hits, s.disk_hits, s.extractions, s.coalesced, s.load_failures
                ),
            );
            continue;
        }
        match parse_request(trimmed).map_err(|e| e.to_string()) {
            Err(msg) => write_line(&writer, &format!("ERR {msg}")),
            Ok(request) => match queue.submit(&client, request) {
                Err(e) => write_line(&writer, &format!("ERR {e}")),
                Ok((id, events)) => {
                    write_line(&writer, &format!("JOB {}", id.0));
                    let writer = Arc::clone(&writer);
                    let _ = thread::Builder::new()
                        .name("pdn-service-events".into())
                        .spawn(move || {
                            for event in events {
                                let line = render_event(&event);
                                let mut w = writer.lock().unwrap();
                                if writeln!(w, "{line}").is_err() {
                                    break;
                                }
                            }
                        });
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_are_bounded() {
        // A 64 KiB line with no newline is refused after reading at most
        // one byte past the limit.
        let long = vec![b'A'; 64 * 1024];
        let mut input: &[u8] = &long;
        assert_eq!(read_request_line(&mut input), Err(LineTooLong));
        assert!(long.len() - input.len() <= MAX_REQUEST_LINE + 1);

        // A line of exactly the limit is accepted, as is a normal request.
        let mut at_limit = vec![b'B'; MAX_REQUEST_LINE];
        at_limit.push(b'\n');
        let mut input: &[u8] = &at_limit;
        assert_eq!(
            read_request_line(&mut input),
            Ok(Some("B".repeat(MAX_REQUEST_LINE)))
        );
        let mut input: &[u8] = b"SWEEP ssn_study_a 0.5 ports 1,2 2e-9 1e-11\nQUIT";
        let Ok(Some(line)) = read_request_line(&mut input) else {
            panic!("normal request line refused");
        };
        assert!(matches!(
            parse_request(&line),
            Ok(AnalysisRequest::SwitchingSweep { .. })
        ));
        assert_eq!(read_request_line(&mut input), Ok(Some("QUIT".into())));
        assert_eq!(read_request_line(&mut input), Ok(None));
    }
}
