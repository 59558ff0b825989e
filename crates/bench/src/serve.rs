//! `hpn-experiments serve` — a long-running, concurrent what-if server.
//!
//! The batch CLI answers one question per process: parse scenarios, run,
//! exit. A capacity-planning session asks dozens of variations of the same
//! question — "same fabric, this fault schedule instead", "same topology,
//! bigger batch" — and pays the topology + routing build cost every time.
//! `serve` keeps one process (and one [`ArtifactCache`]) alive across
//! requests, so repeat what-ifs reuse the built fabric, routing tables and
//! interned route set.
//!
//! The HTTP/1.1 server is hand-rolled on `std::net` — no new dependencies,
//! matching the repo's `telemetry::sha256` and TOML-subset precedents. One
//! thread accepts, one thread per connection parses and streams, and a
//! fixed pool of `--jobs` workers executes scenario cells through the
//! exact same machinery as `scenario run`
//! ([`crate::runner::run_cell_into`] + [`crate::runner::write_sweep_outputs`]).
//!
//! # Endpoints
//!
//! | method + path          | behaviour                                       |
//! |------------------------|-------------------------------------------------|
//! | `POST /scenario/check` | parse + cross-layer validate the TOML body      |
//! | `POST /scenario/run`   | execute; stream telemetry JSONL, then manifest  |
//! | `GET /status`          | queue depth and cache counters                  |
//! | `POST /shutdown`       | drain the queue and stop                        |
//!
//! A `/scenario/run` response is chunked: the cell's telemetry JSONL
//! streamed live while the simulation runs, then a
//! [`MANIFEST_SEPARATOR`] line, then the [`RunManifest`] JSON — the same
//! bytes `scenario run --out` writes to `<name>.telemetry.jsonl` and
//! `manifest.json`. **Determinism is the contract**: a serve response is
//! byte-identical to the batch CLI's output, cold or warm cache, at any
//! `--jobs` (`tests/serve.rs` and the
//! `scenario fuzz --serve` leg enforce this against an in-process oracle).
//!
//! [`RunManifest`]: hpn_telemetry::RunManifest

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hpn_scenario::{ArtifactCache, Scenario};
use hpn_telemetry::{replay, EventLog, EventStream, JsonlRecorder, Recorder, SharedBuf};

use crate::report::json_str;
use crate::runner::{run_cell_into, write_sweep_outputs, Cell, CellResult, RunPlan};
use crate::scenario_cli::{report_with_latency, report_with_latency_cached, LatencyMode};
use crate::Scale;

/// The line separating streamed telemetry JSONL from the manifest JSON in
/// a `/scenario/run` response body (the separator is followed by `\n`).
pub const MANIFEST_SEPARATOR: &str = "---manifest---";

/// Scenario bodies above this size are rejected with `413` before any
/// parsing or cache access — a scenario TOML is a config file, not a bulk
/// upload.
pub const MAX_BODY: usize = 1 << 20;

const MAX_HEADER: usize = 16 * 1024;

/// Server configuration (the `serve` subcommand's flags).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads executing scenario cells (`--jobs`).
    pub jobs: usize,
    /// Fidelity of every cell (`--quick`).
    pub scale: Scale,
    /// Only for the frozen `benchmark/` package; drop in its next change.
    /// Must be `false`: [`Server::spawn`] rejects `true`.
    pub share_memo: bool,
}

impl ServeConfig {
    /// Defaults: one worker, quick scale.
    pub fn new() -> Self {
        ServeConfig {
            jobs: 1,
            scale: Scale::Quick,
            share_memo: false,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    cache: ArtifactCache,
    scale: Scale,
    jobs: usize,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    active: AtomicUsize,
    completed: AtomicU64,
    connections: AtomicUsize,
}

/// One queued `/scenario/run` request.
struct Job {
    sc: Scenario,
    /// The cell's capture log; the connection thread holds a clone and
    /// streams from it while the worker appends.
    log: EventLog,
    state: Arc<JobCell>,
}

enum JobState {
    Queued,
    Running,
    Done(Box<CellResult>),
    Failed(String),
    /// The connection thread took the result.
    Taken,
}

struct JobCell {
    state: Mutex<JobState>,
    done: Condvar,
}

impl Default for JobCell {
    fn default() -> Self {
        JobCell {
            state: Mutex::new(JobState::Queued),
            done: Condvar::new(),
        }
    }
}

/// A running serve instance. [`Server::spawn`] binds and returns
/// immediately; [`Server::join`] blocks until shutdown (triggered by
/// `POST /shutdown` or [`Server::stop`]), drains queued jobs, and joins
/// every thread. Tests spawn on `127.0.0.1:0` and talk to
/// [`Server::addr`] in-process.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start the accept loop plus `config.jobs` workers.
    /// A `config.share_memo` of `true` is an [`io::ErrorKind::InvalidInput`]
    /// error: there is no memo left to share.
    pub fn spawn(addr: &str, config: ServeConfig) -> io::Result<Server> {
        if config.share_memo {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "share_memo is not supported: no allocator keeps a memo",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ArtifactCache::new(),
            scale: config.scale,
            jobs: config.jobs.max(1),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
        });
        let workers = (0..shared.jobs)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker(&s))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let s = Arc::clone(&accept_shared);
                s.connections.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let _guard = ConnGuard(&s);
                    let _ = handle_connection(&s, stream, local);
                });
            }
        });
        Ok(Server {
            addr: local,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the artifact-cache counters (what `GET /status`
    /// reports), for in-process assertions.
    pub fn cache_stats(&self) -> hpn_scenario::CacheStats {
        self.shared.cache.stats()
    }

    /// Trigger shutdown from in-process (equivalent to `POST /shutdown`).
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        // Unblock the accept loop if it is parked in `accept()`.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until shutdown, then join the accept loop, the workers (which
    /// drain any queued jobs first) and in-flight connection threads.
    pub fn join(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Connection threads are detached; wait (bounded) for the ones
        // still writing a response.
        for _ in 0..1000 {
            if self.shared.connections.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Decrements the live-connection count even if the handler panics (e.g. a
/// client hangs up mid-stream and a telemetry write fails).
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("serve queue");
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.available.wait(q).expect("serve queue");
            }
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        *job.state.state.lock().expect("job state") = JobState::Running;
        let cell = Cell {
            index: 0,
            figure: job.sc.name.clone(),
            seed: None,
        };
        let sc = job.sc.clone();
        let cache_shared = Arc::clone(shared);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_cell_into(&cell, shared.scale, job.log.clone(), move |ctx, scale| {
                report_with_latency_cached(ctx, &sc, scale, LatencyMode::Off, &cache_shared.cache)
            })
        }));
        {
            let mut st = job.state.state.lock().expect("job state");
            *st = match outcome {
                Ok(r) => JobState::Done(Box::new(r)),
                Err(p) => JobState::Failed(panic_message(&p)),
            };
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.completed.fetch_add(1, Ordering::SeqCst);
        job.state.done.notify_all();
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "scenario execution panicked".to_string()
    }
}

// ---------------------------------------------------------------- HTTP --

struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn respond_error(stream: &mut TcpStream, e: &HttpError) -> io::Result<()> {
    let body = format!("{{\"ok\":false,\"error\":{}}}", json_str(&e.message));
    respond(stream, e.status, &body)
}

/// Read one request: request line, headers, then a `Content-Length` body.
/// The size caps apply *before* the body is read, so an oversized upload is
/// rejected without buffering it.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| HttpError::new(400, format!("bad request line: {e}")))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "request line missing path"))?
        .to_string();
    let mut content_length: Option<usize> = None;
    let mut header_bytes = line.len();
    loop {
        let mut h = String::new();
        reader
            .read_line(&mut h)
            .map_err(|e| HttpError::new(400, format!("bad header: {e}")))?;
        header_bytes += h.len();
        if header_bytes > MAX_HEADER {
            return Err(HttpError::new(400, "headers too large"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| HttpError::new(400, "unparsable Content-Length"))?,
                );
            }
        }
    }
    let body = match content_length {
        // No Content-Length and no Transfer-Encoding means no body
        // (RFC 7230 §3.3.3) — what `curl -X POST` sends to /shutdown.
        None => Vec::new(),
        Some(n) if n > MAX_BODY => {
            return Err(HttpError::new(
                413,
                format!("body of {n} bytes exceeds the {MAX_BODY}-byte limit"),
            ));
        }
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader
                .read_exact(&mut buf)
                .map_err(|e| HttpError::new(400, format!("short body: {e}")))?;
            buf
        }
    };
    Ok(Request { method, path, body })
}

fn parse_scenario(body: &[u8]) -> Result<Scenario, HttpError> {
    let text =
        std::str::from_utf8(body).map_err(|_| HttpError::new(400, "scenario body is not UTF-8"))?;
    let sc = Scenario::parse_toml(text).map_err(|e| HttpError::new(400, e.to_string()))?;
    sc.check().map_err(|e| HttpError::new(400, e.to_string()))?;
    Ok(sc)
}

fn status_json(shared: &Shared) -> String {
    let c = shared.cache.stats();
    format!(
        "{{\"jobs\":{},\"queue_depth\":{},\"active\":{},\"completed\":{},\
         \"cache\":{{\"topology_hits\":{},\"topology_misses\":{},\
         \"router_hits\":{},\"router_misses\":{},\
         \"path_hits\":{},\"path_misses\":{},\"harvests\":{}}}}}",
        shared.jobs,
        shared.queue.lock().expect("serve queue").len(),
        shared.active.load(Ordering::SeqCst),
        shared.completed.load(Ordering::SeqCst),
        c.topology_hits,
        c.topology_misses,
        c.router_hits,
        c.router_misses,
        c.path_hits,
        c.path_misses,
        c.harvests,
    )
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, local: SocketAddr) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let req = match read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let sent = respond_error(&mut writer, &e);
            drain_rejected(reader);
            return sent;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/status") => respond(&mut writer, 200, &status_json(shared)),
        ("POST", "/shutdown") => {
            respond(&mut writer, 200, "{\"ok\":true,\"shutting_down\":true}")?;
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.available.notify_all();
            // Unblock the accept loop so it observes the flag.
            let _ = TcpStream::connect(local);
            Ok(())
        }
        ("POST", "/scenario/check") => match parse_scenario(&req.body) {
            Ok(sc) => respond(
                &mut writer,
                200,
                &format!("{{\"ok\":true,\"name\":{}}}", json_str(&sc.name)),
            ),
            Err(e) => respond_error(&mut writer, &e),
        },
        ("POST", "/scenario/run") => match parse_scenario(&req.body) {
            Ok(sc) => stream_run(shared, writer, sc),
            Err(e) => respond_error(&mut writer, &e),
        },
        (_, "/status" | "/shutdown" | "/scenario/check" | "/scenario/run") => respond_error(
            &mut writer,
            &HttpError::new(405, format!("{} not allowed on {}", req.method, req.path)),
        ),
        (_, path) => respond_error(
            &mut writer,
            &HttpError::new(404, format!("no route {path}")),
        ),
    }
}

/// Discard what remains of a rejected request body (bounded, with a read
/// timeout) before the connection closes. Closing with unread bytes in the
/// socket makes the kernel send RST, which can destroy the error response
/// before the client reads it.
fn drain_rejected(reader: BufReader<TcpStream>) {
    let mut stream = reader.into_inner();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut sink = [0u8; 8192];
    let mut budget = 8 * MAX_BODY;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

/// Execute a validated scenario as a queued cell and stream the response:
/// telemetry JSONL live while the cell runs, then the manifest. The bytes
/// are those of `scenario run --out`: the JSONL part equals
/// `<name>.telemetry.jsonl`, the manifest part equals `manifest.json`.
fn stream_run(shared: &Arc<Shared>, mut stream: TcpStream, sc: Scenario) -> io::Result<()> {
    let log = EventLog::new();
    let state = Arc::new(JobCell::default());
    {
        let mut q = shared.queue.lock().expect("serve queue");
        if shared.shutdown.load(Ordering::SeqCst) {
            drop(q);
            return respond_error(&mut stream, &HttpError::new(503, "server is shutting down"));
        }
        q.push_back(Job {
            sc,
            log: log.clone(),
            state: Arc::clone(&state),
        });
    }
    shared.available.notify_one();

    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    let mut cursor = EventStream::new(log);
    let mut jsonl = JsonlRecorder::new(ChunkedWriter::new(stream));
    let outcome = loop {
        if cursor.pump(&mut jsonl) > 0 {
            Recorder::flush(&mut jsonl);
        }
        let st = state.state.lock().expect("job state");
        match &*st {
            JobState::Done(_) => {
                let mut st = st;
                let JobState::Done(r) = std::mem::replace(&mut *st, JobState::Taken) else {
                    unreachable!("matched Done above");
                };
                break Ok(r);
            }
            JobState::Failed(msg) => break Err(msg.clone()),
            JobState::Queued | JobState::Running | JobState::Taken => {
                let _ = state
                    .done
                    .wait_timeout(st, Duration::from_millis(10))
                    .expect("job state");
            }
        }
    };
    match outcome {
        Ok(result) => {
            cursor.finish(&result.events, &mut jsonl);
            let mut out = jsonl.into_inner();
            let plan = RunPlan {
                figures: vec![result.cell.figure.clone()],
                seeds: vec![None],
                scale: shared.scale,
            };
            let manifests = write_sweep_outputs(&plan, std::slice::from_ref(&result), None)
                .expect("no io without an output dir");
            out.write_all(MANIFEST_SEPARATOR.as_bytes())?;
            out.write_all(b"\n")?;
            out.write_all(manifests[0].to_json().as_bytes())?;
            out.finish()
        }
        Err(msg) => {
            // Headers are already on the wire; the error travels in-band as
            // the final line of the (aborted) stream.
            let mut out = jsonl.into_inner();
            out.write_all(format!("{{\"ok\":false,\"error\":{}}}\n", json_str(&msg)).as_bytes())?;
            out.finish()
        }
    }
}

/// `Transfer-Encoding: chunked` framing over a [`TcpStream`]: each `write`
/// becomes one chunk, [`finish`](ChunkedWriter::finish) emits the
/// terminating zero chunk.
struct ChunkedWriter {
    stream: TcpStream,
}

impl ChunkedWriter {
    fn new(stream: TcpStream) -> Self {
        ChunkedWriter { stream }
    }

    fn finish(mut self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl Write for ChunkedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        write!(self.stream, "{:x}\r\n", buf.len())?;
        self.stream.write_all(buf)?;
        self.stream.write_all(b"\r\n")?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

// -------------------------------------------------------------- client --

/// Minimal blocking HTTP/1.1 client for tests, CI smoke and the fuzz
/// oracle: one request per connection (the server always answers
/// `Connection: close`), chunked responses decoded. Returns
/// `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    // The server may reject mid-upload (e.g. 413 from the Content-Length
    // alone); the aborted write is fine as long as a response can still be
    // read off the socket.
    let sent = stream.write_all(body).and_then(|()| stream.flush());
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        if raw.is_empty() {
            return Err(sent.err().unwrap_or(e));
        }
    }
    parse_response(&raw)
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_response(raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head_end = find_subslice(raw, b"\r\n\r\n").ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 headers"))?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparsable status line"))?;
    let chunked = lines.any(|l| {
        l.split_once(':').is_some_and(|(n, v)| {
            n.eq_ignore_ascii_case("transfer-encoding") && v.trim().eq_ignore_ascii_case("chunked")
        })
    });
    let body = &raw[head_end + 4..];
    if chunked {
        Ok((status, dechunk(body)?))
    } else {
        Ok((status, body.to_vec()))
    }
}

fn dechunk(mut b: &[u8]) -> io::Result<Vec<u8>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut out = Vec::new();
    loop {
        let eol = find_subslice(b, b"\r\n").ok_or_else(|| bad("chunk size line unterminated"))?;
        let size_str = std::str::from_utf8(&b[..eol]).map_err(|_| bad("non-UTF-8 chunk size"))?;
        let size =
            usize::from_str_radix(size_str.trim(), 16).map_err(|_| bad("unparsable chunk size"))?;
        b = &b[eol + 2..];
        if size == 0 {
            return Ok(out);
        }
        if b.len() < size + 2 {
            return Err(bad("truncated chunk"));
        }
        out.extend_from_slice(&b[..size]);
        b = &b[size + 2..];
    }
}

/// Split a `/scenario/run` response body into
/// `(telemetry JSONL, manifest JSON)` at the [`MANIFEST_SEPARATOR`] line.
pub fn split_run_body(body: &[u8]) -> Option<(&[u8], &[u8])> {
    let sep = format!("{MANIFEST_SEPARATOR}\n");
    let pos = find_subslice(body, sep.as_bytes())?;
    Some((&body[..pos], &body[pos + sep.len()..]))
}

// -------------------------------------------------------------- oracle --

/// The in-process oracle's expected bytes for running `sc` as a batch
/// cell: `(telemetry JSONL, manifest JSON)` — exactly what
/// `scenario run --out` writes and what a `/scenario/run` response must
/// reproduce.
pub fn oracle_bytes(sc: &Scenario, scale: Scale) -> (Vec<u8>, String) {
    let cell = Cell {
        index: 0,
        figure: sc.name.clone(),
        seed: None,
    };
    let result = run_cell_into(&cell, scale, EventLog::new(), |ctx, scale| {
        report_with_latency(ctx, sc, scale, LatencyMode::Off)
    });
    let buf = SharedBuf::new();
    let mut sink = JsonlRecorder::new(buf.clone());
    replay(&result.events, &mut sink);
    let plan = RunPlan {
        figures: vec![cell.figure],
        seeds: vec![None],
        scale,
    };
    let manifests = write_sweep_outputs(&plan, std::slice::from_ref(&result), None)
        .expect("no io without an output dir");
    (buf.bytes(), manifests[0].to_json())
}

/// POST `sc` to a live server and require its response to be bitwise equal
/// to the in-process (cache-free) oracle — the serve determinism contract,
/// used by the `scenario fuzz --serve` leg and the serve test suite.
pub fn diff_vs_oracle(addr: SocketAddr, sc: &Scenario, scale: Scale) -> Result<(), String> {
    let toml = sc.to_toml();
    let (status, body) = request(addr, "POST", "/scenario/run", toml.as_bytes())
        .map_err(|e| format!("request failed: {e}"))?;
    if status != 200 {
        return Err(format!(
            "server answered {status}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    let (jsonl, manifest) =
        split_run_body(&body).ok_or_else(|| "response has no manifest separator".to_string())?;
    let (want_jsonl, want_manifest) = oracle_bytes(sc, scale);
    if jsonl != want_jsonl {
        return Err(format!(
            "telemetry drift: served {} bytes, oracle {} bytes",
            jsonl.len(),
            want_jsonl.len()
        ));
    }
    if manifest != want_manifest.as_bytes() {
        return Err(format!(
            "manifest drift: served {} bytes, oracle {} bytes",
            manifest.len(),
            want_manifest.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpn_scenario::{ModelId, TopologySpec, WorkloadSpec};
    use hpn_topology::HpnConfig;

    fn tiny_toml() -> String {
        Scenario::new("serve-test", TopologySpec::Hpn(HpnConfig::tiny()))
            .with_workload(WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64).gpu_secs(0.05))
            .to_toml()
    }

    fn spawn_quick(jobs: usize) -> Server {
        Server::spawn(
            "127.0.0.1:0",
            ServeConfig {
                jobs,
                scale: Scale::Quick,
                share_memo: false,
            },
        )
        .expect("bind loopback")
    }

    #[test]
    fn check_endpoint_accepts_and_rejects() {
        let server = spawn_quick(1);
        let (status, body) = request(
            server.addr(),
            "POST",
            "/scenario/check",
            tiny_toml().as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert!(String::from_utf8_lossy(&body).contains("\"ok\":true"));

        let (status, body) = request(server.addr(), "POST", "/scenario/check", b"name = ").unwrap();
        assert_eq!(status, 400);
        assert!(String::from_utf8_lossy(&body).contains("\"ok\":false"));
        server.stop();
        server.join();
    }

    #[test]
    fn unknown_route_and_wrong_method_are_structured_errors() {
        let server = spawn_quick(1);
        let (status, _) = request(server.addr(), "GET", "/nope", b"").unwrap();
        assert_eq!(status, 404);
        let (status, _) = request(server.addr(), "GET", "/scenario/run", b"").unwrap();
        assert_eq!(status, 405);
        server.stop();
        server.join();
    }

    #[test]
    fn status_reports_queue_and_cache_shape() {
        let server = spawn_quick(3);
        let (status, body) = request(server.addr(), "GET", "/status", b"").unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"jobs\":3"), "{text}");
        assert!(text.contains("\"topology_hits\":0"), "{text}");
        assert!(!text.contains("memo"), "{text}");
        server.stop();
        server.join();
    }

    #[test]
    fn share_memo_is_rejected() {
        let err = Server::spawn(
            "127.0.0.1:0",
            ServeConfig {
                share_memo: true,
                ..ServeConfig::new()
            },
        )
        .err()
        .expect("share_memo = true must not start a server");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn run_streams_oracle_identical_bytes() {
        let server = spawn_quick(2);
        let sc = Scenario::parse_toml(&tiny_toml()).unwrap();
        diff_vs_oracle(server.addr(), &sc, Scale::Quick).expect("cold run matches oracle");
        diff_vs_oracle(server.addr(), &sc, Scale::Quick).expect("warm run matches oracle");
        let stats = server.cache_stats();
        assert_eq!(stats.topology_hits, 1, "second run reused the fabric");
        assert_eq!(stats.path_hits, 1, "second run reused the route set");
        server.stop();
        server.join();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let server = spawn_quick(1);
        let addr = server.addr();
        let (status, _) = request(addr, "POST", "/shutdown", b"").unwrap();
        assert_eq!(status, 200);
        server.join();
        assert!(
            request(addr, "GET", "/status", b"").is_err(),
            "listener is gone after shutdown"
        );
    }

    #[test]
    fn dechunk_round_trips() {
        let framed = b"4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        assert_eq!(dechunk(framed).unwrap(), b"wikipedia");
        assert!(dechunk(b"zz\r\n").is_err());
    }

    #[test]
    fn split_run_body_finds_the_separator() {
        let body = b"{\"e\":1}\n---manifest---\n{\"m\":2}";
        let (j, m) = split_run_body(body).unwrap();
        assert_eq!(j, b"{\"e\":1}\n");
        assert_eq!(m, b"{\"m\":2}");
        assert!(split_run_body(b"no separator").is_none());
    }
}
