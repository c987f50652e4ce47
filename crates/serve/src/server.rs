//! The long-running TCP server.
//!
//! # Architecture
//!
//! ```text
//!             ┌────────────┐   mpsc    ┌──────────────┐
//!  clients ──▶│ accept loop │──────────▶│ worker pool  │──▶ Arc<Engine>
//!             │ (1 thread)  │  streams  │ (N threads)  │    (shared cache,
//!             └────────────┘           └──────────────┘     single-flight)
//! ```
//!
//! One thread accepts connections and hands each accepted stream to a
//! fixed-size worker pool over a channel; a worker owns a connection for its
//! lifetime, answering frames one at a time (clients may keep connections
//! open and pipeline requests). All workers share one
//! [`quclear_engine::Engine`], so every client sees the same warm template
//! cache, and concurrent compiles of the same structure are coalesced by the
//! engine's single-flight table instead of racing.
//!
//! # Robustness
//!
//! The server is built to survive its own requests:
//!
//! * every request is handled inside `catch_unwind` — a panicking
//!   compilation (or a bug anywhere in request handling) produces an
//!   `"panicked"` error *response* on that connection, and the worker, its
//!   siblings, and the engine keep serving (the engine's caches recover
//!   from lock poisoning by construction);
//! * a malformed frame or a dead socket only ends that one connection;
//! * shutdown is graceful: in-flight requests finish and are answered,
//!   workers drain, and [`Server::join`] returns only when every thread has
//!   exited — no leaks, no aborted writes.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Mutex, PoisonError};

use quclear_circuit::qasm::to_qasm;
use quclear_core::QuClearResult;
use quclear_engine::{CompiledTemplate, Deadline, Engine, EngineError, ENGINE_STAGE_METRIC};
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::protocol::{
    write_frame_with_limit, CompiledSummary, Request, RequestKind, Response, ResponseBody,
    StatsSummary, WireError, MAX_FRAME_BYTES,
};

/// Metric family: per-request-kind handling latency, in nanoseconds
/// (`kind` label = the wire name, e.g. `"compile"`).
pub const SERVE_REQUEST_METRIC: &str = "quclear_serve_request_duration_ns";

/// Metric family: frame payload sizes in bytes (`direction` label =
/// `"in"` for requests, `"out"` for responses).
pub const SERVE_FRAME_METRIC: &str = "quclear_serve_frame_bytes";

/// Metric family: error responses per request kind (`kind` label; decode
/// failures, which have no recoverable kind, count under `"unknown"`).
pub const SERVE_ERROR_METRIC: &str = "quclear_serve_errors_total";

/// Every wire name [`respond`] can attribute work to, including the
/// `"unknown"` bucket for frames whose kind never decoded.
const REQUEST_KIND_NAMES: [&str; 11] = [
    "compile",
    "sweep",
    "compile_qasm",
    "bind_qasm",
    "absorb",
    "estimate",
    "stats",
    "metrics",
    "health",
    "shutdown",
    "unknown",
];

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (each owns one connection at a time). Clamped to ≥ 1.
    pub workers: usize,
    /// Per-frame payload cap, applied to both reads and writes (an
    /// over-cap response degrades into a `response_too_large` error). Note
    /// the stock [`crate::Client`] reads with the [`MAX_FRAME_BYTES`]
    /// default, so raising this beyond that only helps custom clients.
    pub max_frame_bytes: usize,
    /// Whether a client `shutdown` request stops the server. Off by
    /// default: in shared deployments lifecycle belongs to the operator
    /// ([`Server::shutdown`]), not to any client with a socket.
    pub allow_remote_shutdown: bool,
    /// Close a connection after this long without a complete frame
    /// (`None` = never). Workers own their connection while serving it, so
    /// without a bound, `workers` idle clients would occupy the whole pool
    /// and newly accepted connections would queue forever. The same clock
    /// also bounds half-sent (stalled) frames.
    pub idle_timeout: Option<Duration>,
    /// Bounded admission: accepted connections waiting for a free worker
    /// beyond this count are **shed** — answered with a best-effort
    /// `overloaded` error frame and closed — instead of queueing without
    /// bound. Shedding keeps the time-in-system of admitted work bounded
    /// under overload (a deep queue serves every request, each uselessly
    /// late); shed clients are expected to back off and retry
    /// ([`crate::RetryPolicy`] does). Clamped to ≥ 1.
    pub max_queued_connections: usize,
    /// Cooperative per-request time budget (`None` = unbounded). The clock
    /// starts when a request frame has been read; the budget is checked
    /// between pipeline stages (never preempting a running extraction) and
    /// bounds how long a request may wait on another request's in-flight
    /// compilation. An exceeded budget is answered as a structured
    /// `deadline_exceeded` error on the request's id — a *transient* error:
    /// the compile it detached from keeps running and warms the cache, so a
    /// retry typically hits.
    pub request_deadline: Option<Duration>,
    /// Deterministic fault injection for chaos tests (`None` = no faults —
    /// the only production behavior; the field exists only in test/`faults`
    /// builds).
    #[cfg(any(test, feature = "faults"))]
    pub faults: Option<crate::faults::FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_frame_bytes: MAX_FRAME_BYTES,
            allow_remote_shutdown: false,
            idle_timeout: Some(Duration::from_secs(300)),
            max_queued_connections: 64,
            request_deadline: Some(Duration::from_secs(5)),
            #[cfg(any(test, feature = "faults"))]
            faults: None,
        }
    }
}

/// The serve layer's own instruments, registered in the **engine's**
/// registry so one `metrics` request (or one Prometheus scrape) covers the
/// whole pipeline. Counters here are the same cells [`Shared::stats`]
/// reads — there is no second bookkeeping to drift from.
struct ServeMetrics {
    requests_served: Arc<Counter>,
    connections_accepted: Arc<Counter>,
    shed: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    accept_errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    connections_active: Arc<Gauge>,
    connections_idle: Arc<Gauge>,
    idle_reclaimed: Arc<Counter>,
    panics_contained: Arc<Counter>,
    frame_bytes_in: Arc<Histogram>,
    frame_bytes_out: Arc<Histogram>,
    /// The engine's `render` stage cell, for the QASM renders the server
    /// does itself (templates record their own).
    render: Arc<Histogram>,
    /// Per-kind handling latency, prebuilt so the hot path never takes the
    /// registry lock.
    request_duration: BTreeMap<&'static str, Arc<Histogram>>,
    /// Per-kind error responses, prebuilt for the same reason.
    errors: BTreeMap<&'static str, Arc<Counter>>,
}

impl ServeMetrics {
    fn register(registry: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            requests_served: registry.counter(
                "quclear_serve_requests_total",
                "requests answered (all kinds, including failures)",
            ),
            connections_accepted: registry.counter(
                "quclear_serve_connections_accepted_total",
                "connections accepted since the server started",
            ),
            shed: registry.counter(
                "quclear_serve_shed_total",
                "connections shed at admission because the queue was full",
            ),
            deadline_exceeded: registry.counter(
                "quclear_serve_deadline_exceeded_total",
                "requests answered deadline_exceeded (budget spent mid-pipeline)",
            ),
            accept_errors: registry.counter(
                "quclear_serve_accept_errors_total",
                "listener accept failures (e.g. fd exhaustion), each backed off",
            ),
            queue_depth: registry.gauge(
                "quclear_serve_queue_depth",
                "accepted connections waiting for a free worker",
            ),
            connections_active: registry.gauge(
                "quclear_serve_connections_active",
                "connections currently owned by a worker",
            ),
            connections_idle: registry.gauge(
                "quclear_serve_connections_idle",
                "owned connections currently waiting for a request frame",
            ),
            idle_reclaimed: registry.counter(
                "quclear_serve_idle_reclaimed_total",
                "connections closed for exceeding the idle timeout",
            ),
            panics_contained: registry.counter(
                "quclear_serve_panics_contained_total",
                "request handlers that panicked and were answered with an error",
            ),
            frame_bytes_in: registry.histogram_labeled(
                SERVE_FRAME_METRIC,
                "frame payload sizes in bytes",
                ("direction", "in"),
            ),
            frame_bytes_out: registry.histogram_labeled(
                SERVE_FRAME_METRIC,
                "frame payload sizes in bytes",
                ("direction", "out"),
            ),
            render: registry.histogram_labeled(
                ENGINE_STAGE_METRIC,
                "engine pipeline stage latency in nanoseconds",
                ("stage", "render"),
            ),
            request_duration: REQUEST_KIND_NAMES
                .iter()
                .map(|&kind| {
                    (
                        kind,
                        registry.histogram_labeled(
                            SERVE_REQUEST_METRIC,
                            "request handling latency in nanoseconds",
                            ("kind", kind),
                        ),
                    )
                })
                .collect(),
            errors: REQUEST_KIND_NAMES
                .iter()
                .map(|&kind| {
                    (
                        kind,
                        registry.counter_labeled(
                            SERVE_ERROR_METRIC,
                            "error responses per request kind",
                            ("kind", kind),
                        ),
                    )
                })
                .collect(),
        }
    }

    /// The latency histogram of `kind` (falling back to `"unknown"`, which
    /// is always present).
    fn duration(&self, kind: &str) -> &Arc<Histogram> {
        self.request_duration
            .get(kind)
            .unwrap_or(&self.request_duration["unknown"])
    }

    /// The error counter of `kind` (falling back to `"unknown"`).
    fn error(&self, kind: &str) -> &Arc<Counter> {
        self.errors.get(kind).unwrap_or(&self.errors["unknown"])
    }
}

/// State shared by the accept loop, the workers, and the handle.
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// The listener's address, dialed once to wake the blocked accept loop
    /// at shutdown.
    local_addr: SocketAddr,
    started: Instant,
    metrics: ServeMetrics,
    /// Admission index of the next connection, used to key its
    /// deterministic fault stream.
    #[cfg(any(test, feature = "faults"))]
    fault_connections: std::sync::atomic::AtomicU64,
}

impl Shared {
    /// Raises the shutdown flag. The first caller also wakes the accept
    /// loop, which blocks in `accept`, with one loopback connection that
    /// the loop drops uncounted. Idempotent.
    fn request_shutdown(&self) {
        // ordering: AcqRel — the swap elects the one waking caller, and its
        // Release pairs with every Acquire load of the flag.
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, POLL_INTERVAL);
    }

    fn stats(&self) -> StatsSummary {
        let engine = self.engine.stats();
        StatsSummary {
            hits: engine.hits,
            misses: engine.misses,
            coalesced_waits: engine.coalesced_waits,
            evictions: engine.evictions,
            binds: engine.binds,
            entries: engine.entries,
            capacity: engine.capacity,
            hit_rate: engine.hit_rate(),
            requests_served: self.metrics.requests_served.get(),
            connections_accepted: self.metrics.connections_accepted.get(),
            shed_connections: self.metrics.shed.get(),
            deadline_exceeded: self.metrics.deadline_exceeded.get(),
            lane_words: quclear_pauli::kernel_lane_words() as u64,
            // Every sweep binds its angle sets on the calling worker thread.
            sweep_threads: 1,
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

/// A running server: spawned by [`Server::bind`], stopped by
/// [`Server::shutdown`] + [`Server::join`] (or just [`Server::stop`]).
///
/// Dropping a `Server` shuts it down and joins every thread, so a test or
/// example cannot leak the listener or the pool by accident.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// The handle's own view of the connection queue, kept so teardown can
    /// drain streams that never reached a worker (see
    /// [`Server::join_threads`]) — without it, queued connections would be
    /// dropped with the channel and the `queue_depth` gauge would stay
    /// nonzero forever.
    queue: Arc<Mutex<Receiver<TcpStream>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            // ordering: Relaxed — Debug output.
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .field("requests_served", &self.metrics.requests_served.get())
            .finish()
    }
}

/// How often blocked I/O wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

impl Server {
    /// Binds `addr` and starts the accept loop plus the worker pool.
    ///
    /// Bind to port 0 to let the OS choose; [`Server::local_addr`] reports
    /// the actual address. The engine is shared — pass a clone of an
    /// existing `Arc<Engine>` to serve an already-warm cache.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind/listen).
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = ServeMetrics::register(engine.metrics());
        let shared = Arc::new(Shared {
            engine,
            config: ServerConfig {
                workers: config.workers.max(1),
                max_queued_connections: config.max_queued_connections.max(1),
                ..config
            },
            shutdown: AtomicBool::new(false),
            local_addr,
            started: Instant::now(),
            metrics,
            #[cfg(any(test, feature = "faults"))]
            fault_connections: std::sync::atomic::AtomicU64::new(0),
        });

        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(shared.config.workers + 1);
        for worker_id in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("quclear-serve-worker-{worker_id}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawning a worker thread"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("quclear-serve-accept".to_string())
                    .spawn(move || accept_loop(&shared, &listener, &tx))
                    .expect("spawning the accept thread"),
            );
        }
        Ok(Server {
            shared,
            threads,
            queue: rx,
        })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The engine behind the server (e.g. to inspect stats directly).
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Signals every thread to stop after finishing its current work.
    /// Idempotent; returns without waiting for the threads — pair with
    /// [`Server::join`].
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits for every server thread to exit. Does **not** signal shutdown
    /// by itself; call [`Server::shutdown`] first (or use [`Server::stop`]).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// [`Server::shutdown`] followed by [`Server::join`].
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }

    fn join_threads(&mut self) {
        for handle in self.threads.drain(..) {
            // A worker that somehow panicked outside its catch_unwind has
            // nothing left to give us; ignore its poison during teardown.
            let _ = handle.join();
        }
        // Drain connections that were accepted but never reached a worker
        // (possible when workers die early, or raced shutdown). Each queued
        // stream was counted into `queue_depth` at admission; dropping them
        // with the channel would leave the gauge nonzero forever — a lying
        // dashboard after every restart.
        let drained = {
            let queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            std::iter::from_fn(|| queue.try_recv().ok()).count()
        };
        for _ in 0..drained {
            self.shared.metrics.queue_depth.dec();
        }
        debug_assert_eq!(
            self.shared.metrics.queue_depth.get(),
            0,
            "every queued connection is drained (workers or teardown)"
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join_threads();
    }
}

/// Longest the accept loop backs off after persistent listener errors.
const MAX_ACCEPT_BACKOFF: Duration = Duration::from_secs(1);

/// Accepts connections until shutdown, handing streams to the worker pool —
/// or shedding them when the pool's queue is full (bounded admission).
fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &std::sync::mpsc::Sender<TcpStream>) {
    let mut backoff = POLL_INTERVAL;
    loop {
        // The listener blocks, so a new connection is handed over as soon
        // as it arrives; `request_shutdown` wakes this call with a
        // connection of its own, dropped here uncounted.
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            return; // dropping `tx` wakes every idle worker
        }
        match accepted {
            Ok((stream, _peer)) => {
                backoff = POLL_INTERVAL;
                shared.metrics.connections_accepted.inc();
                // Short read timeouts let workers poll the shutdown flag
                // while parked on an idle connection.
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let _ = stream.set_nodelay(true);
                // Bounded admission: when every worker is busy and the queue
                // is at capacity, shed this connection instead of queueing
                // it. Queueing past the bound serves *every* request — each
                // uselessly late; shedding answers immediately with a
                // retryable error and keeps admitted requests fast.
                if shared.metrics.queue_depth.get() >= shared.config.max_queued_connections as i64 {
                    shed(shared, stream);
                    continue;
                }
                shared.metrics.queue_depth.inc();
                if tx.send(stream).is_err() {
                    shared.metrics.queue_depth.dec();
                    return; // every worker is gone; nothing left to serve
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Listener failure (fd exhaustion, teardown): count it and
                // back off exponentially (capped) instead of busy-retrying a
                // persistent failure; a successful accept resets the
                // backoff. Shutdown remains the only way to stop
                // serving.
                shared.metrics.accept_errors.inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_ACCEPT_BACKOFF);
            }
        }
    }
}

/// Sheds one connection at admission: answers a best-effort `overloaded`
/// error frame (id 0 — no request was read, so there is no id to echo) and
/// closes. Best-effort means exactly that: the write gets a short timeout
/// and its failure is ignored — under real overload the kindest thing is to
/// get off the socket quickly. The client may see the structured error or
/// just a closed/reset connection; both are retryable-transient to a
/// [`crate::RetryPolicy`].
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.shed.inc();
    let response = Response {
        id: 0,
        body: Err(WireError::new(
            "overloaded",
            format!(
                "admission queue is full ({} connections waiting); retry with backoff",
                shared.config.max_queued_connections
            ),
        )),
    };
    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
    let _ = write_frame_with_limit(
        &mut stream,
        &response.encode(),
        shared.config.max_frame_bytes,
    );
}

/// What a handled request asks the connection loop to do next.
enum Continuation {
    KeepServing,
    CloseConnection,
}

/// One worker: pull connections off the channel until it closes, serving
/// each to completion. A panic while serving one connection (outside the
/// per-request guard) is contained here, so the worker thread itself always
/// survives to take the next connection.
fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        let next = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(stream) = next else {
            return; // channel closed: accept loop exited and queue drained
        };
        shared.metrics.queue_depth.dec();
        let result = catch_unwind(AssertUnwindSafe(|| serve_connection(shared, stream)));
        debug_assert!(result.is_ok(), "serve_connection must contain its panics");
    }
}

/// Serves one connection until EOF, a transport error, or shutdown.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let _active = shared.metrics.connections_active.track();
    // Chaos hook: each connection draws its own deterministic fault stream
    // from the configured plan (no plan — the only production state — means
    // no faults and no extra work).
    #[cfg(any(test, feature = "faults"))]
    let mut faults = shared.config.faults.as_ref().map(|plan| {
        plan.connection(
            // ordering: Relaxed — the RMW's atomicity hands each
            // connection a distinct fault-stream index; nothing else reads.
            shared
                .fault_connections
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        )
    });
    loop {
        #[cfg(any(test, feature = "faults"))]
        if let Some(stall) = faults
            .as_mut()
            .and_then(crate::faults::ConnectionFaults::read_stall)
        {
            std::thread::sleep(stall);
        }
        let payload = {
            // Between frames the connection is idle: it holds a worker but
            // costs no CPU. The gauge pair (active, idle) makes pool
            // starvation by idle clients visible before the idle timeout
            // reclaims them.
            let _idle = shared.metrics.connections_idle.track();
            match read_frame_polling(shared, &mut stream) {
                Ok(Some(payload)) => payload,
                Ok(None) | Err(_) => return, // clean EOF, shutdown while idle, or dead socket
            }
        };
        shared.metrics.frame_bytes_in.record(payload.len() as u64);
        let (response, kind, continuation) = respond(shared, &payload);
        shared.metrics.requests_served.inc();
        #[cfg(any(test, feature = "faults"))]
        if let Some(faults) = faults.as_mut() {
            match faults.write_fault() {
                crate::faults::WriteFault::None => {}
                crate::faults::WriteFault::Delay(stall) => std::thread::sleep(stall),
                crate::faults::WriteFault::TearFrame => {
                    let _ = crate::faults::write_torn_frame(&mut stream);
                    return;
                }
                crate::faults::WriteFault::Disconnect => return,
            }
        }
        let sent = send_response(shared, &mut stream, response, kind);
        if sent.is_err() || matches!(continuation, Continuation::CloseConnection) {
            return;
        }
    }
}

/// Writes a response within the configured frame cap. A response that
/// encodes larger than the cap (e.g. an enormous sweep) degrades into a
/// structured `response_too_large` error on the same id, so the client
/// learns *why* instead of seeing a silently dropped connection. A refused
/// answer counts as an error of its request `kind` (one that already was
/// an error has been counted).
fn send_response(
    shared: &Shared,
    stream: &mut TcpStream,
    response: Response,
    kind: &str,
) -> io::Result<()> {
    let max = shared.config.max_frame_bytes;
    let mut encoded = response.encode();
    if encoded.len() > max {
        if response.body.is_ok() {
            shared.metrics.error(kind).inc();
        }
        let too_large = Response {
            id: response.id,
            body: Err(response_too_large(&format!("{} bytes", encoded.len()), max)),
        };
        encoded = too_large.encode();
    }
    shared.metrics.frame_bytes_out.record(encoded.len() as u64);
    write_frame_with_limit(stream, &encoded, max)
}

/// The `response_too_large` error for an answer of `size` (`5000 bytes`,
/// or a lower bound such as `at least 5000 bytes`) over the `max` byte cap.
fn response_too_large(size: &str, max: usize) -> WireError {
    WireError::new(
        "response_too_large",
        format!(
            "response of {size} exceeds the server's {max} byte frame \
             limit; split the request (e.g. fewer angle sets per sweep)"
        ),
    )
}

/// Builds the response for one raw frame, with the request's kind name
/// (`"unknown"` when the frame does not decode). Panics anywhere in
/// decoding or handling are converted into an error response carrying the
/// panic text.
fn respond(shared: &Shared, payload: &[u8]) -> (Response, &'static str, Continuation) {
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(error) => {
            shared.metrics.error("unknown").inc();
            // The id could not be recovered; answer on id 0 so the client
            // can at least surface the failure.
            return (
                Response {
                    id: 0,
                    body: Err(error),
                },
                "unknown",
                Continuation::KeepServing,
            );
        }
    };
    let id = request.id;
    let kind_name = request.kind.name();
    // The request's time-in-system budget starts now — after the frame was
    // read, before any pipeline stage. One absolute deadline is shared by
    // every stage (and every bind of a sweep), so slow stages eat into the
    // budget of later ones rather than each getting a fresh allowance.
    let deadline = shared
        .config
        .request_deadline
        .map_or(Deadline::none(), Deadline::within);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        handle_request(shared, request.kind, deadline)
    }));
    shared
        .metrics
        .duration(kind_name)
        .record_duration(start.elapsed());
    match outcome {
        Ok((body, continuation)) => {
            if let Err(error) = &body {
                shared.metrics.error(kind_name).inc();
                if error.kind == "deadline_exceeded" {
                    shared.metrics.deadline_exceeded.inc();
                }
            }
            (Response { id, body }, kind_name, continuation)
        }
        Err(panic) => {
            shared.metrics.panics_contained.inc();
            shared.metrics.error(kind_name).inc();
            let message = panic
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (
                Response {
                    id,
                    body: Err(WireError::new(
                        "panicked",
                        format!("request handling panicked: {message}"),
                    )),
                },
                kind_name,
                Continuation::KeepServing,
            )
        }
    }
}

/// Dispatches one decoded request against the shared engine under the
/// request's deadline.
fn handle_request(
    shared: &Shared,
    kind: RequestKind,
    deadline: Deadline,
) -> (Result<ResponseBody, WireError>, Continuation) {
    let engine = shared.engine.with_deadline(deadline);
    let body = match kind {
        RequestKind::Compile { program, angles } => compile(&engine, &program, &angles),
        RequestKind::Sweep {
            program,
            angle_sets,
        } => sweep(
            &engine,
            &program,
            &angle_sets,
            shared.config.max_frame_bytes,
            deadline,
        ),
        RequestKind::CompileQasm { qasm } => engine
            .compile_qasm(&qasm)
            .map(|result| summarize_qasm(shared, &result))
            .map_err(|e| engine_error(&e)),
        RequestKind::BindQasm { qasm, angles } => engine
            .bind_qasm(&qasm, &angles)
            .map(|result| summarize_qasm(shared, &result))
            .map_err(|e| engine_error(&e)),
        RequestKind::Absorb {
            program,
            observables,
        } => absorb(&engine, &program, &observables),
        RequestKind::Estimate {
            program,
            angles,
            observables,
            shots,
            seed,
        } => estimate(&engine, &program, &angles, &observables, shots, seed),
        RequestKind::Stats => Ok(ResponseBody::Stats(shared.stats())),
        RequestKind::Metrics => Ok(ResponseBody::Metrics(shared.engine.metrics_snapshot())),
        RequestKind::Health => Ok(ResponseBody::Health {
            uptime_ms: shared.started.elapsed().as_millis() as u64,
        }),
        RequestKind::Shutdown => {
            return if shared.config.allow_remote_shutdown {
                shared.request_shutdown();
                (
                    Ok(ResponseBody::ShuttingDown),
                    Continuation::CloseConnection,
                )
            } else {
                (
                    Err(WireError::new(
                        "forbidden",
                        "this server does not accept remote shutdown",
                    )),
                    Continuation::KeepServing,
                )
            };
        }
    };
    (body, Continuation::KeepServing)
}

/// Parses the wire spelling of a rotation program into signed axes.
fn parse_axes(program: &[String]) -> Result<Vec<SignedPauli>, WireError> {
    program
        .iter()
        .map(|axis| {
            axis.parse::<SignedPauli>().map_err(|e| {
                WireError::new("bad_program", format!("axis `{axis}` does not parse: {e}"))
            })
        })
        .collect()
}

/// Parses the wire spelling of signed observables.
fn parse_observables(observables: &[String]) -> Result<Vec<SignedPauli>, WireError> {
    observables
        .iter()
        .map(|o| {
            o.parse::<SignedPauli>().map_err(|e| {
                WireError::new(
                    "bad_observable",
                    format!("observable `{o}` does not parse: {e}"),
                )
            })
        })
        .collect()
}

/// Folds axis signs into the angles (`exp(-iθ/2·(−P)) = exp(-i(−θ)/2·P)`)
/// and pairs them up as rotations, moving each axis.
fn to_rotations(axes: Vec<SignedPauli>, angles: &[f64]) -> Result<Vec<PauliRotation>, WireError> {
    check_angle_count(&axes, angles)?;
    Ok(axes
        .into_iter()
        .zip(angles)
        .map(|(axis, &angle)| PauliRotation::with_signed_pauli(axis, angle))
        .collect())
}

fn check_angle_count(axes: &[SignedPauli], angles: &[f64]) -> Result<(), WireError> {
    if axes.len() == angles.len() {
        Ok(())
    } else {
        Err(WireError::new(
            "angle_count",
            format!("{} axes but {} angles", axes.len(), angles.len()),
        ))
    }
}

/// Splits signed axes into the positive axes the engine's template cache
/// keys on (the key `estimate` and `absorb` look up too) and each axis's
/// sign, moving every Pauli string.
fn split_signs(axes: Vec<SignedPauli>) -> (Vec<SignedPauli>, Vec<bool>) {
    axes.into_iter()
        .map(|axis| {
            let negative = axis.is_negative();
            (SignedPauli::positive(axis.into_pauli()), negative)
        })
        .unzip()
}

/// Folds the axis signs into one angle set, as [`PauliRotation::with_signed_pauli`]
/// does. A set of the wrong length passes unfolded (folding would silently
/// truncate it), so its bind reports the arity mismatch.
fn fold_signs<'a>(angles: &'a [f64], negative: &[bool]) -> Cow<'a, [f64]> {
    if angles.len() != negative.len() || !negative.contains(&true) {
        return Cow::Borrowed(angles);
    }
    angles
        .iter()
        .zip(negative)
        .map(|(&angle, &negative)| if negative { -angle } else { angle })
        .collect()
}

/// Binds one angle set to a template the request looked up, and renders it.
fn bind_summary(
    engine: &Engine,
    template: &CompiledTemplate,
    angles: &[f64],
) -> Result<CompiledSummary, WireError> {
    let bound = engine
        .bind(template, angles)
        .map_err(|e| engine_error(&e))?;
    let texts = template.render_qasm(&bound.optimized);
    Ok(summarize(&bound, texts))
}

/// The answer to a QASM compile: its result carries the lifted program's
/// trailing Clifford, so both texts render from scratch, timed into the
/// engine's `render` stage like a template's.
fn summarize_qasm(shared: &Shared, result: &QuClearResult) -> ResponseBody {
    let start = Instant::now();
    let texts = (to_qasm(&result.optimized), to_qasm(&result.extracted));
    shared.metrics.render.record_duration(start.elapsed());
    ResponseBody::Compiled(summarize(result, texts))
}

fn compile(engine: &Engine, program: &[String], angles: &[f64]) -> Result<ResponseBody, WireError> {
    let axes = parse_axes(program)?;
    check_angle_count(&axes, angles)?;
    let (axes, negative) = split_signs(axes);
    let template = engine.template(&axes).map_err(|e| engine_error(&e))?;
    bind_summary(engine, &template, &fold_signs(angles, &negative)).map(ResponseBody::Compiled)
}

/// One template lookup, then one bind and render per angle set; each set's
/// failure lands in its own slot.
///
/// The answer is bounded while it is built, so a small request cannot make
/// the server hold far more than `max_bytes` before `send_response` sees
/// the frame. Every set that binds carries the template's extracted text,
/// the same for each, and JSON escaping only adds bytes. Once the first
/// point has rendered, `sets that validate × extracted text` bounds the
/// answer from below if every one of them binds, and the sweep is refused
/// there, before any further bind. Only the request's `deadline` can stop
/// a set that validates from binding (its slot then holds a short
/// `deadline_exceeded` error), so that floor is skipped once the deadline
/// has passed, and the refusal says what it assumes. A running sum of each
/// point's two texts is the exact backstop: the sweep stops at the first
/// point that takes it past the cap. (The skeleton's text is not counted
/// up front: a bind with a zero-angle slot re-runs the peephole and may
/// render shorter than it.)
fn sweep(
    engine: &Engine,
    program: &[String],
    angle_sets: &[Vec<f64>],
    max_bytes: usize,
    deadline: Deadline,
) -> Result<ResponseBody, WireError> {
    let (axes, negative) = split_signs(parse_axes(program)?);
    let template = engine.template(&axes).map_err(|e| engine_error(&e))?;
    let validating = angle_sets
        .iter()
        .filter(|set| set.len() == axes.len() && set.iter().all(|a| a.is_finite()))
        .count();
    let mut points = Vec::with_capacity(angle_sets.len());
    let mut text_bytes = 0;
    let mut first = true;
    for set in angle_sets {
        let point = bind_summary(engine, &template, &fold_signs(set, &negative));
        if let Ok(summary) = &point {
            if std::mem::take(&mut first) && !deadline.expired() {
                let floor = validating.saturating_mul(summary.extracted_qasm.len());
                if floor > max_bytes {
                    let size =
                        format!("at least {floor} bytes if all {validating} valid angle sets bind");
                    return Err(response_too_large(&size, max_bytes));
                }
            }
            text_bytes += summary.optimized_qasm.len() + summary.extracted_qasm.len();
            if text_bytes > max_bytes {
                return Err(response_too_large(
                    &format!("at least {text_bytes} bytes"),
                    max_bytes,
                ));
            }
        }
        points.push(point);
    }
    Ok(ResponseBody::Sweep(points))
}

fn absorb(
    engine: &Engine,
    program: &[String],
    observables: &[String],
) -> Result<ResponseBody, WireError> {
    let axes = parse_axes(program)?;
    let zeros = vec![0.0; axes.len()];
    let rotations = to_rotations(axes, &zeros)?;
    let parsed = parse_observables(observables)?;
    let absorbed = engine
        .absorb_observables(&rotations, &parsed)
        .map_err(|e| engine_error(&e))?;
    Ok(ResponseBody::Absorbed {
        observables: absorbed.to_vec().iter().map(ToString::to_string).collect(),
        groups: absorbed.commuting_groups(),
    })
}

fn estimate(
    engine: &Engine,
    program: &[String],
    angles: &[f64],
    observables: &[String],
    shots: u64,
    seed: u64,
) -> Result<ResponseBody, WireError> {
    let rotations = to_rotations(parse_axes(program)?, angles)?;
    let parsed = parse_observables(observables)?;
    let result = engine
        .estimate_observables(&rotations, &parsed, shots, seed)
        .map_err(|e| engine_error(&e))?;
    Ok(ResponseBody::Estimated {
        expectations: result.expectations,
        groups: result.groups,
        shot_budget_divisor: result.shot_budget_divisor,
    })
}

/// A compiled answer from a bound result and its two QASM texts.
fn summarize(
    result: &QuClearResult,
    (optimized_qasm, extracted_qasm): (String, String),
) -> CompiledSummary {
    CompiledSummary {
        optimized_qasm,
        extracted_qasm,
        num_qubits: result.optimized.num_qubits(),
        cnot_count: result.cnot_count(),
        gate_count: result.optimized.len(),
    }
}

/// Maps engine failures onto stable wire error kinds.
fn engine_error(error: &EngineError) -> WireError {
    let kind = match error {
        EngineError::QasmParse(_) => "qasm_parse",
        EngineError::InconsistentQubitCounts { .. } | EngineError::TooManyQubits { .. } => {
            "bad_program"
        }
        EngineError::AngleCountMismatch { .. } => "angle_count",
        EngineError::NonFiniteAngle { .. } => "non_finite_angle",
        EngineError::CompilationPanicked { .. } => "panicked",
        EngineError::NotEstimable { .. } => "not_estimable",
        EngineError::DeadlineExceeded => "deadline_exceeded",
    };
    WireError::new(kind, error.to_string())
}

/// Reads one frame, checking shutdown and the idle budget after every
/// read that leaves the frame incomplete and at least every
/// [`POLL_INTERVAL`] (the socket's read timeout). `Ok(None)` means
/// "connection over" — clean EOF, shutdown arrived (between frames the
/// request was never handled; mid-frame the half-sent request is
/// abandoned), or the connection went past [`ServerConfig::idle_timeout`]
/// without delivering a whole frame, whether it sent nothing or trickled
/// bytes. The framing rules themselves live in one place,
/// [`crate::protocol::read_frame_with`]; only the polling policy differs
/// from the client's blocking read.
fn read_frame_polling(shared: &Shared, stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let waiting_since = Instant::now();
    crate::protocol::read_frame_with(stream, shared.config.max_frame_bytes, &mut |_blocked| {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(false);
        }
        let expired = shared
            .config
            .idle_timeout
            .is_some_and(|budget| waiting_since.elapsed() > budget);
        if expired {
            shared.metrics.idle_reclaimed.inc();
        }
        Ok(!expired)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Once the request's deadline has passed, the sets still to come
    /// would fail to bind, so the up-front floor is skipped and only the
    /// running sum of the texts can refuse the sweep. The engine handle
    /// here has no deadline, so every set binds and the sum decides.
    #[test]
    fn a_passed_deadline_skips_the_sweep_floor() {
        let engine = Engine::new(4);
        let program = vec!["Z".repeat(200)];
        let sets = vec![vec![0.5]; 10];
        let Ok(ResponseBody::Sweep(one)) =
            sweep(&engine, &program, &sets[..1], usize::MAX, Deadline::none())
        else {
            panic!("one point fits");
        };
        let point = one[0].as_ref().expect("the point binds");
        let cap = 3 * (point.optimized_qasm.len() + point.extracted_qasm.len());
        let refusal = |deadline| match sweep(&engine, &program, &sets, cap, deadline) {
            Err(error) => error.message,
            Ok(_) => panic!("ten points cannot fit three"),
        };
        assert!(refusal(Deadline::none()).contains("if all 10 valid angle sets bind"));
        let passed = refusal(Deadline::within(Duration::ZERO));
        assert!(!passed.contains("valid angle sets"), "{passed}");
        assert!(passed.starts_with("response of at least"), "{passed}");
    }
}
