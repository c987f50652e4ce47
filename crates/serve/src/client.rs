//! A small blocking client for the serve protocol.
//!
//! One [`Client`] owns one TCP connection and issues one request at a time
//! (the protocol supports pipelining; this client keeps it simple). It is
//! the reference consumer of the wire format — the integration tests and
//! the `serve_demo` example drive the server exclusively through it.
//!
//! With a [`RetryPolicy`] attached ([`Client::set_retry_policy`]), the
//! client also *recovers*: transient failures — a shed `overloaded`
//! response, a `deadline_exceeded` budget, a dead or torn transport — are
//! retried with seeded exponential backoff and jitter, reconnecting
//! automatically when the connection broke, and only ever for idempotent
//! request kinds ([`RequestKind::is_idempotent`]).

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{
    read_frame, write_frame, CompiledSummary, Request, RequestKind, Response, ResponseBody,
    StatsSummary, WireError, MAX_FRAME_BYTES,
};

/// Failures a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, or unexpected EOF).
    Io(io::Error),
    /// The server answered, but the frame did not decode or did not match
    /// the request.
    Protocol(WireError),
    /// The server answered with a structured error (e.g. a parse failure or
    /// a contained compilation panic).
    Remote(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The structured server error, when this is a [`ClientError::Remote`].
    #[must_use]
    pub fn remote(&self) -> Option<&WireError> {
        match self {
            ClientError::Remote(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this failure is *transient*: retrying the same request later
    /// could plausibly succeed. Transport failures always qualify (the
    /// socket died, timed out, or the server closed mid-exchange);
    /// server-reported errors qualify only for the two overload outcomes —
    /// `overloaded` (shed at admission) and `deadline_exceeded` (budget ran
    /// out, but the compile it detached from is still warming the cache).
    /// Everything else — parse errors, bad programs, contained panics,
    /// protocol violations — is deterministic: retrying replays the failure.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Remote(e) => {
                matches!(e.kind.as_str(), "overloaded" | "deadline_exceeded")
            }
            ClientError::Protocol(_) => false,
        }
    }
}

/// Retry discipline for a [`Client`]: capped exponential backoff with
/// seeded jitter, bounded by both an attempt count and a wall-clock budget.
///
/// A policy only ever re-sends requests that are **idempotent**
/// ([`RequestKind::is_idempotent`]) and failed **transiently**
/// ([`ClientError::is_transient`]); everything else fails fast exactly as
/// without a policy. The jitter stream is seeded, so a test (or an incident
/// replay) with the same seed sleeps the same schedule.
///
/// # Examples
///
/// ```no_run
/// use quclear_serve::{Client, RetryPolicy};
///
/// let mut client = Client::connect("127.0.0.1:7878")?;
/// client.set_retry_policy(Some(RetryPolicy::default()));
/// // Shed connections, deadline misses and dead sockets now retry with
/// // backoff + automatic reconnection instead of surfacing immediately.
/// let compiled = client.compile(&["ZZII", "IXXI"], &[0.3, 0.7])?;
/// # let _ = compiled;
/// # Ok::<(), quclear_serve::ClientError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total tries, including the first (clamped to ≥ 1). `4` means one
    /// initial attempt plus up to three retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub initial_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget across all attempts and sleeps: a retry whose
    /// backoff would overrun this budget is abandoned and the last error
    /// surfaces.
    pub total_budget: Duration,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled uniformly from
    /// `[1 − jitter, 1] × backoff`, decorrelating clients that were shed
    /// together so they do not stampede back together.
    pub jitter: f64,
    /// Seed of the jitter stream (deterministic per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            total_budget: Duration::from_secs(5),
            jitter: 0.5,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based), jittered.
    fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let doubled = self
            .initial_backoff
            .saturating_mul(1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX));
        let capped = doubled.min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter <= 0.0 {
            return capped;
        }
        capped.mul_f64(1.0 - jitter * rng.gen_range(0.0..1.0))
    }
}

/// A blocking connection to a `quclear-serve` server.
///
/// # Examples
///
/// ```no_run
/// use quclear_serve::Client;
///
/// let mut client = Client::connect("127.0.0.1:7878")?;
/// let compiled = client.compile(&["ZZII", "IXXI"], &[0.3, 0.7])?;
/// println!("{} CNOTs", compiled.cnot_count);
/// # Ok::<(), quclear_serve::ClientError>(())
/// ```
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Where the connection was dialed, kept so [`Client::reconnect`] can
    /// re-dial the same server after a transport failure.
    server_addr: SocketAddr,
    next_id: u64,
    /// Set after a transport or framing failure mid-request. Once the
    /// request/response rhythm is broken (e.g. a timed-out read whose late
    /// response is still queued in the socket), every later frame would be
    /// misattributed — so the connection refuses further use instead of
    /// silently desynchronizing.
    broken: bool,
    /// Remembered so a reconnected stream inherits the same timeout.
    read_timeout: Option<Duration>,
    policy: Option<RetryPolicy>,
    rng: StdRng,
    retries: u64,
    reconnects: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let server_addr = stream.peer_addr()?;
        Ok(Client {
            stream,
            server_addr,
            next_id: 1,
            broken: false,
            read_timeout: None,
            policy: None,
            rng: StdRng::seed_from_u64(RetryPolicy::default().seed),
            retries: 0,
            reconnects: 0,
        })
    }

    /// Sets a read timeout for responses (`None` blocks indefinitely, the
    /// default). Useful when probing a server that might be wedged — but
    /// note that a request which *does* time out breaks the connection's
    /// request/response pairing, so the client marks itself
    /// [broken](Client::is_broken) until the next [`Client::reconnect`]
    /// (automatic under a [`RetryPolicy`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Attaches (or removes) a retry policy. With a policy, idempotent
    /// requests that fail transiently are retried with seeded backoff and
    /// the connection is re-dialed when broken; without one, every failure
    /// surfaces immediately. Setting a policy reseeds the jitter stream
    /// from [`RetryPolicy::seed`].
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        if let Some(policy) = &policy {
            self.rng = StdRng::seed_from_u64(policy.seed);
        }
        self.policy = policy;
    }

    /// Whether a transport/framing failure has desynchronized this
    /// connection. A broken client fails every request until
    /// [`Client::reconnect`] replaces the socket.
    #[must_use]
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// How many request attempts were re-sent by the retry policy.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// How many times the client re-dialed the server after a broken
    /// connection.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Replaces a broken (or merely stale) connection with a fresh dial to
    /// the same server, re-applying the configured read timeout and
    /// clearing the [broken](Client::is_broken) flag. Called automatically
    /// by the retry loop; also usable directly.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; the client stays broken when the
    /// re-dial fails.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.server_addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        self.stream = stream;
        self.broken = false;
        self.reconnects += 1;
        Ok(())
    }

    /// Sends one request and waits for its response body.
    ///
    /// Without a [`RetryPolicy`] this is a single attempt. With one
    /// ([`Client::set_retry_policy`]), idempotent requests that fail
    /// transiently — shed `overloaded`, `deadline_exceeded`, transport
    /// death — are retried with seeded exponential backoff, re-dialing the
    /// server first whenever the connection broke, until the policy's
    /// attempt count or wall-clock budget runs out.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server reports a failure; transport
    /// and framing failures otherwise — those mark the client
    /// [broken](Client::is_broken), because a half-completed exchange
    /// leaves response frames unaccounted for. Under a policy, the error
    /// returned is the *last* attempt's.
    pub fn request(&mut self, kind: RequestKind) -> Result<ResponseBody, ClientError> {
        let Some(policy) = self.policy.clone() else {
            return self.request_once(kind);
        };
        if !kind.is_idempotent() {
            return self.request_once(kind);
        }
        let started = Instant::now();
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            // Re-dial before attempting on a broken connection; a failed
            // re-dial is itself a transient failure worth backing off on.
            let outcome = if self.broken {
                self.reconnect()
                    .and_then(|()| self.request_once(kind.clone()))
            } else {
                self.request_once(kind.clone())
            };
            let error = match outcome {
                Ok(body) => return Ok(body),
                Err(e) => e,
            };
            attempt += 1;
            if attempt >= max_attempts || !error.is_transient() {
                return Err(error);
            }
            let backoff = policy.backoff(attempt - 1, &mut self.rng);
            if started.elapsed() + backoff > policy.total_budget {
                return Err(error);
            }
            std::thread::sleep(backoff);
            self.retries += 1;
        }
    }

    /// One attempt of [`Client::request`], with no retry.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn request_once(&mut self, kind: RequestKind) -> Result<ResponseBody, ClientError> {
        if self.broken {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection is desynchronized by an earlier transport failure; reconnect",
            )));
        }
        let id = self.next_id;
        self.next_id += 1;
        match self.exchange(id, kind) {
            Ok(body) => Ok(body),
            // A server-reported failure is a complete, well-paired exchange —
            // except a shed: the server writes the `overloaded` frame and
            // immediately closes, so this connection is done.
            Err(ClientError::Remote(e)) => {
                if e.kind == "overloaded" {
                    self.broken = true;
                }
                Err(ClientError::Remote(e))
            }
            // Anything else left the stream in an unknown position.
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, id: u64, kind: RequestKind) -> Result<ResponseBody, ClientError> {
        let request = Request { id, kind };
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream, MAX_FRAME_BYTES)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ))
        })?;
        let response = Response::decode(&payload).map_err(ClientError::Protocol)?;
        if response.id != id && response.id != 0 {
            return Err(ClientError::Protocol(WireError::new(
                "bad_response",
                format!("response id {} does not match request id {id}", response.id),
            )));
        }
        response.body.map_err(ClientError::Remote)
    }

    /// Compiles a rotation program (`axes` as signed Pauli strings, one
    /// angle per axis) on the server.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn compile(
        &mut self,
        axes: &[&str],
        angles: &[f64],
    ) -> Result<CompiledSummary, ClientError> {
        let body = self.request(RequestKind::Compile {
            program: axes.iter().map(|s| (*s).to_string()).collect(),
            angles: angles.to_vec(),
        })?;
        expect_compiled(body)
    }

    /// Compiles the program's structure once, binding every angle set.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; per-set failures come back in the vector.
    #[allow(clippy::type_complexity)]
    pub fn sweep(
        &mut self,
        axes: &[&str],
        angle_sets: &[Vec<f64>],
    ) -> Result<Vec<Result<CompiledSummary, WireError>>, ClientError> {
        let body = self.request(RequestKind::Sweep {
            program: axes.iter().map(|s| (*s).to_string()).collect(),
            angle_sets: angle_sets.to_vec(),
        })?;
        match body {
            ResponseBody::Sweep(results) => Ok(results),
            other => Err(unexpected(&other)),
        }
    }

    /// Compiles OpenQASM 2.0 text on the server.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn compile_qasm(&mut self, qasm: &str) -> Result<CompiledSummary, ClientError> {
        let body = self.request(RequestKind::CompileQasm {
            qasm: qasm.to_string(),
        })?;
        expect_compiled(body)
    }

    /// CA-Pre on the server: rewrites `observables` through `axes`'s
    /// extracted Clifford, returning the rewritten strings and their greedy
    /// commuting groups.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    #[allow(clippy::type_complexity)]
    pub fn absorb(
        &mut self,
        axes: &[&str],
        observables: &[&str],
    ) -> Result<(Vec<String>, Vec<Vec<usize>>), ClientError> {
        let body = self.request(RequestKind::Absorb {
            program: axes.iter().map(|s| (*s).to_string()).collect(),
            observables: observables.iter().map(|s| (*s).to_string()).collect(),
        })?;
        match body {
            ResponseBody::Absorbed {
                observables,
                groups,
            } => Ok((observables, groups)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the engine + server counters.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&mut self) -> Result<StatsSummary, ClientError> {
        match self.request(RequestKind::Stats)? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the full telemetry snapshot — every engine + serve counter,
    /// gauge and latency histogram. Render it with
    /// [`quclear_telemetry::MetricsSnapshot::to_prometheus_text`] to feed a
    /// Prometheus scrape, or query it directly.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn metrics(&mut self) -> Result<quclear_telemetry::MetricsSnapshot, ClientError> {
        match self.request(RequestKind::Metrics)? {
            ResponseBody::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }
}

fn expect_compiled(body: ResponseBody) -> Result<CompiledSummary, ClientError> {
    match body {
        ResponseBody::Compiled(summary) => Ok(summary),
        other => Err(unexpected(&other)),
    }
}

fn unexpected(body: &ResponseBody) -> ClientError {
    ClientError::Protocol(WireError::new(
        "bad_response",
        format!("unexpected response body {body:?}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classifies_overload_outcomes_only() {
        let io = ClientError::Io(io::Error::new(io::ErrorKind::TimedOut, "slow"));
        assert!(io.is_transient());
        for kind in ["overloaded", "deadline_exceeded"] {
            assert!(ClientError::Remote(WireError::new(kind, "busy")).is_transient());
        }
        for kind in ["bad_program", "panicked", "qasm_parse", "forbidden"] {
            assert!(
                !ClientError::Remote(WireError::new(kind, "no")).is_transient(),
                "{kind} must not be retried"
            );
        }
        assert!(!ClientError::Protocol(WireError::new("bad_response", "?")).is_transient());
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        let policy = RetryPolicy::default();
        let schedule = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8)
                .map(|retry| policy.backoff(retry, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(policy.seed), schedule(policy.seed));
        assert_ne!(schedule(1), schedule(2));
        let mut rng = StdRng::seed_from_u64(9);
        for retry in 0..40 {
            let sleep = policy.backoff(retry, &mut rng);
            assert!(sleep <= policy.max_backoff);
            // Jitter only ever shortens: floor is (1 - jitter) × capped.
            let capped = policy
                .initial_backoff
                .saturating_mul(1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX))
                .min(policy.max_backoff);
            assert!(sleep >= capped.mul_f64(1.0 - policy.jitter));
        }
    }

    #[test]
    fn zero_jitter_backoff_doubles_then_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(20));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(40));
        assert_eq!(policy.backoff(10, &mut rng), policy.max_backoff);
        // The shift saturates instead of overflowing for absurd counts.
        assert_eq!(policy.backoff(u32::MAX, &mut rng), policy.max_backoff);
    }
}
