//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Requests carry a client-chosen
//! `id` that the matching response echoes, so a client can pipeline
//! requests over one connection and correlate the answers.
//!
//! ```text
//! → {"id": 1, "kind": "compile", "program": ["ZZZZ", "YYXX"], "angles": [0.3, 0.7]}
//! ← {"id": 1, "ok": true, "kind": "compiled", "optimized_qasm": "...", "cnot_count": 4, ...}
//! → {"id": 2, "kind": "stats"}
//! ← {"id": 2, "ok": true, "kind": "stats", "hits": 1, "misses": 1, ...}
//! ```
//!
//! Failures echo the id with `"ok": false` and a structured error:
//!
//! ```text
//! ← {"id": 3, "ok": false, "error": {"kind": "angle_count", "message": "..."}}
//! ```
//!
//! The JSON is produced and consumed with the in-tree `serde`/`serde_json`
//! stand-ins; no external dependencies are involved. Encoding builds a
//! `Json` tree and renders it in one pass; decoding parses one tree and
//! moves its strings out rather than copying them. Every byte this module
//! writes, and every decode error message, is pinned by the wire corpus
//! (`tests/wire_corpus.rs`).
//!
//! The server reads `compile` and `sweep` frames with
//! [`ScannedRequest::scan`] first: one pass that reads the axes' X/Z words
//! straight from the bytes, for the template cache's fingerprint, and the
//! angles, building no tree, since a warm answer needs only the template
//! and the angles. Every frame the scan
//! cannot fully validate, and every other kind, takes [`Request::decode`],
//! so errors keep that decoder's messages.

use std::io::{self, Read, Write};

use quclear_core::QuClearConfig;
use quclear_engine::{FingerprintBuilder, ProgramFingerprint, MAX_QUBITS};
use quclear_pauli::PauliString;
use quclear_telemetry::MetricsSnapshot;
use serde::Json;

/// Default cap on a single frame's payload (16 MiB): a sweep response over
/// thousands of angle sets fits comfortably, while a malicious or corrupt
/// length prefix cannot make the peer allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Writes one length-prefixed frame, capped at [`MAX_FRAME_BYTES`].
///
/// # Errors
///
/// Propagates transport errors; rejects payloads above [`MAX_FRAME_BYTES`]
/// (`InvalidInput`) before touching the socket.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_with_limit(writer, payload, MAX_FRAME_BYTES)
}

/// [`write_frame`] with an explicit payload cap (the server passes its
/// configured `max_frame_bytes` so read and write sides agree).
///
/// # Errors
///
/// Propagates transport errors; rejects payloads above the cap
/// (`InvalidInput`) before touching the socket.
pub fn write_frame_with_limit(
    writer: &mut impl Write,
    payload: &[u8],
    max_bytes: usize,
) -> io::Result<()> {
    if payload.len() > max_bytes || u32::try_from(payload.len()).is_err() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {max_bytes} byte limit",
                payload.len(),
            ),
        ));
    }
    let len = u32::try_from(payload.len()).expect("checked against u32 just above");
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame with blocking semantics.
///
/// Returns `Ok(None)` on a clean EOF *before* any header byte (the peer
/// closed between frames — the normal end of a connection).
///
/// # Errors
///
/// `UnexpectedEof` for a connection cut mid-frame, `InvalidData` for a
/// length prefix above `max_bytes`, and any transport error otherwise
/// (including `WouldBlock`/`TimedOut` when the reader has a timeout set).
pub fn read_frame(reader: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    read_frame_with(reader, max_bytes, &mut |blocked| {
        blocked.map_or(Ok(true), Err)
    })
}

/// The one copy of the framing rules, shared by the blocking [`read_frame`]
/// and the server's shutdown-aware polling read.
///
/// `poll` runs after every read that leaves the frame incomplete: with
/// `None` after a read that made progress, and with the error after a
/// `WouldBlock`/`TimedOut` read. `Ok(true)` keeps reading, `Ok(false)`
/// abandons the frame — the caller sees `Ok(None)`, the "connection over"
/// signal — and `Err` propagates the failure to the caller.
pub(crate) fn read_frame_with(
    reader: &mut impl Read,
    max_bytes: usize,
    poll: &mut dyn FnMut(Option<io::Error>) -> io::Result<bool>,
) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match fill(reader, &mut header, poll)? {
        Some(4) => {}
        Some(0) | None => return Ok(None),
        Some(_) => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-header",
            ))
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max_bytes} byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    match fill(reader, &mut payload, poll)? {
        None => Ok(None),
        Some(filled) if filled == len => Ok(Some(payload)),
        Some(_) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        )),
    }
}

/// Reads into `buf` until it is full or the stream ends, consulting `poll`
/// as [`read_frame_with`] describes. Returns the bytes read, or `None` when
/// `poll` abandons the read.
fn fill(
    reader: &mut impl Read,
    buf: &mut [u8],
    poll: &mut dyn FnMut(Option<io::Error>) -> io::Result<bool>,
) -> io::Result<Option<usize>> {
    let mut filled = 0;
    while filled < buf.len() {
        let blocked = match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if filled == buf.len() {
                    break;
                }
                None
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Some(e)
            }
            Err(e) => return Err(e),
        };
        if !poll(blocked)? {
            return Ok(None);
        }
    }
    Ok(Some(filled))
}

/// A request, as decoded from one frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What the client wants done.
    pub kind: RequestKind,
}

/// The operations the service exposes — the `quclear_engine::Engine`
/// surface plus observability and lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestKind {
    /// Compile a rotation program (signed Pauli axes + one angle each).
    Compile {
        /// Signed Pauli axes, e.g. `["ZZII", "-XXYY"]`.
        program: Vec<String>,
        /// One rotation angle per axis.
        angles: Vec<f64>,
    },
    /// Compile a program's structure once and bind many angle sets.
    Sweep {
        /// Signed Pauli axes shared by every binding.
        program: Vec<String>,
        /// The angle sets to bind, one result per set.
        angle_sets: Vec<Vec<f64>>,
    },
    /// Compile OpenQASM 2.0 text through the lift front-end.
    CompileQasm {
        /// The QASM source.
        qasm: String,
    },
    /// Compile QASM text with its rotation angles overridden.
    BindQasm {
        /// The QASM source.
        qasm: String,
        /// Replacement angles, one per rotation gate in the source.
        angles: Vec<f64>,
    },
    /// CA-Pre: rewrite an observable set through a program's extracted
    /// Clifford (served from the template cache's memo when warm).
    Absorb {
        /// Signed Pauli axes of the program (angles are irrelevant to
        /// absorption).
        program: Vec<String>,
        /// Signed Pauli observables to rewrite.
        observables: Vec<String>,
    },
    /// Sampled simultaneous measurement: bind the program, build the
    /// measurement-reduction plan (commuting groups + diagonalizing
    /// Cliffords + composed affine readout maps), draw one seeded shot batch
    /// per group from the simulated optimized circuit, and return every
    /// observable's estimate. Deterministic in `(program, angles,
    /// observables, shots, seed)`, hence idempotent and safely retryable.
    Estimate {
        /// Signed Pauli axes of the program.
        program: Vec<String>,
        /// One rotation angle per axis.
        angles: Vec<f64>,
        /// Signed Pauli observables to estimate.
        observables: Vec<String>,
        /// Shots sampled per commuting group.
        shots: u64,
        /// Base RNG seed; group `g` samples with a per-group derivation.
        seed: u64,
    },
    /// Engine + server counters.
    Stats,
    /// Full telemetry snapshot: every engine + serve counter, gauge and
    /// latency histogram, suitable for rendering as Prometheus text
    /// ([`quclear_telemetry::MetricsSnapshot::to_prometheus_text`]).
    Metrics,
    /// Cheap liveness probe.
    Health,
    /// Ask the server to shut down gracefully (honored only when the server
    /// was configured to allow it).
    Shutdown,
}

impl RequestKind {
    /// The wire name of this request kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Compile { .. } => "compile",
            RequestKind::Sweep { .. } => "sweep",
            RequestKind::CompileQasm { .. } => "compile_qasm",
            RequestKind::BindQasm { .. } => "bind_qasm",
            RequestKind::Absorb { .. } => "absorb",
            RequestKind::Estimate { .. } => "estimate",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Health => "health",
            RequestKind::Shutdown => "shutdown",
        }
    }

    /// Whether repeating this request after an ambiguous failure is safe.
    ///
    /// This is what a [`crate::RetryPolicy`] consults before re-sending: an
    /// idempotent request executed twice (because the first response was
    /// lost in transit) observes the same state transitions as executed
    /// once. Compilation requests are pure functions of their payload served
    /// through an idempotent cache; observability reads (`stats`, `metrics`,
    /// `health`) have no side effects worth guarding. Only `shutdown` is
    /// excluded — not because stopping twice is harmful, but because a
    /// lifecycle command should never fire more times than the operator
    /// asked for.
    #[must_use]
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, RequestKind::Shutdown)
    }
}

/// A structured error carried by a failure response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable category (e.g. `"qasm_parse"`, `"panicked"`,
    /// `"bad_request"`).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    #[must_use]
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        WireError {
            kind: kind.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// Summary of one compiled circuit, as returned over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledSummary {
    /// The optimized circuit `U'`, as OpenQASM 2.0 text.
    pub optimized_qasm: String,
    /// The extracted Clifford `U_CL` (never executed; absorbed), as QASM.
    pub extracted_qasm: String,
    /// Register size.
    pub num_qubits: usize,
    /// CNOT count of the optimized circuit.
    pub cnot_count: usize,
    /// Total gate count of the optimized circuit.
    pub gate_count: usize,
}

/// Engine + server counters, as returned by a `stats` request.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSummary {
    /// Template-cache hits.
    pub hits: u64,
    /// Template-cache misses.
    pub misses: u64,
    /// Lookups that waited on an in-flight compilation instead of racing it.
    pub coalesced_waits: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Successful binds.
    pub binds: u64,
    /// Cached templates.
    pub entries: usize,
    /// Cache capacity.
    pub capacity: usize,
    /// Cache hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Requests the server has answered (all kinds, including failures).
    pub requests_served: u64,
    /// Connections the server has accepted.
    pub connections_accepted: u64,
    /// Connections shed at admission because the queue was full
    /// ([`crate::ServerConfig::max_queued_connections`]). Zero when talking
    /// to a server from before overload protection — decoding tolerates the
    /// field's absence.
    pub shed_connections: u64,
    /// Requests answered `deadline_exceeded` because their
    /// [`crate::ServerConfig::request_deadline`] budget ran out. Zero when
    /// the field is absent (pre-overload-protection server).
    pub deadline_exceeded: u64,
    /// Lane width of the server's bit-plane kernels in 64-bit words. Zero
    /// when the field is absent (a server from before the wide-lane
    /// kernels).
    pub lane_words: u64,
    /// Threads one sweep binds its angle sets on: `1`, the worker that
    /// serves it. Zero when the field is absent (pre-wide-lane server).
    pub sweep_threads: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

/// A response, as decoded from one frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// The outcome.
    pub body: Result<ResponseBody, WireError>,
}

/// The success payloads, one per request kind.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// Answer to `compile`, `compile_qasm` and `bind_qasm`.
    Compiled(CompiledSummary),
    /// Answer to `sweep`: one result per angle set, order preserved,
    /// failures isolated per set.
    Sweep(Vec<Result<CompiledSummary, WireError>>),
    /// Answer to `absorb`: the rewritten observables (as signed Pauli
    /// strings, input order) and their greedy commuting groups.
    Absorbed {
        /// Rewritten observables `C† O C`.
        observables: Vec<String>,
        /// Indices of mutually commuting observables, greedily grouped.
        groups: Vec<Vec<usize>>,
    },
    /// Answer to `estimate`: sampled per-observable expectations plus the
    /// grouping that produced them.
    Estimated {
        /// Estimated `⟨O_i⟩` in input observable order, signs included.
        expectations: Vec<f64>,
        /// Member indices of each commuting group (one shot batch each).
        groups: Vec<Vec<usize>>,
        /// `observables / groups` — the shot-budget saving of grouping.
        shot_budget_divisor: f64,
    },
    /// Answer to `stats`.
    Stats(StatsSummary),
    /// Answer to `metrics`: the full telemetry snapshot.
    Metrics(MetricsSnapshot),
    /// Answer to `health`.
    Health {
        /// Milliseconds since the server started.
        uptime_ms: u64,
    },
    /// Answer to `shutdown`: the server acknowledges and then stops
    /// accepting new work.
    ShuttingDown,
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn str_array(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn f64_array(items: &[f64]) -> Json {
    Json::Array(items.iter().map(|&x| Json::Float(x)).collect())
}

fn groups_json(groups: &[Vec<usize>]) -> Json {
    Json::Array(
        groups
            .iter()
            .map(|g| Json::Array(g.iter().map(|&i| Json::Uint(i as u64)).collect()))
            .collect(),
    )
}

fn groups_from_json(tree: &Json) -> Result<Vec<Vec<usize>>, WireError> {
    let raw = tree
        .get("groups")
        .and_then(Json::as_array)
        .ok_or_else(|| WireError::new("bad_response", "missing `groups`"))?;
    let mut groups = Vec::with_capacity(raw.len());
    for group in raw {
        let indices = group
            .as_array()
            .ok_or_else(|| WireError::new("bad_response", "group is not an array"))?
            .iter()
            .map(|i| {
                i.as_u64()
                    .map(|i| i as usize)
                    .ok_or_else(|| WireError::new("bad_response", "group index is not an integer"))
            })
            .collect::<Result<Vec<usize>, WireError>>()?;
        groups.push(indices);
    }
    Ok(groups)
}

impl Request {
    /// Encodes the request as one JSON frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut entries = vec![
            ("id", Json::Uint(self.id)),
            ("kind", Json::Str(self.kind.name().to_string())),
        ];
        match &self.kind {
            RequestKind::Compile { program, angles } => {
                entries.push(("program", str_array(program)));
                entries.push(("angles", f64_array(angles)));
            }
            RequestKind::Sweep {
                program,
                angle_sets,
            } => {
                entries.push(("program", str_array(program)));
                entries.push((
                    "angle_sets",
                    Json::Array(angle_sets.iter().map(|set| f64_array(set)).collect()),
                ));
            }
            RequestKind::CompileQasm { qasm } => {
                entries.push(("qasm", Json::Str(qasm.clone())));
            }
            RequestKind::BindQasm { qasm, angles } => {
                entries.push(("qasm", Json::Str(qasm.clone())));
                entries.push(("angles", f64_array(angles)));
            }
            RequestKind::Absorb {
                program,
                observables,
            } => {
                entries.push(("program", str_array(program)));
                entries.push(("observables", str_array(observables)));
            }
            RequestKind::Estimate {
                program,
                angles,
                observables,
                shots,
                seed,
            } => {
                entries.push(("program", str_array(program)));
                entries.push(("angles", f64_array(angles)));
                entries.push(("observables", str_array(observables)));
                entries.push(("shots", Json::Uint(*shots)));
                entries.push(("seed", Json::Uint(*seed)));
            }
            RequestKind::Stats
            | RequestKind::Metrics
            | RequestKind::Health
            | RequestKind::Shutdown => {}
        }
        serde_json::to_string(&Json::object(entries)).into_bytes()
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] (kind `"bad_request"`) describing the first
    /// malformed or missing field.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut tree = parse(payload)?;
        let id = field_u64(&tree, "id")?;
        let kind_name = field_str(&mut tree, "kind")?;
        let kind = match kind_name.as_str() {
            "compile" => RequestKind::Compile {
                program: field_strings(&mut tree, "program")?,
                angles: field_f64s(&tree, "angles")?,
            },
            "sweep" => RequestKind::Sweep {
                program: field_strings(&mut tree, "program")?,
                angle_sets: field_f64_sets(&tree, "angle_sets")?,
            },
            "compile_qasm" => RequestKind::CompileQasm {
                qasm: field_str(&mut tree, "qasm")?,
            },
            "bind_qasm" => RequestKind::BindQasm {
                qasm: field_str(&mut tree, "qasm")?,
                angles: field_f64s(&tree, "angles")?,
            },
            "absorb" => RequestKind::Absorb {
                program: field_strings(&mut tree, "program")?,
                observables: field_strings(&mut tree, "observables")?,
            },
            "estimate" => RequestKind::Estimate {
                program: field_strings(&mut tree, "program")?,
                angles: field_f64s(&tree, "angles")?,
                observables: field_strings(&mut tree, "observables")?,
                shots: field_u64(&tree, "shots")?,
                seed: field_u64(&tree, "seed")?,
            },
            "stats" => RequestKind::Stats,
            "metrics" => RequestKind::Metrics,
            "health" => RequestKind::Health,
            "shutdown" => RequestKind::Shutdown,
            other => {
                return Err(WireError::new(
                    "bad_request",
                    format!("unknown request kind `{other}`"),
                ))
            }
        };
        Ok(Request { id, kind })
    }
}

impl CompiledSummary {
    fn to_entries(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("optimized_qasm", Json::Str(self.optimized_qasm.clone())),
            ("extracted_qasm", Json::Str(self.extracted_qasm.clone())),
            ("num_qubits", Json::Uint(self.num_qubits as u64)),
            ("cnot_count", Json::Uint(self.cnot_count as u64)),
            ("gate_count", Json::Uint(self.gate_count as u64)),
        ]
    }

    fn from_json(tree: &mut Json) -> Result<Self, WireError> {
        Ok(CompiledSummary {
            optimized_qasm: field_str(tree, "optimized_qasm")?,
            extracted_qasm: field_str(tree, "extracted_qasm")?,
            num_qubits: field_u64(tree, "num_qubits")? as usize,
            cnot_count: field_u64(tree, "cnot_count")? as usize,
            gate_count: field_u64(tree, "gate_count")? as usize,
        })
    }
}

fn error_json(error: &WireError) -> Json {
    Json::object([
        ("kind", Json::Str(error.kind.clone())),
        ("message", Json::Str(error.message.clone())),
    ])
}

fn error_from_json(tree: &mut Json) -> Result<WireError, WireError> {
    Ok(WireError {
        kind: field_str(tree, "kind")?,
        message: field_str(tree, "message")?,
    })
}

impl Response {
    /// Encodes the response as one JSON frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut entries = vec![("id", Json::Uint(self.id))];
        match &self.body {
            Err(error) => {
                entries.push(("ok", Json::Bool(false)));
                entries.push(("error", error_json(error)));
            }
            Ok(body) => {
                entries.push(("ok", Json::Bool(true)));
                match body {
                    ResponseBody::Compiled(summary) => {
                        entries.push(("kind", Json::Str("compiled".into())));
                        entries.extend(summary.to_entries());
                    }
                    ResponseBody::Sweep(results) => {
                        entries.push(("kind", Json::Str("sweep".into())));
                        let items: Vec<Json> = results
                            .iter()
                            .map(|result| match result {
                                Ok(summary) => {
                                    let mut e = vec![("ok", Json::Bool(true))];
                                    e.extend(summary.to_entries());
                                    Json::object(e)
                                }
                                Err(error) => Json::object([
                                    ("ok", Json::Bool(false)),
                                    ("error", error_json(error)),
                                ]),
                            })
                            .collect();
                        entries.push(("results", Json::Array(items)));
                    }
                    ResponseBody::Absorbed {
                        observables,
                        groups,
                    } => {
                        entries.push(("kind", Json::Str("absorbed".into())));
                        entries.push(("observables", str_array(observables)));
                        entries.push(("groups", groups_json(groups)));
                    }
                    ResponseBody::Estimated {
                        expectations,
                        groups,
                        shot_budget_divisor,
                    } => {
                        entries.push(("kind", Json::Str("estimated".into())));
                        entries.push(("expectations", f64_array(expectations)));
                        entries.push(("groups", groups_json(groups)));
                        entries.push(("shot_budget_divisor", Json::Float(*shot_budget_divisor)));
                    }
                    ResponseBody::Stats(stats) => {
                        entries.push(("kind", Json::Str("stats".into())));
                        entries.push(("hits", Json::Uint(stats.hits)));
                        entries.push(("misses", Json::Uint(stats.misses)));
                        entries.push(("coalesced_waits", Json::Uint(stats.coalesced_waits)));
                        entries.push(("evictions", Json::Uint(stats.evictions)));
                        entries.push(("binds", Json::Uint(stats.binds)));
                        entries.push(("entries", Json::Uint(stats.entries as u64)));
                        entries.push(("capacity", Json::Uint(stats.capacity as u64)));
                        entries.push(("hit_rate", Json::Float(stats.hit_rate)));
                        entries.push(("requests_served", Json::Uint(stats.requests_served)));
                        entries.push((
                            "connections_accepted",
                            Json::Uint(stats.connections_accepted),
                        ));
                        entries.push(("shed_connections", Json::Uint(stats.shed_connections)));
                        entries.push(("deadline_exceeded", Json::Uint(stats.deadline_exceeded)));
                        entries.push(("lane_words", Json::Uint(stats.lane_words)));
                        entries.push(("sweep_threads", Json::Uint(stats.sweep_threads)));
                        entries.push(("uptime_ms", Json::Uint(stats.uptime_ms)));
                    }
                    ResponseBody::Metrics(snapshot) => {
                        entries.push(("kind", Json::Str("metrics".into())));
                        entries.push(("snapshot", snapshot.to_json()));
                    }
                    ResponseBody::Health { uptime_ms } => {
                        entries.push(("kind", Json::Str("health".into())));
                        entries.push(("status", Json::Str("ok".into())));
                        entries.push(("uptime_ms", Json::Uint(*uptime_ms)));
                    }
                    ResponseBody::ShuttingDown => {
                        entries.push(("kind", Json::Str("shutting_down".into())));
                    }
                }
            }
        }
        serde_json::to_string(&Json::object(entries)).into_bytes()
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] (kind `"bad_response"`) for malformed frames.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        // The shared field helpers report `bad_request` (their common use is
        // request decoding); on this side every malformed frame is the
        // *server's* fault, so normalize the kind before it reaches callers
        // that dispatch on it.
        Self::decode_inner(payload).map_err(|e| WireError::new("bad_response", e.message))
    }

    fn decode_inner(payload: &[u8]) -> Result<Response, WireError> {
        let mut tree = parse(payload).map_err(|e| WireError::new("bad_response", e.message))?;
        let id = field_u64(&tree, "id")?;
        let ok = tree
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::new("bad_response", "missing boolean `ok`"))?;
        if !ok {
            let error = tree
                .get_mut("error")
                .ok_or_else(|| WireError::new("bad_response", "failure without `error`"))?;
            return Ok(Response {
                id,
                body: Err(error_from_json(error)?),
            });
        }
        let kind = field_str(&mut tree, "kind")?;
        let body = match kind.as_str() {
            "compiled" => ResponseBody::Compiled(CompiledSummary::from_json(&mut tree)?),
            "sweep" => {
                let Some(Json::Array(items)) = tree.get_mut("results") else {
                    return Err(WireError::new("bad_response", "missing `results` array"));
                };
                let mut results = Vec::with_capacity(items.len());
                for item in items {
                    let ok = item
                        .get("ok")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| WireError::new("bad_response", "sweep item without `ok`"))?;
                    if ok {
                        results.push(Ok(CompiledSummary::from_json(item)?));
                    } else {
                        let error = item.get_mut("error").ok_or_else(|| {
                            WireError::new("bad_response", "failed sweep item without `error`")
                        })?;
                        results.push(Err(error_from_json(error)?));
                    }
                }
                ResponseBody::Sweep(results)
            }
            "absorbed" => ResponseBody::Absorbed {
                observables: field_strings(&mut tree, "observables")?,
                groups: groups_from_json(&tree)?,
            },
            "estimated" => ResponseBody::Estimated {
                expectations: field_f64s(&tree, "expectations")?,
                groups: groups_from_json(&tree)?,
                shot_budget_divisor: field_f64(&tree, "shot_budget_divisor")?,
            },
            "stats" => ResponseBody::Stats(StatsSummary {
                hits: field_u64(&tree, "hits")?,
                misses: field_u64(&tree, "misses")?,
                coalesced_waits: field_u64(&tree, "coalesced_waits")?,
                evictions: field_u64(&tree, "evictions")?,
                binds: field_u64(&tree, "binds")?,
                entries: field_u64(&tree, "entries")? as usize,
                capacity: field_u64(&tree, "capacity")? as usize,
                hit_rate: field_f64(&tree, "hit_rate")?,
                requests_served: field_u64(&tree, "requests_served")?,
                connections_accepted: field_u64(&tree, "connections_accepted")?,
                shed_connections: field_u64_or_zero(&tree, "shed_connections")?,
                deadline_exceeded: field_u64_or_zero(&tree, "deadline_exceeded")?,
                lane_words: field_u64_or_zero(&tree, "lane_words")?,
                sweep_threads: field_u64_or_zero(&tree, "sweep_threads")?,
                uptime_ms: field_u64(&tree, "uptime_ms")?,
            }),
            "metrics" => {
                let snapshot = tree
                    .get("snapshot")
                    .ok_or_else(|| WireError::new("bad_response", "missing `snapshot`"))?;
                ResponseBody::Metrics(
                    MetricsSnapshot::from_json(snapshot)
                        .map_err(|e| WireError::new("bad_response", e))?,
                )
            }
            "health" => ResponseBody::Health {
                uptime_ms: field_u64(&tree, "uptime_ms")?,
            },
            "shutting_down" => ResponseBody::ShuttingDown,
            other => {
                return Err(WireError::new(
                    "bad_response",
                    format!("unknown response kind `{other}`"),
                ))
            }
        };
        Ok(Response { id, body: Ok(body) })
    }
}

// ---------------------------------------------------------------------------
// The warm-path scan
// ---------------------------------------------------------------------------

/// The angles a scanned frame carries.
#[derive(Clone, Debug, PartialEq)]
pub enum ScannedAngles {
    /// A `compile` frame's angles, one per axis.
    Compile(Vec<f64>),
    /// A `sweep` frame's angle sets, in order.
    Sweep(Vec<Vec<f64>>),
}

/// A `compile` or `sweep` frame read in one pass over its bytes, building no
/// `Json` node, `String` or Pauli string: each axis's letters go straight
/// into the program's X/Z words, which [`Self::fingerprint`] hashes into the
/// template cache's key, and its sign into one flag. This is all a warm
/// request needs, since the template is keyed by the axes alone and binding
/// needs only the angles and the signs.
///
/// [`ScannedRequest::scan`] takes a frame only when it can tell that
/// [`Request::decode`] accepts it with the same values *and* that the
/// server's axis parse and angle count check pass: everything else (an
/// escape, a non-ASCII byte, an unknown or repeated field, a non-number
/// angle, an axis that does not parse or is wider than [`MAX_QUBITS`], axes
/// of unequal width, a `compile` whose angle count differs from its axis
/// count, a syntax error) is declined and takes the tree decoder, so every
/// error message stays that decoder's.
///
/// Everything the scan keeps is bounded by the frame's length, so a frame
/// of `n` bytes holds `O(n)` memory however its fields are ordered.
#[derive(Clone, Debug, PartialEq)]
pub struct ScannedRequest<'a> {
    /// Client-chosen correlation id.
    pub id: u64,
    /// The frame's angles, as the tree decoder reads them, bit for bit.
    pub angles: ScannedAngles,
    /// One flag per program axis, set when the axis is negative.
    pub signs: Vec<bool>,
    /// Qubits per axis: a scanned program's axes all have this width.
    num_qubits: usize,
    /// Each axis's X words, then its Z words, `num_qubits.div_ceil(64)` of
    /// each, in [`quclear_pauli::BitVec`]'s layout.
    words: Vec<u64>,
    /// The text between the `program` array's brackets: ASCII, no escapes.
    program: &'a str,
}

impl<'a> ScannedRequest<'a> {
    /// Scans `payload` as a `compile` or `sweep` frame, or returns `None`
    /// when the frame must take [`Request::decode`] instead (any other
    /// kind, and every frame listed in the type's documentation).
    #[must_use]
    pub fn scan(payload: &'a [u8]) -> Option<Self> {
        // Validating the frame once lets every number be read from `str`
        // slices; a frame that is not UTF-8 takes the tree decoder's error.
        let text = std::str::from_utf8(payload).ok()?;
        let mut scan = Scan {
            text,
            src: payload,
            pos: 0,
            // Every number takes a digit and a separator.
            spare: payload.len() / 2,
        };
        let mut id = None;
        let mut sweep = None;
        let mut program = None;
        let mut angles = None;
        let mut angle_sets = None;
        scan.expect(b'{')?;
        loop {
            let key = scan.plain_str()?;
            scan.expect(b':')?;
            let axes = program.as_ref().map(|p: &ScannedProgram| p.signs.len());
            match key {
                b"id" if id.is_none() => id = Some(scan.number()?.as_u64()?),
                b"kind" if sweep.is_none() => {
                    sweep = Some(match scan.plain_str()? {
                        b"compile" => false,
                        b"sweep" => true,
                        _ => return None,
                    });
                }
                b"program" if program.is_none() => program = Some(scan.program()?),
                b"angles" if angles.is_none() => angles = Some(scan.numbers(axes)?),
                b"angle_sets" if angle_sets.is_none() => {
                    angle_sets = Some(scan.number_sets(axes)?);
                }
                _ => return None,
            }
            if !scan.eat(b',') {
                break;
            }
        }
        scan.expect(b'}')?;
        scan.skip_ws();
        if scan.pos != payload.len() {
            return None;
        }
        let ScannedProgram {
            span,
            num_qubits,
            words,
            signs,
        } = program?;
        let angles = match (sweep?, angles, angle_sets) {
            (false, Some(angles), None) if angles.len() == signs.len() => {
                ScannedAngles::Compile(angles)
            }
            (true, None, Some(sets)) => ScannedAngles::Sweep(sets),
            _ => return None,
        };
        Some(ScannedRequest {
            id: id?,
            angles,
            signs,
            num_qubits,
            words,
            program: span,
        })
    }

    /// The request's wire kind name.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self.angles {
            ScannedAngles::Compile(_) => "compile",
            ScannedAngles::Sweep(_) => "sweep",
        }
    }

    /// The structural fingerprint of the program's sign-stripped axes under
    /// `config`: what [`ProgramFingerprint::of_axes`] gives for the parsed
    /// axes, hashed from the scanned words.
    #[must_use]
    pub fn fingerprint(&self, config: &QuClearConfig) -> ProgramFingerprint {
        let mut builder = FingerprintBuilder::new(config);
        let words = self.num_qubits.div_ceil(64);
        if words > 0 {
            for axis in self.words.chunks_exact(2 * words) {
                let (xs, zs) = axis.split_at(words);
                builder.axis(self.num_qubits, xs, zs, false);
            }
        }
        builder.finish()
    }

    /// The program's axes as the frame spells them, signs included: what a
    /// template miss parses.
    pub fn axes(&self) -> impl Iterator<Item = &'a str> {
        // The scan checked that the span is quoted strings without escapes,
        // separated by commas and whitespace.
        self.program.split('"').skip(1).step_by(2)
    }
}

/// What [`Scan::program`] reads: the fields of [`ScannedRequest`] that
/// describe the program.
struct ScannedProgram<'a> {
    span: &'a str,
    num_qubits: usize,
    words: Vec<u64>,
    signs: Vec<bool>,
}

/// The scan's cursor: the frame's bytes and the next one to read. Its
/// whitespace set and number grammar are the tree parser's
/// (`serde_json::from_str`, whose number reader it calls).
struct Scan<'a> {
    /// The frame; `src` is its bytes.
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// The numbers the frame may still hold, at most half its bytes: what
    /// [`Self::numbers`] may still reserve on an expected count's word.
    spare: usize,
}

impl<'a> Scan<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.src.get(self.pos) == Some(&byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) -> Option<()> {
        self.eat(byte).then_some(())
    }

    /// A string holding only printable ASCII other than `\`, without its
    /// quotes.
    fn plain_str(&mut self) -> Option<&'a [u8]> {
        self.expect(b'"')?;
        let rest = &self.src[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || !(0x20..0x80).contains(&b))?;
        if rest[len] != b'"' {
            return None;
        }
        self.pos += len + 1;
        Some(&rest[..len])
    }

    /// A number, read by the tree parser's own reader, so its grammar and its
    /// `Uint`/`Int`/`Float` classification are the tree's.
    fn number(&mut self) -> Option<Json> {
        self.skip_ws();
        if !matches!(self.src.get(self.pos), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        // Every byte before `pos` that the scan read is ASCII, so `pos` is
        // a character boundary.
        let (value, len) = serde_json::number_prefix(&self.text[self.pos..]).ok()?;
        self.pos += len;
        Some(value)
    }

    /// An array of numbers as `f64`s, in a vector sized up front, so reading
    /// it allocates once (an empty one allocates nothing). The size is
    /// `expected` (one number per axis, when the program came first) while
    /// the frame's [`Self::spare`] covers it, else one more than the commas
    /// before the array's `]`. An honest frame's expected counts add up to
    /// the numbers it holds; a frame of `n` bytes that lies about them (a
    /// long program before many short sets) still reserves at most `n / 2`
    /// numbers on their word.
    fn numbers(&mut self, expected: Option<usize>) -> Option<Vec<f64>> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Some(Vec::new());
        }
        let len = match expected {
            Some(len) if len <= self.spare => {
                self.spare -= len;
                len
            }
            _ => {
                let rest = &self.src[self.pos..];
                let end = rest.iter().position(|&b| b == b']').unwrap_or(rest.len());
                rest[..end].iter().filter(|&&b| b == b',').count() + 1
            }
        };
        let mut out = Vec::with_capacity(len);
        loop {
            out.push(self.number()?.as_f64()?);
            if !self.eat(b',') {
                self.expect(b']')?;
                return Some(out);
            }
        }
    }

    /// An array of [`Self::numbers`] arrays, each expected `expected` long.
    fn number_sets(&mut self, expected: Option<usize>) -> Option<Vec<Vec<f64>>> {
        self.expect(b'[')?;
        let mut sets = Vec::new();
        if self.eat(b']') {
            return Some(sets);
        }
        loop {
            sets.push(self.numbers(expected)?);
            if !self.eat(b',') {
                self.expect(b']')?;
                return Some(sets);
            }
        }
    }

    /// The `program` array, its axes sign-stripped. Each axis's letters are
    /// read into the program's words by the word loop
    /// `PauliString::from_str` runs; the sign strip is
    /// `SignedPauli::from_str`'s. Both vectors are sized once, after the
    /// first axis, from its width and the bytes left in the frame.
    fn program(&mut self) -> Option<ScannedProgram<'a>> {
        self.expect(b'[')?;
        let start = self.pos;
        let mut program = ScannedProgram {
            span: "",
            num_qubits: 0,
            words: Vec::new(),
            signs: Vec::new(),
        };
        let mut end = self.pos;
        if !self.eat(b']') {
            loop {
                let axis = self.plain_str()?;
                let (negative, letters) = match axis.split_first() {
                    Some((b'-', rest)) => (true, rest),
                    Some((b'+', rest)) => (false, rest),
                    _ => (false, axis),
                };
                let n = letters.len();
                let words = n.div_ceil(64);
                if program.signs.is_empty() {
                    if n == 0 || n > MAX_QUBITS {
                        return None;
                    }
                    // Each later axis takes at least `n + 3` bytes (`,"…"`).
                    let axes = 1 + (self.src.len() - self.pos) / (n + 3);
                    program.num_qubits = n;
                    program.words.reserve_exact(2 * words * axes);
                    program.signs.reserve_exact(axes);
                } else if n != program.num_qubits {
                    return None;
                }
                let at = program.words.len();
                program.words.resize(at + 2 * words, 0);
                let (xs, zs) = program.words[at..].split_at_mut(words);
                PauliString::letters_into_words(letters, xs, zs).ok()?;
                program.signs.push(negative);
                end = self.pos;
                if !self.eat(b',') {
                    self.expect(b']')?;
                    break;
                }
            }
        }
        program.span = &self.text[start..end];
        Some(program)
    }
}

// ---------------------------------------------------------------------------
// JSON field helpers
// ---------------------------------------------------------------------------

fn parse(payload: &[u8]) -> Result<Json, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| WireError::new("bad_request", "frame is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| WireError::new("bad_request", e.to_string()))
}

fn field<'a>(tree: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    tree.get(key)
        .ok_or_else(|| WireError::new("bad_request", format!("missing field `{key}`")))
}

fn field_mut<'a>(tree: &'a mut Json, key: &str) -> Result<&'a mut Json, WireError> {
    tree.get_mut(key)
        .ok_or_else(|| WireError::new("bad_request", format!("missing field `{key}`")))
}

fn field_u64(tree: &Json, key: &str) -> Result<u64, WireError> {
    field(tree, key)?
        .as_u64()
        .ok_or_else(|| WireError::new("bad_request", format!("field `{key}` is not an integer")))
}

fn field_f64(tree: &Json, key: &str) -> Result<f64, WireError> {
    field(tree, key)?
        .as_f64()
        .ok_or_else(|| WireError::new("bad_request", format!("field `{key}` is not a number")))
}

/// Like [`field_u64`] but tolerating absence (decodes as 0) for counters
/// added to the stats payload after the first protocol release; a *present*
/// non-integer value is still an error.
fn field_u64_or_zero(tree: &Json, key: &str) -> Result<u64, WireError> {
    match tree.get(key) {
        None => Ok(0),
        Some(value) => value.as_u64().ok_or_else(|| {
            WireError::new("bad_request", format!("field `{key}` is not an integer"))
        }),
    }
}

/// Moves a decoded string out of the tree instead of copying it; the tree
/// is dropped once its fields are read. The parser grows strings by
/// doubling and a moved string outlives the tree, so it gives back the
/// slack first (usually a shrink in place): keeping up to 2× each QASM
/// text raised perfbench `qaoa_sweep`'s peak RSS by about a third, as its
/// oracle holds on to decoded sweep responses.
fn take_string(s: &mut String) -> String {
    let mut s = std::mem::take(s);
    s.shrink_to_fit();
    s
}

/// Moves the string at `key` out of the tree, via [`take_string`].
fn field_str(tree: &mut Json, key: &str) -> Result<String, WireError> {
    match field_mut(tree, key)? {
        Json::Str(s) => Ok(take_string(s)),
        _ => Err(WireError::new(
            "bad_request",
            format!("field `{key}` is not a string"),
        )),
    }
}

/// Moves the strings of the array at `key` out of the tree, via
/// [`take_string`].
fn field_strings(tree: &mut Json, key: &str) -> Result<Vec<String>, WireError> {
    let Json::Array(items) = field_mut(tree, key)? else {
        return Err(WireError::new(
            "bad_request",
            format!("field `{key}` is not an array"),
        ));
    };
    items
        .iter_mut()
        .map(|item| match item {
            Json::Str(s) => Ok(take_string(s)),
            _ => Err(WireError::new(
                "bad_request",
                format!("`{key}` items must be strings"),
            )),
        })
        .collect()
}

fn field_f64s(tree: &Json, key: &str) -> Result<Vec<f64>, WireError> {
    field(tree, key)?
        .as_array()
        .ok_or_else(|| WireError::new("bad_request", format!("field `{key}` is not an array")))?
        .iter()
        .map(|item| {
            item.as_f64().ok_or_else(|| {
                WireError::new("bad_request", format!("`{key}` items must be numbers"))
            })
        })
        .collect()
}

fn field_f64_sets(tree: &Json, key: &str) -> Result<Vec<Vec<f64>>, WireError> {
    field(tree, key)?
        .as_array()
        .ok_or_else(|| WireError::new("bad_request", format!("field `{key}` is not an array")))?
        .iter()
        .map(|set| {
            set.as_array()
                .ok_or_else(|| {
                    WireError::new("bad_request", format!("`{key}` items must be arrays"))
                })?
                .iter()
                .map(|item| {
                    item.as_f64().ok_or_else(|| {
                        WireError::new("bad_request", format!("`{key}` entries must be numbers"))
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-trivial telemetry snapshot: one of each metric kind, with and
    /// without labels, so the wire encoding of all three sections is covered.
    fn sample_snapshot() -> quclear_telemetry::MetricsSnapshot {
        let registry = quclear_telemetry::MetricsRegistry::new();
        registry.counter("reqs_total", "requests").add(7);
        registry
            .counter_labeled("errs_total", "errors", ("kind", "compile"))
            .add(2);
        registry.gauge("queue_depth", "queued connections").set(3);
        let latency = registry.histogram_labeled("latency_ns", "latency", ("kind", "compile"));
        for v in [100, 900, 4_000] {
            latency.record(v);
        }
        registry.snapshot()
    }

    fn roundtrip_request(kind: RequestKind) {
        let request = Request { id: 42, kind };
        let decoded = Request::decode(&request.encode()).expect("must decode");
        assert_eq!(decoded, request);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(RequestKind::Compile {
            program: vec!["ZZII".into(), "-XXYY".into()],
            angles: vec![0.25, -1.5],
        });
        roundtrip_request(RequestKind::Sweep {
            program: vec!["ZZ".into()],
            angle_sets: vec![vec![0.1], vec![0.2], vec![]],
        });
        roundtrip_request(RequestKind::CompileQasm {
            qasm: "qreg q[2];\ncx q[0], q[1];\n".into(),
        });
        roundtrip_request(RequestKind::BindQasm {
            qasm: "qreg q[1];\nrz(0.5) q[0];\n".into(),
            angles: vec![2.5],
        });
        roundtrip_request(RequestKind::Absorb {
            program: vec!["ZZ".into()],
            observables: vec!["+ZI".into(), "-IZ".into()],
        });
        roundtrip_request(RequestKind::Estimate {
            program: vec!["ZZ".into(), "XX".into()],
            angles: vec![0.25, -1.5],
            observables: vec!["+ZI".into(), "-IZ".into()],
            shots: 4096,
            seed: 17,
        });
        roundtrip_request(RequestKind::Stats);
        roundtrip_request(RequestKind::Metrics);
        roundtrip_request(RequestKind::Health);
        roundtrip_request(RequestKind::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        let summary = CompiledSummary {
            optimized_qasm: "OPENQASM 2.0;\n".into(),
            extracted_qasm: String::new(),
            num_qubits: 4,
            cnot_count: 3,
            gate_count: 9,
        };
        let bodies = vec![
            ResponseBody::Compiled(summary.clone()),
            ResponseBody::Sweep(vec![
                Ok(summary.clone()),
                Err(WireError::new("angle_count", "expected 2, got 1")),
            ]),
            ResponseBody::Absorbed {
                observables: vec!["+ZZ".into(), "-XI".into()],
                groups: vec![vec![0, 1], vec![]],
            },
            ResponseBody::Estimated {
                expectations: vec![0.5, -0.25, 1.0],
                groups: vec![vec![0, 2], vec![1]],
                shot_budget_divisor: 1.5,
            },
            ResponseBody::Stats(StatsSummary {
                hits: 10,
                misses: 2,
                coalesced_waits: 3,
                evictions: 0,
                binds: 12,
                entries: 2,
                capacity: 64,
                hit_rate: 10.0 / 12.0,
                requests_served: 15,
                connections_accepted: 4,
                shed_connections: 2,
                deadline_exceeded: 1,
                lane_words: 4,
                sweep_threads: 8,
                uptime_ms: 12345,
            }),
            ResponseBody::Metrics(sample_snapshot()),
            ResponseBody::Health { uptime_ms: 1 },
            ResponseBody::ShuttingDown,
        ];
        for body in bodies {
            let response = Response {
                id: 7,
                body: Ok(body),
            };
            let decoded = Response::decode(&response.encode()).expect("must decode");
            assert_eq!(decoded, response);
        }
        let failure = Response {
            id: 8,
            body: Err(WireError::new("panicked", "compilation panicked: boom")),
        };
        assert_eq!(Response::decode(&failure.encode()).unwrap(), failure);
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world").unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(
            read_frame(&mut reader, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(&b""[..])
        );
        assert_eq!(
            read_frame(&mut reader, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(&b"world"[..])
        );
        assert_eq!(read_frame(&mut reader, MAX_FRAME_BYTES).unwrap(), None);
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        // A length prefix beyond the cap must be rejected before allocating.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut reader = wire.as_slice();
        assert!(read_frame(&mut reader, MAX_FRAME_BYTES).is_err());

        // A frame cut mid-payload is an UnexpectedEof, not a clean end.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"truncated").unwrap();
        wire.truncate(wire.len() - 3);
        let mut reader = wire.as_slice();
        let err = read_frame(&mut reader, MAX_FRAME_BYTES).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Writing above the cap fails locally.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }

    #[test]
    fn non_finite_angles_encode_without_panicking_and_fail_decode() {
        // JSON has no NaN/inf spelling; they encode as null, and the typed
        // decode rejects the null with a structured error (no panic on
        // either side of the wire).
        let request = Request {
            id: 1,
            kind: RequestKind::Compile {
                program: vec!["ZZ".into()],
                angles: vec![f64::NAN, f64::INFINITY],
            },
        };
        let err = Request::decode(&request.encode()).unwrap_err();
        assert_eq!(err.kind, "bad_request");
        assert!(err.message.contains("angles"), "{err}");
    }

    #[test]
    fn stats_without_request_latencies_still_decode() {
        // A response from a server predating the later stats fields must
        // decode, with those fields defaulting to zero.
        let legacy = br#"{"id": 5, "ok": true, "kind": "stats",
            "hits": 1, "misses": 2, "coalesced_waits": 0, "evictions": 0,
            "binds": 3, "entries": 1, "capacity": 64, "hit_rate": 0.333,
            "requests_served": 6, "connections_accepted": 1, "uptime_ms": 9}"#;
        // Servers that still send the retired `request_latencies` digests
        // decode too; the field is ignored (`metrics` carries the full
        // per-kind histograms).
        let with_digests = br#"{"id": 5, "ok": true, "kind": "stats",
            "hits": 1, "misses": 2, "coalesced_waits": 0, "evictions": 0,
            "binds": 3, "entries": 1, "capacity": 64, "hit_rate": 0.333,
            "requests_served": 6, "connections_accepted": 1, "uptime_ms": 9,
            "request_latencies": [{"kind": "compile", "count": 1,
                "p50_ns": 10, "p99_ns": 20}]}"#;
        let decoded = Response::decode(legacy).expect("legacy stats must decode");
        assert_eq!(
            Response::decode(with_digests).expect("stats with digests must decode"),
            decoded
        );
        match decoded.body {
            Ok(ResponseBody::Stats(stats)) => {
                assert_eq!(stats.hits, 1);
                // Overload counters from after this payload's vintage
                // default to zero.
                assert_eq!(stats.shed_connections, 0);
                assert_eq!(stats.deadline_exceeded, 0);
                // So do the kernel-configuration fields.
                assert_eq!(stats.lane_words, 0);
                assert_eq!(stats.sweep_threads, 0);
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn only_shutdown_is_not_idempotent() {
        assert!(RequestKind::Compile {
            program: vec!["ZZ".into()],
            angles: vec![0.1],
        }
        .is_idempotent());
        assert!(RequestKind::Sweep {
            program: vec!["ZZ".into()],
            angle_sets: vec![],
        }
        .is_idempotent());
        assert!(RequestKind::CompileQasm {
            qasm: String::new()
        }
        .is_idempotent());
        assert!(RequestKind::BindQasm {
            qasm: String::new(),
            angles: vec![],
        }
        .is_idempotent());
        assert!(RequestKind::Absorb {
            program: vec![],
            observables: vec![],
        }
        .is_idempotent());
        // Estimation is deterministic in its seed, hence safely retryable.
        assert!(RequestKind::Estimate {
            program: vec![],
            angles: vec![],
            observables: vec![],
            shots: 1,
            seed: 0,
        }
        .is_idempotent());
        assert!(RequestKind::Stats.is_idempotent());
        assert!(RequestKind::Metrics.is_idempotent());
        assert!(RequestKind::Health.is_idempotent());
        assert!(!RequestKind::Shutdown.is_idempotent());
    }

    #[test]
    fn malformed_responses_report_bad_response_not_bad_request() {
        for bad in [
            &b"not json"[..],
            br#"{"id": 1}"#,
            br#"{"id": 1, "ok": true, "kind": "stats"}"#,
            br#"{"id": 1, "ok": true, "kind": "wat"}"#,
        ] {
            let err = Response::decode(bad).unwrap_err();
            assert_eq!(err.kind, "bad_response", "payload {bad:?}: {err}");
        }
    }

    #[test]
    fn unicode_escapes_with_a_sign_are_rejected() {
        // `u32::from_str_radix` accepts a leading `+`, which once decoded
        // this axis as `ZI`.
        let frame = br#"{"id":1,"kind":"compile","program":["Z\u+049"],"angles":[0.5]}"#;
        let err = Request::decode(frame).unwrap_err();
        assert_eq!(err.kind, "bad_request");
        assert_eq!(
            err.message,
            "serde_json error: invalid \\u escape at byte 40"
        );
    }

    #[test]
    fn write_frame_with_limit_honors_the_cap() {
        let payload = vec![0u8; 512];
        assert!(write_frame_with_limit(&mut Vec::new(), &payload, 256).is_err());
        let mut wire = Vec::new();
        write_frame_with_limit(&mut wire, &payload, 1024).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader, 1024).unwrap().map(|p| p.len()),
            Some(512)
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        let err = Request::decode(b"not json").unwrap_err();
        assert_eq!(err.kind, "bad_request");

        let err = Request::decode(br#"{"id": 1, "kind": "launch_missiles"}"#).unwrap_err();
        assert!(err.message.contains("launch_missiles"));

        let err =
            Request::decode(br#"{"id": 1, "kind": "compile", "program": ["ZZ"]}"#).unwrap_err();
        assert!(err.message.contains("angles"));

        let err = Request::decode(br#"{"kind": "stats"}"#).unwrap_err();
        assert!(err.message.contains("id"));
    }
}
