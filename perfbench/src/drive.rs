//! The closed loop: `clients` connections, each sending its next request
//! only after the previous answer arrived, like the VQE/QAOA optimizer loops
//! the server exists for.
//!
//! Every response gets the cheap checks here (shape, and the per-structure
//! CNOT and group counts every answer must repeat); a bounded sample is kept
//! for the statevector oracles that run after the window.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use quclear_engine::Engine;
use quclear_serve::protocol::{read_frame, write_frame, MAX_FRAME_BYTES};
use quclear_serve::{Client, Request, RequestKind, Response, ResponseBody};
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::{median_f64, median_u64};
use crate::workload::{self, Structure, Workload, SWEEP_POINTS};

/// A response kept for the oracles, with the request that produced it.
#[derive(Debug)]
pub struct Sample {
    pub structure: usize,
    pub kind: RequestKind,
    pub body: ResponseBody,
}

/// A traced round trip kept for the per-layer replay.
#[derive(Debug)]
pub struct Traced {
    /// The encoded request, as sent.
    pub request: Vec<u8>,
    pub response_bytes: usize,
    pub body: ResponseBody,
    /// Client-side instants: before encode, after encode, after the response
    /// frame arrived, after decode.
    pub marks: [Instant; 4],
}

/// Per-structure facts every response must repeat: the returned circuit's
/// CNOT count and the number of commuting groups. The first answer fixes
/// them; setup primes them on the warm workloads.
#[derive(Debug)]
pub struct Expected {
    pub cx: Vec<OnceLock<usize>>,
    pub groups: Vec<OnceLock<usize>>,
}

impl Expected {
    pub fn new(structures: usize) -> Expected {
        Expected {
            cx: (0..structures).map(|_| OnceLock::new()).collect(),
            groups: (0..structures).map(|_| OnceLock::new()).collect(),
        }
    }
}

fn repeat(cell: &OnceLock<usize>, got: usize, what: &str, name: &str) -> Result<(), String> {
    let want = *cell.get_or_init(|| got);
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{name}: {what} {got} differs from the earlier {want}"
        ))
    }
}

/// The cheap per-response checks.
pub fn check_response(
    s: &Structure,
    index: usize,
    expected: &Expected,
    body: &ResponseBody,
) -> Result<(), String> {
    let compiled = |summary: &quclear_serve::CompiledSummary| {
        if summary.num_qubits != s.num_qubits {
            return Err(format!(
                "{}: {} qubits returned, expected {}",
                s.name, summary.num_qubits, s.num_qubits
            ));
        }
        repeat(
            &expected.cx[index],
            summary.cnot_count,
            "CNOT count",
            &s.name,
        )
    };
    match body {
        ResponseBody::Compiled(summary) => compiled(summary),
        ResponseBody::Sweep(results) => {
            if results.len() != SWEEP_POINTS {
                return Err(format!(
                    "{}: sweep returned {} results",
                    s.name,
                    results.len()
                ));
            }
            results.iter().try_for_each(|result| match result {
                Ok(summary) => compiled(summary),
                Err(e) => Err(format!("{}: sweep point failed: {e}", s.name)),
            })
        }
        ResponseBody::Estimated {
            expectations,
            groups,
            ..
        } => {
            if expectations.len() != s.observables.len() {
                return Err(format!(
                    "{}: {} expectations for {} observables",
                    s.name,
                    expectations.len(),
                    s.observables.len()
                ));
            }
            if let Some(bad) = expectations
                .iter()
                .find(|e| !e.is_finite() || e.abs() > 1.0 + 1e-12)
            {
                return Err(format!("{}: expectation {bad} is not in [-1, 1]", s.name));
            }
            let members: usize = groups.iter().map(Vec::len).sum();
            if members != s.observables.len() {
                return Err(format!(
                    "{}: groups cover {members} of {} observables",
                    s.name,
                    s.observables.len()
                ));
            }
            repeat(
                &expected.groups[index],
                groups.len(),
                "group count",
                &s.name,
            )
        }
        other => Err(format!("{}: unexpected response {other:?}", s.name)),
    }
}

/// Sub-windows per phase for the windowed medians.
const WINDOWS: usize = 20;

/// What one phase of the loop produced, merged over clients.
#[derive(Debug, Default)]
pub struct Phase {
    pub latencies_ns: Vec<u64>,
    /// Completion time of every answered request, from the phase start.
    pub completions_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub samples: Vec<Sample>,
    pub traced: Vec<Traced>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latencies_ns.extend(other.latencies_ns);
        self.completions_ns.extend(other.completions_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.samples.extend(other.samples);
        self.traced.extend(other.traced);
    }

    /// Medians over sub-windows of throughput (1/s) and of the windows'
    /// median latency (ns), so a noisy second moves neither. A window is a
    /// run of consecutive completions, a whole number of `cycle`s of the
    /// workload's mix long, about `WINDOWS` per phase; its throughput is its
    /// completions over the time since the previous window ended, so a
    /// low-rate workload is not rounded to whole requests per second.
    pub fn windowed(&self, cycle: usize) -> (f64, f64) {
        let mut done: Vec<(u64, u64)> = self
            .completions_ns
            .iter()
            .copied()
            .zip(self.latencies_ns.iter().copied())
            .collect();
        done.sort_unstable();
        let size = (done.len() / WINDOWS / cycle * cycle).max(cycle);
        let mut rates = Vec::new();
        let mut p50s = Vec::new();
        let mut previous_end = 0;
        for window in done.chunks_exact(size) {
            let end = window[size - 1].0;
            rates.push(size as f64 / ((end - previous_end).max(1) as f64 / 1e9));
            previous_end = end;
            let mut latencies: Vec<u64> = window.iter().map(|&(_, latency)| latency).collect();
            latencies.sort_unstable();
            p50s.push(median_u64(&latencies));
        }
        rates.sort_by(f64::total_cmp);
        p50s.sort_by(f64::total_cmp);
        (median_f64(&rates), median_f64(&p50s))
    }

    pub fn note_failure(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }
}

/// A traced exchange: the encoded request, the response frame's size, and
/// the client-side instants of [`Traced::marks`].
type Wire = (Vec<u8>, usize, [Instant; 4]);

/// One connection. `Traced` speaks the protocol through its public
/// functions, so the client-side encode and decode can be timed from
/// outside; `Plain` is the stock client, as a user would run it.
enum Conn {
    Plain(Client),
    Traced {
        stream: TcpStream,
        addr: SocketAddr,
        next_id: u64,
    },
}

impl Conn {
    fn open(addr: SocketAddr, traced: bool) -> Result<Conn, String> {
        if traced {
            Ok(Conn::Traced {
                stream: dial(addr)?,
                addr,
                next_id: 1,
            })
        } else {
            Client::connect(addr)
                .map(Conn::Plain)
                .map_err(|e| format!("connect: {e}"))
        }
    }

    fn call(&mut self, kind: RequestKind) -> Result<(ResponseBody, Option<Wire>), String> {
        match self {
            Conn::Plain(client) => {
                let result = client.request(kind).map_err(|e| e.to_string());
                if result.is_err() && client.is_broken() {
                    let _ = client.reconnect();
                }
                result.map(|body| (body, None))
            }
            Conn::Traced {
                stream,
                addr,
                next_id,
            } => {
                let id = *next_id;
                *next_id += 1;
                let t0 = Instant::now();
                let payload = Request { id, kind }.encode();
                let t1 = Instant::now();
                let exchanged = write_frame(stream, &payload)
                    .and_then(|()| read_frame(stream, MAX_FRAME_BYTES))
                    .map_err(|e| format!("transport: {e}"))
                    .and_then(|frame| {
                        frame.ok_or_else(|| "server closed the connection".to_string())
                    });
                let frame = match exchanged {
                    Ok(frame) => frame,
                    Err(e) => {
                        if let Ok(fresh) = dial(*addr) {
                            *stream = fresh;
                        }
                        return Err(e);
                    }
                };
                let t2 = Instant::now();
                let response = Response::decode(&frame).map_err(|e| format!("decode: {e}"))?;
                let t3 = Instant::now();
                if response.id != id {
                    return Err(format!("response id {} for request {id}", response.id));
                }
                let body = response.body.map_err(|e| format!("server error: {e}"))?;
                Ok((body, Some((payload, frame.len(), [t0, t1, t2, t3]))))
            }
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn dial(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

/// `table2_cold`'s shared pass queue: the clients take the 19 programs of a
/// pass in a seeded order; when a pass is used up they meet at a barrier (so
/// nothing is in flight), one of them clears the template cache, and the
/// next pass starts — unless the window is over.
struct Passes {
    state: Mutex<(Vec<usize>, usize, StdRng)>,
    barrier: Barrier,
    stop: AtomicBool,
    deadline: Instant,
    engine: Arc<Engine>,
}

impl Passes {
    fn next(&self) -> Option<usize> {
        loop {
            {
                let mut state = self
                    .state
                    .lock()
                    .expect("pass queue poisoned by a panicking client");
                let (order, next, _) = &mut *state;
                if let Some(&index) = order.get(*next) {
                    *next += 1;
                    return Some(index);
                }
            }
            if self.barrier.wait().is_leader() {
                self.engine.clear_cache();
                if Instant::now() >= self.deadline {
                    self.stop.store(true, Ordering::SeqCst);
                } else {
                    let mut state = self
                        .state
                        .lock()
                        .expect("pass queue poisoned by a panicking client");
                    let (order, next, rng) = &mut *state;
                    *order = workload::pass_order(order.len(), rng);
                    *next = 0;
                }
            }
            self.barrier.wait();
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
        }
    }
}

pub struct Load<'a> {
    pub workload: Workload,
    pub structures: &'a [Structure],
    pub expected: &'a Expected,
    pub addr: SocketAddr,
    pub engine: &'a Arc<Engine>,
    pub clients: usize,
}

impl Load<'_> {
    /// Runs the closed loop for `window`. `stream` separates the request
    /// streams of phases that share one seed.
    pub fn run(
        &self,
        seed: u64,
        stream: u64,
        window: Duration,
        traced: bool,
    ) -> Result<Phase, String> {
        let mut conns = (0..self.clients)
            .map(|_| Conn::open(self.addr, traced))
            .collect::<Result<Vec<_>, _>>()?;
        let start = Instant::now();
        let deadline = start + window;
        let passes = (self.workload == Workload::Table2Cold).then(|| {
            // Every request of a pass must miss, starting with the first.
            self.engine.clear_cache();
            let mut rng = workload::rng(seed, stream);
            Passes {
                state: Mutex::new((
                    workload::pass_order(self.structures.len(), &mut rng),
                    0,
                    rng,
                )),
                barrier: Barrier::new(self.clients),
                stop: AtomicBool::new(false),
                deadline,
                engine: Arc::clone(self.engine),
            }
        });
        let phases = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let passes = passes.as_ref();
                    scope.spawn(move || {
                        let mut rng = workload::rng(seed, stream * 64 + c as u64 + 1);
                        let cycle = workload::mix(self.workload);
                        let mut turn = rng.gen_range(0..cycle.len());
                        let mut next = || match passes {
                            Some(passes) => passes
                                .next()
                                .map(|i| (i, workload::native_compile(&self.structures[i]))),
                            None => (Instant::now() < deadline).then(|| {
                                let index = cycle[turn % cycle.len()];
                                turn += 1;
                                (
                                    index,
                                    workload::warm_request(
                                        self.workload,
                                        self.structures,
                                        index,
                                        &mut rng,
                                    ),
                                )
                            }),
                        };
                        self.client_loop(conn, traced, start, &mut next)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        let mut merged = Phase::default();
        for phase in phases {
            merged.merge(phase);
        }
        Ok(merged)
    }

    fn client_loop(
        &self,
        conn: &mut Conn,
        traced: bool,
        phase_start: Instant,
        next: &mut dyn FnMut() -> Option<(usize, RequestKind)>,
    ) -> Phase {
        let oracle = self.workload.oracle_samples();
        let replay = self.workload.replay_samples();
        let mut phase = Phase::default();
        let mut seen = vec![0usize; self.structures.len()];
        let mut index = 0u64;
        while let Some((structure, kind)) = next() {
            let s = &self.structures[structure];
            let keep_sample = oracle.keep(seen[structure], index, phase.samples.len());
            let keep_trace = traced && replay.keep(seen[structure], index, phase.traced.len());
            seen[structure] += 1;
            index += 1;
            phase.attempted += 1;
            let kept_kind = keep_sample.then(|| kind.clone());
            let start = Instant::now();
            let answer = conn.call(kind);
            let latency = start.elapsed();
            let (body, wire) = match answer {
                Ok(answer) => answer,
                Err(e) => {
                    phase.note_failure(format!("{}: {e}", s.name));
                    continue;
                }
            };
            phase.latencies_ns.push(nanos(latency));
            phase.completions_ns.push(nanos(phase_start.elapsed()));
            if let Err(e) = check_response(s, structure, self.expected, &body) {
                phase.note_failure(e);
            }
            if let (true, Some((request, response_bytes, marks))) = (keep_trace, wire) {
                phase.traced.push(Traced {
                    request,
                    response_bytes,
                    body: body.clone(),
                    marks,
                });
            }
            if let Some(kind) = kept_kind {
                phase.samples.push(Sample {
                    structure,
                    kind,
                    body,
                });
            }
        }
        phase
    }
}
