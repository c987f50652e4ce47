//! End-to-end service tests: many client threads against one server.
//!
//! These prove the two acceptance properties of the serving layer:
//!
//! 1. **Single-flight coalescing** — K concurrent requests for the same
//!    uncached structure trigger exactly one extraction (`misses == 1`),
//!    with the overlap visible in `coalesced_waits`.
//! 2. **Panic robustness** — a deliberately panicking compile answers its
//!    own request with an error and nothing else: the worker, the other
//!    connections and the engine cache all keep serving.
//!
//! Shutdown is exercised in every test: `Server::stop` joins all server
//! threads, so a test that returns has, by construction, leaked none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use quclear_circuit::qasm::to_qasm;
use quclear_engine::{Engine, ProgramFingerprint, ENGINE_STAGE_METRIC, MAX_QUBITS};
use quclear_pauli::PauliRotation;
use quclear_serve::{
    Client, ClientError, CompiledSummary, RequestKind, Response, ResponseBody, Server, ServerConfig,
};

/// Liveness probe through the generic request path: the server's uptime in
/// milliseconds.
fn health(client: &mut Client) -> Result<u64, ClientError> {
    match client.request(RequestKind::Health)? {
        ResponseBody::Health { uptime_ms } => Ok(uptime_ms),
        other => panic!("unexpected health response {other:?}"),
    }
}

/// Asks the server to shut down; a `forbidden` remote error unless the
/// server allows remote shutdown.
fn shutdown_server(client: &mut Client) -> Result<(), ClientError> {
    match client.request(RequestKind::Shutdown)? {
        ResponseBody::ShuttingDown => Ok(()),
        other => panic!("unexpected shutdown response {other:?}"),
    }
}

/// Compiles QASM text with its rotation angles overridden.
fn bind_qasm(
    client: &mut Client,
    qasm: &str,
    angles: &[f64],
) -> Result<CompiledSummary, ClientError> {
    let kind = RequestKind::BindQasm {
        qasm: qasm.to_string(),
        angles: angles.to_vec(),
    };
    match client.request(kind)? {
        ResponseBody::Compiled(summary) => Ok(summary),
        other => panic!("unexpected bind_qasm response {other:?}"),
    }
}

/// Sampled estimate on the server: `(expectations, groups,
/// shot_budget_divisor)`.
#[allow(clippy::type_complexity)]
fn estimate(
    client: &mut Client,
    axes: &[&str],
    angles: &[f64],
    observables: &[&str],
    shots: u64,
    seed: u64,
) -> Result<(Vec<f64>, Vec<Vec<usize>>, f64), ClientError> {
    let kind = RequestKind::Estimate {
        program: axes.iter().map(|s| (*s).to_string()).collect(),
        angles: angles.to_vec(),
        observables: observables.iter().map(|s| (*s).to_string()).collect(),
        shots,
        seed,
    };
    match client.request(kind)? {
        ResponseBody::Estimated {
            expectations,
            groups,
            shot_budget_divisor,
        } => Ok((expectations, groups, shot_budget_divisor)),
        other => panic!("unexpected estimate response {other:?}"),
    }
}

/// A deterministic pseudo-random program; `tag` selects the structure.
/// Large enough (rotations × qubits) that extraction takes real time, so
/// concurrent identical requests overlap in flight even on one core.
fn program_axes(tag: u64, rotations: usize) -> Vec<String> {
    let n = 12;
    let ops = ['X', 'Y', 'Z', 'I'];
    let mut state = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rotations)
        .map(|_| {
            let mut axis: String = (0..n).map(|_| ops[(next() % 4) as usize]).collect();
            if !axis.bytes().any(|b| b != b'I') {
                axis.replace_range(0..1, "Z");
            }
            axis
        })
        .collect()
}

fn angles_for(axes: &[String], seed: f64) -> Vec<f64> {
    (0..axes.len()).map(|i| seed + 0.05 * i as f64).collect()
}

fn start_server(engine: Arc<Engine>, workers: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral port")
}

#[test]
fn coalescing_many_clients_one_structure() {
    let engine = Arc::new(Engine::new(256));
    // As many workers as clients: every request is in a worker's hands at
    // once, so the in-flight window sees all of them.
    let threads = 8;
    let server = start_server(Arc::clone(&engine), threads);
    let addr = server.local_addr();

    let axes = program_axes(1, 48);
    // Hold the leader's compile open for long enough that every concurrent
    // request provably lands inside the in-flight window: the coalescing
    // assertions below become schedule-independent.
    let rotations: Vec<PauliRotation> = axes
        .iter()
        .map(|axis| PauliRotation::parse(axis, 0.0).unwrap())
        .collect();
    let fingerprint = ProgramFingerprint::of_program(&rotations, engine.config());
    engine.inject_compile_delay(Some((fingerprint, std::time::Duration::from_millis(750))));

    let barrier = Arc::new(Barrier::new(threads));
    let reference: Arc<std::sync::Mutex<Option<String>>> = Arc::default();

    std::thread::scope(|scope| {
        for t in 0..threads {
            let axes = axes.clone();
            let barrier = Arc::clone(&barrier);
            let reference = Arc::clone(&reference);
            scope.spawn(move || {
                // Connect before the barrier so every request hits the
                // server in the same instant.
                let mut client = Client::connect(addr).expect("connect");
                let angles = angles_for(&axes, 0.3);
                barrier.wait();
                let compiled = client
                    .compile(
                        &axes.iter().map(String::as_str).collect::<Vec<_>>(),
                        &angles,
                    )
                    .unwrap_or_else(|e| panic!("client {t}: {e}"));
                // Identical requests must produce identical circuits.
                let mut slot = reference.lock().unwrap();
                match &*slot {
                    Some(expected) => assert_eq!(&compiled.optimized_qasm, expected),
                    None => *slot = Some(compiled.optimized_qasm),
                }
            });
        }
    });

    engine.inject_compile_delay(None);
    let stats = engine.stats();
    assert_eq!(
        stats.misses, 1,
        "K concurrent identical requests must run exactly one extraction"
    );
    assert_eq!(stats.hits, threads as u64 - 1);
    // Every client that reached the server during the 750ms compile window
    // waited on the flight. Allow a minority to have been scheduled late
    // (slow CI), but overlap must be the norm, not the exception.
    assert!(
        stats.coalesced_waits >= threads as u64 / 2,
        "with {threads} simultaneous requests held open by the injected \
         compile delay, most must have waited on the in-flight compile \
         (got {})",
        stats.coalesced_waits
    );
    assert_eq!(stats.entries, 1);
    server.stop();
}

#[test]
fn identical_and_distinct_fingerprints_mix() {
    let engine = Arc::new(Engine::new(256));
    let server = start_server(Arc::clone(&engine), 6);
    let addr = server.local_addr();

    // 4 distinct structures, hammered by 12 threads (3 threads per
    // structure, several requests each, distinct angles throughout).
    let structures: Vec<Vec<String>> = (0..4).map(|tag| program_axes(10 + tag, 16)).collect();
    let threads = 12;
    let per_thread = 4;
    let barrier = Arc::new(Barrier::new(threads));

    std::thread::scope(|scope| {
        for t in 0..threads {
            let axes = structures[t % structures.len()].clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                let axes_refs: Vec<&str> = axes.iter().map(String::as_str).collect();
                let mut gate_counts = Vec::new();
                for round in 0..per_thread {
                    let angles = angles_for(&axes, 0.1 + 0.01 * (t * per_thread + round) as f64);
                    let compiled = client
                        .compile(&axes_refs, &angles)
                        .unwrap_or_else(|e| panic!("client {t} round {round}: {e}"));
                    gate_counts.push(compiled.gate_count);
                }
                // Rebinding angles never changes the structure's gate count
                // (all angles here are generic non-zero values).
                assert!(gate_counts.windows(2).all(|w| w[0] == w[1]));
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(
        stats.misses,
        structures.len() as u64,
        "exactly one compile per distinct structure"
    );
    assert_eq!(
        stats.hits + stats.misses,
        (threads * per_thread) as u64,
        "every request is accounted as hit or miss"
    );
    assert_eq!(stats.entries, structures.len());
    server.stop();
}

#[test]
fn panicking_compile_neither_kills_the_server_nor_poisons_its_shard() {
    // The doomed structure and every healthy one share the cache's one
    // lock, so any post-panic poisoning would take down all later requests.
    let engine = Arc::new(Engine::new(64));
    let doomed_axes = program_axes(77, 8);
    let doomed_rotations: Vec<PauliRotation> = doomed_axes
        .iter()
        .map(|axis| PauliRotation::parse(axis, 0.0).unwrap())
        .collect();
    let fingerprint = ProgramFingerprint::of_program(&doomed_rotations, engine.config());
    engine.inject_lookup_panic(Some(fingerprint));

    let server = start_server(Arc::clone(&engine), 4);
    let addr = server.local_addr();
    let doomed_refs: Vec<&str> = doomed_axes.iter().map(String::as_str).collect();
    let doomed_angles = angles_for(&doomed_axes, 0.2);

    let mut client = Client::connect(addr).expect("connect");
    for round in 0..3 {
        // The panicking compile answers with a structured error...
        let err = client
            .compile(&doomed_refs, &doomed_angles)
            .expect_err("the injected panic must surface as an error");
        let remote = err
            .remote()
            .unwrap_or_else(|| panic!("round {round}: {err}"));
        assert_eq!(remote.kind, "panicked", "round {round}: {remote}");

        // ...and the same connection keeps working: a healthy structure
        // compiles through the same cache right after.
        let healthy = program_axes(200 + round, 8);
        let healthy_refs: Vec<&str> = healthy.iter().map(String::as_str).collect();
        client
            .compile(&healthy_refs, &angles_for(&healthy, 0.4))
            .unwrap_or_else(|e| panic!("healthy compile after panic, round {round}: {e}"));
    }

    // Fresh connections work too (the worker pool survived all panics), and
    // a stats round-trip still answers.
    let mut second = Client::connect(addr).expect("reconnect after panics");
    let stats = second.stats().expect("stats after panics");
    assert!(stats.requests_served >= 6);

    // Disarm the fault: the previously doomed structure now compiles
    // through the very same cache — nothing was poisoned.
    engine.inject_lookup_panic(None);
    second
        .compile(&doomed_refs, &doomed_angles)
        .expect("the doomed structure must compile once the fault is gone");
    server.stop();
}

#[test]
fn sweep_qasm_absorb_and_health_roundtrip() {
    let engine = Arc::new(Engine::new(64));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Sweep: one structure, many bindings, per-set failures isolated.
    let sweep = client
        .sweep(
            &["ZZII", "IXXI"],
            &[
                vec![0.1, 0.2],
                vec![0.3], // too short: isolated failure
                vec![0.5, -0.6],
                vec![0.7, 0.8, 0.9], // too long: must error, not truncate
            ],
        )
        .expect("sweep");
    assert_eq!(sweep.len(), 4);
    assert!(sweep[0].is_ok());
    assert_eq!(sweep[1].as_ref().unwrap_err().kind, "angle_count");
    assert!(sweep[2].is_ok());
    assert_eq!(sweep[3].as_ref().unwrap_err().kind, "angle_count");
    assert_eq!(engine.stats().misses, 1);

    // Signed axes fold into the sweep's angles: a `-ZZ` sweep equals the
    // `+ZZ` sweep of the negated angle.
    let minus = client
        .sweep(&["-ZZII"], &[vec![0.4]])
        .expect("signed sweep");
    let plus = client.sweep(&["ZZII"], &[vec![-0.4]]).expect("plus sweep");
    assert_eq!(
        minus[0].as_ref().unwrap().optimized_qasm,
        plus[0].as_ref().unwrap().optimized_qasm
    );

    // QASM path shares the cache across angle changes.
    let ansatz =
        |theta: f64| format!("qreg q[3];\ncx q[0], q[1];\nrz({theta}) q[1];\ncx q[0], q[1];\n");
    let first = client.compile_qasm(&ansatz(0.25)).expect("compile_qasm");
    let second = bind_qasm(&mut client, &ansatz(0.0), &[1.5]).expect("bind_qasm");
    assert_eq!(first.gate_count, second.gate_count);

    // A QASM parse error comes back as a structured remote error.
    let err = client.compile_qasm("qreg q[1];\nccx q[0];\n").unwrap_err();
    assert_eq!(err.remote().expect("remote error").kind, "qasm_parse");

    // Absorption: signs and grouping survive the wire.
    let (observables, groups) = client
        .absorb(&["ZZ"], &["+ZI", "-IZ", "+XX"])
        .expect("absorb");
    assert_eq!(observables.len(), 3);
    assert!(observables[1].starts_with('-'));
    let grouped: usize = groups.iter().map(Vec::len).sum();
    assert_eq!(grouped, 3);

    // Non-finite angles become a structured error, not a client panic (JSON
    // has no NaN spelling; the protocol encodes them as null, which the
    // server's typed decoding rejects). The connection stays usable.
    let err = client.compile(&["ZZII"], &[f64::NAN]).unwrap_err();
    assert_eq!(err.remote().expect("remote error").kind, "bad_request");
    assert!(!client.is_broken());

    // Health and stats.
    health(&mut client).expect("health");
    let stats = client.stats().expect("stats");
    assert!(stats.requests_served >= 6);
    assert!(stats.capacity >= stats.entries);
    // The sweeps above each ran on one worker thread, over kernels of the
    // library's lane width.
    assert_eq!(stats.sweep_threads, 1);
    assert_eq!(stats.lane_words, quclear_pauli::kernel_lane_words() as u64);

    server.stop();
}

#[test]
fn remote_shutdown_is_gated_and_graceful() {
    // Default config: remote shutdown refused.
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = shutdown_server(&mut client).expect_err("must be forbidden");
    assert_eq!(err.remote().expect("remote").kind, "forbidden");
    // The refusal did not kill the connection.
    health(&mut client).expect("health after refused shutdown");
    server.stop();

    // Opt-in config: shutdown acknowledged, then the server drains.
    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            workers: 2,
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.compile(&["ZZ"], &[0.4]).expect("compile");
    shutdown_server(&mut client).expect("shutdown acknowledged");
    server.join(); // returns only when every thread exited: nothing leaked

    // The listener is gone: new connections fail (immediately or on first
    // use). Distinguishes "server stopped" from "server wedged".
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut client) => {
            client
                .set_read_timeout(Some(std::time::Duration::from_millis(500)))
                .unwrap();
            assert!(
                health(&mut client).is_err(),
                "a stopped server must not answer"
            );
        }
    }
}

/// Stats snapshots taken while clients hammer the server stay within the
/// documented invariants (`hit_rate` ∈ [0,1], `entries <= capacity`).
#[test]
fn stats_stay_coherent_while_serving() {
    let engine = Arc::new(Engine::new(8));
    let server = start_server(Arc::clone(&engine), 4);
    let addr = server.local_addr();
    let bad = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for t in 0..3u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..20 {
                    // More structures than cache capacity: eviction churn.
                    let axes = program_axes(300 + (t * 20 + i) % 12, 6);
                    let refs: Vec<&str> = axes.iter().map(String::as_str).collect();
                    client
                        .compile(&refs, &angles_for(&axes, 0.2))
                        .expect("compile under churn");
                }
            });
        }
        let bad = Arc::clone(&bad);
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for _ in 0..40 {
                let stats = client.stats().expect("stats under churn");
                if !(0.0..=1.0).contains(&stats.hit_rate) || stats.entries > stats.capacity {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    });
    assert_eq!(bad.load(Ordering::Relaxed), 0);
    server.stop();
}

/// Idle connections are reclaimed: with a 1-worker pool, a client that
/// connects and goes silent must not wedge the server for everyone else.
#[test]
fn idle_connections_release_their_worker() {
    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            workers: 1,
            idle_timeout: Some(std::time::Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // The idler grabs the only worker and sends nothing.
    let idler = Client::connect(addr).expect("idler connects");

    // A working client queues behind it; once the idler is reclaimed
    // (~200ms), the worker serves the queued connection.
    let mut worker_client = Client::connect(addr).expect("second connect");
    worker_client
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    worker_client
        .compile(&["ZZ"], &[0.25])
        .expect("the queued client must be served after the idler is reclaimed");

    // The idler's connection was closed server-side; its next request dies.
    let mut idler = idler;
    idler
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    assert!(
        health(&mut idler).is_err(),
        "the reclaimed idle connection must not answer"
    );
    server.stop();
}

/// A trickled frame is bounded by the same idle budget as a silent one: a
/// client sending one byte every few milliseconds (each read succeeds well
/// inside the poll interval) must not hold the only worker for the whole
/// frame; the connection is closed and counted as reclaimed.
#[test]
fn trickled_frames_are_reclaimed_past_the_idle_budget() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            workers: 1,
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let axes = program_axes(900, 8);
    let request = quclear_serve::Request {
        id: 7,
        kind: quclear_serve::RequestKind::Compile {
            angles: angles_for(&axes, 0.1),
            program: axes,
        },
    }
    .encode();
    let mut frame = (request.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&request);
    // Sent whole, the frame would take far longer than the budget.
    let spacing = Duration::from_millis(5);
    assert!(spacing * frame.len() as u32 > Duration::from_millis(600));

    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    raw.set_nodelay(true).unwrap();
    let started = Instant::now();
    for byte in &frame {
        if raw.write_all(std::slice::from_ref(byte)).is_err() {
            break;
        }
        std::thread::sleep(spacing);
    }
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    match raw.read(&mut buf) {
        Ok(0) => {}
        Err(e) if !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {}
        other => panic!(
            "a frame trickled past the idle budget must close the connection, got {other:?} after {:?}",
            started.elapsed()
        ),
    }

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(
        snapshot.counter_value("quclear_serve_idle_reclaimed_total", None),
        Some(1)
    );
    server.stop();
}

/// A response that would exceed the server's frame cap degrades into a
/// structured `response_too_large` error on the same connection — the
/// client learns why, instead of watching the socket die — and counts as
/// an error of its request kind.
#[test]
fn oversized_responses_degrade_to_structured_errors() {
    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            workers: 2,
            // Far below any compiled-circuit response, far above the error
            // response that replaces it.
            max_frame_bytes: 300,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client
        .compile(&["ZZZZ", "YYXX"], &[0.3, 0.7])
        .expect_err("the QASM-bearing response cannot fit 300 bytes");
    assert_eq!(
        err.remote().expect("remote error").kind,
        "response_too_large"
    );
    // Same connection keeps serving small responses.
    health(&mut client).expect("health after oversized response");
    // A 300-byte cap cannot carry a `metrics` answer either, so take the
    // engine's snapshot, the one that request returns.
    let errors = |kind: &str| {
        engine
            .metrics_snapshot()
            .counter_value(quclear_serve::SERVE_ERROR_METRIC, Some(("kind", kind)))
    };
    assert_eq!(errors("compile"), Some(1));
    assert_eq!(errors("health"), Some(0));
    server.stop();
}

/// A sweep whose answer cannot fit the frame cap is refused once its first
/// point has rendered, before the rest is built: 10,000 angle sets on one
/// 1,000-qubit axis (a 61 KB request) would otherwise make the server hold
/// a ~400 MB answer, and over 1 GB while building it, only for
/// `send_response` to refuse it. The engine's bind counter shows that one
/// point was built.
#[test]
fn oversized_sweeps_are_refused_before_they_are_built() {
    let engine = Arc::new(Engine::new(16));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let axis = "Z".repeat(1000);
    let one = client
        .sweep(&[&axis], &[vec![0.5]])
        .expect("one point fits");
    let extracted = one[0]
        .as_ref()
        .expect("the point binds")
        .extracted_qasm
        .len();
    let binds = engine.stats().binds;
    let err = client
        .sweep(&[&axis], &vec![vec![0.5]; 10_000])
        .expect_err("10,000 points cannot fit the frame cap");
    let remote = err.remote().expect("remote error");
    assert_eq!(remote.kind, "response_too_large");
    assert!(
        remote.message.starts_with(&format!(
            "response of at least {} bytes if all 10000 valid angle sets bind",
            10_000 * extracted
        )),
        "{}",
        remote.message
    );
    assert_eq!(
        engine.stats().binds - binds,
        1,
        "points built before the refusal"
    );
    health(&mut client).expect("health after the refused sweep");
    server.stop();
}

/// Sets the request's deadline stops from binding are not counted as
/// points: under a spent deadline every slot holds a short
/// `deadline_exceeded` error, and that answer is sent even though the
/// same sets, bound, could not fit the cap.
#[test]
fn sweeps_past_their_deadline_are_answered_not_refused() {
    let engine = Arc::new(Engine::new(16));
    let axis = "Z".repeat(1000);
    let sets = vec![vec![0.5]; 10];
    // Warm the template through a server without a deadline: a cached
    // template is served even past the deadline, so the sweep below reaches
    // its binds.
    let warm = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            request_deadline: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let one = Client::connect(warm.local_addr())
        .expect("connect")
        .sweep(&[&axis], &sets[..1])
        .expect("one point fits");
    warm.stop();
    let extracted = one[0]
        .as_ref()
        .expect("the point binds")
        .extracted_qasm
        .len();
    let max_frame_bytes = 4 * extracted;
    assert!(sets.len() * extracted > max_frame_bytes);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            max_frame_bytes,
            request_deadline: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let answer = Client::connect(server.local_addr())
        .expect("connect")
        .sweep(&[&axis], &sets)
        .expect("an answer of deadline errors fits");
    assert_eq!(answer.len(), sets.len());
    for slot in &answer {
        assert_eq!(
            slot.as_ref().expect_err("the deadline is spent").kind,
            "deadline_exceeded"
        );
    }
    server.stop();
}

/// The sweep's early refusal only fires on answers that do not fit. For
/// random programs and angle sets (all-zero sets that re-run the peephole,
/// sets of the wrong length that fail their slot), a server whose cap is
/// exactly the frame the answer encodes to sends it whole, and one whose
/// cap is a byte below the answer's QASM text refuses it as
/// `response_too_large`, "at least" that text.
#[test]
fn the_sweep_bound_never_refuses_an_answer_that_fits() {
    let served = |max_frame_bytes: usize, axes: &[&str], sets: &[Vec<f64>]| {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(Engine::new(16)),
            ServerConfig {
                workers: 1,
                max_frame_bytes,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        // A fresh client's first request has id 1.
        let answer = Client::connect(server.local_addr())
            .expect("connect")
            .sweep(axes, sets);
        server.stop();
        answer
    };
    for tag in 0..6_u64 {
        let axes = program_axes(100 + tag, 3 + 3 * tag as usize);
        let axes: Vec<&str> = axes.iter().map(String::as_str).collect();
        let sets: Vec<Vec<f64>> = (0..2 + 3 * tag as usize)
            .map(|i| match i % 3 {
                0 => (0..axes.len())
                    .map(|a| 0.1 + 0.37 * (i + a) as f64)
                    .collect(),
                1 => vec![0.0; axes.len()],
                _ => vec![0.5; axes.len() + 1],
            })
            .collect();
        let answer = served(ServerConfig::default().max_frame_bytes, &axes, &sets).expect("fits");
        let text: usize = answer
            .iter()
            .flatten()
            .map(|point| point.optimized_qasm.len() + point.extracted_qasm.len())
            .sum();
        let frame = Response {
            id: 1,
            body: Ok(ResponseBody::Sweep(answer.clone())),
        }
        .encode()
        .len();
        assert_eq!(served(frame, &axes, &sets).expect("fits exactly"), answer);
        let err = served(text - 1, &axes, &sets).expect_err("a byte short of its text");
        let remote = err.remote().expect("remote error");
        assert_eq!(remote.kind, "response_too_large");
        assert!(
            remote.message.starts_with("response of at least"),
            "{}",
            remote.message
        );
    }
}

/// A request that times out on the client side desynchronizes that
/// connection's request/response pairing — the client must refuse further
/// use instead of misreading the late response as the answer to the next
/// request. A fresh connection works immediately.
#[test]
fn timed_out_client_breaks_instead_of_desynchronizing() {
    let engine = Arc::new(Engine::new(16));
    let axes = program_axes(42, 6);
    let rotations: Vec<PauliRotation> = axes
        .iter()
        .map(|axis| PauliRotation::parse(axis, 0.0).unwrap())
        .collect();
    let fingerprint = ProgramFingerprint::of_program(&rotations, engine.config());
    // Hold the compile open well past the client's timeout.
    engine.inject_compile_delay(Some((fingerprint, std::time::Duration::from_millis(1500))));

    let server = start_server(Arc::clone(&engine), 2);
    let addr = server.local_addr();
    let refs: Vec<&str> = axes.iter().map(String::as_str).collect();

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(std::time::Duration::from_millis(150)))
        .unwrap();
    let err = client
        .compile(&refs, &angles_for(&axes, 0.1))
        .expect_err("the slow compile must time out client-side");
    assert!(matches!(err, quclear_serve::ClientError::Io(_)), "{err}");
    assert!(
        client.is_broken(),
        "a timed-out exchange must break the client"
    );

    // Every later call fails fast with a clear signal, even though the late
    // response frame is now sitting in the socket.
    let err = health(&mut client).expect_err("broken client must refuse");
    assert!(matches!(err, quclear_serve::ClientError::Io(_)));

    // A fresh connection is unaffected; once the in-flight compile drains
    // (and the fault is disarmed), the structure serves normally.
    engine.inject_compile_delay(None);
    let mut fresh = Client::connect(addr).expect("reconnect");
    fresh
        .compile(&refs, &angles_for(&axes, 0.1))
        .expect("fresh connection compiles the same structure");
    server.stop();
}

/// A malformed frame (bad JSON) errors that request without ending the
/// server, and a protocol-violating client cannot take a worker down.
#[test]
fn malformed_frames_do_not_kill_the_server() {
    use std::io::Write;

    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let addr = server.local_addr();

    // Raw socket: send garbage JSON in a well-formed frame.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    let garbage = b"this is not json";
    let mut frame = (garbage.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(garbage);
    raw.write_all(&frame).expect("send garbage");
    // The server answers with a bad_request error on id 0.
    let mut reader = raw.try_clone().expect("clone");
    let payload = quclear_serve::protocol::read_frame(&mut reader, 1 << 20)
        .expect("read error response")
        .expect("a response frame");
    let response = quclear_serve::Response::decode(&payload).expect("decode");
    assert_eq!(response.body.unwrap_err().kind, "bad_request");

    // A well-behaved client on a fresh connection is unaffected.
    let mut client = Client::connect(addr).expect("connect");
    client.compile(&["ZZ"], &[0.3]).expect("compile");

    // An oversized length prefix ends only that connection.
    let mut huge = std::net::TcpStream::connect(addr).expect("connect huge");
    huge.write_all(&u32::MAX.to_be_bytes())
        .expect("send huge header");
    drop(huge);
    health(&mut client).expect("server alive after oversized frame");

    server.stop();
}

/// The `metrics` endpoint answers with one coherent snapshot spanning both
/// layers: engine pipeline-stage histograms (fingerprint/extract/bind) and
/// serve-side per-kind request latencies, frame sizes, connection gauges —
/// and the whole thing renders as Prometheus text.
#[test]
fn metrics_endpoint_spans_engine_and_serve() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let axes = program_axes(400, 6);
    let refs: Vec<&str> = axes.iter().map(String::as_str).collect();
    client
        .compile(&refs, &angles_for(&axes, 0.1))
        .expect("first compile");
    client
        .compile(&refs, &angles_for(&axes, 0.2))
        .expect("second compile (cache hit)");
    // One deliberate failure, so the per-kind error counter has something
    // to show.
    let err = client.compile(&["ZZ"], &[0.1, 0.2]).unwrap_err();
    assert_eq!(err.remote().expect("remote error").kind, "angle_count");

    let snapshot = client.metrics().expect("metrics request");

    // Engine side: stage histograms with real counts.
    let stage = |name: &str| {
        snapshot
            .histogram(quclear_engine::ENGINE_STAGE_METRIC, Some(("stage", name)))
            .unwrap_or_else(|| panic!("stage `{name}` missing from snapshot"))
    };
    // Only the two successful compiles reach the engine (the angle-count
    // failure is rejected at the protocol layer, before fingerprinting).
    assert!(stage("fingerprint").count() >= 2);
    assert_eq!(stage("extract").count(), 1);
    assert_eq!(stage("bind").count(), 2);
    assert_eq!(
        snapshot.counter_value("quclear_engine_cache_hits_total", None),
        Some(engine.stats().hits)
    );

    // Serve side: per-kind latency, error counters, frame sizes, gauges.
    let compile_latency = snapshot
        .histogram(
            quclear_serve::SERVE_REQUEST_METRIC,
            Some(("kind", "compile")),
        )
        .expect("compile latency histogram");
    assert_eq!(compile_latency.count(), 3);
    assert_eq!(
        snapshot.counter_value(quclear_serve::SERVE_ERROR_METRIC, Some(("kind", "compile"))),
        Some(1)
    );
    let frames_in = snapshot
        .histogram(quclear_serve::SERVE_FRAME_METRIC, Some(("direction", "in")))
        .expect("inbound frame sizes");
    assert!(frames_in.count() >= 3);
    // This connection is inside the metrics request right now: active, and
    // (snapshot taken while handling) not idle-parked beyond 1.
    assert_eq!(
        snapshot.gauge_value("quclear_serve_connections_active", None),
        Some(1)
    );

    // The whole snapshot renders as Prometheus text with both families.
    let text = snapshot.to_prometheus_text();
    assert!(text.contains("# TYPE quclear_engine_stage_duration_ns histogram"));
    assert!(text.contains("quclear_serve_request_duration_ns_count{kind=\"compile\"} 3"));
    assert!(text.contains("quclear_serve_errors_total{kind=\"compile\"} 1"));

    server.stop();
}

/// The `metrics` snapshot carries the per-kind request latency histograms:
/// kinds that served requests show their counts and quantiles, and the
/// counts agree with the requests the connection actually made.
/// A program with a negative axis is one template for every request kind:
/// compile, sweep and estimate each look it up once, and only the first
/// lookup misses. Each compiled point is rendered once, as the engine's
/// `render` stage, into the bytes `to_qasm` gives for the signed program.
#[test]
fn signed_programs_cost_one_template_miss_across_request_kinds() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let axes = ["-ZZI", "IXX", "-YIZ"];
    let angles = [0.3, -0.4, 0.5];

    let compiled = client.compile(&axes, &angles).expect("compile");
    let swept = client
        .sweep(&axes, &[angles.to_vec(), vec![1.0, 0.0, -2.0]])
        .expect("sweep");
    estimate(&mut client, &axes, &angles, &["+ZII", "-XXI"], 64, 3).expect("estimate");
    let stats = engine.stats();
    assert_eq!((stats.misses, stats.hits), (1, 2));
    assert_eq!(stats.binds, 3);

    let program: Vec<PauliRotation> = axes
        .iter()
        .zip(angles)
        .map(|(axis, angle)| PauliRotation::with_signed_pauli(axis.parse().unwrap(), angle))
        .collect();
    let direct = quclear_core::compile(&program, engine.config());
    assert_eq!(compiled.optimized_qasm, to_qasm(&direct.optimized));
    assert_eq!(compiled.extracted_qasm, to_qasm(&direct.extracted));
    assert_eq!(swept[0].as_ref().unwrap(), &compiled);

    let renders = engine
        .metrics_snapshot()
        .histogram(ENGINE_STAGE_METRIC, Some(("stage", "render")))
        .expect("render stage registered")
        .count();
    assert_eq!(renders, 3);
    server.stop();
}

#[test]
fn metrics_carry_request_latency_histograms() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let axes = program_axes(500, 5);
    let refs: Vec<&str> = axes.iter().map(String::as_str).collect();
    for seed in [0.1, 0.2, 0.3] {
        client
            .compile(&refs, &angles_for(&axes, seed))
            .expect("compile");
    }
    health(&mut client).expect("health");

    let latency = |snapshot: &quclear_telemetry::MetricsSnapshot, kind: &str| {
        snapshot
            .histogram(quclear_serve::SERVE_REQUEST_METRIC, Some(("kind", kind)))
            .unwrap_or_else(|| panic!("no `{kind}` latency histogram"))
    };
    let snapshot = client.metrics().expect("metrics");
    let compile = latency(&snapshot, "compile");
    assert_eq!(compile.count(), 3);
    assert!(compile.p50() <= compile.p99());
    assert_eq!(latency(&snapshot, "health").count(), 1);
    // No failed or unknown requests were made on this connection.
    assert_eq!(latency(&snapshot, "unknown").count(), 0);
    // A request's latency is recorded after it is answered, so the first
    // metrics response cannot include itself...
    assert_eq!(latency(&snapshot, "metrics").count(), 0);

    // ...but a second metrics call sees the first one counted.
    let again = client.metrics().expect("metrics again");
    assert_eq!(latency(&again, "metrics").count(), 1);

    server.stop();
}

#[test]
fn estimate_roundtrips_matches_engine_and_reports_grouping() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let axes = ["ZZII", "IXXI", "IIZZ", "XXII"];
    let angles = [0.3, -0.7, 0.2, 0.9];
    let observables = ["+ZZII", "-IZZI", "+XXII", "+ZIII", "+IIZZ"];
    let (expectations, groups, divisor) =
        estimate(&mut client, &axes, &angles, &observables, 500, 42).expect("estimate");
    assert_eq!(expectations.len(), observables.len());
    let covered: usize = groups.iter().map(Vec::len).sum();
    assert_eq!(covered, observables.len());
    assert!(divisor >= 1.0);
    assert!(expectations.iter().all(|e| e.abs() <= 1.0));

    // The wire answer is the engine's answer: estimation is deterministic in
    // (program, angles, observables, shots, seed).
    let program: Vec<PauliRotation> = axes
        .iter()
        .zip(angles)
        .map(|(axis, angle)| PauliRotation::parse(axis, angle).expect("axis"))
        .collect();
    let parsed: Vec<quclear_pauli::SignedPauli> = observables
        .iter()
        .map(|o| o.parse().expect("observable"))
        .collect();
    let local = engine
        .estimate_observables(&program, &parsed, 500, 42)
        .expect("local estimate");
    for (wire, local) in expectations.iter().zip(&local.expectations) {
        assert_eq!(wire.to_bits(), local.to_bits());
    }
    assert_eq!(groups, local.groups);

    // Zero shots is a structured, non-transient error.
    let err = estimate(&mut client, &axes, &angles, &observables, 0, 42).unwrap_err();
    assert_eq!(err.remote().expect("remote error").kind, "not_estimable");
    assert!(!client.is_broken());

    server.stop();
}

#[test]
fn estimate_respects_the_server_deadline() {
    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            workers: 2,
            request_deadline: Some(std::time::Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = estimate(&mut client, &["ZZII"], &[0.4], &["+ZZII"], 100, 1).unwrap_err();
    assert_eq!(
        err.remote().expect("remote error").kind,
        "deadline_exceeded"
    );
    server.stop();
}

/// A budget too large to add to the clock is an unbounded deadline: the
/// server answers instead of dropping the connection.
#[test]
fn an_unrepresentable_request_deadline_still_answers() {
    let engine = Arc::new(Engine::new(16));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            workers: 2,
            request_deadline: Some(std::time::Duration::MAX),
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    health(&mut client).expect("health under Duration::MAX");
    client
        .compile(&["ZZII", "IXXI"], &[0.4, 0.2])
        .expect("compile under Duration::MAX");
    assert_eq!(engine.stats().misses, 1);
    server.stop();
}

#[test]
fn panicking_diagonalization_answers_only_its_request() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Observables on the wrong register size panic inside the contained
    // plan-building region; the panic answers this request alone.
    let err = estimate(&mut client, &["ZZII"], &[0.4], &["+ZZ"], 100, 1).unwrap_err();
    assert_eq!(err.remote().expect("remote error").kind, "panicked");
    assert!(!client.is_broken());

    // The same connection, engine and template keep serving.
    let (expectations, _, _) =
        estimate(&mut client, &["ZZII"], &[0.4], &["+ZZII"], 100, 1).expect("estimate after panic");
    assert_eq!(expectations.len(), 1);
    health(&mut client).expect("health after panic");

    server.stop();
}

/// `shots` flows from the wire into a per-group index vector, so it must be
/// bounded before anything is allocated: an allocation failure aborts the
/// whole process, which no `catch_unwind` contains.
#[test]
fn oversized_shot_counts_are_refused_and_the_server_keeps_serving() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = estimate(&mut client, &["ZZII"], &[0.4], &["+ZZII"], 1 << 40, 1).unwrap_err();
    assert_eq!(err.remote().expect("remote error").kind, "not_estimable");

    let mut fresh = Client::connect(server.local_addr()).expect("fresh connection");
    health(&mut fresh).expect("health after the refused estimate");
    let (expectations, _, _) = estimate(&mut fresh, &["ZZII"], &[0.4], &["+ZZII"], 100, 1)
        .expect("estimate after the refused estimate");
    assert_eq!(expectations.len(), 1);

    server.stop();
}

/// A register wider than `MAX_QUBITS` is refused as `bad_program`, naming
/// its width and the bound, before the engine fingerprints, lifts or
/// extracts anything; the server keeps serving.
#[test]
fn registers_wider_than_the_bound_answer_bad_program() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(Arc::clone(&engine), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let wide = MAX_QUBITS + 1;
    let axis = "Z".repeat(wide);
    let qasm = format!("OPENQASM 2.0;\nqreg q[{wide}];\nh q[0];\n");
    let refusals = [
        client.compile(&[axis.as_str()], &[0.1]).unwrap_err(),
        client.compile_qasm(&qasm).unwrap_err(),
    ];
    for err in refusals {
        let remote = err.remote().expect("remote error");
        assert_eq!(remote.kind, "bad_program");
        assert!(
            remote.message.contains(&wide.to_string())
                && remote.message.contains(&MAX_QUBITS.to_string()),
            "{}",
            remote.message
        );
    }
    assert_eq!(engine.stats().misses, 0, "nothing was compiled");
    client
        .compile(&["ZZ"], &[0.1])
        .expect("compile after the refusals");
    server.stop();
}

/// A fresh connection is served as soon as it arrives: the accept loop
/// blocks in `accept` rather than sleeping between polls, so connecting
/// after an idle spell does not wait out a poll interval.
#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    let engine = Arc::new(Engine::new(16));
    let server = start_server(engine, 2);
    let addr = server.local_addr();
    let mut round_trips: Vec<std::time::Duration> = (0..7)
        .map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(7));
            let start = std::time::Instant::now();
            let mut client = Client::connect(addr).expect("connect");
            health(&mut client).expect("health");
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(5),
        "median fresh-connection health round trip {median:?} (all: {round_trips:?})"
    );
    server.stop();
}
