//! Serving demo: one warm template cache shared by many clients.
//!
//! Spawns a `quclear-serve` server in-process, connects clients from
//! several threads, and shows the compile-once/serve-many economics on the
//! wire: the first compile of a structure misses and extracts; every later
//! request — same structure, new angles, any client — is a cache hit, and
//! concurrent identical requests coalesce onto one in-flight extraction.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::sync::Arc;

use quclear::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One engine behind the server: its template cache and
    // single-flight table are what every client shares.
    let engine = Arc::new(Engine::new(256));
    let config = ServerConfig {
        // Overload protection: admission beyond this queue depth is shed
        // with a retryable `overloaded` error, and every admitted request
        // runs under a cooperative time budget answered as
        // `deadline_exceeded` when spent.
        max_queued_connections: 64,
        request_deadline: Some(std::time::Duration::from_secs(5)),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), config)?;
    let addr = server.local_addr();
    println!("serving on {addr}");

    // A UCCSD-flavoured ansatz structure, spelled as signed Pauli axes.
    let ansatz = ["ZZII", "YXII", "IZZI", "IYXI", "IIZZ", "IIYX"];

    // Four clients sweep the same structure with different angles — the
    // paper's VQE inner loop, but over TCP with a shared cache. Each client
    // carries a retry policy: a shed connection, a spent deadline or a dead
    // socket costs a seeded backoff and a reconnect, not the result.
    std::thread::scope(|scope| {
        for client_id in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_retry_policy(Some(RetryPolicy::default()));
                for step in 0..5 {
                    let angles: Vec<f64> = (0..ansatz.len())
                        .map(|i| 0.1 * f64::from(client_id) + 0.07 * (step * i) as f64 + 0.01)
                        .collect();
                    let compiled = client.compile(&ansatz, &angles).expect("compile");
                    if step == 0 {
                        println!(
                            "client {client_id}: {} gates, {} CNOTs",
                            compiled.gate_count, compiled.cnot_count
                        );
                    }
                }
            });
        }
    });

    let mut client = Client::connect(addr)?;
    client.set_retry_policy(Some(RetryPolicy::default()));

    // A QASM front-door round trip through the same cache.
    let qasm = "OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[1];\nrz(pi/3) q[1];\ncx q[0], q[1];\nu2(0.4, -0.9) q[2];\n";
    let compiled = client.compile_qasm(qasm)?;
    println!(
        "qasm ansatz: {} CNOTs after extraction",
        compiled.cnot_count
    );

    // A parameter sweep served in one request.
    let sets: Vec<Vec<f64>> = (0..10)
        .map(|i| {
            (0..ansatz.len())
                .map(|j| 0.02 * (i * j) as f64 + 0.3)
                .collect()
        })
        .collect();
    let sweep = client.sweep(&ansatz, &sets)?;
    println!(
        "sweep: {}/{} bindings succeeded",
        sweep.iter().filter(|r| r.is_ok()).count(),
        sweep.len()
    );

    // CA-Pre over the wire: observables rewritten through the extracted
    // Clifford, grouped for simultaneous measurement.
    let (rewritten, groups) = client.absorb(&ansatz, &["ZIII", "IZII", "IIZI", "IIIZ"])?;
    println!(
        "absorb: {} observables rewritten into {} commuting groups (first: {})",
        rewritten.len(),
        groups.len(),
        rewritten[0]
    );

    // The numbers that make the case: one extraction, everything else warm.
    let stats = client.stats()?;
    println!(
        "stats: {} lookups = {} misses + {} hits ({} coalesced), hit rate {:.1}%, \
         {} requests over {} connections",
        stats.hits + stats.misses,
        stats.misses,
        stats.hits,
        stats.coalesced_waits,
        100.0 * stats.hit_rate,
        stats.requests_served,
        stats.connections_accepted,
    );

    // Overload-protection counters: how often the server shed at admission
    // or ran a request out of budget, and what recovery cost this client.
    println!(
        "overload: {} connections shed, {} deadlines exceeded; this client \
         retried {} times across {} reconnects",
        stats.shed_connections,
        stats.deadline_exceeded,
        client.retries(),
        client.reconnects(),
    );

    // The full telemetry picture: engine pipeline stages (fingerprint,
    // extract, bind, absorb) and serve-side instruments in one snapshot.
    // Per-kind request latencies come first; the whole snapshot renders as
    // Prometheus text — point a scraper at this and the node is on a
    // dashboard.
    let snapshot = client.metrics()?;
    for sample in snapshot.histogram_family(quclear::serve::SERVE_REQUEST_METRIC) {
        let latency = sample.histogram();
        if latency.count() > 0 {
            let kind = sample.label.as_ref().map_or("", |(_, kind)| kind.as_str());
            println!(
                "latency[{kind}]: {} served, p50 {} ns, p99 {} ns",
                latency.count(),
                latency.p50(),
                latency.p99()
            );
        }
    }
    println!("\n--- metrics (Prometheus text exposition) ---");
    print!("{}", snapshot.to_prometheus_text());
    println!("--- end of scrape ---\n");

    drop(client);
    server.stop(); // graceful: drains the pool, joins every thread
    println!("server stopped cleanly");
    Ok(())
}
