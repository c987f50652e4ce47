//! Closed-loop loopback serving benchmark for `quclear-serve`.
//!
//! One process starts a real `Server` on 127.0.0.1 over a shared
//! `Arc<Engine>` and drives it with closed-loop `Client`s (at most two, and
//! never more than the host's hardware threads), checks every answer, and
//! prints every metric by name and unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the traced
//! replay with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vqe_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. `perfbench/LAYERS.md` maps every
//! per-layer metric to the end-to-end metric and workload it should move.

#![forbid(unsafe_code)]

mod drive;
mod oracle;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use quclear_engine::{Engine, DEFAULT_CACHE_CAPACITY};
use quclear_serve::{Client, RequestKind, Server, ServerConfig};
use quclear_workloads::qaoa_grid_sweep;

use crate::drive::{check_response, Expected, Load, Phase, Sample};
use crate::trace::{median_f64, Trace, LAYERS};
use crate::workload::{Structure, Workload, SHOTS};

/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Closed-loop clients, capped by the host's hardware threads.
const MAX_CLIENTS: usize = 2;

/// Request-stream ids: each phase draws its own stream from `--seed`.
const PRIME_STREAM: u64 = 1;
const MEASURE_STREAM: u64 = 2;
const TRACE_STREAM: u64 = 3;

const USAGE: &str = "usage: perfbench --workload <vqe_warm|table2_cold|vqe_estimate|qaoa_sweep> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let take = |name: &str| {
        values
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing `--{name}`"))
    };
    let number = |name: &str| -> Result<u64, String> {
        take(name)?.parse().map_err(|e| format!("`--{name}`: {e}"))
    };
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match number("trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("`--trace` must be 0 or 1, not {other}")),
        },
    };
    if args.seconds == 0 {
        return Err("`--seconds` must be positive".into());
    }
    if values.len() != 4 {
        return Err("unknown flags given".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A started server with primed caches and the facts priming established.
struct Setup {
    structures: Vec<Structure>,
    server: Server,
    expected: Expected,
    /// Priming answers, checked by the oracles like any other sample.
    priming: Vec<Sample>,
}

/// Input generation, server bind and cache priming.
fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let structures = workload::structures(workload);
    if workload == Workload::QaoaSweep {
        // The sweep generator and Table II must describe the same program.
        for s in &structures {
            let graph = s
                .graph
                .as_ref()
                .expect("sweep structures carry their graph");
            let grid = qaoa_grid_sweep(graph, &[0.0], &[0.0]);
            if grid
                .program
                .iter()
                .map(|r| r.pauli().to_string())
                .ne(s.program.iter().cloned())
            {
                return Err(format!(
                    "{}: sweep program differs from the Table II program",
                    s.name
                ));
            }
        }
    }
    let engine = Arc::new(Engine::new(DEFAULT_CACHE_CAPACITY));
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let expected = Expected::new(structures.len());
    let mut priming = Vec::new();
    if workload.is_warm() {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut rng = workload::rng(seed, PRIME_STREAM);
        for (index, s) in structures.iter().enumerate() {
            // A compile warms the template every request kind looks up, and
            // its circuit is the one an estimate simulates.
            let mut kinds = vec![RequestKind::Compile {
                program: s.program.clone(),
                angles: workload::random_angles(&mut rng, s.rotations.len()),
            }];
            if workload == Workload::VqeEstimate {
                // Warms the memoized measurement plan.
                kinds.push(RequestKind::Estimate {
                    program: s.program.clone(),
                    angles: workload::random_angles(&mut rng, s.rotations.len()),
                    observables: s.observable_strings.clone(),
                    shots: SHOTS,
                    seed,
                });
            }
            for kind in kinds {
                let body = client
                    .request(kind.clone())
                    .map_err(|e| format!("priming {}: {e}", s.name))?;
                check_response(s, index, &expected, &body).map_err(|e| format!("priming: {e}"))?;
                priming.push(Sample {
                    structure: index,
                    kind,
                    body,
                });
            }
        }
    }
    Ok(Setup {
        structures,
        server,
        expected,
        priming,
    })
}

/// Host and build facts printed with every result.
struct Stamp {
    nproc: usize,
    lane_words: u64,
    sweep_threads: u64,
    profile: &'static str,
    commit: String,
}

fn stamp(server: &Server) -> Result<Stamp, String> {
    let stats = Client::connect(server.local_addr())
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"))?;
    Ok(Stamp {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        lane_words: stats.lane_words,
        sweep_threads: stats.sweep_threads,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit: git_commit(Path::new(".")),
    })
}

/// The checked-out commit, read from `.git` without running git; a source
/// checkout without `.git` reports `none`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (server and clients alike), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Nearest-rank percentile of sorted samples, and how many lie beyond it.
fn percentile(sorted: &[u64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1] as f64, sorted.len() - rank)
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let window = Duration::from_secs(args.seconds);
    let epoch = Instant::now();
    println!(
        "# quclear perfbench: workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut setup_seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Stop the previous setup's server (Drop joins its threads) before
        // timing the next one.
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(workload, args.seed)?);
        setup_seconds.push(start.elapsed().as_secs_f64());
    }
    let Setup {
        structures,
        server,
        expected,
        priming,
    } = kept.expect("at least one setup");
    setup_seconds.sort_by(f64::total_cmp);

    let stamp = stamp(&server)?;
    let clients = stamp.nproc.clamp(1, MAX_CLIENTS);
    println!(
        "# host: nproc={} lane_words={} sweep_threads={} profile={} commit={} seed={}",
        stamp.nproc, stamp.lane_words, stamp.sweep_threads, stamp.profile, stamp.commit, args.seed
    );
    println!(
        "# load: closed loop, {clients} client connection(s), {} requests, server defaults ({} workers)",
        workload.kind_name(),
        ServerConfig::default().workers
    );

    let load = Load {
        workload,
        structures: &structures,
        expected: &expected,
        addr: server.local_addr(),
        engine: server.engine(),
        clients,
    };
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut samples = priming;
    let mut absorb = |phase: &mut Phase, samples: &mut Vec<Sample>| {
        attempted += phase.attempted;
        failed += phase.failed;
        failures.append(&mut phase.errors);
        samples.append(&mut phase.samples);
    };

    let cycle = workload::cycle_len(workload, &structures);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut report: Vec<Metric> = Vec::new();
    if args.trace {
        // Untraced half, for the p50 the tracing overhead is measured from.
        let half = window / 2;
        let mut untraced = load.run(args.seed, MEASURE_STREAM, half, false)?;
        let before = server.engine().stats();
        let mut traced = load.run(args.seed, TRACE_STREAM, window - half, true)?;
        let after = server.engine().stats();
        let untraced_p50 = untraced.windowed(cycle).1 / 1e3;
        let traced_p50 = traced.windowed(cycle).1 / 1e3;
        absorb(&mut untraced, &mut samples);
        absorb(&mut traced, &mut samples);

        let mut trace = Trace::new(epoch);
        for (n, t) in traced.traced.iter().enumerate() {
            if let Err(e) = trace.replay(server.engine(), !workload.is_warm(), n as u64 + 1, t) {
                failures.push(format!("trace: {e}"));
            }
        }
        if trace.roots.is_empty() {
            failures.push("trace: no traced request was replayed".into());
        }
        let (layers, coverage) = trace.layers();
        for (name, unit) in LAYERS {
            let stats = layers.get(name).copied().unwrap_or_default();
            metrics.push(metric(
                format!("{name}_{}", unit.suffix()),
                unit.of_ns(stats.median_ns),
                unit.suffix(),
            ));
            metrics.push(metric(format!("{name}.calls"), stats.calls as f64, "count"));
            metrics.push(metric(format!("{name}.share"), stats.share, "fraction"));
        }
        let count = |name: &str| {
            let mut values = trace.counts.get(name).cloned().unwrap_or_default();
            values.sort_by(f64::total_cmp);
            median_f64(&values)
        };
        let lookups = (after.hits + after.misses).saturating_sub(before.hits + before.misses);
        let hits = after.hits.saturating_sub(before.hits);
        metrics.extend([
            metric("protocol.req_bytes", count("protocol.req_bytes"), "bytes"),
            metric("protocol.resp_bytes", count("protocol.resp_bytes"), "bytes"),
            metric(
                "engine.cache_hit_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                },
                "fraction",
            ),
            metric(
                "engine.coalesced_waits",
                after.coalesced_waits.saturating_sub(before.coalesced_waits) as f64,
                "count",
            ),
            metric(
                "engine.evictions",
                after.evictions.saturating_sub(before.evictions) as f64,
                "count",
            ),
            metric(
                "core.extracted_gates",
                count("core.extracted_gates"),
                "count",
            ),
            metric("core.skeleton_cx", count("core.skeleton_cx"), "count"),
            metric("circuit.qasm_bytes", count("circuit.qasm_bytes"), "bytes"),
            metric("core.groups", count("core.groups"), "count"),
            metric(
                "core.shot_budget_divisor",
                count("core.shot_budget_divisor"),
                "ratio",
            ),
            metric("sim.amp_gate_ops", count("sim.amp_gate_ops"), "count"),
            metric("trace.coverage", coverage, "fraction"),
            metric("trace.round_trip_us", traced_p50, "us"),
            metric("trace.overhead_us", traced_p50 - untraced_p50, "us"),
        ]);
        report.push(metric("trace.untraced_p50_us", untraced_p50, "us"));
        report.push(metric(
            "trace.replayed_requests",
            trace.roots.len() as f64,
            "count",
        ));
        report.push(metric("trace.spans", trace.spans.len() as f64, "count"));
    } else {
        let mut phase = load.run(args.seed, MEASURE_STREAM, window, false)?;
        let (throughput, p50) = phase.windowed(cycle);
        let completed = phase.latencies_ns.len();
        phase.latencies_ns.sort_unstable();
        let tail_p = workload.tail_percentile();
        let (tail, beyond) = percentile(&phase.latencies_ns, tail_p);
        metrics.extend([
            metric("setup_s", median_f64(&setup_seconds), "s"),
            metric("throughput_rps", throughput, "1/s"),
            metric("latency_p50_ms", p50 / 1e6, "ms"),
            metric("latency_tail_ms", tail / 1e6, "ms"),
        ]);
        report.push(metric(
            format!("latency_tail_ms is p{tail_p}; samples beyond it"),
            beyond as f64,
            "count",
        ));
        report.push(metric("completed_requests", completed as f64, "count"));
        if beyond < 10 {
            println!("# warning: only {beyond} samples beyond p{tail_p}; the run is too short for this tail");
        }
        absorb(&mut phase, &mut samples);
    }

    // After the window: oracles over every kept sample.
    let mut quality = oracle::Quality::default();
    let (checks, oracle_failures) = oracle::verify(&structures, &samples, args.seed, &mut quality);
    failed += oracle_failures.len() as u64;
    failures.extend(oracle_failures);
    report.push(metric("oracle_checks", checks as f64, "count"));
    let (cx_count, cx_depth) = match quality.totals(&structures) {
        Ok(totals) => totals,
        Err(e) => {
            failed += 1;
            failures.push(e);
            (0, 0)
        }
    };

    // The server's own view: anything shed, timed out or panicking means the
    // load was not the clean closed loop this benchmark claims.
    let snapshot = Client::connect(server.local_addr())
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("metrics: {e}"))?;
    for counter in [
        "quclear_serve_shed_total",
        "quclear_serve_deadline_exceeded_total",
        "quclear_serve_panics_contained_total",
    ] {
        let value = snapshot.counter_value(counter, None).unwrap_or(0);
        report.push(metric(counter, value as f64, "count"));
        if value > 0 {
            failed += value;
            failures.push(format!("server counted {value} in {counter}"));
        }
    }
    server.stop();

    if !args.trace {
        metrics.push(metric("peak_rss_mb", peak_rss_mb()?, "MB"));
        metrics.push(metric("cx_count", cx_count as f64, "count"));
        metrics.push(metric("cx_depth", cx_depth as f64, "count"));
    }
    let failed_frac = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    report.push(metric("failed_frac", failed_frac, "fraction"));

    println!("# quality: per structure, native CNOTs -> returned CNOTs (entangling depth)");
    for (index, s) in structures.iter().enumerate() {
        if let Some(&(cx, depth)) = quality.per_structure.get(&index) {
            println!(
                "#   {:<20} {:>6} -> {:>6} ({depth})",
                s.name, s.native_cx, cx
            );
        }
    }
    for e in &failures {
        println!("# failure: {e}");
    }
    for m in report.iter().chain(&metrics) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }

    if attempted == 0 {
        return Err("no request was attempted".into());
    }
    let correct = failed == 0 && failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted,
        body.join(", ")
    );
    Ok(())
}

/// JSON has no spelling for NaN or infinity; neither should ever occur.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
