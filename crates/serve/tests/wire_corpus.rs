//! The wire corpus: every byte the protocol puts on the wire, pinned.
//!
//! Each case below produces one line of output, and `wire_corpus.txt` holds
//! the expected line for every case, byte for byte. A case is one of:
//!
//! - `req.*`: a constructed [`Request`], encoded;
//! - `resp.*`: a constructed [`Response`], encoded;
//! - `frame.*`: a raw request frame, decoded by [`Request::decode`] and
//!   re-encoded (or the exact decode error);
//! - `resp-frame.*`: a raw response frame, decoded by [`Response::decode`]
//!   and re-encoded (or the exact decode error);
//! - `served.*`: a raw request frame sent to a live [`Server`], and the
//!   exact response frame it answers with.
//!
//! Every accepted frame must also re-encode to a fixed point:
//! `encode(decode(bytes)) == bytes`.
//!
//! The corpus pins the codec (escapes, number spellings, field order, error
//! messages) and what the engine serves (QASM text, absorbed observables,
//! seeded estimates), so a rewrite of either must keep it byte-identical.
//! To regenerate after an intended wire or output change, run
//! `cargo test -p quclear-serve --test wire_corpus -- --ignored
//! regenerate_corpus` and review the diff.

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use quclear_engine::Engine;
use quclear_serve::protocol::{read_frame, write_frame, MAX_FRAME_BYTES};
use quclear_serve::{
    CompiledSummary, Request, RequestKind, Response, ResponseBody, Server, ServerConfig,
    StatsSummary, WireError,
};

const CORPUS: &str = include_str!("wire_corpus.txt");

/// One corpus case: what to encode, decode or send.
enum Case {
    Request(Request),
    Response(Response),
    Frame(Vec<u8>),
    ResponseFrame(Vec<u8>),
    /// A frame for one of the live servers: `(server, frame)`.
    Served(Served, Vec<u8>),
}

/// The live servers the `served.*` cases talk to.
#[derive(Clone, Copy)]
enum Served {
    /// Default configuration.
    Default,
    /// A zero request deadline: every engine request times out.
    NoTime,
    /// A 512-byte frame cap: large responses degrade.
    SmallFrames,
}

fn request(id: u64, kind: RequestKind) -> Case {
    Case::Request(Request { id, kind })
}

fn response(id: u64, body: Result<ResponseBody, WireError>) -> Case {
    Case::Response(Response { id, body })
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_string()).collect()
}

/// Text that exercises every escape the renderer and parser know.
const AWKWARD: &str = "quote \" backslash \\ slash / newline \n tab \t cr \r \
     bell \u{7} esc \u{1b} unit-sep \u{1f} del \u{7f} nul \u{0} \
     é ß 中文 ☃ line-sep \u{2028} emoji 😀 𝄞";

/// Floats that stress the number spellings: exponents, signed zero,
/// integral values on both sides of the `1e15` cutoff, extremes.
const AWKWARD_FLOATS: [f64; 18] = [
    0.0,
    -0.0,
    2.0,
    -3.0,
    0.1,
    std::f64::consts::PI,
    -std::f64::consts::E,
    1e-7,
    -2.5e-300,
    6.02214076e23,
    123_456_789_012_345.0,
    999_999_999_999_999.0,
    1e15,
    -1e16,
    1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
];

fn summary(qasm: &str) -> CompiledSummary {
    CompiledSummary {
        optimized_qasm: qasm.to_string(),
        extracted_qasm: "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n".into(),
        num_qubits: 2,
        cnot_count: 1,
        gate_count: 5,
    }
}

fn stats(hit_rate: f64) -> StatsSummary {
    StatsSummary {
        hits: 10,
        misses: 2,
        coalesced_waits: 3,
        evictions: 0,
        binds: 12,
        entries: 2,
        capacity: 64,
        hit_rate,
        requests_served: 15,
        connections_accepted: 4,
        shed_connections: 2,
        deadline_exceeded: 1,
        lane_words: 4,
        sweep_threads: 1,
        uptime_ms: u64::MAX,
    }
}

/// A telemetry snapshot with one of each metric kind, labelled and not.
fn snapshot() -> quclear_telemetry::MetricsSnapshot {
    let registry = quclear_telemetry::MetricsRegistry::new();
    registry.counter("reqs_total", "requests \"served\"").add(7);
    registry
        .counter_labeled("errs_total", "errors\nby kind", ("kind", "compile"))
        .add(2);
    registry.gauge("queue_depth", "queued connections").set(3);
    let latency = registry.histogram_labeled("latency_ns", "latency", ("kind", "sweep"));
    for v in [0, 1, 100, 900, 4_000, 1 << 40] {
        latency.record(v);
    }
    registry.snapshot()
}

const QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n\
                    h q[0];\ncx q[0],q[1];\nrz(0.5) q[1];\n";

fn constructed_requests() -> Vec<(&'static str, Case)> {
    vec![
        (
            "req.compile",
            request(
                1,
                RequestKind::Compile {
                    program: strings(&["ZZII", "-XXYY", "+IYZI"]),
                    angles: vec![0.25, -1.5, 3.0],
                },
            ),
        ),
        (
            "req.compile.floats",
            request(
                u64::MAX,
                RequestKind::Compile {
                    program: vec!["Z".into(); AWKWARD_FLOATS.len()],
                    angles: AWKWARD_FLOATS.to_vec(),
                },
            ),
        ),
        (
            "req.compile.non_finite",
            request(
                0,
                RequestKind::Compile {
                    program: strings(&["ZZ", "XX", "YY"]),
                    angles: vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
                },
            ),
        ),
        (
            "req.compile.empty",
            request(
                2,
                RequestKind::Compile {
                    program: vec![],
                    angles: vec![],
                },
            ),
        ),
        (
            "req.sweep",
            request(
                3,
                RequestKind::Sweep {
                    program: strings(&["ZZ", "XI"]),
                    angle_sets: vec![vec![0.1, 0.2], vec![], vec![-0.0, 1e-9], vec![2.0]],
                },
            ),
        ),
        (
            "req.compile_qasm",
            request(
                4,
                RequestKind::CompileQasm {
                    qasm: QASM.to_string(),
                },
            ),
        ),
        (
            "req.compile_qasm.awkward",
            request(
                5,
                RequestKind::CompileQasm {
                    qasm: AWKWARD.to_string(),
                },
            ),
        ),
        (
            "req.bind_qasm",
            request(
                6,
                RequestKind::BindQasm {
                    qasm: QASM.to_string(),
                    angles: vec![2.5, f64::NAN],
                },
            ),
        ),
        (
            "req.absorb",
            request(
                7,
                RequestKind::Absorb {
                    program: strings(&["ZZ", "YX"]),
                    observables: strings(&["+ZI", "-IZ", "XX"]),
                },
            ),
        ),
        (
            "req.estimate",
            request(
                8,
                RequestKind::Estimate {
                    program: strings(&["ZZ", "XX"]),
                    angles: vec![0.25, -1.5],
                    observables: strings(&["+ZI", "-IZ", AWKWARD]),
                    shots: u64::MAX,
                    seed: 17,
                },
            ),
        ),
        ("req.stats", request(9, RequestKind::Stats)),
        ("req.metrics", request(10, RequestKind::Metrics)),
        ("req.health", request(11, RequestKind::Health)),
        ("req.shutdown", request(12, RequestKind::Shutdown)),
    ]
}

fn constructed_responses() -> Vec<(&'static str, Case)> {
    let mut cases = vec![
        (
            "resp.compiled",
            response(1, Ok(ResponseBody::Compiled(summary(QASM)))),
        ),
        (
            "resp.compiled.awkward",
            response(2, Ok(ResponseBody::Compiled(summary(AWKWARD)))),
        ),
        (
            "resp.sweep",
            response(
                3,
                Ok(ResponseBody::Sweep(vec![
                    Ok(summary(QASM)),
                    Err(WireError::new("angle_count", "expected 2 angles, got 1")),
                    Ok(summary("")),
                ])),
            ),
        ),
        (
            "resp.sweep.empty",
            response(4, Ok(ResponseBody::Sweep(vec![]))),
        ),
        (
            "resp.absorbed",
            response(
                5,
                Ok(ResponseBody::Absorbed {
                    observables: strings(&["+ZZ", "-XI", "+YY"]),
                    groups: vec![vec![0, 1], vec![], vec![2, usize::MAX]],
                }),
            ),
        ),
        (
            "resp.estimated",
            response(
                6,
                Ok(ResponseBody::Estimated {
                    expectations: AWKWARD_FLOATS.to_vec(),
                    groups: vec![vec![0, 2], vec![1]],
                    shot_budget_divisor: 1.5,
                }),
            ),
        ),
        (
            "resp.estimated.non_finite",
            response(
                7,
                Ok(ResponseBody::Estimated {
                    expectations: vec![f64::NAN, 0.5],
                    groups: vec![],
                    shot_budget_divisor: f64::INFINITY,
                }),
            ),
        ),
        (
            "resp.stats",
            response(8, Ok(ResponseBody::Stats(stats(10.0 / 12.0)))),
        ),
        (
            "resp.stats.integral_rate",
            response(9, Ok(ResponseBody::Stats(stats(1.0)))),
        ),
        (
            "resp.stats.nan_rate",
            response(10, Ok(ResponseBody::Stats(stats(f64::NAN)))),
        ),
        (
            "resp.metrics",
            response(11, Ok(ResponseBody::Metrics(snapshot()))),
        ),
        (
            "resp.metrics.empty",
            response(
                12,
                Ok(ResponseBody::Metrics(
                    quclear_telemetry::MetricsRegistry::new().snapshot(),
                )),
            ),
        ),
        (
            "resp.health",
            response(13, Ok(ResponseBody::Health { uptime_ms: 0 })),
        ),
        (
            "resp.shutting_down",
            response(14, Ok(ResponseBody::ShuttingDown)),
        ),
    ];
    // Every error kind the server, the engine mapping and the client emit.
    for kind in [
        "bad_request",
        "bad_response",
        "bad_program",
        "bad_observable",
        "angle_count",
        "qasm_parse",
        "non_finite_angle",
        "not_estimable",
        "panicked",
        "deadline_exceeded",
        "overloaded",
        "forbidden",
        "response_too_large",
    ] {
        let name: &'static str = Box::leak(format!("resp.error.{kind}").into_boxed_str());
        cases.push((
            name,
            response(
                20,
                Err(WireError::new(
                    kind,
                    format!("{kind} at byte 7: `{AWKWARD}`"),
                )),
            ),
        ));
    }
    cases
}

fn frame(text: &str) -> Vec<u8> {
    text.as_bytes().to_vec()
}

fn request_frames() -> Vec<(&'static str, Case)> {
    let deep = format!(
        r#"{{"id":1,"kind":"stats","x":{}{}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    let cases: Vec<(&'static str, Vec<u8>)> = vec![
        (
            "frame.compile.whitespace",
            frame(" \t\r\n{ \"id\" : 1 ,\n \"kind\" : \"compile\", \"program\" : [ \"ZZ\" , \"-XY\" ] , \"angles\" : [ 0.5 , -2 ] } \n"),
        ),
        (
            "frame.compile.escapes",
            frame(r#"{"id":2,"kind":"compile","program":["Z\u005a","-X\u0059","\u002bZ"],"angles":[1,2,3]}"#),
        ),
        (
            "frame.compile.numbers",
            frame(r#"{"id":3,"kind":"compile","program":["Z","Z","Z","Z","Z","Z","Z","Z","Z"],"angles":[1E5,1e+5,-1.5e-5,0,-0,-0.0,18446744073709551615,-9223372036854775808,1e999]}"#),
        ),
        (
            "frame.compile.extra_and_duplicate_fields",
            frame(r#"{"id":4,"kind":"compile","program":["ZZ"],"angles":[0.5],"angles":["x"],"extra":{"nested":[true,false,null]}}"#),
        ),
        (
            "frame.compile_qasm.escapes",
            frame(r#"{"id":5,"kind":"compile_qasm","qasm":"a\"b\\c\/d\be\ff\ng\rh\ti\u0001j\u001fk\u007flém n😀o𝄞p q\ud83d\ude00r\uD834\uDD1Es\u00e9\u4E2D\u2028"}"#),
        ),
        (
            "frame.compile_qasm.raw_utf8",
            frame("{\"id\":6,\"kind\":\"compile_qasm\",\"qasm\":\"é ß 中文 ☃ 😀 raw\ttab raw\u{1}ctl\"}"),
        ),
        (
            "frame.sweep",
            frame(r#"{"id":7,"kind":"sweep","program":["ZZ","XX"],"angle_sets":[[0.1,0.2],[],[3]]}"#),
        ),
        (
            "frame.absorb",
            frame(r#"{"id":8,"kind":"absorb","program":["ZZ"],"observables":["+ZI","-IZ"]}"#),
        ),
        (
            "frame.estimate",
            frame(r#"{"id":9,"kind":"estimate","program":["ZZ"],"angles":[0.3],"observables":["ZI"],"shots":1024,"seed":18446744073709551615}"#),
        ),
        (
            "frame.bind_qasm",
            frame(r#"{"id":10,"kind":"bind_qasm","qasm":"qreg q[1];\nrz(0.5) q[0];\n","angles":[2.5]}"#),
        ),
        ("frame.stats", frame(r#"{"id":11,"kind":"stats"}"#)),
        ("frame.metrics", frame(r#"{"kind":"metrics","id":12}"#)),
        ("frame.health", frame(r#"{"id":0,"kind":"health"}"#)),
        ("frame.shutdown", frame(r#"{"id":13,"kind":"shutdown"}"#)),
        // Decode failures: every message, exactly.
        ("frame.err.not_utf8", b"{\"id\":1,\"kind\":\"st\xffats\"}".to_vec()),
        ("frame.err.empty", frame("")),
        ("frame.err.whitespace_only", frame("  \n")),
        ("frame.err.open_brace", frame("{")),
        ("frame.err.trailing", frame(r#"{"id":1,"kind":"stats"} x"#)),
        ("frame.err.two_values", frame(r#"{"id":1,"kind":"stats"}{}"#)),
        ("frame.err.not_object", frame("[1,2]")),
        ("frame.err.unknown_kind", frame(r#"{"id":1,"kind":"launch_missiles"}"#)),
        ("frame.err.missing_id", frame(r#"{"kind":"stats"}"#)),
        ("frame.err.negative_id", frame(r#"{"id":-1,"kind":"stats"}"#)),
        ("frame.err.float_id", frame(r#"{"id":1.0,"kind":"stats"}"#)),
        ("frame.err.string_id", frame(r#"{"id":"1","kind":"stats"}"#)),
        ("frame.err.kind_not_string", frame(r#"{"id":1,"kind":7}"#)),
        ("frame.err.missing_angles", frame(r#"{"id":1,"kind":"compile","program":["ZZ"]}"#)),
        ("frame.err.program_not_array", frame(r#"{"id":1,"kind":"compile","program":"ZZ","angles":[]}"#)),
        ("frame.err.program_item", frame(r#"{"id":1,"kind":"compile","program":["ZZ",3],"angles":[]}"#)),
        ("frame.err.angle_item", frame(r#"{"id":1,"kind":"compile","program":["ZZ"],"angles":["0.5"]}"#)),
        ("frame.err.null_angle", frame(r#"{"id":1,"kind":"compile","program":["ZZ"],"angles":[null]}"#)),
        ("frame.err.angle_sets_item", frame(r#"{"id":1,"kind":"sweep","program":["ZZ"],"angle_sets":[0.5]}"#)),
        ("frame.err.angle_sets_entry", frame(r#"{"id":1,"kind":"sweep","program":["ZZ"],"angle_sets":[[true]]}"#)),
        ("frame.err.qasm_not_string", frame(r#"{"id":1,"kind":"compile_qasm","qasm":["x"]}"#)),
        ("frame.err.shots_float", frame(r#"{"id":1,"kind":"estimate","program":[],"angles":[],"observables":[],"shots":1.5,"seed":0}"#)),
        ("frame.err.unterminated_string", frame(r#"{"id":1,"kind":"sta"#)),
        ("frame.err.unterminated_escape", frame(r#"{"id":1,"kind":"sta\"#)),
        ("frame.err.bad_escape", frame(r#"{"id":1,"kind":"st\qats"}"#)),
        ("frame.err.escaped_newline", frame("{\"id\":1,\"kind\":\"st\\\nats\"}")),
        ("frame.err.truncated_unicode", frame(r#"{"id":1,"kind":"st\u00"#)),
        ("frame.err.invalid_unicode", frame(r#"{"id":1,"kind":"st\uZZZZ"}"#)),
        ("frame.err.non_ascii_unicode", frame(r#"{"id":1,"kind":"st\u00éa"}"#)),
        ("frame.err.unpaired_surrogate", frame(r#"{"id":1,"kind":"\ud83d"}"#)),
        ("frame.err.spaced_surrogate", frame(r#"{"id":1,"kind":"\ud83d \ude00"}"#)),
        ("frame.err.high_surrogate_then_char", frame(r#"{"id":1,"kind":"\ud83dA"}"#)),
        ("frame.err.invalid_low_surrogate", frame(r#"{"id":1,"kind":"\ud83d\u0041"}"#)),
        ("frame.err.truncated_low_surrogate", frame(r#"{"id":1,"kind":"\ud83d\u00"}"#)),
        ("frame.err.lone_low_surrogate", frame(r#"{"id":1,"kind":"\ude00"}"#)),
        ("frame.err.literal", frame(r#"{"id":tru,"kind":"stats"}"#)),
        ("frame.err.null_literal", frame(r#"{"id":nul}"#)),
        ("frame.err.unexpected_char", frame(r#"{"id":@}"#)),
        ("frame.err.bad_number", frame(r#"{"id":1.2.3,"kind":"stats"}"#)),
        ("frame.err.minus_only", frame(r#"{"id":-,"kind":"stats"}"#)),
        ("frame.err.exponent_only", frame(r#"{"id":1e,"kind":"stats"}"#)),
        ("frame.err.plus_number", frame(r#"{"id":+1,"kind":"stats"}"#)),
        ("frame.err.missing_colon", frame(r#"{"id" 1}"#)),
        ("frame.err.missing_comma", frame(r#"{"id":1 "kind":"stats"}"#)),
        ("frame.err.trailing_comma", frame(r#"{"id":1,}"#)),
        ("frame.err.array_missing_comma", frame(r#"{"id":1,"kind":"compile","program":["Z" "Z"],"angles":[]}"#)),
        ("frame.err.unquoted_key", frame(r#"{id:1}"#)),
        ("frame.err.deep", frame(&deep)),
    ];
    cases
        .into_iter()
        .map(|(name, bytes)| (name, Case::Frame(bytes)))
        .collect()
}

fn response_frames() -> Vec<(&'static str, Case)> {
    let cases: Vec<(&'static str, Vec<u8>)> = vec![
        (
            "resp-frame.stats.legacy",
            frame("{\"id\": 5, \"ok\": true, \"kind\": \"stats\",\n \"hits\": 1, \"misses\": 2, \"coalesced_waits\": 0, \"evictions\": 0,\n \"binds\": 3, \"entries\": 1, \"capacity\": 64, \"hit_rate\": 0.333,\n \"requests_served\": 6, \"connections_accepted\": 1, \"uptime_ms\": 9,\n \"request_latencies\": [{\"kind\": \"compile\", \"count\": 1}]}"),
        ),
        (
            "resp-frame.compiled.escapes",
            frame(r#"{"id":1,"ok":true,"kind":"compiled","optimized_qasm":"h q[0];\nrz(1e-3) q[0];\u0009\"x\"","extracted_qasm":"😀","num_qubits":1,"cnot_count":0,"gate_count":2}"#),
        ),
        (
            "resp-frame.sweep",
            frame(r#"{"id":2,"ok":true,"kind":"sweep","results":[{"ok":false,"error":{"kind":"angle_count","message":"m"}},{"ok":true,"optimized_qasm":"","extracted_qasm":"","num_qubits":0,"cnot_count":0,"gate_count":0}]}"#),
        ),
        (
            "resp-frame.estimated.integers",
            frame(r#"{"id":3,"ok":true,"kind":"estimated","expectations":[1,-1,0,0.5e1],"groups":[[0,1],[2]],"shot_budget_divisor":2}"#),
        ),
        (
            "resp-frame.error",
            frame(r#"{"id":4,"ok":false,"error":{"message":"late","kind":"deadline_exceeded"}}"#),
        ),
        ("resp-frame.err.not_json", frame("not json")),
        ("resp-frame.err.missing_ok", frame(r#"{"id":1}"#)),
        ("resp-frame.err.ok_not_bool", frame(r#"{"id":1,"ok":1}"#)),
        ("resp-frame.err.failure_without_error", frame(r#"{"id":1,"ok":false}"#)),
        ("resp-frame.err.error_without_message", frame(r#"{"id":1,"ok":false,"error":{"kind":"x"}}"#)),
        ("resp-frame.err.missing_kind", frame(r#"{"id":1,"ok":true}"#)),
        ("resp-frame.err.unknown_kind", frame(r#"{"id":1,"ok":true,"kind":"wat"}"#)),
        ("resp-frame.err.stats_missing", frame(r#"{"id":1,"ok":true,"kind":"stats"}"#)),
        ("resp-frame.err.stats_bad_optional", frame(r#"{"id":1,"ok":true,"kind":"stats","hits":1,"misses":2,"coalesced_waits":0,"evictions":0,"binds":3,"entries":1,"capacity":64,"hit_rate":0.5,"requests_served":6,"connections_accepted":1,"uptime_ms":9,"lane_words":"4"}"#)),
        ("resp-frame.err.missing_results", frame(r#"{"id":1,"ok":true,"kind":"sweep"}"#)),
        ("resp-frame.err.sweep_item_without_ok", frame(r#"{"id":1,"ok":true,"kind":"sweep","results":[{}]}"#)),
        ("resp-frame.err.sweep_item_without_error", frame(r#"{"id":1,"ok":true,"kind":"sweep","results":[{"ok":false}]}"#)),
        ("resp-frame.err.groups_missing", frame(r#"{"id":1,"ok":true,"kind":"absorbed","observables":[]}"#)),
        ("resp-frame.err.group_not_array", frame(r#"{"id":1,"ok":true,"kind":"absorbed","observables":[],"groups":[1]}"#)),
        ("resp-frame.err.group_index", frame(r#"{"id":1,"ok":true,"kind":"absorbed","observables":[],"groups":[[-1]]}"#)),
        ("resp-frame.err.divisor", frame(r#"{"id":1,"ok":true,"kind":"estimated","expectations":[],"groups":[],"shot_budget_divisor":null}"#)),
        ("resp-frame.err.missing_snapshot", frame(r#"{"id":1,"ok":true,"kind":"metrics"}"#)),
        ("resp-frame.err.bad_snapshot", frame(r#"{"id":1,"ok":true,"kind":"metrics","snapshot":{}}"#)),
        ("resp-frame.err.unterminated", frame(r#"{"id":1,"ok":true,"kind":"health","uptime_ms":"#)),
    ];
    cases
        .into_iter()
        .map(|(name, bytes)| (name, Case::ResponseFrame(bytes)))
        .collect()
}

fn served_frames() -> Vec<(&'static str, Case)> {
    use Served::{Default, NoTime, SmallFrames};
    let qasm = r#"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\nrz(0.7) q[1];\ncx q[1],q[2];\nrz(-0.2) q[2];\nrx(1.1) q[0];\n"#;
    let cases: Vec<(&'static str, Served, String)> = vec![
        (
            "served.compile",
            Default,
            r#"{"id":1,"kind":"compile","program":["ZZZZ","YYXX","-XIZI"],"angles":[0.3,0.7,-1.25]}"#.into(),
        ),
        (
            "served.compile.awkward_angles",
            Default,
            r#"{"id":2,"kind":"compile","program":["ZZ","XY","YZ","ZX"],"angles":[1e-7,-0.0,2.0,6.02e23]}"#.into(),
        ),
        (
            "served.sweep",
            Default,
            r#"{"id":3,"kind":"sweep","program":["ZZI","IZZ","XII","IXI"],"angle_sets":[[0.1,0.2,0.3,0.4],[0.5],[-1.5,2.5,1e-3,3.0]]}"#.into(),
        ),
        (
            "served.compile_qasm",
            Default,
            format!(r#"{{"id":4,"kind":"compile_qasm","qasm":"{qasm}"}}"#),
        ),
        (
            "served.bind_qasm",
            Default,
            format!(r#"{{"id":5,"kind":"bind_qasm","qasm":"{qasm}","angles":[0.25,-0.5,1.75]}}"#),
        ),
        (
            "served.absorb",
            Default,
            r#"{"id":6,"kind":"absorb","program":["ZZI","XXY","-IZZ"],"observables":["+ZII","-XXI","IIZ","YYY"]}"#.into(),
        ),
        (
            "served.estimate",
            Default,
            r#"{"id":7,"kind":"estimate","program":["ZZI","XXY","-IZZ"],"angles":[0.3,-0.8,1.1],"observables":["+ZII","-XXI","IIZ","YYY"],"shots":256,"seed":42}"#.into(),
        ),
        (
            "served.err.bad_request",
            Default,
            r#"{"id":8,"kind":"compile","program":["ZZ"]}"#.into(),
        ),
        (
            "served.err.not_json",
            Default,
            "{\"id\":9,".into(),
        ),
        (
            "served.err.bad_program",
            Default,
            r#"{"id":10,"kind":"compile","program":["ZQ","ZZ"],"angles":[0.1,0.2]}"#.into(),
        ),
        (
            "served.err.empty_axis",
            Default,
            r#"{"id":11,"kind":"compile","program":["-"],"angles":[0.1]}"#.into(),
        ),
        (
            "served.err.mixed_widths",
            Default,
            r#"{"id":12,"kind":"compile","program":["ZZ","ZZZ"],"angles":[0.1,0.2]}"#.into(),
        ),
        (
            "served.err.angle_count",
            Default,
            r#"{"id":13,"kind":"compile","program":["ZZ","XX"],"angles":[0.1]}"#.into(),
        ),
        (
            "served.err.non_finite_angle",
            Default,
            r#"{"id":14,"kind":"compile","program":["ZZ"],"angles":[1e999]}"#.into(),
        ),
        (
            "served.err.bad_observable",
            Default,
            r#"{"id":15,"kind":"absorb","program":["ZZ"],"observables":["+ZI","Zé"]}"#.into(),
        ),
        (
            "served.err.qasm_parse",
            Default,
            r#"{"id":16,"kind":"compile_qasm","qasm":"OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n"}"#.into(),
        ),
        (
            "served.err.zero_shots",
            Default,
            r#"{"id":17,"kind":"estimate","program":["ZZ"],"angles":[0.3],"observables":["ZI"],"shots":0,"seed":1}"#.into(),
        ),
        (
            "served.err.too_many_shots",
            Default,
            r#"{"id":18,"kind":"estimate","program":["ZZ"],"angles":[0.3],"observables":["ZI"],"shots":2097152,"seed":1}"#.into(),
        ),
        (
            "served.err.forbidden",
            Default,
            r#"{"id":19,"kind":"shutdown"}"#.into(),
        ),
        (
            "served.err.deadline_exceeded",
            NoTime,
            r#"{"id":20,"kind":"compile","program":["ZZ","XX"],"angles":[0.1,0.2]}"#.into(),
        ),
        (
            "served.err.response_too_large",
            SmallFrames,
            r#"{"id":21,"kind":"compile","program":["ZZZZ","YYXX","XYZX"],"angles":[0.3,0.7,0.9]}"#.into(),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, server, text)| (name, Case::Served(server, text.into_bytes())))
        .collect()
}

fn all_cases() -> Vec<(&'static str, Case)> {
    let mut cases = constructed_requests();
    cases.extend(constructed_responses());
    cases.extend(request_frames());
    cases.extend(response_frames());
    cases.extend(served_frames());
    let names: BTreeSet<&str> = cases.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), cases.len(), "corpus case names must be unique");
    cases
}

/// The three live servers, started once for every `served.*` case.
struct Servers {
    default: Server,
    no_time: Server,
    small_frames: Server,
}

impl Servers {
    fn start() -> Servers {
        let start = |config: ServerConfig| {
            Server::bind("127.0.0.1:0", Arc::new(Engine::new(16)), config).expect("bind")
        };
        Servers {
            default: start(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            }),
            no_time: start(ServerConfig {
                workers: 1,
                request_deadline: Some(Duration::ZERO),
                ..ServerConfig::default()
            }),
            small_frames: start(ServerConfig {
                workers: 1,
                max_frame_bytes: 512,
                ..ServerConfig::default()
            }),
        }
    }

    fn send(&self, which: Served, payload: &[u8]) -> Vec<u8> {
        let server = match which {
            Served::Default => &self.default,
            Served::NoTime => &self.no_time,
            Served::SmallFrames => &self.small_frames,
        };
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, payload).expect("write frame");
        read_frame(&mut stream, MAX_FRAME_BYTES)
            .expect("read frame")
            .expect("the server answers every frame")
    }

    fn stop(self) {
        self.default.stop();
        self.no_time.stop();
        self.small_frames.stop();
    }
}

/// One output line for encoded bytes: the JSON text itself, which the
/// compact renderer keeps on one line.
fn bytes_line(bytes: &[u8]) -> String {
    let text = String::from_utf8(bytes.to_vec()).expect("encoded frames are UTF-8");
    assert!(
        !text.contains('\n') && !text.contains('\r'),
        "compact frames fit on one line: {text:?}"
    );
    text
}

fn error_line(error: &WireError) -> String {
    format!(
        "ERR {} {}",
        error.kind.escape_debug(),
        error.message.escape_debug()
    )
}

/// Asserts `encode(decode(bytes)) == bytes` for a frame that decodes.
fn assert_request_fixed_point(name: &str, bytes: &[u8]) {
    if let Ok(decoded) = Request::decode(bytes) {
        assert_eq!(
            decoded.encode(),
            bytes,
            "{name}: request is not a fixed point"
        );
    }
}

fn assert_response_fixed_point(name: &str, bytes: &[u8]) {
    let decoded = Response::decode(bytes)
        .unwrap_or_else(|e| panic!("{name}: served or encoded response must decode: {e}"));
    assert_eq!(
        decoded.encode(),
        bytes,
        "{name}: response is not a fixed point"
    );
}

/// The corpus line of one case, with the fixed-point checks on the way.
fn outcome(name: &str, case: &Case, servers: &Servers) -> String {
    match case {
        Case::Request(request) => {
            let bytes = request.encode();
            assert_request_fixed_point(name, &bytes);
            if let Ok(decoded) = Request::decode(&bytes) {
                assert_eq!(&decoded, request, "{name}: request does not round-trip");
            }
            bytes_line(&bytes)
        }
        Case::Response(response) => {
            let bytes = response.encode();
            if let Ok(decoded) = Response::decode(&bytes) {
                assert_eq!(
                    decoded.encode(),
                    bytes,
                    "{name}: response is not a fixed point"
                );
            }
            bytes_line(&bytes)
        }
        Case::Frame(bytes) => match Request::decode(bytes) {
            Ok(request) => {
                let encoded = request.encode();
                assert_request_fixed_point(name, &encoded);
                bytes_line(&encoded)
            }
            Err(error) => error_line(&error),
        },
        Case::ResponseFrame(bytes) => match Response::decode(bytes) {
            Ok(response) => {
                let encoded = response.encode();
                assert_response_fixed_point(name, &encoded);
                bytes_line(&encoded)
            }
            Err(error) => error_line(&error),
        },
        Case::Served(which, payload) => {
            let answer = servers.send(*which, payload);
            assert_response_fixed_point(name, &answer);
            bytes_line(&answer)
        }
    }
}

fn render_corpus() -> String {
    let servers = Servers::start();
    let mut out = String::new();
    for (name, case) in all_cases() {
        out.push_str(name);
        out.push('\t');
        out.push_str(&outcome(name, &case, &servers));
        out.push('\n');
    }
    servers.stop();
    out
}

#[test]
fn every_wire_byte_matches_the_corpus() {
    let actual = render_corpus();
    let expected: Vec<&str> = CORPUS.lines().collect();
    let actual: Vec<&str> = actual.lines().collect();
    for (want, got) in expected.iter().zip(&actual) {
        let name = want.split('\t').next().unwrap_or_default();
        assert_eq!(got, want, "corpus case `{name}` changed");
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "the corpus and the cases disagree on the number of entries"
    );
}

#[test]
fn corpus_covers_every_request_kind_and_error_kind() {
    let requests: BTreeSet<&str> = all_cases()
        .into_iter()
        .filter_map(|(_, case)| match case {
            Case::Request(request) => Some(request.kind.name()),
            _ => None,
        })
        .collect();
    assert_eq!(requests.len(), 10, "one constructed request per kind");
    for kind in [
        "bad_request",
        "bad_response",
        "bad_program",
        "bad_observable",
        "angle_count",
        "qasm_parse",
        "non_finite_angle",
        "not_estimable",
        "deadline_exceeded",
        "forbidden",
        "response_too_large",
    ] {
        assert!(
            CORPUS.contains(&format!("\"kind\":\"{kind}\""))
                || CORPUS.contains(&format!("ERR {kind} ")),
            "no corpus entry carries the wire error kind `{kind}`"
        );
    }
}

/// Rewrites `wire_corpus.txt` from the current code. Run it only for an
/// intended wire change, and review the diff.
#[test]
#[ignore = "rewrites the checked-in corpus"]
fn regenerate_corpus() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/wire_corpus.txt");
    std::fs::write(path, render_corpus()).expect("write the corpus");
}
