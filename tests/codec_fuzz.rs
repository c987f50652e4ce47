//! Codec fuzzing: random bytes and damaged corpus frames through every
//! decoder a client can reach.
//!
//! `Request::decode`, `Response::decode` and `SignedPauli::from_str` are fed
//! random bytes and truncated or byte-flipped frames from the wire corpus
//! (`crates/serve/tests/wire_corpus.txt`). Every UTF-8 frame goes through
//! `serde_json::from_str` first, so its failures surface as the decoders'
//! `serde_json error: … at byte N` messages. Nothing may panic, every
//! failure must be the decoder's typed error, and every accepted frame must
//! re-encode to a fixed point.
//!
//! Below the codec, `read_frame` reads streams cut into random pieces with
//! injected `Interrupted` errors, and `from_qasm` parses random bytes and
//! byte-flipped `to_qasm` output; neither may panic, and every answer must
//! follow the framing rules or carry a location inside the text.

use std::io::{self, Read};

use proptest::prelude::*;
use quclear_circuit::qasm::{from_qasm, to_qasm};
use quclear_circuit::{Circuit, Gate};
use quclear_core::QuClearConfig;
use quclear_engine::ProgramFingerprint;
use quclear_pauli::{ParsePauliError, SignedPauli};
use quclear_serve::protocol::{read_frame, ScannedAngles, ScannedRequest, MAX_FRAME_BYTES};
use quclear_serve::{Request, RequestKind, Response, WireError};

/// The encoded frames of the wire corpus (its non-error lines).
fn corpus_frames() -> Vec<&'static [u8]> {
    include_str!("../crates/serve/tests/wire_corpus.txt")
        .lines()
        .filter_map(|line| line.split_once('\t'))
        .map(|(_, outcome)| outcome)
        .filter(|outcome| !outcome.starts_with("ERR "))
        .map(str::as_bytes)
        .collect()
}

/// Bytes that steer a flip toward the parser's interesting states.
const FLIP_BYTES: [u8; 16] = [
    b'"', b'\\', b'u', b'{', b'}', b'[', b']', b',', b':', b'-', b'e', b'0', b' ', 0x00, 0xC3, 0xFF,
];

/// The messages a frame can fail with: a JSON syntax error (from
/// `serde_json::from_str`), or a typed field error.
fn assert_typed(error: &WireError, kind: &str) -> Result<(), String> {
    prop_assert_eq!(error.kind.as_str(), kind);
    let m = &error.message;
    let json = m.starts_with("serde_json error: ") && m.contains(" at byte ");
    let field = m.starts_with("missing ")
        || m.starts_with("field `")
        || m.starts_with('`')
        || m.starts_with("unknown ")
        || m.starts_with("failure without")
        || m.starts_with("failed sweep item")
        || m.starts_with("sweep item without")
        || m.starts_with("group ")
        || m == "frame is not UTF-8"
        // `MetricsSnapshot::from_json`'s own messages.
        || ["counter ", "gauge ", "histogram "]
            .iter()
            .any(|sample| m.starts_with(sample));
    prop_assert!(json || field, "untyped {kind} message {m:?}");
    Ok(())
}

/// Whether re-decoding an accepted frame's encoding may fail: only when a
/// non-finite number (`1e999`) was re-encoded as `null`.
fn rejects_only_a_null_number(error: &WireError) -> bool {
    let m = &error.message;
    m.contains("must be numbers") || m.contains("is not a number")
}

/// Every decoder on one input: typed errors only, and fixed points for
/// whatever is accepted. A panic anywhere fails the property.
fn check_decoders(bytes: &[u8]) -> Result<(), String> {
    if let Ok(text) = std::str::from_utf8(bytes) {
        check_pauli(text)?;
    }
    check_scan(bytes)?;

    match Request::decode(bytes) {
        Ok(request) => {
            let encoded = request.encode();
            match Request::decode(&encoded) {
                Ok(again) => prop_assert_eq!(again.encode(), encoded),
                Err(error) => prop_assert!(
                    rejects_only_a_null_number(&error),
                    "re-encoded request rejected: {error}"
                ),
            }
            if let RequestKind::Compile { program, .. } = &request.kind {
                for axis in program {
                    check_pauli(axis)?;
                }
            }
        }
        Err(error) => assert_typed(&error, "bad_request")?,
    }

    match Response::decode(bytes) {
        Ok(response) => {
            let encoded = response.encode();
            match Response::decode(&encoded) {
                Ok(again) => prop_assert_eq!(again.encode(), encoded),
                Err(error) => prop_assert!(
                    rejects_only_a_null_number(&error),
                    "re-encoded response rejected: {error}"
                ),
            }
        }
        Err(error) => assert_typed(&error, "bad_response")?,
    }
    Ok(())
}

/// Whatever the warm-path scan accepts, the tree decoder accepts with the
/// same id, kind and angles (bit for bit); the axes parse, their signs are
/// the scan's sign bits and their sign-stripped fingerprint is the scan's;
/// a `compile` has one angle per axis. Returns whether the scan took it.
fn check_scan(bytes: &[u8]) -> Result<bool, String> {
    let config = QuClearConfig::default();
    let Some(scanned) = ScannedRequest::scan(bytes) else {
        return Ok(false);
    };
    let request = Request::decode(bytes);
    prop_assert!(
        request.is_ok(),
        "scanned frame rejected by the tree: {request:?}"
    );
    let request = request.unwrap();
    prop_assert_eq!(request.id, scanned.id);
    let bits = |set: &[f64]| set.iter().map(|a| a.to_bits()).collect::<Vec<u64>>();
    let program = match (&request.kind, &scanned.angles) {
        (RequestKind::Compile { program, angles }, ScannedAngles::Compile(scanned_angles)) => {
            prop_assert_eq!(bits(angles), bits(scanned_angles));
            prop_assert_eq!(program.len(), angles.len());
            program
        }
        (
            RequestKind::Sweep {
                program,
                angle_sets,
            },
            ScannedAngles::Sweep(scanned_sets),
        ) => {
            prop_assert_eq!(angle_sets.len(), scanned_sets.len());
            for (set, scanned_set) in angle_sets.iter().zip(scanned_sets) {
                prop_assert_eq!(bits(set), bits(scanned_set));
            }
            program
        }
        (kind, angles) => return Err(format!("kinds differ: {kind:?} vs {angles:?}")),
    };
    let axes: Vec<SignedPauli> = program
        .iter()
        .map(|axis| axis.parse::<SignedPauli>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("a scanned axis does not parse: {e}"))?;
    let signs: Vec<bool> = axes.iter().map(SignedPauli::is_negative).collect();
    prop_assert_eq!(&scanned.signs, &signs);
    let positive: Vec<SignedPauli> = axes
        .into_iter()
        .map(|axis| SignedPauli::positive(axis.into_pauli()))
        .collect();
    prop_assert_eq!(
        scanned.fingerprint(&config),
        ProgramFingerprint::of_axes(&positive, &config)
    );
    let spelled: Vec<&str> = scanned.axes().collect();
    prop_assert_eq!(
        spelled,
        program.iter().map(String::as_str).collect::<Vec<_>>()
    );
    Ok(true)
}

/// One random axis spelling over `n` qubits: mixed case, an optional sign.
fn spell_axis(n: usize, draws: &[u8]) -> String {
    let sign = ["", "+", "-"][usize::from(draws[0]) % 3];
    let letters: String = (0..n)
        .map(|q| {
            b"IXYZixyz"[usize::from(draws[(q % (draws.len() - 1)) + 1] ^ (q as u8)) % 8] as char
        })
        .collect();
    format!("{sign}{letters}")
}

/// One number, spelled one of several ways the tree accepts.
fn spell_number(pick: u8, x: f64) -> String {
    match pick % 8 {
        0 => "-0".to_string(),
        1 => "123456789012345678901234567890".to_string(),
        2 => "1e999".to_string(),
        3 => format!("{}", x.trunc() as i64),
        4 => format!("{x:e}"),
        5 => "-18446744073709551616".to_string(),
        6 => "2.5E-3".to_string(),
        _ => format!("{x:?}"),
    }
}

/// A random valid `compile` or `sweep` frame: fields in a random order,
/// whitespace between every token, numbers spelled many ways.
fn random_frame(sweep: bool, n: usize, axes: usize, draws: &[u8], order: usize) -> String {
    let ws = |i: usize| [" ", "\t", "\n", "\r\n ", ""][usize::from(draws[i % draws.len()]) % 5];
    let program: Vec<String> = (0..axes)
        .map(|a| {
            format!(
                "{}\"{}\"{}",
                ws(a),
                spell_axis(n, &draws[a % 8..]),
                ws(a + 1)
            )
        })
        .collect();
    let numbers = |salt: usize| -> String {
        let items: Vec<String> = (0..axes)
            .map(|a| {
                let draw = draws[(a + salt) % draws.len()];
                let x = (f64::from(draw) - 128.0) * 0.0371 * (a as f64 + 1.0);
                format!("{}{}{}", ws(a + salt), spell_number(draw, x), ws(a + 2))
            })
            .collect();
        format!("[{}]", items.join(","))
    };
    let angles = if sweep {
        let sets: Vec<String> = (0..1 + usize::from(draws[0]) % 3).map(numbers).collect();
        format!("\"angle_sets\"{}:{}[{}]", ws(3), ws(4), sets.join(","))
    } else {
        format!("\"angles\"{}:{}{}", ws(5), ws(6), numbers(0))
    };
    let kind = if sweep { "sweep" } else { "compile" };
    let mut fields = [
        format!(
            "\"id\"{}:{}{}",
            ws(7),
            ws(8),
            u64::from(draws[1]) * 1_000_003
        ),
        format!("\"kind\":{}\"{kind}\"", ws(9)),
        format!("\"program\"{}:[{}]", ws(10), program.join(",")),
        angles,
    ];
    fields.rotate_left(order % 4);
    if order & 4 != 0 {
        fields.swap(0, 1);
    }
    let body: Vec<String> = fields
        .iter()
        .map(|f| format!("{}{f}{}", ws(11), ws(12)))
        .collect();
    format!("{}{{{}}}{}", ws(13), body.join(","), ws(14))
}

/// `SignedPauli::from_str` fails only as `Empty` or on a character that is
/// really in the input, and what it accepts displays back to its letters.
fn check_pauli(text: &str) -> Result<(), String> {
    match text.parse::<SignedPauli>() {
        Ok(axis) => {
            let body = text
                .strip_prefix('-')
                .or_else(|| text.strip_prefix('+'))
                .unwrap_or(text);
            prop_assert!(
                axis.pauli().to_string() == body.to_ascii_uppercase(),
                "accepted axis {text:?}"
            );
        }
        Err(ParsePauliError::Empty) => {
            prop_assert!(matches!(text, "" | "+" | "-"), "Empty for {text:?}");
        }
        Err(ParsePauliError::InvalidCharacter(c)) => {
            prop_assert!(text.contains(c), "{c:?} is not in {text:?}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// Random bytes, biased toward JSON punctuation half the time.
    #[test]
    fn random_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..96),
        steer in any::<bool>(),
    ) {
        let bytes: Vec<u8> = if steer {
            raw.iter().map(|&b| FLIP_BYTES[usize::from(b) % FLIP_BYTES.len()]).collect()
        } else {
            raw
        };
        check_decoders(&bytes)?;
    }

    /// Corpus frames, truncated at a random point.
    #[test]
    fn truncated_corpus_frames_never_panic(pick in any::<usize>(), cut in any::<usize>()) {
        let frames = corpus_frames();
        let frame = frames[pick % frames.len()];
        check_decoders(&frame[..cut % (frame.len() + 1)])?;
    }

    /// Corpus frames with one to three bytes overwritten.
    #[test]
    fn flipped_corpus_frames_never_panic(
        pick in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..=3),
    ) {
        let frames = corpus_frames();
        let mut frame = frames[pick % frames.len()].to_vec();
        for (at, byte, steer) in flips {
            let at = at % frame.len();
            frame[at] = if steer { FLIP_BYTES[usize::from(byte) % FLIP_BYTES.len()] } else { byte };
        }
        check_decoders(&frame)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random valid `compile`/`sweep` frames take the scan, and the scan
    /// reads what the tree decoder reads (`check_scan`), on 1–1,024
    /// qubits, across 64-bit word boundaries.
    #[test]
    fn valid_frames_take_the_scan_and_agree_with_the_tree(
        sweep in any::<bool>(),
        n in 1usize..=1024,
        axes in 0usize..12,
        draws in prop::collection::vec(any::<u8>(), 16..32),
        order in 0usize..8,
    ) {
        let frame = random_frame(sweep, n, axes, &draws, order);
        prop_assert!(check_scan(frame.as_bytes())?, "declined valid frame {frame}");
    }

    /// The scan's fingerprint changes with one letter, with the order of
    /// two axes and with the register size.
    #[test]
    fn the_scan_fingerprint_tells_programs_apart(
        n in 1usize..=200,
        draws in prop::collection::vec(any::<u8>(), 16..32),
        at in any::<usize>(),
    ) {
        let config = QuClearConfig::default();
        let frame = |program: &[String]| {
            Request {
                id: 1,
                kind: RequestKind::Compile { program: program.to_vec(), angles: vec![0.5; program.len()] },
            }
            .encode()
        };
        let fingerprint = |program: &[String]| {
            ScannedRequest::scan(&frame(program)).map(|s| s.fingerprint(&config))
        };
        let a = spell_axis(n, &draws).trim_start_matches(['+', '-']).to_ascii_uppercase();
        let b = spell_axis(n, &draws[3..]).trim_start_matches(['+', '-']).to_ascii_uppercase();
        let base = fingerprint(&[a.clone(), b.clone()]).unwrap();
        let q = at % n;
        let mut changed = a.clone().into_bytes();
        changed[q] = if changed[q] == b'X' { b'Z' } else { b'X' };
        let changed = String::from_utf8(changed).unwrap();
        prop_assert_ne!(fingerprint(&[changed, b.clone()]).unwrap(), base);
        if a != b {
            prop_assert_ne!(fingerprint(&[b.clone(), a.clone()]).unwrap(), base);
        }
        prop_assert_ne!(fingerprint(&[format!("{a}I"), format!("{b}I")]).unwrap(), base);
    }
}

/// Frames the scan cannot fully validate are declined, so they take the
/// tree decoder and its exact error or value.
#[test]
fn the_scan_declines_what_it_cannot_validate() {
    for frame in [
        r#"{"id":1,"kind":"compile","program":["Z\u0049"],"angles":[0.5]}"#,
        r#"{"id":1,"id":2,"kind":"compile","program":["ZI"],"angles":[0.5]}"#,
        r#"{"id":1,"kind":"compile","program":["ZI"],"angles":[0.5],"extra":0}"#,
        r#"{"id":1,"kind":"compile","program":["ZI"],"angles":[null]}"#,
        r#"{"id":1,"kind":"compile","program":["ZI"],"angles":[0.5,]}"#,
        r#"{"id":1,"kind":"compile","program":["ZI","Z"],"angles":[0.5,0.5]}"#,
        r#"{"id":1,"kind":"compile","program":["ZI"],"angles":[0.5,0.5]}"#,
        r#"{"id":1,"kind":"compile","program":["ZQ"],"angles":[0.5]}"#,
        r#"{"id":1,"kind":"compile","program":["é"],"angles":[0.5]}"#,
        r#"{"id":1,"kind":"compile","program":[""],"angles":[0.5]}"#,
        r#"{"id":1,"kind":"estimate","program":["ZI"],"angles":[0.5]}"#,
        r#"{"id":-1,"kind":"compile","program":["ZI"],"angles":[0.5]}"#,
        r#"{"id":1,"kind":"sweep","program":["ZI"],"angles":[0.5]}"#,
        r#"{"id":1,"kind":"compile","program":["ZI"],"angles":[0.5]} x"#,
    ] {
        assert!(
            ScannedRequest::scan(frame.as_bytes()).is_none(),
            "the scan took {frame}"
        );
        check_decoders(frame.as_bytes()).unwrap();
    }
    let wide = format!(
        r#"{{"id":1,"kind":"compile","program":["{}"],"angles":[0.5]}}"#,
        "Z".repeat(1025)
    );
    assert!(ScannedRequest::scan(wide.as_bytes()).is_none());
    assert!(ScannedRequest::scan(&[0xff, b'{']).is_none());
}

#[test]
fn every_corpus_frame_passes_the_decoder_checks() {
    for frame in corpus_frames() {
        check_decoders(frame).unwrap();
    }
}

/// A reader that hands its bytes out in pieces of the sizes `steps` names
/// (cycling), failing with `Interrupted` wherever a step says so, but never
/// twice in a row.
struct ChoppyReader<'a> {
    data: &'a [u8],
    steps: &'a [(u8, bool)],
    step: usize,
    interrupted: bool,
}

impl Read for ChoppyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (size, interrupt) = self.steps[self.step % self.steps.len()];
        self.step += 1;
        if interrupt && !self.interrupted {
            self.interrupted = true;
            return Err(io::ErrorKind::Interrupted.into());
        }
        self.interrupted = false;
        let n = (1 + usize::from(size) % 8)
            .min(buf.len())
            .min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Bytes that steer a flip toward the QASM parser's interesting states.
const QASM_FLIP_BYTES: [u8; 16] = [
    b';', b',', b'(', b')', b'[', b']', b'q', b'-', b'.', b'e', b'9', b' ', b'\n', b'/', 0x00, 0xC3,
];

/// `from_qasm` returns a circuit or an error whose line and column point
/// into `text`.
fn check_qasm(text: &str) -> Result<(), String> {
    if let Err(error) = from_qasm(text) {
        let line = text.split('\n').nth(error.line.wrapping_sub(1));
        prop_assert!(
            line.is_some_and(|line| (1..=line.len() + 1).contains(&error.column)),
            "{error} is not inside {text:?}"
        );
    }
    Ok(())
}

/// A small circuit from `(kind, qubit, other, angle)` draws over every gate
/// `to_qasm` writes.
fn small_circuit(n: usize, draws: &[(u8, usize, usize, f64)]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, b, angle) in draws {
        let q = a % n;
        let r = (q + 1 + b % (n - 1)) % n;
        c.push(match kind % 14 {
            0 => Gate::H(q),
            1 => Gate::S(q),
            2 => Gate::Sdg(q),
            3 => Gate::X(q),
            4 => Gate::Y(q),
            5 => Gate::Z(q),
            6 => Gate::SqrtX(q),
            7 => Gate::SqrtXdg(q),
            8 => Gate::Rz { qubit: q, angle },
            9 => Gate::Rx { qubit: q, angle },
            10 => Gate::Ry { qubit: q, angle },
            11 => Gate::Cx {
                control: q,
                target: r,
            },
            12 => Gate::Cz { a: q, b: r },
            _ => Gate::Swap { a: q, b: r },
        });
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// `read_frame` over a stream cut into random pieces with injected
    /// `Interrupted` errors, under honest, off-by-some and random length
    /// prefixes, caps small and real, and random truncation. Its answer is
    /// checked against the framing rules: `None` only for an empty stream,
    /// `InvalidData` for a prefix over the cap, `UnexpectedEof` for a cut
    /// header or payload, and otherwise exactly the declared payload.
    #[test]
    fn read_frame_follows_the_framing_rules(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        (prefix_mode, delta, random_len) in (0u8..3, 0usize..8, any::<u64>()),
        (cap_pick, cut) in (any::<usize>(), any::<usize>()),
        truncate in any::<bool>(),
        steps in prop::collection::vec((any::<u8>(), any::<bool>()), 1..6),
    ) {
        let declared = match prefix_mode {
            0 => payload.len() as u32,
            1 => (payload.len() + delta) as u32,
            _ => random_len as u32,
        };
        let cap = if cap_pick % 4 == 0 { MAX_FRAME_BYTES } else { cap_pick % 80 };
        let mut stream = declared.to_be_bytes().to_vec();
        stream.extend_from_slice(&payload);
        if truncate {
            stream.truncate(cut % (stream.len() + 1));
        }
        let mut reader = ChoppyReader { data: &stream, steps: &steps, step: 0, interrupted: false };
        let declared = declared as usize;
        let want = if stream.is_empty() {
            Ok(None)
        } else if stream.len() < 4 {
            Err(io::ErrorKind::UnexpectedEof)
        } else if declared > cap {
            Err(io::ErrorKind::InvalidData)
        } else if stream.len() < 4 + declared {
            Err(io::ErrorKind::UnexpectedEof)
        } else {
            Ok(Some(&stream[4..4 + declared]))
        };
        let got = read_frame(&mut reader, cap).map_err(|error| error.kind());
        prop_assert_eq!(got.as_ref().map(Option::as_deref).map_err(|&kind| kind), want);
    }

    /// `from_qasm` on random bytes, biased toward QASM punctuation half the
    /// time.
    #[test]
    fn random_bytes_never_panic_the_qasm_parser(
        raw in prop::collection::vec(any::<u8>(), 0..96),
        steer in any::<bool>(),
    ) {
        let bytes: Vec<u8> = if steer {
            raw.iter().map(|&b| QASM_FLIP_BYTES[usize::from(b) % QASM_FLIP_BYTES.len()]).collect()
        } else {
            raw
        };
        if let Ok(text) = std::str::from_utf8(&bytes) {
            check_qasm(text)?;
        }
    }

    /// `from_qasm` on `to_qasm` of a small random circuit with one to three
    /// bytes overwritten.
    #[test]
    fn flipped_qasm_never_panics(
        n in 2usize..5,
        draws in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>(), -7.0f64..7.0), 0..12),
        flips in prop::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..=3),
    ) {
        let mut bytes = to_qasm(&small_circuit(n, &draws)).into_bytes();
        for (at, byte, steer) in flips {
            let at = at % bytes.len();
            bytes[at] = if steer {
                QASM_FLIP_BYTES[usize::from(byte) % QASM_FLIP_BYTES.len()]
            } else {
                byte
            };
        }
        if let Ok(text) = std::str::from_utf8(&bytes) {
            check_qasm(text)?;
        }
    }
}
