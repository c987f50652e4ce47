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
use quclear_pauli::{ParsePauliError, SignedPauli};
use quclear_serve::protocol::{read_frame, MAX_FRAME_BYTES};
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
