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

use proptest::prelude::*;
use quclear_pauli::{ParsePauliError, SignedPauli};
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
