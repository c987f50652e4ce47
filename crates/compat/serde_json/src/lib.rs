//! Offline stand-in for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate: renders and parses the [`serde::Json`] tree used by the offline
//! `serde` stand-in. Only the entry points the workspace uses are provided:
//! [`to_string`] / [`to_string_pretty`] for serialization and [`from_str`]
//! (returning the dynamic [`Json`] tree) for deserialization — the
//! `quclear-serve` wire protocol reads typed fields out of the tree with
//! the `Json` accessors.

#![warn(missing_docs)]

use std::fmt::{self, Write as _};

use serde::{Json, Serialize};

/// Serialization error (infallible in practice for this stand-in; kept for
/// signature compatibility).
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Serializes a value as compact JSON.
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    value_to_string(&value.to_json())
}

/// Serializes an already-built [`Json`] tree as compact JSON, without the
/// intermediate clone that going through [`Serialize::to_json`] on a
/// wrapper would cost (used by the `quclear-serve` wire protocol, whose
/// messages are built as trees directly).
///
/// # Errors
///
/// Returns an error if the tree contains a non-finite float.
pub fn value_to_string(value: &Json) -> Result<String, Error> {
    let mut out = String::new();
    render(value, None, 0, &mut out)?;
    Ok(out)
}

/// Serializes a value as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_json(), Some(2), 0, &mut out)?;
    Ok(out)
}

fn render(
    value: &Json,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), Error> {
    let (newline, pad, pad_close) = match indent {
        Some(width) => (
            "\n",
            " ".repeat(width * (depth + 1)),
            " ".repeat(width * depth),
        ),
        None => ("", String::new(), String::new()),
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Numbers are formatted straight into `out`: writing to a `String`
        // cannot fail, so the `fmt::Result`s are discarded.
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Uint(u) => {
            let _ = write!(out, "{u}");
        }
        Json::Float(x) => {
            if !x.is_finite() {
                return Err(Error {
                    message: format!("non-finite float {x} is not representable in JSON"),
                });
            }
            // Match serde_json: always distinguishable from integers.
            let _ = if x.fract() == 0.0 && x.abs() < 1e15 {
                write!(out, "{x:.1}")
            } else {
                write!(out, "{x}")
            };
        }
        Json::Str(s) => push_escaped(s, out),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(newline);
                out.push_str(&pad);
                render(item, indent, depth + 1, out)?;
            }
            out.push_str(newline);
            out.push_str(&pad_close);
            out.push(']');
        }
        Json::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(newline);
                out.push_str(&pad);
                push_escaped(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, depth + 1, out)?;
            }
            out.push_str(newline);
            out.push_str(&pad_close);
            out.push('}');
        }
    }
    Ok(())
}

/// Parses JSON text into a [`Json`] tree.
///
/// Supports the full JSON grammar: all scalar types, nested arrays/objects,
/// string escapes (including `\uXXXX` with surrogate pairs), and arbitrary
/// whitespace. Numbers parse as `Uint`/`Int` when they are integral and in
/// range, `Float` otherwise. Nesting depth is bounded so untrusted network
/// input cannot overflow the stack.
///
/// # Errors
///
/// Returns an error describing the offending byte offset for malformed
/// input, trailing garbage, or over-deep nesting.
pub fn from_str(text: &str) -> Result<Json, Error> {
    let mut parser = Parser {
        text,
        src: text.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos < parser.src.len() {
        return Err(parser.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

/// Maximum nesting depth accepted by [`from_str`]: the parser recurses per
/// container, so untrusted input must not control the stack.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input; `src` is its bytes. Every string run the parser copies
    /// starts and ends next to an ASCII byte, so slicing `text` there is
    /// always on a character boundary and needs no UTF-8 re-validation.
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl fmt::Display) -> Error {
        Error {
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    /// Consumes `word` if it is next (used for `true`/`false`/`null`).
    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, Error> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.error("JSON nesting is too deep"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') | Some(b'f') => {
                if self.eat_word("true") {
                    Ok(Json::Bool(true))
                } else if self.eat_word("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'n') => {
                if self.eat_word("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.error(format!("unexpected character `{}`", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            entries.push((key, value));
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Json::Object(entries));
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Json::Array(items));
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            let run = find_special(&self.src[self.pos..], false);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            // `b` is a backslash: decode one escape.
            let Some(&esc) = self.src.get(self.pos) else {
                return Err(self.error("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let first = self.parse_hex4()?;
                    let code = if (0xD800..0xDC00).contains(&first) {
                        // High surrogate: require the paired low surrogate
                        // escape *immediately* — we are inside a string
                        // literal, so no whitespace skipping (`eat` would)
                        // is allowed here.
                        if self.src.get(self.pos) == Some(&b'\\')
                            && self.src.get(self.pos + 1) == Some(&b'u')
                        {
                            self.pos += 2;
                        } else {
                            return Err(self.error("unpaired surrogate"));
                        }
                        let second = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                    } else {
                        first
                    };
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return Err(self.error("invalid unicode escape")),
                    }
                }
                other => return Err(self.error(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    /// Reads exactly four hex digits (no sign, unlike `from_str_radix`).
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let Some(chunk) = self.src.get(self.pos..self.pos + 4) else {
            return Err(self.error("truncated \\u escape"));
        };
        let mut value = 0;
        for &b in chunk {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            value = value * 16 + digit;
        }
        self.pos += 4;
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, Error> {
        self.skip_ws();
        let start = self.pos;
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            // Prefer exact integer variants when the digits fit.
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Uint(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Float(x)),
            Err(_) => Err(self.error(format!("invalid number `{text}`"))),
        }
    }
}

/// Writes `s` as a quoted JSON string, copying the runs between escapable
/// bytes whole. Every escapable byte is ASCII, so each run ends on a
/// character boundary.
fn push_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.reserve(bytes.len() + 2);
    out.push('"');
    let mut run_start = 0;
    loop {
        let at = run_start + find_special(&bytes[run_start..], true);
        out.push_str(&s[run_start..at]);
        let Some(&b) = bytes.get(at) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run_start = at + 1;
    }
    out.push('"');
}

/// `0x01` in every byte of a word.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte of a word.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Offset of the first `"` or `\` in `bytes` (also of the first byte below
/// 0x20 when `controls` is set), or `bytes.len()` if there is none.
///
/// Scans eight bytes per step. `(x - n·LOW_BITS) & !x & HIGH_BITS` flags
/// every byte of `x` below `n`; a borrow can also flag a byte *above* a
/// flagged one, never below, so the lowest flag is exact, and so is the
/// lowest flag of an OR of such masks.
fn find_special(bytes: &[u8], controls: bool) -> usize {
    let below = |x: u64, n: u8| x.wrapping_sub(LOW_BITS * u64::from(n)) & !x & HIGH_BITS;
    let mut chunks = bytes.chunks_exact(8);
    let mut offset = 0;
    for chunk in &mut chunks {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let x = u64::from_le_bytes(word);
        let mut flags = below(x ^ (LOW_BITS * u64::from(b'"')), 1)
            | below(x ^ (LOW_BITS * u64::from(b'\\')), 1);
        if controls {
            flags |= below(x, 0x20);
        }
        if flags != 0 {
            return offset + flags.trailing_zeros() as usize / 8;
        }
        offset += 8;
    }
    let tail = chunks.remainder();
    offset
        + tail
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || (controls && b < 0x20))
            .unwrap_or(tail.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn compact_and_pretty_roundtrip_shapes() {
        let mut m: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        m.insert("xs".into(), vec![1, 2]);
        assert_eq!(to_string(&m).unwrap(), r#"{"xs":[1,2]}"#);
        let pretty = to_string_pretty(&m).unwrap();
        assert!(pretty.contains("\n  \"xs\": [\n"));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string("a\"b\n").unwrap(), r#""a\"b\n""#);
    }

    #[test]
    fn parse_roundtrips_every_scalar() {
        assert_eq!(from_str("null").unwrap(), Json::Null);
        assert_eq!(from_str("true").unwrap(), Json::Bool(true));
        assert_eq!(from_str("false").unwrap(), Json::Bool(false));
        assert_eq!(from_str("42").unwrap(), Json::Uint(42));
        assert_eq!(from_str("-7").unwrap(), Json::Int(-7));
        assert_eq!(from_str("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(from_str("-1e3").unwrap(), Json::Float(-1000.0));
        assert_eq!(from_str(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_handles_containers_and_whitespace() {
        let value = from_str(" { \"xs\" : [ 1 , 2.5 , \"three\" ] , \"ok\": true } ").unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)));
        let xs = value.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert_eq!(xs[2].as_str(), Some("three"));
        assert_eq!(from_str("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(from_str("{}").unwrap(), Json::Object(vec![]));
    }

    #[test]
    fn parse_decodes_escapes_and_unicode() {
        assert_eq!(
            from_str(r#""a\"b\n\t\\\u0041""#).unwrap(),
            Json::Str("a\"b\n\t\\A".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            from_str(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        // Raw (unescaped) multi-byte UTF-8 passes through.
        assert_eq!(from_str("\"héllo\"").unwrap(), Json::Str("héllo".into()));
        // The low surrogate must follow immediately: intervening characters
        // (even whitespace, which is insignificant *outside* strings) make
        // the high surrogate unpaired.
        assert!(from_str(r#""\ud83d \ude00""#).is_err());
        assert!(from_str(r#""\ud83dx\ude00""#).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // `u32::from_str_radix` accepts a leading `+`; an escape must not.
        for bad in [
            r#""\u+049""#,
            r#""\u-049""#,
            r#""\u 049""#,
            r#""\u0x49""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(from_str(bad).is_err(), "`{bad}` must not parse");
        }
        let err = from_str(r#""Z\u+049""#).unwrap_err().to_string();
        assert_eq!(err, "serde_json error: invalid \\u escape at byte 4");
        assert_eq!(
            from_str(r#""\u0049\u004a\u004B\u00e9""#).unwrap(),
            Json::Str("IJKé".into())
        );
    }

    #[test]
    fn control_characters_render_as_lowercase_unicode_escapes() {
        assert_eq!(
            to_string("\u{0}a\u{1f}\u{7f}é\u{1b}\r").unwrap(),
            "\"\\u0000a\\u001f\u{7f}é\\u001b\\r\""
        );
        let all: String = (0u8..0x20).map(char::from).collect();
        let text = to_string(all.as_str()).unwrap();
        assert_eq!(from_str(&text).unwrap(), Json::Str(all));
    }

    /// Damaged and random texts: nothing panics, every error names its
    /// byte, and whatever parses renders to a textual fixed point. (The
    /// proptest shim is not a dependency of this crate; `tests/codec_fuzz.rs`
    /// fuzzes the same parser through the wire decoders.)
    #[test]
    fn fuzzed_texts_parse_to_fixed_points_or_fail_with_a_position() {
        const SEEDS: [&str; 3] = [
            r#"{"a":[1,-2,3.5e-7,true,null,"x\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00"],"b":{}}"#,
            "[0,-0.0,2.0,1e15,1e999,18446744073709551616,-9223372036854775809,\"é😀\"]",
            " { \"k\" : [ [ ] , { } , \"\\u0041\" , -1E+2 ] } ",
        ];
        const BYTES: &[u8] = b"{}[]\",:\\/u0123456789abcdefABCDEF-+.eEtrulsn \t\n";
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        for round in 0..20_000 {
            let mut bytes: Vec<u8> = if round % 2 == 0 {
                SEEDS[next() % SEEDS.len()].as_bytes().to_vec()
            } else {
                (0..next() % 48)
                    .map(|_| BYTES[next() % BYTES.len()])
                    .collect()
            };
            for _ in 0..next() % 3 {
                if !bytes.is_empty() {
                    let at = next() % bytes.len();
                    bytes[at] = BYTES[next() % BYTES.len()];
                }
            }
            let cut = next() % (bytes.len() + 1);
            if round % 3 == 0 {
                bytes.truncate(cut);
            }
            let Ok(text) = std::str::from_utf8(&bytes) else {
                continue;
            };
            match from_str(text) {
                Ok(tree) => {
                    if let Ok(once) = value_to_string(&tree) {
                        let twice = value_to_string(&from_str(&once).unwrap()).unwrap();
                        assert_eq!(twice, once, "from {text:?}");
                    }
                }
                Err(error) => {
                    assert!(error.to_string().contains(" at byte "), "{error}");
                }
            }
        }
    }

    #[test]
    fn serializer_output_parses_back_identically() {
        let mut m: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        m.insert("angles".into(), vec![0.5, -1.25, 3.0]);
        let text = to_string(&m).unwrap();
        let tree = from_str(&text).unwrap();
        let angles = tree.get("angles").unwrap().as_array().unwrap();
        let values: Vec<f64> = angles.iter().map(|v| v.as_f64().unwrap()).collect();
        assert_eq!(values, vec![0.5, -1.25, 3.0]);
        // Pretty output parses to the same tree.
        assert_eq!(from_str(&to_string_pretty(&m).unwrap()).unwrap(), tree);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "nul",
            "{",
            "[1,",
            "\"unterminated",
            "{\"k\" 1}",
            "1 2",
            "{,}",
            "[1 2]",
            "\"\\q\"",
            "\"\\ud83d\"",
            "--1",
            "+1",
        ] {
            assert!(from_str(bad).is_err(), "`{bad}` must not parse");
        }
        // Over-deep nesting errors instead of overflowing the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(from_str(&deep).is_err());
    }

    #[test]
    fn integer_edge_cases_pick_the_right_variant() {
        assert_eq!(from_str("0").unwrap(), Json::Uint(0));
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Json::Uint(u64::MAX)
        );
        assert_eq!(
            from_str("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        // Out-of-range integers degrade to floats like serde_json's
        // arbitrary_precision-less default.
        assert!(matches!(
            from_str("18446744073709551616").unwrap(),
            Json::Float(_)
        ));
    }
}
