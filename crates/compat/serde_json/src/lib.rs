//! Offline stand-in for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate, over the workspace's [`Json`] tree (from the `serde` stand-in)
//! rather than over typed values: [`to_string`] / [`to_string_pretty`]
//! render a tree, and [`from_str`] parses text into one. The
//! `quclear-serve` wire protocol builds its messages as trees and reads
//! typed fields out of parsed ones with the `Json` accessors.

#![warn(missing_docs)]

use std::fmt;

use serde::Json;

/// The shortest round-trip float writer and the decimal integer writer,
/// shared with `quclear-circuit`'s OpenQASM output.
#[path = "../../../circuit/src/float.rs"]
mod float;

/// A parse error: what was wrong and at which byte.
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

/// Renders a tree as compact JSON.
///
/// Rendering is total: JSON has no spelling for NaN or infinity, so a
/// non-finite float renders as `null` (a reader that wants a number then
/// rejects the field instead of the writer failing).
#[must_use]
pub fn to_string(value: &Json) -> String {
    let mut out = String::new();
    render(value, None, 0, &mut out);
    out
}

/// Renders a tree as pretty-printed JSON (two-space indent); see
/// [`to_string`].
#[must_use]
pub fn to_string_pretty(value: &Json) -> String {
    let mut out = String::new();
    render(value, Some(2), 0, &mut out);
    out
}

fn render(value: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Numbers are written straight into `out`, as `Display` spells
        // them, without the `fmt` machinery.
        Json::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            float::push_u64(out, i.unsigned_abs());
        }
        Json::Uint(u) => float::push_u64(out, *u),
        Json::Float(x) if !x.is_finite() => out.push_str("null"),
        Json::Float(x) => {
            float::push_f64(out, *x);
            // Match serde_json: always distinguishable from integers. Below
            // 1e15 an integral value's digits are all before the point, so
            // this is `{x:.1}`.
            if x.fract() == 0.0 && x.abs() < 1e15 {
                out.push_str(".0");
            }
        }
        Json::Str(s) => push_escaped(s, out),
        Json::Array(items) if items.is_empty() => out.push_str("[]"),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            newline(indent, depth, out);
            out.push(']');
        }
        Json::Object(entries) if entries.is_empty() => out.push_str("{}"),
        Json::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent, depth + 1, out);
                push_escaped(key, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                render(item, indent, depth + 1, out);
            }
            newline(indent, depth, out);
            out.push('}');
        }
    }
}

/// Starts a line indented to `depth` when pretty-printing.
fn newline(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
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
            // Copy the run up to the next quote, backslash or control
            // character in one go.
            let run = find_special(&self.src[self.pos..]);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            if b < 0x20 {
                // RFC 8259 §7: U+0000 to U+001F must be escaped.
                return Err(self.error("unescaped control character in string"));
            }
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
        if !is_json_number(text.as_bytes()) {
            return Err(self.error(format!("invalid number `{text}`")));
        }
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

/// Whether `text` is a number in the grammar of RFC 8259 §6:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. Rust's own
/// number parsers are laxer (`1.`, `.5`, `01`), so a run must pass this
/// before it reaches them.
fn is_json_number(text: &[u8]) -> bool {
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    let mut rest = text.strip_prefix(b"-").unwrap_or(text);
    let int = digits(rest);
    if int == 0 || (int > 1 && rest[0] == b'0') {
        return false;
    }
    rest = &rest[int..];
    if let Some(fraction) = rest.strip_prefix(b".") {
        let len = digits(fraction);
        if len == 0 {
            return false;
        }
        rest = &fraction[len..];
    }
    if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exponent = exponent
            .strip_prefix(b"+")
            .or_else(|| exponent.strip_prefix(b"-"))
            .unwrap_or(exponent);
        let len = digits(exponent);
        if len == 0 {
            return false;
        }
        rest = &exponent[len..];
    }
    rest.is_empty()
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
        let at = run_start + find_special(&bytes[run_start..]);
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

/// Offset of the first `"`, `\` or byte below 0x20 in `bytes` (the bytes a
/// JSON string must escape), or `bytes.len()` if there is none.
///
/// Scans eight bytes per step. `(x - n·LOW_BITS) & !x & HIGH_BITS` flags
/// every byte of `x` below `n`; a borrow can also flag a byte *above* a
/// flagged one, never below, so the lowest flag is exact, and so is the
/// lowest flag of an OR of such masks.
fn find_special(bytes: &[u8]) -> usize {
    let below = |x: u64, n: u8| x.wrapping_sub(LOW_BITS * u64::from(n)) & !x & HIGH_BITS;
    let mut chunks = bytes.chunks_exact(8);
    let mut offset = 0;
    for chunk in &mut chunks {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let x = u64::from_le_bytes(word);
        let flags = below(x ^ (LOW_BITS * u64::from(b'"')), 1)
            | below(x ^ (LOW_BITS * u64::from(b'\\')), 1)
            | below(x, 0x20);
        if flags != 0 {
            return offset + flags.trailing_zeros() as usize / 8;
        }
        offset += 8;
    }
    let tail = chunks.remainder();
    offset
        + tail
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(tail.len())
}

#[cfg(test)]
#[path = "../../../circuit/tests/support/float_cases.rs"]
mod float_cases;

#[cfg(test)]
mod tests {
    use super::*;

    fn str(s: &str) -> Json {
        Json::Str(s.into())
    }

    #[test]
    fn compact_and_pretty_roundtrip_shapes() {
        let m = Json::Object(vec![(
            "xs".into(),
            Json::Array(vec![Json::Uint(1), Json::Uint(2)]),
        )]);
        assert_eq!(to_string(&m), r#"{"xs":[1,2]}"#);
        let pretty = to_string_pretty(&m);
        assert!(pretty.contains("\n  \"xs\": [\n"));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&Json::Float(2.0)), "2.0");
        assert_eq!(to_string(&Json::Float(2.5)), "2.5");
    }

    /// The rule the renderer used to spell floats with, kept as the
    /// oracle: `null` when non-finite, `{x:.1}` when integral and below
    /// 1e15, `{x}` otherwise.
    fn fmt_rule(x: f64) -> String {
        if !x.is_finite() {
            "null".to_string()
        } else if x.fract() == 0.0 && x.abs() < 1e15 {
            format!("{x:.1}")
        } else {
            format!("{x}")
        }
    }

    #[test]
    fn floats_render_by_the_fmt_rule() {
        let random = crate::float_cases::random_bit_patterns(0x5EED_5EED, 1_000_000);
        for x in random.chain(crate::float_cases::edge_values()) {
            assert_eq!(
                to_string(&Json::Float(x)),
                fmt_rule(x),
                "bits {:#018x}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn integers_render_as_display() {
        let mut ints = vec![i64::MIN, i64::MIN + 1, i64::MAX, -1, 0, 1];
        ints.extend((1..19).flat_map(|d| {
            let p = 10i64.pow(d);
            [-p - 1, -p, -p + 1, p - 1, p, p + 1]
        }));
        for i in ints {
            assert_eq!(to_string(&Json::Int(i)), i.to_string());
            let u = i.unsigned_abs();
            assert_eq!(to_string(&Json::Uint(u)), u.to_string());
        }
        assert_eq!(to_string(&Json::Uint(u64::MAX)), u64::MAX.to_string());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let tree = Json::Array(vec![
            Json::Float(f64::NAN),
            Json::Object(vec![("x".into(), Json::Float(f64::NEG_INFINITY))]),
            Json::Float(f64::INFINITY),
            Json::Float(-0.5),
        ]);
        assert_eq!(to_string(&tree), r#"[null,{"x":null},null,-0.5]"#);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string(&str("a\"b\n")), r#""a\"b\n""#);
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
            to_string(&str("\u{0}a\u{1f}\u{7f}é\u{1b}\r")),
            "\"\\u0000a\\u001f\u{7f}é\\u001b\\r\""
        );
        let all: String = (0u8..0x20).map(char::from).collect();
        let text = to_string(&str(&all));
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
                    let once = to_string(&tree);
                    let twice = to_string(&from_str(&once).unwrap());
                    assert_eq!(twice, once, "from {text:?}");
                }
                Err(error) => {
                    assert!(error.to_string().contains(" at byte "), "{error}");
                }
            }
        }
    }

    #[test]
    fn serializer_output_parses_back_identically() {
        let angles = [0.5, -1.25, 3.0].map(Json::Float).to_vec();
        let m = Json::Object(vec![("angles".into(), Json::Array(angles))]);
        let text = to_string(&m);
        let tree = from_str(&text).unwrap();
        let angles = tree.get("angles").unwrap().as_array().unwrap();
        let values: Vec<f64> = angles.iter().map(|v| v.as_f64().unwrap()).collect();
        assert_eq!(values, vec![0.5, -1.25, 3.0]);
        // Pretty output parses to the same tree.
        assert_eq!(from_str(&to_string_pretty(&m)).unwrap(), tree);
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
            "-",
            "-.5",
            ".5",
            "1.",
            "1.e5",
            "01",
            "-01",
            "[01,2]",
            "1e",
            "1e+",
            "1.5.2",
            "1e5e5",
            "0x10",
        ] {
            assert!(from_str(bad).is_err(), "`{bad}` must not parse");
        }
        // A malformed number fails with the run it read, at the byte after it.
        for (text, run, at) in [
            ("-.5", "-.5", 3),
            ("1.", "1.", 2),
            ("1.e5", "1.e5", 4),
            ("01", "01", 2),
            ("[01,2]", "01", 3),
        ] {
            assert_eq!(
                from_str(text).unwrap_err().to_string(),
                format!("serde_json error: invalid number `{run}` at byte {at}")
            );
        }
        // Every spelling the grammar allows still parses.
        for (text, value) in [
            ("0", Json::Uint(0)),
            ("-0", Json::Int(0)),
            ("-0.0", Json::Float(-0.0)),
            ("10", Json::Uint(10)),
            ("1.25", Json::Float(1.25)),
            ("1e3", Json::Float(1000.0)),
            ("1E+3", Json::Float(1000.0)),
            ("-2.5e-1", Json::Float(-0.25)),
            ("0.5", Json::Float(0.5)),
        ] {
            assert_eq!(from_str(text).unwrap(), value, "`{text}`");
        }
        // Raw control characters inside a string fail at their byte, in the
        // word-at-a-time scan and in its tail alike; DEL (0x7f) needs no
        // escape.
        for (text, at) in [
            ("\"ab\u{1}\"", 3),
            ("\"0123\t5678901\"", 5),
            ("\"\u{0}\"", 1),
        ] {
            assert_eq!(
                from_str(text).unwrap_err().to_string(),
                format!("serde_json error: unescaped control character in string at byte {at}")
            );
        }
        assert_eq!(from_str("\"\u{7f}\"").unwrap(), Json::Str("\u{7f}".into()));
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
