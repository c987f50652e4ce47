//! OpenQASM 2.0 import and export.
//!
//! The optimized circuits produced by QuCLEAR are meant to be executed by an
//! external stack ("the optimized circuit is then executed on quantum devices
//! using any quantum software and hardware" — Section IV of the paper).
//! Exporting to OpenQASM 2.0 makes the output of this reproduction directly
//! consumable by Qiskit, tket, and most simulators — and [`from_qasm`] is the
//! front door in the other direction: it parses the gate set real VQE/QAOA
//! workloads arrive in, so external circuits can be lifted into
//! Pauli-rotation programs and enter the pipeline.
//!
//! # Supported input subset
//!
//! * any number of `qreg` declarations (each before its first use), with
//!   **flattened contiguous indexing**: registers occupy consecutive qubit
//!   ranges in declaration order, so after `qreg a[2]; qreg b[3];` the
//!   operand `b[1]` is qubit 3 of a 5-qubit circuit; `creg`, `barrier`,
//!   `include` and comments are accepted and ignored,
//! * gates: `h`, `s`, `sdg`, `x`, `y`, `z`, `sx`, `sxdg`, `t`, `tdg`,
//!   `rz(θ)`, `rx(θ)`, `ry(θ)`, `cx`, `cz`, `swap` (`t`/`tdg` parse as
//!   `Rz(±π/4)`, which is the same unitary up to global phase),
//! * the `qelib1.inc` generic single-qubit gates `u1(λ)`, `u2(φ,λ)`,
//!   `u3(θ,φ,λ)` and the OpenQASM 3-style alias `u(θ,φ,λ)`, decomposed to
//!   the native `Rz`/`Ry` set up to global phase (`u1(λ) = Rz(λ)`,
//!   `u2(φ,λ) = Rz(φ)·Ry(π/2)·Rz(λ)`, `u3(θ,φ,λ) = Rz(φ)·Ry(θ)·Rz(λ)`),
//! * parameter expressions over `pi`, numeric literals, parentheses and the
//!   operators `+ - * /` (e.g. `pi/4`, `-3*pi/2`, `0.5*(pi + 1.0)`).
//!
//! Parse failures return a [`ParseQasmError`] carrying the 1-based line and
//! column of the offending token.

use crate::float::{push_f64, push_u64};
use crate::{Circuit, Gate};

/// Serializes a circuit as an OpenQASM 2.0 program.
///
/// `Sx`/`Sx†` are emitted with the standard-library names `sx`/`sxdg`; SWAP
/// and CZ use their `qelib1.inc` definitions. Rotation angles are printed
/// as the shortest decimal that round-trips the `f64` exactly, so
/// `from_qasm(to_qasm(c))` is gate-for-gate equal to `c`.
///
/// The text is appended gate by gate into one pre-sized `String` by the
/// module's one gate writer, which writes qubit indices and angles with
/// [`crate::float`] instead of the `fmt` machinery; an angle's text is
/// byte-identical to its `Display`. [`QasmHoles`] is built by the same
/// writer, so a hole fill is byte-identical to this.
///
/// # Panics
///
/// Panics if a rotation angle is NaN or infinite — there is no valid QASM
/// spelling for those, and emitting them silently would produce a file no
/// parser (including [`from_qasm`]) accepts.
///
/// # Examples
///
/// ```
/// use quclear_circuit::{qasm::to_qasm, Circuit};
///
/// let mut qc = Circuit::new(2);
/// qc.h(0);
/// qc.cx(0, 1);
/// qc.rz(1, 0.5);
/// let text = to_qasm(&qc);
/// assert!(text.contains("OPENQASM 2.0"));
/// assert!(text.contains("cx q[0], q[1];"));
/// ```
#[must_use]
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::with_capacity(qasm_capacity(circuit));
    push_header(&mut out, circuit.num_qubits());
    for gate in circuit.gates() {
        push_gate(&mut out, gate, push_angle);
    }
    out
}

/// A guess at a circuit's QASM length that holds most of them without
/// regrowing: about 17 bytes per gate (`cx q[12], q[13];\n`) plus the
/// header. Longer angles only cost a regrow.
fn qasm_capacity(circuit: &Circuit) -> usize {
    64 + 20 * circuit.len()
}

/// Appends the program header: version, include and the one register.
fn push_header(out: &mut String, num_qubits: usize) {
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[");
    push_u64(out, num_qubits as u64);
    out.push_str("];\n");
}

/// The one gate writer: appends `gate`'s line, newline included, to `out`.
/// A rotation's angle is written by `angle`: [`to_qasm`] formats it in
/// place, [`QasmHoles`] leaves a hole there.
fn push_gate(out: &mut String, gate: &Gate, angle: impl FnOnce(&mut String, f64)) {
    let (head, first, second) = match *gate {
        Gate::H(q) => ("h q[", q, None),
        Gate::S(q) => ("s q[", q, None),
        Gate::Sdg(q) => ("sdg q[", q, None),
        Gate::X(q) => ("x q[", q, None),
        Gate::Y(q) => ("y q[", q, None),
        Gate::Z(q) => ("z q[", q, None),
        Gate::SqrtX(q) => ("sx q[", q, None),
        Gate::SqrtXdg(q) => ("sxdg q[", q, None),
        Gate::Rz { qubit, .. } => ("rz(", qubit, None),
        Gate::Rx { qubit, .. } => ("rx(", qubit, None),
        Gate::Ry { qubit, .. } => ("ry(", qubit, None),
        Gate::Cx { control, target } => ("cx q[", control, Some(target)),
        Gate::Cz { a, b } => ("cz q[", a, Some(b)),
        Gate::Swap { a, b } => ("swap q[", a, Some(b)),
    };
    out.push_str(head);
    if let Some(theta) = rotation_angle(gate) {
        angle(out, theta);
        out.push_str(") q[");
    }
    push_u64(out, first as u64);
    if let Some(second) = second {
        out.push_str("], q[");
        push_u64(out, second as u64);
    }
    out.push_str("];\n");
}

/// Appends a rotation angle as the shortest decimal that round-trips the
/// `f64` exactly, so `from_qasm(to_qasm(c))` is gate-for-gate equal. The
/// text is the angle's `Display`, written by [`push_f64`].
fn push_angle(out: &mut String, angle: f64) {
    assert!(
        angle.is_finite(),
        "cannot serialize non-finite rotation angle {angle} as QASM"
    );
    push_f64(out, angle);
}

/// The angle of a rotation gate, `None` for every other gate.
fn rotation_angle(gate: &Gate) -> Option<f64> {
    match *gate {
        Gate::Rz { angle, .. } | Gate::Rx { angle, .. } | Gate::Ry { angle, .. } => Some(angle),
        _ => None,
    }
}

/// A circuit's OpenQASM text with every rotation angle cut out, for
/// rendering circuits that differ from it only in their angles.
///
/// Built by [`to_qasm`]'s gate writer, with a hole where each angle would
/// go. [`QasmHoles::fill`] copies the fixed text between the holes and
/// writes only the angles, with the same shortest round-trip writer
/// ([`crate::float::push_f64`]), so it costs a copy plus one float write
/// per rotation, and its output is byte-identical to [`to_qasm`] on the
/// same circuit.
///
/// # Examples
///
/// ```
/// use quclear_circuit::qasm::{to_qasm, QasmHoles};
/// use quclear_circuit::Circuit;
///
/// let mut qc = Circuit::new(2);
/// qc.cx(0, 1);
/// qc.rz(1, 0.5);
/// let holes = QasmHoles::new(&qc);
/// let mut rebound = Circuit::new(2);
/// rebound.cx(0, 1);
/// rebound.rz(1, -1.25);
/// assert_eq!(holes.fill(&rebound).as_deref(), Some(to_qasm(&rebound).as_str()));
/// ```
#[derive(Clone, Debug)]
pub struct QasmHoles {
    /// The text with the angles cut out.
    text: String,
    /// Per hole: its byte offset in `text` and the index of its gate.
    holes: Vec<(usize, usize)>,
    num_qubits: usize,
    num_gates: usize,
}

impl QasmHoles {
    /// Renders `circuit` with a hole for each rotation angle.
    #[must_use]
    pub fn new(circuit: &Circuit) -> Self {
        let mut text = String::with_capacity(qasm_capacity(circuit));
        let mut holes = Vec::new();
        push_header(&mut text, circuit.num_qubits());
        for (index, gate) in circuit.gates().iter().enumerate() {
            push_gate(&mut text, gate, |out, _| holes.push((out.len(), index)));
        }
        text.shrink_to_fit();
        QasmHoles {
            text,
            holes,
            num_qubits: circuit.num_qubits(),
            num_gates: circuit.len(),
        }
    }

    /// The OpenQASM text of `circuit`, which must have the gates of the
    /// circuit the holes were cut from up to rotation angles: byte-identical
    /// to [`to_qasm`]`(circuit)`.
    ///
    /// Returns `None` when `circuit` visibly does not fit: a different
    /// register or gate count, or a hole that does not land on a rotation.
    /// Gates between the holes are not compared.
    ///
    /// # Panics
    ///
    /// Panics if a rotation angle is NaN or infinite, as [`to_qasm`] does.
    #[must_use]
    pub fn fill(&self, circuit: &Circuit) -> Option<String> {
        if circuit.num_qubits() != self.num_qubits || circuit.len() != self.num_gates {
            return None;
        }
        let gates = circuit.gates();
        let mut out = String::with_capacity(self.text.len() + 24 * self.holes.len());
        let mut copied = 0;
        for &(offset, gate) in &self.holes {
            let angle = rotation_angle(&gates[gate])?;
            out.push_str(&self.text[copied..offset]);
            push_angle(&mut out, angle);
            copied = offset;
        }
        out.push_str(&self.text[copied..]);
        Some(out)
    }
}

/// Error returned by [`from_qasm`], locating the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// 1-based column of the offending token (0 when unknown).
    pub column: usize,
    /// The offending token, when one could be isolated.
    pub token: String,
    /// Explanation of the failure.
    pub message: String,
}

impl std::fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QASM parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )?;
        if !self.token.is_empty() {
            write!(f, " (near `{}`)", self.token)?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseQasmError {}

/// A character-level cursor over the whole source text. Comments and
/// newlines are whitespace (OpenQASM 2.0 is free-form); errors carry the
/// 1-based line and column computed from the byte offset.
struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    /// Byte offset of the start of each line, for error locations.
    line_starts: Vec<usize>,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        let bytes = src.as_bytes();
        let mut line_starts = vec![0];
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        Cursor {
            src: bytes,
            pos: 0,
            line_starts,
        }
    }

    /// Converts a byte offset into a 1-based (line, column) pair.
    fn locate(&self, pos: usize) -> (usize, usize) {
        let line = self.line_starts.partition_point(|&start| start <= pos);
        (line, pos - self.line_starts[line - 1] + 1)
    }

    /// Skips whitespace — OpenQASM 2.0 is free-form, so newlines are
    /// ordinary whitespace — and `//` line comments.
    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.src[self.pos..].starts_with(b"//") {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    /// Consumes `c` if it is the next non-whitespace character.
    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The rest of the current *line* from the cursor, for error tokens.
    fn rest(&self) -> String {
        let start = self.pos.min(self.src.len());
        let end = self.src[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.src.len(), |i| start + i);
        String::from_utf8_lossy(&self.src[start..end])
            .trim()
            .to_string()
    }

    /// Steps back from `pos` over whitespace and comments to just past the
    /// last real character — the natural anchor for "something is missing
    /// here" errors, so they point at the statement, not at whatever (or
    /// wherever) the next token happens to be.
    fn anchor_back(&self, pos: usize) -> usize {
        let mut p = pos.min(self.src.len());
        while p > 0 && self.src[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        p
    }

    /// An error at absolute byte offset `at`.
    fn error(
        &self,
        at: usize,
        token: impl Into<String>,
        message: impl Into<String>,
    ) -> ParseQasmError {
        let (line, column) = self.locate(at.min(self.src.len()));
        ParseQasmError {
            line,
            column,
            token: token.into(),
            message: message.into(),
        }
    }

    /// An error at the current cursor position.
    fn error_here(
        &mut self,
        token: impl Into<String>,
        message: impl Into<String>,
    ) -> ParseQasmError {
        self.skip_ws();
        self.error(self.pos, token, message)
    }

    /// Takes an identifier (`[A-Za-z_][A-Za-z0-9_]*`), returning it with its
    /// 1-based column.
    fn take_ident(&mut self) -> Option<(String, usize)> {
        self.skip_ws();
        let start = self.pos;
        if self
            .src
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
        {
            self.pos += 1;
            while self
                .src
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
            {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            Some((text, start))
        } else {
            None
        }
    }

    /// Takes an unsigned integer literal, returning it with its column.
    ///
    /// `Ok(None)` means no digits were present; digits that do not fit a
    /// `usize` are an error *at the literal* (not at whatever follows it).
    fn take_uint(&mut self) -> Result<Option<(usize, usize)>, ParseQasmError> {
        self.skip_ws();
        let start = self.pos;
        while self.src.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if start == self.pos {
            return Ok(None);
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        match text.parse() {
            Ok(value) => Ok(Some((value, start))),
            Err(_) => Err(self.error(
                start,
                text.clone(),
                format!("integer literal `{text}` is out of range"),
            )),
        }
    }

    /// Takes a floating-point literal (digits, `.`, optional exponent),
    /// returning it with its column.
    ///
    /// `Ok(None)` means no literal characters were present; a present but
    /// malformed literal (e.g. `2.0.1`) is an error *at the literal*.
    fn take_number(&mut self) -> Result<Option<(f64, usize)>, ParseQasmError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || *c == b'.')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Ok(None);
        }
        // Optional exponent: e / E with optional sign.
        if self
            .src
            .get(self.pos)
            .is_some_and(|c| *c == b'e' || *c == b'E')
        {
            let mut end = self.pos + 1;
            if self.src.get(end).is_some_and(|c| *c == b'+' || *c == b'-') {
                end += 1;
            }
            if self.src.get(end).is_some_and(u8::is_ascii_digit) {
                self.pos = end;
                while self.src.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        match text.parse() {
            Ok(value) => Ok(Some((value, start))),
            Err(_) => Err(self.error(
                start,
                text.clone(),
                format!("cannot parse numeric literal `{text}`"),
            )),
        }
    }

    /// Takes a run of non-whitespace, non-`;` characters (e.g. a version
    /// token), returning it with its column.
    fn take_word(&mut self) -> (String, usize) {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| !c.is_ascii_whitespace() && *c != b';')
        {
            self.pos += 1;
        }
        (
            String::from_utf8_lossy(&self.src[start..self.pos]).into_owned(),
            start,
        )
    }

    /// Expects `c` as the next non-whitespace character.
    ///
    /// On failure the error is anchored just past the last real character
    /// before the expected position (missing-token errors point at the end
    /// of the statement, not at whatever follows on a later line).
    fn expect(&mut self, c: u8, context: &str) -> Result<(), ParseQasmError> {
        if self.eat(c) {
            Ok(())
        } else {
            let token = self.rest();
            let anchor = self.anchor_back(self.pos);
            Err(self.error(anchor, token, format!("expected `{}` {context}", c as char)))
        }
    }

    /// Skips forward past the terminating `;` of the current statement,
    /// treating comments as whitespace (a `;` inside a `//` comment does not
    /// terminate the statement).
    fn skip_statement(&mut self) -> Result<(), ParseQasmError> {
        loop {
            self.skip_ws();
            if self.pos >= self.src.len() {
                return Err(self.error(self.anchor_back(self.src.len()), "", "missing `;`"));
            }
            if self.src[self.pos] == b';' {
                self.pos += 1;
                return Ok(());
            }
            self.pos += 1;
        }
    }
}

/// Maximum nesting depth of parameter expressions. The parser recurses per
/// `(` and per unary `-`, so untrusted input must not control the stack;
/// legitimate QASM parameters nest a handful of levels at most.
const MAX_EXPR_DEPTH: usize = 64;

/// Parses a parameter expression: `+ - * /`, unary minus, parentheses, `pi`
/// and numeric literals.
fn parse_expr(cur: &mut Cursor<'_>, depth: usize) -> Result<f64, ParseQasmError> {
    if depth > MAX_EXPR_DEPTH {
        let token = cur.rest();
        return Err(cur.error_here(token, "parameter expression is nested too deeply"));
    }
    let mut value = parse_term(cur, depth)?;
    loop {
        if cur.eat(b'+') {
            value += parse_term(cur, depth)?;
        } else if cur.eat(b'-') {
            value -= parse_term(cur, depth)?;
        } else {
            return Ok(value);
        }
    }
}

fn parse_term(cur: &mut Cursor<'_>, depth: usize) -> Result<f64, ParseQasmError> {
    let mut value = parse_unary(cur, depth)?;
    loop {
        if cur.eat(b'*') {
            value *= parse_unary(cur, depth)?;
        } else if cur.eat(b'/') {
            cur.skip_ws();
            let at = cur.pos;
            let divisor = parse_unary(cur, depth)?;
            if divisor == 0.0 {
                return Err(cur.error(at, "0", "division by zero in parameter expression"));
            }
            value /= divisor;
        } else {
            return Ok(value);
        }
    }
}

fn parse_unary(cur: &mut Cursor<'_>, depth: usize) -> Result<f64, ParseQasmError> {
    if depth > MAX_EXPR_DEPTH {
        let token = cur.rest();
        return Err(cur.error_here(token, "parameter expression is nested too deeply"));
    }
    if cur.eat(b'-') {
        return Ok(-parse_unary(cur, depth + 1)?);
    }
    parse_atom(cur, depth)
}

fn parse_atom(cur: &mut Cursor<'_>, depth: usize) -> Result<f64, ParseQasmError> {
    if cur.eat(b'(') {
        let value = parse_expr(cur, depth + 1)?;
        cur.expect(b')', "to close the parenthesized expression")?;
        return Ok(value);
    }
    match cur.peek() {
        Some(c) if c.is_ascii_alphabetic() => {
            let (ident, column) = cur.take_ident().expect("peeked an identifier start");
            if ident == "pi" {
                Ok(std::f64::consts::PI)
            } else {
                Err(cur.error(
                    column,
                    ident.clone(),
                    format!("unknown constant `{ident}` in parameter expression (only `pi` is supported)"),
                ))
            }
        }
        Some(c) if c.is_ascii_digit() || c == b'.' => {
            let at = cur.pos;
            match cur.take_number()? {
                Some((value, _)) => Ok(value),
                None => Err(cur.error(at, "", "cannot parse numeric literal")),
            }
        }
        _ => {
            let token = cur.rest();
            Err(cur.error_here(
                token,
                "expected a number, `pi`, or `(` in parameter expression",
            ))
        }
    }
}

/// The declared quantum registers, flattened into one contiguous index
/// space: registers occupy consecutive qubit ranges in declaration order.
#[derive(Default)]
struct Registers {
    /// `(name, offset, size)` per declaration, in order.
    regs: Vec<(String, usize, usize)>,
}

impl Registers {
    /// Total qubits across all declared registers.
    fn total(&self) -> usize {
        self.regs
            .last()
            .map_or(0, |(_, offset, size)| offset + size)
    }

    fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    fn contains(&self, name: &str) -> bool {
        self.regs.iter().any(|(n, _, _)| n == name)
    }

    /// Appends a register at the end of the flattened index space, or
    /// returns `None` when the total qubit count would overflow `usize`.
    fn declare(&mut self, name: String, size: usize) -> Option<()> {
        let offset = self.total();
        offset.checked_add(size)?;
        self.regs.push((name, offset, size));
        Some(())
    }

    /// `(offset, size)` of a declared register.
    fn lookup(&self, name: &str) -> Option<(usize, usize)> {
        self.regs
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, offset, size)| (offset, size))
    }
}

/// Parses one `reg[i]` operand, checking the register declaration and range,
/// and returns the **flattened** qubit index.
fn parse_operand(cur: &mut Cursor<'_>, registers: &Registers) -> Result<usize, ParseQasmError> {
    cur.skip_ws();
    let operand_at = cur.pos;
    let Some((name, name_at)) = cur.take_ident() else {
        let token = cur.rest();
        return Err(cur.error_here(token, "expected a qubit operand `<register>[<index>]`"));
    };
    cur.expect(b'[', "after the register name")?;
    let Some((index, _)) = cur.take_uint()? else {
        let token = cur.rest();
        return Err(cur.error_here(token, "expected a qubit index"));
    };
    cur.expect(b']', "after the qubit index")?;
    if registers.is_empty() {
        return Err(cur.error(
            operand_at,
            format!("{name}[{index}]"),
            "gate statement before the `qreg` declaration",
        ));
    }
    let Some((offset, size)) = registers.lookup(&name) else {
        return Err(cur.error(
            name_at,
            name.clone(),
            format!("unknown register `{name}` (no `qreg {name}[...]` was declared)"),
        ));
    };
    if index >= size {
        return Err(cur.error(
            operand_at,
            format!("{name}[{index}]"),
            format!("qubit index {index} is outside the declared register `{name}[{size}]`"),
        ));
    }
    Ok(offset + index)
}

/// Gate names accepted by [`from_qasm`], used to distinguish arity errors
/// from genuinely unsupported statements.
const KNOWN_GATES: &[&str] = &[
    "h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "t", "tdg", "rz", "rx", "ry", "cx", "cz", "swap",
    "u", "u1", "u2", "u3",
];

/// Number of `(θ...)` parameters each known gate takes.
fn expected_params(name: &str) -> usize {
    match name {
        "rz" | "rx" | "ry" | "u1" => 1,
        "u2" => 2,
        "u3" | "u" => 3,
        _ => 0,
    }
}

/// Parses one gate statement whose name has already been consumed,
/// appending the resulting gate(s) — the `u` family decomposes into up to
/// three native rotations — to `gates`.
fn parse_gate(
    cur: &mut Cursor<'_>,
    name: &str,
    name_at: usize,
    registers: &Registers,
    gates: &mut Vec<Gate>,
) -> Result<(), ParseQasmError> {
    if !KNOWN_GATES.contains(&name) {
        let statement = format!("{name} {}", cur.rest().trim_end_matches(';').trim());
        return Err(cur.error(
            name_at,
            name.to_string(),
            format!("unsupported statement `{}`", statement.trim()),
        ));
    }

    // Optional parameter list.
    let mut params: Vec<f64> = Vec::new();
    let params_at = {
        cur.skip_ws();
        cur.pos
    };
    if cur.eat(b'(') {
        loop {
            params.push(parse_expr(cur, 0)?);
            if cur.eat(b',') {
                continue;
            }
            cur.expect(b')', "to close the parameter list")?;
            break;
        }
    }
    let expected_params = expected_params(name);
    if params.len() != expected_params {
        return Err(cur.error(
            params_at,
            name.to_string(),
            format!(
                "gate `{name}` takes {expected_params} parameter{} but {} were given",
                if expected_params == 1 { "" } else { "s" },
                params.len()
            ),
        ));
    }

    // Operand list.
    let mut qubits: Vec<usize> = vec![parse_operand(cur, registers)?];
    while cur.eat(b',') {
        qubits.push(parse_operand(cur, registers)?);
    }
    let expected_qubits = if matches!(name, "cx" | "cz" | "swap") {
        2
    } else {
        1
    };
    if qubits.len() != expected_qubits {
        return Err(cur.error(
            name_at,
            name.to_string(),
            format!(
                "gate `{name}` acts on {expected_qubits} qubit{} but {} operands were given",
                if expected_qubits == 1 { "" } else { "s" },
                qubits.len()
            ),
        ));
    }
    if expected_qubits == 2 && qubits[0] == qubits[1] {
        return Err(cur.error(
            name_at,
            format!("q[{}]", qubits[0]),
            format!("gate `{name}` requires two distinct qubits"),
        ));
    }

    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
    /// `u3(θ,φ,λ) = Rz(φ)·Ry(θ)·Rz(λ)` up to the global phase
    /// `e^{i(φ+λ)/2}` (the `qelib1.inc` definition in ZYZ Euler form);
    /// circuit order is right-to-left, so `Rz(λ)` executes first. `u2` is
    /// `u3` with `θ = π/2`, `u1` with `θ = φ = 0` (a bare `Rz`).
    fn push_u(gates: &mut Vec<Gate>, qubit: usize, theta: f64, phi: f64, lambda: f64) {
        gates.push(Gate::Rz {
            qubit,
            angle: lambda,
        });
        gates.push(Gate::Ry {
            qubit,
            angle: theta,
        });
        gates.push(Gate::Rz { qubit, angle: phi });
    }
    match (name, qubits.as_slice()) {
        ("h", [q]) => gates.push(Gate::H(*q)),
        ("s", [q]) => gates.push(Gate::S(*q)),
        ("sdg", [q]) => gates.push(Gate::Sdg(*q)),
        ("x", [q]) => gates.push(Gate::X(*q)),
        ("y", [q]) => gates.push(Gate::Y(*q)),
        ("z", [q]) => gates.push(Gate::Z(*q)),
        ("sx", [q]) => gates.push(Gate::SqrtX(*q)),
        ("sxdg", [q]) => gates.push(Gate::SqrtXdg(*q)),
        // T = e^{iπ/8}·Rz(π/4): the same unitary up to a global phase.
        ("t", [q]) => gates.push(Gate::Rz {
            qubit: *q,
            angle: FRAC_PI_4,
        }),
        ("tdg", [q]) => gates.push(Gate::Rz {
            qubit: *q,
            angle: -FRAC_PI_4,
        }),
        ("rz", [q]) => gates.push(Gate::Rz {
            qubit: *q,
            angle: params[0],
        }),
        ("rx", [q]) => gates.push(Gate::Rx {
            qubit: *q,
            angle: params[0],
        }),
        ("ry", [q]) => gates.push(Gate::Ry {
            qubit: *q,
            angle: params[0],
        }),
        // u1(λ) = diag(1, e^{iλ}) = e^{iλ/2}·Rz(λ).
        ("u1", [q]) => gates.push(Gate::Rz {
            qubit: *q,
            angle: params[0],
        }),
        ("u2", [q]) => push_u(gates, *q, FRAC_PI_2, params[0], params[1]),
        ("u3" | "u", [q]) => push_u(gates, *q, params[0], params[1], params[2]),
        ("cx", [c, t]) => gates.push(Gate::Cx {
            control: *c,
            target: *t,
        }),
        ("cz", [a, b]) => gates.push(Gate::Cz { a: *a, b: *b }),
        ("swap", [a, b]) => gates.push(Gate::Swap { a: *a, b: *b }),
        _ => unreachable!("gate `{name}` passed arity checks"),
    }
    Ok(())
}

/// Parses one statement starting at the cursor. Returns `Ok(())` after
/// consuming the statement including its terminating `;`.
fn parse_statement(
    cur: &mut Cursor<'_>,
    registers: &mut Registers,
    gates: &mut Vec<Gate>,
) -> Result<(), ParseQasmError> {
    // A stray `;` is an empty statement; accept it.
    if cur.eat(b';') {
        return Ok(());
    }
    let Some((head, head_at)) = cur.take_ident() else {
        let token = cur.rest();
        return Err(cur.error_here(token, "expected a statement"));
    };
    match head.as_str() {
        "OPENQASM" => {
            let (version, version_column) = cur.take_word();
            if version != "2.0" {
                return Err(cur.error(
                    version_column,
                    version.clone(),
                    format!("unsupported OPENQASM version `{version}` (only 2.0 is supported)"),
                ));
            }
            cur.expect(b';', "after the OPENQASM version")
        }
        "include" | "barrier" | "creg" => cur.skip_statement(),
        "qreg" => {
            let Some((name, column)) = cur.take_ident() else {
                let token = cur.rest();
                return Err(cur.error_here(token, "expected a register name after `qreg`"));
            };
            cur.expect(b'[', "after the register name")?;
            let Some((size, size_at)) = cur.take_uint()? else {
                let token = cur.rest();
                return Err(cur.error_here(token, "expected a register size"));
            };
            cur.expect(b']', "after the register size")?;
            cur.expect(b';', "after the register declaration")?;
            if registers.contains(&name) {
                return Err(cur.error(
                    column,
                    name.clone(),
                    format!("duplicate `qreg` declaration of register `{name}`"),
                ));
            }
            let total = registers.total();
            registers.declare(name, size).ok_or_else(|| {
                cur.error(
                    size_at,
                    size.to_string(),
                    format!(
                        "register of {size} qubits after {total} declared ones overflows \
                         the qubit count"
                    ),
                )
            })
        }
        _ => {
            parse_gate(cur, &head, head_at, registers, gates)?;
            cur.expect(b';', "after the gate statement")
        }
    }
}

/// Parses OpenQASM 2.0 text into a circuit.
///
/// Accepts the subset emitted by [`to_qasm`] plus the gate set external
/// VQE/QAOA workloads typically use (see the [module docs](self)): `t`/`tdg`
/// parse as `Rz(±π/4)`, and rotation parameters may be arithmetic
/// expressions over `pi`. The grammar is free-form, as the OpenQASM 2.0
/// specification requires: statements may share a line or span several.
///
/// # Errors
///
/// Returns a [`ParseQasmError`] with the 1-based line and column of the
/// first offending token: malformed headers, unknown gates or registers,
/// arity mismatches, out-of-range qubit indices, and malformed parameter
/// expressions are all reported where they occur.
///
/// # Examples
///
/// ```
/// use quclear_circuit::qasm::from_qasm;
///
/// let circuit = from_qasm(
///     "OPENQASM 2.0;\n\
///      include \"qelib1.inc\";\n\
///      qreg q[3];\n\
///      h q[0];\n\
///      cx q[0], q[1]; rz(-3*pi/2) q[1];\n\
///      t q[2];\n",
/// )?;
/// assert_eq!(circuit.num_qubits(), 3);
/// assert_eq!(circuit.len(), 4);
/// # Ok::<(), quclear_circuit::qasm::ParseQasmError>(())
/// ```
pub fn from_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut registers = Registers::default();
    let mut gates: Vec<Gate> = Vec::new();
    let mut cur = Cursor::new(text);
    while !cur.at_end() {
        parse_statement(&mut cur, &mut registers, &mut gates)?;
    }
    Ok(Circuit::from_gates(registers.total(), gates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.sdg(1);
        c.cx(0, 1);
        c.rz(1, 0.375);
        c.swap(1, 2);
        c.cz(0, 2);
        c.push(Gate::SqrtX(2));
        c.ry(0, -1.25);
        c
    }

    #[test]
    fn export_contains_header_and_all_gates() {
        let text = to_qasm(&sample_circuit());
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("swap q[1], q[2];"));
        assert!(text.contains("rz(0.375"));
        assert_eq!(text.lines().count(), 3 + sample_circuit().len());
    }

    #[test]
    fn roundtrip_preserves_the_circuit() {
        let original = sample_circuit();
        let parsed = from_qasm(&to_qasm(&original)).unwrap();
        assert_eq!(parsed.num_qubits(), original.num_qubits());
        assert_eq!(parsed.gates().len(), original.gates().len());
        for (a, b) in parsed.gates().iter().zip(original.gates()) {
            match (a, b) {
                (
                    Gate::Rz {
                        qubit: qa,
                        angle: aa,
                    },
                    Gate::Rz {
                        qubit: qb,
                        angle: ab,
                    },
                )
                | (
                    Gate::Ry {
                        qubit: qa,
                        angle: aa,
                    },
                    Gate::Ry {
                        qubit: qb,
                        angle: ab,
                    },
                ) => {
                    assert_eq!(qa, qb);
                    assert!((aa - ab).abs() < 1e-12);
                }
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn parse_rejects_unknown_gates_with_line_numbers() {
        let text = "OPENQASM 2.0;\nqreg q[2];\nccx q[0], q[1];\n";
        let err = from_qasm(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.column, 1);
        assert_eq!(err.token, "ccx");
        assert!(err.to_string().contains("unsupported"));
    }

    #[test]
    fn parse_rejects_out_of_range_qubits() {
        let text = "qreg q[1];\ncx q[0], q[1];\n";
        let err = from_qasm(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token, "q[1]");
        assert_eq!(err.column, 10);
        assert!(err.message.contains("outside the declared register"));
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let text = "OPENQASM 2.0;\n\n// a comment\nqreg q[1];\nh q[0]; // trailing\n";
        let circuit = from_qasm(text).unwrap();
        assert_eq!(circuit.len(), 1);
    }

    #[test]
    fn parse_accepts_multiple_statements_per_line() {
        let circuit = from_qasm("qreg q[2]; h q[0]; cx q[0], q[1]; s q[1];").unwrap();
        assert_eq!(circuit.len(), 3);
    }

    #[test]
    fn parse_accepts_statements_spanning_lines() {
        // OpenQASM 2.0 is free-form: newlines are ordinary whitespace, so
        // reformatted files with wrapped statements must still parse.
        let text = "OPENQASM\n2.0;\nqreg\n  q[2];\ncx q[0],\n   q[1];\nrz(\n  pi / 4\n) q[0]\n;\n";
        let circuit = from_qasm(text).unwrap();
        assert_eq!(circuit.num_qubits(), 2);
        assert_eq!(circuit.len(), 2);
        let Gate::Rz { angle, .. } = circuit.gates()[1] else {
            panic!("expected Rz");
        };
        assert!((angle - PI / 4.0).abs() < 1e-15);

        // Comments may interrupt a statement.
        let circuit = from_qasm("qreg q[2];\ncx q[0], // control\n q[1];\n").unwrap();
        assert_eq!(circuit.len(), 1);

        // A `;` inside a comment does not terminate an ignored statement.
        let circuit =
            from_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c // old; layout\n[2];\nh q[0];\n").unwrap();
        assert_eq!(circuit.len(), 1);
    }

    #[test]
    fn to_qasm_panics_on_non_finite_angles() {
        let mut c = Circuit::new(1);
        c.rz(0, f64::NAN);
        assert!(std::panic::catch_unwind(|| to_qasm(&c)).is_err());
        let holes = QasmHoles::new(&Circuit::from_gates(
            1,
            vec![Gate::Rx {
                qubit: 0,
                angle: 1.0,
            }],
        ));
        let bad = Circuit::from_gates(
            1,
            vec![Gate::Rx {
                qubit: 0,
                angle: f64::INFINITY,
            }],
        );
        assert!(std::panic::catch_unwind(|| holes.fill(&bad)).is_err());
    }

    #[test]
    fn every_gate_writes_its_exact_line() {
        let gates = vec![
            Gate::H(0),
            Gate::S(1),
            Gate::Sdg(2),
            Gate::X(3),
            Gate::Y(4),
            Gate::Z(5),
            Gate::SqrtX(6),
            Gate::SqrtXdg(7),
            Gate::Rz {
                qubit: 8,
                angle: -0.0,
            },
            Gate::Rx {
                qubit: 9,
                angle: 0.1,
            },
            Gate::Ry {
                qubit: 10,
                angle: -2.5e-7,
            },
            Gate::Cx {
                control: 11,
                target: 0,
            },
            Gate::Cz { a: 100, b: 9 },
            Gate::Swap { a: 1, b: 1234 },
        ];
        let text = to_qasm(&Circuit::from_gates(1235, gates));
        let expected = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1235];\n\
                        h q[0];\ns q[1];\nsdg q[2];\nx q[3];\ny q[4];\nz q[5];\n\
                        sx q[6];\nsxdg q[7];\nrz(-0) q[8];\nrx(0.1) q[9];\n\
                        ry(-0.00000025) q[10];\ncx q[11], q[0];\ncz q[100], q[9];\n\
                        swap q[1], q[1234];\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn hole_fill_matches_to_qasm_and_rejects_other_shapes() {
        let holes = QasmHoles::new(&sample_circuit());
        let rebound = Circuit::from_gates(
            3,
            sample_circuit()
                .gates()
                .iter()
                .map(|g| match *g {
                    Gate::Rz { qubit, .. } => Gate::Rz {
                        qubit,
                        angle: 1e300,
                    },
                    Gate::Ry { qubit, .. } => Gate::Ry {
                        qubit,
                        angle: -1e-300,
                    },
                    other => other,
                })
                .collect(),
        );
        assert_eq!(holes.fill(&rebound).unwrap(), to_qasm(&rebound));
        assert_eq!(
            holes.fill(&sample_circuit()).unwrap(),
            to_qasm(&sample_circuit())
        );
        // A different gate count, register or a hole on a Clifford: no text.
        let mut longer = sample_circuit();
        longer.h(0);
        assert!(holes.fill(&longer).is_none());
        let wider = Circuit::from_gates(4, sample_circuit().gates().to_vec());
        assert!(holes.fill(&wider).is_none());
        let mut shifted = sample_circuit().gates().to_vec();
        shifted.swap(2, 3);
        assert!(holes.fill(&Circuit::from_gates(3, shifted)).is_none());
    }

    #[test]
    fn t_and_tdg_parse_as_pi_over_4_rotations() {
        let circuit = from_qasm("qreg q[1];\nt q[0];\ntdg q[0];\n").unwrap();
        let gates = circuit.gates();
        assert_eq!(gates.len(), 2);
        let Gate::Rz { qubit: 0, angle } = gates[0] else {
            panic!("t must parse as Rz, got {:?}", gates[0]);
        };
        assert!((angle - PI / 4.0).abs() < 1e-15);
        let Gate::Rz { qubit: 0, angle } = gates[1] else {
            panic!("tdg must parse as Rz, got {:?}", gates[1]);
        };
        assert!((angle + PI / 4.0).abs() < 1e-15);
    }

    #[test]
    fn parameter_expressions_evaluate() {
        let cases = [
            ("pi/4", PI / 4.0),
            ("-3*pi/2", -3.0 * PI / 2.0),
            ("2*pi/3", 2.0 * PI / 3.0),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("pi", PI),
            ("-pi", -PI),
            ("0.5*(pi + 1.0)", 0.5 * (PI + 1.0)),
            ("pi - pi/2", PI / 2.0),
            ("1e-3", 1e-3),
            ("2.5e2", 250.0),
            ("--1.0", 1.0),
        ];
        for (expr, expected) in cases {
            let text = format!("qreg q[1];\nrz({expr}) q[0];\n");
            let circuit = from_qasm(&text).unwrap_or_else(|e| panic!("`{expr}`: {e}"));
            let Gate::Rz { angle, .. } = circuit.gates()[0] else {
                panic!("expected Rz");
            };
            assert!(
                (angle - expected).abs() < 1e-12,
                "`{expr}` evaluated to {angle}, expected {expected}"
            );
        }
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let err = from_qasm("OPENQASM 3.0;\nqreg q[1];\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.token, "3.0");
        assert!(err.message.contains("version"));

        let err = from_qasm("OPENQASM 2.0\nqreg q[1];\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected `;`"));
    }

    #[test]
    fn gate_before_qreg_is_rejected() {
        let err = from_qasm("h q[0];\nqreg q[1];\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("before the `qreg`"));
    }

    #[test]
    fn undeclared_registers_are_rejected() {
        let err = from_qasm("qreg q[2];\nh r[0];\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token, "r");
        assert!(err.message.contains("unknown register"));
    }

    #[test]
    fn arbitrary_register_names_are_accepted() {
        let circuit = from_qasm("qreg qubits[2];\nh qubits[1];\n").unwrap();
        assert_eq!(circuit.num_qubits(), 2);
        assert_eq!(circuit.gates(), &[Gate::H(1)]);
    }

    #[test]
    fn multiple_registers_flatten_contiguously() {
        let text = "OPENQASM 2.0;\n\
                    qreg a[2];\n\
                    qreg b[3];\n\
                    qreg c[1];\n\
                    h a[0];\n\
                    x b[0];\n\
                    cx a[1], b[2];\n\
                    rz(pi/2) c[0];\n";
        let circuit = from_qasm(text).unwrap();
        assert_eq!(circuit.num_qubits(), 6);
        let gates = circuit.gates();
        assert_eq!(gates[0], Gate::H(0));
        assert_eq!(gates[1], Gate::X(2));
        assert_eq!(
            gates[2],
            Gate::Cx {
                control: 1,
                target: 4
            }
        );
        let Gate::Rz { qubit: 5, angle } = gates[3] else {
            panic!(
                "expected rz on the flattened index of c[0], got {:?}",
                gates[3]
            );
        };
        assert!((angle - PI / 2.0).abs() < 1e-15);
    }

    #[test]
    fn per_register_ranges_are_enforced() {
        // b[2] would be a valid *flattened* index (total is 5 qubits) but is
        // outside register b itself.
        let err = from_qasm("qreg a[3];\nqreg b[2];\nh b[2];\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.token, "b[2]");
        assert!(err.message.contains("outside the declared register `b[2]`"));

        // A register declared after its use site does not exist yet.
        let err = from_qasm("qreg a[1];\nh b[0];\nqreg b[2];\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown register"));
    }

    #[test]
    fn arity_errors_are_reported() {
        // Missing parameter on rz.
        let err = from_qasm("qreg q[2];\nrz q[0];\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("1 parameter"));

        // Parameter on a parameterless gate.
        let err = from_qasm("qreg q[2];\nh(0.5) q[0];\n").unwrap_err();
        assert!(err.message.contains("0 parameters"));

        // One operand on a two-qubit gate.
        let err = from_qasm("qreg q[2];\ncx q[0];\n").unwrap_err();
        assert!(err.message.contains("2 qubits"));

        // Coincident operands on a two-qubit gate.
        let err = from_qasm("qreg q[2];\ncx q[1], q[1];\n").unwrap_err();
        assert!(err.message.contains("distinct"));
    }

    #[test]
    fn expression_errors_are_located() {
        let err = from_qasm("qreg q[1];\nrz(tau/2) q[0];\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token, "tau");
        assert_eq!(err.column, 4);

        let err = from_qasm("qreg q[1];\nrz(pi/0) q[0];\n").unwrap_err();
        assert!(err.message.contains("division by zero"));

        let err = from_qasm("qreg q[1];\nrz(pi q[0];\n").unwrap_err();
        assert!(err.message.contains("expected `)`") || err.message.contains("close"));
    }

    #[test]
    fn deeply_nested_expressions_error_instead_of_overflowing() {
        // A stack of unary minus signs.
        let text = format!("qreg q[1];\nrz({}1.0) q[0];\n", "-".repeat(100_000));
        let err = from_qasm(&text).unwrap_err();
        assert!(err.message.contains("nested too deeply"), "{err}");

        // A stack of parentheses.
        let text = format!(
            "qreg q[1];\nrz({}1.0{}) q[0];\n",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        let err = from_qasm(&text).unwrap_err();
        assert!(err.message.contains("nested too deeply"), "{err}");

        // Reasonable nesting still works.
        let text = format!(
            "qreg q[1];\nrz({}--pi{}) q[0];\n",
            "(".repeat(20),
            ")".repeat(20)
        );
        assert!(from_qasm(&text).is_ok());
    }

    #[test]
    fn malformed_literals_are_reported_at_the_literal() {
        // A register size too large for usize.
        let err = from_qasm("qreg q[99999999999999999999999];\n").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert_eq!(err.token, "99999999999999999999999");
        assert_eq!(err.column, 8);

        // Register sizes that each fit but whose total overflows: the
        // flattened offsets must not wrap (into a 1-qubit `h q[0]`) or reach
        // the circuit builder.
        let err = from_qasm("qreg a[18446744073709551615]; qreg b[2]; h b[1];").unwrap_err();
        assert_eq!((err.line, err.column), (1, 38));
        assert_eq!(err.token, "2");
        assert!(err.message.contains("overflows"), "{err}");
        let err =
            from_qasm("qreg a[9223372036854775808];\nqreg b[9223372036854775808];\nh b[0];\n")
                .unwrap_err();
        assert_eq!((err.line, err.column), (2, 8));
        assert_eq!(err.token, "9223372036854775808");
        assert!(err.message.contains("overflows"), "{err}");

        // A malformed version number.
        let err = from_qasm("OPENQASM 2.0.1;\nqreg q[1];\n").unwrap_err();
        assert_eq!(err.token, "2.0.1");
        assert!(err.message.contains("version"), "{err}");

        // A malformed numeric parameter.
        let err = from_qasm("qreg q[1];\nrz(1.2.3) q[0];\n").unwrap_err();
        assert_eq!(err.token, "1.2.3");
        assert!(err.message.contains("numeric literal"), "{err}");
    }

    #[test]
    fn missing_semicolon_is_rejected() {
        let err = from_qasm("qreg q[1];\nh q[0]\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected `;`"));
    }

    #[test]
    fn duplicate_qreg_is_rejected() {
        let err = from_qasm("qreg q[1];\nqreg q[2];\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token, "q");
        assert!(err.message.contains("duplicate"));

        // Distinct names are not duplicates.
        assert!(from_qasm("qreg q[1];\nqreg r[2];\n").is_ok());
    }

    #[test]
    fn u_gates_decompose_to_native_rotations() {
        // u1(λ) is a bare Rz.
        let circuit = from_qasm("qreg q[1];\nu1(0.3) q[0];\n").unwrap();
        assert_eq!(circuit.len(), 1);
        let Gate::Rz { qubit: 0, angle } = circuit.gates()[0] else {
            panic!("u1 must parse as Rz, got {:?}", circuit.gates()[0]);
        };
        assert!((angle - 0.3).abs() < 1e-15);

        // u2(φ,λ) = Rz(φ)·Ry(π/2)·Rz(λ): circuit order Rz(λ), Ry(π/2), Rz(φ).
        let circuit = from_qasm("qreg q[1];\nu2(0.25, -0.75) q[0];\n").unwrap();
        let gates = circuit.gates();
        assert_eq!(gates.len(), 3);
        let Gate::Rz { angle: lambda, .. } = gates[0] else {
            panic!("expected leading Rz(λ), got {:?}", gates[0]);
        };
        let Gate::Ry { angle: theta, .. } = gates[1] else {
            panic!("expected Ry(π/2), got {:?}", gates[1]);
        };
        let Gate::Rz { angle: phi, .. } = gates[2] else {
            panic!("expected trailing Rz(φ), got {:?}", gates[2]);
        };
        assert!((lambda + 0.75).abs() < 1e-15);
        assert!((theta - PI / 2.0).abs() < 1e-15);
        assert!((phi - 0.25).abs() < 1e-15);

        // u3 and its OpenQASM-3-style alias u produce identical gates.
        let u3 = from_qasm("qreg q[1];\nu3(1.0, 2.0, 3.0) q[0];\n").unwrap();
        let u = from_qasm("qreg q[1];\nu(1.0, 2.0, 3.0) q[0];\n").unwrap();
        assert_eq!(u3.gates(), u.gates());
        assert_eq!(u3.len(), 3);
        let angles: Vec<f64> = u3
            .gates()
            .iter()
            .map(|g| match g {
                Gate::Rz { angle, .. } | Gate::Ry { angle, .. } => *angle,
                other => panic!("unexpected gate {other:?}"),
            })
            .collect();
        assert_eq!(angles, vec![3.0, 1.0, 2.0]); // λ, θ, φ
    }

    #[test]
    fn u_gate_arity_errors_are_located() {
        let err = from_qasm("qreg q[1];\nu2(0.5) q[0];\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("2 parameters"), "{err}");

        let err = from_qasm("qreg q[1];\nu3(0.5, 0.25) q[0];\n").unwrap_err();
        assert!(err.message.contains("3 parameters"), "{err}");

        let err = from_qasm("qreg q[2];\nu1(0.5) q[0], q[1];\n").unwrap_err();
        assert!(err.message.contains("1 qubit"), "{err}");
    }

    #[test]
    fn display_contains_location_and_token() {
        let err = from_qasm("qreg q[1];\nccx q[0];\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2"));
        assert!(text.contains("column 1"));
        assert!(text.contains("ccx"));
    }
}
