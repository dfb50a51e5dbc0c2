//! OPENQASM 2.0 reader/writer for the `{h, x, rz, cx}` gate set.
//!
//! The paper's benchmarks are distributed as QASM files; this module lets the
//! reproduction import such files and export optimized circuits. Only the
//! subset needed for the gate set is supported: a single `qreg`, the four
//! gates, comments, `barrier` (ignored), and angle expressions built from
//! integers, floats, `pi`, `*`, `/`, and unary minus.
//!
//! # Angles
//!
//! Whitespace inside an angle is ignored. The five integer spellings
//! [`to_qasm`] writes — `0`, `pi`, `N*pi`, `pi/D` and `N*pi/D`, each with an
//! optional leading `-` — are read exactly, as [`Angle::pi_frac`]`(±N, D)`,
//! whenever `N` and `D` fit `i64` and the reduced denominator is at most
//! `2^62`, the largest an [`Angle`] holds. Every other expression (a
//! decimal point, an exponent, any other product or quotient, or an
//! integer spelling past those limits) is evaluated in floating point and
//! snapped by [`Angle::from_radians`] to a denominator of at most `2^20`.
//!
//! # Reading
//!
//! [`parse`] makes one forward pass over the bytes, cutting statements at
//! `;`, at a newline, and at `//` (which runs to the end of the line). A
//! gate in the writer's exact spelling (`h q[3]`, `rz(3*pi/4) q[0]`,
//! `cx q[0],q[1]`) is parsed straight from its bytes, which halves the
//! reader's cost on writer text (the job store reads back every entry it
//! serves). Any other statement goes through the tolerant rules — extra
//! spaces and tabs, `cxq[0],q[1]`, `q[ +3 ]`, Unicode whitespace — which
//! accept the same language and report the same errors whichever path a
//! statement takes. Nothing is allocated per statement except an error
//! message.

use crate::angle::Angle;
use crate::circuit::Circuit;
use crate::gate::{Gate, Qubit};
use std::fmt;

/// Error raised while parsing a QASM file, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qasm parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for QasmError {}

fn err(line: usize, msg: impl Into<String>) -> QasmError {
    QasmError {
        line,
        msg: msg.into(),
    }
}

/// Serializes a circuit as OPENQASM 2.0. Angles print in exact
/// `n*pi/d` form, which [`parse`] reads back exactly: for a circuit whose
/// gates fit its register, `parse(&to_qasm(c)) == Ok(c)`.
pub fn to_qasm(c: &Circuit) -> String {
    // 24 bytes covers `rz(1234*pi/2048) q[10];\n`; longer lines regrow.
    let mut out = Vec::with_capacity(64 + 24 * c.gates.len());
    out.extend_from_slice(b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[");
    push_uint(&mut out, c.num_qubits.into());
    out.extend_from_slice(b"];\n");
    for g in &c.gates {
        match *g {
            Gate::H(q) => {
                out.extend_from_slice(b"h ");
                push_qubit(&mut out, q);
            }
            Gate::X(q) => {
                out.extend_from_slice(b"x ");
                push_qubit(&mut out, q);
            }
            Gate::Rz(q, a) => {
                out.extend_from_slice(b"rz(");
                push_angle(&mut out, a);
                out.extend_from_slice(b") ");
                push_qubit(&mut out, q);
            }
            Gate::Cnot(c0, t) => {
                out.extend_from_slice(b"cx ");
                push_qubit(&mut out, c0);
                out.push(b',');
                push_qubit(&mut out, t);
            }
        }
        out.extend_from_slice(b";\n");
    }
    String::from_utf8(out).expect("the writer emits ASCII")
}

fn push_qubit(out: &mut Vec<u8>, q: Qubit) {
    out.extend_from_slice(b"q[");
    push_uint(out, q.into());
    out.push(b']');
}

/// Writes an angle as its `Display` form does: `0`, `pi`, `n*pi`, `pi/d`
/// or `n*pi/d` (canonical numerators are never negative).
fn push_angle(out: &mut Vec<u8>, a: Angle) {
    let (num, den) = (a.numerator() as u64, a.denominator() as u64);
    if num == 0 {
        out.push(b'0');
        return;
    }
    if num != 1 {
        push_uint(out, num);
        out.push(b'*');
    }
    out.extend_from_slice(b"pi");
    if den != 1 {
        out.push(b'/');
        push_uint(out, den);
    }
}

fn push_uint(out: &mut Vec<u8>, mut v: u64) {
    let start = out.len();
    loop {
        out.push(b'0' + (v % 10) as u8);
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out[start..].reverse();
}

/// Parses an OPENQASM 2.0 program restricted to the POPQC gate set.
pub fn parse(src: &str) -> Result<Circuit, QasmError> {
    let bytes = src.as_bytes();
    let mut reg: Option<(&str, u32)> = None;
    // The writer's shortest gate statement, `h q[0];\n`, is 8 bytes. The
    // cap keeps text that is mostly comments from reserving for gates it
    // does not hold; past it the vector grows as usual.
    let mut gates = Vec::with_capacity((bytes.len() / 8).min(1 << 16));
    let mut line = 1;
    let mut pos = 0;
    loop {
        // Blank space and empty statements between statements.
        while let Some(&b) = bytes.get(pos) {
            match b {
                b'\n' => line += 1,
                b' ' | b'\t' | b'\r' | b';' => {}
                _ => break,
            }
            pos += 1;
        }
        if pos == bytes.len() {
            break;
        }
        if let Some((name, size)) = reg {
            if let Some((g, len)) = read_gate(&src[pos..], name) {
                push_gate(&mut gates, g, size, line, &src[pos..pos + len])?;
                pos += len;
                continue;
            }
        }
        let end = statement_end(bytes, pos);
        statement(src[pos..end].trim(), line, &mut reg, &mut gates)?;
        pos = end;
        if bytes[pos..].starts_with(b"//") {
            pos += bytes[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(bytes.len() - pos);
        }
    }

    let n = reg
        .ok_or_else(|| err(src.lines().count().max(1), "missing qreg declaration"))?
        .1;
    Ok(Circuit {
        num_qubits: n,
        gates,
    })
}

/// Where the statement starting at `pos` ends: at the next `;`, newline
/// or `//`, or at the end of the text.
fn statement_end(bytes: &[u8], pos: usize) -> usize {
    let mut at = pos;
    while let Some(&b) = bytes.get(at) {
        if b == b';' || b == b'\n' || (b == b'/' && bytes.get(at + 1) == Some(&b'/')) {
            break;
        }
        at += 1;
    }
    at
}

fn push_gate(
    gates: &mut Vec<Gate>,
    g: Gate,
    size: u32,
    line: usize,
    stmt: &str,
) -> Result<(), QasmError> {
    if g.max_qubit() >= size {
        return Err(err(
            line,
            format!("qubit index out of range (register has {size} qubits): {stmt}"),
        ));
    }
    gates.push(g);
    Ok(())
}

/// A gate statement in the writer's exact spelling at the start of `s`,
/// ending at `;`, a newline or the end of the text, with its length in
/// bytes. `None` sends the statement to the tolerant rules, which also
/// produce its error if it has one.
fn read_gate(s: &str, reg: &str) -> Option<(Gate, usize)> {
    let bytes = s.as_bytes();
    let mut c = Cursor::verbatim(s);
    let gate = match bytes.first()? {
        b'h' | b'x' if bytes.get(1) == Some(&b' ') => {
            c.at = 2;
            let q = c.operand(reg)?;
            if bytes[0] == b'h' {
                Gate::H(q)
            } else {
                Gate::X(q)
            }
        }
        b'c' if bytes.starts_with(b"cx ") => {
            c.at = 3;
            let ctrl = c.operand(reg)?;
            if !c.eat(b',') {
                return None;
            }
            let tgt = c.operand(reg)?;
            if ctrl == tgt {
                return None;
            }
            Gate::Cnot(ctrl, tgt)
        }
        b'r' if bytes.starts_with(b"rz(") => {
            c.at = 3;
            let angle = c.exact_angle()?;
            if !(c.eat(b')') && c.eat(b' ')) {
                return None;
            }
            Gate::Rz(c.operand(reg)?, angle)
        }
        _ => return None,
    };
    let rest = &bytes[c.at..];
    match rest.first() {
        None | Some(b';' | b'\n') => Some((gate, c.at)),
        Some(b'\r') if rest.get(1) == Some(&b'\n') => Some((gate, c.at)),
        _ => None,
    }
}

/// One trimmed statement under the tolerant rules.
fn statement<'a>(
    stmt: &'a str,
    line: usize,
    reg: &mut Option<(&'a str, u32)>,
    gates: &mut Vec<Gate>,
) -> Result<(), QasmError> {
    if stmt.is_empty()
        || stmt.starts_with("OPENQASM")
        || stmt.starts_with("include")
        || stmt.starts_with("barrier")
    {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg") {
        let decl = parse_reg_decl(rest.trim())
            .ok_or_else(|| err(line, format!("malformed qreg declaration: {stmt}")))?;
        if reg.is_some() {
            return Err(err(line, "multiple qreg declarations are not supported"));
        }
        *reg = Some(decl);
        return Ok(());
    }
    if stmt.starts_with("creg") || stmt.starts_with("measure") {
        return Err(err(
            line,
            "classical registers/measurement are outside the POPQC gate set",
        ));
    }
    let (name, size) = reg.ok_or_else(|| err(line, "gate before qreg declaration"))?;
    let g = parse_gate(stmt, name, line)?;
    push_gate(gates, g, size, line, stmt)
}

fn parse_reg_decl(s: &str) -> Option<(&str, u32)> {
    let open = s.find('[')?;
    // Search for the bracket *after* `[`: `find(']')` over the whole string
    // would produce an inverted range (and a slice panic) on inputs like
    // `qreg q]0[`.
    let close = open + s[open..].find(']')?;
    let name = s[..open].trim();
    let size: u32 = s[open + 1..close].trim().parse().ok()?;
    if name.is_empty() {
        return None;
    }
    Some((name, size))
}

fn parse_gate(stmt: &str, reg: &str, lineno: usize) -> Result<Gate, QasmError> {
    if let Some(rest) = stmt.strip_prefix("cx") {
        let mut it = rest.split(',');
        let c = parse_operand(it.next().unwrap_or(""), reg)
            .ok_or_else(|| err(lineno, format!("malformed cx control: {stmt}")))?;
        let t = parse_operand(it.next().unwrap_or(""), reg)
            .ok_or_else(|| err(lineno, format!("malformed cx target: {stmt}")))?;
        if it.next().is_some() {
            return Err(err(lineno, format!("too many cx operands: {stmt}")));
        }
        if c == t {
            return Err(err(lineno, format!("cx control equals target: {stmt}")));
        }
        return Ok(Gate::Cnot(c, t));
    }
    if let Some(rest) = stmt.strip_prefix("rz") {
        let rest = rest.trim_start();
        let open = rest
            .strip_prefix('(')
            .ok_or_else(|| err(lineno, format!("rz missing angle: {stmt}")))?;
        let close = open
            .find(')')
            .ok_or_else(|| err(lineno, format!("rz missing ')': {stmt}")))?;
        let angle = parse_angle(&open[..close])
            .ok_or_else(|| err(lineno, format!("cannot parse angle: {stmt}")))?;
        let q = parse_operand(&open[close + 1..], reg)
            .ok_or_else(|| err(lineno, format!("malformed rz operand: {stmt}")))?;
        return Ok(Gate::Rz(q, angle));
    }
    if let Some(rest) = stmt.strip_prefix("h ") {
        let q = parse_operand(rest, reg)
            .ok_or_else(|| err(lineno, format!("malformed h operand: {stmt}")))?;
        return Ok(Gate::H(q));
    }
    if let Some(rest) = stmt.strip_prefix("x ") {
        let q = parse_operand(rest, reg)
            .ok_or_else(|| err(lineno, format!("malformed x operand: {stmt}")))?;
        return Ok(Gate::X(q));
    }
    Err(err(lineno, format!("unsupported statement: {stmt}")))
}

fn parse_operand(s: &str, reg: &str) -> Option<u32> {
    let s = s.trim();
    let rest = s.strip_prefix(reg)?.trim_start();
    let inner = rest.strip_prefix('[')?.strip_suffix(']')?;
    inner.trim().parse().ok()
}

/// Parses an angle expression: products/quotients of integers, floats, and
/// `pi`, with unary minus (e.g. `pi/4`, `-3*pi/8`, `0.5*pi`, `1.5707963`).
/// Integer spellings (`N*pi/D` and its shorter forms) are exact; decimal
/// literals are snapped to the nearest rational multiple of π with
/// denominator at most `2^20` (see the [module docs](self)).
pub fn parse_angle(s: &str) -> Option<Angle> {
    let start = Cursor::skipping_whitespace(s);
    let mut c = start;
    if let Some(angle) = c.exact_angle() {
        if c.peek().is_none() {
            return Some(angle);
        }
    }
    let mut c = start;
    let neg = c.eat(b'-');
    let value = c.product()?;
    Some(Angle::from_radians(if neg { -value } else { value }))
}

/// A read position in statement or angle text. A cursor made by
/// [`Cursor::skipping_whitespace`] does not see whitespace at all, as angle
/// expressions have always been read (`3 * pi / 4` is `3*pi/4`).
#[derive(Clone, Copy)]
struct Cursor<'a> {
    s: &'a str,
    at: usize,
    skip_whitespace: bool,
}

impl<'a> Cursor<'a> {
    fn verbatim(s: &'a str) -> Self {
        Cursor {
            s,
            at: 0,
            skip_whitespace: false,
        }
    }

    fn skipping_whitespace(s: &'a str) -> Self {
        Cursor {
            s,
            at: 0,
            skip_whitespace: true,
        }
    }

    /// The next visible byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let b = *self.s.as_bytes().get(self.at)?;
        if self.skip_whitespace && (!b.is_ascii() || (b as char).is_whitespace()) {
            return self.peek_past_whitespace();
        }
        Some(b)
    }

    #[cold]
    fn peek_past_whitespace(&mut self) -> Option<u8> {
        let rest = &self.s[self.at..];
        let skipped = rest.len() - rest.trim_start().len();
        self.at += skipped;
        self.s.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn eat_pi(&mut self) -> bool {
        let save = *self;
        if self.eat(b'p') && self.eat(b'i') {
            return true;
        }
        *self = save;
        false
    }

    /// One or more decimal digits, `None` if there are none or the value
    /// does not fit `T`.
    fn digits<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let mut value: Option<u64> = None;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            self.at += 1;
            let v = value.unwrap_or(0).checked_mul(10)?;
            value = Some(v.checked_add(u64::from(b - b'0'))?);
        }
        T::try_from(value?).ok()
    }

    /// `reg[digits]`, the writer's qubit operand.
    fn operand(&mut self, reg: &str) -> Option<Qubit> {
        if !self.s.as_bytes()[self.at..].starts_with(reg.as_bytes()) {
            return None;
        }
        self.at += reg.len();
        if !self.eat(b'[') {
            return None;
        }
        let q = self.digits()?;
        self.eat(b']').then_some(q)
    }

    /// `[-](0 | pi | N*pi | pi/D | N*pi/D)` with `N` and `D` in `i64`,
    /// `D ≠ 0`, as [`Angle::pi_frac`]`(±N, D)` if that has a canonical
    /// form (reduced denominator at most `2^62`). Stops after the match;
    /// the caller checks what follows.
    fn exact_angle(&mut self) -> Option<Angle> {
        let neg = self.eat(b'-');
        let num = if self.eat_pi() {
            1
        } else {
            let n: i64 = self.digits()?;
            if !self.eat(b'*') {
                return (n == 0).then_some(Angle::ZERO);
            }
            if !self.eat_pi() {
                return None;
            }
            n
        };
        let den: i64 = if self.eat(b'/') { self.digits()? } else { 1 };
        if den == 0 {
            return None;
        }
        Angle::checked_pi_frac(if neg { -num } else { num }, den)
    }

    /// The float reading of `v (('*' | '/') v)*`, each `v` being `pi` or a
    /// decimal literal, evaluated left to right. `None` on any other text
    /// or a division by zero.
    fn product(&mut self) -> Option<f64> {
        let mut value = 1.0f64;
        let mut divide = false;
        loop {
            let v = if self.eat_pi() {
                std::f64::consts::PI
            } else {
                self.literal()?
            };
            if divide {
                if v == 0.0 {
                    return None;
                }
                value /= v;
            } else {
                value *= v;
            }
            match self.peek() {
                None => return Some(value),
                Some(b'*') => divide = false,
                Some(b'/') => divide = true,
                Some(_) => return None,
            }
            self.at += 1;
        }
    }

    /// The longest run of `[0-9.eE]`, read as an `f64`.
    fn literal(&mut self) -> Option<f64> {
        let in_literal = |b: u8| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E');
        self.peek().filter(|&b| in_literal(b))?;
        let start = self.at;
        let mut end = start;
        let mut split = false;
        while let Some(b) = self.peek() {
            if !in_literal(b) {
                break;
            }
            split |= self.at != end;
            self.at += 1;
            end = self.at;
        }
        let text = &self.s[start..end];
        if split {
            // Whitespace inside a literal (`1 .5`): only this copies.
            let joined: String = text.chars().filter(|c| !c.is_whitespace()).collect();
            joined.parse().ok()
        } else {
            text.parse().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cnot(0, 1)
            .rz(1, Angle::pi_frac(3, 8))
            .x(3)
            .rz(2, Angle::PI)
            .rz(3, Angle::pi_frac(-1, 4));
        let text = to_qasm(&c);
        let back = parse(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parse_angles() {
        assert_eq!(parse_angle("pi/4"), Some(Angle::PI_4));
        assert_eq!(parse_angle("-pi/4"), Some(Angle::SEVEN_PI_4));
        assert_eq!(parse_angle("3*pi/4"), Some(Angle::pi_frac(3, 4)));
        assert_eq!(parse_angle("0"), Some(Angle::ZERO));
        assert_eq!(parse_angle("2*pi"), Some(Angle::ZERO));
        assert_eq!(parse_angle("0.5*pi"), Some(Angle::PI_2));
        assert_eq!(parse_angle("1.5707963267948966"), Some(Angle::PI_2));
        assert_eq!(parse_angle("pi"), Some(Angle::PI));
        assert_eq!(parse_angle(""), None);
        assert_eq!(parse_angle("pi/0"), None);
        assert_eq!(parse_angle("foo"), None);
    }

    #[test]
    fn parse_sample_program() {
        let src = r#"
OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[1]; x q[2];
barrier q;
cx q[1], q[2];
"#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits, 3);
        assert_eq!(c.len(), 5);
        assert_eq!(c.gates[2], Gate::Rz(1, Angle::PI_2));
        assert_eq!(c.gates[4], Gate::Cnot(1, 2));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "OPENQASM 2.0;\nqreg q[2];\nh q[5];\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 3);

        let e = parse("OPENQASM 2.0;\nh q[0];\n").unwrap_err();
        assert!(e.msg.contains("before qreg"));

        let e = parse("qreg q[2];\ncx q[1],q[1];\n").unwrap_err();
        assert!(e.msg.contains("control equals target"));

        let e = parse("qreg q[2];\nmeasure q[0];\n").unwrap_err();
        assert!(e.msg.contains("outside the POPQC gate set"));

        let e = parse("OPENQASM 2.0;\n").unwrap_err();
        assert!(e.msg.contains("missing qreg"));
    }

    #[test]
    fn unsupported_gate_is_an_error() {
        let e = parse("qreg q[2];\nt q[0];\n").unwrap_err();
        assert!(e.msg.contains("unsupported"));
    }

    #[test]
    fn malformed_qreg_brackets_error_instead_of_panicking() {
        // `]` before `[` used to slice with an inverted range and panic.
        for src in ["qreg q]0[;\n", "qreg q];\n", "qreg [3];\n", "qreg q[x];\n"] {
            let e = parse(src).unwrap_err();
            assert!(e.msg.contains("qreg"), "{src:?} -> {e}");
            assert_eq!(e.line, 1);
        }
    }

    /// Text that is mostly comments does not reserve one gate per 8 bytes.
    #[test]
    fn comment_heavy_text_reserves_a_bounded_gate_vector() {
        let text = format!("qreg q[1];\n{}h q[0];\n", "// padding\n".repeat(1 << 17));
        let c = parse(&text).unwrap();
        assert_eq!(c.gates, [Gate::H(0)]);
        assert!(c.gates.capacity() <= 1 << 16, "{}", c.gates.capacity());
    }

    // ---- differential checks against the previous reader and writer ----

    /// The reader as it was before the single-pass rewrite: line split,
    /// comment cut, `;` split and `str` rules for every statement, angles
    /// through a whitespace-free `String`, a token vector and
    /// [`Angle::from_radians`].
    fn reference_parse(src: &str) -> Result<Circuit, QasmError> {
        let mut num_qubits: Option<(String, u32)> = None;
        let mut gates = Vec::new();

        for (idx, raw_line) in src.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw_line.find("//") {
                Some(p) => &raw_line[..p],
                None => raw_line,
            };
            for stmt in line.split(';') {
                let stmt = stmt.trim();
                if stmt.is_empty() {
                    continue;
                }
                if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
                    continue;
                }
                if stmt.starts_with("barrier") {
                    continue;
                }
                if let Some(rest) = stmt.strip_prefix("qreg") {
                    let rest = rest.trim();
                    let (name, size) = parse_reg_decl(rest)
                        .map(|(name, size)| (name.to_string(), size))
                        .ok_or_else(|| {
                            err(lineno, format!("malformed qreg declaration: {stmt}"))
                        })?;
                    if num_qubits.is_some() {
                        return Err(err(lineno, "multiple qreg declarations are not supported"));
                    }
                    num_qubits = Some((name, size));
                    continue;
                }
                if stmt.starts_with("creg") || stmt.starts_with("measure") {
                    return Err(err(
                        lineno,
                        "classical registers/measurement are outside the POPQC gate set",
                    ));
                }
                let (reg, n) = num_qubits
                    .as_ref()
                    .ok_or_else(|| err(lineno, "gate before qreg declaration"))?;
                let g = reference_parse_gate(stmt, reg, lineno)?;
                if g.max_qubit() >= *n {
                    return Err(err(
                        lineno,
                        format!("qubit index out of range (register has {n} qubits): {stmt}"),
                    ));
                }
                gates.push(g);
            }
        }

        let n = num_qubits
            .ok_or_else(|| err(src.lines().count().max(1), "missing qreg declaration"))?
            .1;
        Ok(Circuit {
            num_qubits: n,
            gates,
        })
    }

    /// [`parse_gate`] with the reference angle reader.
    fn reference_parse_gate(stmt: &str, reg: &str, lineno: usize) -> Result<Gate, QasmError> {
        if let Some(rest) = stmt.strip_prefix("rz") {
            let rest = rest.trim_start();
            let open = rest
                .strip_prefix('(')
                .ok_or_else(|| err(lineno, format!("rz missing angle: {stmt}")))?;
            let close = open
                .find(')')
                .ok_or_else(|| err(lineno, format!("rz missing ')': {stmt}")))?;
            let angle = reference_parse_angle(&open[..close])
                .ok_or_else(|| err(lineno, format!("cannot parse angle: {stmt}")))?;
            let q = parse_operand(&open[close + 1..], reg)
                .ok_or_else(|| err(lineno, format!("malformed rz operand: {stmt}")))?;
            return Ok(Gate::Rz(q, angle));
        }
        parse_gate(stmt, reg, lineno)
    }

    fn reference_parse_angle(s: &str) -> Option<Angle> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if s.is_empty() {
            return None;
        }
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.as_str()),
        };
        let mut value = 1.0f64;
        let mut op = '*';
        for token in tokenize(body)? {
            match token {
                Tok::Op(c) => op = c,
                Tok::Val(v) => {
                    if op == '*' {
                        value *= v;
                    } else {
                        if v == 0.0 {
                            return None;
                        }
                        value /= v;
                    }
                }
            }
        }
        Some(Angle::from_radians(if neg { -value } else { value }))
    }

    enum Tok {
        Op(char),
        Val(f64),
    }

    fn tokenize(s: &str) -> Option<Vec<Tok>> {
        let mut out = Vec::new();
        let mut rest = s;
        let mut expecting_value = true;
        while !rest.is_empty() {
            if expecting_value {
                if let Some(r) = rest.strip_prefix("pi") {
                    out.push(Tok::Val(std::f64::consts::PI));
                    rest = r;
                } else {
                    let end = rest
                        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E'))
                        .unwrap_or(rest.len());
                    if end == 0 {
                        return None;
                    }
                    let v: f64 = rest[..end].parse().ok()?;
                    out.push(Tok::Val(v));
                    rest = &rest[end..];
                }
                expecting_value = false;
            } else {
                let c = rest.chars().next()?;
                if c != '*' && c != '/' {
                    return None;
                }
                out.push(Tok::Op(c));
                rest = &rest[1..];
                expecting_value = true;
            }
        }
        if expecting_value {
            return None;
        }
        Some(out)
    }

    /// The writer as it was: one `format!` per gate.
    fn reference_to_qasm(c: &Circuit) -> String {
        let mut out = String::with_capacity(32 + 12 * c.gates.len());
        out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        out.push_str(&format!("qreg q[{}];\n", c.num_qubits));
        for g in &c.gates {
            match *g {
                Gate::H(q) => out.push_str(&format!("h q[{q}];\n")),
                Gate::X(q) => out.push_str(&format!("x q[{q}];\n")),
                Gate::Rz(q, a) => out.push_str(&format!("rz({a}) q[{q}];\n")),
                Gate::Cnot(c0, t) => out.push_str(&format!("cx q[{c0}],q[{t}];\n")),
            }
        }
        out
    }

    fn assert_readers_agree(src: &str) {
        assert_eq!(parse(src), reference_parse(src), "on {src:?}");
    }

    /// Every family's generator output at `ladder(0)[0..2]`, as the
    /// writer spells it. The generators return the `Circuit` of this
    /// crate's library build, a type these unit tests cannot name, so each
    /// gate crosses over through its `Debug` form (`Rz(3, 5*pi/8)`).
    fn family_texts() -> Vec<String> {
        let mut texts = Vec::new();
        for family in benchgen::Family::ALL {
            for &qubits in &family.ladder(0)[0..2] {
                let c = family.generate(qubits, 42);
                let mut text = format!(
                    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{}];\n",
                    c.num_qubits
                );
                for g in &c.gates {
                    let debug = format!("{g:?}");
                    let (name, args) = debug.trim_end_matches(')').split_once('(').unwrap();
                    let stmt = match (name, args.split_once(", ")) {
                        ("H", None) => format!("h q[{args}]"),
                        ("X", None) => format!("x q[{args}]"),
                        ("Rz", Some((q, angle))) => format!("rz({angle}) q[{q}]"),
                        ("Cnot", Some((ctrl, tgt))) => format!("cx q[{ctrl}],q[{tgt}]"),
                        _ => unreachable!("unexpected gate {debug}"),
                    };
                    text.push_str(&stmt);
                    text.push_str(";\n");
                }
                texts.push(text);
            }
        }
        texts
    }

    #[test]
    fn readers_agree_on_every_family() {
        for text in family_texts() {
            let c = parse(&text).expect("writer output parses");
            assert_eq!(Ok(&c), reference_parse(&text).as_ref());
            assert_eq!(to_qasm(&c), text);
        }
    }

    #[test]
    fn readers_agree_on_spelling_variants() {
        let head = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n";
        for body in [
            "h q[0];\r\ncx q[0],q[1];\r\nrz(pi/4) q[1];\r\n",
            "h q[0]; x q[1];cx q[1],q[2]; rz(3*pi/4) q[3];",
            "h q[0];\nx q[1]",
            "h q[0]; // a comment; x q[1];\nx q[2]; //\n",
            "barrier q;\nbarrier q[0],q[1];\nh q[0];",
            "cxq[0],q[1];",
            "h q [3];",
            "h q[ 3 ];",
            "h q[+3];",
            "h\u{3000}q[1];",
            "\th\tq[1];\t\n\trz(pi)\tq[2];",
            "h q[1] ;",
            "rz( pi/4 ) q[1];",
            "rz(3 * pi / 4) q[1];",
            "rz(pi*3/4) q[1];",
            "rz(-pi/4) q[1];",
            "rz(- 3*pi/4) q[1];",
            "rz(0.785398) q[1];",
            "rz(1e-3) q[1];",
            "rz(1 .5) q[1];",
            "rz(2*pi/3/4) q[1];",
            "rz(0) q[0];rz(00) q[0];rz(0*pi/9) q[0];rz(-0) q[0];",
            "rz (pi/2) q[4];",
            "rz(pi/2)q[4];",
            "rz(pi/2)  q[4];",
            "rz(p\u{a0}i/2) q[4];",
            "x q[1]\r",
            "h q[1]\rx q[2];",
            "h q[007];",
        ] {
            assert_readers_agree(&format!("{head}{body}"));
        }
        // Register names other than the writer's `q`.
        assert_readers_agree("qreg anc[3];\nh anc[2];\ncx anc[0],anc[1];\nrz(pi/8) anc[1];");
        assert_readers_agree("qregfoo[2];\nh foo[1];");
        assert_readers_agree("qreg a b[2];\nh a b[1];\nh a b [0];");
    }

    #[test]
    fn readers_agree_on_every_error() {
        let head = "OPENQASM 2.0;\nqreg q[2];\n";
        for body in [
            "rz(pi/0) q[0];",
            "rz(-pi/9223372036854775807) q[0];",
            "rz(pi q[0];",
            "rz(pi;) q[0];",
            "rz(0*) q[0];",
            "rz(pi*) q[0];",
            "rz(--pi) q[0];",
            "rz(pie) q[0];",
            "rz() q[0];",
            "rz q[0];",
            "rz(pi/4) q[0], q[1];",
            "rz(pi/4) r[0];",
            "rz(pi/4) q[0]x;",
            "cx q[1],q[1];",
            "cx q[0];",
            "cx q[0],q[1],q[0];",
            "h q[2];",
            "cx q[0],q[7];",
            "h q[4294967296];",
            "h q[4294967295];",
            "h q[-1];",
            "h q[];",
            "h q[0]];",
            "h\tq[0];",
            "t q[0];",
            "creg c[2];",
            "measure q[0] -> c[0];",
            "qreg r[2];",
            "h q[0]\nqreg r[2];",
        ] {
            assert_readers_agree(&format!("{head}{body}"));
        }
        for src in [
            "h q[0];",
            "OPENQASM 2.0;\nrz(pi/4) q[0];",
            "OPENQASM 2.0;\n",
            "",
            "\n\n",
            "// nothing\n",
            "qreg q]0[;",
            "qreg [3];",
            "qreg q[x];",
            "qreg q[4294967296];",
        ] {
            assert_readers_agree(src);
        }
    }

    /// Denominators above `2^20` are the one intended difference: the old
    /// reader snapped them, the exact one keeps them.
    #[test]
    fn large_integer_denominators_read_exactly() {
        for (spelling, num, den) in [
            ("pi/1048577", 1, 1 << 20 | 1),
            ("1048579*pi/3145728", 1048579, 3145728),
            ("-pi/1099511627776", -1, 1 << 40),
            ("-pi/4611686018427387904", -1, 1 << 62),
            ("-2*pi/9223372036854775806", -1, (1 << 62) - 1),
        ] {
            let exact = Angle::pi_frac(num, den);
            assert_eq!(parse_angle(spelling), Some(exact), "{spelling}");
            assert_ne!(reference_parse_angle(spelling), Some(exact), "{spelling}");
            let src = format!("qreg q[1];\nrz({spelling}) q[0];");
            assert_eq!(parse(&src).unwrap().gates, [Gate::Rz(0, exact)]);
        }
        // Past `i64`, or past the largest canonical denominator `2^62`, the
        // spelling is evaluated as a float, as before.
        for huge in [
            "pi/99999999999999999999",
            "pi/4611686018427387905",
            "3*pi/9223372036854775807",
            "-pi/9223372036854775807",
            "-9223372036854775807*pi/9223372036854775806",
        ] {
            assert_eq!(parse_angle(huge), reference_parse_angle(huge), "{huge}");
            let src = format!("qreg q[1];\nrz({huge}) q[0];");
            assert_eq!(parse(&src), reference_parse(&src), "{huge}");
        }
    }

    fn assert_angle_readers_agree(num: i64, den: i64) {
        let spelling = Angle::pi_frac(num, den).to_string();
        let exact = parse_angle(&spelling);
        assert_eq!(exact, Some(Angle::pi_frac(num, den)), "{spelling}");
        assert_eq!(exact, reference_parse_angle(&spelling), "{spelling}");
    }

    /// For `D ≤ 2^20` and `0 ≤ N < 2D` the exact and the snapped readings
    /// coincide: every spelling up to `D = 2^8`, and seeded draws above.
    #[test]
    fn exact_and_snapped_angles_agree_below_2_pow_20() {
        for den in 1..=1 << 8 {
            for num in 0..2 * den {
                assert_angle_readers_agree(num, den);
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..100_000 {
            let den = (next() % (1 << 20)) as i64 + 1;
            let num = (next() % (2 * den as u64)) as i64;
            assert_angle_readers_agree(num, den);
        }
    }

    #[test]
    fn writer_matches_reference_byte_for_byte() {
        for text in family_texts() {
            let c = parse(&text).unwrap();
            assert_eq!(to_qasm(&c), reference_to_qasm(&c));
        }
        // The writer does not validate, so edge indices need no register.
        let mut c = Circuit::new(u32::MAX);
        for den in [1i64, 2, 1 << 20, 1 << 40] {
            for num in [0, 1, 2 * den - 1] {
                c.rz(9, Angle::pi_frac(num, den));
            }
        }
        for q in [0, 9, 10, u32::MAX] {
            c.h(q).x(q).rz(q, Angle::PI_4).cnot(q, 1).cnot(u32::MAX, q);
        }
        assert_eq!(to_qasm(&c), reference_to_qasm(&c));
        assert_eq!(
            to_qasm(&Circuit::new(0)),
            reference_to_qasm(&Circuit::new(0))
        );
    }
}
