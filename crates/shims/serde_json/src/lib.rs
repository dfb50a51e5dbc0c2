//! A std-only stand-in for the subset of
//! [serde_json](https://docs.rs/serde_json) this workspace uses: the
//! [`Value`] tree, the [`json!`] constructor macro, serialization
//! ([`to_string`], [`to_string_pretty`]), and a strict parser
//! ([`from_str`]) sufficient for reading back this shim's own output.
//! The build environment is offline, so the real crate cannot be fetched.
//!
//! There is deliberately no serde data-model layer — the workspace only
//! builds `Value` trees explicitly (experiment dumps, service reports).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document tree. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// A JSON number: integer-valued numbers round-trip exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U(v) => write!(f, "{v}"),
            Number::I(v) => write!(f, "{v}"),
            Number::F(v) => {
                if v.is_finite() {
                    if v == v.trunc() && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; mirror serde_json's `null`.
                    write!(f, "null")
                }
            }
        }
    }
}

impl Value {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(v)) => Some(*v),
            Value::Number(Number::I(v)) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::I(v)) => Some(*v),
            Value::Number(Number::U(v)) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::F(v)) => Some(*v),
            Value::Number(Number::U(v)) => Some(*v as f64),
            Value::Number(Number::I(v)) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::U(v as u64))
            }
        }
    )*};
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::I(v as i64))
            }
        }
    )*};
}

impl_from_unsigned!(u8, u16, u32, u64, usize);
impl_from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::F(v))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::F(v as f64))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<V: Into<Value>> FromIterator<(String, V)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, V)>>(iter: I) -> Value {
        Value::Object(iter.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Value {
        Value::Object(m.into_iter().collect())
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs an escape is
/// ASCII, so the runs between them are copied whole, multibyte text
/// included.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    const ESCAPED: [bool; 256] = {
        let mut table = [false; 256];
        let mut b = 0;
        while b < 0x20 {
            table[b] = true;
            b += 1;
        }
        table[b'"' as usize] = true;
        table[b'\\' as usize] = true;
        table
    };
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        if !ESCAPED[usize::from(b)] {
            continue;
        }
        out.push_str(&s[run..at]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(out, item, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serialization/parsing error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Compact serialization. Infallible for every constructible [`Value`].
pub fn to_string(v: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    Ok(out)
}

/// Two-space-indented pretty serialization.
pub fn to_string_pretty(v: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Error> {
        Err(Error {
            msg: format!("{} at byte {}", msg.into(), self.pos),
        })
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    Error {
                                        msg: "truncated \\u escape".into(),
                                    }
                                })?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| Error {
                                    msg: "non-utf8 \\u escape".into(),
                                })?,
                                16,
                            )
                            .map_err(|_| Error {
                                msg: "bad \\u escape".into(),
                            })?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one piece. Both are ASCII, so the run starts and
                    // ends on a scalar boundary of the `&str` it came from.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| Error {
                        msg: "invalid utf-8".into(),
                    })?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Value::Number(Number::F(f))),
            Err(_) => self.err(format!("bad number `{text}`")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a JSON document into a [`Value`].
pub fn from_str(src: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

/// Builds a [`Value`] from JSON-looking syntax (object/array literals, `null`,
/// and arbitrary Rust expressions convertible via `Into<Value>`).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        let mut array: Vec<$crate::Value> = Vec::new();
        $crate::json_internal!(@array array () ($($tt)*));
        $crate::Value::Array(array)
    }};
    ({ $($tt:tt)* }) => {{
        let mut object: Vec<(String, $crate::Value)> = Vec::new();
        $crate::json_internal!(@object object () ($($tt)*));
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Implementation detail of [`json!`]; do not use directly.
#[macro_export]
macro_rules! json_internal {
    // ---- objects ------------------------------------------------------
    // Finished.
    (@object $object:ident () ()) => {};
    // Entry whose value is a nested object literal.
    (@object $object:ident ($($key:tt)+) (: { $($map:tt)* } , $($rest:tt)*)) => {
        $object.push((($($key)+).into(), $crate::json!({ $($map)* })));
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    (@object $object:ident ($($key:tt)+) (: { $($map:tt)* })) => {
        $object.push((($($key)+).into(), $crate::json!({ $($map)* })));
    };
    // Entry whose value is a nested array literal.
    (@object $object:ident ($($key:tt)+) (: [ $($arr:tt)* ] , $($rest:tt)*)) => {
        $object.push((($($key)+).into(), $crate::json!([ $($arr)* ])));
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    (@object $object:ident ($($key:tt)+) (: [ $($arr:tt)* ])) => {
        $object.push((($($key)+).into(), $crate::json!([ $($arr)* ])));
    };
    // Entry whose value is `null`.
    (@object $object:ident ($($key:tt)+) (: null , $($rest:tt)*)) => {
        $object.push((($($key)+).into(), $crate::Value::Null));
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    (@object $object:ident ($($key:tt)+) (: null)) => {
        $object.push((($($key)+).into(), $crate::Value::Null));
    };
    // Entry whose value is a Rust expression.
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*)) => {
        $object.push((($($key)+).into(), $crate::Value::from($value)));
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr)) => {
        $object.push((($($key)+).into(), $crate::Value::from($value)));
    };
    // Accumulate key tokens until the ':'.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*)) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*));
    };
    // ---- arrays -------------------------------------------------------
    (@array $array:ident () ()) => {};
    (@array $array:ident () ({ $($map:tt)* } , $($rest:tt)*)) => {
        $array.push($crate::json!({ $($map)* }));
        $crate::json_internal!(@array $array () ($($rest)*));
    };
    (@array $array:ident () ({ $($map:tt)* })) => {
        $array.push($crate::json!({ $($map)* }));
    };
    (@array $array:ident () (null , $($rest:tt)*)) => {
        $array.push($crate::Value::Null);
        $crate::json_internal!(@array $array () ($($rest)*));
    };
    (@array $array:ident () (null)) => {
        $array.push($crate::Value::Null);
    };
    (@array $array:ident () ($value:expr , $($rest:tt)*)) => {
        $array.push($crate::Value::from($value));
        $crate::json_internal!(@array $array () ($($rest)*));
    };
    (@array $array:ident () ($value:expr)) => {
        $array.push($crate::Value::from($value));
    };
}

#[cfg(test)]
// `json!` expands to init-then-push by design; the lint skips external-macro
// call sites but not this crate's own tests.
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_trees() {
        let rows = vec![json!({"a": 1, "b": 2.5})];
        let v = json!({
            "name": "popqc",
            "count": 3usize,
            "nested": {"x": true, "y": null},
            "rows": rows,
            "list": [1, 2, 3],
        });
        assert_eq!(v.get("name").unwrap().as_str(), Some("popqc"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
        assert!(v.get("nested").unwrap().get("y").unwrap().is_null());
        assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("list").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn round_trips_through_text() {
        let v = json!({
            "s": "quote \" backslash \\ newline \n",
            "neg": -42,
            "big": 18446744073709551615u64,
            "f": 0.125,
            "intish": 3.0,
            "arr": [null, true, false, {"k": "v"}],
        });
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back = from_str(&text).unwrap();
            assert_eq!(back, v, "mismatch for {text}");
        }
    }

    #[test]
    fn conditional_values_work() {
        let missing = true;
        let v = json!({
            "x": if missing { Value::Null } else { json!(1.5) },
        });
        assert!(v.get("x").unwrap().is_null());
    }

    #[test]
    fn string_reader_handles_escapes_next_to_multibyte_text() {
        let s = |text: &str| from_str(text).map(|v| v.as_str().map(str::to_owned));
        // Multi-byte scalars directly before and after an escape.
        assert_eq!(s(r#""é\nü""#).unwrap().as_deref(), Some("é\nü"));
        assert_eq!(s(r#""日\u00e9本""#).unwrap().as_deref(), Some("日é本"));
        assert_eq!(s(r#""\u0041\u20AC""#).unwrap().as_deref(), Some("A€"));
        // A lone surrogate has no scalar value: the replacement character.
        assert_eq!(s(r#""\ud800""#).unwrap().as_deref(), Some("\u{fffd}"));
        assert_eq!(
            s(r#""\"\\\/\n\r\t\b\f""#).unwrap().as_deref(),
            Some("\"\\/\n\r\t\u{8}\u{c}")
        );
        assert_eq!(s(r#""""#).unwrap().as_deref(), Some(""));

        let msg = |text: &str| from_str(text).unwrap_err().to_string();
        assert!(msg(r#""never closed"#).contains("unterminated string"));
        assert!(msg(r#""日本"#).contains("unterminated string"));
        assert!(msg(r#""tail\"#).contains("bad escape"));
        assert!(msg(r#""\q""#).contains("bad escape"));
        assert!(msg(r#""\u12"#).contains("truncated \\u escape"));
        assert!(msg(r#""\u12é""#).contains("bad \\u escape"));
        assert!(msg(r#""\u123é""#).contains("non-utf8 \\u escape"));
        assert!(msg(r#""\uzzzz""#).contains("bad \\u escape"));
    }

    /// Job documents carry whole QASM files as one string value. A reader
    /// whose per-character work grows with the rest of the document needs
    /// minutes for this one; the bound fails it.
    #[test]
    fn long_string_round_trips_in_linear_time() {
        let line = "rz(0.25) q[3]; // é \"quoted\" \\ tab\t\n";
        let text = line.repeat((4 << 20) / line.len() + 1);
        assert!(text.len() >= 4 << 20);
        let doc = json!({ "qasm": text });

        let t0 = std::time::Instant::now();
        let back = from_str(&to_string(&doc).unwrap()).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(back, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "4 MiB string took {elapsed:?} to round-trip"
        );
    }

    /// The run-copying writer against the one-character-at-a-time one it
    /// replaced.
    #[test]
    fn escape_matches_per_character_reference() {
        fn reference(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mixed = "rz(pi/4) q[0];\n\"quoted\" back\\slash\r\ttab \u{1} \u{1f} \u{0}\
                     é日本€ 😀\"\"\n\n€";
        for s in [mixed, "", "plain", "\n", "é", "\u{1b}[0m", "tail\\"] {
            let (mut ours, mut theirs) = (String::new(), String::new());
            escape_into(&mut ours, s);
            reference(&mut theirs, s);
            assert_eq!(ours, theirs, "on {s:?}");
            assert_eq!(from_str(&ours).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("{} extra").is_err());
    }
}
