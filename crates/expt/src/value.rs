//! Scalar report values and their JSON rendering.
//!
//! The workspace is intentionally dependency-free (the vendored crates
//! stand in for `rand`/`proptest`/`criterion`), so there is no serde.
//! Experiment records are flat `(key, Value)` lists instead; [`Value`]
//! covers every scalar the reports need and knows how to render itself as
//! a JSON literal. [`validate_json`] is the matching minimal parser used
//! by the smoke harness to reject malformed reporter output.

use std::borrow::Cow;
use std::fmt;

/// One scalar cell of an experiment report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (counts, ids, seeds).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float. Non-finite values render as JSON `null`.
    F64(f64),
    /// A string; `&'static str` labels avoid allocating per row.
    Str(Cow<'static, str>),
}

impl Value {
    /// Renders the value as a JSON literal into `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => {
                let mut buf = itoa_buffer();
                out.push_str(write_u64(&mut buf, *v));
            }
            Value::I64(v) => {
                if *v < 0 {
                    out.push('-');
                    let mut buf = itoa_buffer();
                    out.push_str(write_u64(&mut buf, v.unsigned_abs()));
                } else {
                    let mut buf = itoa_buffer();
                    out.push_str(write_u64(&mut buf, *v as u64));
                }
            }
            Value::F64(v) => {
                if v.is_finite() {
                    // `{}` on f64 prints the shortest representation that
                    // round-trips, which is valid JSON except for integral
                    // values (e.g. "3") — still valid JSON numbers.
                    let s = format!("{v}");
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(s, out),
        }
    }

    /// The value as an `f64`, if it is numeric (used by aggregation).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }
}

/// Writes `s` as a JSON string literal (quoted, escaped) into `out`.
pub(crate) fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn itoa_buffer() -> [u8; 20] {
    [0u8; 20]
}

fn write_u64(buf: &mut [u8; 20], mut v: u64) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ascii")
}

impl fmt::Display for Value {
    /// Human rendering for the table reporter: floats get a compact fixed
    /// precision, everything else its natural form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => {
                if !v.is_finite() {
                    write!(f, "{v}")
                } else if *v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.0}")
                } else {
                    write!(f, "{v:.4}")
                }
            }
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}
impl From<Cow<'static, str>> for Value {
    fn from(v: Cow<'static, str>) -> Self {
        Value::Str(v)
    }
}

/// How deeply arrays and objects may nest before [`validate_json`] rejects
/// the input. Reporter rows nest a few levels at most; the cap keeps the
/// recursive parser's stack bounded on adversarial input.
const MAX_DEPTH: usize = 128;

/// Checks that `input` is one well-formed JSON value (object, array, or
/// scalar) with nothing but whitespace after it, nested at most
/// `MAX_DEPTH` (128) arrays or objects deep.
///
/// This is the validator behind `kdchoice-bench smoke`: every JSONL line a
/// reporter emits must pass it, so malformed output fails CI rather than
/// corrupting downstream analysis.
///
/// ```
/// use kdchoice_expt::validate_json;
///
/// assert!(validate_json(r#"{"k": 2, "name": "(2,3)-choice"}"#).is_ok());
/// assert!(validate_json(r#"{"k": }"#).is_err());
/// assert!(validate_json(r#"{} trailing"#).is_err());
/// ```
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value at `*pos`, inside `depth` enclosing arrays or objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, "true"),
        Some(b'f') => parse_lit(b, pos, "false"),
        Some(b'n') => parse_lit(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        parse_value(b, pos, depth)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(b, pos, depth)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => {
                                    return Err(format!("bad \\u escape at byte {pos}", pos = *pos))
                                }
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            c if c < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected digits at byte {pos}", pos = *pos));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!(
                "expected exponent digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    debug_assert!(*pos > start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary_text::grammar_text;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// `validate_json` returns on any input.
        #[test]
        fn validate_json_survives_arbitrary_input(input in grammar_text(&[
            "{", "}", "[", "]", "\"", ":", ",", " ", "\n", "\\", "\\u", "\\u00e9",
            "true", "false", "null", "tru", "-", "0", "9", ".", "e", "E+", "\"k\":",
        ])) {
            let _ = validate_json(&input);
        }
    }

    fn json_of(v: Value) -> String {
        let mut s = String::new();
        v.write_json(&mut s);
        s
    }

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(json_of(Value::Bool(true)), "true");
        assert_eq!(json_of(Value::U64(0)), "0");
        assert_eq!(json_of(Value::U64(u64::MAX)), u64::MAX.to_string());
        assert_eq!(json_of(Value::I64(-42)), "-42");
        assert_eq!(json_of(Value::I64(i64::MIN)), i64::MIN.to_string());
        assert_eq!(json_of(Value::F64(1.5)), "1.5");
        assert_eq!(json_of(Value::F64(f64::NAN)), "null");
        assert_eq!(json_of(Value::F64(f64::INFINITY)), "null");
        assert_eq!(json_of(Value::Str("a\"b\\c\nd".into())), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn rendered_values_validate() {
        for v in [
            Value::Bool(false),
            Value::U64(123),
            Value::I64(-7),
            Value::F64(0.1),
            Value::F64(1e300),
            Value::F64(f64::NAN),
            Value::Str("control\u{1}char and unicode é".into()),
        ] {
            let s = json_of(v);
            validate_json(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn as_f64_covers_numerics_only() {
        assert_eq!(Value::U64(3).as_f64(), Some(3.0));
        assert_eq!(Value::I64(-3).as_f64(), Some(-3.0));
        assert_eq!(Value::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Bool(true).as_f64(), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::F64(3.0).to_string(), "3");
        assert_eq!(Value::F64(0.123456).to_string(), "0.1235");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
    }

    /// `depth` arrays nested inside each other.
    fn nest(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn validator_accepts_wellformed() {
        let at_cap = nest(MAX_DEPTH);
        for s in [
            at_cap.as_str(),
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a": [1, 2.5, "x", null, true], "b": {"c": []}}"#,
            "  {\"k\":\t1}\n",
        ] {
            validate_json(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed() {
        let unclosed = "[".repeat(100_000);
        // Well-formed, but deeper than the cap: rejected, not overflowed.
        let past_cap = nest(MAX_DEPTH + 1);
        for s in [
            unclosed.as_str(),
            past_cap.as_str(),
            "",
            "{",
            "{]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "01x",
            "1.",
            "1e",
            "\"unterminated",
            "{} {}",
            "nul",
            "{'a': 1}",
        ] {
            assert!(validate_json(s).is_err(), "accepted malformed: {s}");
        }
    }
}
