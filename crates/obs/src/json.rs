//! A minimal JSON value, writer, and parser: the workspace's one JSON
//! codec.
//!
//! Telemetry JSONL, the serve API bodies and the bench envelopes all go
//! through here. The writer emits canonical,
//! escape-correct JSON: object keys sorted, floats in Rust's shortest
//! round-trip form (integral values without `.0`), integers exact. The
//! parser accepts standard JSON (RFC 8259). Integer literals stay exact
//! as [`JsonValue::Int`], every other number is read as `f64`, and
//! nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow,
//! so untrusted HTTP bodies are safe to parse.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with a fraction or exponent (or an integer literal too
    /// wide for [`JsonValue::Int`]).
    Num(f64),
    /// An integer literal, exact: `i128` holds every `u64` and `i64`.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; sorted keys make output deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

/// Numbers compare by value, so `Int(1) == Num(1.0)`: the writer prints
/// an integral float without `.0`, and it parses back as an integer.
impl PartialEq for JsonValue {
    fn eq(&self, other: &Self) -> bool {
        use JsonValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Num(a), Num(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Int(i), Num(f)) | (Num(f), Int(i)) => *i as f64 == *f && *f as i128 == *i,
            (Str(a), Str(b)) => a == b,
            (Arr(a), Arr(b)) => a == b,
            (Obj(a), Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl JsonValue {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The `i`-th element if this is an array with at least `i + 1`
    /// elements.
    pub fn get_index(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value entries if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// This value as an unsigned integer, if it is an integer in range.
    /// `5.0` and `5e0` are floats, not integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None);
        out
    }

    /// Serializes to JSON indented by two spaces per level, one array
    /// element or object entry per line.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(0));
        out
    }
}

/// Conversion into a [`JsonValue`]: the writing half of a wire format.
pub trait ToJson {
    /// This value as JSON.
    fn to_json_value(&self) -> JsonValue;
}

impl ToJson for JsonValue {
    fn to_json_value(&self) -> JsonValue {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json_value(&self) -> JsonValue {
        (**self).to_json_value()
    }
}

impl ToJson for bool {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> JsonValue {
                JsonValue::Int(*self as i128)
            }
        }
    )*};
}
int_to_json!(u32, u64, usize);

impl ToJson for str {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::to_json_value)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(T::to_json_value).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> JsonValue {
        self.as_slice().to_json_value()
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_json_value()))
                .collect(),
        )
    }
}

/// Tuples are arrays.
macro_rules! tuple_to_json {
    ($(($($name:ident),+)),*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            #[allow(non_snake_case)]
            fn to_json_value(&self) -> JsonValue {
                let ($($name,)+) = self;
                JsonValue::Arr(vec![$($name.to_json_value()),+])
            }
        }
    )*};
}
tuple_to_json!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// A JSON object's entries.
pub type Object = BTreeMap<String, JsonValue>;

/// `value` as an object, or an error naming `what`.
pub fn expect_object<'a>(value: &'a JsonValue, what: &str) -> Result<&'a Object, String> {
    value
        .as_object()
        .ok_or_else(|| format!("{what} must be a JSON object"))
}

/// The value under `key`, or a "missing field" error.
pub fn field<'a>(obj: &'a Object, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// Strict decoding: any key outside `known` is an error.
pub fn deny_unknown_fields(obj: &Object, known: &[&str]) -> Result<(), String> {
    match obj.keys().find(|k| !known.contains(&k.as_str())) {
        Some(k) => Err(format!("unknown field `{k}`, expected one of {known:?}")),
        None => Ok(()),
    }
}

/// `value` as an unsigned integer that fits `T`; a float (`5.0`), a
/// negative or an out-of-range number is an error naming `what`.
pub fn uint<T: TryFrom<u64>>(value: &JsonValue, what: &str) -> Result<T, String> {
    value
        .as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| {
            let ty = std::any::type_name::<T>();
            format!("`{what}` must be an integer in {ty} range")
        })
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn object<'a>(entries: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON object of `value`'s named fields, each written through
/// [`ToJson`] under its field name: `json_object!(row; dataset, epsilon)`.
#[macro_export]
macro_rules! json_object {
    ($value:expr; $($field:ident),+ $(,)?) => {
        $crate::json::object([$((
            stringify!($field),
            $crate::json::ToJson::to_json_value(&$value.$field),
        )),+])
    };
}

/// Appends `value` to `out`: compact with `indent` `None`; otherwise one
/// array element or object entry per line, two spaces per level, with
/// the value's own first line at level `indent`.
pub fn write_value(out: &mut String, value: &JsonValue, indent: Option<usize>) {
    let newline = |out: &mut String, level: usize| {
        if indent.is_some() {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
    };
    let level = indent.unwrap_or(0);
    let inner = indent.map(|i| i + 1);
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => write_number(out, *n),
        JsonValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        JsonValue::Str(s) => write_string(out, s),
        JsonValue::Arr(items) if items.is_empty() => out.push_str("[]"),
        JsonValue::Obj(map) if map.is_empty() => out.push_str("{}"),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, level + 1);
                write_value(out, item, inner);
            }
            newline(out, level);
            out.push(']');
        }
        JsonValue::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, level + 1);
                write_string(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, v, inner);
            }
            newline(out, level);
            out.push('}');
        }
    }
}

/// Writes a number; non-finite values become `null` (JSON has no NaN).
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.abs() >= 1e16 {
        // Plain notation would pad the shortest digits with zeros into an
        // integer literal that is not this float's exact value.
        let _ = write!(out, "{n:e}");
    } else {
        // Rust's shortest-round-trip formatting: `1` for 1.0, `0.5`.
        let _ = write!(out, "{n}");
    }
}

/// Writes a JSON string literal with escapes.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one complete JSON document from `text`.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    let container = matches!(bytes.get(*pos), Some(b'[' | b'{'));
    if container && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A literal with
/// neither fraction nor exponent is an exact [`JsonValue::Int`]; `-0`
/// stays the float `-0.0` so its sign survives a round trip.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let invalid = || format!("invalid number at byte {start}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_digits = digits(pos);
    if int_digits == 0 || (int_digits > 1 && bytes[int_start] == b'0') {
        return Err(invalid());
    }
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(invalid());
        }
        integral = false;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(invalid());
        }
        integral = false;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII digits and signs");
    if integral && text != "-0" {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(JsonValue::Int(i));
        }
    }
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
        _ => Err(format!("number {text} out of range at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        // Surrogate pair?
                        let c = if (0xd800..0xdc00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                let combined = 0x10000
                                    + ((code - 0xd800) << 10)
                                    + (low.wrapping_sub(0xdc00) & 0x3ff);
                                char::from_u32(combined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape \\{}", other as char)),
                }
            }
            b if b < 0x20 => {
                return Err(format!(
                    "control character in string at byte {pos}",
                    pos = *pos - 1
                ))
            }
            b if b < 0x80 => out.push(b as char),
            _ => {
                // Multi-byte UTF-8: find the full sequence.
                let start = *pos - 1;
                let len = utf8_len(b);
                let end = (start + len).min(bytes.len());
                match std::str::from_utf8(&bytes[start..end]) {
                    Ok(s) => {
                        out.push_str(s);
                        *pos = end;
                    }
                    Err(_) => return Err(format!("invalid utf-8 at byte {start}")),
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if *pos + 4 > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let s = std::str::from_utf8(&bytes[*pos..*pos + 4]).map_err(|e| e.to_string())?;
    let code = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_scalars() {
        assert_eq!(JsonValue::Null.to_json(), "null");
        assert_eq!(JsonValue::Bool(true).to_json(), "true");
        assert_eq!(JsonValue::Num(1.0).to_json(), "1");
        assert_eq!(JsonValue::Num(0.5).to_json(), "0.5");
        assert_eq!(JsonValue::Num(f64::NAN).to_json(), "null");
        assert_eq!(
            JsonValue::Str("a\"b\\c\nd".into()).to_json(),
            r#""a\"b\\c\nd""#
        );
    }

    #[test]
    fn round_trips_nested_documents() {
        let text = r#"{"a": [1, 2.5, null, true], "b": {"c": "x\ny", "d": -3e2}, "e": ""}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_f64(), Some(-300.0));
        assert_eq!(v.get("e").unwrap().as_str(), Some(""));
        let back = parse(&v.to_json()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_unicode_and_surrogates() {
        let v = parse(r#""café 😀 é""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀 é"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse(r#""open"#).is_err());
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [
            0u64,
            1,
            42,
            1 << 52,
            (1 << 53) + 1,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let v = parse(&n.to_json_value().to_json()).unwrap();
            assert_eq!(v.as_u64(), Some(n));
        }
        assert_eq!(
            parse("18446744073709551615").unwrap().to_json(),
            "18446744073709551615"
        );
        assert_eq!(
            parse("-9223372036854775808").unwrap(),
            JsonValue::Int(i64::MIN as i128)
        );
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(
            parse("5.0").unwrap().as_u64(),
            None,
            "a float is not an integer"
        );
        assert_eq!(parse("5e0").unwrap().as_u64(), None);
        assert_eq!(
            parse("5.0").unwrap(),
            JsonValue::Int(5),
            "numbers compare by value"
        );
        let neg_zero = parse("-0").unwrap().as_f64().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "01", "1.", ".5", "+1", "1e", "1e+", "-", "--1", "1e400", "0x10", "NaN",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(parse("1E2").unwrap().as_f64(), Some(100.0));
        assert_eq!(parse("-2.5e-3").unwrap().as_f64(), Some(-2.5e-3));
        assert!(
            parse("\"a\u{1}b\"").is_err(),
            "raw control characters are not JSON"
        );
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
        // Far deeper than any stack could recurse: still a clean error.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn pretty_output_puts_one_entry_per_line() {
        let v = parse(r#"{"rows": [[1, "a"], []], "seed": 7, "t": {}}"#).unwrap();
        let expected = "{\n  \"rows\": [\n    [\n      1,\n      \"a\"\n    ],\n    []\n  ],\n  \"seed\": 7,\n  \"t\": {}\n}";
        assert_eq!(v.to_json_pretty(), expected);
        assert_eq!(parse(expected).unwrap(), v);
    }

    #[test]
    fn to_json_covers_std_shapes() {
        let rows = vec![("a", 1.5, 2usize, Some(3u64), None::<f64>)];
        assert_eq!(rows.to_json_value().to_json(), r#"[["a",1.5,2,3,null]]"#);
        let obj = object([("b", 1u32.to_json_value()), ("a", "x".to_json_value())]);
        assert_eq!(obj.to_json(), r#"{"a":"x","b":1}"#);
    }

    /// A seeded stream, so the fuzz cases are a pure function of it.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn next(&mut self) -> u64 {
            self.0 += 1;
            crate::fault::splitmix64(self.0)
        }
    }

    fn random_string(rng: &mut SplitMix) -> String {
        const CHARS: [char; 10] = ['a', 'Z', '"', '\\', '\n', '\u{1}', '/', 'é', '😀', ' '];
        (0..rng.below(6))
            .map(|_| CHARS[rng.below(CHARS.len())])
            .collect()
    }

    fn random_value(rng: &mut SplitMix, depth: usize) -> JsonValue {
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.next() & 1 == 1),
            2 => loop {
                let f = f64::from_bits(rng.next());
                if f.is_finite() {
                    break JsonValue::Num(f);
                }
            },
            3 => match rng.below(3) {
                0 => JsonValue::Int(rng.next() as i128),
                1 => JsonValue::Int(rng.next() as i64 as i128),
                _ => JsonValue::Num(rng.below(1000) as f64 - 500.0),
            },
            4 => JsonValue::Str(random_string(rng)),
            5 => JsonValue::Arr(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Obj(
                (0..rng.below(4))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn fuzzed_documents_round_trip_and_never_panic() {
        let mut rng = SplitMix(0x5eed_0f15);
        for case in 0..512 {
            let v = random_value(&mut rng, 4);
            let text = v.to_json();
            assert_eq!(parse(&text).as_ref(), Ok(&v), "case {case}: {text}");
            assert_eq!(parse(&v.to_json_pretty()).as_ref(), Ok(&v), "case {case}");
            // Byte-level mutations: any outcome but a panic is fine.
            const SPLICE: &[u8] = b"[]{}\",:-.e0\\ \x01\xff";
            let mut bytes = text.into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                match rng.below(3) {
                    0 => bytes[at] = SPLICE[rng.below(SPLICE.len())],
                    1 => bytes.truncate(at),
                    _ => bytes.insert(at, SPLICE[rng.below(SPLICE.len())]),
                }
                if bytes.is_empty() {
                    break;
                }
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
            // Wrapping the document past the depth limit is always an error.
            let depth = MAX_DEPTH + 1;
            let wrapped = "[".repeat(depth) + &v.to_json() + &"]".repeat(depth);
            assert!(parse(&wrapped).is_err(), "case {case}");
        }
    }
}
