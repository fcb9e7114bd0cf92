//! Offline stand-in for `serde_json`: renders the serde shim's [`Value`]
//! tree as real JSON and parses JSON text back into it.

use std::fmt;

pub use serde::Value;

/// Error type for serialization and parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value as compact JSON.
///
/// # Errors
///
/// Never fails in this shim; kept fallible for API compatibility.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value as pretty-printed JSON (2-space indent, like
/// serde_json).
///
/// # Errors
///
/// Never fails in this shim; kept fallible for API compatibility.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Returns [`Error`] for malformed JSON or a shape mismatch.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let v = parse_value(s)?;
    Ok(T::from_value(&v)?)
}

fn write_escaped(out: &mut String, s: &str) {
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

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let s = format!("{f}");
        out.push_str(&s);
        // Keep floats recognizably floats, as serde_json does via its
        // shortest-round-trip formatting.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        // serde_json rejects non-finite floats; emitting null is the common
        // lenient fallback and keeps this shim infallible.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    let nl = |out: &mut String, d: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * d));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
        }
        Value::UInt(u) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{u}"));
        }
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
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
                nl(out, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            nl(out, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                nl(out, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            nl(out, depth);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
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
                        _ => return Err(Error::msg("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(Error::msg("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::msg(format!(
                "unexpected byte {other:?} at {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let c = match code {
                                // High surrogate: RFC 8259 encodes astral
                                // code points as a `\uD8xx\uDCxx` pair.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 2) != Some(&b'u')
                                    {
                                        return Err(Error::msg("unpaired surrogate in \\u escape"));
                                    }
                                    let low = self.hex4(self.pos + 3)?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(Error::msg("unpaired surrogate in \\u escape"));
                                    }
                                    self.pos += 6;
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| Error::msg("bad \\u code point"))?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(Error::msg("unpaired surrogate in \\u escape"))
                                }
                                c => char::from_u32(c)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            };
                            out.push(c);
                        }
                        _ => return Err(Error::msg("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error::msg("unterminated string")),
            }
        }
    }

    fn hex4(&self, start: usize) -> Result<u32> {
        let hex = self
            .bytes
            .get(start..start + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?,
            16,
        )
        .map_err(|_| Error::msg("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Value> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid utf-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg(format!("bad number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::msg(format!("bad number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::msg(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_render() {
        let v = Value::Object(vec![
            ("id".into(), Value::Str("figX".into())),
            (
                "rows".into(),
                Value::Array(vec![Value::UInt(1), Value::UInt(2)]),
            ),
            ("x".into(), Value::Float(1.5)),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"id":"figX","rows":[1,2],"x":1.5}"#
        );
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\"id\": \"figX\""));
        assert!(pretty.contains("\n  "));
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a": [1, -2, 3.5], "b": "q\"z", "c": null, "d": true}"#;
        let v = parse_value(text).unwrap();
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "q\"z");
        let rendered = to_string(&v).unwrap();
        let v2 = parse_value(&rendered).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("1 2").is_err());
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(to_string(&Value::Float(2.0)).unwrap(), "2.0");
        assert_eq!(to_string(&Value::Float(f64::NAN)).unwrap(), "null");
    }

    #[test]
    fn full_control_range_round_trips() {
        // Every JSON-mandated escape: C0 controls, quote, backslash —
        // rendered, then parsed back to the identical string.
        let mut s = String::new();
        for c in 0u32..0x20 {
            s.push(char::from_u32(c).unwrap());
        }
        s.push('"');
        s.push('\\');
        s.push_str("/plain text");
        let rendered = to_string(&Value::Str(s.clone())).unwrap();
        // The named short escapes are used where JSON defines them…
        assert!(rendered.contains("\\n"));
        assert!(rendered.contains("\\r"));
        assert!(rendered.contains("\\t"));
        assert!(rendered.contains("\\\""));
        assert!(rendered.contains("\\\\"));
        // …and the rest of the C0 range uses \u00XX.
        assert!(rendered.contains("\\u0000"));
        assert!(rendered.contains("\\u0008"));
        assert!(rendered.contains("\\u000c"));
        assert!(rendered.contains("\\u001f"));
        // No raw control byte may survive into the output.
        assert!(rendered.bytes().all(|b| b >= 0x20));
        let back = parse_value(&rendered).unwrap();
        assert_eq!(back, Value::Str(s));
    }

    #[test]
    fn named_escape_aliases_parse() {
        // \b, \f and \u-escapes for the same characters are equivalent.
        let v = parse_value(r#""\b\fA""#).unwrap();
        assert_eq!(v, Value::Str("\u{8}\u{c}\u{8}\u{c}A".to_string()));
    }

    #[test]
    fn surrogate_pairs_parse_and_round_trip() {
        // U+1F600 as a RFC 8259 surrogate pair.
        let v = parse_value(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Value::Str("\u{1F600}".to_string()));
        // The shim renders astral chars raw (valid JSON); the pair form
        // must still parse back to the same string.
        let rendered = to_string(&v).unwrap();
        assert_eq!(parse_value(&rendered).unwrap(), v);
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        assert!(parse_value(r#""\ud83d""#).is_err());
        assert!(parse_value(r#""\ud83dx""#).is_err());
        assert!(parse_value(r#""\ude00""#).is_err());
        assert!(parse_value(r#""\ud83dA""#).is_err());
    }
}
