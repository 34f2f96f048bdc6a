//! # minijson — the workspace's shared dependency-free JSON reader
//!
//! A minimal recursive-descent parser over the JSON subset the repo's
//! own tooling emits (benchmark results, runtime telemetry, trace
//! exports). It is strict — unknown syntax is an error, not a guess —
//! and deliberately tiny: objects keep insertion order, numbers are
//! `f64` (every value our writers produce fits without loss of
//! meaning).
//!
//! Telemetry/trace schema tests use it to *parse* the documents they
//! validate instead of grepping for needles.

#![forbid(unsafe_code)]

/// A parsed JSON value. Objects keep insertion order; numbers are f64.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None on missing key or non-object).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object field names, in document order (empty for non-objects).
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Convenience: `point.num("speedup")` with a named error.
    ///
    /// # Errors
    /// Returns the missing key's name when absent or non-numeric.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number `{key}`"))
    }
}

/// Parses a complete JSON document; trailing garbage is an error.
///
/// # Errors
/// Returns a byte-positioned message on any syntax violation.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII slice");
    text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        // Surrogate pairs never appear in our tooling's
                        // output; map them to U+FFFD rather than guess.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through verbatim.
                let len = utf8_len(c);
                let chunk = b.get(*pos..*pos + len).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_tooling_subset() {
        let json = parse_json(
            r#"{"experiment":"coldstart","n":3,"f":1.5,"neg":-2e3,
                "ok":true,"no":false,"nil":null,
                "arr":[1,2,3],"nested":{"s":"a\"b\\c\nA"}}"#,
        )
        .expect("parses");
        assert_eq!(json.get("experiment").and_then(Json::as_str), Some("coldstart"));
        assert_eq!(json.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(json.get("neg").and_then(Json::as_f64), Some(-2000.0));
        assert_eq!(json.get("arr").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(
            json.get("nested").and_then(|n| n.get("s")).and_then(Json::as_str),
            Some("a\"b\\c\nA")
        );
    }

    #[test]
    fn parser_rejects_torn_documents() {
        for bad in [r#"{"a":1"#, "[1,2", r#"{"a"}"#, "{} trailing", r#""unterminated"#] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn keys_preserve_document_order() {
        let json = parse_json(r#"{"z":1,"a":2,"m":3}"#).expect("parses");
        assert_eq!(json.keys(), ["z", "a", "m"]);
        assert_eq!(Json::Null.keys(), Vec::<&str>::new());
    }

    #[test]
    fn num_names_its_missing_key() {
        let json = parse_json(r#"{"present":1.25}"#).expect("parses");
        assert_eq!(json.num("present"), Ok(1.25));
        assert!(json.num("absent").unwrap_err().contains("absent"));
    }
}
