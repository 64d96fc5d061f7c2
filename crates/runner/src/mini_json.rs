//! A minimal JSON value model, parser and string/number formatting:
//! the workspace's only JSON codec. It reads and writes the sweep
//! journal ([`crate::journal`]), `EpisodeReport` checkpoints and
//! reports, the `lexlint` incremental cache and the `lexcache-obs`
//! trace exports, with no JSON crate (the workspace has no external
//! dependencies).
//!
//! Objects preserve insertion order in a `Vec` of pairs — no hashed
//! containers anywhere near a reduction path — and non-finite numbers
//! encode as `null`, mirroring the `lexcache-obs` encoder's rules.
//!
//! Resume parses every journaled payload, so the parser copies a
//! string's unescaped runs as whole slices, reads short plain decimals
//! exactly without `str::parse`, and caps nesting at 128 levels so a
//! hostile document is an `Err`, not a stack overflow.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` as a JSON string literal, including the quotes.
///
/// Runs of bytes that need no escape are copied with one `push_str`;
/// every byte that does is ASCII, so each run ends on a char boundary.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
    out
}

/// Formats a float as a JSON number; non-finite values become `null`
/// (matching the `lexcache-obs` encoder).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` prints integral floats without a fractional part; keep
        // the `.0` so the value re-parses as the same token shape.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Deepest array/object nesting [`parse`] accepts. Far above any
/// schema the workspace writes; past it `parse` returns `Err` instead
/// of recursing until the stack overflows.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Powers of ten that are exact in an `f64`, as far as a fast-path
/// token can need them: 10^0 ..= 10^15.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Clinger's fast path for a number token `-?digits(.digits)?` (`5.`
/// too, which `str::parse` also reads) of at most 17 bytes after the
/// sign: when its digits, read as one integer, are at most 2^53,
/// `mantissa / 10^frac` divides two exact `f64`s and so is correctly
/// rounded — bit for bit what `str::parse` gives. `None` for any other
/// token; a longer one, such as a 17-significant-digit average, is
/// turned away by its length before a digit is read.
fn exact_decimal(token: &[u8]) -> Option<f64> {
    let (negative, digits) = match token {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, token),
    };
    if digits.len() > 17 || !digits.first().is_some_and(u8::is_ascii_digit) {
        return None;
    }
    // At most 17 digits: the mantissa stays below 10^17, far from overflow.
    let mut mantissa: u64 = 0;
    let mut point = None;
    for (i, &b) in digits.iter().enumerate() {
        match b {
            b'0'..=b'9' => mantissa = mantissa * 10 + u64::from(b - b'0'),
            b'.' if point.is_none() => point = Some(i),
            _ => return None,
        }
    }
    if mantissa > 1 << 53 {
        return None;
    }
    let frac = point.map_or(0, |i| digits.len() - i - 1);
    let v = mantissa as f64 / POW10.get(frac)?;
    Some(if negative { -v } else { v })
}

struct Parser<'a> {
    /// The document; `bytes` is its byte view. Keeping the `&str`
    /// lets a string run be copied as a slice without re-validation.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected byte {other:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            self.pos += self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.src[run..self.pos]);
            let quote = self.bytes[self.pos] == b'"';
            self.pos += 1;
            if quote {
                return Ok(out);
            }
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let mut code = 0;
                    for &h in hex {
                        let digit = char::from(h).to_digit(16).ok_or("bad \\u escape")?;
                        code = code * 16 + digit;
                    }
                    self.pos += 4;
                    // Surrogates are not paired up: the bench schema
                    // never emits them.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                other => return Err(format!("bad escape {other:?} at offset {}", self.pos)),
            });
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        exact_decimal(text.as_bytes())
            .or_else(|| text.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number {text:?} at offset {start}"))
    }

    /// Counts one more open array or object; `Err` past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']' but got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}' but got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse(" true "), Ok(Value::Bool(true)));
        assert_eq!(parse("false"), Ok(Value::Bool(false)));
        assert_eq!(parse("-12.5e2"), Ok(Value::Num(-1250.0)));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::Str("a\nb".to_string())));
        assert_eq!(parse("\"\\u0041\""), Ok(Value::Str("A".to_string())));
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = parse(r#"{"b": [1, 2.5, {"x": null}], "a": "s"}"#).expect("valid");
        match &v {
            Value::Obj(pairs) => {
                assert_eq!(pairs[0].0, "b");
                assert_eq!(pairs[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
        let arr = v.get("b").and_then(Value::as_array).expect("array");
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("x"), Some(&Value::Null));
        assert_eq!(v.get("a").and_then(Value::as_str), Some("s"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\" 1}",
            "1 2",
            "\"open",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u04\"",
            "\"\\u00é\"",
            "\"\\x\"",
            "-",
            "-.",
            "1.2.3",
            "1e",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn number_shapes_outside_json_still_parse_as_rust_floats() {
        // `parse` hands any `-?[0-9.eE+-]*` token to `str::parse`, so it
        // takes a few shapes JSON itself does not; the fast path must
        // leave exactly those intact.
        for (text, want) in [("5.", 5.0), ("-.5", -0.5), ("007", 7.0), ("1E+2", 100.0)] {
            assert_eq!(parse(text), Ok(Value::Num(want)), "{text}");
        }
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1, "[", "]")).is_err());
        assert!(parse(&nested(MAX_DEPTH, "{\"k\":", "}")).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1, "{\"k\":", "}")).is_err());
        // Unbounded recursion used to abort the process here.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse(&"[".repeat(100_000)).is_err())
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        assert!(deep, "100k-deep document is rejected");
    }

    /// Seeded xorshift64 stream for the property loops below.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn number_fast_path_matches_str_parse_bit_for_bit() {
        let check = |text: &str| {
            let want = text.parse::<f64>().expect("valid float");
            match parse(text) {
                Ok(Value::Num(got)) => assert_eq!(got.to_bits(), want.to_bits(), "{text}"),
                other => panic!("{text}: {other:?}"),
            }
        };
        for text in [
            "0",
            "-0",
            "-0.0",
            "0.000",
            "123456789012345",
            "1234567890123456",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
            "99999999999999999",
            "00000000000000001",
            "0.123456789012345",
            "0.1234567890123456",
            "-9.999999999999999",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "1.0000000000000000000001",
            "1.00000000000000000000001",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0.3",
            "2.675",
            "5.",
        ] {
            check(text);
        }
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let mut text = String::new();
        for _ in 0..200_000 {
            text.clear();
            // Every fourth string is mostly zeros, so long fractions
            // still reach the fast path with a small mantissa.
            let sparse = next().is_multiple_of(4);
            let digit = |next: &mut dyn FnMut() -> u64| {
                let d = if sparse && !next().is_multiple_of(8) {
                    0
                } else {
                    next() % 10
                };
                char::from(b'0' + d as u8)
            };
            if next().is_multiple_of(2) {
                text.push('-');
            }
            for _ in 0..1 + next() % 17 {
                text.push(digit(&mut next));
            }
            if !next().is_multiple_of(4) {
                text.push('.');
                // A bare trailing dot (`5.`) is a Rust float too.
                for _ in 0..next() % 24 {
                    text.push(digit(&mut next));
                }
            }
            check(&text);
        }
    }

    #[test]
    fn quote_then_parse_returns_the_string() {
        const PIECES: &[&str] = &[
            "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}",
            "é", "→", "世", "💥", "\u{fffd}", "abcdefgh",
        ];
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        for _ in 0..50_000 {
            let len = next() % 40;
            let s: String = (0..len)
                .map(|_| PIECES[(next() % PIECES.len() as u64) as usize])
                .collect();
            let quoted = quote(&s);
            assert_eq!(parse(&quoted), Ok(Value::Str(s.clone())), "{quoted}");
        }
    }

    #[test]
    fn byte_soup_never_panics() {
        const ALPHABET: &[u8] = b"[]{}\",:\\/-+.eE0179tfnulrsabu \n\t";
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.clear();
            for _ in 0..next() % 48 {
                let r = next();
                // Mostly JSON punctuation, sometimes any byte at all.
                bytes.push(if r.is_multiple_of(8) {
                    (r >> 8) as u8
                } else {
                    ALPHABET[(r >> 8) as usize % ALPHABET.len()]
                });
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let v = parse("\"héllo → 世界\"").expect("valid");
        assert_eq!(v.as_str(), Some("héllo → 世界"));
        let quoted = quote("héllo → 世界");
        let back = parse(&quoted).expect("re-parses");
        assert_eq!(back.as_str(), Some("héllo → 世界"));
    }

    #[test]
    fn quote_escapes_controls() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(
            quote("é\u{1f}\t→\r\u{7f}x"),
            "\"é\\u001f\\t→\\r\u{7f}x\"",
            "runs around escapes are copied whole; DEL is not escaped"
        );
    }

    #[test]
    fn fmt_f64_always_reparses() {
        for v in [0.0, 1.0, -3.25, 1e9, 123.456] {
            let text = fmt_f64(v);
            let back = parse(&text).expect("number re-parses").as_f64();
            assert_eq!(back, Some(v), "{text}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(2.0), "2.0", "integral floats keep the dot");
    }
}
