//! A from-scratch lexer for the subset of Rust surface syntax the rule
//! engine needs: identifiers, literals, punctuation and comments, each
//! tagged with its 1-based source line.
//!
//! It is deliberately *not* a full Rust lexer — no token trees, no
//! macro expansion — but it gets the hard cases right that a regex
//! scanner gets wrong: nested block comments, raw strings, byte
//! strings, char literals vs. lifetimes, and float literals vs. range
//! expressions. Those are exactly the cases that make `grep`-based
//! lint rules misfire inside string fixtures and doc comments.
//!
//! The lexer scans the source's bytes. Every delimiter it looks for is
//! ASCII, so it decodes a char only at a non-ASCII byte, where Unicode
//! whitespace and identifier classes need it. Every index it stops at
//! is a char boundary: it steps over whole chars, an escape skips the
//! backslash plus one whole char, and a byte-wise scan for an ASCII
//! delimiter can only stop on that delimiter or at the end. So token
//! and comment text is one slice of the source. Punctuation text is
//! borrowed from static tables and allocates nothing; identifiers and
//! literals own theirs.

use std::borrow::Cow;

/// What a token is, at the granularity the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `fn`, `HashMap`, …).
    Ident,
    /// Lifetime such as `'a` (distinct from char literals).
    Lifetime,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e-3`, `0.5f32`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Punctuation; multi-character operators such as `==` and `!=`
    /// arrive as a single token.
    Punct,
}

/// One code token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token; punctuation borrows it from a
    /// static table.
    pub text: Cow<'static, str>,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A comment with its starting line. Doc comments are included; the
/// rules that look for `// lexlint: …` markers scan these.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment body including the `//` / `/*` introducer.
    pub text: String,
}

/// The lexed form of one source file: code tokens and comments,
/// separated so rules can pattern-match on clean token adjacency while
/// still consulting comments for suppression markers.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order (comments excluded).
    pub toks: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first so greedy matching works.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Byte `k` of this table is the ASCII char `k`.
const ASCII_BYTES: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut k = 0;
    while k < 128 {
        table[k] = k as u8;
        k += 1;
    }
    table
};

/// Every ASCII char, so a one-char punctuation token borrows its text.
const ASCII: &str = match std::str::from_utf8(&ASCII_BYTES) {
    Ok(s) => s,
    Err(_) => panic!("ASCII bytes are UTF-8"),
};

/// Lexes `src` into tokens and comments. Never fails: unexpected chars
/// are emitted as single-character punctuation so the rules always see
/// the rest of the file.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Lexed::default();
    let owned = |kind, a: usize, z: usize, line| Tok {
        kind,
        text: Cow::Owned(src[a..z].to_owned()),
        line,
    };
    let mut i = 0usize;
    let mut line = 1usize;
    while i < n {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        let ch = char_at(src, i);
        if ch.is_whitespace() {
            i += ch.len_utf8();
            continue;
        }
        // Line comments (incl. `///` and `//!`).
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let start = i;
            i = b[i..].iter().position(|&x| x == b'\n').map_or(n, |p| i + p);
            out.comments.push(Comment {
                line,
                text: src[start..i].to_owned(),
            });
            continue;
        }
        // Block comments, which nest in Rust.
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            out.comments.push(Comment {
                line: start_line,
                text: src[start..i].to_owned(),
            });
            continue;
        }
        // Raw strings r"…" / r#"…"# and their byte variants.
        if (c == b'r' || c == b'b') && is_raw_string_start(b, i) {
            let (end, newlines) = raw_string_end(b, i);
            out.toks.push(owned(TokKind::Str, i, end, line));
            line += newlines;
            i = end;
            continue;
        }
        // Plain and byte strings.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"')) {
            let start = i;
            let start_line = line;
            i += if c == b'b' { 2 } else { 1 };
            while i < n {
                match b[i] {
                    b'\\' => {
                        if b.get(i + 1) == Some(&b'\n') {
                            line += 1;
                        }
                        i += escape_len(src, i);
                    }
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.toks
                .push(owned(TokKind::Str, start, i.min(n), start_line));
            continue;
        }
        // Char literal vs. lifetime.
        if c == b'\'' || (c == b'b' && b.get(i + 1) == Some(&b'\'')) {
            let start = i;
            let mut j = i + if c == b'b' { 2 } else { 1 };
            if b.get(j) == Some(&b'\\') {
                // Escaped char literal: consume escape + closing quote.
                j += escape_len(src, j);
                while j < n && b[j] != b'\'' {
                    j += 1;
                }
                i = (j + 1).min(n);
                out.toks.push(owned(TokKind::Char, start, i, line));
                continue;
            }
            // Non-identifier single char followed by a closing quote:
            // a char literal such as `'"'`, `' '` or `'('`. (Identifier
            // chars are disambiguated against lifetimes below.)
            if j < n {
                let q = char_at(src, j);
                let after = j + q.len_utf8();
                if q != '\'' && !is_ident_char(q) && b.get(after) == Some(&b'\'') {
                    i = after + 1;
                    out.toks.push(owned(TokKind::Char, start, i, line));
                    continue;
                }
            }
            // Scan an identifier run after the quote: `'a'` is a char
            // literal; `'ident` is a lifetime (or a stray quote, lexed
            // the same).
            let k = ident_end(src, j);
            if k > j && b.get(k) == Some(&b'\'') {
                i = k + 1;
                out.toks.push(owned(TokKind::Char, start, i, line));
            } else {
                i = k;
                out.toks.push(owned(TokKind::Lifetime, start, i, line));
            }
            continue;
        }
        // Identifiers and keywords.
        if ch.is_alphabetic() || ch == '_' {
            let start = i;
            i = ident_end(src, i);
            out.toks.push(owned(TokKind::Ident, start, i, line));
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            // A digit run right after `.` is a tuple index: `p.0.1` is
            // `p . 0 . 1`, as rustc's parser splits it, not `p . 0.1`.
            let (end, kind) = if out.toks.last().is_some_and(|t| t.is_punct(".")) {
                let digits = b[i..].iter().take_while(|x| x.is_ascii_digit()).count();
                (i + digits, TokKind::Int)
            } else {
                number_end(src, i)
            };
            out.toks.push(owned(kind, i, end, line));
            i = end;
            continue;
        }
        // Multi-character operators, longest match first.
        let rest = &b[i..];
        let op = OPERATORS
            .iter()
            .find(|op| op.as_bytes()[0] == c && rest.starts_with(op.as_bytes()));
        let (text, len) = match op {
            Some(op) => (Cow::Borrowed(*op), op.len()),
            None if c.is_ascii() => {
                let k = usize::from(c);
                (Cow::Borrowed(&ASCII[k..=k]), 1)
            }
            None => (Cow::Owned(ch.to_string()), ch.len_utf8()),
        };
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text,
            line,
        });
        i += len;
    }
    out
}

/// The char starting at byte `i` of `src`, which must be a char
/// boundary; decodes only when the byte there is not ASCII.
fn char_at(src: &str, i: usize) -> char {
    let c = src.as_bytes()[i];
    if c.is_ascii() {
        char::from(c)
    } else {
        src[i..]
            .chars()
            .next()
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }
}

/// Byte length of the escape whose backslash is at `i`: the backslash
/// plus one whole char, or 2 when the backslash ends the source.
fn escape_len(src: &str, i: usize) -> usize {
    1 + src[i + 1..].chars().next().map_or(1, char::len_utf8)
}

/// Whether `c` can continue an identifier.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// End of the run of identifier chars starting at byte `i`.
fn ident_end(src: &str, mut i: usize) -> usize {
    while i < src.len() {
        let c = char_at(src, i);
        if !is_ident_char(c) {
            break;
        }
        i += c.len_utf8();
    }
    i
}

/// Whether position `i` starts a raw (possibly byte) string: `r"`,
/// `r#`, `br"`, `br#`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

/// End of the raw string starting at `i`, and how many newlines it
/// spans. An unterminated raw string runs to the end of the source.
fn raw_string_end(b: &[u8], i: usize) -> (usize, usize) {
    let n = b.len();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let mut newlines = 0;
    while j < n {
        if b[j] == b'\n' {
            newlines += 1;
        } else if b[j] == b'"' {
            // Need `hashes` trailing #s to close.
            let seen = b[j + 1..]
                .iter()
                .take(hashes)
                .take_while(|&&x| x == b'#')
                .count();
            if seen == hashes {
                return (j + 1 + hashes, newlines);
            }
        }
        j += 1;
    }
    (n, newlines)
}

/// End and kind of the number starting at `i`; distinguishes ints from
/// floats, treating `0..n` as int + range rather than a malformed float.
fn number_end(src: &str, i: usize) -> (usize, TokKind) {
    let b = src.as_bytes();
    let n = b.len();
    let digits_end = |mut j: usize| {
        while j < n && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
        j
    };
    // Hex/octal/binary prefixes are always ints.
    if b[i] == b'0' && matches!(b.get(i + 1), Some(b'x' | b'o' | b'b')) {
        let mut j = i + 2;
        while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        return (j, TokKind::Int);
    }
    let mut is_float = false;
    let mut j = digits_end(i);
    // Fractional part — but not `..` (range) and not `.method()`.
    if b.get(j) == Some(&b'.') {
        let is_range = b.get(j + 1) == Some(&b'.');
        let is_method = j + 1 < n && {
            let c = char_at(src, j + 1);
            c.is_alphabetic() || c == '_'
        };
        if !is_range && !is_method {
            is_float = true;
            j = digits_end(j + 1);
        }
    }
    // Exponent.
    if matches!(b.get(j), Some(b'e' | b'E')) {
        let mut k = j + 1;
        if matches!(b.get(k), Some(b'+' | b'-')) {
            k += 1;
        }
        if b.get(k).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            j = digits_end(k);
        }
    }
    // Type suffix (`f64` marks a float, `u32` an int).
    if j < n {
        let c = char_at(src, j);
        if c.is_alphabetic() || c == '_' {
            let suffix = j;
            j = ident_end(src, j);
            if matches!(&src[suffix..j], "f32" | "f64") {
                is_float = true;
            }
        }
    }
    let kind = if is_float {
        TokKind::Float
    } else {
        TokKind::Int
    };
    (j, kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text.into_owned()))
            .collect()
    }

    #[test]
    fn distinguishes_lifetimes_from_chars() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(ks.contains(&(TokKind::Lifetime, "'a".into())));
        assert!(ks.contains(&(TokKind::Char, "'x'".into())));
    }

    #[test]
    fn punctuation_char_literals_do_not_open_strings() {
        // `'"'` once desynced the lexer into treating the rest of the
        // file as a string; keep a regression test for each shape.
        let ks = kinds("match c { '\"' => 1, ' ' => 2, '(' => 3, _ => x.unwrap() }");
        assert!(ks.contains(&(TokKind::Char, "'\"'".into())));
        assert!(ks.contains(&(TokKind::Char, "' '".into())));
        assert!(ks.contains(&(TokKind::Char, "'('".into())));
        assert!(ks.contains(&(TokKind::Ident, "unwrap".into())));
    }

    #[test]
    fn range_is_not_a_float() {
        let ks = kinds("for i in 0..10 { let x = 1.5; }");
        assert!(ks.contains(&(TokKind::Int, "0".into())));
        assert!(ks.contains(&(TokKind::Punct, "..".into())));
        assert!(ks.contains(&(TokKind::Float, "1.5".into())));
    }

    #[test]
    fn int_method_call_is_not_a_float() {
        let ks = kinds("let x = 1.max(2);");
        assert!(ks.contains(&(TokKind::Int, "1".into())));
        assert!(ks.contains(&(TokKind::Ident, "max".into())));
    }

    #[test]
    fn nested_tuple_index_is_not_a_float() {
        let ks = kinds("p.0.1 == q.2");
        let want = [
            (TokKind::Ident, "p"),
            (TokKind::Punct, "."),
            (TokKind::Int, "0"),
            (TokKind::Punct, "."),
            (TokKind::Int, "1"),
            (TokKind::Punct, "=="),
            (TokKind::Ident, "q"),
            (TokKind::Punct, "."),
            (TokKind::Int, "2"),
        ];
        let want: Vec<(TokKind, String)> = want.iter().map(|&(k, t)| (k, t.into())).collect();
        assert_eq!(ks, want);
        assert!(kinds("p.0 == 0.5").contains(&(TokKind::Float, "0.5".into())));
    }

    #[test]
    fn trailing_dot_float() {
        let ks = kinds("let x = 1. + 2.0f64;");
        assert!(ks.contains(&(TokKind::Float, "1.".into())));
        assert!(ks.contains(&(TokKind::Float, "2.0f64".into())));
    }

    #[test]
    fn comments_do_not_produce_code_tokens() {
        let lexed = lex("// has unwrap() inside\nlet x = 1; /* expect( */");
        assert!(!lexed.toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* a /* b */ c */ let x = 1;");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.toks.iter().any(|t| t.is_ident("let")));
    }

    #[test]
    fn raw_strings_swallow_quotes() {
        let lexed = lex(r####"let s = r#"has "quotes" and unwrap()"#; let y = 2;"####);
        assert!(!lexed.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(lexed.toks.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn equality_operators_are_single_tokens() {
        let ks = kinds("a == b != c <= d");
        assert!(ks.contains(&(TokKind::Punct, "==".into())));
        assert!(ks.contains(&(TokKind::Punct, "!=".into())));
        assert!(ks.contains(&(TokKind::Punct, "<=".into())));
    }

    #[test]
    fn lines_are_tracked_across_strings() {
        let lexed = lex("let a = \"x\ny\";\nlet b = 1;");
        let b = lexed.toks.iter().find(|t| t.is_ident("b")).map(|t| t.line);
        assert_eq!(b, Some(3));
    }

    /// An expected token: kind, text and line.
    type Expected = (TokKind, &'static str, usize);

    #[test]
    fn byte_indexing_hazards() {
        use TokKind::*;
        let cases: &[(&str, &[Expected])] = &[
            // Non-ASCII identifiers and punctuation.
            ("café", &[(Ident, "café", 1)]),
            ("λx", &[(Ident, "λx", 1)]),
            ("a→b", &[(Ident, "a", 1), (Punct, "→", 1), (Ident, "b", 1)]),
            // Unicode and ASCII-edge whitespace; U+0085 is not a newline.
            ("a\u{a0}b", &[(Ident, "a", 1), (Ident, "b", 1)]),
            ("a\u{85}b", &[(Ident, "a", 1), (Ident, "b", 1)]),
            ("a\x0bb", &[(Ident, "a", 1), (Ident, "b", 1)]),
            // An escape before a multibyte char.
            ("\"\\é\" x", &[(Str, "\"\\é\"", 1), (Ident, "x", 1)]),
            ("'\\é' x", &[(Char, "'\\é'", 1), (Ident, "x", 1)]),
            // Multibyte char literals are chars, not lifetimes.
            ("'λ'", &[(Char, "'λ'", 1)]),
            ("'💥'", &[(Char, "'💥'", 1)]),
            ("'a", &[(Lifetime, "'a", 1)]),
            // Truncated input at EOF.
            ("x \\", &[(Ident, "x", 1), (Punct, "\\", 1)]),
            ("\"a\\", &[(Str, "\"a\\", 1)]),
            ("\"a\nb", &[(Str, "\"a\nb", 1)]),
            ("r#\"a\"", &[(Str, "r#\"a\"", 1)]),
            ("x /* a /* b */", &[(Ident, "x", 1)]),
            ("/* é\n*/ y", &[(Ident, "y", 2)]),
        ];
        for (src, want) in cases {
            let got: Vec<(TokKind, String, usize)> = lex(src)
                .toks
                .into_iter()
                .map(|t| (t.kind, t.text.into_owned(), t.line))
                .collect();
            let want: Vec<(TokKind, String, usize)> = want
                .iter()
                .map(|&(k, t, l)| (k, t.to_string(), l))
                .collect();
            assert_eq!(got, want, "lexing {src:?}");
        }
    }

    #[test]
    fn unterminated_block_comment_runs_to_eof() {
        let lexed = lex("x /* a /* b */ é");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].text, "/* a /* b */ é");
    }

    #[test]
    fn hostile_inputs_never_panic_and_keep_lines_ordered() {
        const ALPHABET: &[&str] = &[
            "\"", "'", "\\", "r#", "r\"", "br\"", "b'", "#", "/*", "*/", "//", "0", "7", ".", "..",
            "e", "_", "x", "é", "λ", "💥", "→", "\u{a0}", "\u{85}", "\n", " ", "=",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..100_000 {
            let len = next() % 32;
            let src: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                .collect();
            let lexed = lex(&src);
            let mut line = 1;
            for t in &lexed.toks {
                assert!(!t.text.is_empty(), "empty token lexing {src:?}");
                assert!(t.line >= line, "line went back lexing {src:?}");
                line = t.line;
            }
        }
    }
}
