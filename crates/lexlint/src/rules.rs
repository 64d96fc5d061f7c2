//! The per-file token rules LX01–LX06 (the symbol-aware rules LX07–
//! LX12 live in [`crate::xrules`]), applied to one lexed file at a
//! time.
//!
//! | rule | invariant |
//! |------|-----------|
//! | LX01 | no `.unwrap()` / `.expect(…)` in library code (bins, `main.rs`, `build.rs` and `#[cfg(test)]` modules are exempt) |
//! | LX02 | no NaN-swallowing float ordering: `partial_cmp` chained into `unwrap_or(Ordering::Equal)`, `unwrap()` or `expect(…)` — use `f64::total_cmp` or the `lexcache_core::float_ord` helpers |
//! | LX03 | no default-hasher `HashMap` / `HashSet` in configured simulation/decision-path directories — iteration order follows a randomized hasher; use `BTreeMap` / `BTreeSet` |
//! | LX04 | no unseeded RNG (`thread_rng`, `rand::rng()`, `from_entropy`) outside `#[cfg(test)]` modules |
//! | LX05 | every `#[allow(…)]` / `#![allow(…)]` carries a `// lexlint: why …` justification on the same or preceding line |
//! | LX06 | no `==` / `!=` where either side is a float literal or a float constant path (`f64::NAN`, `f32::INFINITY`, …) |
//!
//! A finding on line `L` is suppressed by a comment on `L` or `L-1` of
//! the form `// lexlint: allow(LXnn): reason`, or by a matching
//! `[[allow]]` entry in `lexlint.toml`. Both require a reason.

use crate::config::Config;
use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// Every rule id this engine knows, in report order.
pub const RULE_IDS: &[&str] = &[
    "LX01", "LX02", "LX03", "LX04", "LX05", "LX06", "LX07", "LX08", "LX09", "LX10", "LX11", "LX12",
];

/// Resolves a rule-id string to its canonical `&'static str` (used
/// when findings are re-hydrated from the lint cache).
pub fn rule_id(name: &str) -> Option<&'static str> {
    RULE_IDS.iter().copied().find(|r| *r == name)
}

/// Report severity of a rule: advisory rules (justification-style,
/// where the fix is a comment) are warnings, the rest are errors.
/// Every finding fails the run either way — severity feeds CI
/// annotation levels, not the exit code.
pub fn severity(rule: &str) -> &'static str {
    match rule {
        "LX05" | "LX11" => "warning",
        _ => "error",
    }
}

/// A machine-applicable replacement on the finding's line: substitute
/// the first occurrence of `find` with `replace`. Only attached when
/// the rewrite is provably behavior-preserving (`--fix` applies them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// Exact substring of the source line to replace.
    pub find: String,
    /// Replacement text.
    pub replace: String,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `"LX02"`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The trimmed source line.
    pub snippet: String,
    /// A one-line suggested fix.
    pub hint: &'static str,
    /// Machine-applicable fix, when the rewrite is mechanical.
    pub suggestion: Option<Suggestion>,
}

/// How a file participates in the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source: all rules apply.
    Lib,
    /// Binary targets (`src/bin/**`, `main.rs`, `build.rs`): exempt
    /// from LX01 (panicking at the top level is fine).
    Bin,
}

/// Classifies a workspace-relative path.
pub fn role_of(file: &str) -> FileRole {
    let name = file.rsplit('/').next().unwrap_or(file);
    if file.contains("/bin/") || name == "main.rs" || name == "build.rs" {
        FileRole::Bin
    } else {
        FileRole::Lib
    }
}

/// Checks one file's source text; returns surviving findings (inline
/// and config suppressions already applied).
pub fn check_file(file: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    check_lexed(file, src, &lex(src), cfg)
}

/// [`check_file`] on an already-lexed file — the engine lexes once and
/// shares the token stream between this pass and [`crate::xrules`].
pub fn check_lexed(file: &str, src: &str, lexed: &Lexed, cfg: &Config) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let role = role_of(file);
    let test_regions = test_mod_regions(&lexed.toks);
    let in_test = |line: usize| test_regions.iter().any(|&(a, b)| line >= a && line <= b);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push =
        |rule: &'static str, line: usize, hint: &'static str, sug: Option<Suggestion>| {
            let snippet = lines
                .get(line.saturating_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default();
            raw.push(Finding {
                rule,
                file: file.to_string(),
                line,
                snippet,
                hint,
                suggestion: sug,
            });
        };

    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Ident => {
                // LX01: `.unwrap()` / `.expect(` in library code.
                if role == FileRole::Lib
                    && !in_test(t.line)
                    && (t.text == "unwrap" || t.text == "expect")
                    && prev_is_dot(toks, i)
                    && next_is(toks, i, "(")
                {
                    push(
                        "LX01",
                        t.line,
                        "handle the None/Err arm explicitly (match / let-else / unwrap_or_else), or allowlist with a reason",
                        None,
                    );
                }
                // LX02: NaN-swallowing chains off partial_cmp.
                if t.text == "partial_cmp" && next_is(toks, i, "(") {
                    if let Some(line) = nan_unsafe_chain(toks, i) {
                        push(
                            "LX02",
                            line,
                            "use f64::total_cmp (or lexcache_core::float_ord::total_cmp_f64) so NaNs order deterministically",
                            None,
                        );
                    }
                }
                // LX03: default-hasher maps on the decision path.
                if (t.text == "HashMap" || t.text == "HashSet")
                    && cfg.lx03_applies(file)
                    && !in_test(t.line)
                {
                    // Mechanical rewrite: the BTree twins live in
                    // std::collections too, so even `use` lines fix up.
                    let replace = if t.text == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    push(
                        "LX03",
                        t.line,
                        "use BTreeMap/BTreeSet (or an explicitly seeded hasher) — default-hasher iteration order is randomized per process",
                        Some(Suggestion {
                            find: t.text.to_string(),
                            replace: replace.to_string(),
                        }),
                    );
                }
                // LX04: unseeded randomness outside tests.
                if !in_test(t.line) {
                    let unseeded = t.text == "thread_rng"
                        || t.text == "from_entropy"
                        || (t.text == "rng"
                            && i >= 2
                            && toks[i - 1].is_punct("::")
                            && toks[i - 2].is_ident("rand")
                            && next_is(toks, i, "("));
                    if unseeded {
                        push(
                            "LX04",
                            t.line,
                            "seed the generator from the episode/config seed (e.g. StdRng::seed_from_u64) so runs are reproducible",
                            None,
                        );
                    }
                }
                // LX05: unjustified #[allow(...)].
                if t.text == "allow"
                    && next_is(toks, i, "(")
                    && is_attribute_head(toks, i)
                    && !has_why_comment(&lexed.comments, attribute_line(toks, i))
                {
                    push(
                        "LX05",
                        t.line,
                        "add `// lexlint: why <reason>` on the same or preceding line, or remove the allow",
                        None,
                    );
                }
            }
            // LX06: float equality.
            TokKind::Punct if (t.text == "==" || t.text == "!=") && float_operand(toks, i) => {
                push(
                    "LX06",
                    t.line,
                    "compare with an explicit tolerance, use total_cmp, or justify with `// lexlint: allow(LX06): <reason>`",
                    None,
                );
            }
            _ => {}
        }
    }

    raw.into_iter()
        .filter(|f| !inline_suppressed(&lexed.comments, f))
        .filter(|f| !cfg.is_allowed(f.rule, &f.file, &f.snippet))
        .collect()
}

/// The canonical hint text for a rule — used to re-hydrate cached
/// findings without storing the (static) hint per entry.
pub fn hint_for(rule: &str) -> &'static str {
    match rule {
        "LX01" => "handle the None/Err arm explicitly (match / let-else / unwrap_or_else), or allowlist with a reason",
        "LX02" => "use f64::total_cmp (or lexcache_core::float_ord::total_cmp_f64) so NaNs order deterministically",
        "LX03" => "use BTreeMap/BTreeSet (or an explicitly seeded hasher) — default-hasher iteration order is randomized per process",
        "LX04" => "seed the generator from the episode/config seed (e.g. StdRng::seed_from_u64) so runs are reproducible",
        "LX05" => "add `// lexlint: why <reason>` on the same or preceding line, or remove the allow",
        "LX06" => "compare with an explicit tolerance, use total_cmp, or justify with `// lexlint: allow(LX06): <reason>`",
        "LX07" => "route timing through obs::Stopwatch — the raw clock boundary is crates/runner/src/clock.rs (lexlint.toml [lx07])",
        "LX08" => "drop or narrow the held MutexGuard before acquiring another lock or waiting — nested guards deadlock pool-shaped code",
        "LX09" => "use the scoped pool (lexcache_runner::map_indexed / run_robust) instead of raw std::thread::spawn",
        "LX10" => "read configuration through bench::cli::env_var so every knob is a visible, reproducible input",
        "LX11" => "a Relaxed load feeding a branch needs `// lexlint: why <reason>` (or a stronger ordering)",
        "LX12" => "route results/ writes through lexcache_runner::atomic_write (temp + rename) so readers never see a torn file",
        _ => "see the lexlint rules table in README.md",
    }
}

/// Whether the token before `i` is a `.` (method-call position).
pub(crate) fn prev_is_dot(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_punct(".")
}

/// Whether the token after `i` is the punct `p`.
pub(crate) fn next_is(toks: &[Tok], i: usize, p: &str) -> bool {
    toks.get(i + 1).map(|t| t.is_punct(p)).unwrap_or(false)
}

/// From a `partial_cmp` at `i`, scans the rest of the method chain for
/// a NaN-swallowing continuation. Returns the line to report.
fn nan_unsafe_chain(toks: &[Tok], i: usize) -> Option<usize> {
    // Skip the argument list of partial_cmp itself.
    let mut j = i + 1; // at '('
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct("(") {
            depth += 1;
        } else if toks[j].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        }
        j += 1;
    }
    // Now inspect the continuation: a chain of `.method(...)` calls.
    let window_end = (j + 40).min(toks.len());
    let mut k = j;
    while k < window_end {
        if !toks.get(k).map(|t| t.is_punct(".")).unwrap_or(false) {
            return None; // chain ended without a bad continuation
        }
        let m = toks.get(k + 1)?;
        if m.kind != TokKind::Ident {
            return None;
        }
        match &*m.text {
            "unwrap" | "expect" => return Some(m.line),
            "unwrap_or" | "unwrap_or_else" => {
                // Bad iff the fallback is Ordering::Equal.
                let mut d = 0i32;
                for t in toks.iter().take((k + 2 + 20).min(toks.len())).skip(k + 2) {
                    if t.is_punct("(") {
                        d += 1;
                    } else if t.is_punct(")") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    } else if t.is_ident("Equal") {
                        return Some(m.line);
                    }
                }
                return None;
            }
            _ => {
                // Some other adapter (`map`, `unwrap_or_else`, …): skip
                // its argument list and keep walking the chain.
                let mut d = 0i32;
                let mut p = k + 2;
                if !toks.get(p).map(|t| t.is_punct("(")).unwrap_or(false) {
                    return None; // field access or ?; not a call chain
                }
                while p < toks.len() {
                    if toks[p].is_punct("(") {
                        d += 1;
                    } else if toks[p].is_punct(")") {
                        d -= 1;
                        if d == 0 {
                            p += 1;
                            break;
                        }
                    }
                    p += 1;
                }
                k = p;
            }
        }
    }
    None
}

/// Whether `toks[i]` (`allow`) sits directly inside an attribute:
/// `# [ allow (` or `# ! [ allow (`.
fn is_attribute_head(toks: &[Tok], i: usize) -> bool {
    if i >= 2 && toks[i - 1].is_punct("[") && toks[i - 2].is_punct("#") {
        return true;
    }
    i >= 3 && toks[i - 1].is_punct("[") && toks[i - 2].is_punct("!") && toks[i - 3].is_punct("#")
}

/// Line of the `#` that opens the attribute containing `toks[i]`.
fn attribute_line(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    while j > 0 && !toks[j].is_punct("#") {
        j -= 1;
    }
    toks[j].line
}

/// Whether either operand adjacent to the `==`/`!=` at `i` is a float:
/// a float literal, or a `f64::CONST` / `f32::CONST` path.
fn float_operand(toks: &[Tok], i: usize) -> bool {
    // Right side: first token of RHS (skipping a unary minus).
    if let Some(r) = toks.get(i + 1) {
        if r.kind == TokKind::Float {
            return true;
        }
        if r.is_punct("-")
            && toks
                .get(i + 2)
                .map(|t| t.kind == TokKind::Float)
                .unwrap_or(false)
        {
            return true;
        }
        if (r.is_ident("f64") || r.is_ident("f32"))
            && toks.get(i + 2).map(|t| t.is_punct("::")).unwrap_or(false)
        {
            return true;
        }
    }
    // Left side: last token of LHS.
    if i > 0 {
        let l = &toks[i - 1];
        if l.kind == TokKind::Float {
            return true;
        }
        // `f64::NAN == x`: tokens `f64` `::` `NAN` `==`.
        if l.kind == TokKind::Ident
            && i >= 3
            && toks[i - 2].is_punct("::")
            && (toks[i - 3].is_ident("f64") || toks[i - 3].is_ident("f32"))
        {
            return true;
        }
    }
    false
}

/// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
pub(crate) fn test_mod_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip this attribute and any further attributes.
            let mut j = skip_attribute(toks, i);
            while toks.get(j).map(|t| t.is_punct("#")).unwrap_or(false) {
                j = skip_attribute(toks, j);
            }
            // `mod name {` or `pub mod name {` etc.
            let mut k = j;
            while toks
                .get(k)
                .map(|t| t.kind == TokKind::Ident && t.text != "mod")
                .unwrap_or(false)
            {
                k += 1;
            }
            if toks.get(k).map(|t| t.is_ident("mod")).unwrap_or(false) {
                // Find the opening brace, then its match.
                let mut b = k;
                while b < toks.len() && !toks[b].is_punct("{") && !toks[b].is_punct(";") {
                    b += 1;
                }
                if b < toks.len() && toks[b].is_punct("{") {
                    let start_line = toks[i].line;
                    let mut depth = 0i32;
                    let mut e = b;
                    while e < toks.len() {
                        if toks[e].is_punct("{") {
                            depth += 1;
                        } else if toks[e].is_punct("}") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        e += 1;
                    }
                    let end_line = toks.get(e).map(|t| t.line).unwrap_or(usize::MAX);
                    regions.push((start_line, end_line));
                    i = e + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    regions
}

/// Whether `toks[i]` starts a `#[cfg(test)]`-style attribute (also
/// matches `cfg(any(test, …))` / `cfg(all(test, …))`).
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    if !toks[i].is_punct("#") {
        return false;
    }
    let j = if toks.get(i + 1).map(|t| t.is_punct("!")).unwrap_or(false) {
        i + 2
    } else {
        i + 1
    };
    if !toks.get(j).map(|t| t.is_punct("[")).unwrap_or(false) {
        return false;
    }
    if !toks.get(j + 1).map(|t| t.is_ident("cfg")).unwrap_or(false) {
        return false;
    }
    // Scan the attribute body for the bare ident `test`.
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        if toks[k].is_punct("[") {
            depth += 1;
        } else if toks[k].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth > 0 && toks[k].is_ident("test") {
            // `cfg(not(test))` guards non-test code — not a test region.
            let negated = k >= 2 && toks[k - 1].is_punct("(") && toks[k - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
        k += 1;
    }
    false
}

/// Returns the index just past the attribute starting at `toks[i]`
/// (which must be `#`).
fn skip_attribute(toks: &[Tok], i: usize) -> usize {
    let mut k = i;
    let mut depth = 0i32;
    while k < toks.len() {
        if toks[k].is_punct("[") {
            depth += 1;
        } else if toks[k].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Whether a `// lexlint: why …` comment sits on `line` or `line-1`.
pub(crate) fn has_why_comment(comments: &[Comment], line: usize) -> bool {
    comments.iter().any(|c| {
        (c.line == line || c.line + 1 == line)
            && c.text.contains("lexlint: why")
            && justification_after(&c.text, "lexlint: why")
    })
}

/// Whether a finding is suppressed by `// lexlint: allow(LXnn): …` on
/// its own or the preceding line.
pub(crate) fn inline_suppressed(comments: &[Comment], f: &Finding) -> bool {
    let marker = format!("lexlint: allow({})", f.rule);
    comments.iter().any(|c| {
        (c.line == f.line || c.line + 1 == f.line)
            && c.text.contains(&marker)
            && justification_after(&c.text, &marker)
    })
}

/// Whether non-trivial justification text follows `marker` in `text`.
fn justification_after(text: &str, marker: &str) -> bool {
    text.split(marker)
        .nth(1)
        .map(|rest| {
            rest.trim_start_matches([':', ')', '-', '—', ' '])
                .chars()
                .filter(|c| c.is_alphanumeric())
                .count()
                >= 3
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(file: &str, src: &str) -> Vec<&'static str> {
        let cfg = Config::default();
        check_file(file, src, &cfg)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    fn findings_with(file: &str, src: &str, cfg: &Config) -> Vec<&'static str> {
        check_file(file, src, cfg)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn lx01_flags_lib_unwrap_but_not_bins_or_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(findings("crates/a/src/lib.rs", src), vec!["LX01"]);
        assert!(findings("crates/a/src/bin/tool.rs", src).is_empty());
        assert!(findings("src/main.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}";
        assert!(findings("crates/a/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn lx01_does_not_flag_unwrap_or() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
        assert!(findings("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lx02_flags_equal_fallback_and_unwrap() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }";
        assert_eq!(findings("crates/a/src/bin/tool.rs", src), vec!["LX02"]);
        let src2 = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }";
        // Lib code: both LX01 (unwrap) and LX02 (NaN-unsafe) fire.
        let got = findings("crates/a/src/lib.rs", src2);
        assert!(got.contains(&"LX01") && got.contains(&"LX02"));
    }

    #[test]
    fn lx02_accepts_proper_option_handling() {
        let src = "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }";
        assert!(findings("crates/a/src/lib.rs", src).is_empty());
        let src2 = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(findings("crates/a/src/lib.rs", src2).is_empty());
    }

    #[test]
    fn lx03_only_fires_on_configured_paths() {
        let cfg = crate::config::parse("[lx03]\npaths = [\"crates/core/src\"]\n").unwrap();
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        assert_eq!(
            findings_with("crates/core/src/cache.rs", src, &cfg),
            vec!["LX03", "LX03", "LX03"]
        );
        assert!(findings_with("crates/neural/src/lstm.rs", src, &cfg).is_empty());
    }

    #[test]
    fn lx04_flags_thread_rng_and_rand_rng() {
        assert_eq!(
            findings(
                "crates/a/src/lib.rs",
                "fn f() { let mut r = rand::thread_rng(); }"
            ),
            vec!["LX04"]
        );
        assert_eq!(
            findings("crates/a/src/lib.rs", "fn f() { let mut r = rand::rng(); }"),
            vec!["LX04"]
        );
        // Seeded construction is fine.
        assert!(findings(
            "crates/a/src/lib.rs",
            "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); }"
        )
        .is_empty());
        // `self.rng()` accessor is not `rand::rng()`.
        assert!(findings("crates/a/src/lib.rs", "fn f(&self) { self.rng().next(); }").is_empty());
    }

    #[test]
    fn lx05_requires_why_comment() {
        let bad = "#[allow(dead_code)]\nfn f() {}";
        assert_eq!(findings("crates/a/src/lib.rs", bad), vec!["LX05"]);
        let good = "// lexlint: why benchmark scaffolding kept for the next PR\n#[allow(dead_code)]\nfn f() {}";
        assert!(findings("crates/a/src/lib.rs", good).is_empty());
        let good_same_line = "#[allow(dead_code)] // lexlint: why kept for API parity\nfn f() {}";
        assert!(findings("crates/a/src/lib.rs", good_same_line).is_empty());
    }

    #[test]
    fn lx06_flags_float_literal_comparison() {
        assert_eq!(
            findings("crates/a/src/lib.rs", "fn f(x: f64) -> bool { x == 0.0 }"),
            vec!["LX06"]
        );
        assert_eq!(
            findings("crates/a/src/lib.rs", "fn f(x: f64) -> bool { 1.5 != x }"),
            vec!["LX06"]
        );
        assert_eq!(
            findings(
                "crates/a/src/lib.rs",
                "fn f(x: f64) -> bool { x == f64::INFINITY }"
            ),
            vec!["LX06"]
        );
        // A unary minus must not hide the float literal.
        assert_eq!(
            findings("crates/a/src/lib.rs", "fn f(x: f64) -> bool { x == -1.0 }"),
            vec!["LX06"]
        );
        // Integer comparisons are fine.
        assert!(findings("crates/a/src/lib.rs", "fn f(x: usize) -> bool { x == 0 }").is_empty());
    }

    #[test]
    fn inline_allow_with_reason_suppresses() {
        let src = "fn f(x: f64) -> bool {\n  // lexlint: allow(LX06): exact zero guard before division\n  x == 0.0\n}";
        assert!(findings("crates/a/src/lib.rs", src).is_empty());
        // Wrong rule id does not suppress.
        let src2 = "fn f(x: f64) -> bool {\n  // lexlint: allow(LX01): wrong rule\n  x == 0.0\n}";
        assert_eq!(findings("crates/a/src/lib.rs", src2), vec!["LX06"]);
        // A bare marker without a reason does not suppress.
        let src3 = "fn f(x: f64) -> bool {\n  // lexlint: allow(LX06)\n  x == 0.0\n}";
        assert_eq!(findings("crates/a/src/lib.rs", src3), vec!["LX06"]);
    }

    #[test]
    fn config_allowlist_suppresses_by_pattern() {
        let cfg = crate::config::parse(
            "[[allow]]\nrule = \"LX01\"\nfile = \"crates/a/src/lib.rs\"\npattern = \"expect(\\\"invariant\\\")\"\nreason = \"constructor guarantees it\"\n",
        )
        .unwrap();
        let src = "fn f(x: Option<u8>) -> u8 { x.expect(\"invariant\") }";
        assert!(findings_with("crates/a/src/lib.rs", src, &cfg).is_empty());
        let other = "fn f(x: Option<u8>) -> u8 { x.expect(\"other\") }";
        assert_eq!(
            findings_with("crates/a/src/lib.rs", other, &cfg),
            vec!["LX01"]
        );
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"fn f() { let s = "x.unwrap() == 0.0 HashMap thread_rng"; } // x.unwrap()"#;
        assert!(findings("crates/a/src/lib.rs", src).is_empty());
    }
}
