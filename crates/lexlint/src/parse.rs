//! A lightweight item/scope layer over the token stream: enough
//! structure for symbol-aware rules without a real Rust parser.
//!
//! What the rules need — and all this module extracts — is:
//!
//! * every `fn` item with its name, visibility, return-type tokens and
//!   the token range of its body (brace-matched, so per-function scans
//!   such as LX08's lock-discipline walk stay inside one scope);
//! * every `use` declaration, with `{…}` groups expanded to one path
//!   per leaf, so import-level bans (`use std::thread::spawn`) fire
//!   even when the call site later says just `spawn(…)`.
//!
//! Like the lexer, it is deliberately approximate: macros are not
//! expanded and type grammar is skimmed, not parsed. The rules built on
//! it only ever pattern-match structure this layer gets right.

use crate::lexer::{Tok, TokKind};
use std::ops::Range;

/// One `fn` item (free function, inherent/trait method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Whether the item is `pub` (any restriction form counts).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Return-type tokens (texts), empty for `()`-returning functions.
    pub ret: Vec<String>,
    /// Token-index range of the body: `start` is the opening `{`,
    /// `end` is the index *past* the matching `}`. Empty for body-less
    /// trait signatures.
    pub body: Range<usize>,
}

/// One expanded `use` path: `use std::{thread, time::Instant};` yields
/// `["std", "thread"]` and `["std", "time", "Instant"]`.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Path segments; a trailing `"*"` marks a glob import.
    pub path: Vec<String>,
    /// 1-based line of the `use` keyword.
    pub line: usize,
}

/// The parsed shape of one file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Every `fn` item, in source order (outer before nested).
    pub fns: Vec<FnItem>,
    /// Every expanded `use` path, in source order.
    pub uses: Vec<UseDecl>,
}

impl FileAst {
    /// The innermost function whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&i))
            .min_by_key(|f| f.body.end - f.body.start)
    }
}

/// Parses one file's token stream into its item/scope shape.
pub fn parse(toks: &[Tok]) -> FileAst {
    let mut ast = FileAst::default();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("fn") {
            if let Some(item) = parse_fn(toks, i) {
                // Continue scanning *inside* the body so nested fns and
                // uses are found too.
                let resume = if item.body.is_empty() {
                    i + 1
                } else {
                    item.body.start + 1
                };
                ast.fns.push(item);
                i = resume;
                continue;
            }
        } else if t.is_ident("use") && stmt_start(toks, i) {
            i = parse_use(toks, i, &mut ast.uses);
            continue;
        }
        i += 1;
    }
    ast
}

/// Whether `toks[i]` begins a statement/item (start of file or right
/// after `;`, `{` or `}`, optionally with `pub …` qualifiers between).
fn stmt_start(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let p = &toks[j - 1];
        if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") || p.is_punct("]") {
            return true;
        }
        // Skip back over visibility qualifiers: `pub`, `pub(crate)`, …
        if p.kind == TokKind::Ident || p.is_punct("(") || p.is_punct(")") {
            if p.is_ident("pub") || p.is_ident("crate") || p.is_ident("super") || p.is_ident("in") {
                j -= 1;
                continue;
            }
            if p.is_punct("(") || p.is_punct(")") {
                j -= 1;
                continue;
            }
        }
        return false;
    }
    true
}

/// Parses the `fn` item whose `fn` keyword sits at `toks[i]`.
fn parse_fn(toks: &[Tok], i: usize) -> Option<FnItem> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(usize) -> T` pointer type, not an item
    }
    let name = name_tok.text.to_string();
    let mut j = i + 2;

    // Skip generic parameters `<…>`, tracking shift-operator tokens.
    if toks.get(j).map(|t| t.is_punct("<")).unwrap_or(false) {
        let mut depth = 0i32;
        while j < toks.len() {
            match &*toks[j].text {
                "<" if toks[j].kind == TokKind::Punct => depth += 1,
                "<<" if toks[j].kind == TokKind::Punct => depth += 2,
                ">" if toks[j].kind == TokKind::Punct => depth -= 1,
                ">>" if toks[j].kind == TokKind::Punct => depth -= 2,
                _ => {}
            }
            j += 1;
            if depth <= 0 {
                break;
            }
        }
    }

    // Parameter list `(…)`.
    if !toks.get(j).map(|t| t.is_punct("(")).unwrap_or(false) {
        return None;
    }
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

    // Optional return type: tokens between `->` and `{` / `;` / `where`.
    let mut ret = Vec::new();
    if toks.get(j).map(|t| t.is_punct("->")).unwrap_or(false) {
        j += 1;
        let mut pdepth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if pdepth == 0 && (t.is_punct("{") || t.is_punct(";") || t.is_ident("where")) {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") {
                pdepth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                pdepth -= 1;
            }
            ret.push(t.text.to_string());
            j += 1;
        }
    }

    // Skip a `where` clause to the body opener.
    while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
        j += 1;
    }

    let body = if toks.get(j).map(|t| t.is_punct("{")).unwrap_or(false) {
        let open = j;
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct("{") {
                depth += 1;
            } else if toks[j].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        open..(j + 1).min(toks.len())
    } else {
        i..i // body-less signature
    };

    Some(FnItem {
        name,
        is_pub: has_pub_qualifier(toks, i),
        line: toks[i].line,
        ret,
        body,
    })
}

/// Whether the tokens immediately before the `fn` at `i` include `pub`
/// (scanning back over `const` / `unsafe` / `async` / `extern "…"` and
/// visibility-restriction parentheses).
fn has_pub_qualifier(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    let mut budget = 10;
    while j > 0 && budget > 0 {
        let p = &toks[j - 1];
        let qualifier = p.is_ident("const")
            || p.is_ident("unsafe")
            || p.is_ident("async")
            || p.is_ident("extern")
            || p.is_ident("crate")
            || p.is_ident("super")
            || p.is_ident("in")
            || p.is_punct("(")
            || p.is_punct(")")
            || p.kind == TokKind::Str;
        if p.is_ident("pub") {
            return true;
        }
        if !qualifier {
            return false;
        }
        j -= 1;
        budget -= 1;
    }
    false
}

/// Parses the `use` declaration starting at `toks[i]` into `out`;
/// returns the index just past its terminating `;`.
fn parse_use(toks: &[Tok], i: usize, out: &mut Vec<UseDecl>) -> usize {
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct("{") {
            depth += 1;
        } else if toks[j].is_punct("}") {
            depth -= 1;
        } else if toks[j].is_punct(";") && depth <= 0 {
            break;
        }
        j += 1;
    }
    let line = toks[i].line;
    let mut prefix = Vec::new();
    expand_use_tree(&toks[i + 1..j.min(toks.len())], line, &mut prefix, out);
    j + 1
}

/// Expands one use-tree token slice, pushing a [`UseDecl`] per leaf.
fn expand_use_tree(toks: &[Tok], line: usize, prefix: &mut Vec<String>, out: &mut Vec<UseDecl>) {
    let base_len = prefix.len();
    let mut grouped = false;
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_ident("as") {
            k += 2; // alias name does not change what is imported
        } else if t.kind == TokKind::Ident {
            prefix.push(t.text.to_string());
            k += 1;
        } else if t.is_punct("*") {
            prefix.push("*".to_string());
            k += 1;
        } else if t.is_punct("{") {
            // Group: split the balanced interior on top-level commas
            // and expand each part against the current prefix.
            let mut depth = 0i32;
            let mut close = k;
            while close < toks.len() {
                if toks[close].is_punct("{") {
                    depth += 1;
                } else if toks[close].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                close += 1;
            }
            let inner = &toks[k + 1..close.min(toks.len())];
            let mut start = 0;
            let mut d = 0i32;
            for (idx, it) in inner.iter().enumerate() {
                if it.is_punct("{") {
                    d += 1;
                } else if it.is_punct("}") {
                    d -= 1;
                } else if it.is_punct(",") && d == 0 {
                    expand_use_tree(&inner[start..idx], line, prefix, out);
                    start = idx + 1;
                }
            }
            if start < inner.len() {
                expand_use_tree(&inner[start..], line, prefix, out);
            }
            grouped = true;
            k = close + 1;
        } else {
            k += 1; // `::` and anything else
        }
    }
    if !grouped && prefix.len() > base_len {
        out.push(UseDecl {
            path: prefix.clone(),
            line,
        });
    }
    prefix.truncate(base_len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> FileAst {
        parse(&lex(src).toks)
    }

    #[test]
    fn finds_fns_with_names_visibility_and_returns() {
        let ast = parsed(
            "pub fn a() -> bool { true }\n\
             fn b(x: u8) { let _ = x; }\n\
             pub(crate) fn c<'g>(&'g self) -> MutexGuard<'g, u8> { self.m.lock().unwrap() }\n",
        );
        assert_eq!(ast.fns.len(), 3);
        assert_eq!(ast.fns[0].name, "a");
        assert!(ast.fns[0].is_pub);
        assert_eq!(ast.fns[0].ret, vec!["bool"]);
        assert!(!ast.fns[1].is_pub);
        assert!(ast.fns[1].ret.is_empty());
        assert!(ast.fns[2].is_pub, "pub(crate) counts as pub");
        assert!(ast.fns[2].ret.iter().any(|t| t == "MutexGuard"));
    }

    #[test]
    fn bodies_are_brace_matched_and_nested_fns_found() {
        let src = "fn outer() {\n  fn inner() -> u8 { 7 }\n  inner();\n}\n";
        let ast = parsed(src);
        assert_eq!(ast.fns.len(), 2);
        let outer = &ast.fns[0];
        let inner = &ast.fns[1];
        assert!(outer.body.start < inner.body.start && inner.body.end < outer.body.end);
        // enclosing_fn picks the innermost.
        let mid = inner.body.start + 1;
        assert_eq!(
            ast.enclosing_fn(mid).map(|f| f.name.as_str()),
            Some("inner")
        );
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let ast = parsed(
            "pub fn m<T: Ord, F>(n: usize, f: F) -> Vec<T> where F: Fn(usize) -> T { Vec::new() }",
        );
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "m");
        assert_eq!(ast.fns[0].ret, vec!["Vec", "<", "T", ">"]);
        assert!(!ast.fns[0].body.is_empty());
    }

    #[test]
    fn trait_signatures_have_empty_bodies() {
        let ast = parsed("trait T { fn f(&self) -> u8; fn g(&self) -> u8 { 1 } }");
        assert_eq!(ast.fns.len(), 2);
        assert!(ast.fns[0].body.is_empty());
        assert!(!ast.fns[1].body.is_empty());
    }

    #[test]
    fn use_groups_expand_to_leaves() {
        let ast = parsed("use std::{thread, time::Instant};\nuse std::sync::Mutex;\n");
        let paths: Vec<String> = ast.uses.iter().map(|u| u.path.join("::")).collect();
        assert_eq!(
            paths,
            vec!["std::thread", "std::time::Instant", "std::sync::Mutex"]
        );
    }

    #[test]
    fn use_aliases_and_globs_keep_the_real_path() {
        let ast = parsed("use std::thread::spawn as sp;\nuse std::env::*;\n");
        let paths: Vec<String> = ast.uses.iter().map(|u| u.path.join("::")).collect();
        assert_eq!(paths, vec!["std::thread::spawn", "std::env::*"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let ast = parsed("pub fn takes(f: fn(usize) -> u8) -> u8 { f(1) }");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "takes");
    }
}
