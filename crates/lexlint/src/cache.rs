//! The incremental lint cache (`.lexlint-cache.json`).
//!
//! A warm run must re-analyze only files whose bytes changed — and
//! produce a byte-identical report to a cold run. The cache therefore
//! stores, per workspace-relative path, the FNV-1a digest of the file's
//! bytes plus the exact findings the rules produced, and three global
//! keys that invalidate everything at once when they drift:
//!
//! * `rules_version` — bumped whenever any rule's behaviour changes,
//! * `config` — digest of `lexlint.toml` (allow entries move findings),
//! * `symbols` — digest of the workspace `pub fn` surface (LX08
//!   verdicts depend on other files' signatures).
//!
//! Digests are stored as 16-hex-digit strings, not JSON numbers: the
//! [`mini_json`](lexcache_runner::mini_json) value model (like JSON
//! itself) carries numbers as `f64`, which silently rounds above 2^53.
//! The file is written through [`lexcache_runner::atomic_write`], so a
//! crashed run leaves the previous cache intact, and a missing or
//! malformed cache simply degrades to a cold run — the cache is never
//! load-bearing for correctness.

use crate::rules::{self, Finding, Suggestion};
use lexcache_runner::mini_json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Bump when any rule's detection logic changes, so stale verdicts are
/// discarded wholesale rather than trusted.
pub const RULES_VERSION: u64 = 4;

const SCHEMA: &str = "lexlint-cache/1";

/// One file's cached verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// FNV-1a digest of the file's bytes at analysis time.
    pub digest: u64,
    /// The findings the full rule set produced for that content.
    pub findings: Vec<Finding>,
}

/// The loaded cache: per-file verdicts keyed by workspace-relative
/// path. Global keys are checked at load; a mismatch yields an empty
/// cache (cold run), never a partial one.
#[derive(Debug, Default)]
pub struct Cache {
    /// Verdicts by workspace-relative path.
    pub files: BTreeMap<String, FileEntry>,
}

impl Cache {
    /// The cached findings for `file`, if its content digest still
    /// matches.
    pub fn lookup(&self, file: &str, digest: u64) -> Option<&[Finding]> {
        self.files
            .get(file)
            .filter(|e| e.digest == digest)
            .map(|e| e.findings.as_slice())
    }
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Loads the cache at `path`, returning an empty cache when the file
/// is missing, malformed, or keyed by a different rules version /
/// config / symbol surface.
pub fn load(path: &Path, config_digest: u64, symbols_digest: u64) -> Cache {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Cache::default();
    };
    let Ok(doc) = mini_json::parse(&text) else {
        return Cache::default();
    };
    let global_ok = doc.get("schema").and_then(Value::as_str) == Some(SCHEMA)
        && doc.get("rules_version").and_then(Value::as_f64) == Some(RULES_VERSION as f64)
        && doc.get("config").and_then(Value::as_str) == Some(hex(config_digest).as_str())
        && doc.get("symbols").and_then(Value::as_str) == Some(hex(symbols_digest).as_str());
    if !global_ok {
        return Cache::default();
    }
    let mut files = BTreeMap::new();
    if let Some(Value::Obj(pairs)) = doc.get("files") {
        for (file, entry) in pairs {
            if let Some(e) = parse_entry(file, entry) {
                files.insert(file.clone(), e);
            }
        }
    }
    Cache { files }
}

fn parse_entry(file: &str, entry: &Value) -> Option<FileEntry> {
    let digest = u64::from_str_radix(entry.get("digest").and_then(Value::as_str)?, 16).ok()?;
    let mut findings = Vec::new();
    for f in entry.get("findings").and_then(Value::as_array)? {
        // `rule_id` interns the rule name back to its canonical
        // &'static str; an unknown rule means a foreign cache.
        let rule = rules::rule_id(f.get("rule").and_then(Value::as_str)?)?;
        let line = f.get("line").and_then(Value::as_f64)? as usize;
        let snippet = f.get("snippet").and_then(Value::as_str)?.to_string();
        let suggestion = match f.get("suggestion") {
            None | Some(Value::Null) => None,
            Some(s) => Some(Suggestion {
                find: s.get("find").and_then(Value::as_str)?.to_string(),
                replace: s.get("replace").and_then(Value::as_str)?.to_string(),
            }),
        };
        findings.push(Finding {
            rule,
            file: file.to_string(),
            line,
            snippet,
            hint: rules::hint_for(rule),
            suggestion,
        });
    }
    Some(FileEntry { digest, findings })
}

/// Serializes and atomically writes the cache. Key order is canonical
/// (BTreeMap iteration), so identical state produces identical bytes.
pub fn save(
    path: &Path,
    config_digest: u64,
    symbols_digest: u64,
    files: &BTreeMap<String, FileEntry>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\"schema\":");
    out.push_str(&mini_json::quote(SCHEMA));
    out.push_str(&format!(",\"rules_version\":{RULES_VERSION}"));
    out.push_str(",\"config\":");
    out.push_str(&mini_json::quote(&hex(config_digest)));
    out.push_str(",\"symbols\":");
    out.push_str(&mini_json::quote(&hex(symbols_digest)));
    out.push_str(",\"files\":{");
    for (i, (file, e)) in files.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&mini_json::quote(file));
        out.push_str(":{\"digest\":");
        out.push_str(&mini_json::quote(&hex(e.digest)));
        out.push_str(",\"findings\":[");
        for (j, f) in e.findings.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            out.push_str(&mini_json::quote(f.rule));
            out.push_str(&format!(",\"line\":{}", f.line));
            out.push_str(",\"snippet\":");
            out.push_str(&mini_json::quote(&f.snippet));
            out.push_str(",\"suggestion\":");
            match &f.suggestion {
                None => out.push_str("null"),
                Some(s) => {
                    out.push_str("{\"find\":");
                    out.push_str(&mini_json::quote(&s.find));
                    out.push_str(",\"replace\":");
                    out.push_str(&mini_json::quote(&s.replace));
                    out.push('}');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out.push('\n');
    lexcache_runner::atomic_write(path, &out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeMap<String, FileEntry> {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/a/src/lib.rs".to_string(),
            FileEntry {
                digest: 0xdead_beef_dead_beef,
                findings: vec![Finding {
                    rule: "LX03",
                    file: "crates/a/src/lib.rs".to_string(),
                    line: 7,
                    snippet: "let m: HashMap<u8, u8> = HashMap::new();".to_string(),
                    hint: rules::hint_for("LX03"),
                    suggestion: Some(Suggestion {
                        find: "HashMap".to_string(),
                        replace: "BTreeMap".to_string(),
                    }),
                }],
            },
        );
        files.insert(
            "crates/a/src/other.rs".to_string(),
            FileEntry {
                digest: 1,
                findings: Vec::new(),
            },
        );
        files
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lexlint-cache-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrips_entries_digests_and_suggestions() {
        let path = tmp("roundtrip");
        let files = sample();
        save(&path, 11, 22, &files).expect("save");
        let cache = load(&path, 11, 22);
        assert_eq!(cache.files, files, "findings rehydrate exactly");
        let hit = cache.lookup("crates/a/src/lib.rs", 0xdead_beef_dead_beef);
        assert_eq!(hit.map(|f| f.len()), Some(1));
        assert!(
            cache.lookup("crates/a/src/lib.rs", 2).is_none(),
            "digest mismatch means re-analyze"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn global_key_drift_cold_starts() {
        let path = tmp("drift");
        save(&path, 11, 22, &sample()).expect("save");
        assert!(load(&path, 12, 22).files.is_empty(), "config changed");
        assert!(load(&path, 11, 23).files.is_empty(), "symbols changed");
        assert!(!load(&path, 11, 22).files.is_empty(), "same keys hit");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_or_malformed_cache_is_empty_not_fatal() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert!(load(&path, 1, 2).files.is_empty());
        std::fs::write(&path, "{not json").expect("write");
        assert!(load(&path, 1, 2).files.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn digests_above_f64_precision_survive() {
        // 2^53 + 1 is not representable as f64 — hex strings are.
        let path = tmp("precision");
        let mut files = BTreeMap::new();
        let digest = (1u64 << 53) + 1;
        files.insert(
            "x.rs".to_string(),
            FileEntry {
                digest,
                findings: Vec::new(),
            },
        );
        save(&path, 3, 4, &files).expect("save");
        let cache = load(&path, 3, 4);
        assert_eq!(cache.files.get("x.rs").map(|e| e.digest), Some(digest));
        let _ = std::fs::remove_file(&path);
    }
}
