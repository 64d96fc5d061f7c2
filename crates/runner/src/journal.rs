//! Checkpoint journal for crash-safe sweeps: completed cells are
//! recorded as JSONL, so a killed sweep resumes where it died and the
//! final report is byte-identical to an uninterrupted run.
//!
//! One journal file covers one *bin invocation*, which may execute
//! several sweeps (grids) in sequence; each sweep writes one header
//! record binding its index to the grid shape and base seed, then one
//! record per completed cell carrying the cell's canonical index, its
//! positional seed, an FNV-1a digest of the payload, and the payload
//! itself (the caller's checkpoint encoding, stored as one JSON
//! string). Records are parsed with [`crate::mini_json`] — zero
//! dependencies, insertion-ordered, no hashed containers.
//!
//! Two deliberate choices:
//!
//! * **Seeds travel as strings.** JSON numbers are `f64`; a `u64` seed
//!   above 2^53 would silently lose bits. The digest is a string for
//!   the same reason.
//! * **Every append rewrites the file atomically** (write
//!   `<path>.tmp`, then `rename`). A kill at any instant leaves either
//!   the previous complete journal or the new complete journal — never
//!   a torn file. The cost is quadratic in the number of cells and
//!   each rename waits on the disk: `lexcache-bench/README.md`
//!   measured 28 ms per 48-cell sweep in [`JournalWriter::record`],
//!   rising to 250 ms with a second writer on the same disk. An
//!   append-only journal is the open follow-up.
//!
//! Loading is deliberately forgiving about *tails* (a final line cut
//! short by a crash of a non-atomic writer is skipped, not fatal) and
//! about digest mismatches (the record is dropped and the cell simply
//! re-runs), but strict about garbage in the middle of the file —
//! that is corruption worth stopping for.

use crate::mini_json::{parse, quote, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag stamped into every sweep header record.
pub const JOURNAL_SCHEMA: &str = "lexcache-journal/1";

/// Writes `contents` to `path` atomically: the bytes land in
/// `<path>.tmp` first and are `rename`d over `path`, so readers (and
/// crashes) see either the old file or the new one, never a torn mix.
pub fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// 64-bit FNV-1a over `bytes` — the payload digest. Not cryptographic;
/// it detects torn or hand-edited payloads, which is all resume needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Header record: one sweep (grid) executed by the journaled bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepMeta {
    /// 0-based index of this sweep within the bin invocation.
    pub sweep: usize,
    /// Name of the bin that ran the sweep.
    pub bin: String,
    /// Grid height (sweep points).
    pub n_series: usize,
    /// Grid width (seeded repeats per point).
    pub repeats: usize,
    /// Base seed; cell `(series, repeat)` ran with `base_seed + repeat`.
    pub base_seed: u64,
}

/// One completed cell: canonical index, positional seed and the
/// caller's checkpoint payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellEntry {
    /// Sweep index the cell belongs to.
    pub sweep: usize,
    /// Canonical flat index of the cell within its grid.
    pub cell: usize,
    /// The positional seed the cell ran with.
    pub seed: u64,
    /// Checkpoint encoding of the cell's result.
    pub payload: String,
}

fn encode_sweep_line(m: &SweepMeta) -> String {
    format!(
        "{{\"kind\":\"sweep\",\"schema\":{},\"sweep\":{},\"bin\":{},\"n_series\":{},\"repeats\":{},\"base_seed\":{}}}",
        quote(JOURNAL_SCHEMA),
        m.sweep,
        quote(&m.bin),
        m.n_series,
        m.repeats,
        quote(&m.base_seed.to_string()),
    )
}

fn encode_cell_line(c: &CellEntry) -> String {
    let digest: String = hex16(fnv1a64(c.payload.as_bytes()))
        .into_iter()
        .map(char::from)
        .collect();
    format!(
        "{{\"kind\":\"cell\",\"sweep\":{},\"cell\":{},\"seed\":{},\"digest\":\"{digest}\",\"payload\":{}}}",
        c.sweep,
        c.cell,
        quote(&c.seed.to_string()),
        quote(&c.payload),
    )
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    let num = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))?;
    if num != num.trunc() || !(0.0..=9_007_199_254_740_992.0).contains(&num) {
        return Err(format!("field {key:?} is not a non-negative integer"));
    }
    Ok(num as usize)
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Moves string field `key` out of object `v` (first match, as
/// [`Value::get`]), leaving an empty string behind.
fn take_str_field(v: &mut Value, key: &str) -> Result<String, String> {
    if let Value::Obj(pairs) = v {
        if let Some((_, Value::Str(s))) = pairs.iter_mut().find(|(k, _)| k == key) {
            return Ok(std::mem::take(s));
        }
    }
    Err(format!("missing string field {key:?}"))
}

/// A record's digest as stored: `v` as 16 lowercase hex digits. One
/// function both writes and checks it, and the check allocates nothing.
fn hex16(v: u64) -> [u8; 16] {
    let mut out = [0; 16];
    for (i, b) in out.iter_mut().enumerate() {
        *b = b"0123456789abcdef"[(v >> (60 - 4 * i) & 0xf) as usize];
    }
    out
}

fn seed_field(v: &Value, key: &str) -> Result<u64, String> {
    str_field(v, key)?
        .parse::<u64>()
        .map_err(|_| format!("field {key:?} is not a u64 string"))
}

enum Line {
    Sweep(SweepMeta),
    Cell(CellEntry),
}

/// `Err(reason)` on malformed lines, `Ok(None)` on well-formed records
/// whose digest does not match (droppable — the cell re-runs).
fn parse_line(line: &str) -> Result<Option<Line>, String> {
    let mut v = parse(line)?;
    match str_field(&v, "kind")? {
        "sweep" => {
            let schema = str_field(&v, "schema")?;
            if schema != JOURNAL_SCHEMA {
                return Err(format!("unknown journal schema {schema:?}"));
            }
            Ok(Some(Line::Sweep(SweepMeta {
                sweep: usize_field(&v, "sweep")?,
                bin: str_field(&v, "bin")?.to_string(),
                n_series: usize_field(&v, "n_series")?,
                repeats: usize_field(&v, "repeats")?,
                base_seed: seed_field(&v, "base_seed")?,
            })))
        }
        "cell" => {
            let payload = take_str_field(&mut v, "payload")?;
            let digest = str_field(&v, "digest")?;
            if digest.as_bytes() != hex16(fnv1a64(payload.as_bytes())) {
                return Ok(None);
            }
            Ok(Some(Line::Cell(CellEntry {
                sweep: usize_field(&v, "sweep")?,
                cell: usize_field(&v, "cell")?,
                seed: seed_field(&v, "seed")?,
                payload,
            })))
        }
        other => Err(format!("unknown record kind {other:?}")),
    }
}

/// A loaded journal: sweep headers and completed-cell records, in file
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// Sweep headers, in file order.
    pub sweeps: Vec<SweepMeta>,
    /// Completed cells, in completion (file) order.
    pub cells: Vec<CellEntry>,
    /// Records dropped during load: a torn trailing line plus any
    /// digest-mismatched cells. Non-zero is survivable — the affected
    /// cells just re-run.
    pub dropped_records: usize,
}

impl Journal {
    /// Loads and parses a journal file.
    pub fn load(path: &Path) -> Result<Journal, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Journal::from_text(&text)
    }

    /// Parses journal text. A malformed *final* line is tolerated (a
    /// crashed non-atomic writer tears only the tail); malformed lines
    /// elsewhere are corruption and fail the load.
    pub fn from_text(text: &str) -> Result<Journal, String> {
        let lines: Vec<&str> = text.lines().collect();
        let last_content = lines.iter().rposition(|l| !l.trim().is_empty());
        let mut journal = Journal::default();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(line) {
                Ok(Some(Line::Sweep(m))) => journal.sweeps.push(m),
                Ok(Some(Line::Cell(c))) => journal.cells.push(c),
                Ok(None) => journal.dropped_records += 1,
                Err(e) if Some(i) == last_content => {
                    let _ = e;
                    journal.dropped_records += 1;
                }
                Err(e) => return Err(format!("journal line {}: {e}", i + 1)),
            }
        }
        Ok(journal)
    }

    /// The header of sweep `idx`, if that sweep ever started.
    pub fn sweep(&self, idx: usize) -> Option<&SweepMeta> {
        self.sweeps.iter().find(|m| m.sweep == idx)
    }

    /// Completed cells of sweep `idx` keyed by canonical cell index.
    /// If a cell was recorded more than once the later record wins
    /// (results are deterministic, so they can only agree anyway).
    pub fn cells_for(&self, idx: usize) -> BTreeMap<usize, &CellEntry> {
        let mut out = BTreeMap::new();
        for c in self.cells.iter().filter(|c| c.sweep == idx) {
            out.insert(c.cell, c);
        }
        out
    }
}

/// Incremental journal writer. Keeps the full journal text in memory
/// and rewrites the file atomically on every record, so the on-disk
/// journal is complete and well-formed after *every* cell — the
/// crash-safety invariant resume depends on.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    text: String,
}

impl JournalWriter {
    /// A writer targeting `path`. Nothing is written until the first
    /// record; an existing file is replaced at that point.
    pub fn create(path: PathBuf) -> JournalWriter {
        JournalWriter {
            path,
            text: String::new(),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a sweep header and flushes.
    pub fn begin_sweep(&mut self, meta: &SweepMeta) -> io::Result<()> {
        self.text.push_str(&encode_sweep_line(meta));
        self.text.push('\n');
        self.flush()
    }

    /// Appends a completed-cell record and flushes.
    pub fn record(&mut self, cell: &CellEntry) -> io::Result<()> {
        self.text.push_str(&encode_cell_line(cell));
        self.text.push('\n');
        self.flush()
    }

    fn flush(&self) -> io::Result<()> {
        atomic_write(&self.path, &self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SweepMeta {
        SweepMeta {
            sweep: 0,
            bin: "fig3".to_string(),
            n_series: 2,
            repeats: 3,
            base_seed: u64::MAX - 1,
        }
    }

    fn entry(cell: usize, payload: &str) -> CellEntry {
        CellEntry {
            sweep: 0,
            cell,
            seed: u64::MAX - 2 + (cell % 3) as u64,
            payload: payload.to_string(),
        }
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn roundtrips_through_text_including_big_seeds() {
        let mut w = JournalWriter::create(PathBuf::from("unused"));
        // Build the text without touching the filesystem.
        w.text.push_str(&encode_sweep_line(&meta()));
        w.text.push('\n');
        for (i, payload) in ["{\"x\":1.5}", "plain text\nwith newline", ""]
            .iter()
            .enumerate()
        {
            w.text.push_str(&encode_cell_line(&entry(i, payload)));
            w.text.push('\n');
        }
        let j = Journal::from_text(&w.text).expect("parses");
        assert_eq!(j.sweeps, vec![meta()]);
        assert_eq!(j.cells.len(), 3);
        assert_eq!(j.cells[1].payload, "plain text\nwith newline");
        assert_eq!(j.cells[0].seed, u64::MAX - 2, "u64 seeds survive exactly");
        assert_eq!(j.dropped_records, 0);
        let by_cell = j.cells_for(0);
        assert_eq!(by_cell.len(), 3);
        assert_eq!(by_cell.get(&2).map(|c| c.payload.as_str()), Some(""));
        assert!(j.cells_for(1).is_empty());
        assert_eq!(j.sweep(0), Some(&meta()));
        assert_eq!(j.sweep(1), None);
    }

    #[test]
    fn large_escaped_payload_roundtrips() {
        // An `EpisodeReport`-sized payload: JSON text with quotes,
        // backslashes, newlines and non-ASCII, about 6 KB once escaped.
        let payload: String = (0..150)
            .map(|i| format!("{{\"slot\":{i},\"tag\":\"a\\\\b→{i}\"}}\n"))
            .collect();
        let line = encode_cell_line(&entry(7, &payload));
        assert!(line.len() > 6_000, "{}", line.len());
        let j = Journal::from_text(&format!("{}\n{line}\n", encode_sweep_line(&meta())))
            .expect("parses");
        assert_eq!(j.dropped_records, 0);
        assert_eq!(j.cells, vec![entry(7, &payload)]);
    }

    #[test]
    fn digest_is_compared_as_lowercase_hex() {
        assert_eq!(&hex16(0x0123_4567_89ab_cdef), b"0123456789abcdef");
        assert_eq!(&hex16(0xf), b"000000000000000f");
        let line = encode_cell_line(&entry(0, "p"));
        let digest: String = hex16(fnv1a64(b"p")).into_iter().map(char::from).collect();
        let upper = line.replace(&digest, &digest.to_uppercase());
        assert_ne!(line, upper);
        let j = Journal::from_text(&format!("{upper}\n{line}\n")).expect("parses");
        assert_eq!((j.cells.len(), j.dropped_records), (1, 1));
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let full = format!(
            "{}\n{}\n",
            encode_sweep_line(&meta()),
            encode_cell_line(&entry(0, "ok"))
        );
        let torn = format!("{full}{}", {
            let line = encode_cell_line(&entry(1, "cut"));
            line[..line.len() / 2].to_string()
        });
        let j = Journal::from_text(&torn).expect("torn tail tolerated");
        assert_eq!(j.cells.len(), 1);
        assert_eq!(j.dropped_records, 1);
    }

    #[test]
    fn garbage_mid_file_is_an_error() {
        let text = format!("not json at all\n{}\n", encode_cell_line(&entry(0, "fine")));
        assert!(Journal::from_text(&text).is_err());
    }

    #[test]
    fn digest_mismatch_drops_the_record_anywhere() {
        let mut line = encode_cell_line(&entry(0, "value-a"));
        line = line.replace("value-a", "value-b");
        let text = format!("{line}\n{}\n", encode_cell_line(&entry(1, "good")));
        let j = Journal::from_text(&text).expect("well-formed lines parse");
        assert_eq!(j.cells.len(), 1);
        assert_eq!(j.cells[0].cell, 1);
        assert_eq!(j.dropped_records, 1);
    }

    #[test]
    fn later_duplicate_record_wins() {
        let text = format!(
            "{}\n{}\n",
            encode_cell_line(&entry(4, "first")),
            encode_cell_line(&entry(4, "second"))
        );
        let j = Journal::from_text(&text).expect("parses");
        let by_cell = j.cells_for(0);
        assert_eq!(by_cell.get(&4).map(|c| c.payload.as_str()), Some("second"));
    }

    #[test]
    fn unknown_schema_or_kind_is_an_error() {
        let bad_schema = encode_sweep_line(&meta()).replace("lexcache-journal/1", "other/9");
        assert!(Journal::from_text(&format!("{bad_schema}\nx\n")).is_err());
        let bad_kind = encode_cell_line(&entry(0, "p")).replace("\"cell\"", "\"blob\"");
        let text = format!("{bad_kind}\n{}\n", encode_cell_line(&entry(1, "p")));
        assert!(Journal::from_text(&text).is_err());
    }

    #[test]
    fn atomic_write_and_writer_flush_each_record() {
        let dir = std::env::temp_dir().join(format!("lexcache_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sweep.journal.jsonl");

        let mut w = JournalWriter::create(path.clone());
        w.begin_sweep(&meta()).expect("header write");
        w.record(&entry(0, "r0")).expect("cell write");
        let j = Journal::load(&path).expect("loads after each flush");
        assert_eq!((j.sweeps.len(), j.cells.len()), (1, 1));
        w.record(&entry(1, "r1")).expect("cell write");
        let j = Journal::load(&path).expect("loads");
        assert_eq!(j.cells.len(), 2);
        assert!(
            !path.with_extension("jsonl.tmp").exists(),
            "rename consumed the temp file"
        );

        atomic_write(&path, "").expect("plain atomic write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "");
        std::fs::remove_dir_all(&dir).ok();
    }
}
