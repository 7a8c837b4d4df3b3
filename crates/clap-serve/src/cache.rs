//! The content-addressed result cache: fingerprint → rendered
//! [`clap_core::ReproductionReport`] JSON, with an append-only JSONL
//! journal under the cache directory so a restarted daemon comes back
//! warm.
//!
//! Journal format: one `{"key":"<16 hex>","report":{…}}` object per
//! line. Loading is *tolerant* — a corrupted or truncated line (the
//! daemon may have been killed mid-append) is skipped with a warning and
//! counted in `serve.cache.journal.skipped`; it never aborts startup.

use clap_core::ReproductionReport;
use clap_obs::json::{self, Value};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// In-memory cache plus optional on-disk journal.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<String, Arc<String>>,
    journal: Option<PathBuf>,
}

impl ResultCache {
    /// An in-memory-only cache (no persistence).
    pub fn in_memory() -> Self {
        ResultCache {
            entries: HashMap::new(),
            journal: None,
        }
    }

    /// Opens a persistent cache under `dir`, creating the directory and
    /// replaying `journal.jsonl` if present. Valid lines become entries
    /// (`serve.cache.journal.loaded`); invalid ones are skipped with a
    /// warning (`serve.cache.journal.skipped`).
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created or the
    /// journal cannot be read (a *missing* journal is not an error).
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let journal = dir.join("journal.jsonl");
        let mut cache = ResultCache {
            entries: HashMap::new(),
            journal: Some(journal.clone()),
        };
        match File::open(&journal) {
            Ok(file) => cache.replay(BufReader::new(file))?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        clap_obs::gauge("serve.cache.entries", cache.entries.len() as i64);
        Ok(cache)
    }

    fn replay(&mut self, reader: impl BufRead) -> io::Result<()> {
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_journal_line(&line) {
                Ok((key, report)) => {
                    self.entries.insert(key, Arc::new(report));
                    clap_obs::add("serve.cache.journal.loaded", 1);
                }
                Err(why) => {
                    eprintln!(
                        "clap-serve: skipping corrupt journal line {}: {why}",
                        lineno + 1
                    );
                    clap_obs::add("serve.cache.journal.skipped", 1);
                }
            }
        }
        Ok(())
    }

    /// Looks up a fingerprint. A hit is accounted (`serve.cache.hit`);
    /// a `None` is **not** automatically a miss — the caller records one
    /// with [`Self::record_miss`] only when the lookup leads to a fresh
    /// solve (a coalesced submission is neither a hit nor a miss).
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let report = self.entries.get(key).map(Arc::clone);
        if report.is_some() {
            clap_obs::add("serve.cache.hit", 1);
        }
        report
    }

    /// Accounts one miss (`serve.cache.miss`): a submission that will
    /// run its own pipeline.
    pub fn record_miss(&self) {
        clap_obs::add("serve.cache.miss", 1);
    }

    /// Looks up a fingerprint without counting a hit (used by tests and
    /// `/metrics`).
    pub fn peek(&self, key: &str) -> Option<Arc<String>> {
        self.entries.get(key).cloned()
    }

    /// Inserts a finished report and appends it to the journal (best
    /// effort: a failed append keeps the in-memory entry and warns).
    pub fn insert(&mut self, key: &str, report: Arc<String>) {
        if let Some(path) = &self.journal {
            if let Err(e) = append_journal_line(path, key, &report) {
                eprintln!("clap-serve: journal append failed: {e}");
            }
        }
        self.entries.insert(key.to_owned(), report);
        clap_obs::gauge("serve.cache.entries", self.entries.len() as i64);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn parse_journal_line(line: &str) -> Result<(String, String), String> {
    let v = json::parse(line)?;
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or("missing `key`")?
        .to_owned();
    let report = v.get("report").ok_or("missing `report`")?.render();
    // A syntactically-valid line whose report does not decode is just as
    // useless — validate before trusting it.
    ReproductionReport::from_json(&report).map_err(|e| format!("bad report: {e}"))?;
    Ok((key, report))
}

fn append_journal_line(path: &Path, key: &str, report: &str) -> io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(
        file,
        "{{\"key\":\"{}\",\"report\":{report}}}",
        json::escape(key)
    )?;
    file.flush()
}
