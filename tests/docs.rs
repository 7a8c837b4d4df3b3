//! The docs name only paths that exist: every inline-code token in the
//! top-level docs and the skill notes (the verify notes among them) that
//! looks like a repository path must name a file or directory on disk, so
//! a deleted or renamed file cannot leave a stale reference behind.
//!
//! A token is checked when it starts with one of [`PREFIXES`] or is a
//! `BENCH_*.jsonl` trajectory. Inline code is split on whitespace, so a
//! command line in backticks has its file arguments checked too. A
//! `::item` or `:line` suffix is dropped, and a token with a `*`
//! component must match at least one entry.

use std::fs;
use std::path::{Path, PathBuf};

/// The checked documents; the last pattern is the skill notes kept in a
/// hidden directory at the root.
const DOCS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    ".*/skills/*/SKILL.md",
];

const PREFIXES: [&str; 7] = [
    "crates/",
    "tests/",
    "shims/",
    "examples/",
    "pipebench/",
    "src/",
    ".github/",
];

/// The inline-code spans of a markdown document, fenced blocks excluded.
fn inline_code(doc: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        spans.extend(line.split('`').skip(1).step_by(2));
    }
    spans
}

/// The path a token names, if it names one.
fn path_of(token: &str) -> Option<&str> {
    let path = token.split(':').next()?;
    let path = path.trim_end_matches([',', '.', ';', ')']);
    let bench = path.starts_with("BENCH_") && path.ends_with(".jsonl");
    (bench || PREFIXES.iter().any(|p| path.starts_with(p))).then_some(path)
}

/// Whether `name` matches `pattern`, where `*` matches any run of
/// characters.
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, rest)) => {
            let Some(tail) = name.strip_prefix(head) else {
                return false;
            };
            (0..=tail.len()).any(|i| tail.is_char_boundary(i) && matches(rest, &tail[i..]))
        }
    }
}

/// The existing paths under `dir` that match the remaining path
/// components.
fn expand(dir: &Path, components: &[&str]) -> Vec<PathBuf> {
    let Some((first, rest)) = components.split_first() else {
        return if dir.exists() {
            vec![dir.to_path_buf()]
        } else {
            Vec::new()
        };
    };
    if !first.contains('*') {
        return expand(&dir.join(first), rest);
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter(|entry| matches(first, &entry.file_name().to_string_lossy()))
        .flat_map(|entry| expand(&entry.path(), rest))
        .collect()
}

fn components(path: &str) -> Vec<&str> {
    path.split('/').filter(|c| !c.is_empty()).collect()
}

#[test]
fn docs_name_only_paths_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for pattern in DOCS {
        let docs = expand(root, &components(pattern));
        assert!(!docs.is_empty(), "no document matches `{pattern}`");
        for doc in docs {
            let name = doc.strip_prefix(root).unwrap_or(&doc).display().to_string();
            let text = fs::read_to_string(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            for token in inline_code(&text)
                .into_iter()
                .flat_map(str::split_whitespace)
            {
                let Some(path) = path_of(token) else {
                    continue;
                };
                checked += 1;
                if expand(root, &components(path)).is_empty() {
                    missing.push(format!("{name}: `{path}`"));
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no path tokens found; is the extraction broken?"
    );
    assert!(
        missing.is_empty(),
        "docs name paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn path_tokens_are_recognised_and_globs_match() {
    assert_eq!(
        path_of("tests/pipeline.rs::auto_portfolio_reproduces_pfscan"),
        Some("tests/pipeline.rs")
    );
    assert_eq!(
        path_of("crates/clap-vm/src/vm.rs:1477"),
        Some("crates/clap-vm/src/vm.rs")
    );
    assert_eq!(path_of("BENCH_vm.jsonl"), Some("BENCH_vm.jsonl"));
    assert_eq!(path_of("target/release/obsck"), None);
    assert!(matches("BENCH_*.jsonl", "BENCH_vm.jsonl"));
    assert!(!matches("BENCH_*.jsonl", "BENCH_vm.json"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(!expand(root, &["examples", "*.clap"]).is_empty());
    assert!(expand(root, &["examples", "*.nope"]).is_empty());
    assert_eq!(
        expand(root, &components(".*/skills/verify/SKILL.md")).len(),
        1
    );
}
