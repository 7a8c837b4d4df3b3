//! Helpers shared by the snapshot-pinning integration tests. Each suite
//! uses a part of them.
#![allow(dead_code)]

use std::fs;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// 64-bit FNV-1a over everything fed to it, in order.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The command that rewrites this suite's snapshots.
fn bless_command() -> String {
    format!(
        "CLAP_BLESS=1 cargo test --test {}",
        env!("CARGO_CRATE_NAME")
    )
}

/// Whether this run rewrites the snapshots instead of checking them.
pub fn blessing() -> bool {
    std::env::var_os("CLAP_BLESS").is_some()
}

/// Serializes this suite's tests while one rewrites a snapshot that
/// several of them share.
pub fn bless_lock() -> MutexGuard<'static, ()> {
    static BLESS: Mutex<()> = Mutex::new(());
    BLESS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The snapshot at `path`; panics with the bless command when missing.
pub fn read_snapshot(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|_| panic!("{path} missing — run {}", bless_command()))
}

/// Writes the snapshot at `path`, creating its directory.
pub fn write_snapshot(path: &str, text: &str) {
    let file = Path::new(path);
    fs::create_dir_all(file.parent().expect("snapshot dir")).expect("create snapshot dir");
    fs::write(file, text).expect("write snapshot");
}

/// The message for a snapshot whose pins no longer hold.
pub fn drifted(path: &str) -> String {
    format!(
        "{path} drifted; if the change is intended, regenerate with {}",
        bless_command()
    )
}

/// Compares `actual` with the whole snapshot at `path`, or rewrites the
/// file under `CLAP_BLESS`.
pub fn check_snapshot_file(path: &str, actual: &str) {
    if blessing() {
        write_snapshot(path, actual);
        return;
    }
    assert_eq!(actual, read_snapshot(path), "{}", drifted(path));
}

/// Compares `lines` (one per program, name first) with their lines in
/// the snapshot at `path`, or rewrites those lines under `CLAP_BLESS`,
/// sorted by their names' places in `order()`. Several tests share a
/// snapshot and run concurrently; each owns only its own programs' lines.
pub fn check_snapshot_lines(path: &str, lines: &[String], order: impl FnOnce() -> Vec<String>) {
    fn name(line: &str) -> &str {
        line.split(' ').next().unwrap_or(line)
    }
    if blessing() {
        let _guard = bless_lock();
        let mut all: Vec<String> = fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter(|old| !lines.iter().any(|new| name(new) == name(old)))
            .map(str::to_owned)
            .chain(lines.iter().cloned())
            .collect();
        let order = order();
        all.sort_by_key(|line| order.iter().position(|n| n == name(line)));
        write_snapshot(path, &(all.join("\n") + "\n"));
        return;
    }
    let expected = read_snapshot(path);
    for line in lines {
        let pinned = expected.lines().find(|old| name(old) == name(line));
        assert_eq!(pinned, Some(line.as_str()), "{}", drifted(path));
    }
}
