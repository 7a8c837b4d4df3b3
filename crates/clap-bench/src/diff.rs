//! Trajectory comparison behind the `benchdiff` binary and the CI perf
//! gate: parses two `BENCH_*.jsonl` artifacts (any of the vm, pipeline
//! or serve trajectories), pairs their benchmark cells, and
//! classifies each pair against a noise margin. Every metric here is *lower-is-better*
//! wall time, so a positive delta is a slowdown.
//!
//! A cell present in the old artifact but missing from the new one is a
//! [`DiffStatus::Removed`] — and a gate failure: a benchmark that
//! silently stops running is indistinguishable from a regression nobody
//! can see. New cells are [`DiffStatus::Added`] and benign.
//!
//! The vm and pipeline cells also carry the work they did (`steps`,
//! `work`). Those counts are deterministic, so a paired cell whose work
//! differs at all is a failure whatever the margin: the two runs did not
//! do the same thing, and their times do not compare.

use clap_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How one benchmark event family turns into comparable cells.
struct CellSpec {
    /// JSONL event name carrying the cells.
    event: &'static str,
    /// Fields whose values identify a cell within the family.
    key_fields: &'static [&'static str],
    /// The lower-is-better measurement field.
    metric: &'static str,
    /// The deterministic work-count field, compared exactly.
    work: Option<&'static str>,
}

/// The three bench trajectories the repo commits. `bench_serve` emits
/// many samples per (program, phase) cell — one per submission — so
/// samples are mean-aggregated before comparison.
const CELL_SPECS: [CellSpec; 3] = [
    CellSpec {
        event: "bench.vm.cell",
        key_fields: &["workload", "phase"],
        metric: "millis",
        work: Some("steps"),
    },
    CellSpec {
        event: "bench.pipeline.cell",
        key_fields: &["workload", "phase"],
        metric: "millis",
        work: Some("work"),
    },
    CellSpec {
        event: "bench.serve.cell",
        key_fields: &["program", "phase"],
        metric: "latency_us",
        work: None,
    },
];

/// Classification of one paired cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within the noise margin either way.
    Ok,
    /// Faster than the margin allows for noise.
    Improved,
    /// Slower than the margin allows — a gate failure.
    Regressed,
    /// Only in the new artifact — benign.
    Added,
    /// Only in the old artifact — a gate failure (a benchmark that
    /// stopped running hides regressions).
    Removed,
}

impl DiffStatus {
    /// Lowercase label used in tables and JSONL events.
    pub fn label(self) -> &'static str {
        match self {
            DiffStatus::Ok => "ok",
            DiffStatus::Improved => "improved",
            DiffStatus::Regressed => "regressed",
            DiffStatus::Added => "added",
            DiffStatus::Removed => "removed",
        }
    }
}

/// One compared cell.
#[derive(Debug, Clone)]
pub struct CellDiff {
    /// Event family (`bench.vm.cell`, …).
    pub bench: String,
    /// `field=value` pairs identifying the cell, space-joined.
    pub key: String,
    /// Mean metric in the old artifact (`None` for [`DiffStatus::Added`]).
    pub old: Option<f64>,
    /// Mean metric in the new artifact (`None` for
    /// [`DiffStatus::Removed`]).
    pub new: Option<f64>,
    /// `100·(new−old)/old` when both sides exist.
    pub delta_pct: Option<f64>,
    /// The verdict under the configured margin.
    pub status: DiffStatus,
    /// The work count in the old and the new artifact, for families that
    /// carry one.
    pub work: (Option<u64>, Option<u64>),
}

impl CellDiff {
    /// Both artifacts carry the cell and its work counts differ: a gate
    /// failure whatever the margin.
    pub fn work_changed(&self) -> bool {
        matches!(self.work, (Some(old), Some(new)) if old != new)
    }
}

/// A full two-artifact comparison.
#[derive(Debug, Clone)]
pub struct BenchDiff {
    /// The noise margin (percent) the verdicts used.
    pub margin_pct: f64,
    /// Every paired cell, in (family, key) order.
    pub cells: Vec<CellDiff>,
}

impl BenchDiff {
    /// Cells slower than the margin.
    pub fn regressions(&self) -> usize {
        self.count(DiffStatus::Regressed)
    }

    /// Cells faster than the margin.
    pub fn improvements(&self) -> usize {
        self.count(DiffStatus::Improved)
    }

    /// Cells present only in the old artifact.
    pub fn removed(&self) -> usize {
        self.count(DiffStatus::Removed)
    }

    /// Paired cells whose work counts differ.
    pub fn work_changes(&self) -> usize {
        self.cells.iter().filter(|c| c.work_changed()).count()
    }

    fn count(&self, status: DiffStatus) -> usize {
        self.cells.iter().filter(|c| c.status == status).count()
    }

    /// Whether `--check` should fail: any regressed or removed cell, or
    /// any work change.
    pub fn has_failures(&self) -> bool {
        self.regressions() > 0 || self.removed() > 0 || self.work_changes() > 0
    }

    /// The per-cell delta table as GitHub-flavored markdown.
    pub fn render_markdown(&self, old_name: &str, new_name: &str) -> String {
        fn num(v: Option<f64>) -> String {
            v.map_or_else(|| "-".into(), |v| format!("{v:.3}"))
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Benchmark delta: `{old_name}` → `{new_name}` (noise margin ±{:.0}%)\n",
            self.margin_pct
        );
        let _ = writeln!(out, "| bench | cell | old | new | delta% | status | work |");
        let _ = writeln!(out, "|---|---|---:|---:|---:|---|---:|");
        for c in &self.cells {
            let delta = c
                .delta_pct
                .map_or_else(|| "-".into(), |d| format!("{d:+.1}"));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                c.bench,
                c.key,
                num(c.old),
                num(c.new),
                delta,
                c.status.label(),
                work_label(c.work)
            );
        }
        let _ = writeln!(
            out,
            "\n{} cells: {} regressed, {} improved, {} removed, {} with changed work.",
            self.cells.len(),
            self.regressions(),
            self.improvements(),
            self.removed(),
            self.work_changes()
        );
        out
    }

    /// Publishes the comparison through the [`clap_obs`] collector as one
    /// `bench.diff` summary event plus one `bench.diff.cell` per cell
    /// (both registered in the strict JSONL schema).
    pub fn emit_events(&self, old_name: &str, new_name: &str) {
        clap_obs::event(
            "bench.diff",
            &[
                ("old", old_name.to_owned()),
                ("new", new_name.to_owned()),
                ("margin_pct", format!("{:.1}", self.margin_pct)),
                ("cells", self.cells.len().to_string()),
                ("regressions", self.regressions().to_string()),
                ("improvements", self.improvements().to_string()),
                ("work_changes", self.work_changes().to_string()),
            ],
        );
        for c in &self.cells {
            let num = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.3}"));
            clap_obs::event(
                "bench.diff.cell",
                &[
                    ("bench", c.bench.clone()),
                    ("key", c.key.clone()),
                    ("old", num(c.old)),
                    ("new", num(c.new)),
                    (
                        "delta_pct",
                        c.delta_pct
                            .map_or_else(|| "-".into(), |d| format!("{d:+.1}")),
                    ),
                    ("status", c.status.label().to_owned()),
                    ("work", work_label(c.work)),
                ],
            );
        }
    }
}

/// A cell's work column: the count when both sides agree (or only one
/// side has the cell), `old→new` when they differ, `-` for families
/// without one.
fn work_label(work: (Option<u64>, Option<u64>)) -> String {
    match work {
        (Some(old), Some(new)) if old != new => format!("{old}→{new}"),
        (Some(w), _) | (None, Some(w)) => w.to_string(),
        (None, None) => "-".into(),
    }
}

/// One cell's samples in one artifact.
#[derive(Debug, Default)]
struct Samples {
    metric: Vec<f64>,
    work: Option<u64>,
}

/// Extracts every benchmark cell from one JSONL artifact:
/// `(family, key) → samples`. Lines that are not cell events (meta,
/// other events, histograms) are skipped; a cell event with a
/// non-numeric metric or work count, or whose samples disagree on the
/// work count, is an error — that is a corrupt artifact, not noise.
fn parse_cells(jsonl: &str) -> Result<BTreeMap<(String, String), Samples>, String> {
    let mut cells: BTreeMap<(String, String), Samples> = BTreeMap::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("type").and_then(Value::as_str) != Some("event") {
            continue;
        }
        let Some(name) = v.get("name").and_then(Value::as_str) else {
            continue;
        };
        let Some(spec) = CELL_SPECS.iter().find(|s| s.event == name) else {
            continue;
        };
        let fields = v
            .get("fields")
            .ok_or_else(|| format!("line {}: {name} without fields", i + 1))?;
        let mut key = String::new();
        for f in spec.key_fields {
            let val = fields
                .get(f)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: {name} missing key field {f:?}", i + 1))?;
            if !key.is_empty() {
                key.push(' ');
            }
            let _ = write!(key, "{f}={val}");
        }
        let metric = fields
            .get(spec.metric)
            .and_then(Value::as_str)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| {
                format!(
                    "line {}: {name} without numeric {:?} field",
                    i + 1,
                    spec.metric
                )
            })?;
        let work = match spec.work {
            Some(field) => Some(
                fields
                    .get(field)
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| {
                        format!("line {}: {name} without integer {field:?} field", i + 1)
                    })?,
            ),
            None => None,
        };
        let cell = cells.entry((name.to_owned(), key)).or_default();
        if !cell.metric.is_empty() && cell.work != work {
            return Err(format!(
                "line {}: {name} samples of one cell disagree on their work",
                i + 1
            ));
        }
        cell.metric.push(metric);
        cell.work = work;
    }
    Ok(cells)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Compares two artifacts' cells under a noise margin (percent).
///
/// # Errors
///
/// Returns a message when either artifact fails to parse or carries a
/// malformed cell event.
pub fn diff(old_jsonl: &str, new_jsonl: &str, margin_pct: f64) -> Result<BenchDiff, String> {
    let old = parse_cells(old_jsonl).map_err(|e| format!("old artifact: {e}"))?;
    let new = parse_cells(new_jsonl).map_err(|e| format!("new artifact: {e}"))?;
    let mut keys: Vec<&(String, String)> = old.keys().chain(new.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut cells = Vec::with_capacity(keys.len());
    for k in keys {
        let old_mean = old.get(k).map(|s| mean(&s.metric));
        let new_mean = new.get(k).map(|s| mean(&s.metric));
        let (delta_pct, status) = match (old_mean, new_mean) {
            (Some(o), Some(n)) => {
                let delta = if o == 0.0 { 0.0 } else { 100.0 * (n - o) / o };
                let status = if delta > margin_pct {
                    DiffStatus::Regressed
                } else if delta < -margin_pct {
                    DiffStatus::Improved
                } else {
                    DiffStatus::Ok
                };
                (Some(delta), status)
            }
            (Some(_), None) => (None, DiffStatus::Removed),
            (None, Some(_)) => (None, DiffStatus::Added),
            (None, None) => unreachable!("key came from one of the maps"),
        };
        cells.push(CellDiff {
            bench: k.0.clone(),
            key: k.1.clone(),
            old: old_mean,
            new: new_mean,
            delta_pct,
            status,
            work: (
                old.get(k).and_then(|s| s.work),
                new.get(k).and_then(|s| s.work),
            ),
        });
    }
    Ok(BenchDiff { margin_pct, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cell events with the given work count where the family has one.
    fn artifact_with_work(cells: &[(&str, &str, f64, u64)]) -> String {
        let mut out = String::new();
        for (name, keyval, metric, work) in cells {
            let spec = CELL_SPECS.iter().find(|s| s.event == *name).unwrap();
            let mut fields = String::new();
            for (f, v) in spec.key_fields.iter().zip(keyval.split(' ')) {
                let _ = write!(fields, "\"{f}\":\"{v}\",");
            }
            let _ = write!(fields, "\"{}\":\"{metric}\"", spec.metric);
            if let Some(f) = spec.work {
                let _ = write!(fields, ",\"{f}\":\"{work}\"");
            }
            out.push_str(&format!(
                "{{\"type\":\"event\",\"name\":\"{name}\",\"tid\":0,\"ts_ns\":1,\"fields\":{{{fields}}}}}\n"
            ));
        }
        out
    }

    fn artifact(cells: &[(&str, &str, f64)]) -> String {
        let cells: Vec<_> = cells.iter().map(|&(n, k, m)| (n, k, m, 100)).collect();
        artifact_with_work(&cells)
    }

    #[test]
    fn identical_artifacts_have_zero_regressions() {
        let a = artifact(&[
            ("bench.vm.cell", "sim_race sweep", 1.2),
            ("bench.vm.cell", "sim_race oracle", 1.0),
        ]);
        let d = diff(&a, &a, 25.0).unwrap();
        assert_eq!(d.cells.len(), 2);
        assert_eq!(d.regressions(), 0);
        assert!(!d.has_failures());
        assert!(d.cells.iter().all(|c| c.status == DiffStatus::Ok));
    }

    #[test]
    fn degraded_cells_regress_and_fail_the_gate() {
        let old = artifact(&[("bench.vm.cell", "sim_race sweep", 1.0)]);
        let new = artifact(&[("bench.vm.cell", "sim_race sweep", 2.0)]);
        let d = diff(&old, &new, 25.0).unwrap();
        assert_eq!(d.regressions(), 1);
        assert!(d.has_failures());
        assert_eq!(d.cells[0].delta_pct.unwrap().round(), 100.0);
        // The same delta the other way is an improvement, not a failure.
        let d = diff(&new, &old, 25.0).unwrap();
        assert_eq!(d.improvements(), 1);
        assert!(!d.has_failures());
    }

    #[test]
    fn pipeline_cells_pair_per_workload_and_phase() {
        let old = artifact(&[
            ("bench.pipeline.cell", "pfscan solve", 40.0),
            ("bench.pipeline.cell", "pfscan replay", 0.2),
        ]);
        let new = artifact(&[
            ("bench.pipeline.cell", "pfscan solve", 6.0),
            ("bench.pipeline.cell", "pfscan replay", 0.2),
        ]);
        let d = diff(&old, &new, 25.0).unwrap();
        assert_eq!(d.cells.len(), 2);
        assert_eq!(d.improvements(), 1);
        assert!(!d.has_failures());
        assert!(d
            .cells
            .iter()
            .any(|c| c.key == "workload=pfscan phase=solve" && c.status == DiffStatus::Improved));
    }

    #[test]
    fn within_margin_is_noise() {
        let old = artifact(&[("bench.serve.cell", "peterson warm", 1.0)]);
        let new = artifact(&[("bench.serve.cell", "peterson warm", 1.2)]);
        assert!(!diff(&old, &new, 25.0).unwrap().has_failures());
        assert!(diff(&old, &new, 10.0).unwrap().has_failures());
    }

    #[test]
    fn removed_cells_fail_added_cells_pass() {
        let old = artifact(&[
            ("bench.serve.cell", "peterson cold", 900.0),
            ("bench.serve.cell", "peterson warm", 80.0),
        ]);
        let new = artifact(&[("bench.serve.cell", "peterson cold", 900.0)]);
        let d = diff(&old, &new, 25.0).unwrap();
        assert_eq!(d.removed(), 1);
        assert!(d.has_failures());
        let d = diff(&new, &old, 25.0).unwrap();
        assert_eq!(d.removed(), 0);
        assert!(!d.has_failures());
        assert_eq!(d.count(DiffStatus::Added), 1);
    }

    #[test]
    fn serve_samples_are_mean_aggregated() {
        let old = artifact(&[
            ("bench.serve.cell", "peterson warm", 100.0),
            ("bench.serve.cell", "peterson warm", 300.0),
        ]);
        let new = artifact(&[("bench.serve.cell", "peterson warm", 200.0)]);
        let d = diff(&old, &new, 5.0).unwrap();
        assert_eq!(d.cells.len(), 1);
        assert_eq!(d.cells[0].status, DiffStatus::Ok);
        assert_eq!(d.cells[0].old, Some(200.0));
    }

    #[test]
    fn markdown_table_lists_every_cell() {
        let old = artifact(&[("bench.vm.cell", "sim_race sweep", 1.0)]);
        let new = artifact(&[("bench.vm.cell", "sim_race sweep", 3.0)]);
        let d = diff(&old, &new, 25.0).unwrap();
        let md = d.render_markdown("a.jsonl", "b.jsonl");
        assert!(md.contains("| bench | cell | old | new | delta% | status |"));
        assert!(md.contains("| workload=sim_race phase=sweep |"));
        assert!(md.contains("regressed"));
        assert!(md.contains("1 regressed"));
    }

    #[test]
    fn changed_work_fails_whatever_the_margin() {
        let old = artifact_with_work(&[
            ("bench.vm.cell", "sim_race sweep", 1.0, 17936),
            ("bench.vm.cell", "sim_race oracle", 9.0, 3000),
            ("bench.pipeline.cell", "pfscan solve", 6.0, 40),
            ("bench.serve.cell", "peterson warm", 1.0, 0),
        ]);
        let new = artifact_with_work(&[
            ("bench.vm.cell", "sim_race sweep", 0.5, 17936),
            ("bench.vm.cell", "sim_race oracle", 9.0, 3001),
            ("bench.pipeline.cell", "pfscan solve", 6.0, 39),
            ("bench.serve.cell", "peterson warm", 1.0, 0),
        ]);
        assert!(!diff(&old, &old, 25.0).unwrap().has_failures());
        for margin in [25.0, 1e9] {
            let d = diff(&old, &new, margin).unwrap();
            assert_eq!(d.regressions(), 0);
            assert_eq!(d.work_changes(), 2);
            assert!(d.has_failures());
            let changed: Vec<&str> = d
                .cells
                .iter()
                .filter(|c| c.work_changed())
                .map(|c| c.key.as_str())
                .collect();
            assert_eq!(
                changed,
                [
                    "workload=pfscan phase=solve",
                    "workload=sim_race phase=oracle"
                ]
            );
        }
        let d = diff(&old, &new, 25.0).unwrap();
        let md = d.render_markdown("a.jsonl", "b.jsonl");
        assert!(md.contains("| 3000→3001 |"), "{md}");
        assert!(md.contains("| 17936 |"), "{md}");
        assert!(md.contains("2 with changed work"), "{md}");
        // Families without a work count never compare one.
        let serve = d.cells.iter().find(|c| c.bench == "bench.serve.cell");
        assert_eq!(serve.unwrap().work, (None, None));
    }

    #[test]
    fn missing_or_inconsistent_work_is_an_error() {
        let no_steps = "{\"type\":\"event\",\"name\":\"bench.vm.cell\",\"tid\":0,\"ts_ns\":1,\
                        \"fields\":{\"workload\":\"w\",\"phase\":\"p\",\"millis\":\"1.0\"}}\n";
        assert!(diff(no_steps, no_steps, 25.0).is_err());
        let split = artifact_with_work(&[
            ("bench.pipeline.cell", "pfscan solve", 6.0, 40),
            ("bench.pipeline.cell", "pfscan solve", 6.0, 41),
        ]);
        assert!(diff(&split, &split, 25.0).is_err());
    }

    #[test]
    fn corrupt_metric_is_an_error_not_noise() {
        let bad = "{\"type\":\"event\",\"name\":\"bench.vm.cell\",\"tid\":0,\"ts_ns\":1,\
                   \"fields\":{\"workload\":\"w\",\"phase\":\"p\",\"millis\":\"fast\"}}\n";
        assert!(diff(bad, bad, 25.0).is_err());
    }
}
