//! JSON encode/decode for [`ReproductionReport`] — the wire format the
//! reproduction service ships and caches, and the `--json` output of
//! `clap-reproduce reproduce`.
//!
//! The codec reuses the [`clap_obs::json`] value model (the workspace's
//! only JSON infrastructure) and is **round-trip stable**: for any report,
//! `to_json ∘ from_json ∘ to_json` is byte-identical, which is what lets
//! the service's content-addressed cache compare and journal reports as
//! strings. Durations are nanosecond integers; `i64` witness values that
//! do not fit a JSON `f64` exactly (beyond ±2^53) are encoded as decimal
//! strings, and the decoder accepts both encodings.

use crate::{
    AttemptOutcome, EngineKind, PhaseTimings, PortfolioAttempt, PortfolioReport, ReproductionReport,
};
use clap_constraints::{ConstraintStats, ReadSource, Schedule, Witness};
use clap_ir::AssertId;
use clap_obs::json::{self, Value};
use clap_replay::ReplayReport;
use clap_symex::SapId;
use clap_vm::{Outcome, ThreadId};
use std::time::Duration;

/// Largest integer magnitude a JSON number (f64) represents exactly.
const EXACT: i64 = 1 << 53;

fn nu(v: u64) -> Value {
    if v < EXACT as u64 {
        Value::Num(v as f64)
    } else {
        Value::Str(v.to_string())
    }
}

fn ni(v: i64) -> Value {
    if v > -EXACT && v < EXACT {
        Value::Num(v as f64)
    } else {
        Value::Str(v.to_string())
    }
}

fn ns(d: Duration) -> Value {
    nu(d.as_nanos().min(u128::from(u64::MAX)) as u64)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    match get(v, key)? {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        Value::Str(s) => s.parse().map_err(|_| format!("bad integer in `{key}`")),
        _ => Err(format!("`{key}` is not an unsigned integer")),
    }
}

fn get_i64(v: &Value) -> Result<i64, String> {
    match v {
        Value::Num(n) if n.fract() == 0.0 => Ok(*n as i64),
        Value::Str(s) => s.parse().map_err(|_| "bad integer".to_owned()),
        _ => Err("not an integer".to_owned()),
    }
}

fn get_usize(v: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(v, key)?).map_err(|_| format!("`{key}` out of range"))
}

fn get_ns(v: &Value, key: &str) -> Result<Duration, String> {
    Ok(Duration::from_nanos(get_u64(v, key)?))
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
    match get(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` is not a bool")),
    }
}

fn get_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn constraints_to_value(c: &ConstraintStats) -> Value {
    obj(vec![
        ("path_clauses", nu(c.path_clauses as u64)),
        ("rw_clauses", nu(c.rw_clauses as u64)),
        ("so_clauses", nu(c.so_clauses as u64)),
        ("mo_clauses", nu(c.mo_clauses as u64)),
        ("value_vars", nu(c.value_vars as u64)),
        ("order_vars", nu(c.order_vars as u64)),
        ("match_vars", nu(c.match_vars as u64)),
    ])
}

fn constraints_from_value(v: &Value) -> Result<ConstraintStats, String> {
    Ok(ConstraintStats {
        path_clauses: get_usize(v, "path_clauses")?,
        rw_clauses: get_usize(v, "rw_clauses")?,
        so_clauses: get_usize(v, "so_clauses")?,
        mo_clauses: get_usize(v, "mo_clauses")?,
        value_vars: get_usize(v, "value_vars")?,
        order_vars: get_usize(v, "order_vars")?,
        match_vars: get_usize(v, "match_vars")?,
    })
}

fn phases_to_value(p: &PhaseTimings) -> Value {
    obj(vec![
        ("record", ns(p.record)),
        ("decode", ns(p.decode)),
        ("symex", ns(p.symex)),
        ("constrain", ns(p.constrain)),
        ("solve", ns(p.solve)),
        ("replay", ns(p.replay)),
        ("total", ns(p.total)),
    ])
}

fn phases_from_value(v: &Value) -> Result<PhaseTimings, String> {
    Ok(PhaseTimings {
        record: get_ns(v, "record")?,
        decode: get_ns(v, "decode")?,
        symex: get_ns(v, "symex")?,
        constrain: get_ns(v, "constrain")?,
        solve: get_ns(v, "solve")?,
        replay: get_ns(v, "replay")?,
        total: get_ns(v, "total")?,
    })
}

fn witness_to_value(w: &Witness) -> Value {
    let reads_from = w
        .reads_from
        .iter()
        .map(|(sap, src)| {
            let src = match src {
                ReadSource::Init => Value::Null,
                ReadSource::Write(w) => nu(u64::from(w.0)),
            };
            Value::Arr(vec![nu(u64::from(sap.0)), src])
        })
        .collect();
    obj(vec![
        (
            "assignment",
            Value::Arr(w.assignment.iter().map(|&v| ni(v)).collect()),
        ),
        ("reads_from", Value::Arr(reads_from)),
    ])
}

fn witness_from_value(v: &Value) -> Result<Witness, String> {
    let assignment = get_arr(v, "assignment")?
        .iter()
        .map(get_i64)
        .collect::<Result<Vec<_>, _>>()?;
    let reads_from = get_arr(v, "reads_from")?
        .iter()
        .map(|pair| {
            let items = pair.as_arr().ok_or("reads_from entry is not a pair")?;
            let [sap, src] = items else {
                return Err("reads_from entry is not a pair".to_owned());
            };
            let sap = SapId(u32::try_from(get_i64(sap)?).map_err(|_| "bad SAP id")?);
            let src = match src {
                Value::Null => ReadSource::Init,
                other => ReadSource::Write(SapId(
                    u32::try_from(get_i64(other)?).map_err(|_| "bad SAP id")?,
                )),
            };
            Ok((sap, src))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Witness {
        assignment,
        reads_from,
    })
}

fn engine_str(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Parallel => "parallel",
        EngineKind::Sequential => "sequential",
    }
}

fn engine_from_str(s: &str) -> Result<EngineKind, String> {
    match s {
        "parallel" => Ok(EngineKind::Parallel),
        "sequential" => Ok(EngineKind::Sequential),
        other => Err(format!("unknown engine `{other}`")),
    }
}

fn attempt_outcome_from_str(s: &str) -> Result<AttemptOutcome, String> {
    Ok(match s {
        "found" => AttemptOutcome::Found,
        "exhausted" => AttemptOutcome::Exhausted,
        "budget" => AttemptOutcome::Budget,
        "unsat" => AttemptOutcome::Unsat,
        "timeout" => AttemptOutcome::Timeout,
        other => return Err(format!("unknown attempt outcome `{other}`")),
    })
}

fn portfolio_to_value(p: &PortfolioReport) -> Value {
    let attempts = p
        .attempts
        .iter()
        .map(|a| {
            obj(vec![
                ("engine", Value::Str(engine_str(a.engine).to_owned())),
                (
                    "cs_bounds",
                    match a.cs_bounds {
                        Some((lo, hi)) => Value::Arr(vec![nu(lo as u64), nu(hi as u64)]),
                        None => Value::Null,
                    },
                ),
                ("outcome", Value::Str(a.outcome.to_string())),
                ("wall_ns", ns(a.wall)),
            ])
        })
        .collect();
    obj(vec![
        ("attempts", Value::Arr(attempts)),
        (
            "winner",
            match p.winner {
                Some(e) => Value::Str(engine_str(e).to_owned()),
                None => Value::Null,
            },
        ),
    ])
}

fn portfolio_from_value(v: &Value) -> Result<PortfolioReport, String> {
    let attempts = get_arr(v, "attempts")?
        .iter()
        .map(|a| {
            let cs_bounds = match get(a, "cs_bounds")? {
                Value::Null => None,
                Value::Arr(items) => {
                    let [lo, hi] = items.as_slice() else {
                        return Err("cs_bounds is not a pair".to_owned());
                    };
                    Some((
                        usize::try_from(get_i64(lo)?).map_err(|_| "bad bound")?,
                        usize::try_from(get_i64(hi)?).map_err(|_| "bad bound")?,
                    ))
                }
                _ => return Err("cs_bounds is neither null nor a pair".to_owned()),
            };
            Ok(PortfolioAttempt {
                engine: engine_from_str(get_str(a, "engine")?)?,
                cs_bounds,
                outcome: attempt_outcome_from_str(get_str(a, "outcome")?)?,
                wall: get_ns(a, "wall_ns")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let winner = match get(v, "winner")? {
        Value::Null => None,
        Value::Str(s) => Some(engine_from_str(s)?),
        _ => return Err("winner is neither null nor a string".to_owned()),
    };
    Ok(PortfolioReport { attempts, winner })
}

fn outcome_to_value(o: &Outcome) -> Value {
    match o {
        Outcome::Completed => obj(vec![("kind", Value::Str("completed".to_owned()))]),
        Outcome::AssertFailed { assert, thread } => obj(vec![
            ("kind", Value::Str("assert_failed".to_owned())),
            ("assert", nu(u64::from(assert.0))),
            ("thread", nu(u64::from(thread.0))),
        ]),
        Outcome::Deadlock => obj(vec![("kind", Value::Str("deadlock".to_owned()))]),
        Outcome::StepLimit => obj(vec![("kind", Value::Str("step_limit".to_owned()))]),
        Outcome::Fault { thread, message } => obj(vec![
            ("kind", Value::Str("fault".to_owned())),
            ("thread", nu(u64::from(thread.0))),
            ("message", Value::Str(message.clone())),
        ]),
    }
}

fn outcome_from_value(v: &Value) -> Result<Outcome, String> {
    Ok(match get_str(v, "kind")? {
        "completed" => Outcome::Completed,
        "assert_failed" => Outcome::AssertFailed {
            assert: AssertId(u32::try_from(get_u64(v, "assert")?).map_err(|_| "bad assert id")?),
            thread: ThreadId(u32::try_from(get_u64(v, "thread")?).map_err(|_| "bad thread id")?),
        },
        "deadlock" => Outcome::Deadlock,
        "step_limit" => Outcome::StepLimit,
        "fault" => Outcome::Fault {
            thread: ThreadId(u32::try_from(get_u64(v, "thread")?).map_err(|_| "bad thread id")?),
            message: get_str(v, "message")?.to_owned(),
        },
        other => return Err(format!("unknown replay outcome `{other}`")),
    })
}

fn replay_to_value(r: &ReplayReport) -> Value {
    obj(vec![
        ("outcome", outcome_to_value(&r.outcome)),
        ("reproduced", Value::Bool(r.reproduced)),
        ("steps", nu(r.steps)),
        ("positions_consumed", nu(r.positions_consumed as u64)),
    ])
}

fn replay_from_value(v: &Value) -> Result<ReplayReport, String> {
    Ok(ReplayReport {
        outcome: outcome_from_value(get(v, "outcome")?)?,
        reproduced: get_bool(v, "reproduced")?,
        steps: get_u64(v, "steps")?,
        positions_consumed: get_usize(v, "positions_consumed")?,
    })
}

impl ReproductionReport {
    /// Encodes the report as a compact, deterministic JSON document.
    pub fn to_json(&self) -> String {
        obj(vec![
            ("version", nu(1)),
            ("threads", nu(self.threads as u64)),
            ("shared_vars", nu(self.shared_vars as u64)),
            ("instructions", nu(self.instructions)),
            ("branches", nu(self.branches)),
            ("saps", nu(self.saps as u64)),
            ("constraints", constraints_to_value(&self.constraints)),
            ("log_bytes", nu(self.log_bytes as u64)),
            ("time_symbolic_ns", ns(self.time_symbolic)),
            ("time_solve_ns", ns(self.time_solve)),
            ("phases_ns", phases_to_value(&self.phases)),
            (
                "schedule_letters",
                Value::Str(self.schedule_letters.clone()),
            ),
            ("context_switches", nu(self.context_switches as u64)),
            (
                "schedule",
                Value::Arr(
                    self.schedule
                        .order
                        .iter()
                        .map(|s| nu(u64::from(s.0)))
                        .collect(),
                ),
            ),
            ("witness", witness_to_value(&self.witness)),
            ("portfolio", portfolio_to_value(&self.portfolio)),
            ("replay", replay_to_value(&self.replay)),
            ("reproduced", Value::Bool(self.reproduced)),
            ("seed", nu(self.seed)),
        ])
        .render()
    }

    /// Decodes a report previously produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (malformed
    /// JSON, missing key, wrong type, unknown version).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let version = get_u64(&v, "version")?;
        if version != 1 {
            return Err(format!("unsupported report version {version}"));
        }
        let order = get_arr(&v, "schedule")?
            .iter()
            .map(|s| Ok(SapId(u32::try_from(get_i64(s)?).map_err(|_| "bad SAP id")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ReproductionReport {
            threads: get_usize(&v, "threads")?,
            shared_vars: get_usize(&v, "shared_vars")?,
            instructions: get_u64(&v, "instructions")?,
            branches: get_u64(&v, "branches")?,
            saps: get_usize(&v, "saps")?,
            constraints: constraints_from_value(get(&v, "constraints")?)?,
            log_bytes: get_usize(&v, "log_bytes")?,
            time_symbolic: get_ns(&v, "time_symbolic_ns")?,
            time_solve: get_ns(&v, "time_solve_ns")?,
            phases: phases_from_value(get(&v, "phases_ns")?)?,
            schedule_letters: get_str(&v, "schedule_letters")?.to_owned(),
            context_switches: get_usize(&v, "context_switches")?,
            schedule: Schedule { order },
            witness: witness_from_value(get(&v, "witness")?)?,
            portfolio: portfolio_from_value(get(&v, "portfolio")?)?,
            replay: replay_from_value(get(&v, "replay")?)?,
            reproduced: get_bool(&v, "reproduced")?,
            seed: get_u64(&v, "seed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use clap_vm::MemModel;

    const LOST_UPDATE: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    #[test]
    fn report_round_trips_through_json() {
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let report = pipeline
            .reproduce(&PipelineConfig::new(MemModel::Sc))
            .unwrap();
        let json1 = report.to_json();
        let decoded = ReproductionReport::from_json(&json1).unwrap();
        // Byte-identical re-encode: the stability the content-addressed
        // cache and journal rely on.
        assert_eq!(decoded.to_json(), json1);
        // And the decoded struct carries the same data.
        assert_eq!(decoded.threads, report.threads);
        assert_eq!(decoded.saps, report.saps);
        assert_eq!(decoded.schedule.order, report.schedule.order);
        assert_eq!(decoded.schedule_letters, report.schedule_letters);
        assert_eq!(decoded.witness.assignment, report.witness.assignment);
        assert_eq!(decoded.witness.reads_from, report.witness.reads_from);
        assert_eq!(decoded.reproduced, report.reproduced);
        assert_eq!(decoded.context_switches, report.context_switches);
        assert_eq!(decoded.phases, report.phases);
        assert_eq!(decoded.portfolio.winner, report.portfolio.winner);
        assert_eq!(
            decoded.portfolio.attempts.len(),
            report.portfolio.attempts.len()
        );
        assert_eq!(decoded.replay.reproduced, report.replay.reproduced);
        assert_eq!(decoded.seed, report.seed);
    }

    #[test]
    fn huge_witness_values_survive_the_f64_bottleneck() {
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config = PipelineConfig::new(MemModel::Sc);
        let mut report = pipeline.reproduce(&config).unwrap();
        report.witness.assignment.push(i64::MIN);
        report.witness.assignment.push(i64::MAX);
        report.witness.assignment.push((1 << 53) + 1);
        let decoded = ReproductionReport::from_json(&report.to_json()).unwrap();
        assert_eq!(decoded.witness.assignment, report.witness.assignment);
    }

    #[test]
    fn decoder_rejects_malformed_documents() {
        assert!(ReproductionReport::from_json("not json").is_err());
        assert!(ReproductionReport::from_json("{}").is_err());
        assert!(ReproductionReport::from_json(r#"{"version":99}"#).is_err());

        // An attempt outcome the portfolio no longer produces is an error,
        // not a panic.
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let json = pipeline
            .reproduce(&PipelineConfig::new(MemModel::Sc))
            .unwrap()
            .to_json();
        let found = r#""outcome":"found""#;
        assert!(json.contains(found), "{json}");
        let cancelled = json.replacen(found, r#""outcome":"cancelled""#, 1);
        let err = ReproductionReport::from_json(&cancelled).unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
    }
}
