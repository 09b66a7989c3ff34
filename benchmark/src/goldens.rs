//! `goldens.json`: each workload's simulated answer at the default seed.
//!
//! Recorded are the quiesce tick, the ops completed and the workload's
//! outcome fields — deliberately *not* a hash of every statistic, which
//! changes whenever a PR adds a counter, nor the event count, which an
//! honest speed-up (event fusion) lowers. Other seeds are checked for
//! repetition ≡ repetition and serial ≡ sharded only.

use std::path::Path;

use crate::json::{self, Json};
use crate::workloads::Outcome;

/// The seed `goldens.json` is recorded at and `run.sh` uses by default.
pub const DEFAULT_SEED: u64 = 1;

const FILE: &str = "goldens.json";

/// The part of a repetition's result that is the simulator's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub quiesce_tick: u64,
    pub ops_completed: u64,
    pub fields: Vec<(String, u64)>,
}

impl Answer {
    pub fn of(quiesce_tick: u64, outcome: &Outcome) -> Self {
        Self {
            quiesce_tick,
            ops_completed: outcome.ops_completed,
            fields: outcome.fields.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        }
    }

    /// The first difference from `want`, in words.
    pub fn diff(&self, want: &Answer) -> Option<String> {
        if self.quiesce_tick != want.quiesce_tick {
            return Some(format!("quiesce tick {} != {}", self.quiesce_tick, want.quiesce_tick));
        }
        if self.ops_completed != want.ops_completed {
            return Some(format!("ops completed {} != {}", self.ops_completed, want.ops_completed));
        }
        if self.fields.len() != want.fields.len() {
            return Some("outcome field set changed".into());
        }
        self.fields.iter().zip(&want.fields).find(|(a, b)| a != b).map(|(a, b)| {
            format!("outcome field {} = {:#x}, expected {} = {:#x}", a.0, a.1, b.0, b.1)
        })
    }

    // Ticks pass 2^53 only after 2.5 simulated hours; the fields are written
    // as hex strings all the same so no reader rounds them through a double.
    fn to_json(&self) -> Json {
        Json::obj([
            ("quiesce_tick", Json::str(format!("{:#x}", self.quiesce_tick))),
            ("ops_completed", Json::str(format!("{:#x}", self.ops_completed))),
            (
                "outcome",
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(format!("{v:#x}"))))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let hex = |v: &Json| {
            v.as_str()
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("expected a \"0x…\" string, found {v}"))
        };
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key}"));
        Ok(Self {
            quiesce_tick: hex(field("quiesce_tick")?)?,
            ops_completed: hex(field("ops_completed")?)?,
            fields: field("outcome")?
                .as_obj()
                .ok_or("outcome must be an object")?
                .iter()
                .map(|(k, v)| Ok((k.clone(), hex(v)?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// The recorded answer for `workload`, or why it cannot be read.
pub fn load(bench_dir: &Path, workload: &str) -> Result<Answer, String> {
    let path = bench_dir.join(FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entry = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("{}: no entry for {workload}", path.display()))?;
    Answer::from_json(entry).map_err(|e| format!("{}: {workload}: {e}", path.display()))
}

pub fn save(bench_dir: &Path, answers: &[(&str, Answer)]) -> std::io::Result<()> {
    let doc = Json::obj([
        ("seed", Json::Num(DEFAULT_SEED as f64)),
        (
            "workloads",
            Json::Obj(answers.iter().map(|(n, a)| ((*n).to_owned(), a.to_json())).collect()),
        ),
    ]);
    std::fs::write(bench_dir.join(FILE), doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> Answer {
        Answer {
            quiesce_tick: 65_000_000_000,
            ops_completed: 4097,
            fields: vec![("bytes".into(), 16_781_312), ("throughput_bits".into(), u64::MAX - 5)],
        }
    }

    #[test]
    fn answers_round_trip_without_losing_bits() {
        let a = answer();
        assert_eq!(Answer::from_json(&json::parse(&a.to_json().to_string()).unwrap()), Ok(a));
    }

    #[test]
    fn any_changed_field_is_reported() {
        let want = answer();
        assert_eq!(want.diff(&want), None);
        let mut got = want.clone();
        got.fields[1].1 -= 1;
        assert!(got.diff(&want).unwrap().contains("throughput_bits"));
        got = want.clone();
        got.quiesce_tick += 1;
        assert!(got.diff(&want).unwrap().contains("quiesce tick"));
        got = want.clone();
        got.ops_completed -= 1;
        assert!(got.diff(&want).unwrap().contains("ops completed"));
    }

    #[test]
    fn a_corrupt_goldens_file_is_an_error_not_a_panic() {
        for bad in ["{}", "{\"quiesce_tick\": 5}", "{\"quiesce_tick\": \"0xZZ\"}"] {
            assert!(Answer::from_json(&json::parse(bad).unwrap()).is_err());
        }
    }
}
