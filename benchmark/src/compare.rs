//! `compare OLD.json NEW.json`: the regression gate. One row per workload
//! and end-to-end metric, with both medians, their ratio and its base, the
//! bound, and a verdict. Exits non-zero on any `worse` row or when a
//! workload fails a larger share of its operations than before.

use crate::json::{self, Value};
use crate::spec::{EndToEnd, END_TO_END};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The repetitions of either side scatter so widely that its median
    /// is itself uncertain by more than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric as a result file stores it.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub n: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    fn read(metric: &Value) -> Option<Side> {
        let num = |key: &str| metric.get(key).and_then(Value::as_f64);
        Some(Side {
            value: num("value")?,
            n: num("n")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
        })
    }

    /// How far the median of `n` repetitions may be off, as a share of it:
    /// the inter-quartile distance shrinks with the root of `n`. (A result
    /// file holds the quartiles of one run's repetitions, not of several
    /// runs, so the raw distance says how noisy a repetition is, not how
    /// well the run's median is known.)
    fn uncertainty(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs() / self.n.max(1.0).sqrt()
        }
    }
}

pub fn verdict(metric: &EndToEnd, old: Side, new: Side) -> Verdict {
    if old.uncertainty() > metric.bound || new.uncertainty() > metric.bound {
        return Verdict::Unresolved;
    }
    // Change as a share of the old value, positive when the metric got worse.
    let worsening = if metric.higher {
        (old.value - new.value) / old.value
    } else {
        (new.value - old.value) / old.value
    };
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn failed_share(workload: &Value) -> f64 {
    let num = |key: &str| workload.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    num("ops_failed") / num("ops_attempted").max(1.0)
}

/// Compares two result documents; returns the printed rows and whether
/// the gate passes.
pub fn compare(old: &Value, new: &Value) -> Result<(Vec<String>, bool), String> {
    let workloads = |doc: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        doc.get("workloads")
            .and_then(Value::as_obj)
            .map(<[(String, Value)]>::to_vec)
            .ok_or_else(|| "result file has no \"workloads\" object".to_string())
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);
    let mut rows = vec![format!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "old", "new", "new/old", "bound"
    )];
    let mut pass = true;
    for (name, old_w) in &old_w {
        let Some((_, new_w)) = new_w.iter().find(|(n, _)| n == name) else {
            rows.push(format!("{name:<12} missing from the new file"));
            pass = false;
            continue;
        };
        for metric in &END_TO_END {
            let side = |w: &Value| {
                w.get("e2e")
                    .and_then(|e| e.get(metric.name))
                    .and_then(Side::read)
            };
            let (Some(o), Some(n)) = (side(old_w), side(new_w)) else {
                rows.push(format!(
                    "{name:<12} {:<14} missing on one side",
                    metric.name
                ));
                pass = false;
                continue;
            };
            let v = verdict(metric, o, n);
            pass &= v != Verdict::Worse;
            rows.push(format!(
                "{name:<12} {:<14} {:>14.6} {:>14.6} {:>9.4} {:>6.2}  {}",
                metric.name,
                o.value,
                n.value,
                n.value / o.value,
                metric.bound,
                v.name()
            ));
        }
        let (fo, fn_) = (failed_share(old_w), failed_share(new_w));
        if fn_ > fo {
            rows.push(format!("{name:<12} failed_share rose from {fo} to {fn_}"));
            pass = false;
        }
    }
    Ok((rows, pass))
}

pub fn main(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        eprintln!("usage: pac-benchmark compare OLD.json NEW.json");
        return ExitCode::from(2);
    };
    let read = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match read(old_path).and_then(|old| read(new_path).and_then(|new| compare(&old, &new))) {
        Ok((rows, pass)) => {
            for row in rows {
                println!("{row}");
            }
            println!(
                "{}",
                if pass {
                    "compare: no regression"
                } else {
                    "compare: REGRESSION"
                }
            );
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pac-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;
    use crate::stats::Summary;

    /// A result document with one workload whose time metrics are all
    /// `scale` times a fixed baseline.
    fn doc(scale: f64, spread: f64, failed: u64) -> Value {
        let e2e = obj(END_TO_END.iter().map(|m| {
            let base = if m.higher {
                100.0 / scale
            } else {
                10.0 * scale
            };
            let samples = [base * (1.0 - spread), base, base * (1.0 + spread)];
            (m.name, Summary::median_of(&samples, m.unit).to_json())
        }));
        obj([(
            "workloads",
            obj([(
                "pac_solo",
                obj([
                    ("e2e", e2e),
                    ("ops_attempted", Value::from(100u64)),
                    ("ops_failed", Value::from(failed)),
                ]),
            )]),
        )])
    }

    #[test]
    fn a_slowdown_beyond_the_bound_fails_and_one_within_it_passes() {
        let base = doc(1.0, 0.01, 0);
        let (rows, pass) = compare(&base, &doc(1.30, 0.01, 0)).unwrap();
        assert!(!pass, "a 30 % slowdown is past every bound");
        assert!(rows
            .iter()
            .any(|r| r.contains("op_ms") && r.ends_with("worse")));
        let (rows, pass) = compare(&base, &doc(1.03, 0.01, 0)).unwrap();
        assert!(pass, "3 % is inside every bound: {rows:?}");
        assert!(rows.iter().skip(1).all(|r| r.ends_with("same")));
        // peak_rss_mb has the tight bound: 15 % more is a regression there
        // and only there.
        let (rows, pass) = compare(&base, &doc(1.15, 0.01, 0)).unwrap();
        assert!(!pass);
        let worse: Vec<&String> = rows.iter().filter(|r| r.ends_with("worse")).collect();
        assert!(
            worse.len() == 1 && worse[0].contains("peak_rss_mb"),
            "{rows:?}"
        );
        let (rows, pass) = compare(&base, &doc(0.5, 0.01, 0)).unwrap();
        assert!(pass && rows.iter().any(|r| r.ends_with("better")));
    }

    #[test]
    fn a_wide_spread_is_unresolved_and_more_failures_fail() {
        // Three repetitions 40 % either side of the median: 0.8 / sqrt(3).
        let (rows, pass) = compare(&doc(1.0, 0.01, 0), &doc(1.30, 0.4, 0)).unwrap();
        assert!(
            pass && rows.iter().any(|r| r.ends_with("unresolved")),
            "{rows:?}"
        );
        let (_, pass) = compare(&doc(1.0, 0.01, 0), &doc(1.0, 0.01, 1)).unwrap();
        assert!(!pass, "a higher failed share is a regression");
        assert!(compare(&Value::Null, &doc(1.0, 0.01, 0)).is_err());
    }
}
