//! Order statistics over repeated measurements.

use crate::json::{obj, Value};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so spreads computed here equal the spreads
/// whoever checks the benchmark computes from the same numbers.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One metric as the result file stores it: the reported `value` and the
/// distribution of the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// A metric whose value is the median of `samples`.
    pub fn median_of(samples: &[f64], unit: &'static str) -> Summary {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            value: median,
            unit,
            n: samples.len(),
            q1,
            median,
            q3,
        }
    }

    /// A metric measured once per run (a count, a ratio, a peak).
    pub fn single(value: f64, unit: &'static str) -> Summary {
        Summary::median_of(&[value], unit)
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("value", Value::from(self.value)),
            ("unit", Value::from(self.unit)),
            ("n", Value::from(self.n)),
            ("q1", Value::from(self.q1)),
            ("median", Value::from(self.median)),
            ("q3", Value::from(self.q3)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
