//! Medians and quartiles, computed as Python's
//! `statistics.median` / `statistics.quantiles(values, n=4)` compute
//! them, so numbers printed here can be checked against a pipeline that
//! uses those.

/// Median, first and third quartile and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric with one sample (counters, one-shot probes).
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// How finely `n` samples resolve their median: the spread scaled by
    /// `1/√n` (the standard error of a median is 0.93·IQR/√n for normal
    /// samples).
    pub fn resolution(&self) -> f64 {
        self.spread() / (self.n.max(1) as f64).sqrt()
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Python's default ("exclusive") quartile rule. Fewer than two samples
/// have no quartiles; the single value stands in for both.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "summary of no samples");
    if n == 1 {
        return Summary::single(v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: median(&v),
        q1: cut(1),
        q3: cut(3),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = summarize(&[3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }
}
