//! Sample statistics and the result line.

/// The `q`-quantile (nearest rank) of `samples`, sorting them in place;
/// 0 for no samples.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: the correctness verdict, the checked deliveries and
/// failures, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    /// Expected (subscription, event) deliveries of the checked
    /// population.
    pub attempted: u64,
    /// Missing, extra, dropped, rejected or quarantined deliveries.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric; non-finite values are reported as 0.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut s, 0.5), 50);
        assert_eq!(quantile(&mut s, 0.99), 99);
        assert_eq!(quantile(&mut s, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("latency_ms", 1.25, "ms");
        o.push("bad", f64::NAN, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
