//! Metric names, units and the result line.
//!
//! Every workload reports the same metric set (`E2E` untraced, `LAYER`
//! traced), so each name means the same thing on every workload; the
//! test below keeps these lists and `BENCHMARK.json` in step.

use crate::stats::{Ratio, Samples};

/// End-to-end metrics, reported by every untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run.
pub const LAYER: &[(&str, &str)] = &[
    ("core.setup_ms.p50", "ms"),
    ("core.setup_share", "ratio"),
    ("core.sum_share", "ratio"),
    ("tnet.plan_ms.p50", "ms"),
    ("tnet.plan_flops", "count"),
    ("core.noise_svd_us.p50", "us"),
    ("tnet.skeleton_us.p50", "us"),
    ("tnet.compile_us.p50", "us"),
    ("core.level0_ms.p50", "ms"),
    ("core.level1_ms.p50", "ms"),
    ("core.level2_ms.p50", "ms"),
    ("core.level3_ms.p50", "ms"),
    ("core.patterns_per_s", "1/s"),
    ("core.thread_speedup", "ratio"),
    ("tnet.full_us_per_pattern", "us"),
    ("tnet.delta_us_per_pattern", "us"),
    ("tnet.delta_steps_per_pattern", "count"),
    ("tensor.flops_per_pattern", "count"),
    ("tnet.steady_allocs", "count"),
    ("api.fingerprint_us.p50", "us"),
    ("serve.route_us.p50", "us"),
    ("serve.submit_us.p50", "us"),
    ("api.backend_ms.p50", "ms"),
    ("serve.overhead_us.p50", "us"),
    ("serve.saved_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.partial_hit_ratio", "ratio"),
    ("serve.refine_first_ms.p50", "ms"),
    ("serve.refine_resume_ms.p50", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One reported metric with the context the human-readable lines show.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Sample count, or the ratio's base.
    pub detail: String,
}

/// A run's metrics plus its correctness tally.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Correctness checks that did not pass (one line each).
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// The run's [`crate::calibrate::Calibration::speed`]; timings and
    /// rates are reported at reference speed.
    pub speed: f64,
}

impl Report {
    pub fn value(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value,
            detail: detail.into(),
        });
    }

    /// The median of `samples` (0 when there are none).
    pub fn median(&mut self, name: &'static str, samples: &mut Samples) {
        let v = samples.median().unwrap_or(0.0);
        self.value(name, v, format!("n={}", samples.len()));
    }

    pub fn ratio(&mut self, name: &'static str, r: Ratio) {
        self.value(name, r.value(), format!("base {}", r.describe()));
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        self.value(name, v, String::new());
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Prints one line per metric, then the result object as the last
    /// line. `expected` is the metric set this run must report.
    pub fn print(&self, expected: &[(&str, &str)]) {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names, want,
            "a run reports exactly its metric set, in order"
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for p in &self.problems {
            println!("# FAILED CHECK: {p}");
        }
        assert!(self.speed > 0.0, "the run is calibrated before it prints");
        println!("# machine speed {:.4} of the reference", self.speed);
        let values: Vec<f64> = self
            .metrics
            .iter()
            .zip(expected)
            .map(|(m, (_, unit))| at_reference_speed(m.value, unit, self.speed))
            .collect();
        for ((m, (_, unit)), v) in self.metrics.iter().zip(expected).zip(&values) {
            let raw = if *v == m.value {
                String::new()
            } else {
                format!(" (measured {:.6})", m.value)
            };
            println!("{:<30} {:>16.6} {:<6} {}{raw}", m.name, v, unit, m.detail);
        }
        let failed_ratio = Ratio::new(self.failed as f64, self.attempted as f64);
        println!(
            "{:<30} {:>16.6} {:<6} base {}",
            "failed_ratio",
            failed_ratio.value(),
            "ratio",
            failed_ratio.describe()
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .zip(expected)
            .zip(&values)
            .map(|((m, (_, unit)), v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.name,
                    json_number(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A measured value expressed at reference speed: times (`s`, `ms`,
/// `us`) are multiplied by `speed`, rates (`1/s`) divided by it, and
/// everything else (ratios, counts, memory) is left as measured.
pub fn at_reference_speed(value: f64, unit: &str, speed: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => value * speed,
        "1/s" => value / speed,
        _ => value,
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, are written as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
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

    /// `BENCHMARK.json` at the repository root names exactly these
    /// metrics with these units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (list, key) in [(E2E, "\"end_to_end\""), (LAYER, "\"per_layer\"")] {
            let section = &text[text.find(key).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let count = section.matches("\"name\"").count();
            assert_eq!(count, list.len(), "{key} lists {count} metrics");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn only_times_and_rates_are_speed_adjusted() {
        // A machine running at half the reference speed takes twice as
        // long: its times halve and its rates double at reference speed.
        assert_eq!(at_reference_speed(10.0, "ms", 0.5), 5.0);
        assert_eq!(at_reference_speed(4.0, "s", 0.5), 2.0);
        assert_eq!(at_reference_speed(3.0, "us", 0.5), 1.5);
        assert_eq!(at_reference_speed(100.0, "1/s", 0.5), 200.0);
        for unit in ["MB", "ratio", "count", "%"] {
            assert_eq!(at_reference_speed(7.0, unit, 0.5), 7.0);
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
