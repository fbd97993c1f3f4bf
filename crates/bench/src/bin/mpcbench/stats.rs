//! Small numeric and output helpers: quantiles, the metric list with its
//! hand-rolled JSON (serde is unavailable offline), the interference canary.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64 finaliser. The harness's own copy: seeds, probe inputs and the
/// canary must not change when the system under test does.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Quantile `q ∈ [0, 1]` of an ascending sample, linearly interpolated
/// between the closest ranks. `NaN` on an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_unstable_by(f64::total_cmp);
    xs
}

pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(xs.to_vec()), q)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Pass-median throughput: ops in a pass over the median pass time.
pub fn pass_median_ops_per_s(pass_ops: usize, pass_secs: &[f64]) -> f64 {
    pass_ops as f64 / median(pass_secs)
}

pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median wall time of `f` over `iters` calls after one untimed call, in
/// seconds. `setup` makes each call's input outside the timed section.
pub fn time_median<I, T>(
    iters: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    std::hint::black_box(f(setup()));
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(f(input));
            secs_since(t0)
        })
        .collect();
    median(&samples)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One `name value unit` line per metric.
    pub fn print(&self, heading: &str) {
        println!("# {heading}");
        for m in &self.0 {
            println!("{:<36} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
    }

    /// Only the named metrics, in the order named; `Err` names the first one
    /// missing or not finite (JSON has no NaN).
    pub fn select(&self, names: &[&str]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for name in names {
            let m = self
                .0
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{name}` is not finite"));
            }
            out.0.push(m.clone());
        }
        Ok(out)
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the benchmark contract asks for: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`. Values print with
/// every digit `f64` holds (shortest round-trip form).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Ops and checks attempted, and how many of them failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one op or check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The interference canary: a fixed pure-CPU kernel timed between passes.
/// Its spread says whether a neighbour disturbed the run; it never drops one.
pub struct Canary {
    words: usize,
    samples_ms: Vec<f64>,
}

/// A run whose canary max exceeds its median by this factor is flagged.
pub const DISTURBED_SPREAD: f64 = 1.25;

impl Canary {
    pub fn new(words: usize) -> Canary {
        Canary {
            words,
            samples_ms: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..self.words as u64 {
            acc ^= mix64(i ^ acc);
        }
        std::hint::black_box(acc);
        self.samples_ms.push(secs_since(t0) * 1e3);
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Max over median.
    pub fn spread(&self) -> f64 {
        let max = self.samples_ms.iter().copied().fold(f64::NAN, f64::max);
        max / self.p50_ms()
    }

    pub fn disturbed(&self) -> bool {
        self.spread() > DISTURBED_SPREAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn pass_median_ignores_one_slow_pass() {
        // 10 ops per pass, passes of 1 s except one disturbed 5 s pass.
        let secs = [1.0, 1.0, 5.0, 1.0, 1.0];
        assert_eq!(pass_median_ops_per_s(10, &secs), 10.0);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.2034, "ms");
        m.push("setup_s", 0.5, "s");
        assert_eq!(
            result_json(true, 1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn select_refuses_missing_and_non_finite() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "ms");
        m.push("b", f64::NAN, "ms");
        assert_eq!(m.select(&["a"]).unwrap().0.len(), 1);
        assert!(m.select(&["c"]).is_err());
        assert!(m.select(&["b"]).is_err());
    }

    #[test]
    fn canary_reports_a_spread_of_at_least_one() {
        let mut c = Canary::new(1 << 10);
        for _ in 0..3 {
            c.sample();
        }
        assert!(c.p50_ms() > 0.0);
        assert!(c.spread() >= 1.0);
    }
}
