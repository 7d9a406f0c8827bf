//! Order statistics, the run's result line and process memory.

/// The `q`-quantile of `values` (nearest rank on the sorted copy); NaN when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median, over consecutive windows of `window` samples, of each
/// window's `q`-quantile: a tail estimate that a stall of the host hitting
/// a few windows cannot move. With fewer than two windows, the plain
/// quantile.
pub fn windowed_quantile(values: &[f64], q: f64, window: usize) -> f64 {
    if values.len() < 2 * window {
        return quantile(values, q);
    }
    let per_window: Vec<f64> = values.chunks_exact(window).map(|w| quantile(w, q)).collect();
    median(&per_window)
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a run found: operations attempted and failed, correctness, and the
/// metric values keyed by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons for failures, printed to stderr.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// The result line: every metric of `spec` in order, with its unit.
    /// A metric that is missing or not finite makes the run incorrect.
    pub fn result_line(&mut self, spec: &[(String, String)]) -> String {
        let mut parts = Vec::with_capacity(spec.len());
        let mut broken = Vec::new();
        for (name, unit) in spec {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    broken.push(format!("metric {name} is {other:?}"));
                    -1.0
                }
            };
            parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        for b in broken {
            self.problems.push(b);
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}
