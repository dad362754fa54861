//! What one run reports: named metrics with units, the attempted and
//! failed operation counts, and free-form provenance lines.

use crate::stats::{valid_name, valid_unit};

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How it was obtained (percentile label, sample count, …).
    pub note: String,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted (jobs, requests, ingests, output checks).
    pub attempted: u64,
    /// Operations that failed, were shed, or gave a wrong answer.
    pub failed: u64,
    /// Human-readable context printed before the metrics.
    pub lines: Vec<String>,
}

impl RunResult {
    /// Records a metric.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.into(),
        });
    }

    /// Adds a line of context.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one checked operation; `ok = false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.line(format!("CHECK FAILED: {what}"));
        }
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The last line of output: `correct`, `attempted`, `failed`, and
    /// the metrics named in `wanted` (each `(name, unit)`), in that
    /// order. Errors if nothing was attempted, or if a wanted metric is
    /// missing, has another unit, or is not a finite number.
    pub fn result_json(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        let mut fields = Vec::new();
        for &(name, unit) in wanted {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("invalid metric name or unit: {name} [{unit}]"));
            }
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!("metric {name} has unit {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {}", m.value));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Returns the heap's free pages to the OS (glibc `malloc_trim`), so
/// memory a finished phase freed is not left resident beside what the
/// next phase allocates in another allocator arena.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: malloc_trim takes no pointers and only releases free memory.
    unsafe {
        malloc_trim(0);
    }
}

/// See the glibc version; other allocators keep their pages.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_emits_wanted_metrics_only() {
        let mut r = RunResult::default();
        r.put("a_s", "s", 1.25, "");
        r.put("b", "count", 3.0, "");
        r.check(true, "x");
        let line = r.result_json(&[("a_s", "s")]).unwrap();
        let j = farmer_support::json::Json::parse(&line).unwrap();
        assert_eq!(j["correct"], farmer_support::json::Json::Bool(true));
        assert_eq!(j["attempted"].as_u64(), Some(1));
        assert_eq!(j["metrics"]["a_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(j["metrics"]["a_s"]["unit"].as_str(), Some("s"));
        assert!(r.result_json(&[("missing", "s")]).is_err());
        assert!(r.result_json(&[("b", "s")]).is_err());
        assert!(r.result_json(&[("bad name", "s")]).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = RunResult::default();
        assert!(r.result_json(&[]).is_err(), "nothing attempted yet");
        r.check(false, "answer differs");
        let j = farmer_support::json::Json::parse(&r.result_json(&[]).unwrap()).unwrap();
        assert_eq!(j["correct"], farmer_support::json::Json::Bool(false));
        assert_eq!(j["failed"].as_u64(), Some(1));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
