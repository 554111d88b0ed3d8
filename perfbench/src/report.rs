//! The run's result: operations attempted and failed, and named metrics.
//!
//! Every metric is printed with its unit on its own line, and the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.

use std::fmt::Write as _;

/// Operations, checks and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one operation (a cell execute, a submit, an output check);
    /// a failed one is counted as failed and explained on standard error.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Operations counted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed operations counted so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records one metric. A value that is not a finite number cannot be
    /// printed as JSON and fails the run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        let value = if value.is_finite() {
            value
        } else {
            self.op(false, || format!("metric {name} is {value}"));
            0.0
        };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The human-readable lines followed by the final JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<28} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "{:<28} {:>16} of {}",
            "failed operations", self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` as Linux defines it on 64-bit targets: two
    /// `timeval`s, then fourteen `long` counters starting with `ru_maxrss`.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the C layout of
    // `struct rusage` on 64-bit Linux, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    // ru_maxrss is in KiB on Linux.
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_result_object() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.op(false, || "bad figures".to_string());
        r.metric("wall_s", 1.25, "s");
        r.metric("ratio", f64::NAN, "ratio");
        let text = r.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 2, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"ratio\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
