//! What a run hands back: operation counts, output checks, and metric
//! samples, plus the one-line JSON result the benchmark prints.

use crate::measure::{median, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them from its
/// untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("total_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by the traced run. A workload that
/// makes no call into a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ecosystem.generate_s", "s"),
    ("ecosystem.events", "count"),
    ("ecosystem.peak_rss_mb", "MB"),
    ("mailsim.provider_s", "s"),
    ("mailsim.peak_rss_mb", "MB"),
    ("feeds.collect_s", "s"),
    ("feeds.events_per_s", "1/s"),
    ("feeds.peak_rss_mb", "MB"),
    ("feeds.renders", "count"),
    ("feeds.records", "count"),
    ("classify.build_s", "s"),
    ("classify.crawl_attempts", "count"),
    ("classify.bitset_word_ops", "count"),
    ("analysis.paper_s", "s"),
    ("analysis.studies_s", "s"),
    ("report.render_s", "s"),
    ("report.bytes", "bytes"),
    ("report.render_per_studies", "1"),
    ("replicate.fanout_s", "s"),
    ("replicate.serial_sum_s", "s"),
    ("replicate.par_efficiency", "1"),
    ("stats.bootstrap_s", "s"),
    ("serve.new_s", "s"),
    ("serve.advance_ms_p50", "ms"),
    ("serve.advance_ms_p99", "ms"),
    ("serve.seal_ms_p50", "ms"),
    ("serve.seal_ms_p99", "ms"),
    ("serve.final_report_s", "s"),
    ("serve.epochs", "count"),
    ("serve.ingest_s", "s"),
    ("client.query_p50_ms", "ms"),
    ("client.query_p99_ms", "ms"),
    ("client.sent", "count"),
    ("client.ok", "count"),
    ("client.shed", "count"),
    ("client.not_ready", "count"),
    ("client.timeouts", "count"),
    ("client.io_errors", "count"),
    ("client.lag_ms_max", "ms"),
    ("fail_ratio", "1"),
    ("trace.total_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
    ("machine.probe_s", "s"),
];

/// Operations attempted and failed, and whether every output matched
/// its reference.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, or produced wrong output.
    pub failed: u64,
    /// Outputs that differed from their reference, or runs that
    /// errored; any makes the run incorrect.
    pub wrong: Vec<String>,
}

impl Tally {
    /// One operation whose output must equal `want`. Returns whether it
    /// did.
    pub fn check_output(&mut self, what: &str, got: &str, want: &str) -> bool {
        self.attempted += 1;
        if got == want {
            return true;
        }
        self.failed += 1;
        self.wrong
            .push(format!("{what}: output differs from its reference"));
        false
    }

    /// One operation that errored before producing output.
    pub fn error(&mut self, what: &str, err: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong.push(format!("{what}: {err}"));
    }

    /// A batch of `sent` queries, `failed` of which got no `OK`, whose
    /// run ended in a final report that is checked against `want`. A
    /// wrong report fails every query of that run.
    pub fn queries(&mut self, sent: u64, failed: u64, report: &str, want: &str) {
        self.attempted += sent;
        if report == want {
            self.failed += failed.min(sent);
        } else {
            self.failed += sent;
            self.wrong
                .push("serve: final report differs from the batch report".to_string());
        }
    }

    /// True when every output matched and nothing errored.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }
}

/// Everything a run or an iteration records.
pub struct Records {
    /// Spans around the layer calls.
    pub tracer: Tracer,
    /// Metric samples.
    pub samples: Samples,
    /// Operations and output checks.
    pub tally: Tally,
}

impl Records {
    /// Empty records, with span recording on or off.
    pub fn new(trace: bool) -> Records {
        Records {
            tracer: Tracer::new(trace),
            samples: Samples::default(),
            tally: Tally::default(),
        }
    }
}

/// Metric samples by name; each reports the median of its samples.
/// A name present with no samples was defined but not measurable
/// (`/proc` unavailable) and is left out of the result.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.entry(name).push(value);
    }

    /// Adds a sample that may be unavailable.
    pub fn push_opt(&mut self, name: &str, value: Option<f64>) {
        let entry = self.entry(name);
        if let Some(v) = value {
            entry.push(v);
        }
    }

    fn entry(&mut self, name: &str) -> &mut Vec<f64> {
        self.0.entry(name.to_string()).or_default()
    }

    /// Every metric with its samples.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// All samples of one metric.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Multiplies the samples of one metric from index `from` on by
    /// `factor`.
    pub fn scale_since(&mut self, name: &str, from: usize, factor: f64) {
        for v in self.entry(name).iter_mut().skip(from) {
            *v *= factor;
        }
    }

    /// The median of one metric's samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        median(self.get(name))
    }

    /// Whether the metric was measured (possibly without a value).
    pub fn defines(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Run-level figures derived from the medians: the tracing overhead,
/// and the ratios, whose bases are reported beside them.
pub fn derived(samples: &mut Samples) {
    let ratio = |samples: &Samples, a: &str, b: &str| Some(samples.median(a)? / samples.median(b)?);
    if let (Some(traced), Some(plain)) =
        (samples.median("trace.total_s"), samples.median("total_s"))
    {
        samples.push("trace.overhead_s", traced - plain);
    }
    if let Some(r) = ratio(samples, "report.render_s", "analysis.studies_s") {
        samples.push("report.render_per_studies", r);
    }
    if let Some(r) = ratio(samples, "replicate.serial_sum_s", "replicate.fanout_s") {
        samples.push(
            "replicate.par_efficiency",
            r / crate::batch::FANOUT_WORKERS as f64,
        );
    }
}

/// Renders the result line. `table` lists the metrics to report;
/// metrics the workload never measured read 0 when `bypass_is_zero`
/// (a layer the workload does not call did no work), and are left out
/// otherwise.
pub fn render_result(
    tally: &Tally,
    samples: &Samples,
    table: &[(&str, &str)],
    bypass_is_zero: bool,
) -> String {
    let mut metrics = String::new();
    for (name, unit) in table {
        let value = if samples.defines(name) {
            samples.median(name)
        } else if bypass_is_zero {
            Some(0.0)
        } else {
            None
        };
        let Some(v) = value.filter(|v| v.is_finite()) else {
            continue;
        };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_altered_output_counts_as_failed() {
        let mut t = Tally::default();
        assert!(t.check_output("run 0", "report", "report"));
        let mut altered = "report".to_string();
        altered.replace_range(0..1, "R");
        assert!(!t.check_output("run 1", &altered, "report"));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(!t.correct());
    }

    #[test]
    fn a_wrong_final_report_fails_every_query_of_its_run() {
        let mut t = Tally::default();
        t.queries(100, 3, "same", "same");
        assert_eq!((t.attempted, t.failed), (100, 3));
        assert!(t.correct());
        t.queries(50, 0, "sane", "same");
        assert_eq!((t.attempted, t.failed), (150, 53));
        assert!(!t.correct());
    }

    #[test]
    fn result_line_reports_medians_and_skips_unmeasurable_metrics() {
        let mut s = Samples::default();
        s.push("total_s", 3.0);
        s.push("total_s", 1.0);
        s.push("total_s", 2.0);
        s.push_opt("peak_rss_mb", None);
        let t = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let line = render_result(&t, &s, END_TO_END, false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"total_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        let line = render_result(&t, &s, END_TO_END, true);
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains("peak_rss_mb"));
    }
}
