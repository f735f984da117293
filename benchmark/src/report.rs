//! Statistics, the metric tables, and the result line.

use std::fmt::Write as _;

use crate::replay::Totals;
use crate::trace::{self, Layer, Span};

/// End-to-end metrics (`--trace 0`): name and unit.  Mirrors
/// `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("cells_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("accuracy_mean", "ratio"),
    ("success_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.  Mirrors `per_layer`
/// in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("population.synth_ms", "ms"),
    ("population.members", "count"),
    ("population.share", "ratio"),
    ("tuner.tunes", "count"),
    ("tuner.cache_hits", "count"),
    ("tuner.duplicate_tunes", "count"),
    ("tuner.iterations", "count"),
    ("tuner.busy_s", "s"),
    ("tuner.tune_ms_p50", "ms"),
    ("tuner.tune_ms_p90", "ms"),
    ("tuner.share", "ratio"),
    ("perfmodel.measure_ms_p50", "ms"),
    ("perfmodel.cell_measure_busy_s", "s"),
    ("perfmodel.share", "ratio"),
    ("executor.busy_s", "s"),
    ("executor.elements", "count"),
    ("executor.elements_per_s", "1/s"),
    ("executor.kernels_run", "count"),
    ("executor.share", "ratio"),
    ("store.lookups", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.lookup_us_p50", "us"),
    ("store.insert_us_p50", "us"),
    ("store.sync_ms_p50", "ms"),
    ("store.open_ms", "ms"),
    ("store.persist_errors", "count"),
    ("store.share", "ratio"),
    ("campaign.expand_ms", "ms"),
    ("campaign.report_ms", "ms"),
    ("campaign.share", "ratio"),
    ("service.overhead_ms_p50", "ms"),
    ("service.polls_per_request", "count"),
    ("service.report_bytes", "bytes"),
    ("service.rejected", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replay_s", "s"),
];

/// The coverage a traced run must reach.
pub const MIN_COVERAGE: f64 = 0.95;

/// The median (mean of the middle two for an even count); 0 for none.
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

/// The nearest-rank `q`-quantile; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A run's metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (campaigns or daemon submissions).
    pub attempted: u64,
    /// Operations that failed: a cell error, a refused or failed
    /// request, or a digest or replay mismatch.
    pub failed: u64,
    /// Check failures that are not operations (trace coverage).
    pub problems: Vec<String>,
    /// Measured metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one operation, failed when `error` is set.
    pub fn record(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(error) = error {
            self.failed += 1;
            self.problems.push(error);
        }
    }

    /// Renders the result line for `table`, which must all be measured.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Inputs to the per-layer split of one traced run.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Spans recorded inside the replay window.
    pub replay: Vec<Span>,
    /// Spans recorded during the traced run's set-up (tuning warm-up,
    /// store fill and opens).
    pub setup: Vec<Span>,
    /// Replay wall time, seconds.
    pub replay_s: f64,
    /// The untraced run of the same work, seconds.
    pub untraced_s: f64,
    /// Threads the replay ran on.
    pub threads: usize,
    /// Pipeline counters inside the replay window.
    pub totals: Totals,
    /// Service-layer figures from the untraced daemon pass (zeros on
    /// workloads without a daemon): overhead p50 ms, polls per request,
    /// report bytes per request, rejected submissions.
    pub service: [f64; 4],
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Computes every per-layer metric into `metrics`; returns the trace
/// coverage.
pub fn layer_metrics(input: &LayerInputs, metrics: &mut Metrics) -> f64 {
    let spans = &input.replay;
    let self_ns = trace::layer_self_ns(spans);
    let total_self: u64 = self_ns.iter().sum();
    let share = |layer: Layer| self_ns[layer as usize] as f64 / total_self.max(1) as f64;
    let busy_s = |layer: Layer| self_ns[layer as usize] as f64 / 1e9;
    let named = |name: &str| ms(&trace::durations_ns(spans, name));
    let all_spans: Vec<Span> = input.setup.iter().chain(spans).cloned().collect();
    let everywhere = |name: &str| ms(&trace::durations_ns(&all_spans, name));
    let coverage = total_self as f64 / 1e9 / (input.replay_s * input.threads as f64).max(1e-9);

    let members = named("PopulationGenerator::member");
    metrics.set(
        "population.synth_ms",
        members.iter().fold(0.0, |a, b| a + b),
    );
    metrics.set("population.members", members.len() as f64);
    metrics.set("population.share", share(Layer::Population));

    // Tunes of the whole traced run, set-up included: on workloads that
    // warm their tunes in set-up, this is what moves `setup_s`.
    let tunes = everywhere("ProxyGenerator::generate");
    let totals = &input.totals;
    metrics.set("tuner.tunes", totals.tunes as f64);
    metrics.set("tuner.cache_hits", totals.cache_hits as f64);
    metrics.set(
        "tuner.duplicate_tunes",
        totals.cache_misses.saturating_sub(totals.cache_entries) as f64,
    );
    metrics.set("tuner.iterations", totals.iterations as f64);
    metrics.set("tuner.busy_s", busy_s(Layer::Tuner));
    metrics.set("tuner.tune_ms_p50", quantile(&tunes, 0.5));
    metrics.set("tuner.tune_ms_p90", quantile(&tunes, 0.9));
    metrics.set("tuner.share", share(Layer::Tuner));

    metrics.set(
        "perfmodel.measure_ms_p50",
        quantile(&everywhere("Workload::measure"), 0.5),
    );
    let compute_s = named("CellResult::compute_for")
        .iter()
        .fold(0.0, |a, b| a + b)
        / 1e3;
    metrics.set("perfmodel.cell_measure_busy_s", compute_s);
    metrics.set("perfmodel.share", share(Layer::Perfmodel));

    let executor_s = busy_s(Layer::Executor);
    metrics.set("executor.busy_s", executor_s);
    metrics.set("executor.elements", totals.elements as f64);
    metrics.set(
        "executor.elements_per_s",
        totals.elements as f64 / executor_s.max(1e-9),
    );
    metrics.set("executor.kernels_run", totals.kernels as f64);
    metrics.set("executor.share", share(Layer::Executor));

    let lookups = totals.store_hits + totals.store_misses;
    metrics.set("store.lookups", lookups as f64);
    metrics.set(
        "store.hit_ratio",
        totals.store_hits as f64 / lookups.max(1) as f64,
    );
    metrics.set(
        "store.lookup_us_p50",
        quantile(&named("ResultStore::lookup"), 0.5) * 1e3,
    );
    metrics.set(
        "store.insert_us_p50",
        quantile(&everywhere("ResultStore::insert"), 0.5) * 1e3,
    );
    metrics.set(
        "store.sync_ms_p50",
        quantile(&everywhere("ResultStore::sync"), 0.5),
    );
    metrics.set(
        "store.open_ms",
        quantile(&everywhere("ResultStore::open_sharded"), 0.5),
    );
    metrics.set("store.persist_errors", totals.persist_errors as f64);
    metrics.set("store.share", share(Layer::Store));

    metrics.set(
        "campaign.expand_ms",
        quantile(&named("Scenario::expand"), 0.5),
    );
    let digests = named("CampaignReport::digest");
    let lines = named("CampaignReport::to_lines");
    let reports: Vec<f64> = digests.iter().zip(&lines).map(|(a, b)| a + b).collect();
    metrics.set("campaign.report_ms", quantile(&reports, 0.5));
    metrics.set("campaign.share", share(Layer::Campaign));

    metrics.set("service.overhead_ms_p50", input.service[0]);
    metrics.set("service.polls_per_request", input.service[1]);
    metrics.set("service.report_bytes", input.service[2]);
    metrics.set("service.rejected", input.service[3]);

    metrics.set("trace.coverage", coverage);
    metrics.set(
        "trace.overhead_ratio",
        input.replay_s / input.untraced_s.max(1e-9),
    );
    metrics.set("trace.replay_s", input.replay_s);
    coverage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[1.0, 5.0, 3.0, 4.0]), 3.5);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut outcome = Outcome::default();
        outcome.record(None);
        for (name, _) in END_TO_END {
            outcome.metrics.set(name, 1.25);
        }
        let line = outcome.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
