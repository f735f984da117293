//! The two in-process campaign workloads, `suite-cold` and
//! `exec-stream`.
//!
//! Every repetition is one cold campaign through
//! `CampaignRunner::try_run` with a fresh runner over a fresh, empty
//! sharded store.  `suite-cold` draws new seeds and a new population for
//! each repetition, from a cycle of [`SUITE_VARIANTS`] that the run's
//! seed fixes.  `exec-stream` warms its four tunes in set-up through the
//! same runner, so tuning counts in `setup_s` only.

use std::time::Instant;

use dmpb_population::PopulationSpec;
use dmpb_scenario::{CampaignRunner, Scenario};
use dmpb_workloads::{ClusterConfig, WorkloadKind};

use crate::replay::Pipeline;
use crate::report::{self, median, quantile, LayerInputs, Outcome};
use crate::trace::{self, span, Layer};
use crate::{open_store, Run, CLUSTER};

/// `suite-cold` campaigns one seed cycles through.  A population's tune
/// cost depends on which members it draws, so one population per run
/// would make a run's figures hang on a single draw; cycling averages
/// the draws of every repetition in the run.
pub const SUITE_VARIANTS: u64 = 6;

/// Campaigns every untraced run measures, even past `--seconds`: fewer
/// would leave the run's median and p90 to one or two population draws.
const MIN_CAMPAIGNS: usize = 4;

/// One workload's campaigns.
struct Plan {
    /// The measured campaigns: repetition `r` runs `variants[r % len]`.
    variants: Vec<Scenario>,
    /// Run in set-up through the same runner to warm its tunes.
    warmup: Option<Scenario>,
}

fn scenario(
    run: &Run,
    name: &str,
    workloads: &[WorkloadKind],
    elements: usize,
    seeds: Vec<u64>,
) -> Scenario {
    let mut s = Scenario::with_defaults(name);
    s.workloads = workloads.to_vec();
    s.clusters = vec![CLUSTER.to_string()];
    s.elements = vec![elements];
    s.seeds = seeds;
    s.workers = Some(run.threads());
    s
}

fn plan(run: &Run) -> Plan {
    if run.workload == "suite-cold" {
        // All eight named workloads plus a mixed population, two base
        // seeds: half the cells reuse a tune made by the other half.
        // Variant `v` draws its seeds and population from streams
        // 16v+1..=16v+3 of the run's seed.
        let (workloads, members): (&[WorkloadKind], u32) = if run.tiny {
            (&[WorkloadKind::AlexNet, WorkloadKind::InceptionV3], 2)
        } else {
            (&WorkloadKind::ALL, 16)
        };
        let variants = (0..SUITE_VARIANTS)
            .map(|v| {
                let mut s = scenario(
                    run,
                    "suite-cold",
                    workloads,
                    2_000,
                    vec![run.derive(16 * v + 1), run.derive(16 * v + 2)],
                );
                s.population = Some(PopulationSpec {
                    size: members,
                    base_seed: run.derive(16 * v + 3),
                    ..PopulationSpec::default()
                });
                s
            })
            .collect();
        return Plan {
            variants,
            warmup: None,
        };
    }
    // exec-stream: large streamed cells on tunes warmed in set-up.
    let (workloads, elements, chunk, seeds): (&[WorkloadKind], usize, usize, u64) = if run.tiny {
        (
            &[WorkloadKind::AlexNet, WorkloadKind::InceptionV3],
            1 << 16,
            1 << 14,
            2,
        )
    } else {
        (
            &[
                WorkloadKind::TeraSort,
                WorkloadKind::KMeans,
                WorkloadKind::PageRank,
                WorkloadKind::AlexNet,
            ],
            1 << 22,
            1 << 18,
            4,
        )
    };
    let mut s = scenario(
        run,
        "exec-stream",
        workloads,
        elements,
        (0..seeds).map(|i| run.derive(10 + i)).collect(),
    );
    s.chunk_elements = Some(chunk);
    // Same workloads and chunk setting (the runner keys its tuning
    // cache on both), tiny cells.
    let mut warmup = scenario(
        run,
        "exec-stream-warmup",
        workloads,
        2_000,
        vec![run.derive(9)],
    );
    warmup.chunk_elements = Some(chunk);
    Plan {
        variants: vec![s],
        warmup: Some(warmup),
    }
}

/// One untraced repetition.
struct Rep {
    setup_s: f64,
    latency_s: f64,
    cells: usize,
    /// `accuracy_avg` summed over the cells.
    accuracy_sum: f64,
    digest: u64,
    lines: String,
}

/// Runs repetition `rep` of `plan`.
fn untraced_rep(run: &Run, plan: &Plan, rep: usize) -> Result<Rep, String> {
    let dir = &run.store_dir(&run.workload);
    let started = Instant::now();
    let runner = CampaignRunner::with_store(open_store(dir)?).with_workers(run.threads());
    if let Some(warmup) = &plan.warmup {
        runner.try_run(warmup).map_err(|e| e.to_string())?;
    }
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report = runner
        .try_run(plan.variant(rep))
        .map_err(|e| e.to_string())?;
    let digest = report.digest();
    let lines = report.to_lines();
    let latency_s = started.elapsed().as_secs_f64();
    let cells = report.outcomes.len();
    let accuracy_sum = report.cells().map(|c| c.accuracy_avg).sum::<f64>();
    drop(runner);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Rep {
        setup_s,
        latency_s,
        cells,
        accuracy_sum,
        digest,
        lines,
    })
}

impl Plan {
    /// The campaign repetition `rep` runs.
    fn variant(&self, rep: usize) -> &Scenario {
        &self.variants[rep % self.variants.len()]
    }
}

/// The digest check for repetition `rep`: its variant's pinned digest
/// at the default seed, otherwise the digest of the variant's first
/// repetition in this run.
fn check_digest(
    run: &Run,
    plan: &Plan,
    first: &mut Vec<Option<u64>>,
    rep_index: usize,
    rep: &Rep,
) -> Option<String> {
    let variant = rep_index % plan.variants.len();
    first.resize(plan.variants.len(), None);
    let expected = run
        .pinned_digest(variant)
        .or(first[variant])
        .unwrap_or(rep.digest);
    first[variant].get_or_insert(rep.digest);
    (rep.digest != expected).then(|| {
        format!(
            "campaign digest {:016x} of variant {variant}, expected {expected:016x}",
            rep.digest
        )
    })
}

/// Runs `suite-cold` or `exec-stream`.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let plan = plan(run);
    if run.trace {
        return traced(run, &plan);
    }
    let mut outcome = Outcome::default();
    let mut first = Vec::new();
    let (mut setups, mut latencies, mut cells, mut accuracy_sum) = (vec![], vec![], 0, 0.0);
    let started = Instant::now();
    let mut index = 0;
    while started.elapsed() < run.seconds
        || (latencies.len() < MIN_CAMPAIGNS && index < 2 * MIN_CAMPAIGNS)
    {
        match untraced_rep(run, &plan, index) {
            Ok(rep) => {
                eprintln!(
                    "campaign {index} (variant {}): {:.0} ms, digest {:016x}",
                    index % plan.variants.len(),
                    rep.latency_s * 1e3,
                    rep.digest
                );
                outcome.record(check_digest(run, &plan, &mut first, index, &rep));
                setups.push(rep.setup_s);
                latencies.push(rep.latency_s);
                cells += rep.cells;
                accuracy_sum += rep.accuracy_sum;
            }
            Err(e) => {
                outcome.record(Some(e));
                if outcome.attempted >= 3 && latencies.is_empty() {
                    return Err("every campaign failed".to_string());
                }
            }
        }
        index += 1;
    }
    eprintln!(
        "{} campaigns, first digest {:016x}",
        latencies.len(),
        first.first().copied().flatten().unwrap_or(0)
    );
    let latency_ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    let busy_s: f64 = latencies.iter().sum();
    let m = &mut outcome.metrics;
    m.set("cells_per_s", cells as f64 / busy_s);
    m.set("requests_per_s", latencies.len() as f64 / busy_s);
    m.set("request_p50_ms", quantile(&latency_ms, 0.5));
    m.set("request_p90_ms", quantile(&latency_ms, 0.9));
    m.set("accuracy_mean", accuracy_sum / cells.max(1) as f64);
    m.set(
        "success_share",
        1.0 - outcome.failed as f64 / outcome.attempted as f64,
    );
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", report::peak_rss_mb());
    Ok(outcome)
}

/// The traced run: pairs of an untraced campaign and its traced replay
/// on a fresh pipeline and store, until `--seconds` have passed.
fn traced(run: &Run, plan: &Plan) -> Result<Outcome, String> {
    let cluster =
        ClusterConfig::by_name(CLUSTER).ok_or_else(|| format!("unknown cluster {CLUSTER}"))?;
    let mut outcome = Outcome::default();
    let mut inputs = LayerInputs {
        threads: run.threads(),
        ..LayerInputs::default()
    };
    let mut first = Vec::new();
    trace::enable_thread(0);
    let started = Instant::now();
    let mut index = 0;
    while inputs.replay_s == 0.0 || started.elapsed() < run.seconds {
        let rep = untraced_rep(run, plan, index)?;
        outcome.record(check_digest(run, plan, &mut first, index, &rep));
        inputs.untraced_s += rep.latency_s;

        let dir = run.store_dir("replay");
        let store = span("ResultStore::open_sharded", Layer::Store, || {
            open_store(&dir)
        })?;
        let scenario = plan.variant(index);
        let pipeline = Pipeline::new(cluster, scenario.chunk_elements, run.threads(), store);
        if let Some(warmup) = &plan.warmup {
            pipeline.run_campaign(warmup)?;
        }
        inputs.setup.extend(trace::take_thread_spans());
        inputs.setup.extend(pipeline.take_spans());

        let before = pipeline.totals();
        let replay_started = Instant::now();
        let replayed = pipeline.run_campaign(scenario);
        inputs.replay_s += replay_started.elapsed().as_secs_f64();
        inputs.totals.add_window(before, pipeline.totals());
        inputs.replay.extend(trace::take_thread_spans());
        inputs.replay.extend(pipeline.take_spans());
        outcome.record(match replayed {
            Ok(lines) if lines == rep.lines => None,
            Ok(_) => Some("the traced replay's report differs from the campaign's".to_string()),
            Err(e) => Some(format!("traced replay failed: {e}")),
        });
        drop(pipeline);
        let _ = std::fs::remove_dir_all(&dir);
        index += 1;
    }
    crate::finish_trace(run, &inputs, &mut outcome);
    Ok(outcome)
}
