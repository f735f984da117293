//! The traced replay: a campaign cell's pipeline rebuilt from the
//! layers' public functions, with a span around every call.
//!
//! It mirrors `CampaignRunner::try_run` / `run_cell` step for step —
//! store lookup; on a miss, population member synthesis, tuning-cache
//! lookup and (on a tuning miss) `ProxyGenerator::generate` + insert,
//! `execute_dag`, `CellResult::compute_for` and the store insert; then
//! one store sync and the report — so its lines must equal the untraced
//! campaign's byte for byte.  The kernel profiler is left as the
//! process has it: turning it on would suppress superkernel fusion and
//! change the measured code path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dmpb_core::proxy::ExecutionSummary;
use dmpb_core::runner::{fingerprint_cluster, ProxyRun, TuningCache, TuningKey};
use dmpb_core::{DagExecutor, ProxyGenerator};
use dmpb_datagen::DataDescriptor;
use dmpb_metrics::MetricVector;
use dmpb_motifs::{DagPlan, MotifClass, MotifKind, WorkerPool};
use dmpb_perfmodel::profile::OpProfile;
use dmpb_population::PopulationGenerator;
use dmpb_scenario::{
    CampaignCell, CampaignReport, CellOutcome, CellResult, ResultStore, Scenario,
    CODE_MODEL_VERSION,
};
use dmpb_workloads::{workload_by_kind, ClusterConfig, Workload, WorkloadKind};

use crate::trace::{self, span, Layer, Span};

/// A workload whose `measure` — the performance model — is recorded as
/// a span; every other method delegates unchanged.
struct Timed<'a>(&'a dyn Workload);

impl std::fmt::Debug for Timed<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Workload for Timed<'_> {
    fn kind(&self) -> WorkloadKind {
        self.0.kind()
    }
    fn pattern(&self) -> &'static str {
        self.0.pattern()
    }
    fn input_descriptor(&self) -> DataDescriptor {
        self.0.input_descriptor()
    }
    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        self.0.motif_composition()
    }
    fn involved_motifs(&self) -> Vec<MotifKind> {
        self.0.involved_motifs()
    }
    fn dag_plan(&self) -> DagPlan {
        self.0.dag_plan()
    }
    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        self.0.per_node_profile(cluster)
    }
    fn tasks_per_node(&self, cluster: &ClusterConfig) -> u32 {
        self.0.tasks_per_node(cluster)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn measure(&self, cluster: &ClusterConfig) -> MetricVector {
        span("Workload::measure", Layer::Perfmodel, || {
            self.0.measure(cluster)
        })
    }
}

/// Work counters the spans do not carry.
#[derive(Debug, Default)]
struct Counters {
    tunes: AtomicU64,
    iterations: AtomicU64,
    elements: AtomicU64,
    kernels: AtomicU64,
}

/// One tuning cluster's cell pipeline: the parts a `CampaignRunner`
/// builds for a cluster (generator, tuning cache, executor) over one
/// result store.
pub struct Pipeline {
    generator: ProxyGenerator,
    cluster_fingerprint: u64,
    cache: TuningCache,
    executor: DagExecutor,
    store: ResultStore,
    threads: usize,
    next_group: AtomicU64,
    counters: Counters,
    spans: Mutex<Vec<Span>>,
    sync_turn: Mutex<()>,
}

/// A pipeline's cumulative counters at one point in time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// `ProxyGenerator::generate` calls.
    pub tunes: u64,
    /// Adjusting/feedback iterations those tunes spent.
    pub iterations: u64,
    /// Elements the executed DAGs processed.
    pub elements: u64,
    /// Motif kernels the executed DAGs ran.
    pub kernels: u64,
    /// Tuning-cache hits.
    pub cache_hits: u64,
    /// Tuning-cache misses.
    pub cache_misses: u64,
    /// Tuning-cache entries.
    pub cache_entries: u64,
    /// Result-store hits.
    pub store_hits: u64,
    /// Result-store misses.
    pub store_misses: u64,
    /// Result-store persistence errors.
    pub persist_errors: u64,
}

impl Totals {
    fn fields(&mut self) -> [&mut u64; 10] {
        [
            &mut self.tunes,
            &mut self.iterations,
            &mut self.elements,
            &mut self.kernels,
            &mut self.cache_hits,
            &mut self.cache_misses,
            &mut self.cache_entries,
            &mut self.store_hits,
            &mut self.store_misses,
            &mut self.persist_errors,
        ]
    }

    /// Adds `later - earlier`, field by field.
    pub fn add_window(&mut self, mut earlier: Totals, mut later: Totals) {
        for ((sum, before), after) in self
            .fields()
            .into_iter()
            .zip(earlier.fields())
            .zip(later.fields())
        {
            *sum += after.saturating_sub(*before);
        }
    }
}

/// A replayed campaign: its report lines, or why it failed.
pub type Replayed = Result<String, String>;

impl Pipeline {
    /// A pipeline tuning on `cluster`, executing with `chunk_elements`
    /// streaming (as `CampaignRunner::with_chunk_elements`), running
    /// cells on `threads` threads over `store`.
    pub fn new(
        cluster: ClusterConfig,
        chunk_elements: Option<usize>,
        threads: usize,
        store: ResultStore,
    ) -> Self {
        // The campaign runner's pool: the calling thread participates,
        // so `threads - 1` pool workers.
        let pool = Arc::new(WorkerPool::new(threads.saturating_sub(1)));
        Self {
            cluster_fingerprint: fingerprint_cluster(&cluster),
            generator: ProxyGenerator::new(cluster),
            cache: TuningCache::new(),
            executor: DagExecutor::new()
                .with_max_parallel(1)
                .with_chunk_elements(chunk_elements)
                .with_worker_pool(pool),
            store,
            threads: threads.max(1),
            next_group: AtomicU64::new(1),
            counters: Counters::default(),
            spans: Mutex::new(Vec::new()),
            sync_turn: Mutex::new(()),
        }
    }

    /// Replaces the result store (to time a re-open).
    pub fn set_store(&mut self, store: ResultStore) {
        self.store = store;
    }

    /// The pipeline's counters now.
    pub fn totals(&self) -> Totals {
        let cache = self.cache.stats();
        let store = self.store.stats();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        Totals {
            tunes: load(&self.counters.tunes),
            iterations: load(&self.counters.iterations),
            elements: load(&self.counters.elements),
            kernels: load(&self.counters.kernels),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            store_hits: store.hits,
            store_misses: store.misses,
            persist_errors: store.persist_errors,
        }
    }

    /// Takes the spans recorded on the pipeline's helper threads.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn group(&self) -> u64 {
        self.next_group.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `work(i)` for every `i < items` on the calling thread plus
    /// `threads - 1` helpers pulling from one cursor, as the campaign
    /// runner batches cells.  Helper threads record spans as threads
    /// `1..threads` when the caller is recording.
    fn fan_out<T: Send + Sync>(&self, items: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<OnceLock<T>> = (0..items).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let drain = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= items {
                break;
            }
            assert!(slots[index].set(work(index)).is_ok(), "slot filled twice");
        };
        let tracing = trace::is_enabled();
        std::thread::scope(|scope| {
            for thread in 1..self.threads.min(items.max(1)) {
                let drain = &drain;
                scope.spawn(move || {
                    if tracing {
                        trace::enable_thread(thread);
                    }
                    drain();
                    let spans = trace::take_thread_spans();
                    self.spans
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(spans);
                });
            }
            drain();
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every item ran"))
            .collect()
    }

    /// Replays one campaign as `CampaignRunner::try_run` runs it: the
    /// cells across the pipeline's threads, each cell's spans under its
    /// own group id, then one sync and the report (digest + lines, as
    /// the daemon renders it).
    pub fn run_campaign(&self, scenario: &Scenario) -> Replayed {
        let campaign = self.group();
        trace::set_group(campaign);
        let cells = span("Scenario::expand", Layer::Campaign, || scenario.expand());
        let results = self.fan_out(cells.len(), |index| {
            trace::set_group(self.group());
            span("cell", Layer::Campaign, || self.try_cell(&cells[index]))
        });
        trace::set_group(campaign);
        self.finish(scenario, results)
    }

    /// Replays one daemon submission on the calling thread: the submit
    /// handler's parse and expand, then the dispatcher's `try_run` with
    /// its cells run in order, and the report.  Every span of the
    /// submission shares one group id.
    pub fn run_submission(&self, dsl: &str) -> Replayed {
        trace::set_group(self.group());
        span("submission", Layer::Campaign, || {
            let scenario = span("Scenario::parse", Layer::Campaign, || Scenario::parse(dsl))
                .map_err(|e| format!("scenario: {e}"))?;
            span("Scenario::expand", Layer::Campaign, || {
                scenario.expand().len()
            });
            let cells = span("Scenario::expand", Layer::Campaign, || scenario.expand());
            let results = cells
                .iter()
                .map(|cell| span("cell", Layer::Campaign, || self.try_cell(cell)))
                .collect();
            self.finish(&scenario, results)
        })
    }

    /// Replays `submissions` across the pipeline's threads, one whole
    /// submission per thread at a time.
    pub fn run_submissions(&self, submissions: &[String]) -> Vec<Replayed> {
        self.fan_out(submissions.len(), |index| {
            self.run_submission(&submissions[index])
        })
    }

    fn finish(&self, scenario: &Scenario, results: Vec<Result<CellOutcome, String>>) -> Replayed {
        // `ResultStore::sync` is not safe to run twice at once: both
        // calls write and rename the same temporary sidecar file, and
        // the loser's rename fails.  The daemon never overlaps syncs (it
        // runs one campaign at a time), so replayed submissions that run
        // side by side take turns; the wait is outside the span.
        {
            let _turn = self
                .sync_turn
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let _ = span("ResultStore::sync", Layer::Store, || self.store.sync());
        }
        let mut outcomes = Vec::with_capacity(results.len());
        let mut failures = Vec::new();
        for result in results {
            match result {
                Ok(outcome) => outcomes.push(outcome),
                Err(failure) => failures.push(failure),
            }
        }
        if !failures.is_empty() {
            return Err(failures.join("; "));
        }
        let population = span("Scenario::population_plan", Layer::Campaign, || {
            scenario.population_plan()
        });
        let report = CampaignReport {
            scenario: scenario.name.clone(),
            outcomes,
            population,
        };
        span("CampaignReport::digest", Layer::Campaign, || {
            report.digest()
        });
        Ok(span("CampaignReport::to_lines", Layer::Campaign, || {
            report.to_lines()
        }))
    }

    /// One cell, with a panic turned into an error as the campaign
    /// runner does.
    fn try_cell(&self, cell: &CampaignCell) -> Result<CellOutcome, String> {
        catch_unwind(AssertUnwindSafe(|| self.run_cell(cell))).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("cell {} panicked: {message}", cell.index))
        })
    }

    fn run_cell(&self, cell: &CampaignCell) -> Result<CellOutcome, String> {
        if fingerprint_cluster(&cell.tuning_cluster()) != self.cluster_fingerprint {
            return Err(format!("cell {} tunes on another cluster", cell.index));
        }
        let fingerprint = cell.fingerprint(CODE_MODEL_VERSION);
        if let Some(result) = span("ResultStore::lookup", Layer::Store, || {
            self.store.lookup(fingerprint)
        }) {
            return Ok(CellOutcome {
                result,
                cached: true,
            });
        }
        let result = match &cell.population {
            Some(pop) => {
                let member = span("PopulationGenerator::member", Layer::Population, || {
                    PopulationGenerator::new(pop.spec).map(|g| g.member(pop.rank))
                })
                .map_err(|e| format!("invalid population spec: {e}"))?;
                let key = TuningKey::for_synthetic(member.kind(), &self.generator, pop.member_hash);
                let run = self.tune_and_execute(&member, key, cell);
                span("CellResult::compute_for", Layer::Perfmodel, || {
                    CellResult::compute_for(cell, &run, CODE_MODEL_VERSION, &Timed(&member))
                })
            }
            None => {
                let workload = workload_by_kind(cell.kind);
                let key = TuningKey::new(cell.kind, &self.generator);
                let run = self.tune_and_execute(workload.as_ref(), key, cell);
                span("CellResult::compute_for", Layer::Perfmodel, || {
                    CellResult::compute_for(
                        cell,
                        &run,
                        CODE_MODEL_VERSION,
                        &Timed(workload.as_ref()),
                    )
                })
            }
        };
        // As in the runner: a failed append degrades the store to
        // memory and the result still stands.
        let _ = span("ResultStore::insert", Layer::Store, || {
            self.store.insert(result.clone())
        });
        Ok(CellOutcome {
            result,
            cached: false,
        })
    }

    fn tune_and_execute(
        &self,
        workload: &dyn Workload,
        key: TuningKey,
        cell: &CampaignCell,
    ) -> ProxyRun {
        let report = match span("TuningCache::lookup", Layer::Tuner, || {
            self.cache.lookup(&key)
        }) {
            Some(report) => report,
            None => {
                let report = span("ProxyGenerator::generate", Layer::Tuner, || {
                    self.generator.generate(&Timed(workload))
                });
                self.counters.tunes.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .iterations
                    .fetch_add(report.iterations as u64, Ordering::Relaxed);
                span("TuningCache::insert", Layer::Tuner, || {
                    self.cache.insert(key, report.clone())
                });
                report
            }
        };
        let execution = span("ProxyBenchmark::execute_dag", Layer::Executor, || {
            report
                .proxy
                .execute_dag(&self.executor, cell.elements, cell.seed)
        });
        self.counters
            .elements
            .fetch_add(execution.total_elements() as u64, Ordering::Relaxed);
        self.counters
            .kernels
            .fetch_add(execution.kernels_run() as u64, Ordering::Relaxed);
        ProxyRun {
            kind: workload.kind(),
            seed: cell.seed,
            report,
            execution: ExecutionSummary::from(&execution),
        }
    }
}
