//! The repository's benchmark: one command, three seeded workloads,
//! every end-to-end metric by name with its unit, and a traced run that
//! splits each workload's time across the program's layers.
//!
//! ```text
//! dmpb-benchmark --workload <suite-cold|exec-stream|daemon-mixed> --seed <n>
//!                --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  `--tiny` runs a
//! small version of each workload for the benchmark's own tests; it
//! skips the pinned-digest comparison.  See README.md for the design.

mod campaign;
mod daemon;
mod replay;
mod report;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dmpb_core::fnv::hash_u64s;
use dmpb_scenario::{ResultStore, DEFAULT_STORE_SHARDS};

use report::{Outcome, END_TO_END, MIN_COVERAGE, PER_LAYER};

/// The seed the pinned digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// A seed not used while writing a change, to re-check its claim on.
pub const HELD_OUT_SEED: u64 = 20_181_009;

/// Campaign workers, daemon pool width and client connections: the
/// two cores of the machine the bounds were set on.
pub const THREADS: usize = 2;

/// The cluster every workload tunes and measures on.
pub const CLUSTER: &str = "five-node-westmere";

/// Campaign digests at [`DEFAULT_SEED`] (full size), one per campaign
/// variant (`suite-cold` cycles through
/// [`campaign::SUITE_VARIANTS`]; the others run one campaign).
const PINNED: [(&str, &[u64]); 3] = [
    (
        "suite-cold",
        &[
            0x0b60_3fb3_091e_6aa6,
            0x4875_2d54_91fa_75d3,
            0xcefe_6bcf_0f9c_63e3,
            0x6582_b784_d7ff_3906,
            0xb523_8be9_1591_7bec,
            0xa893_21a4_22e5_92c5,
        ],
    ),
    ("exec-stream", &[0x5c14_7f40_902c_c2c5]),
    ("daemon-mixed", &[0xb8ff_6170_f436_ced8]),
];

/// What one invocation asked for.
#[derive(Debug)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Drives every generated input.
    pub seed: u64,
    /// How long to measure.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The small version of each workload.
    pub tiny: bool,
    /// Scratch directory for stores and the trace, inside the checkout.
    pub work_dir: PathBuf,
}

impl Run {
    /// A seed for one use (`stream`) of the run's seed.
    pub fn derive(&self, stream: u64) -> u64 {
        hash_u64s([self.seed, stream])
    }

    /// The digest campaign variant `variant` must reproduce, when one is
    /// pinned for this run.
    pub fn pinned_digest(&self, variant: usize) -> Option<u64> {
        if self.tiny || self.seed != DEFAULT_SEED {
            return None;
        }
        PINNED
            .iter()
            .find(|(name, _)| *name == self.workload)
            .and_then(|(_, digests)| digests.get(variant).copied())
    }

    /// Campaign workers and client connections: one in tiny mode, so a
    /// handful of cells cannot leave a thread idle for most of the
    /// replay and sink its coverage.
    pub fn threads(&self) -> usize {
        if self.tiny {
            1
        } else {
            THREADS
        }
    }

    /// A fresh, empty store directory path under the work directory.
    pub fn store_dir(&self, label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.work_dir.join(format!("{label}-{n}"))
    }
}

/// Opens a fresh sharded store at `dir`, as a campaign user does.
pub fn open_store(dir: &Path) -> Result<ResultStore, String> {
    ResultStore::open_sharded(dir, DEFAULT_STORE_SHARDS)
}

/// Checks a traced run's coverage and writes its Chrome trace.
pub fn finish_trace(run: &Run, inputs: &report::LayerInputs, outcome: &mut Outcome) {
    let coverage = report::layer_metrics(inputs, &mut outcome.metrics);
    if coverage < MIN_COVERAGE {
        outcome.problems.push(format!(
            "trace coverage {coverage:.3} is below {MIN_COVERAGE}"
        ));
    }
    let mut spans = inputs.setup.clone();
    spans.extend(inputs.replay.iter().cloned());
    let path = run
        .work_dir
        .with_file_name(format!("trace-{}.json", run.workload));
    if let Err(e) = std::fs::write(&path, trace::chrome_json(&spans)) {
        outcome
            .problems
            .push(format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("trace written to {}", path.display());
    }
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("{flag}: {e}"))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["suite-cold", "exec-stream", "daemon-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let work_dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    Ok(Run {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: Duration::from_secs(seconds.unwrap_or(10).max(1)),
        trace,
        tiny,
        work_dir,
    })
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("error: creating {}: {e}", run.work_dir.display());
        std::process::exit(1);
    }
    let started = Instant::now();
    let result = match run.workload.as_str() {
        "daemon-mixed" => daemon::run(&run),
        _ => campaign::run(&run),
    };
    let _ = std::fs::remove_dir_all(&run.work_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    for (name, value) in &outcome.metrics.0 {
        if let Some((_, unit)) = table.iter().find(|(n, _)| n == name) {
            println!("{name:<32} {value:>16.6} {unit}");
        }
    }
    for problem in outcome.problems.iter().take(10) {
        println!("check failed: {problem}");
    }
    eprintln!(
        "{} seed {} took {:.1} s",
        run.workload,
        run.seed,
        started.elapsed().as_secs_f64()
    );
    println!("{}", outcome.result_line(table));
}
