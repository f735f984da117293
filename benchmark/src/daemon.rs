//! The `daemon-mixed` workload: an in-process campaign daemon on
//! loopback over a sharded store, driven by a closed-loop HTTP client.
//!
//! Set-up boots the daemon and submits the fill campaign through it,
//! which fills the store and warms the daemon's tunes.  Then the client
//! submits, polls until the report arrives, and submits again.  Three in
//! four submissions re-submit the fill campaign (reads: store
//! lookups, report rendering, HTTP); the rest submit the named
//! workloads on one fresh seed (writes: two perfmodel measures per
//! cell, store insert and sync).  Which submission is which comes from
//! the seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dmpb_core::fnv::{hash_bytes, hash_u64s};
use dmpb_scenario::{CellResult, ResultStore, Scenario, DEFAULT_STORE_SHARDS};
use dmpb_service::http::http_request;
use dmpb_service::{serve, ServiceConfig, ServiceHandle};
use dmpb_workloads::{ClusterConfig, WorkloadKind};

use crate::replay::Pipeline;
use crate::report::{self, median, quantile, LayerInputs, Outcome};
use crate::trace::{self, span, Layer};
use crate::{open_store, Run, CLUSTER};

/// Pause between status polls of one submission.
const POLL: Duration = Duration::from_millis(2);

/// Per-request socket timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One submission in this many is a write, so `request_p50_ms` is a
/// read's latency and `request_p90_ms` a write's.
const WRITE_ONE_IN: u64 = 4;

/// Closed-loop clients.  The daemon runs one campaign at a time, so a
/// second client adds no throughput, only queueing behind the other
/// client's campaign to every latency: its read/write pairs made the
/// median move by a fifth between runs.
const CLIENTS: usize = 1;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

fn workloads(run: &Run) -> &'static [WorkloadKind] {
    if run.tiny {
        &[WorkloadKind::AlexNet, WorkloadKind::InceptionV3]
    } else {
        &WorkloadKind::ALL
    }
}

fn dsl(run: &Run, name: &str, seeds: &[u64]) -> String {
    let workloads = workloads(run);
    let quoted = |items: Vec<String>| items.join(", ");
    format!(
        "[scenario]\nname = \"{name}\"\n\n[axes]\nworkloads = [{}]\nclusters = [\"{CLUSTER}\"]\nelements = [2000]\nseeds = [{}]\n\n[executor]\nworkers = {}\n",
        quoted(workloads.iter().map(|k| format!("\"{}\"", k.short_name())).collect()),
        quoted(seeds.iter().map(|s| format!("0x{s:x}")).collect()),
        run.threads(),
    )
}

/// The fill campaign: every workload on 50 seeds.
fn fill_dsl(run: &Run) -> String {
    let seeds: Vec<u64> = (0..if run.tiny { 4 } else { 50 })
        .map(|i| run.derive(1_000 + i))
        .collect();
    dsl(run, "daemon-fill", &seeds)
}

/// Submission `op` of the schedule: `None` re-submits the fill campaign,
/// `Some(dsl)` writes the workloads on a fresh seed.  Each block of
/// [`WRITE_ONE_IN`] submissions holds exactly one write, at a position
/// the seed picks, so every run has the same mix.
fn submission(run: &Run, op: u64) -> Option<String> {
    let block = op / WRITE_ONE_IN;
    (hash_u64s([run.seed, 0x5C4E_D01E, block]) % WRITE_ONE_IN == op % WRITE_ONE_IN).then(|| {
        dsl(
            run,
            &format!("daemon-write-{op}"),
            &[run.derive(1_000_000 + op)],
        )
    })
}

/// One completed submission.
struct Reply {
    latency_ms: f64,
    polls: u64,
    /// The daemon's own campaign time (`x-dmpb-wall-ms`).
    wall_ms: f64,
    cells: u64,
    /// Report size in bytes.
    bytes: usize,
    /// The report (emptied for reads once checked against the fill).
    body: Vec<u8>,
}

enum Failure {
    Rejected,
    Error(String),
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Submits `dsl` and polls until its report arrives; checks that the
/// report hashes to the daemon's `x-dmpb-digest`.
fn submit(addr: &str, dsl: &str) -> Result<Reply, Failure> {
    let started = Instant::now();
    let (status, headers, body) = http_request(addr, "POST", "/campaigns", dsl.as_bytes(), TIMEOUT)
        .map_err(Failure::Error)?;
    match status {
        202 => {}
        429 => return Err(Failure::Rejected),
        _ => {
            return Err(Failure::Error(format!(
                "submit answered {status}: {}",
                String::from_utf8_lossy(&body)
            )))
        }
    }
    let location = header(&headers, "location")
        .ok_or_else(|| Failure::Error("202 without a location".to_string()))?
        .to_string();
    let mut polls = 0;
    loop {
        polls += 1;
        let (status, headers, body) =
            http_request(addr, "GET", &location, b"", TIMEOUT).map_err(Failure::Error)?;
        match status {
            202 => std::thread::sleep(POLL),
            200 => {
                let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                let number =
                    |name: &str| header(&headers, name).and_then(|v| v.parse::<u64>().ok());
                let digest =
                    header(&headers, "x-dmpb-digest").and_then(|v| u64::from_str_radix(v, 16).ok());
                if digest != Some(hash_bytes(&body)) {
                    return Err(Failure::Error(format!(
                        "report digest {:016x} does not match x-dmpb-digest {digest:?}",
                        hash_bytes(&body)
                    )));
                }
                return Ok(Reply {
                    latency_ms,
                    polls,
                    wall_ms: number("x-dmpb-wall-ms").unwrap_or(0) as f64,
                    cells: number("x-dmpb-cells").unwrap_or(0),
                    bytes: body.len(),
                    body,
                });
            }
            _ => {
                return Err(Failure::Error(format!(
                    "poll answered {status}: {}",
                    String::from_utf8_lossy(&body)
                )))
            }
        }
    }
}

/// A booted daemon whose store holds the fill campaign.
struct Daemon {
    handle: ServiceHandle,
    addr: String,
    fill: Vec<u8>,
}

/// Boots a daemon over a fresh sharded store and submits the fill
/// campaign; returns it with the set-up time.
fn boot(run: &Run, outcome: &mut Outcome) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let handle = serve(ServiceConfig {
        workers: run.threads(),
        store_path: Some(run.store_dir("daemon")),
        store_shards: Some(DEFAULT_STORE_SHARDS),
        ..ServiceConfig::default()
    })?;
    let addr = handle.addr().to_string();
    let fill = match submit(&addr, &fill_dsl(run)) {
        Ok(reply) => reply.body,
        Err(Failure::Rejected) => return Err("the fill campaign was refused".to_string()),
        Err(Failure::Error(e)) => return Err(format!("fill campaign: {e}")),
    };
    let setup_s = started.elapsed().as_secs_f64();
    let digest = hash_bytes(&fill);
    let pinned = run.pinned_digest(0);
    outcome.record(
        pinned
            .filter(|&p| p != digest)
            .map(|p| format!("fill digest {digest:016x}, pinned {p:016x}")),
    );
    eprintln!("daemon filled in {setup_s:.2} s, fill digest {digest:016x}");
    Ok((Daemon { handle, addr, fill }, setup_s))
}

/// What the closed-loop clients saw.
#[derive(Default)]
struct Pass {
    window_s: f64,
    /// `(op, reply)` of every completed submission, in op order.
    replies: Vec<(u64, Reply)>,
    rejected: u64,
}

/// Runs the clients against `daemon` until `--seconds` have passed.
fn drive(run: &Run, daemon: &Daemon, outcome: &mut Outcome) -> Pass {
    let cursor = AtomicU64::new(0);
    let fill_dsl = fill_dsl(run);
    let started = Instant::now();
    let results: Vec<(u64, Result<Reply, Failure>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while started.elapsed() < run.seconds {
                        let op = cursor.fetch_add(1, Ordering::Relaxed);
                        let write = submission(run, op);
                        let dsl = write.as_deref().unwrap_or(&fill_dsl);
                        let mut result = submit(&daemon.addr, dsl);
                        // A read's report is the fill's; keep only writes'.
                        if let (None, Ok(reply)) = (&write, &mut result) {
                            if reply.body != daemon.fill {
                                result = Err(Failure::Error(
                                    "a read returned another report than the fill".to_string(),
                                ));
                            } else {
                                reply.body = Vec::new();
                            }
                        }
                        mine.push((op, result));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        window_s: started.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for (op, result) in results {
        match result {
            Ok(reply) => {
                outcome.record(None);
                pass.replies.push((op, reply));
            }
            Err(Failure::Rejected) => {
                pass.rejected += 1;
                outcome.record(Some(format!("submission {op} was refused (429)")));
            }
            Err(Failure::Error(e)) => outcome.record(Some(format!("submission {op}: {e}"))),
        }
    }
    pass.replies.sort_by_key(|(op, _)| *op);
    pass
}

/// Mean `accuracy_avg` over the fill campaign's cells.
fn fill_accuracy(fill: &[u8]) -> Result<f64, String> {
    let text = std::str::from_utf8(fill).map_err(|e| e.to_string())?;
    let cells = text
        .lines()
        .map(CellResult::from_line)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(cells.iter().map(|c| c.accuracy_avg).sum::<f64>() / cells.len().max(1) as f64)
}

/// Runs `daemon-mixed`.
pub fn run(run: &Run) -> Result<Outcome, String> {
    if run.trace {
        return traced(run);
    }
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            let Daemon { handle, .. } = previous;
            handle.shutdown();
        }
        let (booted, setup_s) = boot(run, &mut outcome)?;
        setups.push(setup_s);
        daemon = Some(booted);
    }
    let daemon = daemon.expect("at least one set-up");
    let pass = drive(run, &daemon, &mut outcome);
    let accuracy = fill_accuracy(&daemon.fill)?;
    daemon.handle.shutdown();

    let latencies: Vec<f64> = pass.replies.iter().map(|(_, r)| r.latency_ms).collect();
    let cells: u64 = pass.replies.iter().map(|(_, r)| r.cells).sum();
    eprintln!(
        "{} submissions ({} writes), {} rejected",
        latencies.len(),
        pass.replies
            .iter()
            .filter(|(op, _)| submission(run, *op).is_some())
            .count(),
        pass.rejected
    );
    let m = &mut outcome.metrics;
    m.set("cells_per_s", cells as f64 / pass.window_s);
    m.set("requests_per_s", latencies.len() as f64 / pass.window_s);
    m.set("request_p50_ms", quantile(&latencies, 0.5));
    m.set("request_p90_ms", quantile(&latencies, 0.9));
    m.set("accuracy_mean", accuracy);
    m.set(
        "success_share",
        1.0 - outcome.failed as f64 / outcome.attempted as f64,
    );
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", report::peak_rss_mb());
    Ok(outcome)
}

/// The traced run: one untraced pass against the daemon, then a traced
/// in-process replay of the same submissions over a store filled the
/// same way.  The replay runs two submissions at a time, one per
/// thread, where the daemon's dispatcher runs one at a time across two
/// workers: the same work, scheduled so both threads stay busy.
fn traced(run: &Run) -> Result<Outcome, String> {
    let cluster =
        ClusterConfig::by_name(CLUSTER).ok_or_else(|| format!("unknown cluster {CLUSTER}"))?;
    let mut outcome = Outcome::default();
    let (daemon, _) = boot(run, &mut outcome)?;
    let pass = drive(run, &daemon, &mut outcome);
    daemon.handle.shutdown();

    let overhead: Vec<f64> = pass
        .replies
        .iter()
        .map(|(_, r)| r.latency_ms - r.wall_ms)
        .collect();
    let replies = pass.replies.len().max(1) as f64;
    let mut inputs = LayerInputs {
        threads: run.threads(),
        untraced_s: pass.window_s,
        service: [
            quantile(&overhead, 0.5),
            pass.replies.iter().map(|(_, r)| r.polls).sum::<u64>() as f64 / replies,
            pass.replies.iter().map(|(_, r)| r.bytes).sum::<usize>() as f64 / replies,
            pass.rejected as f64,
        ],
        ..LayerInputs::default()
    };

    // Replay set-up: the same fill through the traced pipeline (which
    // warms its tunes), checked against the daemon's fill report, then
    // a re-open of the filled store.
    trace::enable_thread(0);
    let dir = run.store_dir("replay");
    let store = span("ResultStore::open_sharded", Layer::Store, || {
        open_store(&dir)
    })?;
    let mut pipeline = Pipeline::new(cluster, None, run.threads(), store);
    let fill = Scenario::parse(&fill_dsl(run)).map_err(|e| e.to_string())?;
    let in_process = pipeline.run_campaign(&fill)?;
    outcome.record((in_process.as_bytes() != daemon.fill.as_slice()).then(|| {
        format!(
            "daemon fill digest {:016x} differs from the in-process digest {:016x}",
            hash_bytes(&daemon.fill),
            hash_bytes(in_process.as_bytes())
        )
    }));
    pipeline.set_store(ResultStore::in_memory());
    let store = span("ResultStore::open_sharded", Layer::Store, || {
        open_store(&dir)
    })?;
    pipeline.set_store(store);
    inputs.setup.extend(trace::take_thread_spans());
    inputs.setup.extend(pipeline.take_spans());

    let fill_dsl = fill_dsl(run);
    let dsls: Vec<String> = pass
        .replies
        .iter()
        .map(|(op, _)| submission(run, *op).unwrap_or_else(|| fill_dsl.clone()))
        .collect();
    let before = pipeline.totals();
    let started = Instant::now();
    let replayed = pipeline.run_submissions(&dsls);
    inputs.replay_s = started.elapsed().as_secs_f64();
    inputs.totals.add_window(before, pipeline.totals());
    inputs.replay.extend(trace::take_thread_spans());
    inputs.replay.extend(pipeline.take_spans());
    for ((op, reply), replayed) in pass.replies.iter().zip(replayed) {
        let expected = match submission(run, *op) {
            Some(_) => &reply.body,
            None => &daemon.fill,
        };
        outcome.record(match replayed {
            Ok(lines) if lines.as_bytes() == expected.as_slice() => None,
            Ok(_) => Some(format!(
                "replay of submission {op} differs from the daemon's report"
            )),
            Err(e) => Some(format!("replay of submission {op} failed: {e}")),
        });
    }
    drop(pipeline);
    let _ = std::fs::remove_dir_all(&dir);
    crate::finish_trace(run, &inputs, &mut outcome);
    Ok(outcome)
}
