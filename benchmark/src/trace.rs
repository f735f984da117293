//! In-memory span recording around the calls the benchmark makes into
//! each layer's public functions.
//!
//! Every thread records into its own thread-local buffer, so recording
//! takes no lock; [`take_thread_spans`] hands a thread's spans back to
//! the caller that joins it.  Spans nest on a per-thread stack, which
//! gives every span its parent, and a span's *self time* is its
//! duration minus the time its direct children cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The program's layers, named after the modules the spans wrap.  The
/// declaration order indexes per-layer arrays (`layer as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `crates/population`: synthesizing population members.
    Population,
    /// Core generator + autotune + `TuningCache`.
    Tuner,
    /// `crates/perfmodel` through `Workload::measure` and the two
    /// measures inside `CellResult::compute_for`.
    Perfmodel,
    /// Core executor + motif kernels + datagen (`execute_dag`).
    Executor,
    /// `scenario::store`.
    Store,
    /// Scenario parsing, expansion, cell dispatch and report rendering.
    Campaign,
}

impl Layer {
    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Population => "population",
            Layer::Tuner => "tuner",
            Layer::Perfmodel => "perfmodel",
            Layer::Executor => "executor",
            Layer::Store => "store",
            Layer::Campaign => "campaign",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the process.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one cell (or one submission).
    pub group: u64,
    /// The wrapped public function.
    pub name: &'static str,
    /// The layer it belongs to.
    pub layer: Layer,
    /// The recording thread's index.
    pub thread: usize,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process's trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct ThreadTrace {
    enabled: bool,
    thread: usize,
    group: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

/// Span ids are unique across threads, so helper threads that come and
/// go under one thread index never share an id.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts recording on the calling thread as thread `thread`.  Without
/// this call [`span`] only runs its closure.
pub fn enable_thread(thread: usize) {
    epoch();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = true;
        t.thread = thread;
    });
}

/// Sets the group id that the calling thread's next spans carry.
pub fn set_group(group: u64) {
    TRACE.with(|t| t.borrow_mut().group = group);
}

/// Whether the calling thread is recording.
pub fn is_enabled() -> bool {
    TRACE.with(|t| t.borrow().enabled)
}

/// Takes the spans the calling thread has recorded so far.
pub fn take_thread_spans() -> Vec<Span> {
    TRACE.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Runs `f` inside a span named `name` of `layer`.
pub fn span<R>(name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
    let opened = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = t.stack.last().copied();
        t.stack.push(id);
        Some((id, parent))
    });
    let Some((id, parent)) = opened else {
        return f();
    };
    let start_ns = now_ns();
    let result = f();
    let end_ns = now_ns();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.pop();
        let (group, thread) = (t.group, t.thread);
        t.spans.push(Span {
            id,
            parent,
            group,
            name,
            layer,
            thread,
            start_ns,
            end_ns,
        });
    });
    result
}

/// Self time of every span, in the order given: its duration minus the
/// durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(&parent) = span.parent.and_then(|p| index.get(&p)) {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Summed self time per layer, indexed by `layer as usize`.
pub fn layer_self_ns(spans: &[Span]) -> [u64; 6] {
    let mut totals = [0u64; 6];
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        totals[span.layer as usize] += own;
    }
    totals
}

/// Durations (ns) of the spans named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Renders the spans as Chrome trace-event JSON (complete `X` events,
/// microsecond timestamps), loadable in chrome://tracing or Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
            s.name,
            s.layer.name(),
            s.thread,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            parent,
            s.group,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        enable_thread(0);
        set_group(7);
        span("outer", Layer::Campaign, || {
            span("mid", Layer::Tuner, || {
                span("inner", Layer::Perfmodel, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let spans = take_thread_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.group == 7));
        let own = self_times_ns(&spans);
        let total: u64 = own.iter().sum();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(total, outer.duration_ns());
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer.iter().sum::<u64>(), total);
        assert!(by_layer[2] >= 2_000_000, "{by_layer:?}");
        assert!(chrome_json(&spans).contains("\"cat\":\"perfmodel\""));
    }
}
