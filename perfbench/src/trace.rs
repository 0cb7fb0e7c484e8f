//! In-memory span recorder. Spans are recorded around calls into the
//! engine's public functions (the engine itself carries no tracing), kept
//! in memory while the workload runs and written out once at the end.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::out::J;

/// One finished span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The request (point, job or verdict) the span serves.
    pub request: u64,
    pub thread: u64,
    pub start: f64,
    pub end: f64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

/// Records spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// parent its own children on (`None` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let r = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking worker")
            .push(Span {
                id,
                parent,
                name,
                request,
                thread: thread_id(),
                start,
                end,
            });
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking worker")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child.entry(p).or_default() += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.end - s.start - child.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// One JSON object per span, tagged with the phase it was recorded in.
pub fn to_json(phase: &str, spans: &[Span]) -> Vec<J> {
    spans
        .iter()
        .map(|s| {
            J::obj([
                ("phase", J::str(phase)),
                ("id", J::Int(s.id)),
                ("parent", s.parent.map_or(J::Num(f64::NAN), J::Int)),
                ("name", J::str(s.name)),
                ("request", J::Int(s.request)),
                ("thread", J::Int(s.thread)),
                ("start", J::Num(s.start)),
                ("end", J::Num(s.end)),
            ])
        })
        .collect()
}
