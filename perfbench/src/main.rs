//! Workload runner behind `perfbench/run.py`.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--threads T]`
//! sets the workload up several times (reporting the median), then runs
//! untraced rounds — one pass over the workload's fixed request list
//! through the engine's public entry points — until `S` seconds have been
//! measured. With `--trace 1` it additionally replays rounds through the
//! per-layer public calls with spans recorded, checks that the replay
//! reproduces the engine's outputs bit for bit, and reports per-layer
//! metrics. It prints one JSON document; `run.py` adds the committed-data
//! checks and the run manifest.

mod converge;
mod faults;
mod mc;
mod out;
mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use out::J;
use trace::{Span, Tracer};

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

/// One correctness check; every failed check counts in `failed`.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// One untraced pass over the workload's request list.
#[derive(Default)]
pub struct Round {
    pub wall: f64,
    /// Seconds per request (point, campaign call or verdict).
    pub latencies: Vec<f64>,
    /// Pipeline work items: shards, campaign jobs or verdicts.
    pub items: usize,
    /// Simulated lane-cycles (model-checker transitions on `converge`).
    pub lane_cycles: f64,
    /// Operations attempted and failed (an `Err` or a budget skip).
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every simulated statistic the round produced.
    pub digest: String,
    /// Workload-specific values, e.g. explored states on `converge`.
    pub extra: BTreeMap<&'static str, f64>,
}

/// One pass through the per-layer public calls (traced or not).
pub struct Replay {
    pub wall: f64,
    pub digest: String,
    /// Exact per-layer counts of the pass.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Everything a traced run adds.
pub struct TraceRun {
    pub setup_wall: f64,
    pub setup_spans: Vec<Span>,
    pub setup_counts: BTreeMap<&'static str, f64>,
    pub round_spans: Vec<Span>,
    pub replay: Replay,
    pub untraced_walls: Vec<f64>,
    pub traced_walls: Vec<f64>,
}

/// What a workload hands back to be reported.
#[derive(Default)]
pub struct Outcome {
    pub setup: Vec<f64>,
    pub rounds: Vec<Round>,
    pub checks: Vec<Check>,
    /// Per-system manifest rows (name, dispatched backend, sizes).
    pub systems: Vec<J>,
    /// Results `run.py` checks against committed data.
    pub attach: Vec<(String, J)>,
    pub trace: Option<TraceRun>,
}

/// Set-up repetitions before the measured phase, and spread evenly
/// between its timed rounds: samples taken across the whole run follow
/// the host's drift like the rounds do, instead of one short window at
/// start-up.
pub const SETUPS_BEFORE: usize = 3;
const SETUPS_BETWEEN_ROUNDS: usize = 15;

/// The measured phase: one warm-up round (checked like every round, but
/// not timed into the statistics), then a fixed number of timed rounds —
/// `seconds / nominal` rounds, `nominal` being the round's wall time on
/// the reference host — so every run and every commit takes the same
/// number of samples. Returns the rounds (warm-up first) and the set-up
/// samples taken between them.
pub fn measure(
    seconds: f64,
    nominal: f64,
    mut round: impl FnMut() -> Round,
    mut setup_again: impl FnMut() -> f64,
) -> (Vec<Round>, Vec<f64>) {
    let timed = ((seconds / nominal).ceil() as usize).max(2);
    let mut rounds = vec![round()];
    let mut setups = Vec::new();
    let t0 = Instant::now();
    for i in 0..timed {
        // A host much slower than the reference stops early rather than
        // overrunning the run's time limit.
        if i >= 2 && t0.elapsed().as_secs_f64() > 1.25 * seconds {
            break;
        }
        rounds.push(round());
        while setups.len() < (i + 1) * SETUPS_BETWEEN_ROUNDS / timed {
            setups.push(setup_again());
        }
    }
    (rounds, setups)
}

/// Maps `f` over `0..total` on `threads` scoped workers claiming indices
/// in order (the benchmark's own load generator); results in index order.
pub fn par_map<R: Send>(total: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, total.max(1)) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let r = f(i);
                slots.lock().expect("a worker panicked")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|r| r.expect("every index claimed"))
        .collect()
}

/// Times `setup` `reps` times; returns the samples and the last result.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = setup();
        samples.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (samples, last.expect("at least one setup repetition"))
}

/// Wall time of one call of `f` (its result dropped).
pub fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    drop(std::hint::black_box(f()));
    t.elapsed().as_secs_f64()
}

/// Traced-run protocol shared by every workload: one traced setup, then
/// alternating untraced and traced replays until `seconds` have passed.
/// The last traced replay's spans are kept.
pub fn trace_run(
    seconds: f64,
    setup: impl FnOnce(&Tracer) -> BTreeMap<&'static str, f64>,
    mut replay: impl FnMut(&Tracer) -> Replay,
) -> TraceRun {
    let tr = Tracer::new(true);
    let t = Instant::now();
    let setup_counts = setup(&tr);
    let setup_wall = t.elapsed().as_secs_f64();
    let setup_spans = tr.spans();
    let t0 = Instant::now();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    loop {
        untraced_walls.push(replay(&Tracer::new(false)).wall);
        let tr = Tracer::new(true);
        let r = replay(&tr);
        traced_walls.push(r.wall);
        if t0.elapsed().as_secs_f64() >= seconds {
            return TraceRun {
                setup_wall,
                setup_spans,
                setup_counts,
                round_spans: tr.spans(),
                replay: r,
                untraced_walls,
                traced_walls,
            };
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. Below 21 samples that percentile would not lie above
/// the median, so the maximum is reported instead. Returns the value and
/// its percentile.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let i = if n < 21 { n - 1 } else { n - 11 };
    (v[i], 100.0 * i as f64 / (n - 1).max(1) as f64)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named JSON fields: metrics, or detail-line entries.
type Fields = Vec<(String, J)>;

fn metric(value: f64, unit: &str) -> J {
    J::obj([("value", J::Num(value)), ("unit", J::str(unit))])
}

/// End-to-end metrics from the untraced rounds.
fn end_to_end(o: &Outcome) -> (Fields, Fields) {
    // The first round warms caches and the allocator; it is checked but
    // not timed into the statistics (unless it is the only round).
    let timed = if o.rounds.len() > 1 {
        &o.rounds[1..]
    } else {
        &o.rounds[..]
    };
    let walls: Vec<f64> = timed.iter().map(|r| r.wall).collect();
    let per_wall = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&timed.iter().map(|r| f(r) / r.wall).collect::<Vec<_>>())
    };
    let lat: Vec<f64> = timed.iter().flat_map(|r| r.latencies.clone()).collect();
    let (tail_s, tail_pct) = tail(&lat);
    let metrics = vec![
        ("setup_s".to_string(), metric(median(&o.setup), "s")),
        ("wall_s".to_string(), metric(median(&walls), "s")),
        (
            "lane_cycles_per_s".to_string(),
            metric(per_wall(&|r| r.lane_cycles), "1/s"),
        ),
        ("point_p50_ms".to_string(), metric(1e3 * median(&lat), "ms")),
        ("point_tail_ms".to_string(), metric(1e3 * tail_s, "ms")),
        (
            "jobs_per_s".to_string(),
            metric(per_wall(&|r| r.items as f64), "1/s"),
        ),
        ("peak_rss_mb".to_string(), metric(peak_rss_mb(), "MiB")),
    ];
    let mut detail = vec![
        ("timed_rounds".to_string(), J::Int(timed.len() as u64)),
        ("setup_samples".to_string(), J::nums(&o.setup)),
        ("round_walls_s".to_string(), J::nums(&walls)),
        ("point_samples".to_string(), J::Int(lat.len() as u64)),
        ("point_tail_percentile".to_string(), J::Num(tail_pct)),
        (
            "items_per_round".to_string(),
            J::Int(o.rounds.first().map_or(0, |r| r.items) as u64),
        ),
    ];
    // Workload-specific figures (e.g. `verdict_s`, `states_per_s`).
    if let Some(first) = timed.first() {
        for &k in first.extra.keys() {
            let xs: Vec<f64> = timed.iter().map(|r| r.extra[k]).collect();
            detail.push((k.to_string(), J::Num(median(&xs))));
        }
    }
    (metrics, detail)
}

/// Layer names as the spans record them, and the metric each feeds.
const LAYERS: [(&str, &str); 11] = [
    ("network", "network.busy_s"),
    ("compile", "compile.busy_s"),
    ("opt", "opt.busy_s"),
    ("levelize", "levelize.busy_s"),
    ("verify.stim", "verify.stim_busy_s"),
    ("wide", "wide.busy_s"),
    ("bench.reduce", "bench.reduce_busy_s"),
    ("fault", "fault.busy_s"),
    ("protocol", "protocol.busy_s"),
    ("mc.explore", "mc.explore_busy_s"),
    ("mc.report", "mc.report_busy_s"),
];

/// Exact counts reported as per-layer metrics.
const COUNTS: [&str; 13] = [
    "network.components",
    "compile.gates",
    "opt.gates_kept",
    "levelize.tape_instrs",
    "verify.stim_bytes",
    "wide.word_ops",
    "stream.items",
    "bench.jobs_built",
    "bench.jobs_skipped",
    "fault.windows",
    "protocol.observations",
    "mc.ff_states",
    "mc.transitions",
];

/// Per-layer metrics from a traced run: self time per layer over the
/// traced set-up plus one traced round, and that round's counts.
fn per_layer(t: &TraceRun, threads: usize) -> (Fields, Fields) {
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    for spans in [&t.setup_spans, &t.round_spans] {
        for (name, s) in trace::self_times(spans) {
            *busy.entry(name).or_default() += s;
        }
    }
    let round_busy: f64 = trace::self_times(&t.round_spans)
        .iter()
        .filter(|(n, _)| LAYERS.iter().any(|(l, _)| l == *n))
        .map(|(_, s)| s)
        .sum();
    let mut counts = t.setup_counts.clone();
    for (k, v) in &t.replay.counts {
        *counts.entry(k).or_default() += v;
    }
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, J)> = Vec::new();
    for (span, name) in LAYERS {
        m.push((name.to_string(), metric(get(&busy, span), "s")));
    }
    for name in COUNTS {
        let unit = if name == "verify.stim_bytes" {
            "B"
        } else {
            "count"
        };
        m.push((name.to_string(), metric(get(&counts, name), unit)));
    }
    let (stim, wide) = (get(&busy, "verify.stim"), get(&busy, "wide"));
    let idle = threads as f64 * t.replay.wall - round_busy;
    let (built, skipped) = (
        get(&counts, "bench.jobs_built"),
        get(&counts, "bench.jobs_skipped"),
    );
    let overhead = median(&t.traced_walls) - median(&t.untraced_walls);
    m.extend([
        (
            "verify.stim_ns_per_lane_cycle".to_string(),
            metric(1e9 * ratio(stim, get(&counts, "stim_lane_cycles")), "ns"),
        ),
        (
            "verify.stim_share".to_string(),
            metric(ratio(stim, stim + wide), "ratio"),
        ),
        (
            "wide.ns_per_lane_cycle".to_string(),
            metric(1e9 * ratio(wide, get(&counts, "wide_lane_cycles")), "ns"),
        ),
        (
            "wide.word_ops_per_s".to_string(),
            metric(ratio(get(&counts, "wide.word_ops"), wide), "1/s"),
        ),
        ("stream.idle_s".to_string(), metric(idle, "s")),
        (
            "bench.useful_ratio".to_string(),
            metric(ratio(built, built + skipped), "ratio"),
        ),
        (
            "mc.ns_per_transition".to_string(),
            metric(
                1e9 * ratio(get(&busy, "mc.explore"), get(&counts, "mc.transitions")),
                "ns",
            ),
        ),
        ("trace.overhead_s".to_string(), metric(overhead, "s")),
    ]);
    // Accounting: layer self time plus idle against the worker-seconds
    // of the set-up (one thread) and the traced round (`threads`).
    let setup_busy: f64 = trace::self_times(&t.setup_spans)
        .iter()
        .filter(|(n, _)| LAYERS.iter().any(|(l, _)| l == *n))
        .map(|(_, s)| s)
        .sum();
    let detail = vec![
        ("trace_setup_wall_s".to_string(), J::Num(t.setup_wall)),
        ("trace_round_wall_s".to_string(), J::Num(t.replay.wall)),
        (
            "trace_accounted_share".to_string(),
            J::Num(ratio(
                setup_busy + round_busy + idle,
                t.setup_wall + threads as f64 * t.replay.wall,
            )),
        ),
        (
            "trace_untraced_walls_s".to_string(),
            J::nums(&t.untraced_walls),
        ),
        ("trace_traced_walls_s".to_string(), J::nums(&t.traced_walls)),
        (
            "trace_busy_s".to_string(),
            J::obj(busy.iter().map(|(k, v)| (k.to_string(), J::Num(*v)))),
        ),
    ];
    (m, detail)
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => o.workload.clone_from(val),
            "--seed" => o.seed = val.parse().map_err(bad)?,
            "--seconds" => o.seconds = val.parse::<u64>().map_err(bad)? as f64,
            "--trace" => o.trace = val.parse::<u8>().map_err(bad)? == 1,
            "--threads" => o.threads = val.parse::<usize>().map_err(bad)?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.threads == 0 {
        // `converge` runs one verdict at a time by default: two concurrent
        // explorations contend for the memory system, so a verdict's
        // latency would depend on which verdict runs beside it.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        o.threads = if o.workload == "converge" {
            1
        } else {
            cores.min(2)
        };
    }
    Ok(o)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "mc_sweep" => mc::run(&opts, mc::Kind::Sweep),
        "mc_deep" => mc::run(&opts, mc::Kind::Deep),
        "faults" => faults::run(&opts),
        "converge" => converge::run(&opts),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", opts.workload);
            std::process::exit(1);
        }
    };

    // Every round must reproduce the first round's outputs exactly.
    if let Some(first) = outcome.rounds.first() {
        let same = outcome.rounds.iter().all(|r| r.digest == first.digest);
        outcome.checks.push(Check::new(
            "rounds_identical",
            same,
            format!("{} rounds, digest {}", outcome.rounds.len(), first.digest),
        ));
    }
    let attempted: u64 =
        outcome.rounds.iter().map(|r| r.attempted).sum::<u64>() + outcome.checks.len() as u64;
    let failed: u64 = outcome.rounds.iter().map(|r| r.failed).sum::<u64>()
        + outcome.checks.iter().filter(|c| !c.ok).count() as u64;
    let (e2e, mut detail) = end_to_end(&outcome);
    let metrics = match &outcome.trace {
        Some(t) => {
            let (m, d) = per_layer(t, opts.threads);
            detail.extend(d);
            m
        }
        None => e2e,
    };
    if let Some(t) = &outcome.trace {
        let mut spans = trace::to_json("setup", &t.setup_spans);
        spans.extend(trace::to_json("round", &t.round_spans));
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, format!("{}\n", J::Arr(spans))));
        match written {
            Ok(()) => detail.push(("trace_file".into(), J::str(path.display().to_string()))),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let doc = J::obj([
        ("workload", J::str(opts.workload.clone())),
        ("seed", J::Int(opts.seed)),
        ("trace", J::Bool(opts.trace)),
        ("threads", J::Int(opts.threads as u64)),
        (
            "available_parallelism",
            J::Int(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        ("attempted", J::Int(attempted)),
        ("failed", J::Int(failed)),
        (
            "digest",
            J::str(
                outcome
                    .rounds
                    .first()
                    .map_or(String::new(), |r| r.digest.clone()),
            ),
        ),
        (
            "checks",
            J::Arr(
                outcome
                    .checks
                    .iter()
                    .map(|c| {
                        J::obj([
                            ("name", J::str(c.name.clone())),
                            ("ok", J::Bool(c.ok)),
                            ("detail", J::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", J::Obj(metrics)),
        ("detail", J::Obj(detail)),
        ("systems", J::Arr(outcome.systems)),
        ("attach", J::Obj(outcome.attach)),
    ]);
    println!("{doc}");
}
