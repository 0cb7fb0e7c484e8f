//! `mc_sweep` and `mc_deep`: streaming Monte-Carlo throughput points
//! through `exp::run_prepared`.
//!
//! `mc_sweep` is the Table 1 / corpus traffic: the five Fig. 9
//! configurations plus the 30 corpus systems at the favourable knob cell.
//! Those systems have 7–12 environment inputs against a 150–450
//! instruction tape, so stimulus generation dominates each shard.
//! `mc_deep` runs the same engine on deep linear pipelines and large
//! generated rings: about 5 inputs against 1.2k–3k instructions, so tape
//! execution dominates. A change to stimulus generation moves the first
//! and predicts no change on the second; a tape-kernel change the reverse.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use elastic_bench::exp::{
    effective_threads, lazy_bound_check, run_prepared, shards_for, EngineOpts, Experiment,
    SystemSpec,
};
use elastic_bench::{
    dispatch_backend, BackendSel, McStats, WideHarness, DISPATCH_FOOTPRINT_BYTES, MC_DATA_WIDTH,
};
use elastic_core::channel::ChanId;
use elastic_core::compile::{compile, CompileOptions};
use elastic_core::corpus::{self, CorpusConfig, Knobs, DESIGNS};
use elastic_core::gen::{generate, TopoParams};
use elastic_core::network::ElasticNetwork;
use elastic_core::sim::{DataGen, EnvConfig, SinkCfg, SourceCfg};
use elastic_core::systems::{linear_pipeline, paper_example, Config};
use elastic_core::CoreError;
use elastic_netlist::levelize::Program;
use elastic_netlist::opt::optimize_observed;
use elastic_netlist::wide::LANES;

use crate::out::{Digest, J};
use crate::trace::Tracer;
use crate::{
    measure, par_map, time_once, timed_setup, trace_run, Check, Opts, Outcome, Replay, Round,
    SETUPS_BEFORE,
};

/// Trials per point: two shards of the widest (512-lane) backend, one per
/// worker on a two-core host.
const TRIALS: usize = 1024;
/// Cycles per trial.
const CYCLES: usize = 4000;
/// Round wall times on the reference host (2-vCPU Xeon, two workers),
/// taken in its slower phases so that runs rarely hit the time cap.
const SWEEP_ROUND_S: f64 = 2.0;
const DEEP_ROUND_S: f64 = 0.6;
/// Lanes and cycles of the scalar-interpreter anchor.
const ANCHOR_LANES: usize = 64;
const ANCHOR_CYCLES: usize = 1000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    Deep,
}

/// One system of a workload, before compilation.
struct System {
    label: String,
    network: ElasticNetwork,
    output: ChanId,
    env: EnvConfig,
    /// No early evaluation: the min-cycle-ratio bound must hold.
    lazy: bool,
    /// The marked-graph abstraction is strongly connected, so the bound
    /// check applies (false for the feed-forward linear pipelines).
    bound_applies: bool,
    /// Transfers a finite run may deliver beyond the asymptotic bound
    /// while initially stored tokens drain: one for the named systems (as
    /// in the corpus campaign), the elastic storage of every connection
    /// for generated ones (as in the generator's differential check).
    transient: f64,
}

/// A compiled point, ready to run.
struct Point {
    sys: System,
    harness: WideHarness,
    exp: Experiment,
}

/// Environment of the deep linear pipelines: an always-offering source
/// with a three-valued payload and a sink stopping one cycle in five.
fn pipeline_env() -> EnvConfig {
    EnvConfig {
        default_source: SourceCfg {
            rate: 1.0,
            data: DataGen::Weighted(vec![(0, 0.5), (1, 0.3), (2, 0.2)]),
        },
        default_sink: SinkCfg {
            stop_prob: 0.2,
            kill_prob: 0.0,
        },
        ..EnvConfig::default()
    }
}

/// Large generated rings: one source, one sink, no variable-latency
/// units, so few environment inputs drive a long tape.
fn ring_params(units: usize, structure_seed: u64) -> TopoParams {
    TopoParams {
        units,
        extra_forward: 2,
        extra_back: 1,
        ring: true,
        ee_prob: 0.5,
        vl_prob: 0.0,
        passive_prob: 0.0,
        max_stages: 2,
        source_rate: 1.0,
        sink_stop: 0.2,
        sink_kill: 0.0,
        structure_seed,
    }
}

/// Builds the workload's networks (the `network` layer). The system list
/// is fixed; the workload seed only seeds the stimulus.
fn systems(kind: Kind) -> Result<Vec<System>, CoreError> {
    let mut out = Vec::new();
    match kind {
        Kind::Sweep => {
            for cfg in Config::all() {
                let sys = paper_example(cfg)?;
                out.push(System {
                    label: format!("fig9/{cfg:?}"),
                    network: sys.network,
                    output: sys.output_channel,
                    env: sys.env_config,
                    lazy: cfg == Config::NoEarlyEval,
                    bound_applies: true,
                    transient: 1.0,
                });
            }
            let knobs = Knobs {
                ee_prob: 0.8,
                latency: 12,
            };
            for design in DESIGNS {
                for config in CorpusConfig::all() {
                    let sys = corpus::build(design, config, &knobs)?;
                    out.push(System {
                        label: format!("{design}/{}", config.tag()),
                        network: sys.network,
                        output: sys.output_channel,
                        env: sys.env,
                        lazy: config == CorpusConfig::Lazy,
                        bound_applies: true,
                        transient: 1.0,
                    });
                }
            }
        }
        Kind::Deep => {
            for stages in [64usize, 96, 128] {
                let (network, _, output) = linear_pipeline(stages, stages / 2)?;
                out.push(System {
                    label: format!("linear_pipeline({stages},{})", stages / 2),
                    network,
                    output,
                    env: pipeline_env(),
                    lazy: true,
                    bound_applies: false,
                    transient: 1.0,
                });
            }
            for (units, structure_seed) in [
                (24usize, 502u64),
                (28, 502),
                (32, 502),
                (28, 504),
                (32, 504),
            ] {
                let sys = generate(&ring_params(units, structure_seed))?;
                let storage: usize = sys.arcs.iter().map(|a| 2 * a.stages).sum();
                out.push(System {
                    label: format!("ring{units}/s{structure_seed}"),
                    network: sys.network,
                    output: sys.output_channel,
                    env: sys.env,
                    lazy: sys.lazy,
                    bound_applies: true,
                    transient: storage as f64,
                });
            }
        }
    }
    Ok(out)
}

/// Set-up: networks plus the harness compile every round reuses.
fn setup(kind: Kind, seed: u64) -> Result<Vec<Point>, CoreError> {
    systems(kind)?
        .into_iter()
        .map(|sys| {
            let harness = WideHarness::try_new(&sys.network, sys.output)?;
            let exp = Experiment {
                label: sys.label.clone(),
                system: SystemSpec::Custom {
                    network: sys.network.clone(),
                    output: sys.output,
                },
                env: sys.env.clone(),
                cycles: CYCLES,
                trials: TRIALS,
                seed,
            };
            Ok(Point { sys, harness, exp })
        })
        .collect()
}

fn engine(threads: usize) -> EngineOpts {
    EngineOpts {
        threads,
        queue: 2,
        backend: BackendSel::Auto,
        block_bytes: DISPATCH_FOOTPRINT_BYTES,
    }
}

fn fold(d: &mut Digest, label: &str, stats: &McStats) {
    d.str(label);
    d.u64(stats.cycles);
    for &x in &stats.per_lane {
        d.f64(x);
    }
}

/// One untraced round: every point through `run_prepared`.
fn round(points: &[Point], threads: usize, keep: &mut Option<Vec<McStats>>) -> Round {
    let opts = engine(threads);
    let mut r = Round::default();
    let mut d = Digest::default();
    let mut stats = Vec::new();
    let t0 = Instant::now();
    for p in points {
        let t = Instant::now();
        let res = run_prepared(&p.harness, &p.sys.network, &p.exp, &opts);
        r.latencies.push(t.elapsed().as_secs_f64());
        r.attempted += 1;
        match res {
            Ok(res) => {
                r.items += res.shards;
                r.lane_cycles += (TRIALS * CYCLES) as f64;
                fold(&mut d, &p.sys.label, &res.stats);
                stats.push(res.stats);
            }
            Err(e) => {
                r.failed += 1;
                d.str(&format!("error: {e}"));
            }
        }
    }
    r.wall = t0.elapsed().as_secs_f64();
    r.digest = d.hex();
    if keep.is_none() {
        *keep = Some(stats);
    }
    r
}

/// Independent checks on the first round's per-lane results.
fn checks(
    kind: Kind,
    points: &[Point],
    stats: &[McStats],
    seed: u64,
    threads: usize,
) -> Vec<Check> {
    let mut out = Vec::new();
    if stats.len() != points.len() {
        out.push(Check::new("points_ran", false, "a point returned an error"));
        return out;
    }
    for (p, s) in points.iter().zip(stats) {
        if !p.sys.lazy {
            continue;
        }
        let tol = 3.0 * s.ci95() + p.sys.transient / CYCLES as f64;
        let name = format!("lazy_bound/{}", p.sys.label);
        out.push(
            match lazy_bound_check(&p.sys.network, &p.sys.env, s.mean(), tol) {
                Ok(b) => Check::new(
                    name,
                    b.ok,
                    format!(
                        "mean {:.6} <= bound {:.6} + {:.6}",
                        b.measured, b.bound, tol
                    ),
                ),
                // Feed-forward systems have no strongly connected abstraction.
                Err(e) => Check::new(name, !p.sys.bound_applies, format!("not applicable: {e}")),
            },
        );
    }
    // Scalar-interpreter anchor: a 64-trial `run_prepared` point must
    // equal one gate-level run per trial over the unoptimized netlist. A
    // shorter horizon than the measured points keeps the interpreter
    // (several seconds per 1000 cycles on the deep systems) affordable;
    // the measured points themselves are gated by the digest.
    let anchor = match kind {
        Kind::Sweep => "fig9/ActiveAntiTokens",
        Kind::Deep => "ring24/s502",
    };
    if let Some(p) = points.iter().find(|p| p.sys.label == anchor) {
        let exp = Experiment {
            cycles: ANCHOR_CYCLES,
            trials: ANCHOR_LANES,
            ..p.exp.clone()
        };
        let scheds = WideHarness::schedules(
            &p.sys.network,
            &p.sys.env,
            seed,
            ANCHOR_CYCLES,
            ANCHOR_LANES,
        );
        let name = format!("scalar_anchor/{anchor}");
        out.push(
            match (
                run_prepared(&p.harness, &p.sys.network, &exp, &engine(threads)),
                p.harness.try_run_scalar(&scheds),
            ) {
                (Ok(wide), Ok(scalar)) => Check::new(
                    name,
                    wide.stats.per_lane == scalar.per_lane,
                    format!("{ANCHOR_LANES} lanes x {ANCHOR_CYCLES} cycles, wide vs scalar"),
                ),
                (Err(e), _) => Check::new(name, false, e.to_string()),
                (_, Err(e)) => Check::new(name, false, e.to_string()),
            },
        );
    }
    out
}

/// Traced set-up: the harness pipeline's layers called one by one
/// (compile raw and optimized, observed-cone DCE, levelize + peephole).
/// The tapes must match the harnesses the rounds use.
fn traced_setup(
    tr: &Tracer,
    kind: Kind,
    points: &[Point],
    checks: &Mutex<Vec<Check>>,
) -> BTreeMap<&'static str, f64> {
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let built = tr.span("network", None, 0, |_| systems(kind));
    let Ok(built) = built else {
        checks.lock().expect("checks").push(Check::new(
            "trace_setup",
            false,
            "network build failed",
        ));
        return c;
    };
    let mut same = true;
    for (i, (sys, p)) in built.iter().zip(points).enumerate() {
        let req = i as u64;
        *c.entry("network.components").or_default() += sys.network.num_components() as f64;
        let opts = |optimize| CompileOptions {
            lint: false,
            data_width: MC_DATA_WIDTH,
            nondet_merge: false,
            optimize,
            fault: None,
            faults: vec![],
        };
        let compiled = tr.span("compile", None, req, |_| {
            let raw = compile(&sys.network, &opts(false))?;
            let opt = compile(&sys.network, &opts(true))?;
            Ok::<_, CoreError>((raw, opt))
        });
        let Ok((raw, opt)) = compiled else {
            same = false;
            continue;
        };
        *c.entry("compile.gates").or_default() += (raw.netlist.len() + opt.netlist.len()) as f64;
        let rails = &opt.channels[sys.output.index()];
        let Ok((obs, _)) = tr.span("opt", None, req, |_| {
            optimize_observed(&opt.netlist, &[rails.vp, rails.sp, rails.vn])
        }) else {
            same = false;
            continue;
        };
        *c.entry("opt.gates_kept").or_default() += obs.len() as f64;
        let Ok((prog, _)) = tr.span("levelize", None, req, |_| Program::compile_optimized(&obs))
        else {
            same = false;
            continue;
        };
        let instrs = prog.high().len() + prog.low().len();
        *c.entry("levelize.tape_instrs").or_default() += instrs as f64;
        let h = p.harness.program();
        same &=
            prog.high() == h.high() && prog.low() == h.low() && prog.num_slots() == h.num_slots();
    }
    checks.lock().expect("checks").push(Check::new(
        "trace_setup_matches_harness",
        same,
        "replayed compile/opt/levelize give the harness tapes",
    ));
    c
}

/// One round replayed through `generate_stimulus` → `try_run_stim` →
/// `McStats::concat` on the benchmark's own worker pool, mirroring
/// `run_prepared`'s dispatch and sharding.
fn replay(tr: &Tracer, points: &[Point], threads: usize) -> Replay {
    let mut d = Digest::default();
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let t0 = Instant::now();
    for (i, p) in points.iter().enumerate() {
        let req = i as u64;
        let prog = p.harness.program();
        let backend = dispatch_backend(prog, TRIALS);
        let work = shards_for(TRIALS, p.exp.seed, backend.lanes());
        let width = backend.lanes() / LANES;
        let plan = prog.block_plan(width, DISPATCH_FOOTPRINT_BYTES);
        let workers = effective_threads(threads, work.len());
        let bytes = AtomicUsize::new(0);
        let results = par_map(work.len(), workers, |k| {
            let shard = work[k];
            tr.span("verify.stim", None, req, |_| {
                p.harness.generate_stimulus(
                    &p.sys.network,
                    &p.exp.env,
                    shard.seed,
                    CYCLES,
                    shard.lanes,
                    width,
                )
            })
            .and_then(|stim| {
                let b = stim.slots().len() * stim.cycles() * stim.width() * 8;
                bytes.fetch_add(b, Ordering::Relaxed);
                tr.span("wide", None, req, |_| {
                    p.harness.try_run_stim(&stim, shard.lanes, &plan)
                })
            })
        });
        let stats = tr.span("bench.reduce", None, req, |_| {
            results
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map(McStats::concat)
        });
        match stats {
            Ok(s) => fold(&mut d, &p.sys.label, &s),
            Err(e) => d.str(&format!("error: {e}")),
        }
        let instrs = (prog.high().len() + prog.low().len()) as f64;
        let lane_cycles = (TRIALS * CYCLES) as f64;
        *c.entry("stream.items").or_default() += work.len() as f64;
        *c.entry("bench.jobs_built").or_default() += work.len() as f64;
        *c.entry("verify.stim_bytes").or_default() += bytes.into_inner() as f64;
        *c.entry("wide.word_ops").or_default() += instrs * (work.len() * width * CYCLES) as f64;
        *c.entry("stim_lane_cycles").or_default() += lane_cycles;
        *c.entry("wide_lane_cycles").or_default() += lane_cycles;
    }
    Replay {
        wall: t0.elapsed().as_secs_f64(),
        digest: d.hex(),
        counts: c,
    }
}

pub fn run(opts: &Opts, kind: Kind) -> Result<Outcome, CoreError> {
    let (mut setup_s, points) = timed_setup(SETUPS_BEFORE, || setup(kind, opts.seed));
    let points = points?;
    let mut first = None;
    let rounds = if opts.trace {
        vec![round(&points, opts.threads, &mut first)]
    } else {
        let nominal = match kind {
            Kind::Sweep => SWEEP_ROUND_S,
            Kind::Deep => DEEP_ROUND_S,
        };
        let (rounds, more) = measure(
            opts.seconds,
            nominal,
            || round(&points, opts.threads, &mut first),
            || time_once(|| setup(kind, opts.seed)),
        );
        setup_s.extend(more);
        rounds
    };
    let mut checks = checks(
        kind,
        &points,
        &first.unwrap_or_default(),
        opts.seed,
        opts.threads,
    );
    let systems = points
        .iter()
        .map(|p| {
            let prog = p.harness.program();
            J::obj([
                ("system", J::str(p.sys.label.clone())),
                ("backend", J::str(dispatch_backend(prog, TRIALS).label())),
                (
                    "tape_instrs",
                    J::Int((prog.high().len() + prog.low().len()) as u64),
                ),
                ("lazy", J::Bool(p.sys.lazy)),
            ])
        })
        .collect();
    let trace = opts.trace.then(|| {
        let extra = Mutex::new(Vec::new());
        let t = trace_run(
            opts.seconds,
            |tr| traced_setup(tr, kind, &points, &extra),
            |tr| replay(tr, &points, opts.threads),
        );
        checks.extend(extra.into_inner().expect("checks"));
        checks.push(Check::new(
            "trace_reproduces_engine",
            t.replay.digest == rounds[0].digest,
            format!(
                "replay {} vs run_prepared {}",
                t.replay.digest, rounds[0].digest
            ),
        ));
        t
    });
    Ok(Outcome {
        setup: setup_s,
        rounds,
        checks,
        systems,
        attach: Vec::new(),
        trace,
    })
}
