//! `converge`: explicit-state convergence verdicts
//! (`verify::check_network_convergence`) on the systems whose exploration
//! fits a 65 536-state budget: linear pipelines, the lazy Fig. 9
//! configuration and generated topologies compiled at the data width
//! their early-evaluation guards need. Exploration is almost all of the
//! time; no other workload runs a comparable amount of model checking.
//!
//! The system list is fixed and exploration covers every input, so the
//! workload seed changes nothing here. The Fig. 9 early-evaluation
//! configurations are left out: they exhaust the state budget after
//! minutes instead of giving a verdict.

use std::collections::BTreeMap;
use std::time::Instant;

use elastic_core::compile::{compile, CompileOptions};
use elastic_core::fault::FaultProcess;
use elastic_core::gen::{generate, TopoParams};
use elastic_core::network::ElasticNetwork;
use elastic_core::systems::{linear_pipeline, paper_example, Config};
use elastic_core::verify::check_network_convergence;
use elastic_core::CoreError;
use elastic_mc::{netlist_kripke, BridgeOptions, ConvergenceReport};

use crate::faults::mc_process;
use crate::out::{Digest, J};
use crate::trace::Tracer;
use crate::{
    measure, median, par_map, time_once, timed_setup, trace_run, Check, Opts, Outcome, Replay,
    Round, SETUPS_BEFORE,
};

/// The systems, longest verdict first. Generated topologies are
/// `TopoParams::sample(seed)`; the second field is the data width the
/// system is compiled at. Their verdict times are well apart (0.05–1.5 s),
/// so the median and the tail latency each fall inside one system's
/// samples instead of on the boundary between two.
const SYSTEMS: [(Sys, usize); 5] = [
    (Sys::Topo(3), 1),
    (Sys::Lazy, 0),
    (Sys::Topo(1), 0),
    (Sys::Topo(7), 1),
    (Sys::Linear(6, 3), 0),
];

const BUDGET: BridgeOptions = BridgeOptions {
    max_ff_states: 1 << 16,
    max_inputs: 10,
};
/// Horizon the fault process is validated against.
const HORIZON: usize = 256;
/// Round wall time on the reference host (2-vCPU Xeon, one worker),
/// taken in its slower phases so that runs rarely hit the time cap.
const ROUND_S: f64 = 3.0;

#[derive(Clone, Copy)]
enum Sys {
    Linear(usize, usize),
    Lazy,
    Topo(u64),
}

impl Sys {
    fn name(self) -> String {
        match self {
            Sys::Linear(s, t) => format!("linear_pipeline({s},{t})"),
            Sys::Lazy => "paper_example(NoEarlyEval)".into(),
            Sys::Topo(seed) => format!("TopoParams::sample({seed})"),
        }
    }

    fn build(self) -> Result<ElasticNetwork, CoreError> {
        match self {
            Sys::Linear(s, t) => linear_pipeline(s, t).map(|(n, _, _)| n),
            Sys::Lazy => paper_example(Config::NoEarlyEval).map(|s| s.network),
            Sys::Topo(seed) => generate(&TopoParams::sample(seed)).map(|s| s.network),
        }
    }
}

/// A system ready for a verdict.
struct Target {
    name: String,
    net: ElasticNetwork,
    process: FaultProcess,
    data_width: usize,
}

fn setup() -> Result<Vec<Target>, CoreError> {
    SYSTEMS
        .iter()
        .map(|&(sys, data_width)| {
            let net = sys.build()?;
            let process = mc_process(&net)
                .ok_or_else(|| CoreError::FaultSite(format!("{}: no channel", sys.name())))?;
            Ok(Target {
                name: sys.name(),
                net,
                process,
                data_width,
            })
        })
        .collect()
}

/// `check_network_convergence` call for call, each call in its layer's
/// span; errors render exactly as the engine renders them.
#[allow(clippy::too_many_arguments)]
pub fn verdict(
    tr: &Tracer,
    parent: Option<u64>,
    req: u64,
    net: &ElasticNetwork,
    process: &FaultProcess,
    horizon: usize,
    data_width: usize,
    budget: BridgeOptions,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<ConvergenceReport, String> {
    let err = |e: CoreError| e.to_string();
    tr.span("fault", parent, req, |_| process.validate(net, horizon))
        .map_err(err)?;
    let compiled = tr
        .span("compile", parent, req, |_| {
            compile(
                net,
                &CompileOptions {
                    faults: process.sites(),
                    data_width,
                    ..CompileOptions::default()
                },
            )
        })
        .map_err(err)?;
    *counts.entry("compile.gates").or_default() += compiled.netlist.len() as f64;
    let kripke = tr
        .span("mc.explore", parent, req, |_| {
            netlist_kripke(&compiled.netlist, &[], budget)
        })
        .map_err(|e| err(CoreError::Netlist(e.to_string())))?;
    let report = tr.span("mc.report", parent, req, |_| kripke.convergence_report());
    let combos = 1u64 << compiled.netlist.inputs().len();
    *counts.entry("mc.ff_states").or_default() += report.ff_states as f64;
    *counts.entry("mc.transitions").or_default() += (report.ff_states as u64 * combos) as f64;
    Ok(report)
}

/// Folds a verdict (or its typed skip) into the digest.
pub fn fold(d: &mut Digest, name: &str, v: &Result<ConvergenceReport, String>) {
    d.str(name);
    match v {
        Ok(r) => {
            for x in [
                r.ff_states,
                r.legal,
                r.diverging,
                r.convergence_bound,
                r.fault_inputs,
            ] {
                d.u64(x as u64);
            }
            d.bool(r.converging);
        }
        Err(e) => d.str(e),
    }
}

fn report_json(name: &str, v: &Result<ConvergenceReport, String>) -> J {
    match v {
        Ok(r) => J::obj([
            ("system", J::str(name)),
            ("converging", J::Bool(r.converging)),
            ("ff_states", J::Int(r.ff_states as u64)),
            ("legal", J::Int(r.legal as u64)),
            ("diverging", J::Int(r.diverging as u64)),
            ("convergence_bound", J::Int(r.convergence_bound as u64)),
            ("fault_inputs", J::Int(r.fault_inputs as u64)),
        ]),
        Err(e) => J::obj([("system", J::str(name)), ("error", J::str(e.clone()))]),
    }
}

/// One untraced round: every verdict through `check_network_convergence`
/// on the worker pool. `transitions[i]` converts explored states into
/// explored (state, input) transitions.
fn round(targets: &[Target], threads: usize, transitions: &[u64], keep: &mut Vec<J>) -> Round {
    let t0 = Instant::now();
    let results = par_map(targets.len(), threads, |i| {
        let t = &targets[i];
        let s = Instant::now();
        let v = check_network_convergence(&t.net, &t.process, HORIZON, t.data_width, BUDGET)
            .map_err(|e| e.to_string());
        (v, s.elapsed().as_secs_f64())
    });
    let mut r = Round {
        wall: t0.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let mut d = Digest::default();
    let mut states = 0.0;
    for (i, (t, (v, secs))) in targets.iter().zip(&results).enumerate() {
        r.latencies.push(*secs);
        r.attempted += 1;
        r.items += 1;
        fold(&mut d, &t.name, v);
        match v {
            Ok(rep) => {
                states += rep.ff_states as f64;
                r.lane_cycles += (rep.ff_states as u64 * transitions[i]) as f64;
            }
            // A budget skip is a failure: every listed system must finish.
            Err(_) => r.failed += 1,
        }
    }
    r.digest = d.hex();
    let busy: f64 = results.iter().map(|(_, s)| s).sum();
    r.extra.insert("verdict_s", median(&r.latencies));
    r.extra.insert("states_per_s", states / busy);
    if keep.is_empty() {
        *keep = targets
            .iter()
            .zip(&results)
            .map(|(t, (v, _))| report_json(&t.name, v))
            .collect();
    }
    r
}

fn replay(tr: &Tracer, targets: &[Target], threads: usize) -> Replay {
    let t0 = Instant::now();
    let results = par_map(targets.len(), threads, |i| {
        let t = &targets[i];
        let mut counts = BTreeMap::new();
        let v = tr.span("verdict", None, i as u64, |id| {
            verdict(
                tr,
                id,
                i as u64,
                &t.net,
                &t.process,
                HORIZON,
                t.data_width,
                BUDGET,
                &mut counts,
            )
        });
        (v, counts)
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut d = Digest::default();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (t, (v, c)) in targets.iter().zip(results) {
        fold(&mut d, &t.name, &v);
        for (k, x) in c {
            *counts.entry(k).or_default() += x;
        }
        *counts.entry("stream.items").or_default() += 1.0;
        *counts
            .entry(if v.is_ok() {
                "bench.jobs_built"
            } else {
                "bench.jobs_skipped"
            })
            .or_default() += 1.0;
    }
    Replay {
        wall,
        digest: d.hex(),
        counts,
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, CoreError> {
    let (mut setup_s, targets) = timed_setup(SETUPS_BEFORE, setup);
    let targets = targets?;
    // Input alphabet per system (2^inputs of the compiled netlist), for
    // the transition count; computed once, outside any timed phase.
    let transitions = targets
        .iter()
        .map(|t| {
            compile(
                &t.net,
                &CompileOptions {
                    faults: t.process.sites(),
                    data_width: t.data_width,
                    ..CompileOptions::default()
                },
            )
            .map(|c| 1u64 << c.netlist.inputs().len())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut verdicts = Vec::new();
    let rounds = if opts.trace {
        vec![round(&targets, opts.threads, &transitions, &mut verdicts)]
    } else {
        let (rounds, more) = measure(
            opts.seconds,
            ROUND_S,
            || round(&targets, opts.threads, &transitions, &mut verdicts),
            || time_once(setup),
        );
        setup_s.extend(more);
        rounds
    };
    let mut checks = Vec::new();
    let trace = opts.trace.then(|| {
        let t = trace_run(
            opts.seconds,
            |tr| {
                let nets = tr.span("network", None, 0, |_| setup());
                let comps: usize = nets.iter().flatten().map(|t| t.net.num_components()).sum();
                BTreeMap::from([("network.components", comps as f64)])
            },
            |tr| replay(tr, &targets, opts.threads),
        );
        checks.push(Check::new(
            "trace_reproduces_engine",
            t.replay.digest == rounds[0].digest,
            format!("replay {} vs engine {}", t.replay.digest, rounds[0].digest),
        ));
        t
    });
    let systems = targets
        .iter()
        .map(|t| {
            J::obj([
                ("system", J::str(t.name.clone())),
                ("backend", J::str("explicit-state")),
                ("data_width", J::Int(t.data_width as u64)),
            ])
        })
        .collect();
    Ok(Outcome {
        setup: setup_s,
        rounds,
        checks,
        systems,
        attach: vec![("verdicts".to_string(), J::Arr(verdicts))],
        trace,
    })
}
