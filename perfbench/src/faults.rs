//! `faults`: the recovery campaign (`run_fault_campaign`) and the
//! self-stabilization campaign (`run_stabilization_campaign`) over
//! generated topologies, at the options of the committed `BENCH_pr7.json`
//! and `BENCH_pr9.json` campaigns (topology window starting at the
//! workload seed). The work is many small jobs, each compiling its own
//! faulted netlist and running 64 lanes × 256 cycles twice with per-lane
//! protocol tracking.
//!
//! Both campaigns sample topology `seed + t` for `t < 100`, and per-job
//! cost varies by more than 40% between neighbouring topology windows, so
//! the window is pinned to the committed campaigns' (seed 1): every run
//! measures the same jobs, and every run is checked against the committed
//! per-class statistics. The workload seed does not change the inputs.
//!
//! A round makes one recovery-campaign call per fault class (the per-class
//! statistics are those of the full campaign: a job depends only on its
//! topology and class) and one stabilization-campaign call. The
//! stabilization campaign always closes with explicit-state verdicts for
//! the named small systems; that part cannot be switched off from outside
//! and shows as `mc` time here.
//!
//! The traced replay rebuilds every job through the public calls the
//! engines make — `generate`, `injectable_site`, `compile`,
//! `optimize_observed`, `Program::compile_optimized`,
//! `PackedStimulus::generate`, `WideSim`, `RecoveryDetector` — and must
//! reproduce each job's per-lane outcome bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use elastic_bench::fault::{
    run_fault_campaign, FaultCampaignOpts, JobOutcome, LaneOutcome, FAULT_CLASSES,
};
use elastic_bench::stabilize::{
    run_stabilization_campaign, LaneStabilization, McVerdict, StabJobOutcome, StabilizationOpts,
    PROCESS_CLASSES,
};
use elastic_bench::MC_DATA_WIDTH;
use elastic_core::channel::{ChanId, ChannelSignals};
use elastic_core::compile::{compile, CompileOptions, FaultInjection, FaultRail};
use elastic_core::fault::FaultProcess;
use elastic_core::gen::{generate, injectable_site, GeneratedSystem, TopoParams};
use elastic_core::network::ElasticNetwork;
use elastic_core::protocol::RecoveryDetector;
use elastic_core::systems::{linear_pipeline, paper_example, Config};
use elastic_core::verify::{NetlistTestbench, PackedStimulus};
use elastic_core::CoreError;
use elastic_mc::{BridgeOptions, ConvergenceReport};
use elastic_netlist::levelize::Program;
use elastic_netlist::opt::optimize_observed;
use elastic_netlist::wide::{lane_masks, WideSim, LANES};
use elastic_netlist::NetId;

use crate::out::{Digest, J};
use crate::trace::Tracer;
use crate::{
    measure, par_map, time_once, timed_setup, trace_run, Check, Opts, Outcome, Replay, Round,
    SETUPS_BEFORE,
};

// The committed campaigns' options.
const CAMPAIGN_SEED: u64 = 1;
const TOPOLOGIES: usize = 100;
const CYCLES: usize = 256;
const LANES_PER_JOB: usize = 64;
const WINDOW_LEN: usize = 8;
const RECOVERY_TAIL: usize = 16;
const PERIOD: usize = 32;
const INTENSITIES: [usize; 3] = [1, 2, 4];
/// `bench::fault`'s per-lane window stagger.
const WINDOW_STAGGER: usize = 4;
/// Round wall time on the reference host (2-vCPU Xeon, two workers),
/// taken in its slower phases so that runs rarely hit the time cap.
const ROUND_S: f64 = 5.0;

fn fault_opts(seed: u64, threads: usize, class: &str) -> FaultCampaignOpts {
    FaultCampaignOpts {
        topologies: TOPOLOGIES,
        seed,
        cycles: CYCLES,
        lanes: LANES_PER_JOB,
        window_len: WINDOW_LEN,
        recovery_tail: RECOVERY_TAIL,
        threads,
        queue: 2,
        classes: vec![class.to_string()],
    }
}

fn stab_opts(seed: u64, threads: usize) -> StabilizationOpts {
    StabilizationOpts {
        topologies: TOPOLOGIES,
        seed,
        cycles: CYCLES,
        lanes: LANES_PER_JOB,
        period: PERIOD,
        intensities: INTENSITIES.to_vec(),
        recovery_tail: RECOVERY_TAIL,
        threads,
        queue: 2,
        classes: PROCESS_CLASSES.iter().map(|&c| c.to_string()).collect(),
        mc_topologies: 0,
    }
}

fn fold_fault(d: &mut Digest, j: &JobOutcome) {
    d.u64(j.topology as u64);
    d.str(&j.class);
    d.str(j.site.as_deref().unwrap_or("-"));
    for l in &j.lanes {
        d.bool(l.disturbed);
        d.bool(l.recovered);
        d.u64(l.recovery_cycles);
        d.f64(l.dip);
    }
}

fn fold_stab(d: &mut Digest, j: &StabJobOutcome) {
    d.u64(j.topology as u64);
    d.str(&j.class);
    d.u64(j.intensity as u64);
    d.str(j.site.as_deref().unwrap_or("-"));
    for l in &j.lanes {
        d.bool(l.disturbed);
        d.bool(l.stabilized);
        d.u64(l.stab_cycles);
        d.f64(l.violation_rate);
        d.f64(l.dip);
    }
}

fn verdict_result(v: &McVerdict) -> Result<ConvergenceReport, String> {
    v.report.ok_or_else(|| v.error.clone().unwrap_or_default())
}

/// What the first untraced round keeps for the checks.
#[derive(Default)]
struct Kept {
    /// Per-class `to_json` renders of the recovery-campaign calls.
    fault_json: Vec<String>,
    stab_json: String,
}

fn round(seed: u64, threads: usize, keep: &mut Option<Kept>) -> Round {
    let mut r = Round::default();
    let mut d = Digest::default();
    let mut kept = Kept::default();
    let t0 = Instant::now();
    for class in FAULT_CLASSES {
        let t = Instant::now();
        let res = run_fault_campaign(&fault_opts(seed, threads, class));
        r.latencies.push(t.elapsed().as_secs_f64());
        r.attempted += TOPOLOGIES as u64;
        match res {
            Ok(rep) => {
                r.items += rep.jobs.len();
                for j in &rep.jobs {
                    r.lane_cycles += (2 * j.lanes.len() * CYCLES) as f64;
                    fold_fault(&mut d, j);
                }
                kept.fault_json.push(rep.to_json());
            }
            Err(e) => {
                r.failed += TOPOLOGIES as u64;
                d.str(&format!("error: {e}"));
            }
        }
    }
    let t = Instant::now();
    let res = run_stabilization_campaign(&stab_opts(seed, threads));
    r.latencies.push(t.elapsed().as_secs_f64());
    let stab_jobs = (TOPOLOGIES * PROCESS_CLASSES.len() * INTENSITIES.len()) as u64;
    r.attempted += stab_jobs;
    match res {
        Ok(rep) => {
            r.items += rep.jobs.len();
            for j in &rep.jobs {
                r.lane_cycles += (2 * j.lanes.len() * CYCLES) as f64;
                fold_stab(&mut d, j);
            }
            for v in &rep.mc {
                crate::converge::fold(&mut d, &v.system, &verdict_result(v));
            }
            kept.stab_json = rep.to_json();
        }
        Err(e) => {
            r.failed += stab_jobs;
            d.str(&format!("error: {e}"));
        }
    }
    r.wall = t0.elapsed().as_secs_f64();
    r.digest = d.hex();
    if keep.is_none() {
        *keep = Some(kept);
    }
    r
}

/// Set-up: the campaign's topology window (network construction only —
/// the engines compile per job, which is measured work).
fn setup(seed: u64) -> Vec<Option<GeneratedSystem>> {
    (0..TOPOLOGIES)
        .map(|t| generate(&TopoParams::sample(seed.wrapping_add(t as u64))).ok())
        .collect()
}

// ---------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------

/// Per-job counts, summed into the replay's counts.
#[derive(Default)]
struct JobCounts {
    built: usize,
    gates: usize,
    kept: usize,
    instrs: usize,
    stim_bytes: usize,
    windows: usize,
    width: usize,
}

/// A compiled, armed job (either campaign).
struct Job {
    prog: Program,
    site: (NetId, NetId, NetId, NetId),
    out: (NetId, NetId, NetId),
    armed: PackedStimulus,
    baseline: PackedStimulus,
    /// Per-lane window starts (recovery) or fault events (stabilization).
    starts: Vec<Vec<u64>>,
    site_name: String,
}

/// Rails recorded by one tape pass: per cycle and lane word, the site's
/// `(V⁺, S⁺, V⁻, S⁻)` words; plus per-lane output transfer counts.
struct Pass {
    rails: Vec<[u64; 4]>,
    counts: Vec<u32>,
}

fn find_chan(net: &ElasticNetwork, name: &str) -> Option<ChanId> {
    net.channels().find(|&c| net.channel(c).name == name)
}

/// The shared lowering of both engines' `build_job`: compile with the
/// corruption gates, keep the observed cone, levelize, generate the
/// stimulus. `arm` fills the armed copy and returns per-lane starts.
/// `single` selects the recovery campaign's single-site calls
/// (`CompileOptions::fault`, `NetlistTestbench::with_fault`).
#[allow(clippy::too_many_arguments)]
fn lower(
    tr: &Tracer,
    single: bool,
    parent: Option<u64>,
    req: u64,
    sys: &GeneratedSystem,
    sites: &[FaultInjection],
    sched_seed: u64,
    n: &mut JobCounts,
    arm: impl FnOnce(&mut PackedStimulus, &[usize]) -> Result<Vec<Vec<u64>>, CoreError>,
) -> Result<Job, CoreError> {
    let opt = tr.span("compile", parent, req, |_| {
        compile(
            &sys.network,
            &CompileOptions {
                lint: false,
                data_width: MC_DATA_WIDTH,
                nondet_merge: false,
                optimize: true,
                fault: single.then(|| sites[0].clone()),
                faults: if single { vec![] } else { sites.to_vec() },
            },
        )
    })?;
    n.gates += opt.netlist.len();
    let site_name = sites[0]
        .channel()
        .expect("rail faults name a channel")
        .to_string();
    let out_rails = &opt.channels[sys.output_channel.index()];
    let mut observe: Vec<NetId> = vec![out_rails.vp, out_rails.sp, out_rails.vn];
    let mut primary = None;
    for site in sites {
        let chan = find_chan(&sys.network, site.channel().expect("rail fault"))
            .expect("validated channel exists");
        primary.get_or_insert(chan);
        let r = &opt.channels[chan.index()];
        for id in [r.vp, r.sp, r.vn, r.sn] {
            if !observe.contains(&id) {
                observe.push(id);
            }
        }
    }
    let (obs, map) = tr
        .span("opt", parent, req, |_| {
            optimize_observed(&opt.netlist, &observe)
        })
        .map_err(CoreError::from)?;
    n.kept += obs.len();
    let remap = |id: NetId| map[id.index()].expect("observed rails survive as outputs");
    let (prog, _) = tr
        .span("levelize", parent, req, |_| {
            Program::compile_optimized(&obs)
        })
        .map_err(CoreError::from)?;
    n.instrs += prog.high().len() + prog.low().len();
    let width = match LANES_PER_JOB {
        l if l <= LANES => 1,
        l if l <= 2 * LANES => 2,
        l if l <= 4 * LANES => 4,
        _ => 8,
    };
    let (tb, baseline) = tr.span("verify.stim", parent, req, |_| {
        let tb = if single {
            NetlistTestbench::with_fault(&sys.network, &obs, MC_DATA_WIDTH, &sites[0])?
        } else {
            NetlistTestbench::with_faults(&sys.network, &obs, MC_DATA_WIDTH, sites)?
        };
        let stim = PackedStimulus::generate(
            &tb,
            &sys.network,
            &sys.env,
            sched_seed,
            LANES_PER_JOB,
            CYCLES,
            width,
        )?;
        Ok::<_, CoreError>((tb, stim))
    })?;
    n.stim_bytes += baseline.slots().len() * baseline.cycles() * baseline.width() * 8;
    n.width = width;
    let cols = if single {
        vec![tb.fault_col().ok_or_else(|| {
            CoreError::FaultSite(format!(
                "fault {} lowered without an arm input",
                sites[0].label()
            ))
        })?]
    } else {
        tb.fault_cols()
    };
    if cols.len() != sites.len() {
        return Err(CoreError::FaultSite(format!(
            "{} fault sites lowered to {} arm columns",
            sites.len(),
            cols.len()
        )));
    }
    let mut armed = baseline.clone();
    let starts = tr.span("fault", parent, req, |_| arm(&mut armed, &cols))?;
    let sr = &opt.channels[primary.expect("at least one site").index()];
    n.built = 1;
    Ok(Job {
        prog,
        site: (remap(sr.vp), remap(sr.sp), remap(sr.vn), remap(sr.sn)),
        out: (
            remap(out_rails.vp),
            remap(out_rails.sp),
            remap(out_rails.vn),
        ),
        armed,
        baseline,
        starts,
        site_name,
    })
}

/// One tape pass, recording the site rails and counting output
/// transfers (the `wide` layer).
fn pass_w<const W: usize>(job: &Job, stim: &PackedStimulus) -> Result<Pass, CoreError> {
    let lanes = job.starts.len();
    let mut sim: WideSim<W> = WideSim::from_program(job.prog.clone());
    sim.check_input_slots(stim.slots())
        .map_err(CoreError::from)?;
    let live = lane_masks::<W>(lanes);
    let (svp, ssp, svn, ssn) = job.site;
    let (ovp, osp, ovn) = job.out;
    let mut counts = vec![0u32; lanes];
    let mut rails = Vec::with_capacity(stim.cycles() * W);
    for t in 0..stim.cycles() {
        sim.cycle_packed(stim.slots(), stim.row(t));
        for (w, &mask) in live.iter().enumerate() {
            rails.push([
                sim.word(svp, w),
                sim.word(ssp, w),
                sim.word(svn, w),
                sim.word(ssn, w),
            ]);
            let mut m = sim.word(ovp, w) & !sim.word(osp, w) & !sim.word(ovn, w) & mask;
            while m != 0 {
                counts[w * LANES + m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
        }
    }
    Ok(Pass { rails, counts })
}

fn pass(job: &Job, stim: &PackedStimulus) -> Result<Pass, CoreError> {
    match stim.width() {
        1 => pass_w::<1>(job, stim),
        2 => pass_w::<2>(job, stim),
        4 => pass_w::<4>(job, stim),
        8 => pass_w::<8>(job, stim),
        w => Err(CoreError::ScheduleBatch(format!(
            "unsupported stimulus width {w}"
        ))),
    }
}

/// Feeds each lane's detector from a recorded pass (the `protocol`
/// layer); `events` marks fault events before the cycle they start on.
fn detect(
    p: &Pass,
    width: usize,
    lanes: usize,
    events: Option<&[Vec<u64>]>,
) -> Vec<RecoveryDetector> {
    let cycles = p.rails.len() / width;
    (0..lanes)
        .map(|k| {
            let (w, b) = (k / LANES, k % LANES);
            let mut det = RecoveryDetector::new();
            let mut cursor = 0;
            for t in 0..cycles {
                if let Some(ev) = events {
                    if ev[k].get(cursor) == Some(&(t as u64)) {
                        det.fault_event();
                        cursor += 1;
                    }
                }
                let [vp, sp, vn, sn] = p.rails[t * width + w];
                det.observe(ChannelSignals {
                    vp: vp >> b & 1 == 1,
                    sp: sp >> b & 1 == 1,
                    vn: vn >> b & 1 == 1,
                    sn: sn >> b & 1 == 1,
                    data: 0,
                });
            }
            det
        })
        .collect()
}

/// Both tape passes plus detection: `(baseline, armed)` pass results and
/// detectors.
type Driven = ((Pass, Vec<RecoveryDetector>), (Pass, Vec<RecoveryDetector>));

fn drive(
    tr: &Tracer,
    parent: Option<u64>,
    req: u64,
    job: &Job,
    retime: bool,
) -> Result<Driven, CoreError> {
    let lanes = job.starts.len();
    let width = job.armed.width();
    let base = tr.span("wide", parent, req, |_| pass(job, &job.baseline))?;
    let armed = tr.span("wide", parent, req, |_| pass(job, &job.armed))?;
    let (bd, ad) = tr.span("protocol", parent, req, |_| {
        (
            detect(&base, width, lanes, None),
            detect(
                &armed,
                width,
                lanes,
                retime.then_some(job.starts.as_slice()),
            ),
        )
    });
    Ok(((base, bd), (armed, ad)))
}

/// Replays `bench::fault`'s job `(topo, class)`.
fn fault_job(
    tr: &Tracer,
    req: u64,
    seed: u64,
    topo: usize,
    class: &str,
    n: &mut JobCounts,
) -> Result<JobOutcome, CoreError> {
    tr.span("job", None, req, |id| {
        let skipped = || JobOutcome {
            topology: topo,
            class: class.to_string(),
            site: None,
            lanes: Vec::new(),
        };
        let Ok(sys) = tr.span("network", id, req, |_| {
            generate(&TopoParams::sample(seed.wrapping_add(topo as u64)))
        }) else {
            return Ok(skipped());
        };
        let sched_seed = seed.wrapping_add((topo * LANES_PER_JOB) as u64);
        let Some((fault, eff)) = tr.span("fault", id, req, |_| {
            injectable_site(&sys, class, sched_seed, CYCLES)
        }) else {
            return Ok(skipped());
        };
        let job = lower(
            tr,
            true,
            id,
            req,
            &sys,
            &[fault],
            sched_seed,
            n,
            |armed, cols| {
                let len = WINDOW_LEN.max(1);
                (0..LANES_PER_JOB)
                    .map(|lane| {
                        let start = (eff + lane % WINDOW_STAGGER).min(CYCLES.saturating_sub(len));
                        armed.arm_fault(cols[0], lane, start, len)?;
                        Ok(vec![start as u64])
                    })
                    .collect()
            },
        )?;
        n.windows += LANES_PER_JOB;
        let ((base, bd), (armed, ad)) = drive(tr, id, req, &job, false)?;
        let lanes = tr.span("bench.reduce", id, req, |_| {
            (0..LANES_PER_JOB)
                .map(|j| {
                    let det = &ad[j];
                    let start = job.starts[j][0] as usize;
                    LaneOutcome {
                        disturbed: det.violations() > bd[j].violations(),
                        recovered: det.recovered(RECOVERY_TAIL),
                        recovery_cycles: det
                            .last_violation()
                            .map_or(0, |lv| ((lv + 1).saturating_sub(start)) as u64),
                        dip: (f64::from(base.counts[j]) - f64::from(armed.counts[j]))
                            / CYCLES as f64,
                    }
                })
                .collect()
        });
        Ok(JobOutcome {
            topology: topo,
            class: class.to_string(),
            site: Some(job.site_name),
            lanes,
        })
    })
}

/// `bench::stabilize`'s process construction for `(sys, class,
/// intensity)`, call for call.
fn build_process(
    sys: &GeneratedSystem,
    class: &str,
    intensity: usize,
    sched_seed: u64,
) -> Option<FaultProcess> {
    let cycles = CYCLES;
    let process = match class {
        "periodic" => {
            let (fault, eff) = injectable_site(sys, "rail_flip", sched_seed, cycles)?;
            FaultProcess::Periodic {
                fault,
                period: PERIOD,
                duty: intensity,
                start: eff.min(cycles.saturating_sub(intensity)),
            }
        }
        "sustained" => {
            let (fault, eff) = injectable_site(sys, "stuck_at_0", sched_seed, cycles)?;
            let len = (intensity * PERIOD).min(cycles.saturating_sub(eff));
            if len == 0 {
                return None;
            }
            FaultProcess::Sustained {
                fault,
                start: eff,
                len,
            }
        }
        "correlated" => {
            let (fault, _) = injectable_site(sys, "rail_flip", sched_seed, cycles)?;
            let first = fault.channel()?.to_string();
            let second = sys
                .network
                .channels()
                .map(|c| sys.network.channel(c).name.clone())
                .find(|n| *n != first);
            let site2 = match second {
                Some(channel) => FaultInjection::RailFlip {
                    channel,
                    rail: FaultRail::Vp,
                },
                None => FaultInjection::RailFlip {
                    channel: first.clone(),
                    rail: FaultRail::Sp,
                },
            };
            let len = (PERIOD / 4).max(1).min(cycles / intensity.max(1));
            if len == 0 {
                return None;
            }
            FaultProcess::Correlated {
                faults: vec![fault, site2],
                bursts: intensity,
                len,
            }
        }
        "byzantine" => {
            let probed = injectable_site(sys, "rail_flip", sched_seed, cycles)
                .and_then(|(f, _)| f.channel().map(str::to_string));
            let non_passive = |name: &String| {
                sys.network.channels().any(|c| {
                    sys.network.channel(c).name == *name && !sys.network.channel(c).passive
                })
            };
            let channel = probed.filter(non_passive).or_else(|| {
                sys.network
                    .channels()
                    .map(|c| sys.network.channel(c))
                    .find(|ch| !ch.passive)
                    .map(|ch| ch.name.clone())
            })?;
            FaultProcess::Byzantine {
                channel,
                period: PERIOD,
                duty: intensity,
            }
        }
        _ => return None,
    };
    process.validate(&sys.network, cycles).ok()?;
    Some(process)
}

/// Replays `bench::stabilize`'s job `(topo, class, intensity)`.
fn stab_job(
    tr: &Tracer,
    req: u64,
    seed: u64,
    (topo, class, intensity): (usize, &str, usize),
    n: &mut JobCounts,
) -> Result<StabJobOutcome, CoreError> {
    tr.span("job", None, req, |id| {
        let skipped = || StabJobOutcome {
            topology: topo,
            class: class.to_string(),
            intensity,
            site: None,
            lanes: Vec::new(),
        };
        let Ok(sys) = tr.span("network", id, req, |_| {
            generate(&TopoParams::sample(seed.wrapping_add(topo as u64)))
        }) else {
            return Ok(skipped());
        };
        let sched_seed = seed.wrapping_add((topo * LANES_PER_JOB) as u64);
        let Some(process) = tr.span("fault", id, req, |_| {
            build_process(&sys, class, intensity, sched_seed)
        }) else {
            return Ok(skipped());
        };
        let sites = process.sites();
        let mut windows = 0;
        let job = lower(
            tr,
            false,
            id,
            req,
            &sys,
            &sites,
            sched_seed,
            n,
            |armed, cols| {
                (0..LANES_PER_JOB)
                    .map(|lane| {
                        for (site, ws) in
                            process.windows(sched_seed, lane, CYCLES).iter().enumerate()
                        {
                            for &(start, len) in ws {
                                armed.arm_fault(cols[site], lane, start, len)?;
                                windows += 1;
                            }
                        }
                        Ok(process
                            .merged_windows(sched_seed, lane, CYCLES)
                            .iter()
                            .map(|&(s, _)| s)
                            .collect())
                    })
                    .collect()
            },
        )?;
        n.windows += windows;
        let ((base, bd), (armed, ad)) = drive(tr, id, req, &job, true)?;
        let lanes = tr.span("bench.reduce", id, req, |_| {
            (0..LANES_PER_JOB)
                .map(|j| {
                    let det = &ad[j];
                    let stab = det.stabilization_time(RECOVERY_TAIL);
                    LaneStabilization {
                        disturbed: det.violations() > bd[j].violations(),
                        stabilized: stab.is_some(),
                        stab_cycles: stab.unwrap_or(0),
                        violation_rate: det.violation_rate(),
                        dip: (f64::from(base.counts[j]) - f64::from(armed.counts[j]))
                            / CYCLES as f64,
                    }
                })
                .collect()
        });
        Ok(StabJobOutcome {
            topology: topo,
            class: class.to_string(),
            intensity,
            site: Some(job.site_name),
            lanes,
        })
    })
}

/// Replays the stabilization campaign's closing convergence section
/// (`check_network_convergence` at its fixed budget) call for call.
fn mc_section(
    tr: &Tracer,
    req0: u64,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Vec<(String, Result<ConvergenceReport, String>)> {
    let mut nets: Vec<(String, Result<ElasticNetwork, CoreError>, usize)> = Vec::new();
    for (stages, tokens) in [(1usize, 0usize), (2, 1)] {
        nets.push((
            format!("linear_pipeline({stages},{tokens})"),
            linear_pipeline(stages, tokens).map(|(n, _, _)| n),
            0,
        ));
    }
    for cfg in Config::all() {
        let dw = if matches!(cfg, Config::NoEarlyEval) {
            0
        } else {
            2
        };
        nets.push((
            format!("paper_example({cfg:?})"),
            paper_example(cfg).map(|s| s.network),
            dw,
        ));
    }
    let budget = BridgeOptions {
        max_ff_states: 1 << 12,
        max_inputs: 6,
    };
    nets.into_iter()
        .enumerate()
        .map(|(i, (name, net, dw))| {
            let req = req0 + i as u64;
            let v = tr.span("verdict", None, req, |id| {
                let net = net.map_err(|e| e.to_string())?;
                crate::converge::verdict(
                    tr,
                    id,
                    req,
                    &net,
                    &mc_process(&net).ok_or("no non-passive channel to corrupt")?,
                    CYCLES.max(16),
                    dw,
                    budget,
                    counts,
                )
            });
            (name, v)
        })
        .collect()
}

/// `bench::stabilize`'s canonical verdict process.
pub fn mc_process(net: &ElasticNetwork) -> Option<FaultProcess> {
    let channel = net
        .channels()
        .map(|c| net.channel(c))
        .find(|ch| !ch.passive)
        .map(|ch| ch.name.clone())?;
    Some(FaultProcess::Periodic {
        fault: FaultInjection::RailFlip {
            channel,
            rail: FaultRail::Vp,
        },
        period: 8,
        duty: 1,
        start: 0,
    })
}

/// Runs `total` jobs on the worker pool and sums their counts.
fn pool<R: Send>(
    total: usize,
    threads: usize,
    job: impl Fn(usize, &mut JobCounts) -> Result<R, CoreError> + Sync,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Vec<Result<R, CoreError>> {
    par_map(total, threads, |i| {
        let mut n = JobCounts::default();
        (job(i, &mut n), n)
    })
    .into_iter()
    .map(|(r, n)| {
        let cycles_w = 2 * n.built * n.width.max(1) * CYCLES;
        let lane_cycles = (n.built * LANES_PER_JOB * CYCLES) as f64;
        for (k, v) in [
            ("stream.items", 1.0),
            ("bench.jobs_built", n.built as f64),
            ("bench.jobs_skipped", (1 - n.built) as f64),
            ("compile.gates", n.gates as f64),
            ("opt.gates_kept", n.kept as f64),
            ("levelize.tape_instrs", n.instrs as f64),
            ("verify.stim_bytes", n.stim_bytes as f64),
            ("wide.word_ops", (n.instrs * cycles_w) as f64),
            ("fault.windows", n.windows as f64),
            ("protocol.observations", 2.0 * lane_cycles),
            ("stim_lane_cycles", lane_cycles),
            ("wide_lane_cycles", 2.0 * lane_cycles),
        ] {
            *counts.entry(k).or_default() += v;
        }
        r
    })
    .collect()
}

fn replay(tr: &Tracer, seed: u64, threads: usize) -> Replay {
    let mut d = Digest::default();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let t0 = Instant::now();
    let mut req = 0u64;
    for class in FAULT_CLASSES {
        let base = req;
        let jobs = pool(
            TOPOLOGIES,
            threads,
            |t, n| fault_job(tr, base + t as u64, seed, t, class, n),
            &mut counts,
        );
        req += TOPOLOGIES as u64;
        for j in jobs {
            match j {
                Ok(j) => fold_fault(&mut d, &j),
                Err(e) => d.str(&format!("error: {e}")),
            }
        }
    }
    let (nc, ni) = (PROCESS_CLASSES.len(), INTENSITIES.len());
    let base = req;
    let jobs = pool(
        TOPOLOGIES * nc * ni,
        threads,
        |i, n| {
            let key = (
                i / (nc * ni),
                PROCESS_CLASSES[i / ni % nc],
                INTENSITIES[i % ni],
            );
            stab_job(tr, base + i as u64, seed, key, n)
        },
        &mut counts,
    );
    req += (TOPOLOGIES * nc * ni) as u64;
    for j in jobs {
        match j {
            Ok(j) => fold_stab(&mut d, &j),
            Err(e) => d.str(&format!("error: {e}")),
        }
    }
    for (name, v) in mc_section(tr, req, &mut counts) {
        crate::converge::fold(&mut d, &name, &v);
    }
    Replay {
        wall: t0.elapsed().as_secs_f64(),
        digest: d.hex(),
        counts,
    }
}

/// Traced set-up: the topology window's network construction.
fn traced_setup(tr: &Tracer, seed: u64) -> BTreeMap<&'static str, f64> {
    let nets = tr.span("network", None, 0, |_| setup(seed));
    let comps: usize = nets
        .iter()
        .flatten()
        .map(|s| s.network.num_components())
        .sum();
    BTreeMap::from([("network.components", comps as f64)])
}

pub fn run(opts: &Opts) -> Result<Outcome, CoreError> {
    let (mut setup_s, nets) = timed_setup(SETUPS_BEFORE, || setup(CAMPAIGN_SEED));
    let mut first = None;
    let rounds = if opts.trace {
        vec![round(CAMPAIGN_SEED, opts.threads, &mut first)]
    } else {
        let (rounds, more) = measure(
            opts.seconds,
            ROUND_S,
            || round(CAMPAIGN_SEED, opts.threads, &mut first),
            || time_once(|| setup(CAMPAIGN_SEED)),
        );
        setup_s.extend(more);
        rounds
    };
    let kept = first.unwrap_or_default();
    let mut checks = Vec::new();
    let generated = nets.iter().filter(|s| s.is_some()).count();
    checks.push(Check::new(
        "topologies_generate",
        generated == TOPOLOGIES,
        format!("{generated}/{TOPOLOGIES} sampled topologies build"),
    ));
    let trace = opts.trace.then(|| {
        let t = trace_run(
            opts.seconds,
            |tr| traced_setup(tr, CAMPAIGN_SEED),
            |tr| replay(tr, CAMPAIGN_SEED, opts.threads),
        );
        checks.push(Check::new(
            "trace_reproduces_engine",
            t.replay.digest == rounds[0].digest,
            format!(
                "replay {} vs campaigns {}",
                t.replay.digest, rounds[0].digest
            ),
        ));
        t
    });
    let attach = vec![
        (
            "fault_campaign".to_string(),
            J::Arr(kept.fault_json.into_iter().map(J::Str).collect()),
        ),
        ("stabilization_campaign".to_string(), J::Str(kept.stab_json)),
        (
            "options".to_string(),
            J::obj([
                ("topologies", J::Int(TOPOLOGIES as u64)),
                ("cycles", J::Int(CYCLES as u64)),
                ("lanes", J::Int(LANES_PER_JOB as u64)),
                ("window_len", J::Int(WINDOW_LEN as u64)),
                ("recovery_tail", J::Int(RECOVERY_TAIL as u64)),
                ("period", J::Int(PERIOD as u64)),
                (
                    "intensities",
                    J::Arr(INTENSITIES.iter().map(|&i| J::Int(i as u64)).collect()),
                ),
                ("seed", J::Int(CAMPAIGN_SEED)),
            ]),
        ),
    ];
    Ok(Outcome {
        setup: setup_s,
        rounds,
        checks,
        systems: vec![J::obj([
            (
                "system",
                J::str(format!(
                    "TopoParams::sample({}..{})",
                    CAMPAIGN_SEED,
                    CAMPAIGN_SEED + TOPOLOGIES as u64
                )),
            ),
            (
                "backend",
                J::str(format!("wide{}", LANES_PER_JOB.div_ceil(LANES))),
            ),
        ])],
        attach,
        trace,
    })
}
