//! Self-stabilization Monte-Carlo campaign engine — the
//! `stabilization_campaign` binary's core (`BENCH_pr9.json`).
//!
//! Where the recovery campaign (`crate::fault`) injects **one** window per
//! trial and asks "did the violations stop?", this campaign drives whole
//! [`FaultProcess`]es — `periodic` re-injection, `sustained` stuck-at
//! intervals, `correlated` multi-site bursts and a `byzantine` per-side
//! channel adversary — swept over *process classes × intensities ×
//! generated topologies*. Every site of a process becomes a corruption
//! gate ([`CompileOptions::faults`]) with its own trailing stimulus
//! column; every lane runs an independent, seeded instance of the process
//! ([`FaultProcess::windows`]).
//!
//! Each lane feeds a stabilization tracker
//! ([`RecoveryDetector::fault_event`]) on the primary site's rails: at
//! every disturbance-interval start the tracker retimes, so
//! [`RecoveryDetector::stabilization_time`] reports the cycles from the
//! **last** fault event to sustained `(I*R*T)*` conformance —
//! re-injection mid-recovery resets the clock instead of silently keeping
//! the first recovery. Lanes that never stabilize contribute to the
//! non-stabilization rate and report their steady-state
//! [`RecoveryDetector::violation_rate`] instead. A second, unarmed pass of
//! the identical stimulus gives each lane's throughput dip, yielding a
//! dip-versus-intensity curve per class.
//!
//! The report closes with explicit-state **convergence verdicts**
//! ([`check_network_convergence`]): for the small named systems (the
//! fig. 8 pipeline controllers and the paper's fig. 9 configurations) and
//! the first few generated topologies, the model checker explores every
//! fault-reachable controller state and decides whether all fault-free
//! runs re-enter the legal state set — the convergence half of a
//! self-stabilization proof. Systems too wide for exhaustive exploration
//! record a typed skip, never a wedged campaign.
//!
//! The job engine (`Sweep`) is shared with the recovery campaign
//! (`crate::fault`), which runs on it as the one-window preset. Jobs run
//! through the generic streaming pipeline (`stream::run_pipeline`) with
//! index-derived seeds and in-order reduction, so the whole report is
//! bit-identical for every thread count and queue depth.

use std::io::Write as _;
use std::time::Instant;

use elastic_core::channel::ChannelSignals;
use elastic_core::compile::{compile, CompileOptions, FaultInjection, FaultRail};
use elastic_core::fault::FaultProcess;
use elastic_core::gen::{generate, injectable_site, GeneratedSystem, TopoParams};
use elastic_core::protocol::RecoveryDetector;
use elastic_core::systems::{linear_pipeline, paper_example, Config};
use elastic_core::verify::{check_network_convergence, NetlistTestbench, PackedStimulus};
use elastic_core::CoreError;
use elastic_mc::{BridgeOptions, ConvergenceReport};
use elastic_netlist::levelize::Program;
use elastic_netlist::opt::optimize_observed;
use elastic_netlist::wide::{lane_masks, WideSim, LANES};
use elastic_netlist::NetId;

use crate::exp::{default_threads, effective_threads, json_f64, json_str};
use crate::stream::run_pipeline;
use crate::{MAX_TRIALS_PER_RUN, MC_DATA_WIDTH};

/// Every fault-process class the campaign can drive, in report order.
pub const PROCESS_CLASSES: [&str; 4] = ["periodic", "sustained", "correlated", "byzantine"];

/// Campaign options (the `stabilization_campaign` CLI surface).
#[derive(Debug, Clone)]
pub struct StabilizationOpts {
    /// Generated topologies to sweep (seeds `seed..seed + topologies`).
    pub topologies: usize,
    /// Base seed for topology sampling and schedule generation.
    pub seed: u64,
    /// Cycles per trial (the horizon; at least 32).
    pub cycles: usize,
    /// Trials (= packed lanes) per job, 1..=512.
    pub lanes: usize,
    /// Base period of the periodic and byzantine processes, and the unit
    /// of the sustained interval length (at least 2).
    pub period: usize,
    /// Intensity sweep: armed cycles per period (periodic/byzantine),
    /// period-multiples of stuck-at (sustained), bursts (correlated).
    /// Each must be in `1..=period`.
    pub intensities: Vec<usize>,
    /// Violation-free cycles required at the horizon for a lane to count
    /// as stabilized ([`RecoveryDetector::stabilization_time`]).
    pub recovery_tail: usize,
    /// Worker threads (clamped like the throughput engine).
    pub threads: usize,
    /// Streaming-pipeline job queue depth.
    pub queue: usize,
    /// Process classes to drive (subset of [`PROCESS_CLASSES`]).
    pub classes: Vec<String>,
    /// Leading generated topologies additionally sent to the model
    /// checker for a convergence verdict (budget-gated; 0 disables).
    pub mc_topologies: usize,
}

impl Default for StabilizationOpts {
    fn default() -> Self {
        StabilizationOpts {
            topologies: 100,
            seed: 1,
            cycles: 256,
            lanes: 64,
            period: 32,
            intensities: vec![1, 2, 4],
            recovery_tail: 16,
            threads: default_threads(),
            queue: 2,
            classes: PROCESS_CLASSES.iter().map(|&c| c.to_string()).collect(),
            mc_topologies: 4,
        }
    }
}

/// Per-lane outcome of one armed trial under a fault process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStabilization {
    /// The armed run violated an obligation the unarmed run did not.
    pub disturbed: bool,
    /// The trace re-entered `(I*R*T)*` and held it through the final
    /// recovery tail ([`RecoveryDetector::stabilization_time`] is `Some`).
    pub stabilized: bool,
    /// Cycles from the last fault event to sustained conformance (0 for
    /// unstabilized or undisturbed lanes).
    pub stab_cycles: u64,
    /// Violating cycles per observed cycle — the steady-state disturbance
    /// level when the process never quiesces.
    pub violation_rate: f64,
    /// Fault-free transfer rate minus armed transfer rate at the output.
    pub dip: f64,
}

/// Outcome of one topology × class × intensity job.
#[derive(Debug, Clone)]
pub struct StabJobOutcome {
    /// Topology index within the campaign.
    pub topology: usize,
    /// Process class label.
    pub class: String,
    /// Intensity this job ran at.
    pub intensity: usize,
    /// Primary faulted channel; `None` when the topology had no usable
    /// process of this class (skipped, not failed).
    pub site: Option<String>,
    /// Per-lane outcomes (empty for skipped jobs).
    pub lanes: Vec<LaneStabilization>,
}

/// One intensity point of a class's stabilization curve.
#[derive(Debug, Clone)]
pub struct IntensityStats {
    /// Intensity of this point.
    pub intensity: usize,
    /// Topologies with a usable process at this intensity.
    pub sites: usize,
    /// Armed trials across those topologies.
    pub trials: usize,
    /// Trials whose tracker observed an injected violation.
    pub disturbed: usize,
    /// Disturbed trials that stabilized.
    pub stabilized: usize,
    /// Median stabilization time over disturbed-and-stabilized trials.
    pub stab_p50: f64,
    /// 99th-percentile stabilization time (nearest rank).
    pub stab_p99: f64,
    /// `1 − stabilized/disturbed` (0 when nothing was disturbed).
    pub non_stabilization_rate: f64,
    /// Mean steady-state violation rate over disturbed trials.
    pub mean_violation_rate: f64,
    /// Mean output-throughput dip over **all** armed trials — one point
    /// of the class's dip-versus-intensity curve (not conditioned on
    /// disturbance: a sustained stall costs throughput while staying
    /// protocol-legal).
    pub mean_dip: f64,
}

/// Aggregated statistics of one process class.
#[derive(Debug, Clone)]
pub struct ProcessClassStats {
    /// Process class label.
    pub class: String,
    /// Median stabilization time over every disturbed-and-stabilized
    /// trial of the class (all intensities pooled).
    pub stab_p50: f64,
    /// 99th-percentile stabilization time over the same pool.
    pub stab_p99: f64,
    /// `1 − stabilized/disturbed` over the pool.
    pub non_stabilization_rate: f64,
    /// Mean steady-state violation rate over disturbed trials.
    pub mean_violation_rate: f64,
    /// The dip-versus-intensity curve, in `opts.intensities` order.
    pub points: Vec<IntensityStats>,
}

/// Convergence verdict of one system, or the typed reason it was skipped.
#[derive(Debug, Clone)]
pub struct McVerdict {
    /// System display name.
    pub system: String,
    /// The explicit-state report when exploration fit the budget.
    pub report: Option<ConvergenceReport>,
    /// The typed error when it did not (budget, width, compile).
    pub error: Option<String>,
}

/// The whole campaign, serialized to `BENCH_pr9.json`.
#[derive(Debug, Clone)]
pub struct StabilizationReport {
    /// Campaign name (echoes the options).
    pub name: String,
    /// The options the campaign ran with.
    pub opts: StabilizationOpts,
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Per-class aggregates, in `opts.classes` order.
    pub classes: Vec<ProcessClassStats>,
    /// Per-job outcomes (topology-major, class, then intensity).
    pub jobs: Vec<StabJobOutcome>,
    /// Convergence verdicts: named systems first, then the leading
    /// generated topologies.
    pub mc: Vec<McVerdict>,
    /// Wall-clock seconds for the whole campaign.
    pub wall_secs: f64,
}

/// A per-lane outcome the pooled statistics read, whichever preset
/// produced it.
pub(crate) trait Settling {
    /// The armed run violated an obligation the unarmed run did not.
    fn disturbed(&self) -> bool;
    /// Cycles the lane took to settle back into `(I*R*T)*` (recovery or
    /// stabilization time); `None` when it never did.
    fn settled(&self) -> Option<u64>;
}

impl Settling for LaneStabilization {
    fn disturbed(&self) -> bool {
        self.disturbed
    }
    fn settled(&self) -> Option<u64> {
        self.stabilized.then_some(self.stab_cycles)
    }
}

/// The lanes of a set of jobs pooled for aggregation: every lane, the
/// disturbed ones, and the sorted settle times of the disturbed lanes
/// that settled.
pub(crate) struct Pool<'a, L> {
    /// Every armed trial.
    pub(crate) all: Vec<&'a L>,
    /// Trials that observed an injected violation.
    pub(crate) disturbed: Vec<&'a L>,
    /// Settle times of the disturbed-and-settled trials, ascending.
    pub(crate) samples: Vec<u64>,
}

impl<'a, L: Settling> Pool<'a, L> {
    pub(crate) fn new(lanes: impl IntoIterator<Item = &'a L>) -> Self {
        let all: Vec<&L> = lanes.into_iter().collect();
        let disturbed: Vec<&L> = all.iter().copied().filter(|l| l.disturbed()).collect();
        let mut samples: Vec<u64> = disturbed.iter().filter_map(|l| l.settled()).collect();
        samples.sort_unstable();
        Pool {
            all,
            disturbed,
            samples,
        }
    }

    /// Nearest-rank percentile of the settle times (`NaN` for an empty
    /// sample — rendered as JSON `null`).
    pub(crate) fn percentile(&self, q: f64) -> f64 {
        let Some(last) = self.samples.len().checked_sub(1) else {
            return f64::NAN;
        };
        let idx = (last as f64 * q).round() as usize;
        self.samples[idx.min(last)] as f64
    }

    /// `1 − settled/disturbed` (0 when nothing was disturbed).
    pub(crate) fn unsettled_rate(&self) -> f64 {
        if self.disturbed.is_empty() {
            0.0
        } else {
            1.0 - self.samples.len() as f64 / self.disturbed.len() as f64
        }
    }

    /// Mean of `f` over the disturbed trials (0 when there are none).
    pub(crate) fn disturbed_mean(&self, f: impl Fn(&L) -> f64) -> f64 {
        mean(&self.disturbed, f)
    }

    /// Mean of `f` over every trial (0 when there are none).
    pub(crate) fn mean(&self, f: impl Fn(&L) -> f64) -> f64 {
        mean(&self.all, f)
    }
}

fn mean<L>(lanes: &[&L], f: impl Fn(&L) -> f64) -> f64 {
    if lanes.is_empty() {
        0.0
    } else {
        lanes.iter().map(|l| f(l)).sum::<f64>() / lanes.len() as f64
    }
}

impl StabilizationReport {
    /// Aggregates per-job outcomes into per-class curves.
    fn aggregate(opts: &StabilizationOpts, jobs: &[StabJobOutcome]) -> Vec<ProcessClassStats> {
        opts.classes
            .iter()
            .map(|class| {
                let of_class: Vec<&StabJobOutcome> =
                    jobs.iter().filter(|j| &j.class == class).collect();
                let points = opts
                    .intensities
                    .iter()
                    .map(|&intensity| {
                        let cell: Vec<&StabJobOutcome> = of_class
                            .iter()
                            .filter(|j| j.intensity == intensity)
                            .copied()
                            .collect();
                        let pool = Pool::new(cell.iter().flat_map(|j| &j.lanes));
                        IntensityStats {
                            intensity,
                            sites: cell.iter().filter(|j| j.site.is_some()).count(),
                            trials: pool.all.len(),
                            disturbed: pool.disturbed.len(),
                            stabilized: pool.samples.len(),
                            stab_p50: pool.percentile(0.50),
                            stab_p99: pool.percentile(0.99),
                            non_stabilization_rate: pool.unsettled_rate(),
                            mean_violation_rate: pool.disturbed_mean(|l| l.violation_rate),
                            // Not conditioned on disturbance: a sustained
                            // stall dents throughput while staying
                            // protocol-legal.
                            mean_dip: pool.mean(|l| l.dip),
                        }
                    })
                    .collect();
                let pool = Pool::new(of_class.iter().flat_map(|j| &j.lanes));
                ProcessClassStats {
                    class: class.clone(),
                    stab_p50: pool.percentile(0.50),
                    stab_p99: pool.percentile(0.99),
                    non_stabilization_rate: pool.unsettled_rate(),
                    mean_violation_rate: pool.disturbed_mean(|l| l.violation_rate),
                    points,
                }
            })
            .collect()
    }

    /// Renders the report as a JSON object (hand-rolled like every other
    /// report in this crate; the workspace vendors no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"campaign\": {},\n", json_str(&self.name)));
        s.push_str(&format!("  \"topologies\": {},\n", self.opts.topologies));
        s.push_str(&format!("  \"cycles\": {},\n", self.opts.cycles));
        s.push_str(&format!("  \"lanes\": {},\n", self.opts.lanes));
        s.push_str(&format!("  \"period\": {},\n", self.opts.period));
        s.push_str(&format!(
            "  \"intensities\": [{}],\n",
            self.opts
                .intensities
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!(
            "  \"recovery_tail\": {},\n",
            self.opts.recovery_tail
        ));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"queue\": {},\n", self.opts.queue));
        s.push_str(&format!("  \"wall_secs\": {},\n", json_f64(self.wall_secs)));
        s.push_str("  \"classes\": [\n");
        for (i, c) in self.classes.iter().enumerate() {
            let sep = if i + 1 == self.classes.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"class\": {}, \"stab_p50\": {}, \"stab_p99\": {}, \
                 \"non_stabilization_rate\": {}, \"mean_violation_rate\": {},\n",
                json_str(&c.class),
                json_f64(c.stab_p50),
                json_f64(c.stab_p99),
                json_f64(c.non_stabilization_rate),
                json_f64(c.mean_violation_rate),
            ));
            s.push_str("     \"curve\": [\n");
            for (k, p) in c.points.iter().enumerate() {
                let psep = if k + 1 == c.points.len() { "" } else { "," };
                s.push_str(&format!(
                    "      {{\"intensity\": {}, \"sites\": {}, \"trials\": {}, \
                     \"disturbed\": {}, \"stabilized\": {}, \"stab_p50\": {}, \
                     \"stab_p99\": {}, \"non_stabilization_rate\": {}, \
                     \"mean_violation_rate\": {}, \"mean_throughput_dip\": {}}}{psep}\n",
                    p.intensity,
                    p.sites,
                    p.trials,
                    p.disturbed,
                    p.stabilized,
                    json_f64(p.stab_p50),
                    json_f64(p.stab_p99),
                    json_f64(p.non_stabilization_rate),
                    json_f64(p.mean_violation_rate),
                    json_f64(p.mean_dip),
                ));
            }
            s.push_str(&format!("     ]}}{sep}\n"));
        }
        s.push_str("  ],\n");
        s.push_str("  \"mc\": [\n");
        for (i, v) in self.mc.iter().enumerate() {
            let sep = if i + 1 == self.mc.len() { "" } else { "," };
            match (&v.report, &v.error) {
                (Some(r), _) => s.push_str(&format!(
                    "    {{\"system\": {}, \"status\": \"ok\", \"converging\": {}, \
                     \"ff_states\": {}, \"legal\": {}, \"diverging\": {}, \
                     \"convergence_bound\": {}, \"fault_inputs\": {}}}{sep}\n",
                    json_str(&v.system),
                    r.converging,
                    r.ff_states,
                    r.legal,
                    r.diverging,
                    r.convergence_bound,
                    r.fault_inputs,
                )),
                (None, err) => s.push_str(&format!(
                    "    {{\"system\": {}, \"status\": \"skipped\", \"error\": {}}}{sep}\n",
                    json_str(&v.system),
                    json_str(err.as_deref().unwrap_or("unknown")),
                )),
            }
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the JSON rendering to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Constructs the fault process a job drives, or `None` when the sampled
/// topology offers no usable site for the class — the choice is a pure
/// function of `(sys, class, intensity, opts, sched_seed)`, so every
/// worker count builds the same process.
fn build_process(
    sys: &GeneratedSystem,
    class: &str,
    intensity: usize,
    opts: &StabilizationOpts,
    sched_seed: u64,
) -> Option<FaultProcess> {
    let cycles = opts.cycles;
    Some(match class {
        "periodic" => {
            let (fault, eff) = injectable_site(sys, "rail_flip", sched_seed, cycles)?;
            FaultProcess::Periodic {
                fault,
                period: opts.period,
                duty: intensity,
                start: eff.min(cycles.saturating_sub(intensity)),
            }
        }
        "sustained" => {
            let (fault, eff) = injectable_site(sys, "stuck_at_0", sched_seed, cycles)?;
            let len = (intensity * opts.period).min(cycles.saturating_sub(eff));
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
            // Second site: another channel when the topology has one, the
            // probed channel's forward stop otherwise — always a distinct
            // (channel, rail) pair.
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
            let len = (opts.period / 4).max(1).min(cycles / intensity.max(1));
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
            // Prefer the probed-effective channel when it is
            // active-active; any non-passive channel otherwise.
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
                period: opts.period,
                duty: intensity,
            }
        }
        _ => return None,
    })
}

/// The job sweep both fault campaigns run on: `topologies × per_topology`
/// jobs, job `i` on generated topology `i / per_topology`, each driving
/// one [`FaultProcess`] over `lanes` packed trials of `cycles` cycles.
///
/// The stabilization campaign drives whole processes; the recovery
/// campaign (`crate::fault`) is the one-window preset, a
/// [`FaultProcess::Periodic`] whose period is the whole horizon. The two
/// differ only in the process a job builds, the per-lane mapping of the
/// two tape passes ([`JobRun`]) and the report they aggregate.
pub(crate) struct Sweep {
    /// Generated topologies (seeds `seed..seed + topologies`).
    pub(crate) topologies: usize,
    /// Jobs per topology (classes, times intensities).
    pub(crate) per_topology: usize,
    /// Base seed for topology sampling and schedule generation.
    pub(crate) seed: u64,
    /// Cycles per trial.
    pub(crate) cycles: usize,
    /// Trials (= packed lanes) per job.
    pub(crate) lanes: usize,
    /// Requested worker threads (clamped like the throughput engine).
    pub(crate) threads: usize,
    /// Streaming-pipeline job queue depth.
    pub(crate) queue: usize,
}

/// One engine job's result: the primary faulted channel and the per-lane
/// outcomes, or `None` when the topology had no usable process (a skipped
/// job, not a failure).
pub(crate) type Ran<L> = Option<(String, Vec<L>)>;

/// One compiled-and-armed job, ready to execute: the produce stage's
/// payload.
struct Job {
    /// Peephole-optimized tape over the observed-cone netlist.
    prog: Program,
    /// The primary site's `(V⁺, S⁺, V⁻, S⁻)` rails — the tracker's feed.
    site: (NetId, NetId, NetId, NetId),
    /// The output channel's `(V⁺, S⁺, V⁻)` rails — throughput counting.
    out: (NetId, NetId, NetId),
    /// Stimulus with every site's per-lane process windows armed.
    armed: PackedStimulus,
    /// The identical stimulus, all arm columns zero.
    baseline: PackedStimulus,
    /// Per-lane fault-event cycles (starts of merged disturbance
    /// intervals), sorted ascending.
    events: Vec<Vec<u64>>,
    /// Display name of the primary faulted channel.
    site_name: String,
}

/// Both tape passes of one job, per lane: the unarmed baseline and the
/// armed run of the identical stimulus.
pub(crate) struct JobRun {
    /// Baseline-pass trackers.
    base: Vec<RecoveryDetector>,
    /// Armed-pass trackers, retimed at every fault event.
    pub(crate) armed: Vec<RecoveryDetector>,
    /// Baseline output transfers.
    base_counts: Vec<u32>,
    /// Armed output transfers.
    armed_counts: Vec<u32>,
    /// Per-lane fault-event cycles, ascending.
    pub(crate) events: Vec<Vec<u64>>,
    /// Trial horizon.
    cycles: f64,
}

impl JobRun {
    /// The armed run violated an obligation the unarmed run did not. A
    /// generated network is protocol-clean, but gate on the baseline
    /// anyway: only *injected* violations count as disturbance.
    pub(crate) fn disturbed(&self, lane: usize) -> bool {
        self.armed[lane].violations() > self.base[lane].violations()
    }

    /// Fault-free transfer rate minus armed transfer rate at the output.
    pub(crate) fn dip(&self, lane: usize) -> f64 {
        (f64::from(self.base_counts[lane]) - f64::from(self.armed_counts[lane])) / self.cycles
    }
}

impl Sweep {
    /// Runs every job through the streaming pipeline — produce = build the
    /// job's process, compile and arm it; consume = both tape passes,
    /// mapped per lane by `lane` — and returns the worker threads spawned
    /// with the per-job results in job order. `process(i, sys,
    /// sched_seed)` builds job `i`'s process on its topology; a process
    /// that fails [`FaultProcess::validate`] skips the job.
    ///
    /// # Errors
    ///
    /// The first job error (compile or execution failures).
    pub(crate) fn run<L: Send>(
        &self,
        process: impl Fn(usize, &GeneratedSystem, u64) -> Option<FaultProcess> + Sync,
        lane: impl Fn(&JobRun, usize) -> L + Sync,
    ) -> Result<(usize, Vec<Ran<L>>), CoreError> {
        let total = self.topologies * self.per_topology;
        let threads = effective_threads(self.threads, total);
        if total == 0 {
            return Ok((threads, Vec::new()));
        }
        let jobs = run_pipeline::<Option<Job>, Ran<L>>(
            total,
            threads,
            self.queue,
            |i| self.build_job(i, &process),
            |_, payload| {
                let Some(job) = payload else {
                    return Ok(None);
                };
                let (site, run) = run_job(job)?;
                Ok(Some((
                    site,
                    (0..self.lanes).map(|j| lane(&run, j)).collect(),
                )))
            },
            |_, _| {},
        )?;
        Ok((threads, jobs))
    }

    /// Builds job `i`: sample its topology, construct and validate the
    /// process, compile with one corruption gate per site, pack the
    /// stimulus and arm every site's per-lane windows. Returns `None` for
    /// a skipped job.
    fn build_job(
        &self,
        i: usize,
        process_of: &impl Fn(usize, &GeneratedSystem, u64) -> Option<FaultProcess>,
    ) -> Result<Option<Job>, CoreError> {
        let topo = i / self.per_topology;
        let params = TopoParams::sample(self.seed.wrapping_add(topo as u64));
        let Ok(sys) = generate(&params) else {
            return Ok(None);
        };
        let sched_seed = self.seed.wrapping_add((topo * self.lanes) as u64);
        // The presets clamp their processes to validate by design; a
        // topology that still fails (e.g. a degenerate horizon) is a
        // skip, not a campaign abort.
        let Some(process) = process_of(i, &sys, sched_seed)
            .filter(|p| p.validate(&sys.network, self.cycles).is_ok())
        else {
            return Ok(None);
        };
        let sites = process.sites();
        let opt = compile(
            &sys.network,
            &CompileOptions {
                lint: false,
                data_width: MC_DATA_WIDTH,
                nondet_merge: false,
                optimize: true,
                fault: None,
                faults: sites.clone(),
            },
        )?;
        let site_name = sites[0]
            .channel()
            .expect("process sites are rail faults")
            .to_string();
        // Observe the output's transfer rails plus all four rails of every
        // site channel (keeps each corruption gate and its arm input in the
        // observed cone), deduplicated.
        let out_rails = &opt.channels[sys.output_channel.index()];
        let mut observe: Vec<NetId> = vec![out_rails.vp, out_rails.sp, out_rails.vn];
        let mut primary = None;
        for site in &sites {
            let name = site.channel().expect("rail fault").to_string();
            let chan = sys
                .network
                .channels()
                .find(|&c| sys.network.channel(c).name == name)
                .expect("validated channel exists");
            if primary.is_none() {
                primary = Some(chan);
            }
            let r = &opt.channels[chan.index()];
            for id in [r.vp, r.sp, r.vn, r.sn] {
                if !observe.contains(&id) {
                    observe.push(id);
                }
            }
        }
        let (obs, map) = optimize_observed(&opt.netlist, &observe).map_err(CoreError::from)?;
        let remap = |id: NetId| map[id.index()].expect("observed rails survive as outputs");
        let tb = NetlistTestbench::with_faults(&sys.network, &obs, MC_DATA_WIDTH, &sites)?;
        let cols = tb.fault_cols();
        if cols.len() != sites.len() {
            return Err(CoreError::FaultSite(format!(
                "{} fault sites lowered to {} arm columns",
                sites.len(),
                cols.len()
            )));
        }
        let (prog, _) = Program::compile_optimized(&obs).map_err(CoreError::from)?;
        // The word width holding `lanes` trials.
        let width = match self.lanes {
            n if n <= LANES => 1,
            n if n <= 2 * LANES => 2,
            n if n <= 4 * LANES => 4,
            _ => 8,
        };
        let baseline = PackedStimulus::generate(
            &tb,
            &sys.network,
            &sys.env,
            sched_seed,
            self.lanes,
            self.cycles,
            width,
        )?;
        let mut armed = baseline.clone();
        let mut events = Vec::with_capacity(self.lanes);
        for lane in 0..self.lanes {
            for (site, windows) in process
                .windows(sched_seed, lane, self.cycles)
                .iter()
                .enumerate()
            {
                for &(start, len) in windows {
                    armed.arm_fault(cols[site], lane, start, len)?;
                }
            }
            events.push(
                process
                    .merged_windows(sched_seed, lane, self.cycles)
                    .iter()
                    .map(|&(s, _)| s)
                    .collect(),
            );
        }
        let sr = &opt.channels[primary.expect("at least one site").index()];
        Ok(Some(Job {
            prog,
            site: (remap(sr.vp), remap(sr.sp), remap(sr.vn), remap(sr.sn)),
            out: (
                remap(out_rails.vp),
                remap(out_rails.sp),
                remap(out_rails.vn),
            ),
            armed,
            baseline,
            events,
            site_name,
        }))
    }
}

/// One tape pass: advances every lane through `stim`, counting output
/// transfers and feeding each lane's tracker, with fault events marked at
/// the lane's disturbance-interval starts. (The marks only retime
/// [`RecoveryDetector::stabilization_time`]; violation counts, the last
/// violation and [`RecoveryDetector::recovered`] ignore them.)
fn drive<const W: usize>(
    job: &Job,
    stim: &PackedStimulus,
) -> Result<(Vec<u32>, Vec<RecoveryDetector>), CoreError> {
    let lanes = job.events.len();
    let mut sim: WideSim<W> = WideSim::from_program(job.prog.clone());
    sim.check_input_slots(stim.slots())
        .map_err(CoreError::from)?;
    let live = lane_masks::<W>(lanes);
    let (svp, ssp, svn, ssn) = job.site;
    let (ovp, osp, ovn) = job.out;
    let mut counts = vec![0u32; lanes];
    let mut dets = vec![RecoveryDetector::new(); lanes];
    let mut cursor = vec![0usize; lanes];
    for t in 0..stim.cycles() {
        for (k, det) in dets.iter_mut().enumerate() {
            if job.events[k].get(cursor[k]) == Some(&(t as u64)) {
                det.fault_event();
                cursor[k] += 1;
            }
        }
        sim.cycle_packed(stim.slots(), stim.row(t));
        for (w, &mask) in live.iter().enumerate() {
            let (vpw, spw, vnw, snw) = (
                sim.word(svp, w),
                sim.word(ssp, w),
                sim.word(svn, w),
                sim.word(ssn, w),
            );
            for b in 0..LANES.min(lanes - w * LANES) {
                dets[w * LANES + b].observe(ChannelSignals {
                    vp: vpw >> b & 1 == 1,
                    sp: spw >> b & 1 == 1,
                    vn: vnw >> b & 1 == 1,
                    sn: snw >> b & 1 == 1,
                    data: 0,
                });
            }
            let mut m = sim.word(ovp, w) & !sim.word(osp, w) & !sim.word(ovn, w) & mask;
            while m != 0 {
                counts[w * LANES + m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
        }
    }
    Ok((counts, dets))
}

/// Executes one built job — the unarmed baseline pass, then the armed
/// pass, at the stimulus word width — returning its primary site name and
/// both passes.
fn run_job(job: Job) -> Result<(String, JobRun), CoreError> {
    let drive = match job.armed.width() {
        1 => drive::<1>,
        2 => drive::<2>,
        4 => drive::<4>,
        8 => drive::<8>,
        w => {
            return Err(CoreError::ScheduleBatch(format!(
                "unsupported stimulus width {w}"
            )))
        }
    };
    let (base_counts, base) = drive(&job, &job.baseline)?;
    let (armed_counts, armed) = drive(&job, &job.armed)?;
    let run = JobRun {
        base,
        armed,
        base_counts,
        armed_counts,
        cycles: job.armed.cycles() as f64,
        events: job.events,
    };
    Ok((job.site_name, run))
}

/// The budget every convergence exploration runs under: wide enough for
/// the pipeline controllers and the lazy fig. 9 configuration, tight
/// enough that an oversized system skips immediately with a typed budget
/// error instead of wedging the campaign. The input cap is the sharp
/// gate: each extra free input doubles the per-state successor fan-out,
/// so the early-evaluation configurations (seven inputs at the two data
/// bits their guards dictate) and most generated topologies record an
/// instant `too many inputs` skip rather than burning the state budget.
fn mc_budget() -> BridgeOptions {
    BridgeOptions {
        max_ff_states: 1 << 12,
        max_inputs: 6,
    }
}

/// The canonical single-site process used for convergence verdicts: a
/// duty-1 periodic V⁺ flip on the first non-passive channel. (The
/// explicit-state analysis only consumes the *sites*; windows are
/// irrelevant to the reachable-set computation.)
fn mc_process(net: &elastic_core::ElasticNetwork) -> Option<FaultProcess> {
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

/// One convergence verdict, with every failure recorded as a typed skip.
fn mc_verdict(
    system: &str,
    net: &elastic_core::ElasticNetwork,
    data_width: usize,
    cycles: usize,
) -> McVerdict {
    let Some(process) = mc_process(net) else {
        return McVerdict {
            system: system.to_string(),
            report: None,
            error: Some("no non-passive channel to corrupt".into()),
        };
    };
    match check_network_convergence(net, &process, cycles.max(16), data_width, mc_budget()) {
        Ok(report) => McVerdict {
            system: system.to_string(),
            report: Some(report),
            error: None,
        },
        Err(e) => McVerdict {
            system: system.to_string(),
            report: None,
            error: Some(e.to_string()),
        },
    }
}

/// Convergence verdicts for the named small systems (fig. 8 pipeline
/// controllers, fig. 9 paper configurations) and the campaign's leading
/// generated topologies.
fn mc_section(opts: &StabilizationOpts) -> Vec<McVerdict> {
    let mut out = Vec::new();
    for (stages, tokens) in [(1usize, 0usize), (2, 1)] {
        match linear_pipeline(stages, tokens) {
            Ok((net, _, _)) => out.push(mc_verdict(
                &format!("linear_pipeline({stages},{tokens})"),
                &net,
                0,
                opts.cycles,
            )),
            Err(e) => out.push(McVerdict {
                system: format!("linear_pipeline({stages},{tokens})"),
                report: None,
                error: Some(e.to_string()),
            }),
        }
    }
    for cfg in Config::all() {
        let name = format!("paper_example({cfg:?})");
        // Early-evaluation guards dictate two data bits; the lazy config
        // checks as pure control.
        let dw = if matches!(cfg, Config::NoEarlyEval) {
            0
        } else {
            2
        };
        match paper_example(cfg) {
            Ok(sys) => out.push(mc_verdict(&name, &sys.network, dw, opts.cycles)),
            Err(e) => out.push(McVerdict {
                system: name,
                report: None,
                error: Some(e.to_string()),
            }),
        }
    }
    for topo in 0..opts.mc_topologies.min(opts.topologies) {
        let name = format!("topology_{topo}");
        let params = TopoParams::sample(opts.seed.wrapping_add(topo as u64));
        // Pure-control width: every data bit is another free input, and
        // the convergence question is a control-protocol question.
        // Topologies whose early-evaluation guards demand data bits
        // record the compile error as their skip reason.
        match generate(&params) {
            Ok(sys) => out.push(mc_verdict(&name, &sys.network, 0, opts.cycles)),
            Err(e) => out.push(McVerdict {
                system: name,
                report: None,
                error: Some(e.to_string()),
            }),
        }
    }
    out
}

/// Runs the campaign: `topologies × classes × intensities` jobs through
/// the streaming pipeline, reduced in job order, aggregated per class,
/// plus the convergence section.
///
/// # Errors
///
/// [`CoreError::FaultProcess`] for an unknown class label or an invalid
/// intensity sweep, [`CoreError::FaultSite`] for an unusable option set;
/// the first job error otherwise (missing sites are skipped jobs, not
/// errors).
pub fn run_stabilization_campaign(
    opts: &StabilizationOpts,
) -> Result<StabilizationReport, CoreError> {
    if let Some(bad) = opts
        .classes
        .iter()
        .find(|c| !PROCESS_CLASSES.contains(&c.as_str()))
    {
        return Err(CoreError::FaultProcess(format!(
            "unknown fault-process class {bad:?} (expected one of {PROCESS_CLASSES:?})"
        )));
    }
    if opts.cycles < 32 {
        return Err(CoreError::FaultSite(format!(
            "campaign horizon {} is too short for a process plus recovery tail (min 32)",
            opts.cycles
        )));
    }
    if opts.lanes == 0 || opts.lanes > MAX_TRIALS_PER_RUN {
        return Err(CoreError::FaultSite(format!(
            "{} lanes per job (expected 1..={MAX_TRIALS_PER_RUN})",
            opts.lanes
        )));
    }
    if opts.period < 2 {
        return Err(CoreError::FaultProcess(format!(
            "process period {} is too short (min 2)",
            opts.period
        )));
    }
    if opts.intensities.is_empty() {
        return Err(CoreError::FaultProcess(
            "empty intensity sweep: give at least one intensity".into(),
        ));
    }
    if let Some(&bad) = opts
        .intensities
        .iter()
        .find(|&&i| i == 0 || i > opts.period)
    {
        return Err(CoreError::FaultProcess(format!(
            "intensity {bad} outside 1..={} (the process period)",
            opts.period
        )));
    }
    let t0 = Instant::now();
    let nc = opts.classes.len();
    let ni = opts.intensities.len();
    let sweep = Sweep {
        topologies: opts.topologies,
        per_topology: nc * ni,
        seed: opts.seed,
        cycles: opts.cycles,
        lanes: opts.lanes,
        threads: opts.threads,
        queue: opts.queue,
    };
    let (threads, ran) = sweep.run(
        |i, sys, sched_seed| {
            let (class, intensity) = (&opts.classes[i / ni % nc], opts.intensities[i % ni]);
            build_process(sys, class, intensity, opts, sched_seed)
        },
        |run, j| {
            let det = &run.armed[j];
            let stab = det.stabilization_time(opts.recovery_tail);
            LaneStabilization {
                disturbed: run.disturbed(j),
                stabilized: stab.is_some(),
                stab_cycles: stab.unwrap_or(0),
                violation_rate: det.violation_rate(),
                dip: run.dip(j),
            }
        },
    )?;
    let jobs: Vec<StabJobOutcome> = ran
        .into_iter()
        .enumerate()
        .map(|(i, ran)| {
            let (site, lanes) = ran.unzip();
            StabJobOutcome {
                topology: i / (nc * ni),
                class: opts.classes[i / ni % nc].clone(),
                intensity: opts.intensities[i % ni],
                site,
                lanes: lanes.unwrap_or_default(),
            }
        })
        .collect();
    let classes = StabilizationReport::aggregate(opts, &jobs);
    let mc = mc_section(opts);
    Ok(StabilizationReport {
        name: format!(
            "pr9_stabilization_campaign topologies={} cycles={} lanes={} period={} tail={} seed={}",
            opts.topologies, opts.cycles, opts.lanes, opts.period, opts.recovery_tail, opts.seed
        ),
        opts: opts.clone(),
        threads,
        classes,
        jobs,
        mc,
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts(threads: usize) -> StabilizationOpts {
        StabilizationOpts {
            topologies: 5,
            seed: 11,
            cycles: 128,
            lanes: 8,
            period: 16,
            intensities: vec![1, 2],
            recovery_tail: 12,
            threads,
            queue: 2,
            mc_topologies: 1,
            ..StabilizationOpts::default()
        }
    }

    #[test]
    fn small_campaign_disturbs_and_is_thread_deterministic() {
        let a = run_stabilization_campaign(&small_opts(1)).unwrap();
        assert_eq!(a.classes.len(), PROCESS_CLASSES.len());
        let disturbed: usize = a
            .classes
            .iter()
            .flat_map(|c| c.points.iter())
            .map(|p| p.disturbed)
            .sum();
        assert!(disturbed > 0, "no lane observed an injected violation");
        for c in &a.classes {
            for p in &c.points {
                assert!(p.stabilized <= p.disturbed, "{}@{}", c.class, p.intensity);
                assert!(p.disturbed <= p.trials, "{}@{}", c.class, p.intensity);
                if p.stabilized > 0 {
                    assert!(p.stab_p50 <= p.stab_p99, "{}@{}", c.class, p.intensity);
                }
            }
        }
        // The convergence section covers the named systems plus one
        // generated topology, and at least the pipeline controllers
        // produce real verdicts.
        assert_eq!(a.mc.len(), 2 + Config::all().len() + 1);
        assert!(a.mc[0].report.is_some(), "{:?}", a.mc[0]);
        assert!(a.mc[1].report.is_some(), "{:?}", a.mc[1]);
        for v in &a.mc {
            assert!(v.report.is_some() || v.error.is_some(), "{}", v.system);
        }
        // Bit-identical report for a different worker count and queue.
        let b = run_stabilization_campaign(&StabilizationOpts {
            queue: 4,
            ..small_opts(3)
        })
        .unwrap();
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.topology, y.topology);
            assert_eq!(x.class, y.class);
            assert_eq!(x.intensity, y.intensity);
            assert_eq!(x.site, y.site);
            assert_eq!(x.lanes, y.lanes);
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let r = run_stabilization_campaign(&StabilizationOpts {
            topologies: 2,
            lanes: 4,
            mc_topologies: 0,
            ..small_opts(2)
        })
        .unwrap();
        let json = r.to_json();
        for class in PROCESS_CLASSES {
            assert!(json.contains(&format!("\"class\": \"{class}\"")), "{json}");
        }
        for key in [
            "\"stab_p50\"",
            "\"non_stabilization_rate\"",
            "\"mean_throughput_dip\"",
            "\"mc\"",
            "\"converging\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn bad_options_are_typed_errors() {
        let base = small_opts(1);
        for (bad, wants_process_err) in [
            (
                StabilizationOpts {
                    classes: vec!["meltdown".into()],
                    ..base.clone()
                },
                true,
            ),
            (
                StabilizationOpts {
                    cycles: 16,
                    ..base.clone()
                },
                false,
            ),
            (
                StabilizationOpts {
                    lanes: 0,
                    ..base.clone()
                },
                false,
            ),
            (
                StabilizationOpts {
                    period: 1,
                    ..base.clone()
                },
                true,
            ),
            (
                StabilizationOpts {
                    intensities: vec![],
                    ..base.clone()
                },
                true,
            ),
            (
                StabilizationOpts {
                    intensities: vec![17],
                    ..base.clone()
                },
                true,
            ),
        ] {
            let err = run_stabilization_campaign(&bad).unwrap_err();
            match (wants_process_err, &err) {
                (true, CoreError::FaultProcess(_)) | (false, CoreError::FaultSite(_)) => {}
                other => panic!("wrong error class: {other:?}"),
            }
        }
    }
}
