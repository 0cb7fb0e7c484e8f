//! Fault-injection recovery-time Monte-Carlo campaign — the
//! `fault_campaign` binary's core (`BENCH_pr7.json`).
//!
//! The campaign sweeps *fault classes × injection sites × generated
//! topologies*: for each sampled [`elastic_core::gen::TopoParams`]
//! topology and each fault class, [`injectable_site`] picks a
//! channel/rail/cycle where the fault is guaranteed to be *effective*
//! (probed against a clean behavioural pre-run), the network is compiled
//! **with** the corruption gate spliced into that rail
//! ([`elastic_core::compile::FaultInjection`]), and the packed wide
//! backend runs one trial per lane with an **independent per-lane
//! injection window** ([`elastic_core::verify::PackedStimulus::arm_fault`])
//! — 64–512 fault instances per tape pass.
//!
//! Each lane feeds a streaming
//! [`elastic_core::protocol::RecoveryDetector`] on the faulted
//! channel's four rails: the detector records every cycle on which the
//! trace breaks a SELF obligation and the lane has *recovered* once the
//! violations stop for [`FaultCampaignOpts::recovery_tail`] cycles — the
//! trace has re-entered the legal `(I*R*T)*` language. A second, unarmed
//! run of the identical stimulus gives the fault-free throughput, so
//! every lane also reports its throughput dip.
//!
//! Per class the campaign aggregates the recovery-time distribution
//! (p50/p99 cycles from injection to the last violating cycle), the
//! non-recovery rate (disturbed lanes still violating at the horizon) and
//! the mean throughput dip.
//!
//! A one-shot injection window is the degenerate fault process, so the
//! campaign is a preset of the stabilization engine (`crate::stabilize`):
//! each job drives a [`FaultProcess::Periodic`] whose period is the whole
//! horizon (`one_window`). Its per-lane expansion is exactly one window
//! starting at `(eff + lane % 4)` clamped into the horizon, and its single
//! site lowers to the same corruption gate and arm column as a plain
//! single-fault compile. Jobs run through the streaming pipeline
//! (`stream::run_pipeline`), and because every seed derives from the job
//! index, the whole report is bit-identical for every thread count and
//! queue depth.

use std::io::Write as _;
use std::time::Instant;

use elastic_core::compile::FaultInjection;
use elastic_core::fault::FaultProcess;
use elastic_core::gen::injectable_site;
use elastic_core::CoreError;

use crate::exp::{default_threads, json_f64, json_str};
use crate::stabilize::{Pool, Settling, Sweep};
use crate::MAX_TRIALS_PER_RUN;

/// Every transient rail-fault class the campaign can inject, in report
/// order. (`drop_anti_token` is a *lowering* sabotage, not a transient
/// rail fault, and lives in the fuzz campaign's inject mode instead.)
pub const FAULT_CLASSES: [&str; 5] = [
    "rail_flip",
    "stuck_at_0",
    "stuck_at_1",
    "duplicate_token",
    "lose_token",
];

/// Campaign options (the `fault_campaign` CLI surface).
#[derive(Debug, Clone)]
pub struct FaultCampaignOpts {
    /// Generated topologies to sweep (seeds `seed..seed + topologies`).
    pub topologies: usize,
    /// Base seed for topology sampling and schedule generation.
    pub seed: u64,
    /// Cycles per trial (the horizon; at least 16).
    pub cycles: usize,
    /// Trials (= packed lanes) per topology × class job, 1..=512.
    pub lanes: usize,
    /// Armed cycles per lane's injection window (clamped to ≥ 1).
    pub window_len: usize,
    /// Violation-free cycles required before a disturbed lane counts as
    /// recovered ([`elastic_core::protocol::RecoveryDetector::recovered`]).
    pub recovery_tail: usize,
    /// Worker threads (clamped like the throughput engine).
    pub threads: usize,
    /// Streaming-pipeline job queue depth.
    pub queue: usize,
    /// Fault classes to inject (subset of [`FAULT_CLASSES`]).
    pub classes: Vec<String>,
}

impl Default for FaultCampaignOpts {
    fn default() -> Self {
        FaultCampaignOpts {
            topologies: 100,
            seed: 1,
            cycles: 256,
            lanes: 64,
            window_len: 1,
            recovery_tail: 16,
            threads: default_threads(),
            queue: 2,
            classes: FAULT_CLASSES.iter().map(|&c| c.to_string()).collect(),
        }
    }
}

/// Per-lane outcome of one armed trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneOutcome {
    /// The armed run violated a SELF obligation that the unarmed run did
    /// not — the fault was observable on the monitored channel.
    pub disturbed: bool,
    /// The violations stopped at least `recovery_tail` cycles before the
    /// horizon (trivially true for undisturbed lanes).
    pub recovered: bool,
    /// Cycles from this lane's injection-window start to the end of the
    /// last violating cycle (0 for undisturbed lanes).
    pub recovery_cycles: u64,
    /// Fault-free transfer rate minus armed transfer rate at the output.
    pub dip: f64,
}

impl Settling for LaneOutcome {
    fn disturbed(&self) -> bool {
        self.disturbed
    }
    fn settled(&self) -> Option<u64> {
        self.recovered.then_some(self.recovery_cycles)
    }
}

/// Outcome of one topology × class job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Topology index within the campaign.
    pub topology: usize,
    /// Fault class label.
    pub class: String,
    /// Faulted channel name; `None` when the topology had no effective
    /// injection site for this class (the job is skipped, not failed).
    pub site: Option<String>,
    /// Per-lane outcomes (empty for skipped jobs).
    pub lanes: Vec<LaneOutcome>,
}

/// Aggregated recovery statistics of one fault class.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Fault class label.
    pub class: String,
    /// Topologies with an effective injection site for this class.
    pub sites: usize,
    /// Armed trials across those sites.
    pub trials: usize,
    /// Trials whose monitor observed at least one injected violation.
    pub disturbed: usize,
    /// Disturbed trials that re-entered the legal language.
    pub recovered: usize,
    /// Median cycles-to-recovery over disturbed-and-recovered trials.
    pub recovery_p50: f64,
    /// 99th-percentile cycles-to-recovery (nearest rank).
    pub recovery_p99: f64,
    /// `1 − recovered/disturbed` (0 when nothing was disturbed).
    pub non_recovery_rate: f64,
    /// Mean output-throughput dip over disturbed trials.
    pub mean_dip: f64,
}

/// The whole campaign, serialized to `BENCH_pr7.json`.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    /// Campaign name (echoes the options).
    pub name: String,
    /// The options the campaign ran with.
    pub opts: FaultCampaignOpts,
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Per-class aggregates, in `opts.classes` order.
    pub classes: Vec<ClassStats>,
    /// Per-job outcomes, in job order (topology-major, class-minor).
    pub jobs: Vec<JobOutcome>,
    /// Wall-clock seconds for the whole campaign.
    pub wall_secs: f64,
}

impl FaultCampaignReport {
    /// Aggregates per-job outcomes into per-class statistics.
    fn aggregate(opts: &FaultCampaignOpts, jobs: &[JobOutcome]) -> Vec<ClassStats> {
        opts.classes
            .iter()
            .map(|class| {
                let of_class: Vec<&JobOutcome> =
                    jobs.iter().filter(|j| &j.class == class).collect();
                let pool = Pool::new(of_class.iter().flat_map(|j| &j.lanes));
                ClassStats {
                    class: class.clone(),
                    sites: of_class.iter().filter(|j| j.site.is_some()).count(),
                    trials: pool.all.len(),
                    disturbed: pool.disturbed.len(),
                    recovered: pool.samples.len(),
                    recovery_p50: pool.percentile(0.50),
                    recovery_p99: pool.percentile(0.99),
                    non_recovery_rate: pool.unsettled_rate(),
                    mean_dip: pool.disturbed_mean(|l| l.dip),
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
        s.push_str(&format!("  \"window_len\": {},\n", self.opts.window_len));
        s.push_str(&format!(
            "  \"recovery_tail\": {},\n",
            self.opts.recovery_tail
        ));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!(
            "  \"requested_threads\": {},\n",
            self.opts.threads
        ));
        s.push_str(&format!("  \"queue\": {},\n", self.opts.queue));
        s.push_str(&format!("  \"wall_secs\": {},\n", json_f64(self.wall_secs)));
        s.push_str("  \"classes\": [\n");
        for (i, c) in self.classes.iter().enumerate() {
            let sep = if i + 1 == self.classes.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"class\": {}, \"sites\": {}, \"trials\": {}, \
                 \"disturbed\": {}, \"recovered\": {}, \"recovery_p50\": {}, \
                 \"recovery_p99\": {}, \"non_recovery_rate\": {}, \
                 \"mean_throughput_dip\": {}}}{sep}\n",
                json_str(&c.class),
                c.sites,
                c.trials,
                c.disturbed,
                c.recovered,
                json_f64(c.recovery_p50),
                json_f64(c.recovery_p99),
                json_f64(c.non_recovery_rate),
                json_f64(c.mean_dip),
            ));
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

/// The recovery campaign's fault process: one `len`-cycle window of
/// `fault` from the probed-effective cycle `eff`, clamped into the
/// `cycles` horizon. A period of the whole horizon leaves room for exactly
/// one window per lane, and the process's per-lane stagger
/// ([`elastic_core::fault::PROCESS_STAGGER`], 4) moves lane `k`'s window
/// to `(eff + k % 4)`, clamped — so each packed lane carries an
/// independent fault instance (different cycle, different schedule) from
/// one probed base site.
fn one_window(fault: FaultInjection, eff: usize, cycles: usize, len: usize) -> FaultProcess {
    FaultProcess::Periodic {
        fault,
        period: cycles,
        duty: len,
        start: eff.min(cycles.saturating_sub(len)),
    }
}

/// Runs the campaign: `topologies × classes` one-window jobs on the
/// stabilization engine, reduced in job order, aggregated per class.
///
/// # Errors
///
/// [`CoreError::FaultSite`] for an unknown class label or an unusable
/// option set (including an injection window longer than the horizon);
/// the first job error otherwise (compile or execution failures —
/// *missing* injection sites are skipped jobs, not errors).
pub fn run_fault_campaign(opts: &FaultCampaignOpts) -> Result<FaultCampaignReport, CoreError> {
    if let Some(bad) = opts
        .classes
        .iter()
        .find(|c| !FAULT_CLASSES.contains(&c.as_str()))
    {
        return Err(CoreError::FaultSite(format!(
            "unknown fault class {bad:?} (expected one of {FAULT_CLASSES:?})"
        )));
    }
    if opts.cycles < 16 {
        return Err(CoreError::FaultSite(format!(
            "campaign horizon {} is too short for warm-up + recovery tail (min 16)",
            opts.cycles
        )));
    }
    if opts.lanes == 0 || opts.lanes > MAX_TRIALS_PER_RUN {
        return Err(CoreError::FaultSite(format!(
            "{} lanes per job (expected 1..={MAX_TRIALS_PER_RUN})",
            opts.lanes
        )));
    }
    let len = opts.window_len.max(1);
    if len > opts.cycles {
        return Err(CoreError::FaultSite(format!(
            "injection window of {len} cycles exceeds the {}-cycle horizon",
            opts.cycles
        )));
    }
    let t0 = Instant::now();
    let nc = opts.classes.len();
    let sweep = Sweep {
        topologies: opts.topologies,
        per_topology: nc,
        seed: opts.seed,
        cycles: opts.cycles,
        lanes: opts.lanes,
        threads: opts.threads,
        queue: opts.queue,
    };
    let (threads, ran) = sweep.run(
        |i, sys, sched_seed| {
            let (fault, eff) =
                injectable_site(sys, &opts.classes[i % nc], sched_seed, opts.cycles)?;
            Some(one_window(fault, eff, opts.cycles, len))
        },
        |run, j| {
            let det = &run.armed[j];
            // The lane's single fault event is its window start.
            let start = run.events[j][0];
            LaneOutcome {
                disturbed: run.disturbed(j),
                recovered: det.recovered(opts.recovery_tail),
                recovery_cycles: det
                    .last_violation()
                    .map_or(0, |lv| (lv as u64 + 1).saturating_sub(start)),
                dip: run.dip(j),
            }
        },
    )?;
    let jobs: Vec<JobOutcome> = ran
        .into_iter()
        .enumerate()
        .map(|(i, ran)| {
            let (site, lanes) = ran.unzip();
            JobOutcome {
                topology: i / nc,
                class: opts.classes[i % nc].clone(),
                site,
                lanes: lanes.unwrap_or_default(),
            }
        })
        .collect();
    let classes = FaultCampaignReport::aggregate(opts, &jobs);
    Ok(FaultCampaignReport {
        name: format!(
            "pr7_fault_campaign topologies={} cycles={} lanes={} window={} tail={} seed={}",
            opts.topologies,
            opts.cycles,
            opts.lanes,
            opts.window_len,
            opts.recovery_tail,
            opts.seed
        ),
        opts: opts.clone(),
        threads,
        classes,
        jobs,
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::compile::FaultRail;
    use elastic_core::systems::linear_pipeline;

    fn small_opts(threads: usize) -> FaultCampaignOpts {
        FaultCampaignOpts {
            topologies: 6,
            seed: 11,
            cycles: 96,
            lanes: 8,
            window_len: 1,
            recovery_tail: 12,
            threads,
            queue: 2,
            ..FaultCampaignOpts::default()
        }
    }

    #[test]
    fn small_campaign_disturbs_and_is_thread_deterministic() {
        let a = run_fault_campaign(&small_opts(1)).unwrap();
        assert_eq!(a.classes.len(), FAULT_CLASSES.len());
        let sites: usize = a.classes.iter().map(|c| c.sites).sum();
        let disturbed: usize = a.classes.iter().map(|c| c.disturbed).sum();
        assert!(sites > 0, "no injectable sites across 6 topologies");
        assert!(disturbed > 0, "no lane observed an injected violation");
        // Every armed-and-disturbed lane measured a coherent recovery
        // outcome: recovered lanes have a recovery point, percentiles are
        // ordered.
        for c in &a.classes {
            assert!(c.recovered <= c.disturbed, "{}", c.class);
            assert!(c.disturbed <= c.trials, "{}", c.class);
            if c.recovered > 0 {
                assert!(c.recovery_p50 <= c.recovery_p99, "{}", c.class);
                assert!(c.recovery_p50 >= 1.0, "{}", c.class);
            }
        }
        // Bit-identical report for a different worker count.
        let b = run_fault_campaign(&small_opts(3)).unwrap();
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.topology, y.topology);
            assert_eq!(x.class, y.class);
            assert_eq!(x.site, y.site);
            assert_eq!(x.lanes, y.lanes);
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let r = run_fault_campaign(&FaultCampaignOpts {
            topologies: 2,
            cycles: 64,
            lanes: 4,
            threads: 2,
            ..small_opts(2)
        })
        .unwrap();
        let json = r.to_json();
        for class in FAULT_CLASSES {
            assert!(json.contains(&format!("\"class\": \"{class}\"")), "{json}");
        }
        assert!(json.contains("\"recovery_p50\""));
        assert!(json.contains("\"non_recovery_rate\""));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    /// The one-window preset expands, per lane, to exactly the window the
    /// single-fault campaign armed — one `len`-cycle window from
    /// `(eff + lane % 4)` clamped into the horizon — and that start is the
    /// lane's single fault event.
    #[test]
    fn one_window_preset_is_the_staggered_single_window() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let channel = net.channel(net.channels().next().unwrap()).name.clone();
        let fault = FaultInjection::RailFlip {
            channel,
            rail: FaultRail::Vp,
        };
        let cycles = 96;
        for eff in [0, cycles / 2, cycles - 1] {
            for len in [1, 8, cycles] {
                let process = one_window(fault.clone(), eff, cycles, len);
                process.validate(&net, cycles).unwrap();
                for lane in 0..512 {
                    let start = (eff + lane % 4).min(cycles - len);
                    let at = format!("eff {eff} len {len} lane {lane}");
                    assert_eq!(
                        process.windows(7, lane, cycles),
                        vec![vec![(start, len)]],
                        "{at}"
                    );
                    let merged = process.merged_windows(7, lane, cycles);
                    assert_eq!(merged[0].0, start as u64, "{at}");
                    assert_eq!(merged.len(), 1, "{at}");
                }
            }
        }
    }

    #[test]
    fn bad_options_are_fault_site_errors() {
        let base = small_opts(1);
        for bad in [
            FaultCampaignOpts {
                classes: vec!["meltdown".into()],
                ..base.clone()
            },
            FaultCampaignOpts {
                cycles: 8,
                ..base.clone()
            },
            FaultCampaignOpts {
                lanes: 0,
                ..base.clone()
            },
            FaultCampaignOpts {
                lanes: MAX_TRIALS_PER_RUN + 1,
                ..base.clone()
            },
            FaultCampaignOpts {
                cycles: 32,
                window_len: 40,
                ..base.clone()
            },
        ] {
            assert!(matches!(
                run_fault_campaign(&bad),
                Err(CoreError::FaultSite(_))
            ));
        }
        // An empty class list is a no-op campaign, not an error.
        let empty = run_fault_campaign(&FaultCampaignOpts {
            classes: Vec::new(),
            ..base
        })
        .unwrap();
        assert!(empty.classes.is_empty());
        assert!(empty.jobs.is_empty());
    }
}
