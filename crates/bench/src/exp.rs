//! Sharded multi-threaded Monte-Carlo experiment engine.
//!
//! A single [`crate::WideHarness::run`] advances at most
//! [`crate::MAX_TRIALS_PER_RUN`] (= 512) trials in one bit-parallel pass.
//! This module scales the paper's randomized experiments (Sect. 6.1,
//! Figs. 5–9, Table 1) to arbitrary trial counts across OS threads:
//!
//! ```text
//!   Experiment { system × env × cycles × trials, seed } × BackendSel
//!        │ dispatch_backend()       runtime word width W from tape
//!        │ shards_for()             footprint + trial count (or forced);
//!        ▼                          ⌈trials/L⌉ shards of L = W·64 lanes
//!   [Shard 0][Shard 1]…[Shard n-1]  seed+L·i .. seed+L·i+lanes
//!        │ streaming pipeline       compile+optimize once, share
//!        ▼                          &WideHarness; hybrid workers pack
//!   pack(k+1) ∥ execute(k)          shard k+1 while shard k executes
//!        │ reduce (by shard index)  (bounded stimulus queue, see
//!        ▼                          `stream` module docs)
//!   McStats { per_lane[trials] } → mean / stddev / 95% CI
//! ```
//!
//! **Determinism contract:** lane *j* of the campaign always runs the
//! schedule seeded `seed + j`, and shards are reduced in shard-index order
//! — so the per-lane vector (and therefore mean/sd/CI) is bit-identical for
//! every thread count, **every queue depth, every backend (runtime-
//! dispatched or forced), every cache-block size and every chunk size**,
//! including a single-threaded scalar run of the same seeds.
//!
//! **Oversubscription contract:** the engine never spawns more workers
//! than there are shards, and clamps the pool to the machine's available
//! parallelism — an explicit `--threads 8` on a 1-core host runs 1 worker
//! and records both numbers ([`PointResult::requested_threads`] vs
//! [`PointResult::threads`]), instead of timeslicing eight threads over
//! one core and *slowing down* (the BENCH_pr4.json `scaling` regression).
//!
//! **Thread-safety contract:** a compiled [`elastic_netlist::levelize::Program`]
//! is immutable instruction data and a
//! [`elastic_netlist::wide::WideSimulator`] is plain owned state; both are
//! `Send + Sync` (statically asserted in `elastic_netlist::wide`), so one
//! [`WideHarness`] is shared by reference across the scoped worker pool and
//! each worker clones the power-up prototype per shard.
//!
//! Analytic cross-check: for configurations without early evaluation the
//! system is a marked graph, and measured throughput must respect the
//! minimum-cycle-ratio bound (paper Sect. 6.1, reference \[8\]) — see
//! [`lazy_bound_check`].

use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use elastic_core::channel::ChanId;
use elastic_core::dmg_bridge::lazy_throughput_bound;
use elastic_core::gen::{self, TopoParams};
use elastic_core::network::ElasticNetwork;
use elastic_core::sim::{DataGen, EnvConfig, SourceCfg};
use elastic_core::systems::{paper_example, Config};
use elastic_core::CoreError;
use elastic_netlist::wide::LANES;

use crate::stream::run_shards_streaming;
use crate::{
    dispatch_backend, Backend, BackendSel, McStats, WideHarness, DISPATCH_FOOTPRINT_BYTES,
};

/// Which elastic system a campaign point simulates.
#[derive(Debug, Clone)]
pub enum SystemSpec {
    /// One of the five Table 1 configurations of the paper's Fig. 9
    /// example.
    Paper(Config),
    /// An arbitrary user-built network; `output` is the channel whose
    /// positive-transfer rate is reported as throughput.
    Custom {
        /// The elastic control network.
        network: ElasticNetwork,
        /// Observed output channel.
        output: ChanId,
    },
    /// A randomly generated topology (`elastic_core::gen`): the fuzz
    /// campaign's scenario-diversity axis, usable by any Monte-Carlo
    /// experiment. Pair it with the environment of
    /// [`gen::generate`]'s [`gen::GeneratedSystem::env`] so
    /// the schedules match the topology's sources/sinks/VL units.
    Generated(TopoParams),
}

impl SystemSpec {
    /// Resolves the spec into a network and its observed output channel.
    ///
    /// # Errors
    ///
    /// Propagates build failures of the paper example or the topology
    /// generator.
    pub fn build(&self) -> Result<(ElasticNetwork, ChanId), CoreError> {
        match self {
            SystemSpec::Paper(config) => {
                let sys = paper_example(*config)?;
                Ok((sys.network, sys.output_channel))
            }
            SystemSpec::Custom { network, output } => Ok((network.clone(), *output)),
            SystemSpec::Generated(params) => {
                let sys = gen::generate(params)?;
                Ok((sys.network, sys.output_channel))
            }
        }
    }
}

/// One point of a Monte-Carlo campaign: a system, an environment, a horizon
/// and a trial budget.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Point label (free-form; lands in reports and JSON).
    pub label: String,
    /// The system to simulate.
    pub system: SystemSpec,
    /// Environment distributions (offer/stop/kill rates, payload and
    /// latency distributions) used to generate the random schedules.
    pub env: EnvConfig,
    /// Cycles per trial.
    pub cycles: usize,
    /// Number of independent trials (any size; split into ⌈trials/64⌉
    /// shards).
    pub trials: usize,
    /// Base seed: trial `j` replays the schedule seeded `seed + j`
    /// (wrapping at `u64::MAX`).
    pub seed: u64,
}

/// One unit of worker-pool work: a run of consecutive trials (at most the
/// backend's lane capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index (0-based; also its reduction position).
    pub index: usize,
    /// Seed of the shard's first lane (`lane k` uses `seed + k`).
    pub seed: u64,
    /// Live lanes in this shard (only the final shard may be partial).
    pub lanes: usize,
}

/// Splits `trials` into ⌈trials/64⌉ single-word shards — the classic PR-3
/// chunking, equivalent to [`shards_for`] with [`LANES`] lanes per shard.
pub fn shards(trials: usize, seed: u64) -> Vec<Shard> {
    shards_for(trials, seed, LANES)
}

/// Splits `trials` into ⌈trials/lanes_per_shard⌉ shards with deterministic
/// seed derivation: shard `i` starts at `seed + lanes_per_shard·i`, so the
/// flattened lane order is exactly `seed, seed+1, …, seed+trials-1` —
/// independent of the thread count **and of the chunk size**: re-chunking
/// for a wider backend permutes nothing. Arithmetic wraps at `u64::MAX`
/// (consistently with the per-lane derivation in
/// [`WideHarness::schedules`]), so a near-maximal user seed stays
/// deterministic instead of panicking in debug builds.
///
/// # Panics
///
/// Panics if `lanes_per_shard` is zero.
pub fn shards_for(trials: usize, seed: u64, lanes_per_shard: usize) -> Vec<Shard> {
    assert!(lanes_per_shard > 0, "shards need at least one lane");
    (0..trials.div_ceil(lanes_per_shard))
        .map(|i| Shard {
            index: i,
            seed: seed.wrapping_add((i * lanes_per_shard) as u64),
            lanes: lanes_per_shard.min(trials - i * lanes_per_shard),
        })
        .collect()
}

/// Outcome of one campaign point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Point label (copied from the [`Experiment`]).
    pub label: String,
    /// Reduced statistics; `per_lane[j]` is the trial seeded `seed + j`.
    pub stats: McStats,
    /// Worker threads actually spawned (requested, clamped to the shard
    /// count and the machine's available parallelism).
    pub threads: usize,
    /// Worker threads the caller asked for, before clamping.
    pub requested_threads: usize,
    /// Number of shards executed.
    pub shards: usize,
    /// Wall-clock seconds for the whole point (compile + stimulus + runs;
    /// compile excluded when a prebuilt harness is supplied).
    pub wall_secs: f64,
    /// Executed backend label (see [`Backend::label`]) — for
    /// [`BackendSel::Auto`] this is the width the dispatch picked.
    pub backend: &'static str,
    /// Backend selection mode label (see [`BackendSel::label`]): `"auto"`
    /// when the width was runtime-dispatched, else the forced backend.
    pub dispatch: &'static str,
    /// Bounded stimulus-queue depth of the streaming pipeline (1 for the
    /// batch scalar path).
    pub queue: usize,
}

impl PointResult {
    /// Formats `mean ±ci95 (sd)` for tables.
    pub fn summary(&self) -> String {
        format!(
            "{:.4} ±{:.4} (sd {:.4})",
            self.stats.mean(),
            self.stats.ci95(),
            self.stats.stddev()
        )
    }

    /// End-to-end throughput of the point in simulated cycles per
    /// wall-clock second (`trials × cycles / wall_secs`) — the headline
    /// per-core metric of the Monte-Carlo engine.
    pub fn cycles_per_sec(&self) -> f64 {
        let total = self.stats.trials() as f64 * self.stats.cycles as f64;
        if self.wall_secs > 0.0 {
            total / self.wall_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Errors surfaced by the experiment engine.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ExpError {
    /// The experiment spec is unusable (zero trials or cycles).
    EmptyExperiment,
    /// Building, compiling or analysing the system failed.
    Core(CoreError),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::EmptyExperiment => {
                write!(f, "experiment needs at least one trial and one cycle")
            }
            ExpError::Core(e) => write!(f, "system error: {e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<CoreError> for ExpError {
    fn from(e: CoreError) -> Self {
        ExpError::Core(e)
    }
}

/// Tunables of the streaming experiment engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOpts {
    /// Requested worker threads; the engine clamps to the shard count and
    /// the machine's available parallelism (see [`effective_threads`]).
    pub threads: usize,
    /// Bounded stimulus-queue depth: at most this many packed stimulus
    /// matrices exist at once (queued + mid-pack), which is the pipeline's
    /// memory bound. Clamped to at least 1.
    pub queue: usize,
    /// Backend selection: runtime width dispatch or a forced backend.
    pub backend: BackendSel,
    /// Byte budget for cache-blocked tape scheduling
    /// ([`elastic_netlist::levelize::Program::block_plan`]).
    pub block_bytes: usize,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            threads: default_threads(),
            queue: 2,
            backend: BackendSel::Auto,
            block_bytes: DISPATCH_FOOTPRINT_BYTES,
        }
    }
}

/// The worker count the engine actually spawns for `requested` threads
/// over `shards` shards: clamped so that (a) spare workers with no shard
/// to claim are never spawned, and (b) the pool never oversubscribes the
/// machine — `requested > available_parallelism` timeslices workers over
/// the same cores and *increases* wall time (the BENCH_pr4.json `scaling`
/// regression: 2 threads took 2.5× as long as 1 on a 1-core host).
pub fn effective_threads(requested: usize, shards: usize) -> usize {
    requested.clamp(1, shards.max(1)).min(default_threads())
}

/// Runs one campaign point with default engine options (runtime-dispatched
/// backend, streaming pipeline) — see [`run_experiment_opts`].
///
/// # Errors
///
/// [`ExpError::EmptyExperiment`] for a zero-trial/zero-cycle spec;
/// [`ExpError::Core`] when the system fails to build or compile.
pub fn run_experiment(exp: &Experiment, threads: usize) -> Result<PointResult, ExpError> {
    run_experiment_opts(
        exp,
        &EngineOpts {
            threads,
            ..EngineOpts::default()
        },
    )
}

/// Runs one campaign point on a forced [`Backend`] — the pre-dispatch
/// entry point, kept for backend-equivalence checks. Identical per-lane
/// results to [`run_experiment_opts`] with [`BackendSel::Auto`] (asserted
/// by proptests).
///
/// # Errors
///
/// [`ExpError::EmptyExperiment`] for a zero-trial/zero-cycle spec;
/// [`ExpError::Core`] when the system fails to build or compile.
pub fn run_experiment_backend(
    exp: &Experiment,
    threads: usize,
    backend: Backend,
) -> Result<PointResult, ExpError> {
    run_experiment_opts(
        exp,
        &EngineOpts {
            threads,
            backend: BackendSel::Fixed(backend),
            ..EngineOpts::default()
        },
    )
}

/// Runs one campaign point through the streaming pipeline.
///
/// The network is compiled **once** (through the full optimize → levelize →
/// peephole pipeline); the resulting [`WideHarness`] is shared by reference
/// across the hybrid worker pool of the `stream` module: stimulus packing
/// (producer), tape execution (consumer) and transfer-count reduction
/// overlap, so the stimulus for shard *k+1* is packed while shard *k*
/// executes behind a bounded queue. The word width is taken from
/// `opts.backend` — [`dispatch_backend`] at runtime for
/// [`BackendSel::Auto`] — and each shard covers `backend.lanes()` trials.
/// The scalar reference backend has no packed path and falls back to the
/// batch engine (one gate-level interpreter run per trial).
///
/// See the module docs for the determinism and oversubscription contracts.
///
/// # Errors
///
/// [`ExpError::EmptyExperiment`] for a zero-trial/zero-cycle spec;
/// [`ExpError::Core`] when the system fails to build, compile, or run.
///
/// # Panics
///
/// Panics only on library bugs (a worker thread panicking mid-shard), never
/// on bad experiment inputs.
pub fn run_experiment_opts(exp: &Experiment, opts: &EngineOpts) -> Result<PointResult, ExpError> {
    run_experiment_streaming(exp, opts, |_, _| {})
}

/// [`run_experiment_opts`] with a partial-result hook: `on_partial(i, s)`
/// fires on the calling thread, in shard-index order, as soon as shards
/// `0..=i` have all completed — live progress for long campaigns without
/// waiting for the final reduction.
///
/// # Errors
///
/// See [`run_experiment_opts`].
pub fn run_experiment_streaming(
    exp: &Experiment,
    opts: &EngineOpts,
    on_partial: impl FnMut(usize, &McStats),
) -> Result<PointResult, ExpError> {
    if exp.trials == 0 || exp.cycles == 0 {
        return Err(ExpError::EmptyExperiment);
    }
    let t0 = Instant::now();
    let (network, out) = exp.system.build()?;
    let harness = WideHarness::try_new(&network, out)?;
    run_core(&harness, &network, exp, opts, t0, on_partial)
}

/// Runs one campaign point against a **prebuilt** harness, skipping the
/// per-point compile: campaign binaries sweeping many environments over
/// the same system build the [`WideHarness`] once and amortize it.
/// `exp.system` is ignored — `harness`/`network` stand in for it, and the
/// caller is responsible for their consistency. `wall_secs` (and therefore
/// [`PointResult::cycles_per_sec`]) covers only stimulus + execution.
///
/// # Errors
///
/// [`ExpError::EmptyExperiment`] for a zero-trial/zero-cycle spec;
/// [`ExpError::Core`] when a pipeline stage fails.
pub fn run_prepared(
    harness: &WideHarness,
    network: &ElasticNetwork,
    exp: &Experiment,
    opts: &EngineOpts,
) -> Result<PointResult, ExpError> {
    if exp.trials == 0 || exp.cycles == 0 {
        return Err(ExpError::EmptyExperiment);
    }
    run_core(harness, network, exp, opts, Instant::now(), |_, _| {})
}

/// The engine core shared by every entry point: dispatch the backend,
/// shard the trials, run the streaming pipeline (or the batch scalar
/// fallback), reduce in shard-index order.
fn run_core(
    harness: &WideHarness,
    network: &ElasticNetwork,
    exp: &Experiment,
    opts: &EngineOpts,
    t0: Instant,
    mut on_partial: impl FnMut(usize, &McStats),
) -> Result<PointResult, ExpError> {
    let backend = match opts.backend {
        BackendSel::Auto => dispatch_backend(harness.program(), exp.trials),
        BackendSel::Fixed(b) => b,
    };
    let work = shards_for(exp.trials, exp.seed, backend.lanes());
    let threads = effective_threads(opts.threads, work.len());
    let stats = if backend == Backend::Scalar {
        let mut done = run_batch_scalar(harness, network, exp, &work, threads);
        done.sort_unstable_by_key(|&(i, _)| i);
        for (i, s) in &done {
            on_partial(*i, s);
        }
        McStats::concat(done.into_iter().map(|(_, s)| s))
    } else {
        let width = backend.lanes() / LANES;
        let plan = harness.program().block_plan(width, opts.block_bytes);
        let per_shard = run_shards_streaming(
            harness, network, &exp.env, exp.cycles, &work, width, &plan, threads, opts.queue,
            on_partial,
        )?;
        McStats::concat(per_shard)
    };
    debug_assert_eq!(stats.trials(), exp.trials);
    Ok(PointResult {
        label: exp.label.clone(),
        stats,
        threads,
        requested_threads: opts.threads,
        shards: work.len(),
        wall_secs: t0.elapsed().as_secs_f64(),
        backend: backend.label(),
        dispatch: opts.backend.label(),
        queue: if backend == Backend::Scalar {
            1
        } else {
            opts.queue.max(1)
        },
    })
}

/// The scalar fallback: the classic PR4 batch pool — workers claim shards
/// from an atomic cursor, generate that shard's schedules and run them one
/// gate-level interpreter pass per trial. Returns unsorted
/// `(shard index, stats)` pairs.
fn run_batch_scalar(
    harness: &WideHarness,
    network: &ElasticNetwork,
    exp: &Experiment,
    work: &[Shard],
    threads: usize,
) -> Vec<(usize, McStats)> {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, McStats)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = work.get(i) else { break };
                        let scheds = WideHarness::schedules(
                            network,
                            &exp.env,
                            shard.seed,
                            exp.cycles,
                            shard.lanes,
                        );
                        let stats = harness
                            .try_run_scalar(&scheds)
                            .expect("shard sized to the backend (library bug)");
                        local.push((shard.index, stats));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked (library bug)"))
            .collect()
    })
}

/// The early-vs-lazy configuration pair every early-evaluation ablation
/// sweeps: the paper's headline contrast (Table 1 rows 1 and 5).
pub const EE_CONFIGS: [(Config, &str); 2] = [
    (Config::ActiveAntiTokens, "early"),
    (Config::NoEarlyEval, "lazy"),
];

/// Builds the `sweep_ee_prob`-style campaign point for fast-branch
/// probability `p_i`: the Fig. 9 example with the opcode distribution on
/// `Din` set to I with probability `p_i` and the remaining mass split 3:1
/// between F and M. Shared by `sweep_ee_prob` and `campaign` so their
/// points stay equivalent by construction.
///
/// # Errors
///
/// Propagates build failures of the paper example.
pub fn ee_prob_experiment(
    p_i: f64,
    config: Config,
    tag: &str,
    cycles: usize,
    trials: usize,
    seed: u64,
) -> Result<Experiment, ExpError> {
    let sys = paper_example(config)?;
    let rest = 1.0 - p_i;
    let mut env = sys.env_config.clone();
    env.sources.insert(
        "Din".into(),
        SourceCfg {
            rate: 1.0,
            data: DataGen::Weighted(vec![(0b00, p_i), (0b10, rest * 0.75), (0b01, rest * 0.25)]),
        },
    );
    Ok(Experiment {
        label: format!("p_i={p_i:.2}/{tag}"),
        system: SystemSpec::Paper(config),
        env,
        cycles,
        trials,
        seed,
    })
}

/// Outcome of the marked-graph analytic cross-check of one lazy point.
#[derive(Debug, Clone)]
pub struct BoundCheck {
    /// The `min_cycle_ratio` throughput bound of the abstracted system.
    pub bound: f64,
    /// Measured Monte-Carlo mean throughput.
    pub measured: f64,
    /// Tolerance granted for finite-horizon noise.
    pub tolerance: f64,
    /// Whether `measured <= bound + tolerance`.
    pub ok: bool,
    /// Component names on the critical cycle.
    pub critical: Vec<String>,
}

/// Cross-checks a measured lazy-configuration throughput against the
/// minimum-cycle-ratio bound of its marked-graph abstraction
/// (`elastic_core::dmg_bridge`). Lazy systems cannot beat the bound; a
/// sharded campaign whose lazy mean exceeds it has a bug (bad seeding, a
/// polluted partial shard, a broken reducer), which is exactly what this
/// check is for.
///
/// # Errors
///
/// Propagates abstraction/analysis failures (e.g. a system that is not
/// strongly connected after abstraction) — as typed errors, not panics, so
/// campaign runners can report and continue.
pub fn lazy_bound_check(
    network: &ElasticNetwork,
    env: &EnvConfig,
    measured: f64,
    tolerance: f64,
) -> Result<BoundCheck, ExpError> {
    let b = lazy_throughput_bound(network, env)?;
    Ok(BoundCheck {
        bound: b.bound,
        measured,
        tolerance,
        ok: measured <= b.bound + tolerance,
        critical: b.critical,
    })
}

/// One thread-scaling measurement of a campaign's reference point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingRow {
    /// Threads the ladder step asked for.
    pub requested: usize,
    /// Threads the engine actually spawned (see [`effective_threads`]) —
    /// the corrected PR6 methodology: BENCH_pr4.json recorded requested
    /// threads only, which on an oversubscribed host made "2 threads" a
    /// measurement of timeslicing overhead, not scaling.
    pub effective: usize,
    /// Wall-clock seconds of the reference point at this step.
    pub wall_secs: f64,
}

/// A campaign-level record serialized to `BENCH_pr3.json`-style files.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Completed points.
    pub points: Vec<PointResult>,
    /// Analytic cross-checks, as `(point label, check)` pairs.
    pub bound_checks: Vec<(String, BoundCheck)>,
    /// Thread-scaling measurements for one reference point.
    pub scaling: Vec<ScalingRow>,
}

impl CampaignReport {
    /// Renders the whole report as a JSON object (hand-rolled: the
    /// workspace is offline and vendors no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"campaign\": {},\n", json_str(&self.name)));
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"point\": {}, \"mean\": {}, \"sd\": {}, \"ci95\": {}, \
                 \"trials\": {}, \"cycles\": {}, \"shards\": {}, \"threads\": {}, \
                 \"requested_threads\": {}, \"queue\": {}, \"wall_secs\": {}, \
                 \"backend\": {}, \"dispatch\": {}, \"cycles_per_sec\": {}}}{sep}\n",
                json_str(&p.label),
                json_f64(p.stats.mean()),
                json_f64(p.stats.stddev()),
                json_f64(p.stats.ci95()),
                p.stats.trials(),
                p.stats.cycles,
                p.shards,
                p.threads,
                p.requested_threads,
                p.queue,
                json_f64(p.wall_secs),
                json_str(p.backend),
                json_str(p.dispatch),
                json_f64(p.cycles_per_sec()),
            ));
        }
        s.push_str("  ],\n  \"bound_checks\": [\n");
        for (i, (label, c)) in self.bound_checks.iter().enumerate() {
            let sep = if i + 1 == self.bound_checks.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!(
                "    {{\"point\": {}, \"bound\": {}, \"measured\": {}, \
                 \"tolerance\": {}, \"ok\": {}, \"critical\": [{}]}}{sep}\n",
                json_str(label),
                json_f64(c.bound),
                json_f64(c.measured),
                json_f64(c.tolerance),
                c.ok,
                c.critical
                    .iter()
                    .map(|n| json_str(n))
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
        }
        s.push_str("  ],\n  \"scaling\": [\n");
        for (i, &row) in self.scaling.iter().enumerate() {
            let sep = if i + 1 == self.scaling.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"requested_threads\": {}, \"effective_threads\": {}, \
                 \"wall_secs\": {}}}{sep}\n",
                row.requested,
                row.effective,
                json_f64(row.wall_secs)
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

/// Minimal JSON string escape (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats only — JSON has no NaN/Inf, so degrade to null.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Shared command-line options of the campaign binaries
/// (`--trials N --threads N --cycles N --seed N --json PATH --queue N
/// --backend {auto,scalar,wide,wide1,wide2,wide4,wide8}`).
#[derive(Debug, Clone)]
pub struct CliOpts {
    /// Trials per point.
    pub trials: usize,
    /// Worker threads (defaults to the machine's available parallelism;
    /// the engine clamps, see [`effective_threads`]).
    pub threads: usize,
    /// Cycles per trial.
    pub cycles: usize,
    /// Base seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Backend selection (defaults to runtime dispatch, `auto`).
    pub backend: BackendSel,
    /// Streaming-pipeline stimulus queue depth.
    pub queue: usize,
}

impl CliOpts {
    /// Parses `std::env::args`, falling back to the given defaults when a
    /// flag is absent. Unknown flags are ignored so binaries can add their
    /// own — but a flag that *is* present with an unparsable or missing
    /// value is a hard error (exit 2): these binaries produce published
    /// measurements, and silently running the default size after a typo
    /// would record numbers for a campaign that never ran.
    pub fn parse(default_trials: usize, default_cycles: usize) -> CliOpts {
        let args: Vec<String> = std::env::args().collect();
        fn positive(flag: &str, v: usize) -> usize {
            if v == 0 {
                eprintln!("error: {flag} must be at least 1");
                std::process::exit(2);
            }
            v
        }
        let backend = match flag_value(&args, "--backend") {
            None => BackendSel::Auto,
            Some(raw) => BackendSel::parse(&raw).unwrap_or_else(|| {
                eprintln!(
                    "error: invalid value for --backend: {raw:?} \
                     (expected auto, scalar, wide, wide1, wide2, wide4 or wide8)"
                );
                std::process::exit(2);
            }),
        };
        CliOpts {
            trials: positive("--trials", parse_flag(&args, "--trials", default_trials)),
            threads: positive(
                "--threads",
                parse_flag(&args, "--threads", default_threads()),
            ),
            cycles: positive("--cycles", parse_flag(&args, "--cycles", default_cycles)),
            seed: parse_flag(&args, "--seed", 1),
            json: flag_value(&args, "--json"),
            backend,
            queue: positive(
                "--queue",
                parse_flag(&args, "--queue", EngineOpts::default().queue),
            ),
        }
    }

    /// The [`EngineOpts`] these CLI options describe.
    pub fn engine(&self) -> EngineOpts {
        EngineOpts {
            threads: self.threads,
            queue: self.queue,
            backend: self.backend,
            ..EngineOpts::default()
        }
    }
}

/// The raw value following `flag` in `args` (`None` when the flag is
/// absent). A flag without a value is a hard error (exit 2).
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} requires a value");
            std::process::exit(2);
        })
    })
}

/// `flag`'s value in `args` parsed as `T`, or `dflt` when the flag is
/// absent — the argv helper of the campaign binaries. A missing or
/// unparsable value is a hard error (exit 2), for the reason given at
/// [`CliOpts::parse`].
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, dflt: T) -> T {
    match flag_value(args, flag) {
        None => dflt,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid value for {flag}: {raw:?}");
            std::process::exit(2);
        }),
    }
}

/// `flag`'s comma-separated value parsed element-wise (empty elements
/// skipped), or `dflt` when the flag is absent; exit 2 like
/// [`parse_flag`].
pub fn parse_list<T: std::str::FromStr + Clone>(args: &[String], flag: &str, dflt: &[T]) -> Vec<T> {
    let Some(raw) = flag_value(args, flag) else {
        return dflt.to_vec();
    };
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value in {flag}: {s:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// The `--classes a,b,...|all` selection: every class of `all` when the
/// flag is absent or `all`, the listed labels otherwise (validated by the
/// campaign, not here).
pub fn parse_classes(args: &[String], all: &[&str]) -> Vec<String> {
    match flag_value(args, "--classes").as_deref() {
        None | Some("all") => all.iter().map(|&c| c.to_string()).collect(),
        Some(raw) => raw
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
    }
}

/// The machine's available parallelism (1 when unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::systems::linear_pipeline;

    fn pipeline_spec() -> (SystemSpec, EnvConfig) {
        let (net, _, out) = linear_pipeline(2, 1).unwrap();
        (
            SystemSpec::Custom {
                network: net,
                output: out,
            },
            EnvConfig::default(),
        )
    }

    #[test]
    fn shard_derivation_covers_trials_exactly() {
        // N % 64 == 0, N % 64 != 0 and N < 64 all partition cleanly.
        for (trials, expect) in [(128usize, vec![64, 64]), (100, vec![64, 36]), (5, vec![5])] {
            let sh = shards(trials, 1000);
            assert_eq!(sh.len(), expect.len(), "{trials} trials");
            for (i, s) in sh.iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.lanes, expect[i]);
                assert_eq!(s.seed, 1000 + (i * LANES) as u64);
            }
            assert_eq!(sh.iter().map(|s| s.lanes).sum::<usize>(), trials);
        }
        assert!(shards(0, 0).is_empty());
    }

    #[test]
    fn near_max_seed_wraps_instead_of_panicking() {
        // Regression: seed arithmetic close to u64::MAX must wrap (like the
        // sweep binaries' seed offsets), not overflow-panic in debug builds.
        let base = u64::MAX - 70;
        let sh = shards(130, base);
        assert_eq!(sh[0].seed, base);
        assert_eq!(sh[1].seed, base.wrapping_add(64));
        assert_eq!(sh[2].seed, 57, "wrapped past u64::MAX");
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "wrap".into(),
            system,
            env,
            cycles: 20,
            trials: 130,
            seed: base,
        };
        let one = run_experiment(&exp, 1).unwrap();
        let multi = run_experiment(&exp, 3).unwrap();
        assert_eq!(one.stats.per_lane, multi.stats.per_lane);
    }

    #[test]
    fn empty_experiment_is_an_error() {
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "empty".into(),
            system,
            env,
            cycles: 100,
            trials: 0,
            seed: 1,
        };
        assert!(matches!(
            run_experiment(&exp, 2),
            Err(ExpError::EmptyExperiment)
        ));
    }

    #[test]
    fn partial_shard_matches_direct_wide_run() {
        // 70 trials: one 512-lane shard (partial) on the default wide8
        // backend, two shards on wide1. Neither chunking may leak its dead
        // upper lanes into the estimate, and both must flatten to the same
        // per-lane vector as direct single-word runs.
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "partial".into(),
            system: system.clone(),
            env: env.clone(),
            cycles: 60,
            trials: 70,
            seed: 400,
        };
        let res = run_experiment(&exp, 2).unwrap();
        assert_eq!(res.stats.trials(), 70);
        assert_eq!(res.shards, 1, "one 512-lane shard on the default backend");
        let narrow = run_experiment_backend(&exp, 2, Backend::Wide1).unwrap();
        assert_eq!(narrow.shards, 2, "two 64-lane shards on wide1");
        // Reference: drive the two 64-lane shards directly through
        // WideHarness.
        let (net, out) = system.build().unwrap();
        let h = WideHarness::new(&net, out);
        let s0 = WideHarness::schedules(&net, &env, 400, 60, 64);
        let s1 = WideHarness::schedules(&net, &env, 400 + 64, 60, 6);
        let expect: Vec<f64> = h
            .run(&s0)
            .per_lane
            .into_iter()
            .chain(h.run(&s1).per_lane)
            .collect();
        assert_eq!(res.stats.per_lane, expect);
        assert_eq!(narrow.stats.per_lane, expect);
    }

    #[test]
    fn all_backends_agree_bit_exactly() {
        // The same experiment on every backend — scalar interpreter on the
        // raw netlist included — must produce the identical per-lane
        // vector: the end-to-end cross-check of the optimize → levelize →
        // peephole → pack pipeline.
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "backends".into(),
            system,
            env,
            cycles: 40,
            trials: 70,
            seed: 3000,
        };
        let reference = run_experiment_backend(&exp, 1, Backend::Scalar).unwrap();
        assert_eq!(reference.backend, "scalar");
        for backend in [
            Backend::Wide1,
            Backend::Wide2,
            Backend::Wide4,
            Backend::Wide8,
        ] {
            let res = run_experiment_backend(&exp, 2, backend).unwrap();
            assert_eq!(res.stats.per_lane, reference.stats.per_lane, "{backend:?}");
            assert_eq!(res.backend, backend.label());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "det".into(),
            system,
            env,
            cycles: 50,
            trials: 130,
            seed: 77,
        };
        let one = run_experiment(&exp, 1).unwrap();
        for threads in [2, 3, 8] {
            let multi = run_experiment(&exp, threads).unwrap();
            assert_eq!(
                one.stats.per_lane, multi.stats.per_lane,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn lazy_bound_check_holds_on_paper_lazy_config() {
        let sys = paper_example(Config::NoEarlyEval).unwrap();
        let exp = Experiment {
            label: "lazy".into(),
            system: SystemSpec::Paper(Config::NoEarlyEval),
            env: sys.env_config.clone(),
            cycles: 300,
            trials: 96,
            seed: 9,
        };
        let res = run_experiment(&exp, 2).unwrap();
        let check =
            lazy_bound_check(&sys.network, &sys.env_config, res.stats.mean(), 0.03).unwrap();
        assert!(
            check.ok,
            "lazy mean {} exceeded bound {}",
            check.measured, check.bound
        );
        assert!(!check.critical.is_empty());
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = CampaignReport {
            name: "unit \"quoted\"".into(),
            points: vec![PointResult {
                label: "p\\0".into(),
                stats: McStats {
                    cycles: 10,
                    per_lane: vec![0.25, 0.75],
                },
                threads: 2,
                requested_threads: 8,
                shards: 1,
                wall_secs: 0.5,
                backend: "wide8",
                dispatch: "auto",
                queue: 2,
            }],
            bound_checks: vec![(
                "lazy".into(),
                BoundCheck {
                    bound: 0.25,
                    measured: 0.2,
                    tolerance: 0.01,
                    ok: true,
                    critical: vec!["M1".into()],
                },
            )],
            scaling: vec![
                ScalingRow {
                    requested: 1,
                    effective: 1,
                    wall_secs: 2.0,
                },
                ScalingRow {
                    requested: 4,
                    effective: 1,
                    wall_secs: f64::NAN,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"campaign\": \"unit \\\"quoted\\\"\""));
        assert!(json.contains("\"point\": \"p\\\\0\""));
        assert!(json.contains("\"mean\": 0.500000"));
        assert!(json.contains("\"trials\": 2"));
        assert!(json.contains("\"backend\": \"wide8\""));
        assert!(json.contains("\"dispatch\": \"auto\""));
        assert!(json.contains("\"requested_threads\": 8"));
        assert!(json.contains("\"queue\": 2"));
        assert!(json.contains("\"requested_threads\": 4, \"effective_threads\": 1"));
        // 2 trials × 10 cycles / 0.5 s = 40 cycles/sec.
        assert!(json.contains("\"cycles_per_sec\": 40.000000"));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"critical\": [\"M1\"]"));
        // Non-finite wall times degrade to null instead of invalid JSON.
        assert!(json.contains("\"wall_secs\": null"));
        // Balanced braces/brackets as a cheap well-formedness proxy.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{open}{close}"
            );
        }
    }
}
