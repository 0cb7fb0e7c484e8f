//! Bounded-queue streaming producer/consumer pipeline for Monte-Carlo
//! shards.
//!
//! The PR4 engine ran each shard as `generate schedules → pack → execute`
//! sequentially inside one worker, so the stimulus for shard *k+1* only
//! started once shard *k* had fully executed. This module overlaps the
//! stages instead:
//!
//! ```text
//!             ┌──────────── bounded queue (≤ depth in flight) ───────────┐
//!   pack(k+1) │ [stim k] [stim k+1] …                                    │
//!  ───────────┤                                                          │
//!   workers   │  pop → execute(k) → (k, McStats) ──mpsc──▶ reducer       │
//!             └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Every worker is a *hybrid* pack-or-execute loop: it prefers popping a
//! packed stimulus and executing it (draining the queue keeps latency to
//! first result low); if the queue has nothing to execute it claims the
//! next shard to pack, provided fewer than `depth` stimuli are packed or
//! in flight — the backpressure that bounds memory to
//! `depth × stimulus_bytes`. With one worker the loop degenerates to
//! pack/execute alternation, which is exactly the batch engine's order.
//!
//! The reducer runs on the calling thread: it receives `(shard index,
//! stats)` pairs over an mpsc channel and emits partial results in
//! shard-index order through the `on_partial` callback as soon as each
//! prefix completes. Because shard seeds (not worker identity) determine
//! every RNG stream and the reduction is by shard index, the final
//! per-lane vector is bit-identical for every worker count and queue
//! depth — asserted by the proptests in `tests/exp.rs`.
//!
//! The pipeline itself ([`run_pipeline`]) is generic over the produced
//! payload and the consumed result: the throughput engine instantiates it
//! with `PackedStimulus → McStats` ([`run_shards_streaming`]) and the
//! fault-campaign engine with per-job harness builds → per-lane tracker
//! records (`crate::stabilize`), sharing the queueing, backpressure and
//! in-order reduction.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

use elastic_core::network::ElasticNetwork;
use elastic_core::sim::EnvConfig;
use elastic_core::verify::PackedStimulus;
use elastic_core::CoreError;
use elastic_netlist::levelize::BlockPlan;

use crate::exp::Shard;
use crate::{McStats, WideHarness};

/// Shared pipeline state behind one mutex; workers sleep on the paired
/// condvar whenever they can neither execute nor pack.
struct PipeState<S> {
    /// Next item index to claim for producing.
    next_pack: usize,
    /// Produced payloads awaiting consumption, in claim order.
    queue: VecDeque<(usize, S)>,
    /// Items currently being produced (claimed, not yet queued).
    packing: usize,
    /// First error any stage hit; set once, aborts the pipeline.
    error: Option<CoreError>,
}

impl<S> PipeState<S> {
    /// Nothing left to produce, nothing mid-production, nothing queued:
    /// any remaining consumptions are already owned by other workers.
    fn drained(&self, total: usize) -> bool {
        self.next_pack >= total && self.packing == 0 && self.queue.is_empty()
    }
}

/// Runs `total` items through the streaming pipeline on `workers` hybrid
/// threads with a `depth`-bounded payload queue, returning the per-item
/// results in item-index order. `produce(i)` builds item `i`'s payload
/// (the expensive, parallelizable stage: stimulus packing, per-job
/// compilation); `consume(i, payload)` turns it into the item's result
/// (tape execution, measurement). `on_partial(index, result)` fires on
/// the calling thread, in index order, as soon as every item up to
/// `index` has completed.
///
/// Determinism: results are keyed by item index, never by worker
/// identity, so as long as `produce`/`consume` are deterministic
/// functions of the index the output vector is bit-identical for every
/// worker count and queue depth.
///
/// # Errors
///
/// The first stage error (production or consumption), after the pipeline
/// has drained.
pub(crate) fn run_pipeline<S, R>(
    total: usize,
    workers: usize,
    depth: usize,
    produce: impl Fn(usize) -> Result<S, CoreError> + Sync,
    consume: impl Fn(usize, S) -> Result<R, CoreError> + Sync,
    mut on_partial: impl FnMut(usize, &R),
) -> Result<Vec<R>, CoreError>
where
    S: Send,
    R: Send,
{
    assert!(workers >= 1, "pipeline needs a worker");
    let depth = depth.max(1);
    let state = Mutex::new(PipeState::<S> {
        next_pack: 0,
        queue: VecDeque::with_capacity(depth),
        packing: 0,
        error: None,
    });
    let cvar = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (state, cvar) = (&state, &cvar);
            let (produce, consume) = (&produce, &consume);
            s.spawn(move || {
                let fail = |e: CoreError| {
                    let mut g = state.lock().expect("pipeline lock");
                    g.error.get_or_insert(e);
                    cvar.notify_all();
                };
                let mut guard = state.lock().expect("pipeline lock");
                loop {
                    if guard.error.is_some() {
                        break;
                    }
                    if let Some((idx, payload)) = guard.queue.pop_front() {
                        drop(guard);
                        // A queue slot freed: producers blocked on depth
                        // can proceed while this worker consumes.
                        cvar.notify_all();
                        match consume(idx, payload) {
                            Ok(res) => {
                                let _ = tx.send((idx, res));
                            }
                            Err(e) => {
                                fail(e);
                                break;
                            }
                        }
                        guard = state.lock().expect("pipeline lock");
                    } else if guard.next_pack < total && guard.queue.len() + guard.packing < depth {
                        let idx = guard.next_pack;
                        guard.next_pack += 1;
                        guard.packing += 1;
                        drop(guard);
                        match produce(idx) {
                            Ok(payload) => {
                                guard = state.lock().expect("pipeline lock");
                                guard.packing -= 1;
                                guard.queue.push_back((idx, payload));
                                cvar.notify_all();
                            }
                            Err(e) => {
                                fail(e);
                                break;
                            }
                        }
                    } else if guard.drained(total) {
                        break;
                    } else {
                        guard = cvar.wait(guard).expect("pipeline lock");
                    }
                }
            });
        }
        // The reducer: this thread owns the original `tx`; dropping it
        // leaves the workers' clones, so `rx` ends once they all exit.
        drop(tx);
        let mut emitted = 0usize;
        for (idx, res) in rx {
            results[idx] = Some(res);
            while emitted < results.len() && results[emitted].is_some() {
                on_partial(emitted, results[emitted].as_ref().expect("just checked"));
                emitted += 1;
            }
        }
    });

    if let Some(e) = state.into_inner().expect("pipeline lock").error {
        return Err(e);
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("drained pipeline completed every item"))
        .collect())
}

/// Runs `shards` through the streaming pipeline on `workers` hybrid
/// threads with a `depth`-bounded stimulus queue, returning the per-shard
/// statistics in shard-index order. `on_partial(index, stats)` fires on
/// the calling thread, in index order, as soon as every shard up to
/// `index` has completed.
///
/// Thin instantiation of [`run_pipeline`]: produce = fused stimulus
/// generation for shard *i*, consume = blocked tape execution.
///
/// # Errors
///
/// The first stage error (stimulus generation or execution), after the
/// pipeline has drained.
#[allow(clippy::too_many_arguments)] // one call site; a builder would obscure the stage wiring
pub(crate) fn run_shards_streaming(
    harness: &WideHarness,
    network: &ElasticNetwork,
    env: &EnvConfig,
    cycles: usize,
    shards: &[Shard],
    width: usize,
    plan: &BlockPlan,
    workers: usize,
    depth: usize,
    on_partial: impl FnMut(usize, &McStats),
) -> Result<Vec<McStats>, CoreError> {
    run_pipeline::<PackedStimulus, McStats>(
        shards.len(),
        workers,
        depth,
        |i| {
            let shard = shards[i];
            harness.generate_stimulus(network, env, shard.seed, cycles, shard.lanes, width)
        },
        |i, stim| harness.try_run_stim(&stim, shards[i].lanes, plan),
        on_partial,
    )
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

    use super::*;

    /// Loom-style deterministic stress of the `Mutex<PipeState>`+Condvar
    /// hand-off: many iterations per (workers, depth) combo, with
    /// `yield_now` jostling inside both stages to shake out interleavings,
    /// asserting the three pipeline invariants the batch engines rely on:
    ///
    /// 1. backpressure — at most `depth` payloads are claimed-or-queued
    ///    plus one popped payload in each worker's hands at any instant,
    ///    i.e. live payloads never exceed `depth + workers` (the memory
    ///    bound; the pop happens under the lock, so claimed-or-queued
    ///    alone is not observable from outside the mutex),
    /// 2. exactly-once — every index is produced once and consumed once,
    /// 3. ordered reduction — `on_partial` fires for 0..total in strict
    ///    index order and the result vector is index-keyed.
    #[test]
    fn pipeline_handoff_invariants_hold_under_stress() {
        const TOTAL: usize = 24;
        for &(workers, depth) in &[(1, 1), (2, 1), (2, 2), (4, 2), (4, 8), (8, 3)] {
            for round in 0..8 {
                let in_system = AtomicIsize::new(0);
                let peak = AtomicIsize::new(0);
                let produced = AtomicUsize::new(0);
                let consumed = AtomicUsize::new(0);
                let mut partial_next = 0usize;
                let out = run_pipeline::<usize, usize>(
                    TOTAL,
                    workers,
                    depth,
                    |i| {
                        let now = in_system.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        produced.fetch_add(1, Ordering::SeqCst);
                        // Jostle the scheduler so claim/queue/pop orders vary.
                        for _ in 0..(i + round) % 3 {
                            std::thread::yield_now();
                        }
                        Ok(i * 10)
                    },
                    |i, payload| {
                        in_system.fetch_sub(1, Ordering::SeqCst);
                        consumed.fetch_add(1, Ordering::SeqCst);
                        for _ in 0..(i + round) % 2 {
                            std::thread::yield_now();
                        }
                        Ok(payload + 1)
                    },
                    |idx, res| {
                        assert_eq!(idx, partial_next, "on_partial out of order");
                        assert_eq!(*res, idx * 10 + 1);
                        partial_next += 1;
                    },
                )
                .expect("clean pipeline");
                assert_eq!(partial_next, TOTAL);
                assert_eq!(produced.load(Ordering::SeqCst), TOTAL);
                assert_eq!(consumed.load(Ordering::SeqCst), TOTAL);
                let peak = peak.load(Ordering::SeqCst);
                assert!(
                    peak <= (depth + workers) as isize,
                    "backpressure violated: {peak} payloads live > depth {depth} \
                     + workers {workers} (round {round})"
                );
                assert_eq!(out, (0..TOTAL).map(|i| i * 10 + 1).collect::<Vec<_>>());
            }
        }
    }

    /// A producer error aborts the pipeline (first error wins, workers
    /// wake from the condvar and exit) without deadlock, and no item
    /// claimed after the failure leaks a permanent `packing` slot.
    #[test]
    fn pipeline_aborts_on_produce_error_without_deadlock() {
        for &(workers, depth) in &[(1, 1), (3, 2), (4, 4)] {
            let err = run_pipeline::<usize, usize>(
                50,
                workers,
                depth,
                |i| {
                    if i == 7 {
                        Err(CoreError::ScheduleBatch(format!("boom at {i}")))
                    } else {
                        Ok(i)
                    }
                },
                |_, payload| Ok(payload),
                |_, _| {},
            )
            .expect_err("pipeline must surface the stage error");
            assert!(err.to_string().contains("boom at 7"), "{err}");
        }
    }

    /// A consumer error likewise aborts; results already reduced before
    /// the failure are discarded (the call returns `Err`, not a prefix).
    #[test]
    fn pipeline_aborts_on_consume_error_without_deadlock() {
        for &(workers, depth) in &[(2, 1), (4, 3)] {
            let err = run_pipeline::<usize, usize>(
                40,
                workers,
                depth,
                Ok,
                |i, payload| {
                    if i == 11 {
                        Err(CoreError::ScheduleBatch("consume failed".into()))
                    } else {
                        Ok(payload)
                    }
                },
                |_, _| {},
            )
            .expect_err("pipeline must surface the stage error");
            assert!(err.to_string().contains("consume failed"), "{err}");
        }
    }
}
