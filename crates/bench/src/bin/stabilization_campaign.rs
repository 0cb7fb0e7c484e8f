//! Self-stabilization Monte-Carlo campaign — the binary behind
//! `BENCH_pr9.json` and the CI stabilization smoke.
//!
//! Sweeps fault-*process* classes × intensities × generated topologies:
//! where `fault_campaign` injects one window per trial, each job here
//! drives a whole deterministic fault process — `periodic` re-injection,
//! `sustained` stuck-at intervals, `correlated` multi-site bursts, a
//! `byzantine` channel adversary lying to producer and consumer on
//! phase-shifted windows — with one corruption gate per site and an
//! independent seeded process instance per packed lane. Each lane's
//! stabilization tracker retimes at every disturbance start, so the
//! report's per-class distributions measure the time from the *last*
//! fault event to sustained `(I*R*T)*` conformance, the rate of lanes
//! that never stabilize, the steady-state violation rate of those that
//! don't, and the throughput-dip-versus-intensity curve.
//!
//! The report closes with explicit-state convergence verdicts on the
//! small named systems and the leading generated topologies: does every
//! fault-free run from any fault-reachable state re-enter the legal
//! state set? Systems over the exploration budget record a typed skip.
//!
//! The whole report is bit-identical for every thread count and queue
//! depth (seeds derive from job indices, reduction is in job order);
//! `--check` re-runs the campaign at a different worker count and asserts
//! exactly that before writing the JSON.
//!
//! Usage: `stabilization_campaign [--topologies N] [--trials N]
//! [--cycles N] [--period N] [--intensities a,b,...] [--tail N]
//! [--seed N] [--threads N] [--queue N] [--classes a,b,...|all]
//! [--mc-topologies N] [--check] [--json PATH]`
//! (JSON defaults to `BENCH_pr9.json`; `--trials` is lanes per job).

use elastic_bench::exp::{default_threads, parse_classes, parse_flag, parse_list};
use elastic_bench::stabilize::{run_stabilization_campaign, StabilizationOpts, PROCESS_CLASSES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = StabilizationOpts {
        topologies: parse_flag(&args, "--topologies", 100usize).max(1),
        seed: parse_flag(&args, "--seed", 1),
        cycles: parse_flag(&args, "--cycles", 256usize),
        lanes: parse_flag(&args, "--trials", 64usize),
        period: parse_flag(&args, "--period", 32usize),
        intensities: parse_list(&args, "--intensities", &[1, 2, 4]),
        recovery_tail: parse_flag(&args, "--tail", 16usize),
        threads: parse_flag(&args, "--threads", default_threads()),
        queue: parse_flag(&args, "--queue", 2usize),
        classes: parse_classes(&args, &PROCESS_CLASSES),
        mc_topologies: parse_flag(&args, "--mc-topologies", 4usize),
    };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_pr9.json".into());

    println!(
        "stabilization_campaign: {} topologies x {} classes x {} intensities, \
         {} trials x {} cycles each, period {}, tail {}, {} threads",
        opts.topologies,
        opts.classes.len(),
        opts.intensities.len(),
        opts.lanes,
        opts.cycles,
        opts.period,
        opts.recovery_tail,
        opts.threads
    );

    let report = run_stabilization_campaign(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    println!(
        "  {:<12} {:>4} {:>7} {:>9} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "class",
        "int",
        "trials",
        "disturbed",
        "stabilized",
        "p50",
        "p99",
        "nonstab",
        "viol rate",
        "mean dip"
    );
    for c in &report.classes {
        for p in &c.points {
            println!(
                "  {:<12} {:>4} {:>7} {:>9} {:>10} {:>8.1} {:>8.1} {:>7.1}% {:>9.4} {:>9.4}",
                c.class,
                p.intensity,
                p.trials,
                p.disturbed,
                p.stabilized,
                p.stab_p50,
                p.stab_p99,
                p.non_stabilization_rate * 100.0,
                p.mean_violation_rate,
                p.mean_dip
            );
        }
        println!(
            "  {:<12} {:>4} p50 {:.1} p99 {:.1} nonstab {:.1}% viol {:.4}",
            c.class,
            "all",
            c.stab_p50,
            c.stab_p99,
            c.non_stabilization_rate * 100.0,
            c.mean_violation_rate
        );
    }
    for v in &report.mc {
        match (&v.report, &v.error) {
            (Some(r), _) => println!(
                "  mc {:<28} {} (ff {}, legal {}, diverging {}, bound {})",
                v.system,
                if r.converging {
                    "converging"
                } else {
                    "NOT converging"
                },
                r.ff_states,
                r.legal,
                r.diverging,
                r.convergence_bound
            ),
            (None, err) => println!(
                "  mc {:<28} skipped: {}",
                v.system,
                err.as_deref().unwrap_or("unknown")
            ),
        }
    }
    println!(
        "  {} jobs in {:.2}s on {} worker(s)",
        report.jobs.len(),
        report.wall_secs,
        report.threads
    );

    // Sensitivity gate: a campaign in which no process disturbed anything
    // measured nothing — fail loudly instead of archiving empty
    // distributions (mirrors the recovery campaign's rule).
    let disturbed: usize = report
        .classes
        .iter()
        .flat_map(|c| c.points.iter())
        .map(|p| p.disturbed)
        .sum();
    if !report.classes.is_empty() && disturbed == 0 {
        eprintln!("error: no fault process disturbed any lane — widen --topologies or move --seed");
        std::process::exit(1);
    }

    if args.iter().any(|a| a == "--check") {
        let alt = StabilizationOpts {
            threads: if report.threads == 1 { 2 } else { 1 },
            queue: if opts.queue == 1 { 4 } else { 1 },
            ..opts.clone()
        };
        let reference = run_stabilization_campaign(&alt).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        for (a, b) in report.jobs.iter().zip(&reference.jobs) {
            assert_eq!(a.site, b.site, "job sites diverged between thread counts");
            assert_eq!(
                a.lanes, b.lanes,
                "lane outcomes diverged between thread counts"
            );
        }
        println!(
            "determinism: {} worker(s)/queue {} == {} worker(s)/queue {} on {} jobs (bit-identical)",
            report.threads,
            opts.queue,
            reference.threads,
            alt.queue,
            report.jobs.len()
        );
    }

    report.write_json(&json_path).expect("write json");
    println!("wrote {json_path}");
}
