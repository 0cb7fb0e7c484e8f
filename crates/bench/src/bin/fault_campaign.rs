//! Fault-injection recovery-time Monte-Carlo campaign — the binary behind
//! `BENCH_pr7.json` and the CI fault smoke.
//!
//! Sweeps fault classes × injection sites × generated topologies: every
//! topology × class job compiles the network with a corruption gate
//! spliced into a probed-effective rail, arms an independent single-shot
//! injection window per packed lane, and scores each lane's trace with a
//! streaming SELF recovery detector on the faulted channel — did the
//! trace re-enter the legal `(I*R*T)*` language, after how many cycles,
//! and at what throughput cost? Per class the report carries the
//! recovery-time distribution (p50/p99), the non-recovery rate and the
//! mean throughput dip versus the fault-free run of the same stimulus.
//!
//! The whole report is bit-identical for every thread count and queue
//! depth (seeds derive from job indices, reduction is in job order);
//! `--check` re-runs the campaign at a different worker count and asserts
//! exactly that before writing the JSON.
//!
//! Usage: `fault_campaign [--topologies N] [--trials N] [--cycles N]
//! [--seed N] [--threads N] [--queue N] [--window N] [--tail N]
//! [--classes a,b,...|all] [--check] [--json PATH]`
//! (JSON defaults to `BENCH_pr7.json`; `--trials` is lanes per job).

use elastic_bench::exp::{default_threads, parse_classes, parse_flag};
use elastic_bench::fault::{run_fault_campaign, FaultCampaignOpts, FAULT_CLASSES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = FaultCampaignOpts {
        topologies: parse_flag(&args, "--topologies", 100usize).max(1),
        seed: parse_flag(&args, "--seed", 1),
        cycles: parse_flag(&args, "--cycles", 256usize),
        lanes: parse_flag(&args, "--trials", 64usize),
        window_len: parse_flag(&args, "--window", 1usize),
        recovery_tail: parse_flag(&args, "--tail", 16usize),
        threads: parse_flag(&args, "--threads", default_threads()),
        queue: parse_flag(&args, "--queue", 2usize),
        classes: parse_classes(&args, &FAULT_CLASSES),
    };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_pr7.json".into());

    println!(
        "fault_campaign: {} topologies x {} classes, {} trials x {} cycles each, \
         window {}, tail {}, {} threads",
        opts.topologies,
        opts.classes.len(),
        opts.lanes,
        opts.cycles,
        opts.window_len.max(1),
        opts.recovery_tail,
        opts.threads
    );

    let report = run_fault_campaign(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    println!(
        "  {:<16} {:>5} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9}",
        "class", "sites", "trials", "disturbed", "recovered", "p50", "p99", "nonrec", "mean dip"
    );
    for c in &report.classes {
        println!(
            "  {:<16} {:>5} {:>7} {:>9} {:>9} {:>8.1} {:>8.1} {:>7.1}% {:>9.4}",
            c.class,
            c.sites,
            c.trials,
            c.disturbed,
            c.recovered,
            c.recovery_p50,
            c.recovery_p99,
            c.non_recovery_rate * 100.0,
            c.mean_dip
        );
    }
    println!(
        "  {} jobs in {:.2}s on {} worker(s)",
        report.jobs.len(),
        report.wall_secs,
        report.threads
    );

    // Sensitivity gate: a campaign in which no class disturbed anything
    // measured nothing — fail loudly instead of archiving empty
    // distributions (mirrors the fuzz campaign's eligible > 0 rule).
    let disturbed: usize = report.classes.iter().map(|c| c.disturbed).sum();
    if !report.classes.is_empty() && disturbed == 0 {
        eprintln!(
            "error: no injected fault disturbed any lane — widen --topologies or move --seed"
        );
        std::process::exit(1);
    }

    if args.iter().any(|a| a == "--check") {
        let alt = FaultCampaignOpts {
            threads: if report.threads == 1 { 2 } else { 1 },
            queue: if opts.queue == 1 { 4 } else { 1 },
            ..opts.clone()
        };
        let reference = run_fault_campaign(&alt).unwrap_or_else(|e| {
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
