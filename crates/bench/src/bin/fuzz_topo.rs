//! Differential fuzz campaign over randomly generated elastic topologies.
//!
//! Samples `--count` seeded topologies (`elastic_core::gen`) — random
//! fork/join graphs with early-evaluation joins, anti-token counterflow,
//! buffer chains, variable-latency units and ring back edges, live by
//! construction — and cross-checks each of them three ways:
//!
//! 1. the behavioural reference simulator, whose per-channel transfer
//!    trace is replayed onto an independently lowered dual marked graph
//!    with per-arc token capacity windows (`elastic_dmg::exec::Replayer`);
//! 2. the PR-4 compiled execution pipeline (optimizing compile →
//!    peephole tape → packed-stimulus wide simulation), compared
//!    rail-for-rail per cycle per lane;
//! 3. the analytic `min_cycle_ratio` throughput bound, which lazy samples
//!    must respect.
//!
//! Any mismatch is shrunk to a minimal failing `TopoParams` and reported;
//! the process exits non-zero. `--inject` flips the campaign into its
//! sensitivity self-test: each seed compiles one fault from the full
//! family — dropped anti-token, rail flip, stuck-at-0/1 valids and stops,
//! duplicated token, lost token — into a probed-effective site, and every
//! injected fault must be caught by the differential; a silently accepted
//! fault is shrunk to minimal `TopoParams` and reported.
//!
//! Usage: `fuzz_topo [--seed N] [--count N] [--cycles N] [--lanes N]
//! [--threads N] [--json PATH] [--inject]`

use elastic_bench::exp::{default_threads, parse_flag};
use elastic_bench::fuzz::{run_fuzz, FuzzOpts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = FuzzOpts {
        seed: parse_flag(&args, "--seed", 1),
        count: parse_flag(&args, "--count", 200usize).max(1),
        cycles: parse_flag(&args, "--cycles", 256usize).max(1),
        lanes: parse_flag(&args, "--lanes", 4usize).max(1),
        threads: parse_flag(&args, "--threads", default_threads()),
        inject: args.iter().any(|a| a == "--inject"),
    };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());

    println!(
        "fuzz_topo: {} topologies from seed {}, {} cycles x {} lanes, {} threads{}",
        opts.count,
        opts.seed,
        opts.cycles,
        opts.lanes,
        opts.threads,
        if opts.inject {
            " [inject: fault-family sensitivity self-test]"
        } else {
            ""
        }
    );

    let summary = run_fuzz(&opts);

    let passed = summary.outcomes.iter().filter(|o| o.report.is_ok()).count();
    let ee: usize = summary
        .outcomes
        .iter()
        .filter_map(|o| o.report.as_ref().ok())
        .map(|r| r.ee_joins)
        .sum();
    let bound_checked = summary
        .outcomes
        .iter()
        .filter_map(|o| o.report.as_ref().ok())
        .filter(|r| r.bound.is_some())
        .count();
    println!(
        "  {passed}/{} differentials clean ({ee} early joins exercised, \
         {bound_checked} bound checks) in {:.2}s",
        summary.outcomes.len(),
        summary.wall_secs
    );

    for o in summary.mismatches() {
        eprintln!("MISMATCH at seed {}:", o.seed);
        if let Err(e) = &o.report {
            eprintln!("  {e}");
        }
        eprintln!(
            "  minimal failing params: {:?}",
            o.minimal.as_ref().unwrap_or(&o.params)
        );
    }
    for o in summary.lint_violations() {
        eprintln!(
            "LINT VIOLATION at seed {}: {}\n  minimal failing params: {:?}",
            o.seed,
            o.lint.as_deref().unwrap_or("?"),
            o.minimal.as_ref().unwrap_or(&o.params)
        );
    }
    if opts.inject {
        let (lint_eligible, lint_caught) = summary.lint_sabotage_counts();
        println!("  lint token-drop sabotage: {lint_caught}/{lint_eligible} caught as E101");
        let (eligible, caught) = summary.injection_counts();
        println!("  injected faults: {caught}/{eligible} caught");
        for (class, e, c) in summary.injections_by_class() {
            if e > 0 {
                println!("    {class:<16} {c}/{e} caught");
            }
        }
        for m in summary.missed() {
            eprintln!(
                "MISSED INJECTION at seed {} (class {}): minimal params {:?}",
                m.seed,
                m.fault.unwrap_or("?"),
                m.minimal.as_ref().unwrap_or(&m.params)
            );
        }
        if eligible == 0 {
            eprintln!(
                "error: no topology in this band had an effective site for any fault \
                 class — the sensitivity self-test proved nothing (widen --count or \
                 move --seed)"
            );
        }
    }

    if let Some(path) = json_path {
        let name = format!(
            "fuzz_topo seed={} count={} cycles={} lanes={}{}",
            opts.seed,
            opts.count,
            opts.cycles,
            opts.lanes,
            if opts.inject { " inject" } else { "" }
        );
        summary.write_json(&name, &path).expect("write json");
        println!("wrote {path}");
    }

    if !summary.ok() {
        eprintln!("fuzz_topo: FAILED");
        std::process::exit(1);
    }
    println!("fuzz_topo: ok");
}
