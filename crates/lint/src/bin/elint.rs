//! `elint` — static analysis driver for elastic systems.
//!
//! Lints the five named paper systems (Table 1 configurations) and,
//! optionally, a sweep of generated topologies, at every IR level: the
//! component network (token-liveness, arity, counterflow, reachability,
//! throughput bound), then the compiled gate netlist's levelized tapes
//! before and after peephole optimization (translation validation).
//!
//! Usage: `elint [--seed N] [--gen-count N] [--corpus] [--skip-tape]
//! [--json PATH] [--quiet]`
//!
//! `--corpus` additionally lints every benchmark-corpus design
//! (`elastic_core::corpus`) under all five control configurations.
//!
//! Exits 0 when no target produced an error diagnostic, 1 otherwise
//! (warnings never fail the run), 2 on a usage error.

use elastic_core::compile::{compile, CompileOptions};
use elastic_core::corpus::{self, CorpusConfig, Knobs, DESIGNS};
use elastic_core::gen::{generate, TopoParams, GEN_DATA_WIDTH};
use elastic_core::systems::{paper_example, Config};
use elastic_lint::{json_str, lint_network_with_env, lint_program, LintReport};
use elastic_netlist::levelize::Program;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, dflt: T) -> T {
    match args.iter().position(|a| a == flag) {
        None => dflt,
        Some(i) => {
            let raw = args.get(i + 1).unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            });
            raw.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value for {flag}: {raw:?}");
                std::process::exit(2);
            })
        }
    }
}

/// One linted target: its name and the merged findings of every pass
/// level that ran on it.
struct Target {
    name: String,
    report: LintReport,
}

/// Network + tape lint of one system. Tape validation compiles the
/// network (control + data rails) and checks the levelized program both
/// raw (strict dependency order) and after the peephole pass.
fn lint_system(
    name: &str,
    net: &elastic_core::network::ElasticNetwork,
    env: &elastic_core::sim::EnvConfig,
    data_width: usize,
    tape: bool,
) -> Target {
    let mut report = lint_network_with_env(net, env);
    if tape && report.is_clean() {
        let opts = CompileOptions {
            lint: false, // network passes above already cover liveness
            data_width,
            nondet_merge: false,
            optimize: false,
            fault: None,
            faults: vec![],
        };
        match compile(net, &opts) {
            Ok(compiled) => {
                match Program::compile(&compiled.netlist) {
                    Ok(p) => report.merge(lint_program(&compiled.netlist, &p, false)),
                    Err(e) => report.diagnostics.push(elastic_lint::Diagnostic::error(
                        "E204",
                        name.to_string(),
                        format!("levelization failed: {e}"),
                    )),
                }
                if let Ok((p, _)) = Program::compile_optimized(&compiled.netlist) {
                    report.merge(lint_program(&compiled.netlist, &p, true));
                }
            }
            Err(e) => report.diagnostics.push(elastic_lint::Diagnostic::error(
                "E102",
                name.to_string(),
                format!("compile failed: {e}"),
            )),
        }
    }
    Target {
        name: name.to_string(),
        report,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = parse_flag(&args, "--seed", 2007);
    let gen_count: usize = parse_flag(&args, "--gen-count", 0);
    let corpus = args.iter().any(|a| a == "--corpus");
    let tape = !args.iter().any(|a| a == "--skip-tape");
    let quiet = args.iter().any(|a| a == "--quiet");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());

    let mut targets = Vec::new();
    for config in Config::all() {
        let sys = match paper_example(config) {
            Ok(sys) => sys,
            Err(e) => {
                eprintln!("error: building {} failed: {e}", config.label());
                std::process::exit(2);
            }
        };
        targets.push(lint_system(
            config.label(),
            &sys.network,
            &sys.env_config,
            2,
            tape,
        ));
    }
    if corpus {
        for design in DESIGNS {
            for config in CorpusConfig::all() {
                let name = format!("{design}/{}", config.tag());
                match corpus::build(design, config, &Knobs::default()) {
                    Ok(sys) => targets.push(lint_system(
                        &name,
                        &sys.network,
                        &sys.env,
                        sys.data_width,
                        tape,
                    )),
                    Err(e) => {
                        eprintln!("error: building {name} failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
    }
    for i in 0..gen_count {
        let topo_seed = seed.wrapping_add(i as u64);
        let params = TopoParams::sample(topo_seed);
        match generate(&params) {
            Ok(sys) => targets.push(lint_system(
                &format!("gen-{topo_seed}"),
                &sys.network,
                &sys.env,
                GEN_DATA_WIDTH,
                tape,
            )),
            Err(e) => targets.push(Target {
                name: format!("gen-{topo_seed}"),
                report: LintReport::new(vec![elastic_lint::Diagnostic::error(
                    "E104",
                    format!("gen-{topo_seed}"),
                    format!("generation failed: {e}"),
                )]),
            }),
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for t in &targets {
        let e = t.report.errors().count();
        let w = t.report.warnings().count();
        errors += e;
        warnings += w;
        if !quiet && (e + w > 0) {
            println!("== {}", t.name);
            print!("{}", t.report.render_human());
        }
    }
    println!(
        "elint: {} target(s), {errors} error(s), {warnings} warning(s)",
        targets.len()
    );

    if let Some(path) = json_path {
        let mut s = String::from("{\n  \"targets\": [\n");
        for (i, t) in targets.iter().enumerate() {
            let sep = if i + 1 == targets.len() { "" } else { "," };
            // Indent the per-target diagnostics array under its object.
            let diags = t.report.render_json().replace('\n', "\n    ");
            s.push_str(&format!(
                "    {{\"name\": {}, \"errors\": {}, \"warnings\": {}, \
                 \"diagnostics\": {diags}}}{sep}\n",
                json_str(&t.name),
                t.report.errors().count(),
                t.report.warnings().count(),
            ));
        }
        s.push_str(&format!(
            "  ],\n  \"errors\": {errors},\n  \"warnings\": {warnings},\n  \"ok\": {}\n}}\n",
            errors == 0
        ));
        if let Err(e) = std::fs::write(&path, s) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }

    std::process::exit(i32::from(errors > 0));
}
