//! `pif-analyze` — static action-interference & model-conformance
//! analyzer CLI.
//!
//! Analyzes the paper's PIF protocol and the three baselines on small
//! topologies, printing a machine-readable JSON report to stdout (shape
//! documented in `pif_analyze::report`). Exit status: `0` when every
//! verdict matches expectations, `2` when a certified-clean protocol
//! produced diagnostics (or a mutant failed to), `1` on usage errors.
//!
//! ```text
//! pif-analyze [--protocol pif|echo|ss|tree|all] [--mutants] [--list]
//! ```

use std::process::ExitCode;

use pif_analyze::mutants::{
    CyclicCorrectionPif, DisabledFokPif, NeighborWriteSpecPif, OverclaimedInterferencePif,
    SkipCleaningPif, UnderReadEcho, WidenedCorrectionPif,
};
use pif_analyze::{analyze, report, Analysis, Code};
use pif_baselines::echo::EchoProtocol;
use pif_baselines::ss_pif::SsPifProtocol;
use pif_baselines::tree_pif::TreePifProtocol;
use pif_core::PifProtocol;
use pif_daemon::cli::{ArgError, Args};
use pif_graph::{generators, Graph, ProcId};

const USAGE: &str = "usage: pif-analyze [--protocol pif|echo|ss|tree|all] [--mutants] [--list]

  --protocol NAME   analyze a single protocol (default: all)
  --mutants         analyze the mutant suite instead; expects diagnostics
  --list            list protocol/topology pairs and exit";

struct Opts {
    protocol: String,
    mutants: bool,
    list: bool,
    help: bool,
}

fn parse_args() -> Result<Opts, ArgError> {
    let switches = ["--mutants", "--list", "--help", "-h"];
    let args = Args::parse(std::env::args_os().skip(1), &["--protocol"], &switches, &[])?;
    Ok(Opts {
        protocol: args.get_or("--protocol", "all".to_string())?,
        mutants: args.switch("--mutants"),
        list: args.switch("--list"),
        help: args.switch("--help") || args.switch("-h"),
    })
}

fn topology(name: &str) -> Graph {
    match name {
        "chain2" => generators::chain(2),
        "chain3" => generators::chain(3),
        "triangle" => generators::ring(3),
        "star4" => generators::star(4),
        other => panic!("unknown topology {other}"),
    }
    .expect("builtin topology must construct")
}

/// The certified suite: every pair must analyze with zero diagnostics.
fn clean_suite(which: &str) -> Vec<(&'static str, &'static str)> {
    let all = [
        ("pif", "chain2"),
        ("pif", "chain3"),
        ("pif", "triangle"),
        ("echo", "chain2"),
        ("echo", "chain3"),
        ("echo", "triangle"),
        ("ss", "chain2"),
        ("ss", "chain3"),
        ("ss", "triangle"),
        ("tree", "chain2"),
        ("tree", "chain3"),
        ("tree", "star4"),
    ];
    all.iter().copied().filter(|(p, _)| which == "all" || which == *p).collect()
}

fn run_clean(protocol: &str, topo: &str) -> Analysis {
    let g = topology(topo);
    let root = ProcId(0);
    match protocol {
        "pif" => analyze(&PifProtocol::new(root, &g), &g, protocol, topo),
        "echo" => analyze(&EchoProtocol::new(root, 7), &g, protocol, topo),
        "ss" => analyze(&SsPifProtocol::new(root, g.len(), 7), &g, protocol, topo),
        "tree" => analyze(&TreePifProtocol::on_tree(&g, root, 7), &g, protocol, topo),
        other => panic!("unknown protocol {other}"),
    }
}

/// The mutant suite: each entry must produce its expected code — and
/// *only* that code (each mutant is a negative control for exactly one
/// check).
fn run_mutants() -> Vec<(Analysis, Code)> {
    let g = topology("chain2");
    let root = ProcId(0);
    vec![
        (
            analyze(&WidenedCorrectionPif::new(root, &g), &g, "pif-widened-correction", "chain2"),
            Code::AN002,
        ),
        (
            analyze(
                &NeighborWriteSpecPif::new(root, &g),
                &g,
                "pif-neighbor-write-spec",
                "chain2",
            ),
            Code::AN001,
        ),
        (
            analyze(&UnderReadEcho::new(root, 7), &g, "echo-under-read", "chain2"),
            Code::AN003,
        ),
        (
            analyze(&SkipCleaningPif::new(root, &g), &g, "pif-skip-cleaning", "chain2"),
            Code::AN008,
        ),
        (
            analyze(&CyclicCorrectionPif::new(root, &g), &g, "pif-cyclic-correction", "chain2"),
            Code::AN009,
        ),
        (
            analyze(
                &OverclaimedInterferencePif::new(root, &g),
                &g,
                "pif-overclaimed-interference",
                "chain2",
            ),
            Code::AN010,
        ),
        (
            analyze(&DisabledFokPif::new(root, &g), &g, "pif-disabled-fok", "chain2"),
            Code::AN011,
        ),
    ]
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pif-analyze: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if opts.list {
        for (p, t) in clean_suite(&opts.protocol) {
            println!("{p} {t}");
        }
        return ExitCode::SUCCESS;
    }

    if opts.mutants {
        let runs = run_mutants();
        let mut ok = true;
        for (a, expected) in &runs {
            let hit = a.diagnostics.iter().any(|d| d.code == *expected);
            let exclusive = a.diagnostics.iter().all(|d| d.code == *expected);
            if !hit {
                eprintln!(
                    "pif-analyze: mutant `{}` did not trigger {expected}",
                    a.protocol
                );
                ok = false;
            } else if !exclusive {
                let stray: Vec<&str> = a
                    .diagnostics
                    .iter()
                    .filter(|d| d.code != *expected)
                    .map(|d| d.code.as_str())
                    .collect();
                eprintln!(
                    "pif-analyze: mutant `{}` fired stray codes {stray:?} besides {expected}",
                    a.protocol
                );
                ok = false;
            }
        }
        let analyses: Vec<Analysis> = runs.into_iter().map(|(a, _)| a).collect();
        println!("{}", report::render(&analyses));
        return if ok { ExitCode::SUCCESS } else { ExitCode::from(2) };
    }

    let suite = clean_suite(&opts.protocol);
    if suite.is_empty() {
        eprintln!("pif-analyze: unknown protocol `{}`\n{USAGE}", opts.protocol);
        return ExitCode::from(1);
    }
    let analyses: Vec<Analysis> = suite.iter().map(|(p, t)| run_clean(p, t)).collect();
    let mut ok = true;
    for a in &analyses {
        if !a.clean() {
            for d in &a.diagnostics {
                eprintln!(
                    "pif-analyze: {}/{}: {} {} at action `{}`: {}",
                    a.protocol,
                    a.topology,
                    d.code,
                    d.code.title(),
                    d.action,
                    d.message
                );
            }
            ok = false;
        }
    }
    println!("{}", report::render(&analyses));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
