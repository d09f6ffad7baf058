//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all            # every artifact, in paper order
//! repro table1 fig4    # specific artifacts
//! repro --list         # show available artifact names
//! ```
//!
//! Environment: `LDP_TRIALS` (subsequences per cell, default 30),
//! `LDP_QUICK=1` (smoke-test sizes), `LDP_SEED`, `LDP_CROWD_USERS`.
//! An unknown artifact name or an unparseable variable exits 2 before
//! anything is computed.

use ldp_experiments::artifacts;
use ldp_experiments::ExperimentConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: repro [--list] <artifact>... | all");
        eprintln!("artifacts: {}", artifacts::names().join(", "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for name in artifacts::names() {
            println!("{name}");
        }
        return;
    }

    let requested = artifacts::resolve(&args).unwrap_or_else(|name| {
        eprintln!(
            "unknown artifact '{name}'; available: {}",
            artifacts::names().join(", ")
        );
        std::process::exit(2);
    });
    let cfg = ExperimentConfig::from_env().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "# config: trials={} crowd_users={} seed={:#x}",
        cfg.trials, cfg.crowd_users, cfg.seed
    );

    for name in requested {
        println!("{}", artifacts::run(name, &cfg).expect("resolved name"));
    }
}
