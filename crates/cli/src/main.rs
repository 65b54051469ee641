//! `tlbmap` — command-line front end for the TLB-based communication
//! detection and thread-mapping library.
//!
//! ```text
//! tlbmap topo                          show the modelled machine
//! tlbmap detect <APP> [opts]           detect and print a communication matrix
//! tlbmap map <APP> [opts]              detect, map, print thread->core
//! tlbmap simulate <APP> [opts]         run under a mapping, print hardware events
//! tlbmap report <APP> [opts]           full pipeline: detect, map, before/after
//! tlbmap inspect --from <metrics.json> read a recorded run: counters, phases,
//!                                      accuracy timeline, cycle profile
//! tlbmap diff <a.json> <b.json>        compare two runs, optionally gate regressions
//! tlbmap serve [opts]                  run the mapping service over TCP
//! tlbmap client <action> [opts]        one request against a running service
//! tlbmap loadgen [opts]                open-loop load sweep (or --stream sessions)
//! tlbmap top [opts]                    live dashboard over a running service
//! ```
//!
//! `<APP>` is one of BT CG EP FT IS LU MG SP UA, or a synthetic pattern:
//! ring, pairs, pipeline, uniform, private.

mod analysis;
mod commands;
mod inspect;
mod opts;
mod serve_cmd;
mod top;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 2 {
        eprintln!("{}", opts::USAGE);
        return ExitCode::FAILURE;
    }
    let result = match args[1].as_str() {
        "topo" => commands::topo(),
        "detect" => opts::Options::parse(&args[2..]).and_then(commands::detect),
        "map" => opts::Options::parse(&args[2..]).and_then(commands::map),
        "simulate" => opts::Options::parse(&args[2..]).and_then(commands::simulate_cmd),
        "report" => opts::Options::parse(&args[2..]).and_then(commands::report),
        "stats" => opts::Options::parse(&args[2..]).and_then(commands::stats),
        "export" => opts::Options::parse(&args[2..]).and_then(commands::export),
        "inspect" => opts::InspectOptions::parse(&args[2..]).and_then(inspect::inspect),
        "diff" => opts::DiffOptions::parse(&args[2..]).and_then(analysis::diff),
        "serve" => serve_cmd::ServeOptions::parse(&args[2..]).and_then(serve_cmd::serve),
        "client" => serve_cmd::ClientOptions::parse(&args[2..], true).and_then(serve_cmd::client),
        "loadgen" => {
            serve_cmd::ClientOptions::parse(&args[2..], false).and_then(serve_cmd::loadgen)
        }
        "top" => top::TopOptions::parse(&args[2..]).and_then(top::top),
        "help" | "--help" | "-h" => {
            println!("{}", opts::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", opts::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
