//! Command-line entry point; see the crate docs and `README.md`.

use perfbench::{host_record, run, Config};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Run from the repository root: golden reports are read from there.
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: cannot read the working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let config = match Config::parse(std::env::args().skip(1), root) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.report(&host_record(&config.root)));
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed or never ran; see the FAILED lines above");
        ExitCode::FAILURE
    }
}
