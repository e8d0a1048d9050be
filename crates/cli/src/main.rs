//! The `tussle-cli` binary: see [`tussle_cli`] for the commands.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Usage text accompanies *parse* failures only; a command that parsed
    // fine but failed to execute (unknown experiment, empty trace filter)
    // reports just its error.
    let cmd = match tussle_cli::parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", tussle_cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match tussle_cli::execute(cmd) {
        Ok(text) => match tussle_cli::write_output(&mut std::io::stdout().lock(), &text) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: writing output: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
