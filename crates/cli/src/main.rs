//! The `lru-leak` binary: parse argv, delegate to the library,
//! print.

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match lru_leak_cli::run_cli(&args) {
        Ok(out) => {
            if let Err(e) = write_stdout(&out) {
                eprintln!("lru-leak: cannot write the output: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            // Partial run-all failures carry the completed cells'
            // deterministic output; print it before the diagnosis.
            if let Some(out) = &e.stdout {
                if let Err(write_err) = write_stdout(out) {
                    eprintln!("lru-leak: cannot write the output: {write_err}");
                }
            }
            eprintln!("{}", e.message);
            std::process::exit(e.code);
        }
    }
}

/// Writes `out` to stdout through one locked handle. A reader that
/// closes the pipe early (`lru-leak … | head`) has taken all it
/// wanted, so a broken pipe counts as written, not as an error.
fn write_stdout(out: &str) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    match stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        written => written,
    }
}
