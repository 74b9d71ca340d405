//! `perfbench` — the Rust half of the repository benchmark.
//!
//! ```text
//! perfbench ingest --size small|large --seed N --seconds S --rate R [--trace] [--spans FILE]
//! perfbench repro-trace --seed N --threads T [--spans FILE]
//! ```
//!
//! Each subcommand prints one JSON object on standard output. `run.py`
//! builds this binary and `repro`, runs the workloads and checks them.

mod ingest;
mod inputs;
mod replay;
mod repro;
mod span;
mod stats;

use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: perfbench ingest --size small|large --seed N --seconds S --rate R [--trace] [--spans FILE]");
    eprintln!("       perfbench repro-trace --seed N --threads T [--spans FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage("no subcommand");
    };
    let mut size = None;
    let mut seed: u64 = 2016_0604;
    let mut seconds = 10.0;
    let mut rate = 0.0;
    let mut threads = 2;
    let mut trace = false;
    let mut spans = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--size" => {
                size = match value().as_str() {
                    "small" => Some(inputs::Size::Small),
                    "large" => Some(inputs::Size::Large),
                    other => return usage(&format!("unknown size {other:?}")),
                }
            }
            "--seed" => match value().parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed needs an integer"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return usage("--seconds needs a positive number"),
            },
            "--rate" => match value().parse::<f64>() {
                Ok(v) if v > 0.0 => rate = v,
                _ => return usage("--rate needs a positive number"),
            },
            "--threads" => match value().parse() {
                Ok(v) => threads = v,
                Err(_) => return usage("--threads needs an integer"),
            },
            "--spans" => spans = Some(std::path::PathBuf::from(value())),
            "--trace" => trace = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let out = match command.as_str() {
        "ingest" => {
            let Some(size) = size else {
                return usage("ingest needs --size");
            };
            if rate <= 0.0 {
                return usage("ingest needs --rate");
            }
            let args = ingest::Args {
                size,
                seed,
                seconds,
                trace,
                rate,
                spans_out: spans,
            };
            match ingest::run(&args) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("ingest failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "repro-trace" => repro::run(seed, threads, spans.as_deref()),
        other => return usage(&format!("unknown subcommand {other:?}")),
    };
    println!("{}", serde_json::to_string(&out).expect("serializable"));
    ExitCode::SUCCESS
}
