//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable tables, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when the
//! output check fails and 2 on a usage or set-up error.

use perfbench::run::{run, Options};
use perfbench::workload::Kind;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <hot-stream|tenant-mix|replicated-feed> \
                     --seed <u64> --seconds <secs> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { kind: Kind::HotStream, seed: 1, seconds: 16.0, trace: false, corrupt: false };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (closed loop, {} connections; server: {} \
         workers, queue depth {}; available parallelism {})",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        perfbench::workload::CONNECTIONS,
        perfbench::workload::WORKERS,
        perfbench::workload::QUEUE_DEPTH,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match run(&opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for metric in &report.metrics {
                println!("  {:<48} {:>14.4} {}", metric.name, metric.value, metric.unit);
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
