//! End-to-end and per-layer benchmark of the dynamic-data-layout DFT
//! library.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <dft_large|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints an environment header, one line per metric (name, value,
//! unit) and, as the last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics. See
//! `benchmark/README.md` for what each workload and metric means.

mod batch;
mod host;
mod oracle;
mod replay;
mod report;
mod rng;
mod serve;
mod stats;
mod workloads;

use report::{Report, END_TO_END, PER_LAYER};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Measure the library's defaults: no backend override, wisdom store,
    // telemetry outputs or fault/chaos arming from the environment. This
    // runs before any other thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DDL_") {
            std::env::remove_var(&key);
        }
    }
    let header = host::header(args.workload.name(), args.seed, args.seconds, args.trace);
    let mut report = Report::default();
    workloads::run(
        args.workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        &mut report,
    );
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", report.render(&header, wanted));
}
