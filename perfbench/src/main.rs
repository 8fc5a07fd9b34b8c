//! End-to-end and per-layer benchmark of the Scavenger engine and server.
//!
//! ```text
//! perfbench --workload update_gc|read_mostly|server_sync --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload loads one layer heavily and leaves the others mostly
//! idle. A run sets up its store several times (reporting the median
//! set-up time), measures for `--seconds`, and checks every answer
//! against the inputs it made from `--seed`. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it runs again with the engine
//! and env wrapped in span recorders and prints the per-layer metrics.
//! The line before the result is a manifest: machine, env, flush policy,
//! dataset and cache sizes, and the sample count behind every latency.

mod direct;
mod gen;
mod report;
mod server;
mod stats;
mod tengine;
mod tenv;
mod trace;

use report::result_line;
use std::process::ExitCode;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload update_gc|read_mostly|server_sync \
--seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => seconds = Some(num(&val)?.max(1)),
            "--trace" => trace = Some(num(&val)? != 0),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match args.workload.as_str() {
        "update_gc" => direct::run(&direct::UPDATE_GC, &args),
        "read_mostly" => direct::run(&direct::READ_MOSTLY, &args),
        "server_sync" => server::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let p = &run.phase;
    if p.attempted == 0 {
        eprintln!("{}: no operation was attempted", args.workload);
        return ExitCode::FAILURE;
    }
    if let Some(m) = &p.first_mismatch {
        eprintln!(
            "{}: {} wrong answers; first: {m}",
            args.workload, p.mismatches
        );
    }
    if p.behind {
        eprintln!("{}: the generator fell behind its schedule", args.workload);
    }
    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    if let Some(t) = &run.trace {
        eprintln!(
            "{:>32} {:>10} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in &t.breakdown.by_name {
            let (total, own) = (*total as f64 / 1e6, *own as f64 / 1e6);
            eprintln!("{name:>32} {n:>10} {total:>12.3} {own:>12.3}");
        }
    }
    let shown = if args.trace {
        Vec::new()
    } else {
        run.ungated()
    };
    for (name, value, unit) in metrics.iter().chain(&shown) {
        eprintln!("{name:>32} {value:>14.4} {unit}");
    }
    println!("{}", run.manifest());
    println!(
        "{}",
        result_line(
            p.mismatches == 0 && !p.behind,
            p.attempted,
            p.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
