//! One workload run of the simulator benchmark, in its own process.
//!
//! ```text
//! perfbench run --workload <fig3-sweep|fig5-fig6> --seed N
//!               --trace 0|1 [--spans FILE]
//! perfbench pins
//! ```
//!
//! `run` prints one JSON object on stdout: the cells attempted and
//! failed (with reasons), the host memory-latency probe, set-up, wall
//! and CPU seconds, simulated operations and, with `--trace 1`, the
//! per-layer metrics and each layer's self time. `--spans` writes the traced run's spans as JSON
//! lines. `pins` prints the simulated totals to pin in `src/pins.rs`.
//! `run.py` next to this crate drives it; see there for the metrics.
//! The paper kernels' inputs are constants inside `mtlb-workloads`, so
//! every seed runs the same inputs; the seed is reported, not used.

mod common;
mod defects;
mod fig3;
mod fig56;
mod host;
mod pins;
mod span;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::RunResult;
use span::Tracer;

/// The workloads, by the names `BENCHMARK.json` gives them.
const WORKLOADS: [&str; 2] = ["fig3-sweep", "fig5-fig6"];
/// Runner worker threads: the 2 CPUs of the host the benchmark was
/// defined on, fixed so that results compare across hosts.
const THREADS: usize = 2;
/// Set-up repetitions in one run; the run reports their median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = num(value()?)?,
            "--trace" => a.trace = num(value()?)? != 0,
            "--spans" => a.spans = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn run(a: &Args) -> Result<(), String> {
    let host_probe_s = host::probe_s();
    let mut tracer = Tracer::new(a.trace, format!("{}-seed{}", a.workload, a.seed));
    let res = tracer.span("bench.run", |t| match a.workload.as_str() {
        "fig3-sweep" => fig3::run(THREADS, SETUP_REPS, t),
        _ => fig56::run(THREADS, SETUP_REPS, t),
    });
    if let Some(path) = &a.spans {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", to_json(a, host_probe_s, &res, &tracer));
    Ok(())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn to_json(a: &Args, host_probe_s: f64, r: &RunResult, tracer: &Tracer) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"threads\":{},\"attempted\":{},\"failed\":{},",
        a.workload,
        a.seed,
        u8::from(a.trace),
        THREADS,
        r.cells.attempted(),
        r.cells.failed()
    );
    let reasons: Vec<String> = r.cells.reasons().iter().map(|x| format!("{x:?}")).collect();
    let _ = write!(
        s,
        "\"failures\":[{}],\"host_probe_s\":{},\"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"sim_ops\":{},",
        reasons.join(","),
        num(host_probe_s),
        num(r.setup_s),
        num(r.wall_s),
        num(r.cpu_s),
        r.sim_ops
    );
    let layers: Vec<String> = r
        .layers
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let self_s: Vec<String> = tracer
        .self_s_by_layer()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let _ = write!(
        s,
        "\"layers\":{{{}}},\"self_s\":{{{}}}}}",
        layers.join(","),
        self_s.join(",")
    );
    s
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        Some("run") => parse(args).and_then(|a| run(&a)),
        Some("pins") => {
            fig3::print_pins(THREADS);
            fig56::print_pins(THREADS);
            Ok(())
        }
        _ => Err("usage: perfbench run --workload W --seed N --trace 0|1 [--spans FILE] | perfbench pins".into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
