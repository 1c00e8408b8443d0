//! `mwp-ledger`: the repository's benchmark of record.
//!
//! ```text
//! mwp-ledger --workload <holm-tcp|lu-chan|serve-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's checked steady-state
//! operations on a warm session and prints the end-to-end metrics. With
//! `--trace 1` it measures every layer — microbenchmarks plus short
//! untraced runs of all three runtimes — then runs the named workload
//! again under the span capture and prints the per-layer table. The last
//! line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod layers;
mod stats;
mod steal;
mod tracing;
mod workloads;

use stats::roofline_gflops;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use tracing::Tracer;
use workloads::{HolmInputs, Plan, Report, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: mwp-ledger --workload <holm-tcp|lu-chan|serve-tcp> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds '{value}' (1..=600)"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every `MWP_*` switch changes what the runtime does, so the benchmark
/// refuses to measure under any of them: parent and change then always
/// run the same configuration. `MWP_TRACE` is tolerated in the traced
/// run only, where it adds a streamed copy of the spans.
fn pinned_env_violation(
    vars: impl Iterator<Item = (String, String)>,
    trace: bool,
) -> Option<String> {
    vars.map(|(k, _)| k)
        .filter(|k| k.starts_with("MWP_"))
        .find(|k| !(trace && k == "MWP_TRACE"))
}

/// One printed metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mwp-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = pinned_env_violation(std::env::vars(), args.trace) {
        eprintln!("mwp-ledger: refusing to run with {var} set; unset every MWP_* switch");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "config: workload={} seed={} seconds={} trace={} kernel={} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mwp_blockmat::kernel::active().name(),
    );

    let steal = steal::Meter::start();
    let budget = Duration::from_secs(args.seconds);
    let (reports, mut metrics) = if args.trace {
        traced(args.workload, args.seed, budget, nproc)
    } else {
        let plan = Plan {
            segments: args.workload.segments(),
            budget,
        };
        let report = workloads::run(args.workload, args.seed, plan, &mut Tracer::new(false));
        let metrics = end_to_end(&report);
        let wall_ms = report.ops.median_wall().map_or(f64::NAN, |s| s * 1e3);
        println!("info: wall makespan_ms = {wall_ms:.4} ms (steal not taken out)");
        for (name, value, unit) in &report.layer {
            println!("info: {name} = {value:.4} {unit}");
        }
        (vec![report], metrics)
    };
    let steal_frac = steal.share();
    if args.trace {
        metrics.push(("host.steal_frac", steal_frac, "fraction"));
    } else {
        println!("info: host.steal_frac = {steal_frac:.4} fraction");
    }

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>14.4} {unit}");
    }
    println!("attempted {attempted}, failed {failed}");
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0 && finite,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The gated metrics of one untraced run.
fn end_to_end(report: &Report) -> Vec<Metric> {
    let nan = f64::NAN;
    vec![
        ("makespan_ms", report.makespan_ms().unwrap_or(nan), "ms"),
        ("setup_s", report.setup_s().unwrap_or(nan), "s"),
        ("peak_heap_mb", report.peak_heap_mb().unwrap_or(nan), "MB"),
    ]
}

/// The per-layer table: every layer's microbenchmark, a short untraced run
/// of each runtime for its counters, then `workload` under the span
/// capture for the trace breakdown.
fn traced(
    workload: Workload,
    seed: u64,
    budget: Duration,
    nproc: usize,
) -> (Vec<Report>, Vec<Metric>) {
    let probe = Plan {
        segments: 1,
        budget: budget / 2,
    };
    let mut reports: Vec<Report> = Workload::ALL
        .iter()
        .map(|&w| workloads::run(w, seed, probe, &mut Tracer::new(false)))
        .collect();
    let get = |reports: &[Report], name: &str| {
        reports
            .iter()
            .flat_map(|r| &r.layer)
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    };

    let kernel = layers::kernel_q80_gflops();
    let (pump_gbps, pump_frame_us) = layers::pump().unwrap_or_else(|| {
        // An echo that came back altered is a failed check.
        reports[0].failed += 1;
        (f64::NAN, f64::NAN)
    });
    let (port_ns, port_pair_ns) = layers::port_acquire_ns();
    let a = HolmInputs::operand(seed);
    let mut metrics: Vec<Metric> = vec![
        ("kernel.q80_gflops", kernel, "GFLOP/s"),
        ("payload.build_gbps", layers::payload_build_gbps(&a), "GB/s"),
        (
            "frame.encode_crc_gbps",
            layers::frame_encode_crc_gbps(),
            "GB/s",
        ),
        ("crc.gbps", layers::crc_gbps(), "GB/s"),
        ("pump.loopback_gbps", pump_gbps, "GB/s"),
        ("pump.frame_us", pump_frame_us, "us"),
        ("port.acquire_ns", port_ns, "ns"),
        ("port.acquire_2t_ns", port_pair_ns, "ns"),
        ("run.empty_us", layers::run_empty_us(), "us"),
        ("sched.dispatch_us", layers::sched_dispatch_us(), "us"),
    ];
    drop(a);

    // HoLM against its roofline: the lesser of the workers' kernel rate
    // and the one-port bound at the measured pump rate.
    let moved = get(&reports, "holm.blocks_moved");
    let bytes = moved * (8 * workloads::Q * workloads::Q) as f64;
    let workers = get(&reports, "holm.workers_used");
    let holm_gflops = get(&reports, "holm.gflops");
    let roof = roofline_gflops(
        workers as usize,
        nproc,
        kernel,
        HolmInputs::FLOPS,
        bytes,
        pump_gbps,
    );
    for r in &reports {
        metrics.extend(r.layer.iter().copied());
    }
    metrics.push(("holm.roofline_frac", holm_gflops / roof, "fraction"));

    let mut tracer = Tracer::new(true);
    let plan = Plan {
        segments: 1,
        budget: budget.min(workload.traced_budget()),
    };
    let traced = workloads::run(workload, seed, plan, &mut tracer);
    let overhead = tracer.overhead();
    let (trace, spans) = tracer.finish();
    metrics.extend(tracing::breakdown(
        &trace,
        &spans,
        workload.op_span(),
        workloads::platform().len(),
    ));
    metrics.push(("trace.overhead", overhead, "ratio"));

    let path = trace_dir().join(format!("ledger-trace-{}.json", workload.name()));
    match tracing::write_chrome(&path, &trace, &spans) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            trace.activities.len() + spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("mwp-ledger: cannot write {}: {e}", path.display()),
    }
    reports.push(traced);
    (reports, metrics)
}

/// Where the traced run's span file goes: the build directory.
fn trace_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload lu-chan --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::LuChan);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload lu-chan --seed 7 --seconds 10").is_err());
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload lu-chan --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload lu-chan --seed 7 --seconds 10 --trace 2").is_err());
    }

    #[test]
    fn refuses_every_mwp_switch_but_trace_in_the_traced_run() {
        let env = |k: &str| {
            vec![
                (k.to_string(), "x".to_string()),
                ("PATH".into(), "/bin".into()),
            ]
        };
        assert_eq!(
            pinned_env_violation(env("MWP_KERNEL").into_iter(), true),
            Some("MWP_KERNEL".into())
        );
        assert_eq!(
            pinned_env_violation(env("MWP_TRACE").into_iter(), false),
            Some("MWP_TRACE".into())
        );
        assert_eq!(
            pinned_env_violation(env("MWP_TRACE").into_iter(), true),
            None
        );
        assert_eq!(pinned_env_violation(env("HOME").into_iter(), false), None);
    }
}
