//! The repository benchmark: one workload, one seed, against an
//! in-process `ReactorServer` on loopback TCP driven by `CacheClient`s.
//!
//! ```text
//! perfbench --workload <flows_cep|durable_upsert|window_poll> --seed N
//!           --seconds S --trace <0|1> --work DIR
//! ```
//!
//! `--trace 0` measures with no benchmark-side spans and prints the
//! end-to-end metrics. `--trace 1` runs the same untraced phase, then a
//! fresh traced phase of a fixed amount of work, and prints the
//! per-layer metrics plus the tracing overhead (traced − untraced) of
//! every end-to-end metric. The last stdout line is the JSON result.

mod durable_upsert;
mod flows_cep;
mod host;
mod report;
mod stats;
mod window_poll;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Metrics, Outcome, END_TO_END, PER_LAYER};

const WATCHDOG: Duration = Duration::from_secs(170);

/// Which measurement a phase takes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Timed for `--seconds`, no benchmark-side spans.
    Untraced,
    /// A fixed amount of work (sized from `--seconds`) with spans,
    /// registry scrapes and in-process replays, so counts repeat exactly.
    Traced,
}

/// When a load loop stops issuing.
pub enum Stop {
    /// At a deadline (untraced phases and warm-ups).
    At(std::time::Instant),
    /// After a fixed number of operations (traced phases).
    Count(u64),
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = Some(value == "1"),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10u64).max(1),
        trace: trace.unwrap_or(false),
        work: work.unwrap_or_else(|| PathBuf::from("perfbench/target/perfbench-work")),
    };
    Ok(args)
}

fn run_phase(args: &Args, mode: Mode) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "flows_cep" => flows_cep::run(args, mode),
        "durable_upsert" => durable_upsert::run(args, mode),
        "window_poll" => window_poll::run(args, mode),
        other => Err(format!("unknown workload {other}")),
    }
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, value) in metrics.iter() {
        println!("  {name:<40} {value:.3}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A wedged server must not hold the run past its time limit.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let nproc = host::nproc();
    let timer_late = host::timer_late_p99_us();
    let jiffies = host::cpu_jiffies();

    let base = match run_phase(&args, Mode::Untraced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let traced = if args.trace {
        match run_phase(&args, Mode::Traced) {
            Ok(o) => Some(o),
            Err(e) => {
                eprintln!("perfbench: traced {} failed: {e}", args.workload);
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    let steal = host::steal_pct(jiffies, host::cpu_jiffies());

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host: nproc {nproc}, timer_late_p99 {timer_late:.1} us, steal {steal:.2}%");
    for line in &base.notes {
        println!("{line}");
    }
    print_metrics("end-to-end (untraced):", &base.e2e);
    let failed_ratio = base.failed_ratio();
    let mut detail = base.detail;
    detail.put("failed_ratio", failed_ratio);
    print_metrics("workload end-to-end (untraced):", &detail);

    let (correct, attempted, failed, metrics, catalogue) = match traced {
        None => (
            base.correct,
            base.attempted,
            base.failed,
            base.e2e,
            END_TO_END,
        ),
        Some(t) => {
            for line in &t.notes {
                println!("{line}");
            }
            let mut layers = t.layers;
            layers.put("host.nproc", nproc as f64);
            layers.put("host.timer_late_p99_us", timer_late);
            layers.put("host.steal_pct", steal);
            for (name, v) in detail.iter() {
                layers.put(format!("e2e.{name}"), *v);
            }
            println!("tracing overhead (traced - untraced):");
            for (name, _) in END_TO_END {
                let on = t.e2e.get(name).unwrap_or(0.0);
                let off = base.e2e.get(name).unwrap_or(0.0);
                println!("  {name:<40} {:.3} ({on:.3} - {off:.3})", on - off);
                layers.put(format!("trace_overhead.{name}"), on - off);
            }
            print_metrics("per-layer (traced):", &layers);
            (
                base.correct && t.correct,
                base.attempted + t.attempted,
                base.failed + t.failed,
                layers,
                PER_LAYER,
            )
        }
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics, catalogue)
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
