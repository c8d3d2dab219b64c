//! The repo benchmark. See `benchmark/README.md`.
//!
//! `--workload NAME` measures one workload in this process and ends
//! with the driver's result line. Without it, every workload runs in a
//! fresh child process of this binary, `--repeat N` times over.

mod check;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use merrimac_bench::json::{self, Json};

use check::Checker;
use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use stats::{median, percentile, rel_spread};
use workloads::{run_op, Prepared, Workload, THREADS, WARMUP_OPS};

const DEFAULT_SEED: u64 = 42;
/// The timed window. The issue sized it at 30 s; the driver's cap on
/// all its runs together leaves 25 s, on all four workloads alike.
const DEFAULT_SECONDS: f64 = 25.0;
/// A run sets up at least this often, and until this long has gone into
/// set-ups; the last one is kept. `setup_s` is the fastest of them, for
/// the reason `op_ms_min` is the fastest op (see `metrics::END_TO_END`):
/// a set-up is mostly its warm-up ops, and replaying recorded op times
/// put the median of 13 set-ups 27% apart between the machine's two
/// states — beyond any bound the driver allows — and the fastest 9%.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 3.0;
/// `MERRIMAC_*` variables the library defaults still read; cleared so
/// the run measures the defaults.
const LIBRARY_ENV: [&str; 4] = [
    "MERRIMAC_HOST_THREADS",
    "MERRIMAC_KERNEL_ENGINE",
    "MERRIMAC_TAPE_BATCH",
    "MERRIMAC_NODES",
];

const USAGE: &str = "usage: merrimac-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N]
  --workload NAME  run one workload in this process (step-expanded-900, step-fixed-216,
                   traj-fixed-216, mn8-variable-900); default: all four, a child process each
  --seed N         seed of the generated box (default 42)
  --seconds S      timed window per workload (default 25)
  --trace 1        traced run: per-layer metrics and benchmark/out/trace_<workload>.json
  --repeat N       run N full sets and compare them against the bounds (all workloads only)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag} {value}: not a valid value\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if !(1..=100).contains(&args.repeat) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if args.repeat > 1 && (args.workload.is_some() || args.trace) {
        return Err(format!(
            "--repeat compares untraced sets of all workloads\n{USAGE}"
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    for var in LIBRARY_ENV {
        std::env::remove_var(var);
    }
    let outcome = match args.workload {
        Some(w) if args.trace => run_traced(w, args.seed),
        Some(w) => run_untraced(w, args.seed, args.seconds),
        None => run_sets(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Number of warm-up ops: `WARMUP_OPS`, or one op where a single op
/// already is that many force steps.
fn warmup_ops(w: Workload) -> usize {
    WARMUP_OPS.div_ceil(w.steps_per_op() as usize)
}

/// One set-up as `setup_s` times it: dataset, first neighbour list,
/// app, warm-up ops.
fn set_up(w: Workload, seed: u64) -> Result<Prepared, String> {
    let p = Prepared::new(w, seed).map_err(|e| format!("set-up: {e}"))?;
    for _ in 0..warmup_ops(w) {
        run_op(&p).map_err(|e| format!("warm-up op: {e}"))?;
    }
    Ok(p)
}

fn print_header(w: Workload, seed: u64, mode: &str) {
    println!(
        "workload {} | seed {seed} | {mode} | closed loop, 1 client, {THREADS} host threads, \
         {} warm-up op(s), default engine",
        w.name(),
        warmup_ops(w),
    );
    println!("  why: {}", w.why());
}

fn print_metric(m: &Metric, values: &Values, note: &str) {
    let value = values[m.name];
    let shown = if value == 0.0 || (value.fract() == 0.0 && value.abs() < 1e15) {
        format!("{value}")
    } else if value.abs() >= 0.001 {
        format!("{value:.4}")
    } else {
        format!("{value:.3e}")
    };
    println!(
        "  {:<32} {shown:>16} {:<10} {:<6} {note}",
        m.name,
        m.unit,
        m.better.name()
    );
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The line before the result line: what the checks saw, for people
/// and for `--repeat`.
fn checks_line(w: Workload, seed: u64, samples: usize, checker: &Checker) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"samples\": {samples}, \
         \"fingerprint\": \"{:#018x}\", \"force_max_rel_err\": {}, \"op_fail_ratio\": {}}}",
        w.name(),
        checker.fingerprint(),
        checker.force_max_rel_err,
        checker.fail_ratio(),
    )
}

/// The untraced run behind every end-to-end metric.
fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    print_header(w, seed, &format!("{seconds} s window, tracing off"));
    let mut setup_s = Vec::new();
    let p = loop {
        let t0 = Instant::now();
        let p = set_up(w, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() >= SETUP_MIN_REPEATS && setup_s.iter().sum::<f64>() >= SETUP_MIN_SECONDS {
            break p;
        }
    };
    let mut checker = Checker::new(&p).map_err(|e| format!("reference step: {e}"))?;

    let mut op_ms = Vec::new();
    let mut sim_cycles = 0;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let result = run_op(&p);
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(reason) = checker.check(&result) {
            if checker.failed <= 5 {
                eprintln!("op {} failed: {reason}", checker.attempted - 1);
            }
        }
        if let (Ok(out), 0) = (&result, sim_cycles) {
            sim_cycles = out.sim_cycles();
        }
    }
    let window_s = window.elapsed().as_secs_f64();

    let steps = op_ms.len() as u64 * w.steps_per_op();
    let mut values = Values::new();
    values.insert(
        "setup_s",
        percentile(&setup_s, 0.0).expect("set up at least once"),
    );
    values.insert(
        "op_ms_min",
        percentile(&op_ms, 0.0).expect("window ran an op"),
    );
    values.insert("steps_per_s", steps as f64 / window_s);
    values.insert("peak_rss_mb", peak_rss_mb()?);
    values.insert("sim_cycles", sim_cycles as f64);

    for m in &END_TO_END {
        let note = match m.name {
            "setup_s" => format!(
                "fastest of {} set-ups (median {:.4})",
                setup_s.len(),
                median(&setup_s).unwrap_or(0.0)
            ),
            "op_ms_min" => format!("fastest of n = {}", op_ms.len()),
            "steps_per_s" => format!(
                "{steps} force steps in {window_s:.2} s; md.pairs = {}",
                p.list.num_pairs()
            ),
            "sim_cycles" => "identical on every op, or the op fails".to_string(),
            _ => String::new(),
        };
        print_metric(m, &values, &note);
    }
    println!(
        "  op_ms p50 {:.4}  p90 {:.4}  max {:.4}  (n = {}; not gated)",
        median(&op_ms).unwrap_or(0.0),
        percentile(&op_ms, 0.9).unwrap_or(0.0),
        percentile(&op_ms, 1.0).unwrap_or(0.0),
        op_ms.len()
    );
    println!(
        "  force_max_rel_err {:.3e} ratio (limit {:e})   op_fail_ratio {} ratio ({} of {})",
        checker.force_max_rel_err,
        check::FORCE_ERR_LIMIT,
        checker.fail_ratio(),
        checker.failed,
        checker.attempted
    );
    println!("{}", checks_line(w, seed, op_ms.len(), &checker));
    println!(
        "{}",
        metrics::result_line(&END_TO_END, &values, checker.attempted, checker.failed)
    );
    Ok(checker.failed == 0)
}

/// The traced run behind every per-layer metric.
fn run_traced(w: Workload, seed: u64) -> Result<bool, String> {
    print_header(
        w,
        seed,
        &format!(
            "{} traced ops, each beside an untraced one",
            layers::TRACED_OPS
        ),
    );
    let p = set_up(w, seed)?;
    let mut checker = Checker::new(&p).map_err(|e| format!("reference step: {e}"))?;
    let (tracer, mut values) = layers::run(&p, &mut checker)?;
    values.insert("check.force_max_rel_err", checker.force_max_rel_err);
    values.insert("check.op_fail_ratio", checker.fail_ratio());

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{}.json", w.name());
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    std::fs::write(&path, tracer.to_json(w.name(), seed)).map_err(|e| format!("{path}: {e}"))?;

    for m in &PER_LAYER {
        print_metric(m, &values, "");
    }
    println!("  {} spans written to {path}", tracer.spans.len());
    println!(
        "{}",
        checks_line(w, seed, layers::TRACED_OPS as usize, &checker)
    );
    println!(
        "{}",
        metrics::result_line(&PER_LAYER, &values, checker.attempted, checker.failed)
    );
    Ok(checker.failed == 0)
}

/// What one child run reported.
struct ChildReport {
    ok: bool,
    metrics: Json,
    checks: Json,
}

/// Run one workload in a fresh child process of this binary, so that
/// `peak_rss_mb` is the workload's own, and pass its output through.
fn run_child(w: Workload, args: &Args) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let mut last_json = || {
        let line = lines
            .pop()
            .ok_or_else(|| format!("the {} child printed no result", w.name()))?;
        json::parse(line).map_err(|e| format!("{} result line: {e}", w.name()))
    };
    let result = last_json()?;
    let checks = last_json()?;
    for line in lines {
        println!("{line}");
    }
    println!();
    Ok(ChildReport {
        ok: output.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        metrics: result.get("metrics").cloned().unwrap_or(Json::Null),
        checks,
    })
}

/// All four workloads, `--repeat` times; with more than one set, the
/// agreement of the sets against each metric's bound.
fn run_sets(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<Vec<ChildReport>> = Vec::new();
    for set in 0..args.repeat {
        if args.repeat > 1 {
            println!("=== set {} of {} ===", set + 1, args.repeat);
        }
        let reports = Workload::ALL
            .into_iter()
            .map(|w| run_child(w, args))
            .collect::<Result<Vec<_>, _>>()?;
        ok &= reports.iter().all(|r| r.ok);
        sets.push(reports);
    }
    if !ok {
        eprintln!("at least one workload had failed ops");
    }
    if args.repeat > 1 {
        ok &= print_agreement(&sets);
    }
    Ok(ok)
}

/// Per workload × end-to-end metric: each set's value, their relative
/// spread, the bound and a verdict. The checks must agree exactly.
fn print_agreement(sets: &[Vec<ChildReport>]) -> bool {
    println!("=== agreement of {} sets ===", sets.len());
    println!(
        "{:<18} {:<18} {:>10} {:>8}  {:<8} values",
        "workload", "metric", "spread", "bound", "verdict"
    );
    let mut all_within = true;
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let mut row = |name: &str, spread: f64, bound: f64, shown: Vec<String>| {
            let within = spread <= bound;
            all_within &= within;
            println!(
                "{:<18} {name:<18} {spread:>10.4} {bound:>8.2}  {:<8} {}",
                w.name(),
                if within { "within" } else { "OUTSIDE" },
                shown.join("  ")
            );
        };
        // One value per set; a set that did not report it reads NaN,
        // which `rel_spread` counts as disagreement.
        let column = |read: &dyn Fn(&ChildReport) -> Option<f64>| -> Vec<f64> {
            sets.iter()
                .map(|set| read(&set[i]).unwrap_or(f64::NAN))
                .collect()
        };
        for m in &END_TO_END {
            let values = column(&|r| r.metrics.get(m.name)?.get("value")?.as_f64());
            let shown = values.iter().map(|v| format!("{v:.4}")).collect();
            // Simulated time repeats exactly for a seed, whatever
            // bound the driver is given for comparing across seeds.
            let bound = if m.name == "sim_cycles" { 0.0 } else { m.bound };
            row(m.name, rel_spread(&values), bound, shown);
        }
        for name in ["force_max_rel_err", "op_fail_ratio"] {
            let values = column(&|r| r.checks.get(name)?.as_f64());
            let shown = values.iter().map(|v| format!("{v:.3e}")).collect();
            row(name, rel_spread(&values), 0.0, shown);
        }
        let prints: Vec<String> = sets
            .iter()
            .map(|set| {
                let print = set[i].checks.get("fingerprint").and_then(Json::as_str);
                print.unwrap_or("missing").to_string()
            })
            .collect();
        let same = prints.iter().all(|p| *p == prints[0] && p != "missing");
        let spread = if same { 0.0 } else { f64::INFINITY };
        row("fingerprint", spread, 0.0, prints);
    }
    all_within
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let args = parse_args(&argv(&[
            "--workload",
            "mn8-variable-900",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some(Workload::Mn8Variable900));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));

        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.workload, None);
        assert_eq!(
            (
                defaults.seed,
                defaults.seconds,
                defaults.trace,
                defaults.repeat
            ),
            (DEFAULT_SEED, DEFAULT_SECONDS, false, 1)
        );
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--seed"],
            &["--frobnicate", "1"],
            &["--repeat", "2", "--trace", "1"],
            &["--repeat", "2", "--workload", "step-fixed-216"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn warm_up_is_five_force_steps_at_least() {
        assert_eq!(warmup_ops(Workload::StepExpanded900), 5);
        assert_eq!(warmup_ops(Workload::TrajFixed216), 1);
    }
}
