//! Where a force step's host time goes, per variant on the paper's
//! 900-molecule box: per-step means in ms over warm steps at 2 host
//! threads, everything but the kernel compile fresh per step as on the
//! repo benchmark's cold workloads. The first columns are the stages
//! around `run` — the neighbour list, the stream layout, the rest of
//! `build_step_program`, the admission analysis and the clone of the
//! memory image a run works on — then `run` itself (`RunReport::host`).
//! Its columns from `gather` to `op_cost` are summed over the worker
//! threads, so they can exceed `phase_a_wall`. The last column is what a
//! kernel launch costs per kernel iteration: `kernel` over the step's
//! iteration count, in thread-ns. The host settings come from the
//! environment, strictly: `MERRIMAC_HOST_THREADS` (default 2); a
//! malformed value exits 1. The last
//! row is the `variable` step over 8 simulated nodes: one execution,
//! so one `phase_a_wall` and one `reduce`, and a
//! `scoreboard` summed over its nine timings (the whole step and each
//! node's share). `minflt` is the process's minor page faults per step
//! over the timed steps (field 10 of `/proc/self/stat`; blank where
//! there is no such file): memory handed back to the system between
//! strips and faulted in again shows here. `slots` and `lane KB` are
//! the kernel's lane file: its value slots, and its size at the launch
//! width.
//!
//! Below the table, `traj-216` is the repo benchmark's `traj-fixed-216`
//! op: a 20-step trajectory of the fixed variant on one long-lived app
//! over 216 molecules, its list rebuilt before every step. It is split
//! into the force steps (timed inside the integrator's forces closure)
//! and the rest (the integrator's kicks, drift and constraint solves,
//! and the list builds), in ms per op.
//!
//! ```sh
//! cargo run --release --example profile
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use merrimac_repro::md::integrate::Integrator;
use merrimac_repro::md::neighbor::NeighborListParams;
use merrimac_repro::prelude::*;
use merrimac_repro::sim::program::StreamOp;
use merrimac_repro::sim::{env_usize, EnvOverrideError, HostExec, HostPhases, RunReport, SimError};
use merrimac_repro::streammd::layout::build_layout;
use merrimac_repro::streammd::{run_multinode_program, StepProgram};

const STEPS: u32 = 20;

/// The stages of a step outside `run`, in pipeline order.
const STAGES: [&str; 5] = ["list", "layout", "build-self", "admit", "clone"];

/// The process's minor page faults so far: field 10 of `/proc/self/stat`
/// (the fields after the parenthesised command name start at field 3).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// `f`'s result, its wall time added to `total`.
fn timed<R>(total: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *total += t.elapsed();
    out
}

/// What a row sums over its steps.
#[derive(Default)]
struct Totals {
    wall: Duration,
    stages: [Duration; 5],
    host: HostPhases,
    iterations: u64,
}

/// One table row: a step to warm (kernel compile, allocator), then the
/// per-step means of `STEPS` more, each building its list and program
/// anew and handing the program to `run`.
fn profile(
    name: &str,
    system: &WaterBox,
    app: &StreamMdApp,
    variant: Variant,
    run: impl Fn(&StepProgram) -> RunReport,
) {
    let mut lane_file = (0, 0);
    let mut step = |t: &mut Totals| {
        let started = Instant::now();
        let list = timed(&mut t.stages[0], || {
            NeighborList::build(system, app.neighbor)
        });
        let mut build = Duration::ZERO;
        let program = timed(&mut build, || {
            app.build_step_program(system, &list, variant)
        });
        timed(&mut t.stages[3], || app.admit_built(&program)).expect("admitted");
        let report = run(&program);
        t.wall += started.elapsed();
        let kernel = program.program.ops.iter().find_map(|lop| match &lop.op {
            StreamOp::Kernel { kernel, .. } => Some(kernel),
            _ => None,
        });
        lane_file = kernel.expect("a kernel").tape.lane_file(app.tape_batch);
        // Outside the step: the layout again (it cuts the same strips
        // when told the largest one's size), to split the build, and
        // the clone `run` made first.
        let strip = program.layout.strips.iter().map(|s| s.iterations).max();
        let strip = strip.expect("a strip") as usize;
        let mut layout = Duration::ZERO;
        black_box(timed(&mut layout, || {
            build_layout(system, &list, variant, app.block_l, strip)
        }));
        t.stages[1] += layout;
        t.stages[2] += build.saturating_sub(layout);
        black_box(timed(&mut t.stages[4], || program.memory.clone()));
        t.host.add(&report.host);
        t.iterations += report.counters.kernel_iterations;
    };
    step(&mut Totals::default());
    let mut t = Totals::default();
    let faults = minor_faults();
    (0..STEPS).for_each(|_| step(&mut t));
    let faults = faults
        .zip(minor_faults())
        .map(|(a, b)| (b - a) / STEPS as u64);
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / STEPS as f64;
    print!("{name:11} {:7.2}", ms(t.wall));
    for (name, d) in STAGES.into_iter().zip(t.stages).chain(t.host.named()) {
        print!(" {:w$.2}", ms(d), w = name.len().max(6));
    }
    let per_iteration = t.host.kernel.as_secs_f64() * 1e9 / t.iterations as f64;
    let faults = faults.map_or(String::new(), |f| f.to_string());
    let (slots, bytes) = lane_file;
    let kb = bytes as f64 / 1e3;
    let busy = t.host.busy.as_secs_f64() / app.host.threads as f64;
    let wall = busy / t.host.phase_a_wall.as_secs_f64();
    let mean = busy / t.host.busy_max.as_secs_f64();
    println!(" {per_iteration:14.1} {faults:>7} {slots:>6} {kb:>7.0} {wall:9.3} {mean:8.3}");
}

/// The 216-molecule box of the repo benchmark's `fixed` workloads, and
/// an app over `traj-fixed-216`'s list parameters.
fn water_216(host: HostExec) -> (WaterBox, StreamMdApp) {
    let system = WaterBox::builder().molecules(216).seed(42).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let app = StreamMdApp::builder().neighbor(params).host(host);
    (system, app.build().expect("valid"))
}

/// The `traj-216` row: one op to warm, then the per-op means of
/// `TRAJ_OPS` more, each from the same start.
fn profile_trajectory(host: HostExec) {
    const TRAJ_OPS: u32 = 5;
    let (system, app) = water_216(host);
    let integ = Integrator {
        dt: 0.002,
        neighbor: app.neighbor,
    };
    let op = |wall: &mut Duration, forces: &mut Duration| {
        let mut system = system.clone();
        timed(wall, || {
            integ.run_with(&mut system, STEPS as usize, |system, list| {
                let out = timed(forces, || {
                    app.run_step_with_list(system, list, Variant::Fixed)
                })?;
                Ok::<_, SimError>((out.forces, ()))
            })
        })
        .expect("runs");
    };
    let (mut wall, mut forces) = (Duration::ZERO, Duration::ZERO);
    op(&mut wall, &mut forces);
    (wall, forces) = (Duration::ZERO, Duration::ZERO);
    (0..TRAJ_OPS).for_each(|_| op(&mut wall, &mut forces));
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / TRAJ_OPS as f64;
    let rest = wall.saturating_sub(forces);
    println!(
        "\n{:11} {:>7} {:>7} {:>7} {:>6}",
        "trajectory", "op", "forces", "rest", "rest%"
    );
    println!(
        "{:11} {:7.2} {:7.2} {:7.2} {:6.1}",
        "traj-216",
        ms(wall),
        ms(forces),
        ms(rest),
        100.0 * rest.as_secs_f64() / wall.as_secs_f64()
    );
}

/// A strictly resolved environment value: a malformed one exits 1.
fn strict<T>(resolved: Result<T, EnvOverrideError>) -> T {
    resolved.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn main() {
    let system = WaterBox::paper_dataset(42);
    let env = |var: &str| std::env::var(var).ok();
    let host = HostExec {
        threads: strict(env_usize(env, "MERRIMAC_HOST_THREADS")).unwrap_or(2),
    };
    host.install(|| profile_all(&system, host));
}

/// Every row, at the installed host width.
fn profile_all(system: &WaterBox, host: HostExec) {
    let app = StreamMdApp::builder().host(host).build().expect("valid");
    print!("{:11} {:>7}", "variant", "step");
    for name in STAGES
        .into_iter()
        .chain(HostPhases::default().named().map(|(name, _)| name))
    {
        print!(" {name:>w$}", w = name.len().max(6));
    }
    println!(" kernel ns/iter  minflt  slots lane KB busy/wall mean/max");
    for variant in Variant::ALL {
        profile(variant.name(), system, &app, variant, |program| {
            let step = app.run_step_program(system, program);
            step.expect("runs").report
        });
    }
    profile("variable@n8", system, &app, Variant::Variable, |program| {
        let step = run_multinode_program(&app, system, program, 8);
        step.expect("runs").outcome.report
    });
    let (small, fixed) = water_216(host);
    profile("fixed216", &small, &fixed, Variant::Fixed, |program| {
        let step = fixed.run_step_program(&small, program);
        step.expect("runs").report
    });
    profile_trajectory(host);
}
