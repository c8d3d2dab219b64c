//! Where a force step's host time goes: `RunReport::host` per variant on
//! the paper's 900-molecule box, per-step means in ms over warm steps at
//! 2 engine threads. The columns from `gather` to `op_cost` are summed
//! over the worker threads, so they can exceed `phase_a_wall`. The last
//! column is what a kernel launch costs per kernel iteration: `kernel`
//! over the step's iteration count, in thread-ns. The kernel engine
//! comes from the environment, strictly
//! (`MERRIMAC_KERNEL_ENGINE=interp` profiles the oracle). The last row
//! is the `variable` step over 8 simulated nodes: one execution, so one
//! `phase_a_wall` and one `reduce`, and a `scoreboard` summed over its
//! nine timings (the whole step and each node's share).
//!
//! ```sh
//! cargo run --release --example profile
//! ```

use std::time::{Duration, Instant};

use merrimac_repro::prelude::*;
use merrimac_repro::sim::{HostExec, HostPhases, RunReport};
use merrimac_repro::streammd::run_multinode;

const STEPS: u32 = 20;

/// One table row: `run` once to warm (kernel compile, allocator), then
/// the per-step means of `STEPS` more.
fn profile(name: &str, run: impl Fn() -> RunReport) {
    run();
    let (mut host, t) = (HostPhases::default(), Instant::now());
    let mut iterations = 0;
    for _ in 0..STEPS {
        let report = run();
        host.add(&report.host);
        iterations += report.counters.kernel_iterations;
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / STEPS as f64;
    print!("{name:11} {:7.2}", ms(t.elapsed()));
    for (name, d) in host.named() {
        print!(" {:w$.2}", ms(d), w = name.len().max(6));
    }
    println!(
        " {:14.1}",
        host.kernel.as_secs_f64() * 1e9 / iterations as f64
    );
}

fn main() {
    let system = WaterBox::paper_dataset(42);
    let host = HostExec::from_vars(|var| std::env::var(var).ok()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    });
    let app = StreamMdApp::builder()
        .host(host)
        .threads(2)
        .build()
        .expect("valid");
    let list = NeighborList::build(&system, app.neighbor);
    print!("{:11} {:>7}", "variant", "step");
    for (name, _) in HostPhases::default().named() {
        print!(" {name:>w$}", w = name.len().max(6));
    }
    println!(" kernel ns/iter");
    for variant in Variant::ALL {
        profile(variant.name(), || {
            let step = app.run_step_with_list(&system, &list, variant);
            step.expect("runs").report
        });
    }
    profile("variable@n8", || {
        let step = run_multinode(&app, &system, &list, Variant::Variable, 8);
        step.expect("runs").outcome.report
    });
}
