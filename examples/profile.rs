//! Where a force step's host time goes: `RunReport::host` per variant on
//! the paper's 900-molecule box, per-step means in ms over warm steps at
//! 2 engine threads. The columns from `gather` to `op_cost` are summed
//! over the worker threads, so they can exceed `phase_a_wall`. The last
//! column is what a kernel launch costs per kernel iteration: `kernel`
//! over the step's iteration count, in thread-ns. The kernel engine
//! comes from the environment, strictly
//! (`MERRIMAC_KERNEL_ENGINE=interp` profiles the oracle).
//!
//! ```sh
//! cargo run --release --example profile
//! ```

use std::time::Instant;

use merrimac_repro::prelude::*;
use merrimac_repro::sim::{HostExec, HostPhases};

const STEPS: u32 = 20;

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
    print!("{:10} {:>7}", "variant", "step");
    for (name, _) in HostPhases::default().named() {
        print!(" {name:>w$}", w = name.len().max(6));
    }
    println!(" kernel ns/iter");
    for variant in Variant::ALL {
        let run = || app.run_step_with_list(&system, &list, variant);
        run().expect("runs"); // warm: kernel compile, allocator
        let (mut host, t) = (HostPhases::default(), Instant::now());
        let mut iterations = 0;
        for _ in 0..STEPS {
            let report = run().expect("runs").report;
            host.add(&report.host);
            iterations += report.counters.kernel_iterations;
        }
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / STEPS as f64;
        print!("{:10} {:7.2}", variant.name(), ms(t.elapsed()));
        for (name, d) in host.named() {
            print!(" {:w$.2}", ms(d), w = name.len().max(6));
        }
        println!(
            " {:14.1}",
            host.kernel.as_secs_f64() * 1e9 / iterations as f64
        );
    }
}
