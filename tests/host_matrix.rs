//! The CI host matrix as one assertion: whatever `HostExec` (and
//! `MERRIMAC_NODES`) the environment names, every simulated quantity
//! equals the default host's, bit for bit — one step of every workload ×
//! variant, a driven trajectory, and a multi-node step. The environment
//! is resolved strictly, so a malformed matrix entry fails every test
//! here with the `EnvOverrideError` text instead of silently running the
//! default. One fixed host with both fields off their defaults (3
//! threads, the partition report on) is always compared too, so the
//! suite exercises the equality with nothing exported. Each workload ×
//! variant is also built once and that one `StepProgram` run under each
//! host in turn: every run must equal the fresh one-shot step, so a
//! build is reusable. Every dataset here spans several strips, so the
//! thread count reaches the strip fan-out. The kernel engine is not a host setting: the interpreter is
//! held to the shipped kernels' launches in `tape_equivalence`.

use md_sim::vec3::Vec3;
use merrimac_bench::{run, Dataset, RunSpec};
use merrimac_sim::{env_usize, HostExec};
use streammd::{MerrimacDriver, StepOutcome, Variant};

const FIXED: HostExec = HostExec {
    threads: 3,
    partition_verbose: true,
};

/// The hosts held against `HostExec::default()` — the environment's and
/// [`FIXED`] — and the node count (`MERRIMAC_NODES`, else 2).
fn resolved() -> ([HostExec; 2], usize) {
    let env = |var: &str| std::env::var(var).ok();
    let host = HostExec::from_vars(env).unwrap_or_else(|e| panic!("{e}"));
    let nodes = env_usize(env, "MERRIMAC_NODES").unwrap_or_else(|e| panic!("{e}"));
    ([host, FIXED], nodes.unwrap_or(2))
}

fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn step(spec: RunSpec, ctx: &str) -> StepOutcome {
    run(spec).unwrap_or_else(|e| panic!("{ctx}: {e}"))
}

/// Everything simulated in a step outcome (`report.host` is wall-clock).
fn assert_same_step(base: &StepOutcome, out: &StepOutcome, ctx: &str) {
    assert_eq!(bits(&base.forces), bits(&out.forces), "{ctx}: forces");
    assert_eq!(base.perf, out.perf, "{ctx}: perf");
    assert_eq!(base.iterations, out.iterations, "{ctx}: iterations");
    let (b, o) = (&base.report, &out.report);
    assert_eq!(b.cycles, o.cycles, "{ctx}: cycles");
    assert_eq!(b.counters, o.counters, "{ctx}: counters");
    assert_eq!(b.phases, o.phases, "{ctx}: phases");
    assert_eq!(b.timeline, o.timeline, "{ctx}: timeline");
    assert_eq!(b.sdr_peak, o.sdr_peak, "{ctx}: SDR peak");
    assert_eq!(
        b.srf_peak_words_per_cluster, o.srf_peak_words_per_cluster,
        "{ctx}: SRF peak"
    );
    assert_eq!(b.sdr_stall_cycles, o.sdr_stall_cycles, "{ctx}: SDR stalls");
    assert_eq!(b.cache_stats, o.cache_stats, "{ctx}: cache stats");
    assert_eq!(b.partition, o.partition, "{ctx}: partition");
}

#[test]
fn one_step_of_every_workload_and_variant_is_host_invariant() {
    let (hosts, _) = resolved();
    for ds in [Dataset::small(125), Dataset::lj(216), Dataset::charged(216)] {
        for variant in Variant::ALL {
            let ctx = format!("{} {variant}", ds.id);
            let base = step(ds.spec(variant), &ctx);
            for host in hosts {
                let ctx = format!("{ctx} under {host:?}");
                assert_same_step(&base, &step(ds.spec(variant).host(host), &ctx), &ctx);
            }
            let built = ds
                .spec(variant)
                .build_app()
                .expect("valid")
                .build_step_program(&ds.system, &ds.list, variant);
            for host in hosts {
                let ctx = format!("{ctx}, one build run again under {host:?}");
                let app = ds.spec(variant).host(host).build_app().expect("valid");
                let out = app.run_step_program(&ds.system, &built);
                assert_same_step(&base, &out.unwrap_or_else(|e| panic!("{ctx}: {e}")), &ctx);
            }
        }
    }
}

#[test]
fn a_driven_trajectory_is_host_invariant() {
    let (hosts, _) = resolved();
    let ds = Dataset::small(125);
    let drive = |host: HostExec| {
        let app = ds.spec(Variant::Variable).host(host).build_app();
        let driver = MerrimacDriver::new(app.expect("valid"), Variant::Variable);
        let mut system = ds.system.clone();
        let report = driver.run(&mut system, 4).expect("trajectory runs");
        (
            bits(system.positions()),
            report.total_force_cycles,
            report.total_counters,
        )
    };
    let base = drive(HostExec::default());
    for host in hosts {
        assert_eq!(base, drive(host), "trajectory under {host:?}");
    }
}

#[test]
fn a_multinode_step_is_host_invariant() {
    let (hosts, nodes) = resolved();
    let ds = Dataset::small(125);
    for variant in [Variant::Variable, Variant::Fixed] {
        let ctx = format!("{variant} on {nodes} nodes");
        // `perf.cycles` is the barrier-to-barrier step and
        // `perf.phases.multinode` its breakdown; both are in `perf`.
        let base = step(ds.spec(variant).nodes(nodes), &ctx);
        for host in hosts {
            let ctx = format!("{ctx} under {host:?}");
            let out = step(ds.spec(variant).nodes(nodes).host(host), &ctx);
            assert_same_step(&base, &out, &ctx);
        }
    }
}
