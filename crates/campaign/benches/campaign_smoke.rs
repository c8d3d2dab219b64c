//! Campaign smoke harness: run a small mixed campaign (2 variants ×
//! 2 datasets × 2 duplicates = 8 jobs) over a pool of workers, print
//! the results and campaign rates, and write the additive `campaign`
//! block into `BENCH_campaign.json`. CI runs this as the
//! `campaign-smoke` job at 1 and at 4 workers and asserts on the exit
//! status: results in dispatch order, nonzero cache hits, zero failed
//! jobs on shipped variants, and bitwise identity to the sequential
//! one-shot runs.
//!
//! Knobs: `CAMPAIGN_WORKERS` (default 2), `MERRIMAC_HOST_THREADS` (host
//! threads per job, default 2), both positive integers read strictly (a
//! malformed value exits 1), and `BENCH_REPORT_DIR` (report location).

use std::sync::Arc;

use merrimac_bench::{banner, run, Dataset, PerfReport};
use merrimac_campaign::{run_campaign, Job};
use merrimac_sim::env_usize;
use streammd::Variant;

/// `var` as a positive integer, `default` when unset; malformed exits 1.
fn env_count(var: &'static str, default: usize) -> usize {
    env_usize(|var| std::env::var(var).ok(), var)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        })
        .unwrap_or(default)
}

fn main() {
    let workers = env_count("CAMPAIGN_WORKERS", 2);
    let threads = env_count("MERRIMAC_HOST_THREADS", 2);
    banner(
        "campaign smoke",
        "8-job mixed campaign over the cross-job artifact cache",
    );

    let datasets = [Arc::new(Dataset::small(27)), Arc::new(Dataset::small(64))];
    let variants = [Variant::Variable, Variant::Fixed];

    // 2 duplicates of every (dataset, variant) pair; the second copy of
    // each key must come out of the cache. Priorities favour the larger
    // box so the dispatch order differs from submission order.
    let mut jobs = Vec::new();
    for ds in &datasets {
        for &v in &variants {
            for copy in 0..2 {
                let prio = ds.system.num_molecules() as i32 + copy;
                jobs.push(Job::new(ds.clone(), v).threads(threads).priority(prio));
            }
        }
    }
    let total = jobs.len();
    // Dispatch order: descending priority, submission order on ties.
    let mut dispatch: Vec<(u64, i32)> = (0..).zip(jobs.iter().map(|j| j.priority)).collect();
    dispatch.sort_by_key(|&(_, prio)| std::cmp::Reverse(prio));
    println!(
        "{total} jobs ({} datasets x {} variants x 2 copies), {workers} worker(s), \
         {threads} engine thread(s)\n",
        datasets.len(),
        variants.len()
    );

    let out = run_campaign(jobs, workers);
    let arrived: Vec<(u64, i32)> = out.results.iter().map(|r| (r.id.0, r.priority)).collect();
    assert_eq!(arrived, dispatch, "results arrive in dispatch order");
    let mut failures = 0;
    for r in &out.results {
        match &r.result {
            Ok(step) => println!(
                "  job {:>2} prio {:>3} {:<22} {:>9} cycles  cache {:?}  ({:.2}s)",
                r.id.0,
                r.priority,
                r.label,
                step.perf.cycles,
                r.cache.expect("completed jobs touched the cache"),
                r.wall_seconds
            ),
            Err(e) => {
                failures += 1;
                eprintln!("  job {:>2} {:<22} FAILED: {e}", r.id.0, r.label);
            }
        }
    }

    // Bitwise identity vs the sequential one-shot path, per key.
    for ds in &datasets {
        for &v in &variants {
            let one_shot = run(ds.spec(v).threads(threads)).expect("one-shot runs");
            for r in out
                .results
                .iter()
                .filter(|r| r.label == Job::new(ds.clone(), v).label())
            {
                let step = r.result.as_ref().expect("campaign job completes");
                assert_eq!(
                    step.forces, one_shot.forces,
                    "{}: campaign forces must be bitwise-identical to one-shot",
                    r.label
                );
                assert_eq!(
                    step.perf.cycles, one_shot.perf.cycles,
                    "{}: cycles",
                    r.label
                );
            }
        }
    }
    println!("\n[ok] results arrive in dispatch order");
    println!("[ok] every campaign result is bitwise-identical to its one-shot run");

    let m = &out.metrics;
    println!(
        "campaign: {}/{} jobs in {:.2}s  ({:.2} jobs/s, {:.1}M iterations/s)",
        m.completed,
        m.jobs,
        m.wall_seconds,
        m.jobs_per_sec,
        m.interactions_per_sec / 1e6
    );
    println!(
        "cache: {} hits / {} misses over {} distinct keys (hit rate {:.0}%)",
        m.cache_hits,
        m.cache_misses,
        m.distinct_keys,
        m.cache_hit_rate() * 100.0
    );

    let mut report = PerfReport::new("campaign", datasets[0].system.num_molecules(), threads);
    report.campaign = Some(m.clone());
    match report.write_default() {
        Ok(path) => println!("[ok] wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write campaign report: {e}");
            std::process::exit(1);
        }
    }

    assert_eq!(failures, 0, "no job may fail on shipped variants");
    assert_eq!(m.completed, total, "every job completes");
    assert_eq!(m.distinct_keys, 4, "2 datasets x 2 variants distinct keys");
    assert_eq!(m.cache_misses, 4, "one build per key");
    assert!(m.cache_hits >= 4, "every duplicate key must hit the cache");
    println!("\n[ok] campaign smoke passed: cache hits > 0, zero admission errors");
}
