//! The campaign pool. [`run_campaign`] sorts the batch once, stably, by
//! descending [`Job::priority`] (submission order breaks ties); scoped
//! workers take the next index of that dispatch order from one atomic
//! cursor and fill that index's result slot. Every job passes the checks
//! the one-shot path runs, and a panicking job is a [`RunError::Panicked`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use merrimac_bench::{CampaignRecord, Dataset, RunError, RunSpec};
use merrimac_sim::HostExec;
use streammd::{check_list, run_multinode_program, StepOutcome, Variant};

use crate::cache::{ArtifactCache, CacheKey, CacheStatus, StepArtifact};

/// One job: what to run, fully described, with the dataset shared
/// behind an `Arc` so many jobs can reference it without copies, plus
/// its scheduling priority.
#[derive(Clone)]
pub struct Job {
    pub dataset: Arc<Dataset>,
    pub variant: Variant,
    pub nodes: usize,
    /// How the host executes the job; never part of the cache key.
    pub host: HostExec,
    /// Higher runs first; default 0.
    pub priority: i32,
}

impl Job {
    pub fn new(dataset: Arc<Dataset>, variant: Variant) -> Self {
        Self {
            dataset,
            variant,
            nodes: 1,
            host: HostExec::default(),
            priority: 0,
        }
    }

    pub fn host(mut self, host: HostExec) -> Self {
        self.host = host;
        self
    }

    /// Shorthand for the host's worker-thread count alone.
    pub fn threads(mut self, threads: usize) -> Self {
        self.host.threads = threads;
        self
    }

    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// The equivalent borrowed one-shot spec (what `bench::run` would
    /// execute for this job). The pool builds its app from it, so
    /// preflight failures (e.g. a node count outside the modeled
    /// network) render identically from the pool and the binary.
    pub fn run_spec(&self) -> RunSpec<'_> {
        RunSpec::new(&self.dataset.system, &self.dataset.list, self.variant)
            .host(self.host)
            .nodes(self.nodes)
    }

    /// Human-readable job identity for logs and reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}@n{}",
            self.variant.name(),
            self.dataset.id,
            self.nodes
        )
    }
}

/// Submission-ordered job identity: the job's index in the batch
/// handed to [`run_campaign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// One completed (or failed) job.
pub struct JobResult {
    pub id: JobId,
    pub priority: i32,
    pub label: String,
    /// How the job's artifacts were obtained; `None` when the job
    /// failed before reaching the cache (configuration preflight) or
    /// panicked.
    pub cache: Option<CacheStatus>,
    /// Host wall-clock seconds this job took on its worker.
    pub wall_seconds: f64,
    /// The step outcome, or the single unified failure type
    /// (simulator, admission, environment or panic).
    pub result: Result<StepOutcome, RunError>,
}

/// Everything [`run_campaign`] returns: one result per job, in
/// dispatch order, plus the campaign's rates (the additive `campaign`
/// block of `BENCH_*.json`).
pub struct CampaignOutcome {
    pub results: Vec<JobResult>,
    pub metrics: CampaignRecord,
}

/// Run a batch to completion on `workers` scoped host threads (min 1).
pub fn run_campaign(jobs: Vec<Job>, workers: usize) -> CampaignOutcome {
    let mut order: Vec<(JobId, Job)> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| (JobId(i as u64), job))
        .collect();
    order.sort_by_key(|(_, job)| std::cmp::Reverse(job.priority));
    let workers = workers.max(1);
    let cache = ArtifactCache::new();
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<JobResult>> = order.iter().map(|_| OnceLock::new()).collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((id, job)) = order.get(i) else { break };
                // The cursor hands out each index once, so each slot is
                // set once.
                let _ = slots[i].set(execute(&cache, *id, job));
            });
        }
    });
    let wall_seconds = started.elapsed().as_secs_f64();
    let results: Vec<JobResult> = slots
        .into_iter()
        .map(OnceLock::into_inner)
        .collect::<Option<_>>()
        .expect("every dispatched job has a result");
    let completed: Vec<&StepOutcome> = results
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    let iterations: u64 = completed.iter().map(|out| out.iterations).sum();
    let per_sec = |n: f64| n / wall_seconds.max(f64::MIN_POSITIVE);
    let cache = cache.stats();
    let metrics = CampaignRecord {
        jobs: results.len(),
        completed: completed.len(),
        failed: results.len() - completed.len(),
        workers,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        distinct_keys: cache.distinct_keys,
        wall_seconds,
        jobs_per_sec: per_sec(completed.len() as f64),
        interactions_per_sec: per_sec(iterations as f64),
    };
    CampaignOutcome { results, metrics }
}

/// Run one job, turning a panic into [`RunError::Panicked`]. Unwinding
/// out of [`run`] leaves nothing half-done behind: no cache lock is held
/// across it, and a panicking build leaves its `OnceLock` slot empty, so
/// the next job on the same key builds it again.
fn execute(cache: &ArtifactCache, id: JobId, job: &Job) -> JobResult {
    let started = Instant::now();
    let label = job.label();
    let (cache, result) = unwound(&label, || run(cache, job));
    JobResult {
        id,
        priority: job.priority,
        label,
        cache,
        wall_seconds: started.elapsed().as_secs_f64(),
        result,
    }
}

/// What a job's `run` returns: its cache status and outcome.
type Attempt = (Option<CacheStatus>, Result<StepOutcome, RunError>);

/// `run`'s attempt or — if it panics — the [`RunError::Panicked`] of `job`.
fn unwound(job: &str, run: impl FnOnce() -> Attempt) -> Attempt {
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|payload| (None, Err(panicked(job.to_string(), payload.as_ref()))))
}

fn panicked(job: String, payload: &(dyn Any + Send)) -> RunError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    };
    RunError::Panicked { job, message }
}

fn run(cache: &ArtifactCache, job: &Job) -> Attempt {
    let sim_err = |e| RunError::sim(job.variant, e);
    let app = match job.run_spec().build_app() {
        Ok(app) => app,
        Err(e) => return (None, Err(e)),
    };
    let (system, list) = (&job.dataset.system, &job.dataset.list);
    if let Err(e) = check_list(system, list) {
        return (None, Err(sim_err(e)));
    }
    // Single- and multi-node jobs share one cached artifact per
    // `(dataset, variant, machine)` key: the canonical step program is
    // node-count-independent, so the multi-node runner decomposes the
    // same build a single-node job runs.
    let key = CacheKey::for_app(&app, job.dataset.id, job.variant);
    let (artifact, status) =
        cache.get_or_build(key, || StepArtifact::build(&app, &job.dataset, job.variant));
    let result = if !artifact.admitted() {
        Err(RunError::Admission {
            variant: job.variant,
            diagnostics: artifact.diagnostics.clone(),
        })
    } else if job.nodes > 1 {
        run_multinode_program(&app, system, &artifact.step, job.nodes)
            .map(|m| m.outcome)
            .map_err(sim_err)
    } else {
        app.run_step_program(system, &artifact.step)
            .map_err(sim_err)
    };
    (Some(status), result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_sim::water::Site;
    use md_sim::{NeighborList, NeighborListParams, WaterBox, WaterModel};
    use merrimac_bench::DatasetId;
    use merrimac_sim::machine::SimError;

    fn small_jobs(ds: &Arc<Dataset>, variants: &[Variant], copies: usize) -> Vec<Job> {
        let mut jobs = Vec::new();
        for _ in 0..copies {
            for &v in variants {
                jobs.push(Job::new(ds.clone(), v));
            }
        }
        jobs
    }

    #[test]
    fn duplicate_specs_hit_the_cache() {
        let ds = Arc::new(Dataset::small(27));
        let out = run_campaign(small_jobs(&ds, &[Variant::Variable, Variant::Fixed], 3), 2);
        let m = &out.metrics;
        assert_eq!(m.jobs, 6);
        assert_eq!(m.completed, 6);
        assert_eq!(m.failed, 0);
        assert_eq!(m.distinct_keys, 2);
        assert_eq!(m.cache_misses, 2, "one build per distinct key");
        assert_eq!(m.cache_hits, 4, "every duplicate is a hit");
        assert!(m.cache_hit_rate() > 0.6);
        assert!(m.interactions_per_sec > 0.0);
    }

    #[test]
    fn jobs_differing_only_in_host_share_one_cache_key() {
        let ds = Arc::new(Dataset::small(27));
        let plain = Job::new(ds.clone(), Variant::Variable);
        let other = plain.clone().host(HostExec {
            threads: 3,
            partition_verbose: false,
        });
        let key = |spec: &Job| {
            let app = spec.run_spec().build_app().expect("valid");
            CacheKey::for_app(&app, spec.dataset.id, spec.variant)
        };
        assert_eq!(key(&plain), key(&other));
        let out = run_campaign(vec![plain, other], 1);
        let m = &out.metrics;
        assert_eq!((m.cache_misses, m.cache_hits, m.distinct_keys), (1, 1, 1));
        let forces = |r: &JobResult| r.result.as_ref().expect("runs").forces.clone();
        assert_eq!(forces(&out.results[0]), forces(&out.results[1]));
    }

    #[test]
    fn single_worker_drains_in_priority_then_fifo_order() {
        let ds = Arc::new(Dataset::small(27));
        let job = || Job::new(ds.clone(), Variant::Variable);
        for workers in [1, 2, 4] {
            let jobs = vec![
                job(),             // id 0, prio 0
                job().priority(5), // id 1
                job().priority(5), // id 2
                job().priority(1), // id 3
            ];
            let out = run_campaign(jobs, workers);
            let order: Vec<u64> = out.results.iter().map(|r| r.id.0).collect();
            assert_eq!(
                order,
                vec![1, 2, 3, 0],
                "dispatch order at {workers} workers"
            );
        }
    }

    #[test]
    fn campaign_matches_one_shot_run_bitwise() {
        let ds = Arc::new(Dataset::small(27));
        let out = run_campaign(small_jobs(&ds, &[Variant::Duplicated], 2), 2);
        let one_shot = merrimac_bench::run(ds.spec(Variant::Duplicated)).expect("one-shot runs");
        for r in &out.results {
            let step = r.result.as_ref().expect("job completes");
            assert_eq!(step.forces, one_shot.forces, "forces bitwise-identical");
            assert_eq!(step.perf.cycles, one_shot.perf.cycles);
        }
    }

    #[test]
    fn multinode_jobs_share_the_cached_step_program() {
        let ds = Arc::new(Dataset::small(64));
        // Same (dataset, variant, machine) at three node counts: one
        // build serves all three — the canonical step program is
        // node-count-independent, so nothing bypasses the cache.
        let jobs = vec![
            Job::new(ds.clone(), Variant::Variable).nodes(2),
            Job::new(ds.clone(), Variant::Variable),
            Job::new(ds.clone(), Variant::Variable).nodes(8),
        ];
        let out = run_campaign(jobs, 2);
        assert_eq!(out.metrics.completed, 3);
        assert_eq!(out.metrics.cache_misses, 1, "one build per distinct key");
        assert_eq!(out.metrics.cache_hits, 2);
        assert_eq!(out.metrics.distinct_keys, 1);
        let single = out
            .results
            .iter()
            .find(|r| r.label.ends_with("@n1"))
            .expect("single-node result present");
        let single_forces = &single.result.as_ref().expect("runs").forces;
        for r in &out.results {
            let step = r.result.as_ref().expect("job completes");
            if r.label.ends_with("@n1") {
                assert!(step.perf.phases.multinode.is_none());
            } else {
                assert!(step.perf.phases.multinode.is_some());
            }
            // Forces are bitwise node-count-independent off the shared build.
            assert_eq!(&step.forces, single_forces);
        }
    }

    #[test]
    fn multinode_atomic_jobs_run_through_the_cache() {
        let ds = Arc::new(Dataset::charged(64));
        let jobs = vec![
            Job::new(ds.clone(), Variant::Fixed).nodes(2),
            Job::new(ds.clone(), Variant::Fixed),
        ];
        let out = run_campaign(jobs, 2);
        assert_eq!(out.metrics.completed, 2);
        assert_eq!(out.metrics.distinct_keys, 1);
        let forces: Vec<_> = out
            .results
            .iter()
            .map(|r| r.result.as_ref().expect("runs").forces.clone())
            .collect();
        assert_eq!(forces[0], forces[1]);
    }

    /// TIP5P padded with zero-charge, zero-mass sites to 33, one past
    /// the 32 sites a stream program is generated for.
    fn over_wide_water() -> Dataset {
        let mut model = WaterModel::tip5p();
        let pad = Site {
            offset: model.sites[0].offset,
            charge: 0.0,
            mass: 0.0,
        };
        model.sites.resize(33, pad);
        let system = WaterBox::builder()
            .molecules(8)
            .model(model)
            .seed(1)
            .build();
        let list = NeighborList::build(&system, Dataset::small(8).list.params);
        Dataset {
            id: DatasetId::Small(8),
            system,
            list,
        }
    }

    #[test]
    fn preflight_failure_is_a_typed_result_not_a_panic() {
        // A node count far outside the modeled network, and a model
        // with more sites than a stream program is generated for.
        let far = Arc::new(Dataset::small(27));
        let wide = Arc::new(over_wide_water());
        for job in [
            Job::new(far, Variant::Variable).nodes(1 << 20),
            Job::new(wide, Variant::Variable),
        ] {
            let one_shot = merrimac_bench::run(job.run_spec()).expect_err("one-shot fails");
            let out = run_campaign(vec![job], 1);
            assert_eq!(out.metrics.failed, 1);
            let r = &out.results[0];
            assert!(r.cache.is_none(), "never reached the cache");
            let err = r.result.as_ref().expect_err("must fail preflight");
            // Identical rendering to the one-shot path for the same spec.
            assert_eq!(format!("{err}"), format!("{one_shot}"), "{}", r.label);
        }
    }

    /// A list built on a 64-molecule box paired with a 27-molecule
    /// system: its molecule indices run past the system, so it must be
    /// refused before any step program is built.
    fn mismatched_list() -> Dataset {
        let system = Dataset::small(27).system;
        let (big, _) = merrimac_bench::small_system(64);
        let params = NeighborListParams {
            cutoff: 0.3,
            skin: 0.0,
            rebuild_interval: 10,
        };
        Dataset {
            id: DatasetId::Small(64),
            system,
            list: NeighborList::build(&big, params),
        }
    }

    #[test]
    fn a_panicking_run_is_a_typed_result_naming_the_job() {
        let caught = |run: fn() -> Attempt| match unwound("water-27/variable", run) {
            (None, Err(RunError::Panicked { job, message })) => {
                assert_eq!(job, "water-27/variable");
                message
            }
            other => panic!("expected a typed panic, got {:?}", other.1.err()),
        };
        assert_eq!(
            caught(|| panic!("index out of range")),
            "index out of range"
        );
        assert_eq!(caught(|| panic!("{} of {}", 3, 4)), "3 of 4");
        let opaque = || std::panic::panic_any(7u32);
        assert_eq!(caught(opaque), "non-string panic payload");
    }

    #[test]
    fn a_list_for_another_box_is_a_config_error_and_the_rest_still_run() {
        let bad = Arc::new(mismatched_list());
        let good = Arc::new(Dataset::small(27));
        let one_shot = merrimac_bench::run(good.spec(Variant::Fixed)).expect("one-shot runs");
        let refused = merrimac_bench::run(bad.spec(Variant::Variable)).expect_err("refused");
        for workers in [1, 2] {
            let mut jobs = vec![
                Job::new(bad.clone(), Variant::Variable),
                Job::new(good.clone(), Variant::Fixed),
                Job::new(bad.clone(), Variant::Variable),
            ];
            jobs[2] = jobs[2].clone().nodes(2);
            let out = run_campaign(jobs, workers);
            assert_eq!(out.metrics.failed, 2, "{workers} workers");
            assert_eq!(out.metrics.completed, 1);
            for r in [&out.results[0], &out.results[2]] {
                assert!(r.cache.is_none());
                match &r.result {
                    Err(e @ RunError::Variant(v)) => {
                        assert!(matches!(v.source, SimError::Config(_)), "{e}");
                        assert!(e.to_string().contains("built over 64 molecules"), "{e}");
                        assert_eq!(e.to_string(), refused.to_string());
                    }
                    Err(e) => panic!("expected a config error, got {e}"),
                    Ok(_) => panic!("a mismatched list must not run"),
                }
            }
            let step = out.results[1].result.as_ref().expect("the good job runs");
            assert_eq!(step.forces, one_shot.forces, "forces bitwise-identical");
            assert_eq!(step.perf.cycles, one_shot.perf.cycles);
        }
    }
}
