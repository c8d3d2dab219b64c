//! The campaign service: a bounded host-thread pool draining a
//! priority job queue, sharing compiled artifacts through the
//! [`ArtifactCache`] and streaming structured [`JobResult`]s back as
//! they complete.
//!
//! Scheduling: jobs are ordered by descending [`Job::priority`], ties
//! broken by submission order (FIFO). Workers block on a condvar while
//! the queue is empty and exit when [`CampaignService::finish`] closes
//! the queue. Every job runs the same admission gate the one-shot path
//! offers: the static-analysis pipeline's Error-severity diagnostics
//! reject it with a structured [`RunError::Admission`], never a panic.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use merrimac_bench::{CampaignRecord, Dataset, RunError, RunSpec, VariantError};
use merrimac_sim::HostExec;
use streammd::{run_multinode_program, StepOutcome, Variant};

use crate::cache::{ArtifactCache, CacheKey, CacheStats, CacheStatus, StepArtifact};

/// Owned analogue of [`merrimac_bench::RunSpec`]: what to run, fully
/// described, with the dataset shared behind an `Arc` so many jobs can
/// reference it without copies.
#[derive(Clone)]
pub struct JobSpec {
    pub dataset: Arc<Dataset>,
    pub variant: Variant,
    pub nodes: usize,
    /// How the host executes the job; never part of the cache key.
    pub host: HostExec,
}

impl JobSpec {
    pub fn new(dataset: Arc<Dataset>, variant: Variant) -> Self {
        Self {
            dataset,
            variant,
            nodes: 1,
            host: HostExec::default(),
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

    /// The equivalent borrowed one-shot spec (what `bench::run` would
    /// execute for this job). The service builds its app from it, so
    /// preflight failures (e.g. a node count outside the modeled
    /// network) render identically from the service and the binary.
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

/// One queue entry: the spec plus its scheduling priority (higher runs
/// first; default 0).
#[derive(Clone)]
pub struct Job {
    pub spec: JobSpec,
    pub priority: i32,
}

impl Job {
    pub fn new(spec: JobSpec) -> Self {
        Self { spec, priority: 0 }
    }

    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }
}

/// Submission-ordered job identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// One completed (or failed) job, streamed back over the service's
/// result channel.
pub struct JobResult {
    pub id: JobId,
    pub priority: i32,
    pub label: String,
    /// How the job's artifacts were obtained; `None` when the job
    /// failed before reaching the cache (configuration preflight).
    pub cache: Option<CacheStatus>,
    /// Host wall-clock seconds this job took on its worker.
    pub wall_seconds: f64,
    /// The step outcome, or the single unified failure type
    /// (simulator, admission or environment).
    pub result: Result<StepOutcome, RunError>,
}

/// Campaign-level rate metrics, computed at [`CampaignService::finish`].
#[derive(Debug, Clone)]
pub struct CampaignMetrics {
    pub jobs: usize,
    pub completed: usize,
    pub failed: usize,
    pub workers: usize,
    pub cache: CacheStats,
    /// First submit to drain, host wall-clock.
    pub wall_seconds: f64,
    /// Kernel iterations executed across all completed jobs (each
    /// iteration is one molecule-pair interaction slot).
    pub total_iterations: u64,
}

impl CampaignMetrics {
    pub fn jobs_per_sec(&self) -> f64 {
        self.completed as f64 / self.wall_seconds.max(f64::MIN_POSITIVE)
    }

    pub fn interactions_per_sec(&self) -> f64 {
        self.total_iterations as f64 / self.wall_seconds.max(f64::MIN_POSITIVE)
    }

    pub fn cache_hit_rate(&self) -> f64 {
        let cacheable = self.cache.hits + self.cache.misses;
        if cacheable == 0 {
            0.0
        } else {
            self.cache.hits as f64 / cacheable as f64
        }
    }

    /// The additive `campaign` block for `BENCH_*.json`.
    pub fn to_record(&self) -> CampaignRecord {
        CampaignRecord {
            jobs: self.jobs,
            completed: self.completed,
            failed: self.failed,
            workers: self.workers,
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
            cache_bypass: self.cache.bypass,
            distinct_keys: self.cache.distinct_keys,
            wall_seconds: self.wall_seconds,
            jobs_per_sec: self.jobs_per_sec(),
            interactions_per_sec: self.interactions_per_sec(),
        }
    }
}

/// Everything [`CampaignService::finish`] returns: the results not
/// already taken via [`CampaignService::poll_result`], in completion
/// order, plus the campaign metrics.
pub struct CampaignOutcome {
    pub results: Vec<JobResult>,
    pub metrics: CampaignMetrics,
}

struct Queued {
    priority: i32,
    seq: u64,
    spec: JobSpec,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then FIFO (smaller seq first).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct QueueState {
    heap: BinaryHeap<Queued>,
    closed: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: ArtifactCache,
    completed: AtomicUsize,
    failed: AtomicUsize,
    total_iterations: AtomicU64,
}

/// The async batch service. Submit [`Job`]s, optionally consume
/// results as they stream in, then [`CampaignService::finish`] to
/// drain and collect the metrics.
pub struct CampaignService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    results: Receiver<JobResult>,
    sender: Option<Sender<JobResult>>,
    worker_count: usize,
    submitted: u64,
    started: Instant,
}

impl CampaignService {
    /// Start the service with `workers` host threads (min 1).
    pub fn new(workers: usize) -> Self {
        Self::build(workers, Vec::new())
    }

    fn build(workers: usize, preload: Vec<Job>) -> Self {
        let worker_count = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            cache: ArtifactCache::new(),
            completed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            total_iterations: AtomicU64::new(0),
        });
        let (tx, rx) = channel();
        let mut submitted = 0;
        {
            let mut state = shared.queue.lock().unwrap();
            for job in preload {
                state.heap.push(Queued {
                    priority: job.priority,
                    seq: submitted,
                    spec: job.spec,
                });
                submitted += 1;
            }
        }
        let handles = (0..worker_count)
            .map(|_| {
                let shared = shared.clone();
                let tx = tx.clone();
                std::thread::spawn(move || worker_loop(&shared, &tx))
            })
            .collect();
        Self {
            shared,
            workers: handles,
            results: rx,
            sender: Some(tx),
            worker_count,
            submitted,
            started: Instant::now(),
        }
    }

    /// Enqueue a job; workers pick it up by priority. Returns its
    /// submission-ordered id.
    pub fn submit(&mut self, job: Job) -> JobId {
        let id = JobId(self.submitted);
        self.submitted += 1;
        let mut state = self.shared.queue.lock().unwrap();
        state.heap.push(Queued {
            priority: job.priority,
            seq: id.0,
            spec: job.spec,
        });
        drop(state);
        self.shared.available.notify_one();
        id
    }

    /// Take one finished result if any is ready (non-blocking stream
    /// consumption while the campaign runs).
    pub fn poll_result(&self) -> Option<JobResult> {
        self.results.try_recv().ok()
    }

    /// Close the queue, wait for every job, and return the remaining
    /// results plus the campaign metrics.
    pub fn finish(mut self) -> CampaignOutcome {
        {
            let mut state = self.shared.queue.lock().unwrap();
            state.closed = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            handle.join().expect("campaign worker panicked");
        }
        // Drop our sender so the drain below terminates.
        self.sender.take();
        let results: Vec<JobResult> = self.results.iter().collect();
        let metrics = CampaignMetrics {
            jobs: self.submitted as usize,
            completed: self.shared.completed.load(Ordering::SeqCst),
            failed: self.shared.failed.load(Ordering::SeqCst),
            workers: self.worker_count,
            cache: self.shared.cache.stats(),
            wall_seconds: self.started.elapsed().as_secs_f64(),
            total_iterations: self.shared.total_iterations.load(Ordering::SeqCst),
        };
        CampaignOutcome { results, metrics }
    }
}

/// Run a fixed batch to completion: every job is enqueued before the
/// workers start (so a single-worker campaign drains in exact priority
/// order), and the service is finished immediately.
pub fn run_campaign(jobs: Vec<Job>, workers: usize) -> CampaignOutcome {
    CampaignService::build(workers, jobs).finish()
}

fn worker_loop(shared: &Shared, tx: &Sender<JobResult>) {
    loop {
        let next = {
            let mut state = shared.queue.lock().unwrap();
            loop {
                if let Some(q) = state.heap.pop() {
                    break Some(q);
                }
                if state.closed {
                    break None;
                }
                state = shared.available.wait(state).unwrap();
            }
        };
        let Some(q) = next else { return };
        let result = execute(shared, q);
        match &result.result {
            Ok(out) => {
                shared.completed.fetch_add(1, Ordering::SeqCst);
                shared
                    .total_iterations
                    .fetch_add(out.iterations, Ordering::SeqCst);
            }
            Err(_) => {
                shared.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        // The receiver only disappears after every worker has joined,
        // so a send failure here is unreachable; ignore it rather than
        // poison the pool.
        let _ = tx.send(result);
    }
}

fn execute(shared: &Shared, q: Queued) -> JobResult {
    let t0 = Instant::now();
    let spec = &q.spec;
    let (cache, result) = match spec.run_spec().build_app() {
        Err(e) => (None, Err(e)),
        Ok(app) => {
            // Single- and multi-node jobs share one cached artifact per
            // `(dataset, variant, machine)` key: the canonical step
            // program is node-count-independent, so the multi-node
            // runner decomposes the same build a single-node job runs.
            let key = CacheKey::for_app(&app, spec.dataset.id, spec.variant);
            let (artifact, status) = shared.cache.get_or_build(key, || {
                StepArtifact::build(&app, &spec.dataset, spec.variant)
            });
            if !artifact.admitted() {
                (
                    Some(status),
                    Err(RunError::Admission {
                        variant: spec.variant,
                        diagnostics: artifact.diagnostics.clone(),
                    }),
                )
            } else {
                let sim_err = |source| {
                    RunError::from(VariantError {
                        variant: spec.variant,
                        source,
                    })
                };
                let run = if spec.nodes > 1 {
                    run_multinode_program(&app, &spec.dataset.system, &artifact.step, spec.nodes)
                        .map(|m| m.outcome)
                        .map_err(sim_err)
                } else {
                    app.run_step_program(&spec.dataset.system, &artifact.step)
                        .map_err(sim_err)
                };
                (Some(status), run)
            }
        }
    };
    JobResult {
        id: JobId(q.seq),
        priority: q.priority,
        label: spec.label(),
        cache,
        wall_seconds: t0.elapsed().as_secs_f64(),
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_jobs(ds: &Arc<Dataset>, variants: &[Variant], copies: usize) -> Vec<Job> {
        let mut jobs = Vec::new();
        for _ in 0..copies {
            for &v in variants {
                jobs.push(Job::new(JobSpec::new(ds.clone(), v)));
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
        assert_eq!(m.cache.distinct_keys, 2);
        assert_eq!(m.cache.misses, 2, "one build per distinct key");
        assert_eq!(m.cache.hits, 4, "every duplicate is a hit");
        assert_eq!(m.cache.bypass, 0);
        assert!(m.cache_hit_rate() > 0.6);
        assert!(m.total_iterations > 0);
    }

    #[test]
    fn jobs_differing_only_in_host_share_one_cache_key() {
        let ds = Arc::new(Dataset::small(27));
        let plain = JobSpec::new(ds.clone(), Variant::Variable);
        let other = plain.clone().host(HostExec {
            threads: 3,
            engine: merrimac_sim::KernelEngine::Interp,
            partition_verbose: false,
        });
        let key = |spec: &JobSpec| {
            let app = spec.run_spec().build_app().expect("valid");
            CacheKey::for_app(&app, spec.dataset.id, spec.variant)
        };
        assert_eq!(key(&plain), key(&other));
        let out = run_campaign(vec![Job::new(plain), Job::new(other)], 1);
        let c = out.metrics.cache;
        assert_eq!((c.misses, c.hits, c.distinct_keys), (1, 1, 1));
        let forces = |r: &JobResult| r.result.as_ref().expect("runs").forces.clone();
        assert_eq!(forces(&out.results[0]), forces(&out.results[1]));
    }

    #[test]
    fn single_worker_drains_in_priority_then_fifo_order() {
        let ds = Arc::new(Dataset::small(27));
        let jobs = vec![
            Job::new(JobSpec::new(ds.clone(), Variant::Variable)), // seq 0, prio 0
            Job::new(JobSpec::new(ds.clone(), Variant::Variable)).priority(5), // seq 1
            Job::new(JobSpec::new(ds.clone(), Variant::Variable)).priority(5), // seq 2
            Job::new(JobSpec::new(ds.clone(), Variant::Variable)).priority(1), // seq 3
        ];
        let out = run_campaign(jobs, 1);
        let order: Vec<u64> = out.results.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
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
            Job::new(JobSpec::new(ds.clone(), Variant::Variable).nodes(2)),
            Job::new(JobSpec::new(ds.clone(), Variant::Variable)),
            Job::new(JobSpec::new(ds.clone(), Variant::Variable).nodes(8)),
        ];
        let out = run_campaign(jobs, 2);
        assert_eq!(out.metrics.completed, 3);
        assert_eq!(out.metrics.cache.bypass, 0);
        assert_eq!(out.metrics.cache.misses, 1, "one build per distinct key");
        assert_eq!(out.metrics.cache.hits, 2);
        assert_eq!(out.metrics.cache.distinct_keys, 1);
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
            Job::new(JobSpec::new(ds.clone(), Variant::Fixed).nodes(2)),
            Job::new(JobSpec::new(ds.clone(), Variant::Fixed)),
        ];
        let out = run_campaign(jobs, 2);
        assert_eq!(out.metrics.completed, 2);
        assert_eq!(out.metrics.cache.bypass, 0);
        assert_eq!(out.metrics.cache.distinct_keys, 1);
        let forces: Vec<_> = out
            .results
            .iter()
            .map(|r| r.result.as_ref().expect("runs").forces.clone())
            .collect();
        assert_eq!(forces[0], forces[1]);
    }

    #[test]
    fn preflight_failure_is_a_typed_result_not_a_panic() {
        let ds = Arc::new(Dataset::small(27));
        // Node count far outside the modeled network.
        let jobs = vec![Job::new(
            JobSpec::new(ds.clone(), Variant::Variable).nodes(1 << 20),
        )];
        let out = run_campaign(jobs, 1);
        assert_eq!(out.metrics.failed, 1);
        let r = &out.results[0];
        assert!(r.cache.is_none(), "never reached the cache");
        let err = r.result.as_ref().expect_err("must fail preflight");
        let rendered = format!("{err}");
        // Identical rendering to the one-shot path for the same spec.
        let one_shot = merrimac_bench::run(ds.spec(Variant::Variable).nodes(1 << 20))
            .expect_err("one-shot fails the same way");
        assert_eq!(rendered, format!("{one_shot}"));
    }

    #[test]
    fn streaming_poll_and_finish_partition_the_results() {
        let ds = Arc::new(Dataset::small(27));
        let mut svc = CampaignService::new(2);
        for job in small_jobs(&ds, &[Variant::Variable, Variant::Expanded], 2) {
            svc.submit(job);
        }
        // Busy-poll until at least one result streams out.
        let mut streamed = Vec::new();
        while streamed.is_empty() {
            if let Some(r) = svc.poll_result() {
                streamed.push(r);
            } else {
                std::thread::yield_now();
            }
        }
        let out = svc.finish();
        assert_eq!(out.metrics.jobs, 4);
        assert_eq!(out.metrics.completed, 4);
        assert_eq!(streamed.len() + out.results.len(), 4);
    }
}
