//! Cross-job artifact cache.
//!
//! A campaign repeats `(dataset, variant, machine)` combinations while
//! the execution-only knobs vary, so the expensive per-job work — strip
//! layout, kernel compilation, memory-image construction and the
//! static-analysis admission verdict — is shared through this cache.
//! The cached [`StepArtifact`] is immutable: execution clones the
//! memory image (`StreamMdApp::run_step_program`), so a hit is
//! bitwise-identical to a fresh build.
//!
//! Concurrency: each key maps to an `Arc<OnceLock<…>>` slot. The map
//! lock is held only to find/insert the slot; the build itself runs
//! under the slot's `OnceLock`, so two workers racing on the same key
//! build it exactly once while builds for *different* keys proceed in
//! parallel.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use merrimac_analysis::{Diagnostic, Severity};
use merrimac_bench::DatasetId;
use streammd::{StepProgram, StreamMdApp, Variant};

/// Identity of a cacheable compiled artifact.
///
/// `machine` is a fingerprint of every app knob that shapes the built
/// program or its analysis verdict (machine config, op costs, SDR
/// policy, kernel options, block length, strip override). The host
/// settings (`HostExec`) and the node count are not among them: results
/// are bitwise-identical across those, so jobs differing only there
/// share artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub dataset: DatasetId,
    pub variant: Variant,
    pub machine: String,
}

impl CacheKey {
    /// Key for running `variant` over `dataset` on `app`'s machine.
    pub fn for_app(app: &StreamMdApp, dataset: DatasetId, variant: Variant) -> Self {
        let machine = format!(
            "{:?}|{:?}|{:?}|{:?}|L{}|strip{:?}",
            app.cfg, app.costs, app.policy, app.kernel_opt, app.block_l, app.strip_iterations
        );
        Self {
            dataset,
            variant,
            machine,
        }
    }
}

/// A compiled, analyzed step: everything per-key, nothing per-run.
pub struct StepArtifact {
    /// The built step program (memory image, stream program, layout,
    /// force region). Never mutated: runs clone the memory.
    pub step: Arc<StepProgram>,
    /// Full static-analysis output for the program.
    pub diagnostics: Vec<Diagnostic>,
}

impl StepArtifact {
    /// Build (and analyze) the artifact for one key.
    pub fn build(app: &StreamMdApp, dataset: &merrimac_bench::Dataset, variant: Variant) -> Self {
        let step = app.build_step_program(&dataset.system, &dataset.list, variant);
        let diagnostics = app.analyze_built(&step);
        Self {
            step: Arc::new(step),
            diagnostics,
        }
    }

    /// Error-severity diagnostics — non-empty means the admission gate
    /// refuses every job on this key.
    pub fn admission_errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    pub fn admitted(&self) -> bool {
        self.admission_errors().is_empty()
    }
}

/// How a job's artifacts were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from an already-built slot.
    Hit,
    /// This job built (and populated) the slot.
    Miss,
}

/// Counters the campaign metrics report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: usize,
    pub misses: usize,
    pub distinct_keys: usize,
}

type Slot = Arc<OnceLock<Arc<StepArtifact>>>;

/// Keyed once-only store of [`StepArtifact`]s shared by every campaign
/// worker.
#[derive(Default)]
pub struct ArtifactCache {
    slots: Mutex<HashMap<CacheKey, Slot>>,
    counters: Mutex<CacheStats>,
}

impl ArtifactCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the artifact for `key`, building it at most once across
    /// all workers. Returns the artifact and whether this call hit or
    /// built the slot.
    pub fn get_or_build(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> StepArtifact,
    ) -> (Arc<StepArtifact>, CacheStatus) {
        let slot: Slot = {
            let mut slots = self.slots.lock().unwrap();
            slots.entry(key).or_default().clone()
        };
        let mut built = false;
        let artifact = slot
            .get_or_init(|| {
                built = true;
                Arc::new(build())
            })
            .clone();
        let mut c = self.counters.lock().unwrap();
        let status = if built {
            c.misses += 1;
            CacheStatus::Miss
        } else {
            c.hits += 1;
            CacheStatus::Hit
        };
        (artifact, status)
    }

    pub fn stats(&self) -> CacheStats {
        let mut s = *self.counters.lock().unwrap();
        s.distinct_keys = self.slots.lock().unwrap().len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merrimac_bench::Dataset;

    fn app() -> StreamMdApp {
        StreamMdApp::builder().build().expect("default app builds")
    }

    #[test]
    fn same_key_builds_once() {
        let cache = ArtifactCache::new();
        let ds = Dataset::small(27);
        let app = app();
        let key = CacheKey::for_app(&app, ds.id, Variant::Fixed);
        let (a, s1) = cache.get_or_build(key.clone(), || {
            StepArtifact::build(&app, &ds, Variant::Fixed)
        });
        let (b, s2) = cache.get_or_build(key, || panic!("second lookup must not rebuild"));
        assert_eq!(s1, CacheStatus::Miss);
        assert_eq!(s2, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&a.step, &b.step), "hit returns the same build");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.distinct_keys), (1, 1, 1));
    }

    #[test]
    fn thread_count_does_not_split_the_key() {
        let ds = Dataset::small(27);
        let a1 = StreamMdApp::builder().threads(1).build().unwrap();
        let a4 = StreamMdApp::builder().threads(4).build().unwrap();
        assert_eq!(
            CacheKey::for_app(&a1, ds.id, Variant::Variable),
            CacheKey::for_app(&a4, ds.id, Variant::Variable)
        );
    }

    #[test]
    fn variant_and_dataset_split_the_key() {
        let app = app();
        let k = |id, v| CacheKey::for_app(&app, id, v);
        assert_ne!(
            k(DatasetId::Small(27), Variant::Fixed),
            k(DatasetId::Small(27), Variant::Variable)
        );
        assert_ne!(
            k(DatasetId::Small(27), Variant::Fixed),
            k(DatasetId::Small(64), Variant::Fixed)
        );
    }

    #[test]
    fn shipped_variants_are_admitted() {
        let ds = Dataset::small(27);
        let app = app();
        for v in Variant::ALL {
            let art = StepArtifact::build(&app, &ds, v);
            assert!(art.admitted(), "{v} must pass admission");
        }
    }

    #[test]
    fn concurrent_lookups_build_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ArtifactCache::new();
        let ds = Dataset::small(27);
        let app = app();
        let key = CacheKey::for_app(&app, ds.id, Variant::Duplicated);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_build(key.clone(), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        StepArtifact::build(&app, &ds, Variant::Duplicated)
                    });
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
