//! Machine-readable run reports: each harness can emit a
//! `BENCH_<label>.json` file beside its tables, so downstream tooling
//! (plots, the trend gate) never scrapes stdout. The schema lives in this
//! file: each record's `to_json` over [`crate::json`], tagged with
//! [`SCHEMA_VERSION`]. Readers walk the parsed tree; the trend gate
//! compares it member by member with a baseline's, `schema_version`
//! included.

use std::io;
use std::path::{Path, PathBuf};

use merrimac_analysis::{severity_counts, Diagnostic};
use streammd::{MultiNodeBreakdown, PhaseBreakdown, StepOutcome};

use crate::json::{self, json_record, obj, Json, ToJson};

/// Version tag of the `BENCH_*.json` format. Bump whenever a field is
/// added, removed or changes meaning; a baseline of another version
/// fails the trend gate on its `schema_version` line (a stale baseline
/// must be refreshed, not guessed at).
///
/// Version history: 1 — original per-variant records; 2 — adds
/// `schema_version`, raw `lrf_refs`/`srf_refs` counts and the
/// per-phase cycle breakdown; 3 — adds the per-variant `partition`
/// object (`parallelized`, `strips`, `fallback` reason code) recording
/// whether the strip partitioner admitted the program to the sharded
/// parallel engine; 4 — the top-level `lints` array, a top-level
/// batch-job summary object and each variant's `multinode` object are
/// required (the last two `null` when the run had none); 5 — removes
/// the batch-job summary object.
pub const SCHEMA_VERSION: u64 = 5;

/// Static-analysis summary for one variant's step program: how many
/// diagnostics `merrimac_analysis::analyze_program` produced at each
/// severity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintRecord {
    pub variant: String,
    pub errors: usize,
    pub warnings: usize,
    pub infos: usize,
}

impl LintRecord {
    /// The severity counts of one variant's diagnostics.
    pub fn new(variant: &str, diags: &[Diagnostic]) -> Self {
        let (errors, warnings, infos) = severity_counts(diags);
        Self {
            variant: variant.to_string(),
            errors,
            warnings,
            infos,
        }
    }
}

json_record!(LintRecord {
    variant,
    errors,
    warnings,
    infos
});

/// One variant's measurements (or its failure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VariantRecord {
    pub variant: String,
    pub cycles: u64,
    /// Simulated seconds at the machine clock.
    pub seconds: f64,
    pub solution_gflops: f64,
    pub all_gflops: f64,
    pub intensity_measured: f64,
    /// (LRF, SRF, MEM) reference fractions.
    pub locality: (f64, f64, f64),
    /// Raw register-hierarchy reference counts behind the fractions.
    pub lrf_refs: u64,
    pub srf_refs: u64,
    pub mem_refs: u64,
    pub iterations: u64,
    /// Per-phase busy cycles (gather/load/kernel/scatter-add/store),
    /// scoreboard stalls, the strip partition and the multi-node
    /// breakdown.
    pub phases: PhaseBreakdown,
    /// Host wall-clock seconds spent simulating this variant.
    pub wall_seconds: f64,
    /// Set when the variant failed; measurement fields are zero.
    pub error: Option<String>,
}

impl VariantRecord {
    pub fn from_outcome(variant: &str, out: &StepOutcome, wall_seconds: f64) -> Self {
        Self {
            variant: variant.to_string(),
            cycles: out.perf.cycles,
            seconds: out.perf.seconds,
            solution_gflops: out.perf.solution_gflops,
            all_gflops: out.perf.all_gflops,
            intensity_measured: out.perf.intensity_measured,
            locality: out.perf.locality,
            lrf_refs: out.report.counters.lrf_refs,
            srf_refs: out.report.counters.srf_refs,
            mem_refs: out.perf.mem_refs,
            iterations: out.iterations,
            phases: out.perf.phases,
            wall_seconds,
            error: None,
        }
    }

    pub fn from_error(variant: &str, error: &str) -> Self {
        Self {
            variant: variant.to_string(),
            error: Some(error.to_string()),
            ..Self::default()
        }
    }
}

json_record!(MultiNodeBreakdown {
    nodes,
    compute_cycles_max,
    compute_cycles_mean,
    comm_cycles_max,
    step_cycles,
    halo_in_words,
    force_out_words,
});

impl ToJson for VariantRecord {
    fn to_json(&self) -> Json {
        let p = &self.phases;
        let (lrf, srf, mem) = self.locality;
        obj! {
            "variant": self.variant, "cycles": self.cycles, "seconds": self.seconds,
            "solution_gflops": self.solution_gflops, "all_gflops": self.all_gflops,
            "intensity_measured": self.intensity_measured,
            "locality": obj! { "lrf": lrf, "srf": srf, "mem": mem },
            "lrf_refs": self.lrf_refs, "srf_refs": self.srf_refs, "mem_refs": self.mem_refs,
            "iterations": self.iterations,
            "phases": obj! {
                "gather": p.gather_cycles, "load": p.load_cycles, "kernel": p.kernel_cycles,
                "scatter_add": p.scatter_add_cycles, "store": p.store_cycles,
                "sdr_stall": p.sdr_stall_cycles,
            },
            "partition": obj! {
                "parallelized": p.partition_parallelized, "strips": p.partition_strips,
                "fallback": p.partition_fallback.map(|k| k.code().to_string()),
            },
            "wall_seconds": self.wall_seconds, "multinode": p.multinode, "error": self.error,
        }
    }
}

/// A full run report, serialized as `BENCH_<label>.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Short slug naming the experiment (also names the output file).
    pub label: String,
    pub molecules: usize,
    /// Engine worker threads used for the functional phase.
    pub threads: usize,
    pub variants: Vec<VariantRecord>,
    /// Per-variant static analysis severity counts.
    pub lints: Vec<LintRecord>,
}

impl PerfReport {
    pub fn new(label: impl Into<String>, molecules: usize, threads: usize) -> Self {
        let label = label.into();
        Self {
            label,
            molecules,
            threads,
            ..Self::default()
        }
    }

    pub fn to_json(&self) -> String {
        json::render(&obj! {
            "label": self.label, "schema_version": SCHEMA_VERSION, "molecules": self.molecules,
            "threads": self.threads, "variants": self.variants, "lints": self.lints,
        })
    }

    /// Write `BENCH_<label>.json` under `dir` (created if missing),
    /// returning the path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.label));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Write under `$BENCH_REPORT_DIR` (default: current directory).
    pub fn write_default(&self) -> io::Result<PathBuf> {
        let dir = std::env::var("BENCH_REPORT_DIR").unwrap_or_else(|_| ".".to_string());
        self.write(Path::new(&dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_writes() {
        let mut report = PerfReport::new("unit_test", 64, 4);
        report
            .variants
            .push(VariantRecord::from_error("variable", "boom \"quoted\""));
        let json = report.to_json();
        assert!(json.contains("\"label\": \"unit_test\""));
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"multinode\": null"));
        let dir = std::env::temp_dir();
        let path = report.write(&dir).expect("writes");
        assert!(path.ends_with("BENCH_unit_test.json"));
        let back = std::fs::read_to_string(&path).expect("reads");
        assert_eq!(back, json);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_creates_a_missing_report_dir() {
        // A harness learns the directory from `BENCH_REPORT_DIR` only
        // after its whole run; a missing one must not lose the report.
        let root = std::env::temp_dir().join(format!("merrimac_report_{}", std::process::id()));
        let dir = root.join("not").join("there");
        let path = PerfReport::new("missing_dir", 8, 1)
            .write(&dir)
            .expect("creates the directory");
        assert!(path.starts_with(&dir) && path.is_file());
        std::fs::remove_dir_all(root).ok();
    }
}
