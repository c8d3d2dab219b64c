//! Machine-readable run reports: each harness can emit a
//! `BENCH_<label>.json` file alongside its human-readable tables so
//! downstream tooling (plots, regression tracking) never scrapes
//! stdout.
//!
//! The JSON is rendered by hand — the workspace builds offline and the
//! vendored `serde` is a no-op stand-in — so the schema lives entirely
//! in this file: a report object tagged with [`SCHEMA_VERSION`] holding
//! per-variant records of GFLOPS, arithmetic intensity, the locality
//! split with its raw per-level reference counts, the per-phase cycle
//! breakdown, simulated seconds, host wall-clock and the engine thread
//! count. [`PerfReport::from_json`] reads the same format back (via the
//! hand-rolled [`crate::json`] parser) for the trend harness and
//! rejects reports written by a different schema version.

use std::io;
use std::path::{Path, PathBuf};

use merrimac_sim::FallbackKind;
use streammd::{MultiNodeBreakdown, PhaseBreakdown, StepOutcome};

use crate::json::{self, Json};

/// Version tag of the `BENCH_*.json` format. Bump whenever a field is
/// added, removed or changes meaning; the trend harness refuses to diff
/// across versions (a stale baseline must be refreshed, not guessed at).
///
/// Version history: 1 — original per-variant records; 2 — adds
/// `schema_version`, raw `lrf_refs`/`srf_refs` counts and the
/// per-phase cycle breakdown; 3 — adds the per-variant `partition`
/// object (`parallelized`, `strips`, `fallback` reason code) recording
/// whether the strip partitioner admitted the program to the sharded
/// parallel engine.
///
/// The top-level `lints` array (per-variant static analysis severity
/// counts from `merrimac_analysis`) is an *additive, leniently parsed*
/// field: readers treat a missing array as empty and the trend harness
/// never diffs it, so adding it did not bump the version — committed
/// schema-3 baselines stay valid.
pub const SCHEMA_VERSION: u64 = 3;

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
    fn to_json(&self) -> String {
        format!(
            "    {{\"variant\": {}, \"errors\": {}, \"warnings\": {}, \"infos\": {}}}",
            json_str(&self.variant),
            self.errors,
            self.warnings,
            self.infos
        )
    }

    fn from_json_value(v: &Json) -> Result<Self, String> {
        let count = |k: &str| -> Result<usize, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("lint record missing count `{k}`"))
        };
        Ok(Self {
            variant: v
                .get("variant")
                .and_then(Json::as_str)
                .ok_or("lint record missing `variant`")?
                .to_string(),
            errors: count("errors")?,
            warnings: count("warnings")?,
            infos: count("infos")?,
        })
    }
}

/// Campaign-level rate metrics from `merrimac_campaign`: how many jobs
/// ran, how the cross-job artifact cache behaved, and the aggregate
/// throughput. Additive, leniently parsed top-level block like `lints`:
/// absent in one-shot reports, never diffed by the trend harness, so it
/// did not bump [`SCHEMA_VERSION`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignRecord {
    /// Jobs in the campaign.
    pub jobs: usize,
    /// Jobs that produced a `StepOutcome`.
    pub completed: usize,
    /// Jobs that failed (preflight, admission, simulator errors, panics).
    pub failed: usize,
    /// Worker threads the campaign was scheduled across.
    pub workers: usize,
    /// Jobs served compiled artifacts from the cross-job cache.
    pub cache_hits: usize,
    /// Jobs that built (and populated) their artifact slot.
    pub cache_misses: usize,
    /// Distinct `(dataset, variant, machine)` keys seen.
    pub distinct_keys: usize,
    /// Host wall-clock seconds from the first job's dispatch to the last
    /// job's end.
    pub wall_seconds: f64,
    /// Completed jobs per host wall-clock second.
    pub jobs_per_sec: f64,
    /// Aggregate simulated pair interactions per host wall-clock second
    /// across all completed jobs.
    pub interactions_per_sec: f64,
}

impl CampaignRecord {
    /// Fraction of cacheable jobs served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let cacheable = self.cache_hits + self.cache_misses;
        if cacheable == 0 {
            0.0
        } else {
            self.cache_hits as f64 / cacheable as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n    \"jobs\": {}, \"completed\": {}, \"failed\": {}, \"workers\": {},\n    \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"distinct_keys\": {},\n    \"wall_seconds\": {}, \"jobs_per_sec\": {}, \
             \"interactions_per_sec\": {}\n  }}",
            self.jobs,
            self.completed,
            self.failed,
            self.workers,
            self.cache_hits,
            self.cache_misses,
            self.distinct_keys,
            json_f64(self.wall_seconds),
            json_f64(self.jobs_per_sec),
            json_f64(self.interactions_per_sec)
        )
    }

    fn from_json_value(v: &Json) -> Option<Self> {
        let count = |k: &str| v.get(k).and_then(Json::as_u64).map(|n| n as usize);
        // `json_f64` writes non-finite values as null; read them as 0.
        let num = |k: &str| match v.get(k) {
            Some(Json::Null) => Some(0.0),
            Some(j) => j.as_f64(),
            None => None,
        };
        Some(Self {
            jobs: count("jobs")?,
            completed: count("completed")?,
            failed: count("failed")?,
            workers: count("workers")?,
            cache_hits: count("cache_hits")?,
            cache_misses: count("cache_misses")?,
            distinct_keys: count("distinct_keys")?,
            wall_seconds: num("wall_seconds")?,
            jobs_per_sec: num("jobs_per_sec")?,
            interactions_per_sec: num("interactions_per_sec")?,
        })
    }
}

/// One variant's measurements (or its failure).
#[derive(Debug, Clone)]
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
    /// Per-phase busy cycles (gather/load/kernel/scatter-add/store) and
    /// scoreboard stalls.
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
            cycles: 0,
            seconds: 0.0,
            solution_gflops: 0.0,
            all_gflops: 0.0,
            intensity_measured: 0.0,
            locality: (0.0, 0.0, 0.0),
            lrf_refs: 0,
            srf_refs: 0,
            mem_refs: 0,
            iterations: 0,
            phases: PhaseBreakdown::default(),
            wall_seconds: 0.0,
            error: Some(error.to_string()),
        }
    }

    fn to_json(&self) -> String {
        let p = &self.phases;
        let mut fields = vec![
            format!("\"variant\": {}", json_str(&self.variant)),
            format!("\"cycles\": {}", self.cycles),
            format!("\"seconds\": {}", json_f64(self.seconds)),
            format!("\"solution_gflops\": {}", json_f64(self.solution_gflops)),
            format!("\"all_gflops\": {}", json_f64(self.all_gflops)),
            format!(
                "\"intensity_measured\": {}",
                json_f64(self.intensity_measured)
            ),
            format!(
                "\"locality\": {{\"lrf\": {}, \"srf\": {}, \"mem\": {}}}",
                json_f64(self.locality.0),
                json_f64(self.locality.1),
                json_f64(self.locality.2)
            ),
            format!("\"lrf_refs\": {}", self.lrf_refs),
            format!("\"srf_refs\": {}", self.srf_refs),
            format!("\"mem_refs\": {}", self.mem_refs),
            format!("\"iterations\": {}", self.iterations),
            format!(
                "\"phases\": {{\"gather\": {}, \"load\": {}, \"kernel\": {}, \"scatter_add\": {}, \"store\": {}, \"sdr_stall\": {}}}",
                p.gather_cycles,
                p.load_cycles,
                p.kernel_cycles,
                p.scatter_add_cycles,
                p.store_cycles,
                p.sdr_stall_cycles
            ),
            format!(
                "\"partition\": {{\"parallelized\": {}, \"strips\": {}, \"fallback\": {}}}",
                p.partition_parallelized,
                p.partition_strips,
                match p.partition_fallback {
                    Some(kind) => json_str(kind.code()),
                    None => "null".to_string(),
                }
            ),
            format!("\"wall_seconds\": {}", json_f64(self.wall_seconds)),
        ];
        // Additive, schema-lenient like the `lints` array: only written
        // for multi-node steps, ignored-if-missing by the reader, never
        // diffed by the trend harness (the gated metrics carry it via
        // `cycles`), so adding it did not bump the schema version.
        if let Some(mn) = p.multinode {
            fields.push(format!(
                "\"multinode\": {{\"nodes\": {}, \"compute_cycles_max\": {}, \
                 \"compute_cycles_mean\": {}, \"comm_cycles_max\": {}, \"step_cycles\": {}, \
                 \"halo_in_words\": {}, \"force_out_words\": {}}}",
                mn.nodes,
                mn.compute_cycles_max,
                mn.compute_cycles_mean,
                mn.comm_cycles_max,
                mn.step_cycles,
                mn.halo_in_words,
                mn.force_out_words
            ));
        }
        match &self.error {
            Some(e) => fields.push(format!("\"error\": {}", json_str(e))),
            None => fields.push("\"error\": null".to_string()),
        }
        format!("    {{\n      {}\n    }}", fields.join(",\n      "))
    }

    fn from_json_value(v: &Json) -> Result<Self, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("variant record missing string `{k}`"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("variant record missing count `{k}`"))
        };
        // `json_f64` writes non-finite values as null; read them back as 0.
        let f64_field = |k: &str| -> Result<f64, String> {
            match v.get(k) {
                Some(Json::Null) => Ok(0.0),
                Some(j) => j
                    .as_f64()
                    .ok_or_else(|| format!("variant record field `{k}` is not a number")),
                None => Err(format!("variant record missing number `{k}`")),
            }
        };
        let locality = v
            .get("locality")
            .ok_or("variant record missing `locality`")?;
        let loc_field = |k: &str| -> Result<f64, String> {
            locality
                .get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("locality missing `{k}`"))
        };
        let phases = v.get("phases").ok_or("variant record missing `phases`")?;
        let phase_field = |k: &str| -> Result<u64, String> {
            phases
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("phases missing `{k}`"))
        };
        let partition = v
            .get("partition")
            .ok_or("variant record missing `partition`")?;
        let partition_parallelized = partition
            .get("parallelized")
            .and_then(Json::as_bool)
            .ok_or("partition missing `parallelized`")?;
        let partition_strips = partition
            .get("strips")
            .and_then(Json::as_u64)
            .ok_or("partition missing `strips`")? as u32;
        let partition_fallback = match partition.get("fallback") {
            Some(Json::Str(s)) => Some(
                FallbackKind::from_code(s)
                    .ok_or_else(|| format!("unknown partition fallback code `{s}`"))?,
            ),
            _ => None,
        };
        let error = match v.get("error") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        // Additive multi-node block: absent (or malformed, in foreign
        // files) reads as None, mirroring the lenient `lints` handling.
        let multinode = v.get("multinode").and_then(|mn| {
            let field = |k: &str| mn.get(k).and_then(Json::as_u64);
            Some(MultiNodeBreakdown {
                nodes: field("nodes")? as u32,
                compute_cycles_max: field("compute_cycles_max")?,
                compute_cycles_mean: field("compute_cycles_mean")?,
                comm_cycles_max: field("comm_cycles_max")?,
                step_cycles: field("step_cycles")?,
                halo_in_words: field("halo_in_words")?,
                force_out_words: field("force_out_words")?,
            })
        });
        Ok(Self {
            variant: str_field("variant")?,
            cycles: u64_field("cycles")?,
            seconds: f64_field("seconds")?,
            solution_gflops: f64_field("solution_gflops")?,
            all_gflops: f64_field("all_gflops")?,
            intensity_measured: f64_field("intensity_measured")?,
            locality: (loc_field("lrf")?, loc_field("srf")?, loc_field("mem")?),
            lrf_refs: u64_field("lrf_refs")?,
            srf_refs: u64_field("srf_refs")?,
            mem_refs: u64_field("mem_refs")?,
            iterations: u64_field("iterations")?,
            phases: PhaseBreakdown {
                gather_cycles: phase_field("gather")?,
                load_cycles: phase_field("load")?,
                kernel_cycles: phase_field("kernel")?,
                scatter_add_cycles: phase_field("scatter_add")?,
                store_cycles: phase_field("store")?,
                sdr_stall_cycles: phase_field("sdr_stall")?,
                partition_parallelized,
                partition_strips,
                partition_fallback,
                multinode,
            },
            wall_seconds: f64_field("wall_seconds")?,
            error,
        })
    }
}

/// A full run report, serialized as `BENCH_<label>.json`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Short slug naming the experiment (also names the output file).
    pub label: String,
    /// Format version; always [`SCHEMA_VERSION`] for freshly built
    /// reports, whatever the file said for loaded ones.
    pub schema_version: u64,
    pub molecules: usize,
    /// Engine worker threads used for the functional phase.
    pub threads: usize,
    pub variants: Vec<VariantRecord>,
    /// Per-variant static analysis severity counts. Additive field:
    /// absent in older schema-3 files (parsed as empty) and ignored by
    /// the trend comparator.
    pub lints: Vec<LintRecord>,
    /// Campaign-service rate metrics. Additive field: absent in
    /// one-shot reports (parsed as `None`) and ignored by the trend
    /// comparator.
    pub campaign: Option<CampaignRecord>,
}

impl PerfReport {
    pub fn new(label: impl Into<String>, molecules: usize, threads: usize) -> Self {
        Self {
            label: label.into(),
            schema_version: SCHEMA_VERSION,
            molecules,
            threads,
            variants: Vec::new(),
            lints: Vec::new(),
            campaign: None,
        }
    }

    pub fn to_json(&self) -> String {
        let variants: Vec<String> = self.variants.iter().map(|v| v.to_json()).collect();
        let lints: Vec<String> = self.lints.iter().map(|l| l.to_json()).collect();
        let campaign = match &self.campaign {
            Some(c) => format!(",\n  \"campaign\": {}", c.to_json()),
            None => String::new(),
        };
        format!(
            "{{\n  \"label\": {},\n  \"schema_version\": {},\n  \"molecules\": {},\n  \"threads\": {},\n  \"variants\": [\n{}\n  ],\n  \"lints\": [\n{}\n  ]{}\n}}\n",
            json_str(&self.label),
            self.schema_version,
            self.molecules,
            self.threads,
            variants.join(",\n"),
            lints.join(",\n"),
            campaign
        )
    }

    /// Parse a report previously rendered by [`PerfReport::to_json`].
    ///
    /// A report whose `schema_version` differs from [`SCHEMA_VERSION`]
    /// (including pre-versioning files with no tag at all) is rejected:
    /// cross-version diffs silently compare renamed or re-scaled fields,
    /// so the only safe answer is "refresh the baseline".
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let version = v.get("schema_version").and_then(Json::as_u64).unwrap_or(1);
        if version != SCHEMA_VERSION {
            return Err(format!(
                "report schema version {version} does not match this binary's {SCHEMA_VERSION}; \
                 refresh the baseline (TREND_REFRESH=1) instead of diffing across formats"
            ));
        }
        let label = v
            .get("label")
            .and_then(Json::as_str)
            .ok_or("report missing `label`")?
            .to_string();
        let molecules = v
            .get("molecules")
            .and_then(Json::as_u64)
            .ok_or("report missing `molecules`")? as usize;
        let threads = v
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or("report missing `threads`")? as usize;
        let variants = v
            .get("variants")
            .and_then(Json::as_arr)
            .ok_or("report missing `variants`")?
            .iter()
            .map(VariantRecord::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        // Leniently parsed additive field: schema-3 files written before
        // the lint summary existed simply have no `lints` array.
        let lints = match v.get("lints").and_then(Json::as_arr) {
            Some(items) => items
                .iter()
                .map(LintRecord::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        // Additive campaign block: absent (or malformed, in foreign
        // files) reads as None, mirroring the lenient `multinode` block.
        let campaign = v.get("campaign").and_then(CampaignRecord::from_json_value);
        Ok(Self {
            label,
            schema_version: version,
            molecules,
            threads,
            variants,
            lints,
            campaign,
        })
    }

    /// Read and parse a report file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
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

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
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

    #[test]
    fn non_finite_values_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    fn sample_record() -> VariantRecord {
        VariantRecord {
            variant: "fixed".into(),
            cycles: 123_456,
            seconds: 1.25e-4,
            solution_gflops: 31.5,
            all_gflops: 40.25,
            intensity_measured: 10.5,
            locality: (0.95, 0.026, 0.024),
            lrf_refs: 9_000_000,
            srf_refs: 250_000,
            mem_refs: 230_000,
            iterations: 7_800,
            phases: PhaseBreakdown {
                gather_cycles: 100,
                load_cycles: 50,
                kernel_cycles: 9_000,
                scatter_add_cycles: 70,
                store_cycles: 30,
                sdr_stall_cycles: 5,
                partition_parallelized: true,
                partition_strips: 4,
                partition_fallback: None,
                multinode: Some(MultiNodeBreakdown {
                    nodes: 8,
                    compute_cycles_max: 1_200,
                    compute_cycles_mean: 1_000,
                    comm_cycles_max: 150,
                    step_cycles: 1_350,
                    halo_in_words: 4_000,
                    force_out_words: 3_600,
                }),
            },
            wall_seconds: 0.75,
            error: None,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut report = PerfReport::new("rt", 216, 2);
        report.variants.push(sample_record());
        let mut failed = VariantRecord::from_error("variable", "deadlock");
        failed.phases.partition_fallback = Some(FallbackKind::RegionConflict);
        report.variants.push(failed);
        report.lints.push(LintRecord {
            variant: "expanded".into(),
            errors: 0,
            warnings: 2,
            infos: 1,
        });
        let parsed = PerfReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed.label, "rt");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.molecules, 216);
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.variants.len(), 2);
        let a = &parsed.variants[0];
        let b = &report.variants[0];
        assert_eq!(a.variant, b.variant);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.solution_gflops, b.solution_gflops);
        assert_eq!(a.locality, b.locality);
        assert_eq!(a.lrf_refs, b.lrf_refs);
        assert_eq!(a.phases, b.phases);
        assert!(a.phases.partition_parallelized);
        assert_eq!(a.phases.partition_strips, 4);
        assert_eq!(a.error, None);
        let f = &parsed.variants[1].phases;
        assert_eq!(
            f.partition_fallback,
            Some(FallbackKind::RegionConflict),
            "fallback reason codes survive the round trip"
        );
        assert_eq!(
            parsed.variants[1].error.as_deref(),
            Some("deadlock"),
            "errors survive the round trip"
        );
        assert_eq!(parsed.lints, report.lints, "lint summary round-trips");
    }

    #[test]
    fn campaign_block_round_trips_and_is_optional() {
        // Absent block (every pre-campaign schema-3 file) parses as None.
        let mut report = PerfReport::new("camp", 64, 2);
        let parsed = PerfReport::from_json(&report.to_json()).expect("parses");
        assert!(parsed.campaign.is_none());
        assert!(!report.to_json().contains("campaign"));

        report.campaign = Some(CampaignRecord {
            jobs: 8,
            completed: 8,
            failed: 0,
            workers: 2,
            cache_hits: 4,
            cache_misses: 4,
            distinct_keys: 4,
            wall_seconds: 1.5,
            jobs_per_sec: 5.25,
            interactions_per_sec: 1.0e6,
        });
        let parsed = PerfReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed.campaign, report.campaign, "campaign round-trips");
        let c = parsed.campaign.unwrap();
        assert!((c.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn missing_lints_array_parses_as_empty() {
        // Schema-3 baselines committed before the lint summary existed
        // have no `lints` key; they must keep parsing unchanged.
        let json = format!(
            "{{\"label\": \"pre-lints\", \"schema_version\": {SCHEMA_VERSION}, \
             \"molecules\": 216, \"threads\": 1, \"variants\": []}}"
        );
        let parsed = PerfReport::from_json(&json).expect("parses without `lints`");
        assert!(parsed.lints.is_empty());
    }

    #[test]
    fn mismatched_schema_version_is_rejected() {
        let mut report = PerfReport::new("old", 64, 1);
        report.schema_version = SCHEMA_VERSION + 1;
        let err = PerfReport::from_json(&report.to_json()).expect_err("must reject");
        assert!(err.contains("schema version"), "{err}");
        // Pre-versioning reports (no tag) are implicitly version 1.
        let legacy = r#"{"label": "x", "molecules": 1, "threads": 1, "variants": []}"#;
        let err = PerfReport::from_json(legacy).expect_err("must reject untagged");
        assert!(err.contains("schema version 1"), "{err}");
    }
}
