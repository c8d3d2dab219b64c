//! Perf-trend diffing: compare a fresh [`PerfReport`] against a
//! committed baseline and flag regressions.
//!
//! The gated metrics (cycles, GFLOPS, arithmetic intensity, the
//! locality split and, on a multi-node row, the compute imbalance) are
//! simulated and bit-deterministic — same code, same numbers on any
//! host — so their tolerances are tight and exist only to absorb
//! deliberate, reviewed model changes below the noise floor of
//! interest. Host wall-clock is recorded in the report but not
//! gated here: the repo benchmark (`BENCHMARK.json`) owns host time.
//! The baseline location is overridden through `TREND_BASELINE_DIR`.
//!
//! Direction matters: a metric only regresses in its *bad* direction
//! (GFLOPS/intensity down, MEM-fraction/cycles/imbalance up).
//! Improvements of any size pass — the gate exists to stop silent decay,
//! not to freeze progress; after an intentional improvement or model
//! change, refresh the baseline (`TREND_REFRESH=1`). The imbalance is
//! the busiest node over the mean, so a change that speeds up the
//! other nodes alone also raises it and trips the gate, even though
//! the step does less work: such a change needs a deliberate refresh.

use std::path::{Path, PathBuf};

use crate::report::{PerfReport, VariantRecord};

/// Max absolute rise in a multi-node row's compute imbalance (absolute,
/// because the imbalance sits near 0 at two nodes).
const IMBALANCE_ABS: f64 = 0.02;

/// Allowed movement per metric before the gate trips.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Max fractional drop in solution GFLOPS.
    pub gflops_frac: f64,
    /// Max fractional drop in measured arithmetic intensity.
    pub intensity_frac: f64,
    /// Max absolute rise in the MEM locality fraction.
    pub locality_abs: f64,
    /// Max fractional rise in simulated cycles.
    pub cycles_frac: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            gflops_frac: 0.02,
            intensity_frac: 0.02,
            locality_abs: 0.02,
            cycles_frac: 0.02,
        }
    }
}

/// One metric of one variant, baseline vs. current.
#[derive(Debug, Clone)]
pub struct Delta {
    pub variant: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub current: f64,
    /// Signed movement in the metric's bad direction (fractional for
    /// ratio metrics, absolute for the locality fraction and the
    /// imbalance): positive means "got worse".
    pub worsening: f64,
    pub tolerance: f64,
    pub regressed: bool,
}

/// Outcome of diffing one report pair.
#[derive(Debug, Clone, Default)]
pub struct TrendDiff {
    pub deltas: Vec<Delta>,
    /// Structural failures no tolerance applies to: variants that
    /// disappeared or started erroring.
    pub problems: Vec<String>,
}

impl TrendDiff {
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    pub fn is_regression(&self) -> bool {
        !self.problems.is_empty() || self.deltas.iter().any(|d| d.regressed)
    }
}

/// Diff `current` against `baseline` under `tol`.
pub fn compare(baseline: &PerfReport, current: &PerfReport, tol: &Tolerances) -> TrendDiff {
    let mut diff = TrendDiff::default();
    for base in &baseline.variants {
        let Some(cur) = current.variants.iter().find(|c| c.variant == base.variant) else {
            diff.problems.push(format!(
                "variant {}: present in baseline but missing from this run",
                base.variant
            ));
            continue;
        };
        match (&base.error, &cur.error) {
            (None, Some(e)) => {
                diff.problems
                    .push(format!("variant {}: now fails: {e}", base.variant));
                continue;
            }
            (Some(_), _) => continue, // was broken at baseline time: nothing to compare
            (None, None) => {}
        }
        // Losing the parallel engine is structural, not a tolerance
        // question: the simulated numbers stay identical (the serial
        // fallback is exact), so only this check catches the wall-clock
        // capability silently disappearing.
        if base.phases.partition_parallelized && !cur.phases.partition_parallelized {
            let why = cur
                .phases
                .partition_fallback
                .map(|k| k.code())
                .unwrap_or("no reason recorded");
            diff.problems.push(format!(
                "variant {}: strip partitioner fell back to serial ({why}) \
                 but the baseline ran parallelized",
                base.variant
            ));
        }
        diff.deltas.extend(variant_deltas(base, cur, tol));
    }
    for cur in &current.variants {
        let new = !baseline.variants.iter().any(|b| b.variant == cur.variant);
        if new {
            if let Some(e) = &cur.error {
                diff.problems
                    .push(format!("new variant {} fails: {e}", cur.variant));
            }
        }
    }
    diff
}

fn variant_deltas(base: &VariantRecord, cur: &VariantRecord, tol: &Tolerances) -> Vec<Delta> {
    // Fractional drop (for higher-is-better metrics).
    let drop_frac = |b: f64, c: f64| (b - c) / b.abs().max(1e-12);
    // Fractional rise (for lower-is-better metrics).
    let rise_frac = |b: f64, c: f64| (c - b) / b.abs().max(1e-12);
    let mk = |metric, b, c, worsening: f64, tolerance| Delta {
        variant: base.variant.clone(),
        metric,
        baseline: b,
        current: c,
        worsening,
        tolerance,
        regressed: worsening > tolerance,
    };
    let mut deltas = vec![
        mk(
            "solution_gflops",
            base.solution_gflops,
            cur.solution_gflops,
            drop_frac(base.solution_gflops, cur.solution_gflops),
            tol.gflops_frac,
        ),
        mk(
            "intensity",
            base.intensity_measured,
            cur.intensity_measured,
            drop_frac(base.intensity_measured, cur.intensity_measured),
            tol.intensity_frac,
        ),
        mk(
            "mem_fraction",
            base.locality.2,
            cur.locality.2,
            cur.locality.2 - base.locality.2,
            tol.locality_abs,
        ),
        mk(
            "cycles",
            base.cycles as f64,
            cur.cycles as f64,
            rise_frac(base.cycles as f64, cur.cycles as f64),
            tol.cycles_frac,
        ),
    ];
    // A multi-node row also gates how evenly its nodes are loaded.
    if let (Some(b), Some(c)) = (base.phases.multinode, cur.phases.multinode) {
        let (b, c) = (b.imbalance(), c.imbalance());
        deltas.push(mk("imbalance", b, c, c - b, IMBALANCE_ABS));
    }
    deltas
}

/// Render the human-readable delta table (every metric, regressions
/// marked) plus any structural problems.
pub fn render_table(diff: &TrendDiff) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  status\n",
        "variant", "metric", "baseline", "current", "worse", "tol"
    ));
    for d in &diff.deltas {
        out.push_str(&format!(
            "{:<12} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}\n",
            d.variant,
            d.metric,
            d.baseline,
            d.current,
            d.worsening * 100.0,
            d.tolerance * 100.0,
            if d.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    for p in &diff.problems {
        out.push_str(&format!("PROBLEM: {p}\n"));
    }
    out
}

/// Directory holding committed baselines: `$TREND_BASELINE_DIR`, else
/// `bench/baselines/` at the repository root.
pub fn baseline_dir() -> PathBuf {
    match std::env::var("TREND_BASELINE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines"),
    }
}

/// Load `BENCH_<label>.json` from `dir`. A missing file is `Ok(None)`
/// (first run, or a deliberately retired baseline); an unreadable or
/// schema-mismatched file is an error — a corrupt gate must fail loudly,
/// not silently pass.
pub fn load_baseline(dir: &Path, label: &str) -> Result<Option<PerfReport>, String> {
    let path = dir.join(format!("BENCH_{label}.json"));
    if !path.exists() {
        return Ok(None);
    }
    PerfReport::load(&path).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SCHEMA_VERSION;
    use streammd::PhaseBreakdown;

    fn record(variant: &str, gflops: f64, cycles: u64) -> VariantRecord {
        VariantRecord {
            variant: variant.into(),
            cycles,
            seconds: 1e-4,
            solution_gflops: gflops,
            all_gflops: gflops * 1.2,
            intensity_measured: 10.0,
            locality: (0.95, 0.026, 0.024),
            lrf_refs: 1_000_000,
            srf_refs: 30_000,
            mem_refs: 25_000,
            iterations: 5_000,
            phases: PhaseBreakdown::default(),
            wall_seconds: 0.5,
            error: None,
        }
    }

    fn report(records: Vec<VariantRecord>) -> PerfReport {
        let mut r = PerfReport::new("trend_unit", 216, 1);
        r.variants = records;
        r
    }

    #[test]
    fn five_percent_gflops_drop_is_flagged_naming_variant_and_metric() {
        let base = report(vec![record("fixed", 40.0, 100_000)]);
        let cur = report(vec![record("fixed", 38.0, 100_000)]);
        let diff = compare(&base, &cur, &Tolerances::default());
        assert!(diff.is_regression());
        let regs = diff.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].variant, "fixed");
        assert_eq!(regs[0].metric, "solution_gflops");
        let table = render_table(&diff);
        assert!(table.contains("fixed"), "{table}");
        assert!(table.contains("solution_gflops"), "{table}");
        assert!(table.contains("REGRESSED"), "{table}");
    }

    #[test]
    fn improvements_and_small_noise_pass() {
        let base = report(vec![record("fixed", 40.0, 100_000)]);
        // 10% faster plus cycles down: strictly better.
        let better = report(vec![record("fixed", 44.0, 90_000)]);
        assert!(!compare(&base, &better, &Tolerances::default()).is_regression());
        // 1% slower: inside the default 2% band.
        let noisy = report(vec![record("fixed", 39.6, 101_000)]);
        assert!(!compare(&base, &noisy, &Tolerances::default()).is_regression());
    }

    #[test]
    fn cycle_growth_and_new_errors_are_regressions() {
        let base = report(vec![
            record("fixed", 40.0, 100_000),
            record("variable", 30.0, 90_000),
        ]);
        let cur = report(vec![
            record("fixed", 40.0, 110_000),
            VariantRecord::from_error("variable", "scoreboard deadlock"),
        ]);
        let diff = compare(&base, &cur, &Tolerances::default());
        assert!(diff.is_regression());
        assert!(diff.regressions().iter().any(|d| d.metric == "cycles"));
        assert!(
            diff.problems.iter().any(|p| p.contains("variable")),
            "{:?}",
            diff.problems
        );
    }

    #[test]
    fn an_imbalance_rise_on_a_multinode_row_is_a_regression() {
        let nodes = |max: u64, mean: u64| {
            let mut r = record("variable@n8", 40.0, 100_000);
            r.phases.multinode = Some(streammd::MultiNodeBreakdown {
                nodes: 8,
                compute_cycles_max: max,
                compute_cycles_mean: mean,
                comm_cycles_max: 1_000,
                step_cycles: 100_000,
                halo_in_words: 4_000,
                force_out_words: 3_600,
            });
            r
        };
        // Same step, GFLOPS and cycles: only the spread of the nodes moved.
        let base = report(vec![nodes(99_000, 96_000)]);
        let cur = report(vec![nodes(99_000, 90_000)]);
        let diff = compare(&base, &cur, &Tolerances::default());
        let regs = diff.regressions();
        assert_eq!(regs.len(), 1, "{}", render_table(&diff));
        assert_eq!(regs[0].metric, "imbalance");
        assert!(!compare(&cur, &base, &Tolerances::default()).is_regression());
        // A single-node row has no imbalance to gate.
        let single = report(vec![record("fixed", 40.0, 100_000)]);
        let diff = compare(&single, &single, &Tolerances::default());
        assert!(diff.deltas.iter().all(|d| d.metric != "imbalance"));
    }

    #[test]
    fn losing_the_parallel_engine_is_a_structural_problem() {
        let parallel = |v: &str| {
            let mut r = record(v, 40.0, 100_000);
            r.phases.partition_parallelized = true;
            r.phases.partition_strips = 8;
            r
        };
        let serial = |v: &str| {
            let mut r = record(v, 40.0, 100_000);
            r.phases.partition_fallback = Some(merrimac_sim::FallbackKind::RegionConflict);
            r
        };
        let base = report(vec![parallel("fixed")]);
        // Identical simulated numbers, but the partitioner now falls
        // back: every tolerance passes, the structural check must trip.
        let cur = report(vec![serial("fixed")]);
        let diff = compare(&base, &cur, &Tolerances::default());
        assert!(diff.is_regression());
        assert!(diff.regressions().is_empty(), "no metric moved");
        assert_eq!(diff.problems.len(), 1);
        assert!(
            diff.problems[0].contains("region_conflict"),
            "{:?}",
            diff.problems
        );
        // The reverse direction (serial baseline, parallel current) is
        // an improvement, not a problem.
        let diff = compare(&cur, &base, &Tolerances::default());
        assert!(!diff.is_regression());
    }

    #[test]
    fn vanished_variant_is_a_problem_and_baseline_errors_are_ignored() {
        let base = report(vec![
            record("fixed", 40.0, 100_000),
            VariantRecord::from_error("variable", "was already broken"),
        ]);
        let cur = report(vec![VariantRecord::from_error("variable", "still broken")]);
        let diff = compare(&base, &cur, &Tolerances::default());
        // `fixed` vanished → problem; `variable` was broken at baseline
        // time → no new signal.
        assert_eq!(diff.problems.len(), 1);
        assert!(diff.problems[0].contains("fixed"));
        assert!(diff.deltas.is_empty());
    }

    #[test]
    fn missing_baseline_is_tolerated_but_corrupt_one_is_not() {
        let dir = std::env::temp_dir().join(format!("trend_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_baseline(&dir, "no_such_label").unwrap().is_none());
        // Stale schema version → hard error, not a silent pass.
        let stale = report(vec![record("fixed", 40.0, 100_000)])
            .to_json()
            .replace(
                &format!("\"schema_version\": {SCHEMA_VERSION}"),
                &format!("\"schema_version\": {}", SCHEMA_VERSION - 1),
            );
        std::fs::write(dir.join("BENCH_stale.json"), stale).unwrap();
        let err = load_baseline(&dir, "stale").expect_err("stale schema must error");
        assert!(err.contains("schema version"), "{err}");
        // Garbage → hard error too.
        std::fs::write(dir.join("BENCH_garbage.json"), "{not json").unwrap();
        assert!(load_baseline(&dir, "garbage").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
