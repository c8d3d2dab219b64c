//! Perf-trend gate: a fresh [`PerfReport`] against a committed baseline,
//! exactly.
//!
//! Every simulated number in a report (cycles, flops, reference counts,
//! phase cycles, the strip partition, the multi-node breakdown, a
//! variant's error) is bit-deterministic: the same code gives the same
//! numbers on any host. So the baseline is a fixed point, not a band:
//! both sides go through the same render-and-parse path ([`json::parse`]
//! of the baseline text and of [`PerfReport::to_json`]) and every member
//! must match, except the ones that measure the host (`HOST_ONLY`). An
//! improvement fails like a regression until the baseline is refreshed
//! (`TREND_REFRESH=1`). The baseline location is overridden through
//! `TREND_BASELINE_DIR`.

use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::report::PerfReport;

/// Members that measure the host, not the simulated machine; the gate
/// skips them wherever they occur.
const HOST_ONLY: [&str; 2] = ["threads", "wall_seconds"];

/// Every difference between the `baseline` report text and `current`,
/// one `path: baseline → current` line each (`variants[2].phases.kernel:
/// 81234 → 81240`); a member or array item one side lacks reads
/// `missing`. No lines means the simulated fixed point holds. An error
/// means the baseline is not JSON.
pub fn diff(baseline: &str, current: &PerfReport) -> Result<Vec<String>, String> {
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = json::parse(&current.to_json()).expect("a rendered report parses");
    let mut lines = Vec::new();
    walk("", Some(&base), Some(&cur), &mut lines);
    Ok(lines)
}

fn walk(path: &str, base: Option<&Json>, cur: Option<&Json>, out: &mut Vec<String>) {
    match (base, cur) {
        (Some(b @ Json::Obj(base_members)), Some(c @ Json::Obj(cur_members))) => {
            let extra = cur_members.iter().filter(|(k, _)| b.get(k).is_none());
            for (key, _) in base_members.iter().chain(extra) {
                if HOST_ONLY.contains(&key.as_str()) {
                    continue;
                }
                let at = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(&at, b.get(key), c.get(key), out);
            }
        }
        (Some(Json::Arr(b)), Some(Json::Arr(c))) => {
            for i in 0..b.len().max(c.len()) {
                walk(&format!("{path}[{i}]"), b.get(i), c.get(i), out);
            }
        }
        (b, c) if b == c => {}
        (b, c) => out.push(format!("{path}: {} → {}", inline(b), inline(c))),
    }
}

/// `v` rendered on one line, or `missing`.
fn inline(v: Option<&Json>) -> String {
    v.map_or("missing".into(), |v| {
        json::render(v)
            .lines()
            .map(str::trim_start)
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// Directory holding committed baselines: `$TREND_BASELINE_DIR`, else
/// `bench/baselines/` at the repository root.
pub fn baseline_dir() -> PathBuf {
    match std::env::var("TREND_BASELINE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{VariantRecord, SCHEMA_VERSION};
    use merrimac_sim::FallbackKind;
    use streammd::{MultiNodeBreakdown, PhaseBreakdown};

    fn record(variant: &str, cycles: u64) -> VariantRecord {
        VariantRecord {
            variant: variant.into(),
            cycles,
            seconds: cycles as f64 * 1e-9,
            solution_gflops: 40.0,
            all_gflops: 48.5,
            intensity_measured: 10.25,
            locality: (0.95, 0.026, 0.024),
            lrf_refs: 1_000_000,
            srf_refs: 30_000,
            mem_refs: 25_000,
            iterations: 5_000,
            phases: PhaseBreakdown {
                kernel_cycles: 81_234,
                partition_parallelized: true,
                partition_strips: 7,
                ..PhaseBreakdown::default()
            },
            wall_seconds: 0.5,
            error: None,
        }
    }

    /// Four records: single-node ones, a serial fallback and a
    /// multi-node row.
    fn report() -> PerfReport {
        let mut r = PerfReport::new("trend_unit", 216, 1);
        r.variants = vec![record("expanded", 159_732), record("fixed", 106_214)];
        let mut serial = record("variable", 76_144);
        serial.phases.partition_parallelized = false;
        serial.phases.partition_fallback = Some(FallbackKind::RegionConflict);
        let mut nodes = record("variable@n8", 80_637);
        nodes.phases.multinode = Some(MultiNodeBreakdown {
            nodes: 8,
            compute_cycles_max: 60_000,
            compute_cycles_mean: 57_000,
            comm_cycles_max: 5_134,
            step_cycles: 80_637,
            halo_in_words: 39_650,
            force_out_words: 35_685,
        });
        r.variants.extend([serial, nodes]);
        r
    }

    fn edited(edit: impl FnOnce(&mut PerfReport)) -> PerfReport {
        let mut r = report();
        edit(&mut r);
        r
    }

    #[test]
    fn each_simulated_edit_is_one_line_naming_its_path_and_host_edits_none() {
        let base = report().to_json();
        let rows = [
            (
                edited(|r| r.variants[2].phases.kernel_cycles += 1),
                "variants[2].phases.kernel: 81234 → 81235",
            ),
            (
                edited(|r| r.variants[0].iterations += 1),
                "variants[0].iterations: 5000 → 5001",
            ),
            (
                edited(|r| r.variants[1].phases.partition_parallelized = false),
                "variants[1].partition.parallelized: true → false",
            ),
            (
                edited(|r| r.variants[3].error = Some("deadlock".into())),
                "variants[3].error: null → \"deadlock\"",
            ),
            (
                edited(|r| {
                    r.variants[3]
                        .phases
                        .multinode
                        .as_mut()
                        .unwrap()
                        .halo_in_words -= 1
                }),
                "variants[3].multinode.halo_in_words: 39650 → 39649",
            ),
            (edited(|r| r.variants.truncate(3)), "variants[3]: {"),
            (
                edited(|r| r.variants.push(record("duplicated", 156_364))),
                "variants[4]: missing → {",
            ),
        ];
        for (current, want) in rows {
            let lines = diff(&base, &current).unwrap();
            assert_eq!(lines.len(), 1, "{want}: {lines:?}");
            assert!(lines[0].starts_with(want), "{want}: {lines:?}");
        }
        let removed = diff(&base, &edited(|r| r.variants.truncate(3))).unwrap();
        assert!(removed[0].ends_with("} → missing"), "{removed:?}");

        // A bumped schema is a difference like any other.
        let current = format!("\"schema_version\": {SCHEMA_VERSION}");
        let older = format!("\"schema_version\": {}", SCHEMA_VERSION - 1);
        let stale = base.replace(&current, &older);
        let want = format!("schema_version: {} → {SCHEMA_VERSION}", SCHEMA_VERSION - 1);
        assert_eq!(diff(&stale, &report()).unwrap(), [want]);

        // The host's members never are.
        let host = edited(|r| {
            r.threads = 8;
            r.variants.iter_mut().for_each(|v| v.wall_seconds *= 3.0);
        });
        assert_eq!(diff(&base, &host).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn a_baseline_that_is_not_json_is_an_error() {
        let err = diff("{not json", &report()).unwrap_err();
        assert!(err.starts_with("baseline: "), "{err}");
    }
}
