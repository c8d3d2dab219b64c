//! The JSON layer at its trust boundaries: every committed trend baseline
//! parses at the current schema and is what `render` writes,
//! `merrimac-lint --json` agrees with the library's own analysis, a
//! rendered report survives `parse` and `render` byte for byte (what the
//! exact trend gate relies on), and the parser never panics on hostile
//! input.

use std::path::Path;
use std::process::Command;

use md_sim::water::WaterModel;
use merrimac_bench::json::{self, Json, ToJson};
use merrimac_bench::{
    analyze, atomic_system, small_system, LintRecord, PerfReport, RunSpec, VariantRecord,
    SCHEMA_VERSION,
};
use merrimac_sim::FallbackKind;
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use streammd::{MultiNodeBreakdown, PhaseBreakdown, Variant};

#[test]
fn every_committed_baseline_loads_at_the_current_schema() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench/baselines");
    let mut loaded = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("bench/baselines exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_trend_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let version = doc.get("schema_version").and_then(Json::as_u64);
        assert_eq!(version, Some(SCHEMA_VERSION), "{name}");
        let variants = doc.get("variants").and_then(Json::as_arr);
        assert!(
            variants.is_some_and(|v| !v.is_empty()),
            "{name} has no variants"
        );
        assert_eq!(
            json::render(&doc),
            text,
            "{name} is not what `render` writes"
        );
        loaded.push(name);
    }
    loaded.sort();
    assert_eq!(
        loaded,
        [
            "BENCH_trend_216.json",
            "BENCH_trend_900.json",
            "BENCH_trend_lj.json",
            "BENCH_trend_multinode.json"
        ]
    );
}

/// Run `merrimac-lint --json` with `args` and check each variant's counts
/// against `LintRecord::new` over the library's analysis of the same box.
fn lint_json_matches_the_library(args: &[&str], workload: Option<WaterModel>, molecules: usize) {
    let out = Command::new(env!("CARGO_BIN_EXE_merrimac-lint"))
        .args(args)
        .arg("--json")
        .output()
        .expect("merrimac-lint runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let doc = json::parse(&stdout).unwrap_or_else(|e| panic!("{e}:\n{stdout}"));
    let count = |key| doc.get(key).and_then(Json::as_u64);
    assert_eq!(count("molecules"), Some(molecules as u64));
    let docs = doc
        .get("variants")
        .and_then(Json::as_arr)
        .expect("variants");
    assert_eq!(docs.len(), Variant::ALL.len());

    let (system, list) = match workload {
        Some(model) => atomic_system(model, molecules),
        None => small_system(molecules),
    };
    let mut total = 0;
    for (variant, got) in Variant::ALL.into_iter().zip(docs) {
        let diags = analyze(RunSpec::new(&system, &list, variant)).expect("analyses");
        let want = LintRecord::new(variant.name(), &diags);
        let Json::Obj(members) = want.to_json() else {
            panic!("a lint record is an object")
        };
        for (key, value) in members {
            assert_eq!(got.get(&key), Some(&value), "{args:?}: `{key}`");
        }
        let listed = got
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics");
        assert_eq!(listed.len(), diags.len());
        total += want.errors;
    }
    assert_eq!(count("total_errors"), Some(total as u64));
    assert_eq!(out.status.success(), total == 0);
}

#[test]
fn lint_json_matches_the_library_on_water_27() {
    lint_json_matches_the_library(&["--molecules", "27"], None, 27);
}

#[test]
fn lint_json_matches_the_library_on_lj_64() {
    let args = ["--workload", "lj", "--molecules", "64"];
    lint_json_matches_the_library(&args, Some(WaterModel::lj_atom()), 64);
}

/// Counters with the edges of the exact range (0 and 2^53) well
/// represented.
fn count(rng: &mut TestRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => 1 << 53,
        2 => rng.gen_range(0..1000),
        _ => rng.gen_range(0..(1 << 53) + 1),
    }
}

/// Any finite float: every bit pattern but NaN and ±∞, plus integral
/// values (which render without a fraction).
fn finite(rng: &mut TestRng) -> f64 {
    if rng.gen_bool(0.2) {
        return count(rng) as f64;
    }
    loop {
        let x = f64::from_bits(rng.gen());
        if x.is_finite() {
            return x;
        }
    }
}

/// Text with quotes, backslashes, control characters and non-ASCII.
fn text(rng: &mut TestRng) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '水', '🦀', '\u{2028}',
    ];
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

const FALLBACKS: [Option<FallbackKind>; 5] = [
    None,
    Some(FallbackKind::BufferCrossesStrips),
    Some(FallbackKind::RegionConflict),
    Some(FallbackKind::WriteWriteOverlap),
    Some(FallbackKind::ReadAfterWrite),
];

fn variant_record(rng: &mut TestRng) -> VariantRecord {
    let multinode = rng.gen_bool(0.5).then(|| MultiNodeBreakdown {
        nodes: rng.gen(),
        compute_cycles_max: count(rng),
        compute_cycles_mean: count(rng),
        comm_cycles_max: count(rng),
        step_cycles: count(rng),
        halo_in_words: count(rng),
        force_out_words: count(rng),
    });
    VariantRecord {
        variant: text(rng),
        cycles: count(rng),
        seconds: finite(rng),
        solution_gflops: finite(rng),
        all_gflops: finite(rng),
        intensity_measured: finite(rng),
        locality: (finite(rng), finite(rng), finite(rng)),
        lrf_refs: count(rng),
        srf_refs: count(rng),
        mem_refs: count(rng),
        iterations: count(rng),
        phases: PhaseBreakdown {
            gather_cycles: count(rng),
            load_cycles: count(rng),
            kernel_cycles: count(rng),
            scatter_add_cycles: count(rng),
            store_cycles: count(rng),
            sdr_stall_cycles: count(rng),
            partition_parallelized: rng.gen(),
            partition_strips: rng.gen(),
            partition_fallback: FALLBACKS[rng.gen_range(0..FALLBACKS.len())],
            multinode,
        },
        wall_seconds: finite(rng),
        error: rng.gen_bool(0.5).then(|| text(rng)),
    }
}

/// Generated reports: every field drawn, `multinode` present and
/// absent.
struct Reports;

impl Strategy for Reports {
    type Value = PerfReport;

    fn sample(&self, rng: &mut TestRng) -> PerfReport {
        let mut report = PerfReport::new(text(rng), count(rng) as usize, count(rng) as usize);
        report.variants = (0..rng.gen_range(0..4))
            .map(|_| variant_record(rng))
            .collect();
        report.lints = (0..rng.gen_range(0..4))
            .map(|_| LintRecord {
                variant: text(rng),
                errors: count(rng) as usize,
                warnings: count(rng) as usize,
                infos: count(rng) as usize,
            })
            .collect();
        report
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reports_round_trip_exactly(report in Reports) {
        let text = report.to_json();
        prop_assert_eq!(json::render(&json::parse(&text).unwrap()), text);
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..255, 0..64)) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_json_like_bytes(
        bytes in prop::collection::vec(prop::sample::select(b"[]{}\":,\\u0e1.-+ \ntrnl".to_vec()), 0..64)
    ) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_mutated_reports(
        report in Reports,
        edits in prop::collection::vec((0usize..1 << 20, 0u8..255), 0..6),
        cut in 0usize..1 << 20,
    ) {
        let mut bytes = report.to_json().into_bytes();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if cut % 2 == 0 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn non_finite_floats_are_written_as_null() {
    let mut record = VariantRecord::from_error("nan", "none");
    record.seconds = f64::NAN;
    record.solution_gflops = f64::INFINITY;
    record.all_gflops = f64::NEG_INFINITY;
    record.locality = (f64::NAN, 0.5, f64::INFINITY);
    let mut report = PerfReport::new("non_finite", 1, 1);
    report.variants.push(record);
    let text = report.to_json();
    assert!(text.contains("\"seconds\": null"), "{text}");
    assert!(text.contains("\"locality\": {\"lrf\": null, \"srf\": 0.5, \"mem\": null}"));

    let doc = json::parse(&text).expect("parses");
    let record = &doc.get("variants").and_then(Json::as_arr).unwrap()[0];
    for key in ["seconds", "solution_gflops", "all_gflops"] {
        assert_eq!(record.get(key), Some(&Json::Null), "{key}");
    }
    assert_eq!(json::render(&doc), text);
}
