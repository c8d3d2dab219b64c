//! Campaign acceptance: a campaign over shuffled duplicate
//! specs is indistinguishable — bitwise — from running each spec
//! through the one-shot `bench::run` path, and the cross-job artifact
//! cache builds each distinct `(dataset, variant)` key exactly once.

use std::collections::HashMap;
use std::sync::Arc;

use merrimac_bench::{run, Dataset};
use merrimac_campaign::{run_campaign, Job};
use proptest::prelude::*;
use streammd::Variant;

/// `picks[i] = (dataset_index, variant_index, priority)` — the i-th
/// submitted job. Duplicates are the point: they must come out of the
/// cache, bitwise-identical to independent runs.
fn run_case(picks: Vec<(usize, usize, i32)>, workers: usize) {
    let datasets = [Arc::new(Dataset::small(27)), Arc::new(Dataset::small(48))];
    let variants = Variant::ALL;
    let key_of = |&(d, v, _): &(usize, usize, i32)| (d % datasets.len(), v % variants.len());

    let jobs: Vec<Job> = picks
        .iter()
        .map(|pick| {
            let (d, v) = key_of(pick);
            Job::new(datasets[d].clone(), variants[v]).priority(pick.2)
        })
        .collect();
    let out = run_campaign(jobs, workers);

    // N independent one-shot runs of the same specs (deduplicated: the
    // one-shot path is deterministic, so one run per key is N runs).
    let mut expected = HashMap::new();
    for pick in &picks {
        let (d, v) = key_of(pick);
        expected
            .entry((d, v))
            .or_insert_with(|| run(datasets[d].spec(variants[v])).expect("one-shot spec runs"));
    }

    let m = &out.metrics;
    assert_eq!(m.jobs, picks.len());
    assert_eq!(m.completed, picks.len(), "every job completes");
    assert_eq!(m.failed, 0);
    assert_eq!(
        m.distinct_keys,
        expected.len(),
        "one cache slot per distinct (dataset, variant)"
    );
    assert_eq!(
        m.cache_misses,
        expected.len(),
        "each key builds exactly once"
    );
    assert_eq!(
        m.cache_hits,
        picks.len() - expected.len(),
        "every duplicate is served from the cache"
    );

    assert_eq!(out.results.len(), picks.len());
    for r in &out.results {
        // JobId is the submission index, so it names the pick.
        let want = &expected[&key_of(&picks[r.id.0 as usize])];
        let got = r
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", r.label));
        assert_eq!(
            got.forces, want.forces,
            "{}: campaign forces differ from the one-shot run",
            r.label
        );
        assert_eq!(
            got.perf.cycles, want.perf.cycles,
            "{}: campaign cycles differ from the one-shot run",
            r.label
        );
        assert_eq!(got.iterations, want.iterations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_campaign_is_bitwise_equal_to_one_shot_runs(
        picks in prop::collection::vec((0usize..2, 0usize..4, -3i32..4), 4..9),
        workers in 1usize..4,
    ) {
        prop_assume!(!picks.is_empty());
        run_case(picks, workers);
    }
}

#[test]
fn all_duplicates_of_one_key_yield_one_miss() {
    // 6 jobs, 1 distinct key: 1 miss, 5 hits.
    run_case(vec![(0, 1, 0); 6], 2);
}
