//! `merrimac-lint`'s command line: a bad argument is the usage text and
//! exit 2, never a panic.

use std::process::{Command, Output};

use proptest::prelude::*;

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_merrimac-lint"))
        .args(args)
        .output()
        .expect("merrimac-lint runs")
}

#[test]
fn zero_molecules_is_a_usage_error_for_every_workload() {
    for workload in ["water", "lj", "charged"] {
        let out = lint(&["--workload", workload, "--molecules", "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{workload}: {stderr}");
        assert!(
            stderr.starts_with("usage: merrimac-lint"),
            "{workload}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{workload}: nothing is linted");
    }
}

/// Every flag but `--paper` (a 900-molecule box per case), and values
/// that are valid, invalid or valid for another flag.
const TOKENS: [&str; 19] = [
    "--molecules",
    "--workload",
    "--json",
    "--deny",
    "--allow",
    "--explain",
    "--help",
    "0",
    "1",
    "27",
    "x",
    "water",
    "lj",
    "charged",
    "bogus",
    "warnings",
    "DEAD_VALUE",
    "NOPE",
    "STREAM_UNDERRUN",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to four tokens in any order: a clean run (0), an
    /// Error-severity diagnostic (1) or a usage error (2), and no panic.
    #[test]
    fn any_short_command_line_exits_0_1_or_2_without_panicking(
        args in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..5),
    ) {
        let out = lint(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        prop_assert!(
            matches!(out.status.code(), Some(0..=2)),
            "{args:?} exited {:?}: {stderr}",
            out.status
        );
        prop_assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
