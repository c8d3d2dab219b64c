//! `merrimac-lint` — static analysis front end for StreamMD programs.
//!
//! Builds the step program for every shipped variant (without running
//! it) and prints the diagnostics from `merrimac_analysis` in
//! rustc-style format. Exit status is 1 if any diagnostic has Error
//! severity, so CI can gate on it.
//!
//! ```text
//! merrimac-lint                  # lint all four variants, 64-molecule box
//! merrimac-lint --molecules 216  # different dataset size
//! merrimac-lint --paper          # the paper's 900-molecule box
//! merrimac-lint --workload lj    # lint the LJ atomic-fluid programs
//! merrimac-lint --json           # machine-readable diagnostics
//! merrimac-lint --deny warnings  # promote warnings to errors (CI gate)
//! merrimac-lint --allow DEAD_VALUE --deny warnings
//! merrimac-lint --explain SDR_PRESSURE
//! ```

use std::process::ExitCode;

use merrimac_analysis::{render_all, Diagnostic, Lint, Severity, ALL_LINTS};
use merrimac_bench::json::{self, Json, ToJson};
use merrimac_bench::{analyze, atomic_system, paper_system, small_system, LintRecord, RunSpec};
use streammd::Variant;

fn usage() -> ! {
    eprintln!(
        "usage: merrimac-lint [--molecules N] [--paper] [--workload W] [--json]\n\
         \x20                    [--deny warnings] [--allow LINT_ID] [--explain LINT_ID]\n\
         \n\
         Runs the merrimac_analysis passes (SDR pressure, per-strip\n\
         ordering, SRF capacity preflight, kernel dataflow lints, and\n\
         the whole-program verifier: intent proofs, certain stream\n\
         underruns, batch-plan audit) over the step program of every\n\
         StreamMD variant and prints the diagnostics. Exits 1 if any\n\
         diagnostic is an error.\n\
         \n\
         options:\n\
         \x20 --molecules N      dataset size (default 64)\n\
         \x20 --paper            use the paper's 900-molecule dataset\n\
         \x20 --workload W       water (default), lj, or charged\n\
         \x20 --json             emit one JSON document instead of text\n\
         \x20 --deny warnings    promote warnings to errors\n\
         \x20 --allow LINT_ID    suppress one lint (repeatable)\n\
         \x20 --explain LINT_ID  print the long explanation for one lint"
    );
    std::process::exit(2)
}

fn explain(code: &str) -> ExitCode {
    match Lint::from_code(code) {
        Some(lint) => {
            println!(
                "{}[{}]: {}",
                lint.default_severity(),
                lint.code(),
                lint.summary()
            );
            println!();
            println!("{}", lint.explain());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown lint `{code}`; known lints:");
            for lint in ALL_LINTS {
                eprintln!("  {:<16} {}", lint.code(), lint.summary());
            }
            ExitCode::from(2)
        }
    }
}

fn diagnostic_json(d: &Diagnostic) -> Json {
    Json::obj([
        ("code", Json::Str(d.lint.code().to_string())),
        ("severity", d.severity.to_string().to_json()),
        ("location", d.location.to_json()),
        ("message", d.message.to_json()),
        ("notes", d.notes.to_json()),
        ("help", d.help.to_json()),
    ])
}

fn main() -> ExitCode {
    let mut molecules = 64usize;
    let mut paper = false;
    let mut workload = String::from("water");
    let mut json = false;
    let mut deny_warnings = false;
    let mut allow: Vec<Lint> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--molecules" => {
                molecules = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--paper" => paper = true,
            "--workload" => workload = args.next().unwrap_or_else(|| usage()),
            "--json" => json = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") | Some("warn") => deny_warnings = true,
                _ => {
                    eprintln!("--deny takes `warnings`");
                    usage()
                }
            },
            "--allow" => {
                let code = args.next().unwrap_or_else(|| usage());
                match Lint::from_code(&code) {
                    Some(lint) => allow.push(lint),
                    None => return explain(&code),
                }
            }
            "--explain" => {
                let code = args.next().unwrap_or_else(|| usage());
                return explain(&code);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }

    let (system, list) = match workload.as_str() {
        "water" => {
            if paper {
                paper_system()
            } else {
                small_system(molecules)
            }
        }
        "lj" => atomic_system(md_sim::water::WaterModel::lj_atom(), molecules),
        "charged" => atomic_system(md_sim::water::WaterModel::charged_atom(), molecules),
        other => {
            eprintln!("unknown workload `{other}` (expected water, lj or charged)");
            usage()
        }
    };
    if !json {
        println!(
            "linting workload `{workload}`: {} molecules, {} neighbour pairs",
            system.num_molecules(),
            list.num_pairs()
        );
    }

    let mut total_errors = 0;
    let mut variant_docs = Vec::new();
    for variant in Variant::ALL {
        if !json {
            println!("\n== variant `{}` ==", variant.name());
        }
        match analyze(RunSpec::new(&system, &list, variant)) {
            Ok(mut diags) => {
                diags.retain(|d| !allow.contains(&d.lint));
                if deny_warnings {
                    for d in &mut diags {
                        if d.severity == Severity::Warn {
                            d.severity = Severity::Error;
                            d.notes
                                .push("promoted from warning by --deny warnings".to_string());
                        }
                    }
                }
                let counts = LintRecord::new(variant.name(), &diags);
                total_errors += counts.errors;
                if json {
                    let diags = Json::Arr(diags.iter().map(diagnostic_json).collect());
                    variant_docs.push(counts.to_json().with("diagnostics", diags));
                } else {
                    if diags.is_empty() {
                        println!("clean: no diagnostics");
                    } else {
                        println!("{}", render_all(&diags));
                    }
                    println!(
                        "summary: {} error(s), {} warning(s), {} info(s)",
                        counts.errors, counts.warnings, counts.infos
                    );
                }
            }
            Err(e) => {
                // A config-level rejection is as fatal as a lint error.
                total_errors += 1;
                if json {
                    let counts = LintRecord {
                        variant: variant.name().to_string(),
                        errors: 1,
                        ..LintRecord::default()
                    };
                    variant_docs.push(
                        counts
                            .to_json()
                            .with("build_error", Json::Str(e.to_string()))
                            .with("diagnostics", Json::Arr(Vec::new())),
                    );
                } else {
                    eprintln!("cannot build step program: {e}");
                }
            }
        }
    }

    if json {
        print!(
            "{}",
            json::render(&Json::obj([
                ("workload", workload.to_json()),
                ("molecules", system.num_molecules().to_json()),
                ("deny_warnings", deny_warnings.to_json()),
                ("variants", Json::Arr(variant_docs)),
                ("total_errors", total_errors.to_json()),
            ]))
        );
    }
    if total_errors > 0 {
        eprintln!("\nmerrimac-lint: {total_errors} error(s)");
        ExitCode::FAILURE
    } else {
        if !json {
            println!("\nmerrimac-lint: all variants clean of errors");
        }
        ExitCode::SUCCESS
    }
}
