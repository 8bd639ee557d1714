//! Tuner equivalence fixture: the quick-tuned families and every
//! candidate the DP tuner evaluated, pinned bit for bit.
//!
//! `tests/fixtures/tuner_equivalence.txt` holds, for Poisson,
//! `jump_inclusion(n)`, `anisotropic(0.3)` and `smooth_sinusoidal(n)`
//! tuned at levels 6 and 7, every plan of the family and every
//! `CandidateEval` in evaluation order (f64s as bit patterns), plus
//! the plans of the `paper_strategies` heuristic families at level 6.
//! Any change to how the tuner measures candidates — the order it
//! evaluates them in, the budgets it abandons them under, the cost it
//! prices them at — shows up here as a first differing line.
//!
//! Regenerate (only after an *intentional* change to the tuner's
//! decisions) with:
//! `PETAMG_REGEN_GOLDEN=1 cargo test --test tuner_equivalence`.

use petamg::core::heuristics::paper_strategies;
use petamg::core::tuner::TuneDiagnostics;
use petamg::prelude::*;
use petamg::problems::Problem;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = include_str!("fixtures/tuner_equivalence.txt");

fn render_family(out: &mut String, fam: &TunedFamily) {
    writeln!(out, "provenance {}", fam.provenance).unwrap();
    for (k, level) in fam.plans.iter().enumerate().skip(1) {
        for (i, choice) in level.iter().enumerate() {
            writeln!(out, "plan {k} {i} {choice:?}").unwrap();
        }
    }
}

fn render_diagnostics(out: &mut String, diags: &TuneDiagnostics) {
    for e in &diags.evaluations {
        writeln!(
            out,
            "eval {} {} {:?} acc={:016x} cost={:016x} feasible={} selected={}",
            e.level,
            e.acc_idx,
            e.choice,
            e.accuracy.to_bits(),
            e.cost.to_bits(),
            e.feasible,
            e.selected
        )
        .unwrap();
    }
}

/// The whole fixture, rendered from the current tuner.
fn render_all() -> String {
    let mut out = String::new();
    for level in [6, 7] {
        let n = (1 << level) + 1;
        let problems = [
            ("poisson", Problem::poisson()),
            ("jump", Problem::jump_inclusion(n)),
            ("anisotropic0.3", Problem::anisotropic(0.3)),
            ("smooth", Problem::smooth_sinusoidal(n)),
        ];
        for (name, problem) in problems {
            let opts =
                TunerOptions::quick(level, Distribution::UnbiasedUniform).with_problem(problem);
            let (fam, diags) = VTuner::new(opts).tune_with_diagnostics();
            writeln!(out, "== tuned {name} L{level}").unwrap();
            render_family(&mut out, &fam);
            render_diagnostics(&mut out, &diags);
        }
    }
    let opts = TunerOptions::quick(6, Distribution::BiasedUniform);
    for (name, fam) in paper_strategies(&opts) {
        writeln!(out, "== heuristic {name} L6").unwrap();
        render_family(&mut out, &fam);
    }
    out
}

#[test]
fn tuned_and_heuristic_families_match_the_fixture_bitwise() {
    let rendered = render_all();
    if std::env::var_os("PETAMG_REGEN_GOLDEN").is_some() {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tuner_equivalence.txt");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let mut section = "";
    for (line_no, (want, got)) in FIXTURE.lines().zip(rendered.lines()).enumerate() {
        if want.starts_with("== ") {
            section = want;
        }
        assert_eq!(
            got,
            want,
            "{section}: first difference at fixture line {}",
            line_no + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        FIXTURE.lines().count(),
        "fixture and tuner disagree on the number of lines"
    );
}
