//! Fixture-based rule tests: every rule has a file that must fire it and
//! a file that must stay silent. The fixtures live under `fixtures/`,
//! which the workspace scanner skips — they document what each rule
//! catches without tripping CI themselves.

use kagen_lint::{lint_source, Rule, RuleSet};

/// Every rule armed — fixtures are self-contained, so the strictest
/// classification is the right harness.
fn full() -> RuleSet {
    RuleSet {
        deterministic_output: true,
        clock_allowlisted: false,
        generator: true,
        parallel_numeric: true,
        io_path: true,
    }
}

/// Assert `src` fires `rule` at least `min` times and nothing else.
fn assert_fires(src: &str, rule: Rule, min: usize) {
    let v = lint_source(src, full());
    let hits = v.iter().filter(|x| x.rule == rule).count();
    assert!(hits >= min, "expected ≥{min} {rule:?}, got {v:#?}");
    assert!(
        v.iter().all(|x| x.rule == rule),
        "expected only {rule:?}, got {v:#?}"
    );
}

fn assert_silent(src: &str) {
    let v = lint_source(src, full());
    assert!(v.is_empty(), "expected no violations, got {v:#?}");
}

#[test]
fn d1_hash_collections() {
    assert_fires(include_str!("fixtures/d1_pos.rs"), Rule::D1, 2);
    assert_silent(include_str!("fixtures/d1_neg.rs"));
}

#[test]
fn d2_clock_env_cores() {
    let src = include_str!("fixtures/d2_pos.rs");
    let v = lint_source(src, full());
    // Instant::now, env::var, available_parallelism — three distinct reads.
    assert_eq!(v.iter().filter(|x| x.rule == Rule::D2).count(), 3, "{v:#?}");
    assert!(v.iter().all(|x| x.rule == Rule::D2), "{v:#?}");
    // The same file is clean when the crate is on the allowlist.
    let allowed = RuleSet {
        clock_allowlisted: true,
        ..full()
    };
    assert!(lint_source(src, allowed).is_empty());
    assert_silent(include_str!("fixtures/d2_neg.rs"));
}

#[test]
fn d3_literal_seeds() {
    assert_fires(include_str!("fixtures/d3_pos.rs"), Rule::D3, 1);
    assert_silent(include_str!("fixtures/d3_neg.rs"));
}

#[test]
fn s1_safety_comments() {
    assert_fires(include_str!("fixtures/s1_pos.rs"), Rule::S1, 1);
    assert_silent(include_str!("fixtures/s1_neg.rs"));
}

#[test]
fn f1_parallel_float_reduction() {
    assert_fires(include_str!("fixtures/f1_pos.rs"), Rule::F1, 1);
    assert_silent(include_str!("fixtures/f1_neg.rs"));
}

#[test]
fn r1_panics_on_io_paths() {
    let src = include_str!("fixtures/r1_pos.rs");
    let v = lint_source(src, full());
    // unwrap, assert!, assert_eq!, debug_assert_ne!, expect,
    // unreachable!, panic! — one finding each.
    assert_eq!(v.iter().filter(|x| x.rule == Rule::R1).count(), 7, "{v:#?}");
    assert!(v.iter().all(|x| x.rule == Rule::R1), "{v:#?}");
    // The same file is clean where no outside data arrives.
    let elsewhere = RuleSet {
        io_path: false,
        ..full()
    };
    assert!(lint_source(src, elsewhere).is_empty());
    assert_silent(include_str!("fixtures/r1_neg.rs"));
}

#[test]
fn p0_pragma_hygiene() {
    assert_fires(include_str!("fixtures/p0_pos.rs"), Rule::P0, 3);
    assert_silent(include_str!("fixtures/p0_neg.rs"));
}
