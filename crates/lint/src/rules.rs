//! The lint rules: what the communication-free model requires, as code.
//!
//! Every PE's output must be a pure function of `(seed, params, pe)`.
//! Each rule bans one way that purity is lost in practice:
//!
//! * **D1** — `HashMap`/`HashSet` in crates whose iteration order can
//!   reach output bytes. `RandomState` hashing makes iteration order a
//!   per-process coin flip; use `BTreeMap`/`BTreeSet` or sorted vecs.
//! * **D2** — wall-clock / environment / thread-count reads
//!   (`Instant::now`, `SystemTime::now`, `env::var*`,
//!   `available_parallelism`) outside the observability allowlist.
//! * **D3** — RNG construction from a literal seed in generator crates:
//!   every PRNG must be seeded through the `(seed, pe, block)` derivation
//!   helpers (`derive_seed`/`rng_at`/`SeedTree`/`mix2`), or replayed
//!   streams silently decouple.
//! * **S1** — every `unsafe` site carries an adjacent `// SAFETY:`
//!   comment stating the invariant it relies on.
//! * **F1** — floating-point accumulation (`+=`, `sum`, `fold`,
//!   `reduce`) inside a `par_*` statement: float addition is not
//!   associative, so a parallel reduction order leak changes bytes.
//! * **R1** — `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!` and
//!   the `assert*!` family in the code that reads files, argv and child
//!   processes (the front-end, `pipeline`, `cluster`, `graph::io`): a
//!   failure there is an `Err` and an exit code, so every site that
//!   stays carries a pragma stating the invariant that makes it
//!   unreachable.
//!
//! Suppression is only possible in-source, one site at a time:
//!
//! ```text
//! // kagen-lint: allow(d1) -- lookup-only map, never iterated
//! ```
//!
//! A pragma without a ` -- reason`, or one that suppresses nothing, is
//! itself a violation — exceptions must stay documented and alive.

use crate::lexer::{lex, Tok, Token};

/// Rule identifiers, lowercase as they appear in pragmas and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    D1,
    D2,
    D3,
    S1,
    F1,
    R1,
    /// Meta-rule: a malformed or unused `kagen-lint:` pragma.
    P0,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "d1",
            Rule::D2 => "d2",
            Rule::D3 => "d3",
            Rule::S1 => "s1",
            Rule::F1 => "f1",
            Rule::R1 => "r1",
            Rule::P0 => "p0",
        }
    }

    fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "d1" => Some(Rule::D1),
            "d2" => Some(Rule::D2),
            "d3" => Some(Rule::D3),
            "s1" => Some(Rule::S1),
            "f1" => Some(Rule::F1),
            "r1" => Some(Rule::R1),
            _ => None,
        }
    }

    /// One-line description, for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => {
                "HashMap/HashSet in an output-deterministic crate (use BTreeMap/sorted vecs)"
            }
            Rule::D2 => "wall-clock/env/thread-count read outside the observability allowlist",
            Rule::D3 => {
                "RNG constructed from a literal seed instead of the (seed, pe, block) helpers"
            }
            Rule::S1 => "unsafe site without an adjacent `// SAFETY:` comment",
            Rule::F1 => {
                "floating-point accumulation inside a par_* statement (order-dependent reduction)"
            }
            Rule::R1 => {
                "unwrap/expect/panic!/unreachable!/assert*! on an I/O path without its invariant stated"
            }
            Rule::P0 => "malformed or unused kagen-lint pragma",
        }
    }

    pub const ALL: [Rule; 7] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::S1,
        Rule::F1,
        Rule::R1,
        Rule::P0,
    ];
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: Rule,
    pub line: u32,
    pub message: String,
}

/// Which rule sets apply to the file being linted, derived from its
/// crate. See [`crate::scan::classify`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleSet {
    /// D1: iteration order can reach output bytes.
    pub deterministic_output: bool,
    /// D2 exemption: the crate is observability/supervision machinery.
    pub clock_allowlisted: bool,
    /// D3: the crate constructs generator RNG streams.
    pub generator: bool,
    /// F1: the crate runs parallel numeric work feeding output.
    pub parallel_numeric: bool,
    /// R1: the file handles data from files, argv or child processes.
    pub io_path: bool,
}

/// Lint one file's source. `rules` selects the applicable rule sets;
/// S1 and pragma hygiene always apply.
pub fn lint_source(src: &str, rules: RuleSet) -> Vec<Violation> {
    let tokens = lex(src);
    let in_test = test_mask(&tokens);
    let mut pragmas = collect_pragmas(src, &tokens);
    let mut out = Vec::new();

    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            !in_test[*i] && !matches!(t.kind, Tok::LineComment(_) | Tok::BlockComment(_))
        })
        .collect();

    if rules.deterministic_output {
        rule_d1(&code, &mut out);
    }
    if !rules.clock_allowlisted {
        rule_d2(&code, &mut out);
    }
    if rules.generator {
        rule_d3(&code, &mut out);
    }
    rule_s1(src, &tokens, &in_test, &mut out);
    if rules.parallel_numeric {
        rule_f1(&code, &mut out);
    }
    if rules.io_path {
        rule_r1(&code, &mut out);
    }

    // Apply pragmas: a violation on a pragma's covered line (or its own
    // line, for trailing pragmas) is suppressed and marks the pragma used.
    out.retain(|v| {
        for p in pragmas.iter_mut() {
            if p.rules.contains(&v.rule) && (v.line == p.line || v.line == p.covers_line) {
                p.used = true;
                return false;
            }
        }
        true
    });

    // Pragma hygiene: malformed and unused pragmas are violations.
    for p in &pragmas {
        if let Some(problem) = &p.problem {
            out.push(Violation {
                rule: Rule::P0,
                line: p.line,
                message: problem.clone(),
            });
        } else if !p.used {
            out.push(Violation {
                rule: Rule::P0,
                line: p.line,
                message: format!(
                    "pragma `allow({})` suppresses nothing — remove it or it will mask a future regression",
                    p.rules.iter().map(|r| r.name()).collect::<Vec<_>>().join(", ")
                ),
            });
        }
    }

    out.sort_by_key(|v| v.line);
    out
}

// ---------------------------------------------------------------------------
// Test-code masking
// ---------------------------------------------------------------------------

/// Mark tokens belonging to `#[test]` / `#[cfg(test)]`-gated items, so
/// test-only code (literal seeds, HashSet-based assertions) is exempt.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code_idx: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, Tok::LineComment(_) | Tok::BlockComment(_)))
        .map(|(i, _)| i)
        .collect();

    let mut k = 0usize;
    while k < code_idx.len() {
        if is_punct(tokens, code_idx[k], '#')
            && k + 1 < code_idx.len()
            && is_punct(tokens, code_idx[k + 1], '[')
        {
            // Parse the attribute's bracket group.
            let (attr_end, gated) = attr_is_test_gated(tokens, &code_idx, k + 1);
            if gated {
                // Skip any further attributes, then mask the whole item.
                let mut j = attr_end + 1;
                while j + 1 < code_idx.len()
                    && is_punct(tokens, code_idx[j], '#')
                    && is_punct(tokens, code_idx[j + 1], '[')
                {
                    let (e, _) = attr_is_test_gated(tokens, &code_idx, j + 1);
                    j = e + 1;
                }
                let item_end = item_extent(tokens, &code_idx, j);
                for &ci in &code_idx[k..=item_end.min(code_idx.len() - 1)] {
                    mask[ci] = true;
                }
                k = item_end + 1;
                continue;
            }
            k = attr_end + 1;
            continue;
        }
        k += 1;
    }
    mask
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(&tokens[i].kind, Tok::Punct(p) if *p == c)
}

/// Starting at the `[` of an attribute (index into `code_idx`), return
/// (index of the matching `]` in `code_idx`, is-test-gated). An attr is
/// test-gated when it is `#[test]` or a `#[cfg(…)]` whose argument
/// mentions `test` without negation (`not`); `cfg_attr` never gates.
fn attr_is_test_gated(tokens: &[Token], code_idx: &[usize], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents = Vec::new();
    let mut j = open;
    while j < code_idx.len() {
        let ti = code_idx[j];
        match &tokens[ti].kind {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(s) => idents.push(s.as_str().to_string()),
            _ => {}
        }
        j += 1;
    }
    let gated = match idents.first().map(|s| s.as_str()) {
        Some("test") => idents.len() == 1,
        Some("cfg") => idents.iter().any(|s| s == "test") && !idents.iter().any(|s| s == "not"),
        _ => false,
    };
    (j.min(code_idx.len().saturating_sub(1)), gated)
}

/// Extent of the item starting at `code_idx[start]`: through the matching
/// `}` of its first top-level brace, or through a `;` reached first.
fn item_extent(tokens: &[Token], code_idx: &[usize], start: usize) -> usize {
    let mut depth = 0usize;
    let mut j = start;
    while j < code_idx.len() {
        match &tokens[code_idx[j]].kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            Tok::Punct(';') if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    code_idx.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

struct Pragma {
    line: u32,
    covers_line: u32,
    rules: Vec<Rule>,
    problem: Option<String>,
    used: bool,
}

fn collect_pragmas(src: &str, tokens: &[Token]) -> Vec<Pragma> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for t in tokens {
        let Tok::LineComment(text) = &t.kind else {
            continue;
        };
        let Some(rest) = text.trim_start().strip_prefix("kagen-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let mut pragma = Pragma {
            line: t.line,
            covers_line: next_code_line(&lines, t.line),
            rules: Vec::new(),
            problem: None,
            used: false,
        };
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(names, tail)| {
                let rules: Vec<Option<Rule>> = names.split(',').map(Rule::parse).collect();
                (rules, tail.trim().to_string())
            });
        match parsed {
            None => {
                pragma.problem = Some(format!(
                    "malformed pragma `{}` — expected `kagen-lint: allow(<rule>[, …]) -- <reason>`",
                    rest
                ));
            }
            Some((rules, tail)) => {
                if rules.iter().any(|r| r.is_none()) {
                    pragma.problem = Some(format!(
                        "pragma names an unknown rule — known: {}",
                        Rule::ALL
                            .iter()
                            .filter(|r| !matches!(r, Rule::P0))
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                } else if tail
                    .strip_prefix("--")
                    .map(str::trim)
                    .is_none_or(str::is_empty)
                {
                    pragma.problem =
                        Some("pragma has no reason — append ` -- <why this is sound>`".to_string());
                } else {
                    pragma.rules = rules.into_iter().flatten().collect();
                }
            }
        }
        out.push(pragma);
    }
    out
}

/// First line after `line` that holds code (not blank, not a pure
/// comment): the line a leading pragma covers.
fn next_code_line(lines: &[&str], line: u32) -> u32 {
    let mut l = line as usize; // `line` is 1-based; this starts at the next line.
    while l < lines.len() {
        let t = lines[l].trim_start();
        if !t.is_empty() && !t.starts_with("//") {
            return (l + 1) as u32;
        }
        l += 1;
    }
    line
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

fn rule_d1(code: &[(usize, &Token)], out: &mut Vec<Violation>) {
    for (_, t) in code {
        if let Tok::Ident(s) = &t.kind {
            if s == "HashMap" || s == "HashSet" {
                out.push(Violation {
                    rule: Rule::D1,
                    line: t.line,
                    message: format!(
                        "{s} iteration order is a per-process coin flip — use BTreeMap/BTreeSet or a sorted Vec so output bytes stay a pure function of (seed, params, pe)"
                    ),
                });
            }
        }
    }
}

/// Match `a :: b` at position `i` of the code slice.
fn path2(code: &[(usize, &Token)], i: usize, a: &str, b: &str) -> bool {
    i + 3 < code.len()
        && ident_is(code, i, a)
        && punct_is(code, i + 1, ':')
        && punct_is(code, i + 2, ':')
        && ident_is(code, i + 3, b)
}

fn ident_is(code: &[(usize, &Token)], i: usize, s: &str) -> bool {
    matches!(&code[i].1.kind, Tok::Ident(x) if x == s)
}

fn punct_is(code: &[(usize, &Token)], i: usize, c: char) -> bool {
    matches!(&code[i].1.kind, Tok::Punct(p) if *p == c)
}

fn rule_d2(code: &[(usize, &Token)], out: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let t = code[i].1;
        let what = if path2(code, i, "Instant", "now") {
            Some("Instant::now() reads the wall clock")
        } else if path2(code, i, "SystemTime", "now") {
            Some("SystemTime::now() reads the wall clock")
        } else if path2(code, i, "env", "var")
            || path2(code, i, "env", "var_os")
            || path2(code, i, "env", "vars")
        {
            Some("std::env reads make output depend on the host environment")
        } else if ident_is(code, i, "available_parallelism") {
            Some("available_parallelism() makes behavior depend on the host's core count")
        } else {
            None
        };
        if let Some(what) = what {
            out.push(Violation {
                rule: Rule::D2,
                line: t.line,
                message: format!(
                    "{what} — route timing through kagen_obs spans, or pragma with a proof it cannot reach output bytes"
                ),
            });
        }
    }
}

const RNG_TYPES: [&str; 3] = ["Mt64", "SplitMix64", "BlockRng"];

fn rule_d3(code: &[(usize, &Token)], out: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let Tok::Ident(ty) = &code[i].1.kind else {
            continue;
        };
        if !RNG_TYPES.contains(&ty.as_str()) {
            continue;
        }
        // `Ty :: new ( <int literal>` — a hard-coded seed.
        if path2(code, i, ty, "new")
            && i + 5 < code.len()
            && punct_is(code, i + 4, '(')
            && matches!(code[i + 5].1.kind, Tok::Int)
        {
            out.push(Violation {
                rule: Rule::D3,
                line: code[i].1.line,
                message: format!(
                    "{ty}::new(<literal>) hard-codes a seed — derive it with derive_seed/rng_at/SeedTree/mix2 from (seed, pe, block) so replayed streams stay coupled"
                ),
            });
        }
    }
}

/// S1 looks at raw source lines: an `unsafe` token is annotated when a
/// `// SAFETY:` comment trails it on the same line or heads the block of
/// comment lines immediately above it.
fn rule_s1(src: &str, tokens: &[Token], in_test: &[bool], out: &mut Vec<Violation>) {
    let lines: Vec<&str> = src.lines().collect();
    let has_safety = |line: u32| -> bool {
        // Trailing comment on the unsafe line itself.
        let idx = (line as usize).saturating_sub(1);
        if lines
            .get(idx)
            .is_some_and(|l| comment_text(l).is_some_and(|c| c.starts_with("SAFETY:")))
        {
            return true;
        }
        // Walk the contiguous block of pure-comment lines upward.
        let mut l = idx;
        while l > 0 {
            l -= 1;
            let trimmed = lines[l].trim_start();
            if !trimmed.starts_with("//") {
                break;
            }
            if comment_text(trimmed).is_some_and(|c| c.starts_with("SAFETY:")) {
                return true;
            }
        }
        false
    };
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if matches!(&t.kind, Tok::Ident(s) if s == "unsafe") && !has_safety(t.line) {
            out.push(Violation {
                rule: Rule::S1,
                line: t.line,
                message: "unsafe without an adjacent `// SAFETY:` comment — state the invariant this site relies on".to_string(),
            });
        }
    }
}

/// The text of a `//` comment starting the (trimmed) line, if any.
fn comment_text(line: &str) -> Option<&str> {
    let t = line.trim_start();
    // Find a `//` that begins a comment on this line; for S1 purposes a
    // leading or trailing comment both count, so search anywhere. This
    // can match `//` inside a string on that line — acceptable: it only
    // ever *grants* SAFETY status when the text says SAFETY:.
    let at = t.find("//")?;
    Some(
        t[at + 2..]
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim(),
    )
}

fn rule_f1(code: &[(usize, &Token)], out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < code.len() {
        let is_par = matches!(&code[i].1.kind, Tok::Ident(s) if s.contains("par_"));
        if !is_par {
            i += 1;
            continue;
        }
        // Region: to the end of the statement the par_* call lives in.
        let mut depth = 0i64;
        let mut end = i;
        while end < code.len() {
            match &code[end].1.kind {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let region = &code[i..end.min(code.len())];
        let has_float = region.iter().any(|(_, t)| {
            matches!(t.kind, Tok::Float)
                || matches!(&t.kind, Tok::Ident(s) if s == "f32" || s == "f64")
        });
        if has_float {
            for j in 0..region.len() {
                let accum = (punct_is(region, j, '+')
                    || punct_is(region, j, '-')
                    || punct_is(region, j, '*'))
                    && j + 1 < region.len()
                    && punct_is(region, j + 1, '=');
                let reducer = matches!(&region[j].1.kind,
                    Tok::Ident(s) if s == "sum" || s == "fold" || s == "reduce");
                if accum || reducer {
                    out.push(Violation {
                        rule: Rule::F1,
                        line: region[j].1.line,
                        message: "floating-point accumulation inside a par_* statement — reduction order is schedule-dependent, so the result is not a pure function of (seed, params, pe); accumulate per-PE and combine in a fixed order".to_string(),
                    });
                }
            }
        }
        i = end + 1;
    }
}

const PANICKING_MACROS: [&str; 8] = [
    "panic",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

fn rule_r1(code: &[(usize, &Token)], out: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let Tok::Ident(name) = &code[i].1.kind else {
            continue;
        };
        let next = |k: usize, c: char| i + k < code.len() && punct_is(code, i + k, c);
        let method = i > 0 && punct_is(code, i - 1, '.') && next(1, '(');
        let what = if method && name == "unwrap" && next(2, ')') {
            ".unwrap()".to_string()
        } else if method && name == "expect" {
            ".expect(…)".to_string()
        } else if PANICKING_MACROS.contains(&name.as_str()) && next(1, '!') {
            format!("{name}!")
        } else {
            continue;
        };
        out.push(Violation {
            rule: Rule::R1,
            line: code[i].1.line,
            message: format!(
                "{what} on an I/O path — return the error (`?`), or pragma with the invariant that makes this site unreachable"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rules() -> RuleSet {
        RuleSet {
            deterministic_output: true,
            clock_allowlisted: false,
            generator: true,
            parallel_numeric: true,
            io_path: true,
        }
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = r#"
            fn real() { let m: HashMap<u64, u64> = HashMap::new(); }
            #[cfg(test)]
            mod tests {
                fn helper() { let s = std::collections::HashSet::new(); }
                #[test]
                fn t() { let mut r = Mt64::new(42); }
            }
        "#;
        let v = lint_source(src, all_rules());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::D1));
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn real() { let m = HashMap::new(); }";
        assert_eq!(lint_source(src, all_rules()).len(), 1);
    }

    #[test]
    fn pragma_suppresses_and_requires_reason() {
        let ok = "// kagen-lint: allow(d1) -- lookup-only, never iterated\nuse std::collections::HashMap;";
        assert!(lint_source(ok, all_rules()).is_empty());

        let no_reason = "// kagen-lint: allow(d1)\nuse std::collections::HashMap;";
        let v = lint_source(no_reason, all_rules());
        assert!(v.iter().any(|x| x.rule == Rule::P0), "{v:?}");

        let unused =
            "// kagen-lint: allow(d2) -- says d2 but site is d1\nuse std::collections::HashMap;";
        let v = lint_source(unused, all_rules());
        assert!(v.iter().any(|x| x.rule == Rule::D1));
        assert!(v.iter().any(|x| x.rule == Rule::P0));
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let src = "use std::collections::HashMap; // kagen-lint: allow(d1) -- exemplar\n";
        assert!(lint_source(src, all_rules()).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = r#"
            // HashMap Instant::now() unsafe Mt64::new(3)
            /* HashSet SystemTime::now() */
            fn f() { let s = "HashMap unsafe Instant::now()"; }
        "#;
        assert!(lint_source(src, all_rules()).is_empty());
    }
}
