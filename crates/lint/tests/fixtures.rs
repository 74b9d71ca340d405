//! Fixture tests: each file under `tests/fixtures/` seeds known
//! violations, marked in-line with `//~ <rule>`. The lint must report
//! exactly the marked (rule, line) pairs — nothing more, nothing less —
//! which pins both the detectors and the exemption machinery (sort
//! windows, order-free terminals, pragmas, test code, const items).

use ets_lint::{lint_file, FileMeta, Tier};

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn meta(name: &str, analytical: bool, library: bool, is_crate_root: bool) -> FileMeta {
    FileMeta {
        crate_name: "ets-fixture".to_string(),
        display_path: format!("tests/fixtures/{name}"),
        file_name: name.to_string(),
        is_crate_root,
        analytical,
        library,
        timing_allowed: false,
    }
}

/// `(rule, line)` pairs from `//~ <rule>` markers.
fn expected(src: &str) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = src
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("//~")
                .nth(1)
                .map(str::trim)
                .filter(|r| ets_lint::RULES.contains(r))
                .map(|r| (r.to_string(), i as u32 + 1))
        })
        .collect();
    out.sort();
    out
}

fn check(name: &str, meta: FileMeta, expect_tier: Tier) {
    let src = std::fs::read_to_string(fixture_path(name)).unwrap();
    let diags = lint_file(&meta, &src);
    let mut got: Vec<(String, u32)> = diags.iter().map(|d| (d.rule.to_string(), d.line)).collect();
    got.sort();
    assert_eq!(
        got,
        expected(&src),
        "diagnostics for {name} diverge from //~ markers:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
    for d in &diags {
        assert_eq!(d.tier, expect_tier, "{d}");
    }
}

/// Like [`check`], but compares only diagnostics of one rule — for
/// fixtures whose seeded sites legitimately trip a second rule at a
/// different tier (e.g. `swallowed-error` unwraps also count against
/// `panic-in-library`).
fn check_rule(name: &str, meta: FileMeta, rule: &str, expect_tier: Tier) {
    let src = std::fs::read_to_string(fixture_path(name)).unwrap();
    let diags: Vec<_> = lint_file(&meta, &src)
        .into_iter()
        .filter(|d| d.rule == rule)
        .collect();
    let mut got: Vec<(String, u32)> = diags.iter().map(|d| (d.rule.to_string(), d.line)).collect();
    got.sort();
    assert_eq!(
        got,
        expected(&src),
        "`{rule}` diagnostics for {name} diverge from //~ markers:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
    for d in &diags {
        assert_eq!(d.tier, expect_tier, "{d}");
    }
}

#[test]
fn unordered_iteration_fixture() {
    check(
        "unordered.rs",
        meta("unordered.rs", true, true, false),
        Tier::Deny,
    );
}

#[test]
fn unordered_iteration_ignores_non_analytical_crates() {
    let src = std::fs::read_to_string(fixture_path("unordered.rs")).unwrap();
    let diags = lint_file(&meta("unordered.rs", false, true, false), &src);
    assert!(
        !diags.iter().any(|d| d.rule == "unordered-iteration"),
        "{diags:?}"
    );
}

#[test]
fn nondeterministic_source_fixture() {
    check(
        "nondet.rs",
        meta("nondet.rs", false, true, false),
        Tier::Deny,
    );
}

#[test]
fn nondeterministic_source_respects_timing_allowlist() {
    let src = std::fs::read_to_string(fixture_path("nondet.rs")).unwrap();
    let mut m = meta("nondet.rs", false, true, false);
    m.timing_allowed = true;
    let diags = lint_file(&m, &src);
    assert!(
        !diags.iter().any(|d| d.rule == "nondeterministic-source"),
        "{diags:?}"
    );
}

#[test]
fn float_reduction_order_fixture() {
    check(
        "floatred.rs",
        meta("floatred.rs", false, true, false),
        Tier::Deny,
    );
}

#[test]
fn panic_in_library_fixture() {
    check(
        "panics.rs",
        meta("panics.rs", false, true, false),
        Tier::Warn,
    );
}

#[test]
fn panic_rule_skips_binary_code() {
    let src = std::fs::read_to_string(fixture_path("panics.rs")).unwrap();
    let diags = lint_file(&meta("panics.rs", false, false, false), &src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn shared_mutation_in_fanout_fixture() {
    check(
        "fanout.rs",
        meta("fanout.rs", false, false, false),
        Tier::Deny,
    );
}

#[test]
fn swallowed_error_fixture() {
    check_rule(
        "swallow.rs",
        meta("swallow.rs", false, true, false),
        "swallowed-error",
        Tier::Deny,
    );
}

#[test]
fn swallowed_error_skips_binary_code() {
    let src = std::fs::read_to_string(fixture_path("swallow.rs")).unwrap();
    let diags = lint_file(&meta("swallow.rs", false, false, false), &src);
    assert!(
        !diags.iter().any(|d| d.rule == "swallowed-error"),
        "{diags:?}"
    );
}

#[test]
fn non_commutative_merge_fixture() {
    check(
        "mergefix.rs",
        meta("mergefix.rs", false, false, false),
        Tier::Deny,
    );
}

#[test]
fn crate_hygiene_fixture() {
    let src = std::fs::read_to_string(fixture_path("root_missing_forbid.rs")).unwrap();
    let diags = lint_file(&meta("root_missing_forbid.rs", false, true, true), &src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "crate-hygiene");
    assert_eq!((diags[0].line, diags[0].col), (1, 1));
    assert_eq!(diags[0].tier, Tier::Deny);

    // Same file linted as a non-root module: no finding.
    let diags = lint_file(&meta("root_missing_forbid.rs", false, true, false), &src);
    assert!(diags.is_empty(), "{diags:?}");

    let src = std::fs::read_to_string(fixture_path("root_with_forbid.rs")).unwrap();
    let diags = lint_file(&meta("root_with_forbid.rs", false, true, true), &src);
    assert!(diags.is_empty(), "{diags:?}");
}

/// Resolves `timing_allowed` exactly as the workspace walker does, for a
/// hypothetical file `rel` inside crate `krate` at `crates/<dir>`.
fn timing_allowed_for(krate: &str, dir: &str, rel: &str) -> bool {
    let root = std::path::Path::new("/ws");
    let c = ets_lint::workspace::Crate {
        name: krate.to_string(),
        dir: root.join("crates").join(dir),
        has_lib: true,
    };
    let path = c.dir.join(rel);
    ets_lint::workspace::file_meta(root, &c, &path).timing_allowed
}

/// The timing allowlist admits exactly `crates/obs/src/clock.rs`: the
/// same `Instant::now` fixture stays denied everywhere else in `ets-obs`
/// and in a `clock.rs` that lives in any other crate.
#[test]
fn timing_allowlist_is_path_exact_for_obs_clock() {
    assert!(timing_allowed_for("ets-obs", "obs", "src/clock.rs"));
    // Elsewhere in ets-obs: denied.
    assert!(!timing_allowed_for("ets-obs", "obs", "src/span.rs"));
    assert!(!timing_allowed_for("ets-obs", "obs", "src/metrics.rs"));
    // A clock.rs in a different crate: denied (file name is not enough).
    assert!(!timing_allowed_for("ets-core", "core", "src/clock.rs"));
    // lab.rs lost its old filename-based exemption when the stage timers
    // moved onto ets-obs.
    assert!(!timing_allowed_for(
        "ets-experiments",
        "experiments",
        "src/lab.rs"
    ));

    // The SMTP serving-telemetry module is the second (and only other)
    // path-exact entry: allowed in ets-smtp, while the same filename in
    // any other crate — and every other ets-smtp file — stays denied.
    assert!(timing_allowed_for("ets-smtp", "smtp", "src/telemetry.rs"));
    assert!(!timing_allowed_for("ets-smtp", "smtp", "src/server.rs"));
    assert!(!timing_allowed_for("ets-smtp", "smtp", "src/net_client.rs"));
    assert!(!timing_allowed_for("ets-dns", "dns", "src/telemetry.rs"));

    // The load-harness runner is the third path-exact entry: open-loop
    // pacing needs the clock, but the rest of ets-loadgen (scenario
    // draws, stats, reports) must stay deterministic.
    assert!(timing_allowed_for(
        "ets-loadgen",
        "loadgen",
        "src/runner.rs"
    ));
    assert!(!timing_allowed_for("ets-loadgen", "loadgen", "src/lib.rs"));
    assert!(!timing_allowed_for(
        "ets-loadgen",
        "loadgen",
        "src/scenario.rs"
    ));
    assert!(!timing_allowed_for("ets-core", "core", "src/runner.rs"));

    // And a denied meta really does fire on wall-clock reads.
    let src = std::fs::read_to_string(fixture_path("nondet.rs")).unwrap();
    let mut m = meta("nondet.rs", false, true, false);
    m.timing_allowed = false;
    let diags = lint_file(&m, &src);
    assert!(
        diags.iter().any(|d| d.rule == "nondeterministic-source"),
        "{diags:?}"
    );

    // A file name alone exempts nothing: a microbench.rs in an
    // analytical crate has its wall-clock reads denied like any file's.
    let root = std::path::Path::new("/ws");
    let experiments = ets_lint::workspace::Crate {
        name: "ets-experiments".to_string(),
        dir: root.join("crates/experiments"),
        has_lib: false,
    };
    let m = ets_lint::workspace::file_meta(
        root,
        &experiments,
        &experiments.dir.join("src/microbench.rs"),
    );
    assert!(m.analytical && !m.timing_allowed);
    let diags = lint_file(&m, &src);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "nondeterministic-source" && d.tier == Tier::Deny),
        "{diags:?}"
    );
}

#[test]
fn json_output_is_shaped_and_deterministic() {
    let src = std::fs::read_to_string(fixture_path("nondet.rs")).unwrap();
    let m = meta("nondet.rs", false, true, false);
    let a = ets_lint::to_json(&lint_file(&m, &src));
    let b = ets_lint::to_json(&lint_file(&m, &src));
    assert_eq!(a, b);
    assert!(a.contains("\"findings\""));
    assert!(a.contains("\"summary\""));
    assert!(a.contains("\"rule\": \"nondeterministic-source\""));
    assert!(a.contains("\"tier\": \"deny\""));
}
