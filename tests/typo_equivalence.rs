//! Equivalence properties for the byte-level typo engine, the two-row
//! distance kernels, and the reverse DL-1 index: each optimized path must
//! agree *exactly* (bitwise, for the f64 metrics) with the legacy
//! reference implementation it replaced, on arbitrary inputs.

use ets_core::typogen::{self, TypoTable};
use ets_core::{alexa, distance, DomainName, ReverseDl1Index};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Arbitrary valid SLDs: no hyphen at either edge, length 1–14.
fn sld() -> impl Strategy<Value = String> {
    "[a-z0-9-]{1,14}".prop_filter("no hyphen edges", |s| {
        !s.starts_with('-') && !s.ends_with('-')
    })
}

fn domain(sld: &str, tld: &str) -> DomainName {
    format!("{sld}.{tld}")
        .parse()
        .expect("strategy yields valid slds")
}

/// A fixed workload beside the random SLDs: the synthetic top-150
/// popularity list (the real study targets, then `site<k>.com` fillers),
/// checked in full by the table-engine and reverse-index equivalences.
fn top150() -> Vec<DomainName> {
    alexa::synthetic_top(150)
        .iter()
        .map(|e| e.domain.clone())
        .collect()
}

/// The byte-level table engine emits exactly the legacy generator's
/// candidate list for `target`: same domains, kinds, positions,
/// fat-finger flags, and bitwise-identical visual scores, in the same
/// order.
fn engine_matches_legacy(target: &DomainName) -> Result<(), TestCaseError> {
    let legacy = typogen::generate_dl1_legacy(target);
    let new = typogen::generate_dl1(target);
    prop_assert_eq!(legacy.len(), new.len());
    for (l, n) in legacy.iter().zip(&new) {
        prop_assert_eq!(&l.domain, &n.domain);
        prop_assert_eq!(l.kind, n.kind);
        prop_assert_eq!(l.position, n.position);
        prop_assert_eq!(l.fat_finger, n.fat_finger);
        prop_assert_eq!(l.visual.to_bits(), n.visual.to_bits());
    }
    Ok(())
}

/// The reverse index over `targets` returns exactly the brute-force
/// scan's target set for `query`.
fn revindex_matches(
    index: &ReverseDl1Index,
    targets: &[DomainName],
    query: &DomainName,
) -> Result<(), TestCaseError> {
    let brute: Vec<usize> = targets
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.tld() == query.tld() && distance::damerau_levenshtein(t.sld(), query.sld()) == 1
        })
        .map(|(k, _)| k)
        .collect();
    prop_assert_eq!(index.matches(query), brute.clone());
    prop_assert_eq!(index.is_typo(query), !brute.is_empty());
    Ok(())
}

/// The table engine matches the legacy generator on every top-150
/// target, then on random SLDs.
#[test]
fn table_engine_matches_legacy() {
    for target in top150() {
        engine_matches_legacy(&target).unwrap();
    }
    proptest::run_cases("table_engine_matches_legacy", |rng| {
        engine_matches_legacy(&domain(&sld().sample(rng), "com"))
    });
}

/// The reverse index matches the brute-force scan over the top-150 list
/// (queried with every DL-1 variant of its first 25 targets, all hits,
/// and with every target itself, mostly misses), then for arbitrary
/// queries over arbitrary target lists.
#[test]
fn revindex_matches_brute_force() {
    let top = top150();
    let index = ReverseDl1Index::build(&top);
    let variants = top
        .iter()
        .take(25)
        .flat_map(|t| typogen::generate_dl1(t).into_iter().map(|c| c.domain));
    for query in variants.chain(top.iter().cloned()) {
        revindex_matches(&index, &top, &query).unwrap();
    }
    proptest::run_cases("revindex_matches_brute_force", |rng| {
        let mut slds = proptest::collection::vec(sld(), 1..8).sample(rng);
        slds.dedup();
        let targets: Vec<DomainName> = slds.iter().map(|s| domain(s, "com")).collect();
        let index = ReverseDl1Index::build(&targets);
        revindex_matches(&index, &targets, &domain(&sld().sample(rng), "com"))
    });
}

proptest! {
    /// `classify_dl1` recovers every generated candidate's full record and
    /// rejects the target itself.
    #[test]
    fn classify_roundtrips_generated(s in sld()) {
        let target = domain(&s, "net");
        for cand in typogen::generate_dl1(&target) {
            let got = typogen::classify_dl1(&target, &cand.domain);
            prop_assert_eq!(got.as_ref(), Some(&cand));
        }
        prop_assert!(typogen::classify_dl1(&target, &target).is_none());
    }

    /// The two-row DL kernel (with affix trimming) agrees with the legacy
    /// full-matrix kernel — including on small alphabets, where the
    /// repeated characters exercise the transposition-across-trim cases.
    #[test]
    fn dl_matches_legacy(a in sld(), b in sld(), x in "[ab]{0,6}", y in "[ab]{0,6}") {
        prop_assert_eq!(
            distance::damerau_levenshtein(&a, &b),
            distance::damerau_levenshtein_legacy(&a, &b)
        );
        prop_assert_eq!(
            distance::damerau_levenshtein(&x, &y),
            distance::damerau_levenshtein_legacy(&x, &y)
        );
    }

    /// The two-row fat-finger kernel agrees with the legacy matrix.
    #[test]
    fn fat_finger_matches_legacy(a in sld(), b in sld()) {
        prop_assert_eq!(
            distance::fat_finger(&a, &b),
            distance::fat_finger_legacy(&a, &b)
        );
        prop_assert_eq!(
            distance::is_ff1(&a, &b),
            distance::fat_finger_legacy(&a, &b) == Some(1)
        );
    }

    /// The rolling-row visual kernel is bitwise-identical to the legacy
    /// matrix implementation.
    #[test]
    fn visual_matches_legacy_bitwise(a in sld(), b in sld()) {
        prop_assert_eq!(
            distance::visual(&a, &b).to_bits(),
            distance::visual_legacy(&a, &b).to_bits()
        );
    }
}

/// Reference adjacency via the public row-geometry scan ([`key_pos`]),
/// independent of the const table.
fn adjacent_by_scan(a: char, b: char) -> bool {
    use ets_core::keyboard::key_pos;
    let (Some(pa), Some(pb)) = (key_pos(a), key_pos(b)) else {
        return false;
    };
    if pa.row == pb.row {
        return pa.col.abs_diff(pb.col) == 1;
    }
    if pa.row.abs_diff(pb.row) != 1 {
        return false;
    }
    let (upper, lower) = if pa.row < pb.row { (pa, pb) } else { (pb, pa) };
    lower.col == upper.col || lower.col + 1 == upper.col
}

/// Table-driven equivalence of the const keyboard/confusability tables
/// against their scan-based definitions, over the whole ASCII range.
#[test]
fn const_tables_match_scans() {
    for a in 0u8..128 {
        for b in 0u8..128 {
            assert_eq!(
                ets_core::keyboard::ADJACENCY[a as usize][b as usize],
                adjacent_by_scan(a as char, b as char),
                "adjacency {a} vs {b}"
            );
            assert_eq!(
                distance::CONFUSABILITY[a as usize][b as usize].to_bits(),
                distance::char_confusability_legacy(a as char, b as char).to_bits(),
                "confusability {a} vs {b}"
            );
        }
    }
}

/// The tables' symmetry, spot-checked at runtime too (the build asserts
/// it at compile time).
#[test]
fn adjacency_table_symmetric() {
    for a in 0usize..128 {
        for b in 0usize..128 {
            assert_eq!(
                ets_core::keyboard::ADJACENCY[a][b],
                ets_core::keyboard::ADJACENCY[b][a]
            );
        }
    }
}

/// The reverse index explains a query exactly as searching each target's
/// generated candidate list would.
#[test]
fn explain_equals_generator_search() {
    let targets: Vec<DomainName> = ["gmail.com", "gmal.com", "outlook.com", "a.com"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let index = ReverseDl1Index::build(&targets);
    for t in &targets {
        for cand in typogen::generate_dl1(t) {
            let explained = index.explain(&cand.domain);
            let expected: Vec<_> = targets
                .iter()
                .filter_map(|x| {
                    typogen::generate_dl1(x)
                        .into_iter()
                        .find(|c| c.domain == cand.domain)
                })
                .collect();
            assert_eq!(explained, expected, "query {}", cand.domain);
        }
    }
}

/// The table's column accessors agree with the records it materializes.
#[test]
fn table_columns_agree_with_candidates() {
    let target: DomainName = "hotmail.com".parse().unwrap();
    let table = TypoTable::generate(&target);
    let cands = typogen::generate_dl1(&target);
    assert_eq!(table.len(), cands.len());
    for (i, c) in cands.iter().enumerate() {
        assert_eq!(table.sld(i), c.domain.sld());
        assert_eq!(table.kind(i), c.kind);
        assert_eq!(table.position(i), c.position);
        assert_eq!(table.fat_finger(i), c.fat_finger);
        assert_eq!(table.visual(i).to_bits(), c.visual.to_bits());
        assert_eq!(table.candidate(i), *c);
    }
}
