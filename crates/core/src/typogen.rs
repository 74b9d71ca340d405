//! Typo candidate generation ("gtypos").
//!
//! Generates every Damerau-Levenshtein-distance-one variant of a target
//! domain's second-level label, tagged with the mistake type (addition,
//! deletion, substitution, transposition — Figure 9's categories), the
//! position of the mistake, whether the variant is also at fat-finger
//! distance one, and its visual distance from the target.
//!
//! The gtypo set of the Alexa top-10,000 contains millions of candidates
//! (§4.2.1). The engine is byte-level and allocation-free per candidate:
//! variants are built in one reusable scratch buffer, deduplication is
//! analytic (a variant is emitted only at the canonical run-start
//! position of its operation, which provably reproduces the legacy
//! `HashSet<String>` first-wins order), fat-finger membership is decided
//! per operation from the `const` keyboard table instead of running a
//! DP per candidate, and results land in a struct-of-arrays
//! [`TypoTable`]. [`generate_dl1`] remains as a thin wrapper that
//! materializes the table into the classic `Vec<TypoCandidate>`;
//! [`generate_dl1_legacy`] keeps the original string-based generator for
//! equivalence tests and benchmarks.

use crate::distance;
use crate::domain::{DomainName, MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::keyboard;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// The four DL-1 typing-mistake types of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MistakeKind {
    /// One extra character typed (`gmail` → `gmaiql`).
    Addition,
    /// One character omitted (`zohomail` → `zohomil`).
    Deletion,
    /// One character replaced (`hotmail` → `hovmail`).
    Substitution,
    /// Two neighboring characters swapped (`gmail` → `gmial`).
    Transposition,
}

impl MistakeKind {
    /// All four kinds, in Figure 9's display order.
    pub const ALL: [MistakeKind; 4] = [
        MistakeKind::Addition,
        MistakeKind::Transposition,
        MistakeKind::Deletion,
        MistakeKind::Substitution,
    ];
}

impl fmt::Display for MistakeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MistakeKind::Addition => "addition",
            MistakeKind::Deletion => "deletion",
            MistakeKind::Substitution => "substitution",
            MistakeKind::Transposition => "transposition",
        };
        f.write_str(s)
    }
}

/// A generated typo candidate of some target domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypoCandidate {
    /// The typo domain itself.
    pub domain: DomainName,
    /// The target it was generated from.
    pub target: DomainName,
    /// Which of the four DL-1 mistakes produced it.
    pub kind: MistakeKind,
    /// Zero-based position of the mistake within the second-level label.
    pub position: usize,
    /// Whether the candidate is also at fat-finger distance one.
    pub fat_finger: bool,
    /// Visual distance from the target (unnormalized; see
    /// [`crate::distance::visual`]).
    pub visual: f64,
}

impl TypoCandidate {
    /// Visual distance normalized by target SLD length, the feature the
    /// Section-6 regression consumes.
    pub fn visual_normalized(&self) -> f64 {
        self.visual / self.target.sld().len() as f64
    }
}

/// Struct-of-arrays result of the byte-level DL-1 engine: one target, all
/// its typo variants' labels in a single string arena plus parallel
/// per-candidate columns. Iterating the columns costs no allocation;
/// [`TypoTable::candidate`] materializes a classic [`TypoCandidate`] on
/// demand.
#[derive(Debug, Clone)]
pub struct TypoTable {
    target: DomainName,
    /// Variant SLDs concatenated; variant `i` spans `ends[i-1]..ends[i]`.
    slds: String,
    ends: Vec<u32>,
    kinds: Vec<MistakeKind>,
    positions: Vec<u32>,
    fat_finger: Vec<bool>,
    visual: Vec<f64>,
}

impl TypoTable {
    /// Generates all distinct DL-1 variants of `target`'s second-level
    /// label. Candidate order, attribution, and scores are identical to
    /// [`generate_dl1_legacy`]: deletions, then transpositions, then
    /// substitutions, then additions, each position-ascending with the
    /// alphabet in `a..z 0..9 -` order, keeping only the canonical
    /// (smallest-position) representative of each distinct string.
    pub fn generate(target: &DomainName) -> TypoTable {
        let sld = target.sld().to_owned(); // detach from `target` borrow
        let s = sld.as_bytes();
        let n = s.len();
        let tld_len = target.tld().len();
        let cap = dl1_upper_bound(n, keyboard::ALPHABET.len());
        let mut table = TypoTable {
            target: target.clone(),
            slds: String::with_capacity(cap * (n + 1)),
            ends: Vec::with_capacity(cap),
            kinds: Vec::with_capacity(cap),
            positions: Vec::with_capacity(cap),
            fat_finger: Vec::with_capacity(cap),
            visual: Vec::with_capacity(cap),
        };
        let mut scratch = distance::VisualScratch::default();
        let mut buf: Vec<u8> = Vec::with_capacity(n + 1);

        // Deletions. Deleting any character of a run yields the same
        // string, so only the run start is emitted (the first-wins
        // winner); a single-character label would leave an empty label.
        if n >= 2 {
            for i in 0..n {
                if i > 0 && s[i] == s[i - 1] {
                    continue;
                }
                let first = if i == 0 { s[1] } else { s[0] };
                let last = if i == n - 1 { s[n - 2] } else { s[n - 1] };
                if first == b'-' || last == b'-' {
                    continue;
                }
                buf.clear();
                buf.extend_from_slice(&s[..i]);
                buf.extend_from_slice(&s[i + 1..]);
                table.push(s, &buf, MistakeKind::Deletion, i, true, &mut scratch);
            }
        }
        // Transpositions of distinct neighbors. Distinct transpositions
        // never collide with each other or any other kind (they differ
        // from the label in exactly two positions).
        for i in 0..n.saturating_sub(1) {
            if s[i] == s[i + 1] {
                continue;
            }
            if (i == 0 && s[1] == b'-') || (i + 2 == n && s[i] == b'-') {
                continue;
            }
            buf.clear();
            buf.extend_from_slice(s);
            buf.swap(i, i + 1);
            table.push(s, &buf, MistakeKind::Transposition, i, true, &mut scratch);
        }
        // Substitutions: all (position, char ≠ current) pairs are
        // distinct strings; fat-finger iff the keys are adjacent.
        for i in 0..n {
            for &c in &keyboard::ALPHABET {
                if c == s[i] {
                    continue;
                }
                if c == b'-' && (i == 0 || i == n - 1) {
                    continue;
                }
                buf.clear();
                buf.extend_from_slice(s);
                buf[i] = c;
                let ff = keyboard::adjacent_bytes(s[i], c);
                table.push(s, &buf, MistakeKind::Substitution, i, ff, &mut scratch);
            }
        }
        // Additions (insert before position i, 0..=n). Inserting `c`
        // anywhere along a run of `c` yields the same string; the run
        // start is canonical. The legacy parser rejected variants whose
        // label or full name exceeded the RFC limits, so gate on those.
        if n < MAX_LABEL_LEN && (n + 1) + 1 + tld_len <= MAX_NAME_LEN {
            for i in 0..=n {
                for &c in &keyboard::ALPHABET {
                    if i > 0 && s[i - 1] == c {
                        continue;
                    }
                    if c == b'-' && (i == 0 || i == n) {
                        continue;
                    }
                    // Fat-finger: the stray key equals or neighbors an
                    // intended character beside the insertion point.
                    let near = |x: u8| c == x || keyboard::adjacent_bytes(c, x);
                    let ff = (i > 0 && near(s[i - 1])) || (i < n && near(s[i]));
                    buf.clear();
                    buf.extend_from_slice(&s[..i]);
                    buf.push(c);
                    buf.extend_from_slice(&s[i..]);
                    table.push(s, &buf, MistakeKind::Addition, i, ff, &mut scratch);
                }
            }
        }
        table
    }

    fn push(
        &mut self,
        target_sld: &[u8],
        variant: &[u8],
        kind: MistakeKind,
        position: usize,
        fat_finger: bool,
        scratch: &mut distance::VisualScratch,
    ) {
        let visual = distance::visual_bytes(target_sld, variant, scratch);
        self.slds
            .push_str(std::str::from_utf8(variant).expect("domain labels are ASCII"));
        self.ends.push(self.slds.len() as u32);
        self.kinds.push(kind);
        self.positions.push(position as u32);
        self.fat_finger.push(fat_finger);
        self.visual.push(visual);
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The target the table was generated from.
    pub fn target(&self) -> &DomainName {
        &self.target
    }

    /// The variant second-level label of candidate `i` (borrowed from the
    /// arena, no allocation).
    pub fn sld(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.slds[start..self.ends[i] as usize]
    }

    /// Mistake kind of candidate `i`.
    pub fn kind(&self, i: usize) -> MistakeKind {
        self.kinds[i]
    }

    /// Mistake position of candidate `i` within the label.
    pub fn position(&self, i: usize) -> usize {
        self.positions[i] as usize
    }

    /// Whether candidate `i` is also at fat-finger distance one.
    pub fn fat_finger(&self, i: usize) -> bool {
        self.fat_finger[i]
    }

    /// Unnormalized visual distance of candidate `i` from the target.
    pub fn visual(&self, i: usize) -> f64 {
        self.visual[i]
    }

    /// Visual distance of candidate `i` normalized by target SLD length
    /// (the Section-6 regression feature).
    pub fn visual_normalized(&self, i: usize) -> f64 {
        self.visual[i] / self.target.sld().len() as f64
    }

    /// Materializes candidate `i` as an owned [`TypoCandidate`]
    /// (one name allocation, no re-parse).
    pub fn candidate(&self, i: usize) -> TypoCandidate {
        let sld = self.sld(i);
        let tld = self.target.tld();
        let mut name = String::with_capacity(sld.len() + 1 + tld.len());
        name.push_str(sld);
        name.push('.');
        name.push_str(tld);
        let sld_end = sld.len();
        TypoCandidate {
            domain: DomainName::from_validated_parts(name, sld_end),
            target: self.target.clone(),
            kind: self.kinds[i],
            position: self.positions[i] as usize,
            fat_finger: self.fat_finger[i],
            visual: self.visual[i],
        }
    }

    /// Materializes every candidate in order.
    pub fn into_candidates(self) -> Vec<TypoCandidate> {
        (0..self.len()).map(|i| self.candidate(i)).collect()
    }

    /// Iterates materialized candidates in order.
    pub fn iter(&self) -> impl Iterator<Item = TypoCandidate> + '_ {
        (0..self.len()).map(|i| self.candidate(i))
    }
}

/// Generates all distinct DL-1 typo candidates of `target`'s second-level
/// label, keeping the TLD fixed.
///
/// Candidates equal to the target, syntactically invalid (leading/trailing
/// hyphen), or duplicating another candidate are skipped; when several
/// operations produce the same string, the earliest in the order
/// deletion → transposition → substitution → addition at the smallest
/// position wins (deletions and transpositions are the most frequent
/// mistakes per Figure 9, so ties attribute to the likelier cause).
///
/// This is a thin wrapper over the byte-level [`TypoTable`] engine; the
/// output is byte-identical to the original string-based generator
/// (retained as [`generate_dl1_legacy`]).
///
/// ```
/// use ets_core::typogen::generate_dl1;
/// let typos = generate_dl1(&"gmail.com".parse().unwrap());
/// assert!(typos.iter().any(|t| t.domain.as_str() == "gmial.com"));
/// assert!(typos.iter().all(|t| t.domain.as_str() != "gmail.com"));
/// ```
pub fn generate_dl1(target: &DomainName) -> Vec<TypoCandidate> {
    TypoTable::generate(target).into_candidates()
}

/// The original string-based DL-1 generator: per-candidate `String`
/// allocation, `HashSet` first-wins dedup, per-candidate fat-finger DP.
/// Kept as the reference implementation for the equivalence suite
/// (`tests/typo_equivalence.rs`) and the `ets-bench` `typogen` bench.
pub fn generate_dl1_legacy(target: &DomainName) -> Vec<TypoCandidate> {
    let sld: Vec<char> = target.sld().chars().collect();
    let n = sld.len();
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(target.sld().to_owned());
    let mut out = Vec::new();

    let mut push = |variant: String, kind: MistakeKind, position: usize, out: &mut Vec<_>| {
        if variant.starts_with('-') || variant.ends_with('-') || variant.is_empty() {
            return;
        }
        if seen.contains(&variant) {
            return;
        }
        let Ok(domain) = target.with_sld(&variant) else {
            seen.insert(variant);
            return;
        };
        let fat_finger = distance::fat_finger_legacy(target.sld(), &variant) == Some(1);
        let visual = distance::visual_legacy(target.sld(), &variant);
        seen.insert(variant);
        out.push(TypoCandidate {
            domain,
            target: target.clone(),
            kind,
            position,
            fat_finger,
            visual,
        });
    };

    // Deletions.
    for i in 0..n {
        let mut v = String::with_capacity(n - 1);
        v.extend(sld.iter().take(i));
        v.extend(sld.iter().skip(i + 1));
        push(v, MistakeKind::Deletion, i, &mut out);
    }
    // Transpositions of neighbors.
    for i in 0..n.saturating_sub(1) {
        if sld[i] == sld[i + 1] {
            continue;
        }
        let mut v: Vec<char> = sld.clone();
        v.swap(i, i + 1);
        push(
            v.into_iter().collect(),
            MistakeKind::Transposition,
            i,
            &mut out,
        );
    }
    // Substitutions.
    for i in 0..n {
        for c in keyboard::alphabet() {
            if c == sld[i] {
                continue;
            }
            let mut v: Vec<char> = sld.clone();
            v[i] = c;
            push(
                v.into_iter().collect(),
                MistakeKind::Substitution,
                i,
                &mut out,
            );
        }
    }
    // Additions (insert before position i, 0..=n).
    for i in 0..=n {
        for c in keyboard::alphabet() {
            let mut v = String::with_capacity(n + 1);
            v.extend(sld.iter().take(i));
            v.push(c);
            v.extend(sld.iter().skip(i));
            push(v, MistakeKind::Addition, i, &mut out);
        }
    }
    out
}

/// Classifies `typo` as a DL-1 variant of `target`, returning the same
/// [`TypoCandidate`] (kind, canonical position, fat-finger flag, visual
/// score) that [`generate_dl1`] would have produced for it, or `None`
/// when `typo` is not at DL distance exactly one from `target` with the
/// same TLD.
///
/// This is the verification half of the reverse DL-1 index
/// ([`crate::revindex::ReverseDl1Index`]): instead of regenerating a
/// target's full candidate set and searching it, a single O(len)
/// comparison recovers the candidate record.
///
/// ```
/// use ets_core::typogen::{classify_dl1, MistakeKind};
/// let target = "gmail.com".parse().unwrap();
/// let typo = "gmial.com".parse().unwrap();
/// let cand = classify_dl1(&target, &typo).unwrap();
/// assert_eq!(cand.kind, MistakeKind::Transposition);
/// assert_eq!(cand.position, 2);
/// assert!(classify_dl1(&target, &"gmx.com".parse().unwrap()).is_none());
/// ```
pub fn classify_dl1(target: &DomainName, typo: &DomainName) -> Option<TypoCandidate> {
    if target.tld() != typo.tld() {
        return None;
    }
    let s = target.sld().as_bytes();
    let t = typo.sld().as_bytes();
    let (kind, position) = classify_slds(s, t)?;
    let fat_finger = match kind {
        MistakeKind::Deletion | MistakeKind::Transposition => true,
        MistakeKind::Substitution => keyboard::adjacent_bytes(s[position], t[position]),
        MistakeKind::Addition => {
            let c = t[position];
            let near = |x: u8| c == x || keyboard::adjacent_bytes(c, x);
            (position > 0 && near(s[position - 1])) || (position < s.len() && near(s[position]))
        }
    };
    let mut scratch = distance::VisualScratch::default();
    let visual = distance::visual_bytes(s, t, &mut scratch);
    Some(TypoCandidate {
        domain: typo.clone(),
        target: target.clone(),
        kind,
        position,
        fat_finger,
        visual,
    })
}

/// Byte-level DL-1 classification of `t` against `s`: the mistake kind
/// and the *canonical* position (the run-start the generator attributes
/// duplicates to), or `None` if the labels are not at DL distance one.
fn classify_slds(s: &[u8], t: &[u8]) -> Option<(MistakeKind, usize)> {
    let n = s.len();
    let m = t.len();
    if m == n {
        let i = (0..n).find(|&i| s[i] != t[i])?;
        let j = (0..n).rfind(|&j| s[j] != t[j]).expect("some diff exists");
        if i == j {
            return Some((MistakeKind::Substitution, i));
        }
        if j == i + 1 && s[i] == t[j] && s[j] == t[i] {
            return Some((MistakeKind::Transposition, i));
        }
        None
    } else if m + 1 == n {
        // t is s with s[i] deleted, where i is the first difference.
        let i = (0..m).find(|&i| s[i] != t[i]).unwrap_or(m);
        if s[i + 1..] != t[i..] {
            return None;
        }
        // Canonicalize to the run start of the deleted character.
        let mut p = i;
        while p > 0 && s[p - 1] == s[i] {
            p -= 1;
        }
        Some((MistakeKind::Deletion, p))
    } else if m == n + 1 {
        // t is s with t[i] inserted, where i is the first difference.
        let i = (0..n).find(|&i| s[i] != t[i]).unwrap_or(n);
        if t[i + 1..] != s[i..] {
            return None;
        }
        // Canonicalize to the run start of the inserted character.
        let c = t[i];
        let mut p = i;
        while p > 0 && t[p - 1] == c {
            p -= 1;
        }
        Some((MistakeKind::Addition, p))
    } else {
        None
    }
}

/// Generates only the fat-finger-distance-one subset (the registration
/// strategy of §4.2.1: "most of the typo domains we generated have a
/// fat-finger distance of one").
pub fn generate_ff1(target: &DomainName) -> Vec<TypoCandidate> {
    let table = TypoTable::generate(target);
    (0..table.len())
        .filter(|&i| table.fat_finger(i))
        .map(|i| table.candidate(i))
        .collect()
}

/// Generates gtypos for a whole target list, deduplicating candidates that
/// are DL-1 from several targets (kept once, attributed to the target whose
/// visual distance is smallest — the most plausible victim).
///
/// The per-target DL-1 fan-out (the expensive part — millions of
/// candidates for the Alexa top-10,000) runs data-parallel; the dedup
/// merge walks the per-target result vectors in target order, so ties
/// between equally-distant attributions resolve exactly as the
/// sequential loop did and the output is identical for any thread count.
pub fn generate_for_targets(targets: &[DomainName]) -> Vec<TypoCandidate> {
    let per_target: Vec<Vec<TypoCandidate>> =
        ets_parallel::par_map(targets, |_, t| generate_dl1(t));
    let mut best: std::collections::HashMap<DomainName, TypoCandidate> =
        std::collections::HashMap::new();
    let target_set: HashSet<&DomainName> = targets.iter().collect();
    for cands in per_target {
        for cand in cands {
            // A gtypo that is itself a target is not a typo domain.
            if target_set.contains(&cand.domain) {
                continue;
            }
            match best.get(&cand.domain) {
                Some(prev) if prev.visual <= cand.visual => {}
                _ => {
                    best.insert(cand.domain.clone(), cand);
                }
            }
        }
    }
    let mut out: Vec<TypoCandidate> = best.into_values().collect();
    out.sort_by(|a, b| a.domain.cmp(&b.domain));
    out
}

/// Count of DL-1 candidates of a label of length `n` over an alphabet of
/// size `a`, before deduplication: `n` deletions + `n-1` transpositions +
/// `n(a-1)` substitutions + `(n+1)a` additions.
pub fn dl1_upper_bound(label_len: usize, alphabet_size: usize) -> usize {
    let n = label_len;
    let a = alphabet_size;
    n + n.saturating_sub(1) + n * (a - 1) + (n + 1) * a
}

/// Doppelganger ("missing dot") typos of a set of subdomains, per the Godai
/// white paper discussed in §2: `ca.ibm.com` → `caibm.com`.
pub fn generate_doppelgangers(subdomains: &[DomainName]) -> Vec<TypoCandidate> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for s in subdomains {
        if let Some(d) = s.doppelganger() {
            if seen.insert(d.clone()) {
                let visual = 0.35; // a missing dot is a thin-glyph deletion
                out.push(TypoCandidate {
                    domain: d,
                    target: s.clone(),
                    kind: MistakeKind::Deletion,
                    position: s.labels().next().map(str::len).unwrap_or(0),
                    fat_finger: true,
                    visual,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn all_candidates_are_dl1() {
        let t = d("gmail.com");
        for cand in generate_dl1(&t) {
            assert_eq!(
                distance::damerau_levenshtein(t.sld(), cand.domain.sld()),
                1,
                "{} not DL-1 of gmail",
                cand.domain
            );
            assert_eq!(cand.domain.tld(), "com");
        }
    }

    #[test]
    fn no_duplicates_and_no_target() {
        let t = d("gmail.com");
        let typos = generate_dl1(&t);
        let mut set = HashSet::new();
        for c in &typos {
            assert!(set.insert(c.domain.as_str()), "duplicate {}", c.domain);
            assert_ne!(c.domain, t);
        }
    }

    #[test]
    fn engine_matches_legacy_generator() {
        for name in [
            "gmail.com",
            "outlook.com",
            "aa.org",
            "x.org",
            "a-b.net",
            "zzzaaa.com",
        ] {
            let t = d(name);
            assert_eq!(generate_dl1(&t), generate_dl1_legacy(&t), "{name}");
        }
    }

    #[test]
    fn classify_recovers_generated_candidates() {
        for name in ["gmail.com", "aa.org", "a-b.net"] {
            let t = d(name);
            for cand in generate_dl1(&t) {
                let back = classify_dl1(&t, &cand.domain).expect("DL-1 by construction");
                assert_eq!(back, cand, "{name} -> {}", cand.domain);
            }
        }
    }

    #[test]
    fn classify_rejects_non_dl1() {
        let t = d("gmail.com");
        assert!(classify_dl1(&t, &d("gmail.com")).is_none()); // equal
        assert!(classify_dl1(&t, &d("gmx.com")).is_none()); // DL 3
        assert!(classify_dl1(&t, &d("gmial.net")).is_none()); // tld differs
    }

    #[test]
    fn contains_paper_examples() {
        let typos = generate_dl1(&d("gmail.com"));
        let names: HashSet<&str> = typos.iter().map(|t| t.domain.as_str()).collect();
        for expect in [
            "gmial.com",
            "gmaiql.com",
            "gmai-l.com",
            "gmil.com",
            "gnail.com",
        ] {
            assert!(names.contains(expect), "missing {expect}");
        }
        let typos = generate_dl1(&d("outlook.com"));
        let names: HashSet<&str> = typos.iter().map(|t| t.domain.as_str()).collect();
        for expect in [
            "outlo0k.com",
            "ohtlook.com",
            "outmook.com",
            "o7tlook.com",
            "outloook.com",
        ] {
            assert!(names.contains(expect), "missing {expect}");
        }
    }

    #[test]
    fn kinds_are_attributed() {
        let typos = generate_dl1(&d("gmail.com"));
        let find = |name: &str| typos.iter().find(|t| t.domain.as_str() == name).unwrap();
        assert_eq!(find("gmial.com").kind, MistakeKind::Transposition);
        assert_eq!(find("gmil.com").kind, MistakeKind::Deletion);
        assert_eq!(find("gmqil.com").kind, MistakeKind::Substitution);
        assert_eq!(find("gmaiql.com").kind, MistakeKind::Addition);
    }

    #[test]
    fn ff1_subset_is_consistent() {
        let t = d("outlook.com");
        let ff = generate_ff1(&t);
        assert!(!ff.is_empty());
        for c in &ff {
            assert!(c.fat_finger);
            assert_eq!(distance::fat_finger(t.sld(), c.domain.sld()), Some(1));
        }
        let all = generate_dl1(&t);
        assert!(ff.len() < all.len());
    }

    #[test]
    fn hyphen_edges_excluded() {
        let typos = generate_dl1(&d("gmail.com"));
        for c in &typos {
            assert!(!c.domain.sld().starts_with('-'));
            assert!(!c.domain.sld().ends_with('-'));
        }
    }

    #[test]
    fn candidate_count_close_to_upper_bound() {
        // 37-character alphabet; dedup removes only a handful (doubled
        // letters, hyphen-edge cases).
        let t = d("gmail.com");
        let ub = dl1_upper_bound(5, 37);
        let got = generate_dl1(&t).len();
        assert!(got <= ub);
        assert!(got > ub * 8 / 10, "got {got}, ub {ub}");
    }

    #[test]
    fn single_char_label() {
        let typos = generate_dl1(&d("x.org"));
        assert!(!typos.is_empty());
        for c in &typos {
            assert_eq!(distance::damerau_levenshtein("x", c.domain.sld()), 1);
        }
        // no transpositions possible, deletion would be empty
        assert!(typos.iter().all(|c| c.kind != MistakeKind::Transposition));
        assert!(typos.iter().all(|c| c.kind != MistakeKind::Deletion));
    }

    #[test]
    fn table_columns_match_candidates() {
        let t = d("outlook.com");
        let table = TypoTable::generate(&t);
        let cands = generate_dl1(&t);
        assert_eq!(table.len(), cands.len());
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(table.sld(i), c.domain.sld());
            assert_eq!(table.kind(i), c.kind);
            assert_eq!(table.position(i), c.position);
            assert_eq!(table.fat_finger(i), c.fat_finger);
            assert_eq!(table.visual(i).to_bits(), c.visual.to_bits());
            assert_eq!(
                table.visual_normalized(i).to_bits(),
                c.visual_normalized().to_bits()
            );
            assert_eq!(table.candidate(i), *c);
        }
        assert_eq!(table.iter().collect::<Vec<_>>(), cands);
    }

    #[test]
    fn multi_target_dedup_prefers_visually_closer() {
        // "gmsil.com" is DL-1 of gmail; also check a candidate reachable from
        // two targets is kept once.
        let targets = [d("gmail.com"), d("gmal.com")];
        let typos = generate_for_targets(&targets);
        let mut counts = std::collections::HashMap::new();
        for t in &typos {
            *counts.entry(t.domain.as_str()).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&v| v == 1));
        // neither target appears as a candidate of the other
        assert!(typos
            .iter()
            .all(|t| t.domain != targets[0] && t.domain != targets[1]));
    }

    #[test]
    fn doppelgangers() {
        let subs = [d("ca.ibm.com"), d("smtp.gmail.com"), d("mail.google.com")];
        let dg = generate_doppelgangers(&subs);
        let names: Vec<&str> = dg.iter().map(|t| t.domain.as_str()).collect();
        assert_eq!(names, vec!["caibm.com", "smtpgmail.com", "mailgoogle.com"]);
    }

    #[test]
    fn visual_normalization() {
        let t = d("outlook.com");
        let typos = generate_dl1(&t);
        let c = typos
            .iter()
            .find(|c| c.domain.as_str() == "outlo0k.com")
            .unwrap();
        assert!((c.visual_normalized() - c.visual / 7.0).abs() < 1e-12);
    }
}
