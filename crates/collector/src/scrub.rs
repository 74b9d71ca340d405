//! The sensitive-information filter (§4.2.2, Table 2, Figure 6).
//!
//! Flags and removes personal identifiers before anything is stored,
//! using the HIPAA identifier list as the baseline. Each identifier type
//! has a dedicated recognizer (credit cards are Luhn-validated and
//! brand-classified; SSNs/EINs/phones/dates are shape-matched; VINs obey
//! the 17-character alphabet; passwords/usernames key on context words).
//! Matches are replaced by `*_|R|_*<label>*<zeroed>*_|R|_*` markers — the
//! exact format of the paper's Figure 2 example — and, as an added
//! precaution, every remaining digit in the text is zeroed.
//!
//! [`scrub`] costs time linear in the text size, hostile input included:
//! each recognizer is one left-to-right pass that examines each byte a
//! bounded number of times, and overlap resolution compares each
//! candidate once, with the end of the last accepted span. Only sorting
//! the candidates by start adds a log factor in their count.
//!
//! The keyword-cued recognizers (passwords/usernames, broad id numbers)
//! scan through compiled `ets-scan` automata: one case-folding pass
//! locates every cue, and the expensive per-candidate validators only
//! run near real hits — no `to_ascii_lowercase` copy of the text or of
//! each candidate's context window. VINs and ZIPs are read off the
//! maximal ASCII-alphanumeric tokens: a VIN is a 17-byte token, a bare
//! ZIP a 5-digit token, and a ZIP+4 a 5-digit token followed by `-`,
//! four digits and a non-alphanumeric byte (or the end of the text).
//! The original recognizers, which test those shapes at every byte
//! offset, are retained behind [`scrub_legacy`] for the equivalence suite
//! and the scan microbenches.

use ets_scan::{contains_fold, PatternSet, TokenStream};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// The identifier types of Table 2 / Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SensitiveKind {
    /// Payment card number (any brand).
    CreditCard,
    /// Social Security number.
    Ssn,
    /// Employer identification number.
    Ein,
    /// Password disclosed in text.
    Password,
    /// Vehicle identification number.
    Vin,
    /// Username/login disclosed in text.
    Username,
    /// ZIP code.
    Zip,
    /// Broad identification numbers (account, member, case ids).
    IdNumber,
    /// Email address.
    Email,
    /// Phone number.
    Phone,
    /// Calendar date.
    Date,
}

impl SensitiveKind {
    /// All kinds, Table-2 row order.
    pub const ALL: [SensitiveKind; 11] = [
        SensitiveKind::CreditCard,
        SensitiveKind::Ssn,
        SensitiveKind::Ein,
        SensitiveKind::Password,
        SensitiveKind::Vin,
        SensitiveKind::Username,
        SensitiveKind::Zip,
        SensitiveKind::IdNumber,
        SensitiveKind::Email,
        SensitiveKind::Phone,
        SensitiveKind::Date,
    ];

    /// Table-2 row label.
    pub fn label(self) -> &'static str {
        match self {
            SensitiveKind::CreditCard => "Credit card number",
            SensitiveKind::Ssn => "Social Security number",
            SensitiveKind::Ein => "Employer id. number",
            SensitiveKind::Password => "Password",
            SensitiveKind::Vin => "Vehicle id. number",
            SensitiveKind::Username => "Username",
            SensitiveKind::Zip => "Zip",
            SensitiveKind::IdNumber => "Identification number",
            SensitiveKind::Email => "Email address",
            SensitiveKind::Phone => "Phone number",
            SensitiveKind::Date => "Date",
        }
    }
}

impl fmt::Display for SensitiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Card brands (Figure 6 tallies these separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CardBrand {
    /// Visa (prefix 4).
    Visa,
    /// Mastercard (51–55, 2221–2720).
    Mastercard,
    /// American Express (34, 37).
    Amex,
    /// Diners Club (300–305, 36, 38).
    DinersClub,
    /// JCB (3528–3589).
    Jcb,
    /// Discover (6011, 65).
    Discover,
    /// Valid Luhn but unrecognized prefix.
    Other,
}

impl CardBrand {
    /// Marker label used in the replacement text.
    pub fn marker(self) -> &'static str {
        match self {
            CardBrand::Visa => "visa",
            CardBrand::Mastercard => "mastercard",
            CardBrand::Amex => "americanexpress",
            CardBrand::DinersClub => "dinersclub",
            CardBrand::Jcb => "jcb",
            CardBrand::Discover => "discover",
            CardBrand::Other => "card",
        }
    }

    fn classify(digits: &[u8]) -> CardBrand {
        let p2 = digits[0] as u32 * 10 + digits[1] as u32;
        let p3 = p2 * 10 + digits[2] as u32;
        let p4 = p3 * 10 + digits[3] as u32;
        match () {
            _ if digits[0] == 4 => CardBrand::Visa,
            _ if (51..=55).contains(&p2) || (2221..=2720).contains(&p4) => CardBrand::Mastercard,
            _ if p2 == 34 || p2 == 37 => CardBrand::Amex,
            _ if (300..=305).contains(&p3) || p2 == 36 || p2 == 38 => CardBrand::DinersClub,
            _ if (3528..=3589).contains(&p4) => CardBrand::Jcb,
            _ if p4 == 6011 || p2 == 65 => CardBrand::Discover,
            _ => CardBrand::Other,
        }
    }
}

/// One match found in the text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// What was found.
    pub kind: SensitiveKind,
    /// Byte range in the original text.
    pub start: usize,
    /// End of the byte range (exclusive).
    pub end: usize,
    /// Card brand, for credit cards.
    pub brand: Option<CardBrand>,
}

/// The scrubbed output.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubResult {
    /// Sanitized text: matches replaced by markers, all digits zeroed.
    pub text: String,
    /// What was found (kinds + original spans).
    pub findings: Vec<Finding>,
}

impl ScrubResult {
    /// Whether anything of `kind` was found.
    pub fn has(&self, kind: SensitiveKind) -> bool {
        self.findings.iter().any(|f| f.kind == kind)
    }

    /// Distinct kinds found.
    pub fn kinds(&self) -> Vec<SensitiveKind> {
        let mut v: Vec<SensitiveKind> = self.findings.iter().map(|f| f.kind).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Scrubs a text: finds every identifier, replaces spans with markers,
/// zeroes remaining digits.
pub fn scrub(text: &str) -> ScrubResult {
    assemble(text, candidates(text))
}

/// Every recognizer's findings, in overlap-resolution priority order:
/// earlier recognizers win ties at the same start.
fn candidates(text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    find_credit_cards(text, &mut findings);
    find_shapes_fused(text, &mut findings);
    find_vins(text, &mut findings);
    find_emails(text, &mut findings);
    find_context_tokens(text, &mut findings);
    find_zips(text, &mut findings);
    find_id_numbers(text, &mut findings);
    findings
}

/// The original scrubber, kept verbatim as a whole-path reference: the same
/// recognizer lineup, but the keyword-cued recognizers lowercase the text
/// (and each candidate's context window) and rescan per keyword, the VIN
/// and ZIP recognizers test every byte offset, and overlap resolution
/// compares each candidate with every span accepted before it. Retained
/// for the equivalence suite and the `scan` microbenches; output is
/// byte-identical with [`scrub`]. ROADMAP item 4 moves this path and its
/// `_legacy` kernels out of production crates together.
pub fn scrub_legacy(text: &str) -> ScrubResult {
    let mut findings = Vec::new();
    find_credit_cards(text, &mut findings);
    find_shape(text, "###-##-####", SensitiveKind::Ssn, &mut findings);
    find_shape(text, "##-#######", SensitiveKind::Ein, &mut findings);
    find_phones(text, &mut findings);
    find_dates(text, &mut findings);
    find_vins_legacy(text, &mut findings);
    find_emails(text, &mut findings);
    find_context_tokens_legacy(text, &mut findings);
    find_zips_legacy(text, &mut findings);
    find_id_numbers_legacy(text, &mut findings);
    assemble_legacy(text, findings)
}

#[cfg(test)]
thread_local! {
    /// Overlap comparisons made by [`assemble`] on this thread, for the
    /// tests that bound its work.
    static OVERLAP_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Bytes scanned by [`SecretSpans`] on this thread, likewise.
    static SECRET_SCANNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Overlap resolution and text rebuild.
///
/// Earlier recognizers have higher priority: candidates are visited in
/// `(start, insertion)` order and one is kept if it overlaps no span
/// kept before it. Kept spans are disjoint and visited by start, and
/// every finding is non-empty, so that test reduces to `start >= reach`,
/// where `reach` is the end of the last kept span: one comparison per
/// candidate, and the kept list comes out sorted by start.
fn assemble(text: &str, mut findings: Vec<Finding>) -> ScrubResult {
    // Stable: equal starts keep their insertion order.
    findings.sort_by_key(|f| f.start);
    let mut reach = 0usize;
    findings.retain(|f| {
        #[cfg(test)]
        OVERLAP_CHECKS.with(|n| n.set(n.get() + 1));
        let keep = f.start >= reach;
        if keep {
            reach = f.end;
        }
        keep
    });

    // Rebuild the text, appending in place (no per-segment strings).
    let mut out = String::with_capacity(text.len());
    let mut cursor = 0usize;
    for f in &findings {
        push_zero_digits(&mut out, &text[cursor..f.start]);
        let label = match (f.kind, f.brand) {
            (SensitiveKind::CreditCard, Some(b)) => b.marker(),
            (k, _) => marker_label(k),
        };
        out.push_str("*_|R|_*");
        out.push_str(label);
        out.push('*');
        push_zero_and_mask(&mut out, &text[f.start..f.end]);
        out.push_str("*_|R|_*");
        cursor = f.end;
    }
    push_zero_digits(&mut out, &text[cursor..]);
    ScrubResult {
        text: out,
        findings,
    }
}

/// The original overlap resolution: each candidate is compared with every
/// span accepted before it, and text is zeroed one char at a time.
fn assemble_legacy(text: &str, findings: Vec<Finding>) -> ScrubResult {
    let mut accepted: Vec<Finding> = Vec::new();
    let mut order: Vec<(usize, Finding)> = findings.into_iter().enumerate().collect();
    order.sort_by_key(|(i, f)| (f.start, *i));
    for (_, f) in order {
        if accepted
            .iter()
            .all(|a| f.end <= a.start || f.start >= a.end)
        {
            accepted.push(f);
        }
    }
    accepted.sort_by_key(|f| f.start);

    let mut out = String::with_capacity(text.len());
    let mut cursor = 0usize;
    for f in &accepted {
        push_zero_digits_legacy(&mut out, &text[cursor..f.start]);
        let label = match (f.kind, f.brand) {
            (SensitiveKind::CreditCard, Some(b)) => b.marker(),
            (k, _) => marker_label(k),
        };
        out.push_str("*_|R|_*");
        out.push_str(label);
        out.push('*');
        push_zero_and_mask_legacy(&mut out, &text[f.start..f.end]);
        out.push_str("*_|R|_*");
        cursor = f.end;
    }
    push_zero_digits_legacy(&mut out, &text[cursor..]);
    ScrubResult {
        text: out,
        findings: accepted,
    }
}

fn marker_label(k: SensitiveKind) -> &'static str {
    match k {
        SensitiveKind::CreditCard => "card",
        SensitiveKind::Ssn => "ssn",
        SensitiveKind::Ein => "ein",
        SensitiveKind::Password => "password",
        SensitiveKind::Vin => "vin",
        SensitiveKind::Username => "username",
        SensitiveKind::Zip => "zip",
        SensitiveKind::IdNumber => "idnumber",
        SensitiveKind::Email => "email",
        SensitiveKind::Phone => "phone",
        SensitiveKind::Date => "date",
    }
}

/// Appends `s` with every ASCII digit replaced by `0`.
fn push_zero_digits(out: &mut String, s: &str) {
    push_replacing(out, s, |b| b.is_ascii_digit().then_some('0'));
}

/// Zeroes digits and masks letters (used inside markers so even
/// non-numeric identifiers are unrecoverable).
fn push_zero_and_mask(out: &mut String, s: &str) {
    push_replacing(out, s, |b| {
        if b.is_ascii_digit() {
            Some('0')
        } else if b.is_ascii_alphabetic() {
            Some('x')
        } else {
            None
        }
    });
}

/// Appends `s`, replacing each ASCII byte that `sub` maps. The runs
/// between replaced bytes are copied whole; an ASCII byte is always a
/// char boundary, so every slice is valid UTF-8.
fn push_replacing(out: &mut String, s: &str, sub: impl Fn(u8) -> Option<char>) {
    let mut run = 0usize;
    for (i, b) in s.bytes().enumerate() {
        if let Some(c) = sub(b) {
            out.push_str(&s[run..i]);
            out.push(c);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

fn push_zero_digits_legacy(out: &mut String, s: &str) {
    for c in s.chars() {
        out.push(if c.is_ascii_digit() { '0' } else { c });
    }
}

fn push_zero_and_mask_legacy(out: &mut String, s: &str) {
    for c in s.chars() {
        out.push(if c.is_ascii_digit() {
            '0'
        } else if c.is_ascii_alphabetic() {
            'x'
        } else {
            c
        });
    }
}

fn is_boundary(bytes: &[u8], idx: usize) -> bool {
    if idx == 0 || idx >= bytes.len() {
        return true;
    }
    !bytes[idx].is_ascii_alphanumeric() || !bytes[idx - 1].is_ascii_alphanumeric()
}

/// Luhn checksum over a digit sequence.
pub fn luhn_valid(digits: &[u8]) -> bool {
    if digits.is_empty() {
        return false;
    }
    let mut sum = 0u32;
    for (i, &d) in digits.iter().rev().enumerate() {
        let mut v = d as u32;
        if i % 2 == 1 {
            v *= 2;
            if v > 9 {
                v -= 9;
            }
        }
        sum += v;
    }
    sum.is_multiple_of(10)
}

fn find_credit_cards(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() || !is_boundary(bytes, i) {
            i += 1;
            continue;
        }
        // Collect up to 19 digits allowing single spaces/dashes between
        // groups.
        let mut digits: Vec<u8> = Vec::with_capacity(19);
        let mut j = i;
        let mut last_digit_end = i;
        while j < bytes.len() && digits.len() < 19 {
            let c = bytes[j];
            if c.is_ascii_digit() {
                digits.push(c - b'0');
                j += 1;
                last_digit_end = j;
            } else if (c == b' ' || c == b'-')
                && j + 1 < bytes.len()
                && bytes[j + 1].is_ascii_digit()
                && !digits.is_empty()
            {
                j += 1;
            } else {
                break;
            }
        }
        // Must end at a boundary (not run into more digits).
        let clean_end = last_digit_end >= bytes.len() || !bytes[last_digit_end].is_ascii_digit();
        if digits.len() >= 13 && clean_end && luhn_valid(&digits) {
            out.push(Finding {
                kind: SensitiveKind::CreditCard,
                start: i,
                end: last_digit_end,
                brand: Some(CardBrand::classify(&digits)),
            });
            i = last_digit_end;
        } else {
            // skip this digit run entirely
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
}

/// Matches a literal shape where `#` is a digit and other characters match
/// themselves, requiring word boundaries at both ends.
fn find_shape(text: &str, shape: &str, kind: SensitiveKind, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    let pat = shape.as_bytes();
    if bytes.len() < pat.len() {
        return;
    }
    for start in 0..=bytes.len() - pat.len() {
        if !is_boundary(bytes, start) {
            continue;
        }
        let end = start + pat.len();
        if !is_boundary(bytes, end) {
            continue;
        }
        let m = pat.iter().enumerate().all(|(k, &p)| {
            let b = bytes[start + k];
            if p == b'#' {
                b.is_ascii_digit()
            } else {
                b == p
            }
        });
        if m {
            out.push(Finding {
                kind,
                start,
                end,
                brand: None,
            });
        }
    }
}

fn find_phones(text: &str, out: &mut Vec<Finding>) {
    // Shapes seen in the corpora, most specific first.
    for shape in [
        "+#.##########",
        "(###) ###-####",
        "(###)###-####",
        "###-###-####",
        "###.###.####",
        "+# ### ### ####",
    ] {
        find_shape(text, shape, SensitiveKind::Phone, out);
    }
}

fn find_dates(text: &str, out: &mut Vec<Finding>) {
    for shape in [
        "####-##-##",
        "##/##/####",
        "#/##/####",
        "##/#/####",
        "##/##/##",
        "##/##",
    ] {
        find_shape(text, shape, SensitiveKind::Date, out);
    }
}

/// The 14 fixed shapes of the SSN/EIN/phone/date recognizers, in legacy
/// scan order. The index is the overlap-resolution priority: `assemble`
/// breaks span ties by insertion order, so the fused scanner must replay
/// findings grouped by shape exactly as the per-shape loops inserted
/// them.
const SHAPES: [(&str, SensitiveKind); 14] = [
    ("###-##-####", SensitiveKind::Ssn),
    ("##-#######", SensitiveKind::Ein),
    ("+#.##########", SensitiveKind::Phone),
    ("(###) ###-####", SensitiveKind::Phone),
    ("(###)###-####", SensitiveKind::Phone),
    ("###-###-####", SensitiveKind::Phone),
    ("###.###.####", SensitiveKind::Phone),
    ("+# ### ### ####", SensitiveKind::Phone),
    ("####-##-##", SensitiveKind::Date),
    ("##/##/####", SensitiveKind::Date),
    ("#/##/####", SensitiveKind::Date),
    ("##/#/####", SensitiveKind::Date),
    ("##/##/##", SensitiveKind::Date),
    ("##/##", SensitiveKind::Date),
];

/// `SHAPES` indices grouped by first byte, the dispatch key: almost every
/// text position starts with none of digit/`(`/`+` and falls through
/// after a single class test, so one pass replaces fourteen.
const DIGIT_SHAPES: [u8; 10] = [0, 1, 5, 6, 8, 9, 10, 11, 12, 13];
const PAREN_SHAPES: [u8; 2] = [3, 4];
const PLUS_SHAPES: [u8; 2] = [2, 7];

/// All fourteen shape recognizers in a single left-to-right pass,
/// byte-identical to running [`find_shape`] once per shape (the loop
/// [`scrub_legacy`] still runs). Matches are collected as
/// `(shape, start)` and stable-replayed in that order to reproduce the
/// legacy insertion sequence.
fn find_shapes_fused(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    let mut hits: Vec<(u8, usize)> = Vec::new();
    let try_shapes = |candidates: &[u8], start: usize, hits: &mut Vec<(u8, usize)>| {
        for &si in candidates {
            let pat = SHAPES[si as usize].0.as_bytes();
            let end = start + pat.len();
            if end > bytes.len() || !is_boundary(bytes, end) {
                continue;
            }
            let m = pat.iter().enumerate().all(|(k, &p)| {
                let b = bytes[start + k];
                if p == b'#' {
                    b.is_ascii_digit()
                } else {
                    b == p
                }
            });
            if m {
                hits.push((si, start));
            }
        }
    };
    for start in 0..bytes.len() {
        let candidates: &[u8] = match bytes[start] {
            b'0'..=b'9' => &DIGIT_SHAPES,
            b'(' => &PAREN_SHAPES,
            b'+' => &PLUS_SHAPES,
            _ => continue,
        };
        if !is_boundary(bytes, start) {
            continue;
        }
        try_shapes(candidates, start, &mut hits);
    }
    // Scanning left to right yields ascending starts per shape, so this
    // sort is exactly "group by shape, keep position order".
    hits.sort_unstable();
    for (si, start) in hits {
        let (shape, kind) = SHAPES[si as usize];
        out.push(Finding {
            kind,
            start,
            end: start + shape.len(),
            brand: None,
        });
    }
}

/// VINs: maximal ASCII-alphanumeric tokens of exactly 17 bytes over the
/// VIN alphabet (digits and capitals except I, O, Q).
fn find_vins(text: &str, out: &mut Vec<Finding>) {
    for tok in TokenStream::alnum(text) {
        if tok.text.len() == 17 && is_vin(tok.text.as_bytes()) {
            out.push(Finding {
                kind: SensitiveKind::Vin,
                start: tok.start,
                end: tok.start + 17,
                brand: None,
            });
        }
    }
}

fn is_vin(token: &[u8]) -> bool {
    let mut n_digits = 0usize;
    for &c in token {
        if c.is_ascii_digit() {
            n_digits += 1;
        } else if !c.is_ascii_uppercase() || matches!(c, b'I' | b'O' | b'Q') {
            return false;
        }
    }
    // Real VINs mix letters and digits heavily.
    n_digits >= 5 && token.len() - n_digits >= 4
}

/// The original VIN recognizer, which tests every byte offset, retained
/// for the equivalence suite.
fn find_vins_legacy(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    if bytes.len() < 17 {
        return;
    }
    for start in 0..=bytes.len() - 17 {
        if !is_boundary(bytes, start) || !is_boundary(bytes, start + 17) {
            continue;
        }
        let slice = &bytes[start..start + 17];
        let valid = slice.iter().all(|&c| {
            (c.is_ascii_digit() || c.is_ascii_uppercase()) && !matches!(c, b'I' | b'O' | b'Q')
        });
        if !valid {
            continue;
        }
        let n_digits = slice.iter().filter(|c| c.is_ascii_digit()).count();
        let n_alpha = 17 - n_digits;
        // Real VINs mix letters and digits heavily.
        if n_digits >= 5 && n_alpha >= 4 {
            out.push(Finding {
                kind: SensitiveKind::Vin,
                start,
                end: start + 17,
                brand: None,
            });
        }
    }
}

fn find_emails(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'@' {
            continue;
        }
        // Expand left over local-part chars.
        let mut s = i;
        while s > 0 {
            let c = bytes[s - 1];
            if c.is_ascii_alphanumeric() || matches!(c, b'.' | b'_' | b'-' | b'+') {
                s -= 1;
            } else {
                break;
            }
        }
        // Expand right over domain chars.
        let mut e = i + 1;
        while e < bytes.len() {
            let c = bytes[e];
            if c.is_ascii_alphanumeric() || matches!(c, b'.' | b'-') {
                e += 1;
            } else {
                break;
            }
        }
        // Trim trailing dots (sentence punctuation).
        while e > i + 1 && bytes[e - 1] == b'.' {
            e -= 1;
        }
        if s < i && e > i + 1 && text[i + 1..e].contains('.') {
            out.push(Finding {
                kind: SensitiveKind::Email,
                start: s,
                end: e,
                brand: None,
            });
        }
    }
}

/// Credential context keywords, in legacy scan order (password cues
/// before username cues — insertion order is overlap-resolution
/// priority, so the compiled set must replay it exactly).
const CONTEXT_KEYWORDS: [(&str, SensitiveKind); 10] = [
    ("password:", SensitiveKind::Password),
    ("password is", SensitiveKind::Password),
    ("pass:", SensitiveKind::Password),
    ("pwd:", SensitiveKind::Password),
    ("passwd:", SensitiveKind::Password),
    ("username:", SensitiveKind::Username),
    ("user name:", SensitiveKind::Username),
    ("login:", SensitiveKind::Username),
    ("user id:", SensitiveKind::Username),
    ("username is", SensitiveKind::Username),
];

fn context_cue_set() -> &'static PatternSet<SensitiveKind> {
    static SET: OnceLock<PatternSet<SensitiveKind>> = OnceLock::new();
    SET.get_or_init(|| PatternSet::compile(&CONTEXT_KEYWORDS))
}

/// Id-number cue keywords (searched in the window before a digit run).
const ID_CUES: [&str; 9] = [
    "account", "member", "case", "id", "no.", "no:", "number", "#", "ref",
];

fn id_cue_set() -> &'static PatternSet<()> {
    static SET: OnceLock<PatternSet<()>> = OnceLock::new();
    SET.get_or_init(|| {
        let tagged: Vec<(&str, ())> = ID_CUES.iter().map(|c| (*c, ())).collect();
        PatternSet::compile(&tagged)
    })
}

/// Context-keyword recognizers for passwords and usernames: one automaton
/// pass finds every cue; matches replay in (keyword, position) order so
/// findings are inserted exactly as the legacy per-keyword loop did.
fn find_context_tokens(text: &str, out: &mut Vec<Finding>) {
    // `find_all` yields cues by increasing end, the order in which
    // `SecretSpans` resolves them in one forward pass; a stable sort by
    // keyword then gives the (keyword, position) order.
    let mut secrets = SecretSpans::new(text);
    let mut found: Vec<(usize, Finding)> = context_cue_set()
        .find_all(text)
        .filter_map(|m| {
            let (start, end) = secrets.after(m.end)?;
            Some((
                m.pattern,
                Finding {
                    kind: m.tag,
                    start,
                    end,
                    brand: None,
                },
            ))
        })
        .collect();
    found.sort_by_key(|&(pattern, _)| pattern);
    out.extend(found.into_iter().map(|(_, f)| f));
}

/// Locates the secret after a credential cue: the next token, delimited
/// by whitespace, `,` or `;`, with trailing `.`, `)`, `"` and `'` trimmed,
/// kept if at least 3 bytes long.
///
/// Chained cues (`pass:pass:pass:…`) share one long token, so scanning
/// afresh per cue would be quadratic. Each scan instead remembers the
/// range it proved, and a later cue that lands inside it reuses the
/// answer; for cue ends given in increasing order no byte is scanned
/// more than twice.
struct SecretSpans<'a> {
    text: &'a str,
    /// `[from, to)` is whitespace and `to` is not: a token starts at `to`.
    blank: (usize, usize),
    /// `[from, to)` holds no delimiter and `to` is one, or the end.
    word: (usize, usize),
    /// `(end, kept)`: `text[..end]` with its trailing `.`, `)`, `"` and
    /// `'` trimmed ends at `kept`.
    trim: (usize, usize),
}

impl<'a> SecretSpans<'a> {
    fn new(text: &'a str) -> Self {
        // Nothing proved yet: empty ranges, and no token ends at `MAX`.
        SecretSpans {
            text,
            blank: (1, 0),
            word: (1, 0),
            trim: (usize::MAX, 0),
        }
    }

    /// The `(start, end)` of the secret after a cue ending at `kw_end`.
    fn after(&mut self, kw_end: usize) -> Option<(usize, usize)> {
        let text = self.text;
        if !(self.blank.0..=self.blank.1).contains(&kw_end) {
            let rest = &text[kw_end..];
            self.blank = (kw_end, text.len() - rest.trim_start().len());
            #[cfg(test)]
            SECRET_SCANNED.with(|n| n.set(n.get() + self.blank.1 - kw_end));
        }
        let start = self.blank.1;
        if !(self.word.0..=self.word.1).contains(&start) {
            let len = text[start..]
                .find(|c: char| c.is_whitespace() || c == ',' || c == ';')
                .unwrap_or(text.len() - start);
            self.word = (start, start + len);
            #[cfg(test)]
            SECRET_SCANNED.with(|n| n.set(n.get() + len));
        }
        let raw_end = self.word.1;
        if self.trim.0 != raw_end {
            let kept = text[..raw_end].trim_end_matches(['.', ')', '"', '\'']);
            self.trim = (raw_end, kept.len());
            #[cfg(test)]
            SECRET_SCANNED.with(|n| n.set(n.get() + raw_end - kept.len()));
        }
        // Trimming the token alone stops at `trim.1`, or at its start.
        let end = self.trim.1.max(start);
        (end - start >= 3).then_some((start, end))
    }
}

/// The pre-`ets-scan` credential recognizer (lowercase text, rescan per
/// keyword), retained for the equivalence suite.
fn find_context_tokens_legacy(text: &str, out: &mut Vec<Finding>) {
    let lower = text.to_ascii_lowercase();
    for (kw, kind) in CONTEXT_KEYWORDS {
        let mut from = 0usize;
        while let Some(pos) = lower[from..].find(kw) {
            let kw_end = from + pos + kw.len();
            // The secret is the next non-space token.
            let rest = &text[kw_end..];
            let token_start_rel = rest.len() - rest.trim_start().len();
            let token_start = kw_end + token_start_rel;
            let token: &str = rest
                .trim_start()
                .split(|c: char| c.is_whitespace() || c == ',' || c == ';')
                .next()
                .unwrap_or("");
            let token = token.trim_end_matches(['.', ')', '"', '\'']);
            if !token.is_empty() && token.len() >= 3 {
                out.push(Finding {
                    kind,
                    start: token_start,
                    end: token_start + token.len(),
                    brand: None,
                });
            }
            from = kw_end;
        }
    }
}

/// ZIP codes, read off the maximal ASCII-alphanumeric tokens. A ZIP+4
/// (a 5-digit token, `-`, four digits, then a non-alphanumeric byte or
/// the end of the text) always counts. A bare 5-digit token counts only
/// with an address cue just before it: a two-capital state code ("PA
/// 15213") or the word "zip" within the preceding 8 chars.
///
/// The legacy recognizer emits every ZIP+4 before any bare ZIP; this one
/// interleaves them by position. Overlap resolution breaks ties only
/// between findings with the same start, and at one start the ZIP+4
/// still comes first, so the output is the same.
fn find_zips(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    for tok in TokenStream::alnum(text) {
        let (start, end) = (tok.start, tok.start + tok.text.len());
        if end - start != 5 || !tok.text.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let plus4 = bytes.get(end) == Some(&b'-')
            && bytes
                .get(end + 1..end + 5)
                .is_some_and(|d| d.iter().all(u8::is_ascii_digit))
            && !bytes.get(end + 5).is_some_and(u8::is_ascii_alphanumeric);
        if plus4 {
            out.push(Finding {
                kind: SensitiveKind::Zip,
                start,
                end: end + 5,
                brand: None,
            });
        }
        if has_zip_cue(text, start) {
            out.push(Finding {
                kind: SensitiveKind::Zip,
                start,
                end,
                brand: None,
            });
        }
    }
}

/// Whether the window before a 5-digit run at `start` holds a state
/// code or a "zip" cue. Folding the at most 10-byte window in place
/// costs less than a whole-text automaton pass.
fn has_zip_cue(text: &str, start: usize) -> bool {
    let prefix = text
        .get(start.saturating_sub(8)..start)
        .or_else(|| text.get(start.saturating_sub(9)..start))
        .or_else(|| text.get(start.saturating_sub(10)..start))
        .unwrap_or("");
    let state_cue = prefix
        .trim_end()
        .chars()
        .rev()
        .take(2)
        .all(|c| c.is_ascii_uppercase())
        && prefix.trim_end().len() >= 2;
    state_cue || contains_fold(prefix, "zip")
}

/// The original ZIP recognizer (tests every byte offset, allocates a
/// lowercase copy per candidate prefix), retained for the equivalence
/// suite.
fn find_zips_legacy(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    find_shape(text, "#####-####", SensitiveKind::Zip, out);
    if bytes.len() < 5 {
        return;
    }
    for start in 0..=bytes.len() - 5 {
        if !is_boundary(bytes, start) || !is_boundary(bytes, start + 5) {
            continue;
        }
        if !bytes[start..start + 5].iter().all(u8::is_ascii_digit) {
            continue;
        }
        let prefix = text
            .get(start.saturating_sub(8)..start)
            .or_else(|| text.get(start.saturating_sub(9)..start))
            .or_else(|| text.get(start.saturating_sub(10)..start))
            .unwrap_or("");
        let state_cue = prefix
            .trim_end()
            .chars()
            .rev()
            .take(2)
            .all(|c| c.is_ascii_uppercase())
            && prefix.trim_end().len() >= 2;
        let zip_cue = prefix.to_ascii_lowercase().contains("zip");
        if state_cue || zip_cue {
            out.push(Finding {
                kind: SensitiveKind::Zip,
                start,
                end: start + 5,
                brand: None,
            });
        }
    }
}

/// Broad identification numbers: digit runs of 6–12 near id-ish keywords
/// (account, member, case, id, no., #) — the paper notes this recognizer
/// is deliberately broad and correspondingly noisy.
fn find_id_numbers(text: &str, out: &mut Vec<Finding>) {
    // If no cue keyword occurs anywhere in the text, no prefix window can
    // contain one: one early automaton pass (early exit on first hit)
    // replaces the per-call lowercase allocation entirely.
    if !id_cue_set().any_match(text) {
        return;
    }
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() || !is_boundary(bytes, i) {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        let len = j - i;
        if (6..=12).contains(&len) && is_boundary(bytes, j) {
            // ASCII folding preserves byte offsets and char boundaries, so
            // windows into the raw text equal the legacy windows into the
            // lowercased copy; the case-folded automaton supplies the
            // case-insensitive `contains`.
            let prefix = text
                .get(i.saturating_sub(16)..i)
                .or_else(|| text.get(i.saturating_sub(17)..i))
                .or_else(|| text.get(i.saturating_sub(18)..i))
                .unwrap_or("");
            if id_cue_set().any_match(prefix) {
                out.push(Finding {
                    kind: SensitiveKind::IdNumber,
                    start: i,
                    end: j,
                    brand: None,
                });
            }
        }
        i = j;
    }
}

/// The pre-`ets-scan` id-number recognizer (lowercase the whole text,
/// nine `contains` probes per digit run), retained for the equivalence
/// suite and microbenches.
fn find_id_numbers_legacy(text: &str, out: &mut Vec<Finding>) {
    let lower = text.to_ascii_lowercase();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() || !is_boundary(bytes, i) {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        let len = j - i;
        if (6..=12).contains(&len) && is_boundary(bytes, j) {
            let prefix = lower
                .get(i.saturating_sub(16)..i)
                .or_else(|| lower.get(i.saturating_sub(17)..i))
                .or_else(|| lower.get(i.saturating_sub(18)..i))
                .unwrap_or("");
            let cue = ID_CUES.iter().any(|k| prefix.contains(k));
            if cue {
                out.push(Finding {
                    kind: SensitiveKind::IdNumber,
                    start: i,
                    end: j,
                    brand: None,
                });
            }
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn luhn_known_values() {
        // The paper's Figure 2 Amex number.
        let digits: Vec<u8> = "371385129301004".bytes().map(|b| b - b'0').collect();
        assert!(luhn_valid(&digits));
        // Classic test number.
        let visa: Vec<u8> = "4111111111111111".bytes().map(|b| b - b'0').collect();
        assert!(luhn_valid(&visa));
        let mut bad = visa.clone();
        bad[15] = (bad[15] + 1) % 10;
        assert!(!luhn_valid(&bad));
    }

    #[test]
    fn figure2_example_is_reproduced() {
        // The paper's running example: an Amex number and an expiry date.
        let input = "Amex 371385129301004 Exp 06/03\nBook us 3 rooms and make sure that we can have 2 beds in one of the rooms.";
        let r = scrub(input);
        assert!(r.has(SensitiveKind::CreditCard));
        assert!(r
            .text
            .contains("*_|R|_*americanexpress*000000000000000*_|R|_*"));
        assert!(r.has(SensitiveKind::Date), "Exp 06/03 is a ##/## date");
        // every digit zeroed
        assert!(r.text.contains("Book us 0 rooms"));
        assert!(r.text.contains("0 beds"));
        assert!(!r.text.contains("371385129301004"));
    }

    #[test]
    fn card_brands_classified() {
        let cases = [
            ("4111111111111111", CardBrand::Visa),
            ("5500005555555559", CardBrand::Mastercard),
            ("371385129301004", CardBrand::Amex),
            ("30569309025904", CardBrand::DinersClub),
            ("3530111333300000", CardBrand::Jcb),
            ("6011000990139424", CardBrand::Discover),
        ];
        for (num, brand) in cases {
            let r = scrub(&format!("card {num} ok"));
            let f = r
                .findings
                .iter()
                .find(|f| f.kind == SensitiveKind::CreditCard)
                .unwrap_or_else(|| panic!("{num} not detected"));
            assert_eq!(f.brand, Some(brand), "{num}");
        }
    }

    #[test]
    fn card_with_separators() {
        let r = scrub("pay with 4111 1111 1111 1111 please");
        assert!(r.has(SensitiveKind::CreditCard));
        assert!(!r.text.contains("1111"));
    }

    #[test]
    fn non_luhn_digit_runs_are_not_cards() {
        let r = scrub("tracking 4111111111111112 code");
        assert!(!r.has(SensitiveKind::CreditCard));
        // but digits are still zeroed
        assert!(r.text.contains("0000000000000000"));
    }

    #[test]
    fn ssn_and_ein() {
        let r = scrub("SSN 078-05-1120 and EIN 12-3456789.");
        assert!(r.has(SensitiveKind::Ssn));
        assert!(r.has(SensitiveKind::Ein));
        assert!(!r.text.contains("078-05-1120"));
    }

    #[test]
    fn ssn_requires_boundaries() {
        let r = scrub("id X078-05-11209 maybe");
        assert!(!r.has(SensitiveKind::Ssn));
    }

    #[test]
    fn phones_and_dates() {
        let r = scrub("call (412) 555-1234 before 12/25/2016 or 2016-12-25");
        assert!(r.has(SensitiveKind::Phone));
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.kind == SensitiveKind::Date)
                .count(),
            2
        );
    }

    #[test]
    fn vin_detection() {
        let r = scrub("my car vin 1HGCM82633A004352 got towed");
        assert!(r.has(SensitiveKind::Vin));
        // lowercase or I/O/Q sequences are not VINs
        let r2 = scrub("token 1hgcm82633a004352 here");
        assert!(!r2.has(SensitiveKind::Vin));
    }

    #[test]
    fn email_detection_and_removal() {
        let r = scrub("write to alice.liddell+work@example.co.uk.");
        assert!(r.has(SensitiveKind::Email));
        assert!(!r.text.contains("alice.liddell"));
        assert!(r.text.contains("*_|R|_*email*"));
    }

    #[test]
    fn password_and_username_context() {
        let r = scrub("Your username: jdoe42 and password: hunter2! ok");
        assert!(r.has(SensitiveKind::Username));
        assert!(r.has(SensitiveKind::Password));
        assert!(!r.text.contains("hunter2"));
        assert!(!r.text.contains("jdoe42"));
    }

    #[test]
    fn zip_needs_cue() {
        assert!(scrub("Pittsburgh, PA 15213").has(SensitiveKind::Zip));
        assert!(scrub("zip 15213").has(SensitiveKind::Zip));
        assert!(scrub("15213-1234 plus four").has(SensitiveKind::Zip));
        assert!(!scrub("order 15213 shipped").has(SensitiveKind::Zip));
    }

    #[test]
    fn id_numbers_are_broad() {
        assert!(scrub("account no. 88273641").has(SensitiveKind::IdNumber));
        assert!(scrub("Member ID 123456").has(SensitiveKind::IdNumber));
        assert!(!scrub("launched in 123456 units").has(SensitiveKind::IdNumber));
    }

    #[test]
    fn overlap_resolution_prefers_cards() {
        // A card number could also look like an id number near "account".
        let r = scrub("account 4111111111111111");
        assert!(r.has(SensitiveKind::CreditCard));
        assert!(!r.has(SensitiveKind::IdNumber));
    }

    #[test]
    fn clean_text_untouched_except_digits() {
        let r = scrub("hello world, nothing here");
        assert!(r.findings.is_empty());
        assert_eq!(r.text, "hello world, nothing here");
    }

    #[test]
    fn all_digits_zeroed_after_scrub() {
        let r = scrub("meeting at 3pm with 12 people, card 4111111111111111");
        assert!(r
            .text
            .chars()
            .filter(|c| c.is_ascii_digit())
            .all(|c| c == '0'));
    }

    #[test]
    fn empty_input() {
        let r = scrub("");
        assert!(r.findings.is_empty());
        assert_eq!(r.text, "");
    }

    /// Scrubs `text` as [`scrub`] does and returns the result with the
    /// candidate count, the overlap comparisons [`assemble`] made and the
    /// bytes the secret scans examined.
    fn scrub_counted(text: &str) -> (ScrubResult, usize, usize, usize) {
        OVERLAP_CHECKS.with(|n| n.set(0));
        SECRET_SCANNED.with(|n| n.set(0));
        let found = candidates(text);
        let n = found.len();
        let r = assemble(text, found);
        let checks = OVERLAP_CHECKS.with(|n| n.get());
        let scanned = SECRET_SCANNED.with(|n| n.get());
        (r, n, checks, scanned)
    }

    /// Pieces whose spans overlap across recognizers, and chained
    /// credential cues that share one long token.
    const DENSE: [&str; 14] = [
        "on 01/02",
        "12/25/2016-12-25",
        "(412) 555-1234-5678",
        "078-05-1120",
        "4111 1111 1111 1111",
        "PA 15213-1234",
        "zip 15213-123",
        "1HGCM82633A004352",
        "account 123456789",
        "pass:pass:hunter2",
        "login:...",
        "user id: bob)",
        "a@b.co",
        "12345ü",
    ];
    const SEPS: [&str; 5] = ["", " ", "-", "ü", ", "];

    proptest! {
        /// Overlap resolution makes at most one comparison per candidate
        /// and the secret scans examine each byte at most twice, on
        /// dense texts where the quadratic original compares each
        /// candidate with hundreds of accepted spans; the output still
        /// equals the legacy path's.
        #[test]
        fn scrub_work_is_linear_on_dense_text(
            picks in proptest::collection::vec(0..DENSE.len() * SEPS.len(), 1..64),
            target in 1024usize..16 * 1024,
        ) {
            let mut text = String::with_capacity(target + 32);
            for p in picks.iter().cycle() {
                if text.len() >= target {
                    break;
                }
                text.push_str(DENSE[p / SEPS.len()]);
                text.push_str(SEPS[p % SEPS.len()]);
            }
            let (r, candidates, checks, scanned) = scrub_counted(&text);
            prop_assert!(checks <= candidates, "{} checks for {} candidates", checks, candidates);
            prop_assert!(scanned <= 2 * text.len(), "{} bytes scanned of {}", scanned, text.len());
            prop_assert_eq!(r, scrub_legacy(&text));
        }
    }

    /// Builds a text of about the given size.
    type BuildText = fn(usize) -> String;

    /// Hostile texts of about `n` bytes: back-to-back dates (one
    /// candidate every 9 bytes, which the quadratic original took minutes
    /// over at 4 MiB), chained credential cues sharing one token, chained
    /// cues before one long run of trimmed dots, and ZIP+4 codes.
    const HOSTILE: [(&str, BuildText); 4] = [
        ("dates", |n| "on 01/02 ".repeat(n / 9)),
        ("chained cues", |n| "pass:".repeat(n / 5)),
        ("cues, dots", |n| {
            "pass:".repeat(n / 10) + &".".repeat(n / 2)
        }),
        ("zip+4", |n| "12345-6789 ".repeat(n / 11)),
    ];

    /// The work stays linear on [`HOSTILE`] texts at a small size, where
    /// the output also matches the legacy path, and at 4 MiB. The small
    /// size goes first so a quadratic regression fails fast instead of
    /// stalling.
    #[test]
    fn hostile_texts_cost_linear_work() {
        for (name, build) in HOSTILE {
            let legacy_len = if name.contains("cues") {
                8 << 10
            } else {
                64 << 10
            };
            for len in [legacy_len, 4 << 20] {
                let text = build(len);
                let (r, candidates, checks, scanned) = scrub_counted(&text);
                assert!(candidates >= len / 11, "{name}: {candidates}");
                assert!(
                    checks <= candidates,
                    "{name} x {len}: {checks} checks for {candidates} candidates"
                );
                assert!(
                    scanned <= 2 * text.len(),
                    "{name} x {len}: {scanned} bytes scanned"
                );
                if len == legacy_len {
                    assert_eq!(r, scrub_legacy(&text), "{name}");
                }
            }
        }
    }
}
