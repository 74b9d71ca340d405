//! Equivalence properties for the `ets-scan` automaton and the collector
//! layers that moved onto it: the compiled case-folding pattern matcher
//! must agree exactly with a byte-level naive scan on arbitrary inputs,
//! and the spam scorer and sensitive-info scrubber must return outputs
//! byte-identical with their retained legacy paths — including on
//! case-folding and overlapping-pattern edge cases.

use ets_collector::scrub;
use ets_collector::spamscore::SpamScorer;
use ets_mail::Message;
use ets_scan::{contains_fold, PatternSet, TokenStream};
use proptest::prelude::*;

/// Patterns: short mixed-case strings over the bytes the rule tables
/// use, including punctuation cues and repeated letters (so shared
/// prefixes, nested patterns, and self-overlaps all occur).
fn pattern() -> impl Strategy<Value = String> {
    "[a-cA-C!$:# ]{1,5}"
}

/// Haystacks: longer texts over a wider alphabet, with digits, newlines
/// and multi-byte characters mixed in.
fn haystack() -> impl Strategy<Value = String> {
    "[a-cA-C0-9!$:# .,;\nü€]{0,60}"
}

/// The reference matcher: fold both sides with `to_ascii_lowercase`
/// semantics and compare byte windows. Returns `(pattern, start, end)`
/// triples in the automaton's documented order — increasing end, and at
/// equal end longest pattern first, then compile order.
fn naive_matches(patterns: &[String], text: &str) -> Vec<(usize, usize, usize)> {
    let fold = |s: &str| {
        s.bytes()
            .map(|b| b.to_ascii_lowercase())
            .collect::<Vec<u8>>()
    };
    let hay = fold(text);
    let mut out: Vec<(usize, usize, usize)> = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let needle = fold(p);
        if needle.len() > hay.len() {
            continue;
        }
        for start in 0..=hay.len() - needle.len() {
            if hay[start..start + needle.len()] == needle[..] {
                out.push((pi, start, start + needle.len()));
            }
        }
    }
    out.sort_by(|a, b| {
        (a.2, std::cmp::Reverse(a.2 - a.1), a.0).cmp(&(b.2, std::cmp::Reverse(b.2 - b.1), b.0))
    });
    out
}

proptest! {
    /// `find_all` emits exactly the naive scan's matches — same pattern
    /// indices, same byte offsets, same order.
    #[test]
    fn find_all_matches_naive_scan(
        patterns in proptest::collection::vec(pattern(), 1..6),
        text in haystack(),
    ) {
        let tagged: Vec<(&str, usize)> =
            patterns.iter().map(String::as_str).zip(0..).collect();
        let set = PatternSet::compile(&tagged);
        let got: Vec<(usize, usize, usize)> =
            set.find_all(&text).map(|m| (m.pattern, m.start, m.end)).collect();
        prop_assert_eq!(got, naive_matches(&patterns, &text));
    }

    /// `any_match` agrees with the lowercase-and-`contains` probe it
    /// replaces, for every pattern in the set.
    #[test]
    fn any_match_matches_contains(
        patterns in proptest::collection::vec(pattern(), 1..6),
        text in haystack(),
    ) {
        let tagged: Vec<(&str, usize)> =
            patterns.iter().map(String::as_str).zip(0..).collect();
        let set = PatternSet::compile(&tagged);
        let lower = text.to_ascii_lowercase();
        let reference = patterns
            .iter()
            .any(|p| lower.contains(&p.to_ascii_lowercase()));
        prop_assert_eq!(set.any_match(&text), reference);
    }

    /// `weighted_score` equals the legacy shape — sum the weight of each
    /// distinct pattern that occurs anywhere, in table order — bitwise.
    #[test]
    fn weighted_score_matches_contains_sum(
        patterns in proptest::collection::vec(pattern(), 1..6),
        a in haystack(),
        b in haystack(),
    ) {
        let tagged: Vec<(&str, f64)> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_str(), i as f64 * 0.7 + 0.3))
            .collect();
        let set = PatternSet::compile(&tagged);
        let (la, lb) = (a.to_ascii_lowercase(), b.to_ascii_lowercase());
        let mut reference = 0.0f64;
        let mut hits = 0usize;
        for (p, w) in &tagged {
            let q = p.to_ascii_lowercase();
            if la.contains(&q) || lb.contains(&q) {
                reference += w;
                hits += 1;
            }
        }
        let got = set.weighted_score(&[&a, &b]);
        prop_assert_eq!(got.0.to_bits(), reference.to_bits());
        prop_assert_eq!(got.1, hits);
    }

    /// `contains_fold` equals allocate-lowercase-then-contains.
    #[test]
    fn contains_fold_matches_lowercase_contains(
        needle in "[a-c!$: ]{1,4}",
        text in haystack(),
    ) {
        prop_assert_eq!(
            contains_fold(&text, &needle),
            text.to_ascii_lowercase().contains(&needle)
        );
    }

    /// The zero-copy tokenizer equals the char-predicate split it
    /// replaced in the funnel's bag-of-words.
    #[test]
    fn token_stream_matches_split(text in haystack()) {
        let via_stream: Vec<&str> = TokenStream::alnum(&text).map(|t| t.text).collect();
        let via_split: Vec<&str> = text
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
            .collect();
        prop_assert_eq!(via_stream, via_split);
    }
}

/// Subject/body fragments that steer generated emails through every rule
/// body: spam tokens (nested and overlapping), cue punctuation, URLs,
/// credential keywords, digit runs with and without id cues.
const FRAGMENTS: [&str; 18] = [
    "FREE money now",
    "click here!! urgent!!",
    "Viagra viagra VIAGRA",
    "$$$ winner $$$",
    "http://a.example http://b.example https://c.example",
    "re: re: your order",
    "password: hunter42",
    "user name: alice77.",
    "account 12345678 please",
    "ref #9876543 attached",
    "PA 15213",
    "zip 90210",
    "no. 123456",
    "call 412-268-3000 on 06/03/2021",
    "<b><i><u>html</u></i></b> <p>heavy</p> <br> <hr> <div>x</div>",
    "wire transfer to the prince, act now",
    "plain business text with nothing special",
    "usd 500 urgent",
];

fn scan_corpus(picks: &[usize]) -> String {
    let mut text = String::new();
    for &p in picks {
        text.push_str(FRAGMENTS[p]);
        text.push(' ');
    }
    text
}

proptest! {
    /// The single-pass spam scorer returns the same fired-rule list and a
    /// bitwise-identical score as the legacy lowercase-and-rescan scorer,
    /// on arbitrary fragment mixes in subject and body.
    #[test]
    fn spam_scorer_matches_legacy(
        subj_picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..3),
        body_picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..8),
        reply in proptest::collection::vec(0..2usize, 1..2),
    ) {
        let mut m = Message::new();
        m.headers.append("Subject", scan_corpus(&subj_picks).trim_end());
        if reply[0] == 1 {
            m.headers.append("In-Reply-To", "<x@y>");
        }
        m.body = scan_corpus(&body_picks);
        let scorer = SpamScorer::new();
        let new = scorer.score(&m);
        let legacy = scorer.score_legacy(&m);
        prop_assert_eq!(new.score.to_bits(), legacy.score.to_bits());
        prop_assert_eq!(new.rules, legacy.rules);
    }

    /// The automaton-cued scrubber produces byte-identical output —
    /// same sanitized text, same findings in the same order — as the
    /// legacy scrubber, on arbitrary fragment mixes.
    #[test]
    fn scrub_matches_legacy(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..8),
        filler in haystack(),
    ) {
        let mut text = scan_corpus(&picks);
        text.push_str(&filler);
        let new = scrub::scrub(&text);
        let legacy = scrub::scrub_legacy(&text);
        prop_assert_eq!(new.text, legacy.text);
        prop_assert_eq!(new.findings, legacy.findings);
    }
}

/// Pieces of identifier-dense text, in the regex subset the string
/// strategy samples: VIN-alphabet tokens around the 17-byte VIN length
/// (and 17-byte ones holding I, O or Q), 5-digit runs against letters,
/// signs and multibyte chars, ZIP+4 near misses, spans that overlap
/// across recognizers (dates, phones, SSNs, ZIPs, id numbers, Luhn-valid
/// and random cards), mixed-case state and zip cues, chained credential
/// cues and emails.
const DENSE_PIECES: [&str; 30] = [
    "[A-HJ-NPR-Z0-9]{16,18}",
    "[A-HJ-NPR-Z0-9]{8}[IOQ][A-HJ-NPR-Z0-9]{8}",
    "1HGCM82633A004352",
    "[a-zA-Z+ü-]{0,1}[0-9]{5}[a-zA-Z+ü-]{0,1}",
    "[0-9]{5}-[0-9]{4}[a-zA-Z0-9]",
    "[0-9]{5}-[0-9]{3}",
    "[0-9]{5}-[0-9]{4}",
    "[0-9]{1,4}[/.-][0-9]{1,4}[/.-][0-9]{2,4}",
    "on [0-9]{2}/[0-9]{2}",
    "\\([0-9]{3}\\) {0,1}[0-9]{3}-[0-9]{4}",
    "[0-9]{3}[.-][0-9]{3}[.-][0-9]{4}",
    "\\+[0-9][ .][0-9]{3} {0,1}[0-9]{3} {0,1}[0-9]{4}",
    "4[0-9]{3}[ -]{0,1}[0-9]{4}[ -]{0,1}[0-9]{4}[ -]{0,1}[0-9]{4}",
    "4111 1111 1111 1111",
    "371385129301004",
    "078-05-1120",
    "12-3456789",
    "[aA]ccount [0-9]{5,13}",
    "Member ID [0-9]{6,12}",
    "[nN]o[.:] {0,1}[0-9]{6}",
    "#[0-9]{6,12}",
    "[A-Za-z]{2} {0,2}[0-9]{5}",
    "[A-Z]{2} [0-9]{5}-[0-9]{4}",
    "[zZ][iI][pP]:{0,1} {0,1}[0-9]{5}",
    "[pP]ass:pass:[a-z.)'\"]{0,8}",
    "PWD: {0,2}[a-z]{0,5}",
    "[pP]assword is [a-z]{3,6}",
    "username:[ ]{0,3}[a-z.]{0,8}",
    "login: user id: [a-z]{2,6}",
    "[a-z.]{1,3}@[a-z]{1,3}.[a-z]{2,3}.{0,1}",
];

/// Identifier-dense texts of `min..=max` bytes: random pieces from
/// [`DENSE_PIECES`], each followed by a short random separator.
struct DenseText {
    min: usize,
    max: usize,
}

impl Strategy for DenseText {
    type Value = String;

    fn sample(&self, rng: &mut proptest::TestRng) -> String {
        let target = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
        let mut text = String::with_capacity(target + 64);
        while text.len() < target {
            let piece = DENSE_PIECES[rng.below(DENSE_PIECES.len() as u64) as usize];
            text.push_str(&piece.sample(rng));
            text.push_str(&"[ ,;\n.ü-]{0,2}".sample(rng));
        }
        text
    }
}

proptest! {
    /// On large, identifier-dense texts (1–64 KiB) the linear scrubber
    /// returns the legacy scrubber's text and findings exactly: the
    /// token-based VIN and ZIP recognizers, the one-pass credential
    /// spans, the one-comparison overlap resolution and the run-copying
    /// zeroing all agree with the per-offset, rescanning, quadratic and
    /// char-wise originals.
    #[test]
    fn scrub_matches_legacy_on_dense_text(text in DenseText { min: 1024, max: 64 * 1024 }) {
        let new = scrub::scrub(&text);
        let legacy = scrub::scrub_legacy(&text);
        prop_assert_eq!(new.text, legacy.text);
        prop_assert_eq!(new.findings, legacy.findings);
    }
}

/// Hand-picked case-folding and overlap edges for the scrub paths:
/// mixed-case cues, cues split across candidate windows, overlapping
/// recognizer spans.
#[test]
fn scrub_edge_cases_match_legacy() {
    let cases = [
        "",
        "PASSWORD: SECRET99 and USER NAME: BOB77",
        "Password is swordfish; username is neo.",
        "ZIP 15213 PA 15213-3890",
        "ACCOUNT 123456789012 Ref #123456",
        "pass:x pass:abc pwd:12 passwd:longersecret",
        "no.123456 no:654321 number 111111 id 222222",
        "password: password: nested",
        "zipzip 12345 zip 12345",
        "AA 11111 aa 11111",
        "übermember 9999999",
        // VIN-alphabet tokens of 16, 17 and 18 bytes; I, O and Q are
        // outside the alphabet.
        "1HGCM82633A00435 1HGCM82633A004352 1HGCM82633A0043521",
        "1HGCM82633I004352 1HGCM82633O004352 1HGCM82633Q004352",
        "x1HGCM82633A004352 1HGCM82633A004352-ü1HGCM82633A004352ü",
        // 5-digit runs against letters, signs and multibyte chars.
        "PA ü12345 PA 12345ü PA a12345 PA 12345b PA -12345 PA +12345-",
        "zip 12345-6789x zip 12345-6789 zip 12345-678 zip 12345-67890",
        "12345-6789ü 12345-6789-1234 012345-6789 PA 12345-6789",
        // Spans that overlap across recognizers.
        "on 01/02/2016-12-25 (412) 555-1234-5678 078-05-1120-12",
        "ZIP 15213-1234 ACCOUNT 4111 1111 1111 1111 no. 12-3456789",
        "Zip: 90210 zIP 90210 pa 90210 Pa 90210 MEMBER 1234567890123",
        // Chained credential cues share one long token.
        "pass:pass:pass:hunter2 pwd:pwd:.... login:\u{a0}\u{a0}bob;x",
        "password:password is swordfish)). username:'neo'",
    ];
    for text in cases {
        let new = scrub::scrub(text);
        let legacy = scrub::scrub_legacy(text);
        assert_eq!(new.text, legacy.text, "text for {text:?}");
        assert_eq!(new.findings, legacy.findings, "findings for {text:?}");
    }
}

/// Overlapping and nested patterns resolve identically to the naive scan
/// — the classic "ushers" family plus self-overlapping cues.
#[test]
fn overlapping_pattern_edges() {
    let patterns = ["he", "she", "his", "hers", "ushers", "$$", "$$$"];
    let tagged: Vec<(&str, usize)> = patterns.iter().copied().zip(0..).collect();
    let set = PatternSet::compile(&tagged);
    for text in ["ushers", "USHERS say she", "$$$$", "$$$$$", "hehehe"] {
        let got: Vec<(usize, usize, usize)> = set
            .find_all(text)
            .map(|m| (m.pattern, m.start, m.end))
            .collect();
        let patterns_owned: Vec<String> = patterns.iter().map(|s| s.to_string()).collect();
        assert_eq!(got, naive_matches(&patterns_owned, text), "text {text:?}");
    }
}
