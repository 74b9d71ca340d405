//! `ets-scan` benchmarks: the compiled case-folding automaton against
//! the repeated `to_ascii_lowercase` + `str::contains` scan it replaces,
//! plus the two collector layers that moved onto it (spam scoring and
//! sensitive-info scrubbing, each with its retained legacy path). The
//! scrubbers run on 300 short bodies and on one 1 MiB text, so a cost
//! that grows faster than text size shows as a per-byte gap.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ets_collector::corpus::{self, SpamDataset};
use ets_collector::scrub;
use ets_collector::spamscore::SpamScorer;
use ets_scan::PatternSet;

/// A keyword list shaped like the spam-token table: mixed lengths, some
/// shared prefixes, all pre-lowercased.
const KEYWORDS: [&str; 12] = [
    "viagra",
    "free money",
    "click here",
    "act now",
    "winner",
    "lottery",
    "prince",
    "wire transfer",
    "unsubscribe",
    "limited time",
    "urgent",
    "password",
];

fn bodies(n: usize) -> Vec<String> {
    let mut emails = corpus::spam_dataset(SpamDataset::Trec, n / 2, 0xBEEF);
    emails.extend(corpus::enron_like(n - n / 2, 0.1, 0xFEED));
    emails.into_iter().map(|e| e.message.body).collect()
}

/// One text of at least `bytes` bytes: `enron_like` bodies concatenated,
/// so the per-byte scrub cost can be set against the 300-body case.
fn enron_text(bytes: usize) -> String {
    let mut text = String::with_capacity(bytes + 4096);
    let mut seed = 0xFEED;
    while text.len() < bytes {
        for e in corpus::enron_like(1024, 0.1, seed) {
            text.push_str(&e.message.body);
            text.push('\n');
        }
        seed += 1;
    }
    text
}

fn bench_find_all_vs_contains(c: &mut Criterion) {
    let texts = bodies(400);
    let tagged: Vec<(&str, usize)> = KEYWORDS.iter().copied().zip(0..).collect();
    let set = PatternSet::compile(&tagged);
    c.bench_function("scan_find_all/12-patterns", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for t in &texts {
                hits += set.find_all(black_box(t)).count();
            }
            black_box(hits)
        })
    });
    c.bench_function("scan_contains_loop/12-patterns", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for t in &texts {
                let lower = t.to_ascii_lowercase();
                for kw in KEYWORDS {
                    hits += lower.matches(kw).count();
                }
            }
            black_box(hits)
        })
    });
}

fn bench_spamscore(c: &mut Criterion) {
    let emails: Vec<ets_mail::Message> = {
        let mut emails = corpus::spam_dataset(SpamDataset::Trec, 200, 0xBEEF);
        emails.extend(corpus::enron_like(200, 0.1, 0xFEED));
        emails.into_iter().map(|e| e.message).collect()
    };
    let scorer = SpamScorer::new();
    c.bench_function("spamscore_scan/400-emails", |b| {
        b.iter(|| {
            let mut total = 0.0f64;
            for m in &emails {
                total += scorer.score(black_box(m)).score;
            }
            black_box(total)
        })
    });
    c.bench_function("spamscore_legacy/400-emails", |b| {
        b.iter(|| {
            let mut total = 0.0f64;
            for m in &emails {
                total += scorer.score_legacy(black_box(m)).score;
            }
            black_box(total)
        })
    });
}

fn bench_scrub(c: &mut Criterion) {
    let texts = bodies(300);
    c.bench_function("scrub_scan/300-bodies", |b| {
        b.iter(|| {
            let mut findings = 0usize;
            for t in &texts {
                findings += scrub::scrub(black_box(t)).findings.len();
            }
            black_box(findings)
        })
    });
    c.bench_function("scrub_legacy/300-bodies", |b| {
        b.iter(|| {
            let mut findings = 0usize;
            for t in &texts {
                findings += scrub::scrub_legacy(black_box(t)).findings.len();
            }
            black_box(findings)
        })
    });
    // The same kind of text as one 1 MiB body: a scrubber linear in text
    // size costs the same per byte here as on the 300 short bodies.
    let big = enron_text(1 << 20);
    c.bench_function("scrub_scan/enron-1mib", |b| {
        b.iter(|| black_box(scrub::scrub(black_box(&big)).findings.len()))
    });
    c.bench_function("scrub_legacy/enron-1mib", |b| {
        b.iter(|| black_box(scrub::scrub_legacy(black_box(&big)).findings.len()))
    });
}

criterion_group!(
    benches,
    bench_find_all_vs_contains,
    bench_spamscore,
    bench_scrub
);
criterion_main!(benches);
