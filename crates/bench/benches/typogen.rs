//! Typo-generation benchmarks: DL-1 candidate enumeration for single
//! targets and target lists — the §5.1 workload ("we generated all
//! possible DL-1 variations of Alexa's top one million").

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ets_core::typogen::{self, TypoTable};
use ets_core::{distance, DomainName};

fn bench_single_target(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_dl1");
    for name in ["gmail.com", "outlook.com", "10minutemail.com"] {
        let target: DomainName = name.parse().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &target, |b, t| {
            b.iter(|| black_box(typogen::generate_dl1(black_box(t))))
        });
    }
    group.finish();
}

fn bench_ff1_subset(c: &mut Criterion) {
    let target: DomainName = "outlook.com".parse().unwrap();
    c.bench_function("generate_ff1/outlook.com", |b| {
        b.iter(|| black_box(typogen::generate_ff1(black_box(&target))))
    });
}

fn bench_target_list(c: &mut Criterion) {
    let targets: Vec<DomainName> = ets_core::alexa::synthetic_top(50)
        .iter()
        .map(|e| e.domain.clone())
        .collect();
    c.bench_function("generate_for_targets/top-50", |b| {
        b.iter(|| black_box(typogen::generate_for_targets(black_box(&targets))))
    });
}

fn bench_legacy_vs_table(c: &mut Criterion) {
    // The pre-optimization string generator against the byte-level
    // table engine and its scorer, same target, same scored output.
    let target: DomainName = "outlook.com".parse().unwrap();
    c.bench_function("generate_dl1_legacy/outlook.com", |b| {
        b.iter(|| black_box(typogen::generate_dl1_legacy(black_box(&target))))
    });
    c.bench_function("typo_table_generate/outlook.com", |b| {
        b.iter(|| black_box(scores(&TypoTable::generate(black_box(&target)))))
    });
}

/// FNV-1a over the bit patterns of a run of scores.
fn bits_digest(scores: impl Iterator<Item = f64>) -> u64 {
    scores.fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every visual score of `table`, in order, through its scorer.
fn scores(table: &TypoTable) -> Vec<f64> {
    let mut scorer = table.scorer();
    (0..table.len()).map(|i| scorer.visual(i)).collect()
}

fn bench_top_1k(c: &mut Criterion) {
    // The default-scale world's target list, table by table. The
    // banded, prefix-reusing scores must equal the full visual DP's bit
    // for bit before anything is timed. `typo_table_enumerate` times
    // `TypoTable::generate` alone; `typo_table_generate` also scores
    // every candidate, which `World::build` does only for the few whose
    // registration roll can depend on the score.
    let targets: Vec<DomainName> = ets_core::alexa::synthetic_top(1000)
        .iter()
        .map(|e| e.domain.clone())
        .collect();
    let tables: Vec<TypoTable> = targets.iter().map(TypoTable::generate).collect();
    let banded = bits_digest(tables.iter().flat_map(scores));
    let full = bits_digest(
        tables
            .iter()
            .flat_map(|t| (0..t.len()).map(move |i| distance::visual(t.target().sld(), t.sld(i)))),
    );
    assert_eq!(banded, full, "visual scores differ from the full DP");
    drop(tables);
    c.bench_function("typo_table_generate/top-1k", |b| {
        b.iter(|| {
            for t in &targets {
                black_box(scores(&TypoTable::generate(black_box(t))));
            }
        })
    });
    c.bench_function("typo_table_enumerate/top-1k", |b| {
        b.iter(|| {
            for t in &targets {
                black_box(TypoTable::generate(black_box(t)));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_single_target,
    bench_ff1_subset,
    bench_target_list,
    bench_legacy_vs_table,
    bench_top_1k
);
criterion_main!(benches);
