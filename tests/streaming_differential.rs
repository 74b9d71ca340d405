//! Streaming-vs-batch differential suite.
//!
//! The streaming pipeline (`ets_collector::stream`) claims byte-identical
//! output to the batch collect-then-classify oracle at any thread count,
//! any channel depth, and any epoch grouping — plus bounded in-flight
//! payload memory. This suite holds each claim against the oracle:
//!
//! * full email + verdict equality across a thread {1, 2, 8} × channel
//!   depth {1, 1024} sweep, at test scale and on the corpus of
//!   `repro --fast` (whose streamed results the `--fast` goldens pin);
//! * a proptest that absorbs the corpus in arbitrary epoch groupings and
//!   demands the verdicts never move;
//! * a peak-memory assertion: with a discarding sink, the in-flight
//!   payload bound stays far below the materialized corpus size.
//!
//! Thread count, channel depth, and the mem gauge are process-global, so
//! every test serializes on one file-local lock and restores defaults.

use ets_collector::funnel::{Funnel, FunnelVerdict};
use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::stream::{stream_collect, StreamFunnel};
use ets_collector::traffic::{GenEmail, TrafficConfig, TrafficGenerator};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that touch the process-global thread count, channel
/// depth, or mem gauge.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Restores the global knobs this suite turns.
fn restore_defaults() {
    ets_parallel::set_threads(0);
    ets_parallel::set_stream_depth(0);
}

/// A batch run of the generator and funnel: the infrastructure, every
/// collected email, and the funnel's verdicts.
type Oracle = (CollectionInfra, Vec<CollectedEmail>, Vec<FunnelVerdict>);

/// Collects the whole corpus of `config`, then classifies it.
fn batch_run(config: TrafficConfig) -> Oracle {
    let infra = CollectionInfra::build();
    let collected: Vec<CollectedEmail> = TrafficGenerator::new(&infra, config)
        .generate()
        .into_iter()
        .map(|e| e.collected)
        .collect();
    let verdicts = Funnel::new(&infra).classify_all(&collected);
    (infra, collected, verdicts)
}

/// The shared oracle: one batch run at test scale. Built once — the
/// corpus and verdicts are deterministic, so every test compares against
/// the same baseline.
fn oracle() -> &'static Oracle {
    static ORACLE: OnceLock<Oracle> = OnceLock::new();
    ORACLE.get_or_init(|| batch_run(TrafficConfig::test_scale(77)))
}

/// The collection config of `repro --fast`: its default seed at spam
/// scale 1/20 000, which is the test scale.
fn repro_fast() -> TrafficConfig {
    TrafficConfig::test_scale(2016_0604)
}

#[test]
fn stream_equals_batch_across_threads_and_depths() {
    let _g = lock();
    let fast = batch_run(repro_fast());
    for (config, (infra, batch_emails, batch_verdicts)) in [
        (TrafficConfig::test_scale(77), oracle()),
        (repro_fast(), &fast),
    ] {
        let seed = config.seed;
        for threads in [1usize, 2, 8] {
            for depth in [1usize, 1024] {
                ets_parallel::set_threads(threads);
                ets_parallel::set_stream_depth(depth);
                let gen = TrafficGenerator::new(infra, config.clone());
                let funnel = Funnel::new(infra);
                let mut streamed: Vec<CollectedEmail> = Vec::new();
                let mut sink = |e: GenEmail| streamed.push(e.collected);
                let state = stream_collect(&gen, &funnel, &mut sink);
                let verdicts = state.finish();
                assert_eq!(
                    &streamed, batch_emails,
                    "emails diverged at seed={seed} threads={threads} depth={depth}"
                );
                assert_eq!(
                    &verdicts, batch_verdicts,
                    "verdicts diverged at seed={seed} threads={threads} depth={depth}"
                );
            }
        }
    }
    restore_defaults();
}

#[test]
fn in_flight_memory_stays_bounded() {
    let _g = lock();
    let (infra, batch_emails, _) = oracle();
    let corpus_bytes: u64 = batch_emails.iter().map(|e| e.approx_heap_bytes()).sum();
    assert!(corpus_bytes > 0);
    ets_parallel::set_threads(2);
    ets_parallel::set_stream_depth(1);
    ets_obs::mem::reset();
    let gen = TrafficGenerator::new(infra, TrafficConfig::test_scale(77));
    let funnel = Funnel::new(infra);
    // Discarding sink: nothing downstream retains the emails, so the mem
    // gauge sees only what the pipeline itself keeps in flight.
    let mut sink = |_e: GenEmail| {};
    let state = stream_collect(&gen, &funnel, &mut sink);
    assert_eq!(state.emails(), batch_emails.len());
    let peak = ets_obs::mem::peak();
    assert!(peak > 0, "workers never registered payload bytes");
    assert!(
        peak < corpus_bytes / 4,
        "peak in-flight {peak} not bounded vs corpus {corpus_bytes}"
    );
    assert_eq!(ets_obs::mem::live(), 0, "commit leaked payload bytes");
    restore_defaults();
}

proptest! {
    /// Absorbing the corpus in any epoch grouping — single emails, uneven
    /// chunks, one big batch — yields the oracle's verdicts exactly: the
    /// funnel's cross-email state is a pure commutative merge.
    #[test]
    fn epoch_grouping_never_changes_verdicts(
        raw_cuts in proptest::collection::vec(0..2000usize, 0..12),
    ) {
        let _g = lock();
        restore_defaults();
        let (infra, batch_emails, batch_verdicts) = oracle();
        let funnel = Funnel::new(infra);
        let n = batch_emails.len();
        let mut cuts = raw_cuts;
        cuts.iter_mut().for_each(|c| *c %= n + 1);
        cuts.sort_unstable();
        cuts.dedup();
        let mut state = StreamFunnel::new(&funnel);
        let mut prev = 0usize;
        for cut in cuts.into_iter().chain(std::iter::once(n)) {
            if cut > prev {
                state.absorb(funnel.feature_batch(batch_emails[prev..cut].iter()));
                prev = cut;
            }
        }
        prop_assert_eq!(state.emails(), n);
        prop_assert_eq!(&state.finish(), batch_verdicts);
    }
}
