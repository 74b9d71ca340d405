//! Contended counter recording: the sharded thread-local atomics behind
//! [`ets_obs::metrics::counter_add`] against a single `Mutex<BTreeMap>`
//! (the recorder design they replaced), each hammered by 8 threads with
//! 200 000 updates apiece. Both sides assert that no update was lost, so
//! the comparison cannot silently diverge.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::sync::Mutex;

const THREADS: u64 = 8;
const OPS: u64 = 200_000;
const NAMES: [&str; 4] = [
    "bench.obs.contention.a",
    "bench.obs.contention.b",
    "bench.obs.contention.c",
    "bench.obs.contention.d",
];

/// One storm against a fresh global mutex map; returns its total.
fn mutex_storm() -> u64 {
    let map: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..OPS {
                    *map.lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .entry(NAMES[(i % 4) as usize].to_owned())
                        .or_insert(0) += 1;
                }
            });
        }
    });
    let total = map.lock().unwrap_or_else(|p| p.into_inner()).values().sum();
    total
}

/// Sum of the storm counters in the process-global registry.
fn sharded_total() -> u64 {
    NAMES
        .iter()
        .map(|n| ets_obs::metrics::counter_value(n))
        .sum()
}

/// One storm against the sharded registry; returns the counters' growth.
fn sharded_storm() -> u64 {
    let before = sharded_total();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..OPS {
                    ets_obs::metrics::counter_add(NAMES[(i % 4) as usize], 1);
                }
                ets_obs::metrics::retire_local();
            });
        }
    });
    sharded_total() - before
}

fn bench_counter_contention(c: &mut Criterion) {
    c.bench_function("obs_counter_sharded/8x200k", |b| {
        b.iter(|| {
            let total = sharded_storm();
            assert_eq!(total, THREADS * OPS, "sharded recorder lost updates");
            black_box(total)
        })
    });
    c.bench_function("obs_counter_mutex/8x200k", |b| {
        b.iter(|| {
            let total = mutex_storm();
            assert_eq!(total, THREADS * OPS, "mutex recorder lost updates");
            black_box(total)
        })
    });
}

criterion_group!(benches, bench_counter_contention);
criterion_main!(benches);
