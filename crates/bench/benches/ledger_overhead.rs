//! Microbenchmark of the decision-provenance path: a plain `Driver::run`
//! vs a run with the full [`DecisionLedger`] attached (which also switches
//! on provenance collection in the search), vs a disabled tracer.
//!
//! Provenance is gated on `tracer.enabled()` end to end — the search only
//! materializes screening witnesses and placement runner-ups when asked —
//! so with no sink attached the ledger machinery must be free. Mirrors
//! `trace_overhead`: two Criterion series plus a loud assertion that the
//! disabled path stays within noise of the plain run.

use bench_support::{bench_driver, bench_workload};
use criterion::{criterion_group, criterion_main, Criterion};
use paragon_des::trace::Tracer;
use rt_telemetry::DecisionLedger;
use rtsads::{Algorithm, Driver};
use std::hint::black_box;
use std::time::Instant;

const WORKERS: usize = 8;
const SEED: u64 = 42;

fn ledger_overhead(c: &mut Criterion) {
    let built = bench_workload(WORKERS, 0.3, SEED);
    let driver = Driver::new(bench_driver(WORKERS, Algorithm::rt_sads()).seed(SEED));

    let mut group = c.benchmark_group("ledger_overhead");
    group.bench_function("plain_run", |b| {
        b.iter(|| black_box(driver.run(built.tasks.clone()).hits));
    });
    group.bench_function("ledger_attached_run", |b| {
        b.iter(|| {
            let mut ledger = DecisionLedger::new();
            black_box(driver.run_traced(built.tasks.clone(), &mut ledger).hits)
        });
    });
    group.finish();

    // Assertion pass: the *disabled* provenance path must be free. (The
    // attached ledger is allowed to cost — it materializes evidence — but
    // a run with no sink must not pay for the machinery existing.)
    const ROUNDS: u32 = 20;
    let time = |traced: bool| {
        let started = Instant::now();
        for _ in 0..ROUNDS {
            let tasks = built.tasks.clone();
            let hits = if traced {
                driver.run_traced(tasks, &mut Tracer::disabled()).hits
            } else {
                driver.run(tasks).hits
            };
            black_box(hits);
        }
        started.elapsed().as_secs_f64()
    };
    let plain = time(false);
    let disabled = time(true);
    let ratio = disabled / plain;
    println!("disabled-ledger / plain run time ratio: {ratio:.3}");
    assert!(
        ratio < 1.5,
        "provenance collection must be free when no sink is attached \
         (plain {plain:.4}s, disabled {disabled:.4}s, ratio {ratio:.3})"
    );

    // Sanity: the attached ledger actually recorded the run.
    let mut ledger = DecisionLedger::new();
    let report = driver.run_traced(built.tasks.clone(), &mut ledger);
    assert_eq!(ledger.len(), report.total_tasks);
    assert!(ledger.counts().is_partition_of(report.total_tasks));
}

criterion_group!(benches, ledger_overhead);
criterion_main!(benches);
