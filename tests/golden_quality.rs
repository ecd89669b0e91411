//! Golden-quality pins: exact outcomes at seed 1998 for the configurations
//! the `rtsads_sim` CLI runs by default (R=30%, SF=1, C=2000us, host
//! overhead 1us), at the paper's P=64 and at a sharded P=1024, for the
//! search schedulers and the one-pass baselines, plus the fault-injected
//! stream the `stream_faults_64` benchmark workload runs.
//!
//! The other suites check determinism and accounting invariants, which a
//! change can keep while scheduling worse. These pins fail as soon as the
//! number of hits, phases or search vertices moves, so a quality change has
//! to be deliberate and show up in the diff of this file.

use rtsads_repro::des::{Duration, Time};
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, FaultConfig, RunReport};
use rtsads_repro::task::{CommModel, TopologySpec};
use rtsads_repro::workload::{ArrivalProcess, Scenario};

const SEED: u64 = 1_998;
const COMM_US: u64 = 2_000;

/// One run built exactly as `rtsads_sim --workers W --txns N [--nodes K]`
/// builds it with every other flag at its default.
fn run(algorithm: Algorithm, workers: usize, txns: usize, comm: CommModel) -> RunReport {
    run_seeded(algorithm, workers, txns, comm, SEED)
}

/// [`run`] with `--seed`.
fn run_seeded(
    algorithm: Algorithm,
    workers: usize,
    txns: usize,
    comm: CommModel,
    seed: u64,
) -> RunReport {
    let built = Scenario::paper_defaults()
        .workers(workers)
        .transactions(txns)
        .replication_rate(0.3)
        .sf(1.0)
        .build(seed);
    let config = DriverConfig::new(workers, algorithm)
        .comm(comm)
        .host(HostParams::new(Duration::from_micros(1)))
        .seed(seed);
    Driver::new(config).run(built.tasks)
}

fn flat() -> CommModel {
    CommModel::constant(Duration::from_micros(COMM_US))
}

/// `(hits, phases, vertices)` plus the invariants every pinned run must keep.
fn outcome(report: &RunReport) -> (usize, usize, u64) {
    assert_eq!(report.executed_misses, 0, "theorem broken");
    assert!(report.is_consistent(), "report partition broken");
    (report.hits, report.phases.len(), report.total_vertices())
}

#[test]
fn rt_sads_flat_64_is_pinned() {
    let report = run(Algorithm::rt_sads(), 64, 1_000, flat());
    assert_eq!(outcome(&report), (99, 27, 90_026));
}

#[test]
fn d_cols_flat_64_is_pinned() {
    let report = run(Algorithm::d_cols(), 64, 1_000, flat());
    assert_eq!(outcome(&report), (22, 25, 2_311));
}

#[test]
fn rt_sads_sharded_1024_is_pinned() {
    // `--nodes 16` with one rack and the default inter-rack cost of 2C.
    let comm = CommModel::hierarchical(TopologySpec::new(1_024, 16, 1, 0, COMM_US, 2 * COMM_US));
    let report = run(Algorithm::rt_sads(), 1_024, 3_000, comm);
    assert_eq!(outcome(&report), (716, 4, 90_003));
}

#[test]
fn greedy_flat_64_is_pinned() {
    let report = run(Algorithm::GreedyEdf, 64, 1_000, flat());
    assert_eq!(outcome(&report), (267, 24, 99_697));
}

#[test]
fn myopic_flat_64_is_pinned() {
    let report = run(Algorithm::myopic(), 64, 1_000, flat());
    assert_eq!(outcome(&report), (64, 21, 100_002));
}

/// The `stream_faults_64` benchmark workload's inputs: 20 000 Poisson
/// arrivals (mean gap 75us) on P=64 under fail-recover processor faults and
/// message-delay spikes. Faults can strand scheduled work, so the theorem
/// is not guaranteed; the executed misses are pinned with the rest.
#[test]
fn rt_sads_stream_faults_64_is_pinned() {
    let built = Scenario::paper_defaults()
        .workers(64)
        .transactions(20_000)
        .arrivals(ArrivalProcess::Poisson {
            start: Time::ZERO,
            mean_gap: Duration::from_micros(75),
        })
        .build(SEED);
    let faults = FaultConfig::fail_recover(1.0, Duration::from_millis(50)).spikes(
        2.0,
        Duration::from_millis(20),
        Duration::from_millis(1),
        0.05,
    );
    let config = DriverConfig::new(64, Algorithm::rt_sads())
        .comm(flat())
        .host(HostParams::new(Duration::from_micros(1)))
        .seed(SEED)
        .faults(faults);
    let report = Driver::new(config).run(built.tasks);
    assert!(report.is_consistent(), "report partition broken");
    let got = (
        report.hits,
        report.phases.len(),
        report.total_vertices(),
        report.executed_misses,
    );
    assert_eq!(got, (9_563, 26_203, 626_188, 0));
}

/// `rtsads_sim --workers 256 --nodes 4 --txns 1000` gives 274 hits at every
/// seed tried. The count is set by the machine, not by the draw, and this
/// test pins why, at seeds 1, 2, 3 and 99 (EXPERIMENTS.md, "The 274-hit
/// plateau"):
///
/// - The burst mixes cheap indexed transactions (p of tens to hundreds of
///   microseconds) with full scans (p = 10 ms). Deadlines are proportional,
///   d = 10p, so the scans' deadline is 100 ms.
/// - While cheap tasks remain, `Min_Slack` keeps each quantum at a few
///   hundred microseconds. At 1us per vertex, and with each expansion
///   generating the fanout's 2 nodes x 64 processors = 128 children, a
///   phase reaches depth 2 or 3: 18 hits over all the short phases.
/// - Once only scans remain, `Min_Slack = 9p - t_s` hands the next phase
///   their whole slack, so it ends at t = 90 ms with every processor free
///   from then on. A scan finishes exactly at its deadline only at zero
///   communication cost, and a second one on the same processor would end
///   at 110 ms. So that phase places exactly one scan per processor: P.
///   The scans still in the batch afterwards all expire.
#[test]
fn sharded_256_plateau_is_one_scan_per_processor() {
    const WORKERS: usize = 256;
    const SCAN: Duration = Duration::from_millis(10);
    for seed in [1, 2, 3, 99] {
        let comm = CommModel::hierarchical(TopologySpec::new(
            WORKERS as u32,
            4,
            1,
            0,
            COMM_US,
            2 * COMM_US,
        ));
        let report = run_seeded(Algorithm::rt_sads(), WORKERS, 1_000, comm, seed);
        assert_eq!(report.executed_misses, 0, "seed {seed}: theorem broken");
        assert!(report.is_consistent(), "seed {seed}");
        assert_eq!(report.hits, 274, "seed {seed}");

        let (long, short): (Vec<_>, Vec<_>) = report.phases.iter().partition(|p| p.scheduled > 3);
        assert_eq!(long.len(), 1, "seed {seed}: one long phase");
        let long = long[0];
        assert_eq!(long.scheduled, WORKERS, "seed {seed}");
        assert_eq!(long.processors_used, WORKERS, "seed {seed}");
        let delivered = long.started + long.quantum;
        assert_eq!(delivered, Time::from_millis(90), "seed {seed}");
        assert_eq!(
            long.quantum,
            Duration::from_millis(90)
                .saturating_sub(Duration::from_micros(long.started.as_micros())),
            "seed {seed}: the quantum is the scans' slack 9p - t_s"
        );
        let short_hits: usize = short.iter().map(|p| p.scheduled).sum();
        assert_eq!(short_hits, 18, "seed {seed}");
        for p in &short {
            if p.started < long.started {
                // Cheap tasks have at most 2 ms of slack, and each level
                // of depth costs one 128-child expansion of the quantum.
                assert!(p.quantum < Duration::from_millis(2), "seed {seed}: {p:?}");
                assert!(
                    p.scheduled as u64 <= p.vertices / 128 + 1,
                    "seed {seed}: {p:?}"
                );
            } else {
                // After 90 ms no scan left in the batch can finish by 100 ms.
                assert_eq!(p.scheduled, 0, "seed {seed}: {p:?}");
            }
        }

        // The long phase's tasks are scans finishing exactly at their
        // deadline, one per processor, with no communication cost.
        let scans: Vec<_> = report
            .completions
            .iter()
            .filter(|c| c.delivered == delivered)
            .collect();
        assert_eq!(scans.len(), WORKERS, "seed {seed}");
        let mut procs: Vec<_> = scans.iter().map(|c| c.processor).collect();
        procs.sort();
        procs.dedup();
        assert_eq!(procs.len(), WORKERS, "seed {seed}: one scan per processor");
        for c in scans {
            assert_eq!(c.service, SCAN, "seed {seed}: {c:?}");
            assert_eq!(c.start, delivered, "seed {seed}: {c:?}");
            assert_eq!(c.completion, c.deadline, "seed {seed}: {c:?}");
            assert_eq!(c.deadline, Time::from_millis(100), "seed {seed}: {c:?}");
        }
    }
}
