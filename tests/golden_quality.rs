//! Golden-quality pins: exact outcomes at seed 1998 for the configurations
//! the `rtsads_sim` CLI runs by default (R=30%, SF=1, C=2000us, host
//! overhead 1us), at the paper's P=64 and at a sharded P=1024.
//!
//! The other suites check determinism and accounting invariants, which a
//! change can keep while scheduling worse. These pins fail as soon as the
//! number of hits, phases or search vertices moves, so a quality change has
//! to be deliberate and show up in the diff of this file.

use rtsads_repro::des::Duration;
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, RunReport};
use rtsads_repro::task::{CommModel, TopologySpec};
use rtsads_repro::workload::Scenario;

const SEED: u64 = 1_998;
const COMM_US: u64 = 2_000;

/// One run built exactly as `rtsads_sim --workers W --txns N [--nodes K]`
/// builds it with every other flag at its default.
fn run(algorithm: Algorithm, workers: usize, txns: usize, comm: CommModel) -> RunReport {
    let built = Scenario::paper_defaults()
        .workers(workers)
        .transactions(txns)
        .replication_rate(0.3)
        .sf(1.0)
        .build(SEED);
    let config = DriverConfig::new(workers, algorithm)
        .comm(comm)
        .host(HostParams::new(Duration::from_micros(1)))
        .seed(SEED);
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
