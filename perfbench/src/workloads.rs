//! The four benchmark workloads: their inputs and driver configurations.
//!
//! Every run is RT-SADS with a vertex cost of 1 µs and C = 2000 µs, the
//! command-line defaults. Why each workload exists is recorded in
//! `perfbench/README.md`.

use rtsads_repro::des::{Duration, Time};
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, DriverConfig, FaultConfig};
use rtsads_repro::task::{CommModel, TopologySpec};
use rtsads_repro::workload::{ArrivalProcess, Scenario};

/// Inter-node (and flat) communication cost `C`, in microseconds.
pub const COMM_US: u64 = 2_000;
/// The host's cost of evaluating one search vertex, in microseconds.
pub const VERTEX_COST_US: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's set-up: P = 64, 1000 transactions in one burst.
    BurstFlat64,
    /// 3000 bursty transactions on 1024 processors, 16 nodes × 4 racks.
    BurstSharded1024,
    /// 20 000 Poisson arrivals on P = 64 under processor faults and spikes.
    StreamFaults64,
    /// `BurstFlat64`'s inputs run with the trace, metrics and report sinks.
    Observed64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BurstFlat64,
        Workload::BurstSharded1024,
        Workload::StreamFaults64,
        Workload::Observed64,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstFlat64 => "burst_flat_64",
            Workload::BurstSharded1024 => "burst_sharded_1024",
            Workload::StreamFaults64 => "stream_faults_64",
            Workload::Observed64 => "observed_64",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scenario instances one run of the workload covers. A single
    /// instance's run time and hit ratio depend on its seed; a run over
    /// several instances represents the workload rather than one draw.
    pub fn instances(self) -> usize {
        match self {
            Workload::BurstFlat64 => 16,
            Workload::BurstSharded1024 | Workload::StreamFaults64 | Workload::Observed64 => 1,
        }
    }

    /// The seed of instance `i` of a run seeded with `seed`; instance 0 uses
    /// `seed` itself, as the command-line simulator would.
    pub fn instance_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_add(i as u64 * 1_000_003)
    }

    /// The parameter sheet the inputs are built from.
    pub fn scenario(self) -> Scenario {
        let flat = Scenario::paper_defaults().workers(64);
        match self {
            Workload::BurstFlat64 | Workload::Observed64 => flat,
            Workload::BurstSharded1024 => flat.workers(1024).transactions(3_000),
            Workload::StreamFaults64 => {
                flat.transactions(20_000).arrivals(ArrivalProcess::Poisson {
                    start: Time::ZERO,
                    mean_gap: Duration::from_micros(75),
                })
            }
        }
    }

    /// The driver configuration for a run with `seed`.
    pub fn config(self, seed: u64) -> DriverConfig {
        let workers = self.scenario().workers;
        let comm = match self {
            Workload::BurstSharded1024 => CommModel::hierarchical(TopologySpec::new(
                workers as u32,
                16,
                4,
                0,
                COMM_US,
                2 * COMM_US,
            )),
            _ => CommModel::constant(Duration::from_micros(COMM_US)),
        };
        let config = DriverConfig::new(workers, Algorithm::rt_sads())
            .comm(comm)
            .host(HostParams::new(Duration::from_micros(VERTEX_COST_US)))
            .seed(seed);
        match self {
            Workload::StreamFaults64 => config.faults(
                FaultConfig::fail_recover(1.0, Duration::from_millis(50)).spikes(
                    2.0,
                    Duration::from_millis(20),
                    Duration::from_millis(1),
                    0.05,
                ),
            ),
            _ => config,
        }
    }

    /// Whether the paper's theorem applies: no processor faults, so no
    /// scheduled task may miss its deadline.
    pub fn fault_free(self) -> bool {
        self != Workload::StreamFaults64
    }

    /// Whether the timed runs carry the observation sinks.
    pub fn observed(self) -> bool {
        self == Workload::Observed64
    }
}
