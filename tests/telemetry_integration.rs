//! Telemetry must be a pure observer: attaching every sink at once to a run
//! changes nothing about the simulation outcome, and the outputs themselves
//! are well-formed (parseable JSONL, quantile-bearing metrics, a Perfetto
//! trace with a scheduler track and one track per processor).

use rtsads_repro::des::Duration;
use rtsads_repro::platform::HostParams;
use rtsads_repro::sads::{Algorithm, Driver, DriverConfig, RunReport};
use rtsads_repro::task::CommModel;
use rtsads_repro::telemetry::{
    jsonl::parse_trace, JsonlTracer, MetricsCollector, MultiSink, PerfettoTracer,
    TimeSeriesRecorder, TraceEvent,
};
use rtsads_repro::workload::Scenario;

const WORKERS: usize = 4;
const SEED: u64 = 1_998;

fn driver() -> Driver {
    Driver::new(
        DriverConfig::new(WORKERS, Algorithm::rt_sads())
            .comm(CommModel::constant(Duration::from_millis(2)))
            .host(HostParams::new(Duration::from_micros(1)))
            .seed(SEED),
    )
}

fn workload() -> Vec<rtsads_repro::task::Task> {
    Scenario::paper_defaults()
        .workers(WORKERS)
        .transactions(150)
        .build(SEED)
        .tasks
}

fn assert_same_outcome(a: &RunReport, b: &RunReport) {
    assert_eq!(a.hits, b.hits, "hit count must not change under tracing");
    assert_eq!(a.total_tasks, b.total_tasks);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.executed_misses, b.executed_misses);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.phases.len(), b.phases.len());
    assert_eq!(a.worker_busy, b.worker_busy);
    assert!((a.hit_ratio() - b.hit_ratio()).abs() == 0.0);
}

#[test]
fn full_telemetry_changes_results_by_exactly_zero() {
    let untraced = driver().run(workload());

    let mut jsonl = JsonlTracer::new(Vec::new());
    let mut perfetto = PerfettoTracer::new();
    let mut collector = MetricsCollector::new();
    let traced = {
        let mut sink = MultiSink::new()
            .with(&mut collector)
            .with(&mut jsonl)
            .with(&mut perfetto);
        driver().run_traced(workload(), &mut sink)
    };

    assert_same_outcome(&untraced, &traced);

    // The trace stream must agree with the report it rode along with.
    let raw = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    let events = parse_trace(&raw).unwrap();
    let completed = events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::TaskCompleted { .. }))
        .count();
    let hits = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::TaskCompleted {
                    met_deadline: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(hits, traced.hits);
    assert_eq!(completed + traced.dropped, traced.total_tasks);

    // And the metrics with both of them.
    let registry = collector.registry();
    assert_eq!(registry.counter("task.completed"), completed as u64);
    assert_eq!(registry.counter("task.deadline_hits"), traced.hits as u64);
    assert_eq!(registry.counter("phase.count"), traced.phases.len() as u64);
    let lateness = registry
        .histogram("task.lateness_us")
        .expect("lateness recorded");
    assert!(lateness.p50().is_some() && lateness.p99().is_some());

    // The Perfetto export names the scheduler track and every processor.
    let mut out = Vec::new();
    perfetto.write_chrome_trace(&mut out, WORKERS).unwrap();
    let chrome = String::from_utf8(out).unwrap();
    assert!(chrome.contains("scheduler (host)"));
    for k in 0..WORKERS {
        assert!(
            chrome.contains(&format!("\"P{k}\"")),
            "missing processor track P{k}"
        );
    }
}

/// The pinned-seed acceptance check: the windowed CSV's per-window counts
/// sum bit-exactly to the run report's counters, and the Perfetto export
/// carries per-processor utilization counter tracks next to the spans.
#[test]
fn timeseries_csv_sums_bit_exactly_to_the_report() {
    let mut recorder = TimeSeriesRecorder::new(10_000);
    let mut perfetto = PerfettoTracer::new();
    let report = {
        let mut sink = MultiSink::new().with(&mut recorder).with(&mut perfetto);
        driver().run_traced(workload(), &mut sink)
    };
    let series = recorder.finish();

    // Sum the CSV rows themselves (not the in-memory windows) so the check
    // covers the export path end to end.
    let csv = series.to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("missing CSV column {name}"))
    };
    let (admitted_c, dropped_c) = (col("admitted"), col("dropped"));
    let (hits_c, misses_c, lost_c) = (col("hits"), col("misses"), col("lost"));
    let (phases_c, vertices_c) = (col("phases"), col("vertices"));
    let mut sums = vec![0u64; header.len()];
    for line in lines {
        for (i, field) in line.split(',').enumerate() {
            if let Ok(v) = field.parse::<u64>() {
                sums[i] += v;
            }
        }
    }
    assert_eq!(sums[admitted_c] as usize, report.total_tasks);
    assert_eq!(sums[hits_c] as usize, report.hits);
    assert_eq!(sums[misses_c] as usize, report.executed_misses);
    assert_eq!(sums[dropped_c] as usize, report.dropped);
    assert_eq!(sums[lost_c] as usize, report.lost_in_flight);
    assert_eq!(
        (sums[hits_c] + sums[misses_c] + sums[dropped_c] + sums[lost_c]) as usize,
        report.total_tasks,
        "CSV rows must sum to the report's four-way partition"
    );
    assert_eq!(sums[phases_c] as usize, report.phases.len());
    assert_eq!(sums[vertices_c], report.total_vertices());

    // Busy time per processor, split across windows, must reassemble into
    // the platform's own accounting to the microsecond.
    let totals = series.totals();
    for (k, busy) in report.worker_busy.iter().enumerate() {
        assert_eq!(
            totals.busy_us.get(k).copied().unwrap_or(0),
            busy.as_micros(),
            "worker {k} windowed busy time"
        );
    }

    // The same windows render as counter tracks in the Perfetto export.
    perfetto.set_counters(series);
    let mut out = Vec::new();
    perfetto.write_chrome_trace(&mut out, WORKERS).unwrap();
    let chrome = String::from_utf8(out).unwrap();
    assert!(chrome.contains("\"ph\":\"C\""), "no counter samples");
    for k in 0..WORKERS {
        assert!(
            chrome.contains(&format!("\"utilization P{k}\"")),
            "missing utilization counter track for P{k}"
        );
    }
    assert!(chrome.contains("\"queue depth\""));
    assert!(chrome.contains("\"deadline outcomes\""));
}

#[test]
fn traced_runs_are_reproducible_event_for_event() {
    let run = |_: u32| {
        let mut jsonl = JsonlTracer::new(Vec::new());
        let report = driver().run_traced(workload(), &mut jsonl);
        (
            report.hits,
            String::from_utf8(jsonl.finish().unwrap()).unwrap(),
        )
    };
    let (hits_a, trace_a) = run(0);
    let (hits_b, trace_b) = run(1);
    assert_eq!(hits_a, hits_b);
    assert_eq!(
        trace_a, trace_b,
        "same seed must yield a byte-identical trace"
    );

    // Events are emitted as each phase is processed, and completions can
    // outlast the phase that scheduled them, so the stream is only ordered
    // at phase granularity: phase boundaries must be monotone.
    let events = parse_trace(&trace_a).unwrap();
    assert!(!events.is_empty());
    let boundaries: Vec<_> = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::PhaseStarted { .. } | TraceEvent::PhaseEnded { .. }
            )
        })
        .map(|(t, _)| *t)
        .collect();
    assert!(boundaries.len() >= 2);
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "phase boundaries must be monotone in simulation time"
    );
}

/// A byte counter shared between a [`JsonlTracer`]'s writer and the sink
/// wrapping it.
#[derive(Clone, Default)]
struct ByteCounter(std::rc::Rc<std::cell::Cell<u64>>);

impl std::io::Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// JSONL trace sizes of one run: all bytes, and the `TaskScreened` lines'
/// bytes and count.
#[derive(Debug, Default)]
struct TraceSize {
    bytes: u64,
    screened_bytes: u64,
    screened: u64,
}

/// A [`JsonlTracer`] into a [`ByteCounter`] that attributes each
/// `TaskScreened` line's bytes.
struct SizedJsonl {
    jsonl: JsonlTracer<ByteCounter>,
    counter: ByteCounter,
    size: TraceSize,
}

impl rtsads_repro::telemetry::TraceSink for SizedJsonl {
    fn emit(&mut self, now: rtsads_repro::des::Time, event: TraceEvent) {
        let screened = matches!(event, TraceEvent::TaskScreened { .. });
        let before = self.counter.0.get();
        self.jsonl.emit(now, event);
        if screened {
            self.size.screened += 1;
            self.size.screened_bytes += self.counter.0.get() - before;
        }
    }
}

/// Runs seed 1998 with provenance on and returns (tasks, trace size).
fn traced_size(workers: usize, comm: CommModel) -> (usize, TraceSize) {
    let tasks = Scenario::paper_defaults()
        .workers(workers)
        .build(SEED)
        .tasks;
    let n = tasks.len();
    let counter = ByteCounter::default();
    let mut sink = SizedJsonl {
        jsonl: JsonlTracer::new(counter.clone()),
        counter: counter.clone(),
        size: TraceSize::default(),
    };
    let config = DriverConfig::new(workers, Algorithm::rt_sads())
        .comm(comm)
        .host(HostParams::new(Duration::from_micros(1)))
        .seed(SEED);
    let report = Driver::new(config).run_traced(tasks, &mut sink);
    assert_eq!(report.total_tasks, n);
    sink.jsonl.finish().unwrap();
    sink.size.bytes = counter.0.get();
    (n, sink.size)
}

/// The trace grows with decisions, not decisions × processors: each
/// screened task and each placement records one witness, so bytes per task
/// stay under a fixed bound and a `TaskScreened` line is as long at
/// P=1024 (16 nodes × 4 racks) as at P=64 (flat), up to the digits of
/// larger processor indices and times.
#[test]
fn trace_bytes_grow_with_decisions_not_processors() {
    const BYTES_PER_TASK_BOUND: u64 = 1024;
    let flat = traced_size(64, CommModel::constant(Duration::from_millis(2)));
    let topo = rtsads_repro::task::TopologySpec::new(1024, 16, 4, 0, 2_000, 4_000);
    let sharded = traced_size(1024, CommModel::hierarchical(topo));

    for (p, (n, size)) in [(64, &flat), (1024, &sharded)] {
        assert!(size.screened > 0, "P={p}: no task was screened: {size:?}");
        let per_task = size.bytes / *n as u64;
        assert!(
            per_task < BYTES_PER_TASK_BOUND,
            "P={p}: {per_task} trace bytes per task, bound {BYTES_PER_TASK_BOUND}: {size:?}"
        );
    }
    let mean = |s: &TraceSize| s.screened_bytes as f64 / s.screened as f64;
    let (at_64, at_1024) = (mean(&flat.1), mean(&sharded.1));
    assert!(
        at_1024 <= 1.5 * at_64,
        "mean TaskScreened line: {at_1024:.0} B at P=1024 vs {at_64:.0} B at P=64"
    );
}
