//! `perfbench` — whole-run benchmark of the RT-SADS reproduction.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR]
//! ```
//!
//! One process measures one workload on one thread. A workload is a set of
//! scenario instances seeded from `--seed`. The process builds each
//! instance with `Scenario::build` and runs it once to warm up and to fix
//! its reference outcome. It then times whole untraced runs over every
//! instance for `--seconds`, with timed builds (the set-up samples) between
//! them, and checks every run's output. With `--trace 1` it adds one traced
//! pass: the driver's overhead measurement and stage profiler are switched
//! on, and every sink is wrapped in a timer, which splits the run by layer
//! from outside the program. `perfbench/README.md` defines every metric.
//!
//! Comment lines (`# ...`) give the manifest and a readable table of every
//! metric measured; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`.

mod check;
mod sinks;
mod workloads;

use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtsads_repro::explain::ReportFile;
use rtsads_repro::sads::{Driver, RunReport};
use rtsads_repro::task::Task;
use rtsads_repro::telemetry::manifest::RunManifest;
use rtsads_repro::telemetry::{DecisionLedger, JsonlTracer, MetricsCollector};

use check::Fingerprint;
use serde_json::Value;
use sinks::{ns_since, CountingWriter, Observers, Optional, Tap, Timed};
use workloads::{Workload, COMM_US, VERTEX_COST_US};

/// Timed runs per process at the least, however long they take.
const MIN_RUNS: usize = 20;
/// The percentile of run time `tasks_per_s` divides by, and of build time
/// `setup_s` reports. See the README for why it is not the median.
const HOST_PERCENTILE: f64 = 95.0;
/// The share of the timed runs' wall time spent again on timed set-up
/// builds between the runs.
const SETUP_SHARE: f64 = 0.1;
/// Failed-check messages printed per process at the most.
const MAX_REPORTED_PROBLEMS: usize = 5;

const USAGE: &str = "usage: perfbench --workload burst_flat_64|burst_sharded_1024|\
                     stream_faults_64|observed_64 [--seed N] [--seconds S] \
                     [--trace 0|1] [--scratch DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1_998;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scratch = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--scratch" => scratch = Some(PathBuf::from(value("--scratch")?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let scratch = match scratch {
        Some(dir) => dir,
        // Beside the executable, which lives in the build directory.
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate the executable: {e}"))?
            .with_file_name("perfbench-scratch"),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scratch,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Pass/fail tally over every run the process made.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    printed: usize,
}

impl Tally {
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if problems.is_empty() {
            return;
        }
        self.failed += 1;
        for p in problems {
            if self.printed < MAX_REPORTED_PROBLEMS {
                eprintln!("check failed on run {}: {p}", self.attempted);
                self.printed += 1;
            }
        }
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What an untraced run of `observed_64` leaves to check.
struct ObservedRun {
    trace_lines: u64,
    ledger: rtsads_repro::telemetry::AttributionCounts,
}

/// Runs the workload once without the benchmark's tracing and returns the
/// report and the wall nanoseconds of the run. For `observed_64` the run
/// carries the observation sinks and includes writing their outputs.
fn untraced_run(
    workload: Workload,
    driver: &Driver,
    tasks: Vec<Task>,
    scratch: &Path,
) -> io::Result<(RunReport, u64, Option<ObservedRun>)> {
    if !workload.observed() {
        let t0 = Instant::now();
        let report = black_box(driver.run(black_box(tasks)));
        return Ok((report, ns_since(t0), None));
    }
    let t0 = Instant::now();
    let file = File::create(scratch.join("trace.jsonl"))?;
    let mut sinks = Observers {
        jsonl: JsonlTracer::new(BufWriter::new(file)),
        metrics: MetricsCollector::new(),
        ledger: DecisionLedger::new(),
    };
    let report = driver.run_traced(tasks, &mut sinks);
    let trace_lines = sinks.jsonl.lines();
    sinks.jsonl.finish()?;
    write_metrics(&sinks.metrics, &scratch.join("metrics.json"))?;
    let ledger = sinks.ledger.counts();
    write_report(&report, sinks.ledger, &scratch.join("report.json"))?;
    let wall = ns_since(t0);
    Ok((
        report,
        wall,
        Some(ObservedRun {
            trace_lines,
            ledger,
        }),
    ))
}

fn write_metrics(collector: &MetricsCollector, path: &Path) -> io::Result<()> {
    fs::write(path, collector.registry().to_json() + "\n")
}

/// Writes the `--report-out` file and returns its size in bytes.
fn write_report(report: &RunReport, ledger: DecisionLedger, path: &Path) -> io::Result<usize> {
    let json = ReportFile::new(report.clone(), ledger).to_json() + "\n";
    fs::write(path, &json)?;
    Ok(json.len())
}

/// One scenario instance of the workload, built and ready to run.
struct Instance {
    seed: u64,
    tasks: Vec<Task>,
    driver: Driver,
    /// The warm-up run's report; every later run must repeat its
    /// fingerprint.
    reference: RunReport,
    fingerprint: Fingerprint,
}

/// Checks one untraced run of an instance.
fn check_run(
    workload: Workload,
    report: &RunReport,
    fingerprint: &Fingerprint,
    observed: Option<ObservedRun>,
    scratch: &Path,
) -> Vec<String> {
    let mut problems = check::report(workload, report, fingerprint);
    if let Some(obs) = observed {
        problems.extend(check::ledger(report, &obs.ledger));
        problems.extend(check::trace_round_trip(
            &scratch.join("trace.jsonl"),
            obs.trace_lines,
        ));
    }
    problems
}

/// Builds every instance and runs each once to warm up and fix its
/// reference outcome.
fn set_up(args: &Args, tally: &mut Tally) -> io::Result<Vec<Instance>> {
    let workload = args.workload;
    let scenario = workload.scenario();
    let mut instances = Vec::with_capacity(workload.instances());
    for i in 0..workload.instances() {
        let seed = Workload::instance_seed(args.seed, i);
        let built = scenario.build(seed);
        let driver = Driver::new(workload.config(seed));
        let (reference, _, observed) =
            untraced_run(workload, &driver, built.tasks.clone(), &args.scratch)?;
        let fingerprint = Fingerprint::of(&reference);
        tally.record(check_run(
            workload,
            &reference,
            &fingerprint,
            observed,
            &args.scratch,
        ));
        instances.push(Instance {
            seed,
            tasks: built.tasks,
            driver,
            reference,
            fingerprint,
        });
    }
    Ok(instances)
}

/// Times whole runs over every instance until `--seconds` have passed,
/// checking each. Returns each run's wall nanoseconds and the set-up
/// samples: timed `Scenario::build` calls after every run, cycling through
/// the instances, at least one per run and in all about `SETUP_SHARE` of
/// the run time, so that the samples spread over the same window as the
/// runs.
fn measure_untraced(
    args: &Args,
    instances: &[Instance],
    tally: &mut Tally,
) -> io::Result<(Vec<u64>, Vec<u64>)> {
    let workload = args.workload;
    let scenario = workload.scenario();
    let mut run_ns = Vec::new();
    let mut build_ns = Vec::new();
    let (mut run_total, mut build_total) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while run_ns.len() < MIN_RUNS || Instant::now() < deadline {
        let mut wall = 0;
        for inst in instances {
            let (report, ns, observed) =
                untraced_run(workload, &inst.driver, inst.tasks.clone(), &args.scratch)?;
            wall += ns;
            tally.record(check_run(
                workload,
                &report,
                &inst.fingerprint,
                observed,
                &args.scratch,
            ));
        }
        run_ns.push(wall);
        run_total += wall;
        // The first build after a run pays for the run's aftermath: an
        // `observed_64` run frees a 10 MB report, and the next build takes
        // twice as long. That is not set-up cost, so it is left untimed.
        black_box(scenario.build(black_box(instances[0].seed)));
        loop {
            let seed = instances[build_ns.len() % instances.len()].seed;
            let t0 = Instant::now();
            black_box(scenario.build(black_box(seed)));
            let ns = ns_since(t0);
            build_ns.push(ns);
            build_total += ns;
            if build_total as f64 >= SETUP_SHARE * run_total as f64 {
                break;
            }
        }
    }
    Ok((run_ns, build_ns))
}

/// The traced pass's raw measurements, summed over the instances.
#[derive(Default)]
struct Traced {
    /// Wall nanoseconds of the whole pass: runs, sink outputs and reports.
    total_ns: u64,
    /// Wall nanoseconds inside the sinks: the fan-out during the run plus
    /// flushing the trace and writing the metrics file.
    sink_ns: u64,
    /// Wall nanoseconds writing the report file.
    report_ns: u64,
    report_bytes: usize,
    trace_bytes: u64,
    screened_bytes: u64,
    events: u64,
    phase_ns: Vec<u64>,
    stage_ns: std::collections::BTreeMap<&'static str, u64>,
    jsonl_ns: u64,
    metrics_ns: u64,
    ledger_ns: u64,
}

/// One traced run of an instance with the overhead measurement, the stage
/// profiler and the observation sinks on, each sink wrapped in a timer.
/// Adds its measurements to `traced`.
///
/// `observed_64` gets its full sink set: the JSONL trace written to a
/// file, the metrics collector, the decision ledger and the report file.
/// The other workloads get the JSONL tracer writing into a byte counter
/// and the metrics collector: their full provenance (O(P) screen probes per
/// task) would run to gigabytes on disk and in the ledger.
fn traced_run(
    args: &Args,
    inst: &Instance,
    traced: &mut Traced,
    tally: &mut Tally,
) -> io::Result<()> {
    let workload = args.workload;
    let full = workload.observed();
    let driver = Driver::new(
        workload
            .config(inst.seed)
            .measure_overhead(true)
            .profile(true),
    );
    let trace_path = args.scratch.join("traced.jsonl");
    let out: Box<dyn Write> = if full {
        Box::new(BufWriter::new(File::create(&trace_path)?))
    } else {
        Box::new(io::sink())
    };
    let (writer, trace_bytes) = CountingWriter::new(out);
    let observers = Observers {
        jsonl: Timed::new(JsonlTracer::new(writer)),
        metrics: Timed::new(MetricsCollector::new()),
        ledger: Timed::new(Optional(full.then(DecisionLedger::new))),
    };
    let mut tap = Tap::new(observers, trace_bytes.clone());
    let tasks = inst.tasks.clone();

    let t0 = Instant::now();
    let report = driver.run_traced(tasks, &mut tap);
    let run_ns = ns_since(t0);
    let t1 = Instant::now();
    let Tap {
        inner: observers,
        events,
        screened_bytes,
        sink_ns,
        phase_ns,
        stage_ns,
        ..
    } = tap;
    traced.jsonl_ns += observers.jsonl.ns;
    traced.metrics_ns += observers.metrics.ns;
    let trace_lines = observers.jsonl.inner.lines();
    observers.jsonl.inner.finish()?;
    if full {
        write_metrics(
            &observers.metrics.inner,
            &args.scratch.join("traced-metrics.json"),
        )?;
    }
    let finish_ns = ns_since(t1);

    // Observing a run must not change it.
    let mut problems = check::report(workload, &report, &inst.fingerprint);
    let mut report_ns = 0;
    if let Some(ledger) = observers.ledger.inner.0 {
        traced.ledger_ns += observers.ledger.ns;
        problems.extend(check::ledger(&report, &ledger.counts()));
        let t2 = Instant::now();
        traced.report_bytes +=
            write_report(&report, ledger, &args.scratch.join("traced-report.json"))?;
        report_ns = ns_since(t2);
        problems.extend(check::trace_round_trip(&trace_path, trace_lines));
    }
    tally.record(problems);

    traced.total_ns += run_ns + finish_ns + report_ns;
    traced.sink_ns += sink_ns + finish_ns;
    traced.report_ns += report_ns;
    traced.trace_bytes += trace_bytes.get();
    traced.screened_bytes += screened_bytes;
    traced.events += events;
    traced.phase_ns.extend(phase_ns);
    for (stage, ns) in stage_ns {
        *traced.stage_ns.entry(stage).or_default() += ns;
    }
    Ok(())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` of `values`.
fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of `values` with at least ten values beyond it:
/// the eleventh-largest value and its percentile rank. With fewer than
/// eleven values, the largest.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = n.saturating_sub(10).max(1);
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The manifest every output carries, so numbers from different hosts or
/// builds are never compared.
fn manifest(args: &Args, runs: usize, tail_pct: f64, samples: &[(&str, usize)]) -> RunManifest {
    let unknown = || "unknown".to_string();
    let host = fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| unknown(), |h| h.trim().to_string());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workload = args.workload;
    let mut m = RunManifest::new("RT-SADS", args.seed, workload.scenario().workers)
        .calibration(VERTEX_COST_US, Some(COMM_US));
    let dirty = m.git_describe.as_ref().map(|d| d.ends_with("-dirty"));
    m = m
        .with("dirty", dirty.map_or_else(unknown, |d| d.to_string()))
        .with("host", host)
        .with("cpu", cpu)
        .with("nproc", nproc.to_string())
        .with("rustc", rustc.unwrap_or_else(unknown))
        .with("workload", workload.name())
        .with("instances", workload.instances().to_string())
        .with("seconds", args.seconds.to_string())
        .with("trace", u8::from(args.trace).to_string())
        .with("threads", "1")
        .with("runs", runs.to_string())
        .with("tail_percentile", tail_pct.to_string());
    for (name, n) in samples {
        m = m.with(format!("samples.{name}"), n.to_string());
    }
    m
}

fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Search stages whose share of search time is reported, read from the
/// profiler by name so that a stage the engine no longer has reads 0.
const STAGES: [&str; 7] = ["screen", "fill", "cost", "shard", "apply", "undo", "select"];

/// The per-layer metrics: counts from the instances' untraced reference
/// reports, times from the traced pass.
fn per_layer(
    instances: &[Instance],
    build_ms: f64,
    run_p95_ns: f64,
    traced: &Traced,
    tally: &Tally,
) -> Vec<Metric> {
    let reports: Vec<&RunReport> = instances.iter().map(|i| &i.reference).collect();
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let mean = |f: &dyn Fn(&RunReport) -> f64| sum(f) / reports.len() as f64;
    let tasks = sum(&|r| r.total_tasks as f64);
    let phases = sum(&|r| r.phases.len() as f64);
    let vertices = sum(&|r| r.total_vertices() as f64);
    let scheduled = sum(&|r| r.phases.iter().map(|p| p.scheduled as f64).sum());
    let quantum = sum(&|r| r.phases.iter().map(|p| p.quantum.as_micros() as f64).sum());
    let consumed = sum(&|r| r.phases.iter().map(|p| p.consumed.as_micros() as f64).sum());

    let total = traced.total_ns as f64;
    let search = traced.phase_ns.iter().sum::<u64>() as f64;
    let sink = traced.sink_ns as f64;
    let report = traced.report_ns as f64;
    let events = traced.events as f64;
    let phase_us: Vec<f64> = traced.phase_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let (p50, p99) = if phase_us.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&phase_us, 50.0), percentile(&phase_us, 99.0))
    };

    let mut m = vec![
        metric("workload.build_ms", build_ms, "ms"),
        metric("workload.tasks", tasks, "count"),
        metric("search.vertices", vertices, "count"),
        metric(
            "search.backtracks",
            sum(&|r| r.total_backtracks() as f64),
            "count",
        ),
        metric("search.undos", sum(&|r| r.total_undos() as f64), "count"),
        metric("search.vertices_per_s", frac(vertices, search / 1e9), "1/s"),
        metric("search.phase_us_p50", p50, "us"),
        metric("search.phase_us_p99", p99, "us"),
        metric("search.busy_frac", frac(search, total), "fraction"),
        metric(
            "search.scheduled_per_kvertex",
            frac(scheduled, vertices / 1e3),
            "1/kvertex",
        ),
        metric(
            "search.dead_end_frac",
            frac(sum(&|r| r.dead_end_phases() as f64), phases),
            "fraction",
        ),
    ];
    let mut listed = 0;
    for stage in STAGES {
        let ns = traced.stage_ns.get(stage).copied().unwrap_or(0);
        listed += ns;
        m.push(metric(
            format!("search.stage.{stage}_frac"),
            frac(ns as f64, search),
            "fraction",
        ));
    }
    m.extend([
        // Search time no listed stage covers.
        metric(
            "search.stage.other_frac",
            frac(search - listed as f64, search),
            "fraction",
        ),
        metric("core.phases", phases, "count"),
        metric("core.dropped", sum(&|r| r.dropped as f64), "count"),
        metric(
            "core.expired_mid_phase",
            sum(&|r| r.total_expired_mid_phase() as f64),
            "count",
        ),
        metric(
            "core.quantum_used_frac",
            frac(consumed, quantum),
            "fraction",
        ),
        metric(
            "core.self_frac",
            frac(total - search - sink - report, total),
            "fraction",
        ),
        metric(
            "platform.util_mean",
            mean(&|r| r.utilization_summary().map_or(0.0, |(_, mean, _)| mean)),
            "fraction",
        ),
        metric(
            "platform.imbalance",
            mean(&|r| r.load_imbalance().unwrap_or(0.0)),
            "ratio",
        ),
        metric(
            "platform.faults_seen",
            sum(&|r| r.faults_seen as f64),
            "count",
        ),
        metric("platform.orphaned", sum(&|r| r.orphaned as f64), "count"),
        metric(
            "platform.lost_in_flight",
            sum(&|r| r.lost_in_flight as f64),
            "count",
        ),
        metric("telemetry.events", events, "count"),
        metric("telemetry.events_per_task", events / tasks, "1/task"),
        metric(
            "telemetry.trace_bytes_per_task",
            traced.trace_bytes as f64 / tasks,
            "B/task",
        ),
        metric(
            "telemetry.screened_bytes_frac",
            frac(traced.screened_bytes as f64, traced.trace_bytes as f64),
            "fraction",
        ),
        metric(
            "telemetry.jsonl.ns_per_event",
            frac(traced.jsonl_ns as f64, events),
            "ns",
        ),
        metric(
            "telemetry.metrics.ns_per_event",
            frac(traced.metrics_ns as f64, events),
            "ns",
        ),
        metric(
            "telemetry.ledger.ns_per_event",
            frac(traced.ledger_ns as f64, events),
            "ns",
        ),
        metric("telemetry.sink_frac", frac(sink, total), "fraction"),
        metric("trace.overhead_ratio", frac(total, run_p95_ns), "ratio"),
        metric("explain.report_ms", report / 1e6, "ms"),
        metric("explain.report_bytes", traced.report_bytes as f64, "B"),
        metric("explain.report_frac", frac(report, total), "fraction"),
        metric("error_rate", tally.error_rate(), "fraction"),
    ]);
    m
}

fn run(args: &Args) -> Result<(), String> {
    fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let io_err = |e: io::Error| format!("i/o error in {}: {e}", args.scratch.display());
    let workload = args.workload;

    let mut tally = Tally::default();
    let instances = set_up(args, &mut tally).map_err(io_err)?;
    let (run_ns, build_ns) = measure_untraced(args, &instances, &mut tally).map_err(io_err)?;
    let run_ms: Vec<f64> = run_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let runs = run_ms.len();
    let run_p95_ms = percentile(&run_ms, HOST_PERCENTILE);
    let (tail_ms, tail_pct) = tail(&run_ms);
    let build_ms: Vec<f64> = build_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let build_p95_ms = percentile(&build_ms, HOST_PERCENTILE);

    // Taken before the traced pass, whose sinks would inflate the peak.
    let tasks: usize = instances.iter().map(|i| i.reference.total_tasks).sum();
    let hits: usize = instances.iter().map(|i| i.reference.hits).sum();
    let end_to_end = vec![
        metric("tasks_per_s", tasks as f64 / (run_p95_ms / 1e3), "tasks/s"),
        metric("run_ms_tail", tail_ms, "ms"),
        metric("hit_ratio", hits as f64 / tasks as f64, "fraction"),
        metric("setup_s", build_p95_ms / 1e3, "s"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    let per_layer = if args.trace {
        let mut traced = Traced::default();
        for inst in &instances {
            traced_run(args, inst, &mut traced, &mut tally).map_err(io_err)?;
        }
        Some(per_layer(
            &instances,
            build_p95_ms,
            run_p95_ms * 1e6,
            &traced,
            &tally,
        ))
    } else {
        None
    };

    let manifest = manifest(
        args,
        runs,
        tail_pct,
        &[
            ("tasks_per_s", runs),
            ("run_ms_tail", runs),
            ("hit_ratio", instances.len()),
            ("setup_s", build_ms.len()),
            ("peak_rss_mb", 1),
            ("per_layer_counts", instances.len()),
            (
                "per_layer_times",
                if args.trace { instances.len() } else { 0 },
            ),
        ],
    );
    println!(
        "# manifest {}",
        serde_json::to_string(&manifest).expect("manifest serializes")
    );
    println!(
        "# {} seed {}: {runs} timed runs of {} instance(s); run ms: fastest {:.3}, \
         median {:.3}, p95 {run_p95_ms:.3}, p{tail_pct:.1} {tail_ms:.3}; build ms: \
         median {:.3}, p90 {:.3}, p95 {build_p95_ms:.3}; {} of {} checked runs failed",
        workload.name(),
        args.seed,
        instances.len(),
        run_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&run_ms),
        median(&build_ms),
        percentile(&build_ms, 90.0),
        tally.failed,
        tally.attempted
    );
    // The readable table shows every metric measured: the end-to-end set,
    // then the per-layer set, or with `--trace 0` just `error_rate`, which
    // the per-layer set holds. The result line carries the set `--trace`
    // selects.
    let error_rate = [metric("error_rate", tally.error_rate(), "fraction")];
    for m in end_to_end
        .iter()
        .chain(per_layer.as_deref().unwrap_or(&error_rate))
    {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = per_layer
        .as_ref()
        .unwrap_or(&end_to_end)
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let value = Value::Object(vec![
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        ("attempted".into(), Value::U64(tally.attempted as u64)),
        ("failed".into(), Value::U64(tally.failed as u64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let line = serde_json::to_string(&result).expect("the result serializes");
    writeln!(io::stdout().lock(), "{line}").map_err(|e| format!("cannot write the result: {e}"))?;
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
