//! Output checks. A run that fails one is counted in `failed` and in
//! `error_rate`; nothing is skipped.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use rtsads_repro::des::Time;
use rtsads_repro::sads::RunReport;
use rtsads_repro::telemetry::jsonl::parse_trace;
use rtsads_repro::telemetry::AttributionCounts;

use crate::workloads::Workload;

/// What must repeat exactly between runs of one workload and seed: the
/// report's counters and the search's per-phase vertex totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    total_tasks: usize,
    hits: usize,
    executed_misses: usize,
    dropped: usize,
    lost_in_flight: usize,
    orphaned: usize,
    faults_seen: usize,
    finished_at: Time,
    phase_vertices: Vec<u64>,
}

impl Fingerprint {
    pub fn of(report: &RunReport) -> Self {
        Fingerprint {
            total_tasks: report.total_tasks,
            hits: report.hits,
            executed_misses: report.executed_misses,
            dropped: report.dropped,
            lost_in_flight: report.lost_in_flight,
            orphaned: report.orphaned,
            faults_seen: report.faults_seen,
            finished_at: report.finished_at,
            phase_vertices: report.phases.iter().map(|p| p.vertices).collect(),
        }
    }
}

/// Checks one run's report: the 4-way partition, the paper's theorem on
/// fault-free workloads, and determinism against the first run.
pub fn report(workload: Workload, report: &RunReport, first: &Fingerprint) -> Vec<String> {
    let mut problems = Vec::new();
    if !report.is_consistent() {
        problems.push("report is not consistent".to_string());
    }
    if workload.fault_free() && report.executed_misses != 0 {
        problems.push(format!(
            "{} scheduled tasks missed their deadline on a fault-free platform",
            report.executed_misses
        ));
    }
    if Fingerprint::of(report) != *first {
        problems.push("report counters or per-phase vertices differ from the first run".into());
    }
    problems
}

/// Checks that the decision ledger's attributions partition the report's
/// hits, misses, drops and losses.
pub fn ledger(report: &RunReport, counts: &AttributionCounts) -> Vec<String> {
    let agrees = counts.is_partition_of(report.total_tasks)
        && counts.hits == report.hits
        && counts.executed_misses == report.executed_misses
        && counts.dropped() == report.dropped
        && counts.lost_in_flight == report.lost_in_flight;
    if agrees {
        Vec::new()
    } else {
        vec![format!(
            "ledger counts {counts:?} do not partition the report"
        )]
    }
}

/// Bytes of trace text parsed at a time by [`trace_round_trip`].
const TRACE_CHUNK_BYTES: usize = 256 * 1024;

/// Checks that the JSONL trace at `path` parses back into as many events as
/// the tracer wrote. The trace is read and parsed a few hundred KiB at a
/// time, so the check does not set the process's peak memory.
pub fn trace_round_trip(path: &Path, lines_written: u64) -> Vec<String> {
    match count_trace_events(path) {
        Ok(events) if events == lines_written => Vec::new(),
        Ok(events) => vec![format!(
            "trace parsed into {events} events, {lines_written} were written"
        )],
        Err(e) => vec![e],
    }
}

fn count_trace_events(path: &Path) -> Result<u64, String> {
    let read_err = |e: std::io::Error| format!("cannot read the trace back: {e}");
    let mut reader = BufReader::new(File::open(path).map_err(read_err)?);
    let mut chunk = String::new();
    let mut events = 0u64;
    let mut line_no = 0u64;
    loop {
        chunk.clear();
        let first_line = line_no + 1;
        while chunk.len() < TRACE_CHUNK_BYTES {
            if reader.read_line(&mut chunk).map_err(read_err)? == 0 {
                break;
            }
            line_no += 1;
        }
        if chunk.is_empty() {
            return Ok(events);
        }
        let parsed = parse_trace(&chunk)
            .map_err(|e| format!("trace lines from {first_line} do not parse: {e}"))?;
        // `parse_trace` takes the first line of its input as a header if it
        // is one. Only line 1 of the file may be; every other is an event.
        let expected = line_no - first_line + 1 - u64::from(first_line == 1);
        if parsed.len() as u64 != expected {
            return Err(format!(
                "trace lines {first_line}-{line_no} hold {} events, not {expected}",
                parsed.len()
            ));
        }
        events += expected;
    }
}
