//! Trace sinks the benchmark assembles from the telemetry crate's public
//! sinks, plus the timing wrappers of the traced pass. Everything here
//! observes the program from outside: it measures calls into the sinks,
//! never code inside them.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use rtsads_repro::des::trace::{TraceEvent, TraceSink};
use rtsads_repro::des::Time;

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A writer that adds every byte it passes on to a shared counter, so the
/// traced pass can attribute trace bytes to the event that produced them.
pub struct CountingWriter<W> {
    inner: W,
    bytes: Rc<Cell<u64>>,
}

impl<W> CountingWriter<W> {
    /// Wraps `inner`; the counter starts at zero.
    pub fn new(inner: W) -> (Self, Rc<Cell<u64>>) {
        let bytes = Rc::new(Cell::new(0));
        (
            CountingWriter {
                inner,
                bytes: Rc::clone(&bytes),
            },
            bytes,
        )
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The sinks behind `--trace-out --metrics-out --report-out`, fed one
/// event stream: the JSONL tracer, the metrics collector and the decision
/// ledger.
pub struct Observers<J, M, L> {
    pub jsonl: J,
    pub metrics: M,
    pub ledger: L,
}

impl<J: TraceSink, M: TraceSink, L: TraceSink> TraceSink for Observers<J, M, L> {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        self.jsonl.emit(now, event.clone());
        self.metrics.emit(now, event.clone());
        self.ledger.emit(now, event);
    }
}

/// A sink that may be absent; an absent one drops every event.
pub struct Optional<S>(pub Option<S>);

impl<S: TraceSink> TraceSink for Optional<S> {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        if let Some(sink) = &mut self.0 {
            sink.emit(now, event);
        }
    }
}

/// Times every emit into the wrapped sink.
pub struct Timed<S> {
    pub inner: S,
    pub ns: u64,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed { inner, ns: 0 }
    }
}

impl<S: TraceSink> TraceSink for Timed<S> {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        let t0 = Instant::now();
        self.inner.emit(now, event);
        self.ns += ns_since(t0);
    }
}

/// The traced pass's tap in front of the observers: it reads the driver's
/// own `SchedulerOverhead` and `PhaseProfiled` events, counts events and
/// the trace bytes of `TaskScreened`, and times the whole fan-out.
pub struct Tap<S> {
    pub inner: S,
    trace_bytes: Rc<Cell<u64>>,
    /// Events forwarded.
    pub events: u64,
    /// JSONL bytes written for `TaskScreened` events.
    pub screened_bytes: u64,
    /// Wall nanoseconds spent inside the fan-out, event clones included.
    pub sink_ns: u64,
    /// Wall nanoseconds of each scheduling phase, as the driver measured.
    pub phase_ns: Vec<u64>,
    /// Profiled nanoseconds per search stage, by the stage's name.
    pub stage_ns: BTreeMap<&'static str, u64>,
}

impl<S> Tap<S> {
    /// `trace_bytes` is the counter of the JSONL writer inside `inner`.
    pub fn new(inner: S, trace_bytes: Rc<Cell<u64>>) -> Self {
        Tap {
            inner,
            trace_bytes,
            events: 0,
            screened_bytes: 0,
            sink_ns: 0,
            phase_ns: Vec::new(),
            stage_ns: BTreeMap::new(),
        }
    }
}

impl<S: TraceSink> TraceSink for Tap<S> {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        match &event {
            TraceEvent::SchedulerOverhead { wall_ns, .. } => self.phase_ns.push(*wall_ns),
            TraceEvent::PhaseProfiled { profile, .. } => {
                for (stage, ns) in profile.stages() {
                    *self.stage_ns.entry(stage).or_default() += ns;
                }
            }
            _ => {}
        }
        let screened = matches!(event, TraceEvent::TaskScreened { .. });
        let bytes_before = self.trace_bytes.get();
        let t0 = Instant::now();
        self.inner.emit(now, event);
        self.sink_ns += ns_since(t0);
        self.events += 1;
        if screened {
            self.screened_bytes += self.trace_bytes.get() - bytes_before;
        }
    }
}
