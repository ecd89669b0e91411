//! Property tests for the JSONL trace format: every event round-trips
//! through serde, and a trace written in simulation-time order parses back
//! monotonically ordered.

use paragon_des::trace::{PlacementProbe, ScreenProbe, TraceEvent, TraceSink};
use paragon_des::{Duration, Time};
use proptest::prelude::*;
use rt_telemetry::jsonl::{parse_trace, JsonlTracer, TraceLine};

/// Builds one event from raw generated scalars; `kind` picks the variant.
fn build_event(kind: u8, a: u64, b: u64, signed: i64) -> TraceEvent {
    match kind % 13 {
        0 => TraceEvent::PhaseStarted {
            phase: a,
            batch_len: b as usize,
            quantum: Duration::from_micros(signed.unsigned_abs()),
        },
        1 => TraceEvent::PhaseEnded {
            phase: a,
            scheduled: b as usize,
            consumed: Duration::from_micros(signed.unsigned_abs()),
            vertices: a.wrapping_mul(3),
            backtracks: b,
            undos: a.wrapping_mul(5),
            replay_avoided: b.wrapping_mul(7),
        },
        2 => TraceEvent::TaskDispatched {
            task: a,
            processor: b as usize,
            slack_us: signed,
        },
        3 => TraceEvent::CommDelay {
            task: a,
            processor: b as usize,
            delay_us: signed.unsigned_abs(),
        },
        4 => TraceEvent::TaskStarted {
            task: a,
            processor: b as usize,
        },
        5 => TraceEvent::TaskCompleted {
            task: a,
            processor: b as usize,
            met_deadline: signed >= 0,
            lateness_us: signed,
        },
        6 => TraceEvent::TaskDropped { task: a },
        7 => TraceEvent::TaskExpiredMidPhase { task: a, phase: b },
        8 => TraceEvent::TaskAdmitted {
            task: a,
            arrival_us: b,
            deadline_us: a.wrapping_add(b),
            processing_us: signed.unsigned_abs(),
        },
        9 => TraceEvent::TaskScreened {
            task: a,
            phase: b,
            deadline_us: signed.unsigned_abs(),
            witness: ScreenProbe {
                processor: b as usize,
                available_us: a,
                demand_us: signed.unsigned_abs(),
                completion_us: a.wrapping_add(signed.unsigned_abs()),
            },
        },
        10 => TraceEvent::PlacementDecided {
            task: a,
            phase: b,
            processor: b as usize,
            completion_us: a,
            cost_us: a.wrapping_add(b),
            shard: (signed >= 0).then_some((b as usize) % 3),
            runner_up: a.is_multiple_of(2).then_some(PlacementProbe {
                processor: (b as usize).wrapping_add(1),
                completion_us: a.wrapping_add(1),
                cost_us: a.wrapping_add(2),
                shard: (b as usize) % 3,
            }),
        },
        11 => TraceEvent::SchedulerOverhead {
            phase: a,
            allocated_us: b,
            wall_ns: signed.unsigned_abs(),
        },
        _ => TraceEvent::Note(format!("note-{a}-{signed} with \"quotes\" and \\slashes\\")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_event_round_trips_through_jsonl(
        kind in 0u8..=12,
        a in 0u64..1_000_000,
        b in 0u64..64,
        signed in -1_000_000i64..1_000_000,
        t in 0u64..10_000_000,
    ) {
        let event = build_event(kind, a, b, signed);
        let mut sink = JsonlTracer::new(Vec::new());
        sink.emit(Time::from_micros(t), event.clone());
        prop_assert_eq!(sink.lines(), 1);
        let buf = sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        // The header manifest plus exactly one event line, and the event
        // line parses back to the same event.
        prop_assert_eq!(text.lines().count(), 2);
        let event_line = text.lines().nth(1).unwrap();
        let line: TraceLine = serde_json::from_str(event_line).unwrap();
        prop_assert_eq!(line.t_us, t);
        prop_assert_eq!(line.event, event);
    }

    #[test]
    fn traces_written_in_time_order_parse_back_monotone(
        raw in prop::collection::vec(
            (0u8..=12, 0u64..100_000, 0u64..16, -100_000i64..100_000, 0u64..1_000_000),
            1..60,
        ),
    ) {
        // The driver emits in non-decreasing simulation time per stream;
        // model that by sorting the generated timestamps.
        let mut times: Vec<u64> = raw.iter().map(|r| r.4).collect();
        times.sort_unstable();
        let mut sink = JsonlTracer::new(Vec::new());
        for ((kind, a, b, signed, _), t) in raw.iter().zip(&times) {
            sink.emit(Time::from_micros(*t), build_event(*kind, *a, *b, *signed));
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let parsed = parse_trace(&text).unwrap();
        prop_assert_eq!(parsed.len(), raw.len());
        for pair in parsed.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "trace must stay time-ordered");
        }
    }
}
