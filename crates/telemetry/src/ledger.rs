//! The decision-provenance ledger: a per-task "flight recorder".
//!
//! [`DecisionLedger`] is a [`TraceSink`] that folds the event stream into
//! one [`TaskDossier`] per task: the admission parameters every later
//! feasibility test uses, each viability screening with the operands of its
//! witness probe, each placement decision with the cost of the chosen
//! processor and of its runner-up, dispatch slack, and
//! the fault fallout (orphanings, loss). From those it derives a final
//! [`Attribution`] answering the question the aggregate counters cannot:
//! *why* did this particular task hit or miss?
//!
//! The attribution is resolved with a **last-emitted-wins** rule, because
//! the driver applies failures retroactively: a `TaskCompleted` may already
//! be in the stream when a later `TaskLost` retracts it, and a
//! `TaskOrphaned` sends a task back into the batch where a whole new chain
//! of evidence accumulates. Replaying the events in emission order
//! therefore always lands on the driver's own final verdict.
//!
//! The per-task attributions form a partition: summed, they must exactly
//! reproduce the run report's four-way accounting
//! (`hits + executed_misses + dropped + lost_in_flight == total_tasks`);
//! see [`DecisionLedger::counts`] and
//! [`AttributionCounts::is_partition_of`].

use std::collections::BTreeMap;

use paragon_des::trace::{PlacementProbe, ScreenProbe, TraceEvent, TraceSink};
use paragon_des::Time;
use serde::{Deserialize, Serialize};

/// One viability screening a task failed, with the feasibility-test
/// operands of its witness: the earliest-completion processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreeningRecord {
    /// When the screening phase ended, in microseconds.
    pub t_us: u64,
    /// The phase whose screen rejected the task.
    pub phase: u64,
    /// The deadline `d_l` the witness was tested against, in microseconds.
    pub deadline_us: u64,
    /// The earliest-completion probe; it misses the deadline, so every
    /// processor does.
    pub witness: ScreenProbe,
}

/// One placement decision that put the task into a delivered schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRecord {
    /// When the deciding phase ended, in microseconds.
    pub t_us: u64,
    /// The phase that made the decision.
    pub phase: u64,
    /// The chosen processor's index.
    pub processor: usize,
    /// Predicted completion on the chosen processor, in microseconds.
    pub completion_us: u64,
    /// The chosen placement's cost `ce_k`, in microseconds.
    pub cost_us: u64,
    /// The node (shard) of the chosen processor on a hierarchical
    /// platform; `None` on flat runs and in pre-topology traces.
    pub shard: Option<usize>,
    /// The highest-ranked alternative the search evaluated at the same
    /// expansion, if any.
    pub runner_up: Option<PlacementProbe>,
}

/// One dispatch of the task to a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchRecord {
    /// Dispatch instant, in microseconds.
    pub t_us: u64,
    /// The target processor's index.
    pub processor: usize,
    /// `deadline − execution_start` at dispatch, in microseconds.
    pub slack_us: i64,
}

/// The final classification of one task — the ledger's verdict, each
/// variant carrying the evidence that justifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Attribution {
    /// No terminal event seen yet (the run is still going, or the trace
    /// was truncated). A complete run leaves no task pending.
    Pending,
    /// Completed by its deadline.
    Hit {
        /// Completion instant, in microseconds.
        completed_us: u64,
        /// `completion − deadline`, in microseconds (≤ 0 for a hit).
        lateness_us: i64,
    },
    /// Scheduled and executed, but finished past its deadline — on a
    /// fault-free platform the paper's Theorem 1 says this cannot happen.
    ExecutedMiss {
        /// Completion instant, in microseconds.
        completed_us: u64,
        /// `completion − deadline`, in microseconds (> 0 for a miss).
        lateness_us: i64,
    },
    /// Dropped by the expiry filter without the scheduler ever recording a
    /// screening for it: its deadline lapsed before it was schedulable.
    DroppedBeforeSchedulable {
        /// Drop instant, in microseconds.
        dropped_us: u64,
    },
    /// Screened — the feasibility test rejected it on every processor at
    /// least once, with the earliest-completion witness on record — and
    /// then expired.
    ScreenedThenExpired {
        /// Drop instant, in microseconds.
        dropped_us: u64,
        /// How many phase screens rejected it before it expired.
        screenings: usize,
    },
    /// Killed mid-execution by a processor failure; terminal.
    LostInFlight {
        /// Loss instant, in microseconds.
        lost_us: u64,
        /// The processor that failed under it.
        processor: usize,
    },
}

impl Attribution {
    /// Short stable label for rendering and diffing.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Attribution::Pending => "Pending",
            Attribution::Hit { .. } => "Hit",
            Attribution::ExecutedMiss { .. } => "ExecutedMiss",
            Attribution::DroppedBeforeSchedulable { .. } => "DroppedBeforeSchedulable",
            Attribution::ScreenedThenExpired { .. } => "ScreenedThenExpired",
            Attribution::LostInFlight { .. } => "LostInFlight",
        }
    }
}

/// Everything the ledger knows about one task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskDossier {
    /// The task's identifier.
    pub task: u64,
    /// Arrival instant from admission, in microseconds.
    pub arrival_us: Option<u64>,
    /// Absolute deadline `d_l`, in microseconds.
    pub deadline_us: Option<u64>,
    /// Processing time `p_l`, in microseconds.
    pub processing_us: Option<u64>,
    /// Every viability screening that rejected the task, oldest first.
    pub screenings: Vec<ScreeningRecord>,
    /// Every placement decision that scheduled it, oldest first (more than
    /// one when an orphaning sent it back into the batch).
    pub placements: Vec<PlacementRecord>,
    /// Every dispatch, oldest first.
    pub dispatches: Vec<DispatchRecord>,
    /// Data-shipping delay before its (last) start, in microseconds.
    pub comm_delay_us: Option<u64>,
    /// When it (last) began executing, in microseconds.
    pub started_us: Option<u64>,
    /// Times a failure or lost dispatch handed it back to the host.
    pub orphanings: usize,
    /// The phase during which its deadline lapsed mid-computation, if any.
    pub expired_in_phase: Option<u64>,
    /// The ledger's verdict.
    pub attribution: Attribution,
}

impl TaskDossier {
    fn new(task: u64) -> Self {
        TaskDossier {
            task,
            arrival_us: None,
            deadline_us: None,
            processing_us: None,
            screenings: Vec::new(),
            placements: Vec::new(),
            dispatches: Vec::new(),
            comm_delay_us: None,
            started_us: None,
            orphanings: 0,
            expired_in_phase: None,
            attribution: Attribution::Pending,
        }
    }

    /// Renders the task's causal chain as human-readable lines, oldest
    /// event first, ending with the verdict — the body of `explain`.
    #[must_use]
    pub fn narrative(&self) -> Vec<String> {
        let mut lines = Vec::new();
        match (self.arrival_us, self.deadline_us, self.processing_us) {
            (Some(a), Some(d), Some(p)) => lines.push(format!(
                "admitted: arrival={a}us deadline={d}us processing={p}us (slack at arrival: {}us)",
                d as i64 - a as i64 - p as i64,
            )),
            _ => lines.push("admitted: parameters not in trace".to_string()),
        }
        for s in &self.screenings {
            let w = &s.witness;
            lines.push(format!(
                "phase {} screened it out at t={}us: earliest completion P{}: {}+{}={}us > \
                 deadline {}us, so every processor misses",
                s.phase,
                s.t_us,
                w.processor,
                w.available_us,
                w.demand_us,
                w.completion_us,
                s.deadline_us
            ));
        }
        for pl in &self.placements {
            // Shards only render on hierarchical runs (the chosen shard is
            // recorded); flat traces keep the pre-topology line verbatim.
            let mut line = match pl.shard {
                Some(s) => format!(
                    "phase {} placed it on P{} (node {}) at t={}us: completion={}us cost={}us",
                    pl.phase, pl.processor, s, pl.t_us, pl.completion_us, pl.cost_us
                ),
                None => format!(
                    "phase {} placed it on P{} at t={}us: completion={}us cost={}us",
                    pl.phase, pl.processor, pl.t_us, pl.completion_us, pl.cost_us
                ),
            };
            if let Some(r) = &pl.runner_up {
                if pl.shard.is_some() {
                    line.push_str(&format!(
                        "; runner-up P{} (node {}, completion={}us cost={}us)",
                        r.processor, r.shard, r.completion_us, r.cost_us
                    ));
                } else {
                    line.push_str(&format!(
                        "; runner-up P{} (completion={}us cost={}us)",
                        r.processor, r.completion_us, r.cost_us
                    ));
                }
            }
            lines.push(line);
        }
        for d in &self.dispatches {
            lines.push(format!(
                "dispatched to P{} at t={}us with {}us slack",
                d.processor, d.t_us, d.slack_us
            ));
        }
        if let Some(c) = self.comm_delay_us {
            lines.push(format!("paid {c}us communication delay shipping data"));
        }
        if let Some(s) = self.started_us {
            lines.push(format!("started executing at t={s}us"));
        }
        if self.orphanings > 0 {
            lines.push(format!(
                "orphaned back to the host {} time(s) by faults",
                self.orphanings
            ));
        }
        if let Some(phase) = self.expired_in_phase {
            lines.push(format!(
                "deadline lapsed while phase {phase} was still computing"
            ));
        }
        lines.push(match self.attribution {
            Attribution::Pending => "verdict: Pending — no terminal event in the trace".to_string(),
            Attribution::Hit {
                completed_us,
                lateness_us,
            } => format!(
                "verdict: Hit — completed at t={completed_us}us, {}us before its deadline",
                -lateness_us
            ),
            Attribution::ExecutedMiss {
                completed_us,
                lateness_us,
            } => format!(
                "verdict: ExecutedMiss — completed at t={completed_us}us, {lateness_us}us past its deadline"
            ),
            Attribution::DroppedBeforeSchedulable { dropped_us } => format!(
                "verdict: DroppedBeforeSchedulable — expired at t={dropped_us}us without ever being screened"
            ),
            Attribution::ScreenedThenExpired {
                dropped_us,
                screenings,
            } => format!(
                "verdict: ScreenedThenExpired — infeasible in {screenings} screen(s), expired at t={dropped_us}us"
            ),
            Attribution::LostInFlight { lost_us, processor } => format!(
                "verdict: LostInFlight — killed at t={lost_us}us when P{processor} failed"
            ),
        });
        lines
    }
}

/// Summed attributions, for checking the partition against a run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributionCounts {
    /// Tasks the ledger has a dossier for.
    pub total: usize,
    /// [`Attribution::Hit`].
    pub hits: usize,
    /// [`Attribution::ExecutedMiss`].
    pub executed_misses: usize,
    /// [`Attribution::DroppedBeforeSchedulable`].
    pub dropped_before_schedulable: usize,
    /// [`Attribution::ScreenedThenExpired`].
    pub screened_then_expired: usize,
    /// [`Attribution::LostInFlight`].
    pub lost_in_flight: usize,
    /// [`Attribution::Pending`] — zero once a run is complete.
    pub pending: usize,
}

impl AttributionCounts {
    /// Both drop refinements together — the report's `dropped` bucket.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped_before_schedulable + self.screened_then_expired
    }

    /// Whether the attributions exactly partition `total_tasks` the way
    /// [`RunReport::is_consistent`] requires of the aggregate counters:
    /// every task resolved, each counted once.
    ///
    /// [`RunReport::is_consistent`]:
    ///     https://docs.rs/rtsads (see `rtsads::report::RunReport`)
    #[must_use]
    pub fn is_partition_of(&self, total_tasks: usize) -> bool {
        self.pending == 0
            && self.total == total_tasks
            && self.hits + self.executed_misses + self.dropped() + self.lost_in_flight
                == total_tasks
    }
}

/// A [`TraceSink`] folding the event stream into per-task dossiers.
#[derive(Debug, Default)]
pub struct DecisionLedger {
    tasks: BTreeMap<u64, TaskDossier>,
}

impl DecisionLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a ledger by replaying already-parsed trace events in order —
    /// how `explain` reconstructs causal chains from a trace file alone.
    #[must_use]
    pub fn from_events(events: &[(Time, TraceEvent)]) -> Self {
        let mut ledger = Self::new();
        for (t, e) in events {
            ledger.emit(*t, e.clone());
        }
        ledger
    }

    /// The dossier for one task, if any event mentioned it.
    #[must_use]
    pub fn dossier(&self, task: u64) -> Option<&TaskDossier> {
        self.tasks.get(&task)
    }

    /// All dossiers, ordered by task id.
    pub fn dossiers(&self) -> impl Iterator<Item = &TaskDossier> {
        self.tasks.values()
    }

    /// Number of tasks with a dossier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task has been seen.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Consumes the ledger into its dossiers, ordered by task id.
    #[must_use]
    pub fn into_dossiers(self) -> Vec<TaskDossier> {
        self.tasks.into_values().collect()
    }

    /// Sums the attributions into partition counts.
    #[must_use]
    pub fn counts(&self) -> AttributionCounts {
        let mut c = AttributionCounts::default();
        for d in self.tasks.values() {
            c.total += 1;
            match d.attribution {
                Attribution::Pending => c.pending += 1,
                Attribution::Hit { .. } => c.hits += 1,
                Attribution::ExecutedMiss { .. } => c.executed_misses += 1,
                Attribution::DroppedBeforeSchedulable { .. } => {
                    c.dropped_before_schedulable += 1;
                }
                Attribution::ScreenedThenExpired { .. } => c.screened_then_expired += 1,
                Attribution::LostInFlight { .. } => c.lost_in_flight += 1,
            }
        }
        c
    }

    fn entry(&mut self, task: u64) -> &mut TaskDossier {
        self.tasks
            .entry(task)
            .or_insert_with(|| TaskDossier::new(task))
    }
}

impl TraceSink for DecisionLedger {
    fn emit(&mut self, now: Time, event: TraceEvent) {
        let t_us = now.as_micros();
        match event {
            TraceEvent::TaskAdmitted {
                task,
                arrival_us,
                deadline_us,
                processing_us,
            } => {
                let d = self.entry(task);
                d.arrival_us = Some(arrival_us);
                d.deadline_us = Some(deadline_us);
                d.processing_us = Some(processing_us);
            }
            TraceEvent::TaskScreened {
                task,
                phase,
                deadline_us,
                witness,
            } => {
                self.entry(task).screenings.push(ScreeningRecord {
                    t_us,
                    phase,
                    deadline_us,
                    witness,
                });
            }
            TraceEvent::PlacementDecided {
                task,
                phase,
                processor,
                completion_us,
                cost_us,
                shard,
                runner_up,
            } => {
                self.entry(task).placements.push(PlacementRecord {
                    t_us,
                    phase,
                    processor,
                    completion_us,
                    cost_us,
                    shard,
                    runner_up,
                });
            }
            TraceEvent::TaskDispatched {
                task,
                processor,
                slack_us,
            } => {
                self.entry(task).dispatches.push(DispatchRecord {
                    t_us,
                    processor,
                    slack_us,
                });
            }
            TraceEvent::CommDelay { task, delay_us, .. } => {
                self.entry(task).comm_delay_us = Some(delay_us);
            }
            TraceEvent::TaskStarted { task, .. } => {
                self.entry(task).started_us = Some(t_us);
            }
            TraceEvent::TaskCompleted {
                task,
                met_deadline,
                lateness_us,
                ..
            } => {
                self.entry(task).attribution = if met_deadline {
                    Attribution::Hit {
                        completed_us: t_us,
                        lateness_us,
                    }
                } else {
                    Attribution::ExecutedMiss {
                        completed_us: t_us,
                        lateness_us,
                    }
                };
            }
            TraceEvent::TaskDropped { task } => {
                let d = self.entry(task);
                d.attribution = if d.screenings.is_empty() {
                    Attribution::DroppedBeforeSchedulable { dropped_us: t_us }
                } else {
                    Attribution::ScreenedThenExpired {
                        dropped_us: t_us,
                        screenings: d.screenings.len(),
                    }
                };
            }
            TraceEvent::TaskExpiredMidPhase { task, phase } => {
                self.entry(task).expired_in_phase = Some(phase);
            }
            TraceEvent::TaskOrphaned { task, .. } => {
                // The task re-enters the batch: any optimistic completion
                // is void, and the next chapter of its chain will decide.
                let d = self.entry(task);
                d.orphanings += 1;
                d.attribution = Attribution::Pending;
            }
            TraceEvent::TaskLost { task, processor } => {
                self.entry(task).attribution = Attribution::LostInFlight {
                    lost_us: t_us,
                    processor,
                };
            }
            // Phase- and processor-level events carry no per-task subject.
            TraceEvent::PhaseStarted { .. }
            | TraceEvent::PhaseEnded { .. }
            | TraceEvent::SchedulerOverhead { .. }
            | TraceEvent::PhaseProfiled { .. }
            | TraceEvent::ProcessorFailed { .. }
            | TraceEvent::ProcessorRecovered { .. }
            | TraceEvent::Note(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(ledger: &mut DecisionLedger, task: u64, deadline_us: u64) {
        ledger.emit(
            Time::ZERO,
            TraceEvent::TaskAdmitted {
                task,
                arrival_us: 0,
                deadline_us,
                processing_us: 10,
            },
        );
    }

    fn complete(ledger: &mut DecisionLedger, task: u64, at_us: u64, met: bool, late: i64) {
        ledger.emit(
            Time::from_micros(at_us),
            TraceEvent::TaskCompleted {
                task,
                processor: 0,
                met_deadline: met,
                lateness_us: late,
            },
        );
    }

    #[test]
    fn chain_resolves_to_hit_with_full_evidence() {
        let mut ledger = DecisionLedger::new();
        admit(&mut ledger, 1, 500);
        ledger.emit(
            Time::from_micros(20),
            TraceEvent::PlacementDecided {
                task: 1,
                phase: 0,
                processor: 2,
                completion_us: 120,
                cost_us: 120,
                shard: None,
                runner_up: Some(PlacementProbe {
                    processor: 0,
                    completion_us: 140,
                    cost_us: 140,
                    shard: 0,
                }),
            },
        );
        ledger.emit(
            Time::from_micros(20),
            TraceEvent::TaskDispatched {
                task: 1,
                processor: 2,
                slack_us: 380,
            },
        );
        ledger.emit(
            Time::from_micros(25),
            TraceEvent::CommDelay {
                task: 1,
                processor: 2,
                delay_us: 5,
            },
        );
        ledger.emit(
            Time::from_micros(25),
            TraceEvent::TaskStarted {
                task: 1,
                processor: 2,
            },
        );
        complete(&mut ledger, 1, 120, true, -380);

        let d = ledger.dossier(1).unwrap();
        assert_eq!(d.deadline_us, Some(500));
        assert_eq!(d.placements.len(), 1);
        assert_eq!(d.placements[0].runner_up.map(|r| r.processor), Some(0));
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(d.comm_delay_us, Some(5));
        assert_eq!(d.started_us, Some(25));
        assert!(matches!(
            d.attribution,
            Attribution::Hit {
                completed_us: 120,
                lateness_us: -380
            }
        ));
        let text = d.narrative().join("\n");
        assert!(text.contains("placed it on P2"));
        assert!(
            text.contains("runner-up P0 (completion=140us cost=140us)"),
            "{text}"
        );
        assert!(text.contains("verdict: Hit"));
    }

    #[test]
    fn drop_splits_on_whether_a_screening_was_recorded() {
        let mut ledger = DecisionLedger::new();
        admit(&mut ledger, 1, 50);
        admit(&mut ledger, 2, 60);
        // Task 2 fails a screen first; task 1 just expires.
        ledger.emit(
            Time::from_micros(30),
            TraceEvent::TaskScreened {
                task: 2,
                phase: 0,
                deadline_us: 60,
                witness: ScreenProbe {
                    processor: 0,
                    available_us: 40,
                    demand_us: 30,
                    completion_us: 70,
                },
            },
        );
        ledger.emit(Time::from_micros(55), TraceEvent::TaskDropped { task: 1 });
        ledger.emit(Time::from_micros(65), TraceEvent::TaskDropped { task: 2 });

        assert!(matches!(
            ledger.dossier(1).unwrap().attribution,
            Attribution::DroppedBeforeSchedulable { dropped_us: 55 }
        ));
        assert!(matches!(
            ledger.dossier(2).unwrap().attribution,
            Attribution::ScreenedThenExpired {
                dropped_us: 65,
                screenings: 1
            }
        ));
        let text = ledger.dossier(2).unwrap().narrative().join("\n");
        assert!(
            text.contains(
                "earliest completion P0: 40+30=70us > deadline 60us, so every processor misses"
            ),
            "witness on record: {text}"
        );
    }

    #[test]
    fn retroactive_loss_supersedes_an_optimistic_completion() {
        let mut ledger = DecisionLedger::new();
        admit(&mut ledger, 3, 900);
        complete(&mut ledger, 3, 100, true, -800);
        ledger.emit(
            Time::from_micros(80),
            TraceEvent::TaskLost {
                task: 3,
                processor: 1,
            },
        );
        assert!(matches!(
            ledger.dossier(3).unwrap().attribution,
            Attribution::LostInFlight {
                lost_us: 80,
                processor: 1
            }
        ));
    }

    #[test]
    fn orphaning_reopens_the_chain_until_a_new_terminal_event() {
        let mut ledger = DecisionLedger::new();
        admit(&mut ledger, 4, 900);
        complete(&mut ledger, 4, 100, true, -800);
        ledger.emit(
            Time::from_micros(90),
            TraceEvent::TaskOrphaned {
                task: 4,
                processor: 0,
            },
        );
        assert_eq!(ledger.dossier(4).unwrap().attribution, Attribution::Pending);
        assert_eq!(ledger.dossier(4).unwrap().orphanings, 1);
        // Re-scheduled and executed late the second time around.
        complete(&mut ledger, 4, 950, false, 50);
        assert!(matches!(
            ledger.dossier(4).unwrap().attribution,
            Attribution::ExecutedMiss {
                completed_us: 950,
                lateness_us: 50
            }
        ));
    }

    #[test]
    fn counts_partition_the_task_set() {
        let mut ledger = DecisionLedger::new();
        for id in 0..6u64 {
            admit(&mut ledger, id, 100);
        }
        complete(&mut ledger, 0, 50, true, -50);
        complete(&mut ledger, 1, 150, false, 50);
        ledger.emit(Time::from_micros(100), TraceEvent::TaskDropped { task: 2 });
        ledger.emit(
            Time::from_micros(90),
            TraceEvent::TaskScreened {
                task: 3,
                phase: 1,
                deadline_us: 100,
                witness: ScreenProbe {
                    processor: 0,
                    available_us: 60,
                    demand_us: 50,
                    completion_us: 110,
                },
            },
        );
        ledger.emit(Time::from_micros(110), TraceEvent::TaskDropped { task: 3 });
        ledger.emit(
            Time::from_micros(70),
            TraceEvent::TaskLost {
                task: 4,
                processor: 0,
            },
        );
        let c = ledger.counts();
        assert_eq!(c.hits, 1);
        assert_eq!(c.executed_misses, 1);
        assert_eq!(c.dropped_before_schedulable, 1);
        assert_eq!(c.screened_then_expired, 1);
        assert_eq!(c.dropped(), 2);
        assert_eq!(c.lost_in_flight, 1);
        assert_eq!(c.pending, 1, "task 5 never resolved");
        assert!(!c.is_partition_of(6), "pending task breaks the partition");
        complete(&mut ledger, 5, 60, true, -40);
        assert!(ledger.counts().is_partition_of(6));
    }

    #[test]
    fn dossiers_serialize_and_round_trip() {
        let mut ledger = DecisionLedger::new();
        admit(&mut ledger, 7, 300);
        complete(&mut ledger, 7, 100, true, -200);
        let d = ledger.dossier(7).unwrap().clone();
        let json = serde_json::to_string(&d).unwrap();
        let back: TaskDossier = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn from_events_replays_a_parsed_trace() {
        let events = vec![
            (
                Time::ZERO,
                TraceEvent::TaskAdmitted {
                    task: 9,
                    arrival_us: 0,
                    deadline_us: 40,
                    processing_us: 5,
                },
            ),
            (Time::from_micros(45), TraceEvent::TaskDropped { task: 9 }),
        ];
        let ledger = DecisionLedger::from_events(&events);
        assert_eq!(ledger.len(), 1);
        assert!(matches!(
            ledger.dossier(9).unwrap().attribution,
            Attribution::DroppedBeforeSchedulable { dropped_us: 45 }
        ));
    }
}
