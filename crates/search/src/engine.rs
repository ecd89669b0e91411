//! The depth-first candidate-list search engine shared by RT-SADS and
//! D-COLS.
//!
//! One *scheduling phase* (paper, Section 4.1) is one call to
//! [`search_schedule`]: starting from the root (empty schedule), the current
//! vertex is expanded, its feasible successors are heuristically ordered and
//! pushed on the front of the candidate list `CL`, and the next current
//! vertex is taken from the front of `CL`. The phase ends at a leaf (complete
//! schedule), at a dead-end (`CL` empty), or when the scheduling-time
//! quantum is exhausted — in the latter two cases the best (deepest, then
//! lowest-makespan) feasible partial schedule found so far is returned.

use paragon_des::trace::PhaseProfile;
use paragon_des::{Duration, Time};
use rt_task::{CommModel, ProcessorId, ResourceEats, Task};

use paragon_platform::SchedulingMeter;
use rt_telemetry::{Stage, StageProfiler};
use serde::{Deserialize, Serialize};

use crate::policy::{Candidate, ChildOrder};
use crate::repr::Representation;
use crate::state::{Assignment, PathState};

/// Why a scheduling phase ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// A leaf was reached: every *viable* task is assigned. Under the
    /// phase-level viability screen this is weaker than "the whole batch is
    /// scheduled" — compare [`SearchOutcome::is_complete`] (full batch) with
    /// [`SearchOutcome::covers_viable`] (this condition).
    Leaf,
    /// The candidate list emptied: no feasible extension exists anywhere.
    DeadEnd,
    /// The scheduling-time quantum (or vertex cap) ran out.
    QuantumExhausted,
    /// A pruning bound (backtrack limit) cut the search short.
    Pruned,
}

/// The search-space pruning heuristics Section 3 of the paper lists as what
/// "dynamic algorithms are forced to use … to reduce the scheduling
/// complexity": a limit on backtracking and a limit on the depth of search.
/// The defaults disable both (the quantum is then the only bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pruning {
    /// Expansions stop below this depth; the tree is explored only down to
    /// `depth_bound` assignments. `None` = full depth.
    pub depth_bound: Option<usize>,
    /// The phase ends ([`Termination::Pruned`]) after this many backtracks.
    /// `None` = unlimited.
    pub backtrack_limit: Option<u64>,
}

/// Diagnostics of one search phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Vertices generated and evaluated (including infeasible ones).
    pub vertices_generated: u64,
    /// Vertices expanded (popped from `CL` and given successors).
    pub expansions: u64,
    /// Pops that switched to a different branch of `G` (the paper's
    /// backtracking).
    pub backtracks: u64,
    /// Successors that failed the feasibility test.
    pub infeasible_children: u64,
    /// Successors that passed it.
    pub feasible_children: u64,
    /// The deepest feasible partial schedule seen.
    pub deepest: usize,
    /// Skip rounds taken: expansions whose canonical choice (task or, for
    /// the skipping sequence-oriented variant, processor) admitted no
    /// feasible successor and moved on to the next choice.
    pub level_skips: u64,
    /// Expansion attempts refused by the Section-3 depth bound.
    pub depth_prunes: u64,
    /// Batch tasks screened out by the phase-level viability test (they can
    /// meet their deadline on no processor even against the initial finish
    /// times, so the whole phase tree excludes them).
    pub screened_tasks: u64,
    /// Assignments reverted by the incremental engine while switching
    /// between branches (each costs O(1); see [`crate::PathState::undo`]).
    pub undos: u64,
    /// Apply steps a per-pop root replay would have performed that the
    /// incremental engine skipped: the length of the path prefix shared
    /// between consecutive vertices, summed over pops. The old engine paid
    /// exactly `undos + replay_avoided` extra applies per phase.
    pub replay_avoided: u64,
    /// Shard screens run by the shard-first candidate generator (one per
    /// skip round under a hierarchical topology). Zero on flat platforms.
    pub shard_screens: u64,
    /// Shards the screen ruled out or ranked below the fanout cut, whose
    /// processors were therefore never evaluated as candidates — the
    /// O(P) → O(shards) + O(P/shard) saving, counted in shards.
    pub shards_pruned: u64,
}

/// One feasibility probe from the phase-level viability screen: the
/// operands of the paper's test for one candidate processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenProbe {
    /// The candidate processor.
    pub processor: ProcessorId,
    /// The processor's initial finish time `max(busy_k, t_s + Q_s(j))`.
    pub available: Time,
    /// The demand `p_l + c_lk` the assignment would add.
    pub demand: Duration,
    /// The resulting completion `se_lk`; the probe fails when it exceeds the
    /// task's deadline.
    pub completion: Time,
}

/// Why one batch task failed the phase-level viability screen: its
/// earliest-completion probe. That probe misses the deadline, so every
/// other processor's does too — the one witness proves the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenEvidence {
    /// Batch index of the screened task.
    pub task: usize,
    /// The probe with the least `available + demand`, ties to the lowest
    /// processor index.
    pub witness: ScreenProbe,
}

/// A candidate placement the search evaluated at the same expansion as a
/// delivered assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementAlternative {
    /// The rejected processor.
    pub processor: ProcessorId,
    /// Predicted completion on it.
    pub completion: Time,
    /// Its cost-function value `ce_k` (the partial schedule's makespan had
    /// it been chosen).
    pub cost: Time,
}

/// Why a delivered assignment picked the processor it did: the chosen
/// placement's cost next to the best sibling alternative for the same task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementEvidence {
    /// Batch index of the placed task.
    pub task: usize,
    /// The chosen processor.
    pub processor: ProcessorId,
    /// Predicted completion on the chosen processor.
    pub completion: Time,
    /// The chosen placement's cost `ce_k`.
    pub cost: Time,
    /// The highest-ranked same-task alternative evaluated at the same
    /// expansion, in the search's own child order (`None` when there was
    /// none, e.g. under sequence-oriented layouts, where siblings differ by
    /// task rather than processor).
    pub runner_up: Option<PlacementAlternative>,
}

/// Decision evidence for one scheduling phase, collected only when
/// [`SearchParams::provenance`] is set: which tasks the viability screen
/// rejected (with one witness probe each) and why each delivered
/// assignment chose its processor. Collection is record-only — it never
/// alters the search order, the delivered schedule, or the stats.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseProvenance {
    /// Screen rejections, in batch order.
    pub screened: Vec<ScreenEvidence>,
    /// One entry per delivered assignment, in path order.
    pub decisions: Vec<PlacementEvidence>,
}

/// Result of one scheduling phase.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best feasible (partial or complete) schedule found, in path
    /// order.
    pub assignments: Vec<Assignment>,
    /// Why the phase ended.
    pub termination: Termination,
    /// Batch tasks that survived the phase-level viability screen — the
    /// depth of a leaf of this phase's tree. One-pass schedulers that do not
    /// screen report the full batch size here.
    pub n_viable: usize,
    /// Makespan (the paper's `CE`: latest processor finish time, including
    /// the initial finish times) of the delivered schedule — the tie-break
    /// key the search used when picking "best". At a leaf this is the leaf's
    /// real makespan, not a sentinel.
    pub makespan: Time,
    /// Search diagnostics.
    pub stats: SearchStats,
    /// Decision evidence, present only when [`SearchParams::provenance`]
    /// was set.
    pub provenance: Option<PhaseProvenance>,
}

impl SearchOutcome {
    /// Whether the schedule covers the whole batch.
    #[must_use]
    pub fn is_complete(&self, batch_len: usize) -> bool {
        self.assignments.len() == batch_len
    }

    /// Whether the schedule covers every *viable* task — the
    /// [`Termination::Leaf`] condition. Under screening this can hold while
    /// [`SearchOutcome::is_complete`] is false: the screened tasks stay in
    /// the batch for a later phase (or expiry).
    #[must_use]
    pub fn covers_viable(&self) -> bool {
        self.assignments.len() == self.n_viable
    }

    /// Batch tasks screened out by the phase-level viability test.
    #[must_use]
    pub fn screened(&self) -> u64 {
        self.stats.screened_tasks
    }

    /// Number of distinct processors the schedule uses.
    #[must_use]
    pub fn processors_used(&self) -> usize {
        let mut procs: Vec<ProcessorId> = self.assignments.iter().map(|a| a.processor).collect();
        procs.sort();
        procs.dedup();
        procs.len()
    }
}

/// Inputs of one scheduling phase.
#[derive(Debug, Clone)]
pub struct SearchParams<'a> {
    /// The batch being scheduled.
    pub tasks: &'a [Task],
    /// The interconnect cost model.
    pub comm: &'a CommModel,
    /// Per-processor earliest start for new work:
    /// `max(busy_until_k, t_s + Q_s(j))` (see [`PathState::new`]).
    pub initial_finish: &'a [Time],
    /// Tree layout (assignment- vs sequence-oriented).
    pub representation: &'a Representation,
    /// Heuristic ordering of feasible successors.
    pub child_order: ChildOrder,
    /// Reference instant for slack-based task ordering (`t_s`).
    pub now: Time,
    /// Hard cap on generated vertices, guarding unbounded searches when the
    /// host's vertex cost is zero. `None` = rely on the meter alone.
    pub vertex_cap: Option<u64>,
    /// Optional Section-3 pruning heuristics (depth bound, backtrack
    /// limit).
    pub pruning: Pruning,
    /// The machine's resource earliest-available times at phase start
    /// (empty for the paper's independent tasks).
    pub resources: ResourceEats,
    /// Collect decision evidence ([`SearchOutcome::provenance`]). Off by
    /// default: collection allocates per expansion, and the flight recorder
    /// must be free when tracing is disabled.
    pub provenance: bool,
}

/// Arena node: enough to reconstruct the partial schedule by walking
/// parents, plus its depth so the incremental engine can find the common
/// ancestor of two vertices in O(branch distance).
#[derive(Debug, Clone, Copy)]
struct Node {
    parent: Option<usize>,
    /// 1-based: the number of assignments on the root-to-here path.
    depth: usize,
    task: usize,
    processor: ProcessorId,
}

/// Every per-phase buffer the search engine needs, owned in one place so a
/// long-lived caller (the driver) allocates once and reuses across all
/// scheduling phases.
///
/// Lifetime contract (DESIGN.md §8): buffers live for the whole run; each
/// phase *clears* them on entry (clear-don't-drop) and leaves their capacity
/// behind for the next phase. Once capacities have reached the workload's
/// steady state, [`search_schedule_with`] performs **zero** heap allocations
/// per phase (provenance off) — asserted by the counting-allocator test in
/// `crates/bench/tests/zero_alloc.rs` and pinned against behavioral drift by
/// the `replay-oracle` differential suite.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Append-only node arena of the phase tree.
    arena: Vec<Node>,
    /// Per-node (completion, makespan-if-chosen), provenance only.
    node_costs: Vec<(Time, Time)>,
    /// The candidate list `CL` (stack: end = front).
    cl: Vec<usize>,
    /// Arena ids along the current vertex's root path.
    path: Vec<usize>,
    /// Branch-switch walk buffer (ancestors of the next vertex).
    chain: Vec<usize>,
    /// Feasible successors of one expansion, before ordering.
    children: Vec<Candidate>,
    /// Packed successors of one expansion — `completion(64) |
    /// processor(32) | task(32)` in one `u128` — used instead of
    /// `children` when the child order reduces to the packed key's integer
    /// order (see the select stage in `expand`).
    ckeys: Vec<u128>,
    /// Raw (task, processor) candidates of one skip round.
    raw: Vec<(usize, ProcessorId)>,
    /// Dense completion column of one skip round, index-aligned with `raw`
    /// (the struct-of-arrays candidate evaluation writes all completions in
    /// one batched pass before the accounting loop consumes them).
    comp: Vec<Time>,
    /// Viable tasks in level order (assignment-oriented layouts).
    level_task: Vec<usize>,
    /// Per-task verdict of the phase-level viability screen.
    viable: Vec<bool>,
    /// Cumulative shard end indices under a hierarchical topology (the
    /// node partition handed to [`PathState::configure_shards`]).
    shard_ends: Vec<usize>,
    /// (screen bound, shard) ranking buffer of one shard-first skip round.
    shard_rank: Vec<(Time, usize)>,
    /// The incremental path state, lazily created on first use and reset
    /// (not rebuilt) on later phases.
    state: Option<PathState>,
    /// Backing storage handed out as [`SearchOutcome::assignments`]; refill
    /// it via [`SearchScratch::recycle`] to keep the hot path allocation-free.
    out: Vec<Assignment>,
    /// Stage-scoped self-profiler (disabled by default — two branches per
    /// span, no clock reads, no allocations; see `rt_telemetry::profile`).
    prof: StageProfiler,
}

impl SearchScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a spent assignment vector (e.g. a consumed
    /// [`SearchOutcome::assignments`]) to the pool so the next phase can
    /// reuse its capacity instead of allocating.
    pub fn recycle(&mut self, mut assignments: Vec<Assignment>) {
        assignments.clear();
        if assignments.capacity() > self.out.capacity() {
            self.out = assignments;
        }
    }

    /// Takes the pooled assignment buffer (empty, capacity preserved) for a
    /// scheduler that builds its outcome outside the search engine (the
    /// one-pass baselines, the myopic scheduler).
    #[must_use]
    pub fn take_assignment_buffer(&mut self) -> Vec<Assignment> {
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        out
    }

    /// Turns stage-level self-profiling on or off for phases run on this
    /// scratch. Off (the default) the instrumentation is two predictable
    /// branches per span — no clock reads, no allocations, and bit-identical
    /// outcomes (pinned by the profiled differential suite).
    pub fn set_profiling(&mut self, on: bool) {
        self.prof.set_enabled(on);
    }

    /// Whether stage-level self-profiling is currently enabled.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.prof.enabled()
    }

    /// Drains the stage times accumulated by the last phase into a
    /// wire-format [`PhaseProfile`], resetting the accumulators. Returns an
    /// all-zero record when profiling is off.
    pub fn take_profile(&mut self) -> PhaseProfile {
        self.prof.take()
    }
}

/// Runs one scheduling phase (see the module docs for the algorithm)
/// and [`SearchParams`] for the inputs. The `meter` both limits and measures
/// the scheduling time consumed.
///
/// Allocates fresh working buffers per call; phase-loop callers should hold
/// a [`SearchScratch`] and use [`search_schedule_with`] instead.
#[must_use]
pub fn search_schedule(params: &SearchParams<'_>, meter: &mut SchedulingMeter) -> SearchOutcome {
    let mut scratch = SearchScratch::new();
    search_core(params, meter, false, &mut scratch)
}

/// [`search_schedule`] with caller-owned working buffers: the engine
/// maintains a single incremental [`PathState`]; on each pop it undoes
/// assignments up to the deepest common ancestor of the previous and next
/// vertex and applies back down — O(branch distance) per pop instead of the
/// O(depth) per-pop root replay, so a straight dive is O(depth) overall
/// rather than O(depth²). The paper charges only vertex evaluations against
/// the quantum; reusing the scratch keeps the engine's own bookkeeping (and
/// allocator traffic) within that budget. Behavior is identical to
/// [`search_schedule`] regardless of what previous phases left in `scratch`.
#[must_use]
pub fn search_schedule_with(
    params: &SearchParams<'_>,
    meter: &mut SchedulingMeter,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    search_core(params, meter, false, scratch)
}

/// The pre-incremental engine, kept as a differential oracle: identical
/// search order and bookkeeping, but every pop rebuilds the vertex's
/// [`PathState`] by replaying the whole root-to-vertex path (O(depth) per
/// pop). Used by the differential property tests and the deep-dive
/// benchmark; never by the production schedulers.
#[cfg(any(test, feature = "replay-oracle"))]
#[must_use]
pub fn search_schedule_replay(
    params: &SearchParams<'_>,
    meter: &mut SchedulingMeter,
) -> SearchOutcome {
    let mut scratch = SearchScratch::new();
    search_core(params, meter, true, &mut scratch)
}

fn search_core(
    params: &SearchParams<'_>,
    meter: &mut SchedulingMeter,
    use_replay: bool,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    // Clear-don't-drop: every buffer is emptied on entry and refilled below,
    // so a warmed scratch runs the whole phase without touching the
    // allocator. Clearing here (rather than on phase exit) also makes a
    // fresh scratch and a reused one indistinguishable.
    let SearchScratch {
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        level_task,
        viable,
        shard_ends,
        shard_rank,
        state: state_slot,
        out,
        prof,
    } = scratch;
    arena.clear();
    node_costs.clear();
    cl.clear();
    path.clear();
    chain.clear();
    children.clear();
    ckeys.clear();
    raw.clear();
    comp.clear();
    level_task.clear();
    viable.clear();
    shard_ends.clear();
    shard_rank.clear();
    out.clear();
    prof.reset();

    let n = params.tasks.len();
    let mut stats = SearchStats::default();
    // Root makespan: the latest initial finish time (the empty schedule's CE).
    let root_makespan = params
        .initial_finish
        .iter()
        .copied()
        .max()
        .unwrap_or(Time::ZERO);

    if n == 0 {
        return SearchOutcome {
            assignments: Vec::new(),
            termination: Termination::Leaf,
            n_viable: 0,
            makespan: root_makespan,
            stats,
            provenance: params.provenance.then(PhaseProvenance::default),
        };
    }

    // Phase-level viability screen: processor finish times only grow along
    // any path of `G`, so a task that cannot meet its deadline even against
    // the *initial* finish times is infeasible in the entire phase tree.
    // Screening it out once keeps expansions from re-evaluating it at every
    // level. (Like the paper's per-phase batch expiry test, this screen is
    // not charged against the quantum; screened tasks stay in the batch.)
    // Under provenance a screen rejection also records its witness probe;
    // the verdicts are identical.
    let t_screen = prof.start();
    let screened_evidence = screen_batch(params, viable);
    prof.stop(Stage::Screen, t_screen);
    let viable: &[bool] = viable;
    let n_viable = viable.iter().filter(|&&v| v).count();
    stats.screened_tasks = (n - n_viable) as u64;
    if n_viable == 0 {
        return SearchOutcome {
            assignments: Vec::new(),
            termination: Termination::DeadEnd,
            n_viable: 0,
            makespan: root_makespan,
            stats,
            provenance: params.provenance.then(|| PhaseProvenance {
                screened: screened_evidence,
                decisions: Vec::new(),
            }),
        };
    }

    if let Representation::AssignmentOriented { task_order } = params.representation {
        task_order.order_into(params.tasks, params.now, level_task);
        level_task.retain(|&t| viable[t]);
    }
    let level_task: &[usize] = level_task;

    // The incremental state is part of the scratch: reset in place when a
    // previous phase left one behind, built fresh only on first use.
    match state_slot.as_mut() {
        Some(s) => s.reset(params.initial_finish, n, &params.resources),
        None => {
            *state_slot = Some(PathState::with_resources(
                params.initial_finish.to_vec(),
                n,
                params.resources.clone(),
            ));
        }
    }
    let state = state_slot.as_mut().expect("state initialized above");

    // Shard-first gate: active only under a multi-node hierarchical
    // topology with the assignment-oriented layout. Everything else —
    // constant, mesh, 1-node topology, sequence-oriented — takes the flat
    // candidate path untouched (the 1-node bit-identity contract).
    let shards = shard_gate(params);
    if let Some(topo) = shards {
        node_ends_into(topo, shard_ends);
        state.configure_shards(shard_ends);
    }

    let mut walk = Walk {
        params,
        viable,
        level_task,
        n_viable,
        use_replay,
        shards,
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        shard_rank,
        state,
        prof,
        stats,
        // Best feasible vertex so far: the root (empty schedule, makespan =
        // root_makespan) is the fallback.
        best: (0, root_makespan, None),
    };
    let termination = walk.dfs_loop(meter);

    // Deliver the best vertex's schedule. Untracked: the extraction switch
    // is not part of the search, so it must not skew the per-pop counters.
    // The assignments are copied into the pooled `out` buffer (the state
    // itself stays in the scratch for the next phase); callers return the
    // vector via [`SearchScratch::recycle`] to close the reuse loop.
    let best = walk.best;
    let assignments = match best.2 {
        Some(id) => {
            walk.switch_to(id, false);
            out.extend_from_slice(walk.state.assignments());
            std::mem::take(out)
        }
        None => Vec::new(),
    };
    let provenance = params
        .provenance
        .then(|| phase_provenance(walk.arena, walk.node_costs, best.2, screened_evidence));
    SearchOutcome {
        assignments,
        termination,
        n_viable,
        makespan: best.1,
        stats: walk.stats,
        provenance,
    }
}

/// Best feasible vertex so far: `(depth, makespan, arena id)`; a `None` id
/// means "deliver nothing" (the empty root schedule).
type Best = (usize, Time, Option<usize>);

/// One phase's candidate-list walk: the caller's parameters, the
/// phase-level screen verdicts and level order (computed once per phase),
/// disjoint borrows of the [`SearchScratch`] buffers and incremental state,
/// and the running counters and best vertex.
struct Walk<'a, 's> {
    params: &'s SearchParams<'a>,
    viable: &'s [bool],
    level_task: &'s [usize],
    n_viable: usize,
    use_replay: bool,
    /// `Some` when the shard-first candidate generator is active (multi-node
    /// hierarchical topology, assignment-oriented layout).
    shards: Option<&'a rt_task::TopologySpec>,
    arena: &'s mut Vec<Node>,
    node_costs: &'s mut Vec<(Time, Time)>,
    cl: &'s mut Vec<usize>,
    path: &'s mut Vec<usize>,
    chain: &'s mut Vec<usize>,
    children: &'s mut Vec<Candidate>,
    ckeys: &'s mut Vec<u128>,
    raw: &'s mut Vec<(usize, ProcessorId)>,
    comp: &'s mut Vec<Time>,
    shard_rank: &'s mut Vec<(Time, usize)>,
    state: &'s mut PathState,
    prof: &'s mut StageProfiler,
    stats: SearchStats,
    best: Best,
}

/// Whether this phase runs the shard-first candidate generator: only under
/// a hierarchical topology with more than one node, and only for the
/// assignment-oriented layout (sequence-oriented levels fix a processor, so
/// there is no per-level shard choice to make). The topology must span
/// exactly the phase's processors.
fn shard_gate<'a>(params: &SearchParams<'a>) -> Option<&'a rt_task::TopologySpec> {
    let topo = params.comm.topology()?;
    if topo.nodes() < 2 || !params.representation.is_assignment_oriented() {
        return None;
    }
    assert_eq!(
        topo.workers(),
        params.initial_finish.len(),
        "topology processor count must match the phase's processors"
    );
    Some(topo)
}

/// Writes the cumulative node end indices of `topo` into `ends` (the shard
/// partition [`PathState::configure_shards`] consumes).
fn node_ends_into(topo: &rt_task::TopologySpec, ends: &mut Vec<usize>) {
    ends.clear();
    ends.extend((0..topo.nodes()).map(|s| topo.node_range(s).1));
}

/// Packs one feasible candidate into a single integer whose natural order
/// is `(completion, processor, task)` — the layout the select stage's raw
/// `u128` sort relies on. `Time` is transparently its microsecond count, so
/// the round-trip through the key is exact.
#[inline]
fn pack_candidate(completion: Time, processor: usize, task: usize) -> u128 {
    debug_assert!(processor < (1 << 32) && task < (1 << 32));
    ((completion.as_micros() as u128) << 64) | ((processor as u128) << 32) | task as u128
}

impl Walk<'_, '_> {
    /// Reconstructs the PathState of a vertex by replaying root->vertex —
    /// the O(depth) oracle path, taken only when `use_replay` is set.
    /// Allocates freely: the oracle is never on the production hot path.
    fn replay(&self, id: usize) -> PathState {
        let params = self.params;
        let mut chain = Vec::new();
        let mut cursor = Some(id);
        while let Some(i) = cursor {
            chain.push(i);
            cursor = self.arena[i].parent;
        }
        let mut state = PathState::with_resources(
            params.initial_finish.to_vec(),
            params.tasks.len(),
            params.resources.clone(),
        );
        for &i in chain.iter().rev() {
            let node = &self.arena[i];
            state.apply(params.tasks, params.comm, node.task, node.processor);
        }
        state
    }

    /// Moves the incremental state (whose current vertex path is
    /// `self.path`, with `path[d-1]` the arena id at depth d) to vertex
    /// `cv`: walk cv's ancestors until one lies on the current path at its
    /// own depth, undo down to that common ancestor, then apply the
    /// collected chain. Both engines run the same bookkeeping (so stats are
    /// bit-identical); only the state materialization differs.
    fn switch_to(&mut self, cv: usize, track: bool) {
        // Profiling: the ancestor walk and the undo pops share one Undo
        // span; the apply chain gets its own. Spans bracket whole loops —
        // never individual apply/undo calls — per the stage-granularity
        // rule (DESIGN.md §8).
        let t_undo = self.prof.start();
        self.chain.clear();
        let mut cursor = Some(cv);
        let common_depth = loop {
            let Some(i) = cursor else { break 0 };
            let node = &self.arena[i];
            if self.path.get(node.depth - 1) == Some(&i) {
                break node.depth;
            }
            self.chain.push(i);
            cursor = node.parent;
        };
        if track {
            self.stats.undos += (self.path.len() - common_depth) as u64;
            self.stats.replay_avoided += common_depth as u64;
        }
        if self.use_replay {
            self.prof.stop(Stage::Undo, t_undo);
            let t_apply = self.prof.start();
            self.path.truncate(common_depth);
            self.path.extend(self.chain.iter().rev());
            *self.state = self.replay(cv);
            self.prof.stop(Stage::Apply, t_apply);
        } else {
            while self.path.len() > common_depth {
                self.state.undo();
                self.path.pop();
            }
            self.prof.stop(Stage::Undo, t_undo);
            let t_apply = self.prof.start();
            for &i in self.chain.iter().rev() {
                let node = self.arena[i];
                self.state.apply(
                    self.params.tasks,
                    self.params.comm,
                    node.task,
                    node.processor,
                );
                self.path.push(i);
            }
            self.prof.stop(Stage::Apply, t_apply);
        }
    }

    /// Expands `cv` (`None` = the root): generates, filters, orders and
    /// pushes its successors. Returns `Some((leaf id, leaf makespan))` if a
    /// schedule covering every viable task was generated.
    fn expand(&mut self, cv: Option<usize>, meter: &mut SchedulingMeter) -> Option<(usize, Time)> {
        let params = self.params;
        // Depth bound (Section 3 pruning): do not expand below the bound.
        if params
            .pruning
            .depth_bound
            .is_some_and(|bound| self.state.depth() >= bound)
        {
            self.stats.depth_prunes += 1;
            return None;
        }
        self.stats.expansions += 1;
        let max_skips = params.representation.max_skips(self.state);
        // The cost function ce compares each candidate's completion against
        // the partial schedule's makespan, which the state maintains
        // incrementally — an O(1) read per expansion.
        let base_makespan = self.state.makespan();
        self.children.clear();
        self.ckeys.clear();
        // The two default-ish child orders reduce to the integer order of a
        // packed `completion(64) | processor(32) | task(32)` key (see the
        // select stage below), so their candidates skip the `Candidate`
        // struct entirely: 16-byte pushes in the cost loop and a raw `u128`
        // sort instead of a 40-byte-element comparator sort.
        let packable = matches!(
            params.child_order,
            ChildOrder::LoadBalance | ChildOrder::EarliestCompletion
        );
        // Budget hoists: both are constant for the whole expansion, and the
        // cap compare degenerates to an always-false branch when uncapped
        // (`vertices_generated` cannot reach `u64::MAX`).
        let cap = params.vertex_cap.unwrap_or(u64::MAX);
        // Profiling: the cost span may be cut short by a `break
        // 'skip_rounds` inside the accounting loop; the pending slot carries
        // the open span across the jump so the stop after the loop closes
        // it (stop with `None` is a no-op).
        let mut t_cost = None;
        // Per-candidate accounting order in every branch below (pinned by
        // the `vertex_cap_break_classifies_every_counted_vertex` and
        // `quantum_break_counts_the_uncharged_vertex` tests):
        //   1. vertex cap — checked *before* generating, so a cap break
        //      counts nothing: every cap-counted vertex is classified.
        //   2. quantum charge — counted whether or not it succeeds, so
        //      `vertices_generated == meter.vertices()` always; but a
        //      *failed* charge never reaches classification, so a
        //      mid-round quantum break leaves exactly one counted,
        //      unclassified vertex.
        //   3. feasibility classification — only for charged vertices.
        if params.representation.is_assignment_oriented() {
            // Assignment-oriented levels fix one task, so the round's
            // candidates are exactly one row of the persistent candidate
            // column: sync it in O(Δ) from the journal and read completions
            // straight out of it — no raw candidate list, no O(P) refill.
            // Round `skip` expands the (skip+1)-th unassigned task of the
            // level order. The assigned set is constant for the whole
            // expansion (charges never assign), so consecutive rounds can
            // resume one forward scan instead of re-running `nth(skip)`
            // from the front — O(n) total across all rounds, not O(n²).
            let mut cursor = 0usize;
            'skip_rounds: for _skip in 0..=max_skips {
                let task = {
                    let mut found = None;
                    while let Some(&t) = self.level_task.get(cursor) {
                        cursor += 1;
                        if !self.state.is_assigned(t) {
                            found = Some(t);
                            break;
                        }
                    }
                    match found {
                        Some(t) => t,
                        None => break, // no unassigned task remains at all
                    }
                };
                // The task is fixed for the round, so its deadline is too.
                let deadline = params.tasks[task].deadline();
                if let Some(topo) = self.shards {
                    // Shard-first: screen the nodes against the level's task
                    // and enumerate processors only inside the winning
                    // shards. Like the batch screen, the per-shard bounds
                    // cost no quantum — the saving the sharded bench point
                    // measures.
                    let t_shard = self.prof.start();
                    self.rank_shards(topo, task);
                    self.prof.stop(Stage::Shard, t_shard);
                    if self.shard_rank.is_empty() {
                        // The task exists but no shard can meet its
                        // deadline: move on to the next task, as the flat
                        // path would after evaluating (and charging) every
                        // processor.
                        self.stats.level_skips += 1;
                        continue;
                    }
                    // Sync only the winning shards' column segments — the
                    // losing shards stay stale and unpaid-for.
                    let t_fill = self.prof.start();
                    for i in 0..self.shard_rank.len() {
                        let s = self.shard_rank[i].1;
                        self.state
                            .ensure_candidate_segment(params.tasks, params.comm, task, s);
                    }
                    self.prof.stop(Stage::Fill, t_fill);
                    t_cost = self.prof.start();
                    let col = self.state.comp_column(task);
                    for &(_, s) in self.shard_rank.iter() {
                        let (lo, hi) = topo.node_range(s);
                        for (off, &completion) in col[lo..hi].iter().enumerate() {
                            let p = lo + off;
                            if self.stats.vertices_generated >= cap {
                                break 'skip_rounds; // cap reached mid-expansion
                            }
                            let charged = meter.charge_vertex();
                            self.stats.vertices_generated += 1;
                            if !charged {
                                break 'skip_rounds; // quantum ran out mid-expansion
                            }
                            if completion <= deadline {
                                self.stats.feasible_children += 1;
                                if packable {
                                    self.ckeys.push(pack_candidate(completion, p, task));
                                } else {
                                    self.children.push(Candidate {
                                        task,
                                        processor: p,
                                        completion,
                                        makespan: base_makespan.max(completion),
                                        deadline,
                                    });
                                }
                            } else {
                                self.stats.infeasible_children += 1;
                            }
                        }
                    }
                    self.prof.stop(Stage::Cost, t_cost.take());
                } else {
                    let t_fill = self.prof.start();
                    let col = self.state.candidate_column(params.tasks, params.comm, task);
                    self.prof.stop(Stage::Fill, t_fill);
                    t_cost = self.prof.start();
                    for (p, &completion) in col.iter().enumerate() {
                        if self.stats.vertices_generated >= cap {
                            break 'skip_rounds; // cap reached mid-expansion
                        }
                        let charged = meter.charge_vertex();
                        self.stats.vertices_generated += 1;
                        if !charged {
                            break 'skip_rounds; // quantum ran out mid-expansion
                        }
                        if completion <= deadline {
                            self.stats.feasible_children += 1;
                            if packable {
                                self.ckeys.push(pack_candidate(completion, p, task));
                            } else {
                                self.children.push(Candidate {
                                    task,
                                    processor: p,
                                    completion,
                                    makespan: base_makespan.max(completion),
                                    deadline,
                                });
                            }
                        } else {
                            self.stats.infeasible_children += 1;
                        }
                    }
                    self.prof.stop(Stage::Cost, t_cost.take());
                }
                if !self.children.is_empty() || !self.ckeys.is_empty() {
                    break;
                }
                self.stats.level_skips += 1;
            }
        } else {
            // Sequence-oriented levels fix a processor and branch over
            // tasks: the candidates span many tasks, so the per-task
            // column does not apply and the round keeps the batched
            // completions_into evaluation.
            'skip_rounds: for skip in 0..=max_skips {
                params.representation.raw_candidates_into(
                    self.state,
                    self.level_task,
                    skip,
                    self.raw,
                );
                // Screened (phase-infeasible) tasks are invisible to the
                // search and cost no quantum. An empty round means no viable
                // task is left at all — skipping further cannot help.
                self.raw.retain(|&(t, _)| self.viable[t]);
                if self.raw.is_empty() {
                    break;
                }
                let t_fill = self.prof.start();
                self.state
                    .completions_into(params.tasks, params.comm, self.raw, self.comp);
                self.prof.stop(Stage::Fill, t_fill);
                t_cost = self.prof.start();
                for (i, &(task, p)) in self.raw.iter().enumerate() {
                    if self.stats.vertices_generated >= cap {
                        break 'skip_rounds; // cap reached mid-expansion
                    }
                    let charged = meter.charge_vertex();
                    self.stats.vertices_generated += 1;
                    if !charged {
                        break 'skip_rounds; // quantum ran out mid-expansion
                    }
                    let completion = self.comp[i];
                    if params.tasks[task].meets_deadline(completion) {
                        self.stats.feasible_children += 1;
                        if packable {
                            self.ckeys.push(pack_candidate(completion, p.index(), task));
                        } else {
                            self.children.push(Candidate {
                                task,
                                processor: p.index(),
                                completion,
                                makespan: base_makespan.max(completion),
                                deadline: params.tasks[task].deadline(),
                            });
                        }
                    } else {
                        self.stats.infeasible_children += 1;
                    }
                }
                self.prof.stop(Stage::Cost, t_cost.take());
                if !self.children.is_empty() || !self.ckeys.is_empty() {
                    break;
                }
                self.stats.level_skips += 1;
            }
        }
        // Closes the span a mid-loop budget break left open; ordering and
        // pushing the children is its own `select` stage from here on.
        self.prof.stop(Stage::Cost, t_cost);
        let t_select = self.prof.start();
        let depth = self.state.depth() + 1;
        // Push lowest-priority first so the highest-priority child is popped
        // next (CL front). Bulk-extend the arena and CL rather than pushing
        // per child: the capacity checks amortise and the Node construction
        // stays in one tight loop.
        let base_id = self.arena.len();
        let mut leaf = None;
        if packable {
            // The packed key's integer order is `(completion, processor,
            // task)`. For `EarliestCompletion` that *is* the policy key;
            // for `LoadBalance` — `(makespan, completion, processor, task)`
            // — it is equivalent because every makespan here is
            // `base_makespan.max(completion)` for the one shared
            // `base_makespan`: `max` is monotone in `completion`, so
            // distinct completions order the makespans identically, and
            // equal completions give equal makespans, falling through to
            // the same `(processor, task)` tiebreak. A raw `u128` sort
            // replaces a 40-byte-element comparator sort — on wide sharded
            // expansions this is most of the select stage.
            self.ckeys.sort_unstable();
            self.arena.extend(self.ckeys.iter().rev().map(|&k| Node {
                parent: cv,
                depth,
                task: k as u32 as usize,
                processor: ProcessorId::new((k >> 32) as u32 as usize),
            }));
            if params.provenance {
                self.node_costs.extend(self.ckeys.iter().rev().map(|&k| {
                    let completion = Time::from_micros((k >> 64) as u64);
                    (completion, base_makespan.max(completion))
                }));
            }
            self.cl.extend(base_id..base_id + self.ckeys.len());
            if !self.ckeys.is_empty() {
                self.stats.deepest = self.stats.deepest.max(depth);
            }
            for (i, &k) in self.ckeys.iter().rev().enumerate() {
                let id = base_id + i;
                let makespan = base_makespan.max(Time::from_micros((k >> 64) as u64));
                // Every generated feasible vertex is a candidate "best".
                let key = (depth, makespan);
                if key.0 > self.best.0 || (key.0 == self.best.0 && key.1 < self.best.1) {
                    self.best = (depth, makespan, Some(id));
                }
                if depth == self.n_viable {
                    // Prefer the highest-priority leaf of this expansion:
                    // since we iterate lowest-priority first, keep
                    // overwriting.
                    leaf = Some((id, makespan));
                }
            }
        } else {
            params.child_order.sort(self.children);
            self.arena
                .extend(self.children.iter().rev().map(|child| Node {
                    parent: cv,
                    depth,
                    task: child.task,
                    processor: ProcessorId::new(child.processor),
                }));
            if params.provenance {
                self.node_costs.extend(
                    self.children
                        .iter()
                        .rev()
                        .map(|c| (c.completion, c.makespan)),
                );
            }
            self.cl.extend(base_id..base_id + self.children.len());
            if !self.children.is_empty() {
                self.stats.deepest = self.stats.deepest.max(depth);
            }
            for (i, child) in self.children.iter().rev().enumerate() {
                let id = base_id + i;
                // Every generated feasible vertex is a candidate "best".
                let key = (depth, child.makespan);
                if key.0 > self.best.0 || (key.0 == self.best.0 && key.1 < self.best.1) {
                    self.best = (depth, child.makespan, Some(id));
                }
                if depth == self.n_viable {
                    // Prefer the highest-priority leaf of this expansion:
                    // since we iterate lowest-priority first, keep
                    // overwriting.
                    leaf = Some((id, child.makespan));
                }
            }
        }
        self.prof.stop(Stage::Select, t_select);
        leaf
    }

    /// The shard-first screen: tests every shard of the topology against
    /// the level's task with an aggregate feasibility bound and leaves the
    /// best-ranked feasible shards (up to the topology's fanout) in
    /// `self.shard_rank`. The expansion then enumerates processors only
    /// inside those winners, reading completions from the task's candidate
    /// column.
    ///
    /// The screen bound for shard `s` is
    /// `max(shard_min(s), earliest_resource_start) + p + min_node_cost(s)`,
    /// a lower bound on the completion of the task on *every* processor of
    /// the shard (and exact on its best one), so a screened-out shard truly
    /// has no feasible member. Only the fanout cut is heuristic. Shards are
    /// ranked by `(bound, shard index)` — a total order, so the generated
    /// candidate set is deterministic.
    fn rank_shards(&mut self, topo: &rt_task::TopologySpec, task: usize) {
        let t = &self.params.tasks[task];
        self.stats.shard_screens += 1;
        self.shard_rank.clear();
        let earliest = self.state.earliest_resource_start(t);
        let mut pruned = 0u64;
        for s in 0..topo.nodes() {
            let start = self.state.shard_min(s).max(earliest);
            let bound = start + t.processing_time() + topo.min_node_cost(t.affinity(), s);
            if t.meets_deadline(bound) {
                self.shard_rank.push((bound, s));
            } else {
                pruned += 1;
            }
        }
        self.shard_rank.sort_unstable();
        let fanout = topo.fanout().min(self.shard_rank.len());
        pruned += (self.shard_rank.len() - fanout) as u64;
        self.stats.shards_pruned += pruned;
        self.shard_rank.truncate(fanout);
    }

    /// Expands the root, then walks the candidate list until a leaf, a
    /// dead-end, a budget break or a pruning bound.
    fn dfs_loop(&mut self, meter: &mut SchedulingMeter) -> Termination {
        let mut cv = None;
        loop {
            if let Some((leaf_id, leaf_makespan)) = self.expand(cv, meter) {
                self.best = (self.n_viable, leaf_makespan, Some(leaf_id));
                return Termination::Leaf;
            }
            if meter.exhausted()
                || self
                    .params
                    .vertex_cap
                    .is_some_and(|cap| self.stats.vertices_generated >= cap)
            {
                return Termination::QuantumExhausted;
            }
            let Some(next) = self.cl.pop() else {
                return Termination::DeadEnd;
            };
            if self.arena[next].parent != cv {
                self.stats.backtracks += 1;
                if self
                    .params
                    .pruning
                    .backtrack_limit
                    .is_some_and(|limit| self.stats.backtracks > limit)
                {
                    return Termination::Pruned;
                }
            }
            self.switch_to(next, true);
            cv = Some(next);
        }
    }
}

/// The phase-level viability screen over the whole batch: fills `viable`
/// with one verdict per task and returns the evidence for rejected tasks
/// (empty unless [`SearchParams::provenance`] is set). One short-circuiting
/// loop serves both modes: a rejected task has scanned every processor, so
/// its earliest-completion witness falls out of the same pass.
fn screen_batch(params: &SearchParams<'_>, viable: &mut Vec<bool>) -> Vec<ScreenEvidence> {
    let mut screened_evidence: Vec<ScreenEvidence> = Vec::new();
    for (idx, t) in params.tasks.iter().enumerate() {
        let mut witness: Option<ScreenProbe> = None;
        let ok = ProcessorId::all(params.initial_finish.len()).any(|p| {
            let available = params.initial_finish[p.index()];
            let demand = params.comm.demand(t, p);
            let completion = available + demand;
            if params.provenance && witness.is_none_or(|w| completion < w.completion) {
                witness = Some(ScreenProbe {
                    processor: p,
                    available,
                    demand,
                    completion,
                });
            }
            t.meets_deadline(completion)
        });
        viable.push(ok);
        if let (false, Some(witness)) = (ok, witness) {
            screened_evidence.push(ScreenEvidence { task: idx, witness });
        }
    }
    screened_evidence
}

/// The runner-up of arena node `id`: its highest-ranked same-task sibling.
/// An expansion pushes its children as one contiguous block, lowest rank
/// first, so the siblings are the run of nodes around `id` that share its
/// parent and the best of them is the last same-task one — a scan of one
/// block, not of the arena.
fn runner_up(
    arena: &[Node],
    node_costs: &[(Time, Time)],
    id: usize,
) -> Option<PlacementAlternative> {
    let Node { parent, task, .. } = arena[id];
    let same = |j: &usize| arena[*j].task == task;
    let above = (id + 1..arena.len())
        .take_while(|&j| arena[j].parent == parent)
        .filter(same)
        .last();
    let pick = above.or_else(|| {
        (0..id)
            .rev()
            .take_while(|&j| arena[j].parent == parent)
            .find(same)
    });
    pick.map(|j| PlacementAlternative {
        processor: arena[j].processor,
        completion: node_costs[j].0,
        cost: node_costs[j].1,
    })
}

/// Root-first arena ids of the path ending at `id`.
fn path_to(arena: &[Node], id: usize) -> Vec<usize> {
    let mut path_ids = Vec::new();
    let mut cursor = Some(id);
    while let Some(i) = cursor {
        path_ids.push(i);
        cursor = arena[i].parent;
    }
    path_ids.reverse();
    path_ids
}

/// Decision evidence for the delivered path: each assignment's chosen cost
/// next to its runner-up. Reconstructed after the fact so collection cannot
/// perturb the search.
fn phase_provenance(
    arena: &[Node],
    node_costs: &[(Time, Time)],
    best_id: Option<usize>,
    screened: Vec<ScreenEvidence>,
) -> PhaseProvenance {
    let decisions = best_id.map_or_else(Vec::new, |best_id| {
        path_to(arena, best_id)
            .into_iter()
            .map(|id| {
                let (node, (completion, cost)) = (&arena[id], node_costs[id]);
                PlacementEvidence {
                    task: node.task,
                    processor: node.processor,
                    completion,
                    cost,
                    runner_up: runner_up(arena, node_costs, id),
                }
            })
            .collect()
    });
    PhaseProvenance {
        screened,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;
    use paragon_platform::HostParams;
    use rt_task::{AffinitySet, TaskId};

    fn mk_task(id: u64, p_us: u64, d_us: u64, aff: &[usize]) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_micros(p_us))
            .deadline(Time::from_micros(d_us))
            .affinity(
                aff.iter()
                    .map(|&k| ProcessorId::new(k))
                    .collect::<AffinitySet>(),
            )
            .build()
    }

    fn free_meter() -> SchedulingMeter {
        SchedulingMeter::new(HostParams::free(), Duration::ZERO)
    }

    fn params<'a>(
        tasks: &'a [Task],
        comm: &'a CommModel,
        initial: &'a [Time],
        repr: &'a Representation,
        order: ChildOrder,
    ) -> SearchParams<'a> {
        SearchParams {
            tasks,
            comm,
            initial_finish: initial,
            representation: repr,
            child_order: order,
            now: Time::ZERO,
            vertex_cap: Some(100_000),
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        }
    }

    #[test]
    fn empty_batch_is_a_trivial_leaf() {
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&[], &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.assignments.is_empty());
        assert!(out.is_complete(0));
    }

    #[test]
    fn assignment_oriented_schedules_everything_feasible() {
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 3];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(6));
        // load balancing spreads 6 equal tasks over 3 processors, 2 each
        assert_eq!(out.processors_used(), 3);
        let max_done = out.assignments.iter().map(|a| a.completion).max().unwrap();
        assert_eq!(max_done, Time::from_micros(200));
    }

    #[test]
    fn all_scheduled_tasks_meet_deadlines() {
        // Mixed feasibility: generous and impossible deadlines.
        let tasks = vec![
            mk_task(0, 100, 150, &[]),
            mk_task(1, 100, 90, &[]), // infeasible: p=100 > d=90
            mk_task(2, 100, 300, &[]),
        ];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        // task 1 can never be scheduled: the phase still ends at a leaf of
        // the *screened* tree, covering the viable tasks but not the batch.
        assert_eq!(out.termination, Termination::Leaf);
        assert!(!out.is_complete(3));
        assert!(out.covers_viable());
        assert_eq!(out.n_viable, 2);
        assert_eq!(out.screened(), 1, "task 1 screened at phase level");
        assert!(out.assignments.iter().all(|a| a.task != 1));
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
    }

    #[test]
    fn quantum_exhaustion_returns_partial_schedule() {
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 4];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        // 10us quantum at 1us per vertex = 10 vertices = 2.5 expansions of 4
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(1)),
            Duration::from_micros(10),
        );
        let out = search_schedule(&p, &mut meter);
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert!(!out.assignments.is_empty(), "delivers what it found");
        assert!(out.assignments.len() < 50);
        assert_eq!(out.stats.vertices_generated, meter.vertices());
    }

    #[test]
    fn quantum_break_counts_the_uncharged_vertex() {
        // Accounting contract, step 2: the charge attempt that finds the
        // quantum exhausted is still counted as a generated vertex (so the
        // stats always equal `meter.vertices()`), but it is never
        // classified. 10us quantum at 1us per vertex: charges 1..=9 fill
        // 9us, charge 10 is the exact fill (succeeds, exhausts), charge 11
        // fails -> 11 counted, 10 classified.
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 4];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(1)),
            Duration::from_micros(10),
        );
        let out = search_schedule(&p, &mut meter);
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert_eq!(out.stats.vertices_generated, 11);
        assert_eq!(out.stats.vertices_generated, meter.vertices());
        assert_eq!(
            out.stats.feasible_children + out.stats.infeasible_children,
            out.stats.vertices_generated - 1,
            "exactly the one uncharged vertex goes unclassified"
        );
    }

    #[test]
    fn vertex_cap_break_classifies_every_counted_vertex() {
        // Accounting contract, step 1: the cap is checked *before* a vertex
        // is generated, so a mid-round cap break counts nothing — every
        // counted vertex carries a feasibility verdict. Cap 6 on a
        // 4-processor expansion breaks two candidates into the second round.
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 4];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.vertex_cap = Some(6);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert_eq!(out.stats.vertices_generated, 6, "never exceeds the cap");
        assert_eq!(
            out.stats.feasible_children + out.stats.infeasible_children,
            out.stats.vertices_generated,
            "a cap break leaves no unclassified vertex"
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        // One scratch carried across phases of very different shapes (sizes,
        // layouts, pruning, quantum pressure) must reproduce every fresh-run
        // outcome bit for bit — the clearing invariant of DESIGN.md §8.
        let comm_free = CommModel::free();
        let comm_slow = CommModel::constant(Duration::from_micros(1_000));
        let asg = Representation::assignment_oriented();
        let seq = Representation::sequence_oriented();
        let big: Vec<Task> = (0..30).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let tight: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let affine = vec![mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])];
        type Scenario<'a> = (
            &'a [Task],
            &'a CommModel,
            &'a Representation,
            usize,
            Pruning,
            bool,
        );
        let scenarios: Vec<Scenario> = vec![
            (&big, &comm_free, &asg, 3, Pruning::default(), false),
            (&tight, &comm_free, &asg, 2, Pruning::default(), true),
            (&affine, &comm_slow, &asg, 2, Pruning::default(), true),
            (&big, &comm_free, &seq, 2, Pruning::default(), false),
            (
                &tight,
                &comm_free,
                &asg,
                2,
                Pruning {
                    depth_bound: Some(4),
                    backtrack_limit: Some(2),
                },
                false,
            ),
            // shrink back down: stale capacity must not leak into a small phase
            (&affine, &comm_free, &asg, 2, Pruning::default(), true),
        ];
        let mut scratch = SearchScratch::new();
        for (tasks, comm, repr, procs, pruning, provenance) in scenarios {
            let initial = vec![Time::ZERO; procs];
            let mut p = params(tasks, comm, &initial, repr, ChildOrder::LoadBalance);
            p.pruning = pruning;
            p.provenance = provenance;
            let fresh = search_schedule(&p, &mut free_meter());
            let reused = search_schedule_with(&p, &mut free_meter(), &mut scratch);
            assert_eq!(fresh.assignments, reused.assignments);
            assert_eq!(fresh.termination, reused.termination);
            assert_eq!(fresh.n_viable, reused.n_viable);
            assert_eq!(fresh.makespan, reused.makespan);
            assert_eq!(fresh.stats, reused.stats);
            assert_eq!(fresh.provenance, reused.provenance);
            scratch.recycle(reused.assignments);
        }
    }

    #[test]
    fn dead_end_when_nothing_fits() {
        // Two tasks, each alone feasible, but not both on one processor.
        let tasks = vec![mk_task(0, 100, 120, &[]), mk_task(1, 100, 120, &[])];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 1]; // single processor
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::DeadEnd);
        assert_eq!(
            out.assignments.len(),
            1,
            "best partial schedule has one task"
        );
    }

    #[test]
    fn sequence_oriented_dead_ends_where_assignment_oriented_succeeds() {
        // The paper's core conjecture, in miniature. Two processors; both
        // tasks have affinity only with P1 and deadlines too tight to pay
        // the communication cost. Sequence-oriented must give level 0's
        // P0 a task (infeasible) -> immediate dead-end. Assignment-oriented
        // just assigns both tasks to P1.
        let tasks = vec![mk_task(0, 100, 250, &[1]), mk_task(1, 100, 250, &[1])];
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let initial = [Time::ZERO; 2];

        let seq = Representation::sequence_oriented();
        let p = params(&tasks, &comm, &initial, &seq, ChildOrder::EarliestDeadline);
        let out_seq = search_schedule(&p, &mut free_meter());
        assert_eq!(out_seq.termination, Termination::DeadEnd);
        assert!(out_seq.assignments.is_empty());

        let asg = Representation::assignment_oriented();
        let p = params(&tasks, &comm, &initial, &asg, ChildOrder::LoadBalance);
        let out_asg = search_schedule(&p, &mut free_meter());
        assert_eq!(out_asg.termination, Termination::Leaf);
        assert!(out_asg.is_complete(2));
        assert!(out_asg.assignments.iter().all(|a| a.processor.index() == 1));
    }

    #[test]
    fn sequence_oriented_completes_balanced_feasible_case() {
        let tasks: Vec<Task> = (0..4).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::sequence_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::EarliestDeadline);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(4));
        // round-robin: levels 0,2 on P0 and 1,3 on P1
        assert_eq!(out.processors_used(), 2);
    }

    #[test]
    fn backtracking_recovers_from_greedy_mistake() {
        // Task A (earliest deadline, considered first) fits on either
        // processor; task B only fits on P0 *and only if A is not there*.
        // Greedy load-balance puts A on P0 first (both empty, tie broken by
        // processor index), B then fails everywhere, and the search must
        // backtrack to try A on P1.
        let tasks = vec![
            mk_task(0, 100, 150, &[0, 1]), // A: local everywhere, must start immediately
            mk_task(1, 100, 150, &[0]),    // B: affine P0 only; comm 1000 -> infeasible elsewhere
        ];
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(2));
        assert!(out.stats.backtracks > 0, "needed at least one backtrack");
        assert!(out.stats.undos > 0, "branch switch reverted assignments");
        let a = out.assignments.iter().find(|a| a.task == 0).unwrap();
        let b = out.assignments.iter().find(|a| a.task == 1).unwrap();
        assert_eq!(a.processor.index(), 1);
        assert_eq!(b.processor.index(), 0);
    }

    #[test]
    fn vertex_cap_bounds_unbudgeted_search() {
        // Two processors fit 4 tasks each by the 400us deadline; with 10
        // tasks the last two are unschedulable and force exponential
        // backtracking through every arrangement of the first eight.
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.vertex_cap = Some(500);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert!(out.stats.vertices_generated <= 501);
    }

    #[test]
    fn depth_bound_limits_schedule_length() {
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: Some(4),
            backtrack_limit: None,
        };
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.assignments.len(), 4, "bounded at depth 4");
        assert!(
            out.stats.depth_prunes > 0,
            "the bound actually refused expansions"
        );
        assert_ne!(out.termination, Termination::Leaf);
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
    }

    #[test]
    fn backtrack_limit_prunes_the_search() {
        // Force heavy backtracking: 10 equal tasks, capacity for 8.
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: None,
            backtrack_limit: Some(3),
        };
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Pruned);
        assert!(out.stats.backtracks <= 4);
        assert!(!out.assignments.is_empty(), "best partial still delivered");
    }

    #[test]
    fn zero_backtrack_limit_is_one_dive() {
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: None,
            backtrack_limit: Some(0),
        };
        let out = search_schedule(&p, &mut free_meter());
        // one straight dive schedules the 8 that fit, then stops at the
        // first backtrack
        assert_eq!(out.termination, Termination::Pruned);
        assert_eq!(out.assignments.len(), 8);
    }

    #[test]
    fn pruning_defaults_do_not_bind() {
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        assert_eq!(p.pruning, Pruning::default());
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
    }

    #[test]
    fn stats_are_consistent() {
        let tasks: Vec<Task> = (0..5).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(
            out.stats.feasible_children + out.stats.infeasible_children,
            out.stats.vertices_generated
        );
        assert_eq!(out.stats.deepest, 5);
        assert!(out.stats.expansions >= 5);
    }

    #[test]
    fn initial_backlog_delays_completions() {
        let tasks = vec![mk_task(0, 100, 100_000, &[])];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        // P0 busy until 5_000, P1 until 200
        let initial = [Time::from_micros(5_000), Time::from_micros(200)];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.assignments[0].processor.index(), 1);
        assert_eq!(out.assignments[0].completion, Time::from_micros(300));
    }

    #[test]
    fn leaf_outcome_reports_real_makespan() {
        // Six equal 100us tasks balanced over three processors finish at
        // 200us; the outcome must carry that makespan, not a sentinel.
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 3];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert_eq!(out.makespan, Time::from_micros(200));
        let max_done = out.assignments.iter().map(|a| a.completion).max().unwrap();
        assert_eq!(out.makespan, max_done);
    }

    #[test]
    fn incremental_dive_avoids_quadratic_replay() {
        // A straight dive: every pop is a child of the vertex just expanded,
        // so the incremental engine applies exactly one assignment per pop
        // (zero undos) while a root replay would redo the whole shared
        // prefix — `replay_avoided` counts those skipped applies.
        let n: usize = 64;
        let tasks: Vec<Task> = (0..n as u64)
            .map(|i| mk_task(i, 100, 100_000, &[]))
            .collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: None,
            backtrack_limit: Some(0),
        };
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.assignments.len(), n);
        assert_eq!(out.stats.undos, 0, "a dive never leaves its own branch");
        // Pops happen at depths 1..=n-1 (the leaf is detected during its
        // parent's expansion); the pop at depth d shares a prefix of d-1.
        let expected = ((n - 1) * (n - 2) / 2) as u64;
        assert_eq!(out.stats.replay_avoided, expected);
    }

    #[test]
    fn incremental_matches_replay_oracle() {
        // In-crate differential smoke test (the seeded 500-instance sweep
        // lives in tests/engine_differential.rs): both engines must agree
        // bit-for-bit on every outcome field, including the stats.
        let comm_free = CommModel::free();
        let comm_slow = CommModel::constant(Duration::from_micros(1_000));
        let asg = Representation::assignment_oriented();
        let seq = Representation::sequence_oriented();
        let scenarios: Vec<(Vec<Task>, &CommModel, &Representation, usize, Pruning)> = vec![
            // backtracking-heavy: 10 tasks, capacity 8
            (
                (0..10).map(|i| mk_task(i, 100, 400, &[])).collect(),
                &comm_free,
                &asg,
                2,
                Pruning::default(),
            ),
            // affinity forces a greedy mistake + recovery
            (
                vec![mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])],
                &comm_slow,
                &asg,
                2,
                Pruning::default(),
            ),
            // sequence-oriented with skips
            (
                (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect(),
                &comm_free,
                &seq,
                3,
                Pruning::default(),
            ),
            // mixed feasibility under a depth bound
            (
                (0..8)
                    .map(|i| mk_task(i, 100, if i % 3 == 0 { 90 } else { 100_000 }, &[]))
                    .collect(),
                &comm_free,
                &asg,
                2,
                Pruning {
                    depth_bound: Some(3),
                    backtrack_limit: None,
                },
            ),
            // backtrack-limited dead-end hunt
            (
                (0..10).map(|i| mk_task(i, 100, 400, &[])).collect(),
                &comm_free,
                &asg,
                2,
                Pruning {
                    depth_bound: None,
                    backtrack_limit: Some(3),
                },
            ),
        ];
        for (tasks, comm, repr, procs, pruning) in scenarios {
            let initial = vec![Time::ZERO; procs];
            let mut p = params(&tasks, comm, &initial, repr, ChildOrder::LoadBalance);
            p.pruning = pruning;
            let inc = search_schedule(&p, &mut free_meter());
            let rep = search_schedule_replay(&p, &mut free_meter());
            assert_eq!(inc.assignments, rep.assignments);
            assert_eq!(inc.termination, rep.termination);
            assert_eq!(inc.n_viable, rep.n_viable);
            assert_eq!(inc.makespan, rep.makespan);
            assert_eq!(inc.stats, rep.stats);
        }
    }

    #[test]
    fn provenance_records_screen_operands_and_placement_costs() {
        // Task 1 cannot meet d=90 anywhere (completions 160, 100, 130): its
        // witness is the earliest-completion probe, P1. Tasks 0 and 2 are
        // placed in EDF order; each decision carries the highest-ranked
        // same-task sibling in LoadBalance order as its runner-up.
        let tasks = vec![
            mk_task(0, 100, 150, &[]),
            mk_task(1, 100, 90, &[]),
            mk_task(2, 100, 400, &[]),
        ];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::from_micros(60), Time::ZERO, Time::from_micros(30)];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.provenance = true;
        let out = search_schedule(&p, &mut free_meter());
        let prov = out.provenance.as_ref().expect("provenance requested");
        let us = Time::from_micros;
        assert_eq!(
            prov.screened,
            vec![ScreenEvidence {
                task: 1,
                witness: ScreenProbe {
                    processor: ProcessorId::new(1),
                    available: Time::ZERO,
                    demand: Duration::from_micros(100),
                    completion: us(100),
                },
            }]
        );
        let alt = |p: usize, c: u64| PlacementAlternative {
            processor: ProcessorId::new(p),
            completion: us(c),
            cost: us(c),
        };
        assert_eq!(
            prov.decisions,
            vec![
                // Depth 1: P1 (makespan 100) beats P2 (130); P0 misses.
                PlacementEvidence {
                    task: 0,
                    processor: ProcessorId::new(1),
                    completion: us(100),
                    cost: us(100),
                    runner_up: Some(alt(2, 130)),
                },
                // Depth 2 over finish times [60, 100, 30]: P2 (130) beats
                // P0 (160) and P1 (200).
                PlacementEvidence {
                    task: 2,
                    processor: ProcessorId::new(2),
                    completion: us(130),
                    cost: us(130),
                    runner_up: Some(alt(0, 160)),
                },
            ]
        );
        for (d, a) in prov.decisions.iter().zip(&out.assignments) {
            assert_eq!(
                (d.task, d.processor, d.completion),
                (a.task, a.processor, a.completion)
            );
        }

        // Equal earliest completions tie to the lowest processor index.
        let flat = [Time::ZERO; 3];
        let mut p3 = params(&tasks, &comm, &flat, &repr, ChildOrder::LoadBalance);
        p3.provenance = true;
        let out3 = search_schedule(&p3, &mut free_meter());
        let screened = &out3.provenance.as_ref().unwrap().screened;
        assert_eq!(screened.len(), 1);
        assert_eq!(screened[0].witness.processor, ProcessorId::new(0));

        // Collection is record-only: schedule and stats are bit-identical
        // with provenance off.
        let p2 = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out2 = search_schedule(&p2, &mut free_meter());
        assert_eq!(out.assignments, out2.assignments);
        assert_eq!(out.stats, out2.stats);
        assert!(out2.provenance.is_none());
    }

    #[test]
    fn tight_deadline_respects_phase_end_bound() {
        // Deadline 500; execution cannot start before the planned phase end
        // folded into initial_finish = 450; p = 100 -> completion 550 > 500:
        // infeasible, so nothing is scheduled.
        let tasks = vec![mk_task(0, 100, 500, &[])];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::from_micros(450)];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::DeadEnd);
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn one_node_topology_is_bit_identical_to_constant() {
        use rt_task::TopologySpec;
        let c = Duration::from_micros(2_000);
        let tasks: Vec<Task> = (0..12)
            .map(|i| mk_task(i, 200 + i * 37, 40_000, &[(i as usize) % 4]))
            .collect();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 8];

        let flat_comm = CommModel::constant(c);
        let topo_comm = CommModel::hierarchical(TopologySpec::flat(8, c));
        let pf = params(&tasks, &flat_comm, &initial, &repr, ChildOrder::LoadBalance);
        let pt = params(&tasks, &topo_comm, &initial, &repr, ChildOrder::LoadBalance);
        let flat = search_schedule(&pf, &mut free_meter());
        let topo = search_schedule(&pt, &mut free_meter());
        assert_eq!(flat.assignments, topo.assignments);
        assert_eq!(flat.termination, topo.termination);
        assert_eq!(flat.makespan, topo.makespan);
        assert_eq!(
            flat.stats, topo.stats,
            "1-node topology takes the flat path"
        );
        assert_eq!(topo.stats.shard_screens, 0, "no shard screen at 1 node");
    }

    #[test]
    fn sharded_search_prunes_the_candidate_loop() {
        use rt_task::TopologySpec;
        // 16 processors, 4 nodes of 4, fanout 2: each expansion may evaluate
        // at most 8 processors instead of all 16.
        let topo = TopologySpec::new(16, 4, 2, 0, 1_000, 2_000);
        let comm = CommModel::hierarchical(topo);
        let tasks: Vec<Task> = (0..20)
            .map(|i| mk_task(i, 300, 200_000, &[(i as usize) % 16]))
            .collect();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 16];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(20));
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
        assert!(out.stats.shard_screens > 0, "shard screen ran");
        assert!(out.stats.shards_pruned > 0, "fanout cut pruned shards");
        let per_expansion = out.stats.vertices_generated as f64 / out.stats.expansions as f64;
        assert!(
            per_expansion <= 8.0 + f64::EPSILON,
            "sharded expansion evaluated {per_expansion} candidates on average, \
             expected at most fanout * node size = 8"
        );
    }

    #[test]
    fn sharded_screen_never_rules_out_a_feasible_placement() {
        use rt_task::TopologySpec;
        // Tight deadlines force the screen to discard shards; with fanout
        // covering every node the cut is exact, so the sharded search must
        // schedule at least as many tasks as deadline feasibility allows on
        // its best shard. Compare against the flat hierarchical cost model
        // run without sharding (sequence of a 1-node gate is not available,
        // so compare viability: every task the flat run schedules, the
        // sharded run schedules too).
        let topo = TopologySpec::new(8, 4, 1, 0, 500, 500).with_fanout(4);
        let comm = CommModel::hierarchical(topo);
        let tasks: Vec<Task> = (0..10)
            .map(|i| mk_task(i, 400, 1_200 + i * 400, &[(i as usize) % 8]))
            .collect();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 8];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        // Full fanout = no heuristic cut: the screen only drops shards whose
        // *best* processor already misses the deadline, so the search still
        // covers every viable task.
        assert!(out.covers_viable());
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
    }
}
