//! Seeded differential property test for the incremental search engine.
//!
//! The production engine maintains one `PathState` with apply/undo; the
//! `replay-oracle` feature keeps the pre-incremental engine alive, which
//! rebuilds the state from the root on every pop. Both run the identical
//! search (same expansion order, same bookkeeping), so on every instance
//! they must agree bit-for-bit on the whole `SearchOutcome` — assignments,
//! termination, viability count, makespan and every stats counter.
//!
//! The sweep spans both representations, all task and child orderings,
//! random affinities, resource requests, tight and loose deadlines, busy
//! initial finish times, pruning bounds, vertex caps and constrained
//! quanta.

use paragon_des::{Duration, SimRng, Time};
use paragon_platform::{HostParams, SchedulingMeter};
use rt_task::{AffinitySet, CommModel, ProcessorId, ResourceEats, ResourceRequest, Task, TaskId};
use sched_search::{
    search_schedule, search_schedule_replay, search_schedule_with, ChildOrder, ProcessorOrder,
    Pruning, Representation, SearchParams, SearchScratch, TaskOrder,
};

const INSTANCES: u64 = 500;

fn random_tasks(rng: &mut SimRng, n: usize, workers: usize) -> Vec<Task> {
    (0..n)
        .map(|i| {
            let p = rng.uniform_u64(50..500);
            // Mix laxity classes: ~40% tight (little slack, heavy
            // backtracking and screening), the rest loose.
            let deadline = if rng.bernoulli(0.4) {
                p + rng.uniform_u64(0..300)
            } else {
                rng.uniform_u64(1_000..100_000)
            };
            let mut b = Task::builder(TaskId::new(i as u64))
                .processing_time(Duration::from_micros(p))
                .deadline(Time::from_micros(deadline));
            if rng.bernoulli(0.3) {
                // Restrict to a random non-empty subset of the workers.
                let keep: Vec<ProcessorId> = (0..workers)
                    .filter(|_| rng.bernoulli(0.5))
                    .map(ProcessorId::new)
                    .collect();
                if !keep.is_empty() {
                    b = b.affinity(keep.into_iter().collect::<AffinitySet>());
                }
            }
            if rng.bernoulli(0.2) {
                let r = rng.uniform_usize(0..3);
                let req = if rng.bernoulli(0.5) {
                    ResourceRequest::shared(r)
                } else {
                    ResourceRequest::exclusive(r)
                };
                b = b.resources(vec![req]);
            }
            b.build()
        })
        .collect()
}

/// One generated sweep instance: everything a `SearchParams` borrows, plus
/// the meter configuration, owned so several engines can run it.
struct Instance {
    tasks: Vec<Task>,
    comm: CommModel,
    initial: Vec<Time>,
    representation: Representation,
    child_order: ChildOrder,
    pruning: Pruning,
    vertex_cap: Option<u64>,
    resources: ResourceEats,
    provenance: bool,
    /// `Some(q)` = a 1 µs/vertex host with quantum `q`; `None` = free host.
    quantum: Option<Duration>,
}

impl Instance {
    fn params(&self) -> SearchParams<'_> {
        SearchParams {
            tasks: &self.tasks,
            comm: &self.comm,
            initial_finish: &self.initial,
            representation: &self.representation,
            child_order: self.child_order,
            now: Time::ZERO,
            vertex_cap: self.vertex_cap,
            pruning: self.pruning,
            resources: self.resources.clone(),
            provenance: self.provenance,
        }
    }

    /// Identical meters for every engine run of this instance.
    fn meter(&self) -> SchedulingMeter {
        match self.quantum {
            Some(q) => SchedulingMeter::new(HostParams::new(Duration::from_micros(1)), q),
            None => SchedulingMeter::new(HostParams::free(), Duration::ZERO),
        }
    }
}

fn random_instance(rng: &mut SimRng) -> Instance {
    let n = rng.uniform_usize(0..24);
    let workers = rng.uniform_usize(1..5);
    let tasks = random_tasks(rng, n, workers);
    let comm = match rng.uniform_usize(0..3) {
        0 => CommModel::free(),
        1 => CommModel::constant(Duration::from_micros(50)),
        _ => CommModel::constant(Duration::from_micros(2_000)),
    };
    let initial: Vec<Time> = (0..workers)
        .map(|_| Time::from_micros(rng.uniform_u64(0..300)))
        .collect();
    let representation = if rng.bernoulli(0.5) {
        Representation::AssignmentOriented {
            task_order: *rng.choose(&[
                TaskOrder::EarliestDeadline,
                TaskOrder::MinSlack,
                TaskOrder::Arrival,
                TaskOrder::ShortestProcessing,
            ]),
        }
    } else {
        // Sweep both processor orders and the skip variant — the
        // skipping path drives the per-skip raw-candidate buffer.
        Representation::SequenceOriented {
            processor_order: *rng.choose(&[ProcessorOrder::RoundRobin, ProcessorOrder::FillFirst]),
            skip_processors: rng.bernoulli(0.5),
        }
    };
    let child_order = *rng.choose(&[
        ChildOrder::LoadBalance,
        ChildOrder::EarliestCompletion,
        ChildOrder::EarliestDeadline,
        ChildOrder::None,
    ]);
    let pruning = Pruning {
        depth_bound: rng
            .bernoulli(0.3)
            .then(|| rng.uniform_usize(1..n.max(1) + 2)),
        backtrack_limit: rng.bernoulli(0.3).then(|| rng.uniform_u64(0..6)),
    };
    // Small caps force QuantumExhausted mid-expansion on some
    // instances; the generous default just guards blowups.
    let vertex_cap = if rng.bernoulli(0.3) {
        Some(rng.uniform_u64(5..300))
    } else {
        Some(20_000)
    };
    let mut resources = ResourceEats::new();
    if rng.bernoulli(0.3) {
        resources.commit(
            &[ResourceRequest::exclusive(rng.uniform_usize(0..3))],
            Time::from_micros(rng.uniform_u64(1..500)),
        );
    }
    let provenance = rng.bernoulli(0.3);
    // Free on most instances, a tight quantum with a real per-vertex cost
    // on the rest.
    let quantum = rng
        .bernoulli(0.3)
        .then(|| Duration::from_micros(rng.uniform_u64(10..2_000)));
    Instance {
        tasks,
        comm,
        initial,
        representation,
        child_order,
        pruning,
        vertex_cap,
        resources,
        provenance,
        quantum,
    }
}

#[test]
fn incremental_engine_matches_replay_oracle_over_random_instances() {
    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut total_undos = 0u64;
    let mut total_screened = 0u64;
    let mut leaves = 0u64;
    let mut provenance_decisions = 0u64;
    let mut scratch = SearchScratch::new();

    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let inst = random_instance(&mut rng);
        let provenance = inst.provenance;
        let params = inst.params();
        let mut meter_inc = inst.meter();
        let mut meter_rep = inst.meter();
        let mut meter_scr = inst.meter();

        let inc = search_schedule(&params, &mut meter_inc);
        let rep = search_schedule_replay(&params, &mut meter_rep);
        // Third run through ONE scratch carried across all instances: the
        // reuse path must be bit-identical no matter what the previous
        // instance left behind in the buffers.
        let scr = search_schedule_with(&params, &mut meter_scr, &mut scratch);

        assert_eq!(inc.assignments, rep.assignments, "instance {i}");
        assert_eq!(inc.termination, rep.termination, "instance {i}");
        assert_eq!(inc.n_viable, rep.n_viable, "instance {i}");
        assert_eq!(inc.makespan, rep.makespan, "instance {i}");
        assert_eq!(inc.stats, rep.stats, "instance {i}");
        assert_eq!(inc.provenance, rep.provenance, "instance {i}");
        assert_eq!(meter_inc.vertices(), meter_rep.vertices(), "instance {i}");
        assert_eq!(meter_inc.consumed(), meter_rep.consumed(), "instance {i}");

        assert_eq!(inc.assignments, scr.assignments, "scratch instance {i}");
        assert_eq!(inc.termination, scr.termination, "scratch instance {i}");
        assert_eq!(inc.n_viable, scr.n_viable, "scratch instance {i}");
        assert_eq!(inc.makespan, scr.makespan, "scratch instance {i}");
        assert_eq!(inc.stats, scr.stats, "scratch instance {i}");
        assert_eq!(inc.provenance, scr.provenance, "scratch instance {i}");
        assert_eq!(meter_inc.vertices(), meter_scr.vertices(), "instance {i}");
        assert_eq!(meter_inc.consumed(), meter_scr.consumed(), "instance {i}");
        scratch.recycle(scr.assignments);

        total_undos += inc.stats.undos;
        total_screened += inc.stats.screened_tasks;
        if provenance {
            provenance_decisions += inc
                .provenance
                .as_ref()
                .map_or(0, |p| p.decisions.len() as u64);
        }
        if inc.covers_viable() {
            leaves += 1;
        }
    }

    // The sweep must actually exercise the interesting machinery, or the
    // equality checks above are vacuous.
    assert!(total_undos > 0, "no instance ever backtracked");
    assert!(total_screened > 0, "no instance ever screened a task");
    assert!(leaves > 0, "no instance ever reached a leaf");
    assert!(leaves < INSTANCES, "every instance trivially completed");
    assert!(
        provenance_decisions > 0,
        "no provenance instance ever recorded a placement decision"
    );
}

/// The stage profiler's neutrality contract: profiling observes wall time
/// but never influences a scheduling decision, so a profiled scratch must
/// produce the bit-identical `SearchOutcome` and meter state as an
/// unprofiled one over the same 500 seeded instances as the oracle sweep. The profiled
/// runs must also actually attribute time, or the equalities are vacuous.
#[test]
fn profiled_search_is_bit_identical_to_unprofiled() {
    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut plain_scratch = SearchScratch::new();
    let mut prof_scratch = SearchScratch::new();
    prof_scratch.set_profiling(true);
    let mut attributed_ns = 0u64;

    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let inst = random_instance(&mut rng);
        let params = inst.params();

        let mut plain_meter = inst.meter();
        let mut prof_meter = inst.meter();
        let a = search_schedule_with(&params, &mut plain_meter, &mut plain_scratch);
        let b = search_schedule_with(&params, &mut prof_meter, &mut prof_scratch);
        let at = format!("instance {i}");
        assert_eq!(a.assignments, b.assignments, "{at}");
        assert_eq!(a.termination, b.termination, "{at}");
        assert_eq!(a.n_viable, b.n_viable, "{at}");
        assert_eq!(a.makespan, b.makespan, "{at}");
        assert_eq!(a.stats, b.stats, "{at}");
        assert_eq!(a.provenance, b.provenance, "{at}");
        assert_eq!(plain_meter.vertices(), prof_meter.vertices(), "{at}");
        assert_eq!(plain_meter.consumed(), prof_meter.consumed(), "{at}");
        let profile = prof_scratch.take_profile();
        attributed_ns += profile.total_ns();
        assert!(
            prof_scratch.profiling(),
            "take_profile must keep the profiler armed"
        );

        plain_scratch.recycle(a.assignments);
        prof_scratch.recycle(b.assignments);
    }

    assert!(attributed_ns > 0, "profiled sweep attributed no time");
}

/// The degenerate-topology contract: a 1-node/1-rack [`TopologySpec`] is the
/// paper's flat machine, so swapping every instance's flat `CommModel` for
/// the equivalent one-node hierarchical model must leave the entire
/// `SearchOutcome` — assignments, termination, viability count, makespan,
/// every stats counter, provenance and the meter — bit-identical across the
/// same 500 seeded instances. The shard-first candidate screen must never
/// engage (it needs >= 2 nodes), so its counters stay zero.
#[test]
fn one_node_topology_is_bit_identical_to_the_flat_model() {
    use rt_task::TopologySpec;

    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut flat_scratch = SearchScratch::new();
    let mut topo_scratch = SearchScratch::new();

    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let flat = random_instance(&mut rng);
        let workers = flat.initial.len();
        // Every flat sweep instance uses a Constant model (free() is the
        // zero-cost constant), so the equivalent degenerate topology is one
        // node, one rack, every class costing the same C.
        let topo = Instance {
            comm: CommModel::hierarchical(TopologySpec::flat(
                workers as u32,
                flat.comm.constant_cost(),
            )),
            tasks: flat.tasks.clone(),
            initial: flat.initial.clone(),
            representation: flat.representation.clone(),
            child_order: flat.child_order,
            pruning: flat.pruning,
            vertex_cap: flat.vertex_cap,
            resources: flat.resources.clone(),
            provenance: flat.provenance,
            quantum: flat.quantum,
        };

        let mut flat_meter = flat.meter();
        let mut topo_meter = topo.meter();
        let a = search_schedule_with(&flat.params(), &mut flat_meter, &mut flat_scratch);
        let b = search_schedule_with(&topo.params(), &mut topo_meter, &mut topo_scratch);
        let at = format!("instance {i}");
        assert_eq!(a.assignments, b.assignments, "{at}");
        assert_eq!(a.termination, b.termination, "{at}");
        assert_eq!(a.n_viable, b.n_viable, "{at}");
        assert_eq!(a.makespan, b.makespan, "{at}");
        assert_eq!(a.stats, b.stats, "{at}");
        assert_eq!(a.provenance, b.provenance, "{at}");
        assert_eq!(flat_meter.vertices(), topo_meter.vertices(), "{at}");
        assert_eq!(flat_meter.consumed(), topo_meter.consumed(), "{at}");
        assert_eq!(b.stats.shard_screens, 0, "{at}: 1 node must not shard");
        assert_eq!(b.stats.shards_pruned, 0, "{at}: 1 node must not shard");

        flat_scratch.recycle(a.assignments);
        topo_scratch.recycle(b.assignments);
    }
}

/// Witness soundness over the same 500 seeded flat instances plus a sharded
/// twin of each (the same tasks on a 2+-node hierarchical topology, where
/// the shard-first candidate screen engages), with provenance forced on:
///
/// 1. every screen witness is the argmin of `initial_finish[p] +
///    comm.demand(t, p)` over all `p` (ties to the lowest index) and misses
///    the deadline, so it proves the verdict alone;
/// 2. every runner-up is a same-parent, same-task sibling on another
///    processor: replaying the delivered prefix to the decision's parent
///    reproduces its completion and cost, and it meets the deadline;
/// 3. provenance is record-only: assignments, termination, viability,
///    makespan, stats and meter are identical with it on and off.
#[test]
fn provenance_witnesses_are_sound_and_record_only() {
    use rt_task::TopologySpec;
    use sched_search::PathState;

    let parent = SimRng::seed_from(0x5AD5_D1FF);
    let mut on_scratch = SearchScratch::new();
    let mut off_scratch = SearchScratch::new();
    let (mut witnesses, mut runners_up, mut sharded_witnesses) = (0u64, 0u64, 0u64);
    let mut shard_screens = 0u64;

    for i in 0..INSTANCES {
        let mut rng = parent.child(i);
        let mut flat = random_instance(&mut rng);
        flat.provenance = true;
        let workers = flat.initial.len();
        let mut variants = vec![("flat", flat)];
        if workers >= 2 {
            let base = &variants[0].1;
            let nodes = rng.uniform_usize(2..workers + 1) as u32;
            let racks = rng.uniform_usize(1..nodes as usize + 1) as u32;
            let intra = rng.uniform_u64(0..100);
            let topo = TopologySpec::new(workers as u32, nodes, racks, intra, 500, 2_000);
            let sharded = Instance {
                comm: CommModel::hierarchical(topo),
                tasks: base.tasks.clone(),
                initial: base.initial.clone(),
                representation: base.representation.clone(),
                child_order: base.child_order,
                pruning: base.pruning,
                vertex_cap: base.vertex_cap,
                resources: base.resources.clone(),
                provenance: true,
                quantum: base.quantum,
            };
            variants.push(("sharded", sharded));
        }

        for (kind, inst) in &variants {
            let at = format!("instance {i} {kind}");
            let on_params = inst.params();
            let mut off_params = inst.params();
            off_params.provenance = false;
            let (mut on_meter, mut off_meter) = (inst.meter(), inst.meter());
            let on = search_schedule_with(&on_params, &mut on_meter, &mut on_scratch);
            let off = search_schedule_with(&off_params, &mut off_meter, &mut off_scratch);

            // 3. Record-only.
            assert_eq!(on.assignments, off.assignments, "{at}");
            assert_eq!(on.termination, off.termination, "{at}");
            assert_eq!(on.n_viable, off.n_viable, "{at}");
            assert_eq!(on.makespan, off.makespan, "{at}");
            assert_eq!(on.stats, off.stats, "{at}");
            assert_eq!(on_meter.vertices(), off_meter.vertices(), "{at}");
            assert_eq!(on_meter.consumed(), off_meter.consumed(), "{at}");
            assert!(off.provenance.is_none(), "{at}");
            shard_screens += on.stats.shard_screens;
            let prov = on.provenance.as_ref().expect("provenance requested");

            // 1. Screen witnesses: one per screened task, each the argmin.
            assert_eq!(prov.screened.len() as u64, on.stats.screened_tasks, "{at}");
            for s in &prov.screened {
                let t = &inst.tasks[s.task];
                let argmin = (0..workers)
                    .map(ProcessorId::new)
                    .min_by_key(|&p| (inst.initial[p.index()] + inst.comm.demand(t, p), p))
                    .unwrap();
                let w = s.witness;
                assert_eq!(w.processor, argmin, "{at} task {}", s.task);
                assert_eq!(w.available, inst.initial[argmin.index()], "{at}");
                assert_eq!(w.demand, inst.comm.demand(t, argmin), "{at}");
                assert_eq!(w.completion, w.available + w.demand, "{at}");
                assert!(!t.meets_deadline(w.completion), "{at}: witness meets");
                witnesses += 1;
                if *kind == "sharded" {
                    sharded_witnesses += 1;
                }
            }

            // 2. Runner-ups, checked against a replay of the delivered path.
            assert_eq!(prov.decisions.len(), on.assignments.len(), "{at}");
            let mut state = PathState::with_resources(
                inst.initial.clone(),
                inst.tasks.len(),
                inst.resources.clone(),
            );
            for (d, a) in prov.decisions.iter().zip(&on.assignments) {
                assert_eq!((d.task, d.processor), (a.task, a.processor), "{at}");
                let (tasks, comm) = (&inst.tasks, &inst.comm);
                assert_eq!(
                    d.completion,
                    state.completion_if(tasks, comm, d.task, d.processor),
                    "{at}"
                );
                assert_eq!(d.cost, state.makespan().max(d.completion), "{at}");
                if let Some(r) = d.runner_up {
                    assert_ne!(r.processor, d.processor, "{at}");
                    assert_eq!(
                        r.completion,
                        state.completion_if(tasks, comm, d.task, r.processor),
                        "{at}"
                    );
                    assert_eq!(r.cost, state.makespan().max(r.completion), "{at}");
                    assert!(tasks[d.task].meets_deadline(r.completion), "{at}");
                    runners_up += 1;
                }
                state.apply(tasks, comm, d.task, d.processor);
            }
            on_scratch.recycle(on.assignments);
            off_scratch.recycle(off.assignments);
        }
    }

    assert!(witnesses > 0, "no instance ever screened a task");
    assert!(
        sharded_witnesses > 0,
        "no sharded instance ever screened a task"
    );
    assert!(shard_screens > 0, "the shard-first screen never engaged");
    assert!(runners_up > 0, "no decision ever recorded a runner-up");
}
