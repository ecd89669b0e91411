//! Seeded differential test for the phase-level viability screen.
//!
//! Under the constant and hierarchical models the engine decides each
//! task's viability from per-class floors of the initial finish times
//! (`screen_batch_verdicts`), not from one `comm.demand` probe per
//! processor. The per-processor scan survives as `screen_batch_oracle`, and
//! over thousands of random batches the two must agree exactly: the same
//! `viable` vector and, under provenance, the same witness for every
//! rejected task — processor, available, demand and completion.
//!
//! The sweep covers constant models (free included), hierarchical ones
//! (one node, one rack, several racks, equal class costs, up to 1024
//! processors) and the mesh; empty affinities and affinity bits at or
//! beyond the processor count; fault-downed workers (all of them, at
//! times); finish times drawn from a small pool so ties are everywhere; and
//! deadlines placed exactly on, and one microsecond before, each bound the
//! screen tests.

use paragon_des::{Duration, SimRng, Time};
use paragon_platform::UNAVAILABLE;
use rt_task::{AffinitySet, CommModel, MeshSpec, ProcessorId, Task, TaskId, TopologySpec};
use sched_search::{
    screen_batch_oracle, screen_batch_verdicts, ChildOrder, Pruning, Representation, SearchParams,
    TaskOrder,
};

const BATCHES: u64 = 2_400;

/// A random model, with its processor count.
fn random_model(rng: &mut SimRng) -> (CommModel, usize) {
    let workers = if rng.bernoulli(0.1) {
        rng.uniform_usize(65..1_025)
    } else {
        rng.uniform_usize(1..65)
    };
    let model = match rng.uniform_usize(0..7) {
        0 => CommModel::free(),
        1 => CommModel::constant(Duration::from_micros(rng.uniform_u64(1..3_000))),
        2 => {
            let cols = rng.uniform_usize(1..9) as u16;
            let rows = rng.uniform_usize(1..5) as u16;
            let spec = MeshSpec::new(cols, rows, rng.uniform_u64(0..200) as u32, 50);
            return (CommModel::mesh(spec), spec.nodes());
        }
        kind => {
            let nodes = match kind {
                3 => 1,
                _ => rng.uniform_usize(1..workers.min(32) + 1),
            };
            let racks = if kind == 4 {
                1
            } else {
                rng.uniform_usize(1..nodes + 1)
            };
            let (intra, inter, rack) = if rng.bernoulli(0.2) {
                // Equal class costs: every term ties on cost.
                let c = rng.uniform_u64(0..2_000);
                (c, c, c)
            } else {
                let intra = if rng.bernoulli(0.5) {
                    0
                } else {
                    rng.uniform_u64(0..300)
                };
                let inter = intra + rng.uniform_u64(0..2_000);
                (intra, inter, inter + rng.uniform_u64(0..3_000))
            };
            let topo = TopologySpec::new(
                workers as u32,
                nodes as u32,
                racks as u32,
                intra,
                inter,
                rack,
            );
            CommModel::hierarchical(topo)
        }
    };
    (model, workers)
}

/// Initial finish times drawn from a small pool, so equal floors (and so
/// the lowest-index tie rule) are common; some workers fault-downed, and
/// on a few batches all of them.
fn random_finish(rng: &mut SimRng, workers: usize) -> Vec<Time> {
    let all_down = rng.bernoulli(0.03);
    let pool: Vec<u64> = (0..rng.uniform_usize(1..6))
        .map(|_| rng.uniform_u64(0..2_000))
        .collect();
    let down = rng.uniform_f64() * 0.3;
    (0..workers)
        .map(|_| {
            if all_down || rng.bernoulli(down) {
                UNAVAILABLE
            } else {
                Time::from_micros(*rng.choose(&pool))
            }
        })
        .collect()
}

/// `stray` allows bits at or beyond the processor count; the mesh model
/// prices a fetch by the distance to each affine processor, so it has none.
fn random_affinity(rng: &mut SimRng, workers: usize, stray: bool) -> AffinitySet {
    match rng.uniform_usize(usize::from(!stray)..6) {
        1 => AffinitySet::new(),
        // Only bits at or beyond the processor count.
        0 => (0..rng.uniform_usize(1..4))
            .map(|_| ProcessorId::new(workers + rng.uniform_usize(0..130)))
            .collect(),
        // A few processors, sometimes with a stray bit past the end.
        2 | 3 => {
            let mut set: AffinitySet = (0..rng.uniform_usize(1..4))
                .map(|_| ProcessorId::new(rng.uniform_usize(0..workers)))
                .collect();
            if stray && rng.bernoulli(0.2) {
                set.insert(ProcessorId::new(workers + rng.uniform_usize(0..64)));
            }
            set
        }
        // A dense random subset.
        _ => {
            let keep = rng.uniform_f64();
            (0..workers)
                .filter(|_| rng.bernoulli(keep))
                .map(ProcessorId::new)
                .collect()
        }
    }
}

fn task(id: usize, pt: u64, deadline: Time, affinity: &AffinitySet) -> Task {
    Task::builder(TaskId::new(id as u64))
        .processing_time(Duration::from_micros(pt))
        .deadline(deadline)
        .affinity(affinity.clone())
        .build()
}

/// A deadline on (or one microsecond before) one of the values the screen
/// compares against, or a random one.
fn random_deadline(
    rng: &mut SimRng,
    comm: &CommModel,
    finish: &[Time],
    pt: u64,
    affinity: &AffinitySet,
) -> Time {
    let probe = task(0, pt, Time::ZERO, affinity);
    let floor = finish.iter().copied().min().unwrap() + probe.processing_time();
    let earliest = (0..finish.len())
        .map(|p| finish[p] + comm.demand(&probe, ProcessorId::new(p)))
        .min()
        .unwrap();
    let worst = comm.constant_cost();
    let ceiling = comm.topology().map_or(worst, TopologySpec::inter_rack_cost);
    let on = match rng.uniform_usize(0..5) {
        0 => floor,
        1 => floor + worst,
        2 => floor + ceiling,
        3 => earliest,
        _ => return Time::from_micros(rng.uniform_u64(0..6_000)),
    };
    if rng.bernoulli(0.5) && on > Time::ZERO {
        Time::from_micros(on.as_micros() - 1)
    } else {
        on
    }
}

fn params<'a>(
    tasks: &'a [Task],
    comm: &'a CommModel,
    finish: &'a [Time],
    repr: &'a Representation,
    provenance: bool,
) -> SearchParams<'a> {
    SearchParams {
        tasks,
        comm,
        initial_finish: finish,
        representation: repr,
        child_order: ChildOrder::LoadBalance,
        now: Time::ZERO,
        vertex_cap: None,
        pruning: Pruning::default(),
        resources: Default::default(),
        provenance,
    }
}

#[test]
fn class_floor_screen_matches_the_per_processor_oracle() {
    let parent = SimRng::seed_from(0x5C2E_E7F1);
    let repr = Representation::AssignmentOriented {
        task_order: TaskOrder::EarliestDeadline,
    };
    let (mut accepted, mut rejected, mut sharded_rejected) = (0u64, 0u64, 0u64);
    let (mut on_bound, mut all_down, mut large) = (0u64, 0u64, 0u64);

    for i in 0..BATCHES {
        let mut rng = parent.child(i);
        let (comm, workers) = random_model(&mut rng);
        let finish = random_finish(&mut rng, workers);
        let tasks: Vec<Task> = (0..rng.uniform_usize(1..16))
            .map(|id| {
                let pt = rng.uniform_u64(1..800);
                let stray = !matches!(comm, CommModel::Mesh { .. });
                let affinity = random_affinity(&mut rng, workers, stray);
                let deadline = random_deadline(&mut rng, &comm, &finish, pt, &affinity);
                task(id, pt, deadline, &affinity)
            })
            .collect();
        let at = format!("batch {i} ({comm:?}, P={workers})");

        let with = params(&tasks, &comm, &finish, &repr, true);
        let (viable, evidence) = screen_batch_verdicts(&with);
        let (want_viable, want_evidence) = screen_batch_oracle(&with);
        assert_eq!(viable, want_viable, "{at}");
        assert_eq!(evidence, want_evidence, "{at}");

        let without = params(&tasks, &comm, &finish, &repr, false);
        let (viable_off, evidence_off) = screen_batch_verdicts(&without);
        assert_eq!(viable_off, want_viable, "{at}: provenance off");
        assert!(evidence_off.is_empty(), "{at}: provenance off");

        let n_rejected = viable.iter().filter(|&&v| !v).count() as u64;
        assert_eq!(evidence.len() as u64, n_rejected, "{at}: one witness each");
        accepted += viable.len() as u64 - n_rejected;
        rejected += n_rejected;
        if comm.topology().is_some_and(|t| t.racks() > 1) {
            sharded_rejected += n_rejected;
        }
        on_bound += tasks
            .iter()
            .filter(|t| {
                (0..workers)
                    .any(|p| finish[p] + comm.demand(t, ProcessorId::new(p)) == t.deadline())
            })
            .count() as u64;
        all_down += u64::from(finish.iter().all(|&f| f == UNAVAILABLE));
        large += u64::from(workers > 256);
    }

    // The sweep must reach every region, or the equalities are vacuous.
    assert!(accepted > 1_000, "only {accepted} tasks accepted");
    assert!(rejected > 1_000, "only {rejected} tasks rejected");
    assert!(
        sharded_rejected > 100,
        "multi-rack rejections: {sharded_rejected}"
    );
    assert!(on_bound > 1_000, "deadlines on a completion: {on_bound}");
    assert!(all_down > 10, "all-down batches: {all_down}");
    assert!(large > 50, "batches past 256 processors: {large}");
}

/// A hand-built case for each term of the class-floor screen, so a failure
/// names the term: under a two-rack topology the earliest completion comes
/// from the affine processor, then the same node, then the same rack, then
/// the far rack, as the finish times make each one the cheapest in turn.
#[test]
fn each_cost_class_can_be_the_witness() {
    // 8 processors: nodes {0,1} {2,3} | {4,5} {6,7}; racks {0..4} {4..8}.
    let topo = TopologySpec::new(8, 4, 2, 10, 100, 1_000);
    let comm = CommModel::hierarchical(topo);
    let repr = Representation::AssignmentOriented {
        task_order: TaskOrder::EarliestDeadline,
    };
    let affinity: AffinitySet = [ProcessorId::new(0)].into_iter().collect();
    // One task affine to P0 with a deadline nothing meets, so the witness
    // is reported; the busy processors push the argmin outwards.
    let tasks = [task(0, 50, Time::from_micros(1), &affinity)];
    let cases: [(&[u64; 8], usize); 4] = [
        (&[0, 0, 0, 0, 0, 0, 0, 0], 0),
        (&[500, 0, 0, 0, 0, 0, 0, 0], 1),
        (&[500, 500, 0, 0, 0, 0, 0, 0], 2),
        (&[5_000, 5_000, 5_000, 5_000, 0, 0, 0, 0], 4),
    ];
    for (finish_us, want) in cases {
        let finish: Vec<Time> = finish_us.iter().map(|&us| Time::from_micros(us)).collect();
        let p = params(&tasks, &comm, &finish, &repr, true);
        let (viable, evidence) = screen_batch_verdicts(&p);
        assert_eq!((viable.clone(), evidence.clone()), screen_batch_oracle(&p));
        assert_eq!(viable, vec![false]);
        assert_eq!(evidence[0].witness.processor, ProcessorId::new(want));
    }
}
