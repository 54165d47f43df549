//! Property-based tests for the partitioning heuristics.

use proptest::prelude::*;
use rt_core::rta::is_schedulable_rm;
use rt_core::{RtTask, TaskId, TaskSet, Time};
use rt_partition::{
    partition_tasks, AdmissionTest, CoreId, Heuristic, Partition, PartitionConfig, PartitionError,
    TaskOrdering,
};

fn arb_task() -> impl Strategy<Value = RtTask> {
    (500u64..=30_000, 40_000u64..=500_000).prop_map(|(c, t)| {
        RtTask::implicit_deadline(Time::from_micros(c.min(t)), Time::from_micros(t)).unwrap()
    })
}

fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(arb_task(), 1..=16).prop_map(TaskSet::new)
}

/// Random tasks with constrained deadlines (`C <= D <= T`).
fn arb_constrained_task() -> impl Strategy<Value = RtTask> {
    (500u64..=30_000, 40_000u64..=500_000, 0.3f64..=1.0).prop_map(|(c, t, d_frac)| {
        let deadline = ((t as f64 * d_frac) as u64).clamp(c, t);
        RtTask::new(
            Time::from_micros(c),
            Time::from_micros(t),
            Time::from_micros(deadline),
        )
        .unwrap()
    })
}

fn all_configs() -> Vec<PartitionConfig> {
    let mut cfgs = Vec::new();
    for h in [
        Heuristic::FirstFit,
        Heuristic::BestFit,
        Heuristic::WorstFit,
        Heuristic::NextFit,
    ] {
        for a in [AdmissionTest::ResponseTime, AdmissionTest::Hyperbolic] {
            for o in [
                TaskOrdering::Declaration,
                TaskOrdering::DecreasingUtilization,
                TaskOrdering::IncreasingPeriod,
            ] {
                cfgs.push(PartitionConfig::new(h, a).with_ordering(o));
            }
        }
    }
    cfgs
}

/// The naive reference partitioner: offers the tasks in the configured
/// order and runs the admission test on every core's full task set plus
/// the candidate, exactly as the heuristics are defined.
fn reference_partition(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
) -> Result<Partition, PartitionError> {
    let mut order: Vec<TaskId> = tasks.ids().collect();
    match config.ordering {
        TaskOrdering::Declaration => {}
        TaskOrdering::DecreasingUtilization => order.sort_by(|&a, &b| {
            tasks[b]
                .utilization()
                .partial_cmp(&tasks[a].utilization())
                .unwrap()
                .then(a.0.cmp(&b.0))
        }),
        TaskOrdering::IncreasingPeriod => order.sort_by_key(|&id| (tasks[id].period(), id.0)),
    }
    let mut partition = Partition::new(tasks.len(), cores);
    let mut cursor = 0usize;
    for id in order {
        let admitting: Vec<(CoreId, f64)> = partition
            .core_ids()
            .filter(|&core| {
                config
                    .admission
                    .admits_with(&partition.taskset_on(tasks, core), &tasks[id])
            })
            .map(|core| (core, partition.utilization_on(tasks, core)))
            .collect();
        let by_util = |a: &&(CoreId, f64), b: &&(CoreId, f64)| a.1.partial_cmp(&b.1).unwrap();
        let chosen = match config.heuristic {
            Heuristic::FirstFit => admitting.first(),
            Heuristic::BestFit => admitting.iter().max_by(by_util),
            Heuristic::WorstFit => admitting.iter().min_by(by_util),
            Heuristic::NextFit => (0..cores)
                .map(|offset| CoreId((cursor + offset) % cores))
                .find_map(|core| admitting.iter().find(|&&(c, _)| c == core)),
        };
        let Some(&(core, _)) = chosen else {
            return Err(PartitionError {
                task: id,
                partial: partition,
            });
        };
        if config.heuristic == Heuristic::NextFit {
            cursor = core.0;
        }
        partition.assign(id, core);
    }
    Ok(partition)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn successful_partitions_are_complete_and_schedulable(set in arb_taskset(), cores in 1usize..=4) {
        for cfg in all_configs() {
            if let Ok(p) = partition_tasks(&set, cores, &cfg) {
                prop_assert!(p.is_complete());
                prop_assert_eq!(p.task_count(), set.len());
                // Every core content passes the exact RM test when the
                // admission test was RTA; sufficient tests imply it too.
                for core in p.core_ids() {
                    prop_assert!(is_schedulable_rm(&p.taskset_on(&set, core)));
                }
                // Each task appears on exactly one core.
                let total: usize = p.core_ids().map(|c| p.tasks_on(c).len()).sum();
                prop_assert_eq!(total, set.len());
            }
        }
    }

    #[test]
    fn more_cores_never_hurt_first_fit(set in arb_taskset(), cores in 1usize..=3) {
        let cfg = PartitionConfig::new(Heuristic::FirstFit, AdmissionTest::ResponseTime);
        let small = partition_tasks(&set, cores, &cfg);
        let large = partition_tasks(&set, cores + 1, &cfg);
        // First-fit with more cores admits a superset of workloads: if the
        // small platform succeeds the large one must too (the extra core is
        // simply never needed).
        if small.is_ok() {
            prop_assert!(large.is_ok());
        }
    }

    #[test]
    fn rta_admission_accepts_at_least_as_much_as_utilization_bounds(set in arb_taskset(), cores in 1usize..=4) {
        // The exact test admits every workload the sufficient bounds admit.
        for h in [Heuristic::FirstFit, Heuristic::BestFit, Heuristic::WorstFit] {
            let exact = PartitionConfig::new(h, AdmissionTest::ResponseTime);
            let ll = PartitionConfig::new(h, AdmissionTest::LiuLayland);
            if partition_tasks(&set, cores, &ll).is_ok() {
                prop_assert!(partition_tasks(&set, cores, &exact).is_ok());
            }
        }
    }

    #[test]
    fn partitioner_matches_the_naive_reference(
        tasks in prop::collection::vec(arb_constrained_task(), 1..=16),
        cores in 1usize..=9
    ) {
        // Every heuristic, ordering and core count 1..=9, constrained
        // deadlines included: the incremental row check, the hyperbolic
        // skip and the dirty-row re-verification must reproduce the full
        // admission test on every core's whole task set.
        let set = TaskSet::new(tasks);
        for cfg in all_configs() {
            prop_assert_eq!(
                partition_tasks(&set, cores, &cfg),
                reference_partition(&set, cores, &cfg),
                "config {:?} diverged",
                cfg
            );
        }
    }

    #[test]
    fn partitioner_matches_the_naive_reference_under_period_ties(
        tasks in prop::collection::vec((500u64..=30_000, 0.3f64..=1.0, 0usize..2), 1..=12),
        cores in 1usize..=4
    ) {
        // Periods drawn from a two-value pool force rate-monotonic ties, the
        // corner where candidate-last tie-breaking and assigned-order
        // differ; constrained deadlines make the stale rows matter.
        let set: TaskSet = tasks
            .iter()
            .map(|&(c, d_frac, pool)| {
                let t = [40_000, 80_000][pool];
                let deadline = ((t as f64 * d_frac) as u64).clamp(c, t);
                RtTask::new(
                    Time::from_micros(c),
                    Time::from_micros(t),
                    Time::from_micros(deadline),
                )
                .unwrap()
            })
            .collect();
        for cfg in all_configs() {
            prop_assert_eq!(
                partition_tasks(&set, cores, &cfg),
                reference_partition(&set, cores, &cfg),
                "config {:?} diverged",
                cfg
            );
        }
    }

    #[test]
    fn partition_error_preserves_placed_tasks(set in arb_taskset(), cores in 1usize..=2) {
        let cfg = PartitionConfig::paper_default();
        if let Err(e) = partition_tasks(&set, cores, &cfg) {
            prop_assert!(e.partial.assigned_count() < set.len());
            prop_assert!(e.task.0 < set.len());
            prop_assert_eq!(e.partial.core_of(e.task), None);
        }
    }
}
