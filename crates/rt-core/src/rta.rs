//! Exact response-time analysis (RTA) for fixed-priority preemptive
//! uniprocessor scheduling.
//!
//! The classic Joseph & Pandya / Audsley et al. recurrence: the worst-case
//! response time of task `τ_i` released simultaneously with all
//! higher-priority tasks (the critical instant) is the least fixed point of
//!
//! ```text
//! R = C_i + Σ_{j ∈ hp(i)} ⌈R / T_j⌉ · C_j
//! ```
//!
//! The task is schedulable iff the fixed point exists and `R ≤ D_i`.
//! This is used to validate real-time partitions, as the admission test of
//! the partitioning heuristics, and to cross-check the discrete-event
//! simulator.

use crate::priority::{PriorityAssignment, PriorityPolicy};
use crate::task::{RtTask, TaskId, TaskSet};
use crate::time::Time;

/// Outcome of a response-time computation for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseTime {
    /// The recurrence converged to this worst-case response time, which is
    /// within the task's deadline.
    Schedulable(Time),
    /// The recurrence exceeded the deadline (or diverged); the task can miss
    /// deadlines in the worst case.
    Unschedulable,
}

impl ResponseTime {
    /// The response time if schedulable.
    #[must_use]
    pub fn time(self) -> Option<Time> {
        match self {
            ResponseTime::Schedulable(t) => Some(t),
            ResponseTime::Unschedulable => None,
        }
    }

    /// Whether the task meets its deadline.
    #[must_use]
    pub fn is_schedulable(self) -> bool {
        matches!(self, ResponseTime::Schedulable(_))
    }
}

/// Computes the worst-case response time of a task with WCET `wcet` and
/// deadline `deadline`, suffering preemption from `interferers`
/// (higher-priority tasks on the same core).
///
/// The iteration starts at `wcet` and stops as soon as the candidate exceeds
/// `deadline`, so it always terminates even for overloaded cores.
#[must_use]
pub fn response_time_with_interference<'a, I>(
    wcet: Time,
    deadline: Time,
    interferers: I,
) -> ResponseTime
where
    I: IntoIterator<Item = &'a RtTask> + Clone,
{
    response_time_with_blocking(wcet, deadline, Time::ZERO, interferers)
}

/// Computes the worst-case response time of a task that, in addition to
/// preemption from `interferers`, can be blocked for up to `blocking` time
/// units by a lower-priority non-preemptive region (the classic
/// blocking-aware recurrence `R = C + B + Σ ⌈R/T_j⌉·C_j`).
///
/// This supports the paper's Section V extension where some security tasks
/// execute non-preemptively: a non-preemptive lower-priority task can delay
/// every task above it by up to its own WCET.
#[must_use]
pub fn response_time_with_blocking<'a, I>(
    wcet: Time,
    deadline: Time,
    blocking: Time,
    interferers: I,
) -> ResponseTime
where
    I: IntoIterator<Item = &'a RtTask> + Clone,
{
    let base = wcet.saturating_add(blocking);
    if base > deadline {
        return ResponseTime::Unschedulable;
    }
    let mut util = 0.0f64;
    for hp in interferers.clone() {
        util += hp.wcet().ratio(hp.period());
    }
    let mut r = match seed_from_utilization(base.as_ticks(), util) {
        Some(seed) => Time::from_ticks(seed),
        // The interference alone saturates the core: the recurrence
        // diverges, so the task cannot meet any deadline.
        None => return ResponseTime::Unschedulable,
    };
    if r > deadline {
        // The lower bound already misses the deadline; the fixed point can
        // only be larger.
        return ResponseTime::Unschedulable;
    }
    loop {
        let mut next = base;
        for hp in interferers.clone() {
            let jobs = r.div_ceil(hp.period());
            next = next.saturating_add(hp.wcet().saturating_mul(jobs));
        }
        if next > deadline {
            return ResponseTime::Unschedulable;
        }
        if next == r {
            return ResponseTime::Schedulable(r);
        }
        r = next;
    }
}

/// A sound starting point for the response-time recurrence: the fixed point
/// satisfies `R ≥ base / (1 − U_hp)` (drop the ceilings of the interference
/// terms), so iterating from that bound converges to the *same* least fixed
/// point in far fewer steps — the closer the core is to saturation, the
/// more of the creeping early iterations the seed skips.
///
/// Returns `None` when the higher-priority utilization provably saturates
/// the core (the recurrence diverges). The utilization margin keeps the
/// bound conservative against `f64` rounding in `util`: underestimating the
/// divisor can only lower the seed, never push it past the fixed point.
pub(crate) fn seed_from_utilization(base: u64, util: f64) -> Option<u64> {
    const MARGIN: f64 = 1e-9;
    if base == 0 {
        return Some(0);
    }
    if util - MARGIN >= 1.0 {
        return None;
    }
    let headroom = 1.0 - (util - MARGIN);
    let bound = (base as f64 / headroom).floor();
    if bound.is_finite() && bound > base as f64 {
        Some(bound as u64)
    } else {
        Some(base)
    }
}

/// One task of a core's priority-ordered column, in ticks — the unit of
/// [`verify_rows_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Worst-case execution time.
    pub wcet: u64,
    /// Period (minimum inter-arrival time); must be positive.
    pub period: u64,
    /// Relative deadline.
    pub deadline: u64,
}

impl Row {
    /// The row of `task`.
    #[must_use]
    pub fn of(task: &RtTask) -> Self {
        Row {
            wcet: task.wcet().as_ticks(),
            period: task.period().as_ticks(),
            deadline: task.deadline().as_ticks(),
        }
    }
}

/// Whether every row of `rows` from index `start` on meets its deadline,
/// where `rows` lists one core's tasks in priority order (highest first) so
/// that a row's interferers are exactly the rows above it.
///
/// Rows before `start` are taken as already verified: they still interfere
/// with the rows below, but their own recurrences are not re-run. That is
/// sound whenever none of them gained an interferer since it was last
/// verified — the partition heuristics' incremental admission test, which
/// re-checks only the suffix from the insertion point of a candidate task.
///
/// Each verified row's verdict is the one
/// [`response_time_with_interference`] gives over the rows above it: the
/// recurrence starts from the same utilization seed (a lower bound, so it
/// only skips early iterations), and saturating sums of non-negative terms
/// do not depend on the order they are added in. Allocation-free; stops at
/// the first row that misses its deadline.
#[must_use]
pub fn verify_rows_from(rows: &[Row], start: usize) -> bool {
    let mut util: f64 = rows[..start.min(rows.len())]
        .iter()
        .map(|hp| hp.wcet as f64 / hp.period as f64)
        .sum();
    for (i, row) in rows.iter().enumerate().skip(start) {
        let Some(mut r) = seed_from_utilization(row.wcet, util) else {
            return false;
        };
        if row.wcet > row.deadline || r > row.deadline {
            return false;
        }
        loop {
            let mut next = row.wcet;
            for hp in &rows[..i] {
                next = next.saturating_add(hp.wcet.saturating_mul(r.div_ceil(hp.period)));
            }
            if next > row.deadline {
                return false;
            }
            if next == r {
                break;
            }
            r = next;
        }
        util += row.wcet as f64 / row.period as f64;
    }
    true
}

/// Computes the worst-case response time of `task` within `tasks` under the
/// given priority assignment, assuming all tasks share one core.
#[must_use]
pub fn response_time(
    tasks: &TaskSet,
    priorities: &PriorityAssignment,
    task: TaskId,
) -> ResponseTime {
    let target = &tasks[task];
    let hp_ids = priorities.higher_priority_than(task);
    let interferers: Vec<&RtTask> = hp_ids.iter().map(|&id| &tasks[id]).collect();
    response_time_with_interference(
        target.wcet(),
        target.deadline(),
        interferers.iter().copied(),
    )
}

/// Response times of every task in the set under the given priority
/// assignment (single core). Entry `i` corresponds to `TaskId(i)`.
#[must_use]
pub fn response_times(tasks: &TaskSet, priorities: &PriorityAssignment) -> Vec<ResponseTime> {
    let mut out = Vec::new();
    response_times_into(tasks, priorities, &mut out);
    out
}

/// Allocation-free variant of [`response_times`]: clears `out` and fills it
/// with entry `i` corresponding to `TaskId(i)`, reusing its capacity.
///
/// Unlike [`response_time`], no per-task interferer `Vec` is materialised —
/// the higher-priority filter runs directly over the id range — so hot
/// callers (the partition admission path) can verify a candidate core
/// without touching the allocator.
pub fn response_times_into(
    tasks: &TaskSet,
    priorities: &PriorityAssignment,
    out: &mut Vec<ResponseTime>,
) {
    out.clear();
    out.reserve(tasks.len());
    for id in tasks.ids() {
        let target = &tasks[id];
        let p = priorities.priority(id);
        let interferers = (0..tasks.len())
            .map(TaskId)
            .filter(|&other| priorities.priority(other).is_higher_than(p))
            .map(|other| &tasks[other]);
        out.push(response_time_with_interference(
            target.wcet(),
            target.deadline(),
            interferers,
        ));
    }
}

/// Whether every task meets its deadline on a single core under the given
/// priority assignment.
#[must_use]
pub fn is_schedulable(tasks: &TaskSet, priorities: &PriorityAssignment) -> bool {
    tasks
        .ids()
        .all(|id| response_time(tasks, priorities, id).is_schedulable())
}

/// Whether every task meets its deadline on a single core under
/// rate-monotonic priorities — the admission test used when partitioning the
/// real-time tasks of the HYDRA experiments.
#[must_use]
pub fn is_schedulable_rm(tasks: &TaskSet) -> bool {
    let pa = PriorityAssignment::assign(tasks, PriorityPolicy::RateMonotonic);
    is_schedulable(tasks, &pa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    fn rm(tasks: &TaskSet) -> PriorityAssignment {
        PriorityAssignment::assign(tasks, PriorityPolicy::RateMonotonic)
    }

    #[test]
    fn textbook_example_response_times() {
        // Classic example: C/T = 1/4, 2/6, 3/13 — all schedulable under RM.
        let set: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let pa = rm(&set);
        let r = response_times(&set, &pa);
        assert_eq!(r[0], ResponseTime::Schedulable(Time::from_millis(1)));
        assert_eq!(r[1], ResponseTime::Schedulable(Time::from_millis(3)));
        // R2 = 3 + ⌈R/4⌉·1 + ⌈R/6⌉·2 → fixed point at 10.
        assert_eq!(r[2], ResponseTime::Schedulable(Time::from_millis(10)));
        assert!(is_schedulable(&set, &pa));
        assert!(is_schedulable_rm(&set));
    }

    #[test]
    fn overload_is_detected() {
        let set: TaskSet = vec![task(3, 4), task(3, 6)].into_iter().collect();
        let pa = rm(&set);
        assert!(response_time(&set, &pa, TaskId(0)).is_schedulable());
        assert_eq!(
            response_time(&set, &pa, TaskId(1)),
            ResponseTime::Unschedulable
        );
        assert!(!is_schedulable_rm(&set));
    }

    #[test]
    fn full_utilization_harmonic_set_is_schedulable() {
        // Harmonic periods can reach 100% utilisation under RM.
        // An over-utilised variant (U = 1.25) can never be schedulable.
        let set: TaskSet = vec![task(1, 2), task(2, 4), task(2, 8)]
            .into_iter()
            .collect();
        assert!((set.total_utilization() - 1.25).abs() < 1e-12);
        assert!(!is_schedulable_rm(&set));
        let set: TaskSet = vec![task(1, 2), task(1, 4), task(2, 8)]
            .into_iter()
            .collect();
        assert!((set.total_utilization() - 1.0).abs() < 1e-12);
        assert!(is_schedulable_rm(&set));
    }

    #[test]
    fn wcet_longer_than_deadline_is_immediately_unschedulable() {
        let r = response_time_with_interference(
            Time::from_millis(10),
            Time::from_millis(5),
            std::iter::empty(),
        );
        assert_eq!(r, ResponseTime::Unschedulable);
    }

    #[test]
    fn no_interference_means_response_equals_wcet() {
        let r = response_time_with_interference(
            Time::from_millis(7),
            Time::from_millis(100),
            std::iter::empty(),
        );
        assert_eq!(r, ResponseTime::Schedulable(Time::from_millis(7)));
    }

    #[test]
    fn constrained_deadline_tightens_the_test() {
        // Same tasks; shrinking the deadline of the low-priority task below
        // its response time flips the verdict.
        // hi has D = 5, so it stays the higher-priority task under DM in both
        // sets; the low task's response time is 8.
        let hi = task(2, 5);
        let lo_ok = RtTask::new(
            Time::from_millis(4),
            Time::from_millis(30),
            Time::from_millis(10),
        )
        .unwrap();
        let lo_bad = RtTask::new(
            Time::from_millis(4),
            Time::from_millis(30),
            Time::from_millis(7),
        )
        .unwrap();
        let ok: TaskSet = vec![hi.clone(), lo_ok].into_iter().collect();
        let bad: TaskSet = vec![hi, lo_bad].into_iter().collect();
        let pa_ok = PriorityAssignment::assign(&ok, PriorityPolicy::DeadlineMonotonic);
        let pa_bad = PriorityAssignment::assign(&bad, PriorityPolicy::DeadlineMonotonic);
        assert!(is_schedulable(&ok, &pa_ok));
        assert!(!is_schedulable(&bad, &pa_bad));
    }

    #[test]
    fn response_time_accessors() {
        assert_eq!(
            ResponseTime::Schedulable(Time::from_millis(3)).time(),
            Some(Time::from_millis(3))
        );
        assert_eq!(ResponseTime::Unschedulable.time(), None);
        assert!(!ResponseTime::Unschedulable.is_schedulable());
    }

    #[test]
    fn blocking_increases_response_time_and_can_break_schedulability() {
        let hp = task(2, 6);
        // Without blocking: R = 3 + ⌈R/6⌉·2 → 5.
        let plain = response_time_with_blocking(
            Time::from_millis(3),
            Time::from_millis(10),
            Time::ZERO,
            [&hp],
        );
        assert_eq!(plain, ResponseTime::Schedulable(Time::from_millis(5)));
        // With 2 ms of blocking: R = 3 + 2 + ⌈R/6⌉·2 → 7 → 9 → 9.
        let blocked = response_time_with_blocking(
            Time::from_millis(3),
            Time::from_millis(10),
            Time::from_millis(2),
            [&hp],
        );
        assert_eq!(blocked, ResponseTime::Schedulable(Time::from_millis(9)));
        // With 6 ms of blocking the deadline of 10 ms cannot be met.
        let too_much = response_time_with_blocking(
            Time::from_millis(3),
            Time::from_millis(10),
            Time::from_millis(6),
            [&hp],
        );
        assert_eq!(too_much, ResponseTime::Unschedulable);
    }

    #[test]
    fn zero_blocking_matches_the_plain_recurrence() {
        let set: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let pa = rm(&set);
        for id in set.ids() {
            let hp_ids = pa.higher_priority_than(id);
            let interferers: Vec<&RtTask> = hp_ids.iter().map(|&i| &set[i]).collect();
            let a = response_time_with_interference(
                set[id].wcet(),
                set[id].deadline(),
                interferers.iter().copied(),
            );
            let b = response_time_with_blocking(
                set[id].wcet(),
                set[id].deadline(),
                Time::ZERO,
                interferers.iter().copied(),
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn response_times_into_reuses_the_buffer_and_matches_the_allocating_variant() {
        let set: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let pa = rm(&set);
        let mut buf = vec![ResponseTime::Unschedulable; 17];
        response_times_into(&set, &pa, &mut buf);
        assert_eq!(buf, response_times(&set, &pa));
        // A second fill must fully replace the previous contents.
        let smaller: TaskSet = vec![task(3, 4)].into_iter().collect();
        let pa2 = rm(&smaller);
        response_times_into(&smaller, &pa2, &mut buf);
        assert_eq!(buf, response_times(&smaller, &pa2));
    }

    #[test]
    fn rta_respects_priority_assignment_not_declaration_order() {
        // Declared low-priority first; RM must still figure out the order.
        let set: TaskSet = vec![task(6, 20), task(1, 5)].into_iter().collect();
        let pa = rm(&set);
        let r = response_times(&set, &pa);
        assert_eq!(r[1], ResponseTime::Schedulable(Time::from_millis(1)));
        // R0 = 6 + ⌈R/5⌉·1 → 6→8→8 (⌈8/5⌉ = 2) → 8.
        assert_eq!(r[0], ResponseTime::Schedulable(Time::from_millis(8)));
    }

    /// The naive recurrence — iterate from `base` with no seeding — kept as
    /// the reference the seeded production path is differentially tested
    /// against (a shared soundness bug in the seed cannot hide here).
    fn naive_response_time(
        wcet: Time,
        deadline: Time,
        blocking: Time,
        interferers: &[&RtTask],
    ) -> ResponseTime {
        let base = wcet.saturating_add(blocking);
        if base > deadline {
            return ResponseTime::Unschedulable;
        }
        let mut r = base;
        loop {
            let mut next = base;
            for hp in interferers {
                let jobs = r.div_ceil(hp.period());
                next = next.saturating_add(hp.wcet().saturating_mul(jobs));
            }
            if next > deadline {
                return ResponseTime::Unschedulable;
            }
            if next == r {
                return ResponseTime::Schedulable(r);
            }
            r = next;
        }
    }

    /// `set`'s rows in rate-monotonic order, and where its last task sits.
    fn rm_rows(set: &TaskSet) -> (Vec<Row>, usize) {
        let pa = rm(set);
        let mut order: Vec<TaskId> = set.ids().collect();
        order.sort_by_key(|&id| pa.priority(id));
        let last = order.iter().position(|id| id.0 == set.len() - 1);
        let rows = order.iter().map(|&id| Row::of(&set[id])).collect();
        (rows, last.unwrap_or(0))
    }

    #[test]
    fn row_check_matches_the_textbook_verdicts() {
        let ok: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let (rows, _) = rm_rows(&ok);
        assert!(verify_rows_from(&rows, 0));
        let overload: TaskSet = vec![task(3, 4), task(3, 6)].into_iter().collect();
        let (rows, _) = rm_rows(&overload);
        assert!(!verify_rows_from(&rows, 0));
        // The second row fails, so starting past it passes trivially.
        assert!(verify_rows_from(&rows, 2));
        assert!(verify_rows_from(&[], 0));
    }

    #[test]
    fn row_check_fails_a_wcet_past_its_deadline_before_iterating() {
        let rows = [Row {
            wcet: 10,
            period: 20,
            deadline: 5,
        }];
        assert!(!verify_rows_from(&rows, 0));
    }

    fn arb_task() -> impl proptest::Strategy<Value = RtTask> {
        use proptest::prelude::*;
        (1u64..400, 1u64..1000, 0.1f64..1.0).prop_map(|(c, t, d_frac)| {
            let period = c.max(t);
            let deadline = ((period as f64 * d_frac) as u64).clamp(c, period);
            RtTask::new(
                Time::from_ticks(c),
                Time::from_ticks(period),
                Time::from_ticks(deadline),
            )
            .unwrap()
        })
    }

    mod rows_vs_full_analysis {
        use super::*;
        use proptest::prelude::*;

        fn arb_set(max_len: usize) -> impl Strategy<Value = TaskSet> {
            prop::collection::vec(arb_task(), 1..=max_len).prop_map(TaskSet::new)
        }

        proptest! {
            #[test]
            fn row_check_from_the_top_is_the_full_rm_analysis(set in arb_set(9)) {
                let (rows, _) = rm_rows(&set);
                prop_assert_eq!(verify_rows_from(&rows, 0), is_schedulable_rm(&set));
            }

            #[test]
            fn suffix_verification_agrees_with_full_reverification(
                set in arb_set(9),
                extra in arb_task()
            ) {
                // The partition-admission shape: a fully schedulable prefix
                // plus one inserted candidate. Suffix-only verification
                // (start at the insertion row) must agree with re-verifying
                // the whole merged set, because rows above the insertion
                // point keep their interferer sets.
                if !is_schedulable_rm(&set) {
                    return Ok(());
                }
                let mut merged: Vec<RtTask> = set.tasks().cloned().collect();
                merged.push(extra);
                let merged: TaskSet = merged.into_iter().collect();
                let (rows, inserted_at) = rm_rows(&merged);
                prop_assert_eq!(
                    verify_rows_from(&rows, inserted_at),
                    is_schedulable_rm(&merged)
                );
            }
        }
    }

    mod seeded_vs_naive {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn seeded_recurrence_is_bit_identical_to_the_naive_iteration(
                interferers in prop::collection::vec(arb_task(), 0..10),
                c in 1u64..400,
                d in 1u64..2000,
                b in 0u64..50,
            ) {
                // Saturated cores very much included: the interferer
                // utilization is unconstrained, so the divergence early-out
                // and near-saturation seeds are exercised.
                let refs: Vec<&RtTask> = interferers.iter().collect();
                let seeded = response_time_with_blocking(
                    Time::from_ticks(c),
                    Time::from_ticks(d),
                    Time::from_ticks(b),
                    refs.iter().copied(),
                );
                let naive = naive_response_time(
                    Time::from_ticks(c),
                    Time::from_ticks(d),
                    Time::from_ticks(b),
                    &refs,
                );
                prop_assert_eq!(seeded, naive);
            }
        }
    }
}
