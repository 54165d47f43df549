//! Scenario evaluation and the streaming sweep engine behind
//! [`SweepSession`].
//!
//! A run splits its scenario list into **problem groups** — every scenario
//! sharing one `(cores, utilization, problem_stream)` address, in order of
//! first appearance (per contiguous run of it when a frontier run carries
//! entries between groups) — and packs consecutive groups into **work
//! units** (see [`Units::new`]). Workers claim units from a shared atomic
//! cursor (self-balancing). Per unit a worker generates each problem once,
//! decides Eq. (1) once per problem, runs each allocator once per group and
//! applies each period policy per member.
//! Every scenario derives its inputs from its own `(base_seed, stream)`
//! address, which makes results independent of thread count, scheduling
//! order and unit packing — the property the determinism tests pin down.
//!
//! Results **stream**: a reorder buffer restores list order and feeds each
//! outcome to an [`OutcomeSink`] the moment its turn comes, while each worker
//! folds its own outcomes and reuse counters into partials merged at the
//! end. A backpressure gate keeps a worker from starting a unit more than
//! one window (64–1024 positions plus one unit span per worker) ahead of
//! the drain, so the reorder buffer holds at most the window plus one
//! unit's span of outcomes — not O(grid). There is one worker body: a
//! one-thread run executes it on the calling thread, a wider run spawns it
//! on scoped threads.
//!
//! Because a scenario's address fully determines its result, any contiguous
//! index range can be evaluated independently (a range groups only the
//! scenarios inside it): [`shard_range`] splits a grid into `n` chunks
//! whose concatenated streams are byte-identical to a single full run,
//! which is what the `dse` CLI's `--shard i/n` and checkpoint resume build
//! on.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hydra_core::allocator::{OptimalAllocator, SingleCoreAllocator};
use hydra_core::{Allocation, AllocationError, AllocationProblem};
use rt_core::dbf::necessary_condition_default_horizon;
use rt_core::Time;
use rt_obs::Gauge;
use rt_partition::partition_tasks;
use rt_sim::attack::{AttackScenario, InjectedAttack};
use rt_sim::detection::OnlineDetector;
use rt_sim::engine::{simulate_with_scratch, SimConfig, SimScratch};
use rt_sim::workload::{simulation_tasks_into, SimTask, TaskKind};
use taskgen::{derive_seed, generate_problem_seeded};

use crate::agg::SweepAccumulator;
use crate::api::{SweepHandle, SweepSession};
use crate::memo::{
    hash_taskset, AllocationKey, CarriedEntries, MemoStats, ProblemEntry, ProblemKey,
    SharedAllocation, StoreTally,
};
use crate::obs::{
    SweepObs, WorkerObs, ENGINE_TRACK, PHASE_ALLOCATE, PHASE_GENERATE, PHASE_PARTITION,
    PHASE_PERIOD_POLICY, PHASE_SIMULATE, PHASE_SINK,
};
use crate::scenario::{DetectionStats, Scenario, ScenarioOutcome};
use crate::sink::OutcomeSink;
use crate::spec::{AllocatorKind, Evaluation, ScenarioSpec, Workload};
use crate::store::MemoStore;

/// Salt separating the attack-injection seed stream from the task-set
/// generation stream at the same scenario address.
const ATTACK_SALT: u64 = 0xa77a_c852_11fe_c7ed;

/// Fingerprint marking case-study problem keys (no generator config).
const CASE_STUDY_FINGERPRINT: u64 = u64::MAX;

/// The contiguous scenario-index range of shard `index` (1-based) out of
/// `count` equal splits of a grid: concatenating every shard's streamed
/// output in shard order is byte-identical to a single full-range run.
///
/// # Panics
///
/// Panics unless `1 <= index <= count`.
#[must_use]
pub fn shard_range(grid_len: usize, index: usize, count: usize) -> Range<usize> {
    assert!(
        index >= 1 && index <= count,
        "shard index must satisfy 1 <= {index} <= {count}"
    );
    let at = |i: usize| (i as u128 * grid_len as u128 / count as u128) as usize;
    at(index - 1)..at(index)
}

/// The completed execution of one streaming sweep range: everything a
/// caller needs except the outcomes themselves, which went to the sink.
#[derive(Debug)]
pub struct StreamSummary {
    /// Sweep name (copied from the spec).
    pub name: String,
    /// Size of the full expanded grid (after sampling).
    pub grid_len: usize,
    /// The evaluated scenario-index range (clamped to the grid).
    pub range: Range<usize>,
    /// Merged per-worker partial aggregates over the evaluated range.
    pub partial: SweepAccumulator,
    /// Reuse counters (problem, feasibility and allocation hits/misses plus
    /// persistent-store traffic), exact at any thread count.
    pub memo: MemoStats,
    /// Wall-clock execution time (excluded from serialized outputs so they
    /// stay byte-deterministic).
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub threads: usize,
    /// Whether the run was cut short by [`SweepHandle::cancel`]. A
    /// cancelled run still finished its sink cleanly; `range` covers
    /// exactly the outcomes the sink received.
    pub cancelled: bool,
}

impl StreamSummary {
    /// Number of scenarios evaluated (the length of the range).
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.range.len()
    }

    /// Evaluated scenarios per wall-clock second, or `None` when the sweep
    /// finished below timer resolution (never `inf`/NaN — non-finite numbers
    /// must stay out of every report).
    #[must_use]
    pub fn scenarios_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.evaluated() as f64 / secs)
    }
}

/// Per-worker reusable evaluation buffers. Each worker thread owns one
/// scratch for the whole sweep, so the steady-state per-scenario evaluation
/// of the hot detection path — building the simulator workload, generating
/// the attack schedule, running the event-driven simulation and folding the
/// detection latencies — recycles these buffers instead of allocating.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    /// The simulator workload (`SimTask` names reuse their `String`s).
    tasks: Vec<SimTask>,
    /// The injected attack schedule.
    attacks: Vec<InjectedAttack>,
    /// The attack-target cycle (`0..n_sec`).
    targets: Vec<usize>,
    /// Which cores host at least one attacked security task.
    core_monitored: Vec<bool>,
    /// Sorted latency samples staged for the outcome record.
    latencies: Vec<f64>,
    /// The event-driven engine's heaps and member lists.
    sim: SimScratch,
    /// The streaming detection observer.
    detector: OnlineDetector,
}

/// The most problem groups one work unit packs: enough to amortize the
/// cursor claim and the drain lock over a unit of cheap synthetic groups
/// (one group per unit measured a few percent more 1-thread CPU on the
/// `sweep-synth` benchmark spec).
const UNIT_GROUPS: usize = 8;

/// The problem groups of one run and the work units packing them.
struct Units {
    /// Member positions (relative to the run's slice) of every problem
    /// group, groups in order of first appearance.
    groups: Vec<Vec<usize>>,
    /// Per group, the earlier group of the same address it continues
    /// through the carried entries (see [`Units::new`]).
    follows: Vec<Option<usize>>,
    /// Each work unit's consecutive range of `groups`.
    units: Vec<Range<usize>>,
}

impl Units {
    /// Groups `slice` by problem address and packs the groups into units:
    /// up to [`UNIT_GROUPS`] consecutive same-cores groups when `pack` (a
    /// synthetic workload), one group per unit otherwise (a case-study
    /// group is a whole detection pipeline, heavy enough alone). With
    /// `carry` (the run carries entries between groups) each contiguous run
    /// of an address is its own group, following the run before it in an
    /// earlier unit — a frontier list repeats each address once per slice,
    /// and this keeps every unit within its own stretch of the list.
    fn new(slice: &[Scenario], pack: bool, carry: bool) -> Self {
        let mut latest: BTreeMap<(usize, u64, u64), usize> = BTreeMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut follows = Vec::new();
        for (i, s) in slice.iter().enumerate() {
            let address = (
                s.cores,
                s.utilization.map_or(0, f64::to_bits),
                s.problem_stream,
            );
            let previous = latest.get(&address).copied();
            let g = match previous {
                Some(g) if !carry || groups[g].last() == Some(&(i - 1)) => g,
                _ => {
                    groups.push(Vec::new());
                    follows.push(previous);
                    latest.insert(address, groups.len() - 1);
                    groups.len() - 1
                }
            };
            groups[g].push(i);
        }
        let width = if pack { UNIT_GROUPS } else { 1 };
        let cores = |g: usize| slice[groups[g][0]].cores;
        let mut units = Vec::new();
        let mut start = 0;
        for (g, followed) in follows.iter().enumerate().skip(1) {
            if g - start == width
                || cores(g) != cores(start)
                || followed.is_some_and(|f| f >= start)
            {
                units.push(start..g);
                start = g;
            }
        }
        if !groups.is_empty() {
            units.push(start..groups.len());
        }
        Units {
            groups,
            follows,
            units,
        }
    }

    /// The list positions unit `u` spans, its first member to its last.
    fn span(&self, u: usize) -> usize {
        let members = self.groups[self.units[u].clone()].iter().flatten();
        let (first, last) = members.fold((usize::MAX, 0), |(lo, hi), &i| (lo.min(i), hi.max(i)));
        last + 1 - first
    }
}

/// The in-order emission state shared by all workers: a reorder buffer over
/// the out-of-order completions plus the sink it drains into.
struct Drain<'s> {
    /// Relative index of the next outcome to hand to the sink.
    next: usize,
    /// Completed outcomes waiting for their turn.
    pending: BTreeMap<usize, ScenarioOutcome>,
    /// Groups a later group follows that have not finished yet.
    awaited: BTreeSet<usize>,
    /// The list-order consumer.
    sink: &'s mut dyn OutcomeSink,
    /// First sink error; set once, aborts the sweep.
    error: Option<std::io::Error>,
}

/// Everything the workers of one run share.
struct Pool<'a, 's> {
    spec: &'a ScenarioSpec,
    slice: &'a [Scenario],
    units: Units,
    /// The frontier runner's entries carried across its runs, if any.
    carried: Option<&'a CarriedEntries>,
    store: Option<&'a MemoStore>,
    obs: &'a SweepObs,
    handle: &'a SweepHandle,
    /// The reorder window: a unit may start only while its first scenario
    /// is less than `window` positions ahead of the drain.
    window: usize,
    cursor: AtomicUsize,
    drain: Mutex<Drain<'s>>,
    turnstile: Condvar,
    /// The reorder-buffer depth is a property of the shared drain, not of
    /// any worker, so every worker writes the same engine-track gauge
    /// (always under the drain lock — no torn updates).
    reorder_depth: Gauge,
}

/// The worker count a run of `work_units` units uses: `requested`
/// (`0` = machine parallelism), clamped to `1..=work_units`.
fn resolve_threads(requested: usize, work_units: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    requested.clamp(1, work_units.max(1))
}

/// Runs `scenarios[range]` (clamped to the list; an inverted or
/// out-of-list range clamps to empty) under `session`'s threads,
/// observability, store and handle, streaming outcomes to `sink` in list
/// order. The session's own range is not consulted — callers pass the
/// range they mean. Each [`Scenario::index`] must equal its list position.
///
/// `carried` lets the frontier runner carry each address's problem,
/// verdict and allocator runs from one run into the next: a group reads its
/// entry when it starts and extends it when it ends. Without it the run
/// keeps nothing beyond the groups in flight.
///
/// # Errors
///
/// Propagates the first sink I/O error (the sweep aborts early).
pub(crate) fn stream(
    session: &SweepSession,
    scenarios: &[Scenario],
    range: Range<usize>,
    carried: Option<&CarriedEntries>,
    sink: &mut dyn OutcomeSink,
) -> std::io::Result<StreamSummary> {
    let grid_len = scenarios.len();
    let end = range.end.min(grid_len);
    let range = range.start.min(end)..end;
    let slice = &scenarios[range.clone()];
    let units = Units::new(
        slice,
        matches!(session.spec.workload, Workload::Synthetic(_)),
        carried.is_some(),
    );
    let threads = resolve_threads(session.threads, units.units.len());
    let handle = &session.handle;
    handle.arm(slice.len());
    // lint-ok(D002): elapsed feeds only StreamSummary.elapsed (stderr
    // reporting) — the determinism tests pin that no outcome byte sees it.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();

    let pool = Pool {
        spec: &session.spec,
        slice,
        // Room for every worker's unit on top of the base window.
        window: (threads * 32).clamp(64, 1024)
            + threads
                * (0..units.units.len())
                    .map(|u| units.span(u))
                    .max()
                    .unwrap_or(0),
        drain: Mutex::new(Drain {
            next: 0,
            pending: BTreeMap::new(),
            awaited: units.follows.iter().flatten().copied().collect(),
            sink,
            error: None,
        }),
        units,
        carried,
        store: session.store.as_deref(),
        obs: &session.obs,
        handle,
        cursor: AtomicUsize::new(0),
        turnstile: Condvar::new(),
        reorder_depth: session
            .obs
            .registry()
            .shard(ENGINE_TRACK)
            .gauge("drain.reorder_depth"),
    };
    let (partial, memo) = if threads == 1 {
        pool.work(0)
    } else {
        std::thread::scope(|scope| {
            let pool = &pool;
            let workers: Vec<_> = (0..threads)
                .map(|index| scope.spawn(move || pool.work(index)))
                .collect();
            let mut merged = (SweepAccumulator::new(), MemoStats::default());
            for worker in workers {
                let (partial, memo) = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                merged.0.merge(partial);
                merged.1 = merged.1.merged(&memo);
            }
            merged
        })
    };

    let state = pool.drain.into_inner().expect("drain poisoned");
    if let Some(error) = state.error {
        return Err(error);
    }
    // A cancelled run delivered a prefix of the range: shrink it so
    // `evaluated()` keeps meaning "outcomes the sink saw". (The partial
    // aggregate of a cancelled run may additionally cover
    // completed-but-undrained outcomes; cancellation is a shutdown path,
    // not a byte-deterministic one.)
    let cancelled = handle.is_cancelled();
    if !cancelled {
        debug_assert_eq!(state.next, slice.len());
        debug_assert!(state.pending.is_empty());
    }
    state.sink.finish()?;
    let range = if cancelled {
        range.start..(range.start + handle.progress().done)
    } else {
        range
    };

    Ok(StreamSummary {
        name: session.spec.name.clone(),
        grid_len,
        range,
        partial,
        memo,
        elapsed: started.elapsed(),
        threads,
        cancelled,
    })
}

/// One problem group inside a unit: its key and what is known about it.
type GroupState = (ProblemKey, ProblemEntry);

impl Pool<'_, '_> {
    /// The worker body: claim the next unit, wait while it starts more than
    /// a window ahead of the drain or a group it follows is unfinished,
    /// evaluate it group by group, then drain every outcome whose turn has
    /// come. Returns the worker's partial aggregate and reuse counters.
    fn work(&self, worker_index: usize) -> (SweepAccumulator, MemoStats) {
        let wobs = self.obs.worker(worker_index);
        let mut local = SweepAccumulator::new();
        let mut memo = MemoStats::default();
        let mut scratch = EvalScratch::default();
        while !self.handle.is_cancelled() {
            // relaxed-ok: the fetch_add's RMW atomicity alone guarantees
            // unique indices; no data rides on this atomic — outcome handoff
            // synchronizes through the `drain` mutex below, scenario inputs
            // are immutable.
            let u = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = self.units.units.get(u) else {
                break;
            };
            if !self.admit(unit, &wobs) {
                break;
            }
            // lint-ok(D002): metrics-gated timing feeds the rt-obs histogram
            // only; obs-on/off byte-identity is pinned in CI.
            #[allow(clippy::disallowed_methods)]
            let timed = wobs.metrics_enabled().then(Instant::now);
            let mut tally = StoreTally {
                store: self.store,
                stats: MemoStats::default(),
            };
            let groups = &self.units.groups[unit.clone()];
            let states = self.resolve(groups, &mut tally, &wobs);
            let mut outcomes = Vec::new();
            for (members, state) in groups.iter().zip(states) {
                outcomes.extend(self.evaluate_group(
                    members,
                    state,
                    &mut tally,
                    &mut scratch,
                    &wobs,
                ));
            }
            // Each scenario's share of the unit's evaluation time (the
            // drain below is not part of it).
            let share =
                timed.map(|t0| t0.elapsed() / u32::try_from(outcomes.len()).unwrap_or(u32::MAX));
            for (_, outcome) in &outcomes {
                local.record(outcome);
                wobs.record_scenario(share);
            }
            wobs.add_memo_stats(&tally.stats);
            memo = memo.merged(&tally.stats);
            if !self.deliver(unit.clone(), outcomes, &wobs) {
                break;
            }
        }
        wobs.add_sim_stats(scratch.sim.stats());
        (local, memo)
    }

    /// Backpressure: waits until the drain is within one window of the
    /// unit's first scenario and every group the unit follows has finished.
    /// Followed groups sit in earlier units, so the unit holding the
    /// drain's next index, and all it follows, never wait on the window:
    /// progress is guaranteed. The wait re-arms periodically so a cancel
    /// still terminates a sleeping pool. Returns whether the unit may run.
    fn admit(&self, unit: &Range<usize>, wobs: &WorkerObs) -> bool {
        let first = self.units.groups[unit.start][0];
        let follows = &self.units.follows[unit.clone()];
        let blocked = |state: &Drain<'_>| {
            state.error.is_none()
                && (first >= state.next + self.window
                    || follows.iter().flatten().any(|g| state.awaited.contains(g)))
        };
        let mut state = self.drain.lock().expect("drain poisoned");
        if blocked(&state) {
            // lint-ok(D002): metrics-gated backpressure timing, rt-obs
            // counters only.
            #[allow(clippy::disallowed_methods)]
            let waited = wobs.metrics_enabled().then(Instant::now);
            while blocked(&state) && !self.handle.is_cancelled() {
                state = self
                    .turnstile
                    .wait_timeout(state, Duration::from_millis(25))
                    .expect("drain poisoned")
                    .0;
            }
            if let Some(t0) = waited {
                wobs.backpressure_waits.inc();
                wobs.backpressure_wait_ns
                    .add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        state.error.is_none() && !self.handle.is_cancelled()
    }

    /// Parks a finished unit's outcomes in the reorder buffer, releases the
    /// groups that follow its groups, and drains every outcome whose turn
    /// has come. Returns `false` once the sink failed.
    fn deliver(
        &self,
        unit: Range<usize>,
        outcomes: Vec<(usize, ScenarioOutcome)>,
        wobs: &WorkerObs,
    ) -> bool {
        let mut state = self.drain.lock().expect("drain poisoned");
        state.pending.extend(outcomes);
        let released = unit.fold(false, |any, g| state.awaited.remove(&g) | any);
        let mut advanced = false;
        while state.error.is_none() {
            let turn = state.next;
            let Some(ready) = state.pending.remove(&turn) else {
                break;
            };
            let span = wobs.tracer.span(PHASE_SINK);
            let recorded = state.sink.record(&ready);
            drop(span);
            match recorded {
                Ok(()) => {
                    state.next += 1;
                    advanced = true;
                }
                Err(error) => state.error = Some(error),
            }
        }
        self.handle.set_done(state.next);
        self.reorder_depth.set(state.pending.len() as i64);
        let failed = state.error.is_some();
        if advanced || failed || released {
            drop(state);
            self.turnstile.notify_all();
        }
        !failed
    }

    /// Looks up or produces every group's problem, then, for workloads
    /// with the stage, its Eq. (1) verdict: one carried in or found in the
    /// store is reused, the rest is decided and written through.
    fn resolve(
        &self,
        groups: &[Vec<usize>],
        tally: &mut StoreTally<'_>,
        wobs: &WorkerObs,
    ) -> Vec<GroupState> {
        let mut states: Vec<GroupState> = groups
            .iter()
            .map(|members| {
                let lead = &self.slice[members[0]];
                let key = problem_key(self.spec, lead);
                let carried = self.carried.and_then(|c| {
                    c.lock()
                        .expect("carried entries poisoned")
                        .get(&key)
                        .cloned()
                });
                let stats = &mut tally.stats;
                let (hits, misses) = (&mut stats.problem_hits, &mut stats.problem_misses);
                MemoStats::book(hits, misses, members.len(), carried.is_none());
                let entry = carried.unwrap_or_else(|| ProblemEntry {
                    problem: Arc::new(tally.fetch(
                        |s| s.get_problem(&key),
                        |s, problem| s.put_problem(&key, problem),
                        || generate(self.spec, lead, wobs),
                    )),
                    feasible: None,
                    allocations: Vec::new(),
                });
                (key, entry)
            })
            .collect();
        if !matches!(self.spec.workload, Workload::Synthetic(_)) {
            return states;
        }
        for (members, (key, entry)) in groups.iter().zip(states.iter_mut()) {
            let undecided = entry.feasible.is_none();
            let stats = &mut tally.stats;
            let (hits, misses) = (&mut stats.feasibility_hits, &mut stats.feasibility_misses);
            MemoStats::book(hits, misses, members.len(), undecided);
            if undecided {
                let (rt_tasks, cores) = (&entry.problem.rt_tasks, key.cores);
                let hash = hash_taskset(rt_tasks);
                entry.feasible = Some(tally.fetch(
                    |s| s.get_feasibility(hash, cores),
                    |s, &verdict| s.put_feasibility(hash, cores, verdict),
                    || necessary_condition_default_horizon(rt_tasks, cores),
                ));
            }
        }
        states
    }

    /// Evaluates one problem group: each scheme's allocator runs once (or
    /// is carried in), then every member applies its period policy and
    /// takes its metrics. Returns the members' outcomes by position and
    /// hands the extended entry to the carried map, if any.
    fn evaluate_group(
        &self,
        members: &[usize],
        (key, mut entry): GroupState,
        tally: &mut StoreTally<'_>,
        scratch: &mut EvalScratch,
        wobs: &WorkerObs,
    ) -> Vec<(usize, ScenarioOutcome)> {
        let problem = Arc::clone(&entry.problem);
        let mut outcomes = Vec::with_capacity(members.len());
        for &i in members {
            let scenario = &self.slice[i];
            let shell = ScenarioOutcome::infeasible(
                *scenario,
                problem.rt_tasks.len(),
                problem.security_tasks.len(),
                problem.total_utilization(),
            );
            if entry.feasible == Some(false) {
                outcomes.push((i, shell));
                continue;
            }
            let known = entry
                .allocations
                .iter()
                .find(|(kind, _)| *kind == scenario.allocator)
                .map(|(_, run)| Arc::clone(run));
            let stats = &mut tally.stats;
            let (hits, misses) = (&mut stats.allocation_hits, &mut stats.allocation_misses);
            MemoStats::book(hits, misses, 1, known.is_none());
            let run = known.unwrap_or_else(|| {
                let allocation_key = AllocationKey {
                    problem: key,
                    allocator: scenario.allocator,
                };
                let run = Arc::new(tally.fetch(
                    |s| s.get_allocation(&allocation_key),
                    |s, run| s.put_allocation(&allocation_key, run),
                    || allocate(self.spec, scenario, &problem, wobs),
                ));
                entry
                    .allocations
                    .push((scenario.allocator, Arc::clone(&run)));
                run
            });
            let outcome = measure(self.spec, shell, &problem, &run, scratch, wobs);
            outcomes.push((i, outcome));
        }
        if let Some(carried) = self.carried {
            carried
                .lock()
                .expect("carried entries poisoned")
                .insert(key, entry);
        }
        outcomes
    }
}

/// The problem address of `scenario` under `spec`.
fn problem_key(spec: &ScenarioSpec, scenario: &Scenario) -> ProblemKey {
    let (utilization_bits, config_fingerprint) = match &spec.workload {
        Workload::Synthetic(overrides) => (
            scenario.utilization.map_or(0, f64::to_bits),
            overrides.fingerprint(),
        ),
        Workload::CaseStudyUav => (0, CASE_STUDY_FINGERPRINT),
    };
    ProblemKey {
        cores: scenario.cores,
        utilization_bits,
        base_seed: spec.base_seed,
        stream: scenario.problem_stream,
        config_fingerprint,
    }
}

/// Generates the problem at `scenario`'s address (spanned).
fn generate(spec: &ScenarioSpec, scenario: &Scenario, wobs: &WorkerObs) -> AllocationProblem {
    let _span = wobs.tracer.span(PHASE_GENERATE);
    match &spec.workload {
        Workload::Synthetic(overrides) => generate_problem_seeded(
            &overrides.config_for(scenario.cores),
            scenario
                .utilization
                .expect("synthetic scenarios carry a utilization"),
            spec.base_seed,
            scenario.problem_stream,
        ),
        Workload::CaseStudyUav => AllocationProblem::new(
            hydra_core::casestudy::uav_rt_tasks(),
            hydra_core::catalog::table1_tasks(),
            scenario.cores,
        )
        .with_partition_config(Workload::uav_partition_config()),
    }
}

/// One allocator run of `scenario`'s scheme on `problem`, spanned, with the
/// real-time partition built inline (one `partition_tasks` run, spanned).
/// SingleCore partitions `M − 1` cores and re-expresses the
/// result over the full platform; every other scheme partitions all `M`.
/// Optimal runs its branch-and-bound through the stats-returning entry
/// point (identical result) so the search counters reach the registry.
fn allocate(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    problem: &AllocationProblem,
    wobs: &WorkerObs,
) -> Result<Allocation, AllocationError> {
    let _span = wobs.tracer.span(PHASE_ALLOCATE);
    let allocator = scenario
        .allocator
        .build(problem.security_tasks.len(), &spec.workload);
    let single_core = scenario.allocator == AllocatorKind::SingleCore;
    if single_core && problem.cores < 2 {
        // Scheme-specific rejection; no partition is ever computed.
        return allocator.allocate(problem);
    }
    let rt_cores = problem.cores - usize::from(single_core);
    let partition = {
        let _span = wobs.tracer.span(PHASE_PARTITION);
        partition_tasks(&problem.rt_tasks, rt_cores, &problem.partition_config).map_err(|e| {
            AllocationError::RtPartitionFailed {
                task: e.task,
                cores: rt_cores,
            }
        })?
    };
    match scenario.allocator {
        AllocatorKind::SingleCore => {
            let widened = SingleCoreAllocator::widen_partition(
                &partition,
                problem.cores,
                problem.rt_tasks.len(),
            );
            allocator.allocate_with_rt_partition(problem, &widened)
        }
        AllocatorKind::Optimal => {
            let (allocation, stats) = OptimalAllocator::default()
                .allocate_with_rt_partition_stats(problem, &partition)?;
            wobs.add_search_stats(stats.visited, stats.pruned, stats.total);
            Ok(allocation)
        }
        _ => allocator.allocate_with_rt_partition(problem, &partition),
    }
}

/// One feasible scenario's outcome from its scheme's allocator `run`:
/// the period policy, then the metrics (and the detection simulation).
/// `base` is the scenario's outcome shell (problem shape filled in).
#[allow(clippy::too_many_arguments)]
fn measure(
    spec: &ScenarioSpec,
    base: ScenarioOutcome,
    problem: &AllocationProblem,
    run: &SharedAllocation,
    scratch: &mut EvalScratch,
    wobs: &WorkerObs,
) -> ScenarioOutcome {
    let scenario = &base.scenario;
    let base = ScenarioOutcome {
        feasible: true,
        ..base
    };
    match run.as_ref() {
        Ok(allocation) => {
            // The period-policy axis acts here: the scheme's placement is
            // kept, the granted periods are re-optimised (or not) before any
            // metric — including the detection simulation — is taken.
            // Schemes whose grants carry invariants the per-core pass cannot
            // preserve (precedence ordering across cores) keep their granted
            // periods under every policy.
            let allocation = if scenario.allocator.supports_period_reoptimization() {
                let _span = wobs.tracer.span(PHASE_PERIOD_POLICY);
                scenario.policy.apply(problem, allocation.clone())
            } else {
                allocation.clone()
            };
            let detection = match spec.evaluation {
                Evaluation::Allocate => None,
                Evaluation::Detection { horizon, attacks } => Some(measure_detection(
                    spec,
                    scenario,
                    problem,
                    &allocation,
                    horizon,
                    attacks,
                    scratch,
                    wobs,
                )),
            };
            ScenarioOutcome {
                schedulable: true,
                cumulative_tightness: Some(
                    allocation.cumulative_tightness(&problem.security_tasks),
                ),
                mean_tightness: Some(allocation.mean_tightness()),
                period_slack: allocation.mean_period_slack(&problem.security_tasks),
                freq_ratio: allocation.frequency_ratio(&problem.security_tasks),
                detection,
                ..base
            }
        }
        Err(error) => ScenarioOutcome {
            error: Some(error.to_string()),
            ..base
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn measure_detection(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    problem: &AllocationProblem,
    allocation: &hydra_core::Allocation,
    horizon: Time,
    attacks: usize,
    scratch: &mut EvalScratch,
    wobs: &WorkerObs,
) -> DetectionStats {
    // One span over the whole measurement: workload build, attack
    // generation, the event-driven simulation and the latency fold.
    let _span = wobs.tracer.span(PHASE_SIMULATE);
    simulation_tasks_into(problem, allocation, &mut scratch.tasks);
    // Keep injections away from the tail so slow checks can still complete;
    // the seed depends on the problem address but NOT the allocator, so every
    // scheme faces the identical attack times (paired comparison).
    let margin = Time::from_secs(60).min(horizon / 2);
    let attack_seed = derive_seed(spec.base_seed ^ ATTACK_SALT, scenario.problem_stream);
    scratch.targets.clear();
    scratch.targets.extend(0..problem.security_tasks.len());
    AttackScenario::new(horizon, margin, attack_seed).generate_into(
        attacks,
        &scratch.targets,
        &mut scratch.attacks,
    );
    // Cores are fully isolated under partitioned scheduling, so a core that
    // hosts no attacked security task cannot influence any detection outcome
    // — drop its tasks before simulating. (The attack cycle hits the first
    // `min(attacks, n_sec)` targets.) Under the SingleCore scheme this
    // collapses the simulation to the dedicated security core alone.
    let attacked = scratch.targets.len().min(attacks);
    let cores_total = scratch.tasks.iter().map(|t| t.core + 1).max().unwrap_or(0);
    scratch.core_monitored.clear();
    scratch.core_monitored.resize(cores_total, false);
    for task in &scratch.tasks {
        if let TaskKind::Security(s) = task.kind {
            if s < attacked {
                scratch.core_monitored[task.core] = true;
            }
        }
    }
    // In-place unstable partition (keeps every recycled buffer alive): the
    // engine's heaps impose the dispatch order, so member order within the
    // slice cannot change any outcome.
    let mut keep = 0usize;
    for i in 0..scratch.tasks.len() {
        if scratch.core_monitored[scratch.tasks[i].core] {
            scratch.tasks.swap(keep, i);
            keep += 1;
        }
    }
    let sim_tasks = &scratch.tasks[..keep];
    // One streaming pass: no trace is materialised, detection latencies fold
    // online per completed job, and the simulation stops as soon as every
    // attack is resolved — outcomes are identical to the trace-based
    // measurement (pinned by the rt-sim equality tests).
    scratch.detector.begin(sim_tasks, &scratch.attacks);
    if !scratch.detector.finished() {
        simulate_with_scratch(
            sim_tasks,
            &SimConfig::new(horizon),
            &mut scratch.sim,
            &mut scratch.detector,
        );
    }
    scratch.latencies.clear();
    scratch.latencies.extend(
        scratch
            .detector
            .outcomes()
            .iter()
            .filter_map(|o| o.latency())
            .map(|t| t.as_millis_f64()),
    );
    scratch
        .latencies
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // The samples arrive sorted, so the percentile summaries are computed
    // with the no-clone `percentile_sorted` fast path.
    DetectionStats::from_sorted_latencies(scratch.attacks.len(), scratch.latencies.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CsvSink, JsonlSink, VecSink};
    use crate::spec::{AllocatorKind, ScenarioSpec, UtilizationGrid};
    use crate::testutil::{aggregate, run, run_session, to_csv, to_jsonl};

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("tiny");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2, 0.5]);
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
        spec.trials = 3;
        spec
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let spec = tiny_spec();
        let serial = run(&spec, 1);
        let parallel = run(&spec, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 12);
    }

    #[test]
    fn allocator_axis_shares_problem_instances() {
        let (outcomes, summary) = run_session(SweepSession::new(tiny_spec()).threads(1));
        // Problems are generated once per (cores, util, trial) point and
        // reused across both allocators.
        assert_eq!(summary.memo.problem_misses, 6);
        assert_eq!(summary.memo.problem_hits, 6);
        // Paired scenarios report identical problem shapes.
        for pair in outcomes.chunks(2) {
            assert_eq!(pair[0].n_rt, pair[1].n_rt);
            assert_eq!(pair[0].n_sec, pair[1].n_sec);
            assert_eq!(pair[0].total_utilization, pair[1].total_utilization);
        }
    }

    #[test]
    fn allocator_axis_runs_one_allocation_per_scheme() {
        // Each scheme's placement search (with its inline `partition_tasks`)
        // runs once per (problem, scheme): one miss each, never a
        // cross-scheme hit — which is why a cross-scheme partition cache
        // would be dead weight.
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::NpHydra];
        let (outcomes, summary) = run_session(SweepSession::new(spec).threads(1));
        let feasible_problems = outcomes
            .iter()
            .filter(|o| o.feasible && o.scenario.allocator == AllocatorKind::Hydra)
            .count() as u64;
        assert!(feasible_problems > 0);
        assert_eq!(summary.memo.allocation_misses, 2 * feasible_problems);
        assert_eq!(summary.memo.allocation_hits, 0);
    }

    #[test]
    fn single_core_reexpresses_the_smaller_partition_over_the_full_platform() {
        // SingleCore partitions M − 1 cores inline and widens the result to
        // the full platform; the path must agree with the scheme's own
        // allocate() on every outcome (pinned indirectly: outcomes carry the
        // same schedulability as the pre-refactor engine's, which the
        // determinism tests diff at the byte level).
        let outcomes = run(&tiny_spec(), 1);
        let mut scheduled = 0usize;
        for outcome in &outcomes {
            if outcome.scenario.allocator == AllocatorKind::SingleCore && outcome.schedulable {
                assert!(outcome.cumulative_tightness.is_some());
                scheduled += 1;
            }
        }
        assert!(
            scheduled > 0,
            "tiny spec must schedule some SingleCore points"
        );
    }

    #[test]
    fn period_policy_axis_shares_problems_and_allocations() {
        use crate::spec::PeriodPolicy;
        // Three policy variants of one allocator re-use the generated
        // problem *and* the allocator run (which partitions inline): the
        // policy pass happens after allocation, so the axis costs no
        // regeneration at all.
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Hydra];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        let (outcomes, summary) = run_session(SweepSession::new(spec).threads(1));
        assert_eq!(outcomes.len(), 18);
        assert_eq!(summary.memo.problem_misses, 6);
        assert_eq!(summary.memo.problem_hits, 12);
        let feasible_problems = outcomes
            .iter()
            .filter(|o| o.feasible && o.scenario.policy == PeriodPolicy::Fixed)
            .count() as u64;
        assert!(feasible_problems > 0);
        // The placement search itself runs once per (problem, scheme) and
        // the other two policies reuse it.
        assert_eq!(summary.memo.allocation_misses, feasible_problems);
        assert_eq!(summary.memo.allocation_hits, 2 * feasible_problems);
    }

    #[test]
    fn period_policies_are_paired_and_ordered() {
        use crate::spec::PeriodPolicy;
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Hydra];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        let outcomes = run(&spec, 1);
        for triple in outcomes.chunks(3) {
            let [fixed, adapt, joint] = triple else {
                panic!("policy triples must be adjacent in grid order");
            };
            assert_eq!(fixed.scenario.policy, PeriodPolicy::Fixed);
            assert_eq!(adapt.scenario.policy, PeriodPolicy::Adapt);
            assert_eq!(joint.scenario.policy, PeriodPolicy::Joint);
            // The policy acts post-allocation: the paired problem and the
            // schedulability verdict are identical across the axis.
            assert_eq!(fixed.scenario.problem_stream, joint.scenario.problem_stream);
            assert_eq!(fixed.feasible, adapt.feasible);
            assert_eq!(fixed.schedulable, adapt.schedulable);
            assert_eq!(fixed.schedulable, joint.schedulable);
            assert_eq!(fixed.n_rt, joint.n_rt);
            if !fixed.schedulable {
                continue;
            }
            // HYDRA already grants greedy minimal periods, so the greedy
            // re-adaptation is a fixed point of its allocations…
            assert_eq!(fixed.cumulative_tightness, adapt.cumulative_tightness);
            assert_eq!(fixed.period_slack, adapt.period_slack);
            assert_eq!(fixed.freq_ratio, adapt.freq_ratio);
            // …and the joint refinement starts from greedy, so it never
            // loses cumulative tightness. (Frequency ratio and slack are not
            // monotonic across policies: stretching a high-priority period
            // can let the tasks below it run faster.)
            let (f, j) = (
                fixed.cumulative_tightness.unwrap(),
                joint.cumulative_tightness.unwrap(),
            );
            assert!(j >= f - 1e-12, "joint {j} lost to fixed {f}");
            for o in triple {
                let ratio = o.freq_ratio.unwrap();
                let slack = o.period_slack.unwrap();
                assert!((0.0..=1.0 + 1e-12).contains(&ratio), "freq ratio {ratio}");
                assert!((0.0..=1.0).contains(&slack), "period slack {slack}");
            }
        }
    }

    #[test]
    fn precedence_allocations_keep_their_granted_periods_under_every_policy() {
        use crate::spec::PeriodPolicy;
        // The precedence scheme guarantees successor periods >= predecessor
        // periods across cores — an invariant the per-core re-optimisation
        // cannot preserve, so adapt/joint must be no-ops for it.
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Precedence];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        let outcomes = run(&spec, 1);
        for triple in outcomes.chunks(3) {
            for o in &triple[1..] {
                assert_eq!(o.cumulative_tightness, triple[0].cumulative_tightness);
                assert_eq!(o.mean_tightness, triple[0].mean_tightness);
                assert_eq!(o.period_slack, triple[0].period_slack);
                assert_eq!(o.freq_ratio, triple[0].freq_ratio);
            }
        }
    }

    #[test]
    fn low_utilization_synthetic_scenarios_schedule() {
        let mut spec = tiny_spec();
        spec.utilizations = UtilizationGrid::Fractions(vec![0.1]);
        for outcome in &run(&spec, 1) {
            assert!(outcome.feasible);
            assert!(
                outcome.schedulable,
                "{:?} failed: {:?}",
                outcome.scenario.allocator, outcome.error
            );
            let eta = outcome.cumulative_tightness.unwrap();
            assert!(eta > 0.0);
        }
    }

    #[test]
    fn detection_scenarios_measure_latencies() {
        let mut spec = ScenarioSpec::uav_detection("uav", 30, 25);
        spec.cores = vec![2];
        let outcomes = run(&spec, 2);
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            assert!(outcome.schedulable);
            let d = outcome.detection.as_ref().unwrap();
            assert_eq!(d.injected, 25);
            assert!(d.detected > 0);
            assert_eq!(d.missed, d.injected - d.detected);
            assert!(d.max_ms >= d.p95_ms && d.p95_ms >= d.median_ms);
            assert!(d.latencies_ms.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn throughput_is_reported_and_always_finite() {
        let mut spec = tiny_spec();
        spec.trials = 1;
        let (_, summary) = run_session(SweepSession::new(spec).threads(1));
        assert!(summary.scenarios_per_sec().unwrap() > 0.0);
        assert_eq!(summary.threads, 1);
        // Regression: an elapsed time below timer resolution used to report
        // f64::INFINITY; it must surface as None instead.
        let degenerate = StreamSummary {
            elapsed: Duration::ZERO,
            ..summary
        };
        assert_eq!(degenerate.scenarios_per_sec(), None);
    }

    #[test]
    fn streaming_matches_the_buffered_run_byte_for_byte() {
        let spec = tiny_spec();
        let buffered = run(&spec, 1);
        let mut jsonl = JsonlSink::new(Vec::new());
        let summary = SweepSession::new(spec).threads(4).run(&mut jsonl).unwrap();
        assert_eq!(summary.grid_len, buffered.len());
        assert_eq!(summary.evaluated(), buffered.len());
        assert_eq!(
            String::from_utf8(jsonl.into_inner()).unwrap(),
            to_jsonl(&buffered)
        );
        // The merged per-worker partials equal the buffered aggregation.
        assert_eq!(summary.partial.rows(), aggregate(&buffered));
    }

    #[test]
    fn shard_ranges_tile_the_grid_and_concatenate_exactly() {
        let spec = tiny_spec();
        let full = run(&spec, 1);
        let n = full.len();
        for count in [1usize, 2, 3, 5] {
            // The ranges tile [0, n) without gaps or overlap.
            let mut covered = 0;
            let mut jsonl_parts: Vec<u8> = Vec::new();
            let mut csv_parts: Vec<u8> = Vec::new();
            for index in 1..=count {
                let range = shard_range(n, index, count);
                assert_eq!(range.start, covered);
                covered = range.end;
                let mut jsonl = JsonlSink::new(Vec::new());
                let mut csv = CsvSink::new(Vec::new(), index == 1);
                let summary = SweepSession::new(spec.clone())
                    .threads(2)
                    .range(range.clone())
                    .run(&mut jsonl)
                    .unwrap();
                assert_eq!(summary.range, range);
                SweepSession::new(spec.clone())
                    .threads(1)
                    .range(range)
                    .run(&mut csv)
                    .unwrap();
                jsonl_parts.extend(jsonl.into_inner());
                csv_parts.extend(csv.into_inner());
            }
            assert_eq!(covered, n);
            assert_eq!(
                String::from_utf8(jsonl_parts).unwrap(),
                to_jsonl(&full),
                "{count} JSONL shards"
            );
            assert_eq!(
                String::from_utf8(csv_parts).unwrap(),
                to_csv(&full),
                "{count} CSV shards"
            );
        }
    }

    #[test]
    fn sink_errors_abort_the_sweep() {
        struct FailAfter(usize);
        impl OutcomeSink for FailAfter {
            fn record(&mut self, _: &ScenarioOutcome) -> std::io::Result<()> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("sink full"));
                }
                self.0 -= 1;
                Ok(())
            }
        }
        for threads in [1, 3] {
            let err = SweepSession::new(tiny_spec())
                .threads(threads)
                .run(&mut FailAfter(2))
                .expect_err("the sink error must propagate");
            assert_eq!(err.to_string(), "sink full");
        }
    }

    #[test]
    fn out_of_grid_and_inverted_ranges_clamp_to_empty() {
        #[allow(clippy::reversed_empty_ranges)]
        for range in [100..200, 10..5, 3..3] {
            let mut sink = VecSink::new();
            let summary = SweepSession::new(tiny_spec())
                .threads(1)
                .range(range)
                .run(&mut sink)
                .unwrap();
            assert_eq!(summary.evaluated(), 0);
            assert!(summary.partial.is_empty());
            assert!(sink.into_outcomes().is_empty());
        }
    }

    #[test]
    fn carried_runs_keep_units_local_on_slice_major_lists() {
        // A frontier-shaped list: six allocator × policy slices, each over
        // the same four utilizations × three trials, so every address
        // recurs once per slice, twelve positions apart.
        let list: Vec<Scenario> = (0..72)
            .map(|index| Scenario {
                index,
                cores: 2,
                utilization: Some([0.2, 0.4, 0.6, 0.8][index % 12 / 3]),
                allocator: AllocatorKind::Hydra,
                policy: crate::spec::PeriodPolicy::Fixed,
                trial: index % 3,
                problem_stream: (index % 12) as u64,
            })
            .collect();
        let spans = |units: &Units| (0..units.units.len()).map(|u| units.span(u)).max();
        // Without carried entries each group is a whole address, so a unit
        // reaches across every slice.
        let whole = Units::new(&list, true, false);
        assert_eq!(whole.groups.len(), 12);
        assert_eq!(spans(&whole), Some(68));
        // With them each group is one contiguous run: units cover at most
        // UNIT_GROUPS adjacent positions, and every run after an address's
        // first follows the run before it, in an earlier unit.
        let runs = Units::new(&list, true, true);
        assert_eq!(runs.groups.len(), 72);
        assert_eq!(spans(&runs), Some(UNIT_GROUPS));
        for (g, follows) in runs.follows.iter().enumerate() {
            assert_eq!(*follows, g.checked_sub(12), "group {g}");
        }
        for unit in &runs.units {
            assert!(runs.follows[unit.clone()]
                .iter()
                .flatten()
                .all(|&f| f < unit.start));
        }
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn zero_shard_index_is_rejected() {
        let _ = shard_range(10, 0, 2);
    }
}
