//! Problem addresses, their reusable results, and the reuse counters.
//!
//! Scenarios that differ only in the allocator or period-policy axis share
//! one `(cores, utilization, problem_stream)` address, and with it the
//! generated problem, the Eq. (1) verdict and each scheme's allocator run.
//! The engine evaluates each address's scenarios together as a *problem
//! group* ([`crate::exec`]), so that reuse is structural. What outlives a
//! group is the optional persistent [`MemoStore`] (consulted through
//! `StoreTally`) and, for frontier runs, the runner's `CarriedEntries`.
//! (A partition cache keyed by task-set hash was retired at under 0.1 %
//! hits: each allocator run partitions once anyway.)

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use hydra_core::{Allocation, AllocationError, AllocationProblem};
use rt_core::TaskSet;

use crate::spec::AllocatorKind;
use crate::store::MemoStore;

/// Identifies one generated problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProblemKey {
    /// Core count of the platform.
    pub cores: usize,
    /// Requested total utilization (bit pattern, so the key is `Eq + Hash`);
    /// zero for fixed workloads.
    pub utilization_bits: u64,
    /// The sweep's base seed.
    pub base_seed: u64,
    /// The scenario's problem-stream address.
    pub stream: u64,
    /// Fingerprint of generator overrides (different overrides generate
    /// different problems from the same address).
    pub config_fingerprint: u64,
}

/// Identifies one allocator run: the exact problem instance plus the scheme.
/// Scenarios differing only in the **period policy** share this key — the
/// placement search runs once and each policy re-derives its periods from
/// the shared result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationKey {
    /// The generated problem's identity.
    pub problem: ProblemKey,
    /// The allocation scheme that ran.
    pub allocator: AllocatorKind,
}

/// FNV-1a over the timing parameters of a real-time task set: a stable
/// structural fingerprint for schedulability caching.
#[must_use]
pub fn hash_taskset(set: &TaskSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    feed(set.len() as u64);
    for task in set.tasks() {
        feed(task.wcet().as_ticks());
        feed(task.period().as_ticks());
        feed(task.deadline().as_ticks());
    }
    h
}

/// Reuse counters of a finished run, counted per worker and merged at join,
/// so they are exact and identical at every thread count.
///
/// Every scenario *accesses* its group's problem, every scenario past the
/// Eq. (1) stage its group's verdict, and every feasible scenario its
/// scheme's allocator run. Per group, the first access of a value the run
/// had to produce is a miss and every other access a hit; a value carried
/// from an earlier group of the address (an earlier run of a frontier list
/// or an earlier frontier round) is a hit for every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Problem-cache hits (a regeneration elided).
    pub problem_hits: u64,
    /// Problem-cache misses (the generator actually ran).
    pub problem_misses: u64,
    /// Feasibility-cache hits (an Eq. (1) evaluation elided).
    pub feasibility_hits: u64,
    /// Feasibility-cache misses: one per problem address whose verdict the
    /// run decided.
    pub feasibility_misses: u64,
    /// Allocation-cache hits (a placement search elided — the period-policy
    /// axis reuses one allocator run per `(problem, scheme)` key).
    pub allocation_hits: u64,
    /// Allocation-cache misses (the allocator actually ran).
    pub allocation_misses: u64,
    /// Persistent-store hits, summed over all three families: a miss above
    /// that was answered from the attached [`MemoStore`] instead of
    /// recomputed. Always zero without an attached store. The family
    /// counters above deliberately do **not** distinguish warm from cold
    /// stores — a store hit still books the family miss the computation
    /// would have booked, keeping them identical across store states.
    pub store_hits: u64,
    /// Persistent-store misses (all three families): the key was absent —
    /// or its entry corrupt — so the value was computed and written back.
    /// A fully warm store completes a repeat sweep with zero misses.
    pub store_misses: u64,
    /// Failed persistent-store writes (all three families). Write failures
    /// are tolerated — the sweep's results are unaffected; the entry is
    /// simply recomputed by whoever needs it next.
    pub store_write_errors: u64,
}

impl MemoStats {
    /// Books `accesses` accesses of one group-shared value: one miss plus
    /// hits for the rest when the group `produced` it, all hits otherwise.
    pub(crate) fn book(hits: &mut u64, misses: &mut u64, accesses: usize, produced: bool) {
        let accesses = accesses as u64;
        let missed = u64::from(produced && accesses > 0);
        *misses += missed;
        *hits += accesses - missed;
    }

    /// The field-wise sum of both counter sets.
    #[must_use]
    pub(crate) fn merged(self, other: &MemoStats) -> MemoStats {
        MemoStats {
            problem_hits: self.problem_hits + other.problem_hits,
            problem_misses: self.problem_misses + other.problem_misses,
            feasibility_hits: self.feasibility_hits + other.feasibility_hits,
            feasibility_misses: self.feasibility_misses + other.feasibility_misses,
            allocation_hits: self.allocation_hits + other.allocation_hits,
            allocation_misses: self.allocation_misses + other.allocation_misses,
            store_hits: self.store_hits + other.store_hits,
            store_misses: self.store_misses + other.store_misses,
            store_write_errors: self.store_write_errors + other.store_write_errors,
        }
    }
}

/// An allocator run: the allocation, or the scheme's rejection (a rejection
/// is shared by every policy of the scheme, like an allocation).
pub(crate) type SharedAllocation = Arc<Result<Allocation, AllocationError>>;

/// Everything the engine learned about one problem address.
#[derive(Debug, Clone)]
pub(crate) struct ProblemEntry {
    /// The generated problem.
    pub(crate) problem: Arc<AllocationProblem>,
    /// The Eq. (1) verdict, once decided (never for workloads without the
    /// stage).
    pub(crate) feasible: Option<bool>,
    /// The allocator runs so far, one per scheme.
    pub(crate) allocations: Vec<(AllocatorKind, SharedAllocation)>,
}

/// The frontier runner's per-address entries, read when a group starts and
/// extended when it ends, so the Phase A probe rounds warm exactly what
/// Phase B reads.
pub(crate) type CarriedEntries = Mutex<BTreeMap<ProblemKey, ProblemEntry>>;

/// The persistent-store side of one work unit: every lookup and write-back
/// goes through here and books the `store_*` counters on `stats`. Without a
/// store nothing is looked up or booked.
#[derive(Debug)]
pub(crate) struct StoreTally<'a> {
    pub(crate) store: Option<&'a MemoStore>,
    pub(crate) stats: MemoStats,
}

impl StoreTally<'_> {
    /// Looks a value up in the store.
    pub(crate) fn get<T>(&mut self, get: impl FnOnce(&MemoStore) -> Option<T>) -> Option<T> {
        let found = get(self.store?);
        self.stats.store_hits += u64::from(found.is_some());
        self.stats.store_misses += u64::from(found.is_none());
        found
    }

    /// Writes a computed value back to the store.
    pub(crate) fn put(&mut self, put: impl FnOnce(&MemoStore) -> std::io::Result<()>) {
        if let Some(store) = self.store {
            self.stats.store_write_errors += u64::from(put(store).is_err());
        }
    }

    /// A value from the store, or `compute`d and written back.
    pub(crate) fn fetch<T>(
        &mut self,
        get: impl FnOnce(&MemoStore) -> Option<T>,
        put: impl FnOnce(&MemoStore, &T) -> std::io::Result<()>,
        compute: impl FnOnce() -> T,
    ) -> T {
        self.get(get).unwrap_or_else(|| {
            let value = compute();
            self.put(|store| put(store, &value));
            value
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SweepSession;
    use crate::spec::{PeriodPolicy, ScenarioSpec, UtilizationGrid};
    use crate::testutil::run_session;
    use hydra_core::{casestudy, catalog};

    fn key(stream: u64) -> ProblemKey {
        ProblemKey {
            cores: 2,
            utilization_bits: 1.5f64.to_bits(),
            base_seed: 7,
            stream,
            config_fingerprint: 0,
        }
    }

    fn uav_problem() -> AllocationProblem {
        AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), 2)
    }

    fn store_in(tag: &str) -> (Arc<MemoStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("rt-dse-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = MemoStore::open(&dir)
            .expect("temp store opens")
            .with_fsync(false);
        (Arc::new(store), dir)
    }

    /// Two core counts × two utilizations × three trials = 12 addresses,
    /// each shared by two schemes × three policies.
    fn paired_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("memo-test");
        spec.cores = vec![2, 4];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.5, 0.95]);
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        spec.trials = 3;
        spec
    }

    #[test]
    fn problem_generation_runs_once_per_key() {
        for threads in [1, 2, 4] {
            let (outcomes, summary) =
                run_session(SweepSession::new(paired_spec()).threads(threads));
            assert_eq!(outcomes.len(), 72);
            assert_eq!(summary.memo.problem_misses, 12, "threads={threads}");
            assert_eq!(summary.memo.problem_hits, 60, "threads={threads}");
        }
    }

    /// The problem at `key` through `tally`, generated by `generate`.
    fn fetch_problem(
        tally: &mut StoreTally<'_>,
        key: &ProblemKey,
        generate: impl FnOnce() -> AllocationProblem,
    ) -> AllocationProblem {
        tally.fetch(
            |s| s.get_problem(key),
            |s, p| s.put_problem(key, p),
            generate,
        )
    }

    #[test]
    fn distinct_keys_generate_distinct_entries() {
        let mut tally = StoreTally {
            store: None,
            stats: MemoStats::default(),
        };
        let mut generated = Vec::new();
        for stream in [1, 2] {
            let problem = fetch_problem(&mut tally, &key(stream), || {
                generated.push(stream);
                uav_problem()
            });
            assert_eq!(problem.cores, 2);
        }
        assert_eq!(generated, [1, 2]);
        // Without a store nothing is looked up, written or booked.
        assert_eq!(tally.get(|_| Some(true)), None);
        tally.put(|_| Err(std::io::Error::other("never called")));
        assert_eq!(tally.stats, MemoStats::default());
    }

    #[test]
    fn feasibility_verdicts_are_cached() {
        // One Eq. (1) decision per address; every other scenario of the
        // group reads it.
        let (_, summary) = run_session(SweepSession::new(paired_spec()).threads(2));
        assert_eq!(summary.memo.feasibility_misses, 12);
        assert_eq!(summary.memo.feasibility_hits, 60);
    }

    #[test]
    fn allocations_are_cached_including_rejections() {
        let (outcomes, summary) = run_session(SweepSession::new(paired_spec()).threads(2));
        let fixed = |o: &&crate::scenario::ScenarioOutcome| {
            o.feasible && o.scenario.policy == PeriodPolicy::Fixed
        };
        let runs = outcomes.iter().filter(fixed).count() as u64;
        let rejections = outcomes
            .iter()
            .filter(fixed)
            .filter(|o| o.error.is_some())
            .count();
        assert!(rejections > 0, "the spec must reach rejections");
        assert!(runs > rejections as u64, "and schedule some points");
        // One allocator run per feasible (address, scheme) — rejections
        // included — shared by the other two policies.
        assert_eq!(summary.memo.allocation_misses, runs);
        assert_eq!(summary.memo.allocation_hits, 2 * runs);
    }

    #[test]
    fn group_accesses_book_one_miss_when_produced() {
        let mut stats = MemoStats::default();
        MemoStats::book(&mut stats.problem_hits, &mut stats.problem_misses, 9, true);
        MemoStats::book(&mut stats.problem_hits, &mut stats.problem_misses, 3, false);
        MemoStats::book(
            &mut stats.allocation_hits,
            &mut stats.allocation_misses,
            0,
            true,
        );
        assert_eq!((stats.problem_misses, stats.problem_hits), (1, 11));
        assert_eq!((stats.allocation_misses, stats.allocation_hits), (0, 0));
        let doubled = stats.merged(&stats);
        assert_eq!((doubled.problem_misses, doubled.problem_hits), (2, 22));
    }

    #[test]
    fn store_backed_cache_answers_repeat_misses_from_disk() {
        let (store, dir) = store_in("repeat");
        // Cold: everything misses the store, computes, writes back.
        let mut cold = StoreTally {
            store: Some(&store),
            stats: MemoStats::default(),
        };
        let mut generated = 0;
        let problem = fetch_problem(&mut cold, &key(1), || {
            generated += 1;
            uav_problem()
        });
        let hash = hash_taskset(&problem.rt_tasks);
        assert_eq!(cold.get(|s| s.get_feasibility(hash, 2)), None);
        cold.put(|s| s.put_feasibility(hash, 2, true));
        assert_eq!(cold.stats.store_hits, 0);
        assert_eq!(cold.stats.store_misses, 2);
        assert_eq!(cold.stats.store_write_errors, 0);
        // Warm: nothing is recomputed.
        let mut warm = StoreTally {
            store: Some(&store),
            stats: MemoStats::default(),
        };
        let _ = fetch_problem(&mut warm, &key(1), || {
            generated += 1;
            uav_problem()
        });
        assert_eq!(warm.get(|s| s.get_feasibility(hash, 2)), Some(true));
        assert_eq!(generated, 1);
        assert_eq!(warm.stats.store_hits, 2);
        assert_eq!(warm.stats.store_misses, 0);
        // A failed write-back is booked, not raised.
        warm.put(|_| Err(std::io::Error::other("disk full")));
        assert_eq!(warm.stats.store_write_errors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_backed_allocations_round_trip() {
        let (store, dir) = store_in("alloc");
        let akey = AllocationKey {
            problem: key(1),
            allocator: AllocatorKind::Hydra,
        };
        let fetch = |tally: &mut StoreTally<'_>,
                     build: &dyn Fn() -> Result<Allocation, AllocationError>| {
            tally.fetch(
                |s| s.get_allocation(&akey),
                |s, run| s.put_allocation(&akey, run),
                build,
            )
        };
        let mut cold = StoreTally {
            store: Some(&store),
            stats: MemoStats::default(),
        };
        let rejected = fetch(&mut cold, &|| {
            Err(AllocationError::InsufficientCores {
                available: 1,
                required: 2,
            })
        });
        assert!(rejected.is_err());
        assert_eq!(cold.stats.store_misses, 1);
        let mut warm = StoreTally {
            store: Some(&store),
            stats: MemoStats::default(),
        };
        assert!(fetch(&mut warm, &|| panic!("allocation is on disk")).is_err());
        assert_eq!(warm.stats.store_hits, 1);
        assert_eq!(warm.stats.store_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feasibility_verdicts_write_through_to_the_store() {
        // Every Eq. (1) verdict a run decides reaches the store, and a warm
        // rerun reads them all.
        let (store, dir) = store_in("feasibility");
        let session = || {
            SweepSession::new(paired_spec())
                .threads(2)
                .memo_store(Arc::clone(&store))
        };
        let (cold, cold_summary) = run_session(session());
        for outcome in &cold {
            let s = outcome.scenario;
            let config = match &paired_spec().workload {
                crate::spec::Workload::Synthetic(o) => o.config_for(s.cores),
                crate::spec::Workload::CaseStudyUav => unreachable!(),
            };
            let problem = taskgen::generate_problem_seeded(
                &config,
                s.utilization.expect("synthetic"),
                paired_spec().base_seed,
                s.problem_stream,
            );
            assert_eq!(
                store.get_feasibility(hash_taskset(&problem.rt_tasks), s.cores),
                Some(outcome.feasible)
            );
        }
        let (warm, warm_summary) = run_session(session());
        assert_eq!(warm, cold);
        assert_eq!(warm_summary.memo.store_misses, 0);
        assert!(warm_summary.memo.store_hits > 0);
        // A store hit still books the family miss the computation would
        // have booked: the problem, feasibility and allocation counters are
        // the same with no store, a cold one and a warm one; only the
        // `store_*` counters differ.
        let (_, storeless) = run_session(SweepSession::new(paired_spec()).threads(2));
        let families = |memo: MemoStats| MemoStats {
            store_hits: 0,
            store_misses: 0,
            store_write_errors: 0,
            ..memo
        };
        assert_eq!(families(storeless.memo), storeless.memo);
        assert_eq!(families(cold_summary.memo), storeless.memo);
        assert_eq!(families(warm_summary.memo), storeless.memo);
        assert!(cold_summary.memo.store_misses > 0);
        assert_eq!(cold_summary.memo.store_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn taskset_hash_is_structural() {
        let a = casestudy::uav_rt_tasks();
        let b = casestudy::uav_rt_tasks();
        assert_eq!(hash_taskset(&a), hash_taskset(&b));
        let mut c = casestudy::uav_rt_tasks();
        c.push(
            rt_core::RtTask::implicit_deadline(
                rt_core::Time::from_millis(1),
                rt_core::Time::from_millis(100),
            )
            .unwrap(),
        );
        assert_ne!(hash_taskset(&a), hash_taskset(&c));
    }
}
