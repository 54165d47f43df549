//! Criterion bench: the partition heuristics' incremental response-time
//! admission (`rt_partition::partition_tasks`: per-core rate-monotonic
//! rows, suffix-only re-verification, utilization-seeded recurrences and
//! the hyperbolic-bound skip) against a naive reference that re-runs the
//! full response-time analysis on a freshly built task set for every
//! candidate core, on the task-set shapes the sweep engine feeds it
//! (synthetic workloads at the paper's utilization band, 2-, 4- and 8-core
//! platforms).
//!
//! Besides the criterion group, a hand-timed section emits a
//! machine-readable `BENCH_rta.json` (both arms' task-sets/sec, the speedup
//! ratio, git SHA, peak RSS) through the shared [`BenchRecord`] envelope so
//! CI can archive the comparison next to the sweep gate's document. The
//! record's `gate` verdict asserts the oracle contract — both arms build
//! the identical partition (or fail on the identical task) for every set —
//! not a throughput floor. Environment knobs:
//!
//! * `BENCH_RTA_JSON` — output path (default `<workspace>/BENCH_rta.json`).

// Benches own the wall clock (lint rule D002 boundary).
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_bench::record::BenchRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt_core::TaskSet;
use rt_partition::{
    partition_tasks, AdmissionTest, CoreId, Partition, PartitionConfig, PartitionError,
};
use taskgen::synthetic::{generate_problem, SyntheticConfig};

/// Generates `count` synthetic real-time task sets sized for `cores` (the
/// `3m..10m` task counts of the paper's workloads) at a per-core
/// utilization of 0.65 — mostly partitionable, so packing runs to the last
/// task instead of failing early.
fn prepare(cores: usize, count: usize, seed: u64) -> Vec<TaskSet> {
    let config = SyntheticConfig::paper_default(cores);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| generate_problem(&config, 0.65, &mut rng).rt_tasks)
        .collect()
}

/// The naive reference: best-fit in declaration order, admitting with
/// [`AdmissionTest::admits_with`] on each core's full task set; ties go to
/// the highest-indexed core, as in `partition_tasks`.
fn reference_best_fit(tasks: &TaskSet, cores: usize) -> Result<Partition, PartitionError> {
    let mut partition = Partition::new(tasks.len(), cores);
    for id in tasks.ids() {
        let mut best: Option<(CoreId, f64)> = None;
        for core in partition.core_ids() {
            let existing = partition.taskset_on(tasks, core);
            if AdmissionTest::ResponseTime.admits_with(&existing, &tasks[id]) {
                let util = partition.utilization_on(tasks, core);
                if best.is_none_or(|(_, u)| util >= u) {
                    best = Some((core, util));
                }
            }
        }
        match best {
            Some((core, _)) => partition.assign(id, core),
            None => {
                return Err(PartitionError {
                    task: id,
                    partial: partition,
                })
            }
        }
    }
    Ok(partition)
}

/// Partitions every set with `arm`, returning the outcomes.
fn run_arm(
    sets: &[TaskSet],
    cores: usize,
    arm: impl Fn(&TaskSet, usize) -> Result<Partition, PartitionError>,
) -> Vec<Result<Partition, PartitionError>> {
    sets.iter().map(|set| arm(set, cores)).collect()
}

fn incremental(set: &TaskSet, cores: usize) -> Result<Partition, PartitionError> {
    partition_tasks(set, cores, &PartitionConfig::paper_default())
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_64_sets");
    group.sample_size(20);
    for &cores in &[2usize, 4, 8] {
        let sets = prepare(cores, 64, 7 + cores as u64);
        group.bench_with_input(BenchmarkId::new("incremental", cores), &sets, |b, sets| {
            b.iter(|| run_arm(std::hint::black_box(sets), cores, incremental));
        });
        group.bench_with_input(BenchmarkId::new("reference", cores), &sets, |b, sets| {
            b.iter(|| run_arm(std::hint::black_box(sets), cores, reference_best_fit));
        });
    }
    group.finish();
}

/// Times `run` in whole-workload repetitions for at least ~0.4 s and
/// returns sets/sec.
fn throughput(sets_per_pass: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up
    let mut passes = 0usize;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(400) {
        run();
        passes += 1;
    }
    (passes * sets_per_pass) as f64 / started.elapsed().as_secs_f64()
}

/// The machine-readable record: incremental vs reference partitioning
/// throughput on the 4-core shape, plus the oracle-contract check on the
/// 2-, 4- and 8-core shapes.
fn bench_record(_c: &mut Criterion) {
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let shapes: Vec<(usize, Vec<TaskSet>)> = [2usize, 4, 8]
        .iter()
        .map(|&cores| (cores, prepare(cores, 256, 2018 + cores as u64)))
        .collect();
    let mismatches: usize = shapes
        .iter()
        .map(|(cores, sets)| {
            let fast = run_arm(sets, *cores, incremental);
            let slow = run_arm(sets, *cores, reference_best_fit);
            fast.iter().zip(&slow).filter(|(f, s)| f != s).count()
        })
        .sum();
    let pass = mismatches == 0;

    let (cores, sets) = &shapes[1];
    let cores = *cores;
    let tasks_total: usize = sets.iter().map(TaskSet::len).sum();
    let partitioned = run_arm(sets, cores, incremental)
        .iter()
        .filter(|p| p.is_ok())
        .count();
    let incremental_rate = throughput(sets.len(), || {
        std::hint::black_box(run_arm(sets, cores, incremental));
    });
    let reference_rate = throughput(sets.len(), || {
        std::hint::black_box(run_arm(sets, cores, reference_best_fit));
    });
    let speedup = incremental_rate / reference_rate;

    let json = BenchRecord::new("rta_kernel")
        .int("cores", cores as u128)
        .int("task_sets", sets.len() as u128)
        .int("tasks_total", tasks_total as u128)
        .num("reference_sets_per_sec", reference_rate, 1)
        .num("incremental_sets_per_sec", incremental_rate, 1)
        .num("incremental_vs_reference_speedup", speedup, 3)
        .int("partitioned_sets", partitioned as u128)
        .int("oracle_mismatches", mismatches as u128)
        .finish(pass);
    let out_path =
        std::env::var("BENCH_RTA_JSON").unwrap_or_else(|_| format!("{workspace}/BENCH_rta.json"));
    std::fs::write(&out_path, &json).expect("write BENCH_rta.json");
    println!(
        "rta_kernel: reference {reference_rate:.0} sets/s, incremental \
         {incremental_rate:.0} sets/s ({speedup:.2}x) -> {out_path}"
    );
    assert!(
        pass,
        "incremental partitions diverged from the naive reference on \
         {mismatches} of {} sets",
        3 * 256
    );
}

criterion_group!(benches, bench_record, bench_partition);
criterion_main!(benches);
