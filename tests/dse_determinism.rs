//! Determinism guarantees of the design-space exploration engine, pinned as
//! properties:
//!
//! * two runs of the same [`ScenarioSpec`] + seed produce **byte-identical**
//!   JSONL output,
//! * parallel and serial execution produce identical outcomes and therefore
//!   identical aggregates,
//! * changing the seed changes the results (the guarantee is not vacuous),
//! * sharded (`--shard i/n`-style range) runs and killed-then-resumed runs
//!   concatenate to the **byte-identical** single-process stream at any
//!   thread count.

use hydra_repro::dse::sink::{outcome_to_csv_row, outcome_to_json, summary_to_csv, CSV_HEADER};
use hydra_repro::dse::{prelude::*, AggregateRow, MemoStats, TeeSink};
use proptest::prelude::*;

/// Runs `session`, buffering every outcome in grid order.
fn collect(session: SweepSession) -> Vec<ScenarioOutcome> {
    collect_with_memo(session).0
}

/// Runs `session`, buffering every outcome in grid order, and returns the
/// run's reuse counters with them.
fn collect_with_memo(session: SweepSession) -> (Vec<ScenarioOutcome>, MemoStats) {
    let mut sink = VecSink::new();
    let summary = session.run(&mut sink).expect("a VecSink never fails");
    (sink.into_outcomes(), summary.memo)
}

/// Runs `spec` on `threads` workers, buffering every outcome in grid order.
fn run(spec: &ScenarioSpec, threads: usize) -> Vec<ScenarioOutcome> {
    collect(SweepSession::new(spec.clone()).threads(threads))
}

/// Renders outcomes as JSONL (one JSON object per line).
fn to_jsonl(outcomes: &[ScenarioOutcome]) -> String {
    outcomes.iter().map(|o| outcome_to_json(o) + "\n").collect()
}

/// Renders outcomes as a flat CSV (header + one row per outcome).
fn to_csv(outcomes: &[ScenarioOutcome]) -> String {
    let rows: String = outcomes
        .iter()
        .map(|o| outcome_to_csv_row(o) + "\n")
        .collect();
    format!("{CSV_HEADER}\n{rows}")
}

/// Folds outcomes into the summary rows.
fn aggregate(outcomes: &[ScenarioOutcome]) -> Vec<AggregateRow> {
    let mut acc = SweepAccumulator::new();
    for outcome in outcomes {
        acc.record(outcome);
    }
    acc.rows()
}

/// A small randomly-parameterised sweep spec: the property tests quantify
/// over cores, trials, utilization grids, seeds and allocator subsets.
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0u64..1_000_000, // base seed
        1usize..=3,      // trials
        2usize..=3,      // utilization steps
        0usize..=2,      // cores-axis selector
        0usize..=2,      // allocator-pair selector
        0usize..=2,      // period-policy selector
    )
        .prop_map(
            |(base_seed, trials, steps, cores_sel, alloc_sel, policy_sel)| {
                let cores = match cores_sel {
                    0 => vec![2],
                    1 => vec![4],
                    _ => vec![2, 4],
                };
                let allocators = match alloc_sel {
                    0 => vec![AllocatorKind::Hydra, AllocatorKind::SingleCore],
                    1 => vec![AllocatorKind::Hydra, AllocatorKind::NpHydra],
                    _ => vec![
                        AllocatorKind::Hydra,
                        AllocatorKind::SingleCore,
                        AllocatorKind::NpHydra,
                    ],
                };
                let period_policies = match policy_sel {
                    0 => vec![PeriodPolicy::Fixed],
                    1 => vec![PeriodPolicy::Fixed, PeriodPolicy::Adapt],
                    _ => vec![
                        PeriodPolicy::Fixed,
                        PeriodPolicy::Adapt,
                        PeriodPolicy::Joint,
                    ],
                };
                let mut spec = ScenarioSpec::synthetic("determinism");
                spec.cores = cores;
                // Stay in the low-to-mid utilization band so the sweep runs fast.
                spec.utilizations = UtilizationGrid::NormalizedSteps(steps);
                spec.allocators = allocators;
                spec.period_policies = period_policies;
                spec.trials = trials;
                spec.base_seed = base_seed;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn repeated_runs_serialize_to_identical_bytes(spec in arb_spec()) {
        let first = run(&spec, 1);
        let second = run(&spec, 1);
        prop_assert_eq!(to_jsonl(&first), to_jsonl(&second));
        prop_assert_eq!(to_csv(&first), to_csv(&second));
    }

    #[test]
    fn parallel_and_serial_execution_agree_exactly(spec in arb_spec()) {
        let serial = run(&spec, 1);
        let parallel = run(&spec, 4);
        // Outcome-level equality...
        prop_assert_eq!(&serial, &parallel);
        // ...and therefore byte-identical serializations and aggregates.
        prop_assert_eq!(
            to_jsonl(&serial),
            to_jsonl(&parallel)
        );
        let serial_agg = aggregate(&serial);
        let parallel_agg = aggregate(&parallel);
        prop_assert_eq!(&serial_agg, &parallel_agg);
        prop_assert_eq!(summary_to_csv(&serial_agg), summary_to_csv(&parallel_agg));
    }

    #[test]
    fn different_seeds_produce_different_results(spec in arb_spec()) {
        let mut reseeded = spec.clone();
        reseeded.base_seed = spec.base_seed.wrapping_add(1);
        let a = run(&spec, 1);
        let b = run(&reseeded, 1);
        // Same grid shape...
        prop_assert_eq!(a.len(), b.len());
        // ...but different generated workloads somewhere in the sweep.
        prop_assert!(
            to_jsonl(&a) != to_jsonl(&b),
            "two different seeds produced byte-identical sweeps"
        );
    }
}

#[test]
fn sampled_expansion_is_deterministic_across_thread_counts() {
    let mut spec = ScenarioSpec::synthetic("sampled-determinism");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(4);
    spec.trials = 3;
    spec.expansion = Expansion::Sampled(20);
    let serial = run(&spec, 1);
    let parallel = run(&spec, 3);
    assert_eq!(serial.len(), 20);
    assert_eq!(to_jsonl(&serial), to_jsonl(&parallel));
}

/// Streams `range` of `spec` into fresh JSONL/CSV buffers and appends them
/// to `jsonl`/`csv`; `first` controls the CSV header (only the first slice
/// of a split run carries it).
fn stream_range_into(
    spec: &ScenarioSpec,
    threads: usize,
    range: std::ops::Range<usize>,
    first: bool,
    jsonl: &mut Vec<u8>,
    csv: &mut Vec<u8>,
) {
    let mut jsonl_sink = JsonlSink::new(Vec::new());
    let mut csv_sink = CsvSink::new(Vec::new(), first);
    let mut tee = TeeSink::new().with(&mut jsonl_sink).with(&mut csv_sink);
    SweepSession::new(spec.clone())
        .threads(threads)
        .range(range)
        .run(&mut tee)
        .expect("in-memory sinks never fail");
    jsonl.extend(jsonl_sink.into_inner());
    csv.extend(csv_sink.into_inner());
}

#[test]
fn shard_streams_concatenate_to_the_full_run_at_any_thread_count() {
    let mut spec = ScenarioSpec::synthetic("sharded");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.allocators = vec![
        AllocatorKind::Hydra,
        AllocatorKind::SingleCore,
        AllocatorKind::NpHydra,
    ];
    // Shard boundaries may fall *inside* a policy triple: concatenation must
    // still be exact, so the sharded spec carries the full policy axis.
    spec.period_policies = vec![
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];
    spec.trials = 2;
    let full = run(&spec, 1);
    let (full_jsonl, full_csv) = (to_jsonl(&full), to_csv(&full));
    let n = full.len();
    assert_eq!(n, 108);
    for threads in [1usize, 3] {
        for count in [2usize, 5] {
            let mut jsonl = Vec::new();
            let mut csv = Vec::new();
            for index in 1..=count {
                let range = shard_range(n, index, count);
                stream_range_into(&spec, threads, range, index == 1, &mut jsonl, &mut csv);
            }
            assert_eq!(
                String::from_utf8(jsonl).unwrap(),
                full_jsonl,
                "{count} shards on {threads} threads (JSONL)"
            );
            assert_eq!(
                String::from_utf8(csv).unwrap(),
                full_csv,
                "{count} shards on {threads} threads (CSV)"
            );
        }
    }
}

#[test]
fn a_killed_and_resumed_run_is_byte_identical_to_one_full_sweep() {
    // A resume is a range run continuing where the durable prefix ended —
    // model a kill at several awkward cut points, including inside a shard.
    let mut spec = ScenarioSpec::synthetic("resumed");
    spec.cores = vec![2];
    spec.utilizations = UtilizationGrid::NormalizedSteps(4);
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.trials = 3;
    let full = run(&spec, 1);
    let (full_jsonl, full_csv) = (to_jsonl(&full), to_csv(&full));
    let n = full.len();
    for cut in [1usize, n / 3 + 1, n - 1] {
        let mut jsonl = Vec::new();
        let mut csv = Vec::new();
        stream_range_into(&spec, 2, 0..cut, true, &mut jsonl, &mut csv);
        stream_range_into(&spec, 4, cut..n, false, &mut jsonl, &mut csv);
        assert_eq!(
            String::from_utf8(jsonl).unwrap(),
            full_jsonl,
            "resume after {cut} (JSONL)"
        );
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            full_csv,
            "resume after {cut} (CSV)"
        );
    }
}

#[test]
fn three_policy_paired_sweeps_are_byte_identical_across_thread_counts() {
    // The acceptance property of the period-policy axis: a paired
    // fixed/adapt/joint sweep serializes to the identical bytes no matter
    // how many workers evaluate it, the policy variants of every point
    // share their problem instance, and the reuse counters are exact.
    let mut spec = ScenarioSpec::synthetic("policy-paired");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.period_policies = vec![
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];
    spec.trials = 2;
    let (serial, serial_memo) = collect_with_memo(SweepSession::new(spec.clone()).threads(1));
    for threads in [2usize, 4] {
        let (parallel, memo) = collect_with_memo(SweepSession::new(spec.clone()).threads(threads));
        assert_eq!(memo, serial_memo, "memo counters at {threads} threads");
        assert_eq!(to_jsonl(&serial), to_jsonl(&parallel));
        assert_eq!(to_csv(&serial), to_csv(&parallel));
        assert_eq!(
            summary_to_csv(&aggregate(&serial)),
            summary_to_csv(&aggregate(&parallel))
        );
    }
    // Pairing: the three policy variants of each (point, allocator) report
    // the identical generated problem.
    for triple in serial.chunks(3) {
        assert_eq!(
            triple[0].scenario.problem_stream,
            triple[2].scenario.problem_stream
        );
        assert_eq!(triple[0].scenario.allocator, triple[1].scenario.allocator);
        assert_eq!(triple[0].n_rt, triple[2].n_rt);
        assert_eq!(triple[0].n_sec, triple[2].n_sec);
        assert_eq!(triple[0].total_utilization, triple[2].total_utilization);
    }
}

/// 64-bit FNV-1a: a dependency-free digest for pinning output bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn full_axis_sweep_matches_the_recorded_golden_digests() {
    // `dse sweep --cores 2,4,8 --utils 0.3,0.6,0.8,0.9,0.95,1.0
    // --allocators hydra,singlecore,nphydra --period-policy
    // fixed,adapt,joint --trials 2`: 324 records, 87 unschedulable,
    // reaching partition admission, Eq. (1) and the joint scan. The
    // digests are of the `sweep.jsonl`, `sweep.csv` and `sweep_summary.csv`
    // files the CLI wrote for this spec before the analysis paths were
    // reduced to one (SHA-256 5325f326…, a945b336…, 0ae22c3a…, pinned in
    // CI); every later build must reproduce them byte for byte, with the
    // same reuse counters at every thread count.
    let mut spec = ScenarioSpec::synthetic("sweep");
    spec.cores = vec![2, 4, 8];
    spec.utilizations = UtilizationGrid::Fractions(vec![0.3, 0.6, 0.8, 0.9, 0.95, 1.0]);
    spec.allocators = vec![
        AllocatorKind::Hydra,
        AllocatorKind::SingleCore,
        AllocatorKind::NpHydra,
    ];
    spec.period_policies = vec![
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];
    spec.trials = 2;

    let mut first_memo = None;
    for threads in [1usize, 2] {
        let (run, memo) = collect_with_memo(SweepSession::new(spec.clone()).threads(threads));
        assert_eq!(run.len(), 324);
        assert_eq!(run.iter().filter(|o| !o.schedulable).count(), 87);
        let digests = [
            fnv1a(to_jsonl(&run).as_bytes()),
            fnv1a(to_csv(&run).as_bytes()),
            fnv1a(summary_to_csv(&aggregate(&run)).as_bytes()),
        ];
        assert_eq!(
            digests,
            [
                0xeb0a_b6c2_0438_bf26,
                0x73ff_82ad_67bc_b6ce,
                0x005d_e25e_3f4c_e76d
            ],
            "output bytes moved at threads={threads}"
        );
        assert_eq!(*first_memo.get_or_insert(memo), memo, "threads={threads}");
    }
}

#[test]
fn streaming_partial_aggregates_match_the_buffered_summary() {
    let mut spec = ScenarioSpec::synthetic("online-agg");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.trials = 3;
    let buffered = run(&spec, 1);
    let summary = SweepSession::new(spec.clone())
        .threads(4)
        .run(&mut NullSink)
        .unwrap();
    assert_eq!(summary.partial.rows(), aggregate(&buffered));
    assert_eq!(
        summary_to_csv(&summary.partial.rows()),
        summary_to_csv(&aggregate(&buffered))
    );
}

#[test]
fn observability_never_changes_an_output_byte() {
    // The rt-obs overhead contract, pinned: every combination of metrics /
    // tracing instrumentation, across thread counts, streams the identical
    // JSONL, CSV and summary bytes as an uninstrumented serial run — while
    // actually recording when enabled (the guarantee is not vacuous).
    use hydra_repro::dse::SweepObs;
    let mut spec = ScenarioSpec::synthetic("obs-identity");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.allocators = vec![
        AllocatorKind::Hydra,
        AllocatorKind::SingleCore,
        AllocatorKind::NpHydra,
    ];
    spec.period_policies = vec![PeriodPolicy::Fixed, PeriodPolicy::Adapt];
    spec.trials = 2;

    let baseline = run(&spec, 1);
    let base_jsonl = to_jsonl(&baseline);
    let base_csv = to_csv(&baseline);
    let base_summary = summary_to_csv(&aggregate(&baseline));

    for threads in [1usize, 2, 4] {
        for (metrics, tracing) in [(true, false), (false, true), (true, true)] {
            let obs = SweepObs::new(metrics, tracing);
            let session = SweepSession::new(spec.clone())
                .threads(threads)
                .observability(obs.clone());
            let mut jsonl_sink = JsonlSink::new(Vec::new());
            let mut csv_sink = CsvSink::new(Vec::new(), true);
            let mut tee = TeeSink::new().with(&mut jsonl_sink).with(&mut csv_sink);
            let summary = session.run(&mut tee).expect("in-memory sinks never fail");
            let label = format!("threads={threads} metrics={metrics} tracing={tracing}");
            assert_eq!(
                String::from_utf8(jsonl_sink.into_inner()).unwrap(),
                base_jsonl,
                "JSONL differs with {label}"
            );
            assert_eq!(
                String::from_utf8(csv_sink.into_inner()).unwrap(),
                base_csv,
                "CSV differs with {label}"
            );
            assert_eq!(
                summary_to_csv(&summary.partial.rows()),
                base_summary,
                "summary differs with {label}"
            );
            if metrics {
                assert_eq!(
                    obs.registry().snapshot().counter("sweep.scenarios_done"),
                    baseline.len() as u64,
                    "scenario counter wrong with {label}"
                );
            } else {
                assert!(obs.registry().snapshot().counters.is_empty());
            }
            if tracing {
                assert!(
                    obs.phase_rows().iter().any(|row| row.count > 0),
                    "no phase spans recorded with {label}"
                );
            } else {
                assert!(obs.phase_rows().is_empty());
            }
        }
    }
}

#[test]
fn detection_stats_distinguish_silence_from_instant_detection() {
    // Regression: zero detections must surface as None/missed, never 0.0 ms.
    let mut spec = ScenarioSpec::uav_detection("uav-miss", 20, 15);
    spec.cores = vec![2];
    let result = run(&spec, 1);
    for outcome in &result {
        let d = outcome.detection.as_ref().unwrap();
        assert_eq!(d.injected, d.detected + d.missed);
        assert_eq!(d.detected == 0, d.mean_ms.is_none());
        assert_eq!(d.detected == 0, d.median_ms.is_none());
        assert_eq!(d.detected == 0, d.p95_ms.is_none());
        assert_eq!(d.detected == 0, d.max_ms.is_none());
        if let Some(mean) = d.mean_ms {
            assert!(mean.is_finite() && mean > 0.0);
        }
    }
}

#[test]
fn detection_sweeps_are_deterministic() {
    let mut spec = ScenarioSpec::uav_detection("uav-determinism", 20, 15);
    spec.cores = vec![2];
    let a = run(&spec, 1);
    let b = run(&spec, 2);
    assert_eq!(to_jsonl(&a), to_jsonl(&b));
    // Both schemes face the identical attack sequence: the detection record
    // exists and reports the same number of injected attacks.
    for outcome in &a {
        assert_eq!(outcome.detection.as_ref().unwrap().injected, 15);
    }
}
