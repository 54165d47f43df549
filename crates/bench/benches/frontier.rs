//! CI bench gate for frontier exploration: every cliff bracket the adaptive
//! search reports must be a true adjacent crossing of a dense exhaustive
//! reference sweep (acceptance ≥ 0.5 at the bracket's low edge, < 0.5 at
//! its high edge, one grid step apart — exact, because frontier probes
//! reuse the exhaustive grid's positional problem streams), while spending
//! at least 10× fewer scenario evaluations, and repeat runs must be
//! byte-identical. Both evaluation counts land in a machine-readable
//! `BENCH_frontier.json`.
//!
//! Environment knobs:
//!
//! * `BENCH_FRONTIER_JSON` — output path (default
//!   `<workspace>/BENCH_frontier.json`),
//! * `BENCH_GATE_SKIP=1` — emit the JSON but skip the assertions.

// Benches own the wall clock (lint rule D002 boundary).
#![allow(clippy::disallowed_methods)]

use hydra_bench::record::BenchRecord;
use rt_dse::prelude::*;
use rt_dse::JsonlSink;

/// Reference-grid resolution per core count. Dense enough that "within one
/// grid step" is a tight localization claim and the ≥10× evaluation saving
/// has room to show.
const GRID_POINTS: usize = 320;
const TRIALS: usize = 6;
const REFINE_BUDGET: usize = 4;

/// Per-core utilization fractions reaching 2.0 — far past every scheme's
/// breakdown, so each slice's cliff is interior to the grid.
fn fractions() -> Vec<f64> {
    (1..=GRID_POINTS)
        .map(|i| 2.0 * i as f64 / GRID_POINTS as f64)
        .collect()
}

fn gate_spec(explore: ExploreMode) -> ScenarioSpec {
    let mut spec = ScenarioSpec::synthetic("frontier-gate");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::Fractions(fractions());
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.trials = TRIALS;
    spec.explore = explore;
    spec
}

/// Acceptance ratio per grid point of one (cores, allocator) slice, in
/// ascending utilization order (0 where the aggregate has no row).
fn slice_acceptance(
    rows: &[rt_dse::AggregateRow],
    cores: usize,
    allocator: AllocatorKind,
    utils: &[f64],
) -> Vec<f64> {
    utils
        .iter()
        .map(|u| {
            rows.iter()
                .find(|r| {
                    r.cores == cores
                        && r.allocator == allocator
                        && r.utilization.map(f64::to_bits) == Some(u.to_bits())
                })
                .map_or(0.0, |r| r.acceptance_ratio)
        })
        .collect()
}

fn main() {
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    // The exhaustive reference: every grid point, folded into the same
    // aggregates the sweep outputs use.
    let exhaustive_spec = gate_spec(ExploreMode::Exhaustive);
    let exhaustive_evals = ScenarioGrid::expand(&exhaustive_spec).len();
    let reference_rows = SweepSession::new(exhaustive_spec.clone())
        .threads(2)
        .run(&mut NullSink)
        .expect("a NullSink never fails")
        .partial
        .rows();

    // The adaptive run — twice, because cheap repeat-run byte-identity here
    // catches nondeterminism before the longer CI jobs do.
    let frontier_spec = gate_spec(ExploreMode::Frontier(FrontierConfig {
        refine_budget: REFINE_BUDGET,
    }));
    let run = || {
        let mut sink = JsonlSink::new(Vec::new());
        let (plan, _summary) = FrontierRunner::new(SweepSession::new(frontier_spec.clone()))
            .explore(&mut sink)
            .expect("in-memory sink is infallible");
        (plan, sink.into_inner())
    };
    let (plan, first_bytes) = run();
    let (_, second_bytes) = run();
    let repeat_identical = first_bytes == second_bytes;
    let adaptive_evals = plan.probe_evals + plan.len();

    // Cliff verification. Frontier streams are the exhaustive grid's
    // positional streams, so the probed acceptance curve is a pointwise
    // sample of the dense reference — the bracket must therefore be a
    // *true adjacent crossing* of the reference curve: one grid step wide,
    // at-or-above threshold on its low edge and below on its high edge.
    // The reference's own transition band (first below-threshold index to
    // last at-or-above index) can span several steps of sampling noise;
    // its width and the bracket's distance from the first crossing are
    // reported as context, not gated.
    let mut brackets_verified = true;
    let mut max_band_steps: usize = 0;
    let mut max_first_crossing_distance: usize = 0;
    for slice in &plan.slices {
        let utils = exhaustive_spec.utilizations.points(slice.cores);
        let acceptance = slice_acceptance(&reference_rows, slice.cores, slice.allocator, &utils);
        let idx_of = |value: f64| {
            utils
                .iter()
                .position(|u| u.to_bits() == value.to_bits())
                .expect("adaptive cliff values lie on the reference grid")
        };
        let (Some(lo), Some(hi)) = (slice.cliff_lo.map(idx_of), slice.cliff_hi.map(idx_of)) else {
            println!(
                "frontier gate: {}c/{} cliff one-sided (the grid was built interior)",
                slice.cores,
                slice.allocator.label()
            );
            brackets_verified = false;
            continue;
        };
        let exact = hi == lo + 1 && acceptance[lo] >= 0.5 && acceptance[hi] < 0.5;
        brackets_verified &= exact;
        let first_reject = acceptance.iter().position(|&a| a < 0.5);
        let last_accept = acceptance.iter().rposition(|&a| a >= 0.5);
        if let (Some(first), Some(last)) = (first_reject, last_accept) {
            max_band_steps = max_band_steps.max((last + 1).saturating_sub(first));
            max_first_crossing_distance = max_first_crossing_distance.max(hi.abs_diff(first));
        }
        println!(
            "frontier gate: {}c/{} bracket [{lo}, {hi}] {} on the reference curve \
             (transition band {:?}..{:?})",
            slice.cores,
            slice.allocator.label(),
            if exact { "verified" } else { "REFUTED" },
            first_reject,
            last_accept.map(|i| i + 1),
        );
    }

    let ratio = exhaustive_evals as f64 / adaptive_evals as f64;
    let pass = repeat_identical && ratio >= 10.0 && brackets_verified;
    let json = BenchRecord::new("frontier")
        .int("grid_points_per_slice", GRID_POINTS as u128)
        .int("trials", TRIALS as u128)
        .int("refine_budget", REFINE_BUDGET as u128)
        .int("slices", plan.slices.len() as u128)
        .int("exhaustive_evals", exhaustive_evals as u128)
        .int("probe_evals", plan.probe_evals as u128)
        .int("emitted_evals", plan.len() as u128)
        .int("adaptive_evals", adaptive_evals as u128)
        .num("eval_ratio", ratio, 2)
        .raw("brackets_verified", brackets_verified.to_string())
        .int("max_transition_band_steps", max_band_steps as u128)
        .int(
            "max_first_crossing_distance_steps",
            max_first_crossing_distance as u128,
        )
        .raw("repeat_identical", repeat_identical.to_string())
        .finish(pass);
    let out_path = std::env::var("BENCH_FRONTIER_JSON")
        .unwrap_or_else(|_| format!("{workspace}/BENCH_frontier.json"));
    std::fs::write(&out_path, &json).expect("write BENCH_frontier.json");
    println!(
        "frontier gate: {exhaustive_evals} exhaustive vs {adaptive_evals} adaptive \
         evaluations ({ratio:.1}x), brackets verified: {brackets_verified} -> {out_path}"
    );

    if std::env::var("BENCH_GATE_SKIP").is_ok() {
        println!("frontier gate: BENCH_GATE_SKIP set, not enforcing");
        return;
    }
    assert!(
        repeat_identical,
        "frontier emission must be byte-identical across repeat runs"
    );
    assert!(
        brackets_verified,
        "every adaptive cliff bracket must be a true adjacent crossing of the \
         exhaustive reference curve (acceptance >= 0.5 on the low edge, < 0.5 on \
         the high edge, one grid step apart); see {out_path}"
    );
    assert!(
        ratio >= 10.0,
        "adaptive search must spend >= 10x fewer evaluations than the exhaustive grid \
         (measured {ratio:.1}x); see {out_path}"
    );
}
