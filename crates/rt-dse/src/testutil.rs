//! Test-side helpers: buffered runs and whole-sweep renderings built on the
//! streaming session and sinks.

use crate::agg::{AggregateRow, SweepAccumulator};
use crate::api::SweepSession;
use crate::exec::StreamSummary;
use crate::frontier::FrontierRow;
use crate::scenario::ScenarioOutcome;
use crate::sink::{
    frontier_row_to_csv, outcome_to_csv_row, outcome_to_json, VecSink, CSV_HEADER, FRONTIER_HEADER,
};
use crate::spec::ScenarioSpec;

/// Runs `session`, buffering every outcome in grid order.
pub(crate) fn run_session(session: SweepSession) -> (Vec<ScenarioOutcome>, StreamSummary) {
    let mut sink = VecSink::new();
    let summary = session.run(&mut sink).expect("a VecSink never fails");
    (sink.into_outcomes(), summary)
}

/// Runs `spec` on `threads` workers, buffering every outcome in grid order.
pub(crate) fn run(spec: &ScenarioSpec, threads: usize) -> Vec<ScenarioOutcome> {
    run_session(SweepSession::new(spec.clone()).threads(threads)).0
}

/// Renders outcomes as JSONL (one JSON object per line).
pub(crate) fn to_jsonl(outcomes: &[ScenarioOutcome]) -> String {
    outcomes.iter().map(|o| outcome_to_json(o) + "\n").collect()
}

/// Renders outcomes as a flat CSV (header + one row per outcome).
pub(crate) fn to_csv(outcomes: &[ScenarioOutcome]) -> String {
    let rows: String = outcomes
        .iter()
        .map(|o| outcome_to_csv_row(o) + "\n")
        .collect();
    format!("{CSV_HEADER}\n{rows}")
}

/// Renders the frontier artifact (header + one row per point).
pub(crate) fn frontier_to_csv(rows: &[FrontierRow]) -> String {
    let body: String = rows.iter().map(|r| frontier_row_to_csv(r) + "\n").collect();
    format!("{FRONTIER_HEADER}\n{body}")
}

/// Folds outcomes into the summary rows.
pub(crate) fn aggregate(outcomes: &[ScenarioOutcome]) -> Vec<AggregateRow> {
    let mut acc = SweepAccumulator::new();
    for outcome in outcomes {
        acc.record(outcome);
    }
    acc.rows()
}
