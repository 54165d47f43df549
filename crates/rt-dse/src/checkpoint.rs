//! Durable sweep checkpoints: kill a long-running sweep at any point and
//! resume it without re-evaluating (or re-emitting) the finished prefix.
//!
//! A checkpoint records, for one output stem, how much of the grid has been
//! **durably written**: the absolute index of the next scenario to evaluate,
//! the byte lengths of the JSONL/CSV files at that point (a crash can leave
//! partial lines after the last checkpoint — resume truncates back to the
//! recorded offsets), and the partial [`SweepAccumulator`] over the finished
//! prefix so the final summary covers the whole range without re-reading
//! any output. A fingerprint of the spec + shard guards against resuming
//! with different parameters, which would silently corrupt the stream.
//!
//! Saves are atomic (write to `<path>.tmp`, then rename), so a kill during
//! checkpointing leaves the previous checkpoint intact. Everything is plain
//! deterministic text — no serde dependency, byte-stable across runs.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::agg::SweepAccumulator;
use crate::spec::ScenarioSpec;

// v2: the aggregate `group` lines gained a mandatory period-policy field
// when the sweep grid grew the policy axis. v3: the header gained a
// mandatory `plan_points` line (the frontier mode's planned emission count;
// 0 for exhaustive grids) and the `group` lines gained an explicit
// tightness-sample count plus frequency-ratio samples. Earlier checkpoints
// must be rejected outright — resuming one would splice an incompatible
// prefix into the stream.
const MAGIC: &str = "dse-checkpoint v3";

/// The durable progress record of one (possibly sharded) sweep.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// Fingerprint of the spec + shard this checkpoint belongs to
    /// (see [`sweep_fingerprint`]).
    pub fingerprint: u64,
    /// Absolute grid index where this run's shard begins — the origin the
    /// output files and aggregates count from (0 for an unsharded sweep).
    pub start: usize,
    /// Absolute grid index of the next scenario to evaluate — every
    /// scenario in `start..completed` is durably on disk.
    pub completed: usize,
    /// Total scenarios of the run's plan: `0` for an exhaustive grid (whose
    /// size the spec already determines), the planned emission count for a
    /// frontier run. Resume recomputes the frontier plan from the spec and
    /// rejects the checkpoint when the counts disagree — a diverged plan
    /// must not be spliced.
    pub plan_points: usize,
    /// Byte length of the JSONL file covering exactly `completed` records.
    pub jsonl_bytes: u64,
    /// Byte length of the CSV file covering exactly `completed` records.
    pub csv_bytes: u64,
    /// Partial aggregates over the finished prefix.
    pub agg: SweepAccumulator,
}

impl Checkpoint {
    /// Renders the checkpoint as deterministic text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "fingerprint {:x}", self.fingerprint);
        let _ = writeln!(out, "start {}", self.start);
        let _ = writeln!(out, "completed {}", self.completed);
        let _ = writeln!(out, "plan_points {}", self.plan_points);
        let _ = writeln!(out, "jsonl_bytes {}", self.jsonl_bytes);
        let _ = writeln!(out, "csv_bytes {}", self.csv_bytes);
        out.push_str(&self.agg.render());
        out
    }

    /// Parses the [`Checkpoint::render`] format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(format!("not a checkpoint file (expected `{MAGIC}`)"));
        }
        let mut header = |key: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing `{key}`"))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| format!("expected `{key} <value>`, got: {line}"))
        };
        let fingerprint = u64::from_str_radix(&header("fingerprint")?, 16)
            .map_err(|e| format!("fingerprint: {e}"))?;
        let start: usize = header("start")?
            .parse()
            .map_err(|e| format!("start: {e}"))?;
        let completed: usize = header("completed")?
            .parse()
            .map_err(|e| format!("completed: {e}"))?;
        if completed < start {
            return Err(format!("completed ({completed}) precedes start ({start})"));
        }
        let plan_points: usize = header("plan_points")?
            .parse()
            .map_err(|e| format!("plan_points: {e}"))?;
        let jsonl_bytes: u64 = header("jsonl_bytes")?
            .parse()
            .map_err(|e| format!("jsonl_bytes: {e}"))?;
        let csv_bytes: u64 = header("csv_bytes")?
            .parse()
            .map_err(|e| format!("csv_bytes: {e}"))?;
        let rest: Vec<&str> = lines.collect();
        let agg = SweepAccumulator::parse(&rest.join("\n"))?;
        // The aggregate counts only this shard's records: completed is
        // absolute, so the shard origin must be subtracted before comparing.
        if agg.recorded() != completed - start {
            return Err(format!(
                "aggregate covers {} outcomes but start..completed says {}",
                agg.recorded(),
                completed - start
            ));
        }
        Ok(Checkpoint {
            fingerprint,
            start,
            completed,
            plan_points,
            jsonl_bytes,
            csv_bytes,
            agg,
        })
    }

    /// Atomically writes the checkpoint to `path`: `<path>.tmp`, fsync,
    /// rename — a kill or power loss mid-save preserves the previous
    /// checkpoint, and a renamed checkpoint is durably on disk. Callers
    /// must sync the output files the checkpoint describes **before**
    /// saving it, or a crash can leave the checkpoint ahead of the data.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing, syncing or renaming.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        use std::io::Write as _;
        let tmp = path.with_extension("ckpt.tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(self.render().as_bytes())?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    }

    /// Loads a checkpoint; `Ok(None)` when no file exists.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, or `InvalidData` when the file
    /// exists but does not parse.
    pub fn load(path: &Path) -> io::Result<Option<Self>> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Checkpoint::parse(&text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// A stable fingerprint of the sweep parameters a checkpoint is only valid
/// for: the full spec (axes — including the period-policy set — seed,
/// workload, expansion) and the shard split. Resuming with anything else
/// changed must be rejected, not spliced.
#[must_use]
pub fn sweep_fingerprint(spec: &ScenarioSpec, shard: (usize, usize)) -> u64 {
    // FNV-1a over the debug rendering: every spec field is Debug-stable and
    // participates (`period_policies` included), so any parameter change —
    // adding or dropping a policy too — flips the fingerprint.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let text = format!("{spec:?}|shard {}/{}", shard.0, shard.1);
    for byte in text.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SweepSession;
    use crate::sink::NullSink;
    use crate::spec::{AllocatorKind, UtilizationGrid};

    fn small_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("ckpt");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2]);
        spec.allocators = vec![AllocatorKind::Hydra];
        spec.trials = 2;
        spec
    }

    fn sample() -> Checkpoint {
        let summary = SweepSession::new(small_spec())
            .threads(1)
            .run(&mut NullSink)
            .expect("a NullSink never fails");
        Checkpoint {
            fingerprint: sweep_fingerprint(&small_spec(), (1, 1)),
            start: 0,
            completed: summary.evaluated(),
            plan_points: 0,
            jsonl_bytes: 123,
            csv_bytes: 456,
            agg: summary.partial,
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let ckpt = sample();
        let parsed = Checkpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(parsed.fingerprint, ckpt.fingerprint);
        assert_eq!(parsed.start, ckpt.start);
        assert_eq!(parsed.completed, ckpt.completed);
        assert_eq!(parsed.jsonl_bytes, 123);
        assert_eq!(parsed.csv_bytes, 456);
        assert_eq!(parsed.agg.rows(), ckpt.agg.rows());
        assert_eq!(parsed.render(), ckpt.render());
    }

    #[test]
    fn sharded_checkpoints_count_from_the_shard_origin() {
        // Regression: `completed` is an absolute grid index while the
        // aggregate only covers the shard's own records; a checkpoint from a
        // shard with start > 0 must round-trip, not be rejected.
        let mut ckpt = sample();
        let recorded = ckpt.agg.recorded();
        ckpt.start = 17;
        ckpt.completed = 17 + recorded;
        let parsed = Checkpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(parsed.start, 17);
        assert_eq!(parsed.completed, 17 + recorded);
        assert_eq!(parsed.agg.recorded(), recorded);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        assert!(Checkpoint::parse("garbage").is_err());
        assert!(Checkpoint::parse(MAGIC).is_err());
        // A completed count that disagrees with the aggregate is corruption,
        // as is progress that precedes the shard origin.
        let mut lying = sample();
        lying.completed += 1;
        assert!(Checkpoint::parse(&lying.render()).is_err());
        let mut backwards = sample();
        backwards.start = backwards.completed + 1;
        assert!(Checkpoint::parse(&backwards.render()).is_err());
    }

    #[test]
    fn save_load_round_trips_and_missing_files_are_none() {
        let dir = std::env::temp_dir().join("rt_dse_ckpt_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("sweep.ckpt");
        let _ = fs::remove_file(&path);
        assert!(Checkpoint::load(&path).unwrap().is_none());
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(loaded.render(), ckpt.render());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_react_to_any_parameter_change() {
        let base = sweep_fingerprint(&small_spec(), (1, 2));
        assert_eq!(base, sweep_fingerprint(&small_spec(), (1, 2)));
        let mut reseeded = small_spec();
        reseeded.base_seed += 1;
        assert_ne!(base, sweep_fingerprint(&reseeded, (1, 2)));
        assert_ne!(base, sweep_fingerprint(&small_spec(), (2, 2)));
        let mut regridded = small_spec();
        regridded.trials += 1;
        assert_ne!(base, sweep_fingerprint(&regridded, (1, 2)));
    }

    #[test]
    fn fingerprints_react_to_the_period_policy_set() {
        use crate::spec::PeriodPolicy;
        // A spec that gained (or reordered) the policy axis is a different
        // sweep: resuming its checkpoint must be rejected, not mixed.
        let base = sweep_fingerprint(&small_spec(), (1, 1));
        let mut widened = small_spec();
        widened.period_policies = vec![PeriodPolicy::Fixed, PeriodPolicy::Adapt];
        assert_ne!(base, sweep_fingerprint(&widened, (1, 1)));
        let mut reordered = widened.clone();
        reordered.period_policies = vec![PeriodPolicy::Adapt, PeriodPolicy::Fixed];
        assert_ne!(
            sweep_fingerprint(&widened, (1, 1)),
            sweep_fingerprint(&reordered, (1, 1))
        );
    }

    #[test]
    fn stale_checkpoint_versions_are_rejected_by_the_magic_line() {
        for stale in ["dse-checkpoint v1", "dse-checkpoint v2"] {
            let err = Checkpoint::parse(&format!("{stale}\nfingerprint 0\n")).unwrap_err();
            assert!(err.contains("dse-checkpoint v3"), "{err}");
        }
    }

    #[test]
    fn plan_points_round_trip_and_are_mandatory() {
        let mut ckpt = sample();
        ckpt.plan_points = 42;
        let parsed = Checkpoint::parse(&ckpt.render()).unwrap();
        assert_eq!(parsed.plan_points, 42);
        // A render with the plan_points line stripped (the v2 layout) fails.
        let legacy: String = ckpt
            .render()
            .lines()
            .filter(|l| !l.starts_with("plan_points"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Checkpoint::parse(&legacy).is_err());
    }
}
