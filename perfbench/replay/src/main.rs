//! `perfbench-replay` — the benchmark's traced, single-threaded replay.
//!
//! ```text
//! perfbench-replay --specs SPECS --out DIR --trace-out FILE
//! ```
//!
//! `SPECS` holds one sweep per line, written with the `dse sweep` flags
//! (`--cores 2,4 --util-steps 5 --trials 3 ...`). For each sweep the replay
//! expands the scenarios the engine evaluates (the exhaustive grid, or the
//! frontier plan) and re-evaluates them in grid order with the 1-thread
//! memo's sharing: every unique problem is generated once and every
//! (problem, allocator) pair is placed once. Each layer is reached through
//! its public entry point, never through the engine's executor, and a span
//! is timed around every call:
//!
//! | span | entry point |
//! |------|-------------|
//! | `taskgen.generate` | `taskgen::generate_problem_seeded` |
//! | `rt-core.eq1` | `rt_core::dbf::necessary_condition_default_horizon` |
//! | `rt-partition.partition` | `rt_partition::partition_tasks` |
//! | `core.alloc.<scheme>` | `Allocator::allocate_with_rt_partition` (+ `SingleCoreAllocator::widen_partition`) |
//! | `core.period.<policy>` | `PeriodPolicy::apply` |
//! | `rt-sim.simulate` | `simulation_tasks_into`, `AttackScenario::generate_into`, `simulate_with_scratch` |
//! | `rt-dse.sink` | `JsonlSink::record` / `CsvSink::record` (+ the running aggregate) |
//! | `rt-dse.checkpoint` | `Checkpoint::save` at the `dse` CLI's cadence (nested in `rt-dse.sink`) |
//! | `frontier.plan` | `FrontierRunner::plan` (frontier sweeps only) |
//!
//! Partitioning and placement are timed as siblings, so each span's self
//! time (duration minus the child spans it contains) is exclusive. Every
//! sweep writes `DIR/<k>/sweep.jsonl` and `sweep.csv`; the spans go to
//! `FILE` as Chrome trace-event JSON (the format of `dse --trace-out`), and
//! one JSON object with per-span counts and times goes to stdout.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use hydra_core::allocator::SingleCoreAllocator;
use hydra_core::{Allocation, AllocationError, AllocationProblem};
use rt_core::dbf::necessary_condition_default_horizon;
use rt_core::Time;
use rt_dse::prelude::*;
use rt_dse::sink::summary_to_csv;
use rt_dse::{hash_taskset, Checkpoint, DetectionStats};
use rt_partition::partition_tasks;
use rt_sim::attack::{AttackScenario, InjectedAttack};
use rt_sim::detection::OnlineDetector;
use rt_sim::engine::{simulate_with_scratch, SimConfig, SimScratch};
use rt_sim::workload::{simulation_tasks_into, SimTask, TaskKind};
use taskgen::{derive_seed, generate_problem_seeded};

/// The engine's attack-stream salt (`rt_dse::exec`), so the replay injects
/// the same attacks and simulates the same amount of work.
const ATTACK_SALT: u64 = 0xa77a_c852_11fe_c7ed;

/// The `dse` CLI's default `--checkpoint-every`.
const CHECKPOINT_EVERY: usize = 256;

/// Per-name span totals.
#[derive(Debug, Default, Clone, Copy)]
struct Stat {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    ok: u64,
}

/// A finished span, kept in memory until the trace is written.
struct Event {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// A stack-based span recorder: `enter`/`exit` pairs nest, and each exit
/// charges its duration to the enclosing span's child time.
struct Tracer {
    t0: Instant,
    open: Vec<(&'static str, u64, u64)>,
    events: Vec<Event>,
    stats: BTreeMap<&'static str, Stat>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            open: Vec::new(),
            events: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) {
        let start = self.now_ns();
        self.open.push((name, start, 0));
    }

    fn exit(&mut self) {
        let end = self.now_ns();
        let (name, start, child_ns) = self.open.pop().expect("exit without enter");
        let dur = end - start;
        if let Some(parent) = self.open.last_mut() {
            parent.2 += dur;
        }
        let stat = self.stats.entry(name).or_default();
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += dur - child_ns.min(dur);
        self.events.push(Event {
            name,
            start_ns: start,
            dur_ns: dur,
        });
    }

    /// Counts one successful call of `name` (verdict ratios).
    fn ok(&mut self, name: &'static str) {
        self.stats.entry(name).or_default().ok += 1;
    }

    fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":0}}",
                e.name,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
            );
        }
        out.push_str(if self.events.is_empty() { "]}\n" } else { "\n]}\n" });
        out
    }
}

fn alloc_span(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::Hydra => "core.alloc.hydra",
        AllocatorKind::SingleCore => "core.alloc.singlecore",
        AllocatorKind::NpHydra => "core.alloc.nphydra",
        AllocatorKind::Precedence => "core.alloc.precedence",
        AllocatorKind::Optimal => "core.alloc.optimal",
    }
}

fn period_span(policy: PeriodPolicy) -> Option<&'static str> {
    match policy {
        PeriodPolicy::Fixed => None,
        PeriodPolicy::Adapt => Some("core.period.adapt"),
        PeriodPolicy::Joint => Some("core.period.joint"),
    }
}

fn value_of<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    value_of(args, key).map_or(Ok(default), |raw| {
        raw.parse().map_err(|_| format!("invalid {key}: {raw}"))
    })
}

fn list<T>(raw: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|p| parse(p.trim()).ok_or_else(|| format!("invalid {what}: {p}")))
        .collect()
}

/// Builds a spec from the subset of `dse sweep` flags the benchmark uses,
/// with the CLI's defaults.
fn build_spec(args: &[String]) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::synthetic("sweep");
    spec.workload = match value_of(args, "--workload").unwrap_or("synthetic") {
        "synthetic" => Workload::Synthetic(SyntheticOverrides::default()),
        "uav" => Workload::CaseStudyUav,
        other => return Err(format!("unknown workload: {other}")),
    };
    spec.evaluation = match value_of(args, "--eval").unwrap_or("allocate") {
        "allocate" => Evaluation::Allocate,
        "detection" => Evaluation::Detection {
            horizon: Time::from_secs(parsed(args, "--horizon", 120)?),
            attacks: parsed(args, "--attacks", 100)?,
        },
        other => return Err(format!("unknown evaluation: {other}")),
    };
    spec.utilizations = if spec.workload == Workload::CaseStudyUav {
        UtilizationGrid::NotApplicable
    } else if let Some(raw) = value_of(args, "--utils") {
        UtilizationGrid::Fractions(list(raw, "--utils", |s| s.parse().ok())?)
    } else {
        UtilizationGrid::NormalizedSteps(parsed(args, "--util-steps", 13)?)
    };
    spec.cores = list(value_of(args, "--cores").unwrap_or("2,4,8"), "--cores", |s| {
        s.parse().ok()
    })?;
    spec.allocators = list(
        value_of(args, "--allocators").unwrap_or("hydra,singlecore,nphydra"),
        "--allocators",
        AllocatorKind::parse,
    )?;
    spec.period_policies = list(
        value_of(args, "--period-policy").unwrap_or("fixed"),
        "--period-policy",
        PeriodPolicy::parse,
    )?;
    spec.trials = parsed(args, "--trials", 5)?;
    spec.base_seed = parsed(args, "--seed", 2018)?;
    spec.explore = match value_of(args, "--explore").unwrap_or("exhaustive") {
        "exhaustive" => ExploreMode::Exhaustive,
        "frontier" => ExploreMode::Frontier(FrontierConfig {
            refine_budget: parsed(args, "--refine-budget", 8)?,
        }),
        other => return Err(format!("unknown explore mode: {other}")),
    };
    Ok(spec)
}

/// Reusable detection buffers (the replay's copy of the engine's scratch).
#[derive(Default)]
struct SimBuffers {
    tasks: Vec<SimTask>,
    targets: Vec<usize>,
    attacks: Vec<InjectedAttack>,
    monitored: Vec<bool>,
    sim: SimScratch,
    detector: OnlineDetector,
}

/// The detection measurement of one scheduled scenario, as the engine
/// performs it: build the simulation workload, inject the paired attacks,
/// drop cores hosting no attacked task, simulate with the online detector.
fn measure_detection(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    problem: &AllocationProblem,
    allocation: &Allocation,
    horizon: Time,
    attacks: usize,
    buf: &mut SimBuffers,
) -> DetectionStats {
    simulation_tasks_into(problem, allocation, &mut buf.tasks);
    let margin = Time::from_secs(60).min(horizon / 2);
    let seed = derive_seed(spec.base_seed ^ ATTACK_SALT, scenario.problem_stream);
    buf.targets.clear();
    buf.targets.extend(0..problem.security_tasks.len());
    AttackScenario::new(horizon, margin, seed).generate_into(attacks, &buf.targets, &mut buf.attacks);
    let attacked = buf.targets.len().min(attacks);
    let cores_total = buf.tasks.iter().map(|t| t.core + 1).max().unwrap_or(0);
    buf.monitored.clear();
    buf.monitored.resize(cores_total, false);
    for task in &buf.tasks {
        if let TaskKind::Security(s) = task.kind {
            if s < attacked {
                buf.monitored[task.core] = true;
            }
        }
    }
    let mut keep = 0;
    for i in 0..buf.tasks.len() {
        if buf.monitored[buf.tasks[i].core] {
            buf.tasks.swap(keep, i);
            keep += 1;
        }
    }
    let sim_tasks = &buf.tasks[..keep];
    buf.detector.begin(sim_tasks, &buf.attacks);
    if !buf.detector.finished() {
        simulate_with_scratch(sim_tasks, &SimConfig::new(horizon), &mut buf.sim, &mut buf.detector);
    }
    let mut latencies: Vec<f64> = buf
        .detector
        .outcomes()
        .iter()
        .filter_map(|o| o.latency())
        .map(|t| t.as_millis_f64())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    DetectionStats::from_sorted_latencies(buf.attacks.len(), latencies)
}

/// Places one problem with one scheme: the real-time partition first (its
/// own span), then the security placement (the scheme's span).
fn allocate(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    kind: AllocatorKind,
    problem: &AllocationProblem,
) -> Result<Allocation, AllocationError> {
    let allocator = kind.build(problem.security_tasks.len(), &spec.workload);
    let single_core = kind == AllocatorKind::SingleCore;
    if single_core && problem.cores < 2 {
        tracer.enter(alloc_span(kind));
        let result = allocator.allocate(problem);
        tracer.exit();
        return result;
    }
    let rt_cores = if single_core { problem.cores - 1 } else { problem.cores };
    tracer.enter("rt-partition.partition");
    let partition = partition_tasks(&problem.rt_tasks, rt_cores, &problem.partition_config);
    tracer.exit();
    let partition = match partition {
        Ok(p) => {
            tracer.ok("rt-partition.partition");
            p
        }
        Err(e) => {
            return Err(AllocationError::RtPartitionFailed {
                task: e.task,
                cores: rt_cores,
            })
        }
    };
    tracer.enter(alloc_span(kind));
    let result = if single_core {
        let widened =
            SingleCoreAllocator::widen_partition(&partition, problem.cores, problem.rt_tasks.len());
        allocator.allocate_with_rt_partition(problem, &widened)
    } else {
        allocator.allocate_with_rt_partition(problem, &partition)
    };
    tracer.exit();
    result
}

/// The `dse` CLI's sink: JSONL + CSV + running aggregate, with a durable
/// checkpoint at the CLI's cadence.
struct CliSink {
    jsonl: JsonlSink<BufWriter<fs::File>>,
    csv: CsvSink<BufWriter<fs::File>>,
    agg: SweepAccumulator,
    completed: usize,
    since_save: usize,
    every: usize,
    align: usize,
    ckpt: PathBuf,
    saves: u64,
}

impl CliSink {
    fn open(dir: &Path, every: usize, align: usize) -> Result<Self, String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let create = |name: &str| {
            let path = dir.join(name);
            fs::File::create(&path)
                .map(BufWriter::new)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))
        };
        Ok(CliSink {
            jsonl: JsonlSink::new(create("sweep.jsonl")?),
            csv: CsvSink::new(create("sweep.csv")?, true),
            agg: SweepAccumulator::new(),
            completed: 0,
            since_save: 0,
            every,
            align,
            ckpt: dir.join("sweep.ckpt"),
            saves: 0,
        })
    }

    fn record(&mut self, tracer: &mut Tracer, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        tracer.enter("rt-dse.sink");
        self.jsonl.record(outcome)?;
        self.csv.record(outcome)?;
        self.agg.record(outcome);
        self.completed += 1;
        self.since_save += 1;
        let threshold = self.every.max(self.completed / 8);
        if self.every > 0 && self.since_save >= threshold && self.completed % self.align == 0 {
            tracer.enter("rt-dse.checkpoint");
            self.jsonl.get_mut().flush()?;
            self.jsonl.get_mut().get_ref().sync_data()?;
            self.csv.get_mut().flush()?;
            self.csv.get_mut().get_ref().sync_data()?;
            Checkpoint {
                fingerprint: 0,
                start: 0,
                completed: self.completed,
                plan_points: 0,
                jsonl_bytes: self.jsonl.bytes_written(),
                csv_bytes: self.csv.bytes_written(),
                agg: self.agg.clone(),
            }
            .save(&self.ckpt)?;
            self.since_save = 0;
            self.saves += 1;
            tracer.exit();
        }
        tracer.exit();
        Ok(())
    }

    /// Closes the record files and writes the summary, as the CLI does at
    /// the end of a run; returns the record bytes written.
    fn finish(mut self, tracer: &mut Tracer, dir: &Path) -> std::io::Result<u64> {
        tracer.enter("rt-dse.sink");
        self.jsonl.finish()?;
        self.csv.finish()?;
        fs::write(dir.join("sweep_summary.csv"), summary_to_csv(&self.agg.rows()))?;
        if self.ckpt.exists() {
            fs::remove_file(&self.ckpt)?;
        }
        tracer.exit();
        Ok(self.jsonl.bytes_written() + self.csv.bytes_written())
    }
}

/// Counts of one sweep's replay.
#[derive(Default)]
struct Totals {
    records: u64,
    bytes: u64,
    saves: u64,
    unique_problems: u64,
    unique_allocations: u64,
    probe_evals: u64,
    emitted: u64,
}

fn replay(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    dir: &Path,
    totals: &mut Totals,
) -> Result<(), String> {
    let (scenarios, align) = match spec.explore {
        ExploreMode::Exhaustive => (ScenarioGrid::expand(spec).into_scenarios(), 1),
        ExploreMode::Frontier(_) => {
            tracer.enter("frontier.plan");
            let plan = FrontierRunner::new(SweepSession::new(spec.clone()).threads(1)).plan();
            tracer.exit();
            totals.probe_evals += plan.probe_evals as u64;
            totals.emitted += plan.len() as u64;
            (plan.scenarios, spec.trials.max(1))
        }
    };
    let io = |e: std::io::Error| format!("sink I/O under {}: {e}", dir.display());
    let mut sink = CliSink::open(dir, CHECKPOINT_EVERY, align)?;
    // The 1-thread memo: one generation per problem address, one Eq. (1)
    // verdict per (task set, cores), one placement per (problem, scheme).
    let mut problems: BTreeMap<(usize, u64, u64), Arc<AllocationProblem>> = BTreeMap::new();
    let mut feasibility: BTreeMap<(u64, usize), bool> = BTreeMap::new();
    let mut placements: BTreeMap<((usize, u64, u64), AllocatorKind), Result<Allocation, AllocationError>> =
        BTreeMap::new();
    let mut buf = SimBuffers::default();
    for scenario in &scenarios {
        tracer.enter("scenario");
        let util_bits = scenario.utilization.map_or(0, f64::to_bits);
        let key = (scenario.cores, util_bits, scenario.problem_stream);
        let problem = match problems.get(&key) {
            Some(p) => Arc::clone(p),
            None => {
                let built = match (&spec.workload, scenario.utilization) {
                    (Workload::Synthetic(overrides), Some(util)) => {
                        tracer.enter("taskgen.generate");
                        let config = overrides.config_for(scenario.cores);
                        let p = generate_problem_seeded(
                            &config,
                            util,
                            spec.base_seed,
                            scenario.problem_stream,
                        );
                        tracer.exit();
                        p
                    }
                    _ => {
                        tracer.enter("core.casestudy.build");
                        let p = AllocationProblem::new(
                            hydra_core::casestudy::uav_rt_tasks(),
                            hydra_core::catalog::table1_tasks(),
                            scenario.cores,
                        )
                        .with_partition_config(Workload::uav_partition_config());
                        tracer.exit();
                        p
                    }
                };
                let p = Arc::new(built);
                problems.insert(key, Arc::clone(&p));
                p
            }
        };
        let feasible = match spec.workload {
            Workload::CaseStudyUav => true,
            Workload::Synthetic(_) => {
                let fkey = (hash_taskset(&problem.rt_tasks), scenario.cores);
                match feasibility.get(&fkey) {
                    Some(v) => *v,
                    None => {
                        tracer.enter("rt-core.eq1");
                        let v = necessary_condition_default_horizon(&problem.rt_tasks, scenario.cores);
                        tracer.exit();
                        if v {
                            tracer.ok("rt-core.eq1");
                        }
                        feasibility.insert(fkey, v);
                        v
                    }
                }
            }
        };
        let outcome = if !feasible {
            ScenarioOutcome::infeasible(
                *scenario,
                problem.rt_tasks.len(),
                problem.security_tasks.len(),
                problem.total_utilization(),
            )
        } else {
            let pkey = (key, scenario.allocator);
            if !placements.contains_key(&pkey) {
                let placed = allocate(tracer, spec, scenario.allocator, &problem);
                if placed.is_ok() {
                    tracer.ok(alloc_span(scenario.allocator));
                }
                placements.insert(pkey, placed);
            }
            let base = ScenarioOutcome {
                feasible: true,
                ..ScenarioOutcome::infeasible(
                    *scenario,
                    problem.rt_tasks.len(),
                    problem.security_tasks.len(),
                    problem.total_utilization(),
                )
            };
            match &placements[&pkey] {
                Err(error) => ScenarioOutcome {
                    error: Some(error.to_string()),
                    ..base
                },
                Ok(placed) => {
                    let allocation = match period_span(scenario.policy) {
                        Some(name) if scenario.allocator.supports_period_reoptimization() => {
                            tracer.enter(name);
                            let a = scenario.policy.apply(&problem, placed.clone());
                            tracer.exit();
                            a
                        }
                        _ => placed.clone(),
                    };
                    let detection = match spec.evaluation {
                        Evaluation::Allocate => None,
                        Evaluation::Detection { horizon, attacks } => {
                            tracer.enter("rt-sim.simulate");
                            let d = measure_detection(
                                spec, scenario, &problem, &allocation, horizon, attacks, &mut buf,
                            );
                            tracer.exit();
                            Some(d)
                        }
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
            }
        };
        sink.record(tracer, &outcome).map_err(io)?;
        tracer.exit();
    }
    totals.records += scenarios.len() as u64;
    totals.saves += sink.saves;
    totals.bytes += sink.finish(tracer, dir).map_err(io)?;
    totals.unique_problems += problems.len() as u64;
    totals.unique_allocations += placements.len() as u64;
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let specs_path = value_of(args, "--specs").ok_or("--specs FILE is required")?;
    let out = PathBuf::from(value_of(args, "--out").ok_or("--out DIR is required")?);
    let trace_out = value_of(args, "--trace-out").ok_or("--trace-out FILE is required")?;
    let text = fs::read_to_string(specs_path)
        .map_err(|e| format!("cannot read {specs_path}: {e}"))?;
    let specs = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| build_spec(&l.split_whitespace().map(str::to_owned).collect::<Vec<_>>()))
        .collect::<Result<Vec<_>, String>>()?;
    if specs.is_empty() {
        return Err(format!("{specs_path} names no sweep"));
    }

    let mut tracer = Tracer::new();
    let mut totals = Totals::default();
    let started = Instant::now();
    for (k, spec) in specs.iter().enumerate() {
        replay(&mut tracer, spec, &out.join(k.to_string()), &mut totals)?;
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    fs::write(trace_out, tracer.chrome_trace_json())
        .map_err(|e| format!("cannot write {trace_out}: {e}"))?;

    let names: BTreeSet<&str> = tracer.stats.keys().copied().collect();
    let mut json = format!(
        "{{\"wall_ms\":{wall_ms:.6},\"sweeps\":{},\"records\":{},\"sink_bytes\":{},\
         \"checkpoint_saves\":{},\"unique_problems\":{},\"unique_allocations\":{},\
         \"probe_evals\":{},\"emitted\":{},\"spans\":{{",
        specs.len(),
        totals.records,
        totals.bytes,
        totals.saves,
        totals.unique_problems,
        totals.unique_allocations,
        totals.probe_evals,
        totals.emitted,
    );
    for (i, name) in names.iter().enumerate() {
        let s = tracer.stats[name];
        let _ = write!(
            json,
            "{}\"{name}\":{{\"calls\":{},\"ok\":{},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
            if i == 0 { "" } else { "," },
            s.calls,
            s.ok,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-replay: {message}");
            ExitCode::FAILURE
        }
    }
}
