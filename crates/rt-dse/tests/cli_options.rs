//! `dse sweep` option handling: an unknown option (a typo, a retired flag)
//! fails with exit code 2 and names the option instead of silently running
//! the default sweep, while every option the help text lists — which covers
//! every flag the CI workflow, the benchmark driver and the README examples
//! pass — is accepted by a real run.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn dse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .output()
        .expect("spawn the dse binary")
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-cli-options-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unknown_options_fail_with_exit_code_2_and_name_the_option() {
    for (args, needle) in [
        (&["sweep", "--thread", "3"][..], "unknown option: --thread"),
        (
            &["sweep", "--bogus-flag"][..],
            "unknown option: --bogus-flag",
        ),
        (
            &["sweep", "--cores", "2", "stray"][..],
            "unknown option: stray",
        ),
        (
            &["sweep", "--threads"][..],
            "option --threads expects a value",
        ),
    ] {
        let out = dse(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "dse {args:?}:\n{stderr}");
        assert!(stderr.contains(needle), "dse {args:?}:\n{stderr}");
        assert!(
            stderr.contains("SWEEP OPTIONS:"),
            "usage missing:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "dse {args:?} must not run a sweep");
    }
}

#[test]
fn every_listed_option_is_accepted() {
    let dir = scratch("accepted");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (out, store, metrics, trace) = (path("out"), path("store"), path("m.json"), path("t.json"));
    // One line per run; the scratch paths contain no whitespace.
    let runs = [
        format!(
            "--cores 2 --util-steps 2 --allocators hydra --period-policy fixed,adapt \
             --trials 1 --seed 7 --threads 1 --name a --out {out} --quiet --progress=5 \
             --metrics-out {metrics} --trace-out {trace} --store {store} \
             --checkpoint-every 4 --sec-tasks 2,4"
        ),
        format!(
            "--workload uav --eval detection --horizon 2 --attacks 2 --cores 2 \
             --allocators hydra --trials 1 --sample 1 --progress --name b --out {out} --quiet"
        ),
        format!(
            "--explore frontier --refine-budget 1 --utils 0.3,0.9 --cores 2 \
             --allocators hydra --trials 1 --shard 1/1 --name c --out {out} --quiet"
        ),
        format!(
            "--cores 2 --util-steps 3 --trials 1 --name d --out {out} --quiet \
             --stop-after 2 --checkpoint-every 1"
        ),
        format!("--cores 2 --util-steps 3 --trials 1 --name d --out {out} --quiet --resume"),
    ];
    let mut used = BTreeSet::new();
    for run in &runs {
        let mut args = vec!["sweep"];
        args.extend(run.split_whitespace());
        let result = dse(&args);
        assert!(
            result.status.success(),
            "dse {args:?} failed:\n{}",
            String::from_utf8_lossy(&result.stderr)
        );
        used.extend(
            run.split_whitespace()
                .filter_map(|a| a.strip_prefix("--"))
                .map(|a| a.split('=').next().unwrap_or(a).to_owned()),
        );
    }

    // Every option of the help text was exercised above.
    let help = String::from_utf8(dse(&["help"]).stdout).expect("utf-8 help");
    let listed: BTreeSet<String> = help
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("--"))
        .filter_map(|rest| rest.split(['[', ' ', '=']).next())
        .map(str::to_owned)
        .collect();
    assert!(listed.len() > 20, "help lists {listed:?}");
    let missed: Vec<_> = listed.difference(&used).collect();
    assert!(missed.is_empty(), "options never exercised: {missed:?}");
    let _ = fs::remove_dir_all(&dir);
}
