//! `dse sweep` run twice into one `--out` directory: a fresh second run
//! reports that it overwrites the first run's files, while a real resume
//! (checkpoint present) keeps reporting the uncheckpointed bytes it drops.
//! Both end with the same bytes as a single clean run.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `dse sweep` into `out` with `extra` flags and returns its stderr.
fn sweep(out: &Path, extra: &[&str]) -> String {
    let out_str = out.to_str().expect("utf-8 temp path");
    let mut args = vec![
        "sweep",
        "--cores",
        "2",
        "--util-steps",
        "3",
        "--allocators",
        "hydra,singlecore",
        "--trials",
        "2",
        "--out",
        out_str,
        "--quiet",
    ];
    args.extend_from_slice(extra);
    let output = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(&args)
        .output()
        .expect("spawn the dse binary");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "dse {args:?} failed:\n{stderr}");
    stderr
}

/// A fresh per-test output directory under the system temp dir.
fn temp_out(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-rerun-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale temp dir");
    }
    dir
}

const OUTPUTS: [&str; 3] = ["sweep.jsonl", "sweep.csv", "sweep_summary.csv"];

fn read_outputs(dir: &Path) -> Vec<Vec<u8>> {
    OUTPUTS
        .iter()
        .map(|file| fs::read(dir.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}")))
        .collect()
}

#[test]
fn a_fresh_rerun_reports_an_overwrite_not_a_resume() {
    let out = temp_out("fresh");
    let first = sweep(&out, &[]);
    assert!(!first.contains("overwriting"), "{first}");
    let reference = read_outputs(&out);

    let second = sweep(&out, &[]);
    assert!(!second.contains("resume:"), "{second}");
    for file in ["sweep.jsonl", "sweep.csv"] {
        let path = out.join(file);
        assert!(
            second.contains(&format!("overwriting {}", path.display())),
            "no overwrite notice for {file}:\n{second}"
        );
    }
    assert_eq!(read_outputs(&out), reference);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn a_real_resume_reports_the_dropped_tail() {
    let clean = temp_out("resume-ref");
    sweep(&clean, &[]);
    let reference = read_outputs(&clean);

    let out = temp_out("resume");
    sweep(&out, &["--stop-after", "5", "--checkpoint-every", "2"]);
    assert!(out.join("sweep.ckpt").exists());
    // A torn crash tail past the checkpointed offset.
    let jsonl = out.join("sweep.jsonl");
    let mut torn = fs::read(&jsonl).expect("read partial JSONL");
    torn.extend_from_slice(b"{\"index\":5,\"cor");
    fs::write(&jsonl, torn).expect("append torn tail");

    let resumed = sweep(&out, &["--resume"]);
    assert!(
        resumed.contains("resume: dropping 15 uncheckpointed byte(s)")
            && resumed.contains(&jsonl.display().to_string()),
        "{resumed}"
    );
    assert!(!resumed.contains("overwriting"), "{resumed}");
    assert_eq!(read_outputs(&out), reference);
    let _ = fs::remove_dir_all(&out);
    let _ = fs::remove_dir_all(&clean);
}
