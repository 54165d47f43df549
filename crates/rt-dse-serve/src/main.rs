//! `dse-serve` — run design-space sweeps as a service.
//!
//! ```text
//! dse-serve --addr 127.0.0.1:7878 --workers 2 --store results/store
//! curl -sN localhost:7878/v1/sweep -d '{"cores": [2], "trials": 5}'
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use rt_dse::MemoStore;
use rt_dse_serve::{Server, ServerConfig};

const USAGE: &str = "\
dse-serve — sweep-as-a-service over the rt-dse engine

USAGE:
    dse-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT      bind address                      [default: 127.0.0.1:7878]
    --workers N           concurrent sweep jobs             [default: 2]
    --threads-per-job N   engine threads per job, 0 = auto  [default: 0]
    --store DIR           persistent content-addressed memo store shared by
                          every job (and by `dse sweep --store DIR`); repeat
                          jobs are answered from disk
    --help                show this message

ENDPOINTS:
    GET  /                endpoint index
    GET  /healthz         liveness probe
    POST /v1/sweep        submit a sweep (JSON body, `dse sweep` field names);
                          the response streams JSONL results in grid order
                          (chunked; the X-Job-Id header names the job)
    GET  /v1/jobs         every job's status document, id order
    GET  /v1/jobs/ID      one job's status document
    POST /v1/jobs/ID/cancel   cooperative cancel (queued or running)
    GET  /metrics         shared rt-obs/v1 metrics snapshot
    POST /v1/shutdown     refuse new work, drain the queue, exit

An unknown option is an error (exit code 2).
";

/// Every option; each takes a value. `--help` (`-h`, `help`) is handled
/// before any other argument is looked at.
const VALUE_OPTIONS: &[&str] = &["--addr", "--workers", "--threads-per-job", "--store"];

/// Rejects any argument that is not a known option or the value of one,
/// and a value option with nothing after it.
fn check(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if !VALUE_OPTIONS.contains(&arg.as_str()) {
            return Err(format!("unknown option: {arg}"));
        }
        // The value is consumed here, whatever it looks like.
        if rest.next().is_none() {
            return Err(format!("option {arg} expects a value"));
        }
    }
    Ok(())
}

fn value_of<'a>(argv: &'a [String], key: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == key)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(argv: &[String], key: &str, default: T) -> Result<T, String> {
    match value_of(argv, key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value for {key}: {raw}")),
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let addr = value_of(argv, "--addr")
        .unwrap_or("127.0.0.1:7878")
        .to_owned();
    let workers = parsed(argv, "--workers", 2)?;
    let threads_per_job = parsed(argv, "--threads-per-job", 0)?;
    let store = match value_of(argv, "--store") {
        Some(dir) => Some(Arc::new(
            MemoStore::open(dir).map_err(|e| format!("cannot open memo store {dir}: {e}"))?,
        )),
        None => None,
    };

    let server = Server::bind(ServerConfig {
        addr,
        workers,
        threads_per_job,
        store: store.clone(),
    })
    .map_err(|e| format!("cannot bind: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    eprintln!(
        "dse-serve listening on {bound} ({workers} job runner(s), {} engine thread(s)/job, store: {})",
        if threads_per_job == 0 {
            "auto".to_owned()
        } else {
            threads_per_job.to_string()
        },
        store
            .as_ref()
            .map_or_else(|| "off".to_owned(), |s| s.root().display().to_string()),
    );
    server.serve().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("dse-serve drained and stopped");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Err(message) = check(&argv) {
        eprintln!("error: {message}\n\n{USAGE}");
        return ExitCode::from(2);
    }
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
