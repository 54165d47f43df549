//! Workspace automation for the HYDRA reproduction — today, one command:
//! `cargo xtask lint`, the determinism & concurrency static-analysis gate.
//!
//! The sweeps' headline invariant — byte-identical output across runs,
//! thread counts, shards, resume points, store state and obs-on/off — is
//! enforced dynamically by `tests/dse_determinism.rs` on sampled grids. The
//! linter proves the *static* side of the same contract on every line of the
//! workspace: no unsorted hash iteration on output paths (D001), no
//! wall-clock reads outside the observability boundary (D002), no
//! unjustified relaxed atomics (D003), no unjustified panics in library
//! code (D004), `#![forbid(unsafe_code)]` on every non-shim crate root
//! (D005), and no drift between the code and the documented `rt-obs/v1` /
//! CSV / JSONL schemas (D006).
//!
//! Std-only by design: the container is offline, so the scanner is a
//! line-aware tokenizer ([`tokenizer`]), not a `syn` parse.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod report;
pub mod rules;
pub mod schema;
pub mod tokenizer;
