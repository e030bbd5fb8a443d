//! # pgmoe-bench
//!
//! The benchmark harness that regenerates every table and figure in the
//! Pre-gated MoE paper's evaluation (ISCA 2024), mirroring the artifact's
//! `scripts/eval_all.py`.
//!
//! Each `fig*`/`table*` function returns a formatted report whose rows/series
//! correspond 1:1 to the paper's plots; the `repro` binary prints them and
//! writes the artifact-style CSV files (`block_lats.csv`, `throughputs.csv`,
//! `peak_mems.csv`). `benches/substrate.rs` times the kernel layer the
//! drivers run on.
//!
//! ```sh
//! cargo run --release -p pgmoe-bench --bin repro -- all
//! cargo run --release -p pgmoe-bench --bin repro -- fig10
//! ```

#![forbid(unsafe_code)]

pub mod ablations;
pub mod accuracy;
pub mod figures;
pub mod gate;

/// Workload used by the systems figures: short QA-style prompt, 64 generated
/// tokens (the fine-tuning output budget), batch 1 (Section VI-A).
pub fn paper_request() -> pregated_moe::prelude::DecodeRequest {
    pregated_moe::prelude::DecodeRequest { input_tokens: 32, output_tokens: 64, batch_size: 1 }
}

/// A faster request for smoke runs and Criterion iterations.
pub fn smoke_request() -> pregated_moe::prelude::DecodeRequest {
    pregated_moe::prelude::DecodeRequest { input_tokens: 32, output_tokens: 8, batch_size: 1 }
}
