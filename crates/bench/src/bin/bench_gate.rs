//! `bench_gate` — the perf-regression gate CI runs on every PR.
//!
//! Times the measurements of `pgmoe_bench::gate`, writes them in the
//! `BENCH_substrate.json` layout, and checks every gated row of its
//! `ROWS` table: six speedups against the committed baseline and seven
//! absolute floors. Exits 1 when a row fails, 2 on a bad argument or a
//! baseline that lacks a row's key. The candidate file is written either
//! way.
//!
//! ```sh
//! cargo run --release -p pgmoe-bench --bin bench_gate
//! # Refresh the committed baseline (pin the threads so the parallel rows
//! # stay comparable with CI):
//! PGMOE_THREADS=2 cargo run --release -p pgmoe-bench --bin bench_gate -- --out BENCH_substrate.json
//! ```
//!
//! Verify the gate bites by doctoring a baseline (inject a 99x "expected"
//! speedup the real tree cannot reach):
//!
//! ```sh
//! sed -E 's/("speedup_[a-z0-9_]+": )([0-9.]+)/\1 99.0/' BENCH_substrate.json > /tmp/doctored.json
//! cargo run --release -p pgmoe-bench --bin bench_gate -- --baseline /tmp/doctored.json && echo BUG
//! ```

use pgmoe_bench::gate::{self, Sample};

const USAGE: &str = "usage: bench_gate [--baseline <path>] [--out <path>] [--tolerance <frac>]
defaults: --baseline <workspace>/BENCH_substrate.json
          --out      <workspace>/BENCH_candidate.json
          --tolerance 0.25  (fail when a speedup drops >25% below baseline)";

fn main() {
    let mut baseline_path: String =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json").into();
    let mut out_path: String =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_candidate.json").into();
    let mut tolerance = 0.25f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = it.next().expect("--baseline <path>").clone(),
            "--out" => out_path = it.next().expect("--out <path>").clone(),
            "--tolerance" => {
                tolerance = it.next().expect("--tolerance <frac>").parse().expect("fraction")
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|err| format!("cannot be read: {err}"))
        .and_then(|text| Sample::parse(&text).map_err(|key| format!("lacks `{key}`")));
    let baseline = baseline.unwrap_or_else(|why| {
        eprintln!("bench_gate: baseline {baseline_path} {why}");
        std::process::exit(2);
    });

    println!("bench_gate: measuring 512^3 GEMM kernels (best of 9)...");
    let gemm = gate::measure_gemm_512();
    println!("bench_gate: measuring fused Q4 dequant kernels (best of 25)...");
    let q4 = gate::measure_q4_fused();
    println!("bench_gate: measuring compiled-plan host speedup (best of 7)...");
    let plan = gate::measure_plan_host();
    let candidate = Sample::of(&(gemm, q4, plan));
    if let Err(err) = std::fs::write(&out_path, candidate.render()) {
        eprintln!("bench_gate: could not write candidate {out_path}: {err}");
    } else {
        println!("bench_gate: candidate written to {out_path}");
    }

    println!(
        "bench_gate: baseline from {baseline_path} ({} thr / {} hw), candidate on {} thr / {} hw, \
         tolerance {:.0}%",
        baseline.get("threads"),
        baseline.get("hardware_threads"),
        candidate.get("threads"),
        candidate.get("hardware_threads"),
        tolerance * 100.0
    );
    let lines = gate::check(&baseline, &candidate, tolerance);
    for line in &lines {
        println!("  {line}");
    }
    if lines.iter().any(|line| !line.ok()) {
        eprintln!(
            "bench_gate: FAIL — a speedup regressed more than {:.0}% vs the committed baseline or \
             fell below its floor. A floor break is a kernel regression to fix. If a slowdown \
             against the baseline is intentional, refresh BENCH_substrate.json by running \
             `PGMOE_THREADS=2 cargo run --release -p pgmoe-bench --bin bench_gate -- --out \
             BENCH_substrate.json` (pin the thread count so the parallel figure stays comparable \
             with CI) and commit the result.",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("bench_gate: PASS");
}
