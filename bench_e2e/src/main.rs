//! `bench_e2e` — the repository's benchmark: five named workloads from the
//! wire down to the simulator, end-to-end metrics measured with tracing off,
//! and a traced run that yields the per-layer ledger. See `README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- --workload all --seed 1
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload wire_small_net --seed 1 --seconds 15 --trace 1 --trace-out trace.json
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; everything else goes
//! to standard error. It claims no gain: it is the instrument later changes
//! are judged with.

mod inputs;
mod metrics;
mod micro;
mod sim;
mod spans;
mod stats;
mod wire;

use inputs::SimKind;
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: bench_e2e --workload <name|all> [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--trace-out <file>] [--quick] [--repeat <k>]
workloads: wire_small_net wire_large_net sim_batch_unpaged sim_batch_paged sim_fleet_cached_chaos
  --trace 0   end-to-end metrics, tracing off (default)
  --trace 1   the traced run: per-layer metrics; --trace-out writes Chrome trace-event JSON
  --quick     sizes / 20 and 0.3 s per workload, for smoke tests
  --repeat k  k fresh processes on seeds seed..seed+k-1; prints each end-to-end metric's
              median, quartiles and spread against its bound";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireSmallNet,
    WireLargeNet,
    SimBatchUnpaged,
    SimBatchPaged,
    SimFleetCachedChaos,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WireSmallNet,
        Workload::WireLargeNet,
        Workload::SimBatchUnpaged,
        Workload::SimBatchPaged,
        Workload::SimFleetCachedChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmallNet => "wire_small_net",
            Workload::WireLargeNet => "wire_large_net",
            Workload::SimBatchUnpaged => "sim_batch_unpaged",
            Workload::SimBatchPaged => "sim_batch_paged",
            Workload::SimFleetCachedChaos => "sim_fleet_cached_chaos",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self, quick: bool) -> Spec {
        match self {
            Workload::WireSmallNet => Spec::Wire(inputs::wire_small_net(quick)),
            Workload::WireLargeNet => Spec::Wire(inputs::wire_large_net(quick)),
            Workload::SimBatchUnpaged => Spec::Sim(SimKind::BatchUnpaged),
            Workload::SimBatchPaged => Spec::Sim(SimKind::BatchPaged),
            Workload::SimFleetCachedChaos => Spec::Sim(SimKind::FleetCachedChaos),
        }
    }

    /// The end-to-end run, tracing off.
    fn run(self, args: &RunArgs) -> Outcome {
        match self.spec(args.quick) {
            Spec::Wire(spec) => wire::run(&spec, args),
            Spec::Sim(kind) => sim::run(kind, args),
        }
    }

    /// The traced run and the spans it recorded.
    fn run_traced(self, args: &RunArgs) -> (Outcome, spans::Recorder) {
        match self.spec(args.quick) {
            Spec::Wire(spec) => wire::run_traced(&spec, args),
            Spec::Sim(kind) => sim::run_traced(kind, args),
        }
    }
}

enum Spec {
    Wire(inputs::WireSpec),
    Sim(SimKind),
}

/// What a workload needs to know about the invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

#[derive(Debug)]
struct Cli {
    /// `None` means `all`.
    workload: Option<Workload>,
    run: RunArgs,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat: usize,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut quick) = (1u64, None, false);
    let (mut trace, mut trace_out, mut repeat) = (false, None, 1usize);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(match name.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name).ok_or_else(|| format!("no workload `{name}`"))?,
                    ),
                });
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            "--repeat" => {
                repeat = value()?.parse().map_err(|_| "--repeat needs a count")?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(if quick { 0.3 } else { RUN_SECONDS as f64 });
    Ok(Cli { workload, run: RunArgs { seed, seconds, quick }, trace, trace_out, repeat })
}

/// `VmHWM` of this process, MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload in this process and prints its result line.
fn run_here(workload: Workload, cli: &Cli) -> ExitCode {
    let defs: &[MetricDef] = if cli.trace { PER_LAYER } else { END_TO_END };
    let outcome = if cli.trace {
        let (outcome, recorder) = workload.run_traced(&cli.run);
        eprint!("{}", recorder.self_time_table());
        if let Some(path) = &cli.trace_out {
            match std::fs::write(path, recorder.chrome_trace_json()) {
                Ok(()) => eprintln!("wrote {} spans to {}", recorder.spans().len(), path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
        outcome
    } else {
        workload.run(&cli.run)
    };
    eprintln!(
        "== {} seed {} {} s{}{} ==",
        workload.name(),
        cli.run.seed,
        cli.run.seconds,
        if cli.run.quick { " quick" } else { "" },
        if cli.trace { " traced" } else { "" },
    );
    for d in defs {
        let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        eprintln!("{:<40} {v:>16.4} {} ({} is better)", d.name, d.unit, d.better.as_str());
    }
    if let Some((name, digest)) = outcome.digest {
        eprintln!("{name} {digest:016x}");
    }
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    eprintln!(
        "attempted {} succeeded {} failed {}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    if let Some(what) = &outcome.violation {
        eprintln!("OUTPUT CHECK FAILED: {what}");
    }
    println!("{}", metrics::result_line(&outcome, defs));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One fresh child process per (workload, seed); returns its result line.
fn run_child(workload: Workload, seed: u64, cli: &Cli) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &cli.run.seconds.to_string()]);
    cmd.args(["--trace", if cli.trace { "1" } else { "0" }]);
    if cli.run.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = &cli.trace_out {
        // One file per child: `<workload>.<seed>.<name>` beside the path given.
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        cmd.arg("--trace-out")
            .arg(path.with_file_name(format!("{}.{seed}.{name}", workload.name())));
    }
    // The child's notes pass through on standard error.
    let output = cmd.output().map_err(|e| format!("cannot start child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() {
        return Err(format!("{} seed {seed} exited with {}", workload.name(), output.status));
    }
    Ok(line)
}

/// `--repeat`: each metric's median, quartiles and spread against its
/// bound; a spread wider than the bound cannot resolve a change of that
/// size, and is marked so.
fn summarize_repeats(workload: Workload, lines: &[String], defs: &[MetricDef]) {
    eprintln!("== {} over {} runs ==", workload.name(), lines.len());
    let runs: Vec<_> = lines.iter().filter_map(|l| metrics::parse_result_line(l)).collect();
    for d in defs {
        let values: Vec<f64> = runs.iter().filter_map(|(.., m)| m.get(d.name).copied()).collect();
        let [q1, q2, q3] = stats::quartiles(&values);
        let spread = stats::spread(&values);
        let verdict = match d.bound {
            Some(bound) if spread > bound => format!("bound {bound} unresolved"),
            Some(bound) => format!("bound {bound}"),
            None => String::new(),
        };
        eprintln!(
            "{:<40} median {q2:>14.4} q1 {q1:>14.4} q3 {q3:>14.4} {:<8} spread {spread:.4} {verdict}",
            d.name, d.unit
        );
    }
}

/// Sizes the tensor worker pool before anything uses it: half the hardware
/// threads, unless `PGMOE_THREADS` is already set. The wire workloads also
/// run two IO workers and `min(nproc, 4)` clients; with the shipped default
/// of one pool thread per hardware thread the large network's forward is
/// slower on the 2-core reference box (310 against 450 tokens/s) and every
/// metric of `wire_large_net` swings by 20 % and more whenever the host is
/// busy, because each GEMM waits for whichever half lost its core.
fn size_worker_pool() {
    if std::env::var_os("PGMOE_THREADS").is_none() {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("PGMOE_THREADS", (hardware / 2).max(1).to_string());
    }
}

fn main() -> ExitCode {
    size_worker_pool();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (Some(workload), 1) = (cli.workload, cli.repeat) {
        return run_here(workload, &cli);
    }

    let defs: &[MetricDef] = if cli.trace { PER_LAYER } else { END_TO_END };
    let workloads = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for workload in workloads {
        let mut lines = Vec::new();
        for rep in 0..cli.repeat {
            match run_child(workload, cli.run.seed + rep as u64, &cli) {
                Ok(line) => lines.push(line),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        if cli.repeat > 1 {
            summarize_repeats(workload, &lines, defs);
        }
        for line in &lines {
            println!("{{\"workload\": \"{}\", \"result\": {line}}}", workload.name());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let cli = parse_cli(&args(&[
            "--workload",
            "sim_batch_paged",
            "--seed",
            "41",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(cli.workload, Some(Workload::SimBatchPaged));
        assert_eq!((cli.run.seed, cli.run.seconds, cli.trace, cli.repeat), (41, 15.0, true, 1));

        let quick = parse_cli(&args(&["--workload", "all", "--quick"])).expect("parses");
        assert_eq!((quick.workload, quick.run.quick, quick.run.seconds), (None, true, 0.3));
        assert_eq!(parse_cli(&args(&["--workload", "all"])).expect("parses").run.seconds, 15.0);

        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "all", "--trace", "yes"],
            &["--workload", "all", "--seconds", "0"],
            &["--workload", "all", "--repeat", "0"],
            &["--workload", "all", "--frobnicate"],
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// Keeps the benchmark from rotting: every workload, end to end and
    /// traced, at `--quick` sizes in this process.
    #[test]
    fn every_workload_runs_in_quick_mode_and_same_seed_means_same_outputs() {
        let quick = |seed| RunArgs { seed, seconds: 0.3, quick: true };
        let digest = |out: &Outcome| out.digest.expect("every end-to-end run prints a digest");
        for workload in Workload::ALL {
            let first = workload.run(&quick(1));
            assert_eq!(first.violation, None, "{}", workload.name());
            assert_eq!(first.failed, 0);
            assert!(first.attempted > 0);
            for d in END_TO_END {
                let v = first.metrics.get(d.name).copied();
                assert!(v.is_some_and(|v| v > 0.0), "{} {} = {v:?}", workload.name(), d.name);
            }
            // Seeds: equal digests for a seed, different for another.
            if matches!(workload, Workload::WireSmallNet | Workload::SimBatchPaged) {
                assert_eq!(digest(&first), digest(&workload.run(&quick(1))));
                assert_ne!(digest(&first), digest(&workload.run(&quick(2))));
            }

            let (traced, recorder) = workload.run_traced(&quick(1));
            assert_eq!(traced.violation, None, "{} traced", workload.name());
            assert!(!recorder.spans().is_empty());
            for name in traced.metrics.keys() {
                assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name} is not registered");
            }
        }
    }
}
