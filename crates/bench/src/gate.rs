//! The perf-regression gate: one table of every number in the committed
//! `BENCH_substrate.json`, and one loop over the rows that gate.
//!
//! Wall-clock times are machine-dependent, so the gate compares **speedups
//! over a reference path timed on the same machine in the same run** — the
//! seed ikj loop, dequantize-then-matmul, the scalar fused kernel, the
//! interpreted decode loop. [`check`] holds each of the six gated rows of
//! `ROWS` to the baseline (at most `tolerance`, default 25 %, below it,
//! unless the two machines make the row incomparable — the line then says
//! why) and to its absolute floors (seven in all), each under its own
//! condition on the candidate's machine. The `bench_gate` binary runs it.

use pregated_moe::tensor::{kernel, quant, QuantMode, QuantizedTensor, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-N wall time of `f`, in milliseconds (the minimum is the
/// standard low-noise estimator for microbenchmarks on shared machines).
pub fn time_best_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn same_bits(x: &[f32], y: &[f32]) -> bool {
    x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Best-of-N wall times of the 512³ GEMM kernels, and the machine shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Gemm512Measurement {
    /// Configured worker threads (`PGMOE_THREADS` / available parallelism).
    pub threads: usize,
    /// Hardware threads the machine exposes.
    pub hardware_threads: usize,
    /// Seed ikj loop, ms — the per-machine normalizer.
    pub seed_ikj_ms: f64,
    /// Register-tiled serial GEMM, ms.
    pub blocked_serial_ms: f64,
    /// Worker-pool parallel GEMM, ms.
    pub blocked_parallel_ms: f64,
    /// Fused int8-dequant GEMM, ms.
    pub dequant_int8_fused_ms: f64,
}

/// Times the 512³ GEMM family (seed ikj, blocked serial, blocked parallel,
/// fused int8 dequant), best of 9 each.
///
/// # Panics
///
/// Panics if any kernel's output diverges from the seed loop's — a wrong
/// kernel's timing is meaningless.
pub fn measure_gemm_512() -> Gemm512Measurement {
    const N: usize = 512;
    const RUNS: usize = 9;
    let threads = WorkerPool::global().num_threads();
    let hardware_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(7);
    let a = pregated_moe::tensor::init::normal([N, N], 0.0, 1.0, &mut rng).into_vec();
    let b = pregated_moe::tensor::init::normal([N, N], 0.0, 1.0, &mut rng).into_vec();
    let mut out_naive = vec![0.0f32; N * N];
    let mut out_serial = vec![0.0f32; N * N];
    let mut out_parallel = vec![0.0f32; N * N];

    let seed_ikj_ms = time_best_ms(RUNS, || {
        kernel::matmul_skip_zeros_into(black_box(&mut out_naive), &a, &b, N, N, N)
    });
    let blocked_serial_ms = time_best_ms(RUNS, || {
        kernel::matmul_serial_into(black_box(&mut out_serial), &a, &b, N, N, N)
    });
    let blocked_parallel_ms =
        time_best_ms(RUNS, || kernel::matmul_into(black_box(&mut out_parallel), &a, &b, N, N, N));
    // The fused dequantizing GEMM consumes int8 panels directly; it must
    // stay in the blocked kernels' league, not the seed loop's.
    let bq = QuantizedTensor::quantize(
        &pregated_moe::tensor::Tensor::from_vec([N, N], b.clone()).unwrap(),
        QuantMode::int8(),
    );
    let mut out_dequant = vec![0.0f32; N * N];
    let dequant_int8_fused_ms = time_best_ms(RUNS, || {
        quant::matmul_dequant_into(black_box(&mut out_dequant), &a, &bq, N, N, N)
    });

    // The three f32 paths must agree before their timings mean anything.
    for (x, y) in out_naive.iter().zip(&out_serial) {
        assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "serial kernel diverged: {x} vs {y}");
    }
    assert!(same_bits(&out_serial, &out_parallel), "parallel GEMM must equal serial bitwise");
    // And the fused kernel must equal dequantize-then-matmul bitwise.
    let deq = bq.dequantize();
    let mut out_ref = vec![0.0f32; N * N];
    kernel::matmul_into(&mut out_ref, &a, deq.as_slice(), N, N, N);
    assert!(same_bits(&out_ref, &out_dequant), "fused int8 GEMM must equal the unfused bitwise");

    Gemm512Measurement {
        threads,
        hardware_threads,
        seed_ikj_ms,
        blocked_serial_ms,
        blocked_parallel_ms,
        dequant_int8_fused_ms,
    }
}

/// Best-of-N wall times of the fused Q4_0 GEMM at a decode shape
/// (m = 8, k = n = 512), where the panel-dequant pass dominates and the SIMD
/// nibble unpack matters. Every path runs serially.
#[derive(Debug, Clone, PartialEq)]
pub struct Q4FusedMeasurement {
    /// Dequantize all of `B`, then the blocked serial GEMM, ms — the
    /// normalizer (at m = 8 the dequant pass dominates any Q4 path).
    pub q4_unfused_ms: f64,
    /// Fused Q4 GEMM with the scalar panel-dequant fallback forced, ms.
    pub q4_fused_scalar_ms: f64,
    /// Fused Q4 GEMM through runtime dispatch (AVX2 when available), ms.
    pub q4_fused_simd_ms: f64,
    /// Whether the dispatched run used the SIMD tier (not on non-AVX2
    /// machines or under `PGMOE_NO_SIMD`).
    pub simd: bool,
}

/// Times the fused Q4_0 GEMM at the decode shape (unfused, forced-scalar
/// fused, dispatched fused), best of 25 each.
///
/// # Panics
///
/// Panics unless both fused paths equal dequantize-then-matmul bitwise.
pub fn measure_q4_fused() -> Q4FusedMeasurement {
    const M: usize = 8;
    const K: usize = 512;
    const N: usize = 512;
    const RUNS: usize = 25;
    let mut rng = StdRng::seed_from_u64(11);
    let a = pregated_moe::tensor::init::normal([M, K], 0.0, 1.0, &mut rng).into_vec();
    let b = pregated_moe::tensor::init::normal([K, N], 0.0, 1.0, &mut rng);
    let bq = QuantizedTensor::quantize(&b, QuantMode::Q4);

    let mut out_unfused = vec![0.0f32; M * N];
    let q4_unfused_ms = time_best_ms(RUNS, || {
        let deq = bq.dequantize();
        kernel::matmul_serial_into(black_box(&mut out_unfused), &a, deq.as_slice(), M, K, N);
    });
    let mut out_scalar = vec![0.0f32; M * N];
    let q4_fused_scalar_ms = time_best_ms(RUNS, || {
        quant::matmul_dequant_scalar_into(black_box(&mut out_scalar), &a, &bq, M, K, N)
    });
    let mut out_simd = vec![0.0f32; M * N];
    let q4_fused_simd_ms = time_best_ms(RUNS, || {
        quant::matmul_dequant_serial_into(black_box(&mut out_simd), &a, &bq, M, K, N)
    });

    assert!(same_bits(&out_unfused, &out_scalar), "scalar fused Q4 must equal the unfused bitwise");
    assert!(same_bits(&out_unfused, &out_simd), "dispatched Q4 must equal the unfused bitwise");
    let simd = pregated_moe::tensor::simd::enabled();
    Q4FusedMeasurement { q4_unfused_ms, q4_fused_scalar_ms, q4_fused_simd_ms, simd }
}

/// Host wall µs per generated token of a batch-1 Pre-gated decode loop on
/// Switch-Base-64, with the compiled-plan cache on and off.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanHostMeasurement {
    /// Host µs per generated token with plan replay (the default path).
    pub plan_on_us_per_token: f64,
    /// Host µs per generated token with `SimOptions::without_plan_cache`.
    pub plan_off_us_per_token: f64,
}

/// Times the cache-hit steady state of the batch-1 decode loop (long
/// outputs, stable routing counts) with the plan cache on and off, best of
/// 7 each.
///
/// # Panics
///
/// Panics if the plan-cache-on run misses more than it hits — it would
/// time the interpreter twice.
pub fn measure_plan_host() -> PlanHostMeasurement {
    use pregated_moe::prelude::*;
    const RUNS: usize = 7;
    let request = DecodeRequest { input_tokens: 16, output_tokens: 512, batch_size: 1 };
    let run = |plan: bool| {
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let opts = if plan { opts } else { opts.without_plan_cache() };
        InferenceSim::new(ModelConfig::switch_base(64), opts).run(request, 4).expect("run")
    };
    let report = run(true);
    assert!(
        report.plan_cache_hits > report.plan_cache_misses,
        "the gate workload must spend most decode iterations replaying plans \
         ({} hits / {} misses)",
        report.plan_cache_hits,
        report.plan_cache_misses
    );
    let tokens = (report.plan_cache_hits + report.plan_cache_misses) as f64;
    let on_ms = time_best_ms(RUNS, || drop(black_box(run(true))));
    let off_ms = time_best_ms(RUNS, || drop(black_box(run(false))));
    PlanHostMeasurement {
        plan_on_us_per_token: on_ms * 1e3 / tokens,
        plan_off_us_per_token: off_ms * 1e3 / tokens,
    }
}

/// One run of the three measurements, what a candidate's rows read.
pub type Run = (Gemm512Measurement, Q4FusedMeasurement, PlanHostMeasurement);

/// Why a baseline and a candidate cannot be compared on a row, if they
/// cannot.
type Incomparable = fn(&Sample, &Sample) -> Option<&'static str>;

/// An absolute floor, and whether it binds a candidate.
struct Floor {
    bound: f64,
    applies: fn(&Sample) -> bool,
}

/// One number in `BENCH_substrate.json`.
struct Row {
    key: &'static str,
    /// Digits after the point in the file (0 for counts).
    decimals: usize,
    read: fn(&Run) -> f64,
    /// `None` for a recorded-only row.
    compare: Option<Incomparable>,
    floors: &'static [Floor],
}

const fn record(key: &'static str, decimals: usize, read: fn(&Run) -> f64) -> Row {
    Row { key, decimals, read, compare: None, floors: &[] }
}

const fn gated(
    key: &'static str,
    read: fn(&Run) -> f64,
    compare: Incomparable,
    floors: &'static [Floor],
) -> Row {
    Row { key, decimals: 3, read, compare: Some(compare), floors }
}

/// Every number in `BENCH_substrate.json`, in file order. The six
/// `speedup_*` rows gate; the rest record their inputs and the machine.
const ROWS: [Row; 21] = [
    record("m", 0, |_| 512.0),
    record("k", 0, |_| 512.0),
    record("n", 0, |_| 512.0),
    record("threads", 0, |(g, _, _)| g.threads as f64),
    record("hardware_threads", 0, |(g, _, _)| g.hardware_threads as f64),
    record("seed_ikj_ms", 3, |(g, _, _)| g.seed_ikj_ms),
    record("blocked_serial_ms", 3, |(g, _, _)| g.blocked_serial_ms),
    record("blocked_parallel_ms", 3, |(g, _, _)| g.blocked_parallel_ms),
    record("dequant_int8_fused_ms", 3, |(g, _, _)| g.dequant_int8_fused_ms),
    // One thread: comparable across any two machines.
    gated(
        "speedup_blocked_serial",
        |(g, _, _)| g.seed_ikj_ms / g.blocked_serial_ms,
        |_, _| None,
        &[Floor { bound: 1.5, applies: |_| true }],
    ),
    // Pool-parallel, so it scales with cores. On real cores it must clear
    // 2x whatever the configured threads, and 4x with >= 2 configured.
    gated(
        "speedup_blocked_parallel",
        |(g, _, _)| g.seed_ikj_ms / g.blocked_parallel_ms,
        fewer_threads,
        &[
            Floor { bound: 2.0, applies: |s| s.get("hardware_threads") >= 2.0 },
            Floor { bound: 4.0, applies: |s| effective_threads(s) >= 2.0 },
        ],
    ),
    // `matmul_dequant_into` fans out to the pool too.
    gated(
        "speedup_dequant_int8_fused",
        |(g, _, _)| g.seed_ikj_ms / g.dequant_int8_fused_ms,
        fewer_threads,
        &[Floor { bound: 1.2, applies: |_| true }],
    ),
    record("plan_on_us_per_token", 3, |(_, _, p)| p.plan_on_us_per_token),
    record("plan_off_us_per_token", 3, |(_, _, p)| p.plan_off_us_per_token),
    gated(
        "speedup_plan_cache",
        |(_, _, p)| p.plan_off_us_per_token / p.plan_on_us_per_token,
        |_, _| None,
        &[Floor { bound: 1.3, applies: |_| true }],
    ),
    record("q4_unfused_ms", 3, |(_, q, _)| q.q4_unfused_ms),
    record("q4_fused_scalar_ms", 3, |(_, q, _)| q.q4_fused_scalar_ms),
    record("q4_fused_simd_ms", 3, |(_, q, _)| q.q4_fused_simd_ms),
    record("q4_simd", 0, |(_, q, _)| f64::from(u8::from(q.simd))),
    gated(
        "speedup_q4_scalar",
        |(_, q, _)| q.q4_unfused_ms / q.q4_fused_scalar_ms,
        |_, _| None,
        &[Floor { bound: 1.2, applies: |_| true }],
    ),
    // Without the SIMD tier both fused timings run the same code.
    gated(
        "speedup_q4_simd",
        |(_, q, _)| q.q4_fused_scalar_ms / q.q4_fused_simd_ms,
        |b, c| (!(simd(b) && simd(c))).then_some("SIMD tier did not run on both machines"),
        &[Floor { bound: 1.2, applies: simd }],
    ),
];

fn simd(s: &Sample) -> bool {
    s.get("q4_simd") != 0.0
}

/// Configured workers capped by cores.
fn effective_threads(s: &Sample) -> f64 {
    s.get("threads").min(s.get("hardware_threads")).max(1.0)
}

fn fewer_threads(baseline: &Sample, candidate: &Sample) -> Option<&'static str> {
    (effective_threads(candidate) < effective_threads(baseline))
        .then_some("fewer effective threads than baseline")
}

/// The numbers of one `BENCH_substrate.json`, one per row of `ROWS`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample([f64; ROWS.len()]);

impl Sample {
    /// The candidate sample of one run.
    pub fn of(run: &Run) -> Sample {
        Sample(ROWS.map(|row| (row.read)(run)))
    }

    /// Reads every row's number out of a flat JSON object.
    ///
    /// # Errors
    ///
    /// Returns the first row key the text lacks.
    pub fn parse(text: &str) -> Result<Sample, &'static str> {
        let mut values = [0.0; ROWS.len()];
        for (value, row) in values.iter_mut().zip(ROWS.iter()) {
            *value = number(text, row.key).ok_or(row.key)?;
        }
        Ok(Sample(values))
    }

    /// Renders the committed file's layout, rows in table order.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"substrate/gemm_512\"");
        for (row, value) in ROWS.iter().zip(self.0) {
            out += &format!(",\n  \"{}\": {:.*}", row.key, row.decimals, value);
        }
        out + "\n}\n"
    }

    /// The number of the row keyed `key` (panics on an unknown key).
    pub fn get(&self, key: &str) -> f64 {
        self.0[ROWS.iter().position(|row| row.key == key).expect("a gate row")]
    }
}

/// The number after `"key":` in a flat JSON object.
fn number(text: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\"");
    let rest = &text[text.find(&tag)? + tag.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One gated row's verdict on a candidate.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// The row's key.
    metric: &'static str,
    /// The baseline's figure.
    baseline: f64,
    /// The candidate's figure.
    candidate: f64,
    /// Why the baseline comparison is informational, if it is.
    skipped: Option<&'static str>,
    /// The highest floor that binds the candidate.
    floor: Option<f64>,
    /// The comparison gates and the candidate fell below the tolerance.
    regressed: bool,
    /// The candidate is below its floor.
    below_floor: bool,
}

impl GateLine {
    /// Whether the line passes.
    pub fn ok(&self) -> bool {
        !self.regressed && !self.below_floor
    }
}

impl fmt::Display for GateLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let floor = self.floor.map_or("-".to_string(), |b| format!("{b:.2}x"));
        let (metric, base, cand) = (self.metric, self.baseline, self.candidate);
        write!(
            f,
            "{metric:<28} baseline {base:>6.2}x  candidate {cand:>6.2}x  floor {floor:>5}  "
        )?;
        match (self.below_floor, self.regressed, self.skipped) {
            (true, _, _) => write!(f, "BELOW FLOOR"),
            (false, true, _) => write!(f, "REGRESSED"),
            (false, false, Some(reason)) => write!(f, "skipped ({reason} — informational)"),
            (false, false, None) => write!(f, "ok"),
        }
    }
}

/// Checks every gated row of `candidate` against `baseline` (a drop of
/// more than `tolerance`, a fraction, fails unless the pair is
/// incomparable) and against the floors that bind the candidate. One line
/// per gated row, in table order.
pub fn check(baseline: &Sample, candidate: &Sample, tolerance: f64) -> Vec<GateLine> {
    let pairs = baseline.0.into_iter().zip(candidate.0);
    ROWS.iter()
        .zip(pairs)
        .filter_map(|(row, (base, cand))| {
            let skipped = (row.compare?)(baseline, candidate);
            let applies = row.floors.iter().filter(|floor| (floor.applies)(candidate));
            let floor = applies.map(|floor| floor.bound).reduce(f64::max);
            Some(GateLine {
                metric: row.key,
                baseline: base,
                candidate: cand,
                skipped,
                floor,
                regressed: skipped.is_none() && cand < base * (1.0 - tolerance),
                below_floor: floor.is_some_and(|bound| cand < bound),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_substrate.json");

    impl Sample {
        fn with(mut self, key: &str, value: f64) -> Sample {
            self.0[ROWS.iter().position(|row| row.key == key).unwrap()] = value;
            self
        }
    }

    /// The committed baseline moved to a 2-core, 2-thread machine with the
    /// SIMD tier, so every floor applies, with the parallel figure that
    /// machine must reach. Every gated row clears its floor after a 15 %
    /// drop.
    fn fixture() -> Sample {
        Sample::parse(COMMITTED)
            .unwrap()
            .with("hardware_threads", 2.0)
            .with("speedup_blocked_parallel", 6.0)
    }

    fn gated_keys() -> Vec<&'static str> {
        ROWS.iter().filter(|row| row.compare.is_some()).map(|row| row.key).collect()
    }

    fn failing(lines: &[GateLine]) -> Vec<&'static str> {
        lines.iter().filter(|line| !line.ok()).map(|line| line.metric).collect()
    }

    fn line<'a>(lines: &'a [GateLine], key: &str) -> &'a GateLine {
        lines.iter().find(|line| line.metric == key).unwrap()
    }

    #[test]
    fn the_gate_is_six_compared_rows_and_seven_floors() {
        assert_eq!(
            gated_keys(),
            [
                "speedup_blocked_serial",
                "speedup_blocked_parallel",
                "speedup_dequant_int8_fused",
                "speedup_plan_cache",
                "speedup_q4_scalar",
                "speedup_q4_simd",
            ]
        );
        let floors: Vec<(&str, f64)> = ROWS
            .iter()
            .flat_map(|row| row.floors.iter().map(|floor| (row.key, floor.bound)))
            .collect();
        assert_eq!(
            floors,
            [
                ("speedup_blocked_serial", 1.5),
                ("speedup_blocked_parallel", 2.0),
                ("speedup_blocked_parallel", 4.0),
                ("speedup_dequant_int8_fused", 1.2),
                ("speedup_plan_cache", 1.3),
                ("speedup_q4_scalar", 1.2),
                ("speedup_q4_simd", 1.2),
            ]
        );
    }

    #[test]
    fn render_parse_round_trips_every_key() {
        // Distinct values, exact at the rendered precision.
        let sample = Sample(std::array::from_fn(|i| {
            i as f64 + if ROWS[i].decimals == 0 { 0.0 } else { 0.125 }
        }));
        assert_eq!(Sample::parse(&sample.render()), Ok(sample));
        // The committed file is exactly what the renderer writes.
        assert_eq!(Sample::parse(COMMITTED).unwrap().render(), COMMITTED);
        // A run's rows read their measurements.
        let run = (
            Gemm512Measurement {
                threads: 2,
                hardware_threads: 4,
                seed_ikj_ms: 16.0,
                blocked_serial_ms: 8.0,
                blocked_parallel_ms: 2.0,
                dequant_int8_fused_ms: 4.0,
            },
            Q4FusedMeasurement {
                q4_unfused_ms: 0.75,
                q4_fused_scalar_ms: 0.5,
                q4_fused_simd_ms: 0.25,
                simd: true,
            },
            PlanHostMeasurement { plan_on_us_per_token: 0.5, plan_off_us_per_token: 1.0 },
        );
        let sample = Sample::of(&run);
        assert_eq!(Sample::parse(&sample.render()), Ok(sample.clone()));
        for (key, want) in [
            ("threads", 2.0),
            ("hardware_threads", 4.0),
            ("q4_simd", 1.0),
            ("speedup_blocked_serial", 2.0),
            ("speedup_blocked_parallel", 8.0),
            ("speedup_dequant_int8_fused", 4.0),
            ("speedup_plan_cache", 2.0),
            ("speedup_q4_scalar", 1.5),
            ("speedup_q4_simd", 2.0),
        ] {
            assert_eq!(sample.get(key), want, "{key}");
        }
    }

    #[test]
    fn a_baseline_lacking_a_rows_key_is_rejected_by_name() {
        let text: String =
            COMMITTED.lines().filter(|l| !l.contains("\"speedup_q4_simd\"")).collect();
        assert_eq!(Sample::parse(&text), Err("speedup_q4_simd"));
    }

    #[test]
    fn the_committed_baseline_clears_every_floor_that_applies_to_it() {
        let committed = Sample::parse(COMMITTED).unwrap();
        let lines = check(&committed, &committed, 0.25);
        assert!(failing(&lines).is_empty(), "{lines:?}");
        // One core: the two parallel floors do not bind it; the other five do.
        assert_eq!(lines.iter().filter(|line| line.floor.is_some()).count(), 5);
    }

    #[test]
    fn an_unchanged_measurement_passes() {
        let lines = check(&fixture(), &fixture(), 0.25);
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|line| line.ok() && line.skipped.is_none()), "{lines:?}");
    }

    #[test]
    fn a_15_percent_drop_on_any_gated_row_passes() {
        for key in gated_keys() {
            let candidate = fixture().with(key, fixture().get(key) * 0.85);
            let lines = check(&fixture(), &candidate, 0.25);
            assert!(failing(&lines).is_empty(), "{key}: {lines:?}");
        }
    }

    #[test]
    fn halving_any_gated_row_fails_exactly_that_row() {
        for key in gated_keys() {
            let candidate = fixture().with(key, fixture().get(key) / 2.0);
            let lines = check(&fixture(), &candidate, 0.25);
            assert_eq!(failing(&lines), [key]);
            assert!(line(&lines, key).regressed);
        }
    }

    #[test]
    fn a_baseline_doctored_to_2x_fails_every_gated_row() {
        let doctored = gated_keys().into_iter().fold(fixture(), |s, key| {
            let doubled = s.get(key) * 2.0;
            s.with(key, doubled)
        });
        let lines = check(&doctored, &fixture(), 0.25);
        assert_eq!(failing(&lines), gated_keys());
        assert!(lines.iter().all(|line| line.regressed));
    }

    #[test]
    fn thread_mismatch_leaves_the_pool_rows_informational() {
        // A baseline from a 16-core box must not fail a 2-core runner on the
        // pool-parallel figures alone; the serial figure still gates.
        let baseline = fixture()
            .with("threads", 16.0)
            .with("hardware_threads", 16.0)
            .with("speedup_blocked_parallel", 9.0);
        let candidate = fixture().with("speedup_blocked_parallel", 4.5);
        let lines = check(&baseline, &candidate, 0.25);
        assert!(failing(&lines).is_empty(), "{lines:?}");
        for key in ["speedup_blocked_parallel", "speedup_dequant_int8_fused"] {
            let text = line(&lines, key).to_string();
            assert!(text.contains("threads") && !text.contains("SIMD"), "{text}");
        }
        assert!(line(&lines, "speedup_blocked_serial").skipped.is_none());
        let slow_serial = candidate
            .clone()
            .with("speedup_blocked_serial", fixture().get("speedup_blocked_serial") / 2.0);
        assert_eq!(failing(&check(&baseline, &slow_serial, 0.25)), ["speedup_blocked_serial"]);
        // Equal parallelism gates the parallel figure again.
        let wide = candidate.with("threads", 16.0).with("hardware_threads", 16.0);
        assert_eq!(failing(&check(&baseline, &wide, 0.25)), ["speedup_blocked_parallel"]);
    }

    #[test]
    fn simd_mismatch_leaves_the_simd_row_informational() {
        // The committed baseline (2 threads, 1 core, SIMD) against a 2-core
        // runner with the SIMD tier off: only the SIMD tier differs, and
        // the line must say so rather than blame threads.
        let baseline = Sample::parse(COMMITTED).unwrap();
        let candidate = baseline
            .clone()
            .with("hardware_threads", 2.0)
            .with("speedup_blocked_parallel", 4.5)
            .with("q4_simd", 0.0)
            .with("speedup_q4_simd", 0.95);
        let lines = check(&baseline, &candidate, 0.25);
        assert!(failing(&lines).is_empty(), "{lines:?}");
        let text = line(&lines, "speedup_q4_simd").to_string();
        assert!(text.contains("SIMD tier") && !text.contains("threads"), "{text}");
        assert!(line(&lines, "speedup_q4_scalar").skipped.is_none());
        let slow_scalar =
            candidate.with("speedup_q4_scalar", baseline.get("speedup_q4_scalar") / 2.0);
        assert_eq!(failing(&check(&baseline, &slow_scalar, 0.25)), ["speedup_q4_scalar"]);
        // Matched tiers gate the SIMD ratio.
        let slow_simd = fixture().with("speedup_q4_simd", fixture().get("speedup_q4_simd") / 2.0);
        assert_eq!(failing(&check(&fixture(), &slow_simd, 0.25)), ["speedup_q4_simd"]);
    }

    #[test]
    fn each_floor_rejects_a_value_just_below_its_bound() {
        // The 2x parallel floor binds alone only with one configured thread.
        let machines = [fixture(), fixture().with("threads", 1.0)];
        let mut floors = 0;
        for row in &ROWS {
            for floor in row.floors {
                let machine = machines
                    .iter()
                    .find(|m| line(&check(m, m, 0.25), row.key).floor == Some(floor.bound))
                    .unwrap_or_else(|| {
                        panic!("no machine where {}'s {}x floor binds", row.key, floor.bound)
                    });
                let at = machine.clone().with(row.key, floor.bound);
                assert!(
                    line(&check(&at, &at, 0.25), row.key).ok(),
                    "{} at {}",
                    row.key,
                    floor.bound
                );
                let below = machine.clone().with(row.key, floor.bound - 1e-3);
                let verdict = check(&below, &below, 0.25);
                assert!(line(&verdict, row.key).below_floor, "{} below {}", row.key, floor.bound);
                assert_eq!(failing(&verdict), [row.key]);
                floors += 1;
            }
        }
        assert_eq!(floors, 7);
    }
}
