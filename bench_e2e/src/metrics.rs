//! The metric names this benchmark fixes, and the one-line result it prints.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in step.
//! Every workload reports every end-to-end metric (tracing off) and every
//! per-layer metric (traced run); a per-layer metric a workload does not
//! exercise reads 0.

use pregated_moe::serve::json::{self, Json};
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median an
/// end-to-end metric may worsen by; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Latencies are in the clock the
/// workload's clients live in: host wall clock on the `wire_*` workloads,
/// simulated time on the `sim_*` workloads. `tokens_per_s` is always host
/// wall clock (how fast this program runs); `sim_*` is always the simulated
/// device (the paper's throughput and memory claims).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("tokens_per_s", "1/s", Higher, 0.25),
    e2e("ttft_p50_ms", "ms", Lower, 0.15),
    e2e("ttft_p95_ms", "ms", Lower, 0.25),
    e2e("request_p50_ms", "ms", Lower, 0.15),
    e2e("request_p95_ms", "ms", Lower, 0.25),
    e2e("sim_tokens_per_s", "1/s", Higher, 0.10),
    e2e("sim_peak_hbm_gb", "GB", Lower, 0.15),
];

/// The per-layer ledger, grouped by crate and module.
pub const PER_LAYER: &[MetricDef] = &[
    // serve
    layer("serve.io.delivery_gap_ms", "ms", Lower),
    layer("serve.io.tpot_p50_ms", "ms", Lower),
    layer("serve.http.parse_ns", "ns", Lower),
    layer("serve.json.parse_ns", "ns", Lower),
    layer("serve.http.chunk_ns", "ns", Lower),
    layer("serve.slo.verdict_ns", "ns", Lower),
    layer("serve.metrics.render_us", "us", Lower),
    layer("serve.engine.iterations", "count", Lower),
    layer("serve.engine.mean_batch", "count", Higher),
    layer("serve.engine.iter_us", "us", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.retries", "count", Lower),
    // model
    layer("model.net.forward_us", "us", Lower),
    layer("model.net.forwards", "count", Lower),
    layer("model.net.useful_position_share", "share", Higher),
    // tensor
    layer("tensor.kernel.expert_gemm_gflops", "GFLOP/s", Higher),
    layer("tensor.kernel.gemm512_ms", "ms", Lower),
    layer("tensor.quant.int8_fused_ms", "ms", Lower),
    layer("tensor.quant.q4_fused_us", "us", Lower),
    layer("tensor.arena.reuse_share", "share", Higher),
    layer("tensor.pool.threads", "count", Higher),
    // runtime: session, plan, batch, engine
    layer("runtime.session.admit_ns", "ns", Lower),
    layer("runtime.session.step_ns_p50", "ns", Lower),
    layer("runtime.session.step_ns_p99", "ns", Lower),
    layer("runtime.session.iterations", "count", Lower),
    layer("runtime.session.mean_batch", "count", Higher),
    layer("runtime.session.peak_batch", "count", Higher),
    layer("runtime.plan.hits", "count", Higher),
    layer("runtime.plan.misses", "count", Lower),
    layer("runtime.plan.hit_share", "share", Higher),
    layer("runtime.plan.hit_step_ns", "ns", Lower),
    layer("runtime.plan.miss_step_ns", "ns", Lower),
    layer("runtime.engine.plan_on_us_per_token", "us", Lower),
    layer("runtime.engine.plan_off_us_per_token", "us", Lower),
    // runtime: kv, cache
    layer("runtime.kv.peak_blocks", "count", Lower),
    layer("runtime.kv.shared_hit_mb", "MB", Higher),
    layer("runtime.kv.cow_copy_mb", "MB", Lower),
    layer("runtime.kv.cache_shrinks", "count", Lower),
    layer("runtime.kv.append_ns", "ns", Lower),
    layer("runtime.kv.release_ns", "ns", Lower),
    layer("runtime.cache.access_ns", "ns", Lower),
    layer("runtime.cache.fingerprint_ns", "ns", Lower),
    layer("runtime.cache.hit_share", "share", Higher),
    // runtime: fleet, control
    layer("runtime.fleet.dispatch_ns", "ns", Lower),
    layer("runtime.fleet.static_vs_controlled", "ratio", Lower),
    layer("runtime.fleet.demand_fetch_gb", "GB", Lower),
    layer("runtime.fleet.expert_fetch_gb", "GB", Lower),
    layer("runtime.control.observe_ns", "ns", Lower),
    layer("runtime.control.faults", "count", Lower),
    layer("runtime.control.redispatched", "count", Lower),
    layer("runtime.control.dropped_tokens", "count", Lower),
    layer("runtime.control.scale_ups", "count", Lower),
    layer("runtime.control.scale_downs", "count", Lower),
    // device, workload
    layer("device.submit_ns", "ns", Lower),
    layer("device.fast_forward_ns", "ns", Lower),
    layer("device.gpu_busy_share", "share", Higher),
    layer("device.pcie_busy_share", "share", Higher),
    layer("workload.arrivals_ns", "ns", Lower),
    layer("workload.fault_plan_events", "count", Lower),
    // simulated tails the sample supports but seeds move too much to bound
    layer("sim.tpot_p50_ms", "ms", Lower),
    layer("sim.ttft_p99_ms", "ms", Lower),
    layer("sim.request_p99_ms", "ms", Lower),
    // the instrument itself
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.ttft_unexplained_ms", "ms", Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent; simulated requests offered).
    pub attempted: u64,
    /// Operations that failed: a 429 after retries, a transport error, an
    /// unverified stream, a simulated request that never completed.
    pub failed: u64,
    /// The first output check that failed, with the offending request
    /// index where there is one. `None` means every check passed.
    pub violation: Option<String>,
    pub metrics: Values,
    /// `output_digest` or `sim_digest`: equal for equal seeds, so a later
    /// change can show "same outputs as parent".
    pub digest: Option<(&'static str, u64)>,
    /// Information printed beside the metrics: sample counts, tails the
    /// sample supports, thread and connection sizing.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violation.is_none()
    }

    /// Records the first violation only; later ones are consequences.
    pub fn violate(&mut self, what: String) {
        self.violation.get_or_insert(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violate(what());
        }
    }
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, every metric of `defs`
/// present (0 when the workload does not exercise it).
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Reads a result line back (the parent process does, for `--repeat` and
/// `--workload all`).
pub fn parse_result_line(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let doc = json::parse(line).ok()?;
    let correct = matches!(doc.get("correct")?, Json::Bool(true));
    let attempted = doc.get("attempted")?.as_u64()?;
    let failed = doc.get("failed")?.as_u64()?;
    let Json::Obj(metrics) = doc.get("metrics")? else { return None };
    let mut values = BTreeMap::new();
    for (name, entry) in metrics {
        let Json::Num(v) = entry.get("value")? else { return None };
        values.insert(name.clone(), *v);
    }
    Some((correct, attempted, failed, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else { panic!("object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|entry| {
                    let Json::Obj(map) = entry else { panic!("object") };
                    assert_eq!(map.len(), fields.len(), "{key}: exactly {fields:?}");
                    fields
                        .iter()
                        .map(|f| match &map[*f] {
                            Json::Str(s) => s.clone(),
                            Json::Num(n) => n.to_string(),
                            other => panic!("{other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        let want_e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|d| {
                vec![
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    d.bound.expect("bound").to_string(),
                ]
            })
            .collect();
        assert_eq!(listed("end_to_end", &["name", "unit", "better", "bound"]), want_e2e);
        let want_layers: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|d| vec![d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()])
            .collect();
        assert_eq!(listed("per_layer", &["name", "unit", "better"]), want_layers);
        let workloads = listed("workloads", &["name", "why"]);
        let names: Vec<&str> = workloads.iter().map(|w| w[0].as_str()).collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in &workloads {
            assert!(w[1].len() <= 200 && !w[1].contains('\n'), "why of {}", w[0]);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::RUN_SECONDS),
            "the default --seconds is BENCHMARK.json's run_seconds"
        );
    }

    #[test]
    fn result_line_round_trips_and_fills_unexercised_metrics_with_zero() {
        let mut outcome = Outcome { attempted: 12, failed: 1, ..Outcome::default() };
        outcome.metrics.insert("setup_s", 0.8127);
        outcome.metrics.insert("tokens_per_s", f64::NAN);
        let line = result_line(&outcome, END_TO_END);
        let (correct, attempted, failed, values) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (12, 1));
        assert_eq!(values.len(), END_TO_END.len());
        assert_eq!(values["setup_s"], 0.8127);
        assert_eq!(values["tokens_per_s"], 0.0, "non-finite values never reach the line");
        assert_eq!(values["ttft_p50_ms"], 0.0);

        outcome.violate("request 3: stream not verified".into());
        outcome.violate("later consequence".into());
        assert_eq!(outcome.violation.as_deref(), Some("request 3: stream not verified"));
        let (correct, ..) = parse_result_line(&result_line(&outcome, END_TO_END)).expect("parses");
        assert!(!correct);
    }
}
