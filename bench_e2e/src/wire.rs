//! The wire workloads: a closed loop of blocking clients over real loopback
//! sockets against an in-process `Server`, and the traced run that replays
//! the same seeded requests through the server's public calls.

use crate::inputs::{wire_clients, Fnv, PromptStream, WireSpec};
use crate::metrics::{Better, Outcome, Values};
use crate::spans::{Recorder, SpanId};
use crate::{micro, sim, stats, RunArgs, SETUP_REPS};
use pregated_moe::model::net::{RouteDecision, SwitchNet};
use pregated_moe::prelude::*;
use pregated_moe::runtime::LiveRouting;
use pregated_moe::serve::client::{self, RetriedResponse, RetryPolicy};
use pregated_moe::serve::http::{self, Limits, Parsed};
use pregated_moe::serve::json::{self, Json};
use pregated_moe::serve::{SloGovernor, Verdict};
use pregated_moe::tensor::ScratchArena;
use pregated_moe::workload::LiveClock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const REQUEST_DEADLINE: Duration = Duration::from_secs(60);

/// How one request ended, as the benchmark accounts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 200, `done` line matches the streamed tokens, exactly `max_tokens`.
    Verified,
    /// 200 but the stream is incomplete, inconsistent or the wrong length.
    Unverified,
    /// Still 429 after the retry budget: refused, not wrong.
    Shed,
    /// Any other final status (a 503 after retries, a 4xx, a 500).
    Status(u16),
    /// Connect, read, write or deadline failure.
    Transport,
}

impl Class {
    /// Everything but a verified stream is a failed operation.
    pub fn failed(self) -> bool {
        self != Class::Verified
    }

    /// A refusal is the server's right; anything else that failed means an
    /// output was wrong or lost.
    pub fn violates(self) -> bool {
        !matches!(self, Class::Verified | Class::Shed)
    }
}

pub fn classify(result: &io::Result<RetriedResponse>, max_tokens: usize) -> Class {
    match result {
        Err(_) => Class::Transport,
        Ok(r) => match r.response.status {
            200 if r.response.verified() && r.response.tokens.len() == max_tokens => {
                Class::Verified
            }
            200 => Class::Unverified,
            429 => Class::Shed,
            status => Class::Status(status),
        },
    }
}

#[derive(Debug, Clone)]
struct Sample {
    index: u64,
    class: Class,
    retries: u32,
    /// Client-side time to the first token line, ms.
    ttft_ms: f64,
    /// The final attempt's whole exchange, ms.
    stream_ms: f64,
    /// Send to last byte including retries and backoff, ms.
    total_ms: f64,
    /// When the last byte arrived, seconds since the loop started.
    done_at_s: f64,
    tokens: Vec<usize>,
}

impl Sample {
    /// Mean gap between output tokens after the first, ms.
    fn tpot_ms(&self) -> f64 {
        (self.stream_ms - self.ttft_ms) / (self.tokens.len().max(2) - 1) as f64
    }
}

struct LoopRun {
    /// Sorted by request index.
    samples: Vec<Sample>,
    wall_s: f64,
}

/// Closed loop: each client sends its next request only after the previous
/// one completed (and, for timed requests, a seeded think time of at most
/// one poll tick). Clients draw request indices from one counter starting at
/// `indices.start` and keep going while the index is inside `indices` or
/// the deadline has not passed.
fn closed_loop(
    addr: SocketAddr,
    spec: &WireSpec,
    seed: u64,
    stream: PromptStream,
    indices: std::ops::Range<u64>,
    deadline: Option<Instant>,
    trace: Option<&mut Recorder>,
) -> LoopRun {
    let next = AtomicU64::new(indices.start);
    let min_requests = indices.end;
    let clients = wire_clients();
    let forks: Vec<Option<Recorder>> =
        (0..clients).map(|c| trace.as_deref().map(|r| r.fork(c as u32 + 1))).collect();
    let started = Instant::now();
    let per_client: Vec<(Vec<Sample>, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .map(|mut rec| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let timed_out = deadline.is_none_or(|d| Instant::now() >= d);
                        if index >= min_requests && timed_out {
                            break;
                        }
                        let prompt = spec.prompt(seed, stream, index);
                        if stream == PromptStream::Timed {
                            std::thread::sleep(spec.think_time(seed, index));
                        }
                        // Honour backpressure as a production client would;
                        // the cap compresses the server's one-second hint.
                        let policy = RetryPolicy {
                            max_retries: 3,
                            base_delay: Duration::from_millis(25),
                            max_delay: Duration::from_millis(250),
                            jitter_seed: crate::inputs::mix(seed, index),
                        };
                        let span =
                            rec.as_mut().map(|r| r.open("client.generate", None, Some(index)));
                        let sent = Instant::now();
                        let result = client::generate_with_retry(
                            addr,
                            &prompt,
                            spec.max_tokens,
                            REQUEST_DEADLINE,
                            policy,
                        );
                        let total_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let done_at_s = started.elapsed().as_secs_f64();
                        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
                            r.close(id);
                        }
                        let class = classify(&result, spec.max_tokens);
                        let (retries, ttft_ms, stream_ms, tokens) = match result {
                            Ok(r) => (
                                r.retries,
                                r.response.ttft.map_or(0.0, |t| t.as_secs_f64() * 1e3),
                                r.response.elapsed.as_secs_f64() * 1e3,
                                r.response.tokens,
                            ),
                            Err(_) => (0, 0.0, 0.0, Vec::new()),
                        };
                        samples.push(Sample {
                            index,
                            class,
                            retries,
                            ttft_ms,
                            stream_ms,
                            total_ms,
                            done_at_s,
                            tokens,
                        });
                    }
                    (samples, rec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread must not panic")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut trace = trace;
    for (mine, rec) in per_client {
        samples.extend(mine);
        if let (Some(all), Some(rec)) = (trace.as_deref_mut(), rec) {
            all.absorb(rec);
        }
    }
    samples.sort_by_key(|s| s.index);
    LoopRun { samples, wall_s }
}

/// Counts a loop's operations into `out` and flags the first request whose
/// output was wrong or lost. Returns the tokens verified streams carried.
fn tally(out: &mut Outcome, phase: &str, run: &LoopRun) -> usize {
    out.attempted += run.samples.len() as u64;
    let mut tokens = 0;
    for s in &run.samples {
        if s.class.failed() {
            out.failed += 1;
        } else {
            tokens += s.tokens.len();
        }
        if s.class.violates() {
            out.violate(format!("{phase} request {}: {:?}", s.index, s.class));
        }
    }
    tokens
}

/// Server start plus warm-up: what `setup_s` times.
fn set_up(spec: &WireSpec, seed: u64, out: &mut Outcome) -> (ServerHandle, usize) {
    let handle = Server::start(spec.serve_config()).expect("demo server starts");
    let warm = closed_loop(
        handle.addr(),
        spec,
        seed,
        PromptStream::Warmup,
        0..spec.warmup as u64,
        None,
        None,
    );
    let tokens = tally(out, "warm-up", &warm);
    (handle, tokens)
}

/// The benchmark's own greedy decode through the public `SwitchNet`: same
/// seed, same left-padded window, same first-maximum argmax as the engine.
/// Token content is a pure function of prompt and net seed, so the server
/// must stream exactly these tokens whatever the batch composition.
struct Reference {
    net: SwitchNet,
    arena: ScratchArena,
    window: Vec<usize>,
}

impl Reference {
    fn new(cfg: &ServeConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.engine.net_seed);
        let mut net = SwitchNet::new(cfg.engine.net.clone(), &mut rng);
        if let Some(p) = cfg.engine.opts.expert_precision {
            net.quantize_experts(p);
        }
        Reference { net, arena: ScratchArena::new(), window: vec![0; cfg.engine.net.seq_len] }
    }

    /// One forward over the last `seq_len` tokens of `ctx`: the next token
    /// and the routing decisions that drive the simulated device.
    fn forward(&mut self, ctx: &[usize]) -> (usize, Vec<RouteDecision>) {
        let seq_len = self.window.len();
        let tail = &ctx[ctx.len().saturating_sub(seq_len)..];
        self.window[..seq_len - tail.len()].fill(0);
        self.window[seq_len - tail.len()..].copy_from_slice(tail);
        let (logits, decisions) = self.net.forward_inference_arena(&self.window, &self.arena);
        let row = logits.row(seq_len - 1);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        self.arena.recycle(logits);
        (best, decisions)
    }

    fn decode(&mut self, prompt: &[usize], max_tokens: usize) -> Vec<usize> {
        let mut ctx = prompt.to_vec();
        for _ in 0..max_tokens {
            let (token, _) = self.forward(&ctx);
            ctx.push(token);
        }
        ctx.split_off(prompt.len())
    }
}

/// Compares the lowest-index requests with the reference decode and folds
/// them into `output_digest`.
fn check_outputs(spec: &WireSpec, seed: u64, samples: &[Sample], out: &mut Outcome) {
    let mut reference = Reference::new(&spec.serve_config());
    let mut digest = Fnv::new();
    let checked: Vec<&Sample> =
        samples.iter().take_while(|s| s.index < spec.checked as u64).collect();
    out.check(checked.len() == spec.checked, || {
        format!("only {} of the {} checked requests ran", checked.len(), spec.checked)
    });
    for s in checked {
        let want =
            reference.decode(&spec.prompt(seed, PromptStream::Timed, s.index), spec.max_tokens);
        if s.class == Class::Verified && s.tokens != want {
            let at = s.tokens.iter().zip(&want).position(|(a, b)| a != b);
            out.violate(format!(
                "request {}: streamed tokens differ from the reference decode at {at:?}",
                s.index
            ));
        }
        digest.word(s.index);
        s.tokens.iter().for_each(|&t| digest.word(t as u64));
    }
    out.digest = Some(("output_digest", digest.finish()));
    out.notes.push(format!("output_digest covers the first {} requests", spec.checked));
}

/// The timed loop is cut into this many equal slices by completion time;
/// each metric is computed per slice and the best slice is reported (see
/// [`stats::best`]): one undisturbed slice is enough for a steady number.
/// The whole run's percentiles are printed beside it as information.
const SLICES: usize = 5;

/// Throughput and latency metrics over the verified streams among
/// `samples`, host wall clock, per slice.
fn timed_metrics(samples: &[Sample], seconds: f64, out: &mut Outcome) {
    let ok: Vec<&Sample> = samples.iter().filter(|s| !s.class.failed()).collect();
    let slice_s = seconds / SLICES as f64;
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); SLICES];
    for s in &ok {
        // Requests that finish after the deadline belong to no slice.
        if let Some(slice) = slices.get_mut((s.done_at_s / slice_s) as usize) {
            slice.push(s);
        }
    }
    slices.retain(|slice| !slice.is_empty());
    let best_slice = |better: Better, f: &dyn Fn(&[&Sample]) -> f64| {
        stats::best(&slices.iter().map(|slice| f(slice)).collect::<Vec<_>>(), better)
    };
    let pct = |of: fn(&Sample) -> f64, p: f64| {
        move |slice: &[&Sample]| {
            stats::percentile(&stats::sorted(slice.iter().map(|s| of(s)).collect()), p)
        }
    };
    let m = &mut out.metrics;
    m.insert(
        "tokens_per_s",
        best_slice(Better::Higher, &|slice| {
            slice.iter().map(|s| s.tokens.len()).sum::<usize>() as f64 / slice_s
        }),
    );
    m.insert("ttft_p50_ms", best_slice(Better::Lower, &pct(|s| s.ttft_ms, 0.5)));
    m.insert("ttft_p95_ms", best_slice(Better::Lower, &pct(|s| s.ttft_ms, 0.95)));
    m.insert("request_p50_ms", best_slice(Better::Lower, &pct(|s| s.total_ms, 0.5)));
    m.insert("request_p95_ms", best_slice(Better::Lower, &pct(|s| s.total_ms, 0.95)));

    // The whole run's distributions, as information.
    let column = |of: fn(&Sample) -> f64| ok.iter().map(|s| of(s)).collect::<Vec<f64>>();
    out.notes.push(format!("ttft {}", stats::describe(&column(|s| s.ttft_ms), "ms")));
    out.notes.push(format!("tpot {}", stats::describe(&column(Sample::tpot_ms), "ms")));
    out.notes.push(format!("request {}", stats::describe(&column(|s| s.total_ms), "ms")));
}

fn sizing_note(cfg: &ServeConfig) -> String {
    format!(
        "{} closed-loop clients, io_workers {}, PGMOE_THREADS {}, pool threads {}, nproc {}",
        wire_clients(),
        cfg.io_workers,
        std::env::var("PGMOE_THREADS").unwrap_or_else(|_| "unset".into()),
        pregated_moe::tensor::WorkerPool::global().num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// Shuts the server down and checks engine-side token accounting against
/// the tokens that crossed the wire.
fn shut_down(handle: ServerHandle, wire_tokens: usize, out: &mut Outcome) -> Option<ServeStats> {
    let stats = handle.shutdown();
    match &stats {
        None => out.violate("engine thread panicked".into()),
        // Only comparable when every stream ran to its end.
        Some(s) if out.failed == 0 => out.check(s.total_tokens == wire_tokens, || {
            format!("engine decoded {} tokens, the wire carried {wire_tokens}", s.total_tokens)
        }),
        Some(_) => {}
    }
    stats
}

/// The end-to-end run, tracing off.
pub fn run(spec: &WireSpec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let (handle, warm_tokens) = set_up(spec, args.seed, &mut out);
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let timed = closed_loop(
        handle.addr(),
        spec,
        args.seed,
        PromptStream::Timed,
        0..spec.checked as u64,
        Some(deadline),
        None,
    );
    let tokens = tally(&mut out, "timed", &timed);
    timed_metrics(&timed.samples, args.seconds, &mut out);
    let retries: u32 = timed.samples.iter().map(|s| s.retries).sum();
    out.notes
        .push(format!("{retries} backpressure retries; {}", sizing_note(&spec.serve_config())));
    if let Some(stats) = shut_down(handle, warm_tokens + tokens, &mut out) {
        out.metrics.insert("sim_tokens_per_s", stats.tokens_per_sec);
        out.metrics.insert("sim_peak_hbm_gb", stats.peak_hbm_bytes as f64 / 1e9);
    }
    // One server's lifetime: the later set-ups and the reference decode
    // are the benchmark's memory, not the program's.
    out.metrics.insert("peak_rss_mb", crate::peak_rss_mb());

    // The other set-ups come after the timed loop, which therefore always
    // runs in a fresh process: restarting servers first leaves the
    // allocator in a state that moves the large network's forward time by
    // 30 % from run to run.
    for _ in 1..SETUP_REPS {
        let started = Instant::now();
        let (handle, _) = set_up(spec, args.seed, &mut out);
        setups.push(started.elapsed().as_secs_f64());
        drop(handle);
    }
    out.metrics.insert("setup_s", stats::median(&setups));
    check_outputs(spec, args.seed, &timed.samples, &mut out);
    out
}

// ------------------------------------------------------------ traced run

const STEP_HIT: &str = "runtime.session.step_routed.hit";
const STEP_MISS: &str = "runtime.session.step_routed.miss";

/// The model's own routing decisions, as the engine feeds them to the
/// session: block `b`'s expert at the last window position.
struct ReplayRouting<'a> {
    decisions: &'a HashMap<u64, Vec<RouteDecision>>,
}

impl LiveRouting for ReplayRouting<'_> {
    fn experts(&mut self, id: u64, _generated: usize, block: usize, out: &mut Vec<usize>) -> bool {
        let expert = self
            .decisions
            .get(&id)
            .and_then(|d| d.get(block))
            .and_then(|dec| dec.expert.last().copied());
        out.extend(expert);
        expert.is_some()
    }
}

struct Replaying {
    root: SpanId,
    ctx: Vec<usize>,
    emitted: usize,
}

struct ReplayResult {
    stats: ServeStats,
    /// Per request: request bytes in hand to first chunk encoded, ms.
    first_token_ms: Vec<f64>,
    arena_reuse_share: f64,
}

/// Replays `count` timed requests on one thread through the public calls
/// in the server's order, `group` requests at a time (the batch the real
/// engine averaged), each call a child span.
fn replay(
    spec: &WireSpec,
    seed: u64,
    count: usize,
    group: usize,
    rec: &mut Recorder,
) -> ReplayResult {
    let cfg = spec.serve_config();
    let mut reference = Reference::new(&cfg);
    let mut session =
        BatchSession::new(cfg.engine.model.clone(), cfg.engine.opts.clone(), cfg.engine.batch)
            .expect("demo engine config is valid");
    let governor = SloGovernor::new(cfg.slo, cfg.engine.batch.max_batch);
    let limits = Limits::default();
    let clock = LiveClock::start();
    let mut first_token_ms = Vec::new();
    let mut warm = None;

    let indices: Vec<u64> = (0..count as u64).collect();
    for chunk in indices.chunks(group.max(1)) {
        let batch_span = rec.open("replay.batch", None, None);
        let mut active: HashMap<u64, Replaying> = HashMap::new();
        let mut decisions: HashMap<u64, Vec<RouteDecision>> = HashMap::new();
        for &index in chunk {
            let prompt = spec.prompt(seed, PromptStream::Timed, index);
            let body = format!(
                "{{\"prompt\":[{}],\"max_tokens\":{}}}",
                prompt.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(","),
                spec.max_tokens
            );
            let wire = format!(
                "POST /v1/generate HTTP/1.1\r\nhost: pgmoe\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
            let root = rec.open("replay.request", Some(batch_span), Some(index));
            let parsed = rec
                .time("serve.http.parse", root, || http::parse_request(wire.as_bytes(), &limits));
            let Ok(Parsed::Complete(request, _)) = parsed else {
                panic!("replayed request parses")
            };
            let text = std::str::from_utf8(&request.body).expect("utf-8 body");
            let doc = rec.time("serve.json.parse", root, || json::parse(text)).expect("valid json");
            let tokens: Vec<usize> = doc
                .get("prompt")
                .and_then(Json::as_arr)
                .expect("prompt array")
                .iter()
                .map(|t| t.as_u64().expect("token id") as usize)
                .collect();
            let verdict = rec.time("serve.slo.verdict", root, || governor.verdict());
            assert_eq!(verdict, Verdict::Admit, "the relaxed SLO never sheds a replay");
            // The IO layer stamps the arrival; the engine advances its clock
            // to the wall clock at the next iteration boundary.
            let arrived = clock
                .stamp(DecodeRequest {
                    input_tokens: tokens.len(),
                    output_tokens: spec.max_tokens,
                    batch_size: 1,
                })
                .with_shared_prefix(SharedPrefix::of_tokens(&tokens).hash, tokens.len());
            governor.on_enqueue();
            session.advance_clock(SimTime::from_nanos(clock.now_ns()));
            let admitted =
                rec.time("runtime.session.admit", root, || session.try_admit(index, arrived));
            assert!(matches!(admitted, Ok(Admission::Admitted { .. })), "{admitted:?}");
            governor.on_dequeue();
            active.insert(index, Replaying { root, ctx: tokens, emitted: 0 });
        }

        while !active.is_empty() {
            let iteration = rec.open("serve.engine.iteration", Some(batch_span), None);
            let started = Instant::now();
            let mut next_token: HashMap<u64, usize> = HashMap::new();
            for (&id, r) in &active {
                let t0 = rec.now_ns();
                let (token, routed) = reference.forward(&r.ctx);
                rec.record("model.net.forward", Some(iteration), Some(id), t0, rec.now_ns());
                next_token.insert(id, token);
                decisions.insert(id, routed);
            }
            let before = session.plan_cache_stats().hits;
            let t0 = rec.now_ns();
            let events = session
                .step_routed(&mut ReplayRouting { decisions: &decisions })
                .expect("simulated device steps");
            let name = if session.plan_cache_stats().hits > before { STEP_HIT } else { STEP_MISS };
            rec.record(name, Some(iteration), None, t0, rec.now_ns());
            rec.close(iteration);
            governor.observe_iteration(started.elapsed());
            for ev in events {
                let r = active.get_mut(&ev.id).expect("event for a live request");
                let token = next_token[&ev.id];
                r.ctx.push(token);
                r.emitted += 1;
                let root = r.root;
                rec.time("serve.http.chunk", root, || {
                    let line = format!("{{\"index\":{},\"token\":{token}}}\n", ev.index);
                    http::chunk(line.as_bytes())
                });
                if ev.index == 0 {
                    let opened = rec.spans()[root].start_ns;
                    first_token_ms.push((rec.now_ns() - opened) as f64 / 1e6);
                }
                if ev.done {
                    assert_eq!(r.emitted, spec.max_tokens);
                    rec.close(root);
                    active.remove(&ev.id);
                }
            }
        }
        rec.close(batch_span);
        // Buffers grown by the first batch are warm-up, not steady state.
        warm.get_or_insert(reference.arena.stats());
    }
    let (warm, end) = (warm.unwrap_or_default(), reference.arena.stats());
    let takes = end.takes - warm.takes;
    ReplayResult {
        stats: session.finish(),
        first_token_ms,
        arena_reuse_share: if takes == 0 {
            0.0
        } else {
            (end.reuses - warm.reuses) as f64 / takes as f64
        },
    }
}

/// The traced run: a root span per client call against the real server,
/// counters through `ServerHandle::metrics()`, then the single-thread
/// replay and the leaf micro-timings.
pub fn run_traced(spec: &WireSpec, args: &RunArgs) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let (handle, warm_tokens) = set_up(spec, args.seed, &mut out);
    let addr = handle.addr();
    let phase = Duration::from_secs_f64(args.seconds / 4.0);
    let min = spec.checked as u64 / 2;

    // Server-side arrival-to-first-token so far (the warm-up's), so that the
    // two timed loops' share can be told apart below.
    let ttft_hist = &handle.metrics().ttft_seconds;
    let (warm_sum, warm_count) = (ttft_hist.sum(), ttft_hist.count());

    // Same loop twice: tracing off, then on; the difference is the
    // tracing overhead.
    let plain = closed_loop(
        addr,
        spec,
        args.seed,
        PromptStream::Timed,
        0..min,
        Some(Instant::now() + phase),
        None,
    );
    let plain_tokens = tally(&mut out, "untraced", &plain);
    let traced = closed_loop(
        addr,
        spec,
        args.seed,
        PromptStream::Timed,
        0..min,
        Some(Instant::now() + phase),
        Some(&mut rec),
    );
    let traced_tokens = tally(&mut out, "traced", &traced);
    let plain_rate = plain_tokens as f64 / plain.wall_s;
    let traced_rate = traced_tokens as f64 / traced.wall_s;

    // Client-side TTFT of every timed request, both loops: the population
    // the server's histogram grew by.
    let ttft: Vec<f64> = plain
        .samples
        .iter()
        .chain(&traced.samples)
        .filter(|s| !s.class.failed())
        .map(|s| s.ttft_ms)
        .collect();
    let ttft_mean = ttft.iter().sum::<f64>() / ttft.len().max(1) as f64;
    let tpot: Vec<f64> =
        traced.samples.iter().filter(|s| !s.class.failed()).map(Sample::tpot_ms).collect();
    let retries: u32 = plain.samples.iter().chain(&traced.samples).map(|s| s.retries).sum();

    let m = handle.metrics();
    let iterations = m.engine_iterations.get() as f64;
    let streamed = m.tokens_total.get() as f64;
    let mean_batch = if iterations == 0.0 { 0.0 } else { streamed / iterations };
    let timed_count = m.ttft_seconds.count() - warm_count;
    let server_ttft_ms =
        (m.ttft_seconds.sum() - warm_sum).as_secs_f64() * 1e3 / timed_count.max(1) as f64;
    let shed = m.shed_total.get() as f64;
    let render_us = pgmoe_bench::gate::time_best_ms(50, || {
        std::hint::black_box(m.render());
    }) * 1e3;
    let live = shut_down(handle, warm_tokens + plain_tokens + traced_tokens, &mut out);

    let group = (mean_batch.round() as usize).clamp(1, wire_clients());
    let replayed = replay(spec, args.seed, spec.replayed, group, &mut rec);
    out.check(replayed.stats.total_tokens == spec.replayed * spec.max_tokens, || {
        format!("replay decoded {} tokens", replayed.stats.total_tokens)
    });

    let v: &mut Values = &mut out.metrics;
    // How long a ready token waits for the IO worker: mean client-side TTFT
    // minus the engine's own mean arrival-to-first-token, same requests.
    let delivery_gap = ttft_mean - server_ttft_ms;
    v.insert("serve.io.delivery_gap_ms", delivery_gap);
    // Bimodal on the small network (a stream arrives in one flush or is
    // split over two poll ticks), so its median is information, not a gate.
    v.insert("serve.io.tpot_p50_ms", stats::median(&tpot));
    v.insert("serve.http.parse_ns", rec.median_ns("serve.http.parse"));
    v.insert("serve.json.parse_ns", rec.median_ns("serve.json.parse"));
    v.insert("serve.http.chunk_ns", rec.median_ns("serve.http.chunk"));
    v.insert("serve.slo.verdict_ns", rec.median_ns("serve.slo.verdict"));
    v.insert("serve.metrics.render_us", render_us);
    v.insert("serve.engine.iterations", iterations);
    v.insert("serve.engine.mean_batch", mean_batch);
    v.insert("serve.engine.iter_us", rec.median_ns("serve.engine.iteration") / 1e3);
    v.insert("serve.shed", shed);
    v.insert("serve.retries", f64::from(retries));
    v.insert("model.net.forward_us", rec.median_ns("model.net.forward") / 1e3);
    v.insert("model.net.forwards", streamed);
    let cfg = spec.serve_config();
    v.insert("model.net.useful_position_share", 1.0 / cfg.engine.net.seq_len as f64);
    v.insert("tensor.arena.reuse_share", replayed.arena_reuse_share);
    v.insert("runtime.session.admit_ns", rec.median_ns("runtime.session.admit"));
    let (hit_steps, miss_steps) = (rec.durations_ns(STEP_HIT), rec.durations_ns(STEP_MISS));
    let steps = stats::sorted(hit_steps.iter().chain(&miss_steps).copied().collect());
    v.insert("runtime.session.step_ns_p50", stats::percentile(&steps, 0.5));
    v.insert("runtime.session.step_ns_p99", stats::percentile(&steps, 0.99));
    v.insert("runtime.plan.hit_step_ns", stats::median(&hit_steps));
    v.insert("runtime.plan.miss_step_ns", stats::median(&miss_steps));
    if let Some(live) = live {
        // Counts from the live server's own session, not the replay's.
        v.insert("runtime.session.iterations", iterations);
        v.insert("runtime.session.mean_batch", mean_batch);
        sim::served_metrics(v, &live.into(), &cfg.engine.opts.machine);
    }
    let prompts = pgmoe_bench::gate::time_best_ms(5, || {
        for index in 0..256 {
            std::hint::black_box(spec.prompt(args.seed, PromptStream::Timed, index));
        }
    });
    v.insert("workload.arrivals_ns", prompts * 1e6 / 256.0);
    v.insert("bench.trace_overhead_share", 1.0 - traced_rate / plain_rate);
    // The replayed path plus the delivery gap should account for the
    // measured TTFT; whatever they do not is printed as its own line.
    let replay_first_ms = stats::median(&replayed.first_token_ms);
    let unexplained = ttft_mean - delivery_gap - replay_first_ms;
    v.insert("bench.ttft_unexplained_ms", unexplained);
    micro::tensor(v);
    micro::runtime_and_device(v, args.seed);

    out.notes.push(format!(
        "mean ttft {ttft_mean:.3} ms (n={}) = delivery gap {delivery_gap:.3} + replayed \
         first-token path {replay_first_ms:.3} + unexplained {unexplained:.3} ({:.0} % of ttft: \
         engine wake-up and the wait behind the iteration already running)",
        ttft.len(),
        100.0 * unexplained.abs() / ttft_mean.max(f64::MIN_POSITIVE),
    ));
    out.notes.push(format!(
        "untraced {plain_rate:.1} tokens/s (n={}), traced {traced_rate:.1} tokens/s (n={}); \
         replayed {} requests {group} at a time; {}",
        plain.samples.len(),
        traced.samples.len(),
        spec.replayed,
        sizing_note(&spec.serve_config()),
    ));
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregated_moe::serve::client::StreamedResponse;

    fn response(
        status: u16,
        tokens: Vec<usize>,
        declared: Option<Vec<usize>>,
    ) -> io::Result<RetriedResponse> {
        Ok(RetriedResponse {
            response: StreamedResponse {
                status,
                tokens,
                declared,
                ttft: None,
                elapsed: Duration::ZERO,
                body: String::new(),
                retry_after: None,
            },
            retries: 0,
        })
    }

    #[test]
    fn classification_of_every_way_a_request_can_end() {
        let ok = response(200, vec![1, 2], Some(vec![1, 2]));
        assert_eq!(classify(&ok, 2), Class::Verified);
        assert!(!Class::Verified.failed() && !Class::Verified.violates());

        // 200 but the done line disagrees, is missing, or the length is off.
        for bad in [
            response(200, vec![1, 2], Some(vec![1, 3])),
            response(200, vec![1, 2], None),
            response(200, vec![1], Some(vec![1])),
        ] {
            assert_eq!(classify(&bad, 2), Class::Unverified);
        }
        assert!(Class::Unverified.failed() && Class::Unverified.violates());

        // Still refused once the retries are spent: failed, but not wrong.
        assert_eq!(classify(&response(429, vec![], None), 2), Class::Shed);
        assert!(Class::Shed.failed() && !Class::Shed.violates());

        assert_eq!(classify(&response(503, vec![], None), 2), Class::Status(503));
        assert!(Class::Status(503).violates());
        let transport = Err(io::Error::new(io::ErrorKind::TimedOut, "deadline"));
        assert_eq!(classify(&transport, 2), Class::Transport);
        assert!(Class::Transport.failed() && Class::Transport.violates());
    }

    #[test]
    fn tally_counts_failures_and_names_the_first_offending_request() {
        let sample = |index, class| Sample {
            index,
            class,
            retries: 0,
            ttft_ms: 1.0,
            stream_ms: 2.0,
            total_ms: 2.0,
            done_at_s: 0.0,
            tokens: vec![0; 4],
        };
        let run = LoopRun {
            samples: vec![
                sample(0, Class::Verified),
                sample(1, Class::Shed),
                sample(2, Class::Transport),
                sample(3, Class::Unverified),
            ],
            wall_s: 1.0,
        };
        let mut out = Outcome::default();
        assert_eq!(tally(&mut out, "timed", &run), 4, "only verified streams carry tokens");
        assert_eq!((out.attempted, out.failed), (4, 3));
        assert_eq!(out.violation.as_deref(), Some("timed request 2: Transport"));
    }
}
