//! End-to-end harness for the HTTP serving front door.
//!
//! Drives a real `pgmoe-serve` server over loopback sockets with blocking
//! clients: a 1000-stream concurrency soak with throughput and tail-TTFT
//! bounds, protocol abuse (malformed / oversized / slowloris), SLO load
//! shedding, a `/metrics`-versus-`ServeStats` consistency check, the
//! engine→IO wake-up path (delivery, deadlines and shutdown ride no timer),
//! and a client that hangs up while its request is still queued.

use pregated_moe::model::net::SwitchNetConfig;
use pregated_moe::model::{GatingMode, ModelConfig};
use pregated_moe::runtime::{BatchConfig, OffloadPolicy, SimOptions};
use pregated_moe::serve::http::Limits;
use pregated_moe::serve::{client, EngineConfig, ServeConfig, Server, SloConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[test]
fn sustains_1000_concurrent_streams_with_bounded_tail_latency() {
    const CLIENTS: usize = 1000;
    const TOKENS_EACH: usize = 4;

    let mut cfg = ServeConfig::demo();
    cfg.io_workers = 4;
    cfg.engine.batch = BatchConfig::new(64);
    cfg.queue_capacity = 2 * CLIENTS;
    cfg.max_conns_per_worker = CLIENTS;
    // This test measures capacity, not shedding: set the SLO far out of
    // reach so every request is admitted.
    cfg.slo = SloConfig { target_ttft: Duration::from_secs(600) };
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let failures = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || {
                barrier.wait(); // all 1000 requests go out together
                let prompt = [1 + (i % 60), 2, 3];
                match client::generate(addr, &prompt, TOKENS_EACH, Duration::from_secs(120)) {
                    Ok(resp) if resp.status == 200 && resp.verified() => {
                        (resp.ttft.expect("token stream has a first token"), resp.tokens)
                    }
                    Ok(resp) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        panic!("client {i}: status {} body {:?}", resp.status, resp.body);
                    }
                    Err(e) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        panic!("client {i}: {e}");
                    }
                }
            })
        })
        .collect();

    let mut ttfts = Vec::with_capacity(CLIENTS);
    let mut streams: Vec<Vec<usize>> = Vec::with_capacity(CLIENTS);
    for worker in workers {
        let (ttft, tokens) = worker.join().expect("client thread");
        ttfts.push(ttft);
        streams.push(tokens);
    }
    let elapsed = started.elapsed();
    assert_eq!(failures.load(Ordering::Relaxed), 0, "zero lost or corrupted responses");

    // Every stream delivered the full output (verified() already checked
    // stream-vs-declared consistency per client).
    assert!(streams.iter().all(|s| s.len() == TOKENS_EACH));
    // Identical prompts must produce identical tokens: generation is a
    // pure function of prompt + model seed, not of batch placement.
    let reference = &streams[60]; // prompt class of i=60 (1 + 60 % 60 = 1)
    for (i, s) in streams.iter().enumerate() {
        if i % 60 == 0 {
            assert_eq!(s, reference, "client {i} diverged from its prompt class");
        }
    }

    ttfts.sort_unstable();
    let p99 = quantile(&ttfts, 0.99);
    assert!(p99 < Duration::from_secs(60), "p99 TTFT {p99:?} out of bounds");
    let throughput = (CLIENTS * TOKENS_EACH) as f64 / elapsed.as_secs_f64();
    assert!(
        throughput > 50.0,
        "sustained only {throughput:.1} tok/s over {elapsed:?} for {CLIENTS} streams"
    );

    let stats = handle.shutdown().expect("engine stats");
    assert_eq!(stats.total_tokens, CLIENTS * TOKENS_EACH, "device decoded every streamed token");
}

#[test]
fn rejects_malformed_oversized_and_slow_requests() {
    let mut cfg = ServeConfig::demo();
    cfg.limits = Limits { max_header_bytes: 2048, max_body_bytes: 1024, header_deadline_ms: 300 };
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr();
    let deadline = Duration::from_secs(10);

    let raw = |payload: &[u8]| -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(payload).expect("write");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    };

    // Malformed request line.
    assert!(raw(b"BOGUS\r\n\r\n").starts_with("HTTP/1.1 400"));
    // Malformed JSON body.
    let bad_json = b"POST /v1/generate HTTP/1.1\r\ncontent-length: 9\r\n\r\nnot json!";
    assert!(raw(bad_json).starts_with("HTTP/1.1 400"));
    // Schema violations: missing prompt, out-of-vocab token, zero budget.
    for body in [
        r#"{"max_tokens":2}"#,
        r#"{"prompt":[99999],"max_tokens":2}"#,
        r#"{"prompt":[1],"max_tokens":0}"#,
    ] {
        let req =
            format!("POST /v1/generate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}", body.len(), body);
        assert!(raw(req.as_bytes()).starts_with("HTTP/1.1 400"), "{body}");
    }
    // Declared body beyond the limit is refused before it is buffered.
    let huge = b"POST /v1/generate HTTP/1.1\r\ncontent-length: 999999\r\n\r\n";
    assert!(raw(huge).starts_with("HTTP/1.1 413"));
    // Header block beyond the limit.
    let long = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(4096));
    assert!(raw(long.as_bytes()).starts_with("HTTP/1.1 431"));
    // Unknown route / wrong method.
    assert_eq!(client::get(addr, "/nope", deadline).unwrap().0, 404);
    assert!(raw(b"GET /v1/generate HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));

    // Slowloris: a partial header held past the deadline gets 408.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let held_since = Instant::now();
    slow.write_all(b"GET /healthz HTT").expect("partial write");
    let mut out = String::new();
    let _ = slow.read_to_string(&mut out);
    let held = held_since.elapsed();
    assert!(out.starts_with("HTTP/1.1 408"), "slowloris got: {out:?}");
    // Nothing else is happening on the server: the worker's poll timeout
    // is the header deadline itself, so the cut-off lands on it.
    assert!(
        held >= Duration::from_millis(300) && held < Duration::from_secs(3),
        "408 after {held:?}, deadline 300 ms"
    );

    // A well-formed request still succeeds alongside the abuse.
    let ok = client::generate(addr, &[1, 2], 2, deadline).expect("generate");
    assert!(ok.verified(), "healthy request survived: {:?}", ok.body);
    drop(handle);
}

#[test]
fn sheds_with_429_before_the_slo_breaks() {
    // This test used to pick a 20 ms target and assert a *partial* shed
    // plus an absolute 2 s p99 bound on the admitted requests — both of
    // which depend on how wall-fast a decode iteration happens to be on
    // the host (it flaked whenever the engine got faster or slower). The
    // governor's wave model has exactly one machine-speed-independent
    // regime: a target below any attainable iteration time. The warm-up
    // request admits (no EWMA yet, so the projection is zero), and once
    // the EWMA is warm every later arrival projects at least one full
    // iteration > target and sheds — however fast the machine is. The
    // bounded-TTFT half of the wave model is pinned deterministically by
    // the governor's unit tests, which drive the EWMA with synthetic
    // iteration times instead of a wall clock.
    let net = SwitchNetConfig {
        vocab: 64,
        d_model: 48,
        d_ff: 96,
        num_blocks: 3,
        num_experts: 8,
        seq_len: 24,
        mode: GatingMode::Pregated { level: 1 },
    };
    let cfg = ServeConfig {
        engine: EngineConfig {
            model: ModelConfig::switch_base(8),
            opts: SimOptions::new(OffloadPolicy::Pregated),
            batch: BatchConfig::new(2),
            net,
            net_seed: 7,
            fail_after_iterations: None,
            restart_backoff_ms: 0,
        },
        slo: SloConfig { target_ttft: Duration::ZERO },
        ..ServeConfig::demo()
    };
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr();

    // Warm-up: establishes the iteration-time EWMA so the flood below is
    // governed from its first request.
    let warm = client::generate(addr, &[1, 2], 2, Duration::from_secs(60)).expect("warm-up");
    assert!(warm.verified(), "warm-up failed: {:?}", warm.body);
    assert!(warm.ttft.is_some(), "warm-up must admit before the EWMA exists");

    let barrier = Arc::new(Barrier::new(60));
    let workers: Vec<_> = (0..60)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client::generate(addr, &[1 + (i % 50), 5], 8, Duration::from_secs(120))
            })
        })
        .collect();
    let mut shed = 0usize;
    for worker in workers {
        let resp = worker.join().expect("client thread").expect("io");
        match resp.status {
            429 => {
                assert!(resp.body.contains("projected_ttft_ms"), "shed body: {:?}", resp.body);
                shed += 1;
            }
            other => {
                panic!("sub-iteration target admitted a flood request ({other}): {:?}", resp.body)
            }
        }
    }
    assert_eq!(shed, 60, "a sub-iteration target sheds every post-warm-up arrival");

    let metrics = handle.metrics().render();
    assert!(metrics.contains("pgmoe_shed_total"), "shed counter exported");
    let shed_line =
        metrics.lines().find(|l| l.starts_with("pgmoe_shed_total ")).expect("shed sample present");
    let exported: usize = shed_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert_eq!(exported, shed, "429s observed by clients match the exported counter");
    drop(handle);
}

#[test]
fn metrics_and_healthz_are_consistent_with_serve_stats() {
    const REQUESTS: usize = 16;
    const TOKENS_EACH: usize = 3;
    let cfg = ServeConfig::demo();
    let io_workers = cfg.io_workers;
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr();
    let deadline = Duration::from_secs(30);

    // Health answers while serving.
    let (status, body) = client::get(addr, "/healthz", deadline).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let workers: Vec<_> = (0..REQUESTS)
        .map(|i| {
            std::thread::spawn(move || {
                client::generate(addr, &[1 + i, 2], TOKENS_EACH, Duration::from_secs(60))
                    .expect("generate")
            })
        })
        .collect();
    let mut client_tokens = 0usize;
    for worker in workers {
        let resp = worker.join().expect("client thread");
        assert!(resp.verified(), "{:?}", resp.body);
        client_tokens += resp.tokens.len();
    }
    assert_eq!(client_tokens, REQUESTS * TOKENS_EACH);

    // The scrape must agree with what the clients saw.
    let (status, text) = client::get(addr, "/metrics", deadline).expect("metrics");
    assert_eq!(status, 200);
    let sample = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .split(' ')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(sample("pgmoe_tokens_streamed_total") as usize, client_tokens);
    assert_eq!(sample("pgmoe_streams_completed_total") as usize, REQUESTS);
    assert_eq!(sample("pgmoe_sim_tokens_total") as usize, client_tokens);
    assert_eq!(sample("pgmoe_ttft_seconds_count") as usize, REQUESTS);
    assert_eq!(sample("pgmoe_inflight_requests") as usize, 0);
    assert!(sample("pgmoe_sim_expert_fetch_bytes_total") > 0.0, "pre-gated policy migrates");
    // Every streamed token was handed to a socket by an IO worker, and the
    // engine paid at most one wake-up per worker per iteration however
    // many tokens the iteration produced (coalescing holds live).
    assert_eq!(sample("pgmoe_token_delivery_seconds_count") as usize, client_tokens);
    let wakeups = sample("pgmoe_io_wakeups_total");
    let iterations = sample("pgmoe_engine_iterations_total");
    assert!(
        wakeups >= 1.0 && wakeups <= iterations * io_workers as f64,
        "{wakeups} wake-ups over {iterations} iterations x {io_workers} workers"
    );
    assert!(
        text.contains(&format!(
            "pgmoe_http_responses_total{{route=\"/v1/generate\",status=\"200\"}} {REQUESTS}"
        )),
        "per-route counter:\n{text}"
    );
    // Every plan compile is attributed to exactly one cause.
    let plan_misses = sample("pgmoe_plan_cache_misses_total");
    let by_cause: f64 = ["cold", "routing", "batch_shape", "other"]
        .iter()
        .map(|cause| sample(&format!("pgmoe_plan_misses_total{{cause=\"{cause}\"}}")))
        .sum();
    assert!(plan_misses >= 1.0, "the demo config has no expert cache, so it compiles plans");
    assert_eq!(by_cause, plan_misses, "miss causes must sum to the misses:\n{text}");

    // And the device-side ServeStats must agree with both.
    let stats = handle.shutdown().expect("engine stats");
    assert_eq!(stats.total_tokens, client_tokens, "ServeStats vs streamed tokens");
    assert_eq!(stats.plan_cache_misses as f64, plan_misses, "ServeStats vs scrape");
    assert_eq!(stats.plan_cache_hits as f64, sample("pgmoe_plan_cache_hits_total"));
    assert_eq!(stats.request_latencies.len(), REQUESTS);
    assert!(stats.expert_fetch_bytes > 0);
}

/// With no periodic tick left, nothing moves unless someone is woken: a
/// worker whose only connection is streaming sleeps in `poll` for a minute
/// at a time. Twenty sequential streams therefore finish quickly only if
/// every token's push wakes the owning worker, and an idle server shuts
/// down quickly only if `shutdown` does.
#[test]
fn delivery_and_shutdown_ride_wakeups_not_a_timer() {
    const REQUESTS: usize = 20;
    const TOKENS_EACH: usize = 16;
    // One token per minute-long idle poll would take over five hours; even
    // one per 2 s header deadline of some other connection, ten minutes.
    const BUDGET: Duration = Duration::from_secs(20);

    let handle = Server::start(ServeConfig::demo()).expect("server starts");
    let addr = handle.addr();
    let started = Instant::now();
    for i in 0..REQUESTS {
        let resp = client::generate(addr, &[1 + i, 2, 3], TOKENS_EACH, Duration::from_secs(120))
            .expect("generate");
        assert!(resp.verified(), "{:?}", resp.body);
        assert_eq!(resp.tokens.len(), TOKENS_EACH);
    }
    let streamed = started.elapsed();
    assert!(streamed < BUDGET, "{REQUESTS} sequential streams took {streamed:?}");

    // Let the workers park in `poll` with nothing scheduled.
    std::thread::sleep(Duration::from_millis(100));
    let stopping = Instant::now();
    let stats = handle.shutdown().expect("engine stats");
    let stopped = stopping.elapsed();
    assert!(stopped < Duration::from_secs(5), "idle shutdown took {stopped:?}: not woken");
    assert_eq!(stats.total_tokens, REQUESTS * TOKENS_EACH);
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let started = Instant::now();
    while !cond() {
        assert!(started.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A client that hangs up while its request is still queued must be
/// noticed on the socket (a FIN, no write has failed yet) and dropped by
/// the engine's disconnect sweep before admission: no prefill, no decode,
/// no batch slot.
#[test]
fn a_client_that_hangs_up_while_queued_is_dropped_before_admission() {
    // Long enough that A is still decoding when B's hang-up is swept.
    const A_TOKENS: usize = 1000;
    let mut cfg = ServeConfig::demo();
    cfg.engine.batch = BatchConfig::new(1); // B must queue behind A
    cfg.max_new_tokens = A_TOKENS;
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr();
    let metrics = handle.metrics();

    let a = std::thread::spawn(move || {
        client::generate(addr, &[1, 2, 3], A_TOKENS, Duration::from_secs(120)).expect("generate")
    });
    wait_until("A decoding", || metrics.inflight.get() == 1);

    let body = r#"{"prompt":[4,5,6],"max_tokens":8}"#;
    let request =
        format!("POST /v1/generate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}", body.len(), body);
    let mut b = TcpStream::connect(addr).expect("connect");
    b.write_all(request.as_bytes()).expect("write");
    wait_until("B queued", || metrics.queue_depth.get() == 1);
    drop(b);
    wait_until("B swept", || metrics.streams_aborted.get() == 1);
    assert_eq!(metrics.queue_depth.get(), 0, "the sweep released B's queue slot");

    let a = a.join().expect("client thread");
    assert!(a.verified(), "{:?}", a.body);
    assert_eq!(a.tokens.len(), A_TOKENS);
    assert_eq!(metrics.tokens_total.get() as usize, A_TOKENS, "only A's tokens were streamed");
    assert_eq!(metrics.streams_aborted.get(), 1);
    assert_eq!(metrics.inflight.get(), 0);
    let stats = handle.shutdown().expect("engine stats");
    assert_eq!(stats.total_tokens, A_TOKENS, "B never reached the device");
}
