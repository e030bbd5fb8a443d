//! The generation engine: one thread that owns the model and the device.
//!
//! Everything stateful about generation lives on this single thread — the
//! numeric [`SwitchNet`], its [`ScratchArena`], and the simulated-device
//! [`BatchSession`] — so no lock is ever held across a forward pass. IO
//! threads talk to it through two queues:
//!
//! * inbound, a bounded [`std::sync::mpsc::sync_channel`] of
//!   [`EngineJob`]s (the admission queue; its bound is the server's
//!   backpressure limit), and
//! * outbound, one [`Outbox`] per request that the owning connection
//!   drains into HTTP chunks. Pushing marks the outbox signalled; once per
//!   iteration the engine then wakes each IO worker it pushed to (a
//!   [`WakeSet`] flush: at most one 1-byte write per worker, and none while
//!   an earlier wake-up is still unconsumed), so a token reaches its socket
//!   when it exists rather than when a timer fires.
//!
//! The engine itself never waits on a timer while it has work: a fully
//! idle engine blocks on the admission channel (looking at the shutdown
//! flag every 5 ms) and a submitted job ends that wait at once.
//!
//! Each engine iteration follows the paper's serving discipline:
//! admission only at iteration boundaries (continuous batching), then one
//! *real* forward pass per in-flight request through the pre-gated
//! `SwitchNet`, then one [`BatchSession::step_routed`] where the model's
//! actual routing decisions — not a synthetic trace — drive the simulated
//! expert fetch/cache bookkeeping. The token streamed to the client and
//! the expert traffic accounted on the device therefore come from the
//! same forward pass.
//!
//! That forward is [`SwitchNet::forward_last_arena`] over the request's
//! [`context_window`]: it computes only the rows the next token reads —
//! the token-0 padding's keys and values come from the net's cache, and
//! the last block runs past its key/value projection on the final row
//! alone — and is bitwise identical to the last row of the full-window
//! [`SwitchNet::forward_inference_arena`], the reference a client's
//! tokens are checked against. Once warm it allocates nothing but the
//! task boxes of a GEMM large enough to fan out to the worker pool.

use crate::metrics::{ServerMetrics, SimSnapshot};
use crate::poll::Waker;
use crate::slo::SloGovernor;
use pgmoe_device::SimTime;
use pgmoe_model::net::{ExpertChoice, SwitchNet, SwitchNetConfig};
use pgmoe_model::{GatingMode, ModelConfig};
use pgmoe_runtime::{Admission, BatchConfig, BatchSession, LiveRouting, OffloadPolicy, SimOptions};
use pgmoe_tensor::ScratchArena;
use pgmoe_workload::{ArrivedRequest, DecodeRequest, LiveClock, SharedPrefix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of the generation engine (model + device + batching).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Analytic model for the simulated device (costs, expert bytes).
    pub model: ModelConfig,
    /// Device/policy options for the simulated serving run.
    pub opts: SimOptions,
    /// Continuous-batching limits (max batch, HBM admission budget).
    pub batch: BatchConfig,
    /// The numeric network that actually generates tokens.
    pub net: SwitchNetConfig,
    /// Seed for the network's parameter initialisation.
    pub net_seed: u64,
    /// Chaos knob: crash the engine replica after this many decode
    /// iterations (`None` disables). The supervisor in
    /// [`Server`](crate::Server) restarts the engine with this cleared, so
    /// a seeded run fails exactly once — the deterministic fault the chaos
    /// tests inject.
    pub fail_after_iterations: Option<u64>,
    /// How long the supervisor waits before restarting a crashed engine.
    /// During this window `/v1/generate` answers `503` with a
    /// `retry-after` header instead of queueing into a dead replica.
    pub restart_backoff_ms: u64,
}

impl EngineConfig {
    /// A small CPU-friendly engine: pre-gated policy over the paper's
    /// Switch-Base(8) analytic model, and a tiny pre-gated numeric network
    /// (vocab 64, 16-token window) that decodes in well under a
    /// millisecond per iteration.
    pub fn demo() -> Self {
        EngineConfig {
            model: ModelConfig::switch_base(8),
            opts: SimOptions::new(OffloadPolicy::Pregated),
            batch: BatchConfig::new(8),
            net: SwitchNetConfig::small(64, 16, 8, GatingMode::Pregated { level: 1 }),
            net_seed: 7,
            fail_after_iterations: None,
            restart_backoff_ms: 0,
        }
    }

    /// Everything the engine thread would otherwise find out by panicking:
    /// the numeric network must be buildable ([`SwitchNetConfig::validate`])
    /// with a vocabulary of at least 2, and the simulated device session
    /// must build from `model`, `opts` and `batch` (a zero `max_batch`, a
    /// paged-KV block of 0 tokens, options the policy rejects).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.net.validate()?;
        if self.net.vocab < 2 {
            return Err("numeric network needs a vocabulary of at least 2".into());
        }
        BatchSession::new(self.model.clone(), self.opts.clone(), self.batch)
            .map(drop)
            .map_err(|e| format!("device session: {e}"))
    }
}

/// One event streamed from the engine to a request's connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OutMsg {
    /// One generated token (`index` is its position in the output).
    Token {
        /// Zero-based output position.
        index: usize,
        /// The generated vocabulary id.
        token: usize,
        /// When the engine pushed it, on the server's [`LiveClock`]; the
        /// IO worker observes push → socket hand-off against it.
        pushed_ns: u64,
    },
    /// The request finished; `tokens` is the full output for the client's
    /// integrity check.
    Done {
        /// Every generated token, in order.
        tokens: Vec<usize>,
    },
    /// The request cannot be served (e.g. it can never fit the device
    /// budget, or the server is shutting down).
    Failed {
        /// Human-readable reason, sent to the client.
        reason: &'static str,
    },
}

/// A single-producer event queue from the engine to one connection.
#[derive(Debug)]
pub(crate) struct Outbox {
    events: Mutex<VecDeque<OutMsg>>,
    /// Raised by every push, taken by the owning IO worker: a woken worker
    /// finds the outboxes with news by this flag, without locking the rest.
    signalled: AtomicBool,
    /// Set by the IO layer when the owning connection died. The engine
    /// sweeps closed outboxes every iteration and aborts their requests so
    /// a disconnected client never holds batch slots or HBM reservation.
    closed: AtomicBool,
    /// Wakes the IO worker that owns the connection.
    waker: Arc<Waker>,
}

impl Outbox {
    /// An empty outbox drained by the worker `waker` wakes.
    pub(crate) fn new(waker: Arc<Waker>) -> Self {
        Outbox {
            events: Mutex::new(VecDeque::new()),
            signalled: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            waker,
        }
    }

    /// The queue, whatever happened to the last thread that held it: a
    /// push or a drain leaves it valid at every step, so a panicking IO
    /// worker must not take the engine down with a poisoned lock.
    fn queue(&self) -> MutexGuard<'_, VecDeque<OutMsg>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg` and raises the signal. Does not wake the worker: the
    /// engine batches wake-ups through a [`WakeSet`].
    pub(crate) fn push(&self, msg: OutMsg) {
        self.queue().push_back(msg);
        // SeqCst with `take_signal` and the waker's flag: see `Waker`.
        self.signalled.store(true, Ordering::SeqCst);
    }

    /// Whether anything was pushed since the last call. The worker calls
    /// this after [`Waker::reset`] and before draining.
    pub(crate) fn take_signal(&self) -> bool {
        self.signalled.load(Ordering::SeqCst) && self.signalled.swap(false, Ordering::SeqCst)
    }

    /// Moves every pending event into `into`.
    pub(crate) fn drain_into(&self, into: &mut Vec<OutMsg>) {
        into.extend(self.queue().drain(..));
    }

    /// Marks the receiving connection as gone.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// The IO workers owed a wake-up: the engine pushes through this and
/// flushes once per iteration, so an iteration that streams a token to
/// every request of a batch still costs one wake per worker, not one per
/// token.
#[derive(Default)]
struct WakeSet(Vec<Arc<Waker>>);

impl WakeSet {
    fn push(&mut self, outbox: &Outbox, msg: OutMsg) {
        outbox.push(msg);
        if !self.0.iter().any(|w| Arc::ptr_eq(w, &outbox.waker)) {
            self.0.push(Arc::clone(&outbox.waker));
        }
    }

    fn flush(&mut self, metrics: &ServerMetrics) {
        for waker in self.0.drain(..) {
            if waker.wake() {
                metrics.io_wakeups.inc();
            }
        }
    }
}

/// A generate request as the IO layer hands it to the engine.
#[derive(Debug)]
pub(crate) struct EngineJob {
    /// Server-assigned request id (also the routing-trace seed input).
    pub id: u64,
    /// Validated prompt token ids (each `< net.vocab`).
    pub prompt: Vec<usize>,
    /// Number of tokens to generate.
    pub max_tokens: usize,
    /// Arrival stamp from the server's [`LiveClock`].
    pub arrival_ns: u64,
    /// Where generated tokens are delivered.
    pub outbox: Arc<Outbox>,
}

/// State the engine shares with the IO threads.
#[derive(Debug)]
pub(crate) struct EngineShared {
    pub metrics: Arc<ServerMetrics>,
    pub governor: Arc<SloGovernor>,
    pub shutdown: Arc<AtomicBool>,
    pub clock: LiveClock,
}

/// One request mid-generation on the engine thread.
struct Decoding {
    /// Prompt followed by everything generated so far.
    ctx: Vec<usize>,
    /// Generated tokens only.
    emitted: Vec<usize>,
    /// Token produced by this iteration's forward pass, streamed once the
    /// simulated device retires the iteration.
    next_token: usize,
    /// This iteration's expert (and gate probability) per block at the
    /// last window position, from the real network; reused every
    /// iteration.
    experts: Vec<ExpertChoice>,
    /// Reused window buffer for the fixed-length forward pass.
    window: Vec<usize>,
    outbox: Arc<Outbox>,
    arrival_ns: u64,
}

impl Decoding {
    fn new(job: EngineJob, seq_len: usize) -> Self {
        Decoding {
            ctx: job.prompt,
            emitted: Vec::with_capacity(job.max_tokens),
            next_token: 0,
            experts: Vec::new(),
            window: vec![0; seq_len],
            outbox: job.outbox,
            arrival_ns: job.arrival_ns,
        }
    }
}

/// The rule that turns a request's context (prompt plus everything
/// generated so far) into the fixed-length input of one forward pass:
/// `window` receives the last `window.len()` tokens of `ctx`, right-aligned
/// and left-padded with token 0. Returns the row of the forward pass's
/// logits that predicts the next token — the last one.
///
/// # Panics
///
/// Panics if `window` is empty.
pub fn context_window(ctx: &[usize], window: &mut [usize]) -> usize {
    assert!(!window.is_empty(), "a forward pass needs at least one position");
    let tail = &ctx[ctx.len().saturating_sub(window.len())..];
    let (pad, body) = window.split_at_mut(window.len() - tail.len());
    pad.fill(0);
    body.copy_from_slice(tail);
    window.len() - 1
}

/// The model's own routing decisions as the session's routing source:
/// block `b`'s experts are whatever the pre-gated network activated at the
/// last window position during this iteration's forward pass. Blocks the
/// (smaller) numeric network does not have fall back to the synthetic
/// trace.
struct DecisionRouting<'a> {
    active: &'a HashMap<u64, Decoding>,
}

impl LiveRouting for DecisionRouting<'_> {
    fn experts(&mut self, id: u64, _generated: usize, block: usize, out: &mut Vec<usize>) -> bool {
        let Some(choice) = self.active.get(&id).and_then(|d| d.experts.get(block)) else {
            return false;
        };
        out.push(choice.expert);
        true
    }
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Why one engine run ended.
pub(crate) enum EngineExit {
    /// Clean exit: shutdown flag, closed channel, or device error. The
    /// server is done serving.
    Shutdown(pgmoe_runtime::ServeStats),
    /// The replica crashed (the seeded `fail_after_iterations` fault).
    /// Ownership of the inbound channel and the still-queued work comes
    /// back so the supervisor can hand both to a fresh replica — queued
    /// requests survive the crash; only mid-decode streams are failed.
    Crashed {
        /// Final statistics of the dead replica's simulated device.
        #[allow(dead_code)]
        stats: pgmoe_runtime::ServeStats,
        /// The admission queue, returned for the next replica.
        rx: Receiver<EngineJob>,
        /// Jobs accepted but not yet admitted into the decode batch.
        carryover: VecDeque<EngineJob>,
    },
}

/// Runs one engine replica until shutdown, channel close, or injected
/// crash; [`EngineExit`] says which.
pub(crate) fn run_engine(
    cfg: EngineConfig,
    rx: Receiver<EngineJob>,
    carryover: VecDeque<EngineJob>,
    shared: Arc<EngineShared>,
) -> EngineExit {
    let mut rng = StdRng::seed_from_u64(cfg.net_seed);
    let mut net = SwitchNet::new(cfg.net.clone(), &mut rng);
    if let Some(p) = cfg.opts.expert_precision {
        // Keep the numeric experts at the same storage precision the
        // simulated device accounts for.
        net.quantize_experts(p);
    }
    let arena = ScratchArena::new();
    let seq_len = cfg.net.seq_len;
    // The migration unit at the precision actually served (the options
    // override wins over the model tag) — exported as a gauge so byte
    // counters above it are interpretable in experts, not just bytes.
    let expert_bytes = {
        let p = cfg.opts.expert_precision.unwrap_or(cfg.model.expert_precision);
        cfg.model.clone().with_expert_precision(p).expert_bytes()
    };
    let mut session = BatchSession::new(cfg.model, cfg.opts, cfg.batch)
        .expect("EngineConfig::validate builds this session before spawn");

    let mut waiting = carryover;
    let mut active: HashMap<u64, Decoding> = HashMap::new();
    let mut iterations_run: u64 = 0;
    // A fresh replica is serving again: lift the failover gate.
    shared.metrics.failover_active.set(0);

    let mut wakes = WakeSet::default();
    let fail =
        |shared: &EngineShared, wakes: &mut WakeSet, outbox: &Outbox, reason: &'static str| {
            wakes.push(outbox, OutMsg::Failed { reason });
            shared.governor.on_dequeue();
            shared.metrics.queue_depth.dec();
        };

    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Ingest: block briefly when fully idle, otherwise just drain.
        if waiting.is_empty() && active.is_empty() {
            match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(job) => waiting.push_back(job),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok(job) = rx.try_recv() {
            waiting.push_back(job);
        }

        // Disconnect sweep: a request whose connection died is dropped
        // from the queue or aborted on the device, so a vanished client
        // never holds a batch slot or its HBM admission reservation.
        waiting.retain(|job| {
            let gone = job.outbox.is_closed();
            if gone {
                shared.governor.on_dequeue();
                shared.metrics.queue_depth.dec();
                shared.metrics.streams_aborted.inc();
            }
            !gone
        });
        let disconnected: Vec<u64> =
            active.iter().filter(|(_, d)| d.outbox.is_closed()).map(|(&id, _)| id).collect();
        for id in disconnected {
            let _ = session.abort(id);
            active.remove(&id);
            shared.metrics.inflight.dec();
            shared.metrics.streams_aborted.inc();
        }

        // Admission, only at the iteration boundary (continuous batching).
        session.advance_clock(SimTime::from_nanos(shared.clock.now_ns()));
        while let Some(job) = waiting.front() {
            let request = DecodeRequest {
                input_tokens: job.prompt.len(),
                output_tokens: job.max_tokens,
                batch_size: 1,
            };
            // Declare the whole prompt as the sharable-prefix region: under
            // a paged session, requests carrying an identical prompt (the
            // common shared-system-prompt shape) land on one physical KV
            // copy instead of one per stream.
            let prefix = SharedPrefix::of_tokens(&job.prompt);
            let arrived = ArrivedRequest::at_nanos(job.arrival_ns, request)
                .with_shared_prefix(prefix.hash, prefix.tokens);
            match session.try_admit(job.id, arrived) {
                Ok(Admission::Admitted { .. }) => {
                    let job = waiting.pop_front().expect("front exists");
                    shared.governor.on_dequeue();
                    shared.metrics.queue_depth.dec();
                    shared.metrics.inflight.inc();
                    active.insert(job.id, Decoding::new(job, seq_len));
                }
                Ok(Admission::BatchFull | Admission::OverBudget) => break,
                Err(_) => {
                    // This request can never be admitted (e.g. it alone
                    // exceeds the HBM budget): fail it, keep serving.
                    let job = waiting.pop_front().expect("front exists");
                    fail(&shared, &mut wakes, &job.outbox, "request cannot fit the device budget");
                }
            }
        }
        // Refusals need not wait out this iteration's forward passes.
        wakes.flush(&shared.metrics);
        if active.is_empty() {
            continue;
        }

        let iter_start = Instant::now();
        // Real forward pass per in-flight request: produces both the next
        // token and the routing decisions that drive the device step.
        for d in active.values_mut() {
            context_window(&d.ctx, &mut d.window);
            let logits = net.forward_last_arena(&d.window, &arena, &mut d.experts);
            d.next_token = argmax(logits.row(0));
            arena.recycle(logits);
        }

        let events = match session.step_routed(&mut DecisionRouting { active: &active }) {
            Ok(events) => events,
            Err(_) => {
                // The simulated device failed mid-iteration (e.g. HBM
                // exhaustion): fail every live request and stop serving.
                for d in active.values() {
                    wakes.push(&d.outbox, OutMsg::Failed { reason: "device error mid-iteration" });
                    shared.metrics.inflight.dec();
                }
                active.clear();
                break;
            }
        };
        // Everything a scrape reads is updated before the token it accounts
        // for can reach a client: a worker may drain an outbox the moment
        // it is pushed to, wake-up or not.
        shared.metrics.engine_iterations.inc();
        shared.metrics.publish_sim(SimSnapshot {
            total_tokens: session.total_tokens() as u64,
            peak_hbm_bytes: session.peak_hbm_bytes(),
            expert_fetch_bytes: session.expert_fetch_bytes(),
            demand_fetch_bytes: session.demand_fetch_bytes(),
            plan: session.plan_cache_stats(),
            expert_bytes,
        });
        let now_ns = shared.clock.now_ns();
        for ev in events {
            let d = active.get_mut(&ev.id).expect("event for live request");
            let token = d.next_token;
            d.ctx.push(token);
            d.emitted.push(token);
            shared.metrics.tokens_total.inc();
            if ev.index == 0 {
                let ttft = Duration::from_nanos(now_ns.saturating_sub(d.arrival_ns));
                shared.metrics.ttft_seconds.observe(ttft);
            }
            wakes.push(&d.outbox, OutMsg::Token { index: ev.index, token, pushed_ns: now_ns });
            if ev.done {
                let d = active.remove(&ev.id).expect("done request is live");
                let latency = Duration::from_nanos(now_ns.saturating_sub(d.arrival_ns));
                shared.metrics.request_seconds.observe(latency);
                shared.metrics.inflight.dec();
                shared.metrics.streams_completed.inc();
                wakes.push(&d.outbox, OutMsg::Done { tokens: d.emitted });
            }
        }
        wakes.flush(&shared.metrics);
        shared.governor.observe_iteration(iter_start.elapsed());

        iterations_run += 1;
        if cfg.fail_after_iterations.is_some_and(|n| iterations_run >= n) {
            // Injected replica crash. Raise the failover gate *before*
            // failing the live streams so a client that watches its stream
            // die and retries immediately gets a clean 503 + retry-after
            // instead of a queue slot on a dead replica.
            shared.metrics.failover_active.set(1);
            for d in active.values() {
                wakes.push(&d.outbox, OutMsg::Failed { reason: "engine replica failed; retry" });
                shared.metrics.inflight.dec();
            }
            wakes.flush(&shared.metrics);
            active.clear();
            return EngineExit::Crashed { stats: session.finish(), rx, carryover: waiting };
        }
    }

    // Shutdown: everything still queued or decoding is failed explicitly
    // so no connection is left hanging.
    for job in waiting {
        fail(&shared, &mut wakes, &job.outbox, "server shutting down");
    }
    for d in active.values() {
        wakes.push(&d.outbox, OutMsg::Failed { reason: "server shutting down" });
        shared.metrics.inflight.dec();
    }
    wakes.flush(&shared.metrics);
    EngineExit::Shutdown(session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloConfig;
    use pgmoe_model::ExpertPrecision;
    use rand::Rng;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn context_window_right_aligns_and_zero_pads() {
        let mut window = [9usize; 4];
        assert_eq!(context_window(&[5, 6], &mut window), 3);
        assert_eq!(window, [0, 0, 5, 6], "shorter context: left-padded with token 0");
        assert_eq!(context_window(&[1, 2, 3, 4], &mut window), 3);
        assert_eq!(window, [1, 2, 3, 4], "context fills the window exactly");
        assert_eq!(context_window(&[1, 2, 3, 4, 5, 6], &mut window), 3);
        assert_eq!(window, [3, 4, 5, 6], "longer context: the newest tokens win");
        assert_eq!(context_window(&[], &mut window), 3);
        assert_eq!(window, [0; 4]);
    }

    fn shared() -> Arc<EngineShared> {
        Arc::new(EngineShared {
            metrics: Arc::new(ServerMetrics::default()),
            governor: Arc::new(SloGovernor::new(SloConfig::default(), 8)),
            shutdown: Arc::new(AtomicBool::new(false)),
            clock: LiveClock::start(),
        })
    }

    fn job(
        id: u64,
        shared: &EngineShared,
        prompt: Vec<usize>,
        n: usize,
    ) -> (EngineJob, Arc<Outbox>) {
        let outbox = Arc::new(Outbox::new(Arc::new(Waker::new().expect("socket pair"))));
        shared.governor.on_enqueue();
        shared.metrics.queue_depth.inc();
        (
            EngineJob {
                id,
                prompt,
                max_tokens: n,
                arrival_ns: shared.clock.now_ns(),
                outbox: Arc::clone(&outbox),
            },
            outbox,
        )
    }

    fn collect(outbox: &Outbox) -> Vec<OutMsg> {
        let mut events = Vec::new();
        outbox.drain_into(&mut events);
        events
    }

    fn run_to_shutdown(
        cfg: EngineConfig,
        rx: Receiver<EngineJob>,
        shared: Arc<EngineShared>,
    ) -> pgmoe_runtime::ServeStats {
        match run_engine(cfg, rx, VecDeque::new(), shared) {
            EngineExit::Shutdown(stats) => stats,
            EngineExit::Crashed { .. } => panic!("engine crashed without a fault injected"),
        }
    }

    #[test]
    fn generates_streams_tokens_and_reports_stats() {
        let shared = shared();
        let (tx, rx) = sync_channel(16);
        let (job_a, out_a) = job(1, &shared, vec![1, 2, 3], 4);
        let (job_b, out_b) = job(2, &shared, vec![9, 8], 3);
        tx.send(job_a).unwrap();
        tx.send(job_b).unwrap();
        drop(tx); // channel closes once drained → engine exits when idle
        let stats = run_to_shutdown(EngineConfig::demo(), rx, Arc::clone(&shared));

        let a = collect(&out_a);
        let b = collect(&out_b);
        // Each stream: max_tokens Token events in order, then Done.
        let check = |events: &[OutMsg], n: usize| {
            assert_eq!(events.len(), n + 1, "{events:?}");
            let mut streamed = Vec::new();
            for (i, ev) in events[..n].iter().enumerate() {
                match ev {
                    OutMsg::Token { index, token, .. } => {
                        assert_eq!(*index, i);
                        streamed.push(*token);
                    }
                    other => panic!("expected token, got {other:?}"),
                }
            }
            match &events[n] {
                OutMsg::Done { tokens } => assert_eq!(*tokens, streamed, "stream corrupted"),
                other => panic!("expected done, got {other:?}"),
            }
            streamed
        };
        check(&a, 4);
        check(&b, 3);
        assert_eq!(stats.total_tokens, 7, "simulated device decoded every streamed token");
        assert_eq!(shared.metrics.tokens_total.get(), 7);
        assert_eq!(shared.metrics.streams_completed.get(), 2);
        assert_eq!(shared.metrics.inflight.get(), 0);
        assert_eq!(shared.governor.queued(), 0);
        assert!(stats.expert_fetch_bytes > 0, "pre-gated policy migrates experts");
    }

    #[test]
    fn identical_prompts_generate_identical_tokens() {
        let run = |id: u64| {
            let shared = shared();
            let (tx, rx) = sync_channel(4);
            let (j, out) = job(id, &shared, vec![5, 6, 7], 5);
            tx.send(j).unwrap();
            drop(tx);
            run_to_shutdown(EngineConfig::demo(), rx, shared);
            // Push stamps are wall-clock; everything else must repeat.
            let mut events = collect(&out);
            for ev in &mut events {
                if let OutMsg::Token { pushed_ns, .. } = ev {
                    *pushed_ns = 0;
                }
            }
            assert_eq!(events.len(), 6, "{events:?}");
            events
        };
        // Token content is a pure function of the prompt and the net seed —
        // not of the request id or batch composition.
        assert_eq!(run(1), run(99));
    }

    /// The full-window greedy decode the served stream must equal: every
    /// token from all `seq_len` rows of `forward_inference_arena`, read at
    /// the row `context_window` names.
    fn full_window_decode(cfg: &EngineConfig, prompt: &[usize], max_tokens: usize) -> Vec<usize> {
        let mut net = SwitchNet::new(cfg.net.clone(), &mut StdRng::seed_from_u64(cfg.net_seed));
        if let Some(p) = cfg.opts.expert_precision {
            net.quantize_experts(p);
        }
        let arena = ScratchArena::new();
        let mut window = vec![0; cfg.net.seq_len];
        let mut ctx = prompt.to_vec();
        for _ in 0..max_tokens {
            let row = context_window(&ctx, &mut window);
            let (logits, _) = net.forward_inference_arena(&window, &arena);
            ctx.push(argmax(logits.row(row)));
        }
        ctx.split_off(prompt.len())
    }

    #[test]
    fn streamed_tokens_equal_the_full_window_greedy_decode() {
        for precision in [None, Some(ExpertPrecision::Int8)] {
            let mut cfg = EngineConfig::demo();
            cfg.opts.expert_precision = precision;
            let (seq_len, vocab) = (cfg.net.seq_len, cfg.net.vocab);
            // Long enough that every context slides past the window.
            let max_tokens = seq_len + 4;
            let mut rng = StdRng::seed_from_u64(17);
            let mut prompts: Vec<Vec<usize>> = [1, 12, seq_len, seq_len + 5]
                .iter()
                .map(|&len| (0..len).map(|_| rng.gen_range(0..vocab)).collect())
                .collect();
            prompts[1][0] = 0; // a prompt that starts like padding
            let shared = shared();
            let (tx, rx) = sync_channel(prompts.len());
            let outboxes: Vec<Arc<Outbox>> = prompts
                .iter()
                .enumerate()
                .map(|(id, prompt)| {
                    let (j, out) = job(id as u64, &shared, prompt.clone(), max_tokens);
                    tx.send(j).unwrap();
                    out
                })
                .collect();
            drop(tx);
            run_to_shutdown(cfg.clone(), rx, shared);
            for (prompt, out) in prompts.iter().zip(&outboxes) {
                let streamed: Vec<usize> = collect(out)
                    .into_iter()
                    .filter_map(|m| match m {
                        OutMsg::Token { token, .. } => Some(token),
                        _ => None,
                    })
                    .collect();
                let want = full_window_decode(&cfg, prompt, max_tokens);
                assert_eq!(streamed, want, "{precision:?}, prompt of {} tokens", prompt.len());
            }
        }
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn injected_crash_hands_queued_work_to_the_next_replica() {
        let shared = shared();
        let mut cfg = EngineConfig::demo();
        cfg.batch = BatchConfig::new(1); // job 2 must wait behind job 1
        cfg.fail_after_iterations = Some(1);
        let (tx, rx) = sync_channel(16);
        let (job_a, out_a) = job(1, &shared, vec![1, 2, 3], 4);
        let (job_b, out_b) = job(2, &shared, vec![9, 8], 3);
        tx.send(job_a).unwrap();
        tx.send(job_b).unwrap();
        drop(tx);

        let (rx, carryover) = match run_engine(cfg.clone(), rx, VecDeque::new(), shared.clone()) {
            EngineExit::Crashed { rx, carryover, .. } => (rx, carryover),
            EngineExit::Shutdown(_) => panic!("seeded fault must crash the replica"),
        };
        // Mid-decode stream failed; queued work survived; gate is up.
        assert_eq!(carryover.len(), 1, "job 2 must ride into the next replica");
        assert_eq!(shared.metrics.failover_active.get(), 1);
        assert_eq!(shared.metrics.inflight.get(), 0);
        let a = collect(&out_a);
        assert!(
            a.iter().any(|m| matches!(m, OutMsg::Failed { reason } if reason.contains("retry"))),
            "crashed stream must tell the client to retry: {a:?}"
        );

        // Restart with the fault cleared: the carried-over job completes.
        cfg.fail_after_iterations = None;
        let stats = match run_engine(cfg, rx, carryover, shared.clone()) {
            EngineExit::Shutdown(stats) => stats,
            EngineExit::Crashed { .. } => panic!("fault was cleared"),
        };
        assert_eq!(shared.metrics.failover_active.get(), 0, "fresh replica lifts the gate");
        let b = collect(&out_b);
        assert!(matches!(b.last(), Some(OutMsg::Done { tokens }) if tokens.len() == 3), "{b:?}");
        assert_eq!(stats.total_tokens, 3, "replacement replica decodes only the survivor");
        assert_eq!(shared.governor.queued(), 0);
    }

    #[test]
    fn a_closed_outbox_in_the_queue_is_dropped_without_decoding() {
        let shared = shared();
        let (tx, rx) = sync_channel(4);
        let (j, out) = job(1, &shared, vec![1, 2], 5);
        out.close(); // client hung up before the engine ever saw the job
        tx.send(j).unwrap();
        drop(tx);
        let stats = run_to_shutdown(EngineConfig::demo(), rx, Arc::clone(&shared));
        assert_eq!(stats.total_tokens, 0, "nothing decodes for a dead connection");
        assert_eq!(shared.metrics.streams_aborted.get(), 1);
        assert_eq!(shared.governor.queued(), 0, "admission slot released");
        assert!(collect(&out).is_empty());
    }

    #[test]
    fn a_disconnected_active_stream_is_aborted_mid_decode() {
        let shared = shared();
        let (tx, rx) = sync_channel(4);
        // Long enough that only the abort can end this stream in test
        // time, small enough to clear the HBM admission budget.
        let (j, out) = job(1, &shared, vec![1, 2, 3], 50_000);
        tx.send(j).unwrap();
        let engine = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_to_shutdown(EngineConfig::demo(), rx, shared))
        };
        wait_until("admission", || shared.metrics.inflight.get() == 1);
        out.close();
        wait_until("abort sweep", || shared.metrics.streams_aborted.get() == 1);
        drop(tx);
        let stats = engine.join().expect("engine thread");
        assert_eq!(shared.metrics.inflight.get(), 0, "batch slot released");
        assert!(stats.total_tokens < 50_000, "stream did not run to completion");
    }

    #[test]
    fn a_batch_of_pushes_costs_one_wake_per_worker_and_signals_each_outbox() {
        let metrics = ServerMetrics::default();
        let workers = [Arc::new(Waker::new().unwrap()), Arc::new(Waker::new().unwrap())];
        let outboxes: Vec<Outbox> =
            (0..6).map(|i| Outbox::new(Arc::clone(&workers[i % 2]))).collect();
        let untouched = Outbox::new(Arc::clone(&workers[0]));
        let mut wakes = WakeSet::default();
        for (i, outbox) in outboxes.iter().enumerate() {
            wakes.push(outbox, OutMsg::Token { index: 0, token: i, pushed_ns: 0 });
            wakes.push(outbox, OutMsg::Done { tokens: vec![i] });
        }
        assert_eq!(metrics.io_wakeups.get(), 0, "nothing is woken before the flush");
        wakes.flush(&metrics);
        assert_eq!(metrics.io_wakeups.get(), 2, "12 pushes to 2 workers: 2 wakes");
        // A second batch before either worker reacted rides the same wakes.
        wakes.push(&outboxes[0], OutMsg::Failed { reason: "x" });
        wakes.flush(&metrics);
        assert_eq!(metrics.io_wakeups.get(), 2);
        // The worker finds exactly the pushed-to outboxes, once.
        workers[0].reset();
        assert!(outboxes.iter().all(Outbox::take_signal));
        assert!(!outboxes.iter().any(Outbox::take_signal));
        assert!(!untouched.take_signal());
        assert_eq!(collect(&outboxes[0]).len(), 3);
        // After the reset a push pays for a fresh wake.
        wakes.push(&outboxes[2], OutMsg::Failed { reason: "y" });
        wakes.flush(&metrics);
        assert_eq!(metrics.io_wakeups.get(), 3);
    }

    #[test]
    fn a_poisoned_outbox_keeps_working() {
        let outbox = Arc::new(Outbox::new(Arc::new(Waker::new().unwrap())));
        outbox.push(OutMsg::Failed { reason: "before" });
        let poisoner = Arc::clone(&outbox);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.events.lock().unwrap();
            panic!("IO worker dies holding the outbox");
        })
        .join();
        assert!(outbox.events.is_poisoned());
        outbox.push(OutMsg::Failed { reason: "after" });
        assert_eq!(collect(&outbox).len(), 2, "engine-side push survives the poison");
    }

    #[test]
    fn shutdown_fails_queued_work_instead_of_hanging() {
        let shared = shared();
        shared.shutdown.store(true, Ordering::Release);
        let (tx, rx) = sync_channel(4);
        let (j, out) = job(1, &shared, vec![1], 2);
        tx.send(j).unwrap();
        let stats = run_to_shutdown(EngineConfig::demo(), rx, Arc::clone(&shared));
        // recv_timeout path may or may not pull the job before noticing the
        // flag; either way nothing decodes and nothing hangs.
        let events = collect(&out);
        if !events.is_empty() {
            assert!(matches!(events[0], OutMsg::Failed { .. }));
        }
        assert_eq!(stats.total_tokens, 0);
        drop(tx);
    }
}
